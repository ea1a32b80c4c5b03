//! The per-node gossip actor.
//!
//! A [`NodeActor`] is one deployable node of the push-pull protocol: it owns
//! its durable [`RumorStore`] and a read-only view of the topology, and it
//! speaks only [`crate::wire`] messages. It needs no shared random stream:
//! the engines key every draw by node and round (see
//! [`rpc_engine::seeding`]), so in round `r` a node evaluates
//!
//! * its own partner, `random_neighbor(v, node_draws(run_seed, v, r − 1, 0))`
//!   (runtime rounds are 1-based, engine rounds 0-based), and
//! * its callers, by evaluating the same draw for each neighbour `u` and
//!   keeping the `u` whose draw lands on `v`,
//!
//! at `O(deg v)` cost. That is exactly the simulator's push-pull schedule
//! restricted to the transfers touching `v`, which is what makes the
//! fault-free runtime trace bit-identical to the in-process simulator. The
//! store is the authoritative rumor state.
//!
//! Fault tolerance falls out of two properties:
//!
//! * push-pull payloads carry the sender's **entire** store, so a dropped
//!   packet delays information but never loses it permanently;
//! * rounds complete *partially* after bounded retries (see
//!   [`NodeActor::GIVE_UP`]) — a node stops waiting for packets that will
//!   never arrive and reports what it has, keeping the cluster live.
//!
//! Crash-restart rebuilds an actor from its persisted store words
//! ([`NodeActor::restart`]). A round's schedule depends only on the round
//! number, so the rejoined node computes the current round's schedule
//! directly and is back in lockstep immediately.

use rpc_engine::seeding::node_draws;
use rpc_graphs::{Graph, NodeId};
use rpc_scenarios::RuntimePlan;

use crate::store::RumorStore;
use crate::wire::{node_name, Body, Envelope, CODE_UNUSABLE, COORDINATOR};

/// One node's part of one push-pull round: the transfers of the
/// simulator's schedule that start or end at the node, in schedule order.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RoundSchedule {
    /// Peers the node sends its payload to.
    pub sends: Vec<NodeId>,
    /// Peers whose payload the node must receive (a peer appears twice when
    /// both nodes opened a channel to each other).
    pub expected: Vec<NodeId>,
    /// Packets the node sends, under the simulator's accounting (self-loop
    /// transfers count but never cross the wire).
    pub packets: u64,
    /// Channels the node opened.
    pub exchanges: u64,
}

/// The in-flight state of one synchronous round at one node.
#[derive(Debug)]
struct PendingRound {
    /// The round number (1-based).
    round: u64,
    /// Peers this node sends its payload to this round.
    sends: Vec<NodeId>,
    /// The hex payload (pre-round store snapshot) sent to every peer.
    payload_hex: String,
    /// Peers whose payload this node must receive this round.
    expected: Vec<NodeId>,
    /// Receipt flags, parallel to `expected`.
    received: Vec<bool>,
    /// Packets this node sends this round (simulator accounting).
    packets: u64,
    /// Channels this node opened this round.
    exchanges: u64,
    /// How many `start_round` retransmissions we have seen for this round.
    retries_seen: u32,
}

impl PendingRound {
    fn complete(&self) -> bool {
        self.received.iter().all(|&r| r)
    }
}

/// One deployable push-pull gossip node (see module docs).
#[derive(Debug)]
pub struct NodeActor<'g> {
    id: NodeId,
    plan: RuntimePlan,
    /// The topology: the node reads its own and its neighbours' adjacency.
    graph: &'g Graph,
    store: RumorStore,
    /// Union of every rumor that provably *arrived* (decoded payloads plus
    /// this node's own rumor) — the provenance set behind
    /// [`NodeActor::no_forged_rumors`].
    delivered: RumorStore,
    /// The last round begun (0 before the first).
    started: u64,
    current: Option<PendingRound>,
    /// Gossip that arrived for a round we have not begun yet (the sender is
    /// ahead of us, e.g. after the coordinator force-advanced on a quorum).
    early: Vec<(u64, NodeId, Vec<u64>)>,
    /// The last completed round's report, for idempotent re-acks.
    last_ok: Option<(u64, Body)>,
}

impl<'g> NodeActor<'g> {
    /// After this many `start_round` retransmissions for the same round, the
    /// node completes the round with whatever it has received: the missing
    /// payloads were lost in transit and will be re-carried by future rounds
    /// anyway (full-store resend), so waiting longer only stalls the cluster.
    pub const GIVE_UP: u32 = 2;

    /// A fresh node `id` executing `plan` over `graph` (classic initial
    /// state: the node knows exactly its own rumor).
    pub fn new(graph: &'g Graph, plan: &RuntimePlan, id: NodeId) -> Self {
        let store = RumorStore::with_own(plan.n, id);
        let delivered = store.clone();
        Self::with_state(graph, plan, id, store, delivered)
    }

    /// A node rebuilt after a crash from its persisted store words. It joins
    /// whatever round the next `start_round` names.
    pub fn restart(graph: &'g Graph, plan: &RuntimePlan, id: NodeId, persisted: &[u64]) -> Self {
        let mut store = RumorStore::new(plan.n);
        store.merge_words(persisted);
        // Everything persisted was once delivered; the provenance baseline
        // restarts from the persisted set.
        let delivered = store.clone();
        Self::with_state(graph, plan, id, store, delivered)
    }

    fn with_state(
        graph: &'g Graph,
        plan: &RuntimePlan,
        id: NodeId,
        store: RumorStore,
        delivered: RumorStore,
    ) -> Self {
        NodeActor {
            id,
            plan: plan.clone(),
            graph,
            store,
            delivered,
            started: 0,
            current: None,
            early: Vec::new(),
            last_ok: None,
        }
    }

    /// This node's id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// This node's wire name (`n<id>`).
    pub fn name(&self) -> String {
        node_name(self.id)
    }

    /// The durable rumor state.
    pub fn store(&self) -> &RumorStore {
        &self.store
    }

    /// This node's part of push-pull round `round` (1-based): the
    /// simulator's transfers `(w, partner(w)), (partner(w), w)` for every
    /// opener `w` that is this node or a neighbour calling it, in ascending
    /// opener order. Empty past the plan's round cap.
    pub fn schedule(&self, round: u64) -> RoundSchedule {
        let mut schedule = RoundSchedule::default();
        if round == 0 || round > self.plan.max_rounds {
            return schedule;
        }
        let id = self.id;
        let mut pairs: Vec<(NodeId, NodeId)> = Vec::new();
        let mut last = None;
        for &w in self.graph.neighbors(id) {
            // Adjacency is sorted: skip parallel copies, and self-loops (a
            // self-loop partner is this node's own draw, added below).
            if last != Some(w) && w != id && self.partner(w, round) == Some(id) {
                pairs.push((w, id));
            }
            last = Some(w);
        }
        if let Some(u) = self.partner(id, round) {
            pairs.insert(pairs.partition_point(|&(w, _)| w < id), (id, u));
        }
        for (w, u) in pairs {
            // One channel: the opener pushes, the callee answers the pull.
            for (from, to, push) in [(w, u, true), (u, w, false)] {
                if from == id {
                    schedule.packets += 1;
                    schedule.exchanges += u64::from(push);
                    if to != id {
                        schedule.sends.push(to);
                    }
                } else if to == id {
                    schedule.expected.push(from);
                }
            }
        }
        schedule
    }

    /// Node `u`'s push-pull partner in round `round`: its first draw of
    /// engine round `round - 1`.
    fn partner(&self, u: NodeId, round: u64) -> Option<NodeId> {
        let mut draws = node_draws(self.plan.run_seed, u64::from(u), round - 1, 0);
        self.graph.random_neighbor(u, &mut draws)
    }

    /// No rumor was forged: everything in the store arrived in a decoded
    /// payload, was persisted across a crash, or is the node's own rumor.
    pub fn no_forged_rumors(&self) -> bool {
        self.store.is_subset_of(&self.delivered)
    }

    /// Handles one incoming envelope, returning the replies/sends it causes.
    pub fn handle(&mut self, env: &Envelope) -> Vec<Envelope> {
        match env.body {
            Body::Init { .. } => vec![self.init_ok(&env.src)],
            Body::StartRound { round, .. } => self.on_start_round(round),
            Body::Gossip { round, from, ref rumors } => {
                self.on_gossip(&env.src, round, from, rumors)
            }
            Body::Read => vec![Envelope::new(
                self.name(),
                env.src.clone(),
                Body::ReadOk {
                    informed: self.store.is_full(),
                    tracked: self.store.contains(self.plan.tracked as usize),
                    count: self.store.count() as u64,
                    rumors: self.store.to_hex(),
                },
            )],
            Body::Tick { .. } => vec![Envelope::new(
                self.name(),
                env.src.clone(),
                Body::Error { code: CODE_UNUSABLE, text: "nodes keep no timers".into() },
            )],
            // Replies addressed to us by mistake carry no obligations.
            Body::InitOk { .. }
            | Body::RoundOk { .. }
            | Body::ReadOk { .. }
            | Body::Error { .. } => Vec::new(),
        }
    }

    /// The idempotent `init_ok` reply (cluster actors are pre-built, so
    /// `init` only acknowledges identity and reports the initial state).
    fn init_ok(&self, to: &str) -> Envelope {
        Envelope::new(
            self.name(),
            to.to_string(),
            Body::InitOk {
                informed: self.store.is_full(),
                tracked: self.store.contains(self.plan.tracked as usize),
                count: self.store.count() as u64,
            },
        )
    }

    fn on_start_round(&mut self, round: u64) -> Vec<Envelope> {
        // Retransmission of the round we are already executing: our gossip
        // (or peers' replies) may have been lost — resend everything, and
        // after GIVE_UP retries stop waiting for the missing payloads.
        if let Some(cur) = &mut self.current {
            if cur.round == round {
                cur.retries_seen += 1;
                let give_up = cur.retries_seen >= Self::GIVE_UP;
                let mut out: Vec<Envelope> = Vec::new();
                let (r, payload) = (cur.round, cur.payload_hex.clone());
                let sends = cur.sends.clone();
                if give_up {
                    for flag in &mut cur.received {
                        *flag = true;
                    }
                } else {
                    for &dst in &sends {
                        out.push(Envelope::new(
                            self.name(),
                            node_name(dst),
                            Body::Gossip { round: r, from: self.id, rumors: payload.clone() },
                        ));
                    }
                }
                if self.current.as_ref().is_some_and(PendingRound::complete) {
                    out.push(self.complete_round());
                }
                return out;
            }
        }
        if round <= self.started {
            // Stale duplicate: re-ack idempotently if it names the round we
            // last reported, otherwise there is nothing left to say.
            return match &self.last_ok {
                Some((r, body)) if *r == round => {
                    vec![Envelope::new(self.name(), COORDINATOR.to_string(), body.clone())]
                }
                _ => Vec::new(),
            };
        }
        // The coordinator moved past a round we never finished (quorum
        // advance): abandon it — future payloads re-carry everything.
        self.current = None;
        self.begin_round(round)
    }

    fn begin_round(&mut self, round: u64) -> Vec<Envelope> {
        // Snapshot first: payloads carry pre-round state, exactly as the
        // engine's deliver() reads sender sets snapshotted before any merge
        // of the round.
        let payload_hex = self.store.to_hex();
        let RoundSchedule { sends, expected, packets, exchanges } = self.schedule(round);
        self.started = round;
        let received = vec![false; expected.len()];
        let mut out: Vec<Envelope> = sends
            .iter()
            .map(|&dst| {
                Envelope::new(
                    self.name(),
                    node_name(dst),
                    Body::Gossip { round, from: self.id, rumors: payload_hex.clone() },
                )
            })
            .collect();
        self.current = Some(PendingRound {
            round,
            sends,
            payload_hex,
            expected,
            received,
            packets,
            exchanges,
            retries_seen: 0,
        });
        // Gossip that raced ahead of this start_round is already buffered.
        let early = std::mem::take(&mut self.early);
        for (r, from, words) in early {
            if r == round {
                self.accept_gossip(round, from, &words);
            } else if r > round {
                self.early.push((r, from, words));
            } else {
                self.store.merge_words(&words);
            }
        }
        if self.current.as_ref().is_some_and(PendingRound::complete) {
            out.push(self.complete_round());
        }
        out
    }

    fn on_gossip(&mut self, src: &str, round: u64, from: NodeId, rumors: &str) -> Vec<Envelope> {
        let words = match RumorStore::from_hex(rumors, self.plan.n) {
            Ok(s) => s.words().to_vec(),
            Err(e) => {
                return vec![Envelope::new(
                    self.name(),
                    src.to_string(),
                    Body::Error { code: e.code(), text: e.to_string() },
                )]
            }
        };
        // Provenance first: whatever decodes counts as delivered.
        self.delivered.merge_words(&words);
        if self.current.as_ref().is_some_and(|c| c.round == round) {
            self.accept_gossip(round, from, &words);
            if self.current.as_ref().is_some_and(PendingRound::complete) {
                return vec![self.complete_round()];
            }
            Vec::new()
        } else if round <= self.started {
            // A late (or duplicated) packet: information is monotone, merge.
            self.store.merge_words(&words);
            Vec::new()
        } else {
            self.early.push((round, from, words));
            Vec::new()
        }
    }

    /// Merges an in-round payload and marks its sender as received.
    fn accept_gossip(&mut self, round: u64, from: NodeId, words: &[u64]) {
        self.delivered.merge_words(words);
        self.store.merge_words(words);
        if let Some(cur) = &mut self.current {
            if cur.round == round {
                // A peer can legitimately appear twice in `expected` (it
                // answers our open AND opens its own channel to us, sending
                // two packets) — mark the first still-unreceived slot.
                let slot =
                    cur.expected.iter().zip(&cur.received).position(|(&e, &got)| e == from && !got);
                if let Some(pos) = slot {
                    cur.received[pos] = true;
                }
            }
        }
    }

    /// Finishes the current round: caches and returns the `round_ok` report.
    fn complete_round(&mut self) -> Envelope {
        let cur = self.current.take().expect("complete_round requires a pending round");
        let body = Body::RoundOk {
            round: cur.round,
            informed: self.store.is_full(),
            tracked: self.store.contains(self.plan.tracked as usize),
            count: self.store.count() as u64,
            packets: cur.packets,
            exchanges: cur.exchanges,
        };
        self.last_ok = Some((cur.round, body.clone()));
        Envelope::new(self.name(), COORDINATOR.to_string(), body)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpc_scenarios::{plan_runtime, registry};

    fn setup(n: usize, seed: u64) -> (Graph, RuntimePlan) {
        let scenario = registry::find("sparse-er", n).expect("registry scenario");
        let graph =
            scenario.topology.build().generate(rpc_scenarios::scenario_engine_seeds(seed).0);
        let plan = plan_runtime(&scenario, seed, &graph).expect("benign push-pull plan");
        (graph, plan)
    }

    #[test]
    fn init_is_idempotent_and_reports_initial_state() {
        let (graph, plan) = setup(16, 3);
        let mut actor = NodeActor::new(&graph, &plan, 5);
        for _ in 0..2 {
            let replies = actor.handle(&Envelope::new(
                COORDINATOR,
                "n5",
                Body::Init { node_id: 5, n: 16, scenario: "sparse-er".into(), seed: 3 },
            ));
            assert_eq!(replies.len(), 1);
            match replies[0].body {
                Body::InitOk { informed, tracked, count } => {
                    assert!(!informed);
                    assert_eq!(count, 1);
                    assert_eq!(tracked, plan.tracked == 5);
                }
                ref other => panic!("expected init_ok, got {other:?}"),
            }
        }
    }

    #[test]
    fn round_one_sends_gossip_with_pre_round_payload() {
        let (graph, plan) = setup(16, 3);
        let mut actor = NodeActor::new(&graph, &plan, 0);
        let out = actor.handle(&Envelope::new(
            COORDINATOR,
            "n0",
            Body::StartRound { round: 1, attempt: 0 },
        ));
        // Every node opens one channel in round 1, so node 0 sends at least
        // its push half (possibly more as the answering side of others).
        let gossips: Vec<_> =
            out.iter().filter(|e| matches!(e.body, Body::Gossip { .. })).collect();
        assert!(!gossips.is_empty());
        for g in &gossips {
            match g.body {
                Body::Gossip { round, from, ref rumors } => {
                    assert_eq!(round, 1);
                    assert_eq!(from, 0);
                    let s = RumorStore::from_hex(rumors, 16).unwrap();
                    assert_eq!(s.count(), 1, "round-1 payload is the initial store");
                    assert!(s.contains(0));
                }
                _ => unreachable!(),
            }
        }
        assert!(actor.no_forged_rumors());
    }

    #[test]
    fn give_up_completes_a_round_partially() {
        let (graph, plan) = setup(16, 3);
        let mut actor = NodeActor::new(&graph, &plan, 0);
        let start = Envelope::new(COORDINATOR, "n0", Body::StartRound { round: 1, attempt: 0 });
        let first = actor.handle(&start);
        let had_round_ok = first.iter().any(|e| matches!(e.body, Body::RoundOk { .. }));
        if had_round_ok {
            // Nothing was expected this round; the test exercises nothing.
            return;
        }
        // Two retransmissions: the second reaches GIVE_UP and forces the
        // partial completion.
        let _ = actor.handle(&start);
        let out = actor.handle(&start);
        assert!(
            out.iter().any(|e| matches!(e.body, Body::RoundOk { .. })),
            "after GIVE_UP retries the round completes with what arrived"
        );
        // Re-acks stay idempotent afterwards.
        let again = actor.handle(&start);
        assert_eq!(again.len(), 1);
        assert!(matches!(again[0].body, Body::RoundOk { round: 1, .. }));
    }

    #[test]
    fn malformed_gossip_yields_a_structured_error() {
        let (graph, plan) = setup(16, 3);
        let mut actor = NodeActor::new(&graph, &plan, 0);
        let out = actor.handle(&Envelope::new(
            "n1",
            "n0",
            Body::Gossip { round: 1, from: 1, rumors: "zz".into() },
        ));
        assert_eq!(out.len(), 1);
        assert!(matches!(out[0].body, Body::Error { .. }));
        assert!(actor.no_forged_rumors());
    }

    #[test]
    fn restart_preserves_persisted_rumors() {
        let (graph, plan) = setup(16, 3);
        let mut store = RumorStore::with_own(16, 4);
        store.insert(9);
        store.insert(12);
        let actor = NodeActor::restart(&graph, &plan, 4, store.words());
        assert_eq!(actor.store().count(), 3);
        assert!(actor.store().contains(9));
        assert!(actor.no_forged_rumors());
    }
}
