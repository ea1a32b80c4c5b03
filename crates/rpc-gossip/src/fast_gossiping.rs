//! Algorithm 1: fast-gossiping in the traditional random phone call model.
//!
//! The algorithm trades running time for communication volume (Theorem 1:
//! `O(log² n / log log n)` time, `O(n log n / log log n)` transmissions on
//! random graphs with degree `Ω(log^{2+ε} n)`). It works in three phases:
//!
//! 1. **Distribution** — every node pushes its combined message for
//!    `Θ(log n / log log n)` steps, so each message reaches `log^k n` nodes.
//! 2. **Random walks** — `Θ(log n / log log n)` rounds. In each round every
//!    node starts a random walk with probability `ℓ/log n`; walks accumulate
//!    the messages of the nodes they visit, are queued at the hosts and
//!    forwarded one per step; finally the nodes holding a walk seed a short
//!    broadcast of `½ log log n` steps that multiplies the informed sets by
//!    `Θ(√log n)`.
//! 3. **Broadcast** — plain push-pull finishes the dissemination.
//!
//! The per-phase step counts come from [`FastGossipingConfig`]; the defaults
//! are the tuned constants of Table 1.

use rand::Rng;
use rpc_graphs::NodeId;

use rpc_engine::{Engine, Transfer, Walk, WalkQueues};

use crate::config::FastGossipingConfig;
use crate::push_pull::push_pull_round;
use crate::runner::{ProtocolDriver, StepStatus};

/// Algorithm 1 (fast-gossiping).
#[derive(Clone, Copy, Debug)]
pub struct FastGossiping {
    config: FastGossipingConfig,
}

impl FastGossiping {
    /// Fast-gossiping with an explicit configuration.
    pub fn new(config: FastGossipingConfig) -> Self {
        Self { config }
    }

    /// Fast-gossiping with the Table 1 constants for a network of `n` nodes.
    pub fn paper(n: usize) -> Self {
        Self::new(FastGossipingConfig::paper_defaults(n))
    }

    /// The configuration in use.
    pub fn config(&self) -> &FastGossipingConfig {
        &self.config
    }

    /// Phase I: every node pushes its combined message in every step (test
    /// helper; the production path is [`FastGossipingDriver`]).
    #[cfg(test)]
    fn phase1_distribution<E: Engine>(&self, sim: &mut E) {
        let mut driver = FastGossipingDriver::new(*self, sim.num_nodes());
        for _ in 0..self.config.phase1_steps {
            driver.step(sim);
        }
    }

    /// Delivers walk tokens that arrived in the previous step: the host merges
    /// the walk's messages into its own state and enqueues the walk (now
    /// carrying the host's combined message), unless the walk has exceeded its
    /// move budget.
    fn process_walk_arrivals<E: Engine>(
        &self,
        sim: &mut E,
        queues: &mut WalkQueues,
        arrivals: Vec<(NodeId, Walk)>,
    ) {
        for (host, mut walk) in arrivals {
            if !sim.is_alive(host) || walk.moves > self.config.max_walk_moves {
                continue;
            }
            // q_v.add(m' ∪ m_v); m_v ← m_v ∪ m'.
            sim.absorb(host, &walk.messages);
            walk.messages.copy_from(sim.state(host));
            queues.add(host, walk);
        }
    }
}

/// Where the [`FastGossipingDriver`] is inside Algorithm 1's schedule. Each
/// variant corresponds to one kind of synchronous round; the nested loops of
/// the pseudocode become explicit resumable states.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum FgState {
    /// Phase I, distribution step `step` of `phase1_steps`.
    Phase1 { step: usize },
    /// Phase II round `round`: the coin-flip step that starts random walks.
    CoinFlip { round: usize },
    /// Phase II round `round`, walk-forwarding step `step` of `walk_steps`.
    Forward { round: usize, step: usize },
    /// Phase II round `round`, broadcast step `step` of `broadcast_steps`.
    Broadcast { round: usize, step: usize },
    /// Phase III: closing push-pull steps.
    Phase3,
    /// Schedule exhausted.
    Finished,
}

/// The resumable [`ProtocolDriver`] for Algorithm 1 (fast-gossiping).
///
/// The three phases of the pseudocode — and the nested
/// coin-flip/forward/broadcast loops inside Phase II — are encoded as an
/// explicit state machine, one state transition per synchronous round, so the
/// scenario engine can evaluate stop rules and record traces between *any*
/// two rounds of the protocol. Cross-round protocol state (the walk queues,
/// the active set of the short broadcasts, the Phase III step counter) lives
/// in the driver.
#[derive(Clone, Debug)]
pub struct FastGossipingDriver {
    alg: FastGossiping,
    state: FgState,
    queues: WalkQueues,
    active: Vec<bool>,
    transfers: Vec<Transfer>,
    phase3_steps: usize,
}

impl FastGossipingDriver {
    /// A driver for `alg` on a network of `n` nodes, positioned before the
    /// first Phase I round.
    pub fn new(alg: FastGossiping, n: usize) -> Self {
        Self {
            alg,
            state: FgState::Phase1 { step: 0 },
            queues: WalkQueues::new(n),
            active: Vec::new(),
            transfers: Vec::with_capacity(n),
            phase3_steps: 0,
        }
    }

    /// Crosses every phase/segment boundary the current position has reached:
    /// marks phase snapshots, prepares segment state (broadcast active set,
    /// queue clearing) and skips zero-length segments. Draws no randomness.
    fn advance_boundaries<E: Engine>(&mut self, sim: &mut E) {
        let cfg = &self.alg.config;
        loop {
            match self.state {
                FgState::Phase1 { step } if step >= cfg.phase1_steps => {
                    sim.metrics_mut().mark_phase("phase1-distribution");
                    self.state = FgState::CoinFlip { round: 0 };
                }
                FgState::CoinFlip { round } if round >= cfg.phase2_rounds => {
                    sim.metrics_mut().mark_phase("phase2-random-walks");
                    self.state = FgState::Phase3;
                }
                FgState::Forward { round, step } if step >= cfg.walk_steps => {
                    // Nodes that currently host a walk become active and run
                    // a short broadcast.
                    self.active.clear();
                    self.active.resize(sim.num_nodes(), false);
                    for v in self.queues.nodes_with_walks() {
                        self.active[v as usize] = true;
                    }
                    self.state = FgState::Broadcast { round, step: 0 };
                }
                FgState::Broadcast { round, step } if step >= cfg.broadcast_steps => {
                    // "All nodes become inactive"; walks are discarded at the
                    // end of the round (their content already lives in the
                    // hosts' states).
                    self.queues.clear();
                    self.state = FgState::CoinFlip { round: round + 1 };
                }
                FgState::Phase3
                    if sim.gossip_complete() || self.phase3_steps >= cfg.phase3_max_steps =>
                {
                    sim.metrics_mut().mark_phase("phase3-broadcast");
                    self.state = FgState::Finished;
                }
                _ => break,
            }
        }
    }

    /// Coin flips: with probability ℓ/log n a node starts a random walk by
    /// pushing its combined message to a random neighbour.
    fn coin_flip_round<E: Engine>(&mut self, sim: &mut E) {
        let n = sim.num_nodes();
        let mut arrivals: Vec<(NodeId, Walk)> = Vec::new();
        for v in 0..n as NodeId {
            let start = sim.node_draws(v).gen_bool(self.alg.config.walk_probability);
            if !start {
                continue;
            }
            if let Some(u) = sim.open_channel(v) {
                sim.metrics_mut().record_packet(v);
                sim.metrics_mut().record_exchange(v);
                arrivals.push((u, Walk::new(sim.state(v).clone())));
            }
        }
        sim.metrics_mut().finish_round();
        self.alg.process_walk_arrivals(sim, &mut self.queues, arrivals);
    }

    /// Walk forwarding: every node holding at least one walk forwards the
    /// oldest one to a random neighbour.
    fn forward_round<E: Engine>(&mut self, sim: &mut E) {
        let n = sim.num_nodes();
        let mut arrivals: Vec<(NodeId, Walk)> = Vec::new();
        for v in 0..n as NodeId {
            if self.queues.is_empty(v) || !sim.is_alive(v) {
                continue;
            }
            if let Some(u) = sim.open_channel(v) {
                let mut walk = self.queues.pop(v).expect("queue checked non-empty");
                walk.moves += 1;
                sim.metrics_mut().record_packet(v);
                sim.metrics_mut().record_exchange(v);
                arrivals.push((u, walk));
            }
        }
        sim.metrics_mut().finish_round();
        self.alg.process_walk_arrivals(sim, &mut self.queues, arrivals);
    }

    /// One step of the short broadcast seeded by the walk hosts; nodes that
    /// receive a message become active as well.
    fn broadcast_round<E: Engine>(&mut self, sim: &mut E) {
        let n = sim.num_nodes();
        self.transfers.clear();
        for v in 0..n as NodeId {
            if !self.active[v as usize] {
                continue;
            }
            if let Some(u) = sim.open_channel(v) {
                self.transfers.push(Transfer::new(v, u));
                sim.metrics_mut().record_exchange(v);
            }
        }
        sim.deliver(&self.transfers);
        for t in &self.transfers {
            self.active[t.to as usize] = true;
        }
        sim.metrics_mut().finish_round();
    }

    /// Phase I distribution: every node pushes its combined message.
    fn phase1_round<E: Engine>(&mut self, sim: &mut E) {
        let n = sim.num_nodes();
        self.transfers.clear();
        for v in 0..n as NodeId {
            if let Some(u) = sim.open_channel(v) {
                self.transfers.push(Transfer::new(v, u));
                sim.metrics_mut().record_exchange(v);
            }
        }
        sim.deliver(&self.transfers);
        sim.metrics_mut().finish_round();
    }
}

impl ProtocolDriver for FastGossipingDriver {
    fn name(&self) -> &'static str {
        "fast-gossiping"
    }

    fn finished<E: Engine>(&self, _sim: &E) -> bool {
        self.state == FgState::Finished
    }

    fn step<E: Engine>(&mut self, sim: &mut E) -> StepStatus {
        self.advance_boundaries(sim);
        match self.state {
            FgState::Finished => return StepStatus::Done,
            FgState::Phase1 { step } => {
                self.phase1_round(sim);
                self.state = FgState::Phase1 { step: step + 1 };
            }
            FgState::CoinFlip { round } => {
                self.coin_flip_round(sim);
                self.state = FgState::Forward { round, step: 0 };
            }
            FgState::Forward { round, step } => {
                self.forward_round(sim);
                self.state = FgState::Forward { round, step: step + 1 };
            }
            FgState::Broadcast { round, step } => {
                self.broadcast_round(sim);
                self.state = FgState::Broadcast { round, step: step + 1 };
            }
            FgState::Phase3 => {
                push_pull_round(sim, &mut self.transfers);
                self.phase3_steps += 1;
            }
        }
        // Cross any boundary this round just reached, so phase markers land
        // between the last round of a phase and the first of the next.
        self.advance_boundaries(sim);
        StepStatus::Running
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::push_pull::PushPullDriver;
    use crate::runner::{assert_stepping_matches_run_driver, run_fresh};
    use rand::Rng;
    use rpc_engine::Accounting;
    use rpc_engine::Simulation;
    use rpc_graphs::prelude::*;

    #[test]
    fn completes_on_paper_density_random_graph() {
        let n = 512;
        let g = ErdosRenyi::paper_density(n).generate(1);
        let outcome = run_fresh(FastGossipingDriver::new(FastGossiping::paper(n), n), &g, 2);
        assert!(outcome.completed());
        assert_eq!(outcome.fully_informed(), n);
    }

    #[test]
    fn completes_on_complete_graph() {
        let n = 256;
        let g = CompleteGraph::new(n).generate(0);
        let outcome = run_fresh(FastGossipingDriver::new(FastGossiping::paper(n), n), &g, 3);
        assert!(outcome.completed());
    }

    #[test]
    fn phase_markers_are_recorded_in_order() {
        let n = 128;
        let g = ErdosRenyi::paper_density(n).generate(2);
        let outcome = run_fresh(FastGossipingDriver::new(FastGossiping::paper(n), n), &g, 4);
        let labels: Vec<_> = outcome.phases().iter().map(|p| p.label.clone()).collect();
        assert_eq!(labels, vec!["phase1-distribution", "phase2-random-walks", "phase3-broadcast"]);
        assert!(outcome.packets_in_phase("phase1-distribution").unwrap() > 0);
    }

    #[test]
    fn phase1_informs_a_polylog_set_per_message() {
        // Lemma 1 (scaled down): after the distribution phase every message is
        // known by noticeably more than one node.
        let n = 1024;
        let g = ErdosRenyi::paper_density(n).generate(5);
        let alg = FastGossiping::paper(n);
        let mut sim = Simulation::new(&g, 6);
        alg.phase1_distribution(&mut sim);
        let mut min_informed = usize::MAX;
        for m in (0..n as u32).step_by(97) {
            min_informed = min_informed.min(sim.informed_count_of(m));
        }
        assert!(min_informed >= 3, "some message reached only {min_informed} nodes after phase I");
    }

    #[test]
    fn uses_fewer_messages_per_node_than_push_pull_at_moderate_size() {
        // The headline empirical claim of Figure 1: an increasing gap between
        // the message complexity of Algorithm 1 and simple push-pull.
        let n = 4096;
        let g = ErdosRenyi::paper_density(n).generate(7);
        let fast = run_fresh(FastGossipingDriver::new(FastGossiping::paper(n), n), &g, 8);
        let baseline = run_fresh(PushPullDriver::new(10_000), &g, 8);
        assert!(fast.completed() && baseline.completed());
        let fast_msgs = fast.messages_per_node(Accounting::PerPacket);
        let base_msgs = baseline.messages_per_node(Accounting::PerPacket);
        assert!(
            fast_msgs < base_msgs,
            "fast-gossiping ({fast_msgs:.2}) should beat push-pull ({base_msgs:.2})"
        );
    }

    #[test]
    fn stepping_with_queries_matches_run_driver() {
        let n = 256;
        let g = ErdosRenyi::paper_density(n).generate(15);
        let driver = FastGossipingDriver::new(FastGossiping::paper(n), n);
        let labels = ["phase1-distribution", "phase2-random-walks", "phase3-broadcast"];
        assert_stepping_matches_run_driver(driver, &g, 16, &labels);
    }

    #[test]
    fn walk_arrivals_merge_messages_into_hosts() {
        let n = 64;
        let g = CompleteGraph::new(n).generate(0);
        let alg = FastGossiping::paper(n);
        let mut sim = Simulation::new(&g, 9);
        let mut queues = WalkQueues::new(n);
        let walk = Walk::new(sim.state(3).clone());
        alg.process_walk_arrivals(&mut sim, &mut queues, vec![(10, walk)]);
        assert!(sim.knows(10, 3));
        assert_eq!(queues.len(10), 1);
        // The queued walk now carries the host's own message as well.
        let queued = queues.pop(10).unwrap();
        assert!(queued.messages.contains(10) && queued.messages.contains(3));
    }

    #[test]
    fn exhausted_walks_are_dropped() {
        let n = 16;
        let g = CompleteGraph::new(n).generate(0);
        let alg = FastGossiping::new(FastGossipingConfig {
            max_walk_moves: 2,
            ..FastGossipingConfig::paper_defaults(n)
        });
        let mut sim = Simulation::new(&g, 10);
        let mut queues = WalkQueues::new(n);
        let mut walk = Walk::new(sim.state(0).clone());
        walk.moves = 3;
        alg.process_walk_arrivals(&mut sim, &mut queues, vec![(5, walk)]);
        assert_eq!(queues.total_walks(), 0);
        assert!(!sim.knows(5, 0), "dropped walks are not merged");
    }

    #[test]
    fn number_of_walks_concentrates_around_n_over_log_n() {
        // Section 3.2: Θ(n / log n) random walks are started per round w.h.p.
        let n = 1 << 14;
        let cfg = FastGossipingConfig::paper_defaults(n);
        let mut rng = rand::rngs::SmallRng::seed_from_u64(3);
        let mut started = 0usize;
        for _ in 0..n {
            if rng.gen_bool(cfg.walk_probability) {
                started += 1;
            }
        }
        let expected = n as f64 * cfg.walk_probability;
        assert!((started as f64 - expected).abs() < 5.0 * expected.sqrt() + 5.0);
    }

    use rand::SeedableRng;
}
