//! Randomized broadcasting baselines (push and push-pull).
//!
//! Broadcasting — one distinguished node spreads a single rumor — is the
//! problem the paper contrasts gossiping against: Karp et al. showed that
//! push-pull broadcasting in complete graphs needs only `O(n log log n)`
//! transmissions, while Elsässer (SPAA'06) showed this bound cannot be
//! achieved in sparse random graphs. Gossiping, by the paper's main result,
//! shows *no* such density separation. The [`BroadcastDriver`]'s two modes
//! (push and push-pull) let the experiment harness reproduce that motivating
//! contrast.

use rpc_engine::{Engine, Transfer};
use rpc_graphs::NodeId;

use crate::runner::{ProtocolDriver, StepStatus};

/// Which broadcasting discipline a [`BroadcastDriver`] runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BroadcastMode {
    /// Only informed nodes open channels and push (Pittel; Feige et al.).
    Push,
    /// Every node opens a channel; the rumor travels in whichever direction
    /// is possible (Karp et al.).
    PushPull,
}

/// The resumable [`ProtocolDriver`] for the broadcasting baselines, run on a
/// *streaming* engine: the rumor(s) enter via scheduled injection, nodes
/// start empty, and "informed" means a non-empty message set. The driver goes
/// through the [`Engine`] primitives, so broadcasting composes with stop
/// rules, hostile environments and the packed/unpacked equivalence suites
/// exactly like the gossiping protocols — this is the paper's
/// broadcast-vs-gossip density contrast made runnable under the scenario
/// engine. Its natural termination is completion: every participating node
/// knows every injected rumor.
///
/// Accounting follows the paper's related-work discussion: one channel
/// exchange per opener, one packet per actual rumor transmission (informed
/// side only) — uninformed sides of a push-pull channel transmit nothing.
#[derive(Clone, Debug)]
pub struct BroadcastDriver {
    mode: BroadcastMode,
    max_rounds: usize,
    steps: usize,
    transfers: Vec<Transfer>,
}

impl BroadcastDriver {
    /// A driver producing at most `max_rounds` rounds in the given mode.
    pub fn new(mode: BroadcastMode, max_rounds: usize) -> Self {
        Self { mode, max_rounds, steps: 0, transfers: Vec::new() }
    }

    /// Push-only broadcasting.
    pub fn push(max_rounds: usize) -> Self {
        Self::new(BroadcastMode::Push, max_rounds)
    }

    /// Push-pull broadcasting.
    pub fn push_pull(max_rounds: usize) -> Self {
        Self::new(BroadcastMode::PushPull, max_rounds)
    }
}

impl ProtocolDriver for BroadcastDriver {
    fn name(&self) -> &'static str {
        match self.mode {
            BroadcastMode::Push => "broadcast-push",
            BroadcastMode::PushPull => "broadcast-push-pull",
        }
    }

    fn finished<E: Engine>(&self, sim: &E) -> bool {
        sim.gossip_complete()
    }

    fn step<E: Engine>(&mut self, sim: &mut E) -> StepStatus {
        if self.steps >= self.max_rounds {
            return StepStatus::Done;
        }
        // Informedness gates the per-node work *before* any engine primitive
        // runs, so round-boundary injections must be applied eagerly — the
        // lazy poll inside `open_channel` would come too late for the first
        // informed node's check.
        sim.apply_due_events();
        let n = sim.num_nodes();
        self.transfers.clear();
        match self.mode {
            BroadcastMode::Push => {
                for v in 0..n as NodeId {
                    if sim.state(v).is_empty() {
                        continue;
                    }
                    if let Some(u) = sim.open_channel(v) {
                        self.transfers.push(Transfer::new(v, u));
                        sim.metrics_mut().record_exchange(v);
                    }
                }
            }
            BroadcastMode::PushPull => {
                for v in 0..n as NodeId {
                    if let Some(u) = sim.open_channel(v) {
                        // Delivery is deferred, so both informedness checks
                        // see the consistent pre-round state.
                        if !sim.state(v).is_empty() {
                            self.transfers.push(Transfer::new(v, u));
                        }
                        if !sim.state(u).is_empty() {
                            self.transfers.push(Transfer::new(u, v));
                        }
                        sim.metrics_mut().record_exchange(v);
                    }
                }
            }
        }
        sim.deliver(&self.transfers);
        sim.metrics_mut().finish_round();
        self.steps += 1;
        StepStatus::Running
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::run_driver;
    use rpc_engine::Simulation;
    use rpc_graphs::prelude::*;

    /// Safety cap on broadcast rounds.
    const MAX_ROUNDS: usize = 10_000;

    /// The result of one single-rumor broadcast.
    struct Broadcast {
        rounds: u64,
        transmissions: u64,
        informed: usize,
        completed: bool,
    }

    /// Injects one rumor at `source` in round 0 and runs `driver` on a
    /// streaming engine until every node knows it (or the round cap).
    fn broadcast(mut driver: BroadcastDriver, g: &Graph, source: NodeId, seed: u64) -> Broadcast {
        let n = g.num_nodes();
        let mut sim = Simulation::new_streaming(g, seed, 1);
        if n > 0 {
            sim.schedule_injection(0, source, 0);
        }
        let rounds = run_driver(&mut driver, &mut sim);
        Broadcast {
            rounds,
            transmissions: sim.metrics().total_packets(),
            informed: (0..n as NodeId).filter(|&v| !sim.state(v).is_empty()).count(),
            completed: sim.gossip_complete(),
        }
    }

    fn push(g: &Graph, seed: u64) -> Broadcast {
        broadcast(BroadcastDriver::push(MAX_ROUNDS), g, 0, seed)
    }

    fn push_pull(g: &Graph, seed: u64) -> Broadcast {
        broadcast(BroadcastDriver::push_pull(MAX_ROUNDS), g, 0, seed)
    }

    #[test]
    fn push_broadcast_informs_everyone_on_complete_graph() {
        let n = 1024;
        let g = CompleteGraph::new(n).generate(0);
        let outcome = push(&g, 1);
        assert!(outcome.completed);
        assert_eq!(outcome.informed, n);
    }

    #[test]
    fn push_broadcast_round_count_matches_pittel_bound() {
        // Pittel: log2 n + ln n + O(1) rounds in complete graphs.
        let n = 4096;
        let g = CompleteGraph::new(n).generate(0);
        let expected = (n as f64).log2() + (n as f64).ln();
        let mut total = 0.0;
        let runs = 3;
        for seed in 0..runs {
            let outcome = push(&g, seed);
            assert!(outcome.completed);
            total += outcome.rounds as f64;
        }
        let mean = total / runs as f64;
        assert!(
            (mean - expected).abs() < 6.0,
            "mean rounds {mean:.1} too far from Pittel's {expected:.1}"
        );
    }

    #[test]
    fn push_pull_broadcast_is_faster_than_push_alone() {
        let n = 4096;
        let g = CompleteGraph::new(n).generate(0);
        let push = push(&g, 3);
        let push_pull = push_pull(&g, 3);
        assert!(push_pull.completed && push.completed);
        assert!(push_pull.rounds < push.rounds);
    }

    #[test]
    fn push_pull_broadcast_transmissions_are_subloglinear_in_complete_graphs() {
        // Karp et al.: O(n log log n) transmissions. Check the per-node
        // overhead stays far below log n.
        let n = 8192;
        let g = CompleteGraph::new(n).generate(0);
        let outcome = push_pull(&g, 4);
        assert!(outcome.completed);
        let per_node = outcome.transmissions as f64 / n as f64;
        let loglog = (n as f64).log2().log2();
        assert!(
            per_node < 2.5 * loglog,
            "per-node overhead {per_node:.2} vs 2.5 · log log n = {:.1}",
            2.5 * loglog
        );
    }

    #[test]
    fn broadcasts_complete_on_paper_density_random_graphs() {
        let n = 2048;
        let g = ErdosRenyi::paper_density(n).generate(5);
        assert!(push(&g, 6).completed);
        assert!(push_pull(&g, 6).completed);
    }

    #[test]
    fn respects_round_caps() {
        let g = ring(256);
        let outcome = broadcast(BroadcastDriver::push(5), &g, 0, 7);
        assert!(!outcome.completed);
        assert_eq!(outcome.rounds, 5);
        assert!(outcome.informed <= 11); // at most 2 new nodes per round on a ring
    }

    #[test]
    fn source_parameter_is_respected() {
        let g = star(16);
        let outcome = broadcast(BroadcastDriver::push(2000), &g, 5, 8);
        assert!(outcome.completed);
        // Leaf source: first round informs the hub, then the hub informs one
        // random leaf per round (coupon collector) — so the run takes many
        // more rounds than on a well-connected graph.
        assert!(outcome.rounds > 10);
    }

    #[test]
    fn driver_completes_single_rumor_broadcast_on_streaming_engine() {
        let n = 256;
        let g = ErdosRenyi::paper_density(n).generate(4);
        for driver in [BroadcastDriver::push(10_000), BroadcastDriver::push_pull(10_000)] {
            let mut d = driver;
            let mut sim = Simulation::new_streaming(&g, 9, 1);
            sim.schedule_injection(0, 0, 0);
            let mut rounds = 0u64;
            while !rpc_engine::Engine::gossip_complete(&sim) {
                assert_eq!(d.step(&mut sim), StepStatus::Running, "{} stalled", d.name());
                rounds += 1;
                assert!(rounds < 10_000);
            }
            assert!(rpc_engine::Engine::rumor_complete(&sim, 0), "{}", d.name());
            assert!(sim.metrics().total_packets() > 0);
        }
    }

    #[test]
    fn driver_push_mode_sends_nothing_before_injection() {
        let g = CompleteGraph::new(64).generate(0);
        let mut sim = Simulation::new_streaming(&g, 3, 1);
        sim.schedule_injection(2, 0, 0);
        let mut d = BroadcastDriver::push(100);
        // Rounds 0 and 1 run before the rumor exists: no channels, no packets.
        assert_eq!(d.step(&mut sim), StepStatus::Running);
        assert_eq!(d.step(&mut sim), StepStatus::Running);
        assert_eq!(sim.metrics().total_packets(), 0);
        assert_eq!(sim.metrics().channels_opened(), 0);
        // Round 2 applies the injection before the informedness gate.
        assert_eq!(d.step(&mut sim), StepStatus::Running);
        assert_eq!(sim.metrics().total_packets(), 1);
    }

    #[test]
    fn empty_and_singleton_graphs() {
        let g0 = CompleteGraph::new(0).generate(0);
        assert!(push_pull(&g0, 0).completed);
        let g1 = CompleteGraph::new(1).generate(0);
        let o = push(&g1, 0);
        assert!(o.completed);
        assert_eq!(o.transmissions, 0);
    }
}
