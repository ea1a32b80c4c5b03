//! The protocol-runner interface: [`GossipAlgorithm`] (run-to-completion over
//! any graph) and [`ProtocolDriver`] (resumable, one synchronous round per
//! [`ProtocolDriver::step`] call).
//!
//! Experiments and benchmarks sweep over [`GossipAlgorithm`] trait objects;
//! the scenario engine drives protocols through [`ProtocolDriver`] so that
//! round budgets, coverage thresholds and per-round traces work uniformly for
//! every algorithm — including the phase-based ones, whose phase loops become
//! explicit resumable states in their drivers.

use rpc_engine::{Engine, Simulation};
use rpc_graphs::Graph;

use crate::leader_election::ElectionSummary;
use crate::outcome::GossipOutcome;

/// What one [`ProtocolDriver::step`] call did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StepStatus {
    /// One synchronous round was executed; the driver can produce more.
    Running,
    /// The driver's schedule is exhausted — **no round was executed** by this
    /// call, and further `step` calls remain no-op `Done`s.
    Done,
}

/// A gossiping protocol as a resumable state machine: each [`Self::step`]
/// call executes exactly one synchronous round (one
/// [`rpc_engine::Metrics::finish_round`]).
///
/// # Resumability contract
///
/// A driver owns every piece of cross-round protocol state (phase counters,
/// walk queues, contact lists, partial trees, …); the only state living in
/// the engine is what the paper's model puts there (node message sets,
/// liveness masks, metrics and the draw cursors). Callers may therefore interleave
/// `step` calls with arbitrary *read-only* engine queries — stop-rule checks,
/// coverage counters, trace capture — without perturbing the run.
///
/// # RNG-draw preservation contract
///
/// Stepping a driver to exhaustion must consume randomness in **exactly** the
/// same order as the protocol's block entry point (`run_on_engine`), which is
/// itself implemented as a thin loop over `step`. Consequently, for a fixed
/// `(graph, seed)` the sequence of per-round engine states observed through
/// `step` is bit-identical to the block run — this is what lets the
/// packed-vs-unpacked trace-equivalence suite extend to stepped runs, and
/// what makes a stepped scenario outcome equal to the legacy block outcome.
/// Drivers must not draw from the engine outside of `step` (lazy
/// initialisation, such as the memory model's leader draw, happens inside
/// the first `step` call).
pub trait ProtocolDriver {
    /// Short name used in reports, matching [`GossipAlgorithm::name`].
    fn name(&self) -> &'static str;

    /// Whether the protocol's *natural termination* has been reached: gossip
    /// completion for push-pull (whose round loop is otherwise unbounded),
    /// schedule exhaustion for the phase-based protocols. Read-only; never
    /// draws randomness.
    fn finished<E: Engine>(&self, sim: &E) -> bool;

    /// Executes one synchronous round, or returns [`StepStatus::Done`]
    /// (without executing anything) once the schedule is exhausted.
    fn step<E: Engine>(&mut self, sim: &mut E) -> StepStatus;

    /// Whether the protocol's *goal* has been achieved at its natural
    /// termination. For the gossiping protocols this is gossip completion
    /// (the default); protocols with a different success condition — leader
    /// election, whose goal is a unique, universally known leader — override
    /// it so the scenario executor reports `completed` against the right
    /// predicate. Read-only; never draws randomness.
    fn succeeded<E: Engine>(&self, sim: &E) -> bool {
        sim.gossip_complete()
    }

    /// The election result, for drivers that run a leader election
    /// ([`crate::LeaderElectionDriver`]); `None` for every gossiping
    /// protocol. Available once the driver's schedule is exhausted.
    fn election_summary(&self) -> Option<ElectionSummary> {
        None
    }
}

/// Steps `driver` until its schedule is exhausted and returns the number of
/// rounds executed. The phase-based `run_on_engine` implementations reduce to
/// this loop; push-pull's reduces to [`crate::PushPullGossip::run_until`],
/// the same loop with an external stop predicate (its natural termination —
/// gossip completion — is a property of the simulation, not of the driver's
/// schedule).
pub fn run_driver<D: ProtocolDriver, E: Engine>(driver: &mut D, sim: &mut E) -> u64 {
    let mut rounds = 0;
    while let StepStatus::Running = driver.step(sim) {
        rounds += 1;
    }
    rounds
}

/// A gossiping protocol that can be run on any graph with a given seed.
pub trait GossipAlgorithm {
    /// Short name used in reports (e.g. `"push-pull"`, `"fast-gossiping"`,
    /// `"memory"`).
    fn name(&self) -> &'static str;

    /// Runs the protocol as one uninterruptible block on a caller-prepared
    /// simulation and returns the communication accounting.
    ///
    /// **Test-only oracle.** Production harnesses (the scenario executor, the
    /// sweep engine) drive protocols one round at a time through
    /// [`ProtocolDriver`], which supports stop rules, round budgets and
    /// tracing; the block run exists as the reference the stepped path is
    /// equivalence-tested against (`stepped_complete_runs_equal_block_run_on_engine`
    /// in `rpc-scenarios`), and for one-off measurements outside the scenario
    /// stack. The caller may still configure loss, churn/crash schedules or a
    /// worker-thread count — the engine primitives apply them.
    fn run_on(&self, sim: &mut Simulation<'_>) -> GossipOutcome;

    /// Runs the protocol to completion on `graph`, deterministically in
    /// `seed`, and returns the communication accounting. Equivalent to
    /// [`Self::run_on`] with a freshly created, loss- and churn-free
    /// simulation — and like it a **test-only oracle**; scenario-driven
    /// stepping is the production path.
    fn run(&self, graph: &Graph, seed: u64) -> GossipOutcome {
        let mut sim = Simulation::new(graph, seed);
        self.run_on(&mut sim)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fast_gossiping::FastGossiping;
    use crate::memory_model::MemoryGossip;
    use crate::push_pull::PushPullGossip;
    use rpc_engine::Accounting;
    use rpc_graphs::prelude::*;

    /// All three algorithms compared in Figure 1, as trait objects.
    fn all_algorithms(n: usize) -> Vec<Box<dyn GossipAlgorithm>> {
        vec![
            Box::new(PushPullGossip::default()),
            Box::new(FastGossiping::paper(n)),
            Box::new(MemoryGossip::paper(n)),
        ]
    }

    #[test]
    fn every_algorithm_completes_on_a_small_random_graph() {
        let n = 256;
        let graph = ErdosRenyi::paper_density(n).generate(3);
        for algorithm in all_algorithms(n) {
            let outcome = algorithm.run(&graph, 7);
            assert!(outcome.completed(), "{} did not complete gossiping", algorithm.name());
            assert_eq!(outcome.fully_informed(), n, "{}", algorithm.name());
            assert!(outcome.total_packets() > 0);
            assert!(outcome.messages_per_node(Accounting::PerPacket) > 0.0, "{}", algorithm.name());
        }
    }

    #[test]
    fn runs_are_deterministic_in_the_seed() {
        let n = 128;
        let graph = ErdosRenyi::paper_density(n).generate(1);
        for algorithm in all_algorithms(n) {
            let a = algorithm.run(&graph, 11);
            let b = algorithm.run(&graph, 11);
            assert_eq!(a.total_packets(), b.total_packets(), "{}", algorithm.name());
            assert_eq!(a.rounds(), b.rounds(), "{}", algorithm.name());
        }
    }
}
