//! The protocol-runner interface: [`ProtocolDriver`] (resumable, one
//! synchronous round per [`ProtocolDriver::step`] call) and [`run_driver`],
//! the one loop that runs any driver to its natural termination.
//!
//! Every protocol has exactly one execution path: its driver. The scenario
//! engine steps drivers itself so that round budgets, coverage thresholds and
//! per-round traces work uniformly for every algorithm — including the
//! phase-based ones, whose phase loops are explicit resumable states in their
//! drivers — and everything else (tests, benchmarks, examples) runs a driver
//! to completion through [`run_driver`].

use rpc_engine::Engine;

use crate::leader_election::ElectionSummary;

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
/// A driver draws randomness only inside `step`, and only through the
/// engine (lazy initialisation, such as the memory model's leader draw,
/// happens inside the first `step` call). Consequently, for a fixed
/// `(graph, seed)` the sequence of per-round engine states is the same
/// whether the driver is stepped by the scenario executor, with read-only
/// queries between rounds, or run bare through [`run_driver`] — this is what
/// lets the packed-vs-unpacked trace-equivalence suite cover every caller,
/// and what makes a scenario outcome under `rpc-scenarios`'
/// `StopRule::Complete` equal to a bare `run_driver` on a fresh engine.
pub trait ProtocolDriver {
    /// Short name used in reports (e.g. `"push-pull"`, `"fast-gossiping"`,
    /// `"memory"`).
    fn name(&self) -> &'static str;

    /// Whether the protocol's *natural termination* has been reached:
    /// completion for push-pull and the broadcasts (whose round loops are
    /// otherwise unbounded), schedule exhaustion for the phase-based
    /// protocols. Read-only; never draws randomness.
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

/// Runs `driver` to its natural termination — until
/// [`ProtocolDriver::finished`] holds or the driver's schedule is exhausted —
/// and returns the number of rounds executed. This is the single
/// run-to-completion loop of the workspace: push-pull and the broadcast
/// drivers stop at completion, the phase-based drivers (which only report
/// `finished` at schedule end) run their full schedule.
pub fn run_driver<D: ProtocolDriver, E: Engine>(driver: &mut D, sim: &mut E) -> u64 {
    let mut rounds = 0;
    while !driver.finished(sim) && driver.step(sim) == StepStatus::Running {
        rounds += 1;
    }
    rounds
}

/// Runs `driver` to completion on a fresh, loss- and churn-free engine over
/// `graph` and returns its accounting — the test shorthand for "run this
/// protocol once".
#[cfg(test)]
pub(crate) fn run_fresh<D: ProtocolDriver>(
    mut driver: D,
    graph: &rpc_graphs::Graph,
    seed: u64,
) -> crate::GossipOutcome {
    let mut sim = rpc_engine::Simulation::new(graph, seed);
    run_driver(&mut driver, &mut sim);
    crate::GossipOutcome::from_engine(&sim)
}

/// Asserts that stepping `driver` by hand, with the read-only queries a stop
/// rule performs between rounds, reproduces a bare [`run_driver`] on a fresh
/// engine: same rounds, packets, exchanges, completion and phase markers
/// (`labels`, in order).
#[cfg(test)]
pub(crate) fn assert_stepping_matches_run_driver<D: ProtocolDriver + Clone>(
    driver: D,
    graph: &rpc_graphs::Graph,
    seed: u64,
    labels: &[&str],
) {
    let bare = run_fresh(driver.clone(), graph, seed);
    let mut sim = rpc_engine::Simulation::new(graph, seed);
    let mut stepped = driver;
    let mut rounds = 0u64;
    while !stepped.finished(&sim) {
        let _ = sim.fully_informed_count();
        let _ = sim.informed_count_of(0);
        match stepped.step(&mut sim) {
            StepStatus::Done => break,
            StepStatus::Running => rounds += 1,
        }
    }
    let name = stepped.name();
    assert_eq!(rounds, bare.rounds(), "{name}");
    assert_eq!(sim.metrics().rounds(), bare.rounds(), "{name}");
    assert_eq!(sim.metrics().total_packets(), bare.total_packets(), "{name}");
    assert_eq!(sim.metrics().total_exchanges(), bare.total_exchanges(), "{name}");
    assert!(sim.gossip_complete() && bare.completed(), "{name}");
    let marked: Vec<_> = sim.metrics().phases().iter().map(|p| p.label.as_str()).collect();
    assert_eq!(marked, labels, "{name}");
    let bare_marked: Vec<_> = bare.phases().iter().map(|p| p.label.as_str()).collect();
    assert_eq!(bare_marked, labels, "{name}");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fast_gossiping::{FastGossiping, FastGossipingDriver};
    use crate::memory_model::{MemoryDriver, MemoryGossip};
    use crate::outcome::GossipOutcome;
    use crate::push_pull::PushPullDriver;
    use rpc_engine::{Accounting, Simulation};
    use rpc_graphs::prelude::*;

    /// All three algorithms compared in Figure 1, each run to completion.
    fn run_all(n: usize, graph: &Graph, seed: u64) -> Vec<(&'static str, GossipOutcome)> {
        vec![
            ("push-pull", run_fresh(PushPullDriver::new(10_000), graph, seed)),
            (
                "fast-gossiping",
                run_fresh(FastGossipingDriver::new(FastGossiping::paper(n), n), graph, seed),
            ),
            ("memory", run_fresh(MemoryDriver::new(MemoryGossip::paper(n)), graph, seed)),
        ]
    }

    #[test]
    fn every_algorithm_completes_on_a_small_random_graph() {
        let n = 256;
        let graph = ErdosRenyi::paper_density(n).generate(3);
        for (name, outcome) in run_all(n, &graph, 7) {
            assert!(outcome.completed(), "{name} did not complete gossiping");
            assert_eq!(outcome.fully_informed(), n, "{name}");
            assert!(outcome.total_packets() > 0);
            assert!(outcome.messages_per_node(Accounting::PerPacket) > 0.0, "{name}");
        }
    }

    #[test]
    fn runs_are_deterministic_in_the_seed() {
        let n = 128;
        let graph = ErdosRenyi::paper_density(n).generate(1);
        for ((name, a), (_, b)) in run_all(n, &graph, 11).iter().zip(&run_all(n, &graph, 11)) {
            assert_eq!(a.total_packets(), b.total_packets(), "{name}");
            assert_eq!(a.rounds(), b.rounds(), "{name}");
        }
    }

    #[test]
    fn run_driver_stops_push_pull_at_completion() {
        let graph = CompleteGraph::new(64).generate(0);
        let mut sim = Simulation::new(&graph, 2);
        let mut driver = PushPullDriver::new(10_000);
        let rounds = run_driver(&mut driver, &mut sim);
        assert!(sim.gossip_complete());
        assert_eq!(rounds, sim.metrics().rounds());
        // Not one round past completion.
        let mut by_hand = Simulation::new(&graph, 2);
        let mut hand_driver = PushPullDriver::new(10_000);
        while !by_hand.gossip_complete() {
            hand_driver.step(&mut by_hand);
        }
        assert_eq!(rounds, by_hand.metrics().rounds());
        // Completion is the natural termination: a second call runs nothing.
        assert_eq!(run_driver(&mut driver, &mut sim), 0);
    }
}
