//! The node runtime's differential and invariant suite.
//!
//! **Anchor:** with a benign nemesis and the deterministic single-threaded
//! scheduler, [`run_cluster`]'s per-round trace is *bit-identical* to the
//! in-process scenario executor's `ScenarioTrace` for the same scenario and
//! seed — same rounds, same informed counts, same packet totals, same stop
//! cause. The distributed handshake is pure plumbing; the protocol it
//! carries is the simulator's, exactly.
//!
//! **Under faults** the trace may differ, but the safety invariants hold:
//! no rumor is forged (everything a node holds arrived in a payload), each
//! node's reported coverage is monotone round over round, and a
//! crash-restarted node rejoins with its persisted rumors intact.

use proptest::prelude::*;
use rpc_engine::Simulation;
use rpc_gossip::{ProtocolDriver, PushPullDriver};
use rpc_graphs::NodeId;
use rpc_obs::TraceWriter;
use rpc_runtime::{
    run_cluster, run_cluster_observed, Body, ClusterConfig, Envelope, NemesisSpec, NodeActor,
    RetryPolicy, RoundSchedule, RumorStore, COORDINATOR,
};
use rpc_scenarios::{
    plan_runtime, registry, run_scenario_traced, scenario_engine_seeds, StoppedBy,
};

/// Drives one scenario through both executors and asserts trace equality.
fn assert_differential(name: &str, n: usize, seed: u64) {
    let scenario = registry::find(name, n).unwrap_or_else(|| panic!("registry has {name}"));
    let (outcome, trace) = run_scenario_traced(&scenario, seed, 1);
    let runtime = run_cluster(&scenario, seed, &ClusterConfig::benign())
        .expect("benign cluster run succeeds");

    assert_eq!(
        runtime.stopped_by, outcome.stopped_by,
        "{name} n={n} seed={seed}: stop cause diverged"
    );
    assert_eq!(runtime.rounds, outcome.rounds, "{name} n={n} seed={seed}: round count diverged");
    assert_eq!(
        runtime.trace.len(),
        trace.rounds.len(),
        "{name} n={n} seed={seed}: trace length diverged"
    );
    for (row, sim_row) in runtime.trace.iter().zip(&trace.rounds) {
        assert_eq!(row.round, sim_row.round, "{name} n={n} seed={seed}");
        assert_eq!(
            row.fully_informed, sim_row.fully_informed,
            "{name} n={n} seed={seed} round {}: fully-informed diverged",
            row.round
        );
        assert_eq!(
            row.tracked_informed, sim_row.tracked_informed,
            "{name} n={n} seed={seed} round {}: tracked diverged",
            row.round
        );
        assert_eq!(
            row.packets, sim_row.packets,
            "{name} n={n} seed={seed} round {}: packet accounting diverged",
            row.round
        );
    }
    assert!(!runtime.forged);
    assert_eq!(runtime.retries, 0, "a benign run never times out");
}

#[test]
fn fault_free_trace_equals_simulator_dense_er() {
    for seed in [1, 7] {
        assert_differential("dense-er", 16, seed);
        assert_differential("dense-er", 32, seed);
    }
}

#[test]
fn fault_free_trace_equals_simulator_sparse_er() {
    for seed in [1, 7] {
        assert_differential("sparse-er", 16, seed);
        assert_differential("sparse-er", 32, seed);
    }
}

#[test]
fn fault_free_trace_equals_simulator_adversarial_start() {
    // Coverage stop rule + min-degree placement: exercises the non-Complete
    // stop path and the environment-stream placement replication.
    for seed in [1, 7] {
        assert_differential("adversarial-start", 16, seed);
        assert_differential("adversarial-start", 32, seed);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(
        std::env::var("PROPTEST_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(16)
    ))]

    /// The differential anchor over the whole benign push-pull slice the
    /// runtime supports: any registry trio member, any small n, any seed.
    #[test]
    fn prop_fault_free_trace_equals_simulator(
        which in 0usize..3,
        n in 16usize..40,
        seed in 0u64..1_000_000,
    ) {
        let name = ["dense-er", "sparse-er", "adversarial-start"][which];
        assert_differential(name, n, seed);
    }

    /// Same cluster config twice → identical outcome, faults included.
    #[test]
    fn prop_cluster_runs_are_deterministic(
        seed in 0u64..1_000_000,
        drop in 0u32..200,
        nemesis_seed in 0u64..1_000_000,
    ) {
        let scenario = registry::find("sparse-er", 16).unwrap();
        let config = ClusterConfig {
            policy: RetryPolicy::default(),
            nemesis: NemesisSpec {
                drop: f64::from(drop) / 1000.0,
                seed: nemesis_seed,
                ..NemesisSpec::default()
            },
        };
        let a = run_cluster(&scenario, seed, &config).unwrap();
        let b = run_cluster(&scenario, seed, &config).unwrap();
        prop_assert_eq!(a.trace, b.trace);
        prop_assert_eq!(a.final_counts, b.final_counts);
        prop_assert_eq!(a.faults, b.faults);
        prop_assert_eq!(a.retries, b.retries);
    }

    /// Safety invariants survive arbitrary probabilistic fault mixes.
    #[test]
    fn prop_invariants_hold_under_faults(
        seed in 0u64..1_000_000,
        nemesis_seed in 0u64..1_000_000,
        drop in 0u32..150,
        delay in 0u32..200,
        duplicate in 0u32..100,
    ) {
        let scenario = registry::find("sparse-er", 16).unwrap();
        let config = ClusterConfig {
            policy: RetryPolicy::default(),
            nemesis: NemesisSpec {
                drop: f64::from(drop) / 1000.0,
                delay: f64::from(delay) / 1000.0,
                delay_max: 3,
                duplicate: f64::from(duplicate) / 1000.0,
                seed: nemesis_seed,
                ..NemesisSpec::default()
            },
        };
        let outcome = run_cluster(&scenario, seed, &config).unwrap();
        prop_assert!(!outcome.forged, "no node may hold a rumor that never arrived");
        // Per-node coverage is monotone across the round snapshots.
        for node in 0..16 {
            let mut prev = 0u64;
            for (round, snapshot) in outcome.count_history.iter().enumerate() {
                prop_assert!(
                    snapshot[node] >= prev,
                    "node {node} coverage regressed at round {round}"
                );
                prev = snapshot[node];
            }
        }
        // Terminal state is consistent with the reported counts.
        for (node, words) in outcome.final_words.iter().enumerate() {
            let held: u64 = words.iter().map(|w| u64::from(w.count_ones())).sum();
            prop_assert!(
                held >= outcome.final_counts[node],
                "node {node} reported more rumors than it holds"
            );
        }
    }
}

/// The acceptance scenario: drop + delay + duplicate + partition +
/// crash-restart, all at once, completing via retry/backoff.
#[test]
fn hostile_nemesis_run_completes_with_invariants_intact() {
    let scenario = registry::find("sparse-er", 32).unwrap();
    let config = ClusterConfig {
        policy: RetryPolicy::default(),
        nemesis: NemesisSpec::parse(
            "drop=0.15,delay=0.2:3,duplicate=0.1,partition=2:3,crash=1@2+3,seed=9",
        )
        .unwrap(),
    };
    let outcome = run_cluster(&scenario, 3, &config).unwrap();
    assert!(outcome.completed, "stopped by {:?}", outcome.stopped_by);
    assert_eq!(outcome.stopped_by, StoppedBy::Complete);
    assert!(!outcome.forged);
    // The nemesis actually did its job.
    assert!(outcome.faults.dropped > 0);
    assert!(outcome.faults.partition_drops > 0);
    assert_eq!(outcome.faults.crashes, 1);
    assert_eq!(outcome.faults.restarts, 1);
    // The restarted node's final store contains everything it persisted.
    let audit = &outcome.crash_audits[0];
    assert_eq!(audit.node, 1);
    for (w, p) in outcome.final_words[1].iter().zip(&audit.persisted) {
        assert_eq!(p & !w, 0, "persisted rumors survive the restart");
    }
    // The fault tolerance machinery visibly engaged.
    assert!(outcome.retries > 0, "drops must trigger retransmissions");
    // Coverage stays monotone per node even through the crash window.
    assert_monotone_coverage(&outcome.count_history, 32);
}

/// Per-node coverage never regresses across the round snapshots.
fn assert_monotone_coverage(count_history: &[Vec<u64>], n: usize) {
    for node in 0..n {
        let mut prev = 0u64;
        for (round, snapshot) in count_history.iter().enumerate() {
            assert!(snapshot[node] >= prev, "node {node} coverage regressed at round {round}");
            prev = snapshot[node];
        }
    }
}

/// The gossip destinations of a `start_round` reply, in send order.
fn gossip_targets(out: &[Envelope]) -> Vec<String> {
    out.iter().filter(|e| matches!(e.body, Body::Gossip { .. })).map(|e| e.dest.clone()).collect()
}

/// A node down for six rounds rejoins with no fast-forward: its first
/// post-restart schedule equals that of the same node had it never
/// crashed, and the simulator's push-pull transfers touching it.
#[test]
fn crash_restart_rejoins_on_the_current_schedule() {
    let (n, seed, node) = (32usize, 3u64, 3 as NodeId);
    let scenario = registry::find("sparse-er", n).unwrap();
    let config = ClusterConfig {
        policy: RetryPolicy::default(),
        nemesis: NemesisSpec::parse("crash=3@2+6,seed=1").unwrap(),
    };
    let outcome = run_cluster(&scenario, seed, &config).unwrap();
    assert!(outcome.completed, "stopped by {:?}", outcome.stopped_by);
    assert!(!outcome.forged);
    assert_eq!((outcome.faults.crashes, outcome.faults.restarts), (1, 1));
    let audit = &outcome.crash_audits[0];
    assert_eq!(audit.node, node);
    for (w, p) in outcome.final_words[node as usize].iter().zip(&audit.persisted) {
        assert_eq!(p & !w, 0, "persisted rumors survive the restart");
    }
    assert_monotone_coverage(&outcome.count_history, n);

    // The window covers rounds 2..8, so the node rejoins in round 8.
    let rejoin = 8u64;
    let graph = scenario.topology.build().generate(scenario_engine_seeds(seed).0);
    let plan = plan_runtime(&scenario, seed, &graph).unwrap();
    let start = |round| Envelope::new(COORDINATOR, "n3", Body::StartRound { round, attempt: 0 });
    let mut never_crashed = NodeActor::new(&graph, &plan, node);
    for round in 1..rejoin {
        let _ = never_crashed.handle(&start(round));
    }
    let mut rejoined =
        NodeActor::restart(&graph, &plan, node, RumorStore::with_own(n, node).words());
    assert_eq!(rejoined.schedule(rejoin), never_crashed.schedule(rejoin));
    assert_eq!(
        gossip_targets(&rejoined.handle(&start(rejoin))),
        gossip_targets(&never_crashed.handle(&start(rejoin)))
    );

    // The simulator's round `rejoin`, restricted to the transfers touching
    // the node, is the same schedule.
    let mut sim = Simulation::new(&graph, plan.run_seed);
    let mut driver = PushPullDriver::new(plan.max_rounds as usize);
    for _ in 0..rejoin {
        driver.step(&mut sim);
    }
    let mut expected = RoundSchedule::default();
    for (i, t) in driver.transfers().iter().enumerate() {
        if t.from == node {
            expected.packets += 1;
            expected.exchanges += u64::from(i % 2 == 0);
            if t.to != node {
                expected.sends.push(t.to);
            }
        } else if t.to == node {
            expected.expected.push(t.from);
        }
    }
    assert_eq!(rejoined.schedule(rejoin), expected);
    assert!(!expected.sends.is_empty(), "the node opens a channel every round");
}

/// Fault, retry and round-advance events are all visible through the
/// rpc-obs trace sink as parseable flat JSON lines.
#[test]
fn observability_exposes_transport_and_retry_events() {
    let scenario = registry::find("sparse-er", 16).unwrap();
    let config = ClusterConfig {
        policy: RetryPolicy::default(),
        nemesis: NemesisSpec::parse("drop=0.2,partition=2:2,crash=3@2+2,seed=4").unwrap(),
    };
    let mut sink = TraceWriter::new(Vec::new());
    let outcome = run_cluster_observed(&scenario, 3, &config, &mut sink).unwrap();
    assert!(outcome.completed, "stopped by {:?}", outcome.stopped_by);
    let buf = sink.finish().expect("no io error on Vec");
    let text = String::from_utf8(buf).unwrap();
    let kinds: Vec<String> = text
        .lines()
        .filter_map(|line| {
            rpc_obs::parse_object(line)
                .unwrap_or_else(|| panic!("unparseable trace line: {line}"))
                .into_iter()
                .find(|(k, _)| k == "ev")
                .and_then(|(_, v)| v.as_str().map(str::to_string))
        })
        .collect();
    for expected in ["transport-fault", "retry-timeout", "round-advanced", "round"] {
        assert!(
            kinds.iter().any(|k| k == expected),
            "trace is missing {expected:?} events; kinds seen: {kinds:?}"
        );
    }
}
