//! Cross-crate integration tests: graph substrate → simulation engine →
//! gossiping algorithms → experiment harness, exercised through the public
//! API of the umbrella crate exactly as a downstream user would.

use gossip_density::experiments;
use gossip_density::gossip::{theory, MemoryGossipConfig};
use gossip_density::prelude::*;

const N: usize = 1 << 10;

/// Safety cap on push-pull and broadcast rounds.
const MAX_ROUNDS: usize = 10_000;

fn paper_graph(seed: u64) -> Graph {
    ErdosRenyi::paper_density(N).generate(seed)
}

/// Runs `driver` to completion on a fresh engine over `graph`.
fn run<D: ProtocolDriver>(mut driver: D, graph: &Graph, seed: u64) -> GossipOutcome {
    let mut sim = Simulation::new(graph, seed);
    run_driver(&mut driver, &mut sim);
    GossipOutcome::from_engine(&sim)
}

/// One of the three Figure 1 algorithms, run to completion.
type Algorithm = fn(&Graph, u64) -> GossipOutcome;

fn push_pull(graph: &Graph, seed: u64) -> GossipOutcome {
    run(PushPullDriver::new(MAX_ROUNDS), graph, seed)
}

fn fast_gossiping(graph: &Graph, seed: u64) -> GossipOutcome {
    run(FastGossipingDriver::new(FastGossiping::paper(N), N), graph, seed)
}

fn memory(graph: &Graph, seed: u64) -> GossipOutcome {
    run(MemoryDriver::new(MemoryGossip::paper(N)), graph, seed)
}

#[test]
fn all_algorithms_complete_on_all_paper_topologies() {
    let topologies: Vec<(&str, Graph)> = vec![
        ("erdos-renyi", paper_graph(1)),
        ("configuration-model", ConfigurationModel::paper_degree(N, 0.1).generate(1)),
        ("complete", CompleteGraph::new(N).generate(0)),
    ];
    let algorithms: [(&str, Algorithm); 3] =
        [("push-pull", push_pull), ("fast-gossiping", fast_gossiping), ("memory", memory)];
    for (label, graph) in &topologies {
        for (name, algorithm) in algorithms {
            let outcome = algorithm(graph, 5);
            assert!(outcome.completed(), "{name} failed to complete on {label}");
            assert_eq!(outcome.fully_informed(), N, "{name} on {label}");
        }
    }
}

#[test]
fn figure1_ordering_holds_end_to_end() {
    let graph = paper_graph(2);
    let pp = push_pull(&graph, 3).messages_per_node(Accounting::PerPacket);
    let fg = fast_gossiping(&graph, 3).messages_per_node(Accounting::PerPacket);
    let mm = memory(&graph, 3).messages_per_node(Accounting::PerPacket);
    assert!(mm < fg, "memory {mm:.2} should be below fast-gossiping {fg:.2}");
    assert!(fg < pp, "fast-gossiping {fg:.2} should be below push-pull {pp:.2}");
}

#[test]
fn fast_gossiping_matches_complete_graph_performance_on_random_graphs() {
    // Theorem 1's message: no significant density separation for gossiping.
    let random = paper_graph(4);
    let complete = CompleteGraph::new(N).generate(0);
    let on_random = fast_gossiping(&random, 5);
    let on_complete = fast_gossiping(&complete, 5);
    let ratio = on_random.total_packets() as f64 / on_complete.total_packets() as f64;
    assert!((0.5..=2.0).contains(&ratio), "packets on G(n,p) vs K_n differ by {ratio:.2}x");
}

#[test]
fn transmissions_stay_within_the_theorem_1_envelope() {
    let graph = paper_graph(6);
    let outcome = fast_gossiping(&graph, 7);
    let measured = outcome.total_packets() as f64;
    // At n = 1024 the log n / log log n saving is barely visible (log log n is
    // only ~3.3), so the meaningful envelope at this scale is: stay within a
    // small constant of the n log n lower bound for O(log n)-time algorithms,
    // and do not exceed the push-pull baseline.
    assert!(
        measured < theory::gossip_logtime_lower_bound(N) * 1.5,
        "measured {measured} packets exceed 1.5 · n log n"
    );
    let baseline = push_pull(&graph, 7).total_packets() as f64;
    assert!(measured < baseline, "fast-gossiping ({measured}) not below push-pull ({baseline})");
}

#[test]
fn leader_election_feeds_memory_gossiping() {
    let graph = paper_graph(8);
    let mut sim = Simulation::new(&graph, 9);
    let mut election = LeaderElectionDriver::paper(N);
    run_driver(&mut election, &mut sim);
    let summary = election.election_summary().expect("election finished");
    assert!(summary.succeeded());
    let election_packets = sim.metrics().total_packets();
    let leader = summary.leader.unwrap();
    let outcome = run(MemoryDriver::new(MemoryGossip::paper(N).with_leader(leader)), &graph, 10);
    assert!(outcome.completed());
    // Theorem 2 with election: O(n log log n) overall. The push phase of the
    // election keeps all nodes active for Θ(log log n) closing steps, so the
    // constant in front of log log n is around 4–6; allow 10.
    let per_node = (election_packets + outcome.total_packets()) as f64 / N as f64;
    let loglog = (N as f64).log2().log2();
    assert!(
        per_node < 10.0 * loglog,
        "combined per-node packets {per_node:.2} exceed 10 · log log n = {:.1}",
        10.0 * loglog
    );
}

#[test]
fn robustness_pipeline_reports_bounded_additional_loss() {
    let graph = paper_graph(11);
    let config = MemoryGossipConfig::paper_defaults(N).with_trees(3);
    let outcome =
        MemoryGossip::new(config).run_with_failures_on(&mut Simulation::new(&graph, 12), 64);
    assert_eq!(outcome.failed_nodes(), 64);
    let ratio = outcome.additional_loss_ratio().unwrap();
    assert!(ratio <= 4.0, "additional loss ratio {ratio:.2} too high");
}

#[test]
fn experiment_harness_runs_at_quick_scale() {
    use gossip_density::scenarios::{RepPolicy, SweepRunner};

    let sizes = [256usize, 512];
    let fig1 = SweepRunner::new().run(&experiments::fig1::spec(&sizes, 1, RepPolicy::fixed(1)));
    assert_eq!(fig1.cells.len(), sizes.len() * 3);
    assert!(fig1.cells.iter().all(|c| c.mean("completed") == Some(1.0)));

    let fig2_spec =
        experiments::robustness::loss_ratio_spec("fig2", 512, &[0, 16], 3, 2, RepPolicy::fixed(1));
    let fig2 = SweepRunner::new().run(&fig2_spec);
    assert_eq!(fig2.cells.len(), 2);
    assert_eq!(fig2.cells[0].mean("loss_ratio"), Some(0.0));

    let table = experiments::table1::run(&[1_000_000]);
    assert!(table.to_csv().contains("1000000"));
}

#[test]
fn broadcasting_is_cheaper_than_gossiping_in_complete_graphs() {
    // The motivating contrast: one message vs n messages.
    let n = 2048;
    let complete = CompleteGraph::new(n).generate(0);
    let mut broadcast = Simulation::new_streaming(&complete, 1, 1);
    broadcast.schedule_injection(0, 0, 0);
    run_driver(&mut BroadcastDriver::push_pull(MAX_ROUNDS), &mut broadcast);
    let gossip = push_pull(&complete, 1);
    assert!(broadcast.gossip_complete() && gossip.completed());
    assert!(
        broadcast.metrics().total_packets() < gossip.total_packets(),
        "broadcasting one rumor must cost less than full gossiping"
    );
}

#[test]
fn seeded_runs_are_reproducible_across_the_whole_stack() {
    let graph = paper_graph(13);
    for _ in 0..2 {
        let a = fast_gossiping(&graph, 99);
        let b = fast_gossiping(&graph, 99);
        assert_eq!(a.total_packets(), b.total_packets());
        assert_eq!(a.rounds(), b.rounds());
        assert_eq!(a.channels_opened(), b.channels_opened());
    }
}
