//! The forwarding engine wrapper must not change what it measures: stepping
//! a protocol on `TimedEngine<Simulation>` gives bit-identical outcomes to
//! the plain `Simulation`, and the benchmark's stepped replay of a sweep
//! repetition reproduces the scenario executor's outcome.

use perfbench::mc::{replay_stepped, steppable};
use perfbench::probe::TimedEngine;
use rpc_engine::{Engine, Simulation, SimulationArena};
use rpc_gossip::{
    FastGossiping, FastGossipingDriver, MemoryDriver, MemoryGossip, ProtocolDriver, PushPullDriver,
    StepStatus,
};
use rpc_graphs::prelude::{CompleteGraph, ErdosRenyi};
use rpc_graphs::{Graph, GraphArena, GraphGenerator};
use rpc_scenarios::{run_scenario, ProtocolSpec, Scenario, TopologySpec};

fn step_all<D: ProtocolDriver, E: Engine>(mut driver: D, sim: &mut E) -> u64 {
    let mut rounds = 0;
    while !driver.finished(sim) && driver.step(sim) == StepStatus::Running {
        rounds += 1;
    }
    rounds
}

fn same_run<D: ProtocolDriver + Clone>(driver: D, graph: &Graph, seed: u64) {
    let mut plain = Simulation::new(graph, seed);
    let mut timed = TimedEngine::new(Simulation::new(graph, seed));
    let a = step_all(driver.clone(), &mut plain);
    let b = step_all(driver, &mut timed);
    assert_eq!(a, b, "rounds");
    let (ma, mb) = (plain.metrics(), timed.metrics());
    assert_eq!(ma.rounds(), mb.rounds());
    assert_eq!(ma.total_packets(), mb.total_packets());
    assert_eq!(ma.total_exchanges(), mb.total_exchanges());
    assert_eq!(ma.packets_per_node(), mb.packets_per_node());
    assert_eq!(ma.channels_opened(), mb.channels_opened());
    for v in 0..graph.num_nodes() as u32 {
        assert_eq!(plain.state(v), timed.state(v), "node {v} state");
    }
    assert!(timed.transfers > 0 && timed.added > 0);
    assert!(timed.added as usize <= graph.num_nodes() * graph.num_nodes());
}

#[test]
fn wrapper_is_bit_identical_for_all_three_protocols() {
    for n in [64usize, 200] {
        let graphs = [ErdosRenyi::paper_density(n).generate(5), CompleteGraph::new(n).generate(5)];
        for graph in &graphs {
            for seed in [1u64, 2, 3] {
                same_run(PushPullDriver::new(1000), graph, seed);
                same_run(FastGossipingDriver::new(FastGossiping::paper(n), n), graph, seed);
                same_run(MemoryDriver::new(MemoryGossip::paper(n)), graph, seed);
            }
        }
    }
}

#[test]
fn stepped_replay_reproduces_the_scenario_executor() {
    let (mut graphs, mut sims) = (GraphArena::new(), SimulationArena::default());
    for topology in [TopologySpec::Complete { n: 96 }, TopologySpec::ErdosRenyiPaper { n: 128 }] {
        for protocol in [ProtocolSpec::PushPull, ProtocolSpec::FastGossiping, ProtocolSpec::Memory]
        {
            let scenario =
                Scenario::builder("t", topology.clone()).protocol(protocol).build().unwrap();
            assert!(steppable(&scenario));
            for seed in [7u64, 8, 9] {
                let outcome = run_scenario(&scenario, seed, 1);
                let replay = replay_stepped(&scenario, seed, &mut graphs, &mut sims);
                assert_eq!(replay.rounds, outcome.rounds, "{} seed {seed}", protocol.name());
                assert_eq!(
                    replay.packets,
                    outcome.total_packets,
                    "{} seed {seed}",
                    protocol.name()
                );
            }
        }
    }
}
