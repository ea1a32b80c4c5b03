//! `scenario_step`: the step-driven scenario executor vs a bare driver run.
//!
//! The scenario engine drives every protocol one round at a time through
//! `rpc_gossip::ProtocolDriver`, evaluating the stop rule between rounds.
//! These benches make the stepper's overhead visible against a bare
//! `rpc_gossip::run_driver` over the same driver (no per-round stop-rule
//! evaluation or executor bookkeeping). Both sides regenerate the graph per
//! iteration so the comparison is apples-to-apples.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use rpc_engine::Simulation;
use rpc_gossip::{
    run_driver, FastGossiping, FastGossipingDriver, MemoryDriver, MemoryGossip, PushPullDriver,
};
use rpc_scenarios::prelude::*;
use rpc_scenarios::scenario_engine_seeds;

const SEED: u64 = 0xC0FFEE;

fn bench_scenario_step(c: &mut Criterion) {
    let n = 1 << 10;
    // Both arms run on exactly the graph and engine draws the scenario
    // executor derives from SEED, so the measured delta is the stepper's
    // bookkeeping, not a workload difference.
    let (graph_seed, run_seed) = scenario_engine_seeds(SEED);
    let mut group = c.benchmark_group("scenario_step");
    group.sample_size(10);
    for protocol in [ProtocolSpec::PushPull, ProtocolSpec::FastGossiping, ProtocolSpec::Memory] {
        let scenario = Scenario::builder("bench", TopologySpec::ErdosRenyiPaper { n })
            .protocol(protocol)
            .build()
            .expect("bench scenario must validate");
        group.bench_with_input(
            BenchmarkId::new("stepped", protocol.name()),
            &scenario,
            |b, scenario| b.iter(|| black_box(run_scenario(black_box(scenario), SEED, 1).rounds)),
        );
        group.bench_with_input(
            BenchmarkId::new("bare", protocol.name()),
            &scenario,
            |b, scenario| {
                b.iter(|| {
                    let graph = scenario.topology.build().generate(graph_seed);
                    let mut sim = Simulation::new(black_box(&graph), run_seed);
                    black_box(match protocol {
                        ProtocolSpec::PushPull => run_driver(
                            &mut PushPullDriver::new(scenario.max_rounds as usize),
                            &mut sim,
                        ),
                        ProtocolSpec::FastGossiping => run_driver(
                            &mut FastGossipingDriver::new(FastGossiping::paper(n), n),
                            &mut sim,
                        ),
                        _ => run_driver(&mut MemoryDriver::new(MemoryGossip::paper(n)), &mut sim),
                    })
                })
            },
        );
    }
    group.finish();
}

fn bench_stop_rules(c: &mut Criterion) {
    // Stop-rule evaluation cost per round: a coverage rule reads the packed
    // engine's O(1) tracked-rumor counter, a round budget only compares
    // counters — neither should cost measurably more than running to
    // completion over the same rounds.
    let n = 1 << 10;
    let mut group = c.benchmark_group("scenario_step_rules");
    group.sample_size(10);
    for (label, stop) in [
        ("complete", StopRule::Complete),
        ("rounds", StopRule::Rounds(24)),
        ("coverage", StopRule::Coverage(0.9)),
    ] {
        let scenario = Scenario::builder("bench", TopologySpec::ErdosRenyiPaper { n })
            .stop(stop)
            .build()
            .expect("bench scenario must validate");
        group.bench_with_input(BenchmarkId::new("push-pull", label), &scenario, |b, scenario| {
            b.iter(|| black_box(run_scenario(black_box(scenario), SEED, 1).rounds))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_scenario_step, bench_stop_rules);
criterion_main!(benches);
