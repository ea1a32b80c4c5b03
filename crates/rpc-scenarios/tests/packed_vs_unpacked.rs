//! Packed-vs-unpacked equivalence (ISSUE 3 tentpole guarantee, extended to
//! the step-driven executor of ISSUE 4).
//!
//! The packed, word-parallel engine (`rpc_engine::Simulation`) and the
//! unpacked reference oracle (`rpc_engine::reference::UnpackedSimulation`)
//! must be observationally identical: for any `(scenario, seed)` both produce
//! the same [`ScenarioOutcome`] *and* the same per-round [`ScenarioTrace`].
//! Every protocol — push-pull and the phase-based fast-gossiping and
//! memory-model algorithms — is stepped one round at a time, so the traces
//! now carry a row per round for all of them. This file asserts equivalence
//!
//! 1. for every scenario in the 17-entry registry (all three protocols under
//!    complete/rounds/coverage stop rules, churn/loss/crash environments,
//!    plus the hostile dimensions — failure zones, loss bursts, edge churn
//!    and Byzantine senders), at several seeds and for one and several
//!    delivery worker threads;
//! 2. property-based, for randomized scenarios drawn across topology,
//!    protocol, environment and stop-rule space — the stop-rule dimension
//!    covers the phase-based protocols too;
//! 3. for the draws themselves: every node's coin and partner in a round are
//!    the same whatever order the nodes open their channels in, on both
//!    engines, under churn, edge churn and `open-avoid`.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use rpc_engine::{Engine, Simulation, UnpackedSimulation};
use rpc_graphs::NodeId;
use rpc_scenarios::prelude::*;
use rpc_scenarios::registry;
use rpc_scenarios::{run_scenario_unpacked, run_scenario_unpacked_traced};

#[test]
fn every_registry_scenario_traces_identically_on_both_engines() {
    for scenario in registry::builtin(64) {
        for seed in [1u64, 7, 42] {
            let (unpacked, unpacked_trace) = run_scenario_unpacked_traced(&scenario, seed);
            for threads in [1usize, 3] {
                let (packed, packed_trace) = run_scenario_traced(&scenario, seed, threads);
                assert_eq!(
                    packed, unpacked,
                    "outcome diverged for {} (seed {seed}, {threads} threads)",
                    scenario.name
                );
                assert_eq!(
                    packed_trace, unpacked_trace,
                    "trace diverged for {} (seed {seed}, {threads} threads)",
                    scenario.name
                );
            }
            // Every protocol is step-driven: one row per round plus the
            // final stop-rule evaluation.
            assert_eq!(
                unpacked_trace.rounds.len() as u64,
                unpacked.rounds + 1,
                "{} trace rows do not match its rounds",
                scenario.name
            );
        }
    }
}

/// A degree that keeps an `n`-node random-regular graph well-formed.
fn regular_degree(n: usize, wanted: usize) -> usize {
    let mut d = wanted.clamp(2, n - 1);
    if n % 2 == 1 && d % 2 == 1 {
        d += 1;
    }
    d.min(n - 1)
}

fn topology_strategy() -> impl Strategy<Value = TopologySpec> {
    (24usize..100, 0u8..4, 4usize..12).prop_map(|(n, kind, degree)| match kind {
        0 => TopologySpec::ErdosRenyiPaper { n },
        1 => TopologySpec::ErdosRenyiDegree { n, degree: degree as f64 },
        2 => TopologySpec::RandomRegular { n, degree: regular_degree(n, degree) },
        _ => TopologySpec::Complete { n },
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random push-pull scenarios across the whole environment and stop-rule
    /// space: packed and unpacked traces must be identical.
    #[test]
    fn random_push_pull_scenarios_trace_identically(
        topology in topology_strategy(),
        seed in 0u64..10_000,
        loss in 0.0f64..0.4,
        churn in proptest::option::of((0.02f64..0.3, 2u64..5, 2u64..8)),
        crash in proptest::option::of((0u64..6, 1usize..16)),
        placement in 0u8..3,
        stop in 0u8..3,
        coverage in 0.3f64..1.0,
        budget in 1u64..40,
        threads in 1usize..4,
    ) {
        let mut builder = Scenario::builder("prop-pp", topology)
            .loss(loss)
            .placement(match placement {
                0 => StartPlacement::Random,
                1 => StartPlacement::MinDegree,
                _ => StartPlacement::MaxDegree,
            })
            .stop(match stop {
                0 => StopRule::Complete,
                1 => StopRule::Rounds(budget),
                _ => StopRule::Coverage(coverage),
            });
        if let Some((fraction, period, downtime)) = churn {
            builder = builder.churn(fraction, period, downtime);
        }
        if let Some((round, count)) = crash {
            builder = builder.crash(round, count);
        }
        let scenario = builder.build().unwrap();
        let (packed, packed_trace) = run_scenario_traced(&scenario, seed, threads);
        let (unpacked, unpacked_trace) = run_scenario_unpacked_traced(&scenario, seed);
        prop_assert_eq!(&packed, &unpacked);
        prop_assert_eq!(packed_trace, unpacked_trace);
        // The untraced entry points agree with the traced ones.
        prop_assert_eq!(&run_scenario(&scenario, seed, threads), &packed);
        prop_assert_eq!(&run_scenario_unpacked(&scenario, seed), &unpacked);
    }

    /// Random phase-based (fast-gossiping / memory) scenarios under hostile
    /// environments and **all three stop rules**: outcomes, per-round traces
    /// and phase traces must be identical on both engines.
    #[test]
    fn random_phase_scenarios_trace_identically(
        n in 24usize..80,
        protocol_pick in 0u8..2,
        seed in 0u64..10_000,
        loss in 0.0f64..0.2,
        crash in proptest::option::of((0u64..4, 1usize..10)),
        churn in proptest::option::of((0.02f64..0.2, 2u64..5, 2u64..6)),
        stop in 0u8..3,
        coverage in 0.3f64..1.0,
        budget in 1u64..60,
    ) {
        let protocol = if protocol_pick == 0 {
            ProtocolSpec::FastGossiping
        } else {
            ProtocolSpec::Memory
        };
        let mut builder = Scenario::builder("prop-phase", TopologySpec::ErdosRenyiPaper { n })
            .protocol(protocol)
            .loss(loss)
            .stop(match stop {
                0 => StopRule::Complete,
                1 => StopRule::Rounds(budget),
                _ => StopRule::Coverage(coverage),
            });
        if let Some((round, count)) = crash {
            builder = builder.crash(round, count);
        }
        if let Some((fraction, period, downtime)) = churn {
            builder = builder.churn(fraction, period, downtime);
        }
        let scenario = builder.build().unwrap();
        let (packed, packed_trace) = run_scenario_traced(&scenario, seed, 2);
        let (unpacked, unpacked_trace) = run_scenario_unpacked_traced(&scenario, seed);
        prop_assert_eq!(&packed, &unpacked);
        prop_assert_eq!(&packed_trace, &unpacked_trace);
        prop_assert!(!packed_trace.phases.is_empty(), "phase protocols must mark phases");
        // The step-driven executor records one row per round plus the final
        // stop-rule evaluation, for phase protocols too.
        prop_assert_eq!(packed_trace.rounds.len() as u64, packed.rounds + 1);
        // A round budget within the schedule is spent exactly.
        if let StopRule::Rounds(r) = scenario.stop {
            prop_assert!(packed.rounds <= r);
            if packed.stopped_by == StoppedBy::RoundBudget {
                prop_assert_eq!(packed.rounds, r);
            }
        }
    }
}

/// The engine's dynamic conditions for one channel-opening round.
#[derive(Clone, Debug)]
struct DrawSetup {
    round: u64,
    departed: Vec<NodeId>,
    edge_outage: Vec<NodeId>,
    avoid: bool,
}

/// Every node flips a coin and then opens a channel, visiting nodes in
/// `order`; returns `(coin, partner)` indexed by node.
fn coins_and_partners<E: Engine>(
    sim: &mut E,
    setup: &DrawSetup,
    order: &[NodeId],
) -> Vec<(bool, Option<NodeId>)> {
    for _ in 0..setup.round {
        sim.metrics_mut().finish_round();
    }
    sim.kill_nodes(&setup.departed);
    if !setup.edge_outage.is_empty() {
        sim.schedule_edge_outage(setup.round, setup.edge_outage.clone());
        sim.apply_due_events();
    }
    let mut out = vec![(false, None); sim.num_nodes()];
    for &v in order {
        let coin = sim.node_draws(v).gen_bool(0.5);
        let partner = if setup.avoid {
            // Avoid the first two neighbours, as a memory-model contact list
            // would.
            let avoid: Vec<NodeId> = sim.graph().neighbors(v).iter().take(2).copied().collect();
            sim.open_channel_avoiding(v, &avoid)
        } else {
            sim.open_channel(v)
        };
        out[v as usize] = (coin, partner);
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Channel opening does not depend on the order nodes are visited in,
    /// and the packed and unpacked engines draw the same partners.
    #[test]
    fn partners_are_independent_of_visit_order_on_both_engines(
        n in 16usize..90,
        graph_seed in 0u64..1_000,
        seed in 0u64..1_000_000,
        round in 0u64..6,
        departed_frac in proptest::option::of(0.05f64..0.6),
        edge_frac in proptest::option::of(0.05f64..0.6),
        avoid in any::<bool>(),
        shuffle_seed in 0u64..1_000_000,
    ) {
        let graph = TopologySpec::ErdosRenyiPaper { n }.build().generate(graph_seed);
        let mut rng = SmallRng::seed_from_u64(shuffle_seed);
        let mut pick = |frac: Option<f64>, len: usize| -> Vec<NodeId> {
            frac.map_or_else(Vec::new, |f| {
                (0..len as NodeId).filter(|_| rng.gen_bool(f)).collect()
            })
        };
        let setup = DrawSetup {
            round,
            departed: pick(departed_frac, n),
            edge_outage: pick(edge_frac, graph.num_edge_slots()),
            avoid,
        };
        let natural: Vec<NodeId> = (0..n as NodeId).collect();
        let mut permuted = natural.clone();
        for i in (1..permuted.len()).rev() {
            permuted.swap(i, rng.gen_range(0..=i));
        }

        let packed = coins_and_partners(&mut Simulation::new(&graph, seed), &setup, &natural);
        let packed_permuted =
            coins_and_partners(&mut Simulation::new(&graph, seed), &setup, &permuted);
        let unpacked =
            coins_and_partners(&mut UnpackedSimulation::new(&graph, seed), &setup, &natural);
        let unpacked_permuted =
            coins_and_partners(&mut UnpackedSimulation::new(&graph, seed), &setup, &permuted);
        prop_assert_eq!(&packed, &packed_permuted);
        prop_assert_eq!(&unpacked, &unpacked_permuted);
        prop_assert_eq!(&packed, &unpacked);
    }
}
