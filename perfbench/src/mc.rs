//! The two Monte Carlo workloads: `mc-density` (the paper's K_n versus sparse
//! G(n, log² n / n) comparison) and `mc-hostile` (the registry's hostile and
//! streaming scenarios), both run by the sweep engine on two workers with a
//! fixed repetition count.

use std::collections::BTreeMap;
use std::time::Instant;

use rpc_engine::{derive_seed, hash_key, Engine, SimulationArena};
use rpc_gossip::{
    FastGossiping, FastGossipingDriver, MemoryDriver, MemoryGossip, ProtocolDriver, PushPullDriver,
    StepStatus,
};
use rpc_graphs::GraphArena;
use rpc_obs::CoreRounds;
use rpc_scenarios::{
    plan_runtime, registry, run_scenario_observed_in, scenario_engine_seeds, CellJob, ProtocolSpec,
    RepPolicy, Scenario, ScenarioArena, StopRule, SweepReport, SweepRunner, SweepSpec,
    TopologySpec,
};

use crate::host::{cpu_seconds, peak_rss_mb, reset_peak_rss, state_table_bytes};
use crate::probe::{secs, RepCollector, RoundSpans, RoundStamper, TimedEngine};
use crate::stats::{median, percentile};
use crate::{batch_seed, batches, Batch, Layers, Measured};

/// Nodes per repetition.
pub const N: usize = 4096;
/// Sweep workers.
pub const THREADS: usize = 2;
/// Topology axis of `mc-density`: label and spec.
pub const TOPOLOGIES: [(&str, TopologySpec); 2] =
    [("kn", TopologySpec::Complete { n: N }), ("er", TopologySpec::ErdosRenyiPaper { n: N })];
/// Algorithm axis of `mc-density`: label and protocol.
pub const ALGORITHMS: [(&str, ProtocolSpec); 3] = [
    ("push-pull", ProtocolSpec::PushPull),
    ("fast-gossiping", ProtocolSpec::FastGossiping),
    ("memory", ProtocolSpec::Memory),
];
/// Registry scenarios of `mc-hostile`.
pub const HOSTILE: [&str; 3] = ["edge-churn", "hostile-all", "hostile-stream"];

/// Which Monte Carlo workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mc {
    /// Topology × algorithm grid, benign.
    Density,
    /// Hostile and streaming registry scenarios.
    Hostile,
}

impl Mc {
    /// Repetitions per cell in one timed batch.
    pub fn reps(self) -> usize {
        match self {
            Mc::Density => 4,
            Mc::Hostile => 2,
        }
    }

    /// Seconds one batch with its set-up takes on the reference host (a
    /// 2-core Xeon): sets the batch count for a run length.
    pub fn nominal_s(self) -> f64 {
        match self {
            Mc::Density => 0.4,
            Mc::Hostile => 1.0,
        }
    }

    /// The sweep of one batch.
    pub fn spec(self, seed: u64, reps: usize) -> SweepSpec {
        let policy = RepPolicy::fixed(reps);
        match self {
            Mc::Density => SweepSpec::grid("mc-density", seed, policy)
                .axis("topology", TOPOLOGIES.map(|t| t.0))
                .axis("algorithm", ALGORITHMS.map(|a| a.0))
                .cells(|p| {
                    let topology = TOPOLOGIES.iter().find(|t| t.0 == p.get("topology"))?.1.clone();
                    let protocol = ALGORITHMS.iter().find(|a| a.0 == p.get("algorithm"))?.1;
                    let scenario = Scenario::builder("mc-density", topology)
                        .protocol(protocol)
                        .build()
                        .expect("benign density scenarios validate");
                    Some(CellJob::scenario(scenario))
                })
                .expect("the density grid is well-formed"),
            Mc::Hostile => {
                let mut spec = SweepSpec::new("mc-hostile", seed, policy);
                for name in HOSTILE {
                    let scenario = registry::find(name, N).expect("registry scenario exists");
                    spec.push_cell(
                        vec![("scenario".into(), name.into())],
                        CellJob::scenario(scenario),
                    )
                    .expect("registry scenarios validate");
                }
                spec
            }
        }
    }

    /// Estimated peak footprint: per worker a state table (and a second
    /// buffer for swap commits) plus the densest cell's CSR slots, twice
    /// over for the traced replays' own arenas.
    pub fn footprint(self) -> u64 {
        let slots = match self {
            Mc::Density => (N * (N - 1)) as u64,
            Mc::Hostile => N as u64 * 150,
        };
        let per_worker = 2 * state_table_bytes(N as u64, N as u64) + slots * 4 + N as u64 * 64;
        (THREADS as u64 + 2) * per_worker
    }
}

/// The scenario a cell runs.
fn cell_scenario(job: &CellJob) -> &Scenario {
    match job {
        CellJob::Scenario { scenario, .. } => scenario,
        _ => unreachable!("benchmark sweeps hold scenario cells only"),
    }
}

/// Checks a report against the batch it ran: every cell ran `reps`
/// repetitions and every repetition satisfied its stop rule. Returns
/// `(attempted, failed, Σ n × rounds)` and pushes a message per failure.
fn check_report(report: &SweepReport, reps: usize, errors: &mut Vec<String>) -> (u64, u64, u64) {
    let (mut attempted, mut failed, mut node_rounds) = (0u64, 0u64, 0u64);
    for cell in &report.cells {
        attempted += reps as u64;
        if cell.reps != reps {
            errors.push(format!("{}: ran {} of {reps} repetitions", cell.key, cell.reps));
            failed += reps.abs_diff(cell.reps) as u64;
        }
        if cell.stopped.max_rounds > 0 {
            errors.push(format!(
                "{}: {} repetitions ended without meeting their stop rule",
                cell.key, cell.stopped.max_rounds
            ));
            failed += cell.stopped.max_rounds as u64;
        }
        let rounds = cell.mean("rounds").unwrap_or(0.0) * cell.reps as f64;
        node_rounds += N as u64 * rounds.round() as u64;
    }
    (attempted, failed, node_rounds)
}

/// Runs the workload's end-to-end measurement: enough batches to cover
/// `seconds`, each with fresh inputs from [`batch_seed`], each set up (spec
/// plus one warm-up repetition per cell) and then timed. Returns the
/// measurement and the first batch's report.
pub fn run(mc: Mc, seed: u64, seconds: f64) -> (Measured, SweepReport) {
    let runner = SweepRunner::new().with_threads(THREADS);
    let reps = mc.reps();
    let mut m = Measured::default();
    let mut first = None;
    for b in 0..batches(seconds, mc.nominal_s()) {
        reset_peak_rss();
        let t = Instant::now();
        let spec = mc.spec(batch_seed(seed, b), reps);
        runner.run(&mc.spec(batch_seed(seed, b), 1));
        m.setup_s.push(secs(t));

        let cpu = cpu_seconds();
        let t = Instant::now();
        let report = runner.run(&spec);
        let run_s = secs(t);
        let cpu_s = cpu_seconds() - cpu;

        let (attempted, failed, node_rounds) = check_report(&report, reps, &mut m.errors);
        m.attempted += attempted;
        m.failed += failed;
        let peak_rss_mb = peak_rss_mb();
        m.batches.push(Batch { run_s, cpu_s, ops: attempted, node_rounds, peak_rss_mb });
        first.get_or_insert(report);
    }
    (m, first.expect("at least one batch ran"))
}

/// What one benign wrapper replay measured.
#[derive(Debug, Default)]
pub struct StepProfile {
    /// Seconds to check the simulation out of its arena.
    pub checkout_s: f64,
    /// Seconds inside the stepping loop.
    pub step_s: f64,
    /// Nanoseconds inside `deliver`.
    pub deliver_nanos: u64,
    /// Transfers handed to `deliver`.
    pub transfers: u64,
    /// Newly learned pairs `deliver` returned.
    pub added: u64,
    /// Rounds executed.
    pub rounds: u64,
    /// Packets sent.
    pub packets: u64,
}

/// Replays one benign classic repetition the way the scenario executor
/// runs it — same graph, seeds, rumor placement and stop rule — but with the
/// protocol driver stepping a [`TimedEngine`].
pub fn replay_stepped(
    scenario: &Scenario,
    seed: u64,
    graphs: &mut GraphArena,
    sims: &mut SimulationArena,
) -> StepProfile {
    let n = scenario.num_nodes();
    match scenario.protocol {
        ProtocolSpec::PushPull => step_with(
            scenario,
            seed,
            graphs,
            sims,
            PushPullDriver::new(scenario.max_rounds as usize),
        ),
        ProtocolSpec::FastGossiping => step_with(
            scenario,
            seed,
            graphs,
            sims,
            FastGossipingDriver::new(FastGossiping::paper(n), n),
        ),
        ProtocolSpec::Memory => {
            step_with(scenario, seed, graphs, sims, MemoryDriver::new(MemoryGossip::paper(n)))
        }
        other => unreachable!("no stepped replay for {}", other.name()),
    }
}

/// Generic body of [`replay_stepped`].
fn step_with<D: ProtocolDriver>(
    scenario: &Scenario,
    seed: u64,
    graphs: &mut GraphArena,
    sims: &mut SimulationArena,
    mut driver: D,
) -> StepProfile {
    assert_eq!(scenario.stop, StopRule::Complete, "stepped replays cover stop=complete cells");
    let (graph_seed, run_seed) = scenario_engine_seeds(seed);
    scenario.topology.build().generate_into(graph_seed, graphs);
    let graph = graphs.graph();
    // A benign environment draws only the rumor placement from its stream;
    // the runtime planner replicates that draw for a push-pull scenario, and
    // the placement does not depend on the protocol.
    let placement = Scenario { protocol: ProtocolSpec::PushPull, ..scenario.clone() };
    let tracked = plan_runtime(&placement, seed, graph).expect("benign classic scenario").tracked;

    let t = Instant::now();
    let sim = sims.checkout(graph, run_seed);
    let checkout_s = secs(t);
    let mut engine = TimedEngine::new(sim);
    engine.set_loss_probability(scenario.environment.loss);
    engine.track_message(tracked);

    let t = Instant::now();
    let mut rounds = 0u64;
    while !driver.finished(&engine) && rounds < scenario.max_rounds {
        if driver.step(&mut engine) == StepStatus::Done {
            break;
        }
        rounds += 1;
    }
    let step_s = secs(t);
    let packets = engine.metrics().total_packets();
    let profile = StepProfile {
        checkout_s,
        step_s,
        deliver_nanos: engine.deliver_nanos,
        transfers: engine.transfers,
        added: engine.added,
        rounds,
        packets,
    };
    sims.recycle(engine.inner);
    profile
}

/// The `topology.algorithm` label of an `mc-density` cell key, as the
/// `gossip.*` metric names use it (see [`crate::DENSITY_CELLS`]).
fn density_label(key: &str) -> String {
    key.trim_start_matches("mc-density/topology=").replace("/algorithm=", ".")
}

/// Whether a cell can be replayed on the forwarding engine (benign,
/// classic, one of the three gossiping protocols, stop=complete).
pub fn steppable(scenario: &Scenario) -> bool {
    !scenario.environment.is_hostile()
        && scenario.injection.is_none()
        && scenario.stop == StopRule::Complete
        && matches!(
            scenario.protocol,
            ProtocolSpec::PushPull | ProtocolSpec::FastGossiping | ProtocolSpec::Memory
        )
}

/// The traced run: the first batch again, untraced for reference and then
/// through `SweepRunner::run_with` with a repetition collector, then every
/// repetition replayed with timestamps on the observer hooks, its graph
/// regenerated in isolation and, for benign cells, its driver stepped on the
/// forwarding engine. Every replay must reproduce the repetition it replays.
pub fn trace(
    mc: Mc,
    seed: u64,
    reference: &SweepReport,
    layers: &mut Layers,
    errors: &mut Vec<String>,
) {
    let spec = mc.spec(batch_seed(seed, 0), mc.reps());
    let runner = SweepRunner::new().with_threads(THREADS);
    // The untraced reference for `trace.overhead_frac`: the same inputs,
    // run right before the traced sweep. The first end-to-end batch ran them
    // too, but cold (the process's first sweep), and reads up to 2x slower.
    let t = Instant::now();
    runner.run(&spec);
    let untraced_run_s = secs(t);
    let mut collector = RepCollector::default();
    let t = Instant::now();
    let report = runner.run_with(&spec, &mut collector);
    let traced_run_s = secs(t);
    if &report != reference {
        errors.push("the observed sweep's report differs from the unobserved one".into());
    }

    let mut graphs = GraphArena::new();
    let mut sims = SimulationArena::default();
    let mut arena = ScenarioArena::default();
    let (mut gen_s, mut slots, mut cores) = (0.0, 0u64, CoreRounds::default());
    let (mut rep_setup_ms, mut spans) = (Vec::new(), RoundSpans::default());
    let mut stepped = StepProfile::default();
    let mut per_cell: BTreeMap<&str, (f64, f64, usize)> = BTreeMap::new();

    for rec in &collector.reps {
        let cell = spec.cells().iter().find(|c| c.key == rec.cell).expect("collected cell exists");
        let scenario = cell_scenario(&cell.job);
        let rep_seed = derive_seed(spec.seed, hash_key(cell.key.as_bytes()), rec.rep as u64);
        cores.scalar += rec.cores.scalar;
        cores.eager += rec.cores.eager;
        cores.batch += rec.cores.batch;

        let generator = scenario.topology.build();
        let t = Instant::now();
        generator.generate_into(scenario_engine_seeds(rep_seed).0, &mut graphs);
        let this_gen_s = secs(t);
        gen_s += this_gen_s;
        slots += graphs.graph().num_edge_slots() as u64;

        let mut stamper = RoundStamper::start();
        let outcome = run_scenario_observed_in(&mut arena, scenario, rep_seed, 1, &mut stamper);
        if outcome.rounds != rec.rounds || !outcome.completed {
            errors.push(format!(
                "{} rep {}: replay ran {} rounds (completed {}), the sweep {}",
                cell.key, rec.rep, outcome.rounds, outcome.completed, rec.rounds
            ));
        }
        rep_setup_ms.push((stamper.first_round_s.unwrap_or(0.0) - this_gen_s) * 1e3);
        spans.extend(stamper.spans);

        if steppable(scenario) {
            let p = replay_stepped(scenario, rep_seed, &mut graphs, &mut sims);
            if p.rounds != outcome.rounds || p.packets != outcome.total_packets {
                errors.push(format!(
                    "{} rep {}: stepped replay gave {} rounds / {} packets, the run {} / {}",
                    cell.key, rec.rep, p.rounds, p.packets, outcome.rounds, outcome.total_packets
                ));
            }
            stepped.checkout_s += p.checkout_s;
            stepped.step_s += p.step_s;
            stepped.deliver_nanos += p.deliver_nanos;
            stepped.transfers += p.transfers;
            stepped.added += p.added;
        }
        let entry = per_cell.entry(&cell.key).or_default();
        entry.0 += outcome.rounds as f64;
        entry.1 += outcome.packets_per_node(scenario.num_nodes());
        entry.2 += 1;
    }

    let walls: Vec<f64> = collector.reps.iter().map(|r| r.wall_nanos as f64 / 1e6).collect();
    let busy_s = walls.iter().sum::<f64>() / 1e3;
    let deliver_s = stepped.deliver_nanos as f64 / 1e9;
    layers.set("graphs.gen_s", gen_s);
    layers.set("graphs.slots", slots as f64);
    layers.set("engine.setup_s", stepped.checkout_s);
    layers.set("engine.deliver_s", deliver_s);
    layers.set("engine.step_self_s", stepped.step_s - deliver_s);
    layers.set_cores(cores, &spans);
    layers.set_delivery(
        stepped.transfers,
        stepped.added,
        deliver_s,
        state_table_bytes(1, N as u64),
    );
    if mc == Mc::Density {
        for (key, (rounds, ppn, k)) in &per_cell {
            let label = density_label(key);
            layers.set(&format!("gossip.rounds.{label}"), rounds / *k as f64);
            layers.set(&format!("gossip.packets_per_node.{label}"), ppn / *k as f64);
        }
    }
    layers.set("scenarios.rep_setup_ms", median(&rep_setup_ms));
    layers.set("scenarios.round_ms_p50", percentile(&spans.all, 50.0));
    layers.set("scenarios.round_ms_p90", percentile(&spans.all, 90.0));
    layers.set("sweep.rep_ms_p50", percentile(&walls, 50.0));
    layers.set("sweep.rep_ms_p90", percentile(&walls, 90.0));
    layers.set("sweep.worker_idle_s", THREADS as f64 * traced_run_s - busy_s);
    layers.set("trace.overhead_frac", traced_run_s / untraced_run_s - 1.0);
    layers.set("trace.coverage", busy_s / (THREADS as f64 * traced_run_s));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn density_grid_is_topology_by_algorithm() {
        let spec = Mc::Density.spec(1, 2);
        let keys: Vec<&str> = spec.cells().iter().map(|c| c.key.as_str()).collect();
        assert_eq!(keys.len(), 6);
        assert_eq!(keys[0], "mc-density/topology=kn/algorithm=push-pull");
        assert_eq!(keys[5], "mc-density/topology=er/algorithm=memory");
        assert!(spec.cells().iter().all(|c| steppable(cell_scenario(&c.job))));
    }

    #[test]
    fn density_labels_are_the_listed_gossip_cells() {
        let spec = Mc::Density.spec(1, 1);
        let labels: Vec<String> = spec.cells().iter().map(|c| density_label(&c.key)).collect();
        assert_eq!(labels, crate::DENSITY_CELLS);
    }

    #[test]
    fn hostile_cells_are_the_registry_scenarios() {
        let spec = Mc::Hostile.spec(1, 2);
        assert_eq!(spec.cells().len(), 3);
        assert!(spec.cells().iter().all(|c| !steppable(cell_scenario(&c.job))));
    }
}
