//! The `large-n` workload: one push-pull run to completion on
//! G(100 000, log² n / n), first on one engine thread (eager core), then on
//! two (batch core), same seed. The state table is far larger than the
//! last-level cache, so delivery is bound by memory bandwidth.

use std::time::Instant;

use rpc_engine::{Engine, Simulation};
use rpc_gossip::{ProtocolDriver, PushPullDriver, StepStatus};
use rpc_graphs::Graph;
use rpc_obs::CoreRounds;
use rpc_scenarios::{scenario_engine_seeds, Scenario, TopologySpec};

use crate::host::{cpu_seconds, peak_rss_mb, reset_peak_rss, state_table_bytes};
use crate::probe::{core_moved, secs, RoundSpans, TimedEngine};
use crate::{batch_seed, batches, Batch, Layers, Measured};

/// Nodes.
pub const N: usize = 100_000;
/// Engine thread counts, in run order.
pub const THREADS: [usize; 2] = [1, 2];

/// The topology.
pub fn topology() -> TopologySpec {
    TopologySpec::ErdosRenyiPaper { n: N }
}

/// Round cap: the scenario default for this size.
fn max_rounds() -> usize {
    Scenario::builder("large-n", topology()).build().expect("valid").max_rounds as usize
}

/// Estimated peak: the state table twice (the batch core's second buffer)
/// plus the CSR slots of an expected-degree graph.
pub fn footprint() -> u64 {
    let degree = topology().build().expected_degree();
    2 * state_table_bytes(N as u64, N as u64) + (N as f64 * degree * 1.1) as u64 * 4
}

/// What one run to completion ended with; both thread counts must agree.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Final {
    /// Rounds executed.
    pub rounds: u64,
    /// Packets sent.
    pub packets: u64,
    /// Channel exchanges.
    pub exchanges: u64,
    /// Nodes knowing every message.
    pub fully_informed: usize,
}

/// Per-thread-count results of the end-to-end run.
#[derive(Clone, Debug, Default)]
pub struct Runs {
    /// Final state per thread count.
    pub finals: Vec<Final>,
    /// Delivery batches per core, per thread count.
    pub cores: Vec<CoreRounds>,
}

fn final_of<E: Engine>(sim: &E, rounds: u64) -> Final {
    Final {
        rounds,
        packets: sim.metrics().total_packets(),
        exchanges: sim.metrics().total_exchanges(),
        fully_informed: sim.fully_informed_count(),
    }
}

/// Steps push-pull until gossip completes or the cap is hit; returns the
/// rounds executed.
fn step_to_completion<E: Engine>(sim: &mut E, mut on_round: impl FnMut(&E, f64)) -> u64 {
    let mut driver = PushPullDriver::new(max_rounds());
    let mut rounds = 0;
    while !driver.finished(sim) {
        let t = Instant::now();
        if driver.step(sim) == StepStatus::Done {
            break;
        }
        on_round(sim, secs(t));
        rounds += 1;
    }
    rounds
}

fn generate(seed: u64) -> Graph {
    topology().build().generate(scenario_engine_seeds(seed).0)
}

/// One batch and its set-up take about this long on the reference host (a
/// 2-core Xeon): sets the batch count for a run length.
pub const NOMINAL_S: f64 = 14.0;

/// The end-to-end run: enough batches to cover `seconds`, each on fresh
/// inputs from [`batch_seed`]. A batch sets up (graph + `Simulation::new`)
/// and runs to completion at each thread count; both must end in the same
/// state. Returns the measurement and the first batch's runs.
pub fn run(seed: u64, seconds: f64) -> (Measured, Runs) {
    let mut m = Measured::default();
    let mut first = None;
    for b in 0..batches(seconds, NOMINAL_S) {
        let seed = batch_seed(seed, b);
        let run_seed = scenario_engine_seeds(seed).1;
        let mut runs = Runs::default();
        let mut batch = Batch::default();
        reset_peak_rss();
        for threads in THREADS {
            let t = Instant::now();
            let graph = generate(seed);
            let mut sim = Simulation::new(&graph, run_seed).with_threads(threads);
            m.setup_s.push(secs(t));

            let cpu = cpu_seconds();
            let t = Instant::now();
            let rounds = step_to_completion(&mut sim, |_, _| {});
            batch.run_s += secs(t);
            batch.cpu_s += cpu_seconds() - cpu;
            batch.ops += 1;
            batch.node_rounds += N as u64 * rounds;

            m.attempted += 1;
            if !sim.gossip_complete() {
                m.failed += 1;
                m.errors
                    .push(format!("{threads}-thread run stopped after {rounds} rounds incomplete"));
            }
            runs.finals.push(final_of(&sim, rounds));
            runs.cores.push(sim.metrics().core_rounds());
        }
        if runs.finals[0] != runs.finals[1] {
            m.failed += 1;
            m.errors.push(format!(
                "1-thread and 2-thread runs differ: {:?} vs {:?}",
                runs.finals[0], runs.finals[1]
            ));
        }
        batch.peak_rss_mb = peak_rss_mb();
        m.batches.push(batch);
        first.get_or_insert(runs);
    }
    (m, first.expect("at least one batch ran"))
}

/// The traced run: the first batch's two runs again, the graph generation and
/// `Simulation::new` timed apart and the driver stepping a [`TimedEngine`].
/// Each must reproduce its end-to-end final state.
pub fn trace(
    seed: u64,
    untraced: &Measured,
    runs: &Runs,
    layers: &mut Layers,
    errors: &mut Vec<String>,
) {
    let seed = batch_seed(seed, 0);
    let run_seed = scenario_engine_seeds(seed).1;
    let (mut gen_s, mut setup_s, mut slots) = (0.0, 0.0, 0u64);
    let (mut traced_run_s, mut stepping_s) = (0.0, 0.0);
    let (mut deliver_nanos, mut transfers, mut added) = (0u64, 0u64, 0u64);
    let mut spans = RoundSpans::default();
    let mut cores = CoreRounds::default();
    for (i, threads) in THREADS.into_iter().enumerate() {
        let t = Instant::now();
        let graph = generate(seed);
        gen_s += secs(t);
        slots += graph.num_edge_slots() as u64;
        let t = Instant::now();
        let sim = Simulation::new(&graph, run_seed).with_threads(threads);
        setup_s += secs(t);

        let mut engine = TimedEngine::new(sim);
        let mut before = CoreRounds::default();
        let t = Instant::now();
        let rounds = step_to_completion(&mut engine, |e, s| {
            let now = e.metrics().core_rounds();
            spans.push(core_moved(before, now), s * 1e3);
            stepping_s += s;
            before = now;
        });
        traced_run_s += secs(t);
        let done = final_of(&engine, rounds);
        if done != runs.finals[i] {
            errors.push(format!(
                "{threads}-thread traced replay {done:?} differs from {:?}",
                runs.finals[i]
            ));
        }
        let c = engine.metrics().core_rounds();
        if c != runs.cores[i] {
            errors.push(format!(
                "{threads}-thread traced replay used cores {c:?}, the run {:?}",
                runs.cores[i]
            ));
        }
        cores.scalar += c.scalar;
        cores.eager += c.eager;
        cores.batch += c.batch;
        deliver_nanos += engine.deliver_nanos;
        transfers += engine.transfers;
        added += engine.added;
    }
    let deliver_s = deliver_nanos as f64 / 1e9;
    layers.set("graphs.gen_s", gen_s);
    layers.set("graphs.slots", slots as f64);
    layers.set("engine.setup_s", setup_s);
    layers.set("engine.deliver_s", deliver_s);
    layers.set("engine.step_self_s", stepping_s - deliver_s);
    layers.set_cores(cores, &spans);
    layers.set_delivery(transfers, added, deliver_s, state_table_bytes(1, N as u64));
    layers.set("trace.overhead_frac", untraced.overhead_frac(traced_run_s));
    layers.set("trace.coverage", stepping_s / traced_run_s);
}
