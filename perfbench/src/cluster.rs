//! The `cluster` workload: the node runtime (`rpc-runtime`) on the registry's
//! `sparse-er` scenario at n = 1024, once benign and once under a nemesis
//! that drops, delays, duplicates, partitions and crash-restarts.
//!
//! The traced run replays `run_cluster`'s delivery loop from the crate's
//! public types (`Coordinator`, `NodeHost`, `ChannelTransport`, `Nemesis`) so
//! each of them can be timed; [`replay`] must reproduce [`run_cluster`]
//! exactly, which `tests/cluster_replay.rs` pins at small n.

use std::collections::BinaryHeap;
use std::time::Instant;

use rpc_graphs::NodeId;
use rpc_runtime::wire::parse_node_name;
use rpc_runtime::{
    run_cluster_observed, Body, ChannelEnds, ChannelTransport, ClusterConfig, Coordinator,
    CrashAudit, Envelope, Nemesis, NemesisSpec, NodeActor, NodeHost, RuntimeOutcome, COORDINATOR,
};
use rpc_scenarios::{
    plan_runtime, registry, run_scenario_traced, scenario_engine_seeds, Scenario, ScenarioError,
};

use crate::host::{cpu_seconds, peak_rss_mb, reset_peak_rss, state_table_bytes};
use crate::probe::{secs, RoundStamper};
use crate::{batch_seed, batches, Batch, Layers, Measured};

/// Nodes.
pub const N: usize = 1024;
/// Registry scenario.
pub const SCENARIO: &str = "sparse-er";
/// The fault schedule of the second run.
pub const NEMESIS: &str = "drop=0.1,delay=0.2:3,duplicate=0.05,partition=4:2,crash=3@5+4,seed=9";

/// The scenario at `n` nodes.
pub fn scenario(n: usize) -> Scenario {
    registry::find(SCENARIO, n).expect("registry scenario exists")
}

/// The two configurations, in run order: benign, then the nemesis.
pub fn configs() -> [ClusterConfig; 2] {
    let nemesis = NemesisSpec::parse(NEMESIS).expect("the workload's nemesis parses");
    [ClusterConfig::benign(), ClusterConfig { nemesis, ..ClusterConfig::default() }]
}

/// Estimated peak: one simulator replica per node (its state table, commit
/// buffer, pools and per-node counters: about five state tables, as
/// measured at n = 1024) and the shared graph.
pub fn footprint() -> u64 {
    let n = N as u64;
    n * 5 * state_table_bytes(n, n) + n * 200 * 4
}

/// Checks the invariants of one cluster run and returns failure messages.
/// The benign run's trace must equal the simulator's for the same scenario
/// and seed; every run must meet its stop rule, forge no rumor, and keep
/// every rumor a crashed node had persisted.
pub fn check(scenario: &Scenario, seed: u64, benign: bool, out: &RuntimeOutcome) -> Vec<String> {
    let mut errors = Vec::new();
    let label = if benign { "benign" } else { "nemesis" };
    if !out.completed {
        errors.push(format!("{label} cluster stopped by {:?}", out.stopped_by));
    }
    if out.forged {
        errors.push(format!("{label} cluster holds a forged rumor"));
    }
    for audit in &out.crash_audits {
        let held = &out.final_words[audit.node as usize];
        if audit.persisted.iter().zip(held).any(|(p, w)| p & !w != 0) {
            errors.push(format!("{label} cluster: node {} lost persisted rumors", audit.node));
        }
    }
    if benign {
        let (_, sim) = run_scenario_traced(scenario, seed, 1);
        let same = sim.rounds.len() == out.trace.len()
            && sim.rounds.iter().zip(&out.trace).all(|(s, r)| {
                (s.round, s.fully_informed, s.tracked_informed, s.packets)
                    == (r.round, r.fully_informed, r.tracked_informed, r.packets)
            });
        if !same {
            errors.push("benign cluster trace differs from the simulator's".into());
        }
    }
    errors
}

/// One batch (both configurations) takes about this long on the reference
/// host (a 2-core Xeon): sets the batch count for a run length.
pub const NOMINAL_S: f64 = 5.0;

/// The end-to-end run: enough batches to cover `seconds`, each running both
/// configurations on fresh inputs from [`batch_seed`]. Set-up is the span
/// from the `run_cluster` call to its first `round` event; wall and CPU time
/// of the timed phase both start there. Returns the measurement and the
/// first batch's outcomes.
pub fn run(seed: u64, seconds: f64) -> (Measured, Vec<RuntimeOutcome>) {
    let scenario = scenario(N);
    let configs = configs();
    let mut m = Measured::default();
    let mut first: Vec<RuntimeOutcome> = Vec::new();
    for b in 0..batches(seconds, NOMINAL_S) {
        let seed = batch_seed(seed, b);
        let mut batch = Batch::default();
        reset_peak_rss();
        for (i, config) in configs.iter().enumerate() {
            let mut stamp = RoundStamper::start();
            let result = run_cluster_observed(&scenario, seed, config, &mut stamp);
            let total = secs(stamp.started());
            let cpu_end = cpu_seconds();
            batch.cpu_s += stamp.first_round_cpu_s.map_or(0.0, |cpu| cpu_end - cpu);
            let setup = stamp.first_round_s.unwrap_or(total);
            m.setup_s.push(setup);
            batch.run_s += total - setup;
            batch.ops += 1;
            m.attempted += 1;
            match result {
                Ok(out) => {
                    batch.node_rounds += N as u64 * out.rounds;
                    let errors = check(&scenario, seed, i == 0, &out);
                    m.failed += u64::from(!errors.is_empty());
                    m.errors.extend(errors);
                    if b == 0 {
                        first.push(out);
                    }
                }
                Err(e) => {
                    m.failed += 1;
                    m.errors.push(format!("cluster run failed: {e}"));
                }
            }
        }
        batch.peak_rss_mb = peak_rss_mb();
        m.batches.push(batch);
    }
    (m, first)
}

/// Where a replayed cluster run spent its time.
#[derive(Clone, Debug, Default)]
pub struct Profile {
    /// Call to the first `round` event.
    pub setup_s: f64,
    /// Generating the graph.
    pub gen_s: f64,
    /// Its CSR slots.
    pub slots: u64,
    /// Building the `n` node actors.
    pub actors_s: f64,
    /// Inside `NodeHost::pump`.
    pub node_s: f64,
    /// Inside `Coordinator::handle`.
    pub coord_s: f64,
    /// Nemesis routing, the delivery queue, channel hand-off and the
    /// crash-window scan.
    pub route_s: f64,
    /// The whole replay.
    pub total_s: f64,
    /// Envelopes delivered.
    pub envelopes: u64,
    /// Every delivered envelope, for the codec measurement.
    pub mix: Vec<Envelope>,
}

/// One scheduled delivery, min-ordered by `(due, seq)`.
struct InFlight {
    due: u64,
    seq: u64,
    env: Envelope,
}

impl PartialEq for InFlight {
    fn eq(&self, other: &Self) -> bool {
        (self.due, self.seq) == (other.due, other.seq)
    }
}
impl Eq for InFlight {}
impl PartialOrd for InFlight {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for InFlight {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (other.due, other.seq).cmp(&(self.due, self.seq))
    }
}

/// The delivery queue: the runtime's virtual-time scheduler.
#[derive(Default)]
struct Queue {
    heap: BinaryHeap<InFlight>,
    seq: u64,
}

impl Queue {
    fn push_at(&mut self, due: u64, env: Envelope) {
        self.seq += 1;
        self.heap.push(InFlight { due, seq: self.seq, env });
    }

    /// Timer ticks go straight to the queue; everything else through the
    /// nemesis, which may drop, delay or duplicate it.
    fn route(
        &mut self,
        env: Envelope,
        now: u64,
        nemesis: &mut Nemesis,
        round: u64,
        n: usize,
        obs: &mut RoundStamper,
    ) {
        if let Body::Tick { after, .. } = env.body {
            self.push_at(now + after, env);
            return;
        }
        for extra in nemesis.route(&env, round, n, obs) {
            self.push_at(now + 1 + extra, env.clone());
        }
    }
}

/// Replays `run_cluster_observed` step for step from the runtime's public
/// types, timing each. The outcome must equal `run_cluster`'s.
pub fn replay(
    scenario: &Scenario,
    seed: u64,
    config: &ClusterConfig,
) -> Result<(RuntimeOutcome, Profile), ScenarioError> {
    let started = Instant::now();
    let mut p = Profile::default();
    let graph = scenario.topology.build().generate(scenario_engine_seeds(seed).0);
    p.gen_s = secs(started);
    p.slots = graph.num_edge_slots() as u64;
    let plan = plan_runtime(scenario, seed, &graph)?;
    let n = plan.n;

    let t = Instant::now();
    let mut hosts: Vec<Option<NodeHost<'_, ChannelTransport>>> = Vec::with_capacity(n);
    let mut ends: Vec<ChannelEnds> = Vec::with_capacity(n);
    for k in 0..n {
        let (transport, end) = ChannelTransport::pair();
        hosts.push(Some(NodeHost::new(NodeActor::new(&graph, &plan, k as NodeId), transport)));
        ends.push(end);
    }
    p.actors_s = secs(t);
    let mut coordinator = Coordinator::new(plan.clone(), config.policy, &scenario.name, seed);
    let mut nemesis = Nemesis::new(config.nemesis.clone());
    let mut queue = Queue::default();
    let mut now = 0u64;
    let mut down = vec![false; n];
    let mut persisted: Vec<Vec<u64>> = vec![Vec::new(); n];
    let mut crash_audits = Vec::new();
    let mut first = RoundStamper::start();

    let t = Instant::now();
    for env in coordinator.start() {
        queue.route(env, now, &mut nemesis, 0, n, &mut first);
    }
    p.route_s += secs(t);

    let mut budget: u64 = 10_000_000;
    while !coordinator.finished() {
        let t = Instant::now();
        let Some(InFlight { due, env, .. }) = queue.heap.pop() else {
            return Err(ScenarioError::Invalid("replay queue drained before the stop rule".into()));
        };
        budget -= 1;
        if budget == 0 {
            return Err(ScenarioError::Invalid("replay exceeded its delivery budget".into()));
        }
        now = due;
        let round = coordinator.current_round();
        for k in 0..n {
            let in_window = nemesis.crashed(k as NodeId, round);
            if in_window && !down[k] {
                if let Some(host) = hosts[k].take() {
                    persisted[k] = host.actor().store().words().to_vec();
                    crash_audits
                        .push(CrashAudit { node: k as NodeId, persisted: persisted[k].clone() });
                    nemesis.note_crash();
                }
                down[k] = true;
            } else if !in_window && down[k] {
                let (transport, end) = ChannelTransport::pair();
                hosts[k] = Some(NodeHost::new(
                    NodeActor::restart(&graph, &plan, k as NodeId, &persisted[k]),
                    transport,
                ));
                ends[k] = end;
                nemesis.note_restart();
                down[k] = false;
            }
        }
        p.envelopes += 1;
        p.mix.push(env.clone());
        p.route_s += secs(t);

        let replies: Vec<Envelope> = if env.dest == COORDINATOR {
            let t = Instant::now();
            let out = coordinator.handle(&env, &mut first);
            p.coord_s += secs(t);
            out
        } else if let Some(k) = parse_node_name(&env.dest).map(|id| id as usize) {
            match hosts.get_mut(k).and_then(Option::as_mut) {
                Some(host) if !down[k] => {
                    let t = Instant::now();
                    ends[k]
                        .tx
                        .send(env)
                        .map_err(|_| ScenarioError::Invalid("node inbox disconnected".into()))?;
                    p.route_s += secs(t);
                    let t = Instant::now();
                    host.pump().map_err(|e| {
                        ScenarioError::Invalid(format!("node transport failed: {e}"))
                    })?;
                    p.node_s += secs(t);
                    let t = Instant::now();
                    let out = std::iter::from_fn(|| ends[k].rx.try_recv().ok()).collect();
                    p.route_s += secs(t);
                    out
                }
                _ => Vec::new(),
            }
        } else {
            Vec::new()
        };
        let t = Instant::now();
        let round = coordinator.current_round();
        for reply in replies {
            queue.route(reply, now, &mut nemesis, round, n, &mut first);
        }
        p.route_s += secs(t);
    }

    let stopped_by = coordinator.stopped_by().expect("a finished coordinator names its stop cause");
    let final_words: Vec<Vec<u64>> = (0..n)
        .map(|k| match hosts[k].as_ref() {
            Some(host) => host.actor().store().words().to_vec(),
            None => persisted[k].clone(),
        })
        .collect();
    let forged = hosts.iter().flatten().any(|host| !host.actor().no_forged_rumors());
    p.setup_s = first.first_round_s.map_or(0.0, |s| s + (first.started() - started).as_secs_f64());
    p.total_s = secs(started);
    let outcome = RuntimeOutcome {
        completed: stopped_by.satisfied(),
        stopped_by,
        rounds: coordinator.rounds(),
        total_packets: coordinator.total_packets(),
        total_exchanges: coordinator.total_exchanges(),
        trace: coordinator.trace().to_vec(),
        retries: coordinator.retries(),
        quorum_advances: coordinator.quorum_advances(),
        faults: *nemesis.stats(),
        final_counts: coordinator.counts().to_vec(),
        final_words,
        count_history: coordinator.count_history().to_vec(),
        crash_audits,
        forged,
    };
    Ok((outcome, p))
}

/// Every field of two outcomes that a replay must reproduce; `None` when
/// they agree, else the first field that differs.
pub fn first_difference(a: &RuntimeOutcome, b: &RuntimeOutcome) -> Option<&'static str> {
    let checks: [(&'static str, bool); 14] = [
        ("completed", a.completed == b.completed),
        ("stopped_by", a.stopped_by == b.stopped_by),
        ("rounds", a.rounds == b.rounds),
        ("total_packets", a.total_packets == b.total_packets),
        ("total_exchanges", a.total_exchanges == b.total_exchanges),
        ("trace", a.trace == b.trace),
        ("retries", a.retries == b.retries),
        ("quorum_advances", a.quorum_advances == b.quorum_advances),
        ("faults", a.faults == b.faults),
        ("final_counts", a.final_counts == b.final_counts),
        ("final_words", a.final_words == b.final_words),
        ("count_history", a.count_history == b.count_history),
        ("crash_audits", a.crash_audits == b.crash_audits),
        ("forged", a.forged == b.forged),
    ];
    checks.iter().find(|(_, same)| !same).map(|(name, _)| *name)
}

/// Mean nanoseconds to encode and decode one envelope of `mix`, timed apart
/// from the run.
pub fn codec_ns(mix: &[Envelope]) -> f64 {
    if mix.is_empty() {
        return 0.0;
    }
    let t = Instant::now();
    for env in mix {
        let line = env.encode();
        let back = Envelope::decode(&line).expect("an encoded envelope decodes");
        std::hint::black_box(back);
    }
    t.elapsed().as_nanos() as f64 / mix.len() as f64
}

/// The traced run: replay the first batch's two runs with timers, check each
/// against its end-to-end outcome, and time the codec over the envelope mix.
pub fn trace(
    seed: u64,
    untraced: &Measured,
    outcomes: &[RuntimeOutcome],
    layers: &mut Layers,
    errors: &mut Vec<String>,
) {
    let seed = batch_seed(seed, 0);
    let scenario = scenario(N);
    let mut total = Profile::default();
    let mut traced_run_s = 0.0;
    let (mut retries, mut degraded) = (0u64, 0u64);
    let mut mix = Vec::new();
    for (i, config) in configs().iter().enumerate() {
        match replay(&scenario, seed, config) {
            Ok((out, p)) => {
                if let Some(field) = outcomes.get(i).and_then(|e| first_difference(e, &out)) {
                    errors.push(format!("cluster replay {i}: {field} differs from run_cluster"));
                }
                retries += out.retries;
                degraded += out.quorum_advances;
                traced_run_s += p.total_s - p.setup_s;
                total.setup_s += p.setup_s;
                total.gen_s += p.gen_s;
                total.slots += p.slots;
                total.actors_s += p.actors_s;
                total.node_s += p.node_s;
                total.coord_s += p.coord_s;
                total.route_s += p.route_s;
                total.total_s += p.total_s;
                total.envelopes += p.envelopes;
                mix.extend(p.mix);
            }
            Err(e) => errors.push(format!("cluster replay {i} failed: {e}")),
        }
    }
    layers.set("graphs.gen_s", total.gen_s);
    layers.set("graphs.slots", total.slots as f64);
    layers.set("runtime.setup_s", total.actors_s);
    layers.set("runtime.node_s", total.node_s);
    layers.set("runtime.coord_s", total.coord_s);
    layers.set("runtime.route_s", total.route_s);
    layers.set("runtime.envelopes", total.envelopes as f64);
    layers.set("runtime.codec_ns", codec_ns(&mix));
    layers.set("runtime.retries", retries as f64);
    layers.set("runtime.degraded_rounds", degraded as f64);
    layers.set("trace.overhead_frac", untraced.overhead_frac(traced_run_s));
    let explained = total.gen_s + total.actors_s + total.node_s + total.coord_s + total.route_s;
    layers.set("trace.coverage", explained / total.total_s);
}
