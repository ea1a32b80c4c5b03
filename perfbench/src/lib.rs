//! The repository benchmark: four closed-batch workloads over the simulator
//! and the node runtime, measured end to end with tracing off and layer by
//! layer in a separate traced run. See `README.md` for the workloads, the
//! metrics and how they relate.

pub mod cluster;
pub mod host;
pub mod large;
pub mod mc;
pub mod probe;
pub mod stats;

use std::collections::BTreeMap;

use rpc_obs::CoreRounds;

use crate::probe::RoundSpans;
use crate::stats::{median, node_rounds_per_s};

/// The workloads, by name.
pub const WORKLOADS: [&str; 4] = ["mc-density", "mc-hostile", "large-n", "cluster"];

/// End-to-end metrics: name and unit. Printed with tracing off.
pub const END_TO_END: [(&str, &str); 6] = [
    ("run_s", "s"),
    ("setup_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("node_rounds_per_s", "1/s"),
    ("reps_per_s", "1/s"),
];

/// `mc-density` cell labels (`topology.algorithm`) of the `gossip.*`
/// metrics.
pub const DENSITY_CELLS: [&str; 6] = [
    "kn.push-pull",
    "kn.fast-gossiping",
    "kn.memory",
    "er.push-pull",
    "er.fast-gossiping",
    "er.memory",
];

/// Per-layer metrics: name and unit. Printed by the traced run; a layer a
/// workload does not reach reads 0.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = [
        ("graphs.gen_s", "s"),
        ("graphs.slots", "count"),
        ("engine.setup_s", "s"),
        ("engine.deliver_s", "s"),
        ("engine.step_self_s", "s"),
        ("engine.rounds.scalar", "count"),
        ("engine.rounds.eager", "count"),
        ("engine.rounds.batch", "count"),
        ("engine.round_ms.scalar", "ms"),
        ("engine.round_ms.eager", "ms"),
        ("engine.round_ms.batch", "ms"),
        ("engine.added_per_packet", "pairs/packet"),
        ("engine.deliver_gbps", "GB/s"),
    ]
    .into_iter()
    .map(|(n, u)| (n.to_string(), u))
    .collect();
    for cell in DENSITY_CELLS {
        out.push((format!("gossip.rounds.{cell}"), "rounds"));
    }
    for cell in DENSITY_CELLS {
        out.push((format!("gossip.packets_per_node.{cell}"), "packets"));
    }
    out.extend(
        [
            ("scenarios.rep_setup_ms", "ms"),
            ("scenarios.round_ms_p50", "ms"),
            ("scenarios.round_ms_p90", "ms"),
            ("sweep.rep_ms_p50", "ms"),
            ("sweep.rep_ms_p90", "ms"),
            ("sweep.worker_idle_s", "s"),
            ("runtime.setup_s", "s"),
            ("runtime.node_s", "s"),
            ("runtime.coord_s", "s"),
            ("runtime.route_s", "s"),
            ("runtime.envelopes", "count"),
            ("runtime.codec_ns", "ns"),
            ("runtime.retries", "count"),
            ("runtime.degraded_rounds", "count"),
            ("host.copy_gbps", "GB/s"),
            ("trace.overhead_frac", "ratio"),
            ("trace.coverage", "ratio"),
        ]
        .into_iter()
        .map(|(n, u)| (n.to_string(), u)),
    );
    out
}

/// How many batches a run of `seconds` makes when one batch (with its
/// set-up) takes about `nominal_s`: at least one, and never fewer than the
/// run needs to cover `seconds`. The count depends only on the arguments,
/// so two commits measured with the same settings run the same inputs.
pub fn batches(seconds: f64, nominal_s: f64) -> usize {
    (seconds / nominal_s).ceil().max(1.0) as usize
}

/// The seed of batch `b` of a run seeded `seed`: every batch draws fresh
/// inputs from one fixed sequence.
pub fn batch_seed(seed: u64, b: usize) -> u64 {
    rpc_engine::derive_seed(seed, 0x6265_6e63, b as u64)
}

/// One timed batch.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Batch {
    /// Wall seconds of the timed phase.
    pub run_s: f64,
    /// CPU seconds of the timed phase.
    pub cpu_s: f64,
    /// Operations it ran.
    pub ops: u64,
    /// `Σ n × rounds` over its simulated runs.
    pub node_rounds: u64,
    /// High-water RSS from its set-up to its end, in MiB.
    pub peak_rss_mb: f64,
}

/// One workload's end-to-end measurement: its batches and set-ups, plus the
/// operation tally and correctness failures.
#[derive(Clone, Debug, Default)]
pub struct Measured {
    /// Set-up seconds, one per set-up.
    pub setup_s: Vec<f64>,
    /// The timed batches, in run order.
    pub batches: Vec<Batch>,
    /// Operations attempted over the whole run.
    pub attempted: u64,
    /// Operations that failed their stop rule or a correctness check.
    pub failed: u64,
    /// What failed, for the log.
    pub errors: Vec<String>,
}

impl Measured {
    /// Each batch's value of `f`.
    pub fn each(&self, f: impl Fn(&Batch) -> f64) -> Vec<f64> {
        self.batches.iter().map(f).collect()
    }

    /// The `run_s` metric: the median batch's timed phase.
    pub fn run_s(&self) -> f64 {
        median(&self.each(|b| b.run_s))
    }

    /// `trace.overhead_frac`: a traced replay's timed phase against the
    /// first batch, which ran exactly the same inputs untraced.
    pub fn overhead_frac(&self, traced_run_s: f64) -> f64 {
        traced_run_s / self.batches[0].run_s - 1.0
    }

    /// The end-to-end metric values, in [`END_TO_END`] order: medians over
    /// the batches (rates are per batch, then the median). `peak_rss_mb` is
    /// the lowest per-batch high-water mark instead: a batch's peak also
    /// holds whatever freed memory the allocator kept from earlier batches,
    /// which varies from batch to batch, and the lowest peak is the one
    /// closest to what a batch itself needs.
    pub fn end_to_end(&self) -> Vec<f64> {
        let rate = |x: u64, b: &Batch| if b.run_s > 0.0 { x as f64 / b.run_s } else { 0.0 };
        vec![
            self.run_s(),
            median(&self.setup_s),
            median(&self.each(|b| b.cpu_s)),
            self.each(|b| b.peak_rss_mb).into_iter().fold(f64::INFINITY, f64::min),
            median(&self.each(|b| node_rounds_per_s(b.node_rounds, b.run_s))),
            median(&self.each(|b| rate(b.ops, b))),
        ]
    }
}

/// The traced run's per-layer values, by metric name.
#[derive(Clone, Debug, Default)]
pub struct Layers {
    /// Values set so far.
    pub values: BTreeMap<String, f64>,
}

impl Layers {
    /// Sets one metric.
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    /// Sets the exact per-core round counts and the p50 round span per
    /// core.
    pub fn set_cores(&mut self, cores: CoreRounds, spans: &RoundSpans) {
        self.set("engine.rounds.scalar", cores.scalar as f64);
        self.set("engine.rounds.eager", cores.eager as f64);
        self.set("engine.rounds.batch", cores.batch as f64);
        self.set("engine.round_ms.scalar", median(&spans.scalar));
        self.set("engine.round_ms.eager", median(&spans.eager));
        self.set("engine.round_ms.batch", median(&spans.batch));
    }

    /// Sets the share of useful delivery work and the delivery bandwidth:
    /// each transfer reads the sender's state row and writes the
    /// receiver's, `row_bytes` each.
    pub fn set_delivery(&mut self, transfers: u64, added: u64, deliver_s: f64, row_bytes: u64) {
        let share = if transfers > 0 { added as f64 / transfers as f64 } else { 0.0 };
        let gbps = if deliver_s > 0.0 {
            (transfers * 2 * row_bytes) as f64 / deliver_s / 1e9
        } else {
            0.0
        };
        self.set("engine.added_per_packet", share);
        self.set("engine.deliver_gbps", gbps);
    }
}

/// Renders the result line: `correct`, `attempted`, `failed` and the
/// metrics with their units. Non-finite values (which would not be JSON)
/// print as 0.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, f64, &str)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_the_contract_shape() {
        let line =
            result_line(true, 3, 0, &[("run_s".into(), 1.5, "s"), ("x".into(), f64::NAN, "ms")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"run_s\": {\"value\": 1.5, \"unit\": \"s\"}, \"x\": {\"value\": 0.0, \"unit\": \"ms\"}}}"
        );
    }

    #[test]
    fn end_to_end_values_are_medians_over_batches() {
        let batch = |run_s: f64, cpu_s: f64, node_rounds: u64| Batch {
            run_s,
            cpu_s,
            ops: 12,
            node_rounds,
            peak_rss_mb: cpu_s * 20.0,
        };
        let m = Measured {
            setup_s: vec![0.5, 0.1, 0.3],
            batches: vec![
                batch(2.0, 6.0, 4096 * 20),
                batch(4.0, 5.0, 4096 * 24),
                batch(3.0, 7.0, 4096 * 30),
            ],
            ..Measured::default()
        };
        assert_eq!(m.end_to_end(), vec![3.0, 0.3, 6.0, 100.0, 4096.0 * 10.0, 4.0]);
    }

    #[test]
    fn batch_counts_cover_the_run_length() {
        assert_eq!(batches(15.0, 0.4), 38);
        assert_eq!(batches(15.0, 14.0), 2);
        assert_eq!(batches(1.0, 60.0), 1);
        assert_ne!(batch_seed(1, 0), batch_seed(1, 1));
        assert_eq!(batch_seed(7, 3), batch_seed(7, 3));
    }

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let mut names: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        names.extend(per_layer().into_iter().map(|(n, _)| n));
        let unique: std::collections::HashSet<&String> = names.iter().collect();
        assert_eq!(unique.len(), names.len());
        for name in &names {
            assert!(name.len() <= 64, "{name}");
            assert!(name.chars().next().unwrap().is_ascii_alphanumeric(), "{name}");
            assert!(name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)), "{name}");
        }
    }

    #[test]
    fn delivery_bandwidth_counts_a_read_and_a_write_per_transfer() {
        let mut layers = Layers::default();
        layers.set_delivery(1000, 250, 0.5, 1 << 10);
        assert_eq!(layers.values["engine.added_per_packet"], 0.25);
        assert_eq!(layers.values["engine.deliver_gbps"], 2000.0 * 1024.0 / 0.5 / 1e9);
    }
}
