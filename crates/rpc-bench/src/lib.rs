//! Shared helpers for the Criterion benchmark suite and the tracked
//! round-loop baseline.
//!
//! The criterion benchmarks live in `benches/`; this library crate exposes
//! the utilities they share so the bench files stay readable and the helpers
//! themselves are unit-testable. Two modules additionally back tracked
//! baseline binaries that record the repository's perf trajectory as
//! machine-readable JSON:
//!
//! * [`round_loop`] → `round_loop_baseline` → `BENCH_round_loop.json`:
//!   protocol round loops on the packed production engine vs. the unpacked
//!   reference oracle across the topology/size matrix;
//! * [`scenario_batch`] → `batch_baseline` → `BENCH_scenario_batch.json`:
//!   Monte Carlo scenario repetitions, fresh allocation vs. per-worker
//!   arena reuse (bit-identical outcomes, asserted per repetition).

use rpc_graphs::prelude::*;

pub mod scenario_batch;

/// Standard benchmark topologies: the paper-density Erdős–Rényi graph and the
/// complete graph of the same size, generated deterministically.
pub fn benchmark_graphs(n: usize, seed: u64) -> (Graph, Graph) {
    (ErdosRenyi::paper_density(n).generate(seed), CompleteGraph::new(n).generate(seed))
}

/// The benchmark protocol keys, in reporting order: the push-pull baseline
/// plus the paper's two phase-based algorithms. Shared by both tracked
/// baselines so they can never disagree on what a "protocol" cell is.
pub const PROTOCOLS: [&str; 3] = ["push-pull", "fast-gossiping", "memory"];

/// Median of a timing sample (sorts in place; mean of the middle pair for
/// even lengths). Shared by both tracked baselines.
pub(crate) fn median(values: &mut [f64]) -> f64 {
    values.sort_by(|a, b| a.partial_cmp(b).expect("timings are finite"));
    let mid = values.len() / 2;
    if values.is_empty() {
        0.0
    } else if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// The tracked round-loop baseline: reproducible throughput measurements of
/// the push-pull round loop, packed engine vs. unpacked oracle.
pub mod round_loop {
    use std::time::Instant;

    use rpc_engine::{Engine, MessageId, Simulation, UnpackedSimulation};
    use rpc_gossip::{
        run_driver, FastGossiping, FastGossipingDriver, MemoryDriver, MemoryGossip, PushPullDriver,
    };
    use rpc_graphs::log2n;
    use rpc_graphs::prelude::*;

    /// Safety cap on rounds per run; push-pull completes in Θ(log n) on every
    /// benchmark topology, so hitting this indicates a bug.
    const MAX_ROUNDS: usize = 10_000;

    /// The benchmark topology keys, in reporting order.
    pub const TOPOLOGIES: [&str; 4] = ["er-dense", "er-sparse", "regular", "complete"];

    /// The benchmark protocol keys (the crate-level canonical list).
    pub use crate::PROTOCOLS;

    /// The protocol key of the multi-rumor streaming row: the push-pull loop
    /// over [`STREAM_RUMORS`] staggered injections (two rumors per round,
    /// sources striding the node space), run until every rumor completes.
    /// The message universe is the rumor count — decoupled from `n` — so
    /// this row exercises the word-parallel delivery path on a state layout
    /// no classic single-rumor bench reaches.
    pub const STREAM_PROTOCOL: &str = "push-pull-stream";

    /// Rumor count (and message universe) of the [`STREAM_PROTOCOL`] row.
    pub const STREAM_RUMORS: usize = 16;

    /// Runs one protocol to its natural end on any engine, with the same
    /// paper constants the scenario layer uses.
    fn run_protocol<E: Engine>(protocol: &str, sim: &mut E) {
        let n = sim.num_nodes();
        match protocol {
            "push-pull" => {
                run_driver(&mut PushPullDriver::new(MAX_ROUNDS), sim);
            }
            "fast-gossiping" => {
                run_driver(&mut FastGossipingDriver::new(FastGossiping::paper(n), n), sim);
            }
            "memory" => {
                run_driver(&mut MemoryDriver::new(MemoryGossip::paper(n)), sim);
            }
            STREAM_PROTOCOL => run_streaming(sim),
            other => panic!("unknown benchmark protocol: {other}"),
        }
    }

    /// Registers the streaming row's deterministic injection schedule (no
    /// RNG draws — the same staggered arrivals on every engine and rep) and
    /// runs push-pull until every rumor has completed (every node knows the
    /// whole rumor universe) or the safety cap.
    pub fn run_streaming<E: Engine>(sim: &mut E) {
        let n = sim.num_nodes();
        for m in 0..STREAM_RUMORS {
            sim.schedule_injection((m / 2) as u64, ((m * 97) % n) as NodeId, m as MessageId);
        }
        sim.track_message(0);
        run_driver(&mut PushPullDriver::new(MAX_ROUNDS), sim);
    }

    /// Builds the engine a protocol row runs on: streaming rows get a
    /// rumor-count universe, classic rows the single-rumor layout.
    fn packed_sim<'g>(graph: &'g Graph, seed: u64, protocol: &str) -> Simulation<'g> {
        if protocol == STREAM_PROTOCOL {
            Simulation::new_streaming(graph, seed, STREAM_RUMORS)
        } else {
            Simulation::new(graph, seed)
        }
    }

    /// [`packed_sim`]'s twin for the unpacked reference oracle.
    fn unpacked_sim<'g>(graph: &'g Graph, seed: u64, protocol: &str) -> UnpackedSimulation<'g> {
        if protocol == STREAM_PROTOCOL {
            UnpackedSimulation::new_streaming(graph, seed, STREAM_RUMORS)
        } else {
            UnpackedSimulation::new(graph, seed)
        }
    }

    /// Builds the graph behind a topology key:
    ///
    /// * `er-dense` — Erdős–Rényi with expected degree `4 log² n` (the
    ///   registry's dense working point, behaves almost like `K_n`);
    /// * `er-sparse` — Erdős–Rényi at the paper's density threshold
    ///   `p = log² n / n`;
    /// * `regular` — random regular graph with degree `≈ log² n`;
    /// * `complete` — `K_n` (quadratic adjacency: only use at moderate `n`).
    pub fn build_topology(kind: &str, n: usize, seed: u64) -> Graph {
        let log2 = log2n(n);
        let paper_degree = log2 * log2;
        match kind {
            "er-dense" => {
                let degree = (4.0 * paper_degree).min(n as f64 - 1.0);
                ErdosRenyi::with_expected_degree(n, degree).generate(seed)
            }
            "er-sparse" => ErdosRenyi::paper_density(n).generate(seed),
            "regular" => {
                let mut d = (paper_degree.round() as usize).clamp(2, n - 1);
                if n % 2 == 1 && d % 2 == 1 {
                    d += 1;
                }
                RandomRegular::new(n, d.min(n - 1)).generate(seed)
            }
            "complete" => CompleteGraph::new(n).generate(seed),
            other => panic!("unknown benchmark topology: {other}"),
        }
    }

    /// One measured configuration of the round-loop benchmark.
    #[derive(Clone, Debug, PartialEq)]
    pub struct RoundLoopMeasurement {
        /// Topology key (see [`TOPOLOGIES`]).
        pub topology: String,
        /// Protocol key (see [`PROTOCOLS`]).
        pub protocol: String,
        /// Number of nodes.
        pub n: usize,
        /// `"packed"` (production) or `"unpacked"` (reference baseline).
        pub engine: &'static str,
        /// Rounds until gossip completion (identical across engines and
        /// repetitions — both are deterministic in the seed).
        pub rounds: u64,
        /// Total packets sent over the run.
        pub total_packets: u64,
        /// Timed repetitions.
        pub reps: usize,
        /// Median wall-clock nanoseconds per round.
        pub median_ns_per_round: f64,
        /// Median delivered packet throughput (total packets / elapsed).
        pub messages_per_sec: f64,
    }

    /// Measures the packed engine's round loop on `graph`: `reps` full
    /// `protocol` runs to their natural end, reporting the median ns/round
    /// and messages/sec.
    pub fn measure_packed(
        graph: &Graph,
        topology: &str,
        protocol: &str,
        seed: u64,
        reps: usize,
    ) -> RoundLoopMeasurement {
        measure_with(topology, protocol, graph.num_nodes(), "packed", reps, || {
            let mut sim = packed_sim(graph, seed, protocol);
            let start = Instant::now();
            run_protocol(protocol, &mut sim);
            (start.elapsed(), sim.metrics().rounds(), sim.metrics().total_packets())
        })
    }

    /// Measures the unpacked reference oracle on the same workload (see
    /// `rpc_engine::reference`): the recorded baseline the packed engine is
    /// judged against.
    pub fn measure_unpacked(
        graph: &Graph,
        topology: &str,
        protocol: &str,
        seed: u64,
        reps: usize,
    ) -> RoundLoopMeasurement {
        measure_with(topology, protocol, graph.num_nodes(), "unpacked", reps, || {
            let mut sim = unpacked_sim(graph, seed, protocol);
            let start = Instant::now();
            run_protocol(protocol, &mut sim);
            (start.elapsed(), sim.metrics().rounds(), sim.metrics().total_packets())
        })
    }

    /// Measures both engines on the same workload with the repetitions
    /// *interleaved* (and the within-rep order alternating), so slow drift in
    /// the host's performance — noisy neighbours, frequency scaling, page
    /// cache state — hits both engines alike instead of biasing whichever
    /// block ran in the quiet minute. This is what the `round_loop_baseline`
    /// binary records; per-engine medians are taken over the paired samples.
    ///
    /// Returns `(unpacked, packed)`.
    pub fn measure_both(
        graph: &Graph,
        topology: &str,
        protocol: &str,
        seed: u64,
        reps: usize,
    ) -> (RoundLoopMeasurement, RoundLoopMeasurement) {
        assert!(reps > 0, "at least one repetition is required");
        let mut unpacked = Samples::new(reps);
        let mut packed = Samples::new(reps);
        for rep in 0..reps {
            // Alternate which engine goes first so within-rep drift cancels
            // across the pair sequence.
            let unpacked_first = rep % 2 == 0;
            for engine_pick in 0..2 {
                if (engine_pick == 0) == unpacked_first {
                    let mut sim = unpacked_sim(graph, seed, protocol);
                    let start = Instant::now();
                    run_protocol(protocol, &mut sim);
                    unpacked.push(start.elapsed(), &sim);
                } else {
                    let mut sim = packed_sim(graph, seed, protocol);
                    let start = Instant::now();
                    run_protocol(protocol, &mut sim);
                    packed.push(start.elapsed(), &sim);
                }
            }
        }
        (
            unpacked.finish(topology, protocol, graph.num_nodes(), "unpacked", reps),
            packed.finish(topology, protocol, graph.num_nodes(), "packed", reps),
        )
    }

    /// Per-engine timing samples of [`measure_both`] / `measure_with`.
    struct Samples {
        ns_per_round: Vec<f64>,
        msgs_per_sec: Vec<f64>,
        rounds: u64,
        total_packets: u64,
    }

    impl Samples {
        fn new(reps: usize) -> Self {
            Self {
                ns_per_round: Vec::with_capacity(reps),
                msgs_per_sec: Vec::with_capacity(reps),
                rounds: 0,
                total_packets: 0,
            }
        }

        fn push<E: Engine>(&mut self, elapsed: std::time::Duration, sim: &E) {
            self.record(elapsed, sim.metrics().rounds(), sim.metrics().total_packets());
        }

        fn record(&mut self, elapsed: std::time::Duration, r: u64, packets: u64) {
            assert!(r > 0 || packets == 0, "a run with packets must have rounds");
            self.rounds = r;
            self.total_packets = packets;
            let nanos = elapsed.as_nanos() as f64;
            self.ns_per_round.push(if r == 0 { 0.0 } else { nanos / r as f64 });
            self.msgs_per_sec.push(if nanos == 0.0 { 0.0 } else { packets as f64 / (nanos / 1e9) });
        }

        fn finish(
            mut self,
            topology: &str,
            protocol: &str,
            n: usize,
            engine: &'static str,
            reps: usize,
        ) -> RoundLoopMeasurement {
            RoundLoopMeasurement {
                topology: topology.to_string(),
                protocol: protocol.to_string(),
                n,
                engine,
                rounds: self.rounds,
                total_packets: self.total_packets,
                reps,
                median_ns_per_round: crate::median(&mut self.ns_per_round),
                messages_per_sec: crate::median(&mut self.msgs_per_sec),
            }
        }
    }

    fn measure_with(
        topology: &str,
        protocol: &str,
        n: usize,
        engine: &'static str,
        reps: usize,
        mut run: impl FnMut() -> (std::time::Duration, u64, u64),
    ) -> RoundLoopMeasurement {
        assert!(reps > 0, "at least one repetition is required");
        let mut samples = Samples::new(reps);
        for _ in 0..reps {
            let (elapsed, r, packets) = run();
            samples.record(elapsed, r, packets);
        }
        samples.finish(topology, protocol, n, engine, reps)
    }

    /// The unpacked-vs-packed round-loop speedup for one
    /// (topology, protocol, n) cell, if both engines were measured.
    pub fn speedup_at(
        results: &[RoundLoopMeasurement],
        topology: &str,
        protocol: &str,
        n: usize,
    ) -> Option<f64> {
        let find = |engine: &str| {
            results
                .iter()
                .find(|m| {
                    m.topology == topology
                        && m.protocol == protocol
                        && m.n == n
                        && m.engine == engine
                })
                .map(|m| m.median_ns_per_round)
        };
        match (find("unpacked"), find("packed")) {
            (Some(unpacked), Some(packed)) if packed > 0.0 => Some(unpacked / packed),
            _ => None,
        }
    }

    /// Renders the measurements as the `BENCH_round_loop.json` document. The
    /// format is hand-rolled (no serde in the offline build environment) but
    /// strict JSON: an object with a `results` array of flat records.
    pub fn to_json(results: &[RoundLoopMeasurement], seed: u64) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str("  \"benchmark\": \"round_loop\",\n");
        out.push_str(
            "  \"description\": \"Protocol round loops to natural termination \
             (push-pull everywhere; fast-gossiping, memory and the \
             push-pull-stream multi-rumor row — 16 staggered injections, \
             message universe decoupled from n — on the paper's er-sparse \
             working point); packed = word-parallel production engine \
             with adaptive delivery dispatch, unpacked = pre-optimization \
             reference oracle (identical results, different representation)\",\n",
        );
        out.push_str(&format!("  \"seed\": {seed},\n"));
        out.push_str(
            "  \"units\": {\"median_ns_per_round\": \"ns\", \"messages_per_sec\": \"packets/s\"},\n",
        );
        out.push_str("  \"results\": [\n");
        for (i, m) in results.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"topology\": \"{}\", \"protocol\": \"{}\", \"n\": {}, \
                 \"engine\": \"{}\", \"rounds\": {}, \
                 \"total_packets\": {}, \"reps\": {}, \"median_ns_per_round\": {:.1}, \
                 \"messages_per_sec\": {:.1}}}{}\n",
                m.topology,
                m.protocol,
                m.n,
                m.engine,
                m.rounds,
                m.total_packets,
                m.reps,
                m.median_ns_per_round,
                m.messages_per_sec,
                if i + 1 == results.len() { "" } else { "," }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::round_loop::*;

    #[test]
    fn benchmark_graphs_have_requested_size() {
        let (random, complete) = benchmark_graphs(256, 1);
        assert_eq!(random.num_nodes(), 256);
        assert_eq!(complete.num_nodes(), 256);
        assert_eq!(complete.num_edges(), 256 * 255 / 2);
    }

    #[test]
    fn every_topology_key_builds_a_graph() {
        for kind in TOPOLOGIES {
            let g = build_topology(kind, 129, 1); // odd n exercises the
                                                  // regular-degree adjustment
            assert_eq!(g.num_nodes(), 129, "{kind}");
            assert!(g.num_edges() > 0, "{kind}");
        }
        assert_eq!(build_topology("complete", 64, 0).num_edges(), 64 * 63 / 2);
    }

    #[test]
    #[should_panic(expected = "unknown benchmark topology")]
    fn unknown_topology_key_panics() {
        let _ = build_topology("torus", 64, 0);
    }

    #[test]
    fn both_engines_measure_identical_round_and_packet_counts() {
        let g = build_topology("er-sparse", 192, 5);
        let packed = measure_packed(&g, "er-sparse", "push-pull", 7, 2);
        let unpacked = measure_unpacked(&g, "er-sparse", "push-pull", 7, 2);
        assert!(packed.rounds > 0);
        assert_eq!(packed.rounds, unpacked.rounds, "engines must agree on the run");
        assert_eq!(packed.total_packets, unpacked.total_packets);
        assert!(packed.median_ns_per_round > 0.0);
        assert!(packed.messages_per_sec > 0.0);
    }

    #[test]
    fn phase_protocols_measure_on_both_engines() {
        let g = build_topology("er-sparse", 128, 5);
        for protocol in ["fast-gossiping", "memory"] {
            let (u, p) = measure_both(&g, "er-sparse", protocol, 9, 2);
            assert_eq!(u.rounds, p.rounds, "{protocol}: engines must replay the same run");
            assert_eq!(u.total_packets, p.total_packets, "{protocol}");
            assert!(u.rounds > 0, "{protocol} executed no rounds");
            assert_eq!(p.protocol, protocol);
        }
    }

    #[test]
    fn streaming_row_measures_identically_on_both_engines() {
        let g = build_topology("er-sparse", 160, 5);
        let (u, p) = measure_both(&g, "er-sparse", STREAM_PROTOCOL, 7, 2);
        assert_eq!(u.rounds, p.rounds, "engines must replay the same streaming run");
        assert_eq!(u.total_packets, p.total_packets);
        // All 16 rumors arrive two per round, so the run outlives the
        // injection window and ends by rumor completion, not the cap.
        assert!(u.rounds >= (STREAM_RUMORS / 2) as u64);
        assert!(u.rounds < 10_000);
        assert_eq!(p.protocol, STREAM_PROTOCOL);
    }

    #[test]
    fn interleaved_measurement_agrees_with_the_separate_ones() {
        let g = build_topology("er-sparse", 160, 5);
        let (u, p) = measure_both(&g, "er-sparse", "push-pull", 7, 3);
        assert_eq!(u.engine, "unpacked");
        assert_eq!(p.engine, "packed");
        assert_eq!(u.rounds, p.rounds, "both engines must replay the same run");
        assert_eq!(u.total_packets, p.total_packets);
        assert_eq!(u.reps, 3);
        assert!(u.median_ns_per_round > 0.0 && p.median_ns_per_round > 0.0);
        assert!(speedup_at(&[u, p], "er-sparse", "push-pull", 160).is_some());
    }

    #[test]
    fn json_document_is_well_formed_and_speedup_is_computed() {
        let g = build_topology("complete", 96, 3);
        let results = vec![
            measure_unpacked(&g, "complete", "push-pull", 3, 2),
            measure_packed(&g, "complete", "push-pull", 3, 2),
        ];
        let json = to_json(&results, 3);
        assert!(json.starts_with("{\n"));
        assert!(json.ends_with("}\n"));
        assert!(json.contains("\"benchmark\": \"round_loop\""));
        assert!(json.contains("\"engine\": \"packed\""));
        assert!(json.contains("\"engine\": \"unpacked\""));
        assert!(json.contains("\"protocol\": \"push-pull\""));
        assert_eq!(json.matches("\"topology\"").count(), 2);
        // Balanced braces/brackets (a cheap structural sanity check since the
        // offline environment has no JSON parser).
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert!(speedup_at(&results, "complete", "push-pull", 96).unwrap() > 0.0);
        assert_eq!(speedup_at(&results, "er-dense", "push-pull", 96), None);
        assert_eq!(speedup_at(&results, "complete", "memory", 96), None);
    }
}
