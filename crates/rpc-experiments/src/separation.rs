//! The broadcast-vs-gossip density contrast that motivates the paper.
//!
//! Karp et al.'s push-pull broadcasting needs only `O(n log log n)`
//! transmissions in complete graphs, but this cannot be achieved in sparse
//! random graphs (Elsässer, SPAA'06) — broadcasting *is* sensitive to density.
//! The paper's main message is that gossiping is *not*: fast-gossiping matches
//! its complete-graph message complexity on `G(n, p)` with
//! `p ≥ log^{2+ε} n / n`.
//!
//! This experiment measures both, per topology, so the contrast can be read
//! off one table: asymptotically the broadcast ratio (random / complete)
//! grows with `n`, while the gossiping ratio stays near 1. The broadcast
//! separation is an asymptotic statement; up to n = 8192 both ratios stay
//! within about 10 % of 1, and the JSON report's per-cell CIs say how far a
//! given run resolves them.
//!
//! The sweep is a grid `n × topology × protocol`. The broadcast cells run
//! push-pull broadcasting of one rumor injected at node 0 in round 0 (the
//! registry's `broadcast-push-pull` workload) until it has reached every
//! node; the gossip cells run fast-gossiping to completion. The adaptive CI
//! stop watches `packets_per_node`, which is the per-node overhead compared
//! in the table.

use std::collections::BTreeMap;

use rpc_scenarios::{
    CellJob, InjectionEntry, ProtocolSpec, RepPolicy, Scenario, StopRule, SweepReport, SweepSpec,
    TopologySpec,
};

use crate::report::{fmt3, Table};

/// The two topology axis values: `K_n` and `G(n, log² n / n)`.
pub const TOPOLOGIES: [&str; 2] = ["complete", "er-paper"];

/// The two protocol axis values: broadcasting and gossiping.
pub const PROTOCOLS: [&str; 2] = ["broadcast-push-pull", "fast-gossiping"];

/// The separation sweep: every size on both topologies with both protocols.
pub fn spec(sizes: &[usize], seed: u64, policy: RepPolicy) -> SweepSpec {
    SweepSpec::grid("separation", seed, policy)
        .axis("n", sizes.iter().copied())
        .axis("topology", TOPOLOGIES)
        .axis("protocol", PROTOCOLS)
        .cells(|point| {
            let n: usize = point.parse("n");
            let topology = match point.get("topology") {
                "complete" => TopologySpec::Complete { n },
                _ => TopologySpec::ErdosRenyiPaper { n },
            };
            let builder = Scenario::builder("separation", topology);
            let builder = match point.get("protocol") {
                "broadcast-push-pull" => builder
                    .protocol(ProtocolSpec::BroadcastPushPull)
                    .inject_explicit(vec![InjectionEntry { round: 0, source: 0 }])
                    .stop(StopRule::AllRumors),
                _ => builder.protocol(ProtocolSpec::FastGossiping),
            };
            Some(CellJob::scenario(builder.build().expect("separation scenario is valid")))
        })
        .expect("separation grid is well-formed")
}

/// One measured point of the separation experiment.
#[derive(Clone, Debug)]
pub struct SeparationPoint {
    /// Graph size.
    pub n: usize,
    /// Push-pull broadcast: transmissions per node on the complete graph.
    pub broadcast_complete: f64,
    /// Push-pull broadcast: transmissions per node on `G(n, log² n / n)`.
    pub broadcast_random: f64,
    /// Fast-gossiping: packets per node on the complete graph.
    pub gossip_complete: f64,
    /// Fast-gossiping: packets per node on `G(n, log² n / n)`.
    pub gossip_random: f64,
}

impl SeparationPoint {
    /// Random/complete overhead ratio for broadcasting.
    pub fn broadcast_ratio(&self) -> f64 {
        self.broadcast_random / self.broadcast_complete
    }

    /// Random/complete overhead ratio for gossiping.
    pub fn gossip_ratio(&self) -> f64 {
        self.gossip_random / self.gossip_complete
    }
}

/// Folds the sweep report into one point per size, in size order.
pub fn points(report: &SweepReport) -> Vec<SeparationPoint> {
    // Per size: broadcast on K_n, broadcast on G(n, p), gossip on K_n, gossip
    // on G(n, p).
    let mut overheads: BTreeMap<usize, [f64; 4]> = BTreeMap::new();
    for cell in &report.cells {
        let n: usize =
            cell.axis("n").and_then(|v| v.parse().ok()).expect("separation cells carry `n`");
        let slot = match (cell.axis("protocol"), cell.axis("topology")) {
            (Some("broadcast-push-pull"), Some("complete")) => 0,
            (Some("broadcast-push-pull"), _) => 1,
            (_, Some("complete")) => 2,
            _ => 3,
        };
        overheads.entry(n).or_default()[slot] = cell.mean("packets_per_node").unwrap_or(0.0);
    }
    overheads
        .into_iter()
        .map(|(n, [broadcast_complete, broadcast_random, gossip_complete, gossip_random])| {
            SeparationPoint {
                n,
                broadcast_complete,
                broadcast_random,
                gossip_complete,
                gossip_random,
            }
        })
        .collect()
}

/// Renders the separation sweep as one row per size.
pub fn table(report: &SweepReport) -> Table {
    let mut table = Table::new(
        "Broadcast vs gossip — per-node overhead on complete vs random graphs",
        &[
            "n",
            "broadcast_complete",
            "broadcast_random",
            "broadcast_ratio",
            "gossip_complete",
            "gossip_random",
            "gossip_ratio",
        ],
    );
    for p in points(report) {
        table.push_row(vec![
            p.n.to_string(),
            fmt3(p.broadcast_complete),
            fmt3(p.broadcast_random),
            fmt3(p.broadcast_ratio()),
            fmt3(p.gossip_complete),
            fmt3(p.gossip_random),
            fmt3(p.gossip_ratio()),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpc_scenarios::SweepRunner;

    #[test]
    fn gossip_ratio_is_close_to_one() {
        let report = SweepRunner::new().run(&spec(&[512], 4, RepPolicy::fixed(1)));
        assert_eq!(report.cells.len(), 4);
        assert!(report.cells.iter().all(|c| c.mean("completed") == Some(1.0)));
        let points = points(&report);
        assert_eq!(points.len(), 1);
        let p = &points[0];
        assert!(
            (0.5..=2.0).contains(&p.gossip_ratio()),
            "gossiping should not separate by density, ratio {:.2}",
            p.gossip_ratio()
        );
        assert!(p.broadcast_complete > 0.0 && p.broadcast_random > 0.0);
        assert_eq!(table(&report).len(), 1);
    }
}
