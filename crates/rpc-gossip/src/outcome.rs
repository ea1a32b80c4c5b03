//! The accounting summary of one gossiping run.

use rpc_engine::{Accounting, Engine, Metrics, PhaseSnapshot};

/// The outcome of one gossiping run: completion status plus the full
/// communication accounting.
#[derive(Clone, Debug)]
pub struct GossipOutcome {
    n: usize,
    completed: bool,
    rounds: u64,
    total_packets: u64,
    total_exchanges: u64,
    channels_opened: u64,
    max_packets_per_node: u64,
    fully_informed: usize,
    lost_messages: usize,
    failed_nodes: usize,
    phases: Vec<PhaseSnapshot>,
}

impl GossipOutcome {
    /// Builds an outcome from the engine metrics plus algorithm-level facts.
    pub fn from_metrics(
        metrics: &Metrics,
        completed: bool,
        fully_informed: usize,
        lost_messages: usize,
        failed_nodes: usize,
    ) -> Self {
        Self {
            n: metrics.num_nodes(),
            completed,
            rounds: metrics.rounds(),
            total_packets: metrics.total_packets(),
            total_exchanges: metrics.total_exchanges(),
            channels_opened: metrics.channels_opened(),
            max_packets_per_node: metrics.max_packets_per_node(),
            fully_informed,
            lost_messages,
            failed_nodes,
            phases: metrics.phases().to_vec(),
        }
    }

    /// The outcome of a failure-free run that has ended on `sim`: gossip
    /// completion, fully informed nodes and the engine's metrics, no losses.
    /// Read this after [`crate::run_driver`] returns.
    pub fn from_engine<E: Engine>(sim: &E) -> Self {
        Self::from_metrics(sim.metrics(), sim.gossip_complete(), sim.fully_informed_count(), 0, 0)
    }

    /// Number of nodes in the network.
    pub fn num_nodes(&self) -> usize {
        self.n
    }

    /// Whether every alive node learned every original message (or, for
    /// failure runs, whether the algorithm's success criterion was met).
    pub fn completed(&self) -> bool {
        self.completed
    }

    /// Number of synchronous steps executed.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// Total packets sent (per-packet accounting).
    pub fn total_packets(&self) -> u64 {
        self.total_packets
    }

    /// Total channel exchanges (per-channel-exchange accounting).
    pub fn total_exchanges(&self) -> u64 {
        self.total_exchanges
    }

    /// Total channels opened.
    pub fn channels_opened(&self) -> u64 {
        self.channels_opened
    }

    /// Largest number of packets sent by any single node.
    pub fn max_packets_per_node(&self) -> u64 {
        self.max_packets_per_node
    }

    /// Number of nodes that know all original messages at the end.
    pub fn fully_informed(&self) -> usize {
        self.fully_informed
    }

    /// Number of healthy nodes whose original message was lost (only
    /// meaningful for failure runs; 0 otherwise).
    pub fn lost_messages(&self) -> usize {
        self.lost_messages
    }

    /// Number of failed nodes in this run.
    pub fn failed_nodes(&self) -> usize {
        self.failed_nodes
    }

    /// Total transmissions under the chosen accounting convention.
    pub fn total_transmissions(&self, accounting: Accounting) -> u64 {
        match accounting {
            Accounting::PerPacket => self.total_packets,
            Accounting::PerChannelExchange => self.total_exchanges,
        }
    }

    /// Average messages sent per node — the y-axis of Figure 1.
    pub fn messages_per_node(&self, accounting: Accounting) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.total_transmissions(accounting) as f64 / self.n as f64
        }
    }

    /// Phase-by-phase snapshots of the cumulative counters.
    pub fn phases(&self) -> &[PhaseSnapshot] {
        &self.phases
    }

    /// Packets sent during the phase with the given label (difference between
    /// this phase's snapshot and the previous one). `None` if no such phase.
    pub fn packets_in_phase(&self, label: &str) -> Option<u64> {
        let idx = self.phases.iter().position(|p| p.label == label)?;
        let prev = if idx == 0 { 0 } else { self.phases[idx - 1].packets };
        Some(self.phases[idx].packets - prev)
    }

    /// The ratio `lost_messages / failed_nodes` plotted on the y-axis of
    /// Figures 2 and 3. `None` when no node failed.
    pub fn additional_loss_ratio(&self) -> Option<f64> {
        if self.failed_nodes == 0 {
            None
        } else {
            Some(self.lost_messages as f64 / self.failed_nodes as f64)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_metrics() -> Metrics {
        let mut m = Metrics::new(4);
        for _ in 0..3 {
            m.finish_round();
        }
        m.record_channel_open(0);
        m.record_packet(0);
        m.record_packet(0);
        m.record_packet(1);
        m.record_exchange(0);
        m.mark_phase("phase1");
        m.record_packet(2);
        m.mark_phase("phase2");
        m
    }

    #[test]
    fn outcome_mirrors_metrics() {
        let o = GossipOutcome::from_metrics(&sample_metrics(), true, 4, 0, 0);
        assert_eq!(o.num_nodes(), 4);
        assert!(o.completed());
        assert_eq!(o.rounds(), 3);
        assert_eq!(o.total_packets(), 4);
        assert_eq!(o.total_exchanges(), 1);
        assert_eq!(o.channels_opened(), 1);
        assert_eq!(o.max_packets_per_node(), 2);
        assert_eq!(o.fully_informed(), 4);
        assert_eq!(o.messages_per_node(Accounting::PerPacket), 1.0);
        assert_eq!(o.messages_per_node(Accounting::PerChannelExchange), 0.25);
    }

    #[test]
    fn phase_deltas() {
        let o = GossipOutcome::from_metrics(&sample_metrics(), true, 4, 0, 0);
        assert_eq!(o.packets_in_phase("phase1"), Some(3));
        assert_eq!(o.packets_in_phase("phase2"), Some(1));
        assert_eq!(o.packets_in_phase("nope"), None);
    }

    #[test]
    fn loss_ratio_only_defined_with_failures() {
        let m = Metrics::new(10);
        let healthy = GossipOutcome::from_metrics(&m, true, 10, 0, 0);
        assert_eq!(healthy.additional_loss_ratio(), None);
        let failed = GossipOutcome::from_metrics(&m, false, 0, 6, 3);
        assert_eq!(failed.additional_loss_ratio(), Some(2.0));
        assert_eq!(failed.lost_messages(), 6);
        assert_eq!(failed.failed_nodes(), 3);
    }
}
