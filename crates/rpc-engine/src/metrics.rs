//! Communication accounting.
//!
//! The paper follows the counting convention of Berenbrink et al. (ICALP'10):
//! a packet sent through an open channel counts once, no matter how many
//! original messages it combines, and opening a channel is itself a countable
//! event. Section 5 plots the *average number of messages sent per node* and
//! notes that for the simple Push-Pull algorithm this equals the number of
//! rounds — i.e. a bidirectional exchange over one channel is charged once to
//! the node that opened the channel. Both conventions are provided here.

/// How "messages sent per node" is computed from the raw packet counters.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Accounting {
    /// Every push packet and every pull packet counts 1 for its sender.
    PerPacket,
    /// A (possibly bidirectional) exchange over a single open channel counts 1,
    /// charged to the node that opened the channel. This reproduces the
    /// paper's "messages per node = rounds" identity for Push-Pull and is the
    /// default for Figure 1.
    #[default]
    PerChannelExchange,
}

/// Snapshot of the aggregate counters at a phase boundary.
#[derive(Clone, Debug, PartialEq)]
pub struct PhaseSnapshot {
    /// Phase label supplied by the algorithm (e.g. `"phase1-distribution"`).
    pub label: String,
    /// Round count at the end of the phase.
    pub rounds: u64,
    /// Total packets sent by the end of the phase.
    pub packets: u64,
    /// Total channel exchanges by the end of the phase.
    pub exchanges: u64,
    /// Total channels opened by the end of the phase.
    pub channels_opened: u64,
}

use rpc_graphs::NodeId;
use rpc_obs::{CoreRounds, DispatchRecord};

use crate::seeding::{DrawLedger, NodeDraws};

/// Per-run communication metrics, and the run's draw cursors.
///
/// The cursors live here, next to the round counter that keys them, so
/// that every draw — the engines' partner and loss draws and the protocol
/// drivers' coins — goes through one set of cursors reachable from any
/// [`crate::Engine`], wrappers included, through [`crate::Engine::metrics_mut`]
/// (see [`crate::seeding`] for the draw contract).
#[derive(Clone, Debug, Default)]
pub struct Metrics {
    rounds: u64,
    channels_opened: u64,
    total_packets: u64,
    total_exchanges: u64,
    packets_per_node: Vec<u64>,
    exchanges_per_node: Vec<u64>,
    phases: Vec<PhaseSnapshot>,
    core_rounds: CoreRounds,
    last_dispatch: Option<DispatchRecord>,
    draws: DrawLedger,
}

impl Metrics {
    /// Creates metrics for a network of `n` nodes, with draws keyed by
    /// engine seed 0.
    pub fn new(n: usize) -> Self {
        Self::seeded(n, 0)
    }

    /// Creates metrics for a network of `n` nodes whose draws are keyed by
    /// the engine seed `seed`.
    pub fn seeded(n: usize, seed: u64) -> Self {
        Self {
            packets_per_node: vec![0; n],
            exchanges_per_node: vec![0; n],
            draws: DrawLedger::new(seed, n),
            ..Self::default()
        }
    }

    /// Number of nodes this metric tracks.
    pub fn num_nodes(&self) -> usize {
        self.packets_per_node.len()
    }

    /// Resets every counter for a fresh run over `n` nodes with engine seed
    /// `seed`, reusing the per-node allocations — equivalent to
    /// `*self = Metrics::seeded(n, seed)`.
    pub fn reset(&mut self, n: usize, seed: u64) {
        self.rounds = 0;
        self.channels_opened = 0;
        self.total_packets = 0;
        self.total_exchanges = 0;
        self.packets_per_node.clear();
        self.packets_per_node.resize(n, 0);
        self.exchanges_per_node.clear();
        self.exchanges_per_node.resize(n, 0);
        self.phases.clear();
        self.core_rounds = CoreRounds::default();
        self.last_dispatch = None;
        self.draws.reset(seed, n);
    }

    /// Node `v`'s draw stream in the current round, positioned after its
    /// earlier draws in this round.
    #[inline]
    pub fn node_draws(&mut self, v: NodeId) -> &mut NodeDraws {
        self.draws.node(v, self.rounds)
    }

    /// The global draw stream ([`crate::seeding::GLOBAL_DRAWS`]) in the
    /// current round.
    pub fn global_draws(&mut self) -> &mut NodeDraws {
        self.draws.global(self.rounds)
    }

    /// Marks the end of one synchronous step/round.
    pub fn finish_round(&mut self) {
        self.rounds += 1;
    }

    /// Adds `k` rounds at once (used when a phase's length is known upfront).
    pub fn add_rounds(&mut self, k: u64) {
        self.rounds += k;
    }

    /// Records that `v` opened a communication channel.
    pub fn record_channel_open(&mut self, v: u32) {
        debug_assert!((v as usize) < self.packets_per_node.len());
        self.channels_opened += 1;
        let _ = v;
    }

    /// Records a packet (push or pull) sent by `sender`.
    pub fn record_packet(&mut self, sender: u32) {
        self.total_packets += 1;
        self.packets_per_node[sender as usize] += 1;
    }

    /// Records one channel exchange charged to the channel `opener`.
    pub fn record_exchange(&mut self, opener: u32) {
        self.total_exchanges += 1;
        self.exchanges_per_node[opener as usize] += 1;
    }

    /// Stores a snapshot of the cumulative counters under `label`.
    pub fn mark_phase(&mut self, label: impl Into<String>) {
        self.phases.push(PhaseSnapshot {
            label: label.into(),
            rounds: self.rounds,
            packets: self.total_packets,
            exchanges: self.total_exchanges,
            channels_opened: self.channels_opened,
        });
    }

    /// Phase snapshots in the order they were recorded.
    pub fn phases(&self) -> &[PhaseSnapshot] {
        &self.phases
    }

    /// Number of completed rounds.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// Total number of opened channels.
    pub fn channels_opened(&self) -> u64 {
        self.channels_opened
    }

    /// Total packets sent (push + pull).
    pub fn total_packets(&self) -> u64 {
        self.total_packets
    }

    /// Total channel exchanges.
    pub fn total_exchanges(&self) -> u64 {
        self.total_exchanges
    }

    /// Total transmissions under the given accounting convention.
    pub fn total_transmissions(&self, accounting: Accounting) -> u64 {
        match accounting {
            Accounting::PerPacket => self.total_packets,
            Accounting::PerChannelExchange => self.total_exchanges,
        }
    }

    /// Average number of messages sent per node under the given accounting —
    /// the y-axis of Figure 1.
    pub fn messages_per_node(&self, accounting: Accounting) -> f64 {
        let n = self.packets_per_node.len();
        if n == 0 {
            return 0.0;
        }
        self.total_transmissions(accounting) as f64 / n as f64
    }

    /// Maximum number of packets sent by any single node.
    pub fn max_packets_per_node(&self) -> u64 {
        self.packets_per_node.iter().copied().max().unwrap_or(0)
    }

    /// Per-node packet counts (for distribution plots / tests).
    pub fn packets_per_node(&self) -> &[u64] {
        &self.packets_per_node
    }

    /// Per-node exchange counts.
    pub fn exchanges_per_node(&self) -> &[u64] {
        &self.exchanges_per_node
    }

    /// Records one adaptive-dispatch decision (delivery core + inputs).
    ///
    /// Diagnostics only: the chosen core depends on the configured thread
    /// count, so these counters are deliberately kept out of the result
    /// equality the scenario layer checks across thread counts.
    pub fn record_dispatch(&mut self, record: DispatchRecord) {
        self.core_rounds.record(record.core);
        self.last_dispatch = Some(record);
    }

    /// How many deferred-delivery batches each core executed this run.
    pub fn core_rounds(&self) -> CoreRounds {
        self.core_rounds
    }

    /// The most recent dispatch decision, if any delivery has happened.
    pub fn last_dispatch(&self) -> Option<DispatchRecord> {
        self.last_dispatch
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packet_and_exchange_accounting_are_independent() {
        let mut m = Metrics::new(4);
        m.record_channel_open(0);
        m.record_packet(0);
        m.record_packet(1);
        m.record_exchange(0);
        assert_eq!(m.total_transmissions(Accounting::PerPacket), 2);
        assert_eq!(m.total_transmissions(Accounting::PerChannelExchange), 1);
        assert_eq!(m.channels_opened(), 1);
        assert_eq!(m.messages_per_node(Accounting::PerPacket), 0.5);
        assert_eq!(m.messages_per_node(Accounting::PerChannelExchange), 0.25);
    }

    #[test]
    fn rounds_accumulate() {
        let mut m = Metrics::new(1);
        m.finish_round();
        m.finish_round();
        m.add_rounds(3);
        assert_eq!(m.rounds(), 5);
    }

    #[test]
    fn per_node_counters_track_senders() {
        let mut m = Metrics::new(3);
        m.record_packet(2);
        m.record_packet(2);
        m.record_packet(0);
        assert_eq!(m.packets_per_node(), &[1, 0, 2]);
        assert_eq!(m.max_packets_per_node(), 2);
    }

    #[test]
    fn phase_snapshots_capture_cumulative_state() {
        let mut m = Metrics::new(2);
        m.record_packet(0);
        m.finish_round();
        m.mark_phase("phase1");
        m.record_packet(1);
        m.record_exchange(1);
        m.finish_round();
        m.mark_phase("phase2");
        let phases = m.phases();
        assert_eq!(phases.len(), 2);
        assert_eq!(phases[0].label, "phase1");
        assert_eq!(phases[0].packets, 1);
        assert_eq!(phases[0].rounds, 1);
        assert_eq!(phases[1].packets, 2);
        assert_eq!(phases[1].exchanges, 1);
        assert_eq!(phases[1].rounds, 2);
    }

    #[test]
    fn empty_metrics_yield_zero_averages() {
        let m = Metrics::new(0);
        assert_eq!(m.messages_per_node(Accounting::PerPacket), 0.0);
    }

    #[test]
    fn dispatch_records_accumulate_and_reset() {
        use rpc_obs::DeliveryCore;
        let mut m = Metrics::new(4);
        let record = DispatchRecord {
            core: DeliveryCore::Eager,
            n: 4,
            packets: 9,
            sparse: false,
            cache_resident: false,
            threads: 1,
        };
        m.record_dispatch(record);
        m.record_dispatch(DispatchRecord { core: DeliveryCore::Scalar, ..record });
        assert_eq!(m.core_rounds(), CoreRounds { scalar: 1, eager: 1, batch: 0 });
        assert_eq!(m.last_dispatch().unwrap().core, DeliveryCore::Scalar);
        m.reset(4, 0);
        assert_eq!(m.core_rounds(), CoreRounds::default());
        assert!(m.last_dispatch().is_none());
    }
}
