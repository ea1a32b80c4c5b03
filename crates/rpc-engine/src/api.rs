//! The [`Engine`] trait: the simulation-primitive API algorithms drive.
//!
//! Every gossiping protocol in this repository interacts with the simulation
//! exclusively through the methods below — open a channel, deliver a batch of
//! transfers, absorb a message set, query liveness and completion. Capturing
//! that surface as a trait lets the same protocol code run on two engines:
//!
//! * [`crate::Simulation`] — the packed, word-parallel production engine
//!   ([`crate::bitset::BitSet`] masks, sparse deltas, allocation-free rounds);
//! * [`crate::reference::UnpackedSimulation`] — the straightforward
//!   `Vec<bool>`-and-scans oracle with the *same draws*, kept as the
//!   correctness reference and benchmark baseline.
//!
//! Both engines key every draw by `(seed, node, round, j)` through the
//! [`Metrics`] draw ledger (see [`crate::seeding`]), so a protocol driven on
//! both with the same graph and seed must produce bit-identical traces; the
//! `rpc-scenarios` property tests assert exactly that.

use rand::rngs::SmallRng;

use rpc_graphs::{Graph, NodeId};

use crate::message::{MessageId, MessageSet};
use crate::metrics::Metrics;
use crate::seeding::NodeDraws;
use crate::sim::Transfer;

/// The simulation primitives a gossiping algorithm needs — implemented by the
/// packed [`crate::Simulation`] and the unpacked
/// [`crate::reference::UnpackedSimulation`] oracle.
///
/// See the [module docs](self) for the bit-identical-traces contract.
pub trait Engine {
    /// The underlying graph.
    fn graph(&self) -> &Graph;

    /// Number of nodes.
    fn num_nodes(&self) -> usize;

    /// Size of the message universe the node states range over — equal to
    /// [`Engine::num_nodes`] in the classic gossiping configuration,
    /// decoupled from it on streaming simulations.
    fn universe(&self) -> usize;

    /// Opens a channel from `v` to a uniformly random (present) neighbour.
    fn open_channel(&mut self, v: NodeId) -> Option<NodeId>;

    /// Opens a channel from `v` to a uniformly random (present) neighbour
    /// outside `avoid`.
    fn open_channel_avoiding(&mut self, v: NodeId, avoid: &[NodeId]) -> Option<NodeId>;

    /// Applies one synchronous step's packet transfers; returns the number of
    /// newly learned (node, message) pairs.
    fn deliver(&mut self, transfers: &[Transfer]) -> usize;

    /// Merges `set` into node `v`'s combined message without packet
    /// accounting; returns how many messages were new.
    fn absorb(&mut self, v: NodeId, set: &MessageSet) -> usize;

    /// Current combined message of node `v`.
    fn state(&self, v: NodeId) -> &MessageSet;

    /// Whether node `v` knows original message `m`.
    fn knows(&self, v: NodeId, m: MessageId) -> bool;

    /// Whether node `v` is alive (has not crashed).
    fn is_alive(&self, v: NodeId) -> bool;

    /// Whether node `v` is present (has not churned out).
    fn is_present(&self, v: NodeId) -> bool;

    /// Whether node `v` is alive and present.
    fn is_participating(&self, v: NodeId) -> bool {
        self.is_alive(v) && self.is_present(v)
    }

    /// Number of alive nodes.
    fn alive_count(&self) -> usize;

    /// Number of present nodes.
    fn present_count(&self) -> usize;

    /// Number of alive-and-present nodes.
    fn participating_count(&self) -> usize;

    /// Number of alive-and-present nodes that are fully informed.
    fn participating_informed_count(&self) -> usize;

    /// Whether node `v` knows all `n` original messages.
    fn is_fully_informed(&self, v: NodeId) -> bool;

    /// Number of nodes (alive or failed) that know all original messages.
    fn fully_informed_count(&self) -> usize;

    /// Whether every participating node knows every original message.
    fn gossip_complete(&self) -> bool;

    /// Number of nodes that know original message `m` (diagnostic scan).
    fn informed_count_of(&self, m: MessageId) -> usize;

    /// Starts tracking original message `m` for cheap coverage queries.
    fn track_message(&mut self, m: MessageId);

    /// Number of nodes that know the tracked rumor. Panics if
    /// [`Engine::track_message`] was never called.
    fn tracked_informed_count(&self) -> usize;

    /// Injects rumor `m` at node `source` immediately; returns whether the
    /// node newly learned it. Draws nothing — callers sample sources and
    /// timing from their own stream, which keeps both engines in draw
    /// lockstep. A TTL-expired rumor is never re-injected.
    fn inject_rumor(&mut self, source: NodeId, m: MessageId) -> bool;

    /// Expires rumor `m`, removing it from every node's combined message;
    /// an expired rumor can never reappear.
    fn expire_rumor(&mut self, m: MessageId);

    /// Schedules rumor `m` to be injected at node `source` at the start of
    /// round `round`.
    fn schedule_injection(&mut self, round: u64, source: NodeId, m: MessageId);

    /// Schedules rumor `m` to expire at the start of round `round`.
    fn schedule_expiry(&mut self, round: u64, m: MessageId);

    /// Number of nodes whose combined message contains rumor `m` (the
    /// paper's `|I_m(t)|`, per rumor).
    fn rumor_informed_count(&self, m: MessageId) -> usize;

    /// Whether rumor `m` has been injected. In the classic configuration
    /// every original message is present from round 0, so this is `true`.
    fn rumor_injected(&self, m: MessageId) -> bool;

    /// Whether rumor `m` has expired (its TTL ran out).
    fn rumor_expired(&self, m: MessageId) -> bool;

    /// Whether every participating node knows rumor `m` — the per-rumor
    /// completion condition. A rumor that was never injected is not
    /// complete. Default O(n) scan with early exit, identical on both
    /// engines by construction.
    fn rumor_complete(&self, m: MessageId) -> bool {
        self.rumor_injected(m)
            && (0..self.num_nodes() as NodeId)
                .all(|v| !self.is_participating(v) || self.knows(v, m))
    }

    /// Crashes the given nodes immediately (paper failure model).
    fn fail_nodes(&mut self, nodes: &[NodeId]);

    /// Churns the given nodes out immediately.
    fn kill_nodes(&mut self, nodes: &[NodeId]);

    /// Brings previously departed nodes back immediately.
    fn revive_nodes(&mut self, nodes: &[NodeId]);

    /// Schedules a churn-out at the start of round `round`.
    fn schedule_kill(&mut self, round: u64, nodes: Vec<NodeId>);

    /// Schedules a rejoin at the start of round `round`.
    fn schedule_revive(&mut self, round: u64, nodes: Vec<NodeId>);

    /// Schedules a crash at the start of round `round`.
    fn schedule_crash(&mut self, round: u64, nodes: Vec<NodeId>);

    /// Schedules an edge-churn wave at the start of round `round`: the given
    /// CSR edge slots go down, replacing any previously down set.
    fn schedule_edge_outage(&mut self, round: u64, slots: Vec<NodeId>);

    /// Applies every scheduled liveness/injection event due at the current
    /// round immediately. Scheduled events are normally applied lazily from
    /// the engine primitives (`open_channel`, `deliver`); drivers that gate
    /// per-node work on liveness or informedness *before* calling a
    /// primitive invoke this at the top of each step so round-boundary
    /// events (crash bursts, rumor injections) are visible to those checks.
    /// Idempotent within a round; never draws randomness.
    fn apply_due_events(&mut self);

    /// Marks the given nodes Byzantine: they open channels and receive
    /// normally but silently drop every packet they should send.
    fn set_byzantine(&mut self, nodes: &[NodeId]);

    /// Whether node `v` is Byzantine.
    fn is_byzantine(&self, v: NodeId) -> bool;

    /// Number of Byzantine nodes.
    fn byzantine_count(&self) -> usize;

    /// Sets the per-packet loss probability (`p ∈ [0, 1)`).
    fn set_loss_probability(&mut self, p: f64);

    /// Communication metrics collected so far.
    fn metrics(&self) -> &Metrics;

    /// Mutable access to the metrics (exchange accounting, phase markers,
    /// round counting).
    fn metrics_mut(&mut self) -> &mut Metrics;

    /// Node `v`'s draw stream in the current round, positioned after its
    /// earlier draws in this round — the source of per-node coins (see
    /// [`crate::seeding`] for the draw contract).
    fn node_draws(&mut self, v: NodeId) -> &mut NodeDraws {
        self.metrics_mut().node_draws(v)
    }

    /// The global draw stream in the current round, for draws that belong
    /// to no node (the memory model's leader and failure sample).
    fn global_draws(&mut self) -> &mut NodeDraws {
        self.metrics_mut().global_draws()
    }

    /// Engines no longer hold a shared random stream: every draw is keyed
    /// by node and round ([`Engine::node_draws`], [`Engine::global_draws`]).
    /// This method survives only so that wrappers written against the
    /// earlier trait, which forward it, still compile. No engine implements
    /// it, and calling it panics.
    fn rng_mut(&mut self) -> &mut SmallRng {
        panic!(
            "engines draw from node-keyed streams; use Engine::node_draws or Engine::global_draws"
        )
    }
}

impl Engine for crate::sim::Simulation<'_> {
    fn graph(&self) -> &Graph {
        Self::graph(self)
    }
    fn num_nodes(&self) -> usize {
        Self::num_nodes(self)
    }
    fn universe(&self) -> usize {
        Self::universe(self)
    }
    fn open_channel(&mut self, v: NodeId) -> Option<NodeId> {
        Self::open_channel(self, v)
    }
    fn open_channel_avoiding(&mut self, v: NodeId, avoid: &[NodeId]) -> Option<NodeId> {
        Self::open_channel_avoiding(self, v, avoid)
    }
    fn deliver(&mut self, transfers: &[Transfer]) -> usize {
        Self::deliver(self, transfers)
    }
    fn absorb(&mut self, v: NodeId, set: &MessageSet) -> usize {
        Self::absorb(self, v, set)
    }
    fn state(&self, v: NodeId) -> &MessageSet {
        Self::state(self, v)
    }
    fn knows(&self, v: NodeId, m: MessageId) -> bool {
        Self::knows(self, v, m)
    }
    fn is_alive(&self, v: NodeId) -> bool {
        Self::is_alive(self, v)
    }
    fn is_present(&self, v: NodeId) -> bool {
        Self::is_present(self, v)
    }
    fn is_participating(&self, v: NodeId) -> bool {
        Self::is_participating(self, v)
    }
    fn alive_count(&self) -> usize {
        Self::alive_count(self)
    }
    fn present_count(&self) -> usize {
        Self::present_count(self)
    }
    fn participating_count(&self) -> usize {
        Self::participating_count(self)
    }
    fn participating_informed_count(&self) -> usize {
        Self::participating_informed_count(self)
    }
    fn is_fully_informed(&self, v: NodeId) -> bool {
        Self::is_fully_informed(self, v)
    }
    fn fully_informed_count(&self) -> usize {
        Self::fully_informed_count(self)
    }
    fn gossip_complete(&self) -> bool {
        Self::gossip_complete(self)
    }
    fn informed_count_of(&self, m: MessageId) -> usize {
        Self::informed_count_of(self, m)
    }
    fn track_message(&mut self, m: MessageId) {
        Self::track_message(self, m)
    }
    fn tracked_informed_count(&self) -> usize {
        Self::tracked_informed_count(self)
    }
    fn inject_rumor(&mut self, source: NodeId, m: MessageId) -> bool {
        Self::inject_rumor(self, source, m)
    }
    fn expire_rumor(&mut self, m: MessageId) {
        Self::expire_rumor(self, m)
    }
    fn schedule_injection(&mut self, round: u64, source: NodeId, m: MessageId) {
        Self::schedule_injection(self, round, source, m)
    }
    fn schedule_expiry(&mut self, round: u64, m: MessageId) {
        Self::schedule_expiry(self, round, m)
    }
    fn rumor_informed_count(&self, m: MessageId) -> usize {
        Self::rumor_informed_count(self, m)
    }
    fn rumor_injected(&self, m: MessageId) -> bool {
        Self::rumor_injected(self, m)
    }
    fn rumor_expired(&self, m: MessageId) -> bool {
        Self::rumor_expired(self, m)
    }
    fn fail_nodes(&mut self, nodes: &[NodeId]) {
        Self::fail_nodes(self, nodes)
    }
    fn kill_nodes(&mut self, nodes: &[NodeId]) {
        Self::kill_nodes(self, nodes)
    }
    fn revive_nodes(&mut self, nodes: &[NodeId]) {
        Self::revive_nodes(self, nodes)
    }
    fn schedule_kill(&mut self, round: u64, nodes: Vec<NodeId>) {
        Self::schedule_kill(self, round, nodes)
    }
    fn schedule_revive(&mut self, round: u64, nodes: Vec<NodeId>) {
        Self::schedule_revive(self, round, nodes)
    }
    fn schedule_crash(&mut self, round: u64, nodes: Vec<NodeId>) {
        Self::schedule_crash(self, round, nodes)
    }
    fn schedule_edge_outage(&mut self, round: u64, slots: Vec<NodeId>) {
        Self::schedule_edge_outage(self, round, slots)
    }
    fn apply_due_events(&mut self) {
        Self::apply_due_events(self)
    }
    fn set_byzantine(&mut self, nodes: &[NodeId]) {
        Self::set_byzantine(self, nodes)
    }
    fn is_byzantine(&self, v: NodeId) -> bool {
        Self::is_byzantine(self, v)
    }
    fn byzantine_count(&self) -> usize {
        Self::byzantine_count(self)
    }
    fn set_loss_probability(&mut self, p: f64) {
        Self::set_loss_probability(self, p)
    }
    fn metrics(&self) -> &Metrics {
        Self::metrics(self)
    }
    fn metrics_mut(&mut self) -> &mut Metrics {
        Self::metrics_mut(self)
    }
}
