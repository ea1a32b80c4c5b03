//! Measurement from outside the program: a forwarding [`Engine`] wrapper that
//! times delivery, and observers that timestamp the public
//! [`rpc_obs::Observer`] hooks. Neither feeds anything back into the
//! observed computation, so every traced run must reproduce its untraced
//! outcome exactly (the workloads check that).

use std::time::Instant;

use rand::rngs::SmallRng;
use rpc_engine::{DeliveryCore, Engine, MessageId, MessageSet, Metrics, Transfer};
use rpc_graphs::{Graph, NodeId};
use rpc_obs::{CoreRounds, ObsEvent, Observer};

use crate::host::cpu_seconds;

/// Forwards every [`Engine`] call to `inner`, timing [`Engine::deliver`] and
/// counting the transfers it was handed and the (node, message) pairs it
/// reported newly learned.
#[derive(Debug)]
pub struct TimedEngine<E> {
    /// The wrapped engine.
    pub inner: E,
    /// Nanoseconds spent inside `deliver`.
    pub deliver_nanos: u64,
    /// Transfers handed to `deliver`.
    pub transfers: u64,
    /// Newly learned pairs `deliver` returned.
    pub added: u64,
}

impl<E> TimedEngine<E> {
    /// Wraps `inner` with zeroed counters.
    pub fn new(inner: E) -> Self {
        TimedEngine { inner, deliver_nanos: 0, transfers: 0, added: 0 }
    }
}

impl<E: Engine> Engine for TimedEngine<E> {
    fn deliver(&mut self, transfers: &[Transfer]) -> usize {
        let t = Instant::now();
        let added = self.inner.deliver(transfers);
        self.deliver_nanos += t.elapsed().as_nanos() as u64;
        self.transfers += transfers.len() as u64;
        self.added += added as u64;
        added
    }

    fn graph(&self) -> &Graph {
        self.inner.graph()
    }
    fn num_nodes(&self) -> usize {
        self.inner.num_nodes()
    }
    fn universe(&self) -> usize {
        self.inner.universe()
    }
    fn open_channel(&mut self, v: NodeId) -> Option<NodeId> {
        self.inner.open_channel(v)
    }
    fn open_channel_avoiding(&mut self, v: NodeId, avoid: &[NodeId]) -> Option<NodeId> {
        self.inner.open_channel_avoiding(v, avoid)
    }
    fn absorb(&mut self, v: NodeId, set: &MessageSet) -> usize {
        self.inner.absorb(v, set)
    }
    fn state(&self, v: NodeId) -> &MessageSet {
        self.inner.state(v)
    }
    fn knows(&self, v: NodeId, m: MessageId) -> bool {
        self.inner.knows(v, m)
    }
    fn is_alive(&self, v: NodeId) -> bool {
        self.inner.is_alive(v)
    }
    fn is_present(&self, v: NodeId) -> bool {
        self.inner.is_present(v)
    }
    fn is_participating(&self, v: NodeId) -> bool {
        self.inner.is_participating(v)
    }
    fn alive_count(&self) -> usize {
        self.inner.alive_count()
    }
    fn present_count(&self) -> usize {
        self.inner.present_count()
    }
    fn participating_count(&self) -> usize {
        self.inner.participating_count()
    }
    fn participating_informed_count(&self) -> usize {
        self.inner.participating_informed_count()
    }
    fn is_fully_informed(&self, v: NodeId) -> bool {
        self.inner.is_fully_informed(v)
    }
    fn fully_informed_count(&self) -> usize {
        self.inner.fully_informed_count()
    }
    fn gossip_complete(&self) -> bool {
        self.inner.gossip_complete()
    }
    fn informed_count_of(&self, m: MessageId) -> usize {
        self.inner.informed_count_of(m)
    }
    fn track_message(&mut self, m: MessageId) {
        self.inner.track_message(m)
    }
    fn tracked_informed_count(&self) -> usize {
        self.inner.tracked_informed_count()
    }
    fn inject_rumor(&mut self, source: NodeId, m: MessageId) -> bool {
        self.inner.inject_rumor(source, m)
    }
    fn expire_rumor(&mut self, m: MessageId) {
        self.inner.expire_rumor(m)
    }
    fn schedule_injection(&mut self, round: u64, source: NodeId, m: MessageId) {
        self.inner.schedule_injection(round, source, m)
    }
    fn schedule_expiry(&mut self, round: u64, m: MessageId) {
        self.inner.schedule_expiry(round, m)
    }
    fn rumor_informed_count(&self, m: MessageId) -> usize {
        self.inner.rumor_informed_count(m)
    }
    fn rumor_injected(&self, m: MessageId) -> bool {
        self.inner.rumor_injected(m)
    }
    fn rumor_expired(&self, m: MessageId) -> bool {
        self.inner.rumor_expired(m)
    }
    fn rumor_complete(&self, m: MessageId) -> bool {
        self.inner.rumor_complete(m)
    }
    fn fail_nodes(&mut self, nodes: &[NodeId]) {
        self.inner.fail_nodes(nodes)
    }
    fn kill_nodes(&mut self, nodes: &[NodeId]) {
        self.inner.kill_nodes(nodes)
    }
    fn revive_nodes(&mut self, nodes: &[NodeId]) {
        self.inner.revive_nodes(nodes)
    }
    fn schedule_kill(&mut self, round: u64, nodes: Vec<NodeId>) {
        self.inner.schedule_kill(round, nodes)
    }
    fn schedule_revive(&mut self, round: u64, nodes: Vec<NodeId>) {
        self.inner.schedule_revive(round, nodes)
    }
    fn schedule_crash(&mut self, round: u64, nodes: Vec<NodeId>) {
        self.inner.schedule_crash(round, nodes)
    }
    fn schedule_edge_outage(&mut self, round: u64, slots: Vec<NodeId>) {
        self.inner.schedule_edge_outage(round, slots)
    }
    fn apply_due_events(&mut self) {
        self.inner.apply_due_events()
    }
    fn set_byzantine(&mut self, nodes: &[NodeId]) {
        self.inner.set_byzantine(nodes)
    }
    fn is_byzantine(&self, v: NodeId) -> bool {
        self.inner.is_byzantine(v)
    }
    fn byzantine_count(&self) -> usize {
        self.inner.byzantine_count()
    }
    fn set_loss_probability(&mut self, p: f64) {
        self.inner.set_loss_probability(p)
    }
    fn metrics(&self) -> &Metrics {
        self.inner.metrics()
    }
    fn metrics_mut(&mut self) -> &mut Metrics {
        self.inner.metrics_mut()
    }
    fn rng_mut(&mut self) -> &mut SmallRng {
        self.inner.rng_mut()
    }
}

/// Per-core round durations, in milliseconds.
#[derive(Clone, Debug, Default)]
pub struct RoundSpans {
    /// Rounds delivered by the scalar core.
    pub scalar: Vec<f64>,
    /// Rounds delivered by the eager core.
    pub eager: Vec<f64>,
    /// Rounds delivered by the batch core.
    pub batch: Vec<f64>,
    /// Every round, whatever delivered it.
    pub all: Vec<f64>,
}

impl RoundSpans {
    /// Files one round of `ms` milliseconds under `core` (`None`: the round
    /// delivered nothing, so it counts only towards [`Self::all`]).
    pub fn push(&mut self, core: Option<DeliveryCore>, ms: f64) {
        match core {
            Some(DeliveryCore::Scalar) => self.scalar.push(ms),
            Some(DeliveryCore::Eager) => self.eager.push(ms),
            Some(DeliveryCore::Batch) => self.batch.push(ms),
            None => {}
        }
        self.all.push(ms);
    }

    /// Appends every span of `other`.
    pub fn extend(&mut self, other: RoundSpans) {
        self.scalar.extend(other.scalar);
        self.eager.extend(other.eager);
        self.batch.extend(other.batch);
        self.all.extend(other.all);
    }
}

/// The core that delivered between two cumulative per-core snapshots (the
/// one whose counter moved; `None` if none did).
pub fn core_moved(before: CoreRounds, after: CoreRounds) -> Option<DeliveryCore> {
    if after.batch > before.batch {
        Some(DeliveryCore::Batch)
    } else if after.eager > before.eager {
        Some(DeliveryCore::Eager)
    } else if after.scalar > before.scalar {
        Some(DeliveryCore::Scalar)
    } else {
        None
    }
}

/// Timestamps the engine events of one scenario run: the first `round`
/// event (the end of the run's set-up) and the span between consecutive
/// `round` events, attributed to a core by the `dispatch` event in between.
#[derive(Debug)]
pub struct RoundStamper {
    start: Instant,
    /// Seconds from construction to the first `round` event.
    pub first_round_s: Option<f64>,
    /// Process CPU seconds (see [`cpu_seconds`]) at the first `round` event.
    pub first_round_cpu_s: Option<f64>,
    last_round: Option<Instant>,
    pending_core: Option<DeliveryCore>,
    /// The measured round spans.
    pub spans: RoundSpans,
}

impl RoundStamper {
    /// Starts the clock; construct it right before the observed call.
    pub fn start() -> Self {
        RoundStamper {
            start: Instant::now(),
            first_round_s: None,
            first_round_cpu_s: None,
            last_round: None,
            pending_core: None,
            spans: RoundSpans::default(),
        }
    }

    /// When the clock started.
    pub fn started(&self) -> Instant {
        self.start
    }
}

impl Observer for RoundStamper {
    fn record(&mut self, event: &ObsEvent<'_>) {
        match event {
            ObsEvent::Round { .. } => {
                let now = Instant::now();
                match self.last_round {
                    None => {
                        self.first_round_s = Some((now - self.start).as_secs_f64());
                        self.first_round_cpu_s = Some(cpu_seconds());
                    }
                    Some(prev) => {
                        self.spans.push(self.pending_core.take(), (now - prev).as_secs_f64() * 1e3)
                    }
                }
                self.last_round = Some(now);
            }
            ObsEvent::Dispatch { record, .. } => self.pending_core = Some(record.core),
            _ => {}
        }
    }
}

/// One finished sweep repetition, as the sweep runner reported it.
#[derive(Clone, Debug)]
pub struct RepRecord {
    /// Cell key.
    pub cell: String,
    /// Repetition index within the cell.
    pub rep: usize,
    /// Worker wall-clock of the repetition, in nanoseconds.
    pub wall_nanos: u64,
    /// Rounds it executed.
    pub rounds: u64,
    /// Delivery batches per core.
    pub cores: CoreRounds,
}

/// Collects the sweep runner's `rep-finished` events.
#[derive(Debug, Default)]
pub struct RepCollector {
    /// Every repetition, in the runner's deterministic task order.
    pub reps: Vec<RepRecord>,
}

impl Observer for RepCollector {
    fn record(&mut self, event: &ObsEvent<'_>) {
        if let ObsEvent::RepFinished { cell, rep, wall_nanos, rounds, cores, .. } = *event {
            self.reps.push(RepRecord { cell: cell.to_string(), rep, wall_nanos, rounds, cores });
        }
    }
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}
