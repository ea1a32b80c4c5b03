//! # rpc-runtime
//!
//! The fault-tolerant node runtime: the scenario engine's `ProtocolDriver`
//! turned into a *deployable actor*. Where the rest of the workspace
//! simulates the random phone call model inside one process, this crate
//! splits a push-pull gossip run into `n` independent node actors plus a
//! coordinator, speaking a JSON-lines wire protocol over a pluggable
//! transport — and keeps the result bit-identical to the simulator when the
//! network behaves.
//!
//! The layers, bottom up:
//!
//! * [`wire`] — envelopes, typed bodies, and a total decoder (malformed
//!   input becomes structured errors, never panics);
//! * [`store`] — the durable per-node rumor bitset and its hex codec;
//! * [`node`] — [`NodeActor`]: owns a store and reads the topology; derives
//!   its part of each round's transfer schedule from the engines' node-keyed
//!   draws — its own partner draw and its neighbours' — in `O(deg)`, so no
//!   randomness ever crosses the wire and no node holds simulator state;
//! * [`sync`] — [`Coordinator`]: the round synchronizer with timeouts,
//!   bounded exponential-backoff retries and quorum-based round advance;
//! * [`nemesis`] — the seeded fault injector (drop, delay, duplicate,
//!   partition, crash-restart), deterministic and fully audited;
//! * [`host`] — the [`Transport`] trait with channel and stdio
//!   implementations, plus [`serve`], the `experiments node` main loop;
//! * [`cluster`] — the single-threaded deterministic harness running a whole
//!   cluster in-process: [`run_cluster`].
//!
//! ## The correctness anchor
//!
//! With a benign nemesis, [`run_cluster`]'s per-round trace
//! ([`RuntimeRow`]) equals the in-process executor's `ScenarioTrace` row
//! for row — same seeds, same placement, same schedule, same packet
//! accounting. The `runtime_props` differential suite pins this. Under
//! faults the trace may stretch (retries, skipped acks), but the invariants
//! hold: no rumor is forged, per-node coverage is monotone, and
//! crash-restarted nodes rejoin with their persisted state.

pub mod cluster;
pub mod host;
pub mod nemesis;
pub mod node;
pub mod store;
pub mod sync;
pub mod wire;

pub use cluster::{
    admit_cluster, cluster_footprint_bytes, run_cluster, run_cluster_observed, ClusterConfig,
    CrashAudit, RuntimeOutcome,
};
pub use host::{
    serve, ChannelEnds, ChannelTransport, NodeHost, StdioTransport, Transport, TransportError,
};
pub use nemesis::{CrashPlan, FaultStats, Nemesis, NemesisSpec};
pub use node::{NodeActor, RoundSchedule};
pub use store::RumorStore;
pub use sync::{Coordinator, RetryPolicy, RuntimeRow};
pub use wire::{Body, Envelope, WireError, COORDINATOR};

/// Convenience re-exports of the most commonly used runtime types.
pub mod prelude {
    pub use crate::cluster::{run_cluster, ClusterConfig, RuntimeOutcome};
    pub use crate::nemesis::NemesisSpec;
    pub use crate::sync::{RetryPolicy, RuntimeRow};
    pub use crate::wire::{Body, Envelope};
}
