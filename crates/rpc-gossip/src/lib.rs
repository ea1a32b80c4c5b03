//! # rpc-gossip
//!
//! The gossiping and broadcasting algorithms studied in *"On the Influence of
//! Graph Density on Randomized Gossiping"* (Elsässer & Kaaser, 2015),
//! implemented on top of the [`rpc_engine`] random phone call simulator and
//! the [`rpc_graphs`] graph models.
//!
//! Every protocol has one execution path: a resumable [`ProtocolDriver`]
//! that executes one synchronous round per [`ProtocolDriver::step`]. The
//! scenario engine steps drivers to apply round budgets, coverage thresholds
//! and per-round tracing to any algorithm; [`run_driver`] runs one to its
//! natural termination.
//!
//! | paper | module | driver |
//! |---|---|---|
//! | Algorithm 4 (appendix) | [`push_pull`] | [`PushPullDriver`] — the simple push-pull baseline |
//! | Algorithm 1 | [`fast_gossiping`] | [`FastGossipingDriver`] — distribution, random walks, broadcast |
//! | Algorithm 2 | [`memory_model`] | [`MemoryDriver`] — leader tree, gather, broadcast with `open-avoid` |
//! | Algorithm 3 | [`leader_election`] | [`LeaderElectionDriver`] |
//! | Karp et al. / Pittel baselines | [`broadcast`] | [`BroadcastDriver`] (push, push-pull) |
//! | Table 1 | [`config`] | per-phase constants |
//! | Theorems 1–3 reference values | [`theory`] | closed-form bounds |
//!
//! ```
//! use rpc_engine::Simulation;
//! use rpc_gossip::prelude::*;
//! use rpc_graphs::prelude::*;
//!
//! let n = 256;
//! let graph = ErdosRenyi::paper_density(n).generate(1);
//! let mut sim = Simulation::new(&graph, 7);
//! run_driver(&mut FastGossipingDriver::new(FastGossiping::paper(n), n), &mut sim);
//! let outcome = GossipOutcome::from_engine(&sim);
//! assert!(outcome.completed());
//! println!("messages per node: {:.2}", outcome.messages_per_node(Accounting::PerPacket));
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod broadcast;
pub mod config;
pub mod fast_gossiping;
pub mod leader_election;
pub mod memory_model;
pub mod outcome;
pub mod push_pull;
pub mod runner;
pub mod theory;

pub use broadcast::{BroadcastDriver, BroadcastMode};
pub use config::{loglog2n, FastGossipingConfig, LeaderElectionConfig, MemoryGossipConfig};
pub use fast_gossiping::{FastGossiping, FastGossipingDriver};
pub use leader_election::{ElectionSummary, LeaderElectionDriver};
pub use memory_model::{MemoryDriver, MemoryGossip};
pub use outcome::GossipOutcome;
pub use push_pull::PushPullDriver;
pub use runner::{run_driver, ProtocolDriver, StepStatus};

/// Commonly used items, re-exported for convenient glob import.
pub mod prelude {
    pub use crate::broadcast::{BroadcastDriver, BroadcastMode};
    pub use crate::config::{FastGossipingConfig, LeaderElectionConfig, MemoryGossipConfig};
    pub use crate::fast_gossiping::{FastGossiping, FastGossipingDriver};
    pub use crate::leader_election::{ElectionSummary, LeaderElectionDriver};
    pub use crate::memory_model::{MemoryDriver, MemoryGossip};
    pub use crate::outcome::GossipOutcome;
    pub use crate::push_pull::PushPullDriver;
    pub use crate::runner::{run_driver, ProtocolDriver, StepStatus};
    pub use rpc_engine::Accounting;
}
