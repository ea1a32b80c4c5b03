//! The simple Push-Pull gossiping baseline (Algorithm 4 / Appendix C.1).
//!
//! "In the simple push-pull-approach, every node opens in each step a
//! communication channel to a randomly selected neighbor, and each node
//! transmits all its messages through all open channels incident to it. This
//! is done until all nodes receive all initial messages." (Section 5.)
//!
//! Accounting: every push and every pull packet is recorded; additionally one
//! channel exchange is charged to each channel opener per step, which is the
//! convention under which the paper's observation "the number of messages per
//! node corresponds to the number of rounds" holds.

use rpc_engine::{Engine, Transfer};

use crate::runner::{ProtocolDriver, StepStatus};

/// One push-pull round: every node opens a channel to a random neighbour,
/// pushes over it and pulls back. Shared by [`PushPullDriver`] and the
/// fast-gossiping driver's Phase III so the two can never diverge in
/// semantics or accounting.
pub(crate) fn push_pull_round<E: Engine>(sim: &mut E, transfers: &mut Vec<Transfer>) {
    let n = sim.num_nodes();
    transfers.clear();
    for v in 0..n as u32 {
        if let Some(u) = sim.open_channel(v) {
            // pushpull(m_v): push over the outgoing channel, pull back.
            transfers.push(Transfer::new(v, u));
            transfers.push(Transfer::new(u, v));
            sim.metrics_mut().record_exchange(v);
        }
    }
    sim.deliver(transfers);
    sim.metrics_mut().finish_round();
}

/// The resumable [`ProtocolDriver`] for push-pull: each step is one
/// synchronous push-pull round.
///
/// Push-pull has no internal phase schedule — the protocol definition is
/// "round after round until every node knows every message" — so the driver
/// keeps producing rounds up to its round budget and reports the natural
/// termination through [`ProtocolDriver::finished`] (gossip completion).
/// [`crate::run_driver`] stops it there. Callers that want to gossip *past*
/// completion (e.g. a scenario round budget, which specifies a workload of
/// exactly `r` rounds) may simply keep stepping: rounds past completion still
/// draw randomness and send packets.
#[derive(Clone, Debug)]
pub struct PushPullDriver {
    max_rounds: usize,
    steps: usize,
    transfers: Vec<Transfer>,
}

impl PushPullDriver {
    /// A driver that produces at most `max_rounds` rounds.
    pub fn new(max_rounds: usize) -> Self {
        Self { max_rounds, steps: 0, transfers: Vec::new() }
    }

    /// The transfer list of the most recently executed round, in schedule
    /// order: one `[(v, u), (u, v)]` pair per channel opener `v`, exactly as
    /// handed to [`Engine::deliver`]. The node runtime's actors replay this
    /// to turn a simulated round into real wire messages (every transfer is
    /// one packet, every pair one channel exchange), so the deployable path
    /// and the simulator can never diverge in contact schedule.
    pub fn transfers(&self) -> &[Transfer] {
        &self.transfers
    }
}

impl ProtocolDriver for PushPullDriver {
    fn name(&self) -> &'static str {
        "push-pull"
    }

    fn finished<E: Engine>(&self, sim: &E) -> bool {
        sim.gossip_complete()
    }

    fn step<E: Engine>(&mut self, sim: &mut E) -> StepStatus {
        if self.steps >= self.max_rounds {
            return StepStatus::Done;
        }
        push_pull_round(sim, &mut self.transfers);
        self.steps += 1;
        StepStatus::Running
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{assert_stepping_matches_run_driver, run_fresh};
    use rpc_engine::Accounting;
    use rpc_graphs::prelude::*;

    /// Safety cap on rounds; push-pull completes in Θ(log n) rounds.
    const MAX_ROUNDS: usize = 10_000;

    #[test]
    fn completes_on_complete_graph() {
        let g = CompleteGraph::new(128).generate(0);
        let outcome = run_fresh(PushPullDriver::new(MAX_ROUNDS), &g, 1);
        assert!(outcome.completed());
        assert_eq!(outcome.fully_informed(), 128);
    }

    #[test]
    fn completes_on_paper_density_random_graph() {
        let g = ErdosRenyi::paper_density(512).generate(2);
        let outcome = run_fresh(PushPullDriver::new(MAX_ROUNDS), &g, 3);
        assert!(outcome.completed());
    }

    #[test]
    fn messages_per_node_equal_rounds_under_exchange_accounting() {
        // Section 5: "since in this approach each node communicates in every
        // round, the number of messages per node corresponds to the number of
        // rounds".
        let g = CompleteGraph::new(256).generate(0);
        let outcome = run_fresh(PushPullDriver::new(MAX_ROUNDS), &g, 5);
        let per_node = outcome.messages_per_node(Accounting::PerChannelExchange);
        assert!(
            (per_node - outcome.rounds() as f64).abs() < 1e-9,
            "exchanges per node {per_node} != rounds {}",
            outcome.rounds()
        );
        // Per-packet accounting counts both directions, so it is about twice
        // as large (not exactly: pulls from isolated/self channels differ).
        let packets = outcome.messages_per_node(Accounting::PerPacket);
        assert!(packets > 1.5 * per_node && packets <= 2.0 * per_node + 1e-9);
    }

    #[test]
    fn round_count_is_logarithmic() {
        // Push-pull gossiping completes in Θ(log n) rounds on these graphs;
        // allow a generous constant.
        let n = 1024;
        let g = ErdosRenyi::paper_density(n).generate(7);
        let outcome = run_fresh(PushPullDriver::new(MAX_ROUNDS), &g, 11);
        let rounds = outcome.rounds() as f64;
        let log = (n as f64).log2();
        assert!(rounds >= log / 2.0, "suspiciously few rounds: {rounds}");
        assert!(rounds <= 3.0 * log, "suspiciously many rounds: {rounds}");
    }

    #[test]
    fn respects_round_cap() {
        let g = ring(64); // far too sparse to finish in 3 rounds
        let outcome = run_fresh(PushPullDriver::new(3), &g, 1);
        assert!(!outcome.completed());
        assert_eq!(outcome.rounds(), 3);
    }

    #[test]
    fn stepping_with_queries_matches_run_driver() {
        let g = ErdosRenyi::paper_density(256).generate(15);
        assert_stepping_matches_run_driver(PushPullDriver::new(MAX_ROUNDS), &g, 16, &[]);
    }

    #[test]
    fn single_node_graph_finishes_immediately() {
        let g = CompleteGraph::new(1).generate(0);
        let outcome = run_fresh(PushPullDriver::new(MAX_ROUNDS), &g, 1);
        assert!(outcome.completed());
        assert_eq!(outcome.rounds(), 0);
        assert_eq!(outcome.total_packets(), 0);
    }
}
