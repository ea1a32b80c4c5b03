//! Replicated database synchronisation — the motivating application of the
//! random phone call model (Demers et al. 1987, Karp et al. 2000).
//!
//! Every replica holds a local update (its original message); all updates must
//! reach all replicas to restore consistency. This example contrasts the
//! anti-entropy baseline (push-pull every round) with the paper's
//! fast-gossiping protocol, which trades a moderately longer synchronisation
//! window for far fewer packets per replica — exactly the trade-off a
//! bandwidth-constrained replication layer cares about.
//!
//! ```bash
//! cargo run --release --example replicated_database
//! ```

use gossip_density::prelude::*;

/// Runs `driver` to completion on a fresh engine over `overlay`.
fn run<D: ProtocolDriver>(mut driver: D, overlay: &Graph) -> GossipOutcome {
    let mut sim = Simulation::new(overlay, 1);
    run_driver(&mut driver, &mut sim);
    GossipOutcome::from_engine(&sim)
}

fn main() {
    let replicas = 1 << 13;
    println!("cluster of {replicas} replicas, one pending update per replica\n");

    // A replication overlay in which every replica knows ~log² n peers.
    let overlay = ErdosRenyi::paper_density(replicas).generate(2024);

    let anti_entropy = run(PushPullDriver::new(10_000), &overlay);
    let fast = run(FastGossipingDriver::new(FastGossiping::paper(replicas), replicas), &overlay);

    let report = |label: &str, outcome: &GossipOutcome| {
        println!("{label}");
        println!("  synchronisation rounds : {}", outcome.rounds());
        println!(
            "  packets per replica    : {:.2}",
            outcome.messages_per_node(Accounting::PerPacket)
        );
        println!(
            "  channels opened/replica: {:.2}",
            outcome.channels_opened() as f64 / replicas as f64
        );
        println!("  all replicas consistent: {}\n", outcome.completed());
    };

    report("anti-entropy (push-pull every round)", &anti_entropy);
    report("fast-gossiping (Algorithm 1)", &fast);

    let saving = 100.0
        * (1.0
            - fast.messages_per_node(Accounting::PerPacket)
                / anti_entropy.messages_per_node(Accounting::PerPacket));
    println!(
        "fast-gossiping delivers the same consistency with {saving:.0}% fewer packets per \
         replica, at the cost of {:.1}x more rounds.",
        fast.rounds() as f64 / anti_entropy.rounds().max(1) as f64
    );
}
