//! Quickstart: run all three gossiping algorithms of the paper on one random
//! graph and compare their communication overhead.
//!
//! ```bash
//! cargo run --release --example quickstart
//! ```

use gossip_density::prelude::*;

/// Runs `driver` to completion on a fresh engine over `graph` and prints one
/// table row.
fn report<D: ProtocolDriver>(mut driver: D, graph: &Graph) {
    let mut sim = Simulation::new(graph, 7);
    run_driver(&mut driver, &mut sim);
    let outcome = GossipOutcome::from_engine(&sim);
    println!(
        "{:<16} {:>8} {:>12.2} {:>13.2} {:>10}",
        driver.name(),
        outcome.rounds(),
        outcome.messages_per_node(Accounting::PerChannelExchange),
        outcome.messages_per_node(Accounting::PerPacket),
        outcome.completed()
    );
}

fn main() {
    // The paper's network model: an Erdős–Rényi graph with p = log² n / n.
    let n = 1 << 12;
    let graph = ErdosRenyi::paper_density(n).generate(42);
    println!(
        "G(n = {n}, p = log² n / n): average degree {:.1}, {} edges\n",
        graph.average_degree(),
        graph.num_edges()
    );

    println!(
        "{:<16} {:>8} {:>12} {:>13} {:>10}",
        "algorithm", "rounds", "msgs/node", "packets/node", "complete"
    );
    report(PushPullDriver::new(10_000), &graph);
    report(FastGossipingDriver::new(FastGossiping::paper(n), n), &graph);
    report(MemoryDriver::new(MemoryGossip::paper(n)), &graph);

    println!(
        "\nExpected shape (Figure 1): memory ≪ fast-gossiping < push-pull, with the\n\
         gap between fast-gossiping and push-pull growing with n."
    );
}
