//! Peer-to-peer aggregation with a leader — the memory-model pipeline.
//!
//! A peer-to-peer network wants to compute an aggregate (here: the minimum and
//! the sum of per-peer measurements) with as little communication as possible.
//! The paper's memory model (Section 4) gives the recipe:
//!
//! 1. elect a leader with Algorithm 3 (`O(n log log n)` transmissions),
//! 2. gather all inputs at the leader along a communication tree and broadcast
//!    the result back with Algorithm 2 (`O(n)` transmissions).
//!
//! ```bash
//! cargo run --release --example p2p_aggregation
//! ```

use gossip_density::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn main() {
    let peers = 1 << 12;
    let overlay = ErdosRenyi::paper_density(peers).generate(7);

    // Per-peer measurements (e.g. free disk space in GB).
    let mut rng = SmallRng::seed_from_u64(99);
    let measurements: Vec<u32> = (0..peers).map(|_| rng.gen_range(10..1000)).collect();

    // Step 1: leader election (Algorithm 3).
    let mut sim = Simulation::new(&overlay, 3);
    let mut driver = LeaderElectionDriver::paper(peers);
    let rounds = run_driver(&mut driver, &mut sim);
    let election = driver.election_summary().expect("election finished");
    let election_packets = sim.metrics().total_packets();
    let leader = election.leader.expect("election failed");
    println!(
        "leader election: {} candidates, leader = peer {leader}, {:.2} packets/peer, {rounds} rounds",
        election.candidates,
        election_packets as f64 / election.alive_nodes as f64,
    );
    assert!(election.succeeded());

    // Step 2: gossiping with the elected leader (Algorithm 2). After the run
    // every peer knows every original message, i.e. every measurement.
    let mut sim = Simulation::new(&overlay, 4);
    run_driver(&mut MemoryDriver::new(MemoryGossip::paper(peers).with_leader(leader)), &mut sim);
    let gossip = GossipOutcome::from_engine(&sim);
    println!(
        "memory-model gossiping: {} rounds, {:.2} packets/peer, complete = {}",
        gossip.rounds(),
        gossip.messages_per_node(Accounting::PerPacket),
        gossip.completed()
    );

    // Every peer can now evaluate the aggregate locally.
    let min = measurements.iter().copied().min().unwrap();
    let sum: u64 = measurements.iter().map(|&x| x as u64).sum();
    println!("aggregates available at every peer: min = {min}, sum = {sum}");

    let total_packets = election_packets + gossip.total_packets();
    println!(
        "total packets for election + aggregation: {:.2} per peer \
         (vs ~{:.0} for log n rounds of naive flooding)",
        total_packets as f64 / peers as f64,
        (peers as f64).log2() * 2.0
    );
}
