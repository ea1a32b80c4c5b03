//! Deterministic seed derivation and the engine's node-keyed draws.
//!
//! Monte Carlo drivers need one independent seed per `(scenario, replication)`
//! cell, and the assignment must not depend on how the work is distributed
//! across threads. [`derive_seed`] feeds the coordinates through SplitMix64
//! (Steele, Lea & Flood, OOPSLA 2014), the standard seed-stretching finalizer:
//! consecutive indices land on uncorrelated 64-bit values, so the derived
//! seeds are safe to hand to [`rand::rngs::SmallRng`] even when the base seed
//! and the indices are tiny integers like `0, 1, 2, …`.
//!
//! ## The draw contract
//!
//! In the random phone call model every node chooses its own partner, so the
//! engines draw per node rather than from one shared stream. The `j`-th draw
//! node `v` makes in round `r` of a run with engine seed `s` is
//!
//! ```text
//! draw(s, v, r, j) = splitmix64(state(s, v, r) + j·γ)
//! state(s, v, r)   = splitmix64(splitmix64(s ^ DRAW_SALT) ^ v) ^ r
//! ```
//!
//! γ is SplitMix64's increment, so draws `0, 1, 2, …` are the output of a
//! SplitMix64 generator started at `state(s, v, r)`, and draw 0 is exactly
//! `derive_seed(s ^ DRAW_SALT, v, r)`. The states of one node's rounds
//! differ by less than 2¹⁶ for the first 2¹⁶ rounds, and reaching one from
//! another takes more than 2⁴⁶ steps of γ, so no two `(r, j)` of a node
//! share a generator state. The coordinates are:
//!
//! * `s` — the seed handed to `Simulation::new` / `UnpackedSimulation::new`;
//! * `v` — the drawing node, or [`GLOBAL_DRAWS`] for draws that belong to no
//!   node;
//! * `r` — `Metrics::rounds()` at the time of the draw;
//! * `j` — how many draws the same `(v, r)` made before this one.
//!
//! The run's `Metrics` keep the `j` cursors. Which draw lands on which
//! coordinate:
//!
//! | draw | coordinate | draws |
//! |---|---|---|
//! | partner (`open_channel`) | the opener | 1; under churn or edge churn up to 32 rejections, then 1 over the eligible count |
//! | partner (`open_channel_avoiding`) | the opener | up to 32 rejections, then 1 over the eligible count (1 when the first hits) |
//! | packet loss | the sender | 1 per packet that reaches the wire, in transfer order |
//! | fast-gossiping walk coin | the coin's node | 1 per node per coin round, before its partner draw |
//! | leader-election candidacy coin | the coin's node | 1 per participating node in the candidacy round |
//! | memory-model leader | [`GLOBAL_DRAWS`] | 1, in the run's first step |
//! | memory-model failure sample | [`GLOBAL_DRAWS`] | `min(failures + 1, n)` (a partial Fisher–Yates shuffle) |
//!
//! A draw therefore depends on nothing but its coordinates: not on the order
//! in which nodes are visited, not on other nodes' draws, not on the thread
//! count. The node runtime relies on this: a node learns its partner and its
//! callers for round `r` by evaluating [`node_draws`] for itself and its
//! neighbours, with no simulator replica.

use rand::RngCore;
use rpc_graphs::NodeId;

/// SplitMix64's increment (the golden-ratio constant).
const GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

/// The SplitMix64 finalizer: a bijective avalanche mix of one 64-bit word.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(GAMMA);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Derives the seed for replication `replication_idx` of scenario
/// `scenario_idx` from `base_seed`.
///
/// The derivation is a fixed function of the three coordinates — it does not
/// depend on thread count, iteration order, or any global state — so batch
/// drivers can fan replications out across any number of workers and still
/// reproduce results bit-for-bit.
pub fn derive_seed(base_seed: u64, scenario_idx: u64, replication_idx: u64) -> u64 {
    splitmix64(splitmix64(splitmix64(base_seed) ^ scenario_idx) ^ replication_idx)
}

/// Hashes an arbitrary byte string to one well-mixed 64-bit value (FNV-1a
/// folded through [`splitmix64`]).
///
/// Sweep harnesses key their cells by stable *names* (`"fig1/n=1024/…"`)
/// rather than by grid position, so that inserting or caching cells never
/// reassigns seeds; this helper turns such a key into the `scenario_idx`
/// coordinate of [`derive_seed`]. Like `derive_seed` it is a pure function of
/// its input — no global state, no platform dependence.
pub fn hash_key(bytes: &[u8]) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    splitmix64(h)
}

/// Folded into every engine seed before keying draws, so a graph generator
/// seeded with the same value as an engine never shares its stream.
const DRAW_SALT: u64 = 0xd1b5_4a32_d192_ed03;

/// The `v` coordinate of draws that belong to no node (the memory model's
/// leader and failure sample). Node ids are `u32`, so it collides with none.
pub const GLOBAL_DRAWS: u64 = u64::MAX;

/// Coordinate `v`'s stream in round `round` of a run with engine seed
/// `seed`, positioned at draw `j` (see the [module docs](self)): a
/// [`RngCore`], so `gen_range`, `gen_bool` and the graph's neighbour
/// samplers consume it like any generator.
pub fn node_draws(seed: u64, v: u64, round: u64, j: u64) -> NodeDraws {
    NodeDraws { state: coordinate_base(splitmix64(seed ^ DRAW_SALT), v) ^ round, next: j }
}

/// The round-independent part of coordinate `v`'s generator states.
fn coordinate_base(root: u64, v: u64) -> u64 {
    splitmix64(root ^ v)
}

/// One coordinate's draws in one round (see [`node_draws`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NodeDraws {
    /// `state(s, v, r)` of the module docs.
    state: u64,
    /// The `j` coordinate of the next draw.
    next: u64,
}

impl RngCore for NodeDraws {
    fn next_u64(&mut self) -> u64 {
        let draw = splitmix64(self.state.wrapping_add(self.next.wrapping_mul(GAMMA)));
        self.next += 1;
        draw
    }
}

/// One coordinate's stream in the round it last drew in, which is
/// `draws.state ^ base`.
#[derive(Clone, Copy, Debug)]
struct Cursor {
    base: u64,
    draws: NodeDraws,
}

/// The draw cursors of one run: for every node (and [`GLOBAL_DRAWS`]) the
/// stream of the round it last drew in. A coordinate's cursor restarts at
/// `j = 0` the first time it draws in a new round, so the ledger needs no
/// per-round reset.
#[derive(Clone, Debug, Default)]
pub(crate) struct DrawLedger {
    /// Index `v` for node `v`; the last entry is the global coordinate.
    cursors: Vec<Cursor>,
}

impl DrawLedger {
    /// The ledger of a run over `n` nodes with engine seed `seed`.
    pub fn new(seed: u64, n: usize) -> Self {
        let mut ledger = DrawLedger::default();
        ledger.reset(seed, n);
        ledger
    }

    /// Rewinds every cursor for a fresh run, reusing the allocation.
    pub fn reset(&mut self, seed: u64, n: usize) {
        let root = splitmix64(seed ^ DRAW_SALT);
        self.cursors.clear();
        self.cursors.extend((0..n as u64).chain([GLOBAL_DRAWS]).map(|v| {
            let base = coordinate_base(root, v);
            // Round u64::MAX never occurs, so the first draw starts afresh.
            Cursor { base, draws: NodeDraws { state: base ^ u64::MAX, next: 0 } }
        }));
    }

    /// Node `v`'s stream in round `round`, positioned after its earlier
    /// draws in that round.
    #[inline]
    pub fn node(&mut self, v: NodeId, round: u64) -> &mut NodeDraws {
        self.stream(v as usize, round)
    }

    /// The [`GLOBAL_DRAWS`] stream in round `round`.
    pub fn global(&mut self, round: u64) -> &mut NodeDraws {
        self.stream(self.cursors.len() - 1, round)
    }

    #[inline]
    fn stream(&mut self, slot: usize, round: u64) -> &mut NodeDraws {
        let cursor = &mut self.cursors[slot];
        let state = cursor.base ^ round;
        if cursor.draws.state != state {
            cursor.draws = NodeDraws { state, next: 0 };
        }
        &mut cursor.draws
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn splitmix_matches_reference_vectors() {
        // Reference values from the public-domain SplitMix64 implementation
        // (Vigna), seed 1234567 and 0.
        assert_eq!(splitmix64(0), 0xe220_a839_7b1d_cdaf);
        assert_eq!(splitmix64(1234567), 0x599e_d017_fb08_fc85);
    }

    #[test]
    fn derived_seeds_are_distinct_across_the_grid() {
        let mut seen = HashSet::new();
        for base in [0u64, 1, 42] {
            for s in 0..16u64 {
                for r in 0..16u64 {
                    seen.insert(derive_seed(base, s, r));
                }
            }
        }
        assert_eq!(seen.len(), 3 * 16 * 16, "seed collisions in a small grid");
    }

    #[test]
    fn derivation_is_a_pure_function_of_coordinates() {
        assert_eq!(derive_seed(7, 3, 9), derive_seed(7, 3, 9));
        assert_ne!(derive_seed(7, 3, 9), derive_seed(7, 9, 3), "coordinates must not commute");
        assert_ne!(derive_seed(7, 0, 0), derive_seed(8, 0, 0));
    }

    #[test]
    fn key_hashes_are_stable_and_distinct() {
        assert_eq!(hash_key(b"fig1/n=1024"), hash_key(b"fig1/n=1024"));
        let keys = ["", "a", "b", "ab", "ba", "fig1/n=1024", "fig1/n=2048"];
        let hashed: HashSet<u64> = keys.iter().map(|k| hash_key(k.as_bytes())).collect();
        assert_eq!(hashed.len(), keys.len(), "collisions among distinct keys");
    }
    /// The `j`-th draw of coordinate `v` in round `round`.
    fn node_draw(seed: u64, v: u64, round: u64, j: u64) -> u64 {
        node_draws(seed, v, round, j).next_u64()
    }

    #[test]
    fn a_draw_is_a_pure_function_of_its_coordinates() {
        let d = node_draw(7, 3, 5, 2);
        assert_eq!(d, node_draw(7, 3, 5, 2));
        for other in [node_draw(8, 3, 5, 2), node_draw(7, 4, 5, 2), node_draw(7, 3, 6, 2)] {
            assert_ne!(d, other);
        }
        assert_ne!(d, node_draw(7, 3, 5, 3));
        assert_eq!(node_draw(7, 3, 5, 0), derive_seed(7 ^ DRAW_SALT, 3, 5));
        // A stream positioned at j continues exactly where draws 0..j left off.
        let mut from_zero = node_draws(7, 3, 5, 0);
        let prefix: Vec<u64> = (0..4).map(|_| from_zero.next_u64()).collect();
        assert_eq!(prefix[2], d);
        assert_eq!(node_draws(7, 3, 5, 4).next_u64(), from_zero.next_u64());
    }

    #[test]
    fn a_small_coordinate_grid_has_no_collisions() {
        let mut seen = HashSet::new();
        for seed in [0u64, 1, 42] {
            for v in (0..8u64).chain([GLOBAL_DRAWS]) {
                for round in 0..8u64 {
                    for j in 0..8u64 {
                        seen.insert(node_draw(seed, v, round, j));
                    }
                }
            }
        }
        assert_eq!(seen.len(), 3 * 9 * 8 * 8, "draw collisions in a small grid");
    }

    #[test]
    fn the_ledger_replays_the_pure_draws_whatever_the_visit_order() {
        let mut ledger = DrawLedger::new(11, 4);
        // Interleave nodes and rounds; each coordinate's j counts only its
        // own earlier draws in the same round.
        let visits = [(2u32, 0u64), (0, 0), (2, 0), (1, 0), (2, 1), (0, 1), (2, 1)];
        let mut expected_j = std::collections::HashMap::new();
        for (v, round) in visits {
            let j = expected_j.entry((v, round)).or_insert(0u64);
            assert_eq!(ledger.node(v, round).next_u64(), node_draw(11, v as u64, round, *j));
            *j += 1;
        }
        assert_eq!(ledger.global(3).next_u64(), node_draw(11, GLOBAL_DRAWS, 3, 0));
        assert_eq!(ledger.global(3).next_u64(), node_draw(11, GLOBAL_DRAWS, 3, 1));
        ledger.reset(11, 4);
        assert_eq!(ledger.node(2, 0).next_u64(), node_draw(11, 2, 0, 0), "reset rewinds");
    }
}
