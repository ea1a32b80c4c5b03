//! The per-node persisted rumor state.
//!
//! [`RumorStore`] is the runtime's own bitset over rumor ids `0..n`. It is
//! deliberately independent of the engine's `MessageSet` — the store is the
//! *durable* state a node owns (what survives a crash-restart and what goes
//! on the wire), and it holds only what arrived over the wire. A second
//! store of everything that arrived in a decoded payload is what the
//! invariant suite compares it with: a forged rumor is a bit set in the
//! store that never arrived in a decoded payload.
//!
//! The hex codec here is the wire representation used by `gossip` payloads
//! and the stdio host's `--state-path` persistence: each 64-bit word becomes
//! 16 lowercase hex characters, least-significant word first, always exactly
//! `⌈n/64⌉` words so payload length is independent of how much a node knows.

use crate::wire::WireError;
use rpc_graphs::NodeId;

/// A bitset over rumor ids `0..n`: one node's durable rumor state.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RumorStore {
    words: Vec<u64>,
    n: usize,
}

impl RumorStore {
    /// An empty store over a universe of `n` rumors.
    pub fn new(n: usize) -> Self {
        RumorStore { words: vec![0; n.div_ceil(64).max(1)], n }
    }

    /// A store that starts knowing only rumor `own` (the classic-gossip
    /// initial state of node `own`).
    pub fn with_own(n: usize, own: NodeId) -> Self {
        let mut s = Self::new(n);
        s.insert(own as usize);
        s
    }

    /// The rumor universe size.
    pub fn universe(&self) -> usize {
        self.n
    }

    /// Inserts rumor `m`; returns whether it was new. Out-of-universe ids
    /// are ignored (and reported as not-new).
    pub fn insert(&mut self, m: usize) -> bool {
        if m >= self.n {
            return false;
        }
        let (w, b) = (m / 64, 1u64 << (m % 64));
        let new = self.words[w] & b == 0;
        self.words[w] |= b;
        new
    }

    /// Whether rumor `m` is known.
    pub fn contains(&self, m: usize) -> bool {
        m < self.n && self.words[m / 64] & (1 << (m % 64)) != 0
    }

    /// Unions `words` (same layout as [`RumorStore::words`]) into the store.
    /// Extra trailing words and bits beyond the universe are masked off, so
    /// merging an over-long payload cannot invent rumors.
    pub fn merge_words(&mut self, words: &[u64]) {
        for (dst, src) in self.words.iter_mut().zip(words) {
            *dst |= src;
        }
        self.mask_tail();
    }

    /// Number of rumors known.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether every rumor in the universe is known.
    pub fn is_full(&self) -> bool {
        self.count() == self.n
    }

    /// Whether this store is a subset of `other` (same universe assumed).
    pub fn is_subset_of(&self, other: &RumorStore) -> bool {
        self.words.iter().zip(&other.words).all(|(a, b)| a & !b == 0)
    }

    /// The raw bit words, least-significant word first.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Encodes the store as fixed-width lowercase hex (16 chars per word,
    /// word 0 first).
    pub fn to_hex(&self) -> String {
        let mut out = String::with_capacity(self.words.len() * 16);
        for w in &self.words {
            use std::fmt::Write as _;
            let _ = write!(out, "{w:016x}");
        }
        out
    }

    /// Decodes a hex payload produced by [`RumorStore::to_hex`] for a
    /// universe of `n` rumors. Length and charset are validated; bits beyond
    /// the universe are masked off.
    pub fn from_hex(hex: &str, n: usize) -> Result<Self, WireError> {
        let mut store = Self::new(n);
        if hex.len() != store.words.len() * 16 {
            return Err(WireError::BadField { field: "rumors" });
        }
        for (i, chunk) in hex.as_bytes().chunks(16).enumerate() {
            let s =
                std::str::from_utf8(chunk).map_err(|_| WireError::BadField { field: "rumors" })?;
            store.words[i] =
                u64::from_str_radix(s, 16).map_err(|_| WireError::BadField { field: "rumors" })?;
        }
        store.mask_tail();
        Ok(store)
    }

    /// Zeroes bits at positions `>= n` in the last word.
    fn mask_tail(&mut self) {
        let used = self.n % 64;
        if self.n > 0 && used != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << used) - 1;
            }
        } else if self.n == 0 {
            for w in &mut self.words {
                *w = 0;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_count() {
        let mut s = RumorStore::with_own(100, 7);
        assert!(s.contains(7));
        assert!(!s.contains(8));
        assert_eq!(s.count(), 1);
        assert!(s.insert(99));
        assert!(!s.insert(99), "second insert is not new");
        assert!(!s.insert(100), "out of universe is ignored");
        assert!(!s.contains(100));
        assert_eq!(s.count(), 2);
        assert!(!s.is_full());
    }

    #[test]
    fn full_detection() {
        let mut s = RumorStore::new(65);
        for m in 0..65 {
            s.insert(m);
        }
        assert!(s.is_full());
        assert_eq!(s.words().len(), 2);
    }

    #[test]
    fn hex_round_trip() {
        let mut s = RumorStore::new(130);
        for m in [0, 63, 64, 128, 129] {
            s.insert(m);
        }
        let hex = s.to_hex();
        assert_eq!(hex.len(), 3 * 16);
        let back = RumorStore::from_hex(&hex, 130).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn from_hex_rejects_bad_payloads() {
        assert!(RumorStore::from_hex("zz", 8).is_err(), "bad charset");
        assert!(RumorStore::from_hex("00", 8).is_err(), "short");
        assert!(RumorStore::from_hex(&"0".repeat(32), 8).is_err(), "long");
        // Bits above the universe are masked, not trusted.
        let s = RumorStore::from_hex("ffffffffffffffff", 8).unwrap();
        assert_eq!(s.count(), 8);
        assert!(s.is_full());
    }

    #[test]
    fn merge_masks_out_of_universe_bits() {
        let mut s = RumorStore::new(10);
        s.merge_words(&[u64::MAX, u64::MAX]);
        assert_eq!(s.count(), 10);
        assert!(s.is_full());
    }

    #[test]
    fn subset_ordering() {
        let mut a = RumorStore::new(70);
        let mut b = RumorStore::new(70);
        a.insert(3);
        b.insert(3);
        b.insert(69);
        assert!(a.is_subset_of(&b));
        assert!(!b.is_subset_of(&a));
    }
}
