//! Algorithm parameters, including the exact constants of Table 1.
//!
//! Every phase length of Algorithm 1 (fast-gossiping) and Algorithm 2
//! (memory-model gossiping) is expressed as a function of the network size
//! `n`. The paper tunes these constants for its simulations and lists them in
//! Table 1; the `paper_defaults` constructors reproduce that table exactly,
//! while the `theoretical` constructors use the constants of the pseudocode
//! in Sections 3 and 4 (useful for asymptotic shape checks, but far slower at
//! practical sizes).

use rpc_graphs::log2n;

/// `log log n` (base 2, guarded for tiny `n`).
pub fn loglog2n(n: usize) -> f64 {
    let l = log2n(n);
    if l <= 1.0 {
        0.0
    } else {
        l.log2()
    }
}

/// Rounds `x` up to the next multiple of 4 (Algorithm 2 works in long-steps
/// of four steps each).
pub fn round_to_multiple_of_4(x: f64) -> usize {
    let v = x.ceil() as usize;
    v.div_ceil(4) * 4
}

/// Parameters of Algorithm 1 (fast-gossiping), one field per phase limit of
/// Table 1.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FastGossipingConfig {
    /// Phase I: number of push steps.
    pub phase1_steps: usize,
    /// Phase II: number of rounds (outer loop).
    pub phase2_rounds: usize,
    /// Phase II: probability that a node starts a random walk in a round.
    pub walk_probability: f64,
    /// Phase II: number of random-walk steps per round.
    pub walk_steps: usize,
    /// Phase II: maximum number of moves before a walk is no longer enqueued
    /// (`c_moves · log n` in the pseudocode).
    pub max_walk_moves: u32,
    /// Phase II: number of broadcast steps at the end of each round.
    pub broadcast_steps: usize,
    /// Phase III: safety cap on the closing push-pull steps (the phase runs
    /// until the whole graph is informed, as in the paper's simulations).
    pub phase3_max_steps: usize,
}

impl FastGossipingConfig {
    /// The constants of Table 1, as used for Figures 1 and 4:
    ///
    /// | phase | limit | value |
    /// |---|---|---|
    /// | I | number of steps | `⌈1.2 · log log n⌉` |
    /// | II | number of rounds | `⌈log n / log log n⌉` |
    /// | II | random walk probability | `1.0 / log n` |
    /// | II | number of random walk steps | `⌈log n / log log n + 2⌉` |
    /// | II | number of broadcast steps | `⌈0.5 · log log n⌉` |
    /// | III | push-pull | until the whole graph is informed |
    pub fn paper_defaults(n: usize) -> Self {
        let log = log2n(n).max(1.0);
        let loglog = loglog2n(n).max(1.0);
        Self {
            phase1_steps: (1.2 * loglog).ceil() as usize,
            phase2_rounds: (log / loglog).ceil() as usize,
            walk_probability: (1.0 / log).min(1.0),
            walk_steps: (log / loglog + 2.0).ceil() as usize,
            max_walk_moves: (2.0 * log).ceil() as u32,
            broadcast_steps: (0.5 * loglog).ceil() as usize,
            phase3_max_steps: 10_000,
        }
    }

    /// The constants of the pseudocode (Algorithm 1) used in the analysis of
    /// Theorem 1: `12 log n / log log n` distribution steps, `4 log n / log
    /// log n` rounds, walk probability `ℓ/log n`, `6ℓ log n` walk steps,
    /// `½ log log n` broadcast steps, `8 log n / log log n` closing steps.
    pub fn theoretical(n: usize, ell: f64) -> Self {
        let log = log2n(n).max(1.0);
        let loglog = loglog2n(n).max(1.0);
        Self {
            phase1_steps: (12.0 * log / loglog).ceil() as usize,
            phase2_rounds: (4.0 * log / loglog).ceil() as usize,
            walk_probability: (ell / log).min(1.0),
            walk_steps: (6.0 * ell * log).ceil() as usize,
            max_walk_moves: (4.0 * log).ceil() as u32,
            broadcast_steps: (0.5 * loglog).ceil() as usize,
            phase3_max_steps: 10_000,
        }
    }
}

/// Parameters of Algorithm 2 (memory-model gossiping).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MemoryGossipConfig {
    /// Phase I: number of push steps (rounded to a multiple of 4 — the
    /// long-step width).
    pub phase1_push_steps: usize,
    /// Phase I: number of pull steps.
    pub phase1_pull_steps: usize,
    /// Phase III: number of push steps of the closing broadcast.
    pub phase3_push_steps: usize,
    /// Phase III: safety cap on the closing pull steps (run until the whole
    /// graph is informed, as in the paper's simulations).
    pub phase3_max_pull_steps: usize,
    /// Number of independently constructed distribution trees. The plain
    /// algorithm uses 1; the robustness experiments of Figures 2, 3 and 5 use
    /// 3 independent trees (Theorem 3 analyses 2).
    pub trees: usize,
}

impl MemoryGossipConfig {
    /// The constants of Table 1:
    ///
    /// | phase | limit | value |
    /// |---|---|---|
    /// | I | first loop, number of steps | `2.0 · log n` (rounded to a multiple of 4) |
    /// | I | second loop, number of steps | `⌊2.0 · log log n⌋` |
    /// | II | number of steps | corresponds to Phase I |
    /// | III | number of push steps | `⌊log n⌋` |
    pub fn paper_defaults(n: usize) -> Self {
        let log = log2n(n).max(1.0);
        let loglog = loglog2n(n).max(1.0);
        Self {
            phase1_push_steps: round_to_multiple_of_4(2.0 * log),
            phase1_pull_steps: (2.0 * loglog).floor() as usize,
            phase3_push_steps: round_to_multiple_of_4(log.floor()),
            phase3_max_pull_steps: 10_000,
            trees: 1,
        }
    }

    /// The constants of the pseudocode (Algorithm 2): `4 log_4 n + 4ρ log log n`
    /// push steps, `4ρ log log n` pull steps, with `ρ` a large constant.
    pub fn theoretical(n: usize, rho: f64) -> Self {
        let log = log2n(n).max(1.0);
        let loglog = loglog2n(n).max(1.0);
        let log4 = log / 2.0; // log_4 n = log_2 n / 2
        Self {
            phase1_push_steps: round_to_multiple_of_4(4.0 * log4 + 4.0 * rho * loglog),
            phase1_pull_steps: (4.0 * rho * loglog).ceil() as usize,
            phase3_push_steps: round_to_multiple_of_4(4.0 * log4 + 4.0 * rho * loglog),
            phase3_max_pull_steps: 10_000,
            trees: 1,
        }
    }

    /// Same configuration but with `trees` independently built distribution
    /// trees (used by the robustness experiments).
    pub fn with_trees(mut self, trees: usize) -> Self {
        self.trees = trees.max(1);
        self
    }
}

/// Parameters of Algorithm 3 (leader election in the memory model).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LeaderElectionConfig {
    /// Probability with which a node declares itself a possible leader
    /// (`log² n / n` in the paper).
    pub candidate_probability: f64,
    /// Number of push steps (`log n + ρ log log n`).
    pub push_steps: usize,
    /// Number of pull steps (`ρ log log n`).
    pub pull_steps: usize,
}

impl LeaderElectionConfig {
    /// Simulation-scale defaults: candidate probability `log² n / n`,
    /// `log n + 2 log log n` push steps and `2 log log n` pull steps.
    ///
    /// The paper's proofs use `ρ > 64`, which is needed for the asymptotic
    /// high-probability bounds but is far more steps than necessary at
    /// simulation scale; `rho = 2` completes reliably in practice and keeps
    /// the `O(n log log n)` message bound visible.
    pub fn paper_defaults(n: usize) -> Self {
        Self::with_rho(n, 2.0)
    }

    /// Defaults with an explicit `ρ`.
    pub fn with_rho(n: usize, rho: f64) -> Self {
        let log = log2n(n).max(1.0);
        let loglog = loglog2n(n).max(1.0);
        Self {
            candidate_probability: (log * log / n as f64).min(1.0),
            push_steps: (log + rho * loglog).ceil() as usize,
            pull_steps: (rho * loglog).ceil() as usize,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loglog_is_sane() {
        assert_eq!(loglog2n(0), 0.0);
        assert_eq!(loglog2n(2), 0.0);
        assert_eq!(loglog2n(16), 2.0);
        assert!((loglog2n(1 << 16) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn rounding_to_long_steps() {
        assert_eq!(round_to_multiple_of_4(0.0), 0);
        assert_eq!(round_to_multiple_of_4(1.0), 4);
        assert_eq!(round_to_multiple_of_4(4.0), 4);
        assert_eq!(round_to_multiple_of_4(4.1), 8);
        assert_eq!(round_to_multiple_of_4(39.86), 40);
    }

    #[test]
    fn table1_values_for_one_million_nodes() {
        // n = 10^6: log n ≈ 19.93, log log n ≈ 4.32.
        let n = 1_000_000;
        let fg = FastGossipingConfig::paper_defaults(n);
        assert_eq!(fg.phase1_steps, 6); // ⌈1.2 · 4.32⌉
        assert_eq!(fg.phase2_rounds, 5); // ⌈19.93 / 4.32⌉
        assert!((fg.walk_probability - 1.0 / 19.9315686).abs() < 1e-6);
        assert_eq!(fg.walk_steps, 7); // ⌈19.93 / 4.32 + 2⌉
        assert_eq!(fg.broadcast_steps, 3); // ⌈0.5 · 4.32⌉

        let mg = MemoryGossipConfig::paper_defaults(n);
        assert_eq!(mg.phase1_push_steps, 40); // 2 · 19.93 = 39.86 → 40
        assert_eq!(mg.phase1_pull_steps, 8); // ⌊2 · 4.32⌋
        assert_eq!(mg.phase3_push_steps, 20); // ⌊19.93⌋ = 19 → rounded to 20
    }

    #[test]
    fn table1_values_for_a_thousand_nodes() {
        // n = 10^3: log n ≈ 9.97, log log n ≈ 3.32.
        let n = 1_000;
        let fg = FastGossipingConfig::paper_defaults(n);
        assert_eq!(fg.phase1_steps, 4);
        assert_eq!(fg.phase2_rounds, 4); // ⌈9.97 / 3.32⌉ = ⌈3.004⌉
        assert_eq!(fg.broadcast_steps, 2);
        let mg = MemoryGossipConfig::paper_defaults(n);
        assert_eq!(mg.phase1_push_steps, 20);
        assert_eq!(mg.phase1_pull_steps, 6);
    }

    #[test]
    fn theoretical_constants_dominate_paper_constants() {
        let n = 1 << 16;
        let paper = FastGossipingConfig::paper_defaults(n);
        let theory = FastGossipingConfig::theoretical(n, 1.0);
        assert!(theory.phase1_steps > paper.phase1_steps);
        assert!(theory.phase2_rounds > paper.phase2_rounds);
        assert!(theory.walk_steps > paper.walk_steps);

        let paper_m = MemoryGossipConfig::paper_defaults(n);
        let theory_m = MemoryGossipConfig::theoretical(n, 4.0);
        assert!(theory_m.phase1_push_steps > paper_m.phase1_push_steps);
    }

    #[test]
    fn leader_election_defaults_scale_with_n() {
        let small = LeaderElectionConfig::paper_defaults(1 << 10);
        let large = LeaderElectionConfig::paper_defaults(1 << 20);
        assert!(large.push_steps > small.push_steps);
        assert!(large.candidate_probability < small.candidate_probability);
        assert!(small.candidate_probability <= 1.0);
        // Expected number of candidates is log² n, independent of n.
        assert!((large.candidate_probability * (1u64 << 20) as f64 - 400.0).abs() < 1.0);
    }

    #[test]
    fn memory_config_tree_count() {
        let cfg = MemoryGossipConfig::paper_defaults(1024).with_trees(3);
        assert_eq!(cfg.trees, 3);
        assert_eq!(MemoryGossipConfig::paper_defaults(1024).trees, 1);
        assert_eq!(MemoryGossipConfig::paper_defaults(1024).with_trees(0).trees, 1);
    }

    #[test]
    fn tiny_networks_do_not_produce_degenerate_configs() {
        for n in [1usize, 2, 3, 8] {
            let fg = FastGossipingConfig::paper_defaults(n);
            assert!(fg.phase1_steps >= 1);
            assert!(fg.walk_probability > 0.0 && fg.walk_probability <= 1.0);
            let mg = MemoryGossipConfig::paper_defaults(n);
            assert!(mg.phase1_push_steps >= 4);
        }
    }
}
