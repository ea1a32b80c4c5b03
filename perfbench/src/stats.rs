//! The benchmark's arithmetic: percentiles, the failure share and the
//! node-rounds rate. Kept apart from the workloads so it is unit-tested on
//! its own.

/// The `p`-th percentile (`0 ≤ p ≤ 100`) of `values`, interpolating linearly
/// between the two closest ranks. Returns 0 for an empty sample.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = p.clamp(0.0, 100.0) / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// The median of `values` (0 for an empty sample).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// Failed operations as a share of attempted ones. Nothing attempted counts
/// as total failure: a run that did no work has not shown anything works.
pub fn failed_frac(attempted: u64, failed: u64) -> f64 {
    if attempted == 0 {
        1.0
    } else {
        failed as f64 / attempted as f64
    }
}

/// `Σ n × rounds` over every simulated run, per second of `run_s`.
pub fn node_rounds_per_s(node_rounds: u64, run_s: f64) -> f64 {
    if run_s > 0.0 {
        node_rounds as f64 / run_s
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert!((percentile(&v, 90.0) - 3.7).abs() < 1e-12);
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[1.0, 2.0, 10.0]), 2.0);
    }

    #[test]
    fn percentile_clamps_out_of_range_ranks() {
        let v = [1.0, 2.0];
        assert_eq!(percentile(&v, -5.0), 1.0);
        assert_eq!(percentile(&v, 250.0), 2.0);
    }

    #[test]
    fn failed_frac_is_a_share_of_attempts() {
        assert_eq!(failed_frac(96, 0), 0.0);
        assert_eq!(failed_frac(4, 1), 0.25);
        assert_eq!(failed_frac(0, 0), 1.0);
    }

    #[test]
    fn node_rounds_rate_divides_by_run_time() {
        assert_eq!(node_rounds_per_s(4096 * 12, 2.0), 4096.0 * 6.0);
        assert_eq!(node_rounds_per_s(10, 0.0), 0.0);
    }
}
