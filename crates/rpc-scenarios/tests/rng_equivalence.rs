//! Distributional equivalence of the engine's random streams.
//!
//! `tests/data/rng_fixture.csv` holds per-seed `rounds` and packet totals of
//! every registry scenario and of the Figure 1 cells, measured at small `n`
//! under the engine's earlier draw scheme (one shared `SmallRng` per run).
//! This suite runs the current scheme on a disjoint block of seeds and asks
//! whether the two schemes describe the same random experiment. Per cell:
//!
//! * a two-sample Kolmogorov–Smirnov test on the rounds distribution passes
//!   at α = 0.001;
//! * the mean rounds and the mean packets per node agree with the fixture's
//!   within a 99 % confidence interval for the difference of means. The
//!   interval is simultaneous over every mean check of the suite (Bonferroni),
//!   so a correct scheme fails the whole suite with probability at most 1 %.
//!
//! Seeds are fixed, so the verdict is deterministic. The fixture is written
//! by the ignored `write_fixture` test:
//!
//! ```text
//! cargo test --release -p rpc-scenarios --test rng_equivalence -- --ignored write_fixture
//! ```

use std::collections::BTreeMap;
use std::path::PathBuf;

use rpc_scenarios::prelude::*;
use rpc_scenarios::registry;

/// Registry size: small enough for a debug-mode test run, large enough that
/// every scenario's environment (zones, bursts, churn waves) is populated.
const REGISTRY_N: usize = 128;
/// Figure 1 sizes (the quick grid's doubling pattern, scaled down).
const FIG1_SIZES: [usize; 2] = [128, 256];
/// Seeds per cell on each side.
const SEEDS: u64 = 100;
/// First seed of the current scheme's block; the fixture used `0..SEEDS`.
const FRESH_SEED_BASE: u64 = 1_000_000;
/// Level of the per-cell Kolmogorov–Smirnov test.
const KS_ALPHA: f64 = 0.001;
/// Family-wise level of all mean checks together.
const MEAN_ALPHA: f64 = 0.01;

/// Every cell: `(key, scenario)` in a fixed order.
fn cells() -> Vec<(String, Scenario)> {
    let mut cells: Vec<(String, Scenario)> = registry::builtin(REGISTRY_N)
        .into_iter()
        .map(|s| (format!("registry/{}/n={REGISTRY_N}", s.name), s))
        .collect();
    for n in FIG1_SIZES {
        for (label, protocol) in [
            ("push-pull", ProtocolSpec::PushPull),
            ("fast-gossiping", ProtocolSpec::FastGossiping),
            ("memory", ProtocolSpec::Memory),
        ] {
            let scenario = Scenario::builder("fig1", TopologySpec::ErdosRenyiPaper { n })
                .protocol(protocol)
                .build()
                .expect("paper-density scenario is valid");
            cells.push((format!("fig1/{label}/n={n}"), scenario));
        }
    }
    cells
}

/// One run's observables.
#[derive(Clone, Copy, Debug)]
struct Sample {
    rounds: u64,
    packets: u64,
    n: u64,
}

impl Sample {
    fn packets_per_node(self) -> f64 {
        self.packets as f64 / self.n as f64
    }
}

fn measure(scenario: &Scenario, seed: u64) -> Sample {
    let out = run_scenario(scenario, seed, 1);
    Sample { rounds: out.rounds, packets: out.total_packets, n: scenario.num_nodes() as u64 }
}

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests").join("data").join("rng_fixture.csv")
}

/// The fixture, grouped by cell key.
fn load_fixture() -> BTreeMap<String, Vec<Sample>> {
    let text = std::fs::read_to_string(fixture_path()).expect("fixture is committed");
    let mut by_cell: BTreeMap<String, Vec<Sample>> = BTreeMap::new();
    for line in text.lines().skip(1) {
        let fields: Vec<&str> = line.split(',').collect();
        assert_eq!(fields.len(), 5, "malformed fixture line `{line}`");
        let num = |i: usize| fields[i].parse::<u64>().expect("numeric fixture field");
        by_cell.entry(fields[0].to_string()).or_default().push(Sample {
            rounds: num(2),
            packets: num(3),
            n: num(4),
        });
    }
    by_cell
}

/// Writes the fixture from the current build. Run it only at a commit whose
/// draw scheme the fixture should describe.
#[test]
#[ignore = "writes tests/data/rng_fixture.csv"]
fn write_fixture() {
    let mut text = String::from("cell,seed,rounds,total_packets,n\n");
    for (key, scenario) in cells() {
        for seed in 0..SEEDS {
            let s = measure(&scenario, seed);
            text.push_str(&format!("{key},{seed},{},{},{}\n", s.rounds, s.packets, s.n));
        }
    }
    let path = fixture_path();
    std::fs::create_dir_all(path.parent().expect("fixture has a directory")).unwrap();
    std::fs::write(&path, text).expect("fixture is writable");
}

/// The two-sample Kolmogorov–Smirnov statistic `sup |F_a − F_b|`.
fn ks_statistic(a: &[f64], b: &[f64]) -> f64 {
    let (mut a, mut b) = (a.to_vec(), b.to_vec());
    a.sort_by(f64::total_cmp);
    b.sort_by(f64::total_cmp);
    let (mut i, mut j, mut d) = (0usize, 0usize, 0.0f64);
    while i < a.len() && j < b.len() {
        // Step past every copy of the smaller value on both sides, so ties
        // are compared at the same point of the pooled support.
        let x = a[i].min(b[j]);
        while i < a.len() && a[i] <= x {
            i += 1;
        }
        while j < b.len() && b[j] <= x {
            j += 1;
        }
        d = d.max((i as f64 / a.len() as f64 - j as f64 / b.len() as f64).abs());
    }
    d
}

/// The asymptotic critical value of the two-sample KS statistic at `alpha`.
fn ks_critical(alpha: f64, n: usize, m: usize) -> f64 {
    let c = (-(alpha / 2.0).ln() / 2.0).sqrt();
    c * ((n + m) as f64 / (n * m) as f64).sqrt()
}

fn mean_var(xs: &[f64]) -> (f64, f64) {
    let n = xs.len() as f64;
    let mean = xs.iter().sum::<f64>() / n;
    let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
    (mean, var)
}

/// Upper-tail probability of the standard normal (Abramowitz & Stegun 7.1.26,
/// absolute error below 1.5e-7).
fn normal_sf(z: f64) -> f64 {
    let x = z / std::f64::consts::SQRT_2;
    let t = 1.0 / (1.0 + 0.327_591_1 * x.abs());
    let poly = t
        * (0.254_829_592
            + t * (-0.284_496_736
                + t * (1.421_413_741 + t * (-1.453_152_027 + t * 1.061_405_429))));
    let erfc = poly * (-x * x).exp();
    if x >= 0.0 {
        erfc / 2.0
    } else {
        1.0 - erfc / 2.0
    }
}

/// The `z` with upper-tail probability `p`, by bisection.
fn normal_quantile_upper(p: f64) -> f64 {
    let (mut lo, mut hi) = (0.0f64, 10.0f64);
    for _ in 0..100 {
        let mid = (lo + hi) / 2.0;
        if normal_sf(mid) > p {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    (lo + hi) / 2.0
}

/// `None` when the difference of means lies inside the `z` interval, else a
/// description of the miss.
fn mean_check(label: &str, fixture: &[f64], fresh: &[f64], z: f64) -> Option<String> {
    let ((mf, vf), (mn, vn)) = (mean_var(fixture), mean_var(fresh));
    let se = (vf / fixture.len() as f64 + vn / fresh.len() as f64).sqrt();
    let diff = (mn - mf).abs();
    (diff > z * se).then(|| {
        format!("{label}: mean {mn:.4} vs fixture {mf:.4} (|diff| {diff:.4} > {z:.2} x se {se:.4})")
    })
}

#[test]
fn current_draw_scheme_matches_the_fixture_distribution() {
    let fixture = load_fixture();
    let cells = cells();
    assert_eq!(fixture.len(), cells.len(), "fixture covers a different cell set");
    let z = normal_quantile_upper(MEAN_ALPHA / (2.0 * 2.0 * cells.len() as f64));
    let mut failures = Vec::new();
    for (key, scenario) in &cells {
        let old = fixture.get(key).unwrap_or_else(|| panic!("fixture lacks cell {key}"));
        assert_eq!(old.len() as u64, SEEDS, "fixture cell {key} has the wrong seed count");
        let new: Vec<Sample> = (0..SEEDS).map(|i| measure(scenario, FRESH_SEED_BASE + i)).collect();
        let rounds = |s: &[Sample]| s.iter().map(|x| x.rounds as f64).collect::<Vec<_>>();
        let ppn = |s: &[Sample]| s.iter().map(|x| x.packets_per_node()).collect::<Vec<_>>();
        let (old_rounds, new_rounds) = (rounds(old), rounds(&new));
        let d = ks_statistic(&old_rounds, &new_rounds);
        let critical = ks_critical(KS_ALPHA, old.len(), new.len());
        if d > critical {
            failures.push(format!("{key}: KS D = {d:.3} > {critical:.3} on rounds"));
        }
        failures.extend(mean_check(&format!("{key} rounds"), &old_rounds, &new_rounds, z));
        failures.extend(mean_check(&format!("{key} packets/node"), &ppn(old), &ppn(&new), z));
    }
    assert!(failures.is_empty(), "distributions diverged:\n{}", failures.join("\n"));
}

#[test]
fn ks_statistic_and_quantiles_are_sane() {
    assert_eq!(ks_statistic(&[1.0, 2.0, 3.0], &[1.0, 2.0, 3.0]), 0.0);
    assert_eq!(ks_statistic(&[1.0, 1.0], &[2.0, 2.0]), 1.0);
    assert!((ks_statistic(&[1.0, 2.0], &[2.0, 3.0]) - 0.5).abs() < 1e-12);
    assert!((normal_quantile_upper(0.025) - 1.959_964).abs() < 1e-3);
    assert!((normal_quantile_upper(0.005) - 2.575_829).abs() < 1e-3);
    assert!((ks_critical(0.001, 100, 100) - 0.2757).abs() < 1e-3);
}
