//! The benchmark's timed replay of the cluster delivery loop must equal
//! `run_cluster` field for field, benign and under the workload's nemesis.

use perfbench::cluster::{configs, first_difference, replay, scenario};
use rpc_runtime::run_cluster;

#[test]
fn replay_equals_run_cluster_benign_and_under_the_nemesis() {
    for n in [16usize, 64] {
        let scenario = scenario(n);
        for (i, config) in configs().iter().enumerate() {
            for seed in [3u64, 4] {
                let expected = run_cluster(&scenario, seed, config).unwrap();
                let (got, profile) = replay(&scenario, seed, config).unwrap();
                assert_eq!(first_difference(&expected, &got), None, "n={n} config {i} seed {seed}");
                assert!(expected.completed, "n={n} config {i} seed {seed}");
                assert_eq!(profile.envelopes as usize, profile.mix.len());
                assert!(profile.node_s > 0.0 && profile.coord_s > 0.0);
                if i == 1 {
                    assert!(expected.faults.crashes > 0, "the nemesis crash window opened");
                }
            }
        }
    }
}

#[test]
fn first_difference_names_the_field() {
    let scenario = scenario(16);
    let a = run_cluster(&scenario, 3, &configs()[0]).unwrap();
    let mut b = a.clone();
    assert_eq!(first_difference(&a, &b), None);
    b.retries += 1;
    assert_eq!(first_difference(&a, &b), Some("retries"));
}
