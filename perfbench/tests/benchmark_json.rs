//! `BENCHMARK.json` at the repository root must name exactly the workloads
//! and metrics this binary runs and prints, with the same units.

use perfbench::{per_layer, END_TO_END, WORKLOADS};

fn benchmark_json() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root")
}

/// Every `{"name": ..., ...}` object's name, in file order.
fn names(json: &str) -> Vec<String> {
    json.split("\"name\": \"")
        .skip(1)
        .map(|rest| rest[..rest.find('"').unwrap()].to_string())
        .collect()
}

#[test]
fn benchmark_json_lists_every_workload_and_metric() {
    let json = benchmark_json();
    let mut expected: Vec<String> = WORKLOADS.iter().map(|w| w.to_string()).collect();
    expected.extend(END_TO_END.iter().map(|(n, _)| n.to_string()));
    expected.extend(per_layer().into_iter().map(|(n, _)| n));
    assert_eq!(names(&json), expected);
    for (name, unit) in END_TO_END {
        assert!(json.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")), "{name}");
    }
    for (name, unit) in per_layer() {
        assert!(json.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")), "{name}");
    }
}
