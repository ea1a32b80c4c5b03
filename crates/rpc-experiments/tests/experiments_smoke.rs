//! End-to-end smoke test: run the `experiments` binary's `--quick` path and
//! assert it produces non-empty Markdown on stdout and non-empty CSV files.

use std::path::PathBuf;
use std::process::Command;

/// Directory unique to this test process so parallel test runs cannot clash.
fn scratch_dir(label: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("experiments-smoke-{label}-{}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).expect("stale scratch dir should be removable");
    }
    dir
}

#[test]
fn table1_quick_emits_markdown_and_csv() {
    let out_dir = scratch_dir("table1");
    let output = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(["table1", "--quick", "--out"])
        .arg(&out_dir)
        .output()
        .expect("experiments binary should spawn");
    assert!(output.status.success(), "stderr: {}", String::from_utf8_lossy(&output.stderr));

    let stdout = String::from_utf8(output.stdout).expect("stdout should be UTF-8");
    assert!(!stdout.trim().is_empty(), "expected Markdown output on stdout");
    assert!(stdout.contains('|'), "expected a Markdown table, got:\n{stdout}");
    assert!(stdout.contains("Table 1"), "expected a Table 1 caption, got:\n{stdout}");

    let csv = out_dir.join("table1_constants.csv");
    let contents = std::fs::read_to_string(&csv)
        .unwrap_or_else(|e| panic!("expected CSV at {}: {e}", csv.display()));
    let lines: Vec<&str> = contents.lines().collect();
    assert!(lines.len() >= 2, "CSV should have a header and at least one row:\n{contents}");
    assert!(lines[0].contains(','), "CSV header should be comma-separated: {}", lines[0]);

    std::fs::remove_dir_all(&out_dir).ok();
}

#[test]
fn fig1_quick_emits_markdown_and_csv() {
    let out_dir = scratch_dir("fig1");
    let output = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(["fig1", "--quick", "--reps", "1", "--out"])
        .arg(&out_dir)
        .output()
        .expect("experiments binary should spawn");
    assert!(output.status.success(), "stderr: {}", String::from_utf8_lossy(&output.stderr));

    let stdout = String::from_utf8(output.stdout).expect("stdout should be UTF-8");
    assert!(stdout.contains('|'), "expected a Markdown table, got:\n{stdout}");

    let csv = out_dir.join("fig1_overhead.csv");
    let contents = std::fs::read_to_string(&csv)
        .unwrap_or_else(|e| panic!("expected CSV at {}: {e}", csv.display()));
    assert!(contents.lines().count() >= 2, "CSV should have header and data:\n{contents}");
    assert!(
        contents.lines().next().is_some_and(|h| h.contains("stopped_complete")),
        "expected stopped_by columns in the header:\n{contents}"
    );

    // Sweep-backed experiments also emit the JSON report next to the CSV.
    let json = out_dir.join("fig1_overhead.json");
    let report = std::fs::read_to_string(&json)
        .unwrap_or_else(|e| panic!("expected JSON at {}: {e}", json.display()));
    assert!(report.trim_start().starts_with('{'), "expected a JSON object:\n{report}");
    assert!(report.contains("\"cells\""), "expected per-cell results:\n{report}");

    std::fs::remove_dir_all(&out_dir).ok();
}

#[test]
fn scenario_quick_is_byte_identical_across_thread_counts() {
    let mut csvs = Vec::new();
    for threads in ["1", "4"] {
        let out_dir = scratch_dir(&format!("scenario-t{threads}"));
        let output = Command::new(env!("CARGO_BIN_EXE_experiments"))
            .args(["scenario", "--quick", "--reps", "1", "--threads", threads, "--out"])
            .arg(&out_dir)
            .output()
            .expect("experiments binary should spawn");
        assert!(output.status.success(), "stderr: {}", String::from_utf8_lossy(&output.stderr));

        let stdout = String::from_utf8(output.stdout).expect("stdout should be UTF-8");
        assert!(stdout.contains("churn-heavy"), "expected registry rows, got:\n{stdout}");
        assert!(
            stdout.contains("fast-round-budget") && stdout.contains("memory-coverage-churn"),
            "expected the phase-protocol stop-rule scenarios, got:\n{stdout}"
        );

        let csv = out_dir.join("scenarios.csv");
        let contents = std::fs::read_to_string(&csv)
            .unwrap_or_else(|e| panic!("expected CSV at {}: {e}", csv.display()));
        assert!(contents.lines().count() >= 18, "expected 17 scenario rows:\n{contents}");
        assert!(
            contents.lines().next().is_some_and(|h| h.contains("stopped_max")),
            "expected stopped_by columns in the header:\n{contents}"
        );
        csvs.push(contents);
        std::fs::remove_dir_all(&out_dir).ok();
    }
    assert_eq!(csvs[0], csvs[1], "scenario CSV must not depend on --threads");
}

#[test]
fn separation_is_a_sweep_that_honours_reps_and_threads() {
    let mut csvs = Vec::new();
    for threads in ["1", "2"] {
        let out_dir = scratch_dir(&format!("separation-t{threads}"));
        let output = Command::new(env!("CARGO_BIN_EXE_experiments"))
            .args(["separation", "--quick", "--max-n", "2048", "--reps", "2"])
            .args(["--threads", threads, "--out"])
            .arg(&out_dir)
            .output()
            .expect("experiments binary should spawn");
        assert!(output.status.success(), "stderr: {}", String::from_utf8_lossy(&output.stderr));

        let csv = out_dir.join("separation_broadcast_vs_gossip.csv");
        let contents = std::fs::read_to_string(&csv)
            .unwrap_or_else(|e| panic!("expected CSV at {}: {e}", csv.display()));
        assert_eq!(contents.lines().count(), 3, "expected a header and two sizes:\n{contents}");
        let json = out_dir.join("separation_broadcast_vs_gossip.json");
        let report = std::fs::read_to_string(&json)
            .unwrap_or_else(|e| panic!("expected JSON at {}: {e}", json.display()));
        // Two sizes × two topologies × two protocols, two repetitions each.
        assert!(report.contains("\"executed_reps\":16"), "expected 16 reps:\n{report}");
        csvs.push(contents);
        std::fs::remove_dir_all(&out_dir).ok();
    }
    assert_eq!(csvs[0], csvs[1], "separation CSV must not depend on --threads");
}

#[test]
fn only_with_an_unknown_experiment_fails_and_lists_the_valid_names() {
    let output = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(["sweep", "--quick", "--only", "fig-1"])
        .output()
        .expect("experiments binary should spawn");
    assert!(!output.status.success());
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("fig-1"), "stderr: {stderr}");
    assert!(stderr.contains("fig1") && stderr.contains("separation"), "stderr: {stderr}");
    assert!(
        output.stdout.is_empty(),
        "nothing may run: {}",
        String::from_utf8_lossy(&output.stdout)
    );
}

#[test]
fn unknown_subcommand_fails_with_message() {
    let output = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .arg("no-such-figure")
        .output()
        .expect("experiments binary should spawn");
    assert!(!output.status.success());
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("unknown subcommand"), "stderr: {stderr}");
}

#[test]
fn oversized_cluster_is_refused_with_its_estimate() {
    // n = 10^8 needs petabytes of rumor payloads (refused where MemAvailable
    // is readable); n = 10^12 has no u32 ids.
    let mut cases = vec![("1000000000000", "node ids are 32-bit")];
    if cfg!(target_os = "linux") {
        cases.push(("100000000", "estimated footprint"));
    }
    for (n, expected) in cases {
        let output = Command::new(env!("CARGO_BIN_EXE_experiments"))
            .args(["cluster", "--n", n])
            .output()
            .expect("experiments binary should spawn");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(1), "n = {n}: {stderr}");
        assert!(stderr.contains(expected), "n = {n}: {stderr}");
        assert!(!stderr.contains("panicked"), "n = {n}: {stderr}");
    }
}
