//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints, as the last line of standard output, one
//! JSON object: `correct`, `attempted`, `failed` and the metrics (the
//! end-to-end ones with `--trace 0`, the per-layer ones with `--trace 1`).
//! Earlier lines carry a human-readable summary and the run's provenance.
//! Exits non-zero when a correctness check fails, and with code 2 (printing
//! no result) on bad arguments or when the workload would not fit in memory.

use std::process::ExitCode;

use perfbench::host::{self, Host};
use perfbench::mc::Mc;
use perfbench::{
    cluster, large, mc, per_layer, result_line, Layers, Measured, END_TO_END, WORKLOADS,
};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 20.0f64, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}; one of {}", WORKLOADS.join(", ")));
    }
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err(format!("--seconds must be positive, not {seconds}"));
    }
    Ok(Args { workload, seed, seconds, trace })
}

/// One workload's end-to-end run, then (when traced) its traced run.
fn execute(args: &Args, layers: &mut Layers, errors: &mut Vec<String>) -> Measured {
    let Args { seed, seconds, trace, .. } = *args;
    match args.workload.as_str() {
        "mc-density" | "mc-hostile" => {
            let kind = if args.workload == "mc-density" { Mc::Density } else { Mc::Hostile };
            let (m, report) = mc::run(kind, seed, seconds);
            if trace {
                mc::trace(kind, seed, &report, layers, errors);
            }
            m
        }
        "large-n" => {
            let (m, runs) = large::run(seed, seconds);
            if trace {
                large::trace(seed, &m, &runs, layers, errors);
            }
            m
        }
        _ => {
            let (m, outcomes) = cluster::run(seed, seconds);
            if trace && outcomes.len() == cluster::configs().len() {
                cluster::trace(seed, &m, &outcomes, layers, errors);
            }
            m
        }
    }
}

fn footprint(workload: &str) -> u64 {
    match workload {
        "mc-density" => Mc::Density.footprint(),
        "mc-hostile" => Mc::Hostile.footprint(),
        "large-n" => large::footprint(),
        _ => cluster::footprint(),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let host = Host::probe();
    // The copy probe runs after the workload, so the peak is the larger one.
    let estimate = footprint(&args.workload).max(4 * host.llc_bytes);
    if let Err(e) = host::admit(&args.workload, estimate, &host) {
        eprintln!("perfbench: {e}");
        return ExitCode::from(2);
    }

    let mut layers = Layers::default();
    let mut trace_errors = Vec::new();
    let m = execute(&args, &mut layers, &mut trace_errors);
    let copy_gbps = host::copy_gbps(host.llc_bytes);
    layers.set("host.copy_gbps", copy_gbps);

    let errors: Vec<&String> = m.errors.iter().chain(&trace_errors).collect();
    let failed = m.failed + u64::from(!trace_errors.is_empty());
    let attempted = m.attempted.max(1);
    let correct = errors.is_empty() && failed == 0;
    for e in &errors {
        eprintln!("perfbench: check failed: {e}");
    }

    let large_table = host::state_table_bytes(large::N as u64, large::N as u64);
    println!(
        "{{\"provenance\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"commit\": \"{}\", \"toolchain\": \"{}\", \"nproc\": {}, \"cpu_model\": \"{}\", \
         \"llc_bytes\": {}, \"mem_total_bytes\": {}, \"mem_available_bytes\": {}, \
         \"host.copy_gbps\": {:?}, \"large_n_table_bytes\": {}, \"large_n_beyond_4x_llc\": {}}}}}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        host.commit,
        host.toolchain,
        host.nproc,
        host.cpu_model.replace('"', "'"),
        host.llc_bytes,
        host.mem_total,
        host.mem_available,
        copy_gbps,
        large_table,
        large_table >= 4 * host.llc_bytes,
    );
    let e2e = m.end_to_end();
    println!(
        "{}: {} batches, failed_frac {} ({failed} of {attempted} operations)",
        args.workload,
        m.batches.len(),
        perfbench::stats::failed_frac(attempted, failed),
    );
    for ((name, unit), value) in END_TO_END.iter().zip(&e2e) {
        println!("  {name:<20} {value:>14.6} {unit}");
    }
    let fmt = |v: &[f64]| v.iter().map(|x| format!("{x:.4}")).collect::<Vec<_>>().join(" ");
    println!("  run_s per batch:   {}", fmt(&m.each(|b| b.run_s)));
    println!("  cpu_s per batch:   {}", fmt(&m.each(|b| b.cpu_s)));
    println!(
        "  node_rounds_per_s per batch: {}",
        fmt(&m.each(|b| perfbench::stats::node_rounds_per_s(b.node_rounds, b.run_s)))
    );
    println!("  peak_rss_mb per batch: {}", fmt(&m.each(|b| b.peak_rss_mb)));
    println!("  setup_s per setup: {}", fmt(&m.setup_s));

    let metrics: Vec<(String, f64, &str)> = if args.trace {
        per_layer()
            .into_iter()
            .map(|(name, unit)| {
                let value = layers.values.get(&name).copied().unwrap_or(0.0);
                (name, value, unit)
            })
            .collect()
    } else {
        END_TO_END.iter().zip(&e2e).map(|(&(name, unit), &v)| (name.to_string(), v, unit)).collect()
    };
    if let Some(stray) = layers.values.keys().find(|k| !per_layer().iter().any(|(n, _)| n == *k)) {
        eprintln!("perfbench: internal error: unlisted metric {stray}");
        return ExitCode::from(3);
    }
    println!("{}", result_line(correct, attempted, failed, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
