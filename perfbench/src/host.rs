//! What the benchmark knows about the machine it runs on: provenance
//! (toolchain, commit, CPU, caches, memory), process counters read from
//! `/proc` (CPU seconds, high-water RSS), the memory-copy roofline and the
//! memory admission check. Linux-only, like the numbers it reads.

use std::fs;
use std::time::Instant;

/// Static facts about the host and the build.
#[derive(Clone, Debug)]
pub struct Host {
    /// Commit the benchmark was built from.
    pub commit: &'static str,
    /// `rustc -V` of the toolchain that built it.
    pub toolchain: &'static str,
    /// Logical CPUs available to the process.
    pub nproc: usize,
    /// CPU model name.
    pub cpu_model: String,
    /// Size of the last-level cache in bytes (0 when unknown).
    pub llc_bytes: u64,
    /// Physical memory in bytes.
    pub mem_total: u64,
    /// Memory the kernel estimates is available to new work, in bytes.
    pub mem_available: u64,
}

impl Host {
    /// Reads the host facts.
    pub fn probe() -> Self {
        let meminfo = fs::read_to_string("/proc/meminfo").unwrap_or_default();
        let cpuinfo = fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
        Host {
            commit: env!("PERFBENCH_COMMIT"),
            toolchain: env!("PERFBENCH_TOOLCHAIN"),
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model: cpuinfo
                .lines()
                .find_map(|l| {
                    l.strip_prefix("model name").map(|r| r.trim_start_matches([' ', '\t', ':']))
                })
                .unwrap_or("unknown")
                .to_string(),
            llc_bytes: llc_bytes(),
            mem_total: meminfo_kb(&meminfo, "MemTotal:") * 1024,
            mem_available: meminfo_kb(&meminfo, "MemAvailable:") * 1024,
        }
    }
}

/// A `/proc/meminfo` field in KiB (0 when absent).
fn meminfo_kb(meminfo: &str, key: &str) -> u64 {
    meminfo
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// The highest-level cache of CPU 0, from sysfs (`"307200K"` style sizes).
fn llc_bytes() -> u64 {
    let mut best = (0u32, 0u64);
    for index in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{index}");
        let level =
            fs::read_to_string(format!("{dir}/level")).ok().and_then(|s| s.trim().parse().ok());
        let size =
            fs::read_to_string(format!("{dir}/size")).ok().and_then(|s| parse_size(s.trim()));
        if let (Some(level), Some(size)) = (level, size) {
            if level >= best.0 {
                best = (level, size);
            }
        }
    }
    best.1
}

/// Parses a sysfs cache size such as `"48K"`, `"2048K"` or `"32M"`.
fn parse_size(s: &str) -> Option<u64> {
    let (digits, scale) = match s.chars().last()? {
        'K' => (&s[..s.len() - 1], 1 << 10),
        'M' => (&s[..s.len() - 1], 1 << 20),
        'G' => (&s[..s.len() - 1], 1 << 30),
        _ => (s, 1),
    };
    digits.parse::<u64>().ok().map(|v| v * scale)
}

/// `struct timespec` of the C library on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// User + system CPU seconds of this process, all threads included (also
/// the threads that already exited), with nanosecond resolution.
pub fn cpu_seconds() -> f64 {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a valid, writable `struct timespec` (64-bit Linux
    // layout) for the duration of the call, and the clock id is a constant
    // every Linux kernel supports.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "CLOCK_PROCESS_CPUTIME_ID is always readable");
    ts.tv_sec as f64 + ts.tv_nsec as f64 / 1e9
}

/// High-water resident set size of this process since the last
/// [`reset_peak_rss`], in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    meminfo_kb(&status, "VmHWM:") as f64 / 1024.0
}

/// Resets the high-water RSS to the current RSS, so each batch's peak can
/// be read on its own. Best effort: without the reset the peak covers the
/// process so far.
pub fn reset_peak_rss() {
    let _ = fs::write("/proc/self/clear_refs", "5");
}

/// Single-threaded copy bandwidth over an array of `4 × llc` bytes (at least
/// 64 MiB): the first half is copied onto the second half, so each pass
/// reads and writes twice the LLC. Returns GB/s (10⁹ bytes read + written per
/// second), the median of five passes after one untimed pass.
pub fn copy_gbps(llc_bytes: u64) -> f64 {
    let bytes = (4 * llc_bytes).max(64 << 20);
    let words = (bytes / 8) as usize;
    let half = words / 2;
    let mut buf: Vec<u64> = (0..words as u64).collect();
    let mut rates = Vec::new();
    for pass in 0..6 {
        let t = Instant::now();
        buf.copy_within(0..half, half);
        let secs = t.elapsed().as_secs_f64();
        std::hint::black_box(&buf);
        if pass > 0 {
            rates.push(2.0 * (half * 8) as f64 / secs / 1e9);
        }
    }
    crate::stats::median(&rates)
}

/// Bytes of a packed state table: `n` rows of `universe` bits in 64-bit
/// words.
pub fn state_table_bytes(n: u64, universe: u64) -> u64 {
    n * universe.div_ceil(64) * 8
}

/// Refuses a workload whose estimated footprint exceeds the memory the
/// kernel reports available, instead of letting the OOM killer end it.
pub fn admit(workload: &str, estimate_bytes: u64, host: &Host) -> Result<(), String> {
    if host.mem_available > 0 && estimate_bytes > host.mem_available {
        Err(format!(
            "refusing workload {workload}: estimated footprint {:.0} MiB exceeds MemAvailable {:.0} MiB",
            estimate_bytes as f64 / (1 << 20) as f64,
            host.mem_available as f64 / (1 << 20) as f64
        ))
    } else {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sysfs_sizes_parse() {
        assert_eq!(parse_size("48K"), Some(48 << 10));
        assert_eq!(parse_size("32M"), Some(32 << 20));
        assert_eq!(parse_size("512"), Some(512));
        assert_eq!(parse_size("x"), None);
    }

    #[test]
    fn state_tables_round_rows_up_to_words() {
        assert_eq!(state_table_bytes(100_000, 100_000), 100_000 * 1563 * 8);
        assert_eq!(state_table_bytes(4096, 4096), 2 << 20);
    }

    #[test]
    fn admission_refuses_only_oversized_workloads() {
        let host = Host { mem_available: 1 << 30, ..Host::probe() };
        assert!(admit("w", 1 << 29, &host).is_ok());
        let err = admit("w", 3 << 30, &host).unwrap_err();
        assert!(err.contains("3072 MiB") && err.contains("1024 MiB"), "{err}");
    }

    #[test]
    fn process_counters_are_readable() {
        let big = vec![1u8; 64 << 20];
        std::hint::black_box(&big);
        assert!(peak_rss_mb() >= 64.0);
        drop(big);
        let t = cpu_seconds();
        let mut x = 0u64;
        while cpu_seconds() - t < 0.01 {
            x = std::hint::black_box(x + 1);
        }
        assert!(cpu_seconds() > t);
    }
}
