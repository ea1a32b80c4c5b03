//! Records the toolchain and (when built from a git checkout) the commit, so
//! every benchmark result carries its provenance.

use std::path::Path;
use std::process::Command;

fn capture(cmd: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(cmd).args(args).output().ok()?;
    out.status.success().then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let toolchain = capture(&rustc, &["-V"]).unwrap_or_else(|| "unknown".into());
    println!("cargo:rustc-env=PERFBENCH_TOOLCHAIN={toolchain}");

    // Only ask git when the repository root itself is a checkout; a source
    // export nested inside some other repository must not borrow its commit.
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let commit = if root.join(".git").exists() {
        println!("cargo:rerun-if-changed=../.git/HEAD");
        println!("cargo:rerun-if-changed=../.git/index");
        let root = root.to_string_lossy().into_owned();
        capture("git", &["-C", &root, "rev-parse", "HEAD"])
    } else {
        None
    };
    println!(
        "cargo:rustc-env=PERFBENCH_COMMIT={}",
        commit.unwrap_or_else(|| "unknown (not a git checkout)".into())
    );
    println!("cargo:rerun-if-changed=build.rs");
}
