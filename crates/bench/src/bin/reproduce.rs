//! Reproduce every table and figure in sequence (the EXPERIMENTS.md driver).
//!
//! `cargo run -p nilicon-bench --release --bin reproduce [-- quick] [-- --trace PREFIX]`
//!
//! `quick` trims run lengths (useful for CI smoke); the default settings are
//! the ones EXPERIMENTS.md records. With `--trace PREFIX`, each child binary
//! records its epoch-phase trace to `PREFIX.<bin>.jsonl` (one file per
//! binary — see OBSERVABILITY.md), ready for `trace-report`.
//!
//! The children are this package's sibling binaries. If one is missing (a
//! fresh checkout where only `reproduce` was built), all of them are built
//! once with `$CARGO build -p nilicon-bench --bins`, in the same profile and
//! target directory as this binary, before it runs.

use std::path::{Path, PathBuf};
use std::process::Command;

/// The directory holding this binary and its siblings.
fn bin_dir() -> PathBuf {
    let exe = std::env::current_exe().expect("path of the running binary");
    exe.parent()
        .expect("binary has a parent directory")
        .to_path_buf()
}

/// Build the sibling binaries because `bin` is missing, or exit with the
/// command that would.
fn build_siblings(dir: &Path, bin: &str, path: &Path) {
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let mut cmd = Command::new(&cargo);
    cmd.args(["build", "-p", "nilicon-bench", "--bins"]);
    match dir.file_name().and_then(|n| n.to_str()) {
        Some("release") => {
            cmd.arg("--release");
        }
        Some("debug") => {}
        _ => fail_missing(bin, "this binary is not in a cargo profile directory"),
    }
    if let Some(target_dir) = dir.parent() {
        cmd.arg("--target-dir").arg(target_dir);
    }
    eprintln!("{bin} is missing: building the bench binaries once");
    match cmd.status() {
        Ok(s) if s.success() => {}
        Ok(s) => fail_missing(bin, &format!("the build exited with {s}")),
        Err(e) => fail_missing(bin, &format!("could not run {cargo:?}: {e}")),
    }
    if !path.exists() {
        fail_missing(bin, "the build did not produce it");
    }
}

fn fail_missing(bin: &str, why: &str) -> ! {
    eprintln!(
        "reproduce: cannot find {bin} next to this binary ({why}).\n\
         Build the bench binaries first: cargo build --release -p nilicon-bench --bins"
    );
    std::process::exit(2);
}

fn run(dir: &Path, bin: &str, args: &[&str], trace_prefix: Option<&str>) {
    let mut args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
    if let Some(prefix) = trace_prefix {
        args.push("--trace".into());
        args.push(format!("{prefix}.{bin}.jsonl"));
    }
    let path = dir.join(format!("{bin}{}", std::env::consts::EXE_SUFFIX));
    if !path.exists() {
        build_siblings(dir, bin, &path);
    }
    eprintln!("\n##### {bin} {} #####", args.join(" "));
    let status = Command::new(&path)
        .args(&args)
        .status()
        .unwrap_or_else(|e| panic!("failed to spawn {bin}: {e}"));
    assert!(status.success(), "{bin} failed");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "quick");
    let trace_prefix = args
        .iter()
        .position(|a| a == "--trace")
        .map(|i| args.get(i + 1).expect("--trace requires a path prefix").clone());
    let (t1, cmp, t6, val_runs, val_epochs, scal) = if quick {
        ("60", "30", "120", "3", "30", "30")
    } else {
        ("300", "120", "400", "50", "40", "60")
    };
    let tp = trace_prefix.as_deref();
    let dir = bin_dir();
    let run = |bin: &str, args: &[&str], tp: Option<&str>| run(&dir, bin, args, tp);

    run("anchors", &[], None); // no epoch runs to trace
    run("table1", &[t1], tp);
    run("table2", &[], tp);
    // Fig. 3 + Tables III/IV/V derive from one set of comparison runs.
    run("comparison_report", &[cmp], tp);
    run("table6", &[t6], tp);
    run("validation", &[val_runs, val_epochs], tp);
    run("scalability", &["all", scal], tp);
    // Extensions: the §VIII active-replication trade-off and the epoch knee.
    run("colo_divergence", &[scal], tp);
    run("epoch_sweep", &["2"], tp);
    eprintln!("\nAll experiments completed.");
}
