//! The benchmark's promises to the repo and to the driver that runs it:
//! same code generation as the root workspace, a `BENCHMARK.json` that
//! matches the code, and a command line that prints what it says it prints.

use std::path::Path;
use std::process::Command;
use std::time::{Duration, Instant};

use tpp_benchmark::report::{benchmark_json, END_TO_END, PER_LAYER};
use tpp_benchmark::WORKLOADS;

fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR")).parent().expect("benchmark/ sits in the repo root")
}

/// The `key = value` lines of a manifest's `[profile.release]` table.
fn release_profile(manifest: &Path) -> Vec<String> {
    let text =
        std::fs::read_to_string(manifest).unwrap_or_else(|e| panic!("{}: {e}", manifest.display()));
    let mut lines: Vec<String> = text
        .lines()
        .skip_while(|l| l.trim() != "[profile.release]")
        .skip(1)
        .take_while(|l| !l.trim_start().starts_with('['))
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| l.split_whitespace().collect::<String>())
        .collect();
    lines.sort();
    lines
}

/// Profiles are read from the workspace root only, and this package is its
/// own root: it must repeat the repo's release profile to measure the code
/// generation the repo ships.
#[test]
fn release_profile_matches_the_root_workspace() {
    let root = release_profile(&repo_root().join("Cargo.toml"));
    assert!(!root.is_empty(), "root manifest has a [profile.release]");
    assert_eq!(root, release_profile(&Path::new(env!("CARGO_MANIFEST_DIR")).join("Cargo.toml")));
}

#[test]
fn benchmark_json_is_what_the_code_defines() {
    let path = repo_root().join("BENCHMARK.json");
    let on_disk =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    assert_eq!(on_disk, benchmark_json(), "regenerate with --print-benchmark-json");
}

fn run(args: &[&str]) -> (String, Duration) {
    let t0 = Instant::now();
    let out =
        Command::new(env!("CARGO_BIN_EXE_tpp-benchmark")).args(args).output().expect("binary runs");
    let took = t0.elapsed();
    assert!(out.status.success(), "{args:?} failed: {}", String::from_utf8_lossy(&out.stderr));
    (String::from_utf8(out.stdout).expect("utf-8 output"), took)
}

#[test]
fn smoke_is_quick_and_names_every_end_to_end_metric_of_every_workload() {
    let (text, took) = run(&["--smoke"]);
    assert!(took < Duration::from_secs(15), "--smoke took {took:?}");
    for w in &WORKLOADS {
        for m in &END_TO_END {
            let wanted = format!("{}  {} ", w.name, m.name);
            assert!(
                text.lines().any(|l| l.starts_with(&wanted) && l.contains(m.unit)),
                "missing `{wanted}`"
            );
        }
    }
}

/// The names in a result object's `metrics`, in order.
fn metric_names(result_line: &str) -> Vec<String> {
    let metrics = result_line.split_once("\"metrics\": {").expect("has metrics").1;
    let mut parts: Vec<&str> = metrics.split("\": {\"value\"").collect();
    parts.pop(); // what follows the last metric
    parts.iter().map(|p| p.rsplit('"').next().expect("split yields one item").to_string()).collect()
}

#[test]
fn contract_mode_ends_with_the_result_object() {
    let (text, _) =
        run(&["--workload", "endhost_shim", "--seed", "5", "--seconds", "0.2", "--trace", "0"]);
    let last = text.lines().last().expect("prints a result");
    assert!(last.starts_with("{\"correct\": true, \"attempted\": "), "{last}");
    assert!(last.contains("\"failed\": 0, \"metrics\": {"), "{last}");
    assert_eq!(metric_names(last), END_TO_END.iter().map(|m| m.name).collect::<Vec<_>>());

    let (text, _) =
        run(&["--workload", "endhost_shim", "--seed", "5", "--seconds", "0.2", "--trace", "1"]);
    let last = text.lines().last().expect("prints a result");
    assert_eq!(metric_names(last), PER_LAYER.iter().map(|m| m.name).collect::<Vec<_>>());
    let trace =
        std::fs::read_to_string(tpp_benchmark::runner::trace_path()).expect("trace written");
    assert!(
        trace.lines().any(|l| l.contains("\"span\":\"endhost.shim.outgoing\"")),
        "spans recorded"
    );
}

#[test]
fn a_bad_command_line_is_refused_with_exit_code_2() {
    let out = Command::new(env!("CARGO_BIN_EXE_tpp-benchmark"))
        .args(["--workload", "nope"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}
