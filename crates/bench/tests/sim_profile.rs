//! `sim_profile` takes its targets by name from the repo benchmark.

#![cfg(all(target_os = "linux", target_arch = "x86_64"))]

use std::process::Command;

use tpp_benchmark::WORKLOADS;

#[test]
fn every_benchmark_workload_is_a_target() {
    for spec in &WORKLOADS {
        let found = tpp_benchmark::spec(spec.name).expect("a workload's own name resolves");
        assert_eq!(found.name, spec.name);
    }
}

#[test]
fn unknown_target_exits_non_zero_naming_all_seven() {
    let out = Command::new(env!("CARGO_BIN_EXE_sim_profile"))
        .arg("sim")
        .output()
        .expect("sim_profile runs");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(WORKLOADS.iter().all(|s| err.contains(s.name)), "{err}");
}
