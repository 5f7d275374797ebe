//! Pinned: every built-in application probe verifies clean against the
//! segment table its app declares to the central TPP-CP.
//!
//! If any app's probe ever regresses into an out-of-bounds access, an
//! over-capacity layout, an uninitialized read or a policy violation, this
//! test (and `tpp-lint --all-apps` in CI) goes red before the probe gets
//! anywhere near a switch.

use tpp_apps::rcp;
use tpp_core::probe::Probe;
use tpp_core::verify::{verify, VerifyOptions};
use tpp_endhost::cp::{CentralCp, Policy};

/// Compile `probe` for `hops` hops and verify it against `policy`'s
/// segments for that explicit budget, expecting acceptance.
fn assert_verifies(name: &str, probe: &Probe, hops: usize, policy: &Policy) {
    let tpp = probe.compile_hops(hops).unwrap_or_else(|e| panic!("{name}: compile: {e}"));
    let verdict =
        verify(&tpp, VerifyOptions { hops: Some(hops), segments: Some(&policy.segments) });
    assert!(
        verdict.passed(),
        "{name}: verifier denied a built-in probe:\n{}",
        verdict.render(&tpp.instrs)
    );
    // The CP-facing API agrees (derive mode covers at least the pinned
    // budget's first hop).
    let cp_verdict = policy.verify(&tpp);
    assert!(cp_verdict.passed(), "{name}: Policy::verify disagrees with explicit-hops verify");
}

#[test]
fn all_builtin_app_probes_verify_clean_against_cp_segments() {
    let mut cp = CentralCp::new();
    let probes = tpp_apps::builtin_probes(&mut cp);
    // Registration order pins the AppSpecific register blocks the probes
    // hard-code: rcp owns regs 0-1, wan-fanout owns regs 2-3 (registering
    // again returns the first grant).
    assert_eq!(cp.register_app_with_regs("rcp", 2).unwrap().1, 0);
    assert_eq!(cp.register_app_with_regs("wan-fanout", 2).unwrap().1, 2);
    assert_eq!(probes.len(), 11);
    for p in &probes {
        assert_verifies(p.name, &p.probe, p.hops, &p.policy);
    }

    // Cross-check: the write probes are *rejected* under a policy that
    // does not own their registers — the deny path TPP-CP relies on.
    let reader = cp.register_app("reader");
    let foreign = cp.policy_for(reader, false).unwrap();
    let update = rcp::update_probe().compile_hops(2).unwrap();
    let verdict =
        verify(&update, VerifyOptions { hops: Some(2), segments: Some(&foreign.segments) });
    assert!(!verdict.passed(), "rcp-update must not verify under a read-only policy");
}
