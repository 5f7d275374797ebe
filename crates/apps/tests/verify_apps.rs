//! Pinned: every built-in application probe verifies clean against the
//! segment table its app declares to the central TPP-CP.
//!
//! If any app's probe ever regresses into an out-of-bounds access, an
//! over-capacity layout, an uninitialized read or a policy violation, this
//! test (and `tpp-lint --all-apps` in CI) goes red before the probe gets
//! anywhere near a switch.

use tpp_apps::{conga, microburst, netsight, netverify, overhead, rcp, sketch, wan};
use tpp_core::probe::Probe;
use tpp_core::verify::{verify, VerifyOptions};
use tpp_core::wire::Tpp;
use tpp_endhost::cp::{CentralCp, Policy};

/// Compile `probe` for `hops` hops and verify it against `policy`'s
/// segments for that explicit budget, expecting acceptance.
fn assert_verifies(name: &str, probe: &Probe, hops: usize, policy: &Policy) -> Tpp {
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
    tpp
}

#[test]
fn all_builtin_app_probes_verify_clean_against_cp_segments() {
    let mut cp = CentralCp::new();
    // Registration order pins the AppSpecific register blocks the probes
    // hard-code: rcp owns regs 0-1, wan-fanout owns regs 2-3.
    let (rcp_app, first) = cp.register_app_with_regs("rcp", 2).unwrap();
    assert_eq!(first, 0);
    let (wan_app, first) = cp.register_app_with_regs("wan-fanout", 2).unwrap();
    assert_eq!(first, 2);
    let rcp_policy = cp.policy_for(rcp_app, false).unwrap();
    let wan_policy = cp.policy_for(wan_app, false).unwrap();

    // Pure collectors need only the read-everything segment any
    // registration grants.
    let reader_app = cp.register_app("reader");
    let reader = cp.policy_for(reader_app, false).unwrap();

    assert_verifies("microburst", &microburst::microburst_probe(), 8, &reader);
    assert_verifies("conga", &conga::conga_probe(), 8, &reader);
    assert_verifies("netsight-history", &netsight::history_probe(), 8, &reader);
    assert_verifies("netverify-trace", &netverify::trace_probe(), 8, &reader);
    // The transient-safety monitor launches the netverify trace schema.
    assert_verifies("transient-trace", &netverify::trace_probe(), 8, &reader);
    assert_verifies("sketch", &sketch::sketch_probe(), 8, &reader);
    assert_verifies("overhead", &overhead::overhead_probe(), 8, &reader);

    // RCP: phase-1 collect reads its registers, phase-3 update writes them.
    assert_verifies("rcp-collect", &rcp::collect_probe(), 8, &rcp_policy);
    assert_verifies("rcp-update", &rcp::update_probe(), 4, &rcp_policy);

    // WAN fan-out: discovery reads its version register, install writes the
    // version/rate pair behind a CEXEC branch gate.
    assert_verifies("wan-discover", &wan::discover_probe(), 8, &wan_policy);
    assert_verifies("wan-install", &wan::install_probe(), 4, &wan_policy);

    // Cross-check: the write probes are *rejected* under a policy that
    // does not own their registers — the deny path TPP-CP relies on.
    let foreign = reader;
    let update = rcp::update_probe().compile_hops(2).unwrap();
    let verdict =
        verify(&update, VerifyOptions { hops: Some(2), segments: Some(&foreign.segments) });
    assert!(!verdict.passed(), "rcp-update must not verify under a read-only policy");
}
