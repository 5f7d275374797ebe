//! # tpp-apps — dataplane tasks refactored onto TPPs (paper §2)
//!
//! Each module reproduces one of the paper's demonstrations, exactly as the
//! refactoring prescribes: the network executes only five-instruction TPPs;
//! all task-specific logic runs at end-hosts.
//!
//! * [`microburst`] — per-packet queue-occupancy visibility (§2.1, Fig. 1).
//! * [`rcp`] — RCP* congestion control with deployment-time α-fairness
//!   (§2.2, Fig. 2).
//! * [`netsight`] — packet histories; ndb / netshark / netwatch / loss
//!   localization (§2.3, Fig. 3).
//! * [`conga`] — CONGA*: congestion-aware flowlet load balancing (§2.4,
//!   Fig. 4).
//! * [`sketch`] — OpenSketch-style bitmap cardinality measurement (§2.5,
//!   Fig. 5).
//! * [`overhead`] — the Figure 10 / Table 5 end-host overhead experiments
//!   (§6.2).
//! * [`netverify`] — route-convergence verification and fault localization
//!   (§2.6).
//! * [`transient`] — transient-safety monitor for live churn: loops,
//!   blackholes, and path-conformance violations from TPP path traces.
//! * [`wan`] — WAN domains beyond the paper: coordinated video fan-out
//!   with branch-switch rate installation, and inter-DC RCP* over
//!   heterogeneous-RTT multi-ms links.
//! * [`common`] — frame builders, rate meters, CDFs.
//!
//! [`builtin_probes`] lists every application probe with the TPP-CP policy
//! its application is granted; `tpp-lint --all-apps` and the
//! `verify_apps` test both verify that list.

#![forbid(unsafe_code)]

pub mod common;
pub mod conga;
pub mod microburst;
pub mod netsight;
pub mod netverify;
pub mod overhead;
pub mod rcp;
pub mod sketch;
pub mod transient;
pub mod wan;

use tpp_core::probe::Probe;
use tpp_endhost::cp::{CentralCp, Policy};

/// One built-in application probe: the hop budget it is verified for and
/// the policy the central TPP-CP grants its application.
pub struct BuiltinProbe {
    pub name: &'static str,
    pub probe: Probe,
    pub hops: usize,
    pub policy: Policy,
}

/// Every built-in application probe, registering its application with `cp`.
///
/// `rcp` registers first and `wan-fanout` second, so on a fresh `cp` they
/// own the `AppSpecific` registers 0–1 and 2–3 that their write probes
/// hard-code. The pure collectors share one read-only registration,
/// `reader`.
pub fn builtin_probes(cp: &mut CentralCp) -> Vec<BuiltinProbe> {
    let mut policy = |name, regs| {
        let (app, _) = cp.register_app_with_regs(name, regs).expect("registers available");
        cp.policy_for(app, false).expect("registered")
    };
    let rcp_policy = policy("rcp", 2);
    let wan_policy = policy("wan-fanout", 2);
    let reader = policy("reader", 0);
    let row = |name, probe, hops, policy: &Policy| BuiltinProbe {
        name,
        probe,
        hops,
        policy: policy.clone(),
    };
    vec![
        row("microburst", microburst::microburst_probe(), 8, &reader),
        row("conga-path", conga::conga_probe(), 8, &reader),
        row("netsight-history", netsight::history_probe(), 8, &reader),
        row("netverify-trace", netverify::trace_probe(), 8, &reader),
        // The transient-safety monitor launches the netverify trace schema.
        row("transient-trace", netverify::trace_probe(), 8, &reader),
        row("sketch", sketch::sketch_probe(), 8, &reader),
        row("overhead", overhead::overhead_probe(), 8, &reader),
        // RCP*: the collect probe reads its registers, the update writes them.
        row("rcp-collect", rcp::collect_probe(), 8, &rcp_policy),
        row("rcp-update", rcp::update_probe(), 4, &rcp_policy),
        // WAN fan-out: discovery reads its version register, install writes
        // the version/rate pair behind a CEXEC branch gate.
        row("wan-discover", wan::discover_probe(), 8, &wan_policy),
        row("wan-install", wan::install_probe(), 4, &wan_policy),
    ]
}
