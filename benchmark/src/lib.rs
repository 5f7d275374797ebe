//! # The repo benchmark
//!
//! Seven closed-loop workloads over the TPP reproduction in `crates/*`, an
//! end-to-end rate that survives a noisy container (`ops_per_s`, taken from
//! the very fastest of many short fixed-size slices), a set-up time, and an
//! outside-in per-layer budget measured in a separate traced pass. It claims
//! no gain: it is the yardstick later changes are accepted or rejected against.
//! `README.md` beside this crate has the tables and the reasoning.

pub mod cli;
pub mod report;
pub mod rng;
pub mod runner;
pub mod stats;
pub mod trace;
pub mod workloads;

use trace::Tracer;

#[global_allocator]
static GLOBAL: trace::CountingAlloc = trace::CountingAlloc;

/// What one timed slice did. Only the program's own calls are inside `ns`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Slice {
    /// Ops completed (the workload's op: frame forwarded, frame-hop, ...).
    pub ops: u64,
    /// Ops that failed by the workload's definition; `ops + failed` were
    /// attempted.
    pub failed: u64,
    /// Host nanoseconds of the timed region.
    pub ns: u64,
    /// Slices of one phase do the same work and are ranked against each
    /// other only. The simulated workloads cut a deterministic simulation into
    /// steps and number them; the others leave it 0.
    pub phase: u32,
}

/// A named per-layer value from the traced pass.
pub type LayerValue = (&'static str, f64);

/// One benchmark workload after set-up. Every method is deterministic for a
/// seed except for the host time it reports.
pub trait Workload {
    /// Run one fixed-size slice with tracing and allocation counting off.
    /// `Err` is a violated output check (wrong digest, broken invariant):
    /// the run aborts, it is never folded into a lower rate.
    fn slice(&mut self) -> Result<Slice, String>;

    /// Digest of the workload's outputs, for comparing two commits by eye
    /// and for `--repeat-check`. Fixed once set-up has finished.
    fn output_digest(&self) -> u64;

    /// The traced pass: spans around every layer call this workload makes,
    /// layer micro-timings on the same generated inputs, counts and
    /// allocation counters. `seconds` is the host-time budget.
    fn traced(&mut self, tr: &mut Tracer, seconds: f64) -> Result<Vec<LayerValue>, String>;
}

/// A workload's entry in the table: its name, why it exists, what one op is,
/// and how to set it up from a seed. Set-up includes input generation,
/// topology build, route install, probe compile/verify and one warm-up
/// slice, which doubles as the full output check.
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub op: &'static str,
    pub setup: fn(u64) -> Result<Box<dyn Workload>, String>,
}

/// The seven workloads, in the order a round runs them.
pub const WORKLOADS: [Spec; 7] = [
    Spec {
        name: "switch_plain",
        why: "bare forwarding of minimum-size frames: bypasses the TCPU, so table lookup, hardening and hook overhead show undiluted",
        op: "frame forwarded",
        setup: workloads::switch::setup_plain,
    },
    Spec {
        name: "switch_tpp_hot",
        why: "the paper's headline path (parse, plan, TCPU, forward) on the 7 app programs, all plan-cache hits",
        op: "frame forwarded",
        setup: workloads::switch::setup_hot,
    },
    Spec {
        name: "switch_tpp_cold",
        why: "512 distinct programs thrash the 64-slot plan cache and 1 frame in 8 leaves the fast path gracefully",
        op: "frame forwarded",
        setup: workloads::switch::setup_cold,
    },
    Spec {
        name: "sim_dc",
        why: "k=4 fat-tree uniform cell: scheduler, network coordinator and links do the work, the TCPU little",
        op: "frame-hop",
        setup: workloads::sim::setup_dc,
    },
    Spec {
        name: "sim_wan_x2",
        why: "two-site WAN cell on a 2-shard threaded fabric: epochs, barriers and mixed ns/us scheduler levels dominate",
        op: "frame-hop",
        setup: workloads::sim::setup_wan,
    },
    Spec {
        name: "app_rcp",
        why: "full stack RCP* (Fig. 2): end-host harness, shim, executor and apps in the loop, with a paper reference",
        op: "frame-hop",
        setup: workloads::rcp::setup,
    },
    Spec {
        name: "endhost_shim",
        why: "the end-host shim cost (Table 5) driven directly: 100 filters, stamp out, completed TPPs in, typed decode",
        op: "frame through the shim",
        setup: workloads::shim::setup,
    },
];

pub fn spec(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|s| s.name == name)
}
