//! # tpp-switch — a TPP-capable switch model
//!
//! Implements the switch side of the TPP contract (paper §3, §6):
//!
//! * [`memmap`] — the concrete state behind the unified address space:
//!   per-switch globals, per-stage SRAM + flow-table stats, per-port link
//!   stats, per-queue stats, and the per-packet indirections (Tables 6–8).
//! * [`tables`] — longest-prefix flow tables (indexed by exact prefix: one
//!   hash probe per distinct prefix length present) and ECMP group tables
//!   with deterministic flow hashing (§3.1, §2.4).
//! * [`pipeline`] — the distributed TCPU (§3.5): per-stage, out-of-order
//!   instruction execution with parse-time PUSH/POP serialization, proven
//!   equivalent to the reference interpreter for well-ordered programs.
//! * [`plan_cache`] — program-keyed cache of decoded [`TppRun`] plans, so
//!   the thousandth probe of a flow skips re-planning. Execution still
//!   bounds-checks every access (§3.3).
//! * [`switch`] — the full switch: ingress parse/execute/route/enqueue,
//!   drop-tail queues with enqueue snapshots, egress execute/rewrite,
//!   reflection (§4.4), write kill-switch (§4.3).
//! * [`cost`] — the hardware cost model (Tables 3–4): `NetFPGA` and ASIC
//!   cycle costs, worst-case added latency, resource accounting.
//!
//! ## Plan-cache contract
//!
//! A cached plan may hold only what is a function of the bytes the cache
//! keys on: the decoded program, its PUSH/POP slots and stage assignment.
//! Everything a TPP can *observe changing* — the clock, queue stats, stage
//! SRAM, flow counters, per-packet context, CSTORE effects — is read and
//! written per frame, in arrival order. The FNV trace digests (netsim
//! `NetStats::digest`, the `golden.*` behaviour pins) pin that a hit and a fresh
//! plan are indistinguishable.

#![forbid(unsafe_code)]

pub mod cost;
pub mod memmap;
pub mod pipeline;
pub mod plan_cache;
pub mod switch;
pub mod tables;

pub use cost::{CostProfile, ResourceModel, ASIC, NETFPGA};
pub use memmap::{MatchedEntries, PacketContext, SwitchBus, SwitchMemory};
pub use pipeline::{PipelineConfig, TppRun};
pub use plan_cache::{PlanCache, PlanCacheStats, PLAN_CACHE_SLOTS};
pub use switch::{DropReason, ReceiveOutcome, Switch, SwitchConfig, UTIL_INTERVAL_NS};
pub use tables::{Action, FlowKey, FlowTable, GroupTable};
