//! # tpp-fabric — sharded parallel simulation runtime
//!
//! The paper's headline claim is that TPPs execute at line rate across an
//! entire datacenter fabric; evaluating that at datacenter scale needs a
//! simulator that scales across cores. `tpp-fabric` partitions a built
//! [`tpp_netsim::Network`] into per-core *shards* — each owning a disjoint
//! set of switches and hosts plus its own event queue and frame pool — and
//! synchronizes them with the classic conservative-parallel discrete-event
//! recipe:
//!
//! * **Partitioning** ([`partition`](mod@partition)) — a union-find pass glues together
//!   anything joined by a zero-delay link (such links admit no lookahead,
//!   so they can never cross a shard boundary), optionally pulls hosts onto
//!   their edge switch for locality, then bin-packs the resulting
//!   components across shards. On fabrics with two delay scales — a
//!   multi-site WAN topology with microsecond intra-site links and
//!   millisecond WAN links — locality partitioning additionally glues
//!   every component whose link delays sit within 16× of each other, so
//!   only the slow WAN links are cut and the lookahead below equals the
//!   full WAN delay.
//! * **Lookahead epochs** ([`Fabric::run_until`]) — the minimum propagation
//!   delay `L` over cross-shard links bounds how far any shard can run
//!   ahead without risking a causality violation: a frame transmitted at
//!   time `t` cannot arrive remotely before `t + L`. Shards therefore
//!   advance in windows of length `L` and exchange boundary frames at a
//!   barrier between windows — null-message synchronization degenerated to
//!   its barrier form. One epoch loop does this for every [`ExecMode`]: one
//!   worker per shard, or one worker (the calling thread) for all of them.
//! * **Determinism** — the shard kernel orders same-timestamp events by a
//!   content-derived key, draws link faults from per-link RNG streams, and
//!   stamps cross-shard frames with per-link sequence numbers, so a run is
//!   bit-identical for a given seed regardless of the shard count or
//!   thread interleaving. [`tpp_netsim::NetStats::digest`] is the proof
//!   hook: the differential tests assert digest equality between the
//!   single-threaded `Network` loop and 2- and 4-shard fabrics.
//!
//! Applications implement the ordinary [`tpp_netsim::HostApp`] trait and
//! run unchanged on either runtime.

#![forbid(unsafe_code)]

pub mod partition;
pub mod runtime;
pub mod scenario;
pub mod workload;

pub use partition::{partition, PartitionStrategy};
pub use runtime::{ExecMode, Fabric};
pub use scenario::{Cell, Scenario, WorkloadSpec};
pub use workload::{install_traffic, TrafficConfig, TrafficGen, TrafficPattern};
