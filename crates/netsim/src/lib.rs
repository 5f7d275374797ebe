//! # tpp-netsim — deterministic discrete-event network simulator
//!
//! The substrate on which the paper's experiments run (substituting for the
//! authors' Mininet/Open vSwitch testbed — see DESIGN.md §2), organized as
//! three explicit layers under a thin coordinator:
//!
//! * [`engine`] — the scheduler layer: a deterministic binary-heap event
//!   queue with content-keyed same-timestamp order.
//! * [`link`] — the link layer: full-duplex rate/delay links, per-link
//!   fault injection (drops, corruption), transmit sequencing, and
//!   in-flight frame queues.
//! * [`nodes`] — the node layer: switches (from `tpp-switch`), hosts with
//!   pluggable applications, and the frame-buffer pool.
//! * [`net`] — the coordinator gluing the layers into the event loop (and
//!   the shard kernel of `tpp-fabric`).
//! * [`scenario`] — declarative topology construction: a [`TopologySpec`]
//!   (star, dumbbell, line, leaf-spine, fat-trees plain/oversubscribed/
//!   asymmetric, jellyfish, edge-list import) built by [`TopologyBuilder`],
//!   plus [`ChurnSpec`] compiling timed or seeded-random churn into a
//!   reconfiguration plan.
//! * [`topology`] — the [`Topology`] type plus BFS shortest-path route
//!   installation with ECMP groups on ties.
//! * [`reconfig`] — runtime reconfiguration: scheduled route/link changes
//!   ([`ReconfigAction`]) and the dependency-ordered update scheduler
//!   ([`order_route_updates`]).
//!
//! Every packet is a real Ethernet frame; switches execute TPPs on real
//! bytes at every hop.

#![forbid(unsafe_code)]

pub mod engine;
pub mod link;
pub mod net;
pub mod nodes;
pub mod reconfig;
pub mod scenario;
pub mod topology;

pub use engine::{Scheduler, Time, MILLIS, SECONDS};
pub use link::LinkFabric;
pub use net::{
    FramePool, Host, HostApp, HostCtx, LinkSpec, NetStats, Network, NodeId, NullApp, RemoteFrame,
    ViolationKind,
};
pub use nodes::NodeStore;
pub use reconfig::{
    order_route_updates, plan_route_updates, ReconfigAction, ReconfigPlan, RouteUpdate,
};
pub use scenario::{viewer_fanout, ChurnSpec, TopologyBuilder, TopologySpec};
pub use topology::Topology;
