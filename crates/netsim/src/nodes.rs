//! The node layer of the simulator: `NodeStore`.
//!
//! One of the three layers the network coordinator composes (see
//! [`crate::net`]): it owns every node slot — local switches, local hosts,
//! and `Remote` markers for nodes that live on another shard of a
//! partitioned run — plus the shared [`FramePool`] that recycles retired
//! frame buffers. The store knows nothing about links or time; the
//! coordinator (and, through it, a `tpp-fabric` shard) drives it.

use tpp_core::wire::{EthernetAddress, Ipv4Address};
use tpp_switch::{Switch, SwitchConfig};

use crate::net::{HostApp, NodeId};

/// Default cap on retained buffers (see [`FramePool::set_high_water`]).
pub const DEFAULT_POOL_HIGH_WATER: usize = 1024;

/// A freelist of retired frame buffers, shared by the whole simulation.
///
/// Every packet is a real `Vec<u8>`; buffers normally move end to end
/// without copying, but they *die* at many points — link-fault drops,
/// switch drops (queue overflow, no route, TTL, malformed), host NIC-limit
/// drops, and application sinks that consume a delivered frame. The pool
/// collects those carcasses and hands them back out via [`FramePool::get`] /
/// [`crate::net::HostCtx::take_buf`] so multi-hop simulations stop
/// round-tripping the allocator for a fresh `Vec<u8>` on every such event.
/// The loop closes in `tpp_fabric::TrafficGen`: it recycles every frame it
/// sinks and builds every frame it sends in a buffer from `take_buf`, so a
/// steady-state cell allocates almost nothing per frame (asserted by
/// `crates/fabric/tests/alloc_steady.rs`).
/// In a sharded run each shard owns its own pool, preserving the
/// zero-allocation steady state without cross-core contention.
///
/// Growth is bounded by a configurable *high-water mark*
/// ([`FramePool::set_high_water`], default [`DEFAULT_POOL_HIGH_WATER`]):
/// buffers returned beyond it free normally, and [`FramePool::shrink_to`]
/// releases retained capacity on demand. Occupancy is surfaced through
/// [`crate::net::NetStats::pool_retained`].
#[derive(Debug)]
pub struct FramePool {
    free: Vec<Vec<u8>>,
    high_water: usize,
    /// Buffers handed back out instead of freshly allocated.
    pub recycled: u64,
    /// `get()` calls that had to allocate because the pool was empty.
    pub misses: u64,
}

impl Default for FramePool {
    fn default() -> Self {
        FramePool { free: Vec::new(), high_water: DEFAULT_POOL_HIGH_WATER, recycled: 0, misses: 0 }
    }
}

impl FramePool {
    /// A cleared buffer, recycled when possible.
    pub fn get(&mut self) -> Vec<u8> {
        match self.free.pop() {
            Some(mut b) => {
                b.clear();
                self.recycled += 1;
                b
            }
            None => {
                self.misses += 1;
                Vec::new()
            }
        }
    }

    /// Return a spent buffer to the pool. Beyond the high-water mark the
    /// buffer frees normally instead of being retained.
    pub fn put(&mut self, buf: Vec<u8>) {
        if buf.capacity() > 0 && self.free.len() < self.high_water {
            self.free.push(buf);
        }
    }

    /// The retention cap currently in force.
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// Change the retention cap; a lower cap immediately shrinks the pool
    /// down to it.
    pub fn set_high_water(&mut self, high_water: usize) {
        self.high_water = high_water;
        if self.free.len() > high_water {
            self.shrink_to(high_water);
        }
    }

    /// Free retained buffers down to `target`, releasing their memory.
    pub fn shrink_to(&mut self, target: usize) {
        self.free.truncate(target);
        self.free.shrink_to_fit();
    }

    /// Buffers currently available for reuse.
    pub fn len(&self) -> usize {
        self.free.len()
    }

    pub fn is_empty(&self) -> bool {
        self.free.is_empty()
    }
}

/// A host: one NIC, one application.
pub struct Host {
    pub id: NodeId,
    pub ip: Ipv4Address,
    pub mac: EthernetAddress,
    pub app: Box<dyn HostApp>,
    pub(crate) nic_queue: std::collections::VecDeque<Vec<u8>>,
    pub(crate) nic_queued_bytes: usize,
    /// NIC queue limit; beyond this the host drops locally.
    pub nic_limit_bytes: usize,
    pub tx_frames: u64,
    pub rx_frames: u64,
    pub nic_drops: u64,
    pub(crate) started: bool,
}

/// What occupies a node slot: a local switch, a local host, or a marker
/// that the node lives in another shard of a partitioned run.
pub(crate) enum NodeKind {
    Switch(Box<Switch>),
    Host(Box<Host>),
    Remote,
}

/// Switches, hosts, remote markers, and the frame pool.
#[derive(Default)]
pub struct NodeStore {
    pub(crate) nodes: Vec<NodeKind>,
    /// Freelist of retired frame buffers (see [`FramePool`]).
    pub pool: FramePool,
}

impl NodeStore {
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    pub(crate) fn add_switch(&mut self, cfg: SwitchConfig) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(NodeKind::Switch(Box::new(Switch::new(cfg))));
        id
    }

    pub(crate) fn add_host(&mut self, app: Box<dyn HostApp>) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(NodeKind::Host(Box::new(Host {
            id,
            ip: Ipv4Address::from_host_id(id.0),
            mac: EthernetAddress::from_node_id(id.0),
            app,
            nic_queue: std::collections::VecDeque::new(),
            nic_queued_bytes: 0,
            nic_limit_bytes: 1 << 20,
            tx_frames: 0,
            rx_frames: 0,
            nic_drops: 0,
            started: false,
        })));
        id
    }

    pub(crate) fn push_remote(&mut self) {
        self.nodes.push(NodeKind::Remote);
    }

    pub(crate) fn kind(&self, id: NodeId) -> &NodeKind {
        &self.nodes[id.0 as usize]
    }

    pub(crate) fn kind_mut(&mut self, id: NodeId) -> &mut NodeKind {
        &mut self.nodes[id.0 as usize]
    }

    /// Disjoint borrows of one node slot and the frame pool (hosts hand
    /// consumed buffers back to the pool from inside their callbacks).
    pub(crate) fn kind_and_pool_mut(&mut self, id: NodeId) -> (&mut NodeKind, &mut FramePool) {
        (&mut self.nodes[id.0 as usize], &mut self.pool)
    }

    /// Mutable access to a switch (panics if `id` is not a local switch).
    pub fn switch_mut(&mut self, id: NodeId) -> &mut Switch {
        match &mut self.nodes[id.0 as usize] {
            NodeKind::Switch(s) => s,
            _ => panic!("{id:?} is not a local switch"),
        }
    }

    pub fn switch(&self, id: NodeId) -> &Switch {
        match &self.nodes[id.0 as usize] {
            NodeKind::Switch(s) => s,
            _ => panic!("{id:?} is not a local switch"),
        }
    }

    pub fn host(&self, id: NodeId) -> &Host {
        match &self.nodes[id.0 as usize] {
            NodeKind::Host(h) => h,
            _ => panic!("{id:?} is not a local host"),
        }
    }

    pub fn host_mut(&mut self, id: NodeId) -> &mut Host {
        match &mut self.nodes[id.0 as usize] {
            NodeKind::Host(h) => h,
            _ => panic!("{id:?} is not a local host"),
        }
    }

    pub fn is_switch(&self, id: NodeId) -> bool {
        matches!(self.nodes[id.0 as usize], NodeKind::Switch(_))
    }

    pub fn is_host(&self, id: NodeId) -> bool {
        matches!(self.nodes[id.0 as usize], NodeKind::Host(_))
    }

    /// Whether this store owns `id` (false for `Remote` slots of a
    /// partitioned run).
    pub fn is_local(&self, id: NodeId) -> bool {
        !matches!(self.nodes[id.0 as usize], NodeKind::Remote)
    }

    /// Node ids of local switches, in id order.
    pub fn switch_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes
            .iter()
            .enumerate()
            .filter_map(|(i, n)| matches!(n, NodeKind::Switch(_)).then_some(NodeId(i as u32)))
    }

    /// Node ids of local hosts, in id order.
    pub fn host_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes
            .iter()
            .enumerate()
            .filter_map(|(i, n)| matches!(n, NodeKind::Host(_)).then_some(NodeId(i as u32)))
    }

    /// Decompose for [`crate::net::Network::split`].
    pub(crate) fn into_nodes(self) -> Vec<NodeKind> {
        self.nodes
    }
}
