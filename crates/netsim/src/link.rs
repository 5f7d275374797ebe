//! The link layer of the simulator: `LinkFabric`.
//!
//! One of the three layers the network coordinator composes (see
//! [`crate::net`]): it owns every full-duplex link's state — peer wiring,
//! rate/delay/fault parameters, transmitter busy flags, per-link fault RNG
//! streams and transmit sequence numbers — plus the per-`(node, port)`
//! *in-flight queues*: frames that have left a transmitter and are
//! propagating toward a receiver. The layer computes serialization and
//! propagation delay and draws fault decisions; it never touches the event
//! queue or the nodes, which is what lets a `tpp-fabric` shard reuse it
//! unchanged: every shard carries the full port table (only the
//! transmitting side of a port ever consumes its RNG stream, so the copies
//! never diverge) while owning only its local nodes.

use std::collections::VecDeque;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::engine::Time;
use crate::net::{splitmix64, NodeId};

/// Link parameters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LinkSpec {
    pub rate_mbps: u64,
    pub delay_ns: u64,
    /// Probability a frame is silently dropped in flight.
    pub drop_prob: f64,
    /// Probability one byte of the frame is flipped in flight.
    pub corrupt_prob: f64,
}

impl LinkSpec {
    pub fn new(rate_mbps: u64, delay_ns: u64) -> Self {
        LinkSpec { rate_mbps, delay_ns, drop_prob: 0.0, corrupt_prob: 0.0 }
    }
}

#[derive(Clone, Debug)]
struct Port {
    peer: (NodeId, u8),
    spec: LinkSpec,
    busy: bool,
    /// Fault-injection stream for this transmitter. Keyed to the link end,
    /// not the network, so draws depend only on the order of frames through
    /// this port — a property sharding preserves.
    rng: StdRng,
    /// Frames handed to this transmitter so far: a per-link total order
    /// carried on cross-shard frames for deterministic replay.
    tx_seq: u64,
}

/// Stream seed for one link transmitter, decorrelated per `(node, port)`.
fn link_stream_seed(seed: u64, node: NodeId, port: u8) -> u64 {
    seed ^ splitmix64(((node.0 as u64) << 8) | port as u64)
}

/// What [`LinkFabric::transmit`] decided for one frame.
pub(crate) struct Transmit {
    /// When the transmitter finishes serializing (and frees up).
    pub tx_done_at: Time,
    /// Receiving `(node, port)`.
    pub peer: (NodeId, u8),
    /// Transmit end plus propagation delay.
    pub arrive_at: Time,
    /// Per-sender-port transmit sequence number.
    pub seq: u64,
    /// Frame lost to the link's drop probability.
    pub dropped: bool,
    /// `(byte index, bit mask)` to flip, when corruption fired.
    pub corrupt: Option<(usize, u8)>,
}

/// Link state, delay computation, and fault streams for the whole topology.
pub struct LinkFabric {
    ports: Vec<Vec<Port>>,
    /// Frames propagating toward `(node, port)`, in arrival order.
    in_flight: Vec<Vec<VecDeque<Vec<u8>>>>,
    seed: u64,
}

impl LinkFabric {
    pub(crate) fn new(seed: u64) -> Self {
        LinkFabric { ports: Vec::new(), in_flight: Vec::new(), seed }
    }

    pub(crate) fn seed(&self) -> u64 {
        self.seed
    }

    /// Register a new node slot (no links yet).
    pub(crate) fn add_node(&mut self) {
        self.ports.push(Vec::new());
        self.in_flight.push(Vec::new());
    }

    /// Ports wired on `node`.
    pub fn degree(&self, node: NodeId) -> usize {
        self.ports[node.0 as usize].len()
    }

    /// Connect two nodes full-duplex; ports are auto-assigned and returned.
    pub(crate) fn connect(&mut self, a: NodeId, b: NodeId, spec: LinkSpec) -> (u8, u8) {
        let pa = self.ports[a.0 as usize].len() as u8;
        let pb = self.ports[b.0 as usize].len() as u8;
        self.ports[a.0 as usize].push(Port {
            peer: (b, pb),
            spec,
            busy: false,
            rng: StdRng::seed_from_u64(link_stream_seed(self.seed, a, pa)),
            tx_seq: 0,
        });
        self.ports[b.0 as usize].push(Port {
            peer: (a, pa),
            spec,
            busy: false,
            rng: StdRng::seed_from_u64(link_stream_seed(self.seed, b, pb)),
            tx_seq: 0,
        });
        self.in_flight[a.0 as usize].push(VecDeque::new());
        self.in_flight[b.0 as usize].push(VecDeque::new());
        (pa, pb)
    }

    pub(crate) fn is_connected(&self, node: NodeId, port: u8) -> bool {
        self.ports[node.0 as usize].get(port as usize).is_some()
    }

    pub(crate) fn is_busy(&self, node: NodeId, port: u8) -> bool {
        self.ports[node.0 as usize][port as usize].busy
    }

    pub(crate) fn clear_busy(&mut self, node: NodeId, port: u8) {
        self.ports[node.0 as usize][port as usize].busy = false;
    }

    /// Degrade a link (both directions); returns the peer endpoint so the
    /// coordinator can mirror status into switch memory maps.
    pub(crate) fn set_faults(
        &mut self,
        a: NodeId,
        port_a: u8,
        drop_prob: f64,
        corrupt_prob: f64,
    ) -> (NodeId, u8) {
        let (peer, peer_port) = {
            let p = &mut self.ports[a.0 as usize][port_a as usize];
            p.spec.drop_prob = drop_prob;
            p.spec.corrupt_prob = corrupt_prob;
            p.peer
        };
        let back = &mut self.ports[peer.0 as usize][peer_port as usize];
        back.spec.drop_prob = drop_prob;
        back.spec.corrupt_prob = corrupt_prob;
        (peer, peer_port)
    }

    /// Change the rate/delay of a link (both directions); returns the peer
    /// endpoint so the coordinator can mirror the speed into switch memory
    /// maps. A frame already serializing keeps its scheduled completion;
    /// the new profile applies from the next transmit on.
    pub(crate) fn set_profile(
        &mut self,
        a: NodeId,
        port_a: u8,
        rate_mbps: u64,
        delay_ns: Time,
    ) -> (NodeId, u8) {
        assert!(rate_mbps > 0, "link rate must be positive");
        let (peer, peer_port) = {
            let p = &mut self.ports[a.0 as usize][port_a as usize];
            p.spec.rate_mbps = rate_mbps;
            p.spec.delay_ns = delay_ns;
            p.peer
        };
        let back = &mut self.ports[peer.0 as usize][peer_port as usize];
        back.spec.rate_mbps = rate_mbps;
        back.spec.delay_ns = delay_ns;
        (peer, peer_port)
    }

    /// Commit one frame of `frame_len` bytes to the transmitter at
    /// `(node, port)`: mark it busy, compute serialization and propagation
    /// delay, draw drop/corruption from the port's own fault stream, and
    /// take a transmit sequence number. Fault injection happens "on the
    /// wire": the draw order (drop, then corrupt byte, then corrupt bit)
    /// is part of the deterministic contract.
    pub(crate) fn transmit(
        &mut self,
        now: Time,
        node: NodeId,
        port: u8,
        frame_len: usize,
    ) -> Transmit {
        let p = &mut self.ports[node.0 as usize][port as usize];
        debug_assert!(!p.busy, "transmit on a busy port");
        p.busy = true;
        let spec = p.spec;
        let dropped = spec.drop_prob > 0.0 && p.rng.random::<f64>() < spec.drop_prob;
        let corrupt =
            if !dropped && spec.corrupt_prob > 0.0 && p.rng.random::<f64>() < spec.corrupt_prob {
                Some((p.rng.random_range(0..frame_len), 1u8 << p.rng.random_range(0..8)))
            } else {
                None
            };
        let seq = p.tx_seq;
        p.tx_seq += 1;
        let tx_ns = frame_len as u64 * 8 * 1000 / spec.rate_mbps; // bytes*8 / (Mbps) in ns
        Transmit {
            tx_done_at: now + tx_ns,
            peer: p.peer,
            arrive_at: now + tx_ns + spec.delay_ns,
            seq,
            dropped,
            corrupt,
        }
    }

    /// Hand a frame to the in-flight queue heading for `(node, port)`.
    pub(crate) fn push_in_flight(&mut self, node: NodeId, port: u8, frame: Vec<u8>) {
        self.in_flight[node.0 as usize][port as usize].push_back(frame);
    }

    /// Take the next arrived frame at `(node, port)`, if any.
    pub(crate) fn pop_in_flight(&mut self, node: NodeId, port: u8) -> Option<Vec<u8>> {
        self.in_flight[node.0 as usize][port as usize].pop_front()
    }

    /// Adjacency of a node, allocation-free: `(local port, peer)` per link.
    pub fn neighbors(&self, node: NodeId) -> impl Iterator<Item = (u8, NodeId)> + '_ {
        self.ports[node.0 as usize].iter().enumerate().map(|(p, port)| (p as u8, port.peer.0))
    }

    /// Every directed link, allocation-free:
    /// `(node, port, peer, peer_port, spec)`.
    pub fn links(&self) -> impl Iterator<Item = (NodeId, u8, NodeId, u8, LinkSpec)> + '_ {
        self.ports.iter().enumerate().flat_map(|(n, ports)| {
            ports.iter().enumerate().map(move |(p, port)| {
                (NodeId(n as u32), p as u8, port.peer.0, port.peer.1, port.spec)
            })
        })
    }

    /// A per-shard copy for [`crate::net::Network::split`]: the full port
    /// table (specs, peers, fault streams) with empty in-flight queues.
    pub(crate) fn split_clone(&self) -> LinkFabric {
        LinkFabric {
            ports: self.ports.clone(),
            in_flight: self
                .ports
                .iter()
                .map(|ps| ps.iter().map(|_| VecDeque::new()).collect())
                .collect(),
            seed: self.seed,
        }
    }
}
