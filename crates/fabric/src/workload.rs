//! A deterministic, `Send` traffic workload for scale runs and
//! differential tests: every host streams UDP frames (a fraction carrying
//! transparent TPPs) to pseudo-randomly chosen peers on a fixed timer
//! cadence. All randomness comes from a per-host stream seeded by the
//! host's node id, so behavior is identical no matter which shard — or
//! how many shards — the host lands on.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use tpp_core::asm::TppBuilder;
use tpp_core::wire::{ethernet, udp_frame_into, EthernetAddress, Ipv4Address, Tpp, UdpFrameRepr};
use tpp_netsim::{HostApp, HostCtx, Time};

/// UDP port of the generated traffic, both ends.
const TRAFFIC_PORT: u16 = 5001;

/// How each generator picks destinations (see [`TrafficGen`]). Every
/// pattern draws only from the host's own RNG stream and per-host state,
/// so all of them shard deterministically.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TrafficPattern {
    /// Every frame independently picks a uniform random peer — the
    /// original workload; its RNG call sequence is unchanged, so seeded
    /// digests from before patterns existed still hold.
    Uniform,
    /// Pareto flow sizes (shape 1.5, mean `mean_frames`): pick a uniform
    /// random peer, stream a heavy-tailed number of frames to it, repeat.
    /// The elephant/mice mix that stresses CONGA*-style load balancing.
    HeavyTailed {
        /// Mean flow size in frames (tail extends ~100× beyond).
        mean_frames: u64,
    },
    /// The first `sinks` hosts (in peer-list order) only receive; every
    /// other host aims every frame at a uniform random sink. The
    /// fan-in pattern that stresses the micro-burst detector.
    Incast {
        /// Receive-only hosts (clamped to `1..peers`).
        sinks: usize,
    },
    /// All-to-all shuffle: host `i` walks the peer list round-robin
    /// starting at `i + 1`, like a `MapReduce` shuffle stage.
    Shuffle,
    /// One-to-many fan-out: the first host in peer-list order streams to
    /// every other host round-robin; everyone else only receives. The
    /// traffic shape of the coordinated video multicast in
    /// `tpp_apps::wan` (no RNG draws — purely positional).
    FanOut,
    /// Cross-site transfers on a [`tpp_netsim::TopologySpec::MultiSite`]
    /// fabric: with site-major hosts split into `sites` equal groups, host
    /// `i` of site `s` targets host `i` of each *remote* site in turn,
    /// cycling through sites round-robin. Every frame crosses a WAN link
    /// (no RNG draws — purely positional).
    InterDcTransfer {
        /// Site count — must divide the host count (as `MultiSite`
        /// guarantees).
        sites: usize,
    },
}

/// UDP payload bytes of every generated frame (before the TPP).
const PAYLOAD: usize = 256;
/// Every `TPP_EVERY`-th generated frame carries the transparent TPP.
const TPP_EVERY: u64 = 4;

/// Workload knobs.
#[derive(Clone, Debug)]
pub struct TrafficConfig {
    /// Frames sent per timer tick.
    pub frames_per_tick: usize,
    /// Timer cadence.
    pub tick_ns: Time,
    /// Stop generating at this simulation time (sinks keep counting).
    pub stop_at: Time,
    /// Base RNG seed (combined with the host's node id).
    pub seed: u64,
    /// Destination-selection pattern.
    pub pattern: TrafficPattern,
}

impl Default for TrafficConfig {
    fn default() -> Self {
        TrafficConfig {
            frames_per_tick: 4,
            tick_ns: 10_000,
            stop_at: Time::MAX,
            seed: 1,
            pattern: TrafficPattern::Uniform,
        }
    }
}

/// The per-host generator/sink. Install one on every host, sharing the
/// `delivered` counter to observe aggregate progress.
pub struct TrafficGen {
    cfg: TrafficConfig,
    /// Node ids of all hosts in the topology (potential destinations).
    peers: Arc<Vec<u32>>,
    rng: Option<StdRng>,
    /// The visibility TPP as the wire section every `TPP_EVERY`-th frame
    /// carries, serialized once: nothing in it varies per frame.
    section: Vec<u8>,
    sent: u64,
    /// This host's position in `peers` (set in `start`).
    my_index: usize,
    /// Current heavy-tailed flow: destination and frames remaining.
    flow_dst: u32,
    flow_left: u64,
    /// Round-robin offset for [`TrafficPattern::Shuffle`].
    rr: usize,
    /// Frames delivered to *this and every sibling* generator.
    pub delivered: Arc<AtomicU64>,
}

/// The §2.1 visibility program: per-hop switch id, port, and queue
/// occupancy — its result words depend on queue state at every hop,
/// which makes the trace digest sensitive to any ordering slip.
fn visibility_tpp() -> Tpp {
    TppBuilder::stack_mode()
        .push_m("Switch:SwitchID")
        .unwrap()
        .push_m("PacketMetadata:OutputPort")
        .unwrap()
        .push_m("Queue:QueueOccupancy")
        .unwrap()
        .hops(6)
        .build()
        .unwrap()
}

impl TrafficGen {
    pub fn new(cfg: TrafficConfig, peers: Arc<Vec<u32>>, delivered: Arc<AtomicU64>) -> Self {
        // Piggy-backed on IPv4 frames only, so the displaced ethertype is
        // known here.
        let section =
            Tpp { encap_proto: ethernet::ethertype::IPV4, ..visibility_tpp() }.serialize();
        TrafficGen {
            cfg,
            peers,
            rng: None,
            section,
            sent: 0,
            my_index: 0,
            flow_dst: 0,
            flow_left: 0,
            rr: 0,
            delivered,
        }
    }

    /// Pareto(shape 1.5) flow size with the given mean, clamped to
    /// `[1, 100 * mean]` so one draw can't outlive a whole run.
    fn pareto_frames(rng: &mut StdRng, mean_frames: u64) -> u64 {
        // mean = shape * scale / (shape - 1) = 3 * scale for shape 1.5.
        let scale = mean_frames as f64 / 3.0;
        let u = (1.0 - rng.random::<f64>()).max(1e-9);
        let size = scale / u.powf(1.0 / 1.5);
        (size.ceil() as u64).clamp(1, mean_frames.saturating_mul(100).max(1))
    }

    /// Next destination under the configured pattern. Must be called only
    /// from sending hosts (Incast sinks never reach here).
    fn next_dst(&mut self, node: u32) -> u32 {
        let rng = self.rng.as_mut().unwrap();
        match self.cfg.pattern {
            TrafficPattern::Uniform => {
                let i = rng.random_range(0..self.peers.len());
                if self.peers[i] == node {
                    self.peers[(i + 1) % self.peers.len()]
                } else {
                    self.peers[i]
                }
            }
            TrafficPattern::HeavyTailed { mean_frames } => {
                if self.flow_left == 0 {
                    let i = rng.random_range(0..self.peers.len());
                    self.flow_dst = if self.peers[i] == node {
                        self.peers[(i + 1) % self.peers.len()]
                    } else {
                        self.peers[i]
                    };
                    self.flow_left = Self::pareto_frames(rng, mean_frames);
                }
                self.flow_left -= 1;
                self.flow_dst
            }
            TrafficPattern::Incast { sinks } => {
                let n = sinks.clamp(1, self.peers.len() - 1);
                self.peers[rng.random_range(0..n)]
            }
            TrafficPattern::Shuffle => {
                let len = self.peers.len();
                let mut dst = self.peers[(self.my_index + 1 + self.rr) % len];
                self.rr = (self.rr + 1) % len;
                if dst == node {
                    dst = self.peers[(self.my_index + 1 + self.rr) % len];
                    self.rr = (self.rr + 1) % len;
                }
                dst
            }
            TrafficPattern::FanOut => {
                // Only peer 0 sends (passive hosts never reach here):
                // round-robin over everyone else.
                let len = self.peers.len();
                let dst = self.peers[1 + self.rr % (len - 1)];
                self.rr = (self.rr + 1) % (len - 1);
                dst
            }
            TrafficPattern::InterDcTransfer { sites } => {
                let sites = sites.clamp(2, self.peers.len());
                let per_site = (self.peers.len() / sites).max(1);
                let (my_site, slot) = (self.my_index / per_site, self.my_index % per_site);
                // Cycle over the remote sites only: the whole point is
                // that every frame crosses a WAN link.
                let target_site = (my_site + 1 + self.rr % (sites - 1)) % sites;
                self.rr = (self.rr + 1) % (sites - 1);
                self.peers[(target_site * per_site + slot) % self.peers.len()]
            }
        }
    }

    /// Hosts that never send under the configured pattern: the first
    /// `sinks` peers of [`TrafficPattern::Incast`], everyone but peer 0
    /// under [`TrafficPattern::FanOut`].
    fn is_passive(&self) -> bool {
        match self.cfg.pattern {
            TrafficPattern::Incast { sinks } => {
                self.my_index < sinks.clamp(1, self.peers.len() - 1)
            }
            TrafficPattern::FanOut => self.my_index != 0,
            _ => false,
        }
    }

    /// Write the next frame to `dst` into `buf` (a buffer from
    /// [`HostCtx::take_buf`]) in one pass: every `TPP_EVERY`-th carries the
    /// TPP section between the Ethernet and IPv4 headers.
    fn build_frame(
        &mut self,
        buf: &mut Vec<u8>,
        src_ip: Ipv4Address,
        src_mac: EthernetAddress,
        dst: u32,
    ) {
        self.sent += 1;
        let with_tpp = self.sent.is_multiple_of(TPP_EVERY);
        let hdr = UdpFrameRepr {
            src_mac,
            dst_mac: EthernetAddress::from_node_id(dst),
            src_ip,
            dst_ip: Ipv4Address::from_host_id(dst),
            src_port: TRAFFIC_PORT,
            dst_port: TRAFFIC_PORT,
        };
        let section: &[u8] = if with_tpp { &self.section } else { &[] };
        udp_frame_into(buf, &hdr, PAYLOAD, section);
    }

    /// Seat the generator on host `node`: its private RNG stream and its
    /// position in the peer list.
    fn seat(&mut self, node: u32) {
        self.rng = Some(StdRng::seed_from_u64(self.cfg.seed ^ ((node as u64) << 20)));
        self.my_index =
            self.peers.iter().position(|&p| p == node).expect("host is in the peer list");
    }
}

impl HostApp for TrafficGen {
    fn start(&mut self, ctx: &mut HostCtx<'_>) {
        self.seat(ctx.node.0);
        if self.is_passive() {
            return; // receive-only: no timer, no RNG draws
        }
        // Stagger first ticks across hosts to avoid a thundering herd.
        let jitter = self.rng.as_mut().unwrap().random_range(0..self.cfg.tick_ns);
        ctx.set_timer(jitter, 0);
    }

    fn on_timer(&mut self, ctx: &mut HostCtx<'_>, _token: u64) {
        if ctx.now >= self.cfg.stop_at {
            return;
        }
        for _ in 0..self.cfg.frames_per_tick {
            let dst = self.next_dst(ctx.node.0);
            let mut frame = ctx.take_buf();
            self.build_frame(&mut frame, ctx.ip, ctx.mac, dst);
            ctx.send(frame);
        }
        ctx.set_timer(self.cfg.tick_ns, 0);
    }

    fn on_frame(&mut self, ctx: &mut HostCtx<'_>, frame: Vec<u8>) {
        self.delivered.fetch_add(1, Ordering::Relaxed);
        ctx.recycle(frame);
    }
}

/// Install [`TrafficGen`]s on every host of a built topology; returns the
/// shared delivered-frames counter.
pub fn install_traffic(
    net: &mut tpp_netsim::Network,
    hosts: &[tpp_netsim::NodeId],
    cfg: &TrafficConfig,
) -> Arc<AtomicU64> {
    let peers = Arc::new(hosts.iter().map(|h| h.0).collect::<Vec<_>>());
    let delivered = Arc::new(AtomicU64::new(0));
    for &h in hosts {
        net.set_app(h, Box::new(TrafficGen::new(cfg.clone(), peers.clone(), delivered.clone())));
    }
    delivered
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpp_core::wire::{insert_transparent, ipv4, udp, EthernetRepr};

    /// The nested construction `build_frame` used to do (four allocations,
    /// then a clone-and-serialize of the TPP), kept as its oracle.
    fn nested_frame(
        src_ip: Ipv4Address,
        src_mac: EthernetAddress,
        dst: u32,
        payload: usize,
        tpp: Option<&Tpp>,
    ) -> Vec<u8> {
        let dst_ip = Ipv4Address::from_host_id(dst);
        let u = udp::Repr { src_port: 5001, dst_port: 5001, payload_len: payload };
        let udp_b = u.encapsulate(src_ip, dst_ip, &vec![0u8; payload]);
        let ip = ipv4::Repr {
            src: src_ip,
            dst: dst_ip,
            protocol: ipv4::protocol::UDP,
            ttl: 64,
            payload_len: udp_b.len(),
        };
        let plain = EthernetRepr {
            dst: EthernetAddress::from_node_id(dst),
            src: src_mac,
            ethertype: ethernet::ethertype::IPV4,
        }
        .encapsulate(&ip.encapsulate(&udp_b));
        match tpp {
            Some(t) => insert_transparent(&plain, t),
            None => plain,
        }
    }

    #[test]
    fn frames_match_the_nested_construction_for_every_pattern() {
        let patterns = [
            TrafficPattern::Uniform,
            TrafficPattern::HeavyTailed { mean_frames: 5 },
            TrafficPattern::Incast { sinks: 2 },
            TrafficPattern::Shuffle,
            TrafficPattern::FanOut,
            TrafficPattern::InterDcTransfer { sites: 2 },
        ];
        // Sparse ids: the high bytes of a destination must reach the frame.
        let peers = Arc::new(vec![20u32, 300, 70_000, 9, 0x00ab_cdef, 41, 5, 1_000_000]);
        let tpp = visibility_tpp();
        for pattern in patterns {
            // Between them peers 0 and 3 send under every pattern: peer 0 is
            // an Incast sink, peer 3 only listens under FanOut.
            for node in [peers[0], peers[3]] {
                let cfg = TrafficConfig { pattern: pattern.clone(), ..TrafficConfig::default() };
                let mut g = TrafficGen::new(cfg, peers.clone(), Arc::default());
                g.seat(node);
                if g.is_passive() {
                    continue;
                }
                let (src_ip, src_mac) =
                    (Ipv4Address::from_host_id(node), EthernetAddress::from_node_id(node));
                // One buffer reused dirty, like one coming off the pool.
                let mut buf = vec![0xEEu8; 64];
                for n in 1..=24u64 {
                    let dst = g.next_dst(node);
                    g.build_frame(&mut buf, src_ip, src_mac, dst);
                    let carries = n.is_multiple_of(TPP_EVERY);
                    let want = nested_frame(src_ip, src_mac, dst, PAYLOAD, carries.then_some(&tpp));
                    assert_eq!(buf, want, "{pattern:?} frame {n} to {dst}");
                }
            }
        }
    }
}
