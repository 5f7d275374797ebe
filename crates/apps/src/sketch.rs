//! Low-overhead measurement: the `OpenSketch` bitmap sketch refactored onto
//! TPPs (paper §2.5, Figure 5).
//!
//! `OpenSketch` needs line-rate hash units inside switches. The TPP
//! refactoring observes that end-hosts can hash cheaply in software; the
//! only thing they lack is the packet's *routing context*, which this TPP
//! provides:
//!
//! ```text
//! PUSH [Switch:ID]
//! PUSH [PacketMetadata:OutputPort]
//! ```
//!
//! Each receiving host sets bit `hash(dst IP) mod b` in one bitmap per
//! `(switch, link)` its incoming packets traversed. Bit-set is commutative,
//! so the per-host bitmaps can be OR-aggregated by a central link-monitoring
//! service, which estimates per-link unique-destination cardinality with
//! the classic estimator `b * ln(b / z)` (z = unset bits) [Estan et al.].

use std::collections::{BTreeMap, BTreeSet};

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::common::{shared, udp_frame, Shared, DATA_PORT};
use tpp_core::probe::Probe;
use tpp_core::wire::Ipv4Address;
use tpp_endhost::harness::{Aggregator, Endhost, Harness};
use tpp_endhost::Filter;
use tpp_netsim::Time;
use tpp_netsim::TopologySpec;

/// The §2.5 routing-context probe schema.
pub fn sketch_probe() -> Probe {
    Probe::stack("sketch")
        .field("switch", "Switch:ID")
        .field("out_port", "PacketMetadata:OutputPort")
}

/// A direct bitmap sketch for set-cardinality estimation [Estan et al.].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BitmapSketch {
    bits: Vec<u64>,
    pub b: usize,
}

impl BitmapSketch {
    pub fn new(b: usize) -> Self {
        assert!(b > 0 && b.is_multiple_of(64), "bitmap size must be a multiple of 64");
        BitmapSketch { bits: vec![0; b / 64], b }
    }

    pub fn set(&mut self, index: usize) {
        let i = index % self.b;
        self.bits[i / 64] |= 1u64 << (i % 64);
    }

    pub fn insert(&mut self, item: u32) {
        self.set(hash_item(item) as usize);
    }

    pub fn unset_count(&self) -> usize {
        self.b - self.bits.iter().map(|w| w.count_ones() as usize).sum::<usize>()
    }

    /// The cardinality estimate `b * ln(b / z)` (§2.5).
    pub fn estimate(&self) -> f64 {
        let z = self.unset_count();
        if z == 0 {
            return f64::INFINITY; // saturated: undersized bitmap
        }
        self.b as f64 * (self.b as f64 / z as f64).ln()
    }

    /// OR-merge (the commutative aggregation the refactoring exploits).
    pub fn merge(&mut self, other: &BitmapSketch) {
        assert_eq!(self.b, other.b);
        for (a, b) in self.bits.iter_mut().zip(&other.bits) {
            *a |= b;
        }
    }

    /// Bytes of memory this sketch occupies.
    pub fn size_bytes(&self) -> usize {
        self.bits.len() * 8
    }
}

/// End-host hash for sketch indices (xorshift-mix; any well-mixed hash
/// works — that's the point of doing it in software).
pub fn hash_item(x: u32) -> u32 {
    let mut h = x.wrapping_mul(0x9E37_79B9);
    h ^= h >> 16;
    h = h.wrapping_mul(0x85EB_CA6B);
    h ^= h >> 13;
    h
}

/// A link identity in sketch tables.
pub type LinkKey = (u32, u32); // (switch id, output port)

const TIMER_SEND: u64 = 1;

/// A host participating in the measurement task: sends packets to random
/// peers (each stamped with the sketch TPP at the configured sampling
/// frequency) and maintains per-link bitmaps for its *incoming* traffic.
/// Construct with [`SketchHost::new`].
pub struct SketchHost {
    pub peers: Vec<Ipv4Address>,
    pub bitmap_bits: usize,
    pub period_ns: Time,
    rng: StdRng,
    /// Local sketch state: one bitmap per (switch, link).
    pub bitmaps: Shared<BTreeMap<LinkKey, BitmapSketch>>,
    /// Ground truth kept alongside for accuracy evaluation: the actual set
    /// of destination IPs (this host's) recorded per link.
    pub truth: Shared<BTreeMap<LinkKey, BTreeSet<u32>>>,
    pub packets_sent: u64,
}

/// The wired measurement application.
pub type SketchApp = Endhost<SketchHost>;

impl SketchHost {
    pub fn new(
        peers: Vec<Ipv4Address>,
        bitmap_bits: usize,
        sample_frequency: u32,
        seed: u64,
    ) -> SketchApp {
        let state = SketchHost {
            peers,
            bitmap_bits,
            period_ns: 200_000,
            rng: StdRng::seed_from_u64(seed),
            bitmaps: shared(BTreeMap::new()),
            truth: shared(BTreeMap::new()),
            packets_sent: 0,
        };
        Harness::new(state)
            .shim_seed(seed ^ 0x5EEC)
            // Consume completions locally: this host *is* the destination of
            // the carrying packet, and "index = hash(packet.ip.dest);
            // foreach (switch, link) in tpp: bitmask[switch][index] = 1"
            // (§2.5).
            .stamp_with(
                sketch_probe().app_id(5).hops(8),
                Filter::udp(),
                sample_frequency,
                Aggregator::Local,
                |s, _io, c| {
                    let dst = c.flow.dst.to_u32();
                    let bits = s.bitmap_bits;
                    // Resolve names once per TPP (one arrives per sampled
                    // data packet).
                    let switch = c.probe.index_of("switch").unwrap();
                    let out_port = c.probe.index_of("out_port").unwrap();
                    let mut maps = s.bitmaps.borrow_mut();
                    let mut truth = s.truth.borrow_mut();
                    for r in c.hops() {
                        let key = (r.at(switch).unwrap_or(0), r.at(out_port).unwrap_or(0));
                        maps.entry(key).or_insert_with(|| BitmapSketch::new(bits)).insert(dst);
                        truth.entry(key).or_default().insert(dst);
                    }
                },
            )
            .on_start(|s, io| io.ctx.set_timer(s.period_ns, TIMER_SEND))
            .on_timer(|s, io, token| {
                if token != TIMER_SEND || s.peers.is_empty() {
                    return;
                }
                let dst = s.peers[s.rng.random_range(0..s.peers.len())];
                let frame = udp_frame(io.ctx.ip, dst, 9000, DATA_PORT, 400);
                io.send_data(frame);
                s.packets_sent += 1;
                io.ctx.set_timer(s.period_ns, TIMER_SEND);
            })
            .build()
            .expect("static wiring")
    }
}

/// Per-link accuracy row from a sketch run.
#[derive(Clone, Debug)]
pub struct LinkEstimate {
    pub link: LinkKey,
    pub estimate: f64,
    pub truth: usize,
}

/// The Figure 5 experiment result.
pub struct SketchResult {
    pub links: Vec<LinkEstimate>,
    pub mean_relative_error: f64,
    pub memory_bytes_per_host: usize,
    pub packets_sent: u64,
}

/// Run the measurement task on a k=4 fat-tree: every host sends to random
/// peers; the "link monitoring service" aggregation is the OR-merge of all
/// hosts' bitmaps (done here by the driver, §2.5 does it every 10 s).
pub fn run_sketch(
    duration: Time,
    bitmap_bits: usize,
    sample_frequency: u32,
    seed: u64,
) -> SketchResult {
    let mut topo =
        TopologySpec::FatTree { k: 4 }.builder().link_mbps(1000).delay_ns(5_000).seed(seed).build();
    let hosts = topo.hosts.clone();
    let ips: Vec<Ipv4Address> = hosts.iter().map(|&h| topo.net.host(h).ip).collect();
    for (i, &h) in hosts.iter().enumerate() {
        let peers: Vec<Ipv4Address> =
            ips.iter().enumerate().filter(|&(j, _)| j != i).map(|(_, &ip)| ip).collect();
        topo.net.set_app(
            h,
            Box::new(SketchHost::new(peers, bitmap_bits, sample_frequency, seed ^ (i as u64 + 1))),
        );
    }
    topo.net.run_until(duration);

    // Aggregate (the collector service): OR bitmaps, union truth sets.
    let mut agg: BTreeMap<LinkKey, BitmapSketch> = BTreeMap::new();
    let mut truth: BTreeMap<LinkKey, BTreeSet<u32>> = BTreeMap::new();
    let mut packets_sent = 0;
    let mut mem_per_host = 0usize;
    for &h in &hosts {
        let app = topo.net.app_mut::<SketchApp>(h);
        packets_sent += app.packets_sent;
        let maps = app.bitmaps.borrow();
        mem_per_host = mem_per_host.max(maps.values().map(BitmapSketch::size_bytes).sum());
        for (k, m) in maps.iter() {
            agg.entry(*k).or_insert_with(|| BitmapSketch::new(bitmap_bits)).merge(m);
        }
        for (k, s) in app.truth.borrow().iter() {
            truth.entry(*k).or_default().extend(s.iter().copied());
        }
    }
    let mut links = Vec::new();
    let mut err_sum = 0.0;
    for (k, sketch) in &agg {
        let t = truth.get(k).map(std::collections::BTreeSet::len).unwrap_or(0);
        let e = sketch.estimate();
        if t > 0 && e.is_finite() {
            err_sum += (e - t as f64).abs() / t as f64;
        }
        links.push(LinkEstimate { link: *k, estimate: e, truth: t });
    }
    let mean_relative_error = if links.is_empty() { 0.0 } else { err_sum / links.len() as f64 };
    SketchResult { links, mean_relative_error, memory_bytes_per_host: mem_per_host, packets_sent }
}

/// The §2.5 sizing arithmetic for a k-ary fat-tree: number of core links
/// and the per-server memory for one `bits`-bit bitmap per core link.
/// For k = 64 and 1 kbit this reproduces the paper's "about 8MB/server".
pub fn fat_tree_sizing(k: usize, bits_per_link: usize) -> (usize, usize, usize) {
    let servers = k * k * k / 4;
    // Each of the (k/2)^2 cores has k links down to the pods.
    let core_links = (k / 2) * (k / 2) * k;
    let bytes_per_server = core_links * bits_per_link / 8;
    (servers, core_links, bytes_per_server)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpp_netsim::MILLIS;

    #[test]
    fn bitmap_estimator_accuracy() {
        // Insert n distinct items into a b-bit bitmap; the estimate must
        // track n while n << b.
        let mut s = BitmapSketch::new(1024);
        for n in [50u32, 100, 200] {
            let mut s2 = BitmapSketch::new(1024);
            for i in 0..n {
                s2.insert(((i as u64 * 2654435761) % 100_000) as u32);
            }
            let est = s2.estimate();
            let err = (est - n as f64).abs() / n as f64;
            assert!(err < 0.15, "n={n} est={est} err={err}");
        }
        // Duplicates don't move the estimate.
        for _ in 0..1000 {
            s.insert(42);
        }
        assert!(s.estimate() < 3.0);
    }

    #[test]
    fn bitmap_merge_is_union() {
        let mut a = BitmapSketch::new(256);
        let mut b = BitmapSketch::new(256);
        for i in 0..30 {
            a.insert(i);
        }
        for i in 20..50 {
            b.insert(i);
        }
        let mut both = BitmapSketch::new(256);
        for i in 0..50 {
            both.insert(i);
        }
        a.merge(&b);
        assert_eq!(a, both);
    }

    #[test]
    fn saturated_bitmap_reports_infinity() {
        let mut s = BitmapSketch::new(64);
        for i in 0..64 {
            s.set(i);
        }
        assert!(s.estimate().is_infinite());
    }

    #[test]
    fn sizing_matches_paper_8mb() {
        // §2.5: k = 64 fat-tree, 65536 servers, 1 kbit per link -> ~8 MB.
        let (servers, core_links, bytes) = fat_tree_sizing(64, 1024);
        assert_eq!(servers, 65536);
        assert_eq!(core_links, 65536);
        assert_eq!(bytes, 8 << 20);
    }

    #[test]
    fn fat_tree_sketch_estimates_unique_destinations() {
        let r = run_sketch(200 * MILLIS, 1024, 1, 3);
        assert!(r.packets_sent > 1000, "workload ran: {}", r.packets_sent);
        assert!(!r.links.is_empty());
        // With 16 hosts, truth per link is at most 16 — tiny against 1024
        // bits, so estimates should be tight.
        assert!(r.mean_relative_error < 0.25, "mean relative error {}", r.mean_relative_error);
        for l in &r.links {
            assert!(l.truth <= 16);
        }
    }

    #[test]
    fn sampling_preserves_popular_links() {
        // With 1-in-10 sampling the TPP "need not be inserted into all
        // packets, but ... at least once for every destination" (§2.5) —
        // over enough packets the estimates stay close.
        let full = run_sketch(400 * MILLIS, 1024, 1, 5);
        let sampled = run_sketch(400 * MILLIS, 1024, 10, 5);
        // Core links seen by both should have comparable truth sets.
        let full_links: BTreeMap<_, _> = full.links.iter().map(|l| (l.link, l.truth)).collect();
        let mut compared = 0;
        for l in &sampled.links {
            if let Some(&ft) = full_links.get(&l.link) {
                if ft >= 4 {
                    assert!(l.truth as f64 >= ft as f64 * 0.3, "{:?}: {} vs {ft}", l.link, l.truth);
                    compared += 1;
                }
            }
        }
        assert!(compared > 0);
    }
}
