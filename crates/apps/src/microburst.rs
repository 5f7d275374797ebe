//! Micro-burst detection (paper §2.1, Figure 1).
//!
//! Every data packet carries the three-instruction TPP
//!
//! ```text
//! PUSH [Switch:SwitchID]
//! PUSH [PacketMetadata:OutputPort]
//! PUSH [Queue:QueueOccupancyPkts]
//! ```
//!
//! so each received packet delivers a per-hop snapshot of the queues it
//! actually traversed — per-packet visibility into queue evolution that
//! SNMP-style polling (tens of seconds) cannot provide, and that samples
//! exactly when packets arrive (Figure 1b: one queue is empty at 80% of
//! packet arrivals, so a sampling method would miss the bursts).
//!
//! The workload reproduces Figure 1: every host sends 10 kB messages to
//! random peers, with exponential inter-message gaps tuned to an average
//! offered load of 30% of the host link capacity.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::common::{udp_frame, DATA_PORT};
use tpp_core::probe::Probe;
use tpp_core::wire::Ipv4Address;
use tpp_endhost::harness::{Aggregator, Completion, Endhost, Harness, Io};
use tpp_endhost::Filter;
use tpp_netsim::Time;
use tpp_netsim::TopologySpec;

/// One queue-occupancy observation extracted from a completed TPP.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct QueueSample {
    /// Arrival time of the carrying packet at the observer.
    pub t_ns: Time,
    pub switch_id: u32,
    pub port: u32,
    /// Queue occupancy in packets at the instant this packet was enqueued.
    pub q_pkts: u32,
}

/// Identifies a queue across samples.
pub fn queue_key(s: &QueueSample) -> (u32, u32) {
    (s.switch_id, s.port)
}

/// The §2.1 probe schema: three statistics per hop.
pub fn microburst_probe() -> Probe {
    Probe::stack("microburst")
        .field("switch", "Switch:SwitchID")
        .field("port", "PacketMetadata:OutputPort")
        .field("q", "Queue:QueueOccupancyPkts")
}

/// Per-host configuration of the burst workload.
#[derive(Clone, Debug)]
pub struct BurstConfig {
    /// Destination hosts (excluding self).
    pub peers: Vec<Ipv4Address>,
    pub seed: u64,
}

/// Message size (paper: 10 kB).
const MSG_BYTES: usize = 10_000;
/// Per-packet payload (fits in one MTU with the TPP attached).
const PAYLOAD: usize = 1200;
/// Offered load as a fraction of [`LINK_MBPS`] (paper: 0.3).
const LOAD: f64 = 0.3;
/// Every link's speed, host links included: [`run_microburst`] builds its
/// dumbbell at this speed and the offered load is a fraction of it.
const LINK_MBPS: u64 = 100;
/// The app ID of the TPP stamped on every data packet.
const APP_ID: u16 = 1;

const TIMER_BURST: u64 = 1;

/// A host in the micro-burst experiment: random-peer burst sender plus
/// observer of the TPPs on packets it receives. Construct with
/// [`BurstHost::new`], which returns the fully wired [`Endhost`].
pub struct BurstHost {
    peers: Vec<Ipv4Address>,
    rng: StdRng,
    pub samples: Vec<QueueSample>,
    pub messages_sent: u64,
    pub bytes_received: u64,
}

/// The wired micro-burst application.
pub type BurstApp = Endhost<BurstHost>;

impl BurstHost {
    pub fn new(cfg: BurstConfig) -> BurstApp {
        let probe = microburst_probe().app_id(APP_ID).hops(8);
        let state = BurstHost {
            peers: cfg.peers,
            rng: StdRng::seed_from_u64(cfg.seed),
            samples: Vec::new(),
            messages_sent: 0,
            bytes_received: 0,
        };
        Harness::new(state)
            .shim_seed(cfg.seed ^ 0xB00B)
            // Observe completed TPPs locally at the receiver — the paper
            // collects "fully executed TPPs carrying network state at one
            // host" from the packets arriving there.
            .stamp_with(probe, Filter::udp(), 1, Aggregator::Local, |s, io, c| {
                s.record(io.ctx.now, &c);
            })
            .on_start(|s, io| {
                let gap = s.exp_gap();
                io.ctx.set_timer(gap, TIMER_BURST);
            })
            .on_timer(|s, io, token| {
                if token == TIMER_BURST {
                    s.send_burst(io);
                    let gap = s.exp_gap();
                    io.ctx.set_timer(gap, TIMER_BURST);
                }
            })
            .on_deliver(|s, io, inner| {
                if let Some(info) = crate::common::parse_udp(&inner) {
                    if info.dst_port == DATA_PORT {
                        s.bytes_received += info.payload_len as u64;
                    }
                }
                // Fully consumed: hand the buffer back to the frame pool.
                io.ctx.recycle(inner);
            })
            .build()
            .expect("static wiring")
    }

    fn exp_gap(&mut self) -> Time {
        // message transmission time / load = mean inter-message gap.
        let msg_time_ns = MSG_BYTES as f64 * 8.0 / (LINK_MBPS as f64 * 1e6) * 1e9;
        let u: f64 = self.rng.random::<f64>().max(1e-12);
        (-u.ln() * (msg_time_ns / LOAD)) as Time
    }

    fn record(&mut self, now: Time, c: &Completion) {
        // Resolve names once per TPP, not once per hop (one TPP arrives
        // per data packet).
        let idx = |n| c.probe.index_of(n).unwrap();
        let (switch, port, q) = (idx("switch"), idx("port"), idx("q"));
        for r in c.hops() {
            self.samples.push(QueueSample {
                t_ns: now,
                switch_id: r.at(switch).unwrap_or(0),
                port: r.at(port).unwrap_or(0),
                q_pkts: r.at(q).unwrap_or(0),
            });
        }
    }

    fn send_burst(&mut self, io: &mut Io<'_, '_>) {
        if self.peers.is_empty() {
            return;
        }
        let dst = self.peers[self.rng.random_range(0..self.peers.len())];
        let mut remaining = MSG_BYTES;
        let sport = 20_000 + (self.messages_sent % 1000) as u16;
        while remaining > 0 {
            let len = remaining.min(PAYLOAD);
            let frame = udp_frame(io.ctx.ip, dst, sport, DATA_PORT, len);
            io.send_data(frame);
            remaining -= len;
        }
        self.messages_sent += 1;
    }
}

/// Results of the Figure 1 experiment.
pub struct MicroburstResult {
    /// Samples observed at the designated observer host.
    pub observer_samples: Vec<QueueSample>,
    /// Samples across all hosts.
    pub all_samples: Vec<QueueSample>,
    pub total_messages: u64,
}

/// Run the Figure 1 experiment on a `per_side`-per-switch dumbbell for
/// `duration_ns`. The observer is host 0.
pub fn run_microburst(per_side: usize, duration_ns: Time, seed: u64) -> MicroburstResult {
    let mut topo = TopologySpec::Dumbbell { per_side }
        .builder()
        .link_mbps(LINK_MBPS)
        .host_mbps(LINK_MBPS)
        .delay_ns(10_000)
        .seed(seed)
        .build();
    let hosts = topo.hosts.clone();
    let ips: Vec<Ipv4Address> = hosts.iter().map(|&h| topo.net.host(h).ip).collect();
    for (i, &h) in hosts.iter().enumerate() {
        let peers: Vec<Ipv4Address> =
            ips.iter().enumerate().filter(|&(j, _)| j != i).map(|(_, &ip)| ip).collect();
        let cfg = BurstConfig { peers, seed: seed ^ (i as u64 + 1) };
        topo.net.set_app(h, Box::new(BurstHost::new(cfg)));
    }
    topo.net.run_until(duration_ns);
    let mut all = Vec::new();
    let mut observer = Vec::new();
    let mut total_messages = 0;
    for (i, &h) in hosts.iter().enumerate() {
        let app = topo.net.app_mut::<BurstApp>(h);
        total_messages += app.messages_sent;
        let samples = std::mem::take(&mut app.samples);
        if i == 0 {
            observer = samples.clone();
        }
        all.extend(samples);
    }
    MicroburstResult { observer_samples: observer, all_samples: all, total_messages }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::{cdf, cdf_at};
    use std::collections::BTreeMap;
    use tpp_netsim::SECONDS;

    #[test]
    fn tpp_is_three_instructions() {
        let t = microburst_probe().hops(5).compile().unwrap();
        assert_eq!(t.instrs.len(), 3);
        // §2.1 overhead arithmetic: 12B header + 12B instructions + per-hop
        // data. (Our words are 32-bit, the paper's example uses 16-bit.)
        assert_eq!(t.section_len(), 12 + 12 + 60);
        // Oversized requests are refused instead of overflowing the one-byte
        // length field; the largest that fits fills the wire capacity.
        let probe = microburst_probe();
        assert!(probe.clone().hops(1000).compile().is_err());
        let big = probe.clone().hops(probe.max_hops()).compile().unwrap();
        assert_eq!(big.memory.len(), tpp_core::wire::MAX_MEMORY_BYTES);
    }

    #[test]
    fn samples_collected_and_attributed() {
        let r = run_microburst(3, SECONDS / 2, 1);
        assert!(r.total_messages > 100, "workload ran: {} messages", r.total_messages);
        assert!(!r.observer_samples.is_empty(), "observer saw TPPs");
        // Samples must reference real switches (ids 1 and 2 in the dumbbell).
        for s in &r.all_samples {
            assert!(s.switch_id == 1 || s.switch_id == 2, "switch {}", s.switch_id);
        }
        // Multiple distinct queues observed across the fabric.
        let queues: std::collections::BTreeSet<_> = r.all_samples.iter().map(queue_key).collect();
        assert!(queues.len() >= 4, "saw {} queues", queues.len());
    }

    #[test]
    fn queue_occupancy_shows_bursts_and_idle() {
        // The Figure 1b shape: queues are often near-empty at packet
        // arrival, yet bursts (qsize >= 3 packets) do occur.
        let r = run_microburst(3, SECONDS, 7);
        let mut by_queue: BTreeMap<(u32, u32), Vec<u32>> = BTreeMap::new();
        for s in &r.all_samples {
            by_queue.entry(queue_key(s)).or_default().push(s.q_pkts);
        }
        let busiest = by_queue.values().max_by_key(|v| v.len()).unwrap();
        let c = cdf(busiest);
        let frac_small = cdf_at(&c, 1);
        // Even at the busiest (bottleneck) queue, a large fraction of
        // arrivals see at most one queued packet; across seeds this
        // statistic ranges ~0.36-0.51, so gate well below that band.
        assert!(frac_small > 0.3, "many arrivals see a short queue ({frac_small})");
        let max = *busiest.iter().max().unwrap();
        assert!(max >= 3, "bursts visible (max {max} pkts)");
    }

    #[test]
    fn offered_load_close_to_target() {
        let r = run_microburst(3, SECONDS, 3);
        // 6 hosts, 30% of 100 Mb/s for 1 s ~ 2.25 MB/host of messages.
        let expected_msgs = 0.3 * 100e6 / 8.0 / 10_000.0; // per host per second
        let per_host = r.total_messages as f64 / 6.0;
        assert!(
            per_host > expected_msgs * 0.7 && per_host < expected_msgs * 1.3,
            "offered load off: {per_host} vs {expected_msgs}"
        );
    }
}
