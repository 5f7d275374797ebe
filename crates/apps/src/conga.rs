//! CONGA* — congestion-aware, distributed load balancing refactored from
//! the network onto end-hosts (paper §2.4, Figure 4).
//!
//! CONGA proper needs custom ASICs that keep per-path congestion tables in
//! switches. The TPP refactoring keeps only two things in the network —
//! TPP support and ordinary ECMP group tables — and moves the rest to the
//! end-host:
//!
//! 1. Hosts *discover* paths by probing with different source ports and
//!    reading the `[Link:ID]` sequence each probe traversed.
//! 2. Every millisecond, a probe per path collects `[Link:TX-Utilization]`
//!    and `[Link:TX-Bytes]`; the host aggregates a per-path congestion
//!    metric (max or sum across fabric hops — the choice the paper notes
//!    can now be deferred to deployment time).
//! 3. Each flow(let) is steered onto the least-congested path by rewriting
//!    its source port (the field ECMP hashes on), with hysteresis so paths
//!    don't flap.
//!
//! The network config excludes the L4 *destination* port from the ECMP
//! hash so probes follow the data path; the destination port then carries
//! the flow identity.

use std::collections::BTreeMap;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::common::{parse_udp, udp_frame, RateMeter};
use tpp_core::probe::{Probe, TppData};
use tpp_core::wire::{Ipv4Address, TppBuf};
use tpp_endhost::harness::{Endhost, Harness, Io};
use tpp_endhost::{ExecutorConfig, PacedSender};
use tpp_netsim::Time;
use tpp_netsim::TopologySpec;

/// Base destination port for CONGA data flows (flow i uses `BASE + i`).
pub const FLOW_PORT_BASE: u16 = 6000;
/// Source-port range used for discovery and path pinning.
pub const PROBE_SPORT_BASE: u16 = 30_000;

/// Load-balancing mode.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Balancer {
    /// Static ECMP hashing (the baseline in Figure 4).
    Ecmp,
    /// Congestion-aware flowlet steering.
    Conga,
}

/// Path congestion aggregation (§2.4: CONGA used `max` to avoid overflow in
/// switches; with TPPs the end-host can pick `sum`, which is closer to
/// optimal in adversarial cases).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Metric {
    Max,
    Sum,
}

/// The per-path probe schema.
pub fn conga_probe() -> Probe {
    Probe::hop("conga-path")
        .field("link", "Link:ID")
        .field("util", "Link:TX-Utilization")
        .field("tx_bytes", "Link:TX-Bytes")
}

/// One hop from a completed probe.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PathHop {
    pub link_id: u32,
    pub util_bps: u32,
    pub tx_bytes: u32,
}

/// The schema instance shared by all decode paths (built once; decoding
/// runs per completed probe, every millisecond per path).
fn conga_schema() -> &'static Probe {
    crate::common::static_schema!(conga_probe)
}

/// Decode a probe through the typed schema (3 words per hop).
pub fn parse_probe<T: TppData>(tpp: &T) -> Vec<PathHop> {
    let p = conga_schema();
    // Resolve names once per TPP, not once per hop (one probe per path
    // per millisecond).
    let (link, util, tx) =
        (p.index_of("link").unwrap(), p.index_of("util").unwrap(), p.index_of("tx_bytes").unwrap());
    p.records(tpp)
        .map(|r| PathHop {
            link_id: r.at(link).unwrap_or(0),
            util_bps: r.at(util).unwrap_or(0),
            tx_bytes: r.at(tx).unwrap_or(0),
        })
        .collect()
}

/// Aggregate the fabric hops (all but the final host-facing hop) into one
/// congestion figure, in utilization basis points.
pub fn path_metric(hops: &[PathHop], metric: Metric) -> u32 {
    let fabric = if hops.len() > 1 { &hops[..hops.len() - 1] } else { hops };
    match metric {
        Metric::Max => fabric.iter().map(|h| h.util_bps).max().unwrap_or(0),
        Metric::Sum => fabric.iter().map(|h| h.util_bps).sum(),
    }
}

/// Discovered path state, exposed for observability.
#[derive(Clone, Debug)]
pub struct PathState {
    /// Sequence of fabric link IDs identifying the path.
    pub signature: Vec<u32>,
    /// Source ports known to hash onto this path.
    pub ports: Vec<u16>,
    /// Latest congestion metric (utilization basis points).
    pub metric: u32,
    /// When the metric was last refreshed.
    pub updated: Time,
}

#[derive(Clone, Debug)]
struct FlowState {
    dst_port: u16,
    sport: u16,
    path: Option<usize>,
    pacer: PacedSender,
}

/// CONGA* sender configuration.
#[derive(Clone, Copy, Debug)]
pub struct CongaConfig {
    pub mode: Balancer,
    pub metric: Metric,
    pub n_flows: usize,
    pub seed: u64,
}

impl Default for CongaConfig {
    fn default() -> Self {
        CongaConfig { mode: Balancer::Conga, metric: Metric::Max, n_flows: 12, seed: 0 }
    }
}

/// The paced rate of every flow.
const FLOW_RATE_MBPS: f64 = 10.0;
/// Data packet payload bytes.
const PAYLOAD: usize = 1000;
/// Congestion probes per path (paper: every millisecond).
const PROBE_PERIOD_NS: Time = 1_000_000;
/// One flow reconsiders its path per decision tick.
const DECIDE_PERIOD_NS: Time = 10_000_000;
/// Don't move unless the best path is at least this much better
/// (utilization basis points).
const HYSTERESIS_BPS: u32 = 500;
/// Source ports probed once at start-up to discover the paths:
/// `PROBE_SPORT_BASE..PROBE_SPORT_BASE + DISCOVERY_PORTS`.
pub const DISCOVERY_PORTS: u16 = 32;
/// Max hops a probe must cover (host → leaf → spine → leaf → host).
const PROBE_HOPS: usize = 4;
/// The app ID of the path probes.
const APP_ID: u16 = 4;

const TIMER_PROBE: u64 = 1;
const TIMER_DECIDE: u64 = 2;
const TIMER_PACE: u64 = 3;
const TIMER_START_FLOWS: u64 = 5;

/// A host running CONGA* toward a single destination. Construct with
/// [`CongaSender::new`]; probe traffic is accounted by the harness's
/// `probe_bytes_sent`.
pub struct CongaSender {
    pub cfg: CongaConfig,
    dst: Ipv4Address,
    rng: StdRng,
    /// Discovered paths (probing state visible to experiments).
    pub paths: Vec<PathState>,
    sig_index: BTreeMap<Vec<u32>, usize>,
    port_path: BTreeMap<u16, usize>,
    flows: Vec<FlowState>,
    decide_cursor: usize,
    flows_started: bool,
    pub path_switches: u64,
    pub data_bytes: u64,
}

/// The wired CONGA* sender application.
pub type CongaSenderApp = Endhost<CongaSender>;

impl CongaSender {
    pub fn new(cfg: CongaConfig, dst: Ipv4Address) -> CongaSenderApp {
        let state = CongaSender {
            cfg,
            dst,
            rng: StdRng::seed_from_u64(cfg.seed),
            paths: Vec::new(),
            sig_index: BTreeMap::new(),
            port_path: BTreeMap::new(),
            flows: Vec::new(),
            decide_cursor: 0,
            flows_started: false,
            path_switches: 0,
            data_bytes: 0,
        };
        Harness::new(state)
            .shim_seed(cfg.seed ^ 0xC0C0)
            .executor(ExecutorConfig { max_retries: 2, timeout_ns: 20_000_000 })
            // A completion's flow names the port its probe was steered on.
            .launch(conga_probe().app_id(APP_ID).hops(PROBE_HOPS), |s, io, c| {
                s.on_probe_done(io.ctx.now, c.flow.src_port, &c.tpp);
            })
            .on_start(|s, io| {
                // Discovery: probe the whole source-port range once.
                for i in 0..DISCOVERY_PORTS {
                    s.send_probe(io, PROBE_SPORT_BASE + i);
                }
                io.ctx.set_timer(PROBE_PERIOD_NS, TIMER_PROBE);
                // Let discovery finish before data starts.
                io.ctx.set_timer(20_000_000, TIMER_START_FLOWS);
            })
            .on_timer(|s, io, token| match token {
                TIMER_PROBE => {
                    // Refresh each known path's congestion metric.
                    let reps: Vec<u16> =
                        s.paths.iter().filter_map(|p| p.ports.first().copied()).collect();
                    for sport in reps {
                        s.send_probe(io, sport);
                    }
                    io.ctx.set_timer(PROBE_PERIOD_NS, TIMER_PROBE);
                }
                TIMER_DECIDE => {
                    s.decide(io.ctx.now);
                    io.ctx.set_timer(DECIDE_PERIOD_NS, TIMER_DECIDE);
                }
                TIMER_PACE => s.pace(io),
                TIMER_START_FLOWS => s.start_flows(io),
                _ => {}
            })
            .build()
            .expect("static wiring")
    }

    /// Launch a probe from `sport`, which steers it onto that port's ECMP
    /// path; its retransmissions leave from the same port.
    fn send_probe(&mut self, io: &mut Io<'_, '_>, sport: u16) {
        assert!(io.launch(APP_ID, self.dst, Some(sport)), "probe registered");
    }

    fn on_probe_done(&mut self, now: Time, sport: u16, tpp: &TppBuf) {
        let hops = parse_probe(tpp);
        if hops.is_empty() {
            return;
        }
        let signature: Vec<u32> =
            hops[..hops.len().saturating_sub(1)].iter().map(|h| h.link_id).collect();
        let idx = match self.sig_index.get(&signature) {
            Some(&i) => i,
            None => {
                let i = self.paths.len();
                self.paths.push(PathState {
                    signature: signature.clone(),
                    ports: Vec::new(),
                    metric: 0,
                    updated: 0,
                });
                self.sig_index.insert(signature, i);
                i
            }
        };
        let p = &mut self.paths[idx];
        if !p.ports.contains(&sport) {
            p.ports.push(sport);
        }
        p.metric = path_metric(&hops, self.cfg.metric);
        p.updated = now;
        self.port_path.insert(sport, idx);
    }

    fn start_flows(&mut self, io: &mut Io<'_, '_>) {
        if self.flows_started {
            return;
        }
        self.flows_started = true;
        // Flows start on ECMP-random discovered ports (the baseline
        // placement); CONGA mode then migrates them.
        let known: Vec<u16> = self.port_path.keys().copied().collect();
        for i in 0..self.cfg.n_flows {
            let sport = if known.is_empty() {
                PROBE_SPORT_BASE + self.rng.random_range(0..DISCOVERY_PORTS)
            } else {
                known[self.rng.random_range(0..known.len())]
            };
            let path = self.port_path.get(&sport).copied();
            self.flows.push(FlowState {
                dst_port: FLOW_PORT_BASE + i as u16,
                sport,
                path,
                pacer: PacedSender::new(FLOW_RATE_MBPS * 1e6, PAYLOAD),
            });
        }
        io.ctx.set_timer(0, TIMER_PACE);
        if self.cfg.mode == Balancer::Conga {
            io.ctx.set_timer(DECIDE_PERIOD_NS, TIMER_DECIDE);
        }
    }

    fn decide(&mut self, _now: Time) {
        if self.paths.len() < 2 || self.flows.is_empty() {
            return;
        }
        let best = (0..self.paths.len()).min_by_key(|&i| self.paths[i].metric).unwrap();
        let flow_idx = self.decide_cursor % self.flows.len();
        self.decide_cursor += 1;
        let cur_path = self.flows[flow_idx].path;
        let cur_metric = cur_path.map(|p| self.paths[p].metric).unwrap_or(u32::MAX);
        let best_metric = self.paths[best].metric;
        if cur_path != Some(best) && best_metric + HYSTERESIS_BPS < cur_metric {
            // Move this flowlet onto the better path.
            if let Some(&port) = self.paths[best].ports.first() {
                self.flows[flow_idx].sport = port;
                self.flows[flow_idx].path = Some(best);
                self.path_switches += 1;
            }
        }
    }

    fn pace(&mut self, io: &mut Io<'_, '_>) {
        let mut next = u64::MAX;
        let mut to_send = Vec::new();
        for f in &mut self.flows {
            let n = f.pacer.due(io.ctx.now);
            for _ in 0..n {
                to_send.push((f.sport, f.dst_port));
            }
            next = next.min(f.pacer.next_deadline());
        }
        for (sport, dport) in to_send {
            let frame = udp_frame(io.ctx.ip, self.dst, sport, dport, PAYLOAD);
            self.data_bytes += frame.len() as u64;
            io.ctx.send(frame);
        }
        if next != u64::MAX {
            io.ctx.set_timer_at(next, TIMER_PACE);
        }
    }
}

/// Sink that meters goodput per `(source, destination port)` — the flow
/// identity under CONGA's moving source ports. Construct with
/// [`CongaSink::new`].
pub struct CongaSink {
    pub meters: BTreeMap<(Ipv4Address, u16), RateMeter>,
    pub bucket_ns: Time,
}

/// The wired CONGA* sink application.
pub type CongaSinkApp = Endhost<CongaSink>;

impl CongaSink {
    pub fn new(bucket_ns: Time) -> CongaSinkApp {
        Harness::new(CongaSink { meters: BTreeMap::new(), bucket_ns })
            .on_deliver(|s, io, inner| {
                if let Some(info) = parse_udp(&inner) {
                    if (FLOW_PORT_BASE..FLOW_PORT_BASE + 1000).contains(&info.dst_port) {
                        s.meters
                            .entry((info.src, info.dst_port))
                            .or_insert_with(|| RateMeter::new(s.bucket_ns))
                            .record(io.ctx.now, info.payload_len as u64);
                    }
                }
            })
            .build()
            .expect("static wiring")
    }
}

/// The Figure 4 result row.
#[derive(Clone, Debug)]
pub struct Fig4Result {
    pub mode: Balancer,
    /// Achieved throughput of the L0 -> L2 aggregate (demand 50 Mb/s).
    pub l0_mbps: f64,
    /// Achieved throughput of the L1 -> L2 aggregate (demand 120 Mb/s).
    pub l1_mbps: f64,
    /// Maximum fabric-link utilization (percent of capacity).
    pub max_util_percent: f64,
    pub path_switches: u64,
}

/// Run the Figure 4 scenario: 2 spines, 3 leaves, L0→L2 pinned to one
/// path at 50 Mb/s, L1→L2 at 120 Mb/s over two paths.
pub fn run_conga_fig4(mode: Balancer, metric: Metric, duration: Time, seed: u64) -> Fig4Result {
    let mut topo = TopologySpec::LeafSpine { leaves: 3, spines: 2, hosts_per_leaf: 1 }
        .builder()
        .link_mbps(100)
        .host_mbps(1000)
        .delay_ns(10_000)
        .seed(seed)
        .build();
    // Exclude the dst port from ECMP hashing everywhere (probes follow data).
    let switches = topo.switches.clone();
    for &s in &switches {
        topo.net.switch_mut(s).cfg.ecmp_hash_dst_port = false;
    }
    let hosts = topo.hosts.clone(); // [h_L0, h_L1, h_L2]
    let ips: Vec<Ipv4Address> = hosts.iter().map(|&h| topo.net.host(h).ip).collect();
    // Pin L0 -> L2 to the first spine (the paper's "uses only one path").
    let leaf0 = switches[0];
    topo.net.switch_mut(leaf0).add_host_route(ips[2], tpp_switch::Action::Output(0));

    let bucket = 100_000_000;
    let l0_cfg = CongaConfig {
        mode: Balancer::Ecmp, // single path anyway
        n_flows: 5,
        seed: seed ^ 1,
        ..CongaConfig::default()
    };
    let l1_cfg = CongaConfig { mode, metric, n_flows: 12, seed: seed ^ 2 };
    topo.net.set_app(hosts[0], Box::new(CongaSender::new(l0_cfg, ips[2])));
    topo.net.set_app(hosts[1], Box::new(CongaSender::new(l1_cfg, ips[2])));
    topo.net.set_app(hosts[2], Box::new(CongaSink::new(bucket)));

    // Warm up, then measure fabric byte counters over the second half.
    let half = duration / 2;
    topo.net.run_until(half);
    let fabric_ports = fabric_ports(&topo);
    let before: Vec<u64> = fabric_ports
        .iter()
        .map(|&(s, p)| topo.net.switch(s).mem.links[p as usize].tx_bytes)
        .collect();
    topo.net.run_until(duration);
    let mut max_util = 0.0f64;
    for (i, &(s, p)) in fabric_ports.iter().enumerate() {
        let link = &topo.net.switch(s).mem.links[p as usize];
        let bytes = link.tx_bytes - before[i];
        let util =
            bytes as f64 * 8.0 / ((duration - half) as f64 / 1e9) / (link.speed_mbps as f64 * 1e6);
        max_util = max_util.max(util);
    }

    let half_s = half as f64 / 1e9;
    let end_s = duration as f64 / 1e9;
    let (l0_mbps, l1_mbps) = {
        let sink = topo.net.app_mut::<CongaSinkApp>(hosts[2]);
        let mut l0 = 0.0;
        let mut l1 = 0.0;
        for ((src, _), m) in &sink.meters {
            let rate = m.avg_mbps(half_s, end_s);
            if *src == ips[0] {
                l0 += rate;
            } else if *src == ips[1] {
                l1 += rate;
            }
        }
        (l0, l1)
    };
    let path_switches = topo.net.app_mut::<CongaSenderApp>(hosts[1]).path_switches;
    Fig4Result { mode, l0_mbps, l1_mbps, max_util_percent: max_util * 100.0, path_switches }
}

/// All leaf-uplink and spine ports (fabric links) of a leaf-spine topology
/// built from [`tpp_netsim::TopologySpec::LeafSpine`].
fn fabric_ports(topo: &tpp_netsim::Topology) -> Vec<(tpp_netsim::NodeId, u8)> {
    let mut out = Vec::new();
    for &s in &topo.switches {
        for (p, peer) in topo.net.neighbors(s) {
            if topo.net.is_switch(peer) {
                out.push((s, p));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpp_netsim::SECONDS;

    #[test]
    fn probe_parsing_and_metric() {
        let hops = vec![
            PathHop { link_id: 1, util_bps: 3000, tx_bytes: 10 },
            PathHop { link_id: 2, util_bps: 8000, tx_bytes: 20 },
            PathHop { link_id: 3, util_bps: 9999, tx_bytes: 30 }, // host link, excluded
        ];
        assert_eq!(path_metric(&hops, Metric::Max), 8000);
        assert_eq!(path_metric(&hops, Metric::Sum), 11000);
    }

    /// A host that logs the source port of every frame it receives and
    /// never answers.
    struct Recorder(Vec<u16>);
    impl tpp_netsim::HostApp for Recorder {
        fn on_frame(&mut self, _ctx: &mut tpp_netsim::HostCtx<'_>, frame: Vec<u8>) {
            self.0.push(parse_udp(&frame).expect("a UDP probe").src_port);
        }
    }

    #[test]
    fn timed_out_probes_are_retransmitted_on_their_steered_port() {
        // No probe is echoed, so each discovery probe is sent once and
        // retried twice. Every copy must leave from the port that steers it:
        // a retry from another port would take another path, and its echo
        // would be credited to the steered port's path.
        let mut net = tpp_netsim::Network::new(1);
        let a = net.add_host(Box::new(tpp_netsim::NullApp));
        let b = net.add_host(Box::new(tpp_netsim::NullApp));
        net.connect(a, b, tpp_netsim::LinkSpec::new(1000, 1000));
        let cfg = CongaConfig { n_flows: 0, ..CongaConfig::default() };
        net.set_app(a, Box::new(CongaSender::new(cfg, net.host(b).ip)));
        net.set_app(b, Box::new(Recorder(Vec::new())));
        net.run_until(SECONDS / 5);
        let sender = net.app_mut::<CongaSenderApp>(a);
        let exec = sender.executor().unwrap();
        let sent = DISCOVERY_PORTS as u64;
        assert_eq!((exec.sent, exec.retransmitted, exec.failed), (sent, 2 * sent, sent));
        let ports = &mut net.app_mut::<Recorder>(b).0;
        ports.sort_unstable();
        let want: Vec<u16> = (0..DISCOVERY_PORTS).flat_map(|i| [PROBE_SPORT_BASE + i; 3]).collect();
        assert_eq!(*ports, want);
    }

    #[test]
    fn discovery_finds_both_paths() {
        let mut topo = TopologySpec::LeafSpine { leaves: 3, spines: 2, hosts_per_leaf: 1 }
            .builder()
            .link_mbps(100)
            .host_mbps(1000)
            .delay_ns(10_000)
            .seed(1)
            .build();
        let switches = topo.switches.clone();
        for &s in &switches {
            topo.net.switch_mut(s).cfg.ecmp_hash_dst_port = false;
        }
        let hosts = topo.hosts.clone();
        let dst_ip = topo.net.host(hosts[2]).ip;
        let cfg = CongaConfig { n_flows: 0, ..CongaConfig::default() };
        topo.net.set_app(hosts[1], Box::new(CongaSender::new(cfg, dst_ip)));
        topo.net.set_app(hosts[2], Box::new(CongaSink::new(100_000_000)));
        topo.net.run_until(SECONDS / 10);
        let sender = topo.net.app_mut::<CongaSenderApp>(hosts[1]);
        assert_eq!(sender.paths.len(), 2, "two spines = two distinct paths");
        // Each path has a non-empty port set and a distinct signature.
        assert!(sender.paths[0].signature != sender.paths[1].signature);
        assert!(!sender.paths[0].ports.is_empty() && !sender.paths[1].ports.is_empty());
    }

    #[test]
    #[ignore = "multi-second simulation; run via the fig4 bench binary"]
    fn fig4_conga_beats_ecmp() {
        // The Figure 4 claim: CONGA* meets both demands while reducing the
        // maximum link utilization (paper: 100% -> 85%); ECMP drives the
        // shared path to saturation.
        let ecmp = run_conga_fig4(Balancer::Ecmp, Metric::Max, 4 * SECONDS, 1);
        let conga = run_conga_fig4(Balancer::Conga, Metric::Max, 4 * SECONDS, 1);
        assert!(
            conga.max_util_percent < ecmp.max_util_percent - 5.0,
            "CONGA should relieve the hot path: {conga:?} vs {ecmp:?}"
        );
        assert!(ecmp.max_util_percent > 97.0, "ECMP saturates the shared path");
        // Goodput ceiling for 12 x 10 Mb/s wire-rate flows is ~115 Mb/s of
        // payload; CONGA should deliver (nearly) all of it and never less
        // than ECMP.
        assert!(conga.l1_mbps > 112.0, "{conga:?}");
        assert!(conga.l1_mbps >= ecmp.l1_mbps - 1.0);
        assert!(conga.l0_mbps > 45.0);
        assert!(conga.path_switches > 0);
    }
}
