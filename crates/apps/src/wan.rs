//! WAN application domains: coordinated video fan-out and inter-DC
//! congestion control over multi-millisecond links.
//!
//! Both apps run on a [`TopologySpec::MultiSite`] fabric — N intra-DC
//! fat-trees joined by a full mesh of ms-delay WAN links between border
//! switches — and both are pure end-host TPP programs: the network
//! allocates two per-link registers (`[Link:AppSpecific_2]` = version,
//! `[Link:AppSpecific_3]` = subtree rate) and otherwise only executes
//! TPPs.
//!
//! # Coordinated fan-out ([`FanoutSource`])
//!
//! A COMETS-style multicast tree rooted at one source host: one relay per
//! viewer site, local viewers behind each relay. Every control period the
//! source runs, per subtree:
//!
//! 1. **Discover** — a collect probe gathers, per hop: switch ID, link
//!    speed, utilization, queue size, and the stored version
//!    ([`discover_probe`]). The bottleneck is whichever hop's control
//!    equation yields the smallest rate — on the viewer-fan-out preset
//!    that is the throttled WAN link into the subtree's site.
//! 2. **Adapt** — each hop's available bandwidth is estimated as
//!    `speed − cross-traffic − queue-drain` and the subtree rate slews
//!    (at most ±10% per period) toward the minimum across hops. The
//!    target is an absolute measurement, not an integrator, so the rate
//!    approaches the bottleneck from below and never builds a standing
//!    WAN queue — which matters doubly here, because probes share the
//!    WAN queue and a full buffer at a slow WAN link would lag the
//!    control loop by hundreds of milliseconds.
//! 3. **Install** — a `CEXEC`-targeted TPP writes the adapted rate back
//!    *at the branch switch only* ([`install_tpp`]): every hop compares
//!    `Switch:SwitchID` against the branch ID and the predicate
//!    suppresses the versioned `CSTORE`/`STORE` everywhere else. Because
//!    `Link:*` registers are per *output port*, each subtree's probe
//!    writes the register of its own WAN egress link — per-subtree state
//!    on one shared branch switch, no hand-indexed memory anywhere.
//!
//! # Inter-DC RCP* ([`InterDcSender`])
//!
//! The existing RCP* TPP program (`rcp::collect_probe` /
//! `rcp::update_probe`, registers `AppSpecific_0/1`) and its controller
//! reused unchanged over WAN paths: one `rcp::RcpLoop` per
//! (src-DC, dst-DC) path, each with its own pacer and queue history. Only
//! the equation's parameters differ per path: `c` is the path's WAN
//! capacity, and `d` — the WAN twist — its own *measured* RTT, so
//! heterogeneous-RTT paths each run a correctly-damped loop. The RTT sample
//! is the completion time minus the launch time the executor kept for the
//! probe and reports with its completion (a retry does not reset it),
//! EWMA-smoothed; the sender finds the path by the completion's source
//! address, one path per destination. Fixed-size transfers record sink-side
//! flow-completion times, the metric that separates shallow from deep WAN
//! buffer profiles.

use std::collections::BTreeMap;

use crate::common::{control_executor, parse_udp, udp_frame, HopWindows, RateMeter, DATA_PORT};
use crate::rcp::{self, alpha_aggregate, RcpConfig, RcpLoop, UpdateTpps};
use tpp_core::probe::{Probe, TppData};
use tpp_core::wire::{Ipv4Address, Tpp};
use tpp_endhost::harness::{Endhost, Harness, Io};
use tpp_endhost::PacedSender;
use tpp_netsim::{viewer_fanout, Time, TopologySpec};

/// The fan-out discovery schema: per-hop link speed + utilization + queue
/// + the branch register version (needed for the versioned write-back).
pub fn discover_probe() -> Probe {
    Probe::hop("wan-discover")
        .field("switch", "Switch:SwitchID")
        .field("speed", "Link:SpeedMbps")
        .field("util", "Link:TX-Utilization")
        .field("qsize", "Link:QueueSize")
        .field("version", "Link:AppSpecific_2")
}

/// The branch-targeted install schema: `CEXEC` gates a versioned
/// `CSTORE`/`STORE` pair so they execute only where `Switch:SwitchID`
/// matches the branch argument.
pub fn install_probe() -> Probe {
    Probe::hop("wan-install")
        .cexec("at", "Switch:SwitchID")
        .cstore("version", "Link:AppSpecific_2")
        .store("rate", "Link:AppSpecific_3")
}

/// Compile the install TPP for a path of `hops` hops: every hop carries
/// the same `(branch, version, rate)` arguments, and the `CEXEC`
/// predicate picks out the one hop where they take effect.
pub fn install_tpp(hops: usize, branch: u32, version: u32, rate_kbps: u32) -> Tpp {
    let p = install_probe();
    let mut t = p.compile_hops(hops).expect("static probe");
    for h in 0..hops {
        p.set_args(&mut t, h, "at", &[0xFFFF_FFFF, branch]).unwrap();
        p.set_args(&mut t, h, "version", &[version, version.wrapping_add(1)]).unwrap();
        p.set_args(&mut t, h, "rate", &[rate_kbps]).unwrap();
    }
    t
}

/// One hop's state from a completed discovery probe.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WanHopSample {
    pub switch_id: u32,
    pub speed_mbps: u32,
    /// Basis points of link capacity (0..=10000).
    pub util_bps: u32,
    pub queue_bytes: u32,
    pub version: u32,
}

fn discover_schema() -> &'static Probe {
    crate::common::static_schema!(discover_probe)
}

/// Decode a completed discovery probe (stopping at the end of the path).
pub fn parse_discover<T: TppData>(tpp: &T) -> Vec<WanHopSample> {
    let p = discover_schema();
    let idx = |n| p.index_of(n).unwrap();
    let (switch, speed, util, qsize, version) =
        (idx("switch"), idx("speed"), idx("util"), idx("qsize"), idx("version"));
    p.records(tpp)
        .map(|r| WanHopSample {
            switch_id: r.at(switch).unwrap_or(0),
            speed_mbps: r.at(speed).unwrap_or(0),
            util_bps: r.at(util).unwrap_or(0),
            queue_bytes: r.at(qsize).unwrap_or(0),
            version: r.at(version).unwrap_or(0),
        })
        .take_while(|s| s.switch_id != 0)
        .collect()
}

/// Fan-out control period T (one discovery + one install per subtree).
const FANOUT_PERIOD_NS: Time = 5_000_000;
/// Horizon over which a standing queue should drain (WAN-scale).
const FANOUT_DRAIN_NS: Time = 20_000_000;
/// Weight of the queue-drain term in the available-bandwidth estimate.
const FANOUT_DRAIN_GAIN: f64 = 0.5;
/// Fan-out data payload bytes.
const FANOUT_PAYLOAD: usize = 1000;
/// Initial per-subtree rate.
const FANOUT_START_RATE_BPS: f64 = 1e6;
/// Max hops a fan-out probe must cover (source → relay crosses two
/// borders).
const FANOUT_PROBE_HOPS: usize = 10;
/// The app ID of the fan-out's discovery and install probes.
const FANOUT_APP_ID: u16 = 3;

/// One fan-out subtree: the relay it feeds, the branch switch where its
/// adapted rate is installed, and the control-loop state.
struct Subtree {
    dst: Ipv4Address,
    branch: u32,
    pacer: PacedSender,
    qhist: HopWindows,
    /// Recent utilization samples per hop (basis points), averaged to
    /// de-noise the 1 ms EWMA against frame quantization.
    uhist: HopWindows,
    latest: Vec<WanHopSample>,
    /// `(t seconds, Mb/s)` sampled every control period.
    series: Vec<(f64, f64)>,
    data_bytes_sent: u64,
}

const TIMER_CONTROL: u64 = 1;
const TIMER_PACE_BASE: u64 = 16;

/// The coordinated fan-out source. Construct with [`FanoutSource::new`],
/// passing one `(relay address, branch switch id)` pair per subtree.
pub struct FanoutSource {
    start_at: Time,
    subtrees: Vec<Subtree>,
    pub probes_completed: u64,
}

/// The wired fan-out source application.
pub type FanoutSourceApp = Endhost<FanoutSource>;

impl FanoutSource {
    pub fn new(subtrees: Vec<(Ipv4Address, u32)>, start_at: Time) -> FanoutSourceApp {
        let subtrees = subtrees
            .into_iter()
            .map(|(dst, branch)| Subtree {
                dst,
                branch,
                pacer: PacedSender::new(FANOUT_START_RATE_BPS, FANOUT_PAYLOAD),
                qhist: HopWindows::new(FANOUT_PROBE_HOPS),
                uhist: HopWindows::new(FANOUT_PROBE_HOPS),
                latest: Vec::new(),
                series: Vec::new(),
                data_bytes_sent: 0,
            })
            .collect();
        let state = FanoutSource { start_at, subtrees, probes_completed: 0 };
        let probe = discover_probe().app_id(FANOUT_APP_ID).hops(FANOUT_PROBE_HOPS);
        Harness::new(state)
            .executor(control_executor(FANOUT_PERIOD_NS))
            .launch(probe, |s, _io, c| {
                // One discovery registration serves every subtree; the
                // completion's source address says which one answered.
                let Some(sub) = s.subtrees.iter_mut().find(|t| t.dst == c.from) else {
                    return;
                };
                let samples = parse_discover(&c.tpp);
                for (h, sample) in samples.iter().enumerate() {
                    sub.qhist.record(h, sample.queue_bytes);
                    sub.uhist.record(h, sample.util_bps);
                }
                sub.latest = samples;
                s.probes_completed += 1;
            })
            .on_start(|s, io| {
                io.ctx.set_timer_at(s.start_at, TIMER_CONTROL);
                for i in 0..s.subtrees.len() {
                    io.ctx.set_timer_at(s.start_at, TIMER_PACE_BASE + i as u64);
                }
            })
            .on_timer(|s, io, token| match token {
                TIMER_CONTROL => s.control_step(io),
                t if t >= TIMER_PACE_BASE => s.pace((t - TIMER_PACE_BASE) as usize, io),
                _ => {}
            })
            .build()
            .expect("static wiring")
    }

    /// Per-subtree adapted rates, in subtree construction order.
    pub fn rates_bps(&self) -> Vec<f64> {
        self.subtrees.iter().map(|t| t.pacer.rate_bps).collect()
    }

    /// Per-subtree `(t seconds, Mb/s)` adaptation series.
    pub fn rate_series(&self) -> Vec<Vec<(f64, f64)>> {
        self.subtrees.iter().map(|t| t.series.clone()).collect()
    }

    /// Total data bytes paced out across all subtrees.
    pub fn data_bytes_sent(&self) -> u64 {
        self.subtrees.iter().map(|t| t.data_bytes_sent).sum()
    }

    fn control_step(&mut self, io: &mut Io<'_, '_>) {
        let drain_s = FANOUT_DRAIN_NS as f64 / 1e9;
        let now_s = io.ctx.now as f64 / 1e9;
        for idx in 0..self.subtrees.len() {
            let sub = &mut self.subtrees[idx];
            if !sub.latest.is_empty() {
                let r_old = sub.pacer.rate_bps;
                let mut per_link = Vec::with_capacity(sub.latest.len());
                let mut branch_version = None;
                for (h, s) in sub.latest.iter().enumerate() {
                    if s.switch_id == sub.branch {
                        branch_version = Some(s.version);
                    }
                    // Available bandwidth at this hop: capacity minus
                    // traffic that isn't ours minus a term that drains
                    // any standing queue over the drain horizon.
                    let c = (s.speed_mbps.max(1)) as f64 * 1e6;
                    let y = sub.uhist.mean(h, s.util_bps) / 10_000.0 * c;
                    let cross = (y - r_old).max(0.0);
                    let q_bits = sub.qhist.mean(h, s.queue_bytes) * 8.0;
                    per_link.push((c - cross - FANOUT_DRAIN_GAIN * q_bits / drain_s).max(64_000.0));
                }
                // The measured bottleneck is the min across hops; step
                // toward it at most ±10% per period. Because the target
                // is absolute, the rate converges from below and never
                // drives the bottleneck queue into standing growth.
                let target = alpha_aggregate(&per_link, f64::INFINITY);
                let r = r_old * (target / r_old.max(1.0)).clamp(0.9, 1.1);
                sub.pacer.set_rate(r);
                sub.series.push((now_s, r / 1e6));
                // Install the adapted rate at the branch switch: the CEXEC
                // predicate suppresses the write at every other hop.
                if let Some(version) = branch_version {
                    let mut t =
                        install_tpp(sub.latest.len(), sub.branch, version, (r / 1e3) as u32);
                    t.app_id = FANOUT_APP_ID;
                    io.send_standalone(&t, sub.dst);
                }
            }
            // Next discovery round for this subtree.
            let dst = self.subtrees[idx].dst;
            io.launch(FANOUT_APP_ID, dst, None);
        }
        io.ctx.set_timer(FANOUT_PERIOD_NS, TIMER_CONTROL);
    }

    fn pace(&mut self, idx: usize, io: &mut Io<'_, '_>) {
        let sub = &mut self.subtrees[idx];
        let n = sub.pacer.due(io.ctx.now);
        for _ in 0..n {
            let frame = udp_frame(io.ctx.ip, sub.dst, 7000 + idx as u16, DATA_PORT, FANOUT_PAYLOAD);
            sub.data_bytes_sent += frame.len() as u64;
            io.ctx.send(frame);
        }
        io.ctx.set_timer_at(sub.pacer.next_deadline(), TIMER_PACE_BASE + idx as u64);
    }
}

/// A viewer-site relay: meters the stream arriving from the source and
/// re-publishes every data frame to its local viewers.
pub struct FanoutRelay {
    viewers: Vec<Ipv4Address>,
    pub meter: RateMeter,
    pub forwarded: u64,
}

/// The wired relay application.
pub type FanoutRelayApp = Endhost<FanoutRelay>;

impl FanoutRelay {
    pub fn new(viewers: Vec<Ipv4Address>, bucket_ns: Time) -> FanoutRelayApp {
        let state = FanoutRelay { viewers, meter: RateMeter::new(bucket_ns), forwarded: 0 };
        Harness::new(state)
            .on_deliver(|s, io, inner| {
                if let Some(info) = parse_udp(&inner) {
                    if info.dst_port == DATA_PORT {
                        s.meter.record(io.ctx.now, info.payload_len as u64);
                        for i in 0..s.viewers.len() {
                            let v = s.viewers[i];
                            let f = udp_frame(io.ctx.ip, v, 6001, DATA_PORT, info.payload_len);
                            io.ctx.send(f);
                            s.forwarded += 1;
                        }
                    }
                }
            })
            .build()
            .expect("static wiring")
    }
}

/// A WAN sink that meters per-flow goodput and records the flow
/// completion time of a fixed-size transfer: once a flow's delivered
/// bytes cross `expect_bytes`, its FCT is pinned.
pub struct WanSink {
    pub expect_bytes: u64,
    got: BTreeMap<(Ipv4Address, u16), u64>,
    /// (source ip, source port) -> completion time.
    pub fct_ns: BTreeMap<(Ipv4Address, u16), Time>,
}

/// The wired WAN sink application.
pub type WanSinkApp = Endhost<WanSink>;

impl WanSink {
    pub fn new(expect_bytes: u64) -> WanSinkApp {
        let state = WanSink { expect_bytes, got: BTreeMap::new(), fct_ns: BTreeMap::new() };
        Harness::new(state)
            .on_deliver(|s, io, inner| {
                if let Some(info) = parse_udp(&inner) {
                    if info.dst_port == DATA_PORT {
                        let key = (info.src, info.src_port);
                        let got = s.got.entry(key).or_insert(0);
                        let before = *got;
                        *got += info.payload_len as u64;
                        if before < s.expect_bytes && *got >= s.expect_bytes {
                            s.fct_ns.insert(key, io.ctx.now);
                        }
                    }
                }
            })
            .build()
            .expect("static wiring")
    }
}

/// One inter-DC path: destination, identity, and control-plane knowledge.
#[derive(Clone, Copy, Debug)]
pub struct InterDcPath {
    pub dst: Ipv4Address,
    /// Destination datacenter index, the path's key at its sender.
    pub dst_dc: u32,
    pub sport: u16,
    /// The path's WAN bottleneck capacity (known to the control plane).
    pub capacity_mbps: f64,
    /// Fixed transfer size in *payload* bytes (what the sink counts);
    /// 0 streams forever.
    pub transfer_bytes: u64,
}

/// Inter-DC RCP* parameters.
#[derive(Clone, Debug)]
pub struct InterDcConfig {
    /// The RCP* knobs; `rtt_ns` seeds each path's estimate until probes
    /// measure the real one.
    pub rcp: RcpConfig,
    pub paths: Vec<InterDcPath>,
}

struct PathState {
    path: InterDcPath,
    rcp: RcpLoop,
    /// EWMA of measured probe RTTs (launch → completion), in ns.
    rtt_est_ns: f64,
    data_bytes_sent: u64,
}

/// An inter-DC sender: one RCP* control loop per destination DC, reusing the intra-DC RCP TPP program over multi-ms links.
pub struct InterDcSender {
    pub cfg: InterDcConfig,
    start_at: Time,
    paths: Vec<PathState>,
    update: UpdateTpps,
    pub probes_completed: u64,
}

/// The wired inter-DC sender application.
pub type InterDcSenderApp = Endhost<InterDcSender>;

/// Per-path report: identity, state, and sender-side counters.
#[derive(Clone, Copy, Debug)]
pub struct PathReport {
    pub dst_dc: u32,
    pub rate_bps: f64,
    pub rtt_est_ms: f64,
    pub data_bytes_sent: u64,
}

impl InterDcSender {
    /// A sender for `cfg.paths`, which name one path per destination: a
    /// probe's completion finds its path by its source address.
    pub fn new(cfg: InterDcConfig, start_at: Time) -> InterDcSenderApp {
        debug_assert!(
            cfg.paths
                .iter()
                .enumerate()
                .all(|(i, p)| cfg.paths[..i].iter().all(|q| q.dst != p.dst)),
            "one inter-DC path per destination"
        );
        let rcp_cfg = cfg.rcp;
        let paths = cfg
            .paths
            .iter()
            .map(|&path| PathState {
                path,
                rcp: RcpLoop::new(&rcp_cfg),
                rtt_est_ns: rcp_cfg.rtt_ns as f64,
                data_bytes_sent: 0,
            })
            .collect();
        let state = InterDcSender {
            cfg,
            start_at,
            paths,
            update: UpdateTpps::default(),
            probes_completed: 0,
        };
        Harness::new(state)
            .executor(control_executor(rcp_cfg.period_ns))
            .launch(
                rcp::collect_probe().app_id(rcp::APP_ID).hops(rcp_cfg.probe_hops),
                |s, io, c| {
                    let Some(p) = s.paths.iter_mut().find(|p| p.path.dst == c.from) else {
                        return;
                    };
                    if let Some(sent_at) = c.sent_at {
                        let sample = (io.ctx.now - sent_at) as f64;
                        // The same halved EWMA the switch uses for
                        // utilization: fast to converge, cheap to hold.
                        p.rtt_est_ns = (p.rtt_est_ns + sample) / 2.0;
                    }
                    p.rcp.absorb(&c.tpp);
                    s.probes_completed += 1;
                },
            )
            .on_start(|s, io| {
                io.ctx.set_timer_at(s.start_at, TIMER_CONTROL);
                for i in 0..s.paths.len() {
                    io.ctx.set_timer_at(s.start_at, TIMER_PACE_BASE + i as u64);
                }
            })
            .on_timer(|s, io, token| match token {
                TIMER_CONTROL => s.control_step(io),
                t if t >= TIMER_PACE_BASE => s.pace((t - TIMER_PACE_BASE) as usize, io),
                _ => {}
            })
            .build()
            .expect("static wiring")
    }

    /// Per-path state, in path construction order.
    pub fn path_reports(&self) -> Vec<PathReport> {
        self.paths
            .iter()
            .map(|p| PathReport {
                dst_dc: p.path.dst_dc,
                rate_bps: p.rcp.pacer.rate_bps,
                rtt_est_ms: p.rtt_est_ns / 1e6,
                data_bytes_sent: p.data_bytes_sent,
            })
            .collect()
    }

    fn control_step(&mut self, io: &mut Io<'_, '_>) {
        for idx in 0..self.paths.len() {
            let p = &mut self.paths[idx];
            // Per-path equation: the path's own measured RTT damps its loop,
            // its WAN bottleneck capacity is `c`.
            let eq = RcpConfig {
                rtt_ns: p.rtt_est_ns.max(1.0) as Time,
                capacity_mbps: p.path.capacity_mbps,
                ..self.cfg.rcp
            };
            if let Some(update) = p.rcp.step(&eq, &mut self.update) {
                io.send_standalone(update, p.path.dst);
            }
            let (dst, done) = (
                p.path.dst,
                p.path.transfer_bytes > 0 && p.data_bytes_sent >= p.path.transfer_bytes,
            );
            // A finished transfer stops probing too — WAN control traffic
            // is not free.
            if !done {
                io.launch(rcp::APP_ID, dst, None);
            }
        }
        io.ctx.set_timer(self.cfg.rcp.period_ns, TIMER_CONTROL);
    }

    fn pace(&mut self, idx: usize, io: &mut Io<'_, '_>) {
        let p = &mut self.paths[idx];
        if p.path.transfer_bytes > 0 && p.data_bytes_sent >= p.path.transfer_bytes {
            return; // transfer complete: stop the pace timer chain
        }
        let n = p.rcp.pacer.due(io.ctx.now);
        for _ in 0..n {
            let frame = udp_frame(io.ctx.ip, p.path.dst, p.path.sport, DATA_PORT, rcp::PAYLOAD);
            // Payload bytes, to line up with the sink's FCT accounting.
            p.data_bytes_sent += rcp::PAYLOAD as u64;
            io.ctx.send(frame);
            if p.path.transfer_bytes > 0 && p.data_bytes_sent >= p.path.transfer_bytes {
                break;
            }
        }
        io.ctx.set_timer_at(p.rcp.pacer.next_deadline(), TIMER_PACE_BASE + idx as u64);
    }
}

/// Site-0 border switch ID on a [`TopologySpec::MultiSite`] fabric — the
/// fan-out branch switch.
pub const SITE0_BORDER: u32 = 19_000;

/// One subtree's outcome in a [`run_fanout`] experiment.
#[derive(Clone, Debug)]
pub struct SubtreeReport {
    /// Viewer site index (1-based site number in the topology).
    pub site: usize,
    /// The subtree's WAN bottleneck bandwidth (from the preset).
    pub bottleneck_mbps: f64,
    /// The adapted sending rate at the end of the run.
    pub adapted_mbps: f64,
    /// Goodput metered at the relay over the second half of the run.
    pub relay_goodput_mbps: f64,
    /// `(t seconds, Mb/s)` adaptation series.
    pub series: Vec<(f64, f64)>,
}

/// Result of a coordinated fan-out run.
pub struct FanoutRunResult {
    pub subtrees: Vec<SubtreeReport>,
    /// Probe bytes / data bytes.
    pub control_overhead_fraction: f64,
}

/// Run the coordinated fan-out experiment on the [`viewer_fanout`] preset:
/// the source in site 0 streams to one relay per viewer site, each relay
/// republishes to two local viewers, and each subtree's rate adapts to its
/// own throttled WAN link (`wan_mbps / (site + 1)`).
pub fn run_fanout(
    sites: usize,
    site_k: usize,
    wan_mbps: u64,
    duration: Time,
    seed: u64,
) -> FanoutRunResult {
    let mut topo = viewer_fanout(sites, site_k, wan_mbps)
        .builder()
        .link_mbps(1000)
        .delay_ns(1000)
        .seed(seed)
        .build();
    let hosts = topo.hosts.clone();
    let per_site = hosts.len() / sites;
    let ips: Vec<Ipv4Address> = hosts.iter().map(|&n| topo.net.host(n).ip).collect();
    let ip = |i: usize| ips[i];

    let bucket = 50_000_000; // 50 ms meter buckets
    let mut subtrees = Vec::new();
    for site in 1..sites {
        subtrees.push((ip(site * per_site), SITE0_BORDER));
    }
    topo.net.set_app(hosts[0], Box::new(FanoutSource::new(subtrees, 1_000_000)));
    for site in 1..sites {
        let relay = site * per_site;
        let viewers: Vec<Ipv4Address> = (1..=2.min(per_site - 1)).map(|v| ip(relay + v)).collect();
        topo.net.set_app(hosts[relay], Box::new(FanoutRelay::new(viewers, bucket)));
    }
    topo.net.run_until(duration);

    let half = duration as f64 / 2e9;
    let end = duration as f64 / 1e9;
    let mut reports = Vec::new();
    {
        let src = topo.net.app_mut::<FanoutSourceApp>(hosts[0]);
        let rates = src.rates_bps();
        let series = src.rate_series();
        for (i, site) in (1..sites).enumerate() {
            reports.push(SubtreeReport {
                site,
                bottleneck_mbps: (wan_mbps / (site as u64 + 1)) as f64,
                adapted_mbps: rates[i] / 1e6,
                relay_goodput_mbps: 0.0,
                series: series[i].clone(),
            });
        }
    }
    for (i, site) in (1..sites).enumerate() {
        let relay = topo.net.app_mut::<FanoutRelayApp>(hosts[site * per_site]);
        reports[i].relay_goodput_mbps = relay.meter.avg_mbps(half, end);
    }
    let src = topo.net.app_mut::<FanoutSourceApp>(hosts[0]);
    let control = src.probe_bytes_sent() as f64;
    let data = src.data_bytes_sent().max(1) as f64;
    FanoutRunResult { subtrees: reports, control_overhead_fraction: control / data }
}

/// One path's outcome in a [`run_interdc`] experiment.
#[derive(Clone, Copy, Debug)]
pub struct InterDcPathReport {
    pub src_dc: u32,
    pub dst_dc: u32,
    pub capacity_mbps: f64,
    /// Final adapted rate.
    pub rate_mbps: f64,
    /// The sender's measured RTT estimate.
    pub rtt_est_ms: f64,
    /// Sink-side flow completion time (ms since the sender started), if
    /// the transfer finished inside the horizon.
    pub fct_ms: Option<f64>,
}

/// Result of an inter-DC transfer run.
pub struct InterDcRunResult {
    pub paths: Vec<InterDcPathReport>,
}

/// Run fixed-size inter-DC transfers from site 0 to every other site of a
/// [`TopologySpec::MultiSite`] fabric. WAN delays grow with site distance
/// (heterogeneous RTTs); `wan_queue_bytes` selects the border buffer
/// profile (0 = deep default, small = shallow).
pub fn run_interdc(
    sites: usize,
    site_k: usize,
    wan_mbps: u64,
    wan_queue_bytes: u32,
    transfer_bytes: u64,
    duration: Time,
    seed: u64,
) -> InterDcRunResult {
    let start_at = 1_000_000;
    let mut topo = TopologySpec::MultiSite {
        sites,
        site_k,
        wan_delay_ns: 2_000_000,
        wan_delay_step_ns: 2_000_000,
        wan_mbps,
        wan_site_mbps: Vec::new(),
        wan_queue_bytes,
    }
    .builder()
    .link_mbps(1000)
    .delay_ns(1000)
    .seed(seed)
    .build();
    let hosts = topo.hosts.clone();
    let per_site = hosts.len() / sites;
    let ips: Vec<Ipv4Address> = hosts.iter().map(|&n| topo.net.host(n).ip).collect();
    let ip = |i: usize| ips[i];

    let rcp_cfg = RcpConfig {
        period_ns: 5_000_000,
        rtt_ns: 20_000_000,
        capacity_mbps: wan_mbps as f64,
        probe_hops: 10,
        ..RcpConfig::default()
    };
    let paths: Vec<InterDcPath> = (1..sites)
        .map(|site| InterDcPath {
            dst: ip(site * per_site),
            dst_dc: site as u32,
            sport: 7000 + site as u16,
            capacity_mbps: wan_mbps as f64,
            transfer_bytes,
        })
        .collect();
    let cfg = InterDcConfig { rcp: rcp_cfg, paths };
    topo.net.set_app(hosts[0], Box::new(InterDcSender::new(cfg, start_at)));
    for site in 1..sites {
        topo.net.set_app(hosts[site * per_site], Box::new(WanSink::new(transfer_bytes)));
    }
    topo.net.run_until(duration);

    let src_ip = ip(0);
    let mut fcts: BTreeMap<u32, f64> = BTreeMap::new();
    for site in 1..sites {
        let sink = topo.net.app_mut::<WanSinkApp>(hosts[site * per_site]);
        if let Some(&t) = sink.fct_ns.get(&(src_ip, 7000 + site as u16)) {
            fcts.insert(site as u32, (t - start_at) as f64 / 1e6);
        }
    }
    let sender = topo.net.app_mut::<InterDcSenderApp>(hosts[0]);
    let paths = sender
        .path_reports()
        .into_iter()
        .map(|r| InterDcPathReport {
            // The sender is in site 0.
            src_dc: 0,
            dst_dc: r.dst_dc,
            capacity_mbps: wan_mbps as f64,
            rate_mbps: r.rate_bps / 1e6,
            rtt_est_ms: r.rtt_est_ms,
            fct_ms: fcts.get(&r.dst_dc).copied(),
        })
        .collect();
    InterDcRunResult { paths }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpp_core::exec::{execute, ExecOptions};
    use tpp_netsim::SECONDS;

    #[test]
    fn wan_programs_validate_against_their_register_window() {
        let mut cp = tpp_endhost::CentralCp::new();
        // RCP owns AppSpecific_0/1 (the inter-DC variant reuses them);
        // the fan-out app gets the next window: AppSpecific_2/3.
        let (_rcp, first) = cp.register_app_with_regs("rcp", 2).unwrap();
        assert_eq!(first, 0);
        let (wan, first) = cp.register_app_with_regs("wan-fanout", 2).unwrap();
        assert_eq!(first, 2);
        let policy = cp.policy_for(wan, false).unwrap();
        policy.validate(&discover_probe().hops(9).compile().unwrap()).unwrap();
        policy.validate(&install_tpp(9, SITE0_BORDER, 1, 50_000)).unwrap();
    }

    #[test]
    fn install_tpp_writes_only_at_the_branch_switch() {
        use tpp_switch::{PacketContext, SwitchBus, SwitchMemory};
        let branch = 19_000;
        let mut t = install_tpp(3, branch, 0, 12_345);
        let opts = ExecOptions::default();
        for id in [10_500u32, branch, 20_500] {
            let mut mem = SwitchMemory::new(id, 4, 1);
            let mut ctx = PacketContext::new(0, 200, 0, 1);
            ctx.out_port = Some(1);
            let mut bus = SwitchBus { mem: &mut mem, ctx: &mut ctx };
            execute(&mut t, &mut bus, &opts);
        }
        // Exactly one hop (the branch) took the CSTORE/STORE; the install
        // schema records the old version into the CSTORE slot, so decode
        // and check the rate landed where — and only where — it should.
        let p = install_probe();
        let rate_idx = p.index_of("rate").unwrap();
        let rates: Vec<Option<u32>> = p.records(&t).map(|r| r.at(rate_idx)).collect();
        assert_eq!(t.hop, 3);
        assert_eq!(rates[1], Some(12_345), "branch hop must store the rate");
    }

    #[test]
    fn discover_probe_fits_the_wan_path() {
        // Source → relay crosses 8 switches on a MultiSite fabric; the
        // 5-word schema must cover that with headroom inside 252 bytes.
        assert!(discover_probe().max_hops() >= 10);
        assert!(install_probe().max_hops() >= 9);
    }

    #[test]
    fn fanout_converges_each_subtree_to_its_bottleneck() {
        // viewer_fanout(3, 4, 24): subtree bottlenecks 12 and 8 Mb/s.
        // Deterministic: one seed, no wall-clock anywhere.
        let r = run_fanout(3, 4, 24, 2 * SECONDS, 11);
        assert_eq!(r.subtrees.len(), 2);
        for s in &r.subtrees {
            let tol = 0.25 * s.bottleneck_mbps;
            assert!(
                (s.adapted_mbps - s.bottleneck_mbps).abs() < tol,
                "site {}: adapted {:.1} Mb/s vs bottleneck {:.1} Mb/s",
                s.site,
                s.adapted_mbps,
                s.bottleneck_mbps
            );
            assert!(
                s.relay_goodput_mbps > 0.5 * s.bottleneck_mbps,
                "site {}: relay goodput {:.1} Mb/s",
                s.site,
                s.relay_goodput_mbps
            );
        }
        // Distinct bottlenecks must yield distinct adapted rates.
        assert!(r.subtrees[0].adapted_mbps > r.subtrees[1].adapted_mbps);
        assert!(r.control_overhead_fraction < 0.2, "{}", r.control_overhead_fraction);
    }

    #[test]
    fn interdc_measures_heterogeneous_rtts_and_completes_transfers() {
        // Site 1 is 2 ms away, site 2 is 4 ms: the measured RTT estimates
        // must order accordingly, and both 200 kB transfers must finish.
        let r = run_interdc(3, 4, 20, 0, 200_000, 3 * SECONDS, 7);
        assert_eq!(r.paths.len(), 2);
        let p1 = r.paths.iter().find(|p| p.dst_dc == 1).unwrap();
        let p2 = r.paths.iter().find(|p| p.dst_dc == 2).unwrap();
        assert!(p1.rtt_est_ms > 3.0, "site 1 RTT ≈ 4 ms+, got {}", p1.rtt_est_ms);
        assert!(
            p2.rtt_est_ms > p1.rtt_est_ms + 1.0,
            "site 2 ({} ms) must be measurably farther than site 1 ({} ms)",
            p2.rtt_est_ms,
            p1.rtt_est_ms
        );
        assert!(p1.fct_ms.is_some() && p2.fct_ms.is_some(), "transfers must complete");
        assert!(p1.fct_ms.unwrap() < p2.fct_ms.unwrap(), "nearer DC finishes first");
    }

    #[test]
    fn failed_probes_are_forgotten() {
        // The destination runs `NullApp`: no probe is ever echoed, so every
        // one exhausts its retries and leaves the executor, the only ledger
        // of a launched probe, as a failure.
        let mut topo = TopologySpec::Star { hosts: 2 }
            .builder()
            .host_mbps(1000)
            .delay_ns(1000)
            .seed(1)
            .build();
        let (src, dst) = (topo.hosts[0], topo.hosts[1]);
        let path = InterDcPath {
            dst: topo.net.host(dst).ip,
            dst_dc: 1,
            sport: 7001,
            capacity_mbps: 100.0,
            transfer_bytes: 0,
        };
        let cfg = InterDcConfig { rcp: RcpConfig::default(), paths: vec![path] };
        topo.net.set_app(src, Box::new(InterDcSender::new(cfg, 0)));
        topo.net.run_until(SECONDS);
        let sender = topo.net.app_mut::<InterDcSenderApp>(src);
        let exec = sender.executor().expect("the sender launches probes");
        assert!(exec.failed > 100, "{} probes failed", exec.failed);
        assert_eq!((sender.probes_completed, exec.completed), (0, 0));
    }

    #[test]
    fn shallow_wan_buffers_do_not_break_completion() {
        // The shallow-buffer profile drops more at the border but the
        // versioned RCP loop still completes the transfer.
        let r = run_interdc(2, 4, 20, 12_000, 120_000, 3 * SECONDS, 5);
        assert_eq!(r.paths.len(), 1);
        assert!(r.paths[0].fct_ms.is_some(), "transfer must complete despite drops");
    }
}
