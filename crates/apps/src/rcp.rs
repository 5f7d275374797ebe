//! RCP* — an end-host implementation of the Rate Control Protocol using
//! TPPs (paper §2.2, Figure 2).
//!
//! The network allocates two per-link registers to the application
//! (`[Link:AppSpecific_0]` = version, `[Link:AppSpecific_1]` = fair rate)
//! and otherwise only executes TPPs. Each flow's rate controller runs
//! three phases every control period:
//!
//! 1. **Collect** — a standalone probe gathers, per hop: switch ID, queue
//!    size, link utilization, and the stored (version, fair-rate) pair.
//! 2. **Compute** — the *end-host* evaluates the RCP control equation
//!    (Eq. 1) per link, averaging recent queue samples.
//! 3. **Update** — a `CSTORE`-guarded TPP writes the new rate back,
//!    versioned so concurrent updaters cannot clobber each other.
//!
//! The flow's own rate is the α-fair aggregate (Eq. 2) of the per-link
//! rates: α→∞ gives max-min (R = min Rᵢ), α = 1 proportional fairness —
//! the choice is deferred to deployment time, which is the point of the
//! paper's refactoring: had max-min RCP been baked into the ASIC, other
//! fairness criteria would be unreachable.

use std::cell::RefCell;
use std::collections::BTreeMap;

use crate::common::{control_executor, parse_udp, udp_hdr, HopWindows, RateMeter, DATA_PORT};
use tpp_core::probe::{Probe, TppData};
use tpp_core::wire::{udp_frame_into, Ipv4Address, Tpp, TppBuf};
use tpp_endhost::harness::{Endhost, Harness, Io};
use tpp_endhost::PacedSender;
use tpp_netsim::Time;
use tpp_netsim::TopologySpec;

/// The phase-1 collect schema (§2.2).
///
/// The paper's listing reads `[Link:RX-Utilization]`; in our memory map the
/// utilization of the link a packet is about to traverse is the *TX*
/// utilization of its output port (the next switch's RX), so we query that.
pub fn collect_probe() -> Probe {
    Probe::hop("rcp-collect")
        .field("switch", "Switch:SwitchID")
        .field("qsize", "Link:QueueSize")
        .field("util", "Link:TX-Utilization")
        .field("version", "Link:AppSpecific_0")
        .field("rate", "Link:AppSpecific_1")
}

/// The phase-3 update schema: per-hop `(V, V+1, R_new)` triples consumed by
/// `CSTORE`/`STORE` (§2.2).
pub fn update_probe() -> Probe {
    Probe::hop("rcp-update")
        .cstore("version", "Link:AppSpecific_0")
        .store("rate", "Link:AppSpecific_1")
}

/// The schema every [`UpdateTpps`] compiles from (built once).
fn update_schema() -> &'static Probe {
    crate::common::static_schema!(update_probe)
}

/// A sender's phase-3 update TPPs: compiled from [`update_probe`] once per
/// hop count, then re-filled every control period. Only the argument words
/// change, so a re-filled TPP is byte for byte a fresh compile's.
#[derive(Default)]
pub struct UpdateTpps {
    /// The template for `n` hops at index `n`, once a period has needed it.
    by_hops: Vec<Option<Tpp>>,
}

impl UpdateTpps {
    /// The update TPP of app `app_id`, one hop per `(version, rate_kbps)`
    /// entry.
    pub fn fill(&mut self, app_id: u16, updates: &[(u32, u32)]) -> &Tpp {
        let (probe, hops) = (update_schema(), updates.len());
        if self.by_hops.len() <= hops {
            self.by_hops.resize_with(hops + 1, || None);
        }
        let t = self.by_hops[hops]
            .get_or_insert_with(|| probe.compile_hops(hops).expect("static probe"));
        t.app_id = app_id;
        for (h, &(version, rate_kbps)) in updates.iter().enumerate() {
            let args = probe
                .set_args(t, h, "version", &[version, version.wrapping_add(1)])
                .and_then(|()| probe.set_args(t, h, "rate", &[rate_kbps]));
            args.expect("the template has a window per update");
        }
        t
    }
}

/// One hop's state from a completed collect probe.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HopSample {
    pub switch_id: u32,
    pub queue_bytes: u32,
    /// Basis points of link capacity (0..=10000).
    pub util_bps: u32,
    pub version: u32,
    pub rate_kbps: u32,
}

/// The schema instance shared by all decode paths (built once; decoding
/// runs per completed probe, every control period per flow).
fn collect_schema() -> &'static Probe {
    crate::common::static_schema!(collect_probe)
}

/// Decode a completed collect probe into hop samples (stopping at the end
/// of the actual path).
pub fn parse_collect<T: TppData>(tpp: &T) -> Vec<HopSample> {
    let p = collect_schema();
    // Resolve names once per TPP, not once per hop (one probe per flow
    // per control period).
    let idx = |n| p.index_of(n).unwrap();
    let (switch, qsize, util, version, rate) =
        (idx("switch"), idx("qsize"), idx("util"), idx("version"), idx("rate"));
    p.records(tpp)
        .map(|r| HopSample {
            switch_id: r.at(switch).unwrap_or(0),
            queue_bytes: r.at(qsize).unwrap_or(0),
            util_bps: r.at(util).unwrap_or(0),
            version: r.at(version).unwrap_or(0),
            rate_kbps: r.at(rate).unwrap_or(0),
        })
        .take_while(|s| s.switch_id != 0) // probe memory beyond the path
        .collect()
}

/// RCP* parameters.
#[derive(Clone, Copy, Debug)]
pub struct RcpConfig {
    /// α-fairness parameter; `f64::INFINITY` = max-min (Eq. 2).
    pub alpha: f64,
    /// Control period T (one probe + one update per period).
    pub period_ns: Time,
    /// Average RTT estimate d used in Eq. 1.
    pub rtt_ns: Time,
    /// Uniform link capacity (known to the control plane).
    pub capacity_mbps: f64,
    /// Initial flow rate (paper: "all flows start at 1Mb/s").
    pub start_rate_bps: f64,
    /// Max hops a probe must cover.
    pub probe_hops: usize,
}

impl Default for RcpConfig {
    fn default() -> Self {
        RcpConfig {
            alpha: f64::INFINITY,
            period_ns: 2_000_000,
            rtt_ns: 10_000_000,
            capacity_mbps: 100.0,
            start_rate_bps: 1e6,
            probe_hops: 5,
        }
    }
}

/// The stability gains `a` and `b` of the RCP control equation (Eq. 1).
const GAIN_A: f64 = 0.4;
const GAIN_B: f64 = 0.5;

/// Data packet payload bytes of every RCP* sender, intra- and inter-DC.
pub const PAYLOAD: usize = 1000;

/// The app ID of RCP*'s collect and update probes, intra- and inter-DC.
pub(crate) const APP_ID: u16 = 2;

/// Aggregate per-link fair rates into the flow rate (Eq. 2).
pub fn alpha_aggregate(rates_bps: &[f64], alpha: f64) -> f64 {
    if rates_bps.is_empty() {
        return 0.0;
    }
    let min = rates_bps.iter().copied().fold(f64::INFINITY, f64::min);
    if alpha.is_infinite() || min <= 0.0 {
        return min.max(0.0);
    }
    // Normalize by the minimum so large α doesn't underflow: each term
    // (rᵢ/min)^-α is in (0, 1].
    let sum: f64 = rates_bps.iter().map(|r| (r / min).powf(-alpha)).sum();
    min * sum.powf(-1.0 / alpha)
}

/// Evaluate the RCP control equation (Eq. 1) at the end-host.
///
/// `r_old` and the result are in b/s; `y` is the measured link utilization
/// in b/s; `q_avg` the average queue in bytes; `c` capacity in b/s.
pub fn rcp_equation(cfg: &RcpConfig, r_old: f64, y: f64, q_avg_bytes: f64, c: f64) -> f64 {
    let t = cfg.period_ns as f64 / 1e9;
    let d = cfg.rtt_ns as f64 / 1e9;
    let q_bits = q_avg_bytes * 8.0;
    let factor = 1.0 - (t / (d * GAIN_A)) * ((y - c) + GAIN_B * q_bits / d) / c;
    // Multiplicative clamp for stability under bursty measurements: at most
    // a 10% move per control period keeps the loop well inside its
    // stability region despite the EWMA'd utilization signal.
    //
    // The upper bound deliberately exceeds capacity: on *uncongested* links
    // R must be free to rise far above C so the link drops out of the
    // Eq. 2 aggregation (its R^-alpha term vanishes); flows on a single
    // bottleneck then converge to that link's fair share. Senders cap
    // their actual pacing rate separately.
    (r_old * factor.clamp(0.9, 1.1)).clamp(8_000.0, 100.0 * c)
}

/// One path's RCP* controller (§2.2): the pacer it drives, the per-hop
/// queue history phase 2 averages, and the latest collect. [`RcpSender`]
/// runs one; the inter-DC sender (`wan::InterDcSender`) runs one per path.
pub(crate) struct RcpLoop {
    pub(crate) pacer: PacedSender,
    qhist: HopWindows,
    latest: Vec<HopSample>,
}

impl RcpLoop {
    pub(crate) fn new(cfg: &RcpConfig) -> Self {
        RcpLoop {
            pacer: PacedSender::new(cfg.start_rate_bps, PAYLOAD),
            qhist: HopWindows::new(cfg.probe_hops),
            latest: Vec::new(),
        }
    }

    /// Phase 1's result: a completed collect probe.
    pub(crate) fn absorb(&mut self, collect: &TppBuf) {
        self.latest = parse_collect(collect);
        for (h, s) in self.latest.iter().enumerate() {
            self.qhist.record(h, s.queue_bytes);
        }
    }

    /// Phases 2 and 3 under the equation parameters `eq`: a new rate per
    /// hop, the flow's own rate set on the pacer, and the update TPP that
    /// writes the per-hop rates back. `None` until a collect has completed.
    pub(crate) fn step<'u>(
        &mut self,
        eq: &RcpConfig,
        update: &'u mut UpdateTpps,
    ) -> Option<&'u Tpp> {
        if self.latest.is_empty() {
            return None;
        }
        let c = eq.capacity_mbps * 1e6;
        let mut new_rates = Vec::new();
        let mut updates = Vec::new();
        for (h, s) in self.latest.iter().enumerate() {
            let y = s.util_bps as f64 / 10_000.0 * c;
            let q_avg = self.qhist.mean(h, s.queue_bytes);
            // An uninitialized register is seeded at 10% of capacity.
            let r_old = if s.rate_kbps == 0 { c * 0.1 } else { s.rate_kbps as f64 * 1e3 };
            let r_new = rcp_equation(eq, r_old, y, q_avg, c);
            new_rates.push(r_new);
            updates.push((s.version, (r_new / 1e3) as u32));
        }
        // Flow rate: α-fair aggregate of the per-link rates (Eq. 2), capped
        // at line rate (R may legitimately exceed C on uncongested links;
        // the NIC cannot).
        self.pacer.set_rate(alpha_aggregate(&new_rates, eq.alpha).min(c));
        // Phase 3: versioned write-back.
        Some(update.fill(APP_ID, &updates))
    }
}

const TIMER_CONTROL: u64 = 1;
const TIMER_PACE: u64 = 2;

/// A sending flow with an RCP* rate controller. Construct with
/// [`RcpSender::new`]; control traffic (probes, updates, retries) is
/// accounted by the harness's `probe_bytes_sent`.
pub struct RcpSender {
    pub cfg: RcpConfig,
    dst: Ipv4Address,
    sport: u16,
    /// When to start sending (flows can be staggered).
    start_at: Time,
    rcp: RcpLoop,
    update: UpdateTpps,
    pub data_bytes_sent: u64,
    pub probes_completed: u64,
}

/// The wired RCP* sender application.
pub type RcpSenderApp = Endhost<RcpSender>;

impl RcpSender {
    pub fn new(cfg: RcpConfig, dst: Ipv4Address, sport: u16, start_at: Time) -> RcpSenderApp {
        let state = RcpSender {
            cfg,
            dst,
            sport,
            start_at,
            rcp: RcpLoop::new(&cfg),
            update: UpdateTpps::default(),
            data_bytes_sent: 0,
            probes_completed: 0,
        };
        Harness::new(state)
            .executor(control_executor(cfg.period_ns))
            .launch(collect_probe().app_id(APP_ID).hops(cfg.probe_hops), |s, _io, c| {
                s.rcp.absorb(&c.tpp);
                s.probes_completed += 1;
            })
            .on_start(|s, io| {
                io.ctx.set_timer_at(s.start_at, TIMER_CONTROL);
                io.ctx.set_timer_at(s.start_at, TIMER_PACE);
            })
            .on_timer(|s, io, token| match token {
                TIMER_CONTROL => s.control_step(io),
                TIMER_PACE => s.pace(io),
                _ => {}
            })
            .build()
            .expect("static wiring")
    }

    fn control_step(&mut self, io: &mut Io<'_, '_>) {
        if let Some(update) = self.rcp.step(&self.cfg, &mut self.update) {
            io.send_standalone(update, self.dst);
        }
        // Phase 1 for the next period.
        io.launch(APP_ID, self.dst, None);
        io.ctx.set_timer(self.cfg.period_ns, TIMER_CONTROL);
    }

    fn pace(&mut self, io: &mut Io<'_, '_>) {
        let n = self.rcp.pacer.due(io.ctx.now);
        let hdr = udp_hdr(io.ctx.ip, self.dst, self.sport, DATA_PORT);
        for _ in 0..n {
            // In a buffer a sink handed back (see `RcpSink`).
            let mut frame = io.ctx.take_buf();
            udp_frame_into(&mut frame, &hdr, PAYLOAD, &[]);
            self.data_bytes_sent += frame.len() as u64;
            io.ctx.send(frame);
        }
        io.ctx.set_timer_at(self.rcp.pacer.next_deadline(), TIMER_PACE);
    }
}

/// A sink that meters per-flow goodput and echoes probes. Construct with
/// [`RcpSink::new`].
pub struct RcpSink {
    /// (source ip, source port) -> rate meter.
    // A `RefCell` only because `benchmark/` reads it with `borrow()` (ROADMAP 1a).
    pub meters: RefCell<BTreeMap<(Ipv4Address, u16), RateMeter>>,
    pub bucket_ns: Time,
}

/// The wired RCP* sink application.
pub type RcpSinkApp = Endhost<RcpSink>;

impl RcpSink {
    pub fn new(bucket_ns: Time) -> RcpSinkApp {
        let state = RcpSink { meters: RefCell::default(), bucket_ns };
        Harness::new(state)
            .on_deliver(|s, io, inner| {
                if let Some(info) = parse_udp(&inner) {
                    if info.dst_port == DATA_PORT {
                        let m = s
                            .meters
                            .get_mut()
                            .entry((info.src, info.src_port))
                            .or_insert_with(|| RateMeter::new(s.bucket_ns));
                        m.record(io.ctx.now, info.payload_len as u64);
                    }
                }
                // The senders build their next data frames in it.
                io.ctx.recycle(inner);
            })
            .build()
            .expect("static wiring")
    }
}

/// Result of the Figure 2 experiment: throughput series per flow.
pub struct RcpResult {
    /// `(flow name, series of (t seconds, Mb/s))`.
    pub flows: Vec<(String, Vec<(f64, f64)>)>,
    /// Average goodput per flow over the second half of the run.
    pub steady_mbps: Vec<(String, f64)>,
    pub control_overhead_fraction: f64,
}

/// Run the Figure 2 topology: flow `a` over two links, `b` and `c` over one
/// each; every link 100 Mb/s; flows start at 1 Mb/s.
pub fn run_rcp_fig2(alpha: f64, duration: Time, seed: u64) -> RcpResult {
    let mut topo = TopologySpec::Line { switches: 3, hosts_per_switch: 2 }
        .builder()
        .link_mbps(100)
        .delay_ns(10_000)
        .seed(seed)
        .build();
    // Hosts: [h0a, h0b (S0), h1a, h1b (S1), h2a, h2b (S2)].
    let h = topo.hosts.clone();
    let ips: Vec<Ipv4Address> = h.iter().map(|&n| topo.net.host(n).ip).collect();
    let ip = |i: usize| ips[i];

    let cfg = RcpConfig { alpha, ..RcpConfig::default() };
    let bucket = 100_000_000; // 100 ms

    // flow a: h0a -> h2a (both trunks); flow b: h0b -> h1a (first trunk);
    // flow c: h1b -> h2b (second trunk) — all in the same direction, so `a`
    // shares one link with each of `b` and `c` (the Figure 2 inset).
    let flows: [(usize, usize, u16, &str); 3] =
        [(0, 4, 7001, "a"), (1, 2, 7002, "b"), (3, 5, 7003, "c")];
    for &(src, dst, sport, _) in &flows {
        topo.net.set_app(h[src], Box::new(RcpSender::new(cfg, ip(dst), sport, 1_000_000)));
    }
    for &(_, dst, _, _) in &flows {
        topo.net.set_app(h[dst], Box::new(RcpSink::new(bucket)));
    }
    topo.net.run_until(duration);

    let mut series = Vec::new();
    let mut steady = Vec::new();
    let mut control_bytes = 0u64;
    let mut data_bytes = 0u64;
    let half = duration as f64 / 2e9;
    let end = duration as f64 / 1e9;
    for &(src, dst, sport, name) in &flows {
        let src_ip = ip(src);
        {
            let sink = topo.net.app_mut::<RcpSinkApp>(h[dst]);
            let m = sink.meters.get_mut().get(&(src_ip, sport));
            series.push((name.to_string(), m.map(RateMeter::series_mbps).unwrap_or_default()));
            steady.push((name.to_string(), m.map(|m| m.avg_mbps(half, end)).unwrap_or(0.0)));
        }
        let sender = topo.net.app_mut::<RcpSenderApp>(h[src]);
        control_bytes += sender.probe_bytes_sent();
        data_bytes += sender.data_bytes_sent;
    }
    RcpResult {
        flows: series,
        steady_mbps: steady,
        control_overhead_fraction: control_bytes as f64 / data_bytes.max(1) as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpp_netsim::{MILLIS, SECONDS};

    /// Words per hop in the collect probe.
    const COLLECT_WORDS: usize = 5;

    #[test]
    fn collect_and_update_programs_validate() {
        let mut cp = tpp_endhost::CentralCp::new();
        let (app, first) = cp.register_app_with_regs("rcp", 2).unwrap();
        assert_eq!(first, 0);
        let policy = cp.policy_for(app, false).unwrap();
        policy.validate(&collect_probe().hops(5).compile().unwrap()).unwrap();
        policy.validate(UpdateTpps::default().fill(app, &[(1, 100), (2, 200)])).unwrap();
    }

    #[test]
    fn refilled_update_tpps_equal_a_fresh_compile() {
        // What every control period built before the templates: the schema,
        // compiled for that many hops, its arguments written.
        let fresh = |updates: &[(u32, u32)]| {
            let probe = update_probe();
            let mut t = probe.compile_hops(updates.len()).unwrap();
            for (h, &(version, rate_kbps)) in updates.iter().enumerate() {
                probe.set_args(&mut t, h, "version", &[version, version.wrapping_add(1)]).unwrap();
                probe.set_args(&mut t, h, "rate", &[rate_kbps]).unwrap();
            }
            t.app_id = 2;
            t
        };
        let mut tpps = UpdateTpps::default();
        let periods: [&[(u32, u32)]; 5] = [
            &[(1, 100), (2, 200)],
            &[(7, 5)],
            &[(u32::MAX, 1), (3, 4), (5, 6)],
            &[(8, 9), (10, 11)],
            &[(0, 0), (0, 0)],
        ];
        for updates in periods {
            assert_eq!(tpps.fill(2, updates), &fresh(updates), "{updates:?}");
        }
    }

    #[test]
    fn alpha_aggregation_limits() {
        let rates = [30e6, 60e6, 90e6];
        // Max-min: the minimum.
        assert_eq!(alpha_aggregate(&rates, f64::INFINITY), 30e6);
        // Proportional: harmonic-style mean, below min.
        let p = alpha_aggregate(&rates, 1.0);
        assert!(p < 30e6 && p > 10e6, "{p}");
        // Large alpha approaches max-min.
        let near = alpha_aggregate(&rates, 64.0);
        assert!((near - 30e6).abs() / 30e6 < 0.05, "{near}");
    }

    #[test]
    fn equation_direction() {
        let cfg = RcpConfig::default();
        let c = 100e6;
        // Underutilized, empty queue -> rate increases.
        let up = rcp_equation(&cfg, 10e6, 0.2 * c, 0.0, c);
        assert!(up > 10e6);
        // Overloaded with queue -> rate decreases.
        let down = rcp_equation(&cfg, 50e6, 1.2 * c, 50_000.0, c);
        assert!(down < 50e6);
        // R may exceed C (uncongested links drop out of Eq. 2) but is
        // bounded.
        assert!(rcp_equation(&cfg, 99.0 * c, 0.0, 0.0, c) <= 100.0 * c);
        // Never collapses to zero.
        assert!(rcp_equation(&cfg, 10_000.0, 2.0 * c, 1e6, c) >= 8_000.0);
    }

    #[test]
    fn parse_collect_stops_at_path_end() {
        let mut t = collect_probe().hops(5).compile().unwrap();
        // Two executed hops.
        for h in 0..2u32 {
            let base = (h as usize) * COLLECT_WORDS;
            t.write_word(base, h + 1).unwrap();
            t.write_word(base + 1, 100).unwrap();
            t.write_word(base + 2, 5000).unwrap();
            t.write_word(base + 3, 9).unwrap();
            t.write_word(base + 4, 40_000).unwrap();
        }
        t.hop = 2;
        t.sp = 10;
        let s = parse_collect(&t);
        assert_eq!(s.len(), 2);
        assert_eq!(s[1].switch_id, 2);
        assert_eq!(s[0].rate_kbps, 40_000);
    }

    #[test]
    fn a_forged_collect_echo_with_more_hops_than_the_probe_does_not_panic() {
        use tpp_core::wire::{udp_frame_with, UdpFrameRepr};
        use tpp_endhost::shim::{mac_of_ip, TPP_ECHO_PORT};
        // The sender launches its second collect (token 2) at 3 ms. A third
        // host answers it first with an echo of 12 hop windows, more than
        // the 5 the probe asked for, its last memory word that token.
        let mut topo = TopologySpec::Star { hosts: 3 }
            .builder()
            .host_mbps(1000)
            .delay_ns(1000)
            .seed(1)
            .build();
        let h = topo.hosts.clone();
        let ip = |i: usize| topo.net.host(h[i]).ip;
        let (sender, sink, forger) = (ip(0), ip(1), ip(2));
        let mut forged = collect_probe().app_id(2).hops(12).compile().unwrap();
        for w in 0..forged.memory.len() / 4 {
            forged.write_word(w, w as u32 + 1).unwrap();
        }
        forged.sp = 60;
        forged.hop = 12;
        forged.write_word(forged.memory.len() / 4 - 1, 2).unwrap();
        let hdr = UdpFrameRepr {
            src_mac: mac_of_ip(forger),
            dst_mac: mac_of_ip(sender),
            src_ip: forger,
            dst_ip: sender,
            src_port: 9,
            dst_port: TPP_ECHO_PORT,
        };
        let frame = udp_frame_with(&hdr, forged.section_len(), |p| forged.emit(p));
        let attacker = Harness::new(Some(frame))
            .on_start(|_, io| io.ctx.set_timer_at(3_000_001, 1))
            .on_timer(|frame: &mut Option<Vec<u8>>, io, _| io.ctx.send(frame.take().unwrap()))
            .build()
            .unwrap();
        topo.net.set_app(h[0], Box::new(RcpSender::new(RcpConfig::default(), sink, 7001, MILLIS)));
        topo.net.set_app(h[1], Box::new(RcpSink::new(100 * MILLIS)));
        topo.net.set_app(h[2], Box::new(attacker));
        topo.net.run_until(20 * MILLIS);
        assert!(topo.net.app_mut::<RcpSenderApp>(h[0]).probes_completed > 5);
    }

    #[test]
    #[ignore = "multi-second simulation; run explicitly or via the bench harness"]
    fn fig2_maxmin_converges_to_equal_shares() {
        let r = run_rcp_fig2(f64::INFINITY, 20 * SECONDS, 1);
        for (name, mbps) in &r.steady_mbps {
            assert!(
                (*mbps - 50.0).abs() < 12.0,
                "flow {name} should get ~50 Mb/s under max-min, got {mbps}"
            );
        }
    }

    #[test]
    fn rcp_converges_quickly_on_single_bottleneck() {
        // Two flows sharing one link must converge toward ~50 each within
        // a few seconds (smoke test of the full control loop).
        let mut topo = TopologySpec::Line { switches: 2, hosts_per_switch: 2 }
            .builder()
            .link_mbps(100)
            .delay_ns(10_000)
            .seed(3)
            .build();
        let h = topo.hosts.clone();
        let ips: Vec<Ipv4Address> = h.iter().map(|&n| topo.net.host(n).ip).collect();
        let cfg = RcpConfig::default();
        let dst0 = ips[2];
        let dst1 = ips[3];
        topo.net.set_app(h[0], Box::new(RcpSender::new(cfg, dst0, 7001, 1_000_000)));
        topo.net.set_app(h[1], Box::new(RcpSender::new(cfg, dst1, 7002, 1_000_000)));
        topo.net.set_app(h[2], Box::new(RcpSink::new(100_000_000)));
        topo.net.set_app(h[3], Box::new(RcpSink::new(100_000_000)));
        topo.net.run_until(4 * SECONDS);
        let src0 = ips[0];
        let src1 = ips[1];
        let g0 = {
            let sink = topo.net.app_mut::<RcpSinkApp>(h[2]);
            sink.meters.get_mut().get(&(src0, 7001)).map(|m| m.avg_mbps(2.0, 4.0)).unwrap_or(0.0)
        };
        let g1 = {
            let sink = topo.net.app_mut::<RcpSinkApp>(h[3]);
            sink.meters.get_mut().get(&(src1, 7002)).map(|m| m.avg_mbps(2.0, 4.0)).unwrap_or(0.0)
        };
        let sum = g0 + g1;
        assert!(sum > 60.0, "bottleneck should be well utilized, got {g0}+{g1}={sum}");
        let ratio = g0.max(g1) / g0.min(g1).max(1.0);
        assert!(ratio < 1.8, "shares should be roughly equal: {g0} vs {g1}");
        // Probes actually completed round trips, none was retried, and no
        // update came back as a completion that matches nothing.
        for &host in &h[..2] {
            let sender = topo.net.app_mut::<RcpSenderApp>(host);
            assert!(sender.probes_completed > 100, "probes: {}", sender.probes_completed);
            let exec = sender.executor().expect("the sender launches probes");
            assert_eq!((exec.unmatched, exec.retransmitted), (0, 0), "host {host:?}");
        }
    }
}
