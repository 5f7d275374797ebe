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
//!
//! One sender and one sink serve every periodic path controller. An
//! [`RcpSender`] runs a control loop per path (a destination, a source port
//! and a transfer size), and finds a completed collect's path by its source
//! address. What a loop collects, computes and writes back is its [`Law`]:
//! [`Law::Rcp`] is the RCP* above, [`Law::Fanout`] the coordinated WAN
//! fan-out of [`crate::wan`]. Eq. 1's `d` is [`RcpConfig::rtt_ns`] on every
//! path; each path also keeps its measured probe RTT, which is reported, not
//! used. An [`RcpSink`] meters each flow's goodput and records when a
//! fixed-size transfer completes.

use std::cell::RefCell;
use std::collections::BTreeMap;

use crate::common::{control_executor, parse_udp, udp_hdr, HopWindows, RateMeter, DATA_PORT};
use crate::wan;
use tpp_core::probe::{Probe, TppData};
use tpp_core::wire::{udp_frame_into, Ipv4Address, Tpp, TppBuf};
use tpp_endhost::harness::{Endhost, Harness, Io};
use tpp_endhost::PacedSender;
use tpp_fabric::{Fabric, PartitionStrategy};
use tpp_netsim::{NodeId, Time, Topology, TopologySpec};

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

/// A sender's write-back TPPs: compiled from its law's schema once per hop
/// count, then refilled every control period. Only the argument words
/// change, so a refilled TPP is byte for byte a fresh compile's.
#[derive(Default)]
pub struct UpdateTpps {
    /// The template for each hop count a period has needed.
    by_hops: BTreeMap<usize, Tpp>,
}

impl UpdateTpps {
    /// `law`'s write-back TPP, one hop per `(version, rate_kbps)` entry. A
    /// sender runs one law, so one `UpdateTpps` serves one law.
    pub fn fill(&mut self, law: Law, updates: impl ExactSizeIterator<Item = (u32, u32)>) -> &Tpp {
        let (probe, hops) = (law.schemas().1, updates.len());
        let t = self.by_hops.entry(hops).or_insert_with(|| {
            let mut t = probe.compile_hops(hops).expect("static probe");
            t.app_id = law.app_ids().1;
            // The fan-out's branch is a constant of the law: its CEXEC
            // arguments are written once.
            for h in (0..hops).filter(|_| law == Law::Fanout) {
                let at = probe.set_args(&mut t, h, "at", &[u32::MAX, wan::SITE0_BORDER]);
                at.expect("the template has a window per hop");
            }
            t
        });
        for (h, (version, rate_kbps)) in updates.enumerate() {
            let args = probe
                .set_args(t, h, "version", &[version, version.wrapping_add(1)])
                .and_then(|()| probe.set_args(t, h, "rate", &[rate_kbps]));
            args.expect("the template has a window per update");
        }
        t
    }
}

/// One hop's state from a completed collect probe. A law's collect reads
/// the fields it uses; the others read 0.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HopSample {
    pub switch_id: u32,
    pub queue_bytes: u32,
    /// Basis points of link capacity (0..=10000).
    pub util_bps: u32,
    pub version: u32,
    /// The stored fair rate (RCP*).
    pub rate_kbps: u32,
    /// The link's capacity (the fan-out).
    pub speed_mbps: u32,
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

/// The α-fair allocation an RCP\* loop should settle at: the flow rates
/// that maximise `Σ U_α(x)` with no link over its capacity, where `U_α` is
/// `ln x` at α = 1 and `x^(1-α) / (1-α)` otherwise. `routes[f]` lists the
/// indices into `capacities` of the links flow `f` crosses; rates come back
/// in the unit of `capacities`, and a flow that crosses no link gets
/// `f64::INFINITY`.
///
/// α = ∞ (max-min) is water-filling. A finite α solves the KKT conditions,
/// `x = (Σ pₗ over the flow's links)^(-1/α)` with each link's price `pₗ`
/// either 0 or what fills the link exactly, by bisection on one link's price
/// at a time, the others held, sweeping the links until no price moves.
pub fn fair_share(capacities: &[f64], routes: &[&[usize]], alpha: f64) -> Vec<f64> {
    assert!(alpha > 0.0, "α-fairness needs α > 0, got {alpha}");
    if alpha.is_infinite() {
        return water_fill(capacities, routes);
    }
    let rate = |others: f64, p: f64| (others + p).powf(-1.0 / alpha);
    let mut price = vec![0.0; capacities.len()];
    for _sweep in 0..1000 {
        let mut settled = true;
        for (l, &cap) in capacities.iter().enumerate() {
            // Each flow on the link with the summed price of its other links.
            let others: Vec<f64> = routes
                .iter()
                .filter(|r| r.contains(&l))
                .map(|r| r.iter().filter(|&&k| k != l).map(|&k| price[k]).sum())
                .collect();
            let over = |p: f64| others.iter().map(|&o| rate(o, p)).sum::<f64>() > cap;
            let p = if !over(0.0) {
                0.0
            } else {
                // Bracket geometrically (prices span many decades as α
                // grows), then bisect: over(lo), !over(hi).
                let (mut lo, mut hi) = (1.0, 1.0);
                while over(hi) {
                    hi *= 2.0;
                }
                while !over(lo) {
                    lo /= 2.0;
                }
                loop {
                    let mid = 0.5 * (lo + hi);
                    if mid <= lo || mid >= hi {
                        break hi;
                    }
                    if over(mid) {
                        lo = mid;
                    } else {
                        hi = mid;
                    }
                }
            };
            settled &= (p - price[l]).abs() <= 1e-12 * p;
            price[l] = p;
        }
        if settled {
            break;
        }
    }
    routes.iter().map(|r| rate(r.iter().map(|&l| price[l]).sum(), 0.0)).collect()
}

/// Max-min fair rates: raise every unfrozen flow together, and freeze the
/// flows on whichever link fills first, until every flow is frozen.
fn water_fill(capacities: &[f64], routes: &[&[usize]]) -> Vec<f64> {
    let mut rate: Vec<f64> =
        routes.iter().map(|r| if r.is_empty() { f64::INFINITY } else { 0.0 }).collect();
    let mut frozen: Vec<bool> = routes.iter().map(|r| r.is_empty()).collect();
    let mut left = capacities.to_vec();
    loop {
        // The link that fills first: least capacity left per unfrozen flow.
        let fills_first = (0..left.len())
            .filter_map(|l| {
                let n = routes.iter().zip(&frozen).filter(|(r, &f)| !f && r.contains(&l)).count();
                (n > 0).then(|| (left[l].max(0.0) / n as f64, l))
            })
            .min_by(|a, b| a.0.total_cmp(&b.0));
        let Some((step, full)) = fills_first else {
            return rate;
        };
        for (f, r) in routes.iter().enumerate() {
            if !frozen[f] {
                rate[f] += step;
                for &l in *r {
                    left[l] -= step;
                }
            }
        }
        for (f, r) in routes.iter().enumerate() {
            frozen[f] |= r.contains(&full);
        }
    }
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

/// One path of an [`RcpSender`]: where its data goes, from which port, and
/// how much of it.
#[derive(Clone, Copy, Debug)]
pub struct RcpPath {
    pub dst: Ipv4Address,
    pub sport: u16,
    /// Transfer size in payload bytes, what the sink counts; 0 streams
    /// forever.
    pub transfer_bytes: u64,
}

/// A periodic path controller's law: the probe its loop collects with, how
/// a collect becomes the path's rate, and what it writes back. The loop
/// around it (one per path, with its control and pace timers) is the same
/// for both.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Law {
    /// RCP* (§2.2): Eq. 1 per hop of a [`collect_probe`], the α-fair
    /// aggregate (Eq. 2) as the path's rate, and a versioned write-back at
    /// every hop ([`update_probe`]; app IDs 2 and 6, `AppSpecific_0/1`).
    Rcp,
    /// The coordinated fan-out of [`crate::wan`]: a [`wan::discover_probe`],
    /// a rate slewed toward the least available bandwidth, and an install at
    /// the branch switch alone ([`wan::install_probe`]; app IDs 3 and 7,
    /// `AppSpecific_2/3`).
    Fanout,
}

/// Horizon, in seconds, over which the fan-out drains a standing queue.
const FANOUT_DRAIN_S: f64 = 0.02;
/// Weight of the queue-drain term in the fan-out's available bandwidth.
const FANOUT_DRAIN_GAIN: f64 = 0.5;

impl Law {
    /// The app IDs of the law's collects and of its write-backs. No other
    /// app uses the second: a path's destination aggregates it itself, so
    /// it consumes write-backs unechoed (§4.2).
    pub(crate) fn app_ids(self) -> (u16, u16) {
        match self {
            Law::Rcp => (2, 6),
            Law::Fanout => (3, 7),
        }
    }

    /// The law's collect and write-back schemas (each built once).
    fn schemas(self) -> (&'static Probe, &'static Probe) {
        use crate::common::static_schema;
        use wan::{discover_probe, install_probe};
        match self {
            Law::Rcp => (static_schema!(collect_probe), static_schema!(update_probe)),
            Law::Fanout => (static_schema!(discover_probe), static_schema!(install_probe)),
        }
    }

    /// Decode a completed collect into hop samples (stopping at the end of
    /// the actual path).
    pub fn samples<T: TppData>(self, tpp: &T) -> Vec<HopSample> {
        let p = self.schemas().0;
        // Resolve names once per TPP, not once per hop (one probe per path
        // per control period). A field the schema lacks reads no slot.
        let idx = |n| p.index_of(n).unwrap_or(usize::MAX);
        let (switch, qsize, util, version, rate, speed) =
            (idx("switch"), idx("qsize"), idx("util"), idx("version"), idx("rate"), idx("speed"));
        p.records(tpp)
            .map(|r| {
                let at = |i| r.at(i).unwrap_or(0);
                HopSample {
                    switch_id: at(switch),
                    queue_bytes: at(qsize),
                    util_bps: at(util),
                    version: at(version),
                    rate_kbps: at(rate),
                    speed_mbps: at(speed),
                }
            })
            .take_while(|s| s.switch_id != 0) // probe memory beyond the path
            .collect()
    }
}

/// One path's controller: the pacer it drives, the per-hop queue and
/// utilization history it averages, the latest collect, and the path's
/// measured round trip.
struct RcpLoop {
    path: RcpPath,
    pacer: PacedSender,
    qhist: HopWindows,
    /// The fan-out's, to de-noise the switch's 1 ms utilization EWMA against
    /// frame quantization. RCP*'s Eq. 1 reads that EWMA as is: it keeps none.
    uhist: HopWindows,
    latest: Vec<HopSample>,
    /// EWMA of measured probe RTTs, in ns: completion time minus the
    /// launch time the executor kept for the probe (a retry does not reset
    /// it).
    rtt_est_ns: f64,
    payload_sent: u64,
    /// `(t seconds, Mb/s)` after every fan-out step; RCP* records none.
    series: Vec<(f64, f64)>,
}

impl RcpLoop {
    fn new(law: Law, cfg: &RcpConfig, path: RcpPath) -> Self {
        RcpLoop {
            path,
            pacer: PacedSender::new(cfg.start_rate_bps),
            qhist: HopWindows::new(cfg.probe_hops),
            uhist: HopWindows::new(if law == Law::Fanout { cfg.probe_hops } else { 0 }),
            latest: Vec::new(),
            rtt_est_ns: cfg.rtt_ns as f64,
            payload_sent: 0,
            series: Vec::new(),
        }
    }

    /// Whether a fixed-size transfer has sent all its payload.
    fn done(&self) -> bool {
        self.path.transfer_bytes > 0 && self.payload_sent >= self.path.transfer_bytes
    }

    /// Phase 1's result: a completed collect probe.
    fn absorb(&mut self, law: Law, collect: &TppBuf) {
        self.latest = law.samples(collect);
        for (h, s) in self.latest.iter().enumerate() {
            self.qhist.record(h, s.queue_bytes);
            self.uhist.record(h, s.util_bps);
        }
    }

    /// Phases 2 and 3: the path's new rate set on the pacer, and the TPP
    /// that writes it back. `None` until a collect has completed, or when the
    /// fan-out's path misses its branch switch.
    fn step<'u>(
        &mut self,
        law: Law,
        cfg: &RcpConfig,
        now: Time,
        wb: &'u mut UpdateTpps,
    ) -> Option<&'u Tpp> {
        if self.latest.is_empty() {
            return None;
        }
        let (r_old, cap) = (self.pacer.rate_bps, cfg.capacity_mbps * 1e6);
        let mut per_link = Vec::with_capacity(self.latest.len());
        for (h, s) in self.latest.iter().enumerate() {
            let q_avg = self.qhist.mean(h, s.queue_bytes);
            per_link.push(match law {
                Law::Rcp => {
                    let y = s.util_bps as f64 / 10_000.0 * cap;
                    // An uninitialized register is seeded at 10% of capacity.
                    let r = if s.rate_kbps == 0 { cap * 0.1 } else { s.rate_kbps as f64 * 1e3 };
                    rcp_equation(cfg, r, y, q_avg, cap)
                }
                // Available bandwidth: capacity minus traffic that isn't ours
                // minus a term that drains any standing queue over the drain
                // horizon.
                Law::Fanout => {
                    let c = (s.speed_mbps.max(1)) as f64 * 1e6;
                    let cross = (self.uhist.mean(h, s.util_bps) / 10_000.0 * c - r_old).max(0.0);
                    (c - cross - FANOUT_DRAIN_GAIN * (q_avg * 8.0) / FANOUT_DRAIN_S).max(64_000.0)
                }
            });
        }
        let target = alpha_aggregate(&per_link, cfg.alpha);
        match law {
            Law::Rcp => {
                // Capped at line rate: R may legitimately exceed C on
                // uncongested links; the NIC cannot.
                self.pacer.set_rate(target.min(cap));
                // Phase 3: a versioned write-back of every hop's rate.
                let rates = self.latest.iter().zip(&per_link);
                Some(wb.fill(law, rates.map(|(s, r)| (s.version, (r / 1e3) as u32))))
            }
            Law::Fanout => {
                // At most ±10% a period toward an absolute target: the rate
                // converges from below, with no standing bottleneck queue.
                let r = r_old * (target / r_old.max(1.0)).clamp(0.9, 1.1);
                self.pacer.set_rate(r);
                self.series.push((now as f64 / 1e9, r / 1e6));
                // Install at the branch switch: the CEXEC predicate
                // suppresses the write at every other hop.
                let branch = self.latest.iter().rfind(|s| s.switch_id == wan::SITE0_BORDER)?;
                let install = (branch.version, (r / 1e3) as u32);
                Some(wb.fill(law, std::iter::repeat_n(install, self.latest.len())))
            }
        }
    }
}

const TIMER_CONTROL: u64 = 1;
/// Path `i` paces on token `TIMER_PACE + i`.
const TIMER_PACE: u64 = 2;

/// A periodic path controller over one or more paths, each with its own
/// control loop and pacer, under one [`Law`]. Construct with
/// [`RcpSender::new`] (one RCP* path that streams forever) or
/// [`RcpSender::with_paths`]; control traffic (probes, updates, retries) is
/// accounted by the harness's `probe_bytes_sent`.
pub struct RcpSender {
    pub cfg: RcpConfig,
    law: Law,
    /// When to start sending (flows can be staggered).
    start_at: Time,
    paths: Vec<RcpLoop>,
    update: UpdateTpps,
    /// Data bytes on the wire, headers included, over all paths.
    pub data_bytes_sent: u64,
    pub probes_completed: u64,
}

/// The wired RCP* sender application.
pub type RcpSenderApp = Endhost<RcpSender>;

impl RcpSender {
    pub fn new(cfg: RcpConfig, dst: Ipv4Address, sport: u16, start_at: Time) -> RcpSenderApp {
        Self::with_paths(Law::Rcp, cfg, &[RcpPath { dst, sport, transfer_bytes: 0 }], start_at)
    }

    /// A sender over `paths`, one per destination, under `law`: a probe's
    /// completion finds its path by its source address, and a completion
    /// from any other host is ignored.
    pub fn with_paths(law: Law, cfg: RcpConfig, paths: &[RcpPath], start_at: Time) -> RcpSenderApp {
        debug_assert!(
            paths.iter().enumerate().all(|(i, p)| paths[..i].iter().all(|q| q.dst != p.dst)),
            "one path per destination"
        );
        let state = RcpSender {
            cfg,
            law,
            start_at,
            paths: paths.iter().map(|&path| RcpLoop::new(law, &cfg, path)).collect(),
            update: UpdateTpps::default(),
            data_bytes_sent: 0,
            probes_completed: 0,
        };
        let collect = law.schemas().0.clone().app_id(law.app_ids().0).hops(cfg.probe_hops);
        Harness::new(state)
            .executor(control_executor(cfg.period_ns))
            .launch(collect, |s, io, c| {
                let Some(p) = s.paths.iter_mut().find(|p| p.path.dst == c.from) else {
                    return;
                };
                if let Some(sent_at) = c.sent_at {
                    // The same halved EWMA the switch uses for utilization:
                    // fast to converge, cheap to hold.
                    p.rtt_est_ns = (p.rtt_est_ns + (io.ctx.now - sent_at) as f64) / 2.0;
                }
                p.absorb(s.law, &c.tpp);
                s.probes_completed += 1;
            })
            .on_start(|s, io| {
                io.ctx.set_timer_at(s.start_at, TIMER_CONTROL);
                for i in 0..s.paths.len() {
                    io.ctx.set_timer_at(s.start_at, TIMER_PACE + i as u64);
                }
            })
            .on_timer(|s, io, token| match token {
                TIMER_CONTROL => s.control_step(io),
                t if t >= TIMER_PACE => s.pace((t - TIMER_PACE) as usize, io),
                _ => {}
            })
            .build()
            .expect("static wiring")
    }

    /// Path `i`'s current sending rate, in b/s.
    pub fn rate_bps(&self, i: usize) -> f64 {
        self.paths[i].pacer.rate_bps
    }

    /// Path `i`'s measured probe RTT (EWMA), in ns.
    pub fn rtt_est_ns(&self, i: usize) -> f64 {
        self.paths[i].rtt_est_ns
    }

    /// Path `i`'s `(t seconds, Mb/s)` rate series ([`Law::Fanout`] only).
    pub fn rate_series(&self, i: usize) -> &[(f64, f64)] {
        &self.paths[i].series
    }

    fn control_step(&mut self, io: &mut Io<'_, '_>) {
        let (law, now) = (self.law, io.ctx.now);
        // A finished transfer stops its loop: control traffic is not free,
        // and an update of a stale collect would write nothing.
        for p in self.paths.iter_mut().filter(|p| !p.done()) {
            // Collect and write-back leave from the data's port: ECMP hashes
            // all three onto one path, the links the loop reads and writes.
            if let Some(update) = p.step(law, &self.cfg, now, &mut self.update) {
                io.send_standalone(update, p.path.dst, p.path.sport);
            }
            // Phase 1 for the next period.
            io.launch(law.app_ids().0, p.path.dst, Some(p.path.sport));
        }
        io.ctx.set_timer(self.cfg.period_ns, TIMER_CONTROL);
    }

    fn pace(&mut self, i: usize, io: &mut Io<'_, '_>) {
        let p = &mut self.paths[i];
        if p.done() {
            return; // the transfer is complete: the pace timer chain stops
        }
        let hdr = udp_hdr(io.ctx.ip, p.path.dst, p.path.sport, DATA_PORT);
        for _ in 0..p.pacer.due(io.ctx.now) {
            // In a buffer a sink handed back (see `RcpSink`).
            let mut frame = io.ctx.take_buf();
            udp_frame_into(&mut frame, &hdr, PacedSender::PAYLOAD, &[]);
            self.data_bytes_sent += frame.len() as u64;
            p.payload_sent += PacedSender::PAYLOAD as u64;
            io.ctx.send(frame);
            if p.done() {
                break;
            }
        }
        io.ctx.set_timer_at(p.pacer.next_deadline(), TIMER_PACE + i as u64);
    }
}

/// A sink that meters per-flow goodput, records when a fixed-size transfer
/// completes, echoes collects and consumes write-backs. Construct with
/// [`RcpSink::new`] or [`RcpSink::with_transfer`].
pub struct RcpSink {
    /// (source ip, source port) -> rate meter.
    // A `RefCell` only because `benchmark/` reads it with `borrow()` (ROADMAP 1a).
    pub meters: RefCell<BTreeMap<(Ipv4Address, u16), RateMeter>>,
    pub bucket_ns: Time,
    /// The payload bytes a flow's transfer completes at; 0 for none.
    pub transfer_bytes: u64,
    /// (source ip, source port) -> the instant the flow's meter crossed
    /// `transfer_bytes`.
    pub fct_ns: BTreeMap<(Ipv4Address, u16), Time>,
}

/// The wired RCP* sink application.
pub type RcpSinkApp = Endhost<RcpSink>;

impl RcpSink {
    pub fn new(bucket_ns: Time) -> RcpSinkApp {
        Self::with_transfer(bucket_ns, 0)
    }

    /// A sink whose flows are `transfer_bytes`-byte transfers.
    pub fn with_transfer(bucket_ns: Time, transfer_bytes: u64) -> RcpSinkApp {
        let state = RcpSink {
            meters: RefCell::default(),
            bucket_ns,
            transfer_bytes,
            fct_ns: BTreeMap::new(),
        };
        Harness::new(state)
            .aggregate_local(Law::Rcp.app_ids().1)
            .on_deliver(|s, io, inner| {
                if let Some(info) = parse_udp(&inner) {
                    if info.dst_port == DATA_PORT {
                        let key = (info.src, info.src_port);
                        let m = s
                            .meters
                            .get_mut()
                            .entry(key)
                            .or_insert_with(|| RateMeter::new(s.bucket_ns));
                        let before = m.total_bytes;
                        m.record(io.ctx.now, info.payload_len as u64);
                        if before < s.transfer_bytes && m.total_bytes >= s.transfer_bytes {
                            s.fct_ns.insert(key, io.ctx.now);
                        }
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

/// Figure 2's flows, `(source, sink, source port, name)` by index into the hosts
/// `[h0a, h0b (S0), h1a, h1b (S1), h2a, h2b (S2)]`: `a` crosses both trunks, `b` and `c` one each.
const FIG2_FLOWS: [(usize, usize, u16, &str); 3] =
    [(0, 4, 7001, "a"), (1, 2, 7002, "b"), (3, 5, 7003, "c")];

/// The Figure 2 network with its senders and sinks: 100 Mb/s links, flows start at 1 Mb/s.
pub fn rcp_fig2_net(alpha: f64, seed: u64) -> Topology {
    let mut topo = TopologySpec::Line { switches: 3, hosts_per_switch: 2 }
        .builder()
        .link_mbps(100)
        .delay_ns(10_000)
        .seed(seed)
        .build();
    let h = topo.hosts.clone();
    let ips: Vec<Ipv4Address> = h.iter().map(|&n| topo.net.host(n).ip).collect();
    let ip = |i: usize| ips[i];

    let cfg = RcpConfig { alpha, ..RcpConfig::default() };
    let bucket = 100_000_000; // 100 ms

    for &(src, dst, sport, _) in &FIG2_FLOWS {
        topo.net.set_app(h[src], Box::new(RcpSender::new(cfg, ip(dst), sport, 1_000_000)));
    }
    for &(_, dst, _, _) in &FIG2_FLOWS {
        topo.net.set_app(h[dst], Box::new(RcpSink::new(bucket)));
    }
    topo
}

/// Run the Figure 2 experiment ([`rcp_fig2_net`]) for `duration`.
pub fn run_rcp_fig2(alpha: f64, duration: Time, seed: u64) -> RcpResult {
    let topo = rcp_fig2_net(alpha, seed);
    let mut fabric = Fabric::new(topo.net, 1, PartitionStrategy::Locality);
    run_rcp_fig2_on(&mut fabric, &topo.hosts, duration)
}

/// Run a fabric of [`rcp_fig2_net`], whose hosts are `hosts`, to `duration`.
pub fn run_rcp_fig2_on(fabric: &mut Fabric, hosts: &[NodeId], duration: Time) -> RcpResult {
    fabric.run_until(duration);
    let mut series = Vec::new();
    let mut steady = Vec::new();
    let mut control_bytes = 0u64;
    let mut data_bytes = 0u64;
    let half = duration as f64 / 2e9;
    let end = duration as f64 / 1e9;
    for &(src, dst, sport, name) in &FIG2_FLOWS {
        let src_ip = Ipv4Address::from_host_id(hosts[src].0);
        {
            let sink = fabric.app_mut::<RcpSinkApp>(hosts[dst]);
            let m = sink.meters.get_mut().get(&(src_ip, sport));
            series.push((name.to_string(), m.map(RateMeter::series_mbps).unwrap_or_default()));
            steady.push((name.to_string(), m.map(|m| m.avg_mbps(half, end)).unwrap_or(0.0)));
        }
        let sender = fabric.app_mut::<RcpSenderApp>(hosts[src]);
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

    /// Fig. 2's two links: 100 Mb/s of wire is 95.97 Mb/s of 1,000-byte
    /// payloads in 1,042-byte frames. Flow `a` crosses both, `b` the first
    /// and `c` the second.
    const FIG2_PAYLOAD_MBPS: f64 = 100.0 * 1000.0 / 1042.0;
    const FIG2_ROUTES: [&[usize]; 3] = [&[0, 1], &[0], &[1]];

    fn assert_rates(got: &[f64], want: &[f64]) {
        for (g, w) in got.iter().zip(want) {
            assert!((g - w).abs() < 0.01, "{got:?} against {want:?}");
        }
        assert_eq!(got.len(), want.len());
    }

    #[test]
    fn fair_share_is_fig2_closed_form_under_max_min() {
        let c = [FIG2_PAYLOAD_MBPS; 2];
        assert_rates(&fair_share(&c, &FIG2_ROUTES, f64::INFINITY), &[47.98; 3]);
    }

    #[test]
    fn fair_share_is_fig2_closed_form_under_proportional_fairness() {
        // α = 1: C/3 for the two-link flow, 2C/3 for each one-link flow.
        let c = [FIG2_PAYLOAD_MBPS; 2];
        assert_rates(&fair_share(&c, &FIG2_ROUTES, 1.0), &[31.99, 63.98, 63.98]);
    }

    #[test]
    fn fair_share_meets_other_closed_forms() {
        // α = 2: x = p^(-1/2), so the two-link flow runs at 1/√2 of the others.
        let c = [FIG2_PAYLOAD_MBPS; 2];
        let one_link = FIG2_PAYLOAD_MBPS / (1.0 + 0.5f64.sqrt());
        let want = [one_link * 0.5f64.sqrt(), one_link, one_link];
        assert_rates(&fair_share(&c, &FIG2_ROUTES, 2.0), &want);
        // Max-min with a 10 Mb/s first link: `a` and `b` split it, `c` takes
        // what `a` leaves of the second, and a flow on no link is unbounded.
        let routes: [&[usize]; 4] = [&[0, 1], &[0], &[1], &[]];
        let got = fair_share(&[10.0, 100.0], &routes, f64::INFINITY);
        assert_rates(&got[..3], &[5.0, 5.0, 95.0]);
        assert_eq!(got[3], f64::INFINITY);
    }

    #[test]
    fn collect_and_update_programs_validate() {
        let mut cp = tpp_endhost::CentralCp::new();
        let (app, first) = cp.register_app_with_regs("rcp", 2).unwrap();
        assert_eq!(first, 0);
        let policy = cp.policy_for(app, false).unwrap();
        policy.validate(&collect_probe().hops(5).compile().unwrap()).unwrap();
        policy
            .validate(UpdateTpps::default().fill(Law::Rcp, [(1, 100), (2, 200)].into_iter()))
            .unwrap();
    }

    #[test]
    fn refilled_update_tpps_equal_a_fresh_compile() {
        // What every control period built before the templates: the schema,
        // compiled for that many hops, its arguments written.
        let fresh = |probe: Probe, app_id, args: &[Vec<(&str, Vec<u32>)>]| {
            let mut t = probe.compile_hops(args.len()).unwrap();
            for (h, hop) in args.iter().enumerate() {
                for (name, words) in hop {
                    probe.set_args(&mut t, h, name, words).unwrap();
                }
            }
            t.app_id = app_id;
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
            let args: Vec<_> = updates
                .iter()
                .map(|&(v, r)| vec![("version", vec![v, v.wrapping_add(1)]), ("rate", vec![r])])
                .collect();
            let refilled = tpps.fill(Law::Rcp, updates.iter().copied());
            assert_eq!(refilled, &fresh(update_probe(), 6, &args), "{updates:?}");
        }
        // The fan-out's install: the same (branch, version, rate) at every hop.
        let mut installs = UpdateTpps::default();
        for (hops, version, rate_kbps) in [(8, 1, 12_000), (3, 7, 5), (8, u32::MAX, 0), (10, 0, 1)]
        {
            let hop = vec![
                ("at", vec![u32::MAX, wan::SITE0_BORDER]),
                ("version", vec![version, version.wrapping_add(1)]),
                ("rate", vec![rate_kbps]),
            ];
            let want = fresh(wan::install_probe(), 7, &vec![hop; hops]);
            let refilled =
                installs.fill(Law::Fanout, std::iter::repeat_n((version, rate_kbps), hops));
            assert_eq!(refilled, &want, "{hops} hops");
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
        let s = Law::Rcp.samples(&t);
        assert_eq!(s.len(), 2);
        assert_eq!(s[1].switch_id, 2);
        assert_eq!(s[0].rate_kbps, 40_000);
    }

    /// The sender launches its second collect (token 2) at 3 ms. A third
    /// host answers it first with an echo of 12 hop windows, more than the 5
    /// the probe asked for, its last memory word that token, and its source
    /// address `echo_src`. Returns the sender's `probes_completed` and its
    /// executor's `completed` and `unmatched` after 20 ms.
    fn forged_collect_echo(echo_src: impl Fn(&[Ipv4Address; 3]) -> Ipv4Address) -> (u64, u64, u64) {
        use tpp_core::wire::{udp_frame_with, UdpFrameRepr};
        use tpp_endhost::shim::{mac_of_ip, TPP_ECHO_PORT};
        let mut topo = TopologySpec::Star { hosts: 3 }
            .builder()
            .host_mbps(1000)
            .delay_ns(1000)
            .seed(1)
            .build();
        let h = topo.hosts.clone();
        let ips = [0, 1, 2].map(|i| topo.net.host(h[i]).ip);
        let (sender, sink, src_ip) = (ips[0], ips[1], echo_src(&ips));
        let mut forged = collect_probe().app_id(2).hops(12).compile().unwrap();
        for w in 0..forged.memory.len() / 4 {
            forged.write_word(w, w as u32 + 1).unwrap();
        }
        forged.sp = 60;
        forged.hop = 12;
        forged.write_word(forged.memory.len() / 4 - 1, 2).unwrap();
        let hdr = UdpFrameRepr {
            src_mac: mac_of_ip(src_ip),
            dst_mac: mac_of_ip(sender),
            src_ip,
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
        let s = topo.net.app_mut::<RcpSenderApp>(h[0]);
        let exec = s.executor().expect("the sender launches probes");
        (s.probes_completed, exec.completed, exec.unmatched)
    }

    #[test]
    fn a_forged_collect_echo_with_more_hops_than_the_probe_does_not_panic() {
        // Sent in the sink's name, the echo is absorbed as the path's collect.
        let (absorbed, completed, _) = forged_collect_echo(|ips| ips[1]);
        assert!(absorbed > 5, "{absorbed} collects absorbed");
        assert_eq!(absorbed, completed);
    }

    #[test]
    fn a_collect_echo_from_a_host_no_path_leads_to_is_ignored() {
        // The forger is not the probe's destination, so the executor matches
        // nothing to its echo, and the sink's genuine echo still completes
        // that period's collect.
        let (absorbed, completed, unmatched) = forged_collect_echo(|ips| ips[2]);
        assert!(absorbed > 5, "{absorbed} collects absorbed");
        assert_eq!((absorbed, unmatched), (completed, 1));
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
        let dst_ip = topo.net.host(dst).ip;
        topo.net.set_app(src, Box::new(RcpSender::new(RcpConfig::default(), dst_ip, 7001, 0)));
        topo.net.run_until(SECONDS);
        let sender = topo.net.app_mut::<RcpSenderApp>(src);
        let exec = sender.executor().expect("the sender launches probes");
        assert!(exec.failed > 100, "{} probes failed", exec.failed);
        assert_eq!((sender.probes_completed, exec.completed), (0, 0));
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
