//! `app_rcp`: the Figure 2 RCP* experiment rebuilt from public pieces — three
//! `RcpSender`s (harness, shim, executor, collect and CSTORE/STORE update
//! probes) and their sinks on a 3-switch line of 100 Mb/s links, max-min
//! fairness, flow a over both trunks and b, c over one each.
//!
//! Speed and accuracy are taken from two runs of the same pieces:
//!
//! * **Timed replays** start the flows near their fair share (45 Mb/s) on a
//!   fresh network and simulate the first 50 ms in four timed steps; every
//!   replay must end on the same `NetStats::digest`.
//! * **The paper run** (set-up: its first second, as a functional check; the
//!   traced pass: all six seconds) starts the flows at 1 Mb/s as the paper
//!   does and reports `model_err` over simulated seconds 2..6.
//!
//! One long-lived network cannot serve both, because it does not age
//! gracefully: the harness arms one retry timer per launched probe and every
//! firing re-arms itself while any probe is pending, so at constant
//! frame-hops the events per simulated second grow without bound (247 k per
//! 0.25 s at second 2, 1.3 M at second 12). Slices of such a network are not
//! comparable with each other. The paper run's `netsim.engine.events_per_op`
//! is where mending that leak will show.

use std::time::Instant;

use tpp_apps::rcp::{RcpConfig, RcpSender, RcpSenderApp, RcpSink, RcpSinkApp};
use tpp_core::wire::Ipv4Address;
use tpp_netsim::{Network, NodeId, Time, TopologySpec, MILLIS, SECONDS};

use crate::rng::Rng;
use crate::stats::{fast_rate, Sample};
use crate::trace::{alloc_start, alloc_stop, Tracer};
use crate::workloads::wrong_hops;
use crate::{LayerValue, Slice, Workload};

/// Simulated horizon of a timed replay, and the steps it is timed in
/// (~4 ms of host time each).
pub const REPLAY_HORIZON: Time = 50 * MILLIS;
pub const STEPS: u32 = 4;
/// Rate the timed replays start every flow at: just under C/2, so the
/// network is in its steady regime from the first millisecond.
const REPLAY_START_BPS: f64 = 45e6;
/// The paper run: flows start at 1 Mb/s and have converged after 2 s;
/// `model_err` is taken over seconds 2..6.
const PAPER_CONVERGED: Time = 2 * SECONDS;
const PAPER_HORIZON: Time = 6 * SECONDS;
/// How much of the paper run set-up simulates.
const SETUP_HORIZON: Time = SECONDS;
/// Link capacity C in Mb/s; max-min gives every flow C/2 (paper Fig. 2).
const CAPACITY_MBPS: f64 = 100.0;

/// `(source host, sink host, source port)` per flow, as indices into the
/// line's host list `[h0a, h0b, h1a, h1b, h2a, h2b]`.
const FLOWS: [(usize, usize, u16); 3] = [(0, 4, 7001), (1, 2, 7002), (3, 5, 7003)];

/// The Fig. 2 network, wired and not yet started.
struct Fig2 {
    net: Network,
    hosts: Vec<NodeId>,
    ips: Vec<Ipv4Address>,
}

#[derive(Clone, Copy, Debug, Default)]
struct Probes {
    sent: u64,
    retransmitted: u64,
    completed: u64,
    failed: u64,
    probe_bytes: u64,
    data_bytes: u64,
}

impl Fig2 {
    fn build(seed: u64, start_rate_bps: f64) -> Fig2 {
        let mut rng = Rng::new(seed, 6);
        let mut topo = TopologySpec::Line { switches: 3, hosts_per_switch: 2 }
            .builder()
            .link_mbps(CAPACITY_MBPS as u64)
            .delay_ns(10_000)
            .seed(seed)
            .build();
        let hosts = topo.hosts.clone();
        let ips: Vec<Ipv4Address> = hosts.iter().map(|&h| topo.net.host(h).ip).collect();
        let cfg = RcpConfig { start_rate_bps, ..RcpConfig::default() };
        for &(src, dst, sport) in &FLOWS {
            // The seed staggers the flow starts inside the first millisecond.
            let start_at = MILLIS + rng.below(MILLIS as usize) as Time;
            topo.net.set_app(hosts[src], Box::new(RcpSender::new(cfg, ips[dst], sport, start_at)));
            topo.net.set_app(hosts[dst], Box::new(RcpSink::new(100 * MILLIS)));
        }
        Fig2 { net: topo.net, hosts, ips }
    }

    fn probes(&mut self) -> Probes {
        let mut p = Probes::default();
        for &(src, _, _) in &FLOWS {
            let sender = self.net.app_mut::<RcpSenderApp>(self.hosts[src]);
            p.probe_bytes += sender.probe_bytes_sent();
            p.data_bytes += sender.data_bytes_sent;
            // The executor exists once the network has started the app.
            if let Some(exec) = sender.executor() {
                p.sent += exec.sent;
                p.retransmitted += exec.retransmitted;
                p.completed += exec.completed;
                p.failed += exec.failed;
            }
        }
        p
    }

    /// Per-flow goodput over simulated seconds `from..to`, from the sink
    /// meters (simulated, exact).
    fn goodput_mbps(&mut self, from: f64, to: f64) -> Vec<f64> {
        FLOWS
            .iter()
            .map(|&(src, dst, sport)| {
                let key = (self.ips[src], sport);
                let sink = self.net.app_mut::<RcpSinkApp>(self.hosts[dst]);
                let meters = sink.meters.borrow();
                meters.get(&key).map_or(0.0, |m| m.avg_mbps(from, to))
            })
            .collect()
    }
}

pub struct RcpBench {
    seed: u64,
    /// Digest of the paper run at [`SETUP_HORIZON`].
    digest: u64,
    /// Digest every timed replay must end on.
    replay_digest: u64,
    /// The replay in progress and how many steps it has run.
    replay: Option<(Fig2, u32)>,
}

impl RcpBench {
    fn new(seed: u64) -> Result<RcpBench, String> {
        // The first second of the paper run: every sender's control loop
        // must be turning (probes out, completions back) before anything is
        // timed.
        let mut paper = Fig2::build(seed, RcpConfig::default().start_rate_bps);
        paper.net.run_until(SETUP_HORIZON);
        let p = paper.probes();
        if p.completed < 100 || p.failed != 0 {
            return Err(format!("RCP* control loop is not turning: {p:?}"));
        }
        let mut b =
            RcpBench { seed, digest: paper.net.stats.digest(), replay_digest: 0, replay: None };
        // The warm-up replay fixes the digest the timed ones must repeat.
        let mut first = Fig2::build(seed, REPLAY_START_BPS);
        first.net.run_until(REPLAY_HORIZON);
        b.replay_digest = first.net.stats.digest();
        Ok(b)
    }

    /// Advance the current replay by one step; with a tracer, inside a
    /// `netsim.net.run` span.
    fn step(&mut self, tr: Option<&mut Tracer>) -> Result<Slice, String> {
        let (mut fig, step) =
            self.replay.take().unwrap_or_else(|| (Fig2::build(self.seed, REPLAY_START_BPS), 0));
        let before = fig.net.stats;
        let failed_before = fig.probes().failed;
        let until = REPLAY_HORIZON * Time::from(step + 1) / Time::from(STEPS);
        let ns = match tr {
            Some(tr) => {
                let sp = tr.enter("netsim.net.run");
                fig.net.run_until(until);
                tr.exit(sp)
            }
            None => {
                let t0 = Instant::now();
                fig.net.run_until(until);
                t0.elapsed().as_nanos() as u64
            }
        };
        let after = fig.net.stats;
        // Failed ops: frame-hops the simulator got wrong, plus probes the
        // executor gave up on after all retries.
        let failed =
            wrong_hops(&after) - wrong_hops(&before) + (fig.probes().failed - failed_before);
        if step + 1 == STEPS {
            if after.digest() != self.replay_digest {
                return Err(format!(
                    "replay digest {:#018x} differs from the first replay's {:#018x}",
                    after.digest(),
                    self.replay_digest
                ));
            }
        } else {
            self.replay = Some((fig, step + 1));
        }
        Ok(Slice { ops: after.frames_delivered - before.frames_delivered, failed, ns, phase: step })
    }

    /// Whole replays for about `seconds` (at least 8), as samples.
    fn replays(
        &mut self,
        mut tr: Option<&mut Tracer>,
        seconds: f64,
    ) -> Result<Vec<Sample>, String> {
        self.replay = None;
        let mut samples = Vec::new();
        let started = Instant::now();
        while started.elapsed().as_secs_f64() < seconds || samples.len() < 8 * STEPS as usize {
            for _ in 0..STEPS {
                let s = self.step(tr.as_deref_mut())?;
                samples.push(Sample { ops: s.ops, ns: s.ns, phase: s.phase });
            }
        }
        Ok(samples)
    }
}

impl Workload for RcpBench {
    fn slice(&mut self) -> Result<Slice, String> {
        self.step(None)
    }

    fn output_digest(&self) -> u64 {
        self.digest
    }

    fn traced(&mut self, tr: &mut Tracer, seconds: f64) -> Result<Vec<LayerValue>, String> {
        let mut out: Vec<LayerValue> = Vec::new();

        // Timed replays without and with a span around every step.
        let untraced = self.replays(None, seconds / 4.0)?;
        let span = tr.enter("rcp_replays_traced");
        let traced = self.replays(Some(tr), seconds / 4.0)?;
        tr.exit(span);
        out.push(("trace_overhead_ratio", fast_rate(&untraced) / fast_rate(&traced)));

        // The paper run: converge untraced, then seconds 2..6 in 16 spans
        // with allocation counting on.
        let mut paper = Fig2::build(self.seed, RcpConfig::default().start_rate_bps);
        paper.net.run_until(PAPER_CONVERGED);
        let probes_before = paper.probes();
        let stats_before = paper.net.stats;
        let mut per_event = Vec::new();
        let span = tr.enter("rcp_paper_run");
        alloc_start();
        for k in 1..=16 {
            let events = paper.net.stats.events_processed;
            let sp = tr.enter("netsim.net.run");
            paper.net.run_until(PAPER_CONVERGED + (PAPER_HORIZON - PAPER_CONVERGED) * k / 16);
            let ns = tr.exit(sp);
            // Each quarter second is its own phase: the network ages.
            per_event.push(Sample {
                ops: paper.net.stats.events_processed - events,
                ns,
                phase: k as u32,
            });
        }
        let a = alloc_stop();
        tr.exit(span);
        let p = paper.probes();
        let stats = paper.net.stats;
        let hops = (stats.frames_delivered - stats_before.frames_delivered) as f64;
        let events = (stats.events_processed - stats_before.events_processed) as f64;
        let goodput = paper.goodput_mbps(PAPER_CONVERGED as f64 / 1e9, PAPER_HORIZON as f64 / 1e9);
        let half = CAPACITY_MBPS / 2.0;
        let model_err = goodput.iter().map(|g| (g - half).abs() / half).fold(0.0, f64::max);
        if model_err > 0.25 || p.failed != probes_before.failed {
            return Err(format!(
                "paper run left the model: goodput {goodput:?} Mb/s against {half}, {} probes failed",
                p.failed - probes_before.failed
            ));
        }

        out.push(("netsim.net.run_ns_per_event", 1e9 / fast_rate(&per_event)));
        out.push(("netsim.engine.events_per_op", events / hops));
        let batches = (stats.rx_batches - stats_before.rx_batches).max(1) as f64;
        out.push((
            "netsim.net.rx_batch_mean",
            (stats.rx_batch_frames - stats_before.rx_batch_frames) as f64 / batches,
        ));
        out.push(("netsim.net.pool_retained", stats.pool_retained as f64));
        out.push((
            "netsim.net.drops_in_flight",
            (stats.frames_dropped_in_flight - stats_before.frames_dropped_in_flight) as f64,
        ));
        out.push((
            "switch.switch.drops",
            (stats.switch_drops() - stats_before.switch_drops()) as f64,
        ));
        let hits = (stats.plan_cache_hits - stats_before.plan_cache_hits) as f64;
        let misses = (stats.plan_cache_misses - stats_before.plan_cache_misses) as f64;
        out.push(("switch.plan_cache.hit_ratio", hits / (hits + misses).max(1.0)));
        out.push(("switch.plan_cache.misses", misses / hops));
        out.push((
            "switch.plan_cache.evictions",
            (stats.plan_cache_evictions - stats_before.plan_cache_evictions) as f64 / hops,
        ));
        out.push(("netsim.net.allocs_per_op", a.allocs as f64 / hops));
        out.push(("netsim.net.live_bytes_peak", a.live_peak as f64));
        let sent = (p.sent - probes_before.sent).max(1) as f64;
        out.push((
            "endhost.executor.retry_share",
            (p.retransmitted - probes_before.retransmitted) as f64 / sent,
        ));
        out.push((
            "apps.rcp.probe_overhead_share",
            (p.probe_bytes - probes_before.probe_bytes) as f64
                / (p.data_bytes - probes_before.data_bytes).max(1) as f64,
        ));
        out.push(("apps.rcp.goodput_mbps", goodput.iter().sum::<f64>() / goodput.len() as f64));
        out.push(("apps.rcp.model_err", model_err));
        tr.count("rcp.probes_sent", sent);
        tr.count("rcp.frame_hops", hops);
        tr.count("rcp.events", events);
        Ok(out)
    }
}

pub fn setup(seed: u64) -> Result<Box<dyn Workload>, String> {
    Ok(Box::new(RcpBench::new(seed)?))
}
