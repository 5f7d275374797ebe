//! WAN application domains: coordinated video fan-out and inter-DC
//! congestion control over multi-millisecond links.
//!
//! Both apps run on a [`TopologySpec::MultiSite`] fabric — N intra-DC
//! fat-trees joined by a full mesh of ms-delay WAN links between border
//! switches — and both are pure end-host TPP programs. Both run on the one
//! periodic path controller, [`RcpSender`], a path per remote site, and
//! differ only in its [`Law`].
//!
//! # Coordinated fan-out ([`run_fanout`], [`Law::Fanout`])
//!
//! A COMETS-style multicast tree rooted at one source host: one relay per
//! viewer site, local viewers behind each relay. The network allocates two
//! per-link registers (`[Link:AppSpecific_2]` = version,
//! `[Link:AppSpecific_3]` = subtree rate). Every control period the source
//! runs, per subtree:
//!
//! 1. **Discover** — a collect probe gathers, per hop: switch ID, link
//!    speed, utilization, queue size, and the stored version
//!    ([`discover_probe`]). The bottleneck is whichever hop's control
//!    equation yields the smallest rate — on the viewer-fan-out preset
//!    that is the throttled WAN link into the subtree's site.
//! 2. **Adapt** — each hop's available bandwidth is estimated as
//!    `speed − cross-traffic − queue-drain`, and the subtree rate slews (at
//!    most ±10% per period) toward the minimum across hops. The target is an
//!    absolute measurement, not an integrator, so the rate approaches the
//!    bottleneck from below and never builds a standing WAN queue, behind
//!    which probes would lag the loop by hundreds of milliseconds.
//! 3. **Install** — a `CEXEC`-targeted TPP writes the adapted rate back
//!    *at the branch switch only* ([`install_probe`], at [`SITE0_BORDER`]):
//!    every hop compares `Switch:SwitchID` against the branch ID and the
//!    predicate suppresses the versioned `CSTORE`/`STORE` everywhere else.
//!    Because `Link:*` registers are per *output port*, each subtree's
//!    probe writes the register of its own WAN egress link — per-subtree
//!    state on one shared branch switch, no hand-indexed memory anywhere.
//!
//! # Inter-DC RCP* ([`run_interdc`], [`Law::Rcp`])
//!
//! The RCP* sender and sink of [`crate::rcp`], unchanged programs and
//! registers (`AppSpecific_0/1`), over WAN paths: one `RcpSender` in site 0
//! runs a path, with its own control loop and pacer, to a sink in every
//! other site. Eq. 1's `d` is one configured RTT (20 ms) on every path;
//! each path's measured probe RTT is reported
//! ([`InterDcPathReport::rtt_est_ms`]). Each path carries a fixed-size
//! transfer, and the sink records its completion time.

use crate::common::{hash_ecmp_without_dst_port, parse_udp, udp_frame, RateMeter, DATA_PORT};
use crate::rcp::{Law, RcpConfig, RcpPath, RcpSender, RcpSenderApp, RcpSink, RcpSinkApp};
use tpp_core::probe::Probe;
use tpp_core::wire::Ipv4Address;
use tpp_endhost::harness::{Endhost, Harness};
use tpp_fabric::{Fabric, PartitionStrategy};
use tpp_netsim::{viewer_fanout, NodeId, Time, Topology, TopologySpec, MILLIS};

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
/// matches the branch argument. Every hop carries the same `(branch,
/// version, rate)` arguments.
pub fn install_probe() -> Probe {
    Probe::hop("wan-install")
        .cexec("at", "Switch:SwitchID")
        .cstore("version", "Link:AppSpecific_2")
        .store("rate", "Link:AppSpecific_3")
}

/// Bucket of a relay's goodput meter.
const RELAY_BUCKET_NS: Time = 50 * MILLIS;

/// A viewer-site relay: meters the stream arriving from the source,
/// re-publishes every data frame to its local viewers, echoes discovery
/// probes and consumes installs.
pub struct FanoutRelay {
    viewers: Vec<Ipv4Address>,
    pub meter: RateMeter,
    pub forwarded: u64,
}

/// The wired relay application.
pub type FanoutRelayApp = Endhost<FanoutRelay>;

impl FanoutRelay {
    pub fn new(viewers: Vec<Ipv4Address>) -> FanoutRelayApp {
        let state = FanoutRelay { viewers, meter: RateMeter::new(RELAY_BUCKET_NS), forwarded: 0 };
        Harness::new(state)
            .aggregate_local(Law::Fanout.app_ids().1)
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
    /// The source executor's unmatched echoes and retransmitted probes.
    pub probes_unmatched: u64,
    pub probes_retransmitted: u64,
}

/// The fan-out experiment's network on the [`viewer_fanout`] preset: the
/// source (host 0) streams to one relay per viewer site (the site's first
/// host), and each relay republishes to two local viewers.
pub fn fanout_net(sites: usize, site_k: usize, wan_mbps: u64, seed: u64) -> Topology {
    let mut topo = viewer_fanout(sites, site_k, wan_mbps)
        .builder()
        .link_mbps(1000)
        .delay_ns(1000)
        .seed(seed)
        .build();
    hash_ecmp_without_dst_port(&mut topo);
    let hosts = topo.hosts.clone();
    let per_site = hosts.len() / sites;
    let ips: Vec<Ipv4Address> = hosts.iter().map(|&n| topo.net.host(n).ip).collect();
    let ip = |i: usize| ips[i];

    let cfg = RcpConfig { period_ns: 5_000_000, probe_hops: 10, ..RcpConfig::default() };
    // Subtree `i` feeds the relay of site `i + 1`, its data from port 7000 + i.
    let paths: Vec<RcpPath> = (0..sites - 1)
        .map(|i| RcpPath { dst: ip((i + 1) * per_site), sport: 7000 + i as u16, transfer_bytes: 0 })
        .collect();
    topo.net.set_app(hosts[0], Box::new(RcpSender::with_paths(Law::Fanout, cfg, &paths, MILLIS)));
    for site in 1..sites {
        let relay = site * per_site;
        let viewers: Vec<Ipv4Address> = (1..=2.min(per_site - 1)).map(|v| ip(relay + v)).collect();
        topo.net.set_app(hosts[relay], Box::new(FanoutRelay::new(viewers)));
    }
    topo
}

/// Run [`fanout_net`] for `duration`: each subtree's rate adapts to its own
/// throttled WAN link (`wan_mbps / (site + 1)`).
pub fn run_fanout(
    sites: usize,
    site_k: usize,
    wan_mbps: u64,
    duration: Time,
    seed: u64,
) -> FanoutRunResult {
    let topo = fanout_net(sites, site_k, wan_mbps, seed);
    let mut fabric = Fabric::new(topo.net, 1, PartitionStrategy::Locality);
    run_fanout_on(&mut fabric, &topo.hosts, sites, wan_mbps, duration)
}

/// Run a fabric of [`fanout_net`], whose hosts are `hosts`, to `duration`.
pub fn run_fanout_on(
    fabric: &mut Fabric,
    hosts: &[NodeId],
    sites: usize,
    wan_mbps: u64,
    duration: Time,
) -> FanoutRunResult {
    let per_site = hosts.len() / sites;
    fabric.run_until(duration);

    let half = duration as f64 / 2e9;
    let end = duration as f64 / 1e9;
    let mut subtrees = Vec::new();
    for (i, site) in (1..sites).enumerate() {
        let relay = fabric.app_mut::<FanoutRelayApp>(hosts[site * per_site]);
        let relay_goodput_mbps = relay.meter.avg_mbps(half, end);
        let src = fabric.app_mut::<RcpSenderApp>(hosts[0]);
        subtrees.push(SubtreeReport {
            site,
            bottleneck_mbps: (wan_mbps / (site as u64 + 1)) as f64,
            adapted_mbps: src.rate_bps(i) / 1e6,
            relay_goodput_mbps,
            series: src.rate_series(i).to_vec(),
        });
    }
    let src = fabric.app_mut::<RcpSenderApp>(hosts[0]);
    let control_overhead_fraction =
        src.probe_bytes_sent() as f64 / src.data_bytes_sent.max(1) as f64;
    let exec = src.executor().expect("the source launches probes");
    FanoutRunResult {
        subtrees,
        control_overhead_fraction,
        probes_unmatched: exec.unmatched,
        probes_retransmitted: exec.retransmitted,
    }
}

/// One path's outcome in a [`run_interdc`] experiment.
#[derive(Clone, Copy, Debug)]
pub struct InterDcPathReport {
    pub src_dc: u32,
    pub dst_dc: u32,
    pub capacity_mbps: f64,
    /// The rate when the path finished its transfer (at the end of the run
    /// if it did not).
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

/// When the inter-DC sender starts.
const INTERDC_START_NS: Time = MILLIS;

/// The inter-DC experiment's network, a [`TopologySpec::MultiSite`] fabric,
/// and its paths: the sender (host 0) runs path `i`, a fixed-size transfer,
/// to a sink in site `i + 1` (the site's first host). WAN delays grow with
/// site distance (heterogeneous RTTs); `wan_queue_bytes` selects the border
/// buffer profile (0 = deep default, small = shallow).
pub fn interdc_net(
    sites: usize,
    site_k: usize,
    wan_mbps: u64,
    wan_queue_bytes: u32,
    transfer_bytes: u64,
    seed: u64,
) -> (Topology, Vec<RcpPath>) {
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
    hash_ecmp_without_dst_port(&mut topo);
    let hosts = topo.hosts.clone();
    let per_site = hosts.len() / sites;
    let ips: Vec<Ipv4Address> = hosts.iter().map(|&n| topo.net.host(n).ip).collect();
    let ip = |i: usize| ips[i];

    let cfg = RcpConfig {
        period_ns: 5_000_000,
        rtt_ns: 20_000_000,
        capacity_mbps: wan_mbps as f64,
        probe_hops: 10,
        ..RcpConfig::default()
    };
    let paths: Vec<RcpPath> = (1..sites)
        .map(|site| RcpPath { dst: ip(site * per_site), sport: 7000 + site as u16, transfer_bytes })
        .collect();
    let sender = RcpSender::with_paths(Law::Rcp, cfg, &paths, INTERDC_START_NS);
    topo.net.set_app(hosts[0], Box::new(sender));
    for site in 1..sites {
        let sink = RcpSink::with_transfer(100_000_000, transfer_bytes);
        topo.net.set_app(hosts[site * per_site], Box::new(sink));
    }
    (topo, paths)
}

/// Run [`interdc_net`]'s transfers for `duration`.
pub fn run_interdc(
    sites: usize,
    site_k: usize,
    wan_mbps: u64,
    wan_queue_bytes: u32,
    transfer_bytes: u64,
    duration: Time,
    seed: u64,
) -> InterDcRunResult {
    let (topo, paths) = interdc_net(sites, site_k, wan_mbps, wan_queue_bytes, transfer_bytes, seed);
    let mut fabric = Fabric::new(topo.net, 1, PartitionStrategy::Locality);
    run_interdc_on(&mut fabric, &topo.hosts, &paths, duration)
}

/// Run a fabric of [`interdc_net`], its hosts and paths, to `duration`.
pub fn run_interdc_on(
    fabric: &mut Fabric,
    hosts: &[NodeId],
    paths: &[RcpPath],
    duration: Time,
) -> InterDcRunResult {
    // Path `i` runs to site `i + 1`; the sender is in site 0.
    let per_site = hosts.len() / (paths.len() + 1);
    fabric.run_until(duration);

    let src_ip = Ipv4Address::from_host_id(hosts[0].0);
    let mut reports = Vec::new();
    // Path `i` runs to site `i + 1`; the sender is in site 0.
    for (i, path) in paths.iter().enumerate() {
        let sink = fabric.app_mut::<RcpSinkApp>(hosts[(i + 1) * per_site]);
        let fct_ms =
            sink.fct_ns.get(&(src_ip, path.sport)).map(|&t| (t - INTERDC_START_NS) as f64 / 1e6);
        let sender = fabric.app_mut::<RcpSenderApp>(hosts[0]);
        reports.push(InterDcPathReport {
            src_dc: 0,
            dst_dc: i as u32 + 1,
            capacity_mbps: sender.cfg.capacity_mbps,
            rate_mbps: sender.rate_bps(i) / 1e6,
            rtt_est_ms: sender.rtt_est_ns(i) / 1e6,
            fct_ms,
        });
    }
    InterDcRunResult { paths: reports }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rcp::UpdateTpps;
    use tpp_core::exec::{execute, ExecOptions};
    use tpp_netsim::SECONDS;

    #[test]
    fn wan_programs_validate_against_their_register_window() {
        let mut cp = tpp_endhost::CentralCp::new();
        // RCP owns AppSpecific_0/1 (inter-DC RCP* runs the same sender);
        // the fan-out app gets the next window: AppSpecific_2/3.
        let (_rcp, first) = cp.register_app_with_regs("rcp", 2).unwrap();
        assert_eq!(first, 0);
        let (wan, first) = cp.register_app_with_regs("wan-fanout", 2).unwrap();
        assert_eq!(first, 2);
        let policy = cp.policy_for(wan, false).unwrap();
        policy.validate(&discover_probe().hops(9).compile().unwrap()).unwrap();
        policy
            .validate(UpdateTpps::default().fill(Law::Fanout, std::iter::repeat_n((1, 50_000), 9)))
            .unwrap();
    }

    #[test]
    fn install_tpp_writes_only_at_the_branch_switch() {
        use tpp_switch::{PacketContext, SwitchBus, SwitchMemory};
        let branch = SITE0_BORDER;
        let mut t =
            UpdateTpps::default().fill(Law::Fanout, std::iter::repeat_n((0, 12_345), 3)).clone();
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
        // Every discovery echo matched its probe, and none was retried.
        assert_eq!((r.probes_unmatched, r.probes_retransmitted), (0, 0));
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
    fn shallow_wan_buffers_do_not_break_completion() {
        // The shallow-buffer profile drops more at the border but the
        // versioned RCP loop still completes the transfer.
        let r = run_interdc(2, 4, 20, 12_000, 120_000, 3 * SECONDS, 5);
        assert_eq!(r.paths.len(), 1);
        assert!(r.paths[0].fct_ms.is_some(), "transfer must complete despite drops");
    }
}
