//! Network verification with TPP path visibility (paper §2.6).
//!
//! End-to-end reachability cannot measure route convergence: backup paths
//! keep connectivity alive while forwarding state is still in flux. TPPs
//! expose the *actual* per-packet path, so a host can verify exactly when
//! the network converged onto the intended route — and, when packets
//! blackhole, localize the failure to a switch (§2.6 "fault localization",
//! complementing `netsight::last_seen_switch`).
//!
//! [`PathMonitor`] traces the path to one destination every period and
//! records every round. Route updates, even between two loop-free
//! configurations, can pass through unsafe intermediate states, which
//! end-to-end probes cannot tell apart; the monitor classifies each round
//! as
//!
//! * **loop** — a switch id repeats in the traced path (the probe
//!   circulated before TTL or the hop budget cut it off);
//! * **blackhole** — the probe vanished and every retry timed out
//!   (withdrawn route, downed link);
//! * **path conformance** — the probe completed on a path outside the
//!   allowed set.
//!
//! The verdicts are the host's own: the monitor's
//! [`observations`](PathMonitor::observations) are the only record of
//! them, read through `Network::app_mut` (the simulator counts frames and
//! drops, not what an end host concluded from them). The monitor is the
//! validation oracle for the dependency-ordered update scheduler
//! ([`tpp_netsim::order_route_updates`]): a safely ordered plan must
//! produce **zero** violations, a misordered one at least one.

use std::collections::BTreeSet;

use tpp_core::probe::Probe;
use tpp_core::wire::Ipv4Address;
use tpp_endhost::harness::{Endhost, Harness};
use tpp_endhost::ExecutorConfig;
use tpp_netsim::Time;

/// What a path-monitor round violated.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ViolationKind {
    /// A probe's packet history visited the same switch twice: a transient
    /// forwarding loop (terminated by the TTL guard in the switch path).
    Loop,
    /// A probe was lost after all retries: traffic blackholed, e.g. by a
    /// withdrawn route.
    Blackhole,
    /// A probe completed over a path outside the allowed set.
    PathConformance,
}

/// One resolved probe round: when, which switches the probe traversed, and
/// what the round violated, if anything.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PathObservation {
    /// When the round resolved (completion or final timeout).
    pub t_ns: Time,
    /// The traced path (empty for a blackhole: nothing came back).
    pub path: Vec<u32>,
    /// `None` for a loop-free round on an allowed path.
    pub violation: Option<ViolationKind>,
}

impl PathObservation {
    /// Whether the probe's round trip completed (false = lost after all
    /// retries).
    pub fn completed(&self) -> bool {
        self.violation != Some(ViolationKind::Blackhole)
    }
}

/// Path-trace probe schema: switch id per hop.
pub fn trace_probe() -> Probe {
    Probe::stack("netverify-trace").field("switch", "Switch:SwitchID")
}

const TIMER_PROBE: u64 = 1;

/// Periodically traces the path to `dst` and records every round with its
/// verdict. Construct with [`PathMonitor::new`].
pub struct PathMonitor {
    /// Destination under watch.
    pub dst: Ipv4Address,
    /// Probe period.
    pub period_ns: Time,
    /// Sanctioned switch-id paths. Empty = any loop-free completed path
    /// conforms (loop and blackhole detection stay active).
    pub allowed: Vec<Vec<u32>>,
    /// Every resolved round, in resolution order.
    pub observations: Vec<PathObservation>,
}

/// The wired path-monitor application.
pub type PathMonitorApp = Endhost<PathMonitor>;

impl PathMonitor {
    /// A monitor probing `dst` every `period_ns`, holding completed paths
    /// to the `allowed` set (empty = any loop-free path).
    pub fn new(dst: Ipv4Address, period_ns: Time, allowed: Vec<Vec<u32>>) -> PathMonitorApp {
        let state = PathMonitor { dst, period_ns, allowed, observations: Vec::new() };
        Harness::new(state)
            .executor(ExecutorConfig { max_retries: 1, timeout_ns: period_ns })
            .launch(trace_probe().hops(8), |s, io, c| {
                // Stack of one word per hop; drop trailing zero slots (the
                // executor's nonce word lies beyond the pushed prefix).
                let path: Vec<u32> = c
                    .hops()
                    .map(|r| r.get("switch").unwrap_or(0))
                    .take_while(|&w| w != 0)
                    .collect();
                let mut seen = BTreeSet::new();
                let violation = if !path.iter().all(|&w| seen.insert(w)) {
                    Some(ViolationKind::Loop)
                } else {
                    let allowed = &s.allowed;
                    (!allowed.is_empty() && !allowed.contains(&path))
                        .then_some(ViolationKind::PathConformance)
                };
                s.observe(io.ctx.now, path, violation);
            })
            .on_failed(|s, io| s.observe(io.ctx.now, Vec::new(), Some(ViolationKind::Blackhole)))
            .on_start(|_s, io| io.ctx.set_timer(0, TIMER_PROBE))
            .on_timer(|s, io, token| {
                if token == TIMER_PROBE {
                    io.launch(0, s.dst, None);
                    io.ctx.set_timer(s.period_ns, TIMER_PROBE);
                }
            })
            .build()
            .expect("static wiring")
    }

    /// The rounds that violated something, in resolution order.
    pub fn violations(&self) -> impl Iterator<Item = &PathObservation> {
        self.observations.iter().filter(|o| o.violation.is_some())
    }

    fn observe(&mut self, t_ns: Time, path: Vec<u32>, violation: Option<ViolationKind>) {
        self.observations.push(PathObservation { t_ns, path, violation });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpp_netsim::{LinkSpec, Network, NodeId, NullApp, ReconfigAction, TopologySpec, MILLIS};
    use tpp_switch::{Action, SwitchConfig};

    #[test]
    fn path_tracing_observes_route_change() {
        // Line of 3 switches; host 0 -> host 4 (on switch 3). We then move
        // the destination host route on switch 1 through a detour and watch
        // the observed path change.
        let mut topo = TopologySpec::Line { switches: 3, hosts_per_switch: 2 }
            .builder()
            .link_mbps(1000)
            .delay_ns(10_000)
            .seed(1)
            .build();
        let hosts = topo.hosts.clone();
        let dst_ip = topo.net.host(hosts[4]).ip;
        topo.net.set_app(hosts[4], Box::new(crate::common::Responder::new()));
        topo.net.set_app(hosts[0], Box::new(PathMonitor::new(dst_ip, MILLIS, Vec::new())));
        topo.net.run_until(20 * MILLIS);
        // Steady state: path 1 -> 2 -> 3.
        {
            let v = topo.net.app_mut::<PathMonitorApp>(hosts[0]);
            let obs = &v.observations;
            assert!(obs.len() >= 10);
            assert!(obs.iter().all(PathObservation::completed));
            assert_eq!(obs.last().unwrap().path, vec![1, 2, 3]);
        }
    }

    #[test]
    fn convergence_detection_after_reroute() {
        // Diamond: s_a - {s_b, s_c} - s_d, host on s_a and s_d. Start with
        // the path via s_b, then reroute via s_c and measure convergence.
        let mut net = Network::new(1);
        let sa = net.add_switch(SwitchConfig::new(10, 4));
        let sb = net.add_switch(SwitchConfig::new(11, 4));
        let sc = net.add_switch(SwitchConfig::new(12, 4));
        let sd = net.add_switch(SwitchConfig::new(13, 4));
        let h_src = net.add_host(Box::new(NullApp));
        let h_dst = net.add_host(Box::new(NullApp));
        let spec = LinkSpec::new(1000, 5_000);
        net.connect(sa, sb, spec); // sa port 0
        net.connect(sa, sc, spec); // sa port 1
        net.connect(sb, sd, spec); // sb port 1
        net.connect(sc, sd, spec); // sc port 1
        net.connect(sa, h_src, spec); // sa port 2
        net.connect(sd, h_dst, spec); // sd port 2
        let src_ip = net.host(h_src).ip;
        let dst_ip = net.host(h_dst).ip;
        // Initial routes: via sb.
        net.switch_mut(sa).add_host_route(dst_ip, Action::Output(0));
        net.switch_mut(sb).add_host_route(dst_ip, Action::Output(1));
        net.switch_mut(sc).add_host_route(dst_ip, Action::Output(1));
        net.switch_mut(sd).add_host_route(dst_ip, Action::Output(2));
        for (sw, port) in [(sa, 2u8), (sb, 0), (sc, 0), (sd, 1)] {
            net.switch_mut(sw).add_host_route(src_ip, Action::Output(port));
        }
        // Return routes for sb/sc toward src go via sa (port 0 on each).
        net.set_app(h_dst, Box::new(crate::common::Responder::new()));
        net.set_app(h_src, Box::new(PathMonitor::new(dst_ip, MILLIS, Vec::new())));
        net.run_until(20 * MILLIS);
        // Reroute through sc.
        let change = net.now();
        net.switch_mut(sa).add_host_route(dst_ip, Action::Output(1));
        net.run_until(change + 30 * MILLIS);
        let v = net.app_mut::<PathMonitorApp>(h_src);
        let obs = &v.observations;
        // Converged within two probe periods: every probe from then on
        // took the new path.
        let settled: Vec<_> = obs.iter().filter(|o| o.t_ns >= change + 2 * MILLIS).collect();
        assert!(settled.len() >= 20, "{} probes after the reroute", settled.len());
        assert!(settled.iter().all(|o| o.completed() && o.path == [10, 12, 13]), "{obs:?}");
    }

    #[test]
    fn blackhole_localized_to_failed_link() {
        let mut topo = TopologySpec::Line { switches: 3, hosts_per_switch: 2 }
            .builder()
            .link_mbps(1000)
            .delay_ns(10_000)
            .seed(2)
            .build();
        let hosts = topo.hosts.clone();
        let switches = topo.switches.clone();
        let dst_ip = topo.net.host(hosts[4]).ip;
        topo.net.set_app(hosts[4], Box::new(crate::common::Responder::new()));
        topo.net.set_app(hosts[0], Box::new(PathMonitor::new(dst_ip, MILLIS, Vec::new())));
        topo.net.run_until(20 * MILLIS);
        // Fail the link between switch 2 and switch 3 (ports: s1's port 1
        // connects to s2... for line topology, switch i's port 1 is toward
        // switch i+1, port 0 toward i-1, except s0 where port 0 is toward s1).
        let s_mid = switches[1];
        // Find the port on s_mid that leads to switches[2].
        let port = topo
            .net
            .neighbors(s_mid)
            .into_iter()
            .find(|&(_, peer)| peer == switches[2])
            .map(|(p, _)| p)
            .unwrap();
        topo.net.set_link_up(s_mid, port, false);
        topo.net.run_until(60 * MILLIS);
        let v = topo.net.app_mut::<PathMonitorApp>(hosts[0]);
        let obs = &v.observations;
        assert!(obs.iter().any(|o| !o.completed()), "losses observed");
        // The failure is just past switch id 3? No: past the last switch
        // seen before losses began — switch 3 is unreachable, so the
        // frontier is the full healthy path's tail (switch id 3 was last
        // seen *before* failure; after failure probes die beyond switch 2).
        let first_loss = obs.iter().position(|o| !o.completed()).expect("losses");
        assert_eq!(obs[first_loss - 1].path.last(), Some(&3), "last healthy one reached switch 3");
    }

    /// Line s1 - s2 with src on s1, dst on s2.
    fn line2() -> (Network, [NodeId; 2], NodeId, Ipv4Address) {
        let mut net = Network::new(1);
        let s1 = net.add_switch(SwitchConfig::new(1, 3));
        let s2 = net.add_switch(SwitchConfig::new(2, 3));
        let h_src = net.add_host(Box::new(NullApp));
        let h_dst = net.add_host(Box::new(NullApp));
        let spec = LinkSpec::new(1000, 10_000);
        net.connect(s1, s2, spec); // s1 port 0 / s2 port 0
        net.connect(s1, h_src, spec); // s1 port 1
        net.connect(s2, h_dst, spec); // s2 port 1
        let dst_ip = net.host(h_dst).ip;
        let src_ip = net.host(h_src).ip;
        net.switch_mut(s1).add_host_route(dst_ip, Action::Output(0));
        net.switch_mut(s2).add_host_route(dst_ip, Action::Output(1));
        net.switch_mut(s1).add_host_route(src_ip, Action::Output(1));
        net.switch_mut(s2).add_host_route(src_ip, Action::Output(0));
        net.set_app(h_dst, Box::new(crate::common::Responder::new()));
        (net, [s1, s2], h_src, dst_ip)
    }

    #[test]
    fn clean_network_has_zero_violations() {
        let (mut net, _, h_src, dst_ip) = line2();
        net.set_app(h_src, Box::new(PathMonitor::new(dst_ip, MILLIS, vec![vec![1, 2]])));
        net.run_until(20 * MILLIS);
        let m = net.app_mut::<PathMonitorApp>(h_src);
        assert!(m.observations.len() >= 10);
        assert!(m.violations().next().is_none());
    }

    #[test]
    fn withdrawn_route_is_a_blackhole_violation() {
        let (mut net, [_, s2], h_src, dst_ip) = line2();
        net.set_app(h_src, Box::new(PathMonitor::new(dst_ip, MILLIS, Vec::new())));
        // Withdraw the destination route on s2 mid-run and restore it later.
        net.schedule_reconfig(
            5 * MILLIS,
            ReconfigAction::RouteWithdraw { switch: s2, dst: dst_ip },
        );
        net.schedule_reconfig(
            12 * MILLIS,
            ReconfigAction::RouteSet { switch: s2, dst: dst_ip, action: Action::Output(1) },
        );
        net.run_until(20 * MILLIS);
        assert!(net.stats.drops_no_route > 0, "withdrawn route must drop");
        let m = net.app_mut::<PathMonitorApp>(h_src);
        let v: Vec<_> = m.violations().collect();
        assert!(v.iter().any(|r| r.violation == Some(ViolationKind::Blackhole)), "{v:?}");
        assert!(v.iter().all(|r| r.violation != Some(ViolationKind::Loop)), "{v:?}");
    }

    #[test]
    fn off_path_detour_is_a_conformance_violation() {
        let (mut net, [s1, s2], h_src, dst_ip) = line2();
        // Add a third switch hanging off s1 that still reaches s2.
        let s3 = net.add_switch(SwitchConfig::new(3, 3));
        let spec = LinkSpec::new(1000, 10_000);
        net.connect(s1, s3, spec); // s1 port 2 / s3 port 0
        net.connect(s3, s2, spec); // s3 port 1 / s2 port 2
        net.switch_mut(s3).add_host_route(dst_ip, Action::Output(1));
        net.set_app(h_src, Box::new(PathMonitor::new(dst_ip, MILLIS, vec![vec![1, 2]])));
        // Mid-run, detour s1 through s3: probes complete on [1, 3, 2].
        net.schedule_reconfig(
            5 * MILLIS,
            ReconfigAction::RouteSet { switch: s1, dst: dst_ip, action: Action::Output(2) },
        );
        net.run_until(20 * MILLIS);
        let m = net.app_mut::<PathMonitorApp>(h_src);
        let v: Vec<_> = m.violations().collect();
        assert!(v.iter().any(|r| r.violation == Some(ViolationKind::PathConformance)), "{v:?}");
        assert!(v.iter().any(|r| r.path == vec![1, 3, 2]), "{v:?}");
    }
}
