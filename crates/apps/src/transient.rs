//! TPP-based transient-safety monitor for live network churn.
//!
//! Route updates, even between two loop-free configurations, can pass
//! through unsafe intermediate states: transient forwarding loops,
//! blackholes from withdrawn routes, and traffic straying off every
//! sanctioned path. End-to-end probes cannot tell these apart — a TPP
//! path trace can (§2.6): every probe carries back the exact switch
//! sequence it traversed, so the monitor classifies each round as
//!
//! * **loop** — a switch id repeats in the traced path (the probe
//!   circulated before TTL or the hop budget cut it off);
//! * **blackhole** — the probe vanished and every retry timed out
//!   (withdrawn route, downed link);
//! * **path conformance** — the probe completed on a path outside the
//!   allowed set.
//!
//! Each violation is recorded locally *and* counted into the simulator's
//! [`NetStats`](tpp_netsim::NetStats) (`violations_loop`,
//! `violations_blackhole`, `violations_path`) via
//! [`HostCtx::record_violation`](tpp_netsim::HostCtx::record_violation),
//! so sharded runs can assert transient safety without digging into app
//! state. The monitor is the validation oracle for the dependency-ordered
//! update scheduler ([`tpp_netsim::order_route_updates`]): a safely
//! ordered plan must produce **zero** violations, a misordered one at
//! least one.

use std::collections::BTreeSet;

use crate::netverify::trace_probe;
use tpp_core::wire::Ipv4Address;
use tpp_endhost::harness::{Endhost, Harness};
use tpp_endhost::ExecutorConfig;
use tpp_netsim::{Time, ViolationKind};

/// One detected transient-safety violation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ViolationRecord {
    /// When the violating probe resolved (completion or final timeout).
    pub t_ns: Time,
    /// What went wrong.
    pub kind: ViolationKind,
    /// The traced path (empty for blackholes — nothing came back).
    pub path: Vec<u32>,
}

const TIMER_PROBE: u64 = 1;

/// Periodically traces the path to `dst` and flags transient-safety
/// violations. Construct with [`TransientMonitor::new`].
pub struct TransientMonitor {
    /// Destination under watch.
    pub dst: Ipv4Address,
    /// Probe period.
    pub period_ns: Time,
    /// Sanctioned switch-id paths. Empty = any loop-free completed path
    /// conforms (loop and blackhole detection stay active).
    pub allowed: Vec<Vec<u32>>,
    /// Probe rounds resolved (completed or failed).
    pub probes: u64,
    /// Violations detected, in detection order.
    pub violations: Vec<ViolationRecord>,
}

/// The wired transient-monitor application.
pub type TransientMonitorApp = Endhost<TransientMonitor>;

impl TransientMonitor {
    /// A monitor probing `dst` every `period_ns`, holding completed paths
    /// to the `allowed` set (empty = any loop-free path).
    pub fn new(dst: Ipv4Address, period_ns: Time, allowed: Vec<Vec<u32>>) -> TransientMonitorApp {
        let state = TransientMonitor { dst, period_ns, allowed, probes: 0, violations: Vec::new() };
        Harness::new(state)
            .executor(ExecutorConfig { max_retries: 1, timeout_ns: period_ns })
            .launch(trace_probe().hops(8), |s, io, c| {
                let path: Vec<u32> = c
                    .hops()
                    .map(|r| r.get("switch").unwrap_or(0))
                    .take_while(|&w| w != 0)
                    .collect();
                s.probes += 1;
                let mut seen = BTreeSet::new();
                let kind = if !path.iter().all(|&w| seen.insert(w)) {
                    Some(ViolationKind::Loop)
                } else {
                    let allowed = &s.allowed;
                    (!allowed.is_empty() && !allowed.iter().any(|p| p == &path))
                        .then_some(ViolationKind::PathConformance)
                };
                if let Some(kind) = kind {
                    io.ctx.record_violation(kind);
                    s.violations.push(ViolationRecord { t_ns: io.ctx.now, kind, path });
                }
            })
            .on_failed(|s, io| {
                s.probes += 1;
                io.ctx.record_violation(ViolationKind::Blackhole);
                s.violations.push(ViolationRecord {
                    t_ns: io.ctx.now,
                    kind: ViolationKind::Blackhole,
                    path: Vec::new(),
                });
            })
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpp_netsim::{LinkSpec, Network, NodeId, NullApp, ReconfigAction, MILLIS};
    use tpp_switch::{Action, SwitchConfig};

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
        net.set_app(h_src, Box::new(TransientMonitor::new(dst_ip, MILLIS, vec![vec![1, 2]])));
        net.run_until(20 * MILLIS);
        let m = net.app_mut::<TransientMonitorApp>(h_src);
        assert!(m.probes >= 10);
        assert!(m.violations.is_empty());
        assert_eq!(net.stats.violations(), 0);
    }

    #[test]
    fn withdrawn_route_is_a_blackhole_violation() {
        let (mut net, [_, s2], h_src, dst_ip) = line2();
        net.set_app(h_src, Box::new(TransientMonitor::new(dst_ip, MILLIS, Vec::new())));
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
        assert!(net.stats.violations_blackhole > 0);
        let m = net.app_mut::<TransientMonitorApp>(h_src);
        let v = &m.violations;
        assert!(v.iter().any(|r| r.kind == ViolationKind::Blackhole), "{v:?}");
        assert!(v.iter().all(|r| r.kind != ViolationKind::Loop), "{v:?}");
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
        net.set_app(h_src, Box::new(TransientMonitor::new(dst_ip, MILLIS, vec![vec![1, 2]])));
        // Mid-run, detour s1 through s3: probes complete on [1, 3, 2].
        net.schedule_reconfig(
            5 * MILLIS,
            ReconfigAction::RouteSet { switch: s1, dst: dst_ip, action: Action::Output(2) },
        );
        net.run_until(20 * MILLIS);
        assert!(net.stats.violations_path > 0);
        let m = net.app_mut::<TransientMonitorApp>(h_src);
        let v = &m.violations;
        assert!(v.iter().any(|r| r.kind == ViolationKind::PathConformance), "{v:?}");
        assert!(v.iter().any(|r| r.path == vec![1, 3, 2]), "{v:?}");
    }
}
