//! End-to-end validation of the dependency-ordered update scheduler by the
//! transient-safety monitor: on the classic drain-a-link triangle, the
//! misordered plan must trip at least one violation (the probes either die
//! in the transient s1<->s2 loop — TTL drops plus blackhole timeouts — or
//! trace a path with a repeated switch), while the safely ordered plan
//! produces exactly zero.

use tpp_apps::common::Responder;
use tpp_apps::transient::{TransientMonitor, TransientMonitorApp};
use tpp_core::wire::Ipv4Address;
use tpp_netsim::{
    order_route_updates, plan_route_updates, LinkSpec, Network, NodeId, NullApp, ReconfigPlan,
    RouteUpdate, MILLIS,
};
use tpp_switch::{Action, SwitchConfig};

const PROBE_PERIOD: u64 = 100_000; // 100us
const HORIZON: u64 = 14 * MILLIS;

/// Triangle of switches (ids 1, 2, 3) with the source host on s1 and the
/// destination on s3. Old routes send s1 -> s2 -> s3; the update set
/// drains the s2-s3 link: s1 goes direct to s3 and s2 detours via s1.
fn triangle() -> (Network, Ipv4Address, [RouteUpdate; 2]) {
    let mut net = Network::new(1);
    let s1 = net.add_switch(SwitchConfig::new(1, 4));
    let s2 = net.add_switch(SwitchConfig::new(2, 4));
    let s3 = net.add_switch(SwitchConfig::new(3, 4));
    let h_src = net.add_host(Box::new(NullApp));
    let h_dst = net.add_host(Box::new(NullApp));
    let spec = LinkSpec::new(1000, 10_000);
    net.connect(s1, s2, spec); // s1 port 0 / s2 port 0
    net.connect(s2, s3, spec); // s2 port 1 / s3 port 0
    net.connect(s1, s3, spec); // s1 port 1 / s3 port 1
    net.connect(s1, h_src, spec); // s1 port 2
    net.connect(s3, h_dst, spec); // s3 port 2
    let dst_ip = net.host(h_dst).ip;
    let src_ip = net.host(h_src).ip;
    net.switch_mut(s1).add_host_route(dst_ip, Action::Output(0)); // via s2
    net.switch_mut(s2).add_host_route(dst_ip, Action::Output(1)); // via s3
    net.switch_mut(s3).add_host_route(dst_ip, Action::Output(2)); // deliver
    net.switch_mut(s1).add_host_route(src_ip, Action::Output(2));
    net.switch_mut(s2).add_host_route(src_ip, Action::Output(0));
    net.switch_mut(s3).add_host_route(src_ip, Action::Output(1));
    net.set_app(h_dst, Box::new(Responder::new()));
    net.set_app(
        h_src,
        Box::new(TransientMonitor::new(dst_ip, PROBE_PERIOD, vec![vec![1, 2, 3], vec![1, 3]])),
    );
    let updates = [
        RouteUpdate { switch: s1, dst: dst_ip, action: Action::Output(1) }, // direct
        RouteUpdate { switch: s2, dst: dst_ip, action: Action::Output(0) }, // via s1
    ];
    (net, dst_ip, updates)
}

fn run_plan(plan: ReconfigPlan) -> Network {
    let (mut net, _, _) = triangle();
    for (at, action) in plan {
        net.schedule_reconfig(at, action);
    }
    net.run_until(HORIZON);
    net
}

#[test]
fn ordered_plan_is_transient_safe() {
    let (net0, _, updates) = triangle();
    let ordered = order_route_updates(&net0, &updates);
    assert_eq!(ordered[0].switch, NodeId(0), "s1's direct route goes first");
    let net = run_plan(plan_route_updates(&ordered, 5 * MILLIS, 3 * MILLIS));
    assert_eq!(net.stats.reconfigs_applied, 2);
    assert_eq!(net.stats.violations(), 0, "safe order: zero violations");
    assert_eq!(net.stats.drops_ttl_expired, 0);
    assert_eq!(net.stats.drops_no_route, 0);
    let h_src = net.host_ids()[0];
    let mut net = net;
    let m = net.app_mut::<TransientMonitorApp>(h_src);
    assert!(m.probes >= 100, "monitor kept probing throughout");
    assert!(m.violations.is_empty());
}

#[test]
fn misordered_plan_trips_the_monitor() {
    let (net0, _, updates) = triangle();
    let ordered = order_route_updates(&net0, &updates);
    // Deliberately reverse the safe order: s2 detours via s1 while s1
    // still forwards to s2 — a transient loop for three milliseconds.
    let misordered: Vec<RouteUpdate> = ordered.iter().rev().copied().collect();
    let net = run_plan(plan_route_updates(&misordered, 5 * MILLIS, 3 * MILLIS));
    assert_eq!(net.stats.reconfigs_applied, 2);
    assert!(net.stats.violations() >= 1, "misorder must trip the monitor");
    // The loop physically manifests: probes circulate until the TTL guard
    // kills them (counted per cause), and their retries die the same way.
    assert!(net.stats.drops_ttl_expired > 0, "loop guard fired");
    assert!(
        net.stats.violations_blackhole > 0 || net.stats.violations_loop > 0,
        "probes either vanished in the loop or traced a repeated switch"
    );
}
