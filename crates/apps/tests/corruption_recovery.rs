//! End-to-end link-corruption recovery: while a link corrupts every frame,
//! probe TPPs are rejected by the section checksum (at a switch or at the
//! receiving shim), the executor times out and retries; once the fault
//! clears — through a *scheduled* reconfiguration, not test poking — the
//! retries go through and the monitor returns to a clean bill of health.

use tpp_apps::common::Responder;
use tpp_apps::netverify::{PathMonitor, PathMonitorApp};
use tpp_netsim::{LinkSpec, Network, NullApp, ReconfigAction, MILLIS};
use tpp_switch::{Action, SwitchConfig};

const PROBE_PERIOD: u64 = 200_000; // 200us
const FAULT_CLEAR_NS: u64 = 5 * MILLIS;
const HORIZON: u64 = 12 * MILLIS;

#[test]
fn corrupted_probes_retry_until_the_fault_clears() {
    // Line: h_src - s1 - s2 - h_dst, with the s1-s2 trunk corrupting
    // every frame until the scheduled repair.
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
    net.set_app(h_dst, Box::new(Responder::new()));
    net.set_app(h_src, Box::new(PathMonitor::new(dst_ip, PROBE_PERIOD, Vec::new())));

    // Fault in from the start; repair is itself a reconfiguration event.
    net.set_link_faults(s1, 0, 0.0, 1.0);
    net.schedule_reconfig(
        FAULT_CLEAR_NS,
        ReconfigAction::LinkFaults { node: s1, port: 0, drop_prob: 0.0, corrupt_prob: 0.0 },
    );
    net.run_until(HORIZON);

    // The wire really corrupted frames, and they were rejected somewhere:
    // either a switch refused the mangled section (malformed drop) or a
    // shim's checksum verification discarded it on delivery.
    assert!(net.stats.frames_corrupted > 0, "corruption fired");
    assert_eq!(net.stats.reconfigs_applied, 1, "the repair applied");

    let m = net.app_mut::<PathMonitorApp>(h_src);
    let exec = m.executor().expect("monitor has an executor");
    assert!(exec.retransmitted > 0, "timeouts drove retries");
    assert!(exec.completed > 0, "probes complete once the fault clears");
    // During the fault window the monitor saw blackholes (checksum-rejected
    // probes look like losses end to end)...
    let v: Vec<_> = m.violations().collect();
    assert!(
        v.iter().any(|r| r.t_ns < FAULT_CLEAR_NS + MILLIS),
        "corruption window must surface as violations: {v:?}"
    );
    // ...and after the repair (plus one probe period of slack for probes
    // straddling the boundary) it went quiet.
    let quiet_after = FAULT_CLEAR_NS + 2 * PROBE_PERIOD;
    assert!(v.iter().all(|r| r.t_ns <= quiet_after), "no violations after the repair: {v:?}");
    // The shim-level evidence: corrupted sections were rejected by parse
    // (monitor side sees corrupted echoes; switches drop mangled requests
    // as malformed).
    let rejected = net.stats.drops_malformed
        + net.app_mut::<PathMonitorApp>(h_src).shim().map_or(0, |s| s.counters.parse_failures);
    assert!(rejected > 0, "corrupted TPPs were rejected by checksum somewhere");
}
