//! Network verification with TPP path visibility (paper §2.6).
//!
//! End-to-end reachability cannot measure route convergence: backup paths
//! keep connectivity alive while forwarding state is still in flux. TPPs
//! expose the *actual* per-packet path, so a host can verify exactly when
//! the network converged onto the intended route — and, when packets
//! blackhole, localize the failure to a switch (§2.6 "fault localization",
//! complementing `netsight::last_seen_switch`).

use tpp_core::probe::Probe;
use tpp_core::wire::Ipv4Address;
use tpp_endhost::harness::{Endhost, Harness};
use tpp_endhost::ExecutorConfig;
use tpp_netsim::Time;

/// A path observation: which switches a probe traversed, when.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PathObservation {
    pub t_ns: Time,
    pub path: Vec<u32>,
    /// Probe round-trip completed (false = lost after all retries).
    pub completed: bool,
}

/// Path-trace probe schema: switch id per hop.
pub fn trace_probe() -> Probe {
    Probe::stack("netverify-trace").field("switch", "Switch:SwitchID")
}

const TIMER_PROBE: u64 = 1;

/// Periodically traces the path to `dst` and records observations.
/// Construct with [`PathVerifier::new`].
pub struct PathVerifier {
    pub dst: Ipv4Address,
    pub period_ns: Time,
    pub observations: Vec<PathObservation>,
}

/// The wired path-verification application.
pub type PathVerifierApp = Endhost<PathVerifier>;

impl PathVerifier {
    pub fn new(dst: Ipv4Address, period_ns: Time) -> PathVerifierApp {
        let state = PathVerifier { dst, period_ns, observations: Vec::new() };
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
                s.observations.push(PathObservation { t_ns: io.ctx.now, path, completed: true });
            })
            .on_failed(|s, io| {
                s.observations.push(PathObservation {
                    t_ns: io.ctx.now,
                    path: Vec::new(),
                    completed: false,
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
    use tpp_netsim::{LinkSpec, TopologySpec, MILLIS};
    use tpp_switch::Action;

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
        topo.net.set_app(hosts[0], Box::new(PathVerifier::new(dst_ip, MILLIS)));
        topo.net.run_until(20 * MILLIS);
        // Steady state: path 1 -> 2 -> 3.
        {
            let v = topo.net.app_mut::<PathVerifierApp>(hosts[0]);
            let obs = &v.observations;
            assert!(obs.len() >= 10);
            assert!(obs.iter().all(|o| o.completed));
            assert_eq!(obs.last().unwrap().path, vec![1, 2, 3]);
        }
    }

    #[test]
    fn convergence_detection_after_reroute() {
        // Diamond: s_a - {s_b, s_c} - s_d, host on s_a and s_d. Start with
        // the path via s_b, then reroute via s_c and measure convergence.
        let mut net = tpp_netsim::Network::new(1);
        let sa = net.add_switch(tpp_switch::SwitchConfig::new(10, 4));
        let sb = net.add_switch(tpp_switch::SwitchConfig::new(11, 4));
        let sc = net.add_switch(tpp_switch::SwitchConfig::new(12, 4));
        let sd = net.add_switch(tpp_switch::SwitchConfig::new(13, 4));
        let h_src = net.add_host(Box::new(tpp_netsim::NullApp));
        let h_dst = net.add_host(Box::new(tpp_netsim::NullApp));
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
        net.set_app(h_src, Box::new(PathVerifier::new(dst_ip, MILLIS)));
        net.run_until(20 * MILLIS);
        // Reroute through sc.
        let change = net.now();
        net.switch_mut(sa).add_host_route(dst_ip, Action::Output(1));
        net.run_until(change + 30 * MILLIS);
        let v = net.app_mut::<PathVerifierApp>(h_src);
        let obs = &v.observations;
        // Converged within two probe periods: every probe from then on
        // took the new path.
        let settled: Vec<_> = obs.iter().filter(|o| o.t_ns >= change + 2 * MILLIS).collect();
        assert!(settled.len() >= 20, "{} probes after the reroute", settled.len());
        assert!(settled.iter().all(|o| o.completed && o.path == [10, 12, 13]), "{obs:?}");
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
        topo.net.set_app(hosts[0], Box::new(PathVerifier::new(dst_ip, MILLIS)));
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
        let v = topo.net.app_mut::<PathVerifierApp>(hosts[0]);
        let obs = &v.observations;
        assert!(obs.iter().any(|o| !o.completed), "losses observed");
        // The failure is just past switch id 3? No: past the last switch
        // seen before losses began — switch 3 is unreachable, so the
        // frontier is the full healthy path's tail (switch id 3 was last
        // seen *before* failure; after failure probes die beyond switch 2).
        let first_loss = obs.iter().position(|o| !o.completed).expect("losses");
        assert_eq!(obs[first_loss - 1].path.last(), Some(&3), "last healthy one reached switch 3");
    }
}
