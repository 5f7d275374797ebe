//! Cross-crate integration tests: the full TPP pipeline — end-host stack,
//! wire formats, switches, simulator — exercised together.

use minions::apps::common::Responder;
use minions::apps::netverify::{PathMonitor, PathMonitorApp, ViolationKind};
use minions::core::addr::resolve_mnemonic;
use minions::core::asm::TppBuilder;
use minions::core::wire::Ipv4Address;
use minions::endhost::{Executor, ExecutorConfig, ProbeOutcome, Shim};
use minions::netsim::{HostApp, HostCtx, MILLIS};
use std::sync::{Arc, Mutex};
use tpp_netsim::TopologySpec;

/// A host that launches one reliable probe and records the outcome.
struct OneProbe {
    dst: Ipv4Address,
    tpp: minions::core::wire::Tpp,
    shim: Option<Shim>,
    exec: Option<Executor>,
    outcome: Arc<Mutex<Option<ProbeOutcome>>>,
}

impl OneProbe {
    fn new(
        dst: Ipv4Address,
        tpp: minions::core::wire::Tpp,
    ) -> (Self, Arc<Mutex<Option<ProbeOutcome>>>) {
        let outcome = Arc::new(Mutex::new(None));
        (OneProbe { dst, tpp, shim: None, exec: None, outcome: outcome.clone() }, outcome)
    }
}

const RETRY: u64 = 1;

impl HostApp for OneProbe {
    fn start(&mut self, ctx: &mut HostCtx<'_>) {
        self.shim = Some(Shim::new(ctx.ip, ctx.mac, 7));
        self.exec = Some(Executor::new(
            ctx.ip,
            ctx.mac,
            ExecutorConfig { max_retries: 10, timeout_ns: 5 * MILLIS },
        ));
        let (_, frame) =
            self.exec.as_mut().unwrap().send(ctx.now, self.dst, self.tpp.clone(), None);
        ctx.send(frame);
        ctx.set_timer(5 * MILLIS, RETRY);
    }

    fn on_timer(&mut self, ctx: &mut HostCtx<'_>, _token: u64) {
        let (resend, failed) = self.exec.as_mut().unwrap().poll(ctx.now);
        for f in resend {
            ctx.send(f);
        }
        for o in failed {
            *self.outcome.lock().unwrap() = Some(o);
        }
        if self.exec.as_ref().unwrap().next_deadline().is_some() {
            ctx.set_timer(5 * MILLIS, RETRY);
        }
    }

    fn on_frame(&mut self, ctx: &mut HostCtx<'_>, frame: Vec<u8>) {
        let out = self.shim.as_mut().unwrap().incoming(frame);
        if let Some(echo) = out.echo {
            ctx.send(echo);
        }
        if let Some(done) = out.completed {
            if let Some(o) = self.exec.as_mut().unwrap().on_completed(done) {
                *self.outcome.lock().unwrap() = Some(o);
            }
        }
    }
}

fn trace_tpp() -> minions::core::wire::Tpp {
    TppBuilder::stack_mode().push_m("Switch:SwitchID").unwrap().hops(8).build().unwrap()
}

#[test]
fn probe_traverses_fat_tree_and_reports_true_path() {
    let mut topo =
        TopologySpec::FatTree { k: 4 }.builder().link_mbps(1000).delay_ns(5_000).seed(3).build();
    let hosts = topo.hosts.clone();
    let src = hosts[0];
    let dst = *hosts.last().unwrap(); // different pod: 5-switch path
    let dst_ip = topo.net.host(dst).ip;
    topo.net.set_app(dst, Box::new(Responder::new()));
    let (app, outcome) = OneProbe::new(dst_ip, trace_tpp());
    topo.net.set_app(src, Box::new(app));
    topo.net.run_until(100 * MILLIS);

    let o = outcome.lock().unwrap().clone().expect("probe resolved");
    let ProbeOutcome::Completed { tpp, .. } = o else { panic!("probe failed: {o:?}") };
    let tpp = tpp.view().to_tpp();
    // Cross-pod in a k=4 fat-tree: edge -> agg -> core -> agg -> edge.
    assert_eq!(tpp.hop, 5, "five switch hops");
    let words = tpp.words();
    let path: Vec<u32> = words[..5].to_vec();
    // Edge switches have ids 5xx, aggs 1xx, cores 10xx per the builder.
    assert!((500..600).contains(&path[0]), "{path:?}");
    assert!((100..200).contains(&path[1]), "{path:?}");
    assert!((1000..1100).contains(&path[2]), "{path:?}");
    assert!((100..200).contains(&path[3]), "{path:?}");
    assert!((500..600).contains(&path[4]), "{path:?}");
}

#[test]
fn reliable_executor_survives_lossy_links() {
    // Seed chosen so the per-link fault streams actually drop probe frames
    // (some seeds let the very first probe through unscathed, which would
    // leave the retry machinery unexercised).
    let mut topo = TopologySpec::Line { switches: 2, hosts_per_switch: 1 }
        .builder()
        .link_mbps(1000)
        .delay_ns(10_000)
        .seed(3)
        .build();
    let hosts = topo.hosts.clone();
    let dst_ip = topo.net.host(hosts[1]).ip;
    topo.net.set_app(hosts[1], Box::new(Responder::new()));
    let (app, outcome) = OneProbe::new(dst_ip, trace_tpp());
    topo.net.set_app(hosts[0], Box::new(app));
    // 40% loss on the trunk, both directions.
    let switches = topo.switches.clone();
    topo.net.set_link_faults(switches[0], 0, 0.4, 0.0);
    topo.net.run_until(500 * MILLIS);
    let o = outcome.lock().unwrap().clone().expect("resolved");
    assert!(
        matches!(o, ProbeOutcome::Completed { .. }),
        "retries should eventually succeed: {o:?}"
    );
    assert!(topo.net.stats.frames_dropped_in_flight > 0, "losses actually happened");
}

#[test]
fn corrupted_tpps_rejected_but_network_keeps_forwarding() {
    // Seed chosen so single-bit corruptions land inside the TPP section
    // (a flip in, say, a MAC byte is invisible to the TPP checksum).
    let mut topo = TopologySpec::Line { switches: 2, hosts_per_switch: 1 }
        .builder()
        .link_mbps(1000)
        .delay_ns(10_000)
        .seed(7)
        .build();
    let hosts = topo.hosts.clone();
    let switches = topo.switches.clone();
    let dst_ip = topo.net.host(hosts[1]).ip;
    topo.net.set_app(hosts[1], Box::new(Responder::new()));
    let (app, _outcome) = OneProbe::new(dst_ip, trace_tpp());
    topo.net.set_app(hosts[0], Box::new(app));
    // Corrupt every frame on the first host link.
    topo.net.set_link_faults(hosts[0], 0, 0.0, 1.0);
    topo.net.run_until(200 * MILLIS);
    // Switches counted rejected TPPs (checksum failures) without crashing.
    let rejected: u64 = switches.iter().map(|&s| topo.net.switch(s).mem.tpp_rejected).sum();
    assert!(rejected > 0, "corruption was detected by TPP checksums");
}

#[test]
fn admin_write_disable_is_honored_network_wide() {
    // Defense in depth (§4.3): with writes disabled on switches, a CSTORE
    // probe comes back with CondFailed semantics and memory untouched.
    let mut topo = TopologySpec::Line { switches: 2, hosts_per_switch: 1 }
        .builder()
        .link_mbps(1000)
        .delay_ns(10_000)
        .seed(8)
        .build();
    let switches = topo.switches.clone();
    for &s in &switches {
        topo.net.switch_mut(s).cfg.allow_writes = false;
    }
    let hosts = topo.hosts.clone();
    let dst_ip = topo.net.host(hosts[1]).ip;
    topo.net.set_app(hosts[1], Box::new(Responder::new()));
    let mut tpp = TppBuilder::hop_mode(3)
        .cstore(resolve_mnemonic("Link:AppSpecific_0").unwrap(), 0, 1)
        .hops(4)
        .build()
        .unwrap();
    tpp.write_word(1, 999).unwrap(); // try to write 999
    let (app, outcome) = OneProbe::new(dst_ip, tpp);
    topo.net.set_app(hosts[0], Box::new(app));
    topo.net.run_until(100 * MILLIS);
    let o = outcome.lock().unwrap().clone().expect("resolved");
    let ProbeOutcome::Completed { tpp, .. } = o else { panic!("{o:?}") };
    assert!(!tpp.view().wrote(), "no write may succeed under the kill switch");
    for &s in &switches {
        let sw = topo.net.switch(s);
        for l in &sw.mem.links {
            assert_eq!(l.app[0], 0, "registers untouched");
        }
    }
}

#[test]
fn concurrent_cstore_writers_serialize_by_version() {
    // Two hosts race CSTORE updates against the same per-link register via
    // versioned compare-and-swap; every successful update must observe the
    // then-current version, so the final version equals the number of
    // successful swaps.
    use minions::core::exec::{execute, ExecOptions};
    use minions::switch::{PacketContext, SwitchBus, SwitchMemory};

    let mut mem = SwitchMemory::new(1, 4, 6);
    let mut successes = 0u32;
    let mut rng: u64 = 12345;
    for round in 0..100 {
        // Both writers observed the same version v and race.
        let v = mem.links[2].app[0];
        for writer in 0..2 {
            // Interleave order pseudo-randomly.
            rng = rng.wrapping_mul(6364136223846793005).wrapping_add(round);
            let mut tpp = TppBuilder::hop_mode(3)
                .cstore(resolve_mnemonic("Link:AppSpecific_0").unwrap(), 0, 1)
                .hops(1)
                .build()
                .unwrap();
            tpp.write_word(0, v).unwrap();
            tpp.write_word(1, v + 1).unwrap();
            let mut ctx = PacketContext::new(0, 100, 0, 6);
            ctx.out_port = Some(2);
            let mut bus = SwitchBus { mem: &mut mem, ctx: &mut ctx };
            let out = execute(&mut tpp, &mut bus, &ExecOptions::default());
            if out.wrote {
                successes += 1;
            } else {
                // The loser observed the winner's new version in its packet.
                assert_eq!(tpp.read_word(0), Some(v + 1), "writer {writer} sees current value");
            }
        }
        // Exactly one writer per round can win.
        assert_eq!(mem.links[2].app[0], v + 1);
    }
    assert_eq!(successes, 100);
    assert_eq!(mem.links[2].app[0], 100);
}

#[test]
fn path_visibility_tracks_link_failure_and_recovery() {
    let mut topo = TopologySpec::LeafSpine { leaves: 2, spines: 2, hosts_per_leaf: 1 }
        .builder()
        .link_mbps(1000)
        .host_mbps(1000)
        .delay_ns(10_000)
        .seed(4)
        .build();
    let hosts = topo.hosts.clone();
    let switches = topo.switches.clone();
    let dst_ip = topo.net.host(hosts[1]).ip;
    topo.net.set_app(hosts[1], Box::new(Responder::new()));
    topo.net.set_app(hosts[0], Box::new(PathMonitor::new(dst_ip, MILLIS, Vec::new())));
    topo.net.run_until(50 * MILLIS);
    // Kill both of leaf0's uplinks: the destination becomes unreachable
    // and the verifier observes the losses (end-to-end reachability alone
    // could not say *where* — the path visibility does, §2.6).
    topo.net.set_link_up(switches[0], 0, false);
    topo.net.set_link_up(switches[0], 1, false);
    topo.net.run_until(200 * MILLIS);
    let v = topo.net.app_mut::<PathMonitorApp>(hosts[0]);
    let obs = &v.observations;
    let before_fail = obs.iter().filter(|o| o.t_ns < 50 * MILLIS).count();
    assert!(before_fail > 20, "steady probing before failure");
    assert!(
        obs.iter().filter(|o| o.t_ns < 50 * MILLIS).all(|o| o.completed() && o.path.len() == 3),
        "leaf-spine-leaf paths pre-failure"
    );
    // After the failure, probes blackhole and the verifier records losses.
    assert!(
        obs.iter().any(|o| o.t_ns > 100 * MILLIS && !o.completed()),
        "losses observed after the failure"
    );
    // The last healthy observation reached the far leaf (id 2).
    let first_loss = obs.iter().position(|o| !o.completed()).expect("losses");
    assert_eq!(obs[first_loss - 1].path.last(), Some(&2));
    // The monitor's verdict on every lost round is a blackhole, and no
    // round traced a loop.
    assert!(v.violations().all(|o| o.violation == Some(ViolationKind::Blackhole)));
}

#[test]
fn topology_ground_truth_matches_histories() {
    // NetSight histories must agree with BFS shortest paths.
    let r = minions::apps::netsight::run_netsight(60 * MILLIS, 1, 2);
    assert!(!r.histories.is_empty());
    for h in &r.histories {
        // Line topology switch ids are 1, 2, 3 in order; a valid shortest
        // path is a contiguous, monotonic run.
        let path = h.path();
        for w in path.windows(2) {
            assert!(w[1] == w[0] + 1 || w[1] == w[0] - 1, "non-contiguous path {path:?}");
        }
    }
}

#[test]
fn split_tpps_cover_a_long_path_end_to_end() {
    // §4.4 "Large TPPs": a 5-hop fat-tree path, stats split across two
    // TPPs with pre-wound hop counters, merged at the end-host.
    use minions::core::addr::resolve_mnemonic;
    use minions::endhost::executor::{merge_split_results, split_for_path};

    let sid = resolve_mnemonic("Switch:SwitchID").unwrap();
    let q = resolve_mnemonic("Link:QueueSize").unwrap();
    let splits = split_for_path(&[sid, q], 5, 6).unwrap(); // 3 hops per TPP
    assert_eq!(splits.len(), 2);

    let mut topo =
        TopologySpec::FatTree { k: 4 }.builder().link_mbps(1000).delay_ns(5_000).seed(9).build();
    let hosts = topo.hosts.clone();
    let src = hosts[0];
    let dst = *hosts.last().unwrap();
    let dst_ip = topo.net.host(dst).ip;
    topo.net.set_app(dst, Box::new(Responder::new()));

    let mut executed = Vec::new();
    for (k, tpp) in (1..).zip(&splits) {
        let (app, outcome) = OneProbe::new(dst_ip, tpp.clone());
        topo.net.set_app(src, Box::new(app));
        topo.net.run_until(k * 100 * MILLIS);
        let resolved = outcome.lock().unwrap().clone();
        match resolved {
            Some(ProbeOutcome::Completed { tpp, .. }) => executed.push(tpp.view().to_tpp()),
            other => panic!("split probe failed: {other:?}"),
        }
    }
    let rows = merge_split_results(&executed, 5, 2);
    assert_eq!(rows.len(), 5);
    for (i, row) in rows.iter().enumerate() {
        assert_ne!(row[0], 0, "hop {i} captured a switch id: {rows:?}");
    }
    // First and last hops are edge switches.
    assert!((500..600).contains(&rows[0][0]));
    assert!((500..600).contains(&rows[4][0]));
}

#[test]
fn determinism_identical_runs_identical_results() {
    let run = || {
        let r = minions::apps::microburst::run_microburst(3, 200 * MILLIS, 77);
        (r.total_messages, r.all_samples.len())
    };
    assert_eq!(run(), run());
}

#[test]
fn ecmp_probes_and_flows_share_fate_when_hash_excludes_dst_port() {
    // The CONGA* prerequisite: with dst-port hashing disabled, a probe with
    // the same source port as a flow takes the same spine.
    let mut topo = TopologySpec::LeafSpine { leaves: 2, spines: 2, hosts_per_leaf: 1 }
        .builder()
        .link_mbps(1000)
        .host_mbps(1000)
        .delay_ns(10_000)
        .seed(2)
        .build();
    let switches = topo.switches.clone();
    for &s in &switches {
        topo.net.switch_mut(s).cfg.ecmp_hash_dst_port = false;
    }
    let hosts = topo.hosts.clone();
    let dst_ip = topo.net.host(hosts[1]).ip;
    topo.net.set_app(hosts[1], Box::new(Responder::new()));
    let cfg = minions::apps::conga::CongaConfig {
        n_flows: 0,
        ..minions::apps::conga::CongaConfig::default()
    };
    topo.net.set_app(hosts[0], Box::new(minions::apps::conga::CongaSender::new(cfg, dst_ip)));
    topo.net.run_until(100 * MILLIS);
    let sender = topo.net.app_mut::<minions::apps::conga::CongaSenderApp>(hosts[0]);
    assert_eq!(sender.paths.len(), 2);
    // Every probed port maps to exactly one of the two paths, and both
    // paths have ports.
    let total_ports: usize = sender.paths.iter().map(|p| p.ports.len()).sum();
    assert_eq!(total_ports, usize::from(minions::apps::conga::DISCOVERY_PORTS));
}
