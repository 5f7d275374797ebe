//! A control loop reads the links its data crosses: path agreement, checked
//! on the paper's controllers as they run.
//!
//! Every frame that reaches a path's destination is recorded on arrival,
//! and [`Network::route_of`] names the switches it took from its source,
//! from the routing stage's own table lookup and ECMP choice. For RCP\*
//! (inter-DC) and the WAN fan-out, a path is a source and a destination:
//! its collects, its write-backs and its data must all take one route, and
//! every collect must have read the switch IDs of that route, hop by hop.
//! For CONGA\*, a path is a source port (§2.4): a port's probes and its data
//! must take one route.

use std::collections::BTreeMap;

use tpp_apps::conga::{conga_fig4_net, Balancer, Metric};
use tpp_apps::rcp::{collect_probe, update_probe, Law};
use tpp_apps::wan::{discover_probe, fanout_net, install_probe, interdc_net};
use tpp_core::probe::Probe;
use tpp_core::wire::{ethernet, extract_tpp, Ipv4Address, Ipv4Packet};
use tpp_netsim::{HostApp, HostCtx, Network, NodeId, NullApp, Topology, MILLIS};

/// A host's app, with every frame that reaches the host recorded first.
struct Tap {
    inner: Box<dyn HostApp>,
    frames: Vec<Vec<u8>>,
}

impl HostApp for Tap {
    fn start(&mut self, ctx: &mut HostCtx<'_>) {
        self.inner.start(ctx);
    }
    fn on_frame(&mut self, ctx: &mut HostCtx<'_>, frame: Vec<u8>) {
        self.frames.push(frame.clone());
        self.inner.on_frame(ctx, frame);
    }
    fn on_timer(&mut self, ctx: &mut HostCtx<'_>, token: u64) {
        self.inner.on_timer(ctx, token);
    }
}

/// Run `topo` until `until` with `hosts` tapped, and return what reached
/// each of them.
fn run_tapped(topo: &mut Topology, hosts: &[NodeId], until: u64) -> Vec<Vec<Vec<u8>>> {
    for &h in hosts {
        let inner = std::mem::replace(&mut topo.net.host_mut(h).app, Box::new(NullApp));
        topo.net.set_app(h, Box::new(Tap { inner, frames: Vec::new() }));
    }
    topo.net.run_until(until);
    hosts.iter().map(|&h| std::mem::take(&mut topo.net.app_mut::<Tap>(h).frames)).collect()
}

fn ipv4(frame: &[u8]) -> Ipv4Packet<&[u8]> {
    Ipv4Packet::new_checked(&frame[ethernet::HEADER_LEN..]).expect("an IPv4 frame")
}

/// A schema's instructions: the program of every TPP compiled from it.
fn program(probe: Probe) -> Vec<tpp_core::isa::Instruction> {
    probe.hops(1).compile().expect("static probe").instrs
}

/// Check one periodic path controller under `law`: every frame `src` sent
/// to a destination in `arrived` took one route, and each collect read that
/// route's switch IDs. Every destination saw collects, write-backs and data.
fn check_paths(net: &Network, law: Law, src: Ipv4Address, arrived: &[Vec<Vec<u8>>]) {
    let (collect, write_back) = match law {
        Law::Rcp => (program(collect_probe()), program(update_probe())),
        Law::Fanout => (program(discover_probe()), program(install_probe())),
    };
    for (path, frames) in arrived.iter().enumerate() {
        let mut routes: BTreeMap<Vec<u32>, [u64; 3]> = BTreeMap::new();
        let mut collects_read: Vec<Vec<u32>> = Vec::new();
        for frame in frames.iter().filter(|f| ipv4(f).src() == src) {
            let kind = match extract_tpp(frame) {
                None => 2,
                Some((_, tpp)) if tpp.instrs == write_back => 1,
                Some((_, tpp)) => {
                    assert_eq!(tpp.instrs, collect, "path {path}: an unknown TPP");
                    collects_read.push(law.samples(&tpp).iter().map(|s| s.switch_id).collect());
                    0
                }
            };
            routes.entry(net.route_of(frame)).or_default()[kind] += 1;
        }
        // One route, and [collects, write-backs, data] all on it.
        let summary: Vec<_> = routes.iter().map(|(r, n)| format!("{r:?}: {n:?}")).collect();
        assert_eq!(routes.len(), 1, "path {path} took {} routes: {summary:#?}", routes.len());
        let (route, counts) = routes.into_iter().next().expect("one route");
        assert!(route.len() > 2 && counts.iter().all(|&n| n > 0), "path {path}: {summary:?}");
        for read in collects_read {
            assert_eq!(read, route, "path {path}: a collect read other switches");
        }
    }
}

#[test]
fn interdc_collect_write_back_and_data_take_one_route() {
    // `fig_interdc_fct --smoke`: three sites, 200 kB transfers, 600 ms.
    let sites = 3;
    let (mut topo, _) = interdc_net(sites, 4, 20, 0, 200_000, 7);
    let per_site = topo.hosts.len() / sites;
    let dsts: Vec<NodeId> = (1..sites).map(|s| topo.hosts[s * per_site]).collect();
    let arrived = run_tapped(&mut topo, &dsts, 600 * MILLIS);
    check_paths(&topo.net, Law::Rcp, topo.net.host(topo.hosts[0]).ip, &arrived);
}

#[test]
fn fanout_discover_install_and_data_take_one_route() {
    // `fig_fanout_rate --smoke`: three sites, WAN 24 Mb/s, 800 ms.
    let sites = 3;
    let mut topo = fanout_net(sites, 4, 24, 11);
    let per_site = topo.hosts.len() / sites;
    let relays: Vec<NodeId> = (1..sites).map(|s| topo.hosts[s * per_site]).collect();
    let arrived = run_tapped(&mut topo, &relays, 800 * MILLIS);
    check_paths(&topo.net, Law::Fanout, topo.net.host(topo.hosts[0]).ip, &arrived);
}

#[test]
fn conga_probes_and_data_of_a_port_take_one_route() {
    let (mut topo, _) = conga_fig4_net(Balancer::Conga, Metric::Max, 1);
    let sink = topo.hosts[2];
    let arrived = run_tapped(&mut topo, &[sink], 300 * MILLIS).remove(0);
    // (source, source port) -> route -> [probes, data].
    let mut ports: BTreeMap<(Ipv4Address, u16), BTreeMap<Vec<u32>, [u64; 2]>> = BTreeMap::new();
    for frame in &arrived {
        let ip = ipv4(frame);
        let sport = u16::from_be_bytes([ip.payload()[0], ip.payload()[1]]);
        let kind = usize::from(extract_tpp(frame).is_none());
        let routes = ports.entry((ip.src(), sport)).or_default();
        routes.entry(topo.net.route_of(frame)).or_default()[kind] += 1;
    }
    let mut both = 0;
    for (port, routes) in &ports {
        assert_eq!(routes.len(), 1, "{port:?} took {} routes: {routes:?}", routes.len());
        both += routes.values().filter(|n| n[0] > 0 && n[1] > 0).count();
    }
    // Both senders' data ran on ports that were probed.
    assert!(both >= 2, "{ports:?}");
}
