//! Route-installation property test: after `install_routes`, every
//! ordered pair of hosts can exchange a frame — all-pairs, exhaustively,
//! over the multipath topologies (ECMP groups included), with per-host
//! delivery counts proving frames land at the *intended* host only.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use tpp_core::wire::{ethernet, ipv4, udp, EthernetAddress, EthernetRepr, Ipv4Address};
use tpp_netsim::{HostApp, HostCtx, NodeId, Topology, TopologySpec, MILLIS};

/// Sends one frame to every other host at start; counts frames received.
struct AllPairsApp {
    peers: Arc<Vec<u32>>,
    received: Arc<Vec<AtomicUsize>>,
    my_index: usize,
}

impl HostApp for AllPairsApp {
    fn start(&mut self, ctx: &mut HostCtx<'_>) {
        for (i, &dst) in self.peers.iter().enumerate() {
            if i == self.my_index {
                continue;
            }
            let dst_ip = Ipv4Address::from_host_id(dst);
            // Vary the source port so ECMP groups spread the pairs over
            // every member path.
            let u = udp::Repr {
                src_port: 1000 + self.my_index as u16,
                dst_port: 2000 + i as u16,
                payload_len: 16,
            };
            let udp_b = u.encapsulate(ctx.ip, dst_ip, &[0u8; 16]);
            let ip = ipv4::Repr {
                src: ctx.ip,
                dst: dst_ip,
                protocol: ipv4::protocol::UDP,
                ttl: 64,
                payload_len: udp_b.len(),
            };
            let frame = EthernetRepr {
                dst: EthernetAddress::from_node_id(dst),
                src: ctx.mac,
                ethertype: ethernet::ethertype::IPV4,
            }
            .encapsulate(&ip.encapsulate(&udp_b));
            ctx.send(frame);
        }
    }

    fn on_frame(&mut self, _ctx: &mut HostCtx<'_>, frame: Vec<u8>) {
        // The intended destination is us: routes must never misdeliver.
        let eth = tpp_core::wire::EthernetFrame::new_checked(&frame[..]).expect("parseable");
        let ip = tpp_core::wire::Ipv4Packet::new_checked(eth.payload()).expect("ipv4");
        assert_eq!(
            ip.dst(),
            Ipv4Address::from_host_id(self.peers[self.my_index]),
            "frame for {:?} delivered to host index {}",
            ip.dst(),
            self.my_index
        );
        self.received[self.my_index].fetch_add(1, Ordering::Relaxed);
    }
}

fn assert_all_pairs_deliver(mut t: Topology, label: &str) {
    let hosts = t.hosts.clone();
    let n = hosts.len();
    let peers = Arc::new(hosts.iter().map(|h| h.0).collect::<Vec<_>>());
    let received: Arc<Vec<AtomicUsize>> = Arc::new((0..n).map(|_| AtomicUsize::new(0)).collect());
    for (i, &h) in hosts.iter().enumerate() {
        t.net.set_app(
            h,
            Box::new(AllPairsApp { peers: peers.clone(), received: received.clone(), my_index: i }),
        );
    }
    t.net.run_until(2000 * MILLIS);
    for (i, c) in received.iter().enumerate() {
        assert_eq!(
            c.load(Ordering::Relaxed),
            n - 1,
            "{label}: host {i} ({:?}) expected {} frames",
            NodeId(peers[i]),
            n - 1
        );
    }
    // Conservation: every sent frame was delivered exactly once.
    let total: usize = received.iter().map(|c| c.load(Ordering::Relaxed)).sum();
    assert_eq!(total, n * (n - 1), "{label}: total deliveries");
}

#[test]
fn all_pairs_reach_on_fat_tree_4() {
    // 16 hosts, 240 ordered pairs, ECMP at edge and aggregation layers.
    assert_all_pairs_deliver(
        TopologySpec::FatTree { k: 4 }.builder().link_mbps(1000).delay_ns(1000).seed(1).build(),
        "fat-tree k=4",
    );
}

#[test]
fn all_pairs_reach_on_leaf_spine() {
    // 12 hosts over 4 leaves x 2 spines: every leaf pair has a 2-way group.
    assert_all_pairs_deliver(
        TopologySpec::LeafSpine { leaves: 4, spines: 2, hosts_per_leaf: 3 }
            .builder()
            .link_mbps(1000)
            .host_mbps(1000)
            .delay_ns(1000)
            .seed(2)
            .build(),
        "leaf-spine",
    );
}

#[test]
fn all_pairs_reach_on_fat_tree_4_alternate_seed() {
    // A different seed shifts ECMP hashes onto different group members;
    // delivery must be invariant.
    assert_all_pairs_deliver(
        TopologySpec::FatTree { k: 4 }.builder().link_mbps(1000).delay_ns(1000).seed(99).build(),
        "fat-tree k=4 seed 99",
    );
}

#[test]
fn all_pairs_reach_on_jellyfish() {
    // 20 hosts on a random-regular graph: routes come from plain BFS, so
    // delivery exercises whatever diameters the matching produced.
    assert_all_pairs_deliver(
        TopologySpec::Jellyfish { switches: 10, degree: 4, hosts_per_switch: 2 }
            .builder()
            .link_mbps(1000)
            .delay_ns(1000)
            .seed(7)
            .build(),
        "jellyfish 10x4",
    );
}

#[test]
fn all_pairs_reach_on_oversubscribed_fat_tree() {
    // Slower core uplinks change timing but must not change reachability.
    assert_all_pairs_deliver(
        TopologySpec::OversubFatTree { k: 4, oversub: 4 }
            .builder()
            .link_mbps(1000)
            .delay_ns(1000)
            .seed(3)
            .build(),
        "oversub fat-tree k=4",
    );
}
