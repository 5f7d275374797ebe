//! The [`Topology`] type and shortest-path (ECMP) route installation.
//!
//! Topology *construction* lives in [`crate::scenario`]: declare a
//! [`crate::scenario::TopologySpec`], tune rates/delay/seed on a
//! [`crate::scenario::TopologyBuilder`], and
//! `build()`. Route installation is BFS per host: where multiple
//! equal-cost next hops exist, an ECMP group is installed, exactly like
//! the multipath group tables of §2.4.

use std::collections::VecDeque;

use crate::net::{Network, NodeId};
use tpp_switch::Action;

/// A dense map keyed by `NodeId.0` (node ids are compact, assigned from 0
/// upward by the builders), replacing the tree/hash maps that used to sit
/// on the route-installation path: on a k=8 fat-tree, route setup performs
/// hundreds of thousands of distance lookups, and an indexed `Vec` beats a
/// `BTreeMap` walk on every one of them.
#[derive(Clone, Debug)]
pub struct NodeMap<T> {
    slots: Vec<Option<T>>,
}

impl<T> NodeMap<T> {
    /// An empty map sized for `n_nodes` node ids.
    pub fn new(n_nodes: usize) -> Self {
        NodeMap { slots: (0..n_nodes).map(|_| None).collect() }
    }

    pub fn insert(&mut self, node: NodeId, value: T) {
        self.slots[node.0 as usize] = Some(value);
    }

    pub fn get(&self, node: NodeId) -> Option<&T> {
        self.slots.get(node.0 as usize).and_then(|s| s.as_ref())
    }

    pub fn contains(&self, node: NodeId) -> bool {
        self.get(node).is_some()
    }

    /// `(node, value)` pairs in ascending node-id order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &T)> {
        self.slots.iter().enumerate().filter_map(|(i, s)| s.as_ref().map(|v| (NodeId(i as u32), v)))
    }
}

/// A built topology: the network plus the roles of its nodes.
pub struct Topology {
    pub net: Network,
    pub hosts: Vec<NodeId>,
    pub switches: Vec<NodeId>,
}

impl Topology {
    /// Install shortest-path routes for every host on every switch,
    /// creating ECMP groups where several next hops tie.
    pub fn install_routes(&mut self) {
        install_shortest_path_routes(&mut self.net, &self.hosts, &self.switches);
    }
}

/// BFS distances from `start` over the whole node graph, as a dense
/// node-indexed map (`None` = unreachable).
fn bfs_dist(net: &Network, start: NodeId) -> NodeMap<u32> {
    let mut dist = NodeMap::new(net.node_count());
    dist.insert(start, 0);
    let mut q = VecDeque::new();
    q.push_back(start);
    while let Some(n) = q.pop_front() {
        let d = *dist.get(n).unwrap();
        // `neighbors_iter`: route installation runs a BFS per host — on a
        // k=8 fat-tree that is hundreds of thousands of adjacency visits,
        // and the iterator form performs them without a `Vec` per node.
        for (_, peer) in net.neighbors_iter(n) {
            if !dist.contains(peer) {
                dist.insert(peer, d + 1);
                // Hosts are leaves: record their distance, never route
                // *through* them.
                if net.is_switch(peer) {
                    q.push_back(peer);
                }
            }
        }
    }
    dist
}

/// Install shortest-path host routes with ECMP groups on ties.
pub fn install_shortest_path_routes(net: &mut Network, hosts: &[NodeId], switches: &[NodeId]) {
    for &h in hosts {
        let dist = bfs_dist(net, h);
        let ip = net.host(h).ip;
        for &s in switches {
            let Some(&ds) = dist.get(s) else { continue };
            // Next hops: neighbors strictly closer to the host.
            let mut ports: Vec<u8> = net
                .neighbors_iter(s)
                .filter(|(_, peer)| dist.get(*peer).is_some_and(|&dp| dp + 1 == ds))
                .map(|(p, _)| p)
                .collect();
            ports.sort_unstable();
            let action = match ports.as_slice() {
                [] => continue,
                [p] => Action::Output(*p),
                many => {
                    // Reuse an existing group with the same member set.
                    let key = many.to_vec();
                    let sw = net.switch_mut(s);
                    let gid = find_or_add_group(sw, key);
                    Action::Group(gid)
                }
            };
            net.switch_mut(s).add_host_route(ip, action);
        }
    }
}

fn find_or_add_group(sw: &mut tpp_switch::Switch, ports: Vec<u8>) -> u16 {
    // GroupTable has no lookup-by-members; track via a linear scan of known
    // groups (small tables).
    for gid in 0..u16::MAX {
        match sw.groups.ports(gid) {
            Some(existing) if existing == ports.as_slice() => return gid,
            Some(_) => continue,
            None => break,
        }
    }
    sw.add_group(ports)
}

/// Map from host node id to its index in `hosts`: a dense [`NodeMap`] keyed
/// by `NodeId.0`, not a tree.
#[cfg(test)]
fn host_index(t: &Topology) -> NodeMap<usize> {
    let mut idx = NodeMap::new(t.net.node_count());
    for (i, &h) in t.hosts.iter().enumerate() {
        idx.insert(h, i);
    }
    idx
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::MILLIS;
    use crate::net::{HostApp, HostCtx};
    use crate::scenario::{TopologyBuilder, TopologySpec};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    use tpp_core::wire::{ethernet, ipv4, udp, EthernetAddress, EthernetRepr, Ipv4Address};

    struct Pinger {
        dst: NodeId,
        sport: u16,
        n: usize,
        got: Arc<AtomicUsize>,
    }
    impl HostApp for Pinger {
        fn start(&mut self, ctx: &mut HostCtx<'_>) {
            for i in 0..self.n {
                let dst_ip = Ipv4Address::from_host_id(self.dst.0);
                let u = udp::Repr { src_port: self.sport + i as u16, dst_port: 7, payload_len: 10 };
                let udp_b = u.encapsulate(ctx.ip, dst_ip, &[0; 10]);
                let ip = ipv4::Repr {
                    src: ctx.ip,
                    dst: dst_ip,
                    protocol: ipv4::protocol::UDP,
                    ttl: 64,
                    payload_len: udp_b.len(),
                };
                let f = EthernetRepr {
                    dst: EthernetAddress::from_node_id(self.dst.0),
                    src: ctx.mac,
                    ethertype: ethernet::ethertype::IPV4,
                }
                .encapsulate(&ip.encapsulate(&udp_b));
                ctx.send(f);
            }
        }
        fn on_frame(&mut self, _ctx: &mut HostCtx<'_>, _frame: Vec<u8>) {
            self.got.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn assert_all_pairs_connectivity(mut t: Topology, label: &str) {
        let hosts = t.hosts.clone();
        let counters: Vec<Arc<AtomicUsize>> =
            hosts.iter().map(|_| Arc::new(AtomicUsize::new(0))).collect();
        for (i, &h) in hosts.iter().enumerate() {
            // Each host pings its "next" host.
            let dst = hosts[(i + 1) % hosts.len()];
            let dst_idx = hosts.iter().position(|&x| x == dst).unwrap();
            t.net.set_app(
                h,
                Box::new(Pinger {
                    dst,
                    sport: 1000 + i as u16,
                    n: 1,
                    got: counters[dst_idx].clone(),
                }),
            );
        }
        t.net.run_until(500 * MILLIS);
        for (i, c) in counters.iter().enumerate() {
            assert_eq!(c.load(Ordering::Relaxed), 1, "{label}: host {i} did not receive its ping");
        }
    }

    fn fat_tree4() -> Topology {
        TopologyBuilder::new(TopologySpec::FatTree { k: 4 }).build()
    }

    #[test]
    fn star_connectivity() {
        let t = TopologyBuilder::new(TopologySpec::Star { hosts: 4 }).host_mbps(1000).build();
        assert_all_pairs_connectivity(t, "star");
    }

    #[test]
    fn dumbbell_connectivity() {
        let t = TopologyBuilder::new(TopologySpec::Dumbbell { per_side: 3 })
            .link_mbps(100)
            .host_mbps(100)
            .build();
        assert_all_pairs_connectivity(t, "dumbbell");
    }

    #[test]
    fn line_connectivity() {
        let t = TopologyBuilder::new(TopologySpec::Line { switches: 3, hosts_per_switch: 2 })
            .link_mbps(100)
            .build();
        assert_all_pairs_connectivity(t, "line");
    }

    #[test]
    fn leaf_spine_connectivity() {
        let t = TopologyBuilder::new(TopologySpec::LeafSpine {
            leaves: 3,
            spines: 2,
            hosts_per_leaf: 2,
        })
        .link_mbps(100)
        .host_mbps(100)
        .build();
        assert_all_pairs_connectivity(t, "leaf-spine");
    }

    #[test]
    fn fat_tree_structure() {
        let t = fat_tree4();
        assert_eq!(t.hosts.len(), 16);
        assert_eq!(t.switches.len(), 20); // 4 cores + 8 agg + 8 edge
    }

    #[test]
    fn fat_tree_connectivity() {
        assert_all_pairs_connectivity(fat_tree4(), "fat-tree");
    }

    #[test]
    fn host_index_is_dense_and_complete() {
        let t = fat_tree4();
        let idx = host_index(&t);
        for (i, &h) in t.hosts.iter().enumerate() {
            assert_eq!(idx.get(h), Some(&i));
        }
        for &s in &t.switches {
            assert_eq!(idx.get(s), None, "switches are not hosts");
        }
        assert_eq!(idx.iter().count(), t.hosts.len());
    }

    #[test]
    fn ecmp_groups_installed_in_leaf_spine() {
        let t = TopologyBuilder::new(TopologySpec::LeafSpine {
            leaves: 2,
            spines: 2,
            hosts_per_leaf: 1,
        })
        .link_mbps(100)
        .host_mbps(100)
        .delay_ns(0)
        .build();
        // Each leaf should reach the remote host through a 2-way group.
        let leaf0 = t.switches[0];
        let remote_ip = t.net.host(t.hosts[1]).ip;
        let sw = t.net.switch(leaf0);
        let entry = sw
            .table
            .entries()
            .iter()
            .find(|e| e.prefix == (remote_ip, 32))
            .expect("route installed");
        match entry.action {
            Action::Group(g) => {
                assert_eq!(sw.groups.ports(g).unwrap().len(), 2);
            }
            other => panic!("expected ECMP group, got {other:?}"),
        }
    }

    #[test]
    fn fat_tree_cross_pod_uses_multipath() {
        let t = fat_tree4();
        // Edge switch routing to a remote pod must offer 2 uplinks.
        let edge0 = t.switches[4]; // first non-core is agg; layout: 4 cores then pods
        let _ = edge0;
        let remote_host_ip = t.net.host(*t.hosts.last().unwrap()).ip;
        // Find the edge switch of hosts[0].
        let h0 = t.hosts[0];
        let (_, edge) = t.net.neighbors(h0)[0];
        let sw = t.net.switch(edge);
        let entry =
            sw.table.entries().iter().find(|e| e.prefix == (remote_host_ip, 32)).expect("route");
        match entry.action {
            Action::Group(g) => assert_eq!(sw.groups.ports(g).unwrap().len(), 2),
            other => panic!("expected group, got {other:?}"),
        }
    }
}
