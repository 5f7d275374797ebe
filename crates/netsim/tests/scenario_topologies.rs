//! Property tests for the declarative topology builder: every graph the
//! randomized families produce must be connected, and shortest-path route
//! installation must give every switch a next hop toward every host —
//! the static precondition behind the all-pairs delivery tests in
//! `reachability.rs`.

use proptest::prelude::*;
use tpp_netsim::{NodeId, Topology, TopologySpec};

/// BFS over the physical links from node 0: every node reachable.
fn connected(t: &Topology) -> bool {
    let n = t.net.node_count();
    if n == 0 {
        return true;
    }
    let mut seen = vec![false; n];
    let mut queue = vec![NodeId(0)];
    seen[0] = true;
    while let Some(u) = queue.pop() {
        for (_port, peer) in t.net.neighbors_iter(u) {
            if !seen[peer.0 as usize] {
                seen[peer.0 as usize] = true;
                queue.push(peer);
            }
        }
    }
    seen.into_iter().all(|s| s)
}

/// Every switch holds a /32 route for every host address.
fn routes_complete(t: &Topology) -> bool {
    t.switches.iter().all(|&s| {
        let sw = t.net.switch(s);
        t.hosts.iter().all(|&h| {
            let ip = t.net.host(h).ip;
            sw.table.entries().iter().any(|e| e.prefix == (ip, 32))
        })
    })
}

proptest! {
    #[test]
    fn jellyfish_graphs_connect_and_route(
        switches in 3usize..14,
        degree_raw in 2usize..8,
        hosts_per_switch in 1usize..3,
        seed in 0u64..1_000,
    ) {
        let degree = degree_raw.min(switches - 1);
        let t = TopologySpec::Jellyfish { switches, degree, hosts_per_switch }
            .builder()
            .seed(seed)
            .build();
        prop_assert_eq!(t.switches.len(), switches);
        prop_assert_eq!(t.hosts.len(), switches * hosts_per_switch);
        prop_assert!(connected(&t), "jellyfish {switches}x{degree} seed {seed} disconnected");
        prop_assert!(routes_complete(&t), "jellyfish {switches}x{degree} seed {seed} missing routes");
    }

    #[test]
    fn oversubscribed_fat_trees_connect_and_route(
        k_half in 1usize..3,
        oversub in 1u64..9,
        seed in 0u64..100,
    ) {
        let k = 2 * (k_half + 1); // k in {4, 6}
        let t = TopologySpec::OversubFatTree { k, oversub }.builder().seed(seed).build();
        prop_assert_eq!(t.hosts.len(), k * k * k / 4);
        prop_assert!(connected(&t));
        prop_assert!(routes_complete(&t));
    }

    #[test]
    fn asymmetric_fat_trees_connect_and_route(seed in 0u64..200) {
        let t = TopologySpec::AsymFatTree { k: 4 }.builder().seed(seed).build();
        prop_assert!(connected(&t));
        prop_assert!(routes_complete(&t));
    }
}
