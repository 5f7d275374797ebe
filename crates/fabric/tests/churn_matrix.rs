//! Churn differential determinism: a churned scenario — links flapping,
//! routes detouring, faults toggling mid-run — must replay bit-for-bit
//! across shard counts. The reconfiguration plan is data carried through
//! `Network::split`, delivered by the shared event queue, so every cell
//! here asserts digest equality at 1, 2, and 4 shards, plus cross-shard
//! agreement of the per-cause drop and violation counters (which live
//! outside the digest).

use tpp_fabric::scenario::{Cell, Scenario, WorkloadSpec};
use tpp_netsim::{ChurnSpec, NetStats, ReconfigAction, TopologySpec, MILLIS};

fn run(churn: ChurnSpec, shards: usize) -> Cell {
    Scenario::new(
        TopologySpec::FatTree { k: 4 }.builder().link_mbps(1000).delay_ns(1000).seed(5),
        WorkloadSpec::uniform(),
    )
    .churn(churn)
    .shards(shards)
    .duration_ns(2 * MILLIS)
    .run()
}

fn assert_cause_counters_match(reference: &NetStats, got: &NetStats, label: &str) {
    assert_eq!(got.drops_ttl_expired, reference.drops_ttl_expired, "{label}: ttl drops");
    assert_eq!(got.drops_no_route, reference.drops_no_route, "{label}: no-route drops");
    assert_eq!(got.drops_queue_full, reference.drops_queue_full, "{label}: queue drops");
    assert_eq!(got.drops_malformed, reference.drops_malformed, "{label}: malformed drops");
    assert_eq!(got.violations_loop, reference.violations_loop, "{label}: loop violations");
    assert_eq!(
        got.violations_blackhole, reference.violations_blackhole,
        "{label}: blackhole violations"
    );
    assert_eq!(got.violations_path, reference.violations_path, "{label}: path violations");
}

/// Runs `churn` at 1, 2 and 4 shards, asserts the digests and cause
/// counters agree, and returns the three cells in that order.
fn assert_churn_shards_match(churn: ChurnSpec) -> Vec<Cell> {
    let label = churn.label();
    let cells: Vec<Cell> = [1usize, 2, 4].map(|shards| run(churn.clone(), shards)).into();
    let reference = &cells[0];
    assert!(reference.stats.frames_delivered > 0, "{label}: cell must deliver");
    assert!(reference.stats.reconfigs_applied > 0, "{label}: churn must actually fire");
    for got in &cells[1..] {
        assert_eq!(
            got.digest, reference.digest,
            "{label}: digest diverged at {} shards (single={:?} sharded={:?})",
            got.shards, reference.stats, got.stats
        );
        assert_cause_counters_match(&reference.stats, &got.stats, label);
    }
    cells
}

#[test]
fn link_flap_churn_matches_across_shard_counts() {
    assert_churn_shards_match(ChurnSpec::LinkFlap {
        fraction: 0.3,
        period_ns: 500_000,
        down_ns: 100_000,
        seed: 7,
        reroute: false,
    });
}

#[test]
fn rerouting_link_flap_churn_matches_across_shard_counts() {
    assert_churn_shards_match(ChurnSpec::LinkFlap {
        fraction: 0.3,
        period_ns: 500_000,
        down_ns: 100_000,
        seed: 7,
        reroute: true,
    });
}

#[test]
fn explicit_plan_churn_matches_across_shard_counts() {
    // A hand-written plan poking all the action kinds: degrade one edge
    // uplink, toggle faults on it, withdraw and restore a host route on a
    // fat-tree edge switch, and take the uplink down and back up.
    let t = TopologySpec::FatTree { k: 4 }.builder().link_mbps(1000).delay_ns(1000).seed(5).build();
    let edge = t.switches[0];
    let host = t.hosts[0];
    let dst = t.net.host(host).ip;
    let uplink = t
        .net
        .neighbors_iter(edge)
        .find(|&(_, peer)| t.net.is_switch(peer))
        .map(|(p, _)| p)
        .expect("edge has a switch uplink");
    let route = t.net.switch(edge).host_route(dst).expect("edge routes to its own host");
    let plan = vec![
        (
            300_000,
            ReconfigAction::LinkDegrade {
                node: edge,
                port: uplink,
                rate_mbps: 100,
                delay_ns: 2000,
            },
        ),
        (
            600_000,
            ReconfigAction::LinkFaults {
                node: edge,
                port: uplink,
                drop_prob: 0.2,
                corrupt_prob: 0.0,
            },
        ),
        (900_000, ReconfigAction::RouteWithdraw { switch: edge, dst }),
        (1_050_000, ReconfigAction::RouteSet { switch: edge, dst, action: route }),
        (
            1_200_000,
            ReconfigAction::LinkFaults {
                node: edge,
                port: uplink,
                drop_prob: 0.0,
                corrupt_prob: 0.0,
            },
        ),
        (1_400_000, ReconfigAction::LinkUp { node: edge, port: uplink, up: false }),
        (1_600_000, ReconfigAction::LinkUp { node: edge, port: uplink, up: true }),
    ];
    // Every entry applies. A route change applies on the shard that owns
    // the switch and a link change on every shard (each carries the full
    // port table), so the merged count is the route entries plus the link
    // entries once per shard: the plan length at 1 shard.
    let routes = plan
        .iter()
        .filter(|(_, a)| {
            matches!(a, ReconfigAction::RouteSet { .. } | ReconfigAction::RouteWithdraw { .. })
        })
        .count() as u64;
    let links = plan.len() as u64 - routes;
    for cell in assert_churn_shards_match(ChurnSpec::Plan(plan)) {
        assert_eq!(
            cell.stats.reconfigs_applied,
            routes + links * cell.shards as u64,
            "x{}: every planned reconfig applied",
            cell.shards
        );
    }
}

#[test]
fn churned_cell_json_carries_the_churn_label() {
    let cell = run(
        ChurnSpec::LinkFlap {
            fraction: 0.3,
            period_ns: 500_000,
            down_ns: 100_000,
            seed: 7,
            reroute: false,
        },
        2,
    );
    let json = cell.to_json();
    assert!(json.contains("\"churn\":\"link_flap\""), "{json}");
    assert!(json.contains("\"reconfigs\":"), "{json}");
    assert!(json.contains("\"violations\":"), "{json}");
}
