//! Scenario-level differential determinism: the same [`Scenario`] run on
//! the single-threaded `Network` and on 2- and 4-shard fabrics must agree
//! on the `NetStats` digest — for every traffic pattern the workload
//! layer knows, not just the uniform one the older determinism tests
//! cover. Plus the contract details of the cell output itself (JSON
//! shape, horizon semantics).

use tpp_fabric::partition::lookahead;
use tpp_fabric::scenario::{Cell, Scenario, WorkloadSpec};
use tpp_fabric::{install_traffic, partition, Fabric, PartitionStrategy, TrafficConfig};
use tpp_netsim::{TopologySpec, MILLIS};

fn run(w: WorkloadSpec, shards: usize) -> Cell {
    Scenario::new(
        TopologySpec::FatTree { k: 4 }.builder().link_mbps(1000).delay_ns(1000).seed(5),
        w,
    )
    .shards(shards)
    .duration_ns(2 * MILLIS)
    .run()
}

fn assert_pattern_shards_match(w: WorkloadSpec) {
    let reference = run(w.clone(), 1);
    assert!(reference.stats.frames_delivered > 0, "{}: workload must deliver", w.name);
    for shards in [2usize, 4] {
        let got = run(w.clone(), shards);
        assert_eq!(
            got.stats.digest(),
            reference.stats.digest(),
            "{}: digest diverged at {shards} shards (single={:?} sharded={:?})",
            w.name,
            reference.stats,
            got.stats
        );
    }
}

#[test]
fn uniform_scenario_matches_across_shard_counts() {
    assert_pattern_shards_match(WorkloadSpec::uniform());
}

#[test]
fn heavy_tailed_scenario_matches_across_shard_counts() {
    assert_pattern_shards_match(WorkloadSpec::heavy_tailed());
}

#[test]
fn incast_scenario_matches_across_shard_counts() {
    assert_pattern_shards_match(WorkloadSpec::incast(2));
}

#[test]
fn shuffle_scenario_matches_across_shard_counts() {
    assert_pattern_shards_match(WorkloadSpec::shuffle());
}

/// A two-site WAN fabric for the cross-site cells: 250 µs WAN delay is
/// multi-ms-class relative to the 2 ms test horizon, so frames actually
/// cross during the run.
fn multi_site() -> TopologySpec {
    TopologySpec::MultiSite {
        sites: 2,
        site_k: 4,
        wan_delay_ns: 250_000,
        wan_delay_step_ns: 0,
        wan_mbps: 400,
        wan_site_mbps: Vec::new(),
        wan_queue_bytes: 0,
    }
}

fn run_wan(w: WorkloadSpec, shards: usize) -> Cell {
    Scenario::new(multi_site().builder().link_mbps(1000).delay_ns(1000).seed(5), w)
        .shards(shards)
        .duration_ns(2 * MILLIS)
        .run()
}

fn assert_wan_shards_match(w: WorkloadSpec) {
    let reference = run_wan(w.clone(), 1);
    assert!(reference.stats.frames_delivered > 0, "{}: workload must deliver", w.name);
    for shards in [2usize, 4] {
        let got = run_wan(w.clone(), shards);
        assert_eq!(
            got.stats.digest(),
            reference.stats.digest(),
            "{}: WAN digest diverged at {shards} shards",
            w.name
        );
    }
}

#[test]
fn fan_out_scenario_matches_across_shard_counts() {
    assert_wan_shards_match(WorkloadSpec::fan_out());
}

#[test]
fn inter_dc_scenario_matches_across_shard_counts() {
    assert_wan_shards_match(WorkloadSpec::inter_dc(2));
}

#[test]
fn wan_links_are_natural_shard_cuts_with_large_lookahead() {
    // Locality partitioning at 2 shards on a 2-site fabric must cut at
    // the WAN links — and the conservative lookahead must then be the
    // WAN delay, orders of magnitude above the intra-site 1 µs links.
    let t = multi_site().builder().link_mbps(1000).delay_ns(1000).seed(5).build();
    let assignment = partition(&t.net, 2, PartitionStrategy::Locality);
    let mut cut_delays = Vec::new();
    for (a, _, b, _, spec) in t.net.links_iter() {
        if assignment[a.0 as usize] != assignment[b.0 as usize] {
            cut_delays.push(spec.delay_ns);
        }
    }
    assert!(!cut_delays.is_empty(), "two shards must cut somewhere");
    assert!(
        cut_delays.iter().all(|&d| d == 250_000),
        "locality partitioning should cut only WAN links, cut delays: {cut_delays:?}"
    );
    assert_eq!(
        lookahead(&t.net, &assignment),
        Some(250_000),
        "the sharded runtime's lookahead window must be the WAN delay"
    );
}

#[test]
fn round_robin_partitioning_matches_too() {
    // The adversarial partition under the adversarial workload.
    let w = WorkloadSpec::incast(2);
    let reference = run(w.clone(), 1);
    let mut t =
        TopologySpec::FatTree { k: 4 }.builder().link_mbps(1000).delay_ns(1000).seed(5).build();
    let hosts = t.hosts.clone();
    let cfg = TrafficConfig { stop_at: 2 * MILLIS, ..w.cfg };
    install_traffic(&mut t.net, &hosts, &cfg);
    let mut fabric = Fabric::new(t.net, 4, PartitionStrategy::RoundRobin);
    fabric.run_until(2 * MILLIS);
    assert_eq!(fabric.stats().digest(), reference.stats.digest(), "round-robin digest diverged");
}

#[test]
fn shorter_duration_shrinks_the_horizon() {
    let full = run(WorkloadSpec::uniform(), 1);
    let d = full.duration_ns;
    let fast = Scenario::new(
        TopologySpec::FatTree { k: 4 }.builder().link_mbps(1000).delay_ns(1000).seed(5),
        WorkloadSpec::uniform(),
    )
    .duration_ns(d / 2)
    .run();
    assert_eq!(fast.duration_ns, MILLIS, "half the duration is half the simulated horizon");
    assert!(
        fast.stats.events_processed < full.stats.events_processed,
        "shorter horizon must process fewer events"
    );
    assert!(fast.stats.frames_delivered > 0, "but the cell still simulates");
}

#[test]
fn cell_json_has_the_schema_fields() {
    let cell = run(WorkloadSpec::uniform(), 2);
    let json = cell.to_json();
    for key in [
        "\"schema\":3",
        "\"topology\":\"fat_tree4\"",
        "\"workload\":\"uniform\"",
        "\"shards\":2",
        "\"duration_ns\":2000000",
        "\"frames_delivered\":",
        "\"plan_cache_hits\":",
        "\"plan_cache_misses\":",
        "\"plan_cache_evictions\":",
        "\"digest\":\"0x",
        "\"trace\":\"0x",
        "\"wall_ms\":",
    ] {
        assert!(json.contains(key), "cell JSON missing {key}: {json}");
    }
    for gone in ["\"speedup\"", "\"violations\""] {
        assert!(!json.contains(gone), "cell JSON still carries {gone}: {json}");
    }
    assert!(json.starts_with('{') && json.ends_with('}'));
}

#[test]
fn plan_cache_engages_and_is_observable() {
    // The plan-cache efficacy counters must actually move on a real cell
    // (fat-tree, TPP-stamping uniform workload): the cache absorbs
    // repeated probe programs.
    let cell = run(WorkloadSpec::uniform(), 1);
    let s = &cell.stats;
    assert!(s.plan_cache_misses > 0, "plan cache never consulted: {s:?}");
    assert!(
        s.plan_cache_hits > s.plan_cache_misses,
        "repeated probe programs should mostly hit the plan cache: {s:?}"
    );
}
