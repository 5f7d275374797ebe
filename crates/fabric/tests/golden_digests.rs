//! Golden-digest differential test: the behaviour of the simulator, pinned.
//!
//! The first twelve [`tpp_netsim::NetStats::digest`] values below were
//! recorded on the original engine (`BinaryHeap` event queue, one event and
//! one frame at a time) for {star, leaf-spine, fat-tree(4)} × {clean, link
//! faults} × {single-threaded, 4 fabric shards}. Every engine since — a
//! hierarchical-wheel scheduler and a same-timestamp batch delivery path
//! that both came and went, the LinkFabric/NodeStore decomposition — has
//! had to reproduce each one bit for bit: any divergence in a timestamp, a
//! route, a fault draw, or a single TPP result word changes the value.
//!
//! The seventh scenario pins two regimes the first six never enter, both of
//! which that batch path special-cased: switches with zero base pipeline
//! latency, whose kicks land at the *current* timestamp, and 400 Gb/s links,
//! on which a minimum-size frame serializes in a nanosecond or less, so a
//! transmit completion can chain more work at its own timestamp. Its pair
//! was recorded on the last commit that still had the batch path.
//!
//! The eighth is the only regime that wheel ever served: `fig_scale`'s k=8
//! fat-tree under its heavy traffic, whose single-shard run holds more than
//! 2,048 pending events inside the first 100 µs (2,939 at the peak), the
//! length at which that scheduler left its heap for the wheel. Its pair was
//! recorded on the last commit that still had the wheel, where the run
//! crossed over, so it pins that the plain heap pops that schedule in the
//! same order.
//!
//! To re-record after an *intentional* behavior change, run with
//! `GOLDEN_PRINT=1 cargo test -p tpp-fabric --test golden_digests -- --nocapture`
//! and update the table (and say why in the commit message).

use std::sync::atomic::Ordering;

use tpp_fabric::{
    install_traffic, ExecMode, Fabric, PartitionStrategy, TrafficConfig, TrafficPattern,
};
use tpp_netsim::{NodeId, Topology, TopologySpec, MILLIS};

const HORIZON: u64 = 8 * MILLIS;

fn traffic() -> TrafficConfig {
    TrafficConfig { stop_at: 6 * MILLIS, ..TrafficConfig::default() }
}

/// `fig_scale`'s traffic, cut to a horizon the debug profile runs in seconds.
const SCALE_HORIZON: u64 = 100_000;

fn scale_traffic() -> TrafficConfig {
    TrafficConfig {
        frames_per_tick: 16,
        tick_ns: 5_000,
        payload: 256,
        tpp_every: 4,
        stop_at: SCALE_HORIZON,
        seed: 8,
        pattern: TrafficPattern::Uniform,
    }
}

struct Scenario {
    name: &'static str,
    build: fn() -> Topology,
    /// `(node, port, drop_prob, corrupt_prob)` applied before any split.
    faults: &'static [(u32, u8, f64, f64)],
    strategy: PartitionStrategy,
    traffic: fn() -> TrafficConfig,
    horizon: u64,
}

fn build(s: &Scenario) -> Topology {
    let mut t = (s.build)();
    for &(node, port, drop, corrupt) in s.faults {
        t.net.set_link_faults(NodeId(node), port, drop, corrupt);
    }
    t
}

fn run_single(s: &Scenario) -> u64 {
    let mut t = build(s);
    let hosts = t.hosts.clone();
    let delivered = install_traffic(&mut t.net, &hosts, &(s.traffic)());
    t.net.run_until(s.horizon);
    assert!(delivered.load(Ordering::Relaxed) > 100, "{}: workload too small", s.name);
    t.net.stats.digest()
}

fn run_sharded(s: &Scenario, n_shards: usize) -> u64 {
    let mut t = build(s);
    let hosts = t.hosts.clone();
    let _ = install_traffic(&mut t.net, &hosts, &(s.traffic)());
    let mut fabric = Fabric::new(t.net, n_shards, s.strategy);
    fabric.set_mode(ExecMode::Sequential);
    fabric.run_until(s.horizon);
    fabric.stats().digest()
}

/// `(scenario, digest at 1 shard, digest at 4 shards)` — both columns were
/// recorded on the engine the header names and (by PR 3's determinism
/// tests) agree with each other.
const GOLDEN: &[(Scenario, u64, u64)] = &[
    (
        Scenario {
            name: "star/clean",
            build: || {
                TopologySpec::Star { hosts: 8 }
                    .builder()
                    .host_mbps(1000)
                    .delay_ns(1000)
                    .seed(11)
                    .build()
            },
            faults: &[],
            strategy: PartitionStrategy::RoundRobin,
            traffic,
            horizon: HORIZON,
        },
        GOLDEN_STAR_CLEAN_1,
        GOLDEN_STAR_CLEAN_4,
    ),
    (
        Scenario {
            name: "star/faults",
            build: || {
                TopologySpec::Star { hosts: 8 }
                    .builder()
                    .host_mbps(1000)
                    .delay_ns(1000)
                    .seed(11)
                    .build()
            },
            faults: &[(0, 0, 0.2, 0.05), (0, 3, 0.1, 0.0)],
            strategy: PartitionStrategy::RoundRobin,
            traffic,
            horizon: HORIZON,
        },
        GOLDEN_STAR_FAULTS_1,
        GOLDEN_STAR_FAULTS_4,
    ),
    (
        Scenario {
            name: "leaf_spine/clean",
            build: || {
                TopologySpec::LeafSpine { leaves: 4, spines: 2, hosts_per_leaf: 2 }
                    .builder()
                    .link_mbps(1000)
                    .host_mbps(1000)
                    .delay_ns(1000)
                    .seed(12)
                    .build()
            },
            faults: &[],
            strategy: PartitionStrategy::Locality,
            traffic,
            horizon: HORIZON,
        },
        GOLDEN_LEAF_SPINE_CLEAN_1,
        GOLDEN_LEAF_SPINE_CLEAN_4,
    ),
    (
        Scenario {
            name: "leaf_spine/faults",
            build: || {
                TopologySpec::LeafSpine { leaves: 4, spines: 2, hosts_per_leaf: 2 }
                    .builder()
                    .link_mbps(1000)
                    .host_mbps(1000)
                    .delay_ns(1000)
                    .seed(12)
                    .build()
            },
            faults: &[(0, 0, 0.2, 0.05), (1, 1, 0.1, 0.0)],
            strategy: PartitionStrategy::Locality,
            traffic,
            horizon: HORIZON,
        },
        GOLDEN_LEAF_SPINE_FAULTS_1,
        GOLDEN_LEAF_SPINE_FAULTS_4,
    ),
    (
        Scenario {
            name: "fat_tree4/clean",
            build: || {
                TopologySpec::FatTree { k: 4 }
                    .builder()
                    .link_mbps(1000)
                    .delay_ns(1000)
                    .seed(13)
                    .build()
            },
            faults: &[],
            strategy: PartitionStrategy::Locality,
            traffic,
            horizon: HORIZON,
        },
        GOLDEN_FAT_TREE_CLEAN_1,
        GOLDEN_FAT_TREE_CLEAN_4,
    ),
    (
        Scenario {
            name: "fat_tree4/faults",
            build: || {
                TopologySpec::FatTree { k: 4 }
                    .builder()
                    .link_mbps(1000)
                    .delay_ns(1000)
                    .seed(13)
                    .build()
            },
            // Degrade one core uplink and one edge downlink.
            faults: &[(0, 0, 0.15, 0.02), (12, 2, 0.1, 0.0)],
            strategy: PartitionStrategy::Locality,
            traffic,
            horizon: HORIZON,
        },
        GOLDEN_FAT_TREE_FAULTS_1,
        GOLDEN_FAT_TREE_FAULTS_4,
    ),
    (
        Scenario {
            name: "fat_tree4/zero_latency_400g",
            build: || {
                let mut t = TopologySpec::FatTree { k: 4 }
                    .builder()
                    .link_mbps(400_000)
                    .host_mbps(400_000)
                    .delay_ns(1000)
                    .seed(15)
                    .build();
                for &sw in &t.switches {
                    t.net.switch_mut(sw).cfg.cost.base_latency_ns = 0;
                }
                t
            },
            faults: &[],
            strategy: PartitionStrategy::RoundRobin,
            traffic,
            horizon: HORIZON,
        },
        GOLDEN_ZERO_LATENCY_400G_1,
        GOLDEN_ZERO_LATENCY_400G_4,
    ),
    (
        Scenario {
            name: "fat_tree8/fig_scale",
            build: || {
                TopologySpec::FatTree { k: 8 }
                    .builder()
                    .link_mbps(10_000)
                    .delay_ns(1000)
                    .seed(8)
                    .build()
            },
            faults: &[],
            strategy: PartitionStrategy::Locality,
            traffic: scale_traffic,
            horizon: SCALE_HORIZON,
        },
        GOLDEN_FAT_TREE8_SCALE_1,
        GOLDEN_FAT_TREE8_SCALE_4,
    ),
];

const GOLDEN_STAR_CLEAN_1: u64 = 0xF11C_1AE0_79FB_127B;
const GOLDEN_STAR_CLEAN_4: u64 = 0xF11C_1AE0_79FB_127B;
const GOLDEN_STAR_FAULTS_1: u64 = 0x3E87_1779_81FF_4B5E;
const GOLDEN_STAR_FAULTS_4: u64 = 0x3E87_1779_81FF_4B5E;
const GOLDEN_LEAF_SPINE_CLEAN_1: u64 = 0x4C24_3069_F999_FF0A;
const GOLDEN_LEAF_SPINE_CLEAN_4: u64 = 0x4C24_3069_F999_FF0A;
const GOLDEN_LEAF_SPINE_FAULTS_1: u64 = 0x4D88_FE9E_7F55_8AA2;
const GOLDEN_LEAF_SPINE_FAULTS_4: u64 = 0x4D88_FE9E_7F55_8AA2;
const GOLDEN_FAT_TREE_CLEAN_1: u64 = 0xEECD_4E22_7828_0281;
const GOLDEN_FAT_TREE_CLEAN_4: u64 = 0xEECD_4E22_7828_0281;
const GOLDEN_FAT_TREE_FAULTS_1: u64 = 0x2D4C_9941_7FA7_D594;
const GOLDEN_FAT_TREE_FAULTS_4: u64 = 0x2D4C_9941_7FA7_D594;
const GOLDEN_ZERO_LATENCY_400G_1: u64 = 0xA10C_98C6_7607_6B1B;
const GOLDEN_ZERO_LATENCY_400G_4: u64 = 0xA10C_98C6_7607_6B1B;
const GOLDEN_FAT_TREE8_SCALE_1: u64 = 0xCD1C_49BD_B3D6_FCE6;
const GOLDEN_FAT_TREE8_SCALE_4: u64 = 0xCD1C_49BD_B3D6_FCE6;

#[test]
fn digests_match_pre_refactor_engine() {
    let record = std::env::var("GOLDEN_PRINT").is_ok();
    for (scenario, want_1, want_4) in GOLDEN {
        let got_1 = run_single(scenario);
        let got_4 = run_sharded(scenario, 4);
        if record {
            println!("{}: 1-shard 0x{got_1:016X}  4-shard 0x{got_4:016X}", scenario.name);
            continue;
        }
        assert_eq!(
            got_1, *want_1,
            "{}: single-threaded digest diverged from the recorded engine",
            scenario.name
        );
        assert_eq!(
            got_4, *want_4,
            "{}: 4-shard digest diverged from the recorded engine",
            scenario.name
        );
    }
}
