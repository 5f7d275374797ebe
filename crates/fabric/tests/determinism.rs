//! Differential determinism: for identical seeds and scenarios, the
//! sharded fabric must produce the exact same `NetStats` digest as the
//! single-threaded `Network` loop — on every topology, at every shard
//! count, with one worker and with one per shard. The digest folds an FNV
//! hash of every frame at every hop arrival, so one reordered TPP read or
//! one divergent fault draw anywhere in the run changes it.

use std::sync::atomic::Ordering;

use tpp_fabric::{
    install_traffic, ExecMode, Fabric, PartitionStrategy, Scenario, TrafficConfig, WorkloadSpec,
};
use tpp_netsim::{ChurnSpec, HostApp, HostCtx, NetStats, Time, Topology, TopologySpec, MILLIS};

/// Sim horizon: long enough for thousands of multi-hop deliveries and a
/// few utilization intervals, short enough for quick tests.
const HORIZON: u64 = 8 * MILLIS;

fn traffic() -> TrafficConfig {
    TrafficConfig { stop_at: 6 * MILLIS, ..TrafficConfig::default() }
}

fn single(build: &dyn Fn() -> Topology) -> NetStats {
    let mut t = build();
    let hosts = t.hosts.clone();
    let delivered = install_traffic(&mut t.net, &hosts, &traffic());
    t.net.run_until(HORIZON);
    assert!(delivered.load(Ordering::Relaxed) > 100, "workload must generate real traffic");
    t.net.stats
}

fn sharded(
    build: &dyn Fn() -> Topology,
    n_shards: usize,
    strategy: PartitionStrategy,
    mode: ExecMode,
) -> NetStats {
    sharded_until(build, n_shards, strategy, mode, HORIZON)
}

fn sharded_until(
    build: &dyn Fn() -> Topology,
    n_shards: usize,
    strategy: PartitionStrategy,
    mode: ExecMode,
    horizon: Time,
) -> NetStats {
    let mut t = build();
    let hosts = t.hosts.clone();
    let _delivered = install_traffic(&mut t.net, &hosts, &traffic());
    let mut fabric = Fabric::new(t.net, n_shards, strategy);
    fabric.set_mode(mode);
    fabric.run_until(horizon);
    fabric.stats()
}

fn assert_differential(build: &dyn Fn() -> Topology, strategy: PartitionStrategy, label: &str) {
    let reference = single(build);
    assert!(reference.frames_delivered > 0);
    for n_shards in [2usize, 4] {
        for mode in [ExecMode::Sequential, ExecMode::Threaded] {
            let got = sharded(build, n_shards, strategy, mode);
            assert_eq!(
                got.digest(),
                reference.digest(),
                "{label}: digest diverged at {n_shards} shards ({mode:?}); \
                 single={reference:?} sharded={got:?}"
            );
            // The counts behind the digest agree too (digest() already
            // covers them; this gives readable failures).
            assert_eq!(got.frames_delivered, reference.frames_delivered, "{label}");
            assert_eq!(got.trace, reference.trace, "{label}");
        }
    }
}

#[test]
fn star_matches_single_threaded() {
    // A star has one switch, so Locality would collapse to one shard;
    // RoundRobin forces hosts off the hub's shard and every frame across a
    // boundary — maximum cross-shard stress.
    assert_differential(
        &|| {
            TopologySpec::Star { hosts: 8 }
                .builder()
                .host_mbps(1000)
                .delay_ns(1000)
                .seed(11)
                .build()
        },
        PartitionStrategy::RoundRobin,
        "star",
    );
}

#[test]
fn leaf_spine_matches_single_threaded() {
    assert_differential(
        &|| {
            TopologySpec::LeafSpine { leaves: 4, spines: 2, hosts_per_leaf: 2 }
                .builder()
                .link_mbps(1000)
                .host_mbps(1000)
                .delay_ns(1000)
                .seed(12)
                .build()
        },
        PartitionStrategy::Locality,
        "leaf-spine",
    );
}

#[test]
fn fat_tree_matches_single_threaded() {
    assert_differential(
        &|| {
            TopologySpec::FatTree { k: 4 }.builder().link_mbps(1000).delay_ns(1000).seed(13).build()
        },
        PartitionStrategy::Locality,
        "fat-tree",
    );
}

#[test]
fn fat_tree_round_robin_matches_single_threaded() {
    // The adversarial partition: no locality at all, every link a
    // potential shard crossing.
    assert_differential(
        &|| {
            TopologySpec::FatTree { k: 4 }.builder().link_mbps(1000).delay_ns(1000).seed(14).build()
        },
        PartitionStrategy::RoundRobin,
        "fat-tree/round-robin",
    );
}

#[test]
fn faults_draw_identically_across_shardings() {
    // Per-link fault streams must make drop/corruption decisions identical
    // under any partitioning. Degrade two leaf-spine fabric links before
    // splitting.
    let build = || {
        let mut t = TopologySpec::LeafSpine { leaves: 3, spines: 2, hosts_per_leaf: 2 }
            .builder()
            .link_mbps(1000)
            .host_mbps(1000)
            .delay_ns(1000)
            .seed(21)
            .build();
        let leaf0 = t.switches[0];
        let leaf1 = t.switches[1];
        t.net.set_link_faults(leaf0, 0, 0.2, 0.05);
        t.net.set_link_faults(leaf1, 1, 0.1, 0.0);
        t
    };
    let reference = single(&build);
    assert!(reference.frames_dropped_in_flight > 0, "faults must actually fire");
    assert!(reference.frames_corrupted > 0);
    for n_shards in [2usize, 4] {
        let got = sharded(&build, n_shards, PartitionStrategy::Locality, ExecMode::Sequential);
        assert_eq!(got.digest(), reference.digest(), "fault digests diverged at {n_shards} shards");
        assert_eq!(got.frames_dropped_in_flight, reference.frames_dropped_in_flight);
        assert_eq!(got.frames_corrupted, reference.frames_corrupted);
    }
}

#[test]
fn one_shard_fabric_is_the_single_threaded_network() {
    let build = || {
        TopologySpec::Star { hosts: 6 }.builder().host_mbps(1000).delay_ns(1000).seed(31).build()
    };
    let reference = single(&build);
    let got = sharded(&build, 1, PartitionStrategy::Locality, ExecMode::Sequential);
    assert_eq!(got.digest(), reference.digest());
    assert_eq!(
        got.events_processed, reference.events_processed,
        "1 shard is literally the same loop"
    );
}

#[test]
fn repeated_sharded_runs_are_bit_identical() {
    let run = || {
        sharded(
            &|| {
                TopologySpec::FatTree { k: 4 }
                    .builder()
                    .link_mbps(1000)
                    .delay_ns(1000)
                    .seed(42)
                    .build()
            },
            4,
            PartitionStrategy::Locality,
            ExecMode::Threaded,
        )
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "thread scheduling must not leak into results");
}

#[test]
fn run_until_never_moves_the_clock_backwards() {
    let mut t =
        TopologySpec::Star { hosts: 4 }.builder().host_mbps(1000).delay_ns(1000).seed(3).build();
    let hosts = t.hosts.clone();
    let _d = install_traffic(&mut t.net, &hosts, &traffic());
    let mut fabric = Fabric::new(t.net, 2, PartitionStrategy::RoundRobin);
    fabric.set_mode(ExecMode::Sequential);
    fabric.run_until(4 * MILLIS);
    let stats = fabric.stats();
    fabric.run_until(2 * MILLIS); // stale target: must be a no-op
    assert_eq!(fabric.now(), 4 * MILLIS);
    assert_eq!(fabric.stats(), stats);
    fabric.run_for(MILLIS); // and run_for still advances from 4ms, not 2ms
    assert_eq!(fabric.now(), 5 * MILLIS);
}

/// A host whose timer at 5 ms panics.
struct LateApp;
impl HostApp for LateApp {
    fn start(&mut self, ctx: &mut HostCtx<'_>) {
        ctx.set_timer(5 * MILLIS, 0);
    }
    fn on_timer(&mut self, _ctx: &mut HostCtx<'_>, _token: u64) {
        panic!("ran past the first horizon");
    }
    fn as_any(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// Run a 2-shard star with a [`LateApp`] to 1 ms, then to the end of time.
fn run_past_the_first_horizon(mode: ExecMode) {
    let mut t =
        TopologySpec::Star { hosts: 4 }.builder().host_mbps(1000).delay_ns(1000).seed(3).build();
    t.net.set_app(t.hosts[0], Box::new(LateApp));
    let mut fabric = Fabric::new(t.net, 2, PartitionStrategy::RoundRobin);
    fabric.set_mode(mode);
    fabric.run_until(MILLIS);
    fabric.run_for(Time::MAX);
}

/// `Fabric::run_for` computed `now + dur` unguarded: past the first barrier
/// `Time::MAX` panicked in debug builds and wrapped to a stale target (a
/// silent no-op) in release builds. A run to the end of time does not
/// return, so a host timer past the first horizon ends this one.
#[test]
#[should_panic(expected = "ran past the first horizon")]
fn run_for_time_max_runs_on_instead_of_wrapping() {
    run_past_the_first_horizon(ExecMode::Sequential);
}

/// A panic in one worker's window left the other workers at that window's
/// barrier for good. Every worker now reaches it, all leave the loop there
/// and the panic is re-raised on the caller.
#[test]
#[should_panic(expected = "ran past the first horizon")]
fn a_panic_in_one_shard_fails_the_threaded_run_instead_of_hanging_it() {
    run_past_the_first_horizon(ExecMode::Threaded);
}

/// The threaded run under real concurrency, over and over: 4 workers on this
/// machine's cores, first where every hop crosses a shard boundary and link
/// faults draw per frame, then with links flapping and routes detouring.
/// Thread scheduling differs run to run; the result may not.
#[test]
fn threaded_runs_repeat_the_sequential_run() {
    let runs = if cfg!(debug_assertions) { 25 } else { 100 };
    let star = |mode| {
        let build = || {
            let mut t = TopologySpec::Star { hosts: 8 }
                .builder()
                .host_mbps(1000)
                .delay_ns(1000)
                .seed(11)
                .build();
            let hub = t.switches[0];
            t.net.set_link_faults(hub, 0, 0.2, 0.05);
            t.net.set_link_faults(hub, 3, 0.1, 0.0);
            t
        };
        sharded_until(&build, 4, PartitionStrategy::RoundRobin, mode, 2 * MILLIS)
    };
    let flap = |mode| {
        Scenario::new(
            TopologySpec::FatTree { k: 4 }.builder().link_mbps(1000).delay_ns(1000).seed(5),
            WorkloadSpec::uniform(),
        )
        .churn(ChurnSpec::LinkFlap {
            fraction: 0.3,
            period_ns: 500_000,
            down_ns: 100_000,
            seed: 7,
            reroute: true,
        })
        .shards(4)
        .mode(mode)
        .duration_ns(2 * MILLIS)
        .run()
        .stats
    };
    let cells: [(&str, &dyn Fn(ExecMode) -> NetStats); 2] =
        [("star/faults", &star), ("fat_tree4/link_flap", &flap)];
    for (label, cell) in cells {
        let reference = cell(ExecMode::Sequential);
        assert!(reference.frames_delivered > 1000, "{label}: the cell must carry traffic");
        assert!(reference.frames_dropped_in_flight + reference.reconfigs_applied > 0, "{label}");
        for run in 0..runs {
            assert_eq!(cell(ExecMode::Threaded), reference, "{label}: threaded run {run}");
        }
    }
}

#[test]
fn incremental_run_until_matches_one_shot() {
    // Driving the fabric in small steps (as experiment drivers do) must
    // land on the same digest as one big run_until.
    let build = || {
        TopologySpec::LeafSpine { leaves: 3, spines: 2, hosts_per_leaf: 2 }
            .builder()
            .link_mbps(1000)
            .host_mbps(1000)
            .delay_ns(1000)
            .seed(55)
            .build()
    };
    let one_shot = sharded(&build, 2, PartitionStrategy::Locality, ExecMode::Sequential);
    let mut t = build();
    let hosts = t.hosts.clone();
    let _d = install_traffic(&mut t.net, &hosts, &traffic());
    let mut fabric = Fabric::new(t.net, 2, PartitionStrategy::Locality);
    fabric.set_mode(ExecMode::Sequential);
    let mut at = 0;
    while at < HORIZON {
        at += MILLIS / 2;
        fabric.run_until(at.min(HORIZON));
    }
    assert_eq!(fabric.stats().digest(), one_shot.digest());
}
