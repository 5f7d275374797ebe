//! Engine-scale benchmark: raw scheduler throughput (events/sec) of the
//! hierarchical timing wheel vs the legacy `BinaryHeap` queue at 1k / 10k /
//! 100k scheduled events, plus the end-to-end delivery loop.
//!
//! * `wheel/{n}` — schedule `n` keyed events with delays mixed across every
//!   wheel level, then drain one pop at a time (spill threshold 0: pure
//!   wheel).
//! * `hybrid/{n}` — the same schedule through the default [`Scheduler`],
//!   which starts on its heap backend and spills into the wheel at the
//!   crossover threshold — the configuration every simulation actually
//!   runs.
//! * `heap/{n}` — the identical schedule through [`HeapQueue`], drained one
//!   pop at a time (the pre-refactor engine's only mode).
//! * `pure_ns/{n}` / `mixed_ns_ms/{n}` — the WAN-mix pair: the same
//!   default-scheduler drain with delays confined to the ns–µs leaf levels
//!   vs. half the events pushed out to 1–10 ms, where WAN propagation
//!   lands (wheel levels 3–4, not the overflow heap). The ratio between
//!   the two is the scheduler's multi-site tax; it must stay within 10%.
//! * `delivery` — one simulated window of heavy traffic on a k=4 fat-tree
//!   through the `Network` loop, digest-pinned so the workload can't
//!   silently drift.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;
use std::time::Duration;

use tpp_fabric::{install_traffic, TrafficConfig, TrafficPattern};
use tpp_netsim::engine::{HeapQueue, Scheduler};
use tpp_netsim::{Time, TopologySpec, MILLIS};

/// Delays mixed across wheel levels: immediate, sub-slot, level-1/2/3
/// spans, and a far-future sprinkle that exercises the overflow heap.
fn delay_for(i: u64) -> u64 {
    const DELAYS: [u64; 8] = [0, 3, 70, 900, 5_000, 70_000, 900_000, 1 << 37];
    DELAYS[(i.wrapping_mul(0x9E37_79B9)) as usize % DELAYS.len()] + (i % 50)
}

fn drive_wheel(n: u64) -> u64 {
    let mut q = Scheduler::with_spill_threshold(0);
    let mut popped = 0u64;
    for i in 0..n {
        q.schedule_keyed(q.now() + delay_for(i), i % 7, i);
    }
    while q.pop().is_some() {
        popped += 1;
    }
    popped
}

/// Intra-site-only delays: everything within the leaf and low wheel
/// levels, the profile of a single-DC simulation.
fn delay_pure_ns(i: u64) -> u64 {
    const DELAYS: [u64; 4] = [3, 900, 5_000, 70_000];
    DELAYS[(i.wrapping_mul(0x9E37_79B9)) as usize % DELAYS.len()] + (i % 50)
}

/// WAN-mix delays: every other event jumps 1–10 ms ahead — the profile of
/// a `MultiSite` scenario, where WAN propagation lands deep in the wheel
/// (levels 3–4) while intra-site events churn the leaf levels.
fn delay_mixed(i: u64) -> u64 {
    const MS: [u64; 4] = [1_000_000, 2_000_000, 5_000_000, 10_000_000];
    if i.is_multiple_of(2) {
        delay_pure_ns(i)
    } else {
        MS[(i.wrapping_mul(0x9E37_79B9)) as usize % MS.len()] + (i % 50)
    }
}

/// Schedule/drain through the default scheduler with an arbitrary delay
/// profile (the hybrid and WAN-mix arms share this driver so only the
/// profile differs).
fn drive_profile(n: u64, delay: fn(u64) -> u64) -> u64 {
    let mut q = Scheduler::new();
    let mut popped = 0u64;
    for i in 0..n {
        q.schedule_keyed(q.now() + delay(i), i % 7, i);
    }
    while q.pop().is_some() {
        popped += 1;
    }
    popped
}

fn drive_heap(n: u64) -> u64 {
    let mut q = HeapQueue::new();
    let mut popped = 0u64;
    for i in 0..n {
        q.schedule_keyed(q.now() + delay_for(i), i % 7, i);
    }
    while q.pop().is_some() {
        popped += 1;
    }
    popped
}

const HORIZON: Time = 2 * MILLIS / 5;

fn run_delivery() -> (u64, u64) {
    let mut t =
        TopologySpec::FatTree { k: 4 }.builder().link_mbps(10_000).delay_ns(1000).seed(8).build();
    let hosts = t.hosts.clone();
    let cfg = TrafficConfig {
        frames_per_tick: 16,
        tick_ns: 5_000,
        payload: 256,
        tpp_every: 4,
        stop_at: HORIZON,
        seed: 8,
        pattern: TrafficPattern::Uniform,
    };
    let _delivered = install_traffic(&mut t.net, &hosts, &cfg);
    t.net.run_until(HORIZON);
    (t.net.stats.digest(), t.net.stats.events_processed)
}

fn bench_engine(c: &mut Criterion) {
    for n in [1_000u64, 10_000, 100_000] {
        let label = match n {
            1_000 => "1k",
            10_000 => "10k",
            _ => "100k",
        };
        assert_eq!(drive_wheel(n), n, "wheel must pop every scheduled event");
        assert_eq!(drive_profile(n, delay_for), n, "hybrid must pop every scheduled event");
        assert_eq!(drive_heap(n), n, "heap must pop every scheduled event");
        assert_eq!(drive_profile(n, delay_pure_ns), n, "pure-ns must pop every event");
        assert_eq!(drive_profile(n, delay_mixed), n, "mixed ns/ms must pop every event");
        let mut g = c.benchmark_group("engine_scale");
        g.throughput(Throughput::Elements(n));
        g.bench_function(format!("wheel/{label}"), |b| b.iter(|| black_box(drive_wheel(n))));
        g.bench_function(format!("hybrid/{label}"), |b| {
            b.iter(|| black_box(drive_profile(n, delay_for)));
        });
        g.bench_function(format!("heap/{label}"), |b| b.iter(|| black_box(drive_heap(n))));
        g.bench_function(format!("pure_ns/{label}"), |b| {
            b.iter(|| black_box(drive_profile(n, delay_pure_ns)));
        });
        g.bench_function(format!("mixed_ns_ms/{label}"), |b| {
            b.iter(|| black_box(drive_profile(n, delay_mixed)));
        });
        g.finish();
    }

    // End-to-end delivery, digest-pinned against drift: the same
    // run twice must agree, and the event count sets the throughput unit.
    let (digest, events) = run_delivery();
    assert_eq!(run_delivery(), (digest, events), "delivery workload must be deterministic");
    let mut g = c.benchmark_group("engine_scale");
    g.throughput(Throughput::Elements(events));
    g.bench_function("delivery", |b| {
        b.iter(|| {
            let got = run_delivery();
            assert_eq!(got.0, digest, "delivery digest drifted");
            black_box(got)
        });
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_millis(1500))
        .sample_size(10);
    targets = bench_engine
}
criterion_main!(benches);
