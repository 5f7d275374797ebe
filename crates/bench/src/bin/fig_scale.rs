//! `fig_scale`: wall-clock scaling of the sharded fabric runtime.
//!
//! Sweeps k ∈ {4, 8} fat-trees × {1, 2, 4} shards over an identical
//! timer-driven all-hosts traffic workload (a quarter of the frames carry
//! the §2.1 visibility TPP) and reports wall-clock time per configuration,
//! asserting along the way that every sharded run's `NetStats` digest is
//! bit-identical to the single-threaded reference — the scaling numbers
//! are only meaningful because the runs are provably the same simulation.
//!
//! `--smoke` runs k = 4 only over a short horizon, for CI; the
//! digest-equality assertions always run.

use tpp_fabric::scenario::{Cell, Scenario, WorkloadSpec};
use tpp_fabric::{ExecMode, TrafficConfig, TrafficPattern};
use tpp_netsim::{Time, TopologySpec, MILLIS};

fn traffic(horizon: Time) -> TrafficConfig {
    // Heavy load: deep queues grow the event heap, which is where sharding
    // pays even before thread parallelism (smaller per-shard heaps and
    // working sets).
    TrafficConfig {
        frames_per_tick: 16,
        tick_ns: 5_000,
        stop_at: horizon,
        seed: 8,
        pattern: TrafficPattern::Uniform,
    }
}

fn run_case(k: usize, n_shards: usize, horizon: Time, mode: ExecMode) -> Cell {
    Scenario::new(
        TopologySpec::FatTree { k }.builder().link_mbps(10_000).delay_ns(1000).seed(8),
        WorkloadSpec::custom("fig_scale", traffic(horizon)),
    )
    .shards(n_shards)
    .mode(mode)
    .duration_ns(horizon)
    .run()
}

fn main() {
    let smoke = tpp_bench::smoke_arg();
    let (ks, horizon): (&[usize], Time) =
        if smoke { (&[4], MILLIS / 2) } else { (&[4, 8], MILLIS) };

    println!("# fig_scale — sharded fabric runtime vs single-threaded Network");
    println!("# horizon {} us, cores {}", horizon / 1000, cores());
    println!(
        "# seq = one worker drives every shard, thr = one worker per shard; x = against 1 shard"
    );
    println!(
        "{:>4} {:>7} {:>10} {:>12} {:>8} {:>8} {:>7} {:>7}  digest",
        "k", "shards", "delivered", "events", "seq ms", "thr ms", "seq x", "thr x"
    );
    for &k in ks {
        let single = run_case(k, 1, horizon, ExecMode::Sequential);
        println!(
            "{:>4} {:>7} {:>10} {:>12} {:>8} {:>8} {:>7} {:>7}  {:016x}",
            k,
            1,
            single.delivered,
            single.stats.events_processed,
            single.wall_ms,
            "-",
            "-",
            "-",
            single.stats.digest()
        );
        let speedup = |c: &Cell| single.wall_ms as f64 / c.wall_ms.max(1) as f64;
        for shards in [2usize, 4] {
            let seq = run_case(k, shards, horizon, ExecMode::Sequential);
            let thr = run_case(k, shards, horizon, ExecMode::Threaded);
            for c in [&seq, &thr] {
                let (got, want) = (c.stats.digest(), single.stats.digest());
                assert_eq!(got, want, "k={k} shards={shards}: digest diverged from 1 shard");
            }
            println!(
                "{:>4} {:>7} {:>10} {:>12} {:>8} {:>8} {:>6.2}x {:>6.2}x  {:016x}",
                k,
                shards,
                seq.delivered,
                seq.stats.events_processed,
                seq.wall_ms,
                thr.wall_ms,
                speedup(&seq),
                speedup(&thr),
                seq.stats.digest()
            );
        }
    }
    println!("# digest equality asserted for every sharded run, both worker counts");
}

fn cores() -> usize {
    std::thread::available_parallelism().map(std::num::NonZero::get).unwrap_or(1)
}
