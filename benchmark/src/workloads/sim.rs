//! `sim_dc` and `sim_wan_x2`: one matrix cell of the discrete-event
//! simulator, replayed over and over. A fresh network is built (untimed) for
//! every replay and advanced through its first 2 ms of simulated time in
//! timed steps (16 of 125 us on the fat-tree, 8 of one 250 us epoch on the
//! WAN fabric); only `Network::run_until` / `Fabric::run_until` is inside the
//! timed region. Step `k` does the same work in every replay, so slices carry
//! `k` as their phase, and every replay must end on the same
//! `NetStats::digest`.
//!
//! Set-up and the traced pass run the whole 8 ms cell: that is the cell every
//! `BENCH_pr*.json` records and the one `output_digest` names. The timed
//! replays stop at 2 ms so that a 10 s run samples every step over a hundred
//! times in windows of 4-9 ms; with 16 steps of the full cell it was thirty
//! times in windows of 15 ms, and the rate spread 11 % between runs.

use std::sync::atomic::Ordering;
use std::time::Instant;

use tpp_fabric::{install_traffic, Fabric, PartitionStrategy, TrafficConfig, WorkloadSpec};
use tpp_netsim::{NetStats, Network, Scheduler, Time, TopologyBuilder, TopologySpec, MILLIS};

use crate::stats::{fast_rate, median, Sample};
use crate::trace::{alloc_start, alloc_stop, Tracer, CHUNK};
use crate::workloads::switch::PrivateSwitch;
use crate::workloads::{per_call_ns, wrong_hops};
use crate::{LayerValue, Slice, Workload};

/// Simulated horizon of the whole cell (simulated time, not host time).
pub const HORIZON: Time = 8 * MILLIS;
/// Simulated horizon of a timed replay.
pub const REPLAY_HORIZON: Time = 2 * MILLIS;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Cell {
    /// `fat_tree4 x uniform`, 1 shard: the cell every `BENCH_pr*.json` records.
    Dc,
    /// Two k=4 sites joined by 250 us / 400 Mb/s WAN links, inter-DC
    /// transfers, 2 shards on the default (threaded) executor.
    WanX2,
}

impl Cell {
    fn topology(self, seed: u64) -> TopologyBuilder {
        match self {
            Cell::Dc => TopologySpec::FatTree { k: 4 },
            Cell::WanX2 => TopologySpec::MultiSite {
                sites: 2,
                site_k: 4,
                wan_delay_ns: 250_000,
                wan_delay_step_ns: 0,
                wan_mbps: 400,
                wan_site_mbps: Vec::new(),
                wan_queue_bytes: 0,
            },
        }
        .builder()
        .seed(seed)
    }

    fn traffic(self, seed: u64) -> TrafficConfig {
        let base = match self {
            Cell::Dc => TrafficConfig::default(),
            Cell::WanX2 => WorkloadSpec::inter_dc(2).cfg,
        };
        TrafficConfig { seed, stop_at: HORIZON, ..base }
    }

    fn shards(self) -> usize {
        match self {
            Cell::Dc => 1,
            Cell::WanX2 => 2,
        }
    }

    /// Timed steps per replay. On the WAN a step is one lookahead epoch, so
    /// stepping adds no barrier the whole run would not have.
    fn steps(self) -> u32 {
        match self {
            Cell::Dc => 16,
            Cell::WanX2 => 8,
        }
    }
}

/// The cell on one of the two runtimes.
enum Runtime {
    Single(Box<Network>),
    Sharded(Fabric),
}

impl Runtime {
    /// Build the topology, install the traffic and, for `shards > 1`,
    /// partition it: everything a replay needs before time can start.
    fn build(cell: Cell, seed: u64, shards: usize) -> Runtime {
        let mut t = cell.topology(seed).build();
        install_traffic(&mut t.net, &t.hosts, &cell.traffic(seed));
        if shards == 1 {
            Runtime::Single(Box::new(t.net))
        } else {
            Runtime::Sharded(Fabric::new(t.net, shards, PartitionStrategy::Locality))
        }
    }

    fn run_until(&mut self, until: Time) {
        match self {
            Runtime::Single(net) => net.run_until(until),
            Runtime::Sharded(fabric) => fabric.run_until(until),
        }
    }

    fn stats(&self) -> NetStats {
        match self {
            Runtime::Single(net) => net.stats,
            Runtime::Sharded(fabric) => fabric.stats(),
        }
    }
}

pub struct SimBench {
    cell: Cell,
    seed: u64,
    /// Statistics of the whole cell on one shard (the recorded cell).
    reference: NetStats,
    /// Digest of the same run at [`REPLAY_HORIZON`]; every timed replay must
    /// end on it.
    replay_digest: u64,
    /// The replay in progress and how many steps it has run.
    replay: Option<(Runtime, u32)>,
}

impl SimBench {
    fn new(cell: Cell, seed: u64) -> Result<SimBench, String> {
        if cell == Cell::WanX2 {
            let cores = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
            if cores < 2 {
                return Err(format!(
                    "sim_wan_x2 measures the threaded fabric and needs 2 cores; this host has {cores}"
                ));
            }
        }
        // The single-threaded run is the reference for both cells, and the
        // warm-up of the 1-shard one.
        let mut one = Runtime::build(cell, seed, 1);
        one.run_until(REPLAY_HORIZON);
        let replay_digest = one.stats().digest();
        one.run_until(HORIZON);
        let mut b = SimBench { cell, seed, reference: one.stats(), replay_digest, replay: None };
        if cell.shards() > 1 {
            for _ in 0..cell.steps() {
                b.slice()?;
            }
        }
        Ok(b)
    }

    fn check(stats: &NetStats, want: u64) -> Result<(), String> {
        if stats.digest() != want {
            return Err(format!(
                "digest {:#018x} differs from the 1-shard reference {want:#018x}",
                stats.digest()
            ));
        }
        Ok(())
    }

    /// One whole replay on the workload's own runtime: its statistics and
    /// the host time of `run_until` alone.
    fn replay_whole(&self) -> (NetStats, u64) {
        let mut rt = Runtime::build(self.cell, self.seed, self.cell.shards());
        let t0 = Instant::now();
        rt.run_until(HORIZON);
        let ns = t0.elapsed().as_nanos() as u64;
        (rt.stats(), ns)
    }
}

impl Workload for SimBench {
    fn slice(&mut self) -> Result<Slice, String> {
        let (mut rt, step) = self
            .replay
            .take()
            .unwrap_or_else(|| (Runtime::build(self.cell, self.seed, self.cell.shards()), 0));
        let before = rt.stats();
        let t0 = Instant::now();
        rt.run_until(REPLAY_HORIZON * Time::from(step + 1) / Time::from(self.cell.steps()));
        let ns = t0.elapsed().as_nanos() as u64;
        let after = rt.stats();
        if step + 1 == self.cell.steps() {
            Self::check(&after, self.replay_digest)?;
        } else {
            self.replay = Some((rt, step + 1));
        }
        Ok(Slice {
            ops: after.frames_delivered - before.frames_delivered,
            failed: wrong_hops(&after) - wrong_hops(&before),
            ns,
            phase: step,
        })
    }

    fn output_digest(&self) -> u64 {
        self.reference.digest()
    }

    fn traced(&mut self, tr: &mut Tracer, seconds: f64) -> Result<Vec<LayerValue>, String> {
        let mut out: Vec<LayerValue> = Vec::new();
        // Six measurements share the budget.
        let part = seconds / 6.0;
        let (cell, seed) = (self.cell, self.seed);
        let stats = self.reference;
        let hops = stats.frames_delivered;

        // Untraced whole replays, the base of trace_overhead_ratio.
        let base_ns = per_call_ns(tr, None, part, |_| {
            let (stats, ns) = self.replay_whole();
            (stats.frames_delivered, Some(ns))
        });

        // Replays with a span around every call into netsim/fabric. The
        // 1-shard `Network::run_until` runs for both cells: it is the
        // workload itself on `sim_dc` and the speed-up baseline on the WAN.
        let (mut build_s, mut install_s, mut split_s) = (Vec::new(), Vec::new(), Vec::new());
        let (mut single, mut sharded): (Vec<Sample>, Vec<Sample>) = (Vec::new(), Vec::new());
        let (mut to_hosts, mut lookahead, mut sharded_events) = (0u64, 0 as Time, 0u64);
        let started = Instant::now();
        while started.elapsed().as_secs_f64() < 2.0 * part || single.len() < 4 {
            let replay = tr.enter("sim_replay_traced");
            let sp = tr.enter("netsim.scenario.build");
            let mut t = cell.topology(seed).build();
            build_s.push(tr.exit(sp) as f64 / 1e9);
            let sp = tr.enter("fabric.workload.install");
            let delivered = install_traffic(&mut t.net, &t.hosts, &cell.traffic(seed));
            install_s.push(tr.exit(sp) as f64 / 1e9);
            if cell.shards() > 1 {
                // The sharded runtime consumes the network, so the baseline
                // runs on a second, identical build.
                let mut again = cell.topology(seed).build();
                install_traffic(&mut again.net, &again.hosts, &cell.traffic(seed));
                let sp = tr.enter("fabric.partition.split");
                let mut fabric = Fabric::new(again.net, cell.shards(), PartitionStrategy::Locality);
                split_s.push(tr.exit(sp) as f64 / 1e9);
                lookahead = fabric.lookahead();
                let sp = tr.enter("fabric.runtime.run");
                fabric.run_until(HORIZON);
                let ns = tr.exit(sp);
                Self::check(&fabric.stats(), stats.digest())?;
                sharded_events = fabric.stats().events_processed;
                sharded.push(Sample::new(hops, ns));
            }
            let sp = tr.enter("netsim.net.run");
            t.net.run_until(HORIZON);
            let ns = tr.exit(sp);
            Self::check(&t.net.stats, stats.digest())?;
            single.push(Sample::new(hops, ns));
            to_hosts = delivered.load(Ordering::Relaxed);
            tr.exit(replay);
        }
        let events = stats.events_processed as f64;
        let ns_per_hop = |v: &[Sample]| 1e9 / fast_rate(v);
        let single_ns = ns_per_hop(&single) * hops as f64;
        out.push(("netsim.scenario.build_s", median(&build_s)));
        out.push(("fabric.workload.install_s", median(&install_s)));
        out.push(("netsim.net.run_ns_per_event", single_ns / events));
        out.push(("netsim.engine.events_per_op", events / hops as f64));
        out.push((
            "netsim.net.rx_batch_mean",
            stats.rx_batch_frames as f64 / stats.rx_batches.max(1) as f64,
        ));
        out.push(("netsim.net.pool_retained", stats.pool_retained as f64));
        out.push(("netsim.net.drops_in_flight", stats.frames_dropped_in_flight as f64));
        let (hits, misses) = (stats.plan_cache_hits as f64, stats.plan_cache_misses as f64);
        out.push(("switch.plan_cache.hit_ratio", hits / (hits + misses).max(1.0)));
        out.push(("switch.plan_cache.misses", misses / hops as f64));
        out.push(("switch.plan_cache.evictions", stats.plan_cache_evictions as f64 / hops as f64));
        out.push(("switch.switch.drops", stats.switch_drops() as f64));
        tr.count("netsim.frames_delivered", hops as f64);
        tr.count("netsim.events_processed", events);
        tr.count("netsim.frames_to_hosts", to_hosts as f64);

        let traced_ns = if cell.shards() > 1 {
            let sharded_ns = ns_per_hop(&sharded) * hops as f64;
            out.push(("fabric.partition.split_s", median(&split_s)));
            out.push(("fabric.partition.lookahead_ns", lookahead as f64));
            out.push(("fabric.runtime.run_ns_per_event", sharded_ns / sharded_events as f64));
            out.push(("fabric.runtime.speedup_vs_1shard", single_ns / sharded_ns));
            out.push(("fabric.runtime.epochs_est", (HORIZON / lookahead.max(1)) as f64));
            sharded_ns
        } else {
            single_ns
        };
        out.push(("trace_overhead_ratio", traced_ns / hops as f64 / base_ns));

        // A bare scheduler fed this cell's event count at its mean
        // inter-event gap: a fixed backlog, each pop scheduling one event
        // 1/4x..2.25x the mean delay ahead.
        let n_events = stats.events_processed;
        let backlog = 64u64;
        let mean_delay = (HORIZON * backlog / n_events.max(1)).max(4);
        let sched_ns = per_call_ns(tr, Some("netsim.engine.sched"), part, |_| {
            let mut q: Scheduler<u64> = Scheduler::new();
            for i in 0..backlog {
                q.schedule_keyed(i * mean_delay / backlog, i % 7, i);
            }
            for i in 0..n_events {
                let (t, _) = q.pop().expect("backlog never drains");
                let factor = [1, 2, 4, 9][(i % 4) as usize];
                q.schedule_keyed(t + mean_delay * factor / 4, i % 7, i);
            }
            std::hint::black_box(q.len());
            (n_events, None)
        });
        out.push(("netsim.engine.sched_ns_per_event", sched_ns));

        // Share of the 1-shard run spent inside switches, from a private
        // switch fed the cell's traffic shape; the rest is coordinator,
        // links, host apps.
        let mut private = PrivateSwitch::sim_mix();
        let switch_ns = per_call_ns(tr, Some("switch.switch.sim_mix"), part, |_| {
            (CHUNK as u64, Some(private.forward(CHUNK)))
        });
        out.push(("netsim.net.switch_share_est", (hops - to_hosts) as f64 * switch_ns / single_ns));

        // Allocation counters over one replay on the workload's own runtime.
        let mut rt = Runtime::build(cell, seed, cell.shards());
        alloc_start();
        rt.run_until(HORIZON);
        let a = alloc_stop();
        out.push(("netsim.net.allocs_per_op", a.allocs as f64 / hops as f64));
        out.push(("netsim.net.live_bytes_peak", a.live_peak as f64));
        Ok(out)
    }
}

pub fn setup_dc(seed: u64) -> Result<Box<dyn Workload>, String> {
    Ok(Box::new(SimBench::new(Cell::Dc, seed)?))
}

pub fn setup_wan(seed: u64) -> Result<Box<dyn Workload>, String> {
    Ok(Box::new(SimBench::new(Cell::WanX2, seed)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The cell every BENCH file records, reproduced bit for bit, whole and
    /// in steps.
    #[test]
    fn sim_dc_seed_1_is_the_recorded_cell() {
        let mut b = SimBench::new(Cell::Dc, 1).unwrap();
        assert_eq!(b.reference.digest(), 0x5558_19b0_ef95_d160);
        assert_eq!(b.reference.frames_delivered, 212_308);
        assert_eq!(b.reference.events_processed, 604_264);
        assert_eq!(wrong_hops(&b.reference), 0);
        // A timed replay covers the first quarter of the cell, step by step.
        let stepped: Vec<Slice> = (0..16).map(|_| b.slice().unwrap()).collect();
        assert_eq!(
            stepped.iter().map(|s| s.phase).collect::<Vec<_>>(),
            (0..16).collect::<Vec<_>>()
        );
        let hops: u64 = stepped.iter().map(|s| s.ops).sum();
        assert!((212_308 / 5..212_308 / 3).contains(&hops), "{hops}");
        assert!(b.replay.is_none(), "the replay ends with the last step");
    }
}
