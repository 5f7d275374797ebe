//! Declarative experiments: a [`Scenario`] is *data* — topology ×
//! workload × shard count × duration — with one entry point that drives
//! either the single-threaded [`tpp_netsim::Network`] loop or the sharded
//! [`Fabric`] and returns one [`Cell`] of results.
//!
//! The point of the layer is the evaluation matrix (`eval_matrix` in
//! `tpp-bench`): sweep every topology family against every traffic
//! pattern at several shard counts from one binary, with the `NetStats`
//! digest proving that every multi-shard cell replayed the single-threaded
//! run bit-for-bit. Three knobs matter:
//!
//! * **Topology** — any [`TopologyBuilder`] (see
//!   [`tpp_netsim::scenario`]).
//! * **Workload** — a [`WorkloadSpec`]: a named [`TrafficConfig`] preset
//!   ([`WorkloadSpec::uniform`], [`WorkloadSpec::heavy_tailed`],
//!   [`WorkloadSpec::incast`], [`WorkloadSpec::shuffle`]). The in-band
//!   "app" is the §2.1 visibility TPP every `tpp_every`-th frame.
//! * **Fidelity** — [`Scenario::speedup`] divides the simulated horizon:
//!   `speedup(8)` runs one eighth of the configured duration, trading
//!   statistical weight for wall-clock time without touching per-frame
//!   fidelity (every frame still serializes, queues, and executes TPPs
//!   exactly). Digest cross-checks stay valid at any speedup because both
//!   runtimes see the same shrunk horizon.
//!
//! ```
//! use tpp_fabric::scenario::{Scenario, WorkloadSpec};
//! use tpp_netsim::{TopologySpec, MILLIS};
//!
//! let cell = Scenario::new(
//!     TopologySpec::Star { hosts: 4 }.builder(),
//!     WorkloadSpec::uniform(),
//! )
//! .duration_ns(2 * MILLIS)
//! .speedup(2)
//! .run();
//! assert!(cell.stats.frames_delivered > 0);
//! assert!(cell.to_json().starts_with('{'));
//! ```

use std::sync::atomic::Ordering;
use std::time::Instant;

use tpp_netsim::{ChurnSpec, NetStats, Time, TopologyBuilder, MILLIS};

use crate::partition::PartitionStrategy;
use crate::runtime::{ExecMode, Fabric};
use crate::workload::{install_traffic, TrafficConfig, TrafficPattern};

/// A named traffic workload: a preset name (used in matrix labels and
/// JSON) plus the full [`TrafficConfig`] it denotes. The config is public
/// — presets are starting points, not straitjackets.
#[derive(Clone, Debug)]
pub struct WorkloadSpec {
    /// Short label for matrix output (e.g. `uniform`, `incast2`).
    pub name: String,
    /// The traffic knobs handed to every host's [`crate::TrafficGen`].
    pub cfg: TrafficConfig,
}

impl WorkloadSpec {
    /// Uniform random destinations — the original scale workload.
    pub fn uniform() -> Self {
        WorkloadSpec { name: "uniform".into(), cfg: TrafficConfig::default() }
    }

    /// Pareto flow sizes (mean 48 frames): elephants and mice.
    pub fn heavy_tailed() -> Self {
        WorkloadSpec {
            name: "heavy_tailed".into(),
            cfg: TrafficConfig {
                pattern: TrafficPattern::HeavyTailed { mean_frames: 48 },
                ..TrafficConfig::default()
            },
        }
    }

    /// Fan-in onto the first `sinks` hosts; everyone else sends only.
    pub fn incast(sinks: usize) -> Self {
        WorkloadSpec {
            name: format!("incast{sinks}"),
            cfg: TrafficConfig {
                pattern: TrafficPattern::Incast { sinks },
                ..TrafficConfig::default()
            },
        }
    }

    /// All-to-all round-robin shuffle.
    pub fn shuffle() -> Self {
        WorkloadSpec {
            name: "shuffle".into(),
            cfg: TrafficConfig { pattern: TrafficPattern::Shuffle, ..TrafficConfig::default() },
        }
    }

    /// One-to-many fan-out: host 0 streams round-robin to every other
    /// host — the WAN video-multicast traffic shape.
    pub fn fan_out() -> Self {
        WorkloadSpec {
            name: "fan_out".into(),
            cfg: TrafficConfig { pattern: TrafficPattern::FanOut, ..TrafficConfig::default() },
        }
    }

    /// Cross-site transfers on a `MultiSite` fabric: every frame crosses
    /// a WAN link (see [`TrafficPattern::InterDcTransfer`]).
    pub fn inter_dc(sites: usize) -> Self {
        WorkloadSpec {
            name: format!("inter_dc{sites}"),
            cfg: TrafficConfig {
                pattern: TrafficPattern::InterDcTransfer { sites },
                ..TrafficConfig::default()
            },
        }
    }

    /// A fully custom workload under your own label.
    pub fn custom(name: impl Into<String>, cfg: TrafficConfig) -> Self {
        WorkloadSpec { name: name.into(), cfg }
    }

    /// Workload RNG seed (combined per host with the node id).
    pub fn seed(mut self, seed: u64) -> Self {
        self.cfg.seed = seed;
        self
    }

    /// Carry the visibility TPP on every `n`-th frame (0 = never) — the
    /// "app" axis of a scenario.
    pub fn tpp_every(mut self, n: usize) -> Self {
        self.cfg.tpp_every = n;
        self
    }
}

/// One experiment cell: topology + workload + runtime shape + duration.
/// Construct with [`Scenario::new`], refine with the builder methods, and
/// [`Scenario::run`] it for a [`Cell`].
#[derive(Clone, Debug)]
pub struct Scenario {
    /// Topology under test.
    pub topo: TopologyBuilder,
    /// Traffic under test.
    pub workload: WorkloadSpec,
    /// 1 runs the single-threaded [`tpp_netsim::Network`] loop; ≥ 2 runs
    /// the sharded [`Fabric`].
    pub shards: usize,
    /// How the fabric partitions nodes (ignored at 1 shard).
    pub strategy: PartitionStrategy,
    /// Workers driving the fabric's epoch loop (ignored at 1 shard).
    pub mode: ExecMode,
    /// Simulated horizon in nanoseconds, *before* the speedup division.
    pub duration_ns: Time,
    /// Fidelity knob: divide the horizon by this factor (≥ 1).
    pub speedup: u64,
    /// Runtime churn: compiled against the built network and installed
    /// before the runtime starts, for every shard count alike.
    pub churn: ChurnSpec,
}

impl Scenario {
    /// A scenario with defaults: 1 shard, locality partitioning,
    /// [`ExecMode::Auto`], 8 ms horizon, no speedup.
    pub fn new(topo: TopologyBuilder, workload: WorkloadSpec) -> Self {
        Scenario {
            topo,
            workload,
            shards: 1,
            strategy: PartitionStrategy::Locality,
            mode: ExecMode::Auto,
            duration_ns: 8 * MILLIS,
            speedup: 1,
            churn: ChurnSpec::None,
        }
    }

    /// Shard count (1 = single-threaded `Network`).
    pub fn shards(mut self, n: usize) -> Self {
        self.shards = n;
        self
    }

    /// Partitioning strategy for sharded runs.
    pub fn strategy(mut self, s: PartitionStrategy) -> Self {
        self.strategy = s;
        self
    }

    /// One worker or one per shard for sharded runs.
    pub fn mode(mut self, m: ExecMode) -> Self {
        self.mode = m;
        self
    }

    /// Simulated horizon (pre-speedup), in nanoseconds.
    pub fn duration_ns(mut self, ns: Time) -> Self {
        self.duration_ns = ns;
        self
    }

    /// Fidelity knob: run `duration_ns / factor` of simulated time.
    pub fn speedup(mut self, factor: u64) -> Self {
        self.speedup = factor;
        self
    }

    /// Runtime churn for the cell. The spec is compiled once against the
    /// built network and installed as a reconfiguration plan *before* the
    /// runtime starts, so the exact same plan rides through
    /// [`tpp_netsim::Network::split`] at every shard count — churned cells
    /// stay digest-comparable across shard counts.
    pub fn churn(mut self, churn: ChurnSpec) -> Self {
        self.churn = churn;
        self
    }

    /// The horizon actually simulated: `duration_ns / speedup`.
    pub fn effective_duration(&self) -> Time {
        self.duration_ns / self.speedup.max(1)
    }

    /// `topology:workload:shards`, the cell's identity in matrix output.
    pub fn label(&self) -> String {
        format!("{}:{}:x{}", self.topo.label(), self.workload.name, self.shards)
    }

    /// Build the topology, install the workload, run the chosen runtime to
    /// the (speedup-adjusted) horizon, and report the cell.
    pub fn run(&self) -> Cell {
        let horizon = self.effective_duration();
        let started = Instant::now();
        let mut t = self.topo.clone().build();
        let hosts = t.hosts.clone();
        let n_hosts = hosts.len();
        let n_switches = t.switches.len();
        let mut cfg = self.workload.cfg.clone();
        // Generators stop at the horizon at the latest; an explicit earlier
        // stop_at (e.g. the golden-digest 6 ms cutoff) is respected.
        cfg.stop_at = cfg.stop_at.min(horizon);
        let delivered = install_traffic(&mut t.net, &hosts, &cfg);
        for (at, action) in self.churn.compile(&t.net, horizon) {
            t.net.schedule_reconfig(at, action);
        }
        let stats = if self.shards <= 1 {
            t.net.run_until(horizon);
            t.net.stats
        } else {
            let mut fabric = Fabric::new(t.net, self.shards, self.strategy);
            fabric.set_mode(self.mode);
            fabric.run_until(horizon);
            fabric.stats()
        };
        Cell {
            topology: self.topo.label(),
            workload: self.workload.name.clone(),
            churn: self.churn.label().to_string(),
            shards: self.shards,
            speedup: self.speedup.max(1),
            duration_ns: horizon,
            hosts: n_hosts,
            switches: n_switches,
            delivered: delivered.load(Ordering::Relaxed),
            digest: stats.digest(),
            stats,
            wall_ms: started.elapsed().as_millis() as u64,
        }
    }
}

/// The result of one [`Scenario::run`]: identity, scale, counters, and
/// the determinism digest.
#[derive(Clone, Debug)]
pub struct Cell {
    /// Topology label (e.g. `fat_tree4`).
    pub topology: String,
    /// Workload label (e.g. `heavy_tailed`).
    pub workload: String,
    /// Churn label (`none`, `plan`, `link_flap`).
    pub churn: String,
    /// Shard count the cell ran at.
    pub shards: usize,
    /// Fidelity divisor the cell ran at.
    pub speedup: u64,
    /// Simulated nanoseconds (post-speedup).
    pub duration_ns: Time,
    /// Hosts in the topology.
    pub hosts: usize,
    /// Switches in the topology.
    pub switches: usize,
    /// Frames delivered to host apps (the shared workload counter).
    pub delivered: u64,
    /// Full simulator statistics.
    pub stats: NetStats,
    /// `stats.digest()` — equal across shard counts iff the runs matched.
    pub digest: u64,
    /// Wall-clock milliseconds for build + run.
    pub wall_ms: u64,
}

impl Cell {
    /// One JSON object (hand-rolled: the workspace carries no serde).
    /// `digest` and `trace` are hex strings — u64 magnitudes don't survive
    /// JSON number parsing everywhere.
    pub fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"schema\":2,\"topology\":\"{}\",\"workload\":\"{}\",",
                "\"churn\":\"{}\",",
                "\"shards\":{},\"speedup\":{},\"duration_ns\":{},",
                "\"hosts\":{},\"switches\":{},\"frames_delivered\":{},",
                "\"frames_dropped\":{},\"frames_corrupted\":{},",
                "\"reconfigs\":{},\"violations\":{},",
                "\"events\":{},",
                "\"plan_cache_hits\":{},\"plan_cache_misses\":{},",
                "\"plan_cache_evictions\":{},",
                "\"trace\":\"{:#018x}\",\"digest\":\"{:#018x}\",",
                "\"wall_ms\":{}}}"
            ),
            self.topology,
            self.workload,
            self.churn,
            self.shards,
            self.speedup,
            self.duration_ns,
            self.hosts,
            self.switches,
            self.stats.frames_delivered,
            self.stats.frames_dropped_in_flight,
            self.stats.frames_corrupted,
            self.stats.reconfigs_applied,
            self.stats.violations(),
            self.stats.events_processed,
            self.stats.plan_cache_hits,
            self.stats.plan_cache_misses,
            self.stats.plan_cache_evictions,
            self.stats.trace,
            self.digest,
            self.wall_ms,
        )
    }
}
