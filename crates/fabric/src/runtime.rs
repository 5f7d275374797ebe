//! The sharded runtime: conservative lookahead epochs over shard kernels.
//!
//! A shard kernel is not a private engine: it is the same layered
//! `tpp-netsim` core — `Scheduler`, `LinkFabric`, `NodeStore` — driven
//! through the same `Network` coordinator, just with remote markers in the
//! node layer and the full port table in the link layer.
//! Each epoch simply calls the kernel's `run_until` and exchanges the link
//! layer's boundary frames at the barrier.
//!
//! One epoch loop does this, run by one worker per shard or by one worker
//! for all of them. Windows, routing and injection order do not depend on
//! the worker count, so every count produces bit-identical results; one
//! worker (the calling thread, nothing spawned) serves single-core machines,
//! which keep the smaller per-shard event queues, and debugging.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Barrier, Mutex};

use tpp_netsim::{HostApp, NetStats, Network, NodeId, RemoteFrame, Time};

use crate::partition::{lookahead, partition, PartitionStrategy};

/// How many workers drive the epoch loop.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExecMode {
    /// Threads when the machine has ≥ 2 cores, sequential otherwise.
    Auto,
    /// One worker per shard (the calling thread is one of them),
    /// synchronized by a barrier per epoch.
    Threaded,
    /// One worker: all shards driven round-robin by the calling thread.
    Sequential,
}

/// A partitioned simulation: shard kernels plus the synchronization plan.
///
/// Scaling a scenario up is three lines:
///
/// ```
/// use tpp_fabric::{install_traffic, Fabric, PartitionStrategy, TrafficConfig, TrafficGen};
/// use tpp_netsim::{TopologySpec, MILLIS};
/// let cfg = TrafficConfig { stop_at: MILLIS / 4, ..TrafficConfig::default() };
/// let mut t = TopologySpec::FatTree { k: 4 }.builder().link_mbps(10_000).delay_ns(1_000).build();
/// install_traffic(&mut t.net, &t.hosts, &cfg);
/// let mut fabric = Fabric::new(t.net, 4, PartitionStrategy::Locality);
/// fabric.run_until(MILLIS / 2); // apps implement HostApp, unchanged
/// let app = fabric.app_mut::<TrafficGen>(t.hosts[0]);
/// assert!(app.delivered.load(std::sync::atomic::Ordering::Relaxed) > 0);
/// ```
pub struct Fabric {
    shards: Vec<Network>,
    assignment: Vec<usize>,
    /// Minimum cross-shard link delay; `Time::MAX` when nothing crosses.
    lookahead: Time,
    /// Last barrier-synchronized time (`None` before the first window).
    synced: Option<Time>,
    mode: ExecMode,
    /// Whether the machine has at least two cores, asked once per fabric:
    /// the answer reads cgroup files, which takes tens of microseconds, and
    /// `run_until` is called once per step.
    multicore: bool,
    /// Boundary frames routed to each shard and not yet injected. Empty
    /// between calls: every window's frames are injected before it ends.
    inboxes: Vec<Mutex<Vec<RemoteFrame>>>,
}

impl Fabric {
    /// Partition a freshly built network into `n_shards` kernels.
    ///
    /// The network must not have started running (see
    /// [`Network::split`]); set applications and link faults first.
    pub fn new(net: Network, n_shards: usize, strategy: PartitionStrategy) -> Fabric {
        let assignment = partition(&net, n_shards, strategy);
        Self::from_assignment(net, assignment, n_shards)
    }

    /// Partition with an explicit, caller-computed assignment.
    pub fn from_assignment(net: Network, assignment: Vec<usize>, n_shards: usize) -> Fabric {
        let la = lookahead(&net, &assignment).unwrap_or(Time::MAX);
        assert!(
            la > 0,
            "zero-delay links may not cross shards (the partitioner never does this; \
             explicit assignments must respect it too)"
        );
        let shards = net.split(&assignment, n_shards);
        let inboxes = (0..n_shards).map(|_| Mutex::new(Vec::new())).collect();
        let multicore = std::thread::available_parallelism().is_ok_and(|p| p.get() >= 2);
        Fabric {
            shards,
            assignment,
            lookahead: la,
            synced: None,
            mode: ExecMode::Auto,
            multicore,
            inboxes,
        }
    }

    /// Select the worker count (default [`ExecMode::Auto`]).
    pub fn set_mode(&mut self, mode: ExecMode) {
        self.mode = mode;
    }

    /// The conservative epoch length (min cross-shard delay), or
    /// `Time::MAX` when the shards are independent.
    pub fn lookahead(&self) -> Time {
        self.lookahead
    }

    /// Merged statistics across shards. `trace` folds commutatively, so
    /// the merged [`NetStats::digest`] is comparable with a
    /// single-threaded run of the same scenario and seed.
    pub fn stats(&self) -> NetStats {
        let mut out = NetStats::default();
        for s in &self.shards {
            out.merge(&s.stats);
        }
        out
    }

    /// [`Network::app_mut`] on the shard that owns the host.
    pub fn app_mut<T: HostApp>(&mut self, id: NodeId) -> &mut T {
        self.shards[self.assignment[id.0 as usize]].app_mut(id)
    }

    /// A switch, from the shard that owns it.
    pub fn switch(&self, id: NodeId) -> &tpp_switch::Switch {
        self.shards[self.assignment[id.0 as usize]].switch(id)
    }

    /// The fabric-wide clock: the barrier time every shard has reached.
    pub fn now(&self) -> Time {
        self.synced.unwrap_or(0)
    }

    /// Advance every shard to `until`, exchanging cross-shard frames at
    /// conservative epoch boundaries. Times the fabric has already reached
    /// are a no-op — the clock never moves backwards.
    pub fn run_until(&mut self, until: Time) {
        if self.synced.is_some_and(|t| until <= t) {
            return;
        }
        let threaded = match self.mode {
            ExecMode::Threaded => true,
            ExecMode::Sequential => false,
            ExecMode::Auto => self.multicore,
        };
        self.run_epochs(until, if threaded { self.shards.len() } else { 1 });
    }

    /// The epoch schedule: after a barrier at `synced`, every event a shard
    /// processes in `(synced, synced + L]` produces cross-shard arrivals
    /// strictly later than `synced + L`, so windows of length `L` are safe.
    /// Before the first barrier events at t = 0 are still pending, so the
    /// first window must end at `L - 1`.
    fn next_target(synced: Option<Time>, la: Time, until: Time) -> Time {
        match synced {
            None => (la - 1).min(until),
            Some(t) => t.saturating_add(la).min(until),
        }
    }

    /// The one epoch loop. Worker `w` of `workers` drives shards `w`,
    /// `w + workers`, … through every window: run each to the target and
    /// route its boundary frames into the owners' inboxes, wait until every
    /// worker has, then inject its own inboxes in their deterministic order.
    /// The calling thread is worker 0, so one worker spawns nothing. A
    /// window that panics still reaches its barrier; every worker leaves the
    /// loop there and the first panic is re-raised on the caller.
    fn run_epochs(&mut self, until: Time, workers: usize) {
        let (la, start_synced) = (self.lookahead, self.synced);
        let (assignment, inboxes) = (&self.assignment, &self.inboxes);
        let barrier = Barrier::new(workers);
        // A worker reads this after barrier `k` while a faster one may
        // already be failing in window `k + 1`, so it holds the epoch, not
        // a flag: everyone must leave at the same barrier.
        let failed_epoch = AtomicUsize::new(usize::MAX);
        let first_panic = Mutex::new(None);
        let mut shares: Vec<Vec<_>> = (0..workers).map(|_| Vec::new()).collect();
        for (i, net) in self.shards.iter_mut().enumerate() {
            shares[i % workers].push((i, net));
        }
        let work = |mut mine: Vec<(usize, &mut Network)>| {
            let mut synced = start_synced;
            for epoch in 0.. {
                let target = Self::next_target(synced, la, until);
                let window = catch_unwind(AssertUnwindSafe(|| {
                    for (_, net) in &mut mine {
                        net.run_until(target);
                        for f in net.take_outbox() {
                            let owner = assignment[f.node.0 as usize];
                            inboxes[owner].lock().expect(UNPOISONED).push(f);
                        }
                    }
                }));
                if let Err(payload) = window {
                    failed_epoch.store(epoch, Ordering::SeqCst);
                    first_panic.lock().expect(UNPOISONED).get_or_insert(payload);
                }
                // Everyone has routed this window's frames.
                barrier.wait();
                if failed_epoch.load(Ordering::SeqCst) == epoch {
                    return;
                }
                // Inject whatever has been routed to us so far. A fast
                // neighbor may already have pushed frames from its *next*
                // window: they arrive beyond our next target, so harmlessly.
                for (i, net) in &mut mine {
                    let mut inbox = inboxes[*i].lock().expect(UNPOISONED);
                    inbox.sort_by_key(|f| (f.at, f.node.0, f.port, f.seq));
                    for f in inbox.drain(..) {
                        net.inject_remote(f);
                    }
                }
                synced = Some(target);
                if target >= until {
                    return;
                }
            }
        };
        std::thread::scope(|scope| {
            let mut shares = shares.into_iter();
            let mine = shares.next().expect("a fabric has at least one shard, so one worker");
            for theirs in shares {
                scope.spawn(|| work(theirs));
            }
            work(mine);
        });
        if let Some(payload) = first_panic.lock().expect(UNPOISONED).take() {
            resume_unwind(payload);
        }
        self.synced = Some(until);
    }
}

/// A window, the one place a panic is caught, holds no lock while a shard runs.
const UNPOISONED: &str = "no lock is held while a shard runs its window";

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{install_traffic, TrafficConfig};
    use tpp_netsim::{TopologySpec, MILLIS};

    /// `ExecMode` reaches one worker and one per shard; on 4 shards, 2 and 3
    /// workers also exercise a worker that strides over several shards and
    /// workers with unequal shares.
    #[test]
    fn every_worker_count_lands_on_the_same_stats() {
        let run = |workers: usize| {
            let mut t = TopologySpec::FatTree { k: 4 }
                .builder()
                .link_mbps(1000)
                .delay_ns(1000)
                .seed(9)
                .build();
            let hosts = t.hosts.clone();
            install_traffic(&mut t.net, &hosts, &TrafficConfig::default());
            let mut fabric = Fabric::new(t.net, 4, PartitionStrategy::RoundRobin);
            // Two calls: the second resumes from a barrier, not from t = 0.
            fabric.run_epochs(MILLIS / 2, workers);
            fabric.run_epochs(2 * MILLIS, workers);
            assert!(fabric.inboxes.iter().all(|i| i.lock().unwrap().is_empty()));
            fabric.stats()
        };
        let reference = run(1);
        assert!(reference.frames_delivered > 1000, "the cell must carry traffic: {reference:?}");
        for workers in 2..=4 {
            assert_eq!(run(workers), reference, "{workers} workers");
        }
    }
}
