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
//!
//! The calling thread is always worker 0. The others are *helpers*: threads
//! of a process-wide set that park between runs and never exit. A run
//! checks out the helpers it needs, spawning one only when every existing
//! helper is busy, moves each its shards by value, and takes them back
//! when the run ends. A helper that exited after every run would hand its
//! malloc cache back, and the next run would page the frame buffers in
//! again: on the two-site WAN cell that was several hundred minor page
//! faults per 2 ms replay, where parked helpers take almost none.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Condvar, Mutex, MutexGuard, PoisonError};

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
    /// The shard kernels, in shard order. Empty only inside a run, while
    /// the workers own them.
    shards: Vec<Network>,
    /// What every worker of a run reads: the plan, the inboxes, the barrier.
    epochs: Arc<Epochs>,
    /// Last barrier-synchronized time (`None` before the first window).
    synced: Option<Time>,
    mode: ExecMode,
    /// Whether the machine has at least two cores, asked once per fabric:
    /// the answer reads cgroup files, which takes tens of microseconds, and
    /// `run_until` is called once per step.
    multicore: bool,
    /// The calling thread's shards during a run, and every shard on its way
    /// back into `shards` after it. Empty between calls; kept for its
    /// capacity, like `helpers`.
    mine: Vec<(usize, Network)>,
    /// The helpers checked out for the run in progress.
    helpers: Vec<Arc<Helper>>,
}

/// The state one run's workers share. It lives as long as its fabric, so a
/// run allocates nothing to start.
struct Epochs {
    assignment: Vec<usize>,
    /// Minimum cross-shard link delay; `Time::MAX` when nothing crosses.
    lookahead: Time,
    /// Boundary frames routed to each shard and not yet injected, one set
    /// per epoch parity: window `k` routes into set `k % 2`, so a fast
    /// worker's next window never pushes into an inbox that is being
    /// drained, and each inbox grows the same way in every run. Empty
    /// between calls: every window's frames are injected before it ends.
    inboxes: [Vec<Mutex<Vec<RemoteFrame>>>; 2],
    /// The worker count `barrier` was built for.
    workers: usize,
    barrier: Barrier,
    /// A worker reads this after barrier `k` while a faster one may already
    /// be failing in window `k + 1`, so it holds the epoch, not a flag:
    /// everyone must leave at the same barrier.
    failed_epoch: AtomicUsize,
    first_panic: Mutex<Option<Box<dyn Any + Send>>>,
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
        let inboxes = || (0..n_shards).map(|_| Mutex::new(Vec::new())).collect();
        let multicore = std::thread::available_parallelism().is_ok_and(|p| p.get() >= 2);
        let epochs = Epochs {
            assignment,
            lookahead: la,
            inboxes: [inboxes(), inboxes()],
            workers: 1,
            barrier: Barrier::new(1),
            failed_epoch: AtomicUsize::new(usize::MAX),
            first_panic: Mutex::new(None),
        };
        Fabric {
            shards,
            epochs: Arc::new(epochs),
            synced: None,
            mode: ExecMode::Auto,
            multicore,
            mine: Vec::new(),
            helpers: Vec::new(),
        }
    }

    /// Select the worker count (default [`ExecMode::Auto`]).
    pub fn set_mode(&mut self, mode: ExecMode) {
        self.mode = mode;
    }

    /// The conservative epoch length (min cross-shard delay), or
    /// `Time::MAX` when the shards are independent.
    pub fn lookahead(&self) -> Time {
        self.epochs.lookahead
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
        self.shards[self.epochs.assignment[id.0 as usize]].app_mut(id)
    }

    /// A switch, from the shard that owns it.
    pub fn switch(&self, id: NodeId) -> &tpp_switch::Switch {
        self.shards[self.epochs.assignment[id.0 as usize]].switch(id)
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

    /// One run of the epoch loop ([`Epochs::run`]) by `workers` workers.
    /// Worker `w` drives shards `w`, `w + workers`, …; the calling thread
    /// is worker 0, so one worker checks out no helper. Every shard comes
    /// back in shard order, and the first panic of any worker is re-raised
    /// here.
    fn run_epochs(&mut self, until: Time, workers: usize) {
        if self.epochs.workers != workers {
            let epochs =
                Arc::get_mut(&mut self.epochs).expect("no helper holds the epochs between runs");
            epochs.workers = workers;
            epochs.barrier = Barrier::new(workers);
        }
        self.epochs.failed_epoch.store(usize::MAX, Ordering::SeqCst);
        self.helpers.extend((1..workers).map(|_| Helper::check_out()));
        for (i, net) in self.shards.drain(..).enumerate() {
            match i % workers {
                0 => self.mine.push((i, net)),
                w => self.helpers[w - 1].slot().shards.push((i, net)),
            }
        }
        let synced = self.synced;
        for helper in &self.helpers {
            let epochs = Arc::clone(&self.epochs);
            helper.slot().job = Some(Job { epochs, synced, until });
            helper.wake.notify_one();
        }
        self.epochs.run(&mut self.mine, synced, until);
        for helper in self.helpers.drain(..) {
            let slot = helper.slot();
            let mut slot = helper.wake.wait_while(slot, |s| !s.done).expect(UNPOISONED);
            slot.done = false;
            self.mine.append(&mut slot.shards);
            drop(slot);
            IDLE.lock().expect(UNPOISONED).push(helper);
        }
        self.mine.sort_unstable_by_key(|&(i, _)| i);
        self.shards.extend(self.mine.drain(..).map(|(_, net)| net));
        if let Some(payload) = self.epochs.first_panic.lock().expect(UNPOISONED).take() {
            resume_unwind(payload);
        }
        self.synced = Some(until);
    }
}

impl Epochs {
    /// The epoch schedule: after a barrier at `synced`, every event a shard
    /// processes in `(synced, synced + L]` produces cross-shard arrivals
    /// strictly later than `synced + L`, so windows of length `L` are safe.
    /// Before the first barrier events at t = 0 are still pending, so the
    /// first window must end at `L - 1`.
    fn next_target(&self, synced: Option<Time>, until: Time) -> Time {
        match synced {
            None => (self.lookahead - 1).min(until),
            Some(t) => t.saturating_add(self.lookahead).min(until),
        }
    }

    /// The one epoch loop, run by the caller and by every helper on its own
    /// shards. Each step injects what the window before routed to them, in
    /// its deterministic order, runs them to the target and routes their
    /// boundary frames into the owners' inboxes; then it waits until every
    /// worker has. The last window's frames are injected after its barrier.
    /// A step that panics still reaches its barrier; every worker leaves
    /// the loop there and the first panic is kept for the caller.
    fn run(&self, mine: &mut [(usize, Network)], mut synced: Option<Time>, until: Time) {
        let mut epoch = 0;
        loop {
            let target = self.next_target(synced, until);
            let step = catch_unwind(AssertUnwindSafe(|| {
                // Before the first window this set is empty.
                self.inject(mine, (epoch + 1) % 2);
                for (_, net) in mine.iter_mut() {
                    net.run_until(target);
                    for f in net.take_outbox() {
                        self.inbox(epoch % 2, self.assignment[f.node.0 as usize]).push(f);
                    }
                }
            }));
            if let Err(payload) = step {
                self.fail(epoch, payload);
            }
            // Everyone has routed this window's frames.
            self.barrier.wait();
            if self.failed_epoch.load(Ordering::SeqCst) == epoch {
                return;
            }
            if target >= until {
                break;
            }
            synced = Some(target);
            epoch += 1;
        }
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| self.inject(mine, epoch % 2))) {
            self.fail(epoch, payload);
        }
    }

    /// Inject the frames routed to `mine` in the inbox set `parity`, sorted
    /// by `(arrival, node, port, link sequence)`. That key is unique, so an
    /// unstable sort, which needs no scratch space, gives the one order.
    fn inject(&self, mine: &mut [(usize, Network)], parity: usize) {
        for (i, net) in mine {
            let mut inbox = self.inbox(parity, *i);
            inbox.sort_unstable_by_key(|f| (f.at, f.node.0, f.port, f.seq));
            for f in inbox.drain(..) {
                net.inject_remote(f);
            }
        }
    }

    /// A panic while injecting poisons the inbox, whose `Vec` stays whole;
    /// the run re-raises that panic anyway.
    fn inbox(&self, parity: usize, shard: usize) -> MutexGuard<'_, Vec<RemoteFrame>> {
        self.inboxes[parity][shard].lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn fail(&self, epoch: usize, payload: Box<dyn Any + Send>) {
        self.failed_epoch.store(epoch, Ordering::SeqCst);
        self.first_panic.lock().expect(UNPOISONED).get_or_insert(payload);
    }
}

/// A parked helper thread and the slot through which it is handed a run.
struct Helper {
    slot: Mutex<Slot>,
    /// Signals a job to the helper, and `done` back to the caller.
    wake: Condvar,
}

struct Slot {
    /// The run to join, set by the caller and taken by the helper.
    job: Option<Job>,
    /// The helper's shards, handed over before the job and back with
    /// `done`. Empty while parked; kept for its capacity.
    shards: Vec<(usize, Network)>,
    done: bool,
}

struct Job {
    epochs: Arc<Epochs>,
    synced: Option<Time>,
    until: Time,
}

/// The parked helpers. The set grows only when a run finds it empty, so it
/// holds the most helpers ever in use at once.
static IDLE: Mutex<Vec<Arc<Helper>>> = Mutex::new(Vec::new());

impl Helper {
    /// A parked helper, or a new one when every helper is in a run.
    fn check_out() -> Arc<Helper> {
        if let Some(helper) = IDLE.lock().expect(UNPOISONED).pop() {
            return helper;
        }
        let slot = Slot { job: None, shards: Vec::new(), done: false };
        let helper = Arc::new(Helper { slot: Mutex::new(slot), wake: Condvar::new() });
        let parked = Arc::clone(&helper);
        // Never joined: the helper never returns, and a panic in its share
        // reaches the run's caller through `Epochs::first_panic`.
        std::thread::Builder::new()
            .name("tpp-fabric-helper".into())
            .spawn(move || parked.serve())
            .expect("the fabric spawns a helper thread");
        helper
    }

    fn slot(&self) -> MutexGuard<'_, Slot> {
        self.slot.lock().expect(UNPOISONED)
    }

    /// The helper's life: wait for a job, run it, hand the shards back.
    /// [`Epochs::run`] catches every panic, so this never ends.
    fn serve(&self) {
        loop {
            let (job, mut mine) = {
                let parked = self.wake.wait_while(self.slot(), |s| s.job.is_none());
                let mut slot = parked.expect(UNPOISONED);
                (slot.job.take().expect("woken with a job"), std::mem::take(&mut slot.shards))
            };
            job.epochs.run(&mut mine, job.synced, job.until);
            // Dropped before `done`: between runs the fabric alone holds
            // its epochs.
            drop(job);
            let mut slot = self.slot();
            slot.shards = mine;
            slot.done = true;
            self.wake.notify_one();
        }
    }
}

/// A step, the one place a panic is caught, holds no lock but an inbox's.
const UNPOISONED: &str = "no lock but an inbox's is held while a shard runs";

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
            assert!(fabric.epochs.inboxes.iter().flatten().all(|i| i.lock().unwrap().is_empty()));
            fabric.stats()
        };
        let reference = run(1);
        assert!(reference.frames_delivered > 1000, "the cell must carry traffic: {reference:?}");
        for workers in 2..=4 {
            assert_eq!(run(workers), reference, "{workers} workers");
        }
    }
}
