//! The sharded runtime: conservative lookahead epochs over shard kernels.
//!
//! A shard kernel is not a private engine: it is the same layered
//! `tpp-netsim` core — `Scheduler`, `LinkFabric`, `NodeStore` — driven
//! through the same `Network` coordinator, just with remote markers in the
//! node layer and the full port table in the link layer.
//! Each epoch simply calls the kernel's `run_until` and exchanges the link
//! layer's boundary frames at the barrier.
//!
//! Both executors — thread-per-shard and sequential — run the *same*
//! epoch/exchange schedule and therefore produce bit-identical results;
//! the sequential path exists for single-core machines (no barrier or
//! context-switch overhead, but still the smaller per-shard event queues
//! and working sets) and for debugging.

use std::sync::{Barrier, Mutex};

use tpp_netsim::{NetStats, Network, NodeId, RemoteFrame, Time};

use crate::partition::{lookahead, partition, PartitionStrategy};

/// How epochs are driven.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExecMode {
    /// Threads when the machine has ≥ 2 cores, sequential otherwise.
    Auto,
    /// One OS thread per shard, synchronized by a barrier per epoch.
    Threaded,
    /// All shards driven round-robin by the calling thread.
    Sequential,
}

/// A partitioned simulation: shard kernels plus the synchronization plan.
pub struct Fabric {
    shards: Vec<Network>,
    assignment: Vec<usize>,
    /// Minimum cross-shard link delay; `Time::MAX` when nothing crosses.
    lookahead: Time,
    /// Last barrier-synchronized time (`None` before the first window).
    synced: Option<Time>,
    mode: ExecMode,
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
        Fabric { shards, assignment, lookahead: la, synced: None, mode: ExecMode::Auto }
    }

    /// Select the executor (default [`ExecMode::Auto`]).
    pub fn set_mode(&mut self, mode: ExecMode) {
        self.mode = mode;
    }

    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// The conservative epoch length (min cross-shard delay), or
    /// `Time::MAX` when the shards are independent.
    pub fn lookahead(&self) -> Time {
        self.lookahead
    }

    /// The shard that owns `node`.
    pub fn shard_of(&self, node: NodeId) -> usize {
        self.assignment[node.0 as usize]
    }

    /// The shard kernels (read-only; handy for per-switch inspection).
    pub fn shards(&self) -> &[Network] {
        &self.shards
    }

    /// Total events pending across every shard's scheduler layer.
    pub fn pending_events(&self) -> usize {
        self.shards.iter().map(Network::pending_events).sum()
    }

    /// Read-only access to the kernel owning `node`.
    pub fn shard_for(&self, node: NodeId) -> &Network {
        &self.shards[self.shard_of(node)]
    }

    /// Downcast a host's application on its owning shard.
    pub fn app_mut<T: 'static>(&mut self, node: NodeId) -> &mut T {
        let s = self.shard_of(node);
        self.shards[s].app_mut(node)
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
        if self.shards.len() <= 1 || self.lookahead == Time::MAX {
            // No synchronization needed: shards share no links.
            for s in &mut self.shards {
                s.run_until(until);
            }
            self.synced = Some(self.synced.unwrap_or(0).max(until));
            return;
        }
        let threaded = match self.mode {
            ExecMode::Threaded => true,
            ExecMode::Sequential => false,
            ExecMode::Auto => {
                std::thread::available_parallelism().map(|p| p.get() >= 2).unwrap_or(false)
            }
        };
        if threaded {
            self.run_epochs_threaded(until);
        } else {
            self.run_epochs_sequential(until);
        }
        self.synced = Some(self.synced.unwrap_or(0).max(until));
    }

    /// Run for `dur` more nanoseconds, measured from the *barrier* time
    /// ([`Fabric::now`]) — not from the last processed event's timestamp
    /// the way `Network::run_for` measures. The two therefore cover
    /// different horizons for the same `dur`; drive differential
    /// comparisons with `run_until` and absolute times.
    pub fn run_for(&mut self, dur: Time) {
        let until = self.now().saturating_add(dur);
        self.run_until(until);
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

    /// Route one epoch's outbox frames to per-shard batches, sort each
    /// batch into its deterministic injection order, and inject.
    fn exchange(shards: &mut [Network], assignment: &[usize]) {
        let n = shards.len();
        let mut batches: Vec<Vec<RemoteFrame>> = (0..n).map(|_| Vec::new()).collect();
        for s in shards.iter_mut() {
            for f in s.take_outbox() {
                batches[assignment[f.node.0 as usize]].push(f);
            }
        }
        for (s, mut batch) in batches.into_iter().enumerate() {
            batch.sort_by_key(|f| (f.at, f.node.0, f.port, f.seq));
            for f in batch {
                shards[s].inject_remote(f);
            }
        }
    }

    fn run_epochs_sequential(&mut self, until: Time) {
        let la = self.lookahead;
        let mut synced = self.synced;
        loop {
            let target = Self::next_target(synced, la, until);
            for s in &mut self.shards {
                s.run_until(target);
            }
            Self::exchange(&mut self.shards, &self.assignment);
            synced = Some(target);
            if target >= until {
                break;
            }
        }
        self.synced = synced;
    }

    fn run_epochs_threaded(&mut self, until: Time) {
        let n = self.shards.len();
        let la = self.lookahead;
        let start_synced = self.synced;
        let barrier = Barrier::new(n);
        let inboxes: Vec<Mutex<Vec<RemoteFrame>>> =
            (0..n).map(|_| Mutex::new(Vec::new())).collect();
        let assignment = &self.assignment;
        std::thread::scope(|scope| {
            for (i, net) in self.shards.iter_mut().enumerate() {
                let barrier = &barrier;
                let inboxes = &inboxes;
                scope.spawn(move || {
                    let mut synced = start_synced;
                    loop {
                        let target = Self::next_target(synced, la, until);
                        net.run_until(target);
                        // Route this window's boundary frames. Grouping by
                        // destination shard first means each inbox is
                        // locked once per window; the stable sort keeps
                        // per-link transmit order intact.
                        let mut out = net.take_outbox();
                        out.sort_by_key(|f| assignment[f.node.0 as usize]);
                        let mut it = out.into_iter().peekable();
                        while let Some(first) = it.peek() {
                            let dst = assignment[first.node.0 as usize];
                            let mut lock = inboxes[dst].lock().unwrap();
                            while let Some(f) = it.peek() {
                                if assignment[f.node.0 as usize] != dst {
                                    break;
                                }
                                lock.push(it.next().unwrap());
                            }
                        }
                        // Everyone has routed this window's frames.
                        barrier.wait();
                        // Inject whatever has been routed to us so far.
                        // (A fast neighbor may already have pushed frames
                        // from its *next* window; their arrival times are
                        // beyond our next target, so early injection is
                        // harmless.)
                        let mut incoming = std::mem::take(&mut *inboxes[i].lock().unwrap());
                        incoming.sort_by_key(|f| (f.at, f.node.0, f.port, f.seq));
                        for f in incoming {
                            net.inject_remote(f);
                        }
                        synced = Some(target);
                        if target >= until {
                            break;
                        }
                    }
                });
            }
        });
    }
}
