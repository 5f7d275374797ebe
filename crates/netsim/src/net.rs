//! The network coordinator: three layers and the event loop.
//!
//! The model is deliberately explicit (smoltcp-style simplicity): every
//! packet is a real Ethernet frame (`Vec<u8>`); switches and hosts parse
//! and rewrite actual bytes, so the full wire-format code path is exercised
//! on every hop.
//!
//! # The three layers
//!
//! [`Network`] itself is a thin coordinator over three explicit layers,
//! each ignorant of the others:
//!
//! * [`Scheduler`] — the event queue (see [`crate::engine`]): time and
//!   ordering.
//! * [`LinkFabric`] — link wiring, rate/delay computation, per-link fault
//!   RNG streams and transmit sequence numbers, and the per-`(node, port)`
//!   in-flight frame queues.
//! * [`NodeStore`] — switches, hosts, remote markers, and the
//!   [`FramePool`] buffer freelist.
//!
//! The coordinator owns only the glue: event dispatch, host effect
//! application, statistics, and the cross-shard outbox. A `tpp-fabric`
//! shard drives the *same* three layers through the same coordinator — a
//! shard kernel is not a different engine, just a `Network` whose node
//! store holds `Remote` markers for non-local slots.
//!
//! # The event loop
//!
//! [`Network::run_until`] is the plain discrete-event loop: peek the next
//! timestamp, pop one event, dispatch it. Handlers that schedule new events
//! at the current timestamp need no special case — the scheduler merges
//! them into `(key, insertion)` order before the next pop.
//!
//! # The network as a shard kernel
//!
//! Three properties make one kernel serve both the single-threaded and the
//! sharded runtime:
//!
//! * **Content-keyed event ordering** — same-timestamp events are ordered
//!   by a key packed from `(kind, node, port/token)`, never by insertion
//!   order, so a per-shard queue breaks ties exactly like the global one.
//! * **Per-link fault streams** — every `(node, port)` transmitter owns an
//!   independent RNG seeded from `(network seed, node, port)`. Drop and
//!   corruption draws depend only on the order of frames through that one
//!   link, which sharding preserves, not on global event interleaving.
//! * **Remote peers** — a node slot can be a remote marker (see
//!   [`Network::split`]). Frames transmitted toward a remote peer are
//!   diverted into an *outbox* of [`RemoteFrame`]s instead of the local
//!   event queue; the fabric routes them to the owning shard, which
//!   re-injects them with [`Network::inject_remote`].

use crate::engine::{Scheduler, Time, MILLIS};
use crate::link::LinkFabric;
use crate::nodes::{NodeKind, NodeStore};
use crate::reconfig::{ReconfigAction, ReconfigPlan};
use tpp_core::wire::{EthernetAddress, Ipv4Address};
use tpp_switch::{DropReason, ReceiveOutcome, Switch, SwitchConfig};

pub use crate::link::LinkSpec;
pub use crate::nodes::{FramePool, Host};

/// Identifies a node (switch or host) in the network.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

/// `SplitMix64` finalizer: the workspace's standard cheap bit mixer.
#[inline]
pub(crate) fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;
/// Longest run of all-zero words [`fnv1a`] folds into one multiply; a longer
/// run takes one more per `ZERO_RUN_MAX` words. 64 words cover the 256-byte
/// payload of a traffic-generator frame in one step and a 1,000-byte one in two.
/// The run is counted a 64-byte block at a time where a whole block is zero
/// (one OR of four `u128`s), so finding it costs one test per block, not
/// one per word.
const ZERO_RUN_MAX: usize = 64;
/// `FNV_PRIME^(8 n) mod 2^64` at index `n`: the `8 n` FNV-1a steps over a run
/// of `n` all-zero words, folded into one factor.
const ZERO_RUN_POW: [u64; ZERO_RUN_MAX + 1] = {
    let mut pow = [1u64; ZERO_RUN_MAX + 1];
    let mut n = 1;
    while n <= ZERO_RUN_MAX {
        pow[n] = FNV_PRIME.wrapping_pow(8 * n as u32);
        n += 1;
    }
    pow
};

/// One FNV-1a step per byte: `h = (h ^ b) * FNV_PRIME`, wrapping.
#[inline]
fn fnv1a_bytes(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h = (h ^ b as u64).wrapping_mul(FNV_PRIME);
    }
    h
}

/// The FNV-1a steps over `n` all-zero words: a zero byte leaves `h ^ b == h`,
/// so each step is a bare multiply by the prime and the run is one multiply
/// by a power of it.
#[inline]
fn fnv1a_zero_words(mut h: u64, mut n: usize) -> u64 {
    while n > ZERO_RUN_MAX {
        h = h.wrapping_mul(ZERO_RUN_POW[ZERO_RUN_MAX]);
        n -= ZERO_RUN_MAX;
    }
    h.wrapping_mul(ZERO_RUN_POW[n])
}

/// 64-bit FNV-1a over a byte slice: the frame hash of the trace digest (see
/// [`NetStats::trace`]). The value is the standard byte-serial FNV-1a on
/// every input; only the walk differs. It counts consecutive all-zero 8-byte
/// words and folds each run with [`fnv1a_zero_words`]: simulated payloads and
/// unwritten TPP packet memory are runs of zero bytes, which makes this the
/// common case and takes the dependent multiply per word out of it. A 64-byte
/// block that is zero as a whole adds its eight words to the run in one test;
/// any other block is walked a word at a time, and every non-zero word, and
/// the tail, take the byte steps.
#[inline]
fn fnv1a(bytes: &[u8]) -> u64 {
    let (blocks, rest) = bytes.as_chunks::<64>();
    let (mut h, mut zero_words) = (FNV_OFFSET, 0);
    for block in blocks {
        if is_zero_block(block) {
            zero_words += 8;
        } else {
            (h, zero_words) = fnv1a_words(h, zero_words, block.as_chunks::<8>().0);
        }
    }
    let (words, tail) = rest.as_chunks::<8>();
    let (h, zero_words) = fnv1a_words(h, zero_words, words);
    fnv1a_bytes(fnv1a_zero_words(h, zero_words), tail)
}

/// The word walk of [`fnv1a`]: continues a run of `zero_words` through
/// `words` and returns the hash and the run still open at the end.
#[inline]
fn fnv1a_words(mut h: u64, mut zero_words: usize, words: &[[u8; 8]]) -> (u64, usize) {
    for w in words {
        if u64::from_ne_bytes(*w) == 0 {
            zero_words += 1;
        } else {
            h = fnv1a_bytes(fnv1a_zero_words(h, zero_words), w);
            zero_words = 0;
        }
    }
    (h, zero_words)
}

#[inline]
fn is_zero_block(block: &[u8; 64]) -> bool {
    block.as_chunks::<16>().0.iter().fold(0, |acc, &lane| acc | u128::from_ne_bytes(lane)) == 0
}

/// The interface hosts implement to participate in the simulation.
///
/// Hosts are woken by frame arrivals and timers; they act through
/// [`HostCtx`]. Implementations live in `tpp-endhost` and `tpp-apps`.
/// `Send` is a supertrait so the same application runs unchanged on the
/// single-threaded [`Network`] loop and on a `tpp-fabric` shard thread.
pub trait HostApp: Send {
    /// Called once before the first event is processed.
    fn start(&mut self, _ctx: &mut HostCtx<'_>) {}
    /// A frame arrived at the host NIC.
    fn on_frame(&mut self, _ctx: &mut HostCtx<'_>, _frame: Vec<u8>) {}
    /// A timer set via [`HostCtx::set_timer`] fired.
    fn on_timer(&mut self, _ctx: &mut HostCtx<'_>, _token: u64) {}
    /// Escape hatch for experiment drivers to inspect app state after (or
    /// during) a run.
    fn as_any(&mut self) -> &mut dyn std::any::Any;
}

/// A no-op application (e.g. a pure sink).
pub struct NullApp;
impl HostApp for NullApp {
    fn as_any(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// What a host can do when woken.
pub struct HostCtx<'a> {
    pub now: Time,
    pub node: NodeId,
    pub ip: Ipv4Address,
    pub mac: EthernetAddress,
    effects: &'a mut Vec<Effect>,
    pool: &'a mut FramePool,
}

enum Effect {
    Send(Vec<u8>),
    Timer { at: Time, token: u64 },
    Violation(ViolationKind),
}

/// What a transient-safety monitor observed going wrong during a
/// convergence window (see `tpp_apps::transient`). Recorded into
/// [`NetStats`] via [`HostCtx::record_violation`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ViolationKind {
    /// A probe's packet history visited the same switch twice: a transient
    /// forwarding loop (terminated by the TTL guard in the switch path).
    Loop,
    /// A probe was lost after all retries: traffic blackholed, e.g. by a
    /// withdrawn route.
    Blackhole,
    /// A probe completed over a path outside the allowed set.
    PathConformance,
}

impl HostCtx<'_> {
    /// Queue a frame for transmission on the host NIC.
    pub fn send(&mut self, frame: Vec<u8>) {
        self.effects.push(Effect::Send(frame));
    }
    /// Request a timer callback at `now + delay`; a delay that would pass
    /// the end of time (`Time::MAX`, "never") lands there.
    pub fn set_timer(&mut self, delay: Time, token: u64) {
        self.effects.push(Effect::Timer { at: self.now.saturating_add(delay), token });
    }
    /// Request a timer callback at an absolute time.
    pub fn set_timer_at(&mut self, at: Time, token: u64) {
        self.effects.push(Effect::Timer { at: at.max(self.now), token });
    }
    /// A cleared, possibly recycled buffer for building a frame to
    /// [`send`](HostCtx::send). Pairs with [`recycle`](HostCtx::recycle):
    /// a traffic source that sinks its peers' frames, like
    /// `tpp_fabric::TrafficGen`, sends in the buffers it received.
    pub fn take_buf(&mut self) -> Vec<u8> {
        self.pool.get()
    }
    /// Hand a fully consumed frame back to the simulation's frame pool.
    pub fn recycle(&mut self, frame: Vec<u8>) {
        self.pool.put(frame);
    }
    /// Count one transient-safety violation into the run's [`NetStats`].
    /// The full per-violation record stays with the monitoring app; the
    /// aggregate counters make violations visible to scenario drivers and
    /// differential tests without downcasting app state.
    pub fn record_violation(&mut self, kind: ViolationKind) {
        self.effects.push(Effect::Violation(kind));
    }
}

#[derive(Debug, Clone, Copy)]
enum Ev {
    /// Frame fully received at `(node, port)`.
    Arrive {
        node: NodeId,
        port: u8,
    },
    /// Transmitter at `(node, port)` finished serializing a frame.
    TxDone {
        node: NodeId,
        port: u8,
    },
    /// Try to start transmitting on `(node, port)` (pipeline-latency kick).
    Kick {
        node: NodeId,
        port: u8,
    },
    HostTimer {
        node: NodeId,
        token: u64,
    },
    UtilTick,
    /// Apply entry `idx` of the reconfiguration plan.
    Reconfig {
        idx: u32,
    },
}

/// Deterministic same-timestamp ordering key (see
/// [`Scheduler`](crate::engine::Scheduler) docs): packed from event content
/// so per-shard queues reproduce the global tie-break order. Layout:
/// `kind:6 | node:32 | sub:26`. Utilization ticks sort first at a boundary,
/// then arrivals, transmit completions, kicks, and host timers.
fn ev_key(ev: &Ev) -> u64 {
    const fn pack(kind: u64, node: u32, sub: u64) -> u64 {
        (kind << 58) | ((node as u64) << 26) | (sub & 0x03FF_FFFF)
    }
    match *ev {
        Ev::UtilTick => 0,
        // Reconfigurations share the utilization tick's kind space: at a
        // boundary they apply after the tick but before any frame arrival,
        // in plan order — the same position on every shard, since the plan
        // is replicated data.
        Ev::Reconfig { idx } => (idx as u64 + 1) & 0x03FF_FFFF,
        Ev::Arrive { node, port } => pack(1, node.0, port as u64),
        Ev::TxDone { node, port } => pack(2, node.0, port as u64),
        Ev::Kick { node, port } => pack(3, node.0, port as u64),
        Ev::HostTimer { node, token } => pack(4, node.0, token),
    }
}

/// A frame crossing a shard boundary: transmitted locally, due to arrive at
/// a node owned by another shard. Produced by the kernel into its outbox
/// ([`Network::take_outbox`]); consumed by [`Network::inject_remote`] on
/// the owning shard after the fabric sorts each epoch batch by
/// `(at, node, port, seq)`.
#[derive(Debug)]
pub struct RemoteFrame {
    /// Absolute arrival time (transmit end + propagation delay).
    pub at: Time,
    /// Destination node (owned by another shard).
    pub node: NodeId,
    /// Destination port on that node.
    pub port: u8,
    /// Per-sender-port transmit sequence: total order of frames on the link.
    pub seq: u64,
    pub frame: Vec<u8>,
}

/// Aggregate statistics of a finished run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NetStats {
    pub frames_delivered: u64,
    pub frames_dropped_in_flight: u64,
    pub frames_corrupted: u64,
    pub events_processed: u64,
    /// Frame-pool occupancy (buffers retained for reuse) as of the last
    /// `run_until` return; summed across shards by [`NetStats::merge`].
    pub pool_retained: u64,
    /// Reconfiguration-plan entries applied. Route entries apply once (on
    /// the owning shard); link entries apply on every shard (each holds the
    /// full port table), so like `events_processed` this is bookkeeping
    /// that varies with the partitioning and stays out of the digest.
    pub reconfigs_applied: u64,
    /// Switch guard drops by cause (behavior, not bookkeeping: the merged
    /// counts are partitioning-invariant, asserted by the churn
    /// differential suite). Transient loops terminated by the TTL guard.
    pub drops_ttl_expired: u64,
    /// Blackhole drops: no route for the destination (e.g. withdrawn).
    pub drops_no_route: u64,
    /// Drop-tail queue overflow.
    pub drops_queue_full: u64,
    /// Unparseable frames (e.g. fault-corrupted beyond recognition).
    pub drops_malformed: u64,
    /// Explicit drop actions (policy).
    pub drops_policy: u64,
    /// Transient-monitor violations recorded via
    /// [`HostCtx::record_violation`]: forwarding loops observed in packet
    /// histories.
    pub violations_loop: u64,
    /// Probes lost after all retries (blackholed traffic).
    pub violations_blackhole: u64,
    /// Probes completing over paths outside the allowed set.
    pub violations_path: u64,
    /// Frames handed to `Switch::receive`. Kept, with `rx_batch_frames`,
    /// only because the repo benchmark reads both; they leave with ROADMAP 1a.
    pub rx_batches: u64,
    /// Equal to `rx_batches`: every frame is delivered on its own.
    pub rx_batch_frames: u64,
    /// TPP plan-cache hits summed over every switch, snapshotted when
    /// `run_until` returns (same convention as `pool_retained`). Hit/miss
    /// totals are bookkeeping — a hit returns a byte-identical plan — so
    /// they stay out of the digest.
    pub plan_cache_hits: u64,
    /// Plan-cache misses (fresh plans), summed over every switch.
    pub plan_cache_misses: u64,
    /// Plan-cache evictions (bounded-capacity overwrites), summed over
    /// every switch.
    pub plan_cache_evictions: u64,
    /// Order-independent trace accumulator: a wrapping sum of one strong
    /// mix per frame arrival, folding in the arrival time, the receiving
    /// `(node, port)`, and an FNV-1a hash of the full frame bytes. Per
    /// arrival of `frame` at `(node, port)` at time `now`:
    ///
    /// ```text
    /// tag    = node << 8 | port
    /// trace += splitmix64(fnv1a(frame) ^ splitmix64(now ^ splitmix64(tag)))
    /// ```
    ///
    /// where `fnv1a` is the standard 64-bit FNV-1a (offset basis
    /// `0xcbf29ce484222325`, prime `0x100000001b3`, one `h = (h ^ b) * prime`
    /// step per byte). The definition is frozen: golden digests pin it. The
    /// implementation may only use exact identities of it, such as folding
    /// the `8 n` steps of a run of `n` all-zero words into one multiply by
    /// `prime^(8 n)`.
    ///
    /// Because wrapping addition is commutative and associative, shards can
    /// fold arrivals in any interleaving and still merge to the exact value
    /// the single-threaded run produces — while any difference in a
    /// timestamp, a route, or a single payload byte (e.g. a TPP result
    /// word) changes the sum.
    pub trace: u64,
}

impl NetStats {
    /// Fold one frame arrival into the commutative trace. The tag is
    /// mixed through `SplitMix64` before combining so every node-id bit is
    /// load-bearing (a plain shift would discard high bits at k=64 scale).
    fn observe_arrival(&mut self, now: Time, node: NodeId, port: u8, frame: &[u8]) {
        let tag = ((node.0 as u64) << 8) | port as u64;
        let h = fnv1a(frame) ^ splitmix64(now ^ splitmix64(tag));
        self.trace = self.trace.wrapping_add(splitmix64(h));
    }

    /// Digest of the run for differential testing: covers delivery, drop,
    /// and corruption counts plus the [`trace`](NetStats::trace)
    /// accumulator. `events_processed`, `pool_retained`, and
    /// `reconfigs_applied` are deliberately excluded — they count
    /// per-queue, per-pool, and per-shard bookkeeping, which differs
    /// across partitionings without any difference in simulated behavior.
    /// The per-cause drop and violation counters are also excluded to keep
    /// historical golden digests valid; they *are* partitioning-invariant,
    /// and the churn differential suite asserts them equal directly.
    pub fn digest(&self) -> u64 {
        let mut h = 0x9AE1_6A3B_2F90_404Fu64;
        for v in [
            self.frames_delivered,
            self.frames_dropped_in_flight,
            self.frames_corrupted,
            self.trace,
        ] {
            h = splitmix64(h ^ v);
        }
        h
    }

    /// Accumulate another shard's statistics into this one.
    pub fn merge(&mut self, other: &NetStats) {
        self.frames_delivered += other.frames_delivered;
        self.frames_dropped_in_flight += other.frames_dropped_in_flight;
        self.frames_corrupted += other.frames_corrupted;
        self.events_processed += other.events_processed;
        self.pool_retained += other.pool_retained;
        self.reconfigs_applied += other.reconfigs_applied;
        self.drops_ttl_expired += other.drops_ttl_expired;
        self.drops_no_route += other.drops_no_route;
        self.drops_queue_full += other.drops_queue_full;
        self.drops_malformed += other.drops_malformed;
        self.drops_policy += other.drops_policy;
        self.violations_loop += other.violations_loop;
        self.violations_blackhole += other.violations_blackhole;
        self.violations_path += other.violations_path;
        self.rx_batches += other.rx_batches;
        self.rx_batch_frames += other.rx_batch_frames;
        self.plan_cache_hits += other.plan_cache_hits;
        self.plan_cache_misses += other.plan_cache_misses;
        self.plan_cache_evictions += other.plan_cache_evictions;
        self.trace = self.trace.wrapping_add(other.trace);
    }

    /// Attribute one switch guard drop to its cause counter.
    fn count_switch_drop(&mut self, reason: DropReason) {
        match reason {
            DropReason::TtlExpired => self.drops_ttl_expired += 1,
            DropReason::NoRoute => self.drops_no_route += 1,
            DropReason::QueueFull => self.drops_queue_full += 1,
            DropReason::Malformed => self.drops_malformed += 1,
            DropReason::Policy => self.drops_policy += 1,
        }
    }

    /// Attribute one monitor violation to its kind counter.
    fn count_violation(&mut self, kind: ViolationKind) {
        match kind {
            ViolationKind::Loop => self.violations_loop += 1,
            ViolationKind::Blackhole => self.violations_blackhole += 1,
            ViolationKind::PathConformance => self.violations_path += 1,
        }
    }

    /// Total switch guard drops across all causes.
    pub fn switch_drops(&self) -> u64 {
        self.drops_ttl_expired
            + self.drops_no_route
            + self.drops_queue_full
            + self.drops_malformed
            + self.drops_policy
    }

    /// Total transient-monitor violations across all kinds.
    pub fn violations(&self) -> u64 {
        self.violations_loop + self.violations_blackhole + self.violations_path
    }
}

/// The simulated network (equally: one shard kernel of a partitioned run):
/// a thin coordinator over the scheduler, link, and node layers.
pub struct Network {
    scheduler: Scheduler<Ev>,
    links: LinkFabric,
    nodes: NodeStore,
    pub stats: NetStats,
    /// Frames destined to nodes owned by other shards (see [`RemoteFrame`]).
    outbox: Vec<RemoteFrame>,
    util_interval: Time,
    util_tick_scheduled: bool,
    hosts_started: bool,
    /// The reconfiguration plan: timed route/link changes carried as data
    /// (cloned into every shard by [`Network::split`]) and scheduled as
    /// events when the run starts.
    reconfig_plan: ReconfigPlan,
    /// Plan entries already turned into scheduled events.
    reconfigs_scheduled: usize,
    /// Reusable effect list for host callbacks: taken for the callback,
    /// drained by `apply_effects`, and put back. `apply_effects` never
    /// re-enters a host callback, so one list serves them all.
    effects: Vec<Effect>,
}

impl Network {
    pub fn new(seed: u64) -> Self {
        Network {
            scheduler: Scheduler::new(),
            links: LinkFabric::new(seed),
            nodes: NodeStore::default(),
            stats: NetStats::default(),
            outbox: Vec::new(),
            util_interval: MILLIS,
            util_tick_scheduled: false,
            hosts_started: false,
            reconfig_plan: Vec::new(),
            reconfigs_scheduled: 0,
            effects: Vec::new(),
        }
    }

    pub fn now(&self) -> Time {
        self.scheduler.now()
    }

    /// The link layer (read-only): wiring, specs, fault parameters.
    pub fn link_fabric(&self) -> &LinkFabric {
        &self.links
    }

    /// The node layer (read-only): switches, hosts, pool.
    pub fn node_store(&self) -> &NodeStore {
        &self.nodes
    }

    /// The shared frame pool (see [`FramePool`]).
    pub fn pool(&self) -> &FramePool {
        &self.nodes.pool
    }

    pub fn pool_mut(&mut self) -> &mut FramePool {
        &mut self.nodes.pool
    }

    /// Events currently pending in the scheduler layer.
    pub fn pending_events(&self) -> usize {
        self.scheduler.len()
    }

    fn schedule_ev(&mut self, at: Time, ev: Ev) {
        self.scheduler.schedule_keyed(at, ev_key(&ev), ev);
    }

    /// Add a switch; `cfg.n_ports` ports are created up front.
    pub fn add_switch(&mut self, cfg: SwitchConfig) -> NodeId {
        self.links.add_node();
        self.nodes.add_switch(cfg)
    }

    /// Add a host with deterministic IP/MAC derived from its node id.
    pub fn add_host(&mut self, app: Box<dyn HostApp>) -> NodeId {
        // A host added mid-run must still get its start() callback.
        self.hosts_started = false;
        self.links.add_node();
        self.nodes.add_host(app)
    }

    /// Connect two nodes full-duplex; ports are auto-assigned and returned.
    pub fn connect(&mut self, a: NodeId, b: NodeId, spec: LinkSpec) -> (u8, u8) {
        let (pa, pb) = self.links.connect(a, b, spec);
        if let NodeKind::Switch(sw) = self.nodes.kind_mut(a) {
            assert!((pa as usize) < sw.cfg.n_ports, "switch {a:?} has too few ports");
            sw.set_link_speed(pa, spec.rate_mbps as u32);
        }
        if let NodeKind::Switch(sw) = self.nodes.kind_mut(b) {
            assert!((pb as usize) < sw.cfg.n_ports, "switch {b:?} has too few ports");
            sw.set_link_speed(pb, spec.rate_mbps as u32);
        }
        (pa, pb)
    }

    /// Mutable access to a switch (panics if `id` is not a local switch).
    pub fn switch_mut(&mut self, id: NodeId) -> &mut Switch {
        self.nodes.switch_mut(id)
    }

    pub fn switch(&self, id: NodeId) -> &Switch {
        self.nodes.switch(id)
    }

    pub fn is_switch(&self, id: NodeId) -> bool {
        self.nodes.is_switch(id)
    }

    /// Whether this kernel owns `id` (false for remote slots of a
    /// partitioned run).
    pub fn is_local(&self, id: NodeId) -> bool {
        self.nodes.is_local(id)
    }

    pub fn host(&self, id: NodeId) -> &Host {
        self.nodes.host(id)
    }

    pub fn host_mut(&mut self, id: NodeId) -> &mut Host {
        self.nodes.host_mut(id)
    }

    /// Replace a host's application (topology builders install `NullApp`).
    pub fn set_app(&mut self, id: NodeId, app: Box<dyn HostApp>) {
        let h = self.nodes.host_mut(id);
        h.app = app;
        h.started = false;
        self.hosts_started = false;
    }

    /// Downcast a host's application for result extraction.
    pub fn app_mut<T: 'static>(&mut self, id: NodeId) -> &mut T {
        self.nodes.host_mut(id).app.as_any().downcast_mut::<T>().expect("app type mismatch")
    }

    /// Cap the frame pool's retained-buffer count (see
    /// [`FramePool::set_high_water`]).
    pub fn set_pool_high_water(&mut self, high_water: usize) {
        self.nodes.pool.set_high_water(high_water);
    }

    /// Degrade a link (both directions) for failure-injection experiments.
    /// In a partitioned run this must happen before [`Network::split`]:
    /// each kernel only updates its own port table.
    pub fn set_link_faults(&mut self, a: NodeId, port_a: u8, drop_prob: f64, corrupt_prob: f64) {
        self.links.set_faults(a, port_a, drop_prob, corrupt_prob);
    }

    /// Take a link fully down or up (port status + packets blackholed).
    pub fn set_link_up(&mut self, a: NodeId, port_a: u8, up: bool) {
        let drop = if up { 0.0 } else { 1.0 };
        let (peer, peer_port) = self.links.set_faults(a, port_a, drop, 0.0);
        if let NodeKind::Switch(sw) = self.nodes.kind_mut(a) {
            sw.mem.links[port_a as usize].up = up;
        }
        if let NodeKind::Switch(sw) = self.nodes.kind_mut(peer) {
            sw.mem.links[peer_port as usize].up = up;
        }
    }

    /// Change the rate/delay of a link (both directions), mirroring the new
    /// speed into the endpoint switches' memory maps. A frame already on
    /// the wire keeps its scheduled timing; the profile applies from the
    /// next transmit.
    pub fn set_link_profile(&mut self, a: NodeId, port_a: u8, rate_mbps: u64, delay_ns: Time) {
        let (peer, peer_port) = self.links.set_profile(a, port_a, rate_mbps, delay_ns);
        if let NodeKind::Switch(sw) = self.nodes.kind_mut(a) {
            sw.set_link_speed(port_a, rate_mbps as u32);
        }
        if let NodeKind::Switch(sw) = self.nodes.kind_mut(peer) {
            sw.set_link_speed(peer_port, rate_mbps as u32);
        }
    }

    /// Schedule a reconfiguration to apply at absolute time `at` (clamped
    /// to the clock if in the past). The plan is data until the run starts:
    /// [`Network::split`] clones it into every shard, each of which
    /// schedules the entries it must apply — route changes on the shard
    /// owning the switch, link changes everywhere (every shard carries the
    /// full port table). At a time boundary reconfigurations apply after
    /// the utilization tick and before any frame arrival, in plan order,
    /// on every shard alike — which is what keeps churn scenarios
    /// digest-equal across shard counts.
    pub fn schedule_reconfig(&mut self, at: Time, action: ReconfigAction) {
        self.reconfig_plan.push((at, action));
    }

    /// The installed reconfiguration plan (the fabric folds planned
    /// cross-shard delay reductions into its conservative lookahead).
    pub fn reconfig_plan(&self) -> &[(Time, ReconfigAction)] {
        &self.reconfig_plan
    }

    /// Whether this kernel must schedule plan entry `action` (see
    /// [`Network::schedule_reconfig`]).
    fn reconfig_is_local(&self, action: &ReconfigAction) -> bool {
        match *action {
            ReconfigAction::RouteSet { switch, .. }
            | ReconfigAction::RouteWithdraw { switch, .. } => self.nodes.is_local(switch),
            ReconfigAction::LinkUp { .. }
            | ReconfigAction::LinkDegrade { .. }
            | ReconfigAction::LinkFaults { .. } => true,
        }
    }

    /// Apply plan entry `idx` now.
    fn handle_reconfig(&mut self, idx: u32) {
        let (_, action) = self.reconfig_plan[idx as usize].clone();
        match action {
            ReconfigAction::RouteSet { switch, dst, action } => {
                self.nodes.switch_mut(switch).add_host_route(dst, action);
            }
            ReconfigAction::RouteWithdraw { switch, dst } => {
                self.nodes.switch_mut(switch).remove_host_route(dst);
            }
            ReconfigAction::LinkUp { node, port, up } => self.set_link_up(node, port, up),
            ReconfigAction::LinkDegrade { node, port, rate_mbps, delay_ns } => {
                self.set_link_profile(node, port, rate_mbps, delay_ns);
            }
            ReconfigAction::LinkFaults { node, port, drop_prob, corrupt_prob } => {
                self.set_link_faults(node, port, drop_prob, corrupt_prob);
            }
        }
        self.stats.reconfigs_applied += 1;
    }

    fn ensure_started(&mut self) {
        if !self.util_tick_scheduled {
            self.util_tick_scheduled = true;
            let at = self.scheduler.now().saturating_add(self.util_interval);
            self.schedule_ev(at, Ev::UtilTick);
        }
        // Turn any plan entries added since the last run into events (this
        // kernel's slice only; see `schedule_reconfig`).
        while self.reconfigs_scheduled < self.reconfig_plan.len() {
            let idx = self.reconfigs_scheduled;
            self.reconfigs_scheduled += 1;
            let (at, ref action) = self.reconfig_plan[idx];
            if self.reconfig_is_local(action) {
                let at = at.max(self.scheduler.now());
                self.schedule_ev(at, Ev::Reconfig { idx: idx as u32 });
            }
        }
        if self.hosts_started {
            return;
        }
        self.hosts_started = true;
        for i in 0..self.nodes.len() {
            let node = NodeId(i as u32);
            let needs_start = match self.nodes.kind(node) {
                NodeKind::Host(h) => !h.started,
                _ => false,
            };
            if needs_start {
                let mut effects = std::mem::take(&mut self.effects);
                {
                    let (kind, pool) = self.nodes.kind_and_pool_mut(node);
                    let NodeKind::Host(h) = kind else { unreachable!() };
                    h.started = true;
                    let mut ctx = HostCtx {
                        now: self.scheduler.now(),
                        node,
                        ip: h.ip,
                        mac: h.mac,
                        effects: &mut effects,
                        pool,
                    };
                    h.app.start(&mut ctx);
                }
                self.apply_effects(node, effects);
            }
        }
    }

    /// Apply what a host callback asked for, in order, and hand the emptied
    /// list back as the next callback's scratch.
    fn apply_effects(&mut self, node: NodeId, mut effects: Vec<Effect>) {
        for e in effects.drain(..) {
            match e {
                Effect::Send(frame) => self.host_enqueue(node, frame),
                Effect::Timer { at, token } => self.schedule_ev(at, Ev::HostTimer { node, token }),
                Effect::Violation(kind) => self.stats.count_violation(kind),
            }
        }
        self.effects = effects;
    }

    fn host_enqueue(&mut self, node: NodeId, frame: Vec<u8>) {
        let len = frame.len();
        {
            let NodeKind::Host(h) = self.nodes.kind_mut(node) else { panic!("send from non-host") };
            if h.nic_queued_bytes + len > h.nic_limit_bytes {
                h.nic_drops += 1;
                self.nodes.pool.put(frame);
                return;
            }
            h.nic_queue.push_back(frame);
            h.nic_queued_bytes += len;
        }
        self.try_start_tx(node, 0);
    }

    /// If the transmitter at `(node, port)` is idle and a frame is waiting,
    /// start serializing it.
    fn try_start_tx(&mut self, node: NodeId, port: u8) {
        if !self.links.is_connected(node, port) {
            return; // unconnected port: blackhole
        }
        if self.links.is_busy(node, port) {
            return;
        }
        let now = self.scheduler.now();
        let frame = match self.nodes.kind_mut(node) {
            NodeKind::Switch(sw) => sw.dequeue(now, port),
            NodeKind::Host(h) => {
                let f = h.nic_queue.pop_front();
                if let Some(fr) = &f {
                    h.nic_queued_bytes -= fr.len();
                    h.tx_frames += 1;
                }
                f
            }
            NodeKind::Remote => panic!("transmit from remote node {node:?}"),
        };
        let Some(frame) = frame else { return };
        self.launch_frame(now, node, port, frame);
    }

    /// Commit a dequeued frame to the wire: fault draws and delay
    /// computation live in the link layer; the coordinator schedules the
    /// resulting events and routes remote-bound frames to the outbox.
    fn launch_frame(&mut self, now: Time, node: NodeId, port: u8, mut frame: Vec<u8>) {
        let tx = self.links.transmit(now, node, port, frame.len());
        self.schedule_ev(tx.tx_done_at, Ev::TxDone { node, port });

        if tx.dropped {
            self.stats.frames_dropped_in_flight += 1;
            self.nodes.pool.put(frame);
            return;
        }
        if let Some((idx, bit)) = tx.corrupt {
            frame[idx] ^= bit;
            self.stats.frames_corrupted += 1;
        }
        let (peer, peer_port) = tx.peer;
        if !self.nodes.is_local(peer) {
            self.outbox.push(RemoteFrame {
                at: tx.arrive_at,
                node: peer,
                port: peer_port,
                seq: tx.seq,
                frame,
            });
        } else {
            self.links.push_in_flight(peer, peer_port, frame);
            self.schedule_ev(tx.arrive_at, Ev::Arrive { node: peer, port: peer_port });
        }
    }

    /// Frames transmitted toward remote peers since the last call. The
    /// caller (the fabric) routes them to the owning shards at an epoch
    /// barrier.
    pub fn take_outbox(&mut self) -> Vec<RemoteFrame> {
        std::mem::take(&mut self.outbox)
    }

    /// Accept a frame routed from another shard. `f.at` must not precede
    /// this kernel's clock — guaranteed by the fabric's conservative
    /// lookahead window (and enforced by the event queue's time-travel
    /// guard).
    pub fn inject_remote(&mut self, f: RemoteFrame) {
        self.links.push_in_flight(f.node, f.port, f.frame);
        self.schedule_ev(f.at, Ev::Arrive { node: f.node, port: f.port });
    }

    fn handle_arrive(&mut self, node: NodeId, port: u8) {
        let Some(frame) = self.links.pop_in_flight(node, port) else {
            return;
        };
        self.stats.frames_delivered += 1;
        let now = self.scheduler.now();
        self.stats.observe_arrival(now, node, port, &frame);
        let (kind, pool) = self.nodes.kind_and_pool_mut(node);
        match kind {
            NodeKind::Switch(sw) => {
                self.stats.rx_batches += 1;
                self.stats.rx_batch_frames += 1;
                match sw.receive(now, port, frame) {
                    ReceiveOutcome::Enqueued { port: out, proc_latency_ns, .. } => {
                        // The pipeline needs proc_latency before the frame is
                        // eligible for transmission.
                        self.schedule_ev(now + proc_latency_ns, Ev::Kick { node, port: out });
                    }
                    ReceiveOutcome::Dropped(reason) => {
                        self.stats.count_switch_drop(reason);
                        // The switch parks dropped frame buffers; reclaim
                        // them into the shared pool.
                        while let Some(buf) = sw.take_retired() {
                            pool.put(buf);
                        }
                    }
                }
            }
            NodeKind::Host(h) => {
                h.rx_frames += 1;
                let mut effects = std::mem::take(&mut self.effects);
                {
                    let mut ctx =
                        HostCtx { now, node, ip: h.ip, mac: h.mac, effects: &mut effects, pool };
                    h.app.on_frame(&mut ctx, frame);
                }
                self.apply_effects(node, effects);
            }
            NodeKind::Remote => panic!("arrival at remote node {node:?}"),
        }
    }

    fn handle_timer(&mut self, node: NodeId, token: u64) {
        let now = self.scheduler.now();
        let (kind, pool) = self.nodes.kind_and_pool_mut(node);
        let NodeKind::Host(h) = kind else { return };
        let mut effects = std::mem::take(&mut self.effects);
        {
            let mut ctx = HostCtx { now, node, ip: h.ip, mac: h.mac, effects: &mut effects, pool };
            h.app.on_timer(&mut ctx, token);
        }
        self.apply_effects(node, effects);
    }

    /// Dispatch one event.
    fn handle_event(&mut self, ev: Ev) {
        match ev {
            Ev::Arrive { node, port } => self.handle_arrive(node, port),
            Ev::TxDone { node, port } => {
                self.links.clear_busy(node, port);
                self.try_start_tx(node, port);
            }
            Ev::Kick { node, port } => self.try_start_tx(node, port),
            Ev::HostTimer { node, token } => self.handle_timer(node, token),
            Ev::Reconfig { idx } => self.handle_reconfig(idx),
            Ev::UtilTick => {
                let now = self.scheduler.now();
                for n in &mut self.nodes.nodes {
                    if let NodeKind::Switch(sw) = n {
                        sw.tick(now);
                    }
                }
                let at = now.saturating_add(self.util_interval);
                self.schedule_ev(at, Ev::UtilTick);
            }
        }
    }

    /// Process every event due at or before `until` (ns), in time order, and
    /// return. The clock is left at the last event processed, which may be
    /// earlier than `until`. The queue never runs dry: the utilization tick
    /// re-arms itself every millisecond whether or not anything else is
    /// pending, so a call always runs to `until` and `run_until(Time::MAX)`
    /// does not return (ROADMAP 3c).
    pub fn run_until(&mut self, until: Time) {
        self.ensure_started();
        while self.scheduler.peek_time().is_some_and(|t| t <= until) {
            let (_, ev) = self.scheduler.pop().expect("peeked event");
            self.stats.events_processed += 1;
            self.handle_event(ev);
        }
        self.stats.pool_retained = self.nodes.pool.len() as u64;
        // Snapshot plan-cache totals across this kernel's switches (remote
        // shard slots hold no switch, so fabric-wide sums stay correct).
        let mut hits = 0;
        let mut misses = 0;
        let mut evictions = 0;
        for n in &self.nodes.nodes {
            if let NodeKind::Switch(sw) = n {
                let s = sw.plan_cache_stats();
                hits += s.hits;
                misses += s.misses;
                evictions += s.evictions;
            }
        }
        self.stats.plan_cache_hits = hits;
        self.stats.plan_cache_misses = misses;
        self.stats.plan_cache_evictions = evictions;
    }

    /// Run for `dur` more nanoseconds, measured from the *last processed
    /// event's* timestamp (`now()`), which may trail the previous
    /// `run_until` target. `Fabric::run_for` measures from the barrier
    /// time instead — drive differential comparisons with `run_until` and
    /// absolute times.
    pub fn run_for(&mut self, dur: Time) {
        let until = self.now().saturating_add(dur);
        self.run_until(until);
    }

    /// Number of hosts and switches (including remote slots in a shard).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Adjacency of a node, allocation-free: `(local port, peer node)` per
    /// link. Prefer this on hot paths (BFS route setup, partitioning); the
    /// [`Network::neighbors`] `Vec` form remains for tests and one-shot
    /// topology inspection.
    pub fn neighbors_iter(&self, node: NodeId) -> impl Iterator<Item = (u8, NodeId)> + '_ {
        self.links.neighbors(node)
    }

    /// Adjacency of a node: `(local port, peer node)` per link.
    pub fn neighbors(&self, node: NodeId) -> Vec<(u8, NodeId)> {
        self.neighbors_iter(node).collect()
    }

    /// Every directed link, allocation-free:
    /// `(node, port, peer, peer_port, spec)`. Used by the fabric
    /// partitioner (lookahead = min cross-shard delay).
    pub fn links_iter(&self) -> impl Iterator<Item = (NodeId, u8, NodeId, u8, LinkSpec)> + '_ {
        self.links.links()
    }

    /// Every directed link, as a `Vec` (tests / topology setup).
    pub fn links(&self) -> Vec<(NodeId, u8, NodeId, u8, LinkSpec)> {
        self.links_iter().collect()
    }

    pub fn switch_ids(&self) -> Vec<NodeId> {
        self.nodes.switch_ids().collect()
    }

    pub fn host_ids(&self) -> Vec<NodeId> {
        self.nodes.host_ids().collect()
    }

    /// Partition a freshly built network into per-shard kernels.
    ///
    /// `assignment[node]` names the shard (in `0..n_shards`) that owns each
    /// node. Every shard receives the full link layer — specs, peers, and
    /// fault-RNG streams (only the transmitting side of a port ever
    /// consumes its stream, so the copies never diverge) — plus the nodes
    /// assigned to it; all other slots become remote markers. Panics if the
    /// simulation has already started: partitioning an in-flight run would
    /// lose queued events.
    pub fn split(self, assignment: &[usize], n_shards: usize) -> Vec<Network> {
        assert_eq!(assignment.len(), self.nodes.len(), "assignment must cover every node");
        assert!(
            self.scheduler.now() == 0
                && self.scheduler.is_empty()
                && !self.hosts_started
                && !self.util_tick_scheduled,
            "split() must happen before the simulation runs"
        );
        debug_assert_eq!(self.reconfigs_scheduled, 0, "plan entries scheduled before split");
        let mut shards: Vec<Network> = (0..n_shards)
            .map(|_| {
                let mut n = Network::new(self.links.seed());
                n.links = self.links.split_clone();
                n.util_interval = self.util_interval;
                n.nodes.pool.set_high_water(self.nodes.pool.high_water());
                // The full plan travels to every shard; each schedules only
                // the entries it must apply (see `schedule_reconfig`).
                n.reconfig_plan = self.reconfig_plan.clone();
                n
            })
            .collect();
        for (i, node) in self.nodes.into_nodes().into_iter().enumerate() {
            let owner = assignment[i];
            assert!(owner < n_shards, "node {i} assigned to out-of-range shard {owner}");
            for net in shards.iter_mut() {
                net.nodes.push_remote();
            }
            shards[owner].nodes.nodes[i] = node;
        }
        shards
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::any::Any;
    use std::sync::{Arc, Mutex};
    use tpp_core::wire::{ethernet, ipv4, udp, EthernetRepr};
    use tpp_switch::Action;

    type ReceivedLog = Arc<Mutex<Vec<(Time, Vec<u8>)>>>;

    /// Sends `count` UDP frames to `dst` at start, records received frames.
    struct Blaster {
        dst_ip: Ipv4Address,
        dst_mac: EthernetAddress,
        count: usize,
        received: ReceivedLog,
    }

    impl HostApp for Blaster {
        fn start(&mut self, ctx: &mut HostCtx<'_>) {
            for i in 0..self.count {
                let u = udp::Repr { src_port: 1000 + i as u16, dst_port: 9, payload_len: 100 };
                let udp_bytes = u.encapsulate(ctx.ip, self.dst_ip, &[0u8; 100]);
                let ip = ipv4::Repr {
                    src: ctx.ip,
                    dst: self.dst_ip,
                    protocol: ipv4::protocol::UDP,
                    ttl: 64,
                    payload_len: udp_bytes.len(),
                };
                let frame = EthernetRepr {
                    dst: self.dst_mac,
                    src: ctx.mac,
                    ethertype: ethernet::ethertype::IPV4,
                }
                .encapsulate(&ip.encapsulate(&udp_bytes));
                ctx.send(frame);
            }
        }
        fn on_frame(&mut self, ctx: &mut HostCtx<'_>, frame: Vec<u8>) {
            self.received.lock().unwrap().push((ctx.now, frame));
        }
        fn as_any(&mut self) -> &mut dyn Any {
            self
        }
    }

    fn two_hosts_one_switch_seeded(
        seed: u64,
        rate_mbps: u64,
        delay_ns: u64,
        count: usize,
    ) -> (Network, ReceivedLog) {
        let mut net = Network::new(seed);
        let received = Arc::new(Mutex::new(Vec::new()));
        let sw = net.add_switch(SwitchConfig::new(1, 2));
        // Hosts get node ids 1, 2.
        let h1 = net.add_host(Box::new(NullApp));
        let h2 = net.add_host(Box::new(Blaster {
            dst_ip: Ipv4Address::from_host_id(1),
            dst_mac: EthernetAddress::from_node_id(1),
            count,
            received: received.clone(),
        }));
        net.connect(sw, h1, LinkSpec::new(rate_mbps, delay_ns));
        net.connect(sw, h2, LinkSpec::new(rate_mbps, delay_ns));
        let s = net.switch_mut(sw);
        s.add_host_route(Ipv4Address::from_host_id(1), Action::Output(0));
        s.add_host_route(Ipv4Address::from_host_id(2), Action::Output(1));
        // Log arrivals at h1 too.
        net.set_app(
            h1,
            Box::new(Blaster {
                dst_ip: Ipv4Address::from_host_id(2),
                dst_mac: EthernetAddress::from_node_id(2),
                count: 0,
                received: received.clone(),
            }),
        );
        (net, received)
    }

    fn two_hosts_one_switch(rate_mbps: u64, delay_ns: u64, count: usize) -> (Network, ReceivedLog) {
        two_hosts_one_switch_seeded(1, rate_mbps, delay_ns, count)
    }

    /// FNV-1a as first written, one step per byte: the oracle for the
    /// word-walking [`fnv1a`].
    fn fnv1a_bytewise(bytes: &[u8]) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        h
    }

    #[test]
    fn fnv1a_is_the_published_function() {
        // Test vectors of the FNV reference distribution (64-bit FNV-1a).
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
        assert_eq!(fnv1a_bytewise(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn fnv1a_zero_runs_at_every_length_and_alignment() {
        // A zero run of every length 0..=136 starting at every offset 0..64
        // of a non-zero buffer, at every total length that leaves 0..8 tail
        // bytes: runs cover whole words and whole 64-byte blocks, straddle
        // both, stop one byte short of a block, and end in the tail. Then
        // runs longer than the power table from every offset in a word: the
        // 1,000-byte payload of an `app_rcp` data frame and a 9,000-byte
        // jumbo, each a few bytes either side, so the last table chunk takes
        // every size.
        let long_runs = (990..=1010).chain(8990..=9010);
        for (pad, starts, runs) in
            [(208, 64, (0..=136).collect::<Vec<_>>()), (9100, 8, long_runs.collect())]
        {
            for total in pad..pad + 8 {
                for start in 0..starts {
                    for &run in &runs {
                        let mut buf: Vec<u8> = (0..total).map(|i| (i % 251) as u8 + 1).collect();
                        buf[start..start + run].fill(0);
                        assert_eq!(fnv1a(&buf), fnv1a_bytewise(&buf), "{total} {start} {run}");
                        // The same run pushed against the end of the buffer.
                        let mut buf: Vec<u8> = (0..total).map(|i| (i % 251) as u8 + 1).collect();
                        buf[total - run..].fill(0);
                        assert_eq!(fnv1a(&buf), fnv1a_bytewise(&buf), "{total} tail {run}");
                    }
                }
            }
        }
    }

    #[test]
    fn fnv1a_one_live_byte_in_a_zero_frame() {
        // Five 64-byte blocks, all zero but one: the live byte at every
        // position, so each block is the one walked word by word in turn.
        for at in 0..320 {
            let mut frame = [0u8; 320];
            frame[at] = 0x5A;
            assert_eq!(fnv1a(&frame), fnv1a_bytewise(&frame), "live byte at {at}");
        }
    }

    #[test]
    fn fnv1a_zero_run_powers_are_the_repeated_prime() {
        for n in 0..=3 * ZERO_RUN_MAX + 1 {
            let stepped = (0..8 * n).fold(FNV_OFFSET, |h, _| h.wrapping_mul(FNV_PRIME));
            assert_eq!(fnv1a_zero_words(FNV_OFFSET, n), stepped, "{n} zero words");
        }
    }

    #[test]
    fn fnv1a_all_zero_and_no_zero_inputs_of_every_length() {
        let zeros = vec![0u8; 2048];
        let dense: Vec<u8> = (0..2048).map(|i| (i % 255) as u8 + 1).collect();
        for len in 0..=2048 {
            assert_eq!(fnv1a(&zeros[..len]), fnv1a_bytewise(&zeros[..len]), "zeros {len}");
            assert_eq!(fnv1a(&dense[..len]), fnv1a_bytewise(&dense[..len]), "dense {len}");
            // Unaligned starts: the walk is by offset in the slice, not by
            // address, but a frame can sit anywhere.
            let from = len.min(3);
            assert_eq!(fnv1a(&zeros[from..len]), fnv1a_bytewise(&zeros[from..len]));
        }
    }

    proptest::proptest! {
        #[test]
        fn fnv1a_equals_the_bytewise_loop(
            mut bytes in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..=9216),
            starts in proptest::collection::vec(0usize..9216, 14),
            short in proptest::collection::vec(0usize..=40, 12),
            long in proptest::collection::vec(8 * ZERO_RUN_MAX..=9000, 2),
            sparse in proptest::prelude::any::<bool>(),
        ) {
            // Random bytes almost never hold a zero word: punch zero runs in,
            // a dozen short ones and two longer than the power table (up to a
            // jumbo frame's payload), or keep only one byte in sixteen (a
            // frame of zero payload with a few live fields).
            if sparse {
                for (i, b) in bytes.iter_mut().enumerate() {
                    if i % 16 != 5 {
                        *b = 0;
                    }
                }
            }
            for (start, len) in starts.into_iter().zip(short.into_iter().chain(long)) {
                let start = start.min(bytes.len());
                let end = (start + len).min(bytes.len());
                bytes[start..end].fill(0);
            }
            proptest::prop_assert_eq!(fnv1a(&bytes), fnv1a_bytewise(&bytes));
        }
    }

    #[test]
    fn delivery_across_switch() {
        let (mut net, received) = two_hosts_one_switch(1000, 1000, 3);
        net.run_until(10 * MILLIS);
        assert_eq!(received.lock().unwrap().len(), 3);
    }

    #[test]
    fn serialization_delay_matches_link_rate() {
        // One 142-byte frame at 100 Mb/s = 11.36 us serialization, twice
        // (host link + switch link), plus 2 x 1 us propagation, plus switch
        // pipeline latency (500ns ASIC profile).
        let (mut net, received) = two_hosts_one_switch(100, 1000, 1);
        net.run_until(100 * MILLIS);
        let log = received.lock().unwrap();
        assert_eq!(log.len(), 1);
        let t = log[0].0;
        let frame_len = log[0].1.len() as u64;
        let ser = frame_len * 8 * 1000 / 100;
        let expected = 2 * ser + 2 * 1000 + 500;
        assert!(t >= expected && t < expected + 2000, "arrival at {t}, expected ~{expected}");
    }

    #[test]
    fn back_to_back_frames_serialize() {
        // 10 frames can't arrive faster than serialization allows.
        let (mut net, received) = two_hosts_one_switch(100, 0, 10);
        net.run_until(1000 * MILLIS);
        let log = received.lock().unwrap();
        assert_eq!(log.len(), 10);
        let frame_len = log[0].1.len() as u64;
        let ser = frame_len * 8 * 1000 / 100;
        for pair in log.windows(2) {
            let gap = pair[1].0 - pair[0].0;
            assert!(gap >= ser, "inter-arrival {gap} < serialization {ser}");
        }
    }

    #[test]
    fn drop_faults_lose_frames() {
        let (mut net, received) = two_hosts_one_switch(1000, 1000, 200);
        // 100% drop between switch and h1.
        net.set_link_faults(NodeId(0), 0, 1.0, 0.0);
        net.run_until(100 * MILLIS);
        assert_eq!(received.lock().unwrap().len(), 0);
        assert_eq!(net.stats.frames_dropped_in_flight, 200);
    }

    #[test]
    fn corruption_faults_flip_bits() {
        let (mut net, received) = two_hosts_one_switch(1000, 1000, 100);
        net.set_link_faults(NodeId(0), 0, 0.0, 1.0);
        net.run_until(100 * MILLIS);
        // All frames arrive but each has one flipped bit.
        assert_eq!(net.stats.frames_corrupted, 100);
        assert_eq!(received.lock().unwrap().len(), 100);
    }

    #[test]
    fn determinism_same_seed_same_outcome() {
        let run = |seed| {
            let (mut net, received) = two_hosts_one_switch_seeded(seed, 1000, 1000, 50);
            net.set_link_faults(NodeId(0), 0, 0.3, 0.0);
            net.run_until(100 * MILLIS);
            let n_received = received.lock().unwrap().len();
            (net.stats.frames_dropped_in_flight, n_received, net.stats.digest())
        };
        assert_eq!(run(7), run(7));
        // Different seeds draw different fault streams (not guaranteed, but
        // 50 coin flips at p=0.3 colliding exactly is unlikely).
        let (d1, _, _) = run(1);
        assert!(d1 > 0);
    }

    #[test]
    fn digest_tracks_behavior_not_bookkeeping() {
        let run = |seed, count| {
            let (mut net, _received) = two_hosts_one_switch_seeded(seed, 1000, 1000, count);
            net.run_until(100 * MILLIS);
            net.stats
        };
        let a = run(3, 10);
        let b = run(3, 10);
        assert_eq!(a.digest(), b.digest(), "identical runs share a digest");
        let c = run(3, 11);
        assert_ne!(a.digest(), c.digest(), "one extra frame changes the digest");
    }

    #[test]
    fn host_timers_fire_in_order() {
        struct TimerApp {
            log: Arc<Mutex<Vec<(Time, u64)>>>,
        }
        impl HostApp for TimerApp {
            fn start(&mut self, ctx: &mut HostCtx<'_>) {
                ctx.set_timer(3000, 3);
                ctx.set_timer(1000, 1);
                ctx.set_timer(2000, 2);
            }
            fn on_timer(&mut self, ctx: &mut HostCtx<'_>, token: u64) {
                self.log.lock().unwrap().push((ctx.now, token));
                if token == 1 {
                    ctx.set_timer(500, 4);
                }
            }
            fn as_any(&mut self) -> &mut dyn Any {
                self
            }
        }
        let mut net = Network::new(0);
        let log = Arc::new(Mutex::new(Vec::new()));
        let h = net.add_host(Box::new(TimerApp { log: log.clone() }));
        let _ = h;
        net.run_until(10 * MILLIS);
        assert_eq!(*log.lock().unwrap(), vec![(1000, 1), (1500, 4), (2000, 2), (3000, 3)]);
    }

    #[test]
    fn zero_delay_timer_chains_preserve_key_order() {
        // A timer handler scheduling another timer at delay 0 exercises the
        // same-timestamp merge path: the new event must still fire at the
        // current timestamp, after the already-pending events of that
        // timestamp with smaller keys.
        struct ChainApp {
            log: Arc<Mutex<Vec<(Time, u64)>>>,
        }
        impl HostApp for ChainApp {
            fn start(&mut self, ctx: &mut HostCtx<'_>) {
                ctx.set_timer(1000, 1);
                ctx.set_timer(1000, 5);
            }
            fn on_timer(&mut self, ctx: &mut HostCtx<'_>, token: u64) {
                self.log.lock().unwrap().push((ctx.now, token));
                if token == 1 {
                    // Key (kind=timer, node, 3) sorts between tokens 1 and 5:
                    // must fire *before* the staged token-5 event.
                    ctx.set_timer(0, 3);
                }
            }
            fn as_any(&mut self) -> &mut dyn Any {
                self
            }
        }
        let mut net = Network::new(0);
        let log = Arc::new(Mutex::new(Vec::new()));
        let _h = net.add_host(Box::new(ChainApp { log: log.clone() }));
        net.run_until(10 * MILLIS);
        assert_eq!(*log.lock().unwrap(), vec![(1000, 1), (1000, 3), (1000, 5)]);
    }

    #[test]
    fn never_timer_set_after_time_zero_does_not_fire() {
        // `now + Time::MAX` used to panic in debug builds and wrap into the
        // past in release builds, where the scheduler's clamp fired it at
        // once.
        struct NeverApp {
            log: Arc<Mutex<Vec<(Time, u64)>>>,
        }
        impl HostApp for NeverApp {
            fn start(&mut self, ctx: &mut HostCtx<'_>) {
                ctx.set_timer(1000, 1);
            }
            fn on_timer(&mut self, ctx: &mut HostCtx<'_>, token: u64) {
                self.log.lock().unwrap().push((ctx.now, token));
                if token == 1 {
                    ctx.set_timer(Time::MAX, 2);
                    ctx.set_timer(500, 3);
                }
            }
            fn as_any(&mut self) -> &mut dyn Any {
                self
            }
        }
        let mut net = Network::new(0);
        let log = Arc::new(Mutex::new(Vec::new()));
        let _h = net.add_host(Box::new(NeverApp { log: log.clone() }));
        net.run_until(10 * MILLIS);
        assert_eq!(*log.lock().unwrap(), vec![(1000, 1), (1500, 3)]);
    }

    /// A run to the end of time does not return (the utilization tick
    /// re-arms every millisecond), so the app ends this one from a timer
    /// past the first horizon: reaching it shows that `run_for` neither
    /// overflowed nor wrapped its horizon into the past.
    #[test]
    #[should_panic(expected = "ran past the first horizon")]
    fn run_for_time_max_runs_on_instead_of_wrapping() {
        struct LateApp;
        impl HostApp for LateApp {
            fn start(&mut self, ctx: &mut HostCtx<'_>) {
                ctx.set_timer(5 * MILLIS, 0);
            }
            fn on_timer(&mut self, _ctx: &mut HostCtx<'_>, _token: u64) {
                panic!("ran past the first horizon");
            }
            fn as_any(&mut self) -> &mut dyn Any {
                self
            }
        }
        let mut net = Network::new(0);
        let _h = net.add_host(Box::new(LateApp));
        net.run_until(MILLIS);
        net.run_for(Time::MAX);
    }

    #[test]
    fn nic_queue_limit_drops() {
        let mut net = Network::new(0);
        let received = Arc::new(Mutex::new(Vec::new()));
        let sw = net.add_switch(SwitchConfig::new(1, 2));
        let sink = net.add_host(Box::new(NullApp));
        let src = net.add_host(Box::new(Blaster {
            dst_ip: Ipv4Address::from_host_id(1),
            dst_mac: EthernetAddress::from_node_id(1),
            count: 20000, // ~2.8MB of frames > 1MB NIC limit
            received: received.clone(),
        }));
        net.connect(sw, sink, LinkSpec::new(10, 0));
        net.connect(sw, src, LinkSpec::new(10, 0));
        net.switch_mut(sw).add_host_route(Ipv4Address::from_host_id(1), Action::Output(0));
        net.run_until(MILLIS);
        assert!(net.host(src).nic_drops > 0);
    }

    #[test]
    fn app_mut_downcast() {
        let mut net = Network::new(0);
        let h = net.add_host(Box::new(NullApp));
        let _: &mut NullApp = net.app_mut::<NullApp>(h);
    }

    #[test]
    fn dropped_frames_are_pooled_for_reuse() {
        // Link faults and switch drops feed buffers back into the pool
        // instead of freeing them.
        let (mut net, _received) = two_hosts_one_switch(1000, 1000, 50);
        net.set_link_faults(NodeId(0), 0, 1.0, 0.0);
        net.run_until(100 * MILLIS);
        assert!(net.stats.frames_dropped_in_flight > 0);
        assert!(!net.pool().is_empty(), "dropped frames must land in the pool");
        assert_eq!(net.stats.pool_retained, net.pool().len() as u64, "occupancy is exposed");
        let before = net.pool().recycled;
        let buf = net.pool_mut().get();
        assert!(buf.is_empty() && buf.capacity() > 0, "recycled buffer keeps its capacity");
        assert_eq!(net.pool().recycled, before + 1);
    }

    #[test]
    fn pool_high_water_caps_and_shrinks() {
        let mut pool = FramePool::default();
        pool.set_high_water(4);
        for _ in 0..10 {
            pool.put(Vec::with_capacity(64));
        }
        assert_eq!(pool.len(), 4, "puts beyond the high-water mark free normally");
        pool.shrink_to(1);
        assert_eq!(pool.len(), 1);
        // Raising the mark allows growth again.
        pool.set_high_water(8);
        for _ in 0..10 {
            pool.put(Vec::with_capacity(64));
        }
        assert_eq!(pool.len(), 8);
        // Lowering it shrinks immediately.
        pool.set_high_water(2);
        assert_eq!(pool.len(), 2);
        assert_eq!(pool.high_water(), 2);
    }

    #[test]
    fn switch_drops_reclaimed_into_pool() {
        // No-route drops at the switch are reclaimed via take_retired().
        let mut net = Network::new(3);
        let received = Arc::new(Mutex::new(Vec::new()));
        let sw = net.add_switch(SwitchConfig::new(1, 2));
        let _sink = net.add_host(Box::new(NullApp));
        let src = net.add_host(Box::new(Blaster {
            dst_ip: Ipv4Address::from_host_id(99), // unrouted destination
            dst_mac: EthernetAddress::from_node_id(99),
            count: 10,
            received: received.clone(),
        }));
        net.connect(sw, _sink, LinkSpec::new(1000, 0));
        net.connect(sw, src, LinkSpec::new(1000, 0));
        net.run_until(10 * MILLIS);
        assert!(!net.pool().is_empty(), "no-route drops must be reclaimed");
    }

    #[test]
    fn host_ctx_take_buf_recycles() {
        struct Recycler {
            took_capacity: Arc<Mutex<usize>>,
        }
        impl HostApp for Recycler {
            fn on_frame(&mut self, ctx: &mut HostCtx<'_>, frame: Vec<u8>) {
                // Consume the frame, hand the buffer back, then take it
                // again for the next send.
                ctx.recycle(frame);
                let buf = ctx.take_buf();
                *self.took_capacity.lock().unwrap() = buf.capacity();
            }
            fn as_any(&mut self) -> &mut dyn Any {
                self
            }
        }
        let (mut net, _received) = two_hosts_one_switch(1000, 1000, 1);
        let cap = Arc::new(Mutex::new(0usize));
        net.set_app(NodeId(1), Box::new(Recycler { took_capacity: cap.clone() }));
        net.run_until(10 * MILLIS);
        assert!(*cap.lock().unwrap() > 0, "take_buf must return the recycled frame's storage");
    }

    #[test]
    fn host_added_mid_run_still_starts() {
        struct Starter {
            started: Arc<Mutex<bool>>,
        }
        impl HostApp for Starter {
            fn start(&mut self, _ctx: &mut HostCtx<'_>) {
                *self.started.lock().unwrap() = true;
            }
            fn as_any(&mut self) -> &mut dyn Any {
                self
            }
        }
        let mut net = Network::new(0);
        let _h0 = net.add_host(Box::new(NullApp));
        net.run_until(MILLIS);
        let started = Arc::new(Mutex::new(false));
        let _h1 = net.add_host(Box::new(Starter { started: started.clone() }));
        net.run_until(2 * MILLIS);
        assert!(*started.lock().unwrap(), "late-added host must still get start()");
    }

    #[test]
    fn split_diverts_cross_shard_frames_into_outbox() {
        // Switch in shard 0, hosts in shard 1: every host transmission must
        // come out of shard 1's outbox as a RemoteFrame for the switch.
        let (net, _received) = two_hosts_one_switch(1000, 1000, 5);
        let shards = net.split(&[0, 1, 1], 2);
        let mut host_shard = shards.into_iter().nth(1).unwrap();
        assert!(!host_shard.is_local(NodeId(0)));
        assert!(host_shard.is_local(NodeId(2)));
        host_shard.run_until(MILLIS);
        let out = host_shard.take_outbox();
        assert_eq!(out.len(), 5, "all blaster frames head for the remote switch");
        assert!(out.iter().all(|f| f.node == NodeId(0)), "destined to the switch");
        // Per-link sequence numbers give a total order on the one link.
        let seqs: Vec<u64> = out.iter().map(|f| f.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn split_propagates_pool_high_water() {
        let (mut net, _received) = two_hosts_one_switch(1000, 1000, 1);
        net.set_pool_high_water(7);
        let shards = net.split(&[0, 1, 1], 2);
        assert!(shards.iter().all(|s| s.pool().high_water() == 7));
    }

    #[test]
    fn inject_remote_delivers_like_a_local_send() {
        // Hand-route the RemoteFrames from the host shard into the switch
        // shard and watch the switch forward them back out (into its own
        // outbox, since the destination host is remote there).
        let (net, _received) = two_hosts_one_switch(1000, 1000, 3);
        let mut shards = net.split(&[0, 1, 1], 2);
        shards[1].run_until(MILLIS);
        let frames = shards[1].take_outbox();
        assert_eq!(frames.len(), 3);
        for f in frames {
            shards[0].inject_remote(f);
        }
        shards[0].run_until(2 * MILLIS);
        let forwarded = shards[0].take_outbox();
        assert_eq!(forwarded.len(), 3, "switch forwarded every frame toward remote h1");
        assert!(forwarded.iter().all(|f| f.node == NodeId(1)));
    }
}
