//! Deterministic discrete-event core: a hierarchical timing-wheel
//! scheduler.
//!
//! # Ordering contract
//!
//! Events at equal timestamps are delivered by ascending *order key*, then
//! by insertion order (a strictly increasing sequence number breaks the
//! remaining ties). Plain [`Scheduler::schedule_at`] uses key 0 for every
//! event, which degenerates to pure insertion-order ties — the classic
//! single-queue behavior. [`Scheduler::schedule_keyed`] lets a simulation
//! attach a *content-derived* key (e.g. packed from node id and port) so
//! that same-timestamp delivery order is a function of the events
//! themselves rather than of when they were inserted. That property is what
//! allows a sharded runtime (`tpp-fabric`) to replay the exact same
//! tie-break decisions as the single-threaded simulator: per-shard queues
//! cannot reproduce global insertion order, but they *can* reproduce keys.
//!
//! # The wheel
//!
//! The scheduler is a hierarchical timing wheel (Varghese & Lauck's "hashed
//! and hierarchical timing wheels", the structure inside every serious
//! timer subsystem) rather than a comparison-based heap:
//!
//! * [`LEVELS`] levels of [`SLOTS`] slots each; level `l` slots are
//!   `64^l` ns wide. Slots are *absolute-digit* aligned: the wheel holds
//!   exactly the deadlines sharing the clock's current `64^6`-era (its
//!   bits above bit 35), so it reaches up to the next era boundary — on
//!   average half of, at most all of, `64^6` ns ≈ 68.7 simulated seconds.
//!   Near a boundary even a deadline 1 ns ahead detours through the
//!   overflow heap; that era partitioning is what keeps wheel and overflow
//!   from ever interleaving. Scheduling is O(1): two shifts and a push.
//! * An event lands at the level of the *highest bit group in which its
//!   deadline differs from the current clock*. As the clock reaches a
//!   non-leaf slot's start time, the slot's events *cascade* down to finer
//!   levels; each event cascades at most `LEVELS - 1` times in its life.
//! * A level-0 slot is exactly 1 ns wide, so every event in it shares one
//!   timestamp. Draining a level-0 slot and sorting it by `(key, seq)`
//!   yields precisely the heap's pop order.
//! * Deadlines further out than the wheel span go to a sorted *overflow
//!   heap* and migrate into the wheel when the clock gets close enough.
//!   Because every wheel event shares the clock's high bits and every
//!   overflow event differs in them, the wheel minimum is always earlier
//!   than the overflow minimum — the two structures never interleave.
//!
//! # The hybrid
//!
//! At small queue sizes a plain binary heap beats the wheel: the wheel's
//! per-pop slot scans and cascades cost more than a handful of sift-downs
//! (the `engine_scale` benchmark crossover sits near a couple thousand
//! pending events). [`Scheduler`] therefore starts on an internal
//! `BinaryHeap` backend and *spills* — once, one-way — into the wheel the
//! first time its length crosses [`Scheduler::with_spill_threshold`]'s
//! threshold (default [`SPILL_THRESHOLD`]). Until then the heap *is* the
//! queue: it already yields `(time, key, seq)` order, so a pop is one
//! `BinaryHeap::pop` and a clock update, and nothing is staged. After the
//! spill the heap stays empty and every pop goes through the wheel's staged
//! level-0 slot. Both backends pop in identical order, so the switch is
//! invisible to callers; threshold 0 forces the wheel from the first event,
//! `usize::MAX` pins the heap forever. The wheel's bucket storage is
//! allocated lazily at the first spill, so a scheduler that never crosses
//! the threshold costs no more to construct than the heap it wraps.
//!
//! The pre-wheel `BinaryHeap` implementation survives as [`HeapQueue`]: it
//! is the reference model the property tests compare the wheel against,
//! and the "legacy" arm of the `engine_scale` benchmark.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

/// Simulation time in nanoseconds.
pub type Time = u64;

pub const MILLIS: Time = 1_000_000;
pub const SECONDS: Time = 1_000_000_000;

/// log2 of the slots per wheel level.
const BITS: u32 = 6;
/// Slots per wheel level.
pub const SLOTS: usize = 1 << BITS;
const SLOT_MASK: u64 = SLOTS as u64 - 1;
/// Wheel levels; level `l` covers `64^(l+1)` ns, the whole wheel `64^6` ns.
pub const LEVELS: usize = 6;
/// Default queue length at which the scheduler spills from its small-queue
/// heap backend into the timing wheel (see the module docs).
pub const SPILL_THRESHOLD: usize = 2048;

struct Entry<E> {
    time: Time,
    key: u64,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.key == other.key && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want earliest first.
        (other.time, other.key, other.seq).cmp(&(self.time, self.key, self.seq))
    }
}

/// `(level, slot)` for a deadline `at`, relative to clock position `now`,
/// or `None` when `at` is beyond the wheel span (overflow).
#[inline]
fn level_slot(now: Time, at: Time) -> Option<(usize, usize)> {
    let masked = at ^ now;
    let level =
        if masked == 0 { 0 } else { (63 - masked.leading_zeros()) as usize / BITS as usize };
    if level >= LEVELS {
        return None;
    }
    Some((level, ((at >> (BITS * level as u32)) & SLOT_MASK) as usize))
}

/// A deterministic event scheduler (see the module docs for the wheel).
pub struct Scheduler<E> {
    /// The clock: the timestamp of the last popped event, and the wheel's
    /// rotation position. Invariant between public calls: `now` never
    /// exceeds the earliest pending deadline.
    now: Time,
    next_seq: u64,
    len: usize,
    /// `LEVELS * SLOTS` buckets, level-major.
    slots: Vec<Vec<Entry<E>>>,
    /// One occupancy bit per slot, per level — O(1) next-slot scans.
    occupied: [u64; LEVELS],
    /// Per-slot minimum timestamp so `peek_time` is exact without draining.
    slot_min: Vec<Time>,
    /// Per-slot maximum timestamp. Together with `slot_min` this detects
    /// *clustered* slots — every entry mapping to one destination slot —
    /// which cascade as a wholesale `Vec` move instead of entry-by-entry
    /// re-insertion. That is the WAN profile: a burst of frames scheduled
    /// milliseconds ahead within a few µs of each other lands thousands
    /// of entries in one coarse slot, and without the move each would pay
    /// a re-bucketing per level on the way down.
    slot_max: Vec<Time>,
    /// Deadlines beyond the wheel span, earliest first.
    overflow: BinaryHeap<Entry<E>>,
    /// The wheel's staged level-0 slot: every not-yet-popped event of
    /// timestamp `ready_time`, sorted by `(key, seq)`. Late arrivals for the
    /// same timestamp merge in by key, preserving the heap ordering
    /// contract. Only the wheel fills it; it is empty until the spill.
    ready: VecDeque<Entry<E>>,
    ready_time: Time,
    /// Recycled slot storage: draining a slot parks its `Vec` here, and
    /// both cascade *destinations* and drained slots draw replacements
    /// from the pool. A single spare is not enough once events cluster —
    /// a WAN-delay batch cascading down the levels lands thousands of
    /// entries in one destination slot per level, and without recycled
    /// capacity every transition re-grows that slot from zero (realloc +
    /// memcpy each doubling). Bounded so idle capacity can't accumulate.
    spare_pool: Vec<Vec<Entry<E>>>,
    /// Small-queue backend: until the first spill every pending event lives
    /// here and the wheel is empty; after it, this is empty for good.
    heap: BinaryHeap<Entry<E>>,
    /// Queue length beyond which the heap backend spills into the wheel.
    spill_threshold: usize,
    /// Latched on the first spill: from then on inserts go to the wheel.
    spilled: bool,
}

impl<E> Default for Scheduler<E> {
    fn default() -> Self {
        Scheduler {
            now: 0,
            next_seq: 0,
            len: 0,
            // Wheel storage is allocated lazily on the first spill: a
            // scheduler that stays under the threshold never pays for the
            // LEVELS x SLOTS buckets. Safe because every slot access is
            // guarded by an `occupied` bit, and bits are only set by
            // `insert_wheel`, which runs after `spill` has allocated.
            slots: Vec::new(),
            occupied: [0; LEVELS],
            slot_min: Vec::new(),
            slot_max: Vec::new(),
            overflow: BinaryHeap::new(),
            ready: VecDeque::new(),
            ready_time: 0,
            spare_pool: Vec::new(),
            heap: BinaryHeap::new(),
            spill_threshold: SPILL_THRESHOLD,
            spilled: false,
        }
    }
}

impl<E> Scheduler<E> {
    pub fn new() -> Self {
        Self::default()
    }

    /// A scheduler that spills from the heap backend to the wheel once its
    /// length exceeds `threshold`: 0 forces the wheel from the first event,
    /// `usize::MAX` pins the heap backend forever. [`Scheduler::new`] uses
    /// [`SPILL_THRESHOLD`].
    pub fn with_spill_threshold(threshold: usize) -> Self {
        Scheduler { spill_threshold: threshold, ..Self::default() }
    }

    /// Current simulation time: the timestamp of the last popped event.
    pub fn now(&self) -> Time {
        self.now
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Schedule `event` at absolute time `at`. Scheduling in the past is a
    /// logic error and panics in debug builds; in release it clamps to now.
    pub fn schedule_at(&mut self, at: Time, event: E) {
        self.schedule_keyed(at, 0, event);
    }

    /// Schedule `event` at `at` with an explicit same-timestamp order key:
    /// ties are broken by `(key, insertion order)`. Keys must be derived
    /// from event *content* if the schedule is to be reproducible across
    /// differently-partitioned runs (see module docs). The time-travel
    /// guard applies: `at < now` panics in debug builds and clamps to `now`
    /// in release builds, so a queue can never silently reorder the past.
    pub fn schedule_keyed(&mut self, at: Time, key: u64, event: E) {
        debug_assert!(at >= self.now, "scheduling into the past: {} < {}", at, self.now);
        let at = at.max(self.now);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.len += 1;
        let entry = Entry { time: at, key, seq, event };
        if !self.spilled {
            self.heap.push(entry);
            if self.len > self.spill_threshold {
                self.spill();
            }
            return;
        }
        if !self.ready.is_empty() && at == self.ready_time {
            // This timestamp is already staged: merge by key (every staged
            // entry has a smaller seq, so key alone decides).
            let pos = self.ready.partition_point(|e| (e.key, e.seq) <= (key, seq));
            self.ready.insert(pos, entry);
            return;
        }
        self.insert_wheel(entry);
    }

    /// One-way switch from the heap backend to the wheel: re-file every
    /// heap entry (arbitrary drain order — the wheel buckets by deadline).
    fn spill(&mut self) {
        self.spilled = true;
        if self.slots.is_empty() {
            self.slots = (0..LEVELS * SLOTS).map(|_| Vec::new()).collect();
            self.slot_min = vec![Time::MAX; LEVELS * SLOTS];
            self.slot_max = vec![0; LEVELS * SLOTS];
        }
        for entry in std::mem::take(&mut self.heap) {
            self.insert_wheel(entry);
        }
    }

    /// Schedule `event` after a delay relative to now.
    pub fn schedule_in(&mut self, delay: Time, event: E) {
        self.schedule_at(self.now + delay, event);
    }

    /// Pool bound: far above the number of slots live at once on any real
    /// schedule, far below anything that could pin real memory.
    const SPARE_POOL_CAP: usize = 32;

    fn insert_wheel(&mut self, entry: Entry<E>) {
        match level_slot(self.now, entry.time) {
            Some((level, slot)) => {
                let idx = level * SLOTS + slot;
                self.slot_min[idx] = self.slot_min[idx].min(entry.time);
                self.slot_max[idx] = self.slot_max[idx].max(entry.time);
                let bucket = &mut self.slots[idx];
                if bucket.capacity() == 0 {
                    if let Some(recycled) = self.spare_pool.pop() {
                        *bucket = recycled;
                    }
                }
                bucket.push(entry);
                self.occupied[level] |= 1 << slot;
            }
            None => self.overflow.push(entry),
        }
    }

    /// Park a drained slot's storage for reuse (dropped when full).
    fn recycle(&mut self, mut storage: Vec<Entry<E>>) {
        if self.spare_pool.len() < Self::SPARE_POOL_CAP {
            storage.clear();
            self.spare_pool.push(storage);
        }
    }

    /// First occupied `(level, slot)` in deadline order, or `None` when the
    /// wheel is empty. The lowest occupied level always holds the earliest
    /// deadline: level-`l` events live inside the clock's current level-
    /// `l+1` digit span, while higher-level occupancy sits at later digits.
    fn next_occupied(&self) -> Option<(usize, usize)> {
        for level in 0..LEVELS {
            let pos = (self.now >> (BITS * level as u32)) & SLOT_MASK;
            let bits = self.occupied[level] & (!0u64 << pos);
            if bits != 0 {
                return Some((level, bits.trailing_zeros() as usize));
            }
        }
        None
    }

    /// Wheel backend: make `ready` hold every event of the earliest pending
    /// timestamp. Returns false when no events remain anywhere.
    fn stage_next(&mut self) -> bool {
        if !self.ready.is_empty() {
            return true;
        }
        loop {
            let Some((level, slot)) = self.next_occupied() else {
                // Wheel empty: pull the overflow prefix that fits into the
                // wheel once the clock jumps to the overflow minimum.
                let Some(min) = self.overflow.peek() else { return false };
                self.now = min.time;
                while let Some(p) = self.overflow.peek() {
                    if level_slot(self.now, p.time).is_none() {
                        break;
                    }
                    let e = self.overflow.pop().unwrap();
                    self.insert_wheel(e);
                }
                continue;
            };
            let shift = BITS * level as u32;
            if level == 0 {
                // 1 ns slots: everything here shares one timestamp.
                let deadline = (self.now & !SLOT_MASK) | slot as u64;
                debug_assert!(deadline >= self.now);
                self.now = deadline;
                let idx = slot; // level 0
                self.occupied[0] &= !(1 << slot);
                self.slot_min[idx] = Time::MAX;
                self.slot_max[idx] = 0;
                let mut batch = std::mem::take(&mut self.slots[idx]);
                batch.sort_unstable_by_key(|e| (e.key, e.seq));
                debug_assert!(batch.iter().all(|e| e.time == deadline));
                self.ready.extend(batch.drain(..));
                self.recycle(batch);
                self.ready_time = deadline;
                return true;
            }
            // Cascade: advance the clock to the slot's start (still at or
            // before every pending deadline) and re-insert its events —
            // their top differing digit now sits at a finer level.
            let range_mask = (1u64 << (BITS * (level as u32 + 1))) - 1;
            let deadline = (self.now & !range_mask) | ((slot as u64) << shift);
            debug_assert!(deadline >= self.now);
            self.now = deadline;
            let idx = level * SLOTS + slot;
            self.occupied[level] &= !(1 << slot);
            let lo = self.slot_min[idx];
            let hi = self.slot_max[idx];
            self.slot_min[idx] = Time::MAX;
            self.slot_max[idx] = 0;
            // Clustered fast path: when the earliest and latest deadlines
            // in the slot map to the same destination, every entry does —
            // move the storage wholesale (see the `slot_max` field docs).
            if let (Some(dst_lo), Some(dst_hi)) =
                (level_slot(self.now, lo), level_slot(self.now, hi))
            {
                if dst_lo == dst_hi {
                    let (l2, s2) = dst_lo;
                    debug_assert!(l2 < level);
                    let dst = l2 * SLOTS + s2;
                    let mut moved = std::mem::take(&mut self.slots[idx]);
                    if self.slots[dst].is_empty() {
                        let old = std::mem::replace(&mut self.slots[dst], moved);
                        self.recycle(old);
                    } else {
                        self.slots[dst].append(&mut moved);
                        self.recycle(moved);
                    }
                    self.slot_min[dst] = self.slot_min[dst].min(lo);
                    self.slot_max[dst] = self.slot_max[dst].max(hi);
                    self.occupied[l2] |= 1 << s2;
                    continue;
                }
            }
            // Cascade targets are strictly lower levels, so the drained
            // slot is never pushed to while `cascading` holds its storage.
            let mut cascading = std::mem::take(&mut self.slots[idx]);
            for e in cascading.drain(..) {
                debug_assert!(level_slot(self.now, e.time).is_some_and(|(l, _)| l < level));
                self.insert_wheel(e);
            }
            self.recycle(cascading);
        }
    }

    /// Pop the earliest event, advancing the clock.
    pub fn pop(&mut self) -> Option<(Time, E)> {
        let e = if !self.spilled {
            // Heap backend: the heap's own order is the contract's order.
            let e = self.heap.pop()?;
            debug_assert!(e.time >= self.now);
            self.now = e.time;
            e
        } else {
            if !self.stage_next() {
                return None;
            }
            self.ready.pop_front().expect("stage_next filled the staged slot")
        };
        self.len -= 1;
        debug_assert_eq!(self.now, e.time);
        Some((e.time, e.event))
    }

    /// Timestamp of the next event without popping. Exact: the heap's head
    /// before the spill; after it, per-slot minima make this a scan of at
    /// most one candidate slot per level plus the staged slot and the
    /// overflow head, with no cascading.
    pub fn peek_time(&self) -> Option<Time> {
        if !self.spilled {
            return self.heap.peek().map(|e| e.time);
        }
        if self.len == 0 {
            return None;
        }
        let mut best = if self.ready.is_empty() { Time::MAX } else { self.ready_time };
        for level in 0..LEVELS {
            let pos = (self.now >> (BITS * level as u32)) & SLOT_MASK;
            let bits = self.occupied[level] & (!0u64 << pos);
            if bits != 0 {
                best = best.min(self.slot_min[level * SLOTS + bits.trailing_zeros() as usize]);
            }
        }
        if let Some(head) = self.overflow.peek() {
            best = best.min(head.time);
        }
        Some(best)
    }
}

/// The pre-wheel scheduler: a plain `BinaryHeap` ordered by
/// `(time, key, seq)`. Kept as the executable specification — the property
/// tests drive [`Scheduler`] and `HeapQueue` with identical schedules and
/// demand identical pop sequences — and as the `legacy` arm of the
/// `engine_scale` benchmark.
pub struct HeapQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
    now: Time,
}

impl<E> Default for HeapQueue<E> {
    fn default() -> Self {
        HeapQueue { heap: BinaryHeap::new(), next_seq: 0, now: 0 }
    }
}

impl<E> HeapQueue<E> {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn now(&self) -> Time {
        self.now
    }

    pub fn len(&self) -> usize {
        self.heap.len()
    }

    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    pub fn schedule_at(&mut self, at: Time, event: E) {
        self.schedule_keyed(at, 0, event);
    }

    pub fn schedule_keyed(&mut self, at: Time, key: u64, event: E) {
        debug_assert!(at >= self.now, "scheduling into the past: {} < {}", at, self.now);
        let at = at.max(self.now);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { time: at, key, seq, event });
    }

    pub fn schedule_in(&mut self, delay: Time, event: E) {
        self.schedule_at(self.now + delay, event);
    }

    pub fn pop(&mut self) -> Option<(Time, E)> {
        let e = self.heap.pop()?;
        debug_assert!(e.time >= self.now);
        self.now = e.time;
        Some((e.time, e.event))
    }

    pub fn peek_time(&self) -> Option<Time> {
        self.heap.peek().map(|e| e.time)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_pop_in_time_order() {
        let mut q = Scheduler::new();
        q.schedule_at(30, "c");
        q.schedule_at(10, "a");
        q.schedule_at(20, "b");
        assert_eq!(q.pop(), Some((10, "a")));
        assert_eq!(q.pop(), Some((20, "b")));
        assert_eq!(q.pop(), Some((30, "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ties_broken_by_insertion_order() {
        let mut q = Scheduler::new();
        for i in 0..100 {
            q.schedule_at(5, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((5, i)));
        }
    }

    #[test]
    fn clock_advances_monotonically() {
        let mut q = Scheduler::new();
        q.schedule_at(10, ());
        q.schedule_at(10, ());
        q.schedule_at(25, ());
        let mut last = 0;
        while let Some((t, _)) = q.pop() {
            assert!(t >= last);
            last = t;
        }
        assert_eq!(q.now(), 25);
    }

    #[test]
    fn keys_order_same_timestamp_events() {
        let mut q = Scheduler::new();
        q.schedule_keyed(10, 3, "c");
        q.schedule_keyed(10, 1, "a");
        q.schedule_keyed(10, 2, "b");
        q.schedule_keyed(5, 9, "first"); // earlier time wins over any key
        assert_eq!(q.pop(), Some((5, "first")));
        assert_eq!(q.pop(), Some((10, "a")));
        assert_eq!(q.pop(), Some((10, "b")));
        assert_eq!(q.pop(), Some((10, "c")));
    }

    #[test]
    fn equal_keys_fall_back_to_insertion_order() {
        let mut q = Scheduler::new();
        for i in 0..50 {
            q.schedule_keyed(7, 42, i);
        }
        for i in 0..50 {
            assert_eq!(q.pop(), Some((7, i)));
        }
    }

    /// The time-travel guard: a shard-local queue must never silently
    /// reorder the past. Debug builds panic; release builds clamp to `now`.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "scheduling into the past")]
    fn schedule_into_the_past_panics_in_debug() {
        let mut q = Scheduler::new();
        q.schedule_at(100, "later");
        q.pop(); // now == 100
        q.schedule_at(99, "earlier");
    }

    #[test]
    #[cfg(not(debug_assertions))]
    fn schedule_into_the_past_clamps_in_release() {
        let mut q = Scheduler::new();
        q.schedule_at(100, "later");
        q.pop(); // now == 100
        q.schedule_at(99, "earlier");
        assert_eq!(q.pop(), Some((100, "earlier")));
    }

    #[test]
    fn schedule_relative() {
        let mut q = Scheduler::new();
        q.schedule_at(100, 1);
        q.pop();
        q.schedule_in(50, 2);
        assert_eq!(q.pop(), Some((150, 2)));
    }

    #[test]
    fn far_future_events_overflow_and_return() {
        // Beyond the 64^6 ns span: must detour through the overflow heap
        // and still pop in exact order.
        let mut q = Scheduler::with_spill_threshold(0);
        let span = 64u64.pow(6);
        q.schedule_at(3 * span + 7, "far");
        q.schedule_at(5, "near");
        q.schedule_keyed(3 * span + 7, 0, "far2"); // same far timestamp
        assert_eq!(q.pop(), Some((5, "near")));
        assert_eq!(q.pop(), Some((3 * span + 7, "far")));
        assert_eq!(q.pop(), Some((3 * span + 7, "far2")));
        assert_eq!(q.pop(), None);
        assert_eq!(q.now(), 3 * span + 7);
    }

    #[test]
    fn cascades_preserve_order_across_level_boundaries() {
        // Straddle several level boundaries (64, 4096, 262144 ns).
        let mut q = Scheduler::with_spill_threshold(0);
        let times = [0u64, 1, 63, 64, 65, 4095, 4096, 4097, 262143, 262144, 1 << 30];
        for (i, &t) in times.iter().enumerate() {
            q.schedule_at(t, i);
        }
        for (i, &t) in times.iter().enumerate() {
            assert_eq!(q.pop(), Some((t, i)));
        }
    }

    #[test]
    fn late_same_timestamp_arrivals_merge_by_key() {
        // After popping some of a timestamp's events, a newly scheduled
        // event at that same timestamp with a smaller key must pop before
        // the already-staged larger-key events (heap semantics).
        let mut q = Scheduler::new();
        q.schedule_keyed(10, 2, "b");
        q.schedule_keyed(10, 9, "z");
        assert_eq!(q.pop(), Some((10, "b")));
        q.schedule_keyed(10, 5, "mid");
        assert_eq!(q.peek_time(), Some(10));
        assert_eq!(q.pop(), Some((10, "mid")));
        assert_eq!(q.pop(), Some((10, "z")));
    }

    #[test]
    fn peek_next_is_exact_for_coarse_slots() {
        // An event parked in a level-2 slot: peek must report its exact
        // timestamp, not the slot boundary.
        let mut q = Scheduler::with_spill_threshold(0);
        q.schedule_keyed(5000 + 4096 * 3, 7, "x");
        assert_eq!(q.peek_time(), Some(5000 + 4096 * 3));
        assert_eq!(q.now(), 0, "peek must not advance the clock");
        assert_eq!(q.pop(), Some((5000 + 4096 * 3, "x")));
    }

    #[test]
    fn len_counts_staged_and_overflow() {
        let mut q = Scheduler::with_spill_threshold(0);
        q.schedule_at(10, 0);
        q.schedule_at(10, 1);
        q.schedule_at(64u64.pow(6) * 2, 2);
        assert_eq!(q.len(), 3);
        q.pop();
        assert_eq!(q.len(), 2); // one staged, one overflow
        assert!(!q.is_empty());
        q.pop();
        q.pop();
        assert!(q.is_empty());
    }

    #[test]
    fn interleaved_scheduling_stays_ordered() {
        // Property-style: pseudo-random schedule offsets never violate
        // monotonicity.
        let mut q = Scheduler::new();
        let mut state = 12345u64;
        q.schedule_at(0, 0u64);
        let mut popped = 0;
        let mut last = 0;
        while let Some((t, _)) = q.pop() {
            assert!(t >= last);
            last = t;
            popped += 1;
            if popped > 1000 {
                break;
            }
            // xorshift
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            if popped < 500 {
                q.schedule_in(state % 100, popped);
                if state.is_multiple_of(3) {
                    q.schedule_in(0, popped + 1000);
                }
            }
        }
        assert!(popped >= 500);
    }

    /// Exhaustive differential sweep against the heap model on a dense
    /// xorshift schedule mixing delays around every level boundary.
    #[test]
    fn wheel_matches_heap_on_mixed_schedule() {
        let mut wheel = Scheduler::with_spill_threshold(0);
        let mut heap = HeapQueue::new();
        let mut state = 0xDEADBEEFu64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let delays =
            [0u64, 1, 2, 63, 64, 65, 100, 4095, 4096, 5000, 262143, 262144, 1 << 24, 1 << 37];
        for i in 0..200u64 {
            let d = delays[(rng() % delays.len() as u64) as usize];
            let key = rng() % 4;
            wheel.schedule_keyed(d, key, i);
            heap.schedule_keyed(d, key, i);
        }
        let mut n = 0u64;
        loop {
            let (w, h) = (wheel.pop(), heap.pop());
            assert_eq!(w, h, "divergence after {n} pops");
            if w.is_none() {
                break;
            }
            n += 1;
            // Keep feeding while draining, relative to the advancing clock.
            if n < 400 {
                let d = delays[(rng() % delays.len() as u64) as usize];
                let key = rng() % 4;
                let at = wheel.now() + d;
                wheel.schedule_keyed(at, key, 10_000 + n);
                heap.schedule_keyed(at, key, 10_000 + n);
            }
        }
        assert_eq!(wheel.now(), heap.now());
    }

    /// The default scheduler stays on its heap backend below the spill
    /// threshold, where even era-crossing deadlines need no overflow detour.
    #[test]
    fn heap_backend_handles_far_deadlines_without_spilling() {
        let mut q = Scheduler::new();
        let span = 64u64.pow(6);
        q.schedule_at(3 * span + 7, "far");
        q.schedule_at(5, "near");
        assert_eq!(q.peek_time(), Some(5));
        assert_eq!(q.pop(), Some((5, "near")));
        assert_eq!(q.pop(), Some((3 * span + 7, "far")));
        assert_eq!(q.pop(), None);
    }

    /// Crossing the spill threshold mid-run must be invisible: a hybrid
    /// with a tiny threshold and the reference heap see identical pops,
    /// peeks, and lengths through the transition.
    #[test]
    fn hybrid_spill_is_invisible_mid_run() {
        let mut q = Scheduler::with_spill_threshold(16);
        let mut heap = HeapQueue::new();
        let mut state = 0xC0FFEEu64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let delays = [0u64, 1, 63, 64, 100, 4095, 4096, 262_144, 1 << 24, 1 << 37];
        for i in 0..200u64 {
            let d = delays[(rng() % delays.len() as u64) as usize];
            let key = rng() % 4;
            let at = q.now() + d;
            q.schedule_keyed(at, key, i);
            heap.schedule_keyed(at, key, i);
            assert_eq!(q.len(), heap.len());
            assert_eq!(q.peek_time(), heap.peek_time());
            if rng().is_multiple_of(3) {
                assert_eq!(q.pop(), heap.pop());
            }
        }
        loop {
            let (w, h) = (q.pop(), heap.pop());
            assert_eq!(w, h);
            if w.is_none() {
                break;
            }
        }
        assert_eq!(q.now(), heap.now());
    }
}
