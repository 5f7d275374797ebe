//! Deterministic discrete-event core: the event scheduler.
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
//! # One binary heap
//!
//! The queue is a `BinaryHeap` ordered by `(time, key, seq)` and nothing
//! else. A hierarchical timing wheel once took over past 2,048 pending
//! events; it was deleted once the queues this tree builds were measured:
//! at most 289 pending events in 66 of the 69 `eval_matrix` cells, 841 to
//! 1,599 in the three link-flap cells, at most 289 in every `BENCHMARK.json`
//! workload, and 2,939 on the one run that ever crossed over (`fig_scale`,
//! k=8 fat-tree, one shard), where the heap alone was no slower. The
//! tables are in CHANGES.md (PR 20).

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Simulation time in nanoseconds.
pub type Time = u64;

pub const MILLIS: Time = 1_000_000;
pub const SECONDS: Time = 1_000_000_000;

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

/// A deterministic event scheduler (see the module docs for the contract).
pub struct Scheduler<E> {
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
    /// The clock: the timestamp of the last popped event. It never exceeds
    /// the earliest pending deadline.
    now: Time,
}

impl<E> Default for Scheduler<E> {
    fn default() -> Self {
        Scheduler { heap: BinaryHeap::new(), next_seq: 0, now: 0 }
    }
}

impl<E> Scheduler<E> {
    pub fn new() -> Self {
        Self::default()
    }

    /// Current simulation time: the timestamp of the last popped event.
    pub fn now(&self) -> Time {
        self.now
    }

    pub fn len(&self) -> usize {
        self.heap.len()
    }

    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
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
        self.heap.push(Entry { time: at, key, seq, event });
    }

    /// Schedule `event` after a delay relative to now. A delay that would
    /// pass the end of time lands there: `Time::MAX` means "never".
    pub fn schedule_in(&mut self, delay: Time, event: E) {
        self.schedule_at(self.now.saturating_add(delay), event);
    }

    /// Pop the earliest event, advancing the clock.
    pub fn pop(&mut self) -> Option<(Time, E)> {
        let e = self.heap.pop()?;
        debug_assert!(e.time >= self.now);
        self.now = e.time;
        Some((e.time, e.event))
    }

    /// Timestamp of the next event without popping.
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
    fn schedule_in_saturates_at_the_end_of_time() {
        // `now + delay` past `Time::MAX` used to panic in debug and wrap
        // into the past in release, where the clamp delivered it at `now`.
        let mut q = Scheduler::new();
        q.schedule_at(100, "first");
        q.pop(); // now == 100
        q.schedule_in(Time::MAX, "never");
        q.schedule_in(50, "soon");
        q.schedule_at(Time::MAX - 1, "late");
        assert_eq!(q.pop(), Some((150, "soon")));
        assert_eq!(q.pop(), Some((Time::MAX - 1, "late")));
        assert_eq!(q.pop(), Some((Time::MAX, "never")));
    }

    // The distances below (64^n boundaries, the 64^6 ns span, a slot three
    // levels up) are the edges of the timing wheel this queue replaced;
    // they stay as awkward distances any queue must order.

    #[test]
    fn far_future_events_wait_their_turn() {
        let mut q = Scheduler::new();
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
    fn order_holds_across_power_of_64_boundaries() {
        let mut q = Scheduler::new();
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
        // the pending larger-key events.
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
        // Peek reports the event's exact timestamp, not a rounding of it,
        // and leaves the clock alone.
        let mut q = Scheduler::new();
        q.schedule_keyed(5000 + 4096 * 3, 7, "x");
        assert_eq!(q.peek_time(), Some(5000 + 4096 * 3));
        assert_eq!(q.now(), 0, "peek must not advance the clock");
        assert_eq!(q.pop(), Some((5000 + 4096 * 3, "x")));
    }

    #[test]
    fn len_counts_near_and_far_events() {
        let mut q = Scheduler::new();
        q.schedule_at(10, 0);
        q.schedule_at(10, 1);
        q.schedule_at(64u64.pow(6) * 2, 2);
        assert_eq!(q.len(), 3);
        q.pop();
        assert_eq!(q.len(), 2); // one at the popped timestamp, one far out
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

    /// `peek_time` sees the near deadline past a far one scheduled first.
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
}
