//! Deterministic discrete-event core: the event scheduler.
//!
//! # Ordering contract
//!
//! Events at equal timestamps are delivered by ascending *order key*, then
//! by insertion order (a strictly increasing sequence number breaks the
//! remaining ties). Key 0 for every event degenerates to pure
//! insertion-order ties — the classic single-queue behavior.
//! [`Scheduler::schedule_keyed`] lets a simulation attach a
//! *content-derived* key (e.g. packed from node id and port) so
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
//!
//! The sifts move whole entries, so entries are kept narrow: three `u64`s
//! and the event, 32 bytes for the simulator's 8-byte event (asserted in
//! `net.rs`).
//!
//! # Replace-top
//!
//! An event loop whose handlers schedule follow-ups takes events with
//! [`Scheduler::take_due`] instead of [`Scheduler::pop`]. The taken entry
//! stays at the top of the heap as a dead slot, and the handler's first
//! schedule overwrites it: one sift-down, where a pop and a push cost a
//! sift to the bottom, a sift back up and a second sift-up. A handler that
//! schedules nothing leaves the slot to be popped before the next take.
//! Every other call sees only live events. Since `(time, key, seq)` orders
//! all entries, the pop sequence is the same either way.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Simulation time in nanoseconds.
pub type Time = u64;

pub const MILLIS: Time = 1_000_000;
pub const SECONDS: Time = 1_000_000_000;

pub(crate) struct Entry<E> {
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
    /// The clock: the timestamp of the last popped or taken event. It never
    /// exceeds the earliest pending deadline.
    now: Time,
    /// The heap's top is an event [`take_due`](Scheduler::take_due) handed
    /// out: dead, kept as the slot the next schedule overwrites.
    taken: bool,
}

impl<E> Default for Scheduler<E> {
    fn default() -> Self {
        Scheduler { heap: BinaryHeap::new(), next_seq: 0, now: 0, taken: false }
    }
}

impl<E> Scheduler<E> {
    pub fn new() -> Self {
        Self::default()
    }

    /// Current simulation time: the timestamp of the last popped or taken
    /// event.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Pending events, not counting a taken one.
    pub fn len(&self) -> usize {
        self.heap.len() - self.taken as usize
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
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
        let entry = Entry { time: at, key, seq, event };
        if std::mem::take(&mut self.taken) {
            // Replace-top: the guard sifts the new entry down on drop.
            *self.heap.peek_mut().expect("a taken event holds the top") = entry;
        } else {
            self.heap.push(entry);
        }
    }

    /// Pop the earliest event, advancing the clock.
    pub fn pop(&mut self) -> Option<(Time, E)> {
        self.settle();
        let e = self.heap.pop()?;
        debug_assert!(e.time >= self.now);
        self.now = e.time;
        Some((e.time, e.event))
    }

    /// Timestamp of the next event without popping.
    pub fn peek_time(&self) -> Option<Time> {
        let next = if self.taken {
            // The earlier of the dead top's children is the earliest live
            // event (the heap's order is reversed: max is earliest).
            self.heap.as_slice().iter().skip(1).take(2).max()
        } else {
            self.heap.peek()
        };
        next.map(|e| e.time)
    }

    /// Drop a taken top that no schedule took over.
    fn settle(&mut self) {
        if std::mem::take(&mut self.taken) {
            self.heap.pop();
        }
    }
}

impl<E: Copy> Scheduler<E> {
    /// Take the earliest event if it is due at or before `until`, advancing
    /// the clock to it. Unlike [`pop`](Scheduler::pop) this leaves the
    /// entry in the heap for the next schedule to overwrite (see the module
    /// docs on replace-top); the pop order is the same.
    pub fn take_due(&mut self, until: Time) -> Option<(Time, E)> {
        self.settle();
        let top = self.heap.peek().filter(|e| e.time <= until)?;
        debug_assert!(top.time >= self.now, "clock moved backwards: {} < {}", top.time, self.now);
        self.now = top.time;
        self.taken = true;
        Some((top.time, top.event))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_pop_in_time_order() {
        let mut q = Scheduler::new();
        q.schedule_keyed(30, 0, "c");
        q.schedule_keyed(10, 0, "a");
        q.schedule_keyed(20, 0, "b");
        assert_eq!(q.pop(), Some((10, "a")));
        assert_eq!(q.pop(), Some((20, "b")));
        assert_eq!(q.pop(), Some((30, "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ties_broken_by_insertion_order() {
        let mut q = Scheduler::new();
        for i in 0..100 {
            q.schedule_keyed(5, 0, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((5, i)));
        }
    }

    #[test]
    fn clock_advances_monotonically() {
        let mut q = Scheduler::new();
        q.schedule_keyed(10, 0, ());
        q.schedule_keyed(10, 0, ());
        q.schedule_keyed(25, 0, ());
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
        q.schedule_keyed(100, 0, "later");
        q.pop(); // now == 100
        q.schedule_keyed(99, 0, "earlier");
    }

    #[test]
    #[cfg(not(debug_assertions))]
    fn schedule_into_the_past_clamps_in_release() {
        let mut q = Scheduler::new();
        q.schedule_keyed(100, 0, "later");
        q.pop(); // now == 100
        q.schedule_keyed(99, 0, "earlier");
        assert_eq!(q.pop(), Some((100, "earlier")));
    }

    // The distances below (64^n boundaries, the 64^6 ns span, a slot three
    // levels up) are the edges of the timing wheel this queue replaced;
    // they stay as awkward distances any queue must order.

    #[test]
    fn far_future_events_wait_their_turn() {
        let mut q = Scheduler::new();
        let span = 64u64.pow(6);
        q.schedule_keyed(3 * span + 7, 0, "far");
        q.schedule_keyed(5, 0, "near");
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
            q.schedule_keyed(t, 0, i);
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
        q.schedule_keyed(10, 0, 0);
        q.schedule_keyed(10, 0, 1);
        q.schedule_keyed(64u64.pow(6) * 2, 0, 2);
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
        q.schedule_keyed(0, 0, 0u64);
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
                q.schedule_keyed(t + state % 100, 0, popped);
                if state.is_multiple_of(3) {
                    q.schedule_keyed(t, 0, popped + 1000);
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
        q.schedule_keyed(3 * span + 7, 0, "far");
        q.schedule_keyed(5, 0, "near");
        assert_eq!(q.peek_time(), Some(5));
        assert_eq!(q.pop(), Some((5, "near")));
        assert_eq!(q.pop(), Some((3 * span + 7, "far")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn take_due_stops_at_the_horizon() {
        let mut q = Scheduler::new();
        q.schedule_keyed(10, 0, "a");
        q.schedule_keyed(20, 0, "b");
        assert_eq!(q.take_due(5), None);
        assert_eq!((q.now(), q.len()), (0, 2), "nothing due: nothing taken");
        assert_eq!(q.take_due(10), Some((10, "a")));
        assert_eq!(q.take_due(15), None);
        assert_eq!(q.take_due(20), Some((20, "b")));
        assert_eq!(q.take_due(Time::MAX), None);
        assert!(q.is_empty());
    }

    #[test]
    fn a_taken_top_is_invisible_until_overwritten() {
        let mut q = Scheduler::new();
        q.schedule_keyed(10, 5, "taken");
        q.schedule_keyed(30, 0, "late");
        q.schedule_keyed(20, 0, "mid");
        assert_eq!(q.take_due(Time::MAX), Some((10, "taken")));
        assert_eq!((q.len(), q.peek_time(), q.now()), (2, Some(20), 10));
        // The handler's first schedule takes over the slot; a smaller key at
        // the taken timestamp still comes first, and the second schedule is
        // a plain push.
        q.schedule_keyed(10, 1, "follow-up");
        q.schedule_keyed(25, 0, "second");
        assert_eq!((q.len(), q.peek_time()), (4, Some(10)));
        let order: Vec<_> = std::iter::from_fn(|| q.take_due(Time::MAX)).collect();
        assert_eq!(order, [(10, "follow-up"), (20, "mid"), (25, "second"), (30, "late")]);
        assert!(q.is_empty() && q.peek_time().is_none());
    }

    #[test]
    fn pop_after_take_skips_the_taken_event() {
        let mut q = Scheduler::new();
        q.schedule_keyed(10, 0, 1);
        q.schedule_keyed(20, 0, 2);
        assert_eq!(q.take_due(Time::MAX), Some((10, 1)));
        assert_eq!(q.pop(), Some((20, 2)));
        assert_eq!(q.pop(), None);
        // A take of the only event: nothing live is left to peek.
        q.schedule_keyed(30, 0, 3);
        assert_eq!(q.take_due(Time::MAX), Some((30, 3)));
        assert_eq!((q.len(), q.peek_time()), (0, None));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "scheduling into the past")]
    fn a_take_advances_the_clock_guard() {
        let mut q = Scheduler::new();
        q.schedule_keyed(100, 0, "later");
        q.take_due(Time::MAX); // now == 100
        q.schedule_keyed(99, 0, "earlier");
    }
}
