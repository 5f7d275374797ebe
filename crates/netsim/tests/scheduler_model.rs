//! Property tests: the timing-wheel [`Scheduler`] against its executable
//! specification, the pre-wheel [`HeapQueue`].
//!
//! Both structures are driven with identical arbitrary schedules — delays
//! clustered around every wheel-level boundary (0/1, 63/64, 4095/4096,
//! 262143/262144, and past the 64^6 overflow horizon) plus
//! millisecond-scale horizons (1ms and the 64^4 boundary, the WAN event
//! mix that exercises multi-level cascades and the clustered-slot
//! wholesale move), arbitrary order keys, interleaved pops — and must agree
//! on every pop, every peek, and every length along the way.
//! Same-timestamp keyed ordering is the load-bearing property: the sharded
//! fabric replays tie-breaks from keys alone, so a wheel that reordered a
//! single equal-time pair would silently break digest determinism.
//!
//! Every property runs at three spill thresholds — 0 (pure wheel), 16 (the
//! heap backend spills into the wheel mid-schedule), and the default — so
//! the hybrid's backend switch is exercised under the same arbitrary
//! schedules as the wheel itself.

use proptest::prelude::*;
use tpp_netsim::engine::{HeapQueue, Scheduler};

prop_compose! {
    /// One operation: `(kind, delay, key)`. Kinds 0-1 schedule, 2-3 pop.
    fn arb_op()(
        kind in 0u8..4,
        delay_class in 0usize..12,
        fine in 0u64..128,
        key in 0u64..4,
    ) -> (u8, u64, u64) {
        const BASES: [u64; 12] = [
            0, 0, 1, 63, 64, 4095, 4096, 262_143, 262_144,
            1_000_000,   // 1 ms — a WAN-delay event among ns events
            16_777_216,  // 64^4: the level boundary ms horizons cascade through
            1 << 36,
        ];
        (kind, BASES[delay_class].saturating_add(fine), key)
    }
}

proptest! {
    #[test]
    fn wheel_matches_heap_reference(ops in prop::collection::vec(arb_op(), 1..300)) {
        for threshold in [0, 16, usize::MAX] {
        let mut wheel = Scheduler::with_spill_threshold(threshold);
        let mut heap = HeapQueue::new();
        let mut next_id = 0u64;
        for &(kind, delay, key) in &ops {
            match kind {
                0 | 1 => {
                    let at = heap.now() + delay;
                    wheel.schedule_keyed(at, key, next_id);
                    heap.schedule_keyed(at, key, next_id);
                    next_id += 1;
                }
                _ => prop_assert_eq!(wheel.pop(), heap.pop()),
            }
            prop_assert_eq!(wheel.len(), heap.len());
            prop_assert_eq!(wheel.peek_time(), heap.peek_time(), "peek must be exact");
            prop_assert_eq!(wheel.now(), heap.now());
        }
        loop {
            let (w, h) = (wheel.pop(), heap.pop());
            prop_assert_eq!(w, h);
            if w.is_none() {
                break;
            }
        }
        prop_assert_eq!(wheel.now(), heap.now());
        prop_assert!(wheel.is_empty());
        }
    }

    /// Scheduling *at the current timestamp* while that timestamp is
    /// partially drained must merge by key exactly like the heap.
    #[test]
    fn same_timestamp_merge_matches_heap(
        keys in prop::collection::vec(0u64..6, 2..40),
        late_keys in prop::collection::vec(0u64..6, 1..20),
    ) {
        for threshold in [0, 16, usize::MAX] {
        let mut wheel = Scheduler::with_spill_threshold(threshold);
        let mut heap = HeapQueue::new();
        for (i, &k) in keys.iter().enumerate() {
            wheel.schedule_keyed(50, k, i as u64);
            heap.schedule_keyed(50, k, i as u64);
        }
        // Pop one to stage the timestamp, then rain more events onto it.
        prop_assert_eq!(wheel.pop(), heap.pop());
        for (i, &k) in late_keys.iter().enumerate() {
            let id = 1000 + i as u64;
            wheel.schedule_keyed(50, k, id);
            heap.schedule_keyed(50, k, id);
            prop_assert_eq!(wheel.peek_time(), heap.peek_time());
        }
        loop {
            let (w, h) = (wheel.pop(), heap.pop());
            prop_assert_eq!(w, h);
            if w.is_none() {
                break;
            }
        }
        }
    }
}
