//! Property tests: [`Scheduler`] against a model of its ordering contract
//! that shares no code with `engine.rs`.
//!
//! The model keeps pending events in a `Vec` and each pop scans for the
//! minimum `(time, key, insertion index)`, which is the contract read
//! literally. Both are driven with identical arbitrary schedules: delays
//! at awkward distances (0/1, the powers of 64 that were once timing-wheel
//! level boundaries, a 1 ms WAN delay among ns events, `1 << 36`),
//! arbitrary order keys, interleaved pops. They must agree on every pop,
//! every peek, and every length along the way. Same-timestamp keyed
//! ordering is the load-bearing property: the sharded fabric replays
//! tie-breaks from keys alone, so a queue that reordered a single
//! equal-time pair would silently break digest determinism.
//!
//! (`same_timestamp_merge_matches_heap` keeps the name it had when the
//! subject was a wheel and the oracle a heap; it now compares with the
//! model too.)

use proptest::prelude::*;
use tpp_netsim::engine::Scheduler;

/// `(time, key, insertion index, id)`: field order is pop order.
#[derive(Default)]
struct Model {
    pending: Vec<(u64, u64, u64, u64)>,
    inserted: u64,
    now: u64,
}

impl Model {
    fn schedule_keyed(&mut self, at: u64, key: u64, id: u64) {
        self.pending.push((at.max(self.now), key, self.inserted, id));
        self.inserted += 1;
    }

    fn pop(&mut self) -> Option<(u64, u64)> {
        let first = (0..self.pending.len()).min_by_key(|&i| self.pending[i])?;
        let (time, _, _, id) = self.pending.swap_remove(first);
        self.now = time;
        Some((time, id))
    }

    fn peek_time(&self) -> Option<u64> {
        self.pending.iter().map(|e| e.0).min()
    }
}

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
            16_777_216,  // 64^4
            1 << 36,
        ];
        (kind, BASES[delay_class].saturating_add(fine), key)
    }
}

proptest! {
    #[test]
    fn scheduler_matches_min_scan_model(ops in prop::collection::vec(arb_op(), 1..300)) {
        let mut q = Scheduler::new();
        let mut model = Model::default();
        let mut next_id = 0u64;
        for &(kind, delay, key) in &ops {
            match kind {
                0 | 1 => {
                    let at = model.now + delay;
                    q.schedule_keyed(at, key, next_id);
                    model.schedule_keyed(at, key, next_id);
                    next_id += 1;
                }
                _ => prop_assert_eq!(q.pop(), model.pop()),
            }
            prop_assert_eq!(q.len(), model.pending.len());
            prop_assert_eq!(q.peek_time(), model.peek_time(), "peek must be exact");
            prop_assert_eq!(q.now(), model.now);
        }
        loop {
            let (got, want) = (q.pop(), model.pop());
            prop_assert_eq!(got, want);
            if got.is_none() {
                break;
            }
        }
        prop_assert_eq!(q.now(), model.now);
        prop_assert!(q.is_empty());
    }

    /// Scheduling *at the current timestamp* while that timestamp is
    /// partially drained must order the late arrivals by key among the
    /// events still pending there.
    #[test]
    fn same_timestamp_merge_matches_heap(
        keys in prop::collection::vec(0u64..6, 2..40),
        late_keys in prop::collection::vec(0u64..6, 1..20),
    ) {
        let mut q = Scheduler::new();
        let mut model = Model::default();
        for (i, &k) in keys.iter().enumerate() {
            q.schedule_keyed(50, k, i as u64);
            model.schedule_keyed(50, k, i as u64);
        }
        // Pop one so the clock sits on the timestamp, then rain more
        // events onto it.
        prop_assert_eq!(q.pop(), model.pop());
        for (i, &k) in late_keys.iter().enumerate() {
            let id = 1000 + i as u64;
            q.schedule_keyed(50, k, id);
            model.schedule_keyed(50, k, id);
            prop_assert_eq!(q.peek_time(), model.peek_time());
        }
        loop {
            let (got, want) = (q.pop(), model.pop());
            prop_assert_eq!(got, want);
            if got.is_none() {
                break;
            }
        }
    }
}
