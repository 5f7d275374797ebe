//! Property tests: [`Scheduler`] against a model of its ordering contract
//! that shares no code with `engine.rs`.
//!
//! The model (`support/model.rs`) keeps pending events in a `Vec` and each
//! pop scans for the minimum `(time, key, insertion index)`, which is the
//! contract read literally. Both are driven with identical arbitrary
//! schedules: delays at awkward distances (0/1, the powers of 64 that were
//! once timing-wheel level boundaries, a 1 ms WAN delay among ns events,
//! `1 << 36`), arbitrary order keys, interleaved pops. They must agree on
//! every pop, every peek, and every length along the way. Same-timestamp keyed
//! ordering is the load-bearing property: the sharded fabric replays
//! tie-breaks from keys alone, so a queue that reordered a single
//! equal-time pair would silently break digest determinism.
//!
//! A third kind of operation is the network's event loop step: take the
//! due top with `take_due`, then schedule 0, 1 or 2 follow-ups, the first
//! at the taken timestamp with a key no larger than any pending one. It
//! exercises replace-top, where the first follow-up overwrites the taken
//! entry's heap slot; the model simply pops.
//!
//! (`same_timestamp_merge_matches_heap` keeps the name it had when the
//! subject was a wheel and the oracle a heap; it now compares with the
//! model too.)

use proptest::prelude::*;
use tpp_netsim::engine::Scheduler;

#[path = "support/model.rs"]
mod model;
use model::Model;

prop_compose! {
    /// One operation: `(kind, delay, key)`. Kinds 0-1 schedule, 2-3 pop,
    /// 4-5 handle: take the top if due within `delay`, then schedule
    /// `key % 3` follow-ups.
    fn arb_op()(
        kind in 0u8..6,
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

/// One event-loop step on both: take the top if due by `now + delay`,
/// then, if one was taken, schedule `key % 3` follow-ups: the first at the
/// taken timestamp with key 0, the second `delay` later with `key`. The
/// views must skip a taken entry before and after its slot is reused.
fn handle(
    q: &mut Scheduler<u64>,
    model: &mut Model,
    next_id: &mut u64,
    (delay, key): (u64, u64),
) -> Result<(), TestCaseError> {
    let until = model.now.saturating_add(delay);
    let taken = q.take_due(until);
    prop_assert_eq!(taken, model.take_due(until));
    prop_assert_eq!(q.len(), model.pending.len());
    prop_assert_eq!(q.peek_time(), model.peek_time(), "a taken entry must not be peeked");
    let Some((t, _)) = taken else { return Ok(()) };
    for (at, key) in [(t, 0), (t.saturating_add(delay), key)].into_iter().take((key % 3) as usize) {
        q.schedule_keyed(at, key, *next_id);
        model.schedule_keyed(at, key, *next_id);
        *next_id += 1;
    }
    Ok(())
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
                2 | 3 => prop_assert_eq!(q.pop(), model.pop()),
                _ => handle(&mut q, &mut model, &mut next_id, (delay, key))?,
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

    /// The network's loop alone: a backlog of events, then handle steps
    /// with no horizon until the queue drains. Steps past the end of
    /// `steps` schedule nothing, so the loop ends.
    #[test]
    fn event_loop_matches_model(
        backlog in prop::collection::vec(arb_op(), 1..40),
        steps in prop::collection::vec(arb_op(), 0..400),
    ) {
        let mut q = Scheduler::new();
        let mut model = Model::default();
        let mut next_id = 0u64;
        for &(_, delay, key) in &backlog {
            q.schedule_keyed(delay, key, next_id);
            model.schedule_keyed(delay, key, next_id);
            next_id += 1;
        }
        let mut steps = steps.into_iter().map(|(_, delay, key)| (delay, key));
        while !model.pending.is_empty() {
            let step = steps.next().unwrap_or((u64::MAX, 0));
            handle(&mut q, &mut model, &mut next_id, step)?;
            prop_assert_eq!(q.now(), model.now);
        }
        prop_assert!(q.is_empty() && q.peek_time().is_none());
        prop_assert_eq!(q.pop(), None);
    }
}
