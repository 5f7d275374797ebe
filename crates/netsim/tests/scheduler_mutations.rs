//! Hostile times cannot make the scheduler or the simulator's clock
//! misbehave. A seed-replayable loop (the generator is `Rng` of
//! `tests/support/mutate.rs` at the workspace root): each case drives a
//! [`Scheduler`] and the model of its contract (`support/model.rs`) with
//! times earlier than the clock, equal to it, at `Time::MAX` ("never") and
//! just below, `now + delay` wrapped at the overflow edge the way release
//! arithmetic wraps it, ordinary delays and zero-length horizons.
//!
//! In release the scheduler clamps a time in the past to its clock, and
//! both must agree on every pop, take, peek, length and clock reading with
//! no panic. In debug the one panic allowed is the documented "scheduling
//! into the past"; it ends the case. A second loop gives a host the same
//! times through `HostCtx::set_timer` (which saturates) and `set_timer_at`
//! (which clamps), and advances the network by earlier, equal and later
//! horizons: every timer fires exactly when it is due, in time order, and
//! nothing fires past the horizon. A failure is reported with its seed and
//! case number, which `Rng::for_case` replays.

use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};

use tpp_netsim::engine::Scheduler;
use tpp_netsim::{HostApp, HostCtx, Network, Time, MILLIS};

// One fixed seed: `mutate::seed`, which reads another from the environment,
// goes unused here, and so do the frame mutations.
#[allow(dead_code)]
#[path = "../../../tests/support/mutate.rs"]
mod mutate;
use mutate::Rng;

#[path = "support/model.rs"]
mod model;
use model::Model;

const CASES: u64 = 100_000;
const SEED: u64 = 0x5EED_C10C;

/// The documented debug-build panic of `Scheduler::schedule_keyed`.
const PAST: &str = "scheduling into the past";

/// A time relative to the clock `now`.
fn hostile(now: Time, rng: &mut Rng) -> Time {
    let small = rng.below(3) as Time;
    match rng.below(8) {
        0 => now.saturating_sub(1 + small),
        1 => now,
        2 => Time::MAX - small,
        // `now + delay` for delays that end at `MAX - 1`, `MAX`, then wrap to 0.
        3 => now.wrapping_add((Time::MAX - now).wrapping_add(small).wrapping_sub(1)),
        // A delay of "never", wrapped: one before the clock.
        4 => now.wrapping_add(Time::MAX),
        5 | 6 => now.saturating_add(rng.below(1_000) as Time),
        _ => rng.below(usize::MAX) as Time,
    }
}

fn message(payload: &(dyn Any + Send)) -> &str {
    match payload.downcast_ref::<String>() {
        Some(s) => s,
        None => payload.downcast_ref::<&str>().copied().unwrap_or("a non-string panic"),
    }
}

/// What one case reached: schedules into the past, and events popped or
/// taken at `Time::MAX`.
#[derive(Default)]
struct Reached {
    past: u64,
    never: u64,
}

fn schedule(q: &mut Scheduler<u64>, model: &mut Model, rng: &mut Rng, id: u64, seen: &mut Reached) {
    let (at, key) = (hostile(model.now, rng), rng.below(4) as u64);
    seen.past += u64::from(at < model.now);
    q.schedule_keyed(at, key, id);
    model.schedule_keyed(at, key, id);
}

/// Up to 64 operations: schedules, pops, and event-loop steps that take the
/// top if it is due by a hostile horizon and schedule up to two follow-ups,
/// the first into the taken entry's slot. Then both drain.
fn drive(rng: &mut Rng, seen: &mut Reached) {
    let (mut q, mut model, mut id) = (Scheduler::new(), Model::default(), 0..);
    for _ in 0..1 + rng.below(64) {
        match rng.below(4) {
            0 | 1 => schedule(&mut q, &mut model, rng, id.next().unwrap(), seen),
            2 => assert_eq!(q.pop(), model.pop()),
            _ => {
                let until = hostile(model.now, rng);
                let taken = q.take_due(until);
                assert_eq!(taken, model.take_due(until), "take_due({until})");
                seen.never += u64::from(taken.is_some_and(|(t, _)| t == Time::MAX));
                for _ in 0..taken.map_or(0, |_| rng.below(3)) {
                    schedule(&mut q, &mut model, rng, id.next().unwrap(), seen);
                }
            }
        }
        assert_eq!(q.len(), model.pending.len());
        assert_eq!(q.peek_time(), model.peek_time());
        assert_eq!(q.now(), model.now);
    }
    loop {
        let (got, want) = (q.pop(), model.pop());
        assert_eq!(got, want);
        assert_eq!(q.now(), model.now);
        match got {
            Some((t, _)) => seen.never += u64::from(t == Time::MAX),
            None => break,
        }
    }
}

#[test]
fn hostile_times_agree_with_the_model() {
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        if !message(info.payload()).starts_with(PAST) {
            default_hook(info);
        }
    }));
    let (mut seen, mut panicked) = (Reached::default(), 0u64);
    for case in 0..CASES {
        let mut rng = Rng::for_case(SEED, case);
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| drive(&mut rng, &mut seen))) {
            let message = message(&*payload);
            assert!(
                cfg!(debug_assertions) && message.starts_with(PAST),
                "seed {SEED}, case {case}: {message}"
            );
            panicked += 1;
        }
    }
    // Every case that scheduled into the past panicked in debug, and only
    // those; in release none did. Both builds reach "never".
    let expected = if cfg!(debug_assertions) { seen.past } else { 0 };
    assert_eq!(panicked, expected);
    assert!(seen.past > CASES / 10, "{} schedules into the past", seen.past);
    assert!(seen.never > CASES / 10, "{} events at Time::MAX", seen.never);
}

/// A host that arms up to `budget` timers, one to three at start and at
/// each firing, and logs when each fires.
struct Timers {
    rng: Rng,
    budget: usize,
    /// When each timer, by token, is due.
    due: Vec<Time>,
    fired: Vec<(Time, u64)>,
}

impl Timers {
    fn arm(&mut self, ctx: &mut HostCtx<'_>) {
        for _ in 0..1 + self.rng.below(3) {
            if self.due.len() == self.budget {
                return;
            }
            let (token, at) = (self.due.len() as u64, hostile(ctx.now, &mut self.rng));
            if self.rng.below(2) == 0 {
                let delay = at.wrapping_sub(ctx.now);
                ctx.set_timer(delay, token);
                self.due.push(ctx.now.saturating_add(delay));
            } else {
                ctx.set_timer_at(at, token);
                self.due.push(at.max(ctx.now));
            }
        }
    }
}

impl HostApp for Timers {
    fn start(&mut self, ctx: &mut HostCtx<'_>) {
        self.arm(ctx);
    }
    fn on_timer(&mut self, ctx: &mut HostCtx<'_>, token: u64) {
        self.fired.push((ctx.now, token));
        self.arm(ctx);
    }
}

#[test]
fn hostile_timers_fire_when_due() {
    for case in 0..CASES / 10 {
        let mut rng = Rng::for_case(SEED, case);
        let app =
            Timers { rng: Rng::for_case(!SEED, case), budget: 16, due: vec![], fired: vec![] };
        let mut net = Network::new(case);
        let host = net.add_host(Box::new(app));
        let mut horizon: Time = 0;
        for _ in 0..1 + rng.below(6) {
            // Earlier than the last horizon, equal to it, or up to 2 ms on.
            let until = match rng.below(3) {
                0 => horizon.saturating_sub(1 + rng.below(1_000) as Time),
                1 => horizon,
                _ => horizon + rng.below(2 * MILLIS as usize) as Time,
            };
            net.run_until(until);
            horizon = horizon.max(until);
            assert!(net.now() <= horizon, "case {case}: the clock passed {horizon}");
        }
        let Timers { due, fired, .. } = net.app_mut::<Timers>(host);
        assert!(fired.is_sorted_by_key(|&(at, _)| at), "case {case}: {fired:?}");
        for &(at, token) in fired.iter() {
            assert_eq!(at, due[token as usize], "case {case}: timer {token}");
        }
        let want: Vec<u64> =
            (0..due.len() as u64).filter(|&t| due[t as usize] <= horizon).collect();
        let mut got: Vec<u64> = fired.iter().map(|&(_, token)| token).collect();
        got.sort_unstable();
        assert_eq!(got, want, "case {case}: due by {horizon}: {due:?}");
    }
}
