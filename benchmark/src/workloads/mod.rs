//! The seven workloads and the helpers their traced passes share.

pub mod rcp;
pub mod shim;
pub mod sim;
pub mod switch;

use std::time::Instant;

use tpp_netsim::NetStats;

use crate::stats::{fast_rate, Sample};
use crate::trace::Tracer;

/// Frame-hops the simulator got wrong. The simulated workloads configure no
/// link faults and no churn, so a frame lost or corrupted on a link, or
/// dropped by any switch guard other than the drop-tail queue, is a simulator
/// failure. Drop-tail losses are the simulated network's behaviour under the
/// offered load (the WAN cell is built around a 400 Mb/s bottleneck, RCP*
/// probes for the fair rate by filling queues); they are reported as
/// `switch.switch.drops`, not as failed ops.
pub fn wrong_hops(s: &NetStats) -> u64 {
    s.frames_dropped_in_flight + s.frames_corrupted + s.switch_drops() - s.drops_queue_full
}

/// Fewest chunks a layer timing is taken from, however small the budget.
const MIN_CHUNKS: usize = 8;

/// Time `chunk(i)` repeatedly for about `seconds` and return nanoseconds per
/// call, from the fastest share of the chunks (the same estimator as the
/// end-to-end rate). `chunk` returns how many calls it made and, if it timed
/// only part of itself, that time. With `span` set every chunk is recorded as
/// a span of that name.
pub fn per_call_ns(
    tr: &mut Tracer,
    span: Option<&'static str>,
    seconds: f64,
    mut chunk: impl FnMut(usize) -> (u64, Option<u64>),
) -> f64 {
    let mut samples: Vec<Sample> = Vec::new();
    let started = Instant::now();
    while started.elapsed().as_secs_f64() < seconds || samples.len() < MIN_CHUNKS {
        let i = samples.len();
        let (calls, ns) = match span {
            Some(name) => {
                let open = tr.enter(name);
                let (calls, own) = chunk(i);
                let ns = tr.exit(open);
                (calls, own.unwrap_or(ns))
            }
            None => {
                let t0 = Instant::now();
                let (calls, own) = chunk(i);
                (calls, own.unwrap_or(t0.elapsed().as_nanos() as u64))
            }
        };
        samples.push(Sample::new(calls, ns));
    }
    1e9 / fast_rate(&samples)
}
