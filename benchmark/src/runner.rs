//! How a number is taken: set-up several times, then rounds of one slice per
//! workload until the time budget is spent, with a calibration slice before
//! every workload slice; and, separately, the traced pass.

use std::io::Write;
use std::path::PathBuf;
use std::time::Instant;

use crate::stats::{fast_rate, median, Sample};
use crate::trace::Tracer;
use crate::workloads::switch::PrivateSwitch;
use crate::{LayerValue, Spec, Workload};

/// Set-ups per workload per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;
/// Fewest rounds of a full run, however small `--seconds`: four replays of
/// the 16-step simulator cell, so every phase has been sampled.
pub const MIN_ROUNDS: usize = 64;

/// How long the timed pass runs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Length {
    /// Rounds until `seconds` of host time per workload have passed, and at
    /// least [`MIN_ROUNDS`].
    Seconds(f64),
    /// Exactly this many rounds and a single set-up (`--smoke`).
    Rounds(usize),
}

/// One workload's timed-pass result.
pub struct Timed {
    pub spec: &'static Spec,
    pub setups: Vec<f64>,
    pub samples: Vec<Sample>,
    pub calibration: Vec<Sample>,
    pub attempted: u64,
    pub failed: u64,
    pub digest: u64,
}

impl Timed {
    /// Fast-share rate of the workload's op per host second.
    pub fn ops_per_s(&self) -> f64 {
        fast_rate(&self.samples)
    }

    pub fn setup_s(&self) -> f64 {
        median(&self.setups)
    }
}

/// One workload's traced-pass result.
pub struct Traced {
    pub spec: &'static Spec,
    pub values: Vec<LayerValue>,
    /// Ops of the checked slice that closes the traced pass.
    pub attempted: u64,
}

impl Traced {
    /// The value of a per-layer metric; 0 when the layer is not on this
    /// workload's path.
    pub fn value(&self, name: &str) -> f64 {
        self.values.iter().find(|(n, _)| *n == name).map_or(0.0, |(_, v)| *v)
    }
}

/// Frames per slice of the calibration arm (~0.2 ms, a tenth of a workload
/// slice). The arm is a fixed `receive` + `dequeue` loop on a private
/// one-route switch; its slices interleave with the workloads', so its drift
/// shows how much the host moved under the run. (An ALU-only loop was found
/// not to see the contention this container suffers from.)
const CALIBRATION_FRAMES: usize = 2_000;

/// The timed pass over `specs`: tracing and allocation counting stay off.
pub fn timed_pass(
    specs: &[&'static Spec],
    seed: u64,
    length: Length,
) -> Result<Vec<Timed>, String> {
    let reps = if matches!(length, Length::Rounds(_)) { 1 } else { SETUP_REPS };
    let mut live: Vec<(Box<dyn Workload>, Timed)> = Vec::new();
    for &spec in specs {
        let mut setups = Vec::with_capacity(reps);
        let mut workload = None;
        for _ in 0..reps {
            drop(workload.take());
            let t0 = Instant::now();
            let w = (spec.setup)(seed).map_err(|e| format!("{}: set-up: {e}", spec.name))?;
            setups.push(t0.elapsed().as_secs_f64());
            workload = Some(w);
        }
        let w = workload.expect("at least one set-up");
        let digest = w.output_digest();
        live.push((
            w,
            Timed {
                spec,
                setups,
                samples: Vec::new(),
                calibration: Vec::new(),
                attempted: 0,
                failed: 0,
                digest,
            },
        ));
    }

    let mut calibration = PrivateSwitch::calibration();
    let started = Instant::now();
    let mut rounds = 0;
    loop {
        let done = match length {
            Length::Rounds(n) => rounds >= n,
            Length::Seconds(s) => {
                rounds >= MIN_ROUNDS && started.elapsed().as_secs_f64() >= s * specs.len() as f64
            }
        };
        if done {
            break;
        }
        for (w, t) in &mut live {
            let ns = calibration.forward(CALIBRATION_FRAMES);
            t.calibration.push(Sample::new(CALIBRATION_FRAMES as u64, ns));
            let s = w.slice().map_err(|e| format!("{}: output check: {e}", t.spec.name))?;
            t.samples.push(Sample { ops: s.ops, ns: s.ns, phase: s.phase });
            t.attempted += s.ops + s.failed;
            t.failed += s.failed;
        }
        rounds += 1;
    }
    Ok(live.into_iter().map(|(_, t)| t).collect())
}

/// Where the traced pass writes its spans and counts.
pub fn trace_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out").join("trace.jsonl")
}

/// The traced pass of one workload, on a fresh set-up, closed by one checked
/// slice. Spans and counts are appended to `sink`.
pub fn traced_pass(
    spec: &'static Spec,
    seed: u64,
    seconds: f64,
    sink: &mut impl Write,
) -> Result<Traced, String> {
    let mut w = (spec.setup)(seed).map_err(|e| format!("{}: set-up: {e}", spec.name))?;
    let mut tr = Tracer::new(spec.name);
    let values =
        w.traced(&mut tr, seconds).map_err(|e| format!("{}: traced pass: {e}", spec.name))?;
    let s = w.slice().map_err(|e| format!("{}: output check: {e}", spec.name))?;
    if s.failed != 0 {
        return Err(format!("{}: {} ops failed in the traced pass", spec.name, s.failed));
    }
    tr.write_jsonl(sink).map_err(|e| format!("writing the trace: {e}"))?;
    Ok(Traced { spec, values, attempted: s.ops })
}
