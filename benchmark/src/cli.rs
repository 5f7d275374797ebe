//! Command line of the benchmark and the modes it selects.
//!
//! ```text
//! tpp-benchmark --workload NAME --seed N --seconds S --trace 0|1
//!     one workload, one pass; the last stdout line is the result object
//!     (every end-to-end metric with --trace 0, every per-layer metric
//!     with --trace 1). This is how BENCHMARK.json's command is run.
//! tpp-benchmark [--workload NAME] [--seed N] [--seconds S]
//!     timed pass in interleaved rounds over all (or one) workload, then the
//!     traced pass of each; prints every metric by name with its unit.
//! tpp-benchmark --smoke          2 rounds, one set-up, no traced pass
//! tpp-benchmark --repeat-check   the full set twice, compared
//! tpp-benchmark --print-benchmark-json
//!     BENCHMARK.json as the code's metric tables define it
//! ```

use std::fs;
use std::io::BufWriter;
use std::io::Write;

use crate::report::{self, BOUNDS, PER_LAYER};
use crate::runner::{timed_pass, trace_path, traced_pass, Length, Timed, Traced};
use crate::{spec, Spec, WORKLOADS};

#[derive(Clone, Debug, PartialEq)]
pub struct Args {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: Option<f64>,
    pub trace: Option<bool>,
    pub smoke: bool,
    pub repeat_check: bool,
    pub print_benchmark_json: bool,
}

pub const USAGE: &str = "usage: tpp-benchmark [--workload NAME] [--seed N] [--seconds S] \
[--trace 0|1] [--smoke] [--repeat-check] [--print-benchmark-json]";

/// Seconds per workload and pass when `--seconds` is not given: the whole
/// default invocation (7 workloads, timed + traced) stays under two minutes.
const DEFAULT_SECONDS: f64 = 6.0;

pub fn parse(argv: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: None,
        trace: None,
        smoke: false,
        repeat_check: false,
        print_benchmark_json: false,
    };
    let mut it = argv.into_iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => {
                args.seed = value("a number")?.parse().map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let s: f64 = value("a number")?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = Some(match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                });
            }
            "--smoke" => args.smoke = true,
            "--repeat-check" => args.repeat_check = true,
            "--print-benchmark-json" => args.print_benchmark_json = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if let Some(name) = &args.workload {
        if spec(name).is_none() {
            let names: Vec<&str> = WORKLOADS.iter().map(|s| s.name).collect();
            return Err(format!("unknown workload {name}; one of {}", names.join(", ")));
        }
    }
    if args.trace.is_some() && args.workload.is_none() {
        return Err("--trace runs one workload: give --workload".into());
    }
    Ok(args)
}

fn selected(args: &Args) -> Vec<&'static Spec> {
    match &args.workload {
        Some(name) => vec![spec(name).expect("validated by parse")],
        None => WORKLOADS.iter().collect(),
    }
}

fn trace_sink() -> Result<BufWriter<fs::File>, String> {
    let path = trace_path();
    let dir = path.parent().expect("trace path has a directory");
    fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    fs::File::create(&path).map(BufWriter::new).map_err(|e| format!("{}: {e}", path.display()))
}

fn flush(mut sink: BufWriter<fs::File>) -> Result<(), String> {
    sink.flush().map_err(|e| format!("writing the trace: {e}"))
}

/// Timed pass, then the traced pass of every selected workload.
fn full_set(
    specs: &[&'static Spec],
    seed: u64,
    seconds: f64,
) -> Result<Vec<(Timed, Traced)>, String> {
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    println!("# seed {seed}, {seconds} s per workload and pass, nproc {cores}; all rates are per host second");
    let timed = timed_pass(specs, seed, Length::Seconds(seconds))?;
    let mut sink = trace_sink()?;
    let mut out = Vec::new();
    for t in timed {
        report::print_timed(&t);
        let traced = traced_pass(t.spec, seed, seconds, &mut sink)?;
        report::print_traced(&traced);
        out.push((t, traced));
    }
    flush(sink)?;
    println!("# spans and counts written to {}", trace_path().display());
    Ok(out)
}

/// What two runs of the same code at the same seed must agree on.
fn compare(a: &[(Timed, Traced)], b: &[(Timed, Traced)]) -> Vec<String> {
    let mut bad = Vec::new();
    for ((ta, la), (tb, lb)) in a.iter().zip(b) {
        let name = ta.spec.name;
        // Timings: within the bounds BENCHMARK.json gates them with (set-up
        // also gets 0.05 s of absolute slack: some set-ups are that small).
        let (ra, rb) = (ta.ops_per_s(), tb.ops_per_s());
        if (ra - rb).abs() / ra.max(rb) > BOUNDS[0] {
            bad.push(format!(
                "{name}: ops_per_s {ra:.0} vs {rb:.0} differ by more than {}",
                BOUNDS[0]
            ));
        }
        let (sa, sb) = (ta.setup_s(), tb.setup_s());
        let (lo, hi) = (sa.min(sb), sa.max(sb));
        if hi > (1.0 + BOUNDS[1]) * lo && hi > lo + 0.05 {
            bad.push(format!(
                "{name}: setup_s {sa:.4} vs {sb:.4} differ by more than {}",
                BOUNDS[1]
            ));
        }
        let share = |t: &Timed| t.failed as f64 / t.attempted.max(1) as f64;
        if share(ta) != share(tb) {
            bad.push(format!("{name}: fail_share {} vs {}", share(ta), share(tb)));
        }
        if ta.digest != tb.digest {
            bad.push(format!("{name}: output_digest {:#x} vs {:#x}", ta.digest, tb.digest));
        }
        for d in PER_LAYER.iter().filter(|d| d.exact) {
            if la.value(d.name) != lb.value(d.name) {
                bad.push(format!(
                    "{name}: {} {} vs {}",
                    d.name,
                    la.value(d.name),
                    lb.value(d.name)
                ));
            }
        }
    }
    bad
}

/// Run the mode `args` selects. `Err` is a message for stderr and a
/// non-zero exit.
pub fn run(args: &Args) -> Result<(), String> {
    if args.print_benchmark_json {
        print!("{}", report::benchmark_json());
        return Ok(());
    }
    let specs = selected(args);
    let seconds = args.seconds.unwrap_or(DEFAULT_SECONDS);

    if let Some(trace) = args.trace {
        let spec = specs[0];
        let line = if trace {
            let mut sink = trace_sink()?;
            let traced = traced_pass(spec, args.seed, seconds, &mut sink)?;
            flush(sink)?;
            report::print_traced(&traced);
            report::traced_json(&traced)
        } else {
            let timed = timed_pass(&specs, args.seed, Length::Seconds(seconds))?;
            report::print_timed(&timed[0]);
            if timed[0].failed != 0 {
                return Err(format!("{}: {} ops failed", spec.name, timed[0].failed));
            }
            report::timed_json(&timed[0])
        };
        println!("{line}");
        return Ok(());
    }

    if args.smoke {
        for t in timed_pass(&specs, args.seed, Length::Rounds(2))? {
            report::print_timed(&t);
        }
        return Ok(());
    }

    let first = full_set(&specs, args.seed, seconds)?;
    if args.repeat_check {
        println!("# --repeat-check: second set");
        let second = full_set(&specs, args.seed, seconds)?;
        let bad = compare(&first, &second);
        if !bad.is_empty() {
            return Err(format!("--repeat-check failed:\n  {}", bad.join("\n  ")));
        }
        println!(
            "# --repeat-check passed: timings within their bounds, counts and digests identical"
        );
    }
    for (t, l) in &first {
        println!(
            "{{\"workload\": \"{}\", \"timed\": {}, \"traced\": {}}}",
            t.spec.name,
            report::timed_json(t),
            report::traced_json(l)
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_contract_command_line() {
        let a = parse(argv("--workload sim_dc --seed 7 --seconds 10 --trace 1")).unwrap();
        assert_eq!(a.workload.as_deref(), Some("sim_dc"));
        assert_eq!((a.seed, a.seconds, a.trace), (7, Some(10.0), Some(true)));
        assert!(parse(argv("--workload nope")).is_err());
        assert!(parse(argv("--trace 0")).is_err());
        assert!(parse(argv("--seconds 0")).is_err());
        assert!(parse(argv("--bogus")).is_err());
        assert_eq!(parse(argv("")).unwrap().seed, 1);
    }
}
