//! Metric names, units and directions, and how results are printed.
//!
//! The tables here are the code's copy of `BENCHMARK.json`; a test compares
//! the two so they cannot drift apart.

use crate::runner::{Timed, Traced};
use crate::stats::{fast_rate, Spread};
use crate::WORKLOADS;

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"higher"` or `"lower"`.
    pub better: &'static str,
    /// A count or a simulated quantity: two runs of the same code at the
    /// same seed must agree exactly (`--repeat-check` enforces it).
    pub exact: bool,
}

const fn timing(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit, better: "lower", exact: false }
}

const fn count(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better, exact: true }
}

/// Host-time metrics a user of the system would see, gated by `BENCHMARK.json`.
pub const END_TO_END: [MetricDef; 2] = [
    MetricDef { name: "ops_per_s", unit: "1/s", better: "higher", exact: false },
    timing("setup_s", "s"),
];

/// Share of the parent's median by which an end-to-end metric may get worse
/// before a change is rejected, in [`END_TO_END`] order.
pub const BOUNDS: [f64; 2] = [0.20, 0.25];

/// Seconds one run of `BENCHMARK.json`'s command measures.
pub const RUN_SECONDS: u32 = 10;

/// Single-layer metrics from the traced pass. A workload reports 0 for a
/// layer that is not on its path.
pub const PER_LAYER: [MetricDef; 51] = [
    timing("core.wire.locate_ns", "ns"),
    timing("core.wire.parse_ns", "ns"),
    count("core.wire.checksum_bytes_per_op", "B", "lower"),
    timing("core.exec.in_place_ns", "ns"),
    timing("core.exec.reference_ns", "ns"),
    count("core.exec.instrs_per_op", "count", "lower"),
    timing("core.verify.verify_ns", "ns"),
    timing("core.probe.compile_ns", "ns"),
    timing("core.probe.decode_ns", "ns"),
    timing("switch.tables.lookup_ns", "ns"),
    count("switch.tables.routes", "count", "lower"),
    timing("switch.plan_cache.plan_ns", "ns"),
    count("switch.plan_cache.hit_ratio", "ratio", "higher"),
    count("switch.plan_cache.misses", "1/op", "lower"),
    count("switch.plan_cache.evictions", "1/op", "lower"),
    timing("switch.pipeline.plan_ns", "ns"),
    timing("switch.pipeline.exec_ns", "ns"),
    timing("switch.switch.receive_ns", "ns"),
    timing("switch.switch.dequeue_ns", "ns"),
    timing("switch.switch.self_ns", "ns"),
    timing("switch.switch.p99_ns", "ns"),
    count("switch.switch.slow_path_share", "ratio", "lower"),
    count("switch.switch.drops", "count", "lower"),
    count("switch.switch.allocs_per_op", "1/op", "lower"),
    count("switch.switch.live_bytes_peak", "B", "lower"),
    timing("endhost.filter.select_ns", "ns"),
    timing("endhost.shim.outgoing_ns", "ns"),
    timing("endhost.shim.incoming_ns", "ns"),
    count("endhost.shim.stamped_share", "ratio", "higher"),
    count("endhost.shim.allocs_per_op", "1/op", "lower"),
    count("endhost.executor.retry_share", "ratio", "lower"),
    count("apps.rcp.probe_overhead_share", "ratio", "lower"),
    count("apps.rcp.goodput_mbps", "Mb/s", "higher"),
    count("apps.rcp.model_err", "ratio", "lower"),
    timing("netsim.engine.sched_ns_per_event", "ns"),
    count("netsim.engine.events_per_op", "1/op", "lower"),
    timing("netsim.net.run_ns_per_event", "ns"),
    count("netsim.net.rx_batch_mean", "count", "higher"),
    count("netsim.net.pool_retained", "count", "lower"),
    count("netsim.net.drops_in_flight", "count", "lower"),
    timing("netsim.net.switch_share_est", "ratio"),
    // Thread interleaving in the 2-shard fabric can move these two by a few
    // allocations, so they are not held to exact equality.
    timing("netsim.net.allocs_per_op", "1/op"),
    timing("netsim.net.live_bytes_peak", "B"),
    timing("netsim.scenario.build_s", "s"),
    timing("fabric.workload.install_s", "s"),
    timing("fabric.partition.split_s", "s"),
    count("fabric.partition.lookahead_ns", "ns", "higher"),
    timing("fabric.runtime.run_ns_per_event", "ns"),
    MetricDef {
        name: "fabric.runtime.speedup_vs_1shard",
        unit: "ratio",
        better: "higher",
        exact: false,
    },
    count("fabric.runtime.epochs_est", "count", "lower"),
    timing("trace_overhead_ratio", "ratio"),
];

/// `BENCHMARK.json`, written from the tables above so that the file at the
/// root of the repo and the code cannot disagree (a test compares them).
pub fn benchmark_json() -> String {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .zip(BOUNDS)
        .map(|(d, bound)| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {bound}}}",
                d.name, d.unit, d.better
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|d| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                d.name, d.unit, d.better
            )
        })
        .collect();
    format!(
        concat!(
            "{{\n",
            "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", ",
            "\"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n",
            "  \"paths\": [\"benchmark\"],\n",
            "  \"run_seconds\": {},\n",
            "  \"workloads\": [\n{}\n  ],\n",
            "  \"end_to_end\": [\n{}\n  ],\n",
            "  \"per_layer\": [\n{}\n  ]\n",
            "}}\n"
        ),
        RUN_SECONDS,
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n"),
    )
}

/// A finite JSON number with all its digits.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn metrics_json(defs: &[MetricDef], value_of: impl Fn(&str) -> f64) -> String {
    let fields: Vec<String> = defs
        .iter()
        .map(|d| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                d.name,
                num(value_of(d.name)),
                d.unit
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// The result object the benchmark contract asks for, as one line.
fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &str) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {metrics}}}",
        attempted.max(1)
    )
}

pub fn timed_json(t: &Timed) -> String {
    let metrics = metrics_json(&END_TO_END, |name| match name {
        "ops_per_s" => t.ops_per_s(),
        _ => t.setup_s(),
    });
    result_json(t.failed == 0, t.attempted, t.failed, &metrics)
}

pub fn traced_json(t: &Traced) -> String {
    let metrics = metrics_json(&PER_LAYER, |name| t.value(name));
    result_json(true, t.attempted, 0, &metrics)
}

fn unit_of(name: &str) -> &'static str {
    PER_LAYER.iter().find(|d| d.name == name).map_or("ratio", |d| d.unit)
}

/// Every end-to-end metric by name with its unit, then what is printed
/// beside them but not gated: slice spread, calibration drift, digest.
pub fn print_timed(t: &Timed) {
    let name = t.spec.name;
    println!(
        "{name}  ops_per_s   {:>16.1} 1/s   [host time; op = {}; fastest of {} slices]",
        t.ops_per_s(),
        t.spec.op,
        t.samples.len()
    );
    println!(
        "{name}  setup_s     {:>16.6} s     [host time; median of {} set-ups]",
        t.setup_s(),
        t.setups.len()
    );
    println!(
        "{name}  fail_share  {:>16.9} ratio [exact; {} failed of {} attempted]",
        t.failed as f64 / t.attempted.max(1) as f64,
        t.failed,
        t.attempted
    );
    let s = Spread::of(&t.samples);
    println!(
        "{name}  slice ns/op: fast share {:.2}; relative to the fastest slice: median {:.3}  q1 {:.3}  q3 {:.3}  p99 {:.3}  iqr/median {:.3}  noisy={}",
        1e9 / t.ops_per_s(), s.median, s.q1, s.q3, s.p99, s.iqr_ratio(), s.noisy()
    );
    let c = Spread::of(&t.calibration);
    println!(
        "{name}  calibration arm ns/op: fast share {:.2}; relative: median {:.3}  q3 {:.3}  p99 {:.3}  drift (q3-q1)/median {:.3}",
        1e9 / fast_rate(&t.calibration), c.median, c.q3, c.p99, c.iqr_ratio()
    );
    println!("{name}  output_digest {:#018x}", t.digest);
}

pub fn print_traced(t: &Traced) {
    for (name, v) in &t.values {
        println!("{}  {name:<36} {v:>18.6} {}", t.spec.name, unit_of(name));
    }
}
