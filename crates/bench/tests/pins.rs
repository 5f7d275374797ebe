//! Every behaviour pin of the workspace, checked against one table.
//!
//! `tests/pins.txt` holds one `name = value` row per pinned value (a line
//! starting with `#` is a comment). Each group below is a test of its own, so
//! the groups run in parallel. A group fails when the rows it produces differ
//! from its rows in the table in any way: a value that moved, a row the table
//! lacks, or a row the group no longer produces. The failure names each row.
//!
//! - `golden.*`: [`tpp_netsim::NetStats::digest`] of eight simulator
//!   scenarios, each run single-threaded and on 4 fabric shards. Both runs
//!   must give the row.
//! - `smoke.*`: the repo benchmark's `output_digest` of each workload set up
//!   at seed 1, the value its `--smoke` run prints.
//! - `counts.*`: every value the repo benchmark's traced pass reports of each
//!   workload at seed 1 that is not a timing (event, drop, plan-cache and
//!   allocation counts and shares), by its bits, and the ops it attempted.
//! - `rcp_fig2.*`, `conga_fig4.*`, `microburst.*`, `interdc.*`,
//!   `interdc_fct.*`, `fanout.*`: every `f64` these experiments report, by
//!   its bits, at horizons a debug build runs in seconds. A series is pinned by its length and by
//!   [`fnv1a`] over the bits of every point. The statistical tests beside
//!   each application allow wide bands; these catch any change at all. Each
//!   group runs at 1 and at 4 shards: the experiment's `run_*`, which drives
//!   one fabric shard, and the same builder and reader on 4 threaded shards.
//!   Both runs must give every row.
//!
//! After an intended behaviour change, re-record with
//! `PINS_RECORD=1 cargo test -p tpp-bench --test pins`. It rewrites the rows
//! that moved in place, keeping order and comments, and prints each move as
//! `name: old -> new`. The diff of `pins.txt` is then the change to review.

use std::process::Command;
use std::sync::atomic::Ordering;
use std::sync::{Mutex, PoisonError};

use tpp_apps::conga::{
    conga_fig4_net, run_conga_fig4, run_conga_fig4_on, Balancer, Fig4Result, Metric,
};
use tpp_apps::microburst::{microburst_net, run_microburst, run_microburst_on, MicroburstResult};
use tpp_apps::rcp::{rcp_fig2_net, run_rcp_fig2, run_rcp_fig2_on, RcpResult};
use tpp_apps::wan::{
    fanout_net, interdc_net, run_fanout, run_fanout_on, run_interdc, run_interdc_on,
    FanoutRunResult, InterDcRunResult,
};
use tpp_fabric::{
    install_traffic, ExecMode, Fabric, PartitionStrategy, TrafficConfig, TrafficPattern,
};
use tpp_netsim::{Network, NodeId, Topology, TopologySpec, MILLIS, SECONDS};

const TABLE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/pins.txt");

/// The groups run in parallel, and a re-record rewrites the file. A group
/// that fails panics holding the lock; the file is only ever written whole,
/// so the next group may take the poisoned lock and go on.
static FILE: Mutex<()> = Mutex::new(());

/// One produced value of a row: `(name, run, value)`. `run` names which of
/// several runs that must agree gave it, and is empty when one run does.
type Seen = (String, &'static str, String);

fn pin(name: impl Into<String>, value: String) -> Seen {
    (name.into(), "", value)
}

fn hex(v: u64) -> String {
    format!("{v:#018x}")
}

fn bits(x: f64) -> String {
    hex(x.to_bits())
}

/// FNV-1a over the little-endian bytes of each word.
fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in words.into_iter().flat_map(u64::to_le_bytes) {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The groups, one test each.
const GROUPS: [&str; 9] = [
    "golden",
    "smoke",
    "counts",
    "rcp_fig2",
    "conga_fig4",
    "microburst",
    "interdc",
    "interdc_fct",
    "fanout",
];

/// `(line index, name, value)` of every row of the table.
fn rows(text: &str) -> Vec<(usize, &str, &str)> {
    let rows = text.lines().enumerate().filter(|(_, l)| !l.is_empty() && !l.starts_with('#'));
    rows.map(|(i, line)| {
        let (name, value) = line
            .split_once(" = ")
            .unwrap_or_else(|| panic!("pins.txt:{}: not `name = value`: {line}", i + 1));
        let group = name.split('.').next().unwrap_or_default();
        assert!(GROUPS.contains(&group), "pins.txt:{}: {name} is in no group", i + 1);
        (i, name, value)
    })
    .collect()
}

/// Compare a group's produced rows with its rows in the table. Under
/// `PINS_RECORD`, rewrite the table to match instead.
fn check(group: &str, seen: Vec<Seen>) {
    let _file = FILE.lock().unwrap_or_else(PoisonError::into_inner);
    let text = std::fs::read_to_string(TABLE).expect("pins.txt is readable");
    let prefix = format!("{group}.");
    let table: Vec<_> = rows(&text).into_iter().filter(|r| r.1.starts_with(&prefix)).collect();
    let in_table = |name: &str| table.iter().find(|r| r.1 == name).map(|r| r.2);
    let mut problems = Vec::new();
    // The value each produced row should have, in the order produced.
    let mut want: Vec<(&str, &str)> = Vec::new();
    // Runs of one row that gave different values: a fault, never recorded.
    let mut disagree = Vec::new();
    for (name, run, value) in &seen {
        let run = if run.is_empty() { String::new() } else { format!("the {run} run ") };
        match want.iter().find(|w| w.0 == name) {
            Some(&(_, first)) if first != value => {
                disagree.push(format!("{name}: {run}gives {value}, another run {first}"));
            }
            Some(_) => {}
            None => want.push((name, value)),
        }
        match in_table(name) {
            None => problems.push(format!("{name}: not in the table; {run}gives {value}")),
            Some(old) if old != value => {
                problems.push(format!("{name}: {run}gives {value}, the table has {old}"));
            }
            Some(_) => {}
        }
    }
    for &(i, name, _) in &table {
        if !want.iter().any(|w| w.0 == name) {
            problems.push(format!("{name} (line {}): no longer produced", i + 1));
        } else if table.iter().filter(|r| r.1 == name).count() > 1 {
            problems.push(format!("{name} (line {}): listed more than once", i + 1));
        }
    }
    if problems.is_empty() {
        return;
    }
    if std::env::var_os("PINS_RECORD").is_none() || !disagree.is_empty() {
        problems.extend(disagree);
        panic!(
            "{group} pins moved:\n  {}\nRe-record an intended change with \
             `PINS_RECORD=1 cargo test -p tpp-bench --test pins`.",
            problems.join("\n  ")
        );
    }
    // Moved rows change in place, rows no longer produced go, and new rows
    // follow the group's last row (or end the file).
    let (mut out, mut written, mut at) = (Vec::new(), Vec::new(), None);
    for (i, line) in text.lines().enumerate() {
        let Some(&(_, name, old)) = table.iter().find(|r| r.0 == i) else {
            out.push(line.to_string());
            continue;
        };
        match want.iter().find(|w| w.0 == name) {
            Some(&(_, new)) if !written.contains(&name) => {
                if new != old {
                    println!("{name}: {old} -> {new}");
                }
                written.push(name);
                out.push(format!("{name} = {new}"));
            }
            _ => println!("{name}: {old} -> (removed)"),
        }
        at = Some(out.len());
    }
    let fresh = want.iter().filter(|w| !written.contains(&w.0)).map(|(name, new)| {
        println!("{name}: (new) -> {new}");
        format!("{name} = {new}")
    });
    let at = at.unwrap_or(out.len());
    out.splice(at..at, fresh.collect::<Vec<_>>());
    out.push(String::new());
    std::fs::write(TABLE, out.join("\n")).expect("pins.txt is writable");
}

/// Links run at the builder's default 1 Gb/s with 1 µs of delay unless a
/// scenario says otherwise.
fn star() -> Topology {
    TopologySpec::Star { hosts: 8 }.builder().seed(11).build()
}

fn leaf_spine() -> Topology {
    TopologySpec::LeafSpine { leaves: 4, spines: 2, hosts_per_leaf: 2 }.builder().seed(12).build()
}

fn fat_tree4() -> Topology {
    TopologySpec::FatTree { k: 4 }.builder().seed(13).build()
}

/// Switches with zero base pipeline latency, whose kicks land at the current
/// timestamp, on 400 Gb/s links, where a minimum-size frame serializes in a
/// nanosecond or less and a transmit completion can chain more work at its
/// own timestamp.
fn fat_tree4_zero_latency_400g() -> Topology {
    let mut t = TopologySpec::FatTree { k: 4 }.builder().link_mbps(400_000).seed(15).build();
    for &sw in &t.switches {
        t.net.switch_mut(sw).cfg.cost.base_latency_ns = 0;
    }
    t
}

/// `fig_scale`'s k=8 fat-tree. Under its traffic the single-shard run holds
/// up to 2,939 pending events inside the first 100 µs.
fn fat_tree8() -> Topology {
    TopologySpec::FatTree { k: 8 }.builder().link_mbps(10_000).seed(8).build()
}

/// Light traffic to 6 ms, run to 8 ms.
fn light() -> (TrafficConfig, u64) {
    (TrafficConfig { stop_at: 6 * MILLIS, ..TrafficConfig::default() }, 8 * MILLIS)
}

/// `fig_scale`'s traffic, cut to 100 µs so that a debug build runs it in
/// seconds.
fn heavy() -> (TrafficConfig, u64) {
    let cfg = TrafficConfig {
        frames_per_tick: 16,
        tick_ns: 5_000,
        stop_at: 100_000,
        seed: 8,
        pattern: TrafficPattern::Uniform,
    };
    (cfg, 100_000)
}

/// `(node, port, drop probability, corrupt probability)` per degraded link.
type Faults = &'static [(u32, u8, f64, f64)];

/// One golden scenario: its row name, topology, link faults applied before
/// any split, the 4-shard partition, and its traffic and horizon.
type Golden =
    (&'static str, fn() -> Topology, Faults, PartitionStrategy, fn() -> (TrafficConfig, u64));

const STAR_FAULTS: Faults = &[(0, 0, 0.2, 0.05), (0, 3, 0.1, 0.0)];
const LEAF_SPINE_FAULTS: Faults = &[(0, 0, 0.2, 0.05), (1, 1, 0.1, 0.0)];
/// One core uplink and one edge downlink.
const FAT_TREE_FAULTS: Faults = &[(0, 0, 0.15, 0.02), (12, 2, 0.1, 0.0)];

const GOLDEN: [Golden; 8] = {
    use PartitionStrategy::{Locality, RoundRobin};
    [
        ("star.clean", star, &[], RoundRobin, light),
        ("star.faults", star, STAR_FAULTS, RoundRobin, light),
        ("leaf_spine.clean", leaf_spine, &[], Locality, light),
        ("leaf_spine.faults", leaf_spine, LEAF_SPINE_FAULTS, Locality, light),
        ("fat_tree4.clean", fat_tree4, &[], Locality, light),
        ("fat_tree4.faults", fat_tree4, FAT_TREE_FAULTS, Locality, light),
        ("fat_tree4.zero_latency_400g", fat_tree4_zero_latency_400g, &[], RoundRobin, light),
        ("fat_tree8.fig_scale", fat_tree8, &[], Locality, heavy),
    ]
};

/// The simulator's behaviour: every timestamp, route, fault draw and TPP
/// result word feeds the digest, and the sharded fabric must reproduce the
/// single-threaded network bit for bit.
#[test]
fn golden() {
    let mut seen = Vec::new();
    for (name, topology, faults, strategy, traffic) in GOLDEN {
        let (cfg, horizon) = traffic();
        let build = || {
            let mut t = topology();
            for &(node, port, drop, corrupt) in faults {
                t.net.set_link_faults(NodeId(node), port, drop, corrupt);
            }
            let hosts = t.hosts.clone();
            let delivered = install_traffic(&mut t.net, &hosts, &cfg);
            (t.net, delivered)
        };
        let (mut net, delivered) = build();
        net.run_until(horizon);
        assert!(delivered.load(Ordering::Relaxed) > 100, "{name}: workload too small");
        seen.push((format!("golden.{name}"), "1-shard", hex(net.stats.digest())));
        let mut fabric = Fabric::new(build().0, 4, strategy);
        fabric.set_mode(ExecMode::Sequential);
        fabric.run_until(horizon);
        seen.push((format!("golden.{name}"), "4-shard", hex(fabric.stats().digest())));
    }
    check("golden", seen);
}

#[test]
fn smoke() {
    let seen = tpp_benchmark::WORKLOADS.iter().map(|spec| {
        let w = (spec.setup)(1).unwrap_or_else(|e| panic!("{}: set-up: {e}", spec.name));
        pin(format!("smoke.{}", spec.name), hex(w.output_digest()))
    });
    check("smoke", seen.collect());
}

/// The traced pass's values that are timings, by the end of their name.
/// Host time moves from run to run, so a local A/B judges them.
const TIMINGS: [&str; 6] =
    ["_ns", "_ns_per_event", "_s", "trace_overhead_ratio", "speedup_vs_1shard", "switch_share_est"];

/// Not pinned either: `sim_wan_x2`'s two shard threads allocate at once, so
/// its peak of live bytes depends on their interleaving (7,628,576 to
/// 7,631,648 B over four passes).
const UNSTABLE: [(&str, &str); 1] = [("sim_wan_x2", "netsim.net.live_bytes_peak")];

/// The benchmark's allocation counters are process-wide, so the traced
/// passes run in a process of their own, [`counts_pass`], while the other
/// groups run here.
#[test]
fn counts() {
    let exe = std::env::current_exe().expect("the test binary knows its path");
    let out = Command::new(exe)
        .args(["counts_pass", "--exact", "--ignored", "--test-threads=1", "--nocapture"])
        .output()
        .expect("the test binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "counts_pass failed:\n{stdout}\n{stderr}");
    let rows = stderr.lines().filter_map(|line| line.split_once(" = "));
    let seen = rows.filter(|(name, _)| name.starts_with("counts."));
    check("counts", seen.map(|(name, value)| pin(name, value.to_string())).collect());
}

/// Prints the `counts.*` rows to stderr, apart from the harness's own lines
/// on stdout. One test thread keeps the harness from allocating while a
/// pass counts; a budget of 0 runs each pass's fixed minimum, and the counts
/// do not depend on the budget.
#[test]
#[ignore = "`counts` runs it in a process of its own"]
fn counts_pass() {
    for spec in &tpp_benchmark::WORKLOADS {
        let t = tpp_benchmark::runner::traced_pass(spec, 1, 0.0, &mut std::io::sink())
            .unwrap_or_else(|e| panic!("{e}"));
        eprintln!("counts.{}.attempted = {}", spec.name, t.attempted);
        for (name, value) in t.values {
            if !TIMINGS.iter().any(|t| name.ends_with(t)) && !UNSTABLE.contains(&(spec.name, name))
            {
                eprintln!("counts.{}.{name} = {}", spec.name, bits(value));
            }
        }
    }
}

/// `net` on 4 fabric shards, one thread each: the second run of every
/// application group.
fn four_shards(net: Network) -> Fabric {
    let mut fabric = Fabric::new(net, 4, PartitionStrategy::Locality);
    fabric.set_mode(ExecMode::Threaded);
    fabric
}

/// An application group's rows from its 1-shard and its 4-shard run.
fn both(one: Vec<Seen>, four: Vec<Seen>) -> Vec<Seen> {
    let label = |rows: Vec<Seen>, run| rows.into_iter().map(move |(name, _, v)| (name, run, v));
    label(one, "1-shard").chain(label(four, "4-shard")).collect()
}

/// RCP* at α = ∞: per flow, the steady goodput and the throughput series.
#[test]
fn rcp_fig2() {
    let rows = |r: RcpResult| {
        let mut seen =
            vec![pin("rcp_fig2.control_overhead_fraction", bits(r.control_overhead_fraction))];
        for ((name, series), (steady_name, steady)) in r.flows.iter().zip(&r.steady_mbps) {
            assert_eq!(name, steady_name);
            let points = series.iter().flat_map(|&(t, mbps)| [t.to_bits(), mbps.to_bits()]);
            seen.push(pin(format!("rcp_fig2.{name}.steady_mbps"), bits(*steady)));
            seen.push(pin(format!("rcp_fig2.{name}.series_len"), series.len().to_string()));
            seen.push(pin(format!("rcp_fig2.{name}.series_hash"), hex(fnv1a(points))));
        }
        seen
    };
    let horizon = 1500 * MILLIS;
    let t = rcp_fig2_net(f64::INFINITY, 1);
    let four = run_rcp_fig2_on(&mut four_shards(t.net), &t.hosts, horizon);
    check("rcp_fig2", both(rows(run_rcp_fig2(f64::INFINITY, horizon, 1)), rows(four)));
}

/// ECMP and CONGA*, both with the `max` metric.
#[test]
fn conga_fig4() {
    let mut seen = Vec::new();
    for (mode, name) in [(Balancer::Ecmp, "ecmp"), (Balancer::Conga, "conga")] {
        let rows = |r: Fig4Result| {
            assert_eq!(r.mode, mode);
            vec![
                pin(format!("conga_fig4.{name}.l0_mbps"), bits(r.l0_mbps)),
                pin(format!("conga_fig4.{name}.l1_mbps"), bits(r.l1_mbps)),
                pin(format!("conga_fig4.{name}.max_util_percent"), bits(r.max_util_percent)),
                pin(format!("conga_fig4.{name}.path_switches"), r.path_switches.to_string()),
            ]
        };
        let horizon = 600 * MILLIS;
        let (t, ports) = conga_fig4_net(mode, Metric::Max, 1);
        let four = run_conga_fig4_on(&mut four_shards(t.net), &t.hosts, &ports, horizon);
        seen.extend(both(rows(run_conga_fig4(mode, Metric::Max, horizon, 1)), rows(four)));
    }
    check("conga_fig4", seen);
}

/// Messages sent, sample counts, and a hash over every sample (arrival time,
/// switch, port, queue length).
#[test]
fn microburst() {
    let rows = |r: MicroburstResult| {
        let words = r
            .all_samples
            .iter()
            .flat_map(|s| [s.t_ns, u64::from(s.switch_id), u64::from(s.port), u64::from(s.q_pkts)]);
        vec![
            pin("microburst.total_messages", r.total_messages.to_string()),
            pin("microburst.observer_samples", r.observer_samples.len().to_string()),
            pin("microburst.all_samples", r.all_samples.len().to_string()),
            pin("microburst.samples_hash", hex(fnv1a(words))),
        ]
    };
    let t = microburst_net(3, 1);
    let four = run_microburst_on(&mut four_shards(t.net), &t.hosts, 300 * MILLIS);
    check("microburst", both(rows(run_microburst(3, 300 * MILLIS, 1)), rows(four)));
}

/// Per border buffer profile and path. A transfer that did not finish has
/// `fct_ms` all ones.
#[test]
fn interdc() {
    let mut seen = Vec::new();
    for (profile, wan_queue_bytes) in [("deep", 0), ("shallow", 30_000)] {
        let rows = |r: InterDcRunResult| {
            let mut seen = Vec::new();
            for p in &r.paths {
                let row = |field: &str| format!("interdc.{profile}.dc{}.{field}", p.dst_dc);
                seen.push(pin(row("capacity_mbps"), bits(p.capacity_mbps)));
                seen.push(pin(row("rate_mbps"), bits(p.rate_mbps)));
                seen.push(pin(row("rtt_est_ms"), bits(p.rtt_est_ms)));
                seen.push(pin(row("fct_ms"), hex(p.fct_ms.map_or(u64::MAX, f64::to_bits))));
            }
            seen
        };
        let one = run_interdc(3, 4, 24, wan_queue_bytes, 400_000, 600 * MILLIS, 5);
        let (t, paths) = interdc_net(3, 4, 24, wan_queue_bytes, 400_000, 5);
        let four = run_interdc_on(&mut four_shards(t.net), &t.hosts, &paths, 600 * MILLIS);
        seen.extend(both(rows(one), rows(four)));
    }
    check("interdc", seen);
}

/// `fig_interdc_fct`'s full run, where every transfer finishes: per border
/// buffer profile and path, the final rate, the RTT estimate and the
/// completion time.
#[test]
fn interdc_fct() {
    let mut seen = Vec::new();
    for (profile, wan_queue_bytes) in [("deep", 0), ("shallow", 12_000)] {
        let rows = |r: InterDcRunResult| {
            let mut seen = Vec::new();
            for p in &r.paths {
                let row = |field: &str| format!("interdc_fct.{profile}.dc{}.{field}", p.dst_dc);
                seen.push(pin(row("rate_mbps"), bits(p.rate_mbps)));
                seen.push(pin(row("rtt_est_ms"), bits(p.rtt_est_ms)));
                seen.push(pin(row("fct_ms"), hex(p.fct_ms.map_or(u64::MAX, f64::to_bits))));
            }
            seen
        };
        let one = run_interdc(3, 4, 20, wan_queue_bytes, 200_000, 3 * SECONDS, 7);
        let (t, paths) = interdc_net(3, 4, 20, wan_queue_bytes, 200_000, 7);
        let four = run_interdc_on(&mut four_shards(t.net), &t.hosts, &paths, 3 * SECONDS);
        seen.extend(both(rows(one), rows(four)));
    }
    check("interdc_fct", seen);
}

/// Per subtree: the bottleneck, the adapted rate, the relay goodput and the
/// rate series (one point per control period).
#[test]
fn fanout() {
    let rows = |r: FanoutRunResult| {
        let mut seen =
            vec![pin("fanout.control_overhead_fraction", bits(r.control_overhead_fraction))];
        for s in &r.subtrees {
            let row = |field: &str| format!("fanout.site{}.{field}", s.site);
            let points = s.series.iter().flat_map(|&(t, mbps)| [t.to_bits(), mbps.to_bits()]);
            seen.push(pin(row("bottleneck_mbps"), bits(s.bottleneck_mbps)));
            seen.push(pin(row("adapted_mbps"), bits(s.adapted_mbps)));
            seen.push(pin(row("relay_goodput_mbps"), bits(s.relay_goodput_mbps)));
            seen.push(pin(row("series_len"), s.series.len().to_string()));
            seen.push(pin(row("series_hash"), hex(fnv1a(points))));
        }
        seen
    };
    let t = fanout_net(3, 4, 24, 11);
    let four = run_fanout_on(&mut four_shards(t.net), &t.hosts, 3, 24, 600 * MILLIS);
    check("fanout", both(rows(run_fanout(3, 4, 24, 600 * MILLIS, 11)), rows(four)));
}
