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
//! - `rcp_fig2.*`, `conga_fig4.*`, `microburst.*`, `interdc.*`,
//!   `interdc_fct.*`, `fanout.*`: every `f64` these experiments report, by
//!   its bits, at horizons a debug build runs in seconds. A series is pinned by its length and by
//!   [`fnv1a`] over the bits of every point. The statistical tests beside
//!   each application allow wide bands; these catch any change at all.
//!
//! After an intended behaviour change, re-record with
//! `PINS_RECORD=1 cargo test -p tpp-bench --test pins`. It rewrites the rows
//! that moved in place, keeping order and comments, and prints each move as
//! `name: old -> new`. The diff of `pins.txt` is then the change to review.

use std::sync::atomic::Ordering;
use std::sync::{Mutex, PoisonError};

use tpp_apps::conga::{run_conga_fig4, Balancer, Metric};
use tpp_apps::microburst::run_microburst;
use tpp_apps::rcp::run_rcp_fig2;
use tpp_apps::wan::{run_fanout, run_interdc};
use tpp_fabric::{
    install_traffic, ExecMode, Fabric, PartitionStrategy, TrafficConfig, TrafficPattern,
};
use tpp_netsim::{NodeId, Topology, TopologySpec, MILLIS, SECONDS};

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
const GROUPS: [&str; 8] =
    ["golden", "smoke", "rcp_fig2", "conga_fig4", "microburst", "interdc", "interdc_fct", "fanout"];

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

/// RCP* at α = ∞: per flow, the steady goodput and the throughput series.
#[test]
fn rcp_fig2() {
    let r = run_rcp_fig2(f64::INFINITY, 1500 * MILLIS, 1);
    let mut seen =
        vec![pin("rcp_fig2.control_overhead_fraction", bits(r.control_overhead_fraction))];
    for ((name, series), (steady_name, steady)) in r.flows.iter().zip(&r.steady_mbps) {
        assert_eq!(name, steady_name);
        let points = series.iter().flat_map(|&(t, mbps)| [t.to_bits(), mbps.to_bits()]);
        seen.push(pin(format!("rcp_fig2.{name}.steady_mbps"), bits(*steady)));
        seen.push(pin(format!("rcp_fig2.{name}.series_len"), series.len().to_string()));
        seen.push(pin(format!("rcp_fig2.{name}.series_hash"), hex(fnv1a(points))));
    }
    check("rcp_fig2", seen);
}

/// ECMP and CONGA*, both with the `max` metric.
#[test]
fn conga_fig4() {
    let mut seen = Vec::new();
    for (mode, name) in [(Balancer::Ecmp, "ecmp"), (Balancer::Conga, "conga")] {
        let r = run_conga_fig4(mode, Metric::Max, 600 * MILLIS, 1);
        assert_eq!(r.mode, mode);
        seen.push(pin(format!("conga_fig4.{name}.l0_mbps"), bits(r.l0_mbps)));
        seen.push(pin(format!("conga_fig4.{name}.l1_mbps"), bits(r.l1_mbps)));
        seen.push(pin(format!("conga_fig4.{name}.max_util_percent"), bits(r.max_util_percent)));
        seen.push(pin(format!("conga_fig4.{name}.path_switches"), r.path_switches.to_string()));
    }
    check("conga_fig4", seen);
}

/// Messages sent, sample counts, and a hash over every sample (arrival time,
/// switch, port, queue length).
#[test]
fn microburst() {
    let r = run_microburst(3, 300 * MILLIS, 1);
    let words = r
        .all_samples
        .iter()
        .flat_map(|s| [s.t_ns, u64::from(s.switch_id), u64::from(s.port), u64::from(s.q_pkts)]);
    let seen = vec![
        pin("microburst.total_messages", r.total_messages.to_string()),
        pin("microburst.observer_samples", r.observer_samples.len().to_string()),
        pin("microburst.all_samples", r.all_samples.len().to_string()),
        pin("microburst.samples_hash", hex(fnv1a(words))),
    ];
    check("microburst", seen);
}

/// Per border buffer profile and path. A transfer that did not finish has
/// `fct_ms` all ones.
#[test]
fn interdc() {
    let mut seen = Vec::new();
    for (profile, wan_queue_bytes) in [("deep", 0), ("shallow", 30_000)] {
        let r = run_interdc(3, 4, 24, wan_queue_bytes, 400_000, 600 * MILLIS, 5);
        for p in &r.paths {
            let row = |field: &str| format!("interdc.{profile}.dc{}.{field}", p.dst_dc);
            seen.push(pin(row("capacity_mbps"), bits(p.capacity_mbps)));
            seen.push(pin(row("rate_mbps"), bits(p.rate_mbps)));
            seen.push(pin(row("rtt_est_ms"), bits(p.rtt_est_ms)));
            seen.push(pin(row("fct_ms"), hex(p.fct_ms.map_or(u64::MAX, f64::to_bits))));
        }
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
        let r = run_interdc(3, 4, 20, wan_queue_bytes, 200_000, 3 * SECONDS, 7);
        for p in &r.paths {
            let row = |field: &str| format!("interdc_fct.{profile}.dc{}.{field}", p.dst_dc);
            seen.push(pin(row("rate_mbps"), bits(p.rate_mbps)));
            seen.push(pin(row("rtt_est_ms"), bits(p.rtt_est_ms)));
            seen.push(pin(row("fct_ms"), hex(p.fct_ms.map_or(u64::MAX, f64::to_bits))));
        }
    }
    check("interdc_fct", seen);
}

/// Per subtree: the bottleneck, the adapted rate, the relay goodput and the
/// rate series (one point per control period).
#[test]
fn fanout() {
    let r = run_fanout(3, 4, 24, 600 * MILLIS, 11);
    let mut seen = vec![pin("fanout.control_overhead_fraction", bits(r.control_overhead_fraction))];
    for s in &r.subtrees {
        let row = |field: &str| format!("fanout.site{}.{field}", s.site);
        let points = s.series.iter().flat_map(|&(t, mbps)| [t.to_bits(), mbps.to_bits()]);
        seen.push(pin(row("bottleneck_mbps"), bits(s.bottleneck_mbps)));
        seen.push(pin(row("adapted_mbps"), bits(s.adapted_mbps)));
        seen.push(pin(row("relay_goodput_mbps"), bits(s.relay_goodput_mbps)));
        seen.push(pin(row("series_len"), s.series.len().to_string()));
        seen.push(pin(row("series_hash"), hex(fnv1a(points))));
    }
    check("fanout", seen);
}
