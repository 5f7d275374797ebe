//! `eval_matrix`: the evaluation matrix — scenario × topology × shard count
//! from one binary.
//!
//! Sweeps every topology family in the matrix against every traffic
//! pattern at shard counts {1, 2, 4}, printing one JSON object per cell
//! (JSON-lines on stdout, or one `.json` file per cell with `--out DIR`)
//! and asserting at every multi-shard cell that the `NetStats` digest is
//! bit-identical to the cell's single-threaded reference — the matrix is
//! only meaningful because every parallel run is provably the same
//! simulation. A churn column (fat-tree × uniform × rerouting link flap)
//! runs at every shard count with the same digest assertion: chaos under
//! churn replays bit-for-bit too. A WAN column (two-site `MultiSite` ×
//! {fan-out, inter-DC} patterns, every frame crossing a 250 µs WAN link)
//! runs at every shard count — including smoke — with the same
//! assertion; since the locality partitioner glues each site into one
//! shard, these cells also exercise the large-lookahead epoch schedule.
//!
//! ```text
//! eval_matrix [--smoke] [--speedup N] [--out DIR] [--cell T:W:S]
//!   --smoke       2 topologies × 2 workloads × {1, 2} shards (CI-sized)
//!   --speedup N   simulate 1/N of each cell's horizon (N >= 1)
//!   --out DIR     also write each cell to DIR/<topology>_<workload>_xS.json
//!   --cell T:W:S  run exactly one cell, e.g. fat_tree4:uniform:2
//! ```

use std::collections::HashMap;

use tpp_fabric::scenario::{Cell, Scenario, WorkloadSpec};
use tpp_netsim::{ChurnSpec, TopologySpec, MILLIS};

/// The topology axis: the classic fabrics plus the builder's new families.
fn topologies(smoke: bool) -> Vec<TopologySpec> {
    if smoke {
        return vec![
            TopologySpec::FatTree { k: 4 },
            TopologySpec::LeafSpine { leaves: 4, spines: 2, hosts_per_leaf: 2 },
        ];
    }
    vec![
        TopologySpec::FatTree { k: 4 },
        TopologySpec::OversubFatTree { k: 4, oversub: 4 },
        TopologySpec::AsymFatTree { k: 4 },
        TopologySpec::LeafSpine { leaves: 4, spines: 2, hosts_per_leaf: 2 },
        TopologySpec::Jellyfish { switches: 10, degree: 4, hosts_per_switch: 2 },
    ]
}

/// The workload axis: every traffic pattern the generator knows.
fn workloads(smoke: bool) -> Vec<WorkloadSpec> {
    let all = vec![
        WorkloadSpec::uniform(),
        WorkloadSpec::heavy_tailed(),
        WorkloadSpec::incast(2),
        WorkloadSpec::shuffle(),
    ];
    if smoke {
        all.into_iter().take(2).collect()
    } else {
        all
    }
}

/// The WAN column's fabric: two sites whose border switches are joined
/// by 250 µs links — multi-ms-class relative to the 1 µs intra-site
/// links, so the cells mix both timescales in one event schedule.
fn wan_topology() -> TopologySpec {
    TopologySpec::MultiSite {
        sites: 2,
        site_k: 4,
        wan_delay_ns: 250_000,
        wan_delay_step_ns: 0,
        wan_mbps: 400,
        wan_site_mbps: Vec::new(),
        wan_queue_bytes: 0,
    }
}

/// The WAN column's patterns: both cross sites on every frame.
fn wan_workloads() -> Vec<WorkloadSpec> {
    vec![WorkloadSpec::fan_out(), WorkloadSpec::inter_dc(2)]
}

fn shard_counts(smoke: bool) -> &'static [usize] {
    if smoke {
        &[1, 2]
    } else {
        &[1, 2, 4]
    }
}

struct Args {
    smoke: bool,
    speedup: u64,
    out: Option<String>,
    cell: Option<(String, String, usize)>,
}

fn usage() -> ! {
    eprintln!(
        "usage: eval_matrix [--smoke] [--speedup N] [--out DIR] [--cell TOPO:WORKLOAD:SHARDS]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args { smoke: false, speedup: 1, out: None, cell: None };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--smoke" => args.smoke = true,
            "--speedup" => {
                let v = it.next().unwrap_or_else(|| usage());
                args.speedup = v.parse().unwrap_or_else(|_| usage());
            }
            "--out" => args.out = Some(it.next().unwrap_or_else(|| usage())),
            "--cell" => {
                let v = it.next().unwrap_or_else(|| usage());
                let parts: Vec<&str> = v.split(':').collect();
                if parts.len() != 3 {
                    usage();
                }
                let shards = parts[2].parse().unwrap_or_else(|_| usage());
                args.cell = Some((parts[0].to_string(), parts[1].to_string(), shards));
            }
            _ => usage(),
        }
    }
    args
}

fn emit(cell: &Cell, out: &Option<String>) {
    let json = cell.to_json();
    println!("{json}");
    if let Some(dir) = out {
        let churn = if cell.churn == "none" { String::new() } else { format!("_{}", cell.churn) };
        let path =
            format!("{dir}/{}_{}{churn}_x{}.json", cell.topology, cell.workload, cell.shards);
        std::fs::create_dir_all(dir).expect("create --out dir");
        std::fs::write(&path, format!("{json}\n")).expect("write cell json");
    }
}

fn main() {
    let args = parse_args();
    // `--speedup N` shortens the horizon each cell is given; the cell's
    // `duration_ns` is then the time it simulated.
    let full = if args.smoke { 2 * MILLIS } else { 8 * MILLIS };
    let duration = full / args.speedup.max(1);

    let scenario = |spec: &TopologySpec, w: &WorkloadSpec, shards: usize| {
        Scenario::new(spec.clone().builder(), w.clone()).shards(shards).duration_ns(duration)
    };

    if let Some((topo_label, w_label, shards)) = &args.cell {
        let spec = topologies(args.smoke)
            .into_iter()
            .chain([wan_topology()])
            .find(|t| &t.label() == topo_label)
            .unwrap_or_else(|| {
                eprintln!("unknown topology {topo_label:?} (try e.g. fat_tree4)");
                std::process::exit(2);
            });
        let w = workloads(args.smoke)
            .into_iter()
            .chain(wan_workloads())
            .find(|w| &w.name == w_label)
            .unwrap_or_else(|| {
                eprintln!("unknown workload {w_label:?} (try e.g. uniform)");
                std::process::exit(2);
            });
        emit(&scenario(&spec, &w, *shards).run(), &args.out);
        return;
    }

    // Full sweep: shard count 1 first per (topology, workload) so every
    // multi-shard digest has its reference in hand.
    let mut cells = 0usize;
    let mut reference: HashMap<(String, String), u64> = HashMap::new();
    for spec in topologies(args.smoke) {
        for w in workloads(args.smoke) {
            for &shards in shard_counts(args.smoke) {
                let cell = scenario(&spec, &w, shards).run();
                emit(&cell, &args.out);
                cells += 1;
                let key = (cell.topology.clone(), cell.workload.clone());
                let digest = cell.stats.digest();
                if shards == 1 {
                    reference.insert(key, digest);
                } else {
                    let want = reference[&key];
                    assert_eq!(
                        digest, want,
                        "digest diverged: {}:{} at {} shards",
                        cell.topology, cell.workload, shards
                    );
                }
            }
        }
    }
    // The chaos column: one churned cell per shard count — fat-tree ×
    // uniform × rerouting link flap — digest-asserted against its own
    // single-threaded reference, exactly like the clean cells. Churn is a
    // reconfiguration *plan* carried through `Network::split`, so the
    // flapping fabric must replay bit-for-bit too.
    let churn = ChurnSpec::LinkFlap {
        fraction: 0.3,
        period_ns: 500_000,
        down_ns: 100_000,
        seed: 7,
        reroute: true,
    };
    let mut churn_ref: Option<u64> = None;
    for &shards in shard_counts(args.smoke) {
        let cell = scenario(&TopologySpec::FatTree { k: 4 }, &WorkloadSpec::uniform(), shards)
            .churn(churn.clone())
            .run();
        emit(&cell, &args.out);
        cells += 1;
        let digest = cell.stats.digest();
        match churn_ref {
            None => churn_ref = Some(digest),
            Some(want) => assert_eq!(
                digest, want,
                "churn digest diverged: {}:{}:{} at {} shards",
                cell.topology, cell.workload, cell.churn, shards
            ),
        }
    }
    // The WAN column: cross-site cells on the two-site fabric — patterns
    // whose every frame crosses a 250 µs WAN link — digest-asserted per
    // shard count like the rest. The locality partitioner glues each site
    // into one shard, so the multi-shard cells cut only at WAN links and
    // run the epoch schedule at the large WAN lookahead.
    for w in wan_workloads() {
        let mut wan_ref: Option<u64> = None;
        for &shards in shard_counts(args.smoke) {
            let cell = scenario(&wan_topology(), &w, shards).run();
            emit(&cell, &args.out);
            cells += 1;
            let digest = cell.stats.digest();
            match wan_ref {
                None => wan_ref = Some(digest),
                Some(want) => assert_eq!(
                    digest, want,
                    "WAN digest diverged: {}:{} at {} shards",
                    cell.topology, cell.workload, shards
                ),
            }
        }
    }
    eprintln!(
        "eval_matrix: {cells} cells (incl. churn + WAN), every multi-shard \
         digest matched its single-threaded reference"
    );
}
