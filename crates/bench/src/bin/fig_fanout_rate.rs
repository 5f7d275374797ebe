//! `fig_fanout_rate`: per-subtree rate convergence of the coordinated WAN
//! fan-out (`tpp_apps::wan`) on the viewer preset.
//!
//! One source in site 0 streams to a relay in every viewer site; each
//! subtree's WAN link is throttled to `wan / (site + 1)` Mb/s, and the
//! source's CSTORE/CEXEC discovery loop steps each subtree's rate to its
//! own measured bottleneck. Expected shape: every series climbs from the
//! 1 Mb/s starting rate and flattens just under its subtree's bottleneck,
//! without building a standing WAN queue.
//!
//! `--smoke` runs fewer sites over a shorter horizon, for CI; the
//! convergence assertions always run.

use tpp_apps::wan::run_fanout;
use tpp_netsim::{Time, MILLIS, SECONDS};

fn main() {
    let smoke = tpp_bench::smoke_arg();
    let (sites, wan_mbps, duration): (usize, u64, Time) =
        if smoke { (3, 24, 800 * MILLIS) } else { (4, 24, 2 * SECONDS) };

    let r = run_fanout(sites, 4, wan_mbps, duration, 11);

    println!("# fig_fanout_rate — coordinated fan-out rate adaptation");
    println!("# {sites} sites, WAN {wan_mbps} Mb/s throttled to wan/(site+1) per viewer site");
    println!(
        "{:>8} {:>6} {:>12} {:>12} {:>14}",
        "site", "", "bottleneck", "adapted", "relay goodput"
    );
    for s in &r.subtrees {
        println!(
            "{:>8} {:>6} {:>10.1} {:>12.2} {:>12.2}",
            s.site, "", s.bottleneck_mbps, s.adapted_mbps, s.relay_goodput_mbps
        );
    }

    println!("\n## adaptation series, Mb/s");
    print!("{:>8}", "t(s)");
    for s in &r.subtrees {
        print!(" {:>10}", format!("site {}", s.site));
    }
    println!();
    let n = r.subtrees[0].series.len();
    for i in (0..n).step_by(4.max(n / 24)) {
        print!("{:>8.2}", r.subtrees[0].series[i].0);
        for s in &r.subtrees {
            print!(" {:>10.2}", s.series.get(i).map(|&(_, v)| v).unwrap_or(0.0));
        }
        println!();
    }
    println!(
        "\n## TPP control overhead: {:.2}% of data bytes",
        100.0 * r.control_overhead_fraction
    );

    // The deterministic convergence contract (same tolerance as the
    // tpp-apps test suite): each subtree ends within 25% of its own
    // bottleneck, and the ordering across subtrees follows the throttles.
    for s in &r.subtrees {
        assert!(
            (s.adapted_mbps - s.bottleneck_mbps).abs() <= 0.25 * s.bottleneck_mbps,
            "site {} adapted {:.2} Mb/s, bottleneck {:.1}",
            s.site,
            s.adapted_mbps,
            s.bottleneck_mbps
        );
    }
    for w in r.subtrees.windows(2) {
        assert!(
            w[0].adapted_mbps > w[1].adapted_mbps,
            "subtree rates must follow the per-site throttles"
        );
    }
    println!("# every subtree converged within 25% of its bottleneck");
}
