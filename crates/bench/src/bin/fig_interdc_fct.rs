//! `fig_interdc_fct`: inter-DC transfer completion under RCP* over
//! heterogeneous-RTT WAN paths (`tpp_apps::wan`), shallow vs deep border
//! buffers.
//!
//! Site 0 runs one fixed-size transfer to every other site; WAN delay
//! grows with site distance, so each path has a round trip of its own: the
//! RCP* sender measures it (the `rtt ms` column), and every path's control
//! loop runs with one configured RTT as Eq. 1's `d`.
//! The experiment repeats with the border switches' queues clamped
//! shallow — flow completion must survive both buffer profiles, with the
//! longer-RTT path always finishing later, and every path's rate ends within
//! 25% of the WAN capacity.
//!
//! `--smoke` runs the same three sites over a shorter horizon, for CI; the
//! assertions always run.

use tpp_apps::wan::run_interdc;
use tpp_netsim::{Time, MILLIS, SECONDS};

fn main() {
    let smoke = tpp_bench::smoke_arg();
    let (sites, transfer_bytes, duration): (usize, u64, Time) =
        if smoke { (3, 200_000, 600 * MILLIS) } else { (3, 200_000, 3 * SECONDS) };
    let wan_mbps = 20;

    println!("# fig_interdc_fct — inter-DC RCP* flow completion times");
    println!("# {sites} sites, WAN {wan_mbps} Mb/s, {transfer_bytes} B per transfer");
    println!(
        "{:>14} {:>6} {:>10} {:>10} {:>10} {:>10}",
        "buffers", "path", "cap Mb/s", "rate Mb/s", "rtt ms", "fct ms"
    );
    for (queue_bytes, label) in [(0u32, "deep"), (12_000, "shallow")] {
        let r = run_interdc(sites, 4, wan_mbps, queue_bytes, transfer_bytes, duration, 7);
        let mut last_fct = 0.0;
        for p in &r.paths {
            let fct = p.fct_ms.unwrap_or_else(|| {
                panic!("{label}: DC{}->DC{} transfer must complete", p.src_dc, p.dst_dc)
            });
            println!(
                "{:>14} {:>6} {:>10.1} {:>10.2} {:>10.2} {:>10.1}",
                label,
                format!("{}->{}", p.src_dc, p.dst_dc),
                p.capacity_mbps,
                p.rate_mbps,
                p.rtt_est_ms,
                fct
            );
            assert!(
                fct > last_fct,
                "{label}: longer-RTT paths must not finish before shorter ones"
            );
            last_fct = fct;
            // The same bound `fig_fanout_rate` holds each subtree to.
            assert!(
                (p.rate_mbps - p.capacity_mbps).abs() <= 0.25 * p.capacity_mbps,
                "{label}: DC{}->DC{} ended at {:.2} Mb/s of {:.1}",
                p.src_dc,
                p.dst_dc,
                p.rate_mbps,
                p.capacity_mbps
            );
        }
    }
    println!("# every transfer completed under both buffer profiles, within 25% of capacity");
}
