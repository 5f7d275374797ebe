//! `fig_interdc_fct`: inter-DC transfer completion under RCP* over
//! heterogeneous-RTT WAN paths (`tpp_apps::wan`), shallow vs deep border
//! buffers.
//!
//! Site 0 runs one fixed-size transfer to every other site; WAN delay
//! grows with site distance, so the RCP* sender sees a different measured
//! RTT per path and runs each path's control loop on its own timescale.
//! The experiment repeats with the border switches' queues clamped
//! shallow — flow completion must survive both buffer profiles, with the
//! longer-RTT path always finishing later.
//!
//! `--smoke` runs two sites over a shorter horizon, for CI; the completion
//! assertions always run.

use tpp_apps::wan::run_interdc;
use tpp_netsim::{Time, MILLIS, SECONDS};

fn main() {
    let smoke = tpp_bench::smoke_arg();
    let (sites, transfer_bytes, duration): (usize, u64, Time) =
        if smoke { (2, 120_000, 1500 * MILLIS) } else { (3, 200_000, 3 * SECONDS) };
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
        }
    }
    println!("# every transfer completed under both buffer profiles");
}
