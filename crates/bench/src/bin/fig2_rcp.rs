//! Figure 2: RCP* throughput under max-min and proportional fairness on
//! the two-bottleneck topology (flow `a` over both links, `b` and `c` over
//! one each), plus the §2.2 control-overhead numbers.
//!
//! Expected shape: max-min converges all three flows to ~C/2; proportional
//! fairness gives flow `a` ~C/3 and `b`, `c` ~2C/3. Beside each flow's
//! steady goodput the bin prints its α-fair reference (`rcp::fair_share`
//! over the links' payload capacity, 1,000 of every 1,042 bytes on the
//! wire) and the gap to it. It asserts the shape after printing it: under
//! max-min every flow within 12 Mb/s of C/2, under α = 1 flow `a` below
//! both others, and the control overhead inside the paper's 1–6 % under
//! both.

use tpp_apps::rcp::{fair_share, run_rcp_fig2, RcpResult};
use tpp_core::wire::{ethernet, ipv4, udp};
use tpp_endhost::PacedSender;
use tpp_netsim::SECONDS;

/// Fig. 2's links: 100 Mb/s of wire, in payload terms.
fn payload_mbps() -> f64 {
    let headers = ethernet::HEADER_LEN + ipv4::HEADER_LEN + udp::HEADER_LEN;
    100.0 * PacedSender::PAYLOAD as f64 / (PacedSender::PAYLOAD + headers) as f64
}

fn main() {
    let duration = 20 * SECONDS;
    for (alpha, name) in [(f64::INFINITY, "Max-min fairness"), (1.0, "Proportional fairness")] {
        let r = run_rcp_fig2(alpha, duration, 7);
        println!("# Figure 2 — {name} (alpha = {alpha})");
        println!("{:>8} {:>10} {:>10} {:>10}", "t(s)", "flow a", "flow b", "flow c");
        let n = r.flows[0].1.len();
        for i in (0..n).step_by(5) {
            let t = r.flows[0].1[i].0;
            let vals: Vec<f64> =
                r.flows.iter().map(|(_, s)| s.get(i).map(|&(_, v)| v).unwrap_or(0.0)).collect();
            println!("{t:>8.1} {:>10.1} {:>10.1} {:>10.1}", vals[0], vals[1], vals[2]);
        }
        // Flow `a` crosses both links, `b` the first and `c` the second.
        let reference = fair_share(&[payload_mbps(); 2], &[&[0, 1], &[0], &[1]], alpha);
        println!("\n## steady-state (second half) goodput against the alpha-fair reference, Mb/s");
        for ((name, mbps), want) in r.steady_mbps.iter().zip(&reference) {
            let gap = 100.0 * (mbps / want - 1.0);
            println!("  flow {name}: {mbps:.1}  reference {want:.2}  gap {gap:+.1}%");
        }
        println!(
            "## TPP control overhead: {:.2}% of data bytes (paper: 1.0-6.0%)\n",
            100.0 * r.control_overhead_fraction
        );
        check_shape(alpha, &r);
    }
}

/// The Figure 2 shape, with the tolerance of the `#[ignore]`d max-min test
/// beside `run_rcp_fig2`.
fn check_shape(alpha: f64, r: &RcpResult) {
    let steady = |flow: &str| r.steady_mbps.iter().find(|(n, _)| n == flow).expect("flow").1;
    if alpha.is_infinite() {
        for (name, mbps) in &r.steady_mbps {
            assert!((mbps - 50.0).abs() < 12.0, "max-min: flow {name} {mbps:.1} Mb/s, not ~C/2");
        }
    } else {
        let (a, b, c) = (steady("a"), steady("b"), steady("c"));
        assert!(a < b && a < c, "alpha = {alpha}: flow a {a:.1} Mb/s, b {b:.1}, c {c:.1}");
    }
    let overhead = 100.0 * r.control_overhead_fraction;
    assert!((1.0..=6.0).contains(&overhead), "alpha = {alpha}: overhead {overhead:.2}%");
}
