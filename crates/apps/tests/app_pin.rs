//! Exact pin of the three paper experiments whose senders run at end hosts:
//! every `f64` that `run_rcp_fig2` (α = ∞), `run_conga_fig4` (ECMP and
//! CONGA*, both with the `max` metric) and `run_microburst` report, compared
//! by its bits, at horizons a debug build runs in seconds. The statistical
//! tests in `rcp.rs`, `conga.rs` and `microburst.rs` allow wide bands; these
//! catch any change to the arithmetic or the traffic at all.
//!
//! A series (RCP*'s per-flow throughput, the micro-burst queue samples) is
//! pinned by its length and an FNV-1a hash over the bits of every point.

use tpp_apps::conga::{run_conga_fig4, Balancer, Metric};
use tpp_apps::microburst::run_microburst;
use tpp_apps::rcp::run_rcp_fig2;
use tpp_netsim::MILLIS;

fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

#[test]
fn rcp_fig2_reports_are_bit_exact() {
    // Per flow: (name, steady goodput as bits, series length, series hash).
    let expect = [
        ("a", 0x40467c28f5c28f5c, 15, 0x3ab58234a754dfda),
        ("b", 0x404710a3d70a3d71, 15, 0xdc733280db7e452b),
        ("c", 0x4047d5c28f5c28f6, 15, 0xc298735c7abc4268),
    ];
    let r = run_rcp_fig2(f64::INFINITY, 1500 * MILLIS, 1);
    let got: Vec<(&str, u64, usize, u64)> = r
        .flows
        .iter()
        .zip(&r.steady_mbps)
        .map(|((name, series), (steady_name, steady))| {
            assert_eq!(name, steady_name);
            let bits = series.iter().flat_map(|&(t, mbps)| [t.to_bits(), mbps.to_bits()]);
            (name.as_str(), steady.to_bits(), series.len(), fnv1a(bits))
        })
        .collect();
    assert_eq!(got, expect);
    assert_eq!(r.control_overhead_fraction.to_bits(), 0x3f9711a63085d77c);
}

#[test]
fn conga_fig4_reports_are_bit_exact() {
    // Per balancer: [L0 goodput, L1 goodput, max fabric utilization] as
    // bits, and the number of flow moves.
    let expect = [
        (Balancer::Ecmp, [0x4047f258bf258bf4, 0x40552aaaaaaaaaaa, 0x4058fe654ec79c9b], 0),
        (Balancer::Conga, [0x4047fc962fc962fd, 0x405cc962fc962fc8, 0x40564e2cf25fbcb8], 14),
    ];
    let got = expect.map(|(mode, _, _)| {
        let r = run_conga_fig4(mode, Metric::Max, 600 * MILLIS, 1);
        let bits = [r.l0_mbps.to_bits(), r.l1_mbps.to_bits(), r.max_util_percent.to_bits()];
        (r.mode, bits, r.path_switches)
    });
    assert_eq!(got, expect);
}

#[test]
fn microburst_reports_are_bit_exact() {
    // Messages sent, observer and total sample counts, and a hash over every
    // sample (arrival time, switch, port, queue length).
    let r = run_microburst(3, 300 * MILLIS, 1);
    let words = r
        .all_samples
        .iter()
        .flat_map(|s| [s.t_ns, u64::from(s.switch_id), u64::from(s.port), u64::from(s.q_pkts)]);
    let got = (r.total_messages, r.observer_samples.len(), r.all_samples.len(), fnv1a(words));
    assert_eq!(got, (671, 1413, 9662, 0xf87f4f3ab6e0766e));
}
