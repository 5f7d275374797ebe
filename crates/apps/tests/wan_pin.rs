//! Exact pin of the two WAN controllers: every `f64` that `run_interdc` and
//! `run_fanout` report, compared by its bits. The convergence tests in
//! `wan.rs` allow 25 %; these catch any change to the arithmetic at all.
//!
//! The fan-out rate series (one point per subtree per control period) is
//! pinned by its length and an FNV-1a hash over the bits of every point.

use tpp_apps::wan::{run_fanout, run_interdc};
use tpp_netsim::MILLIS;

fn fnv1a_bits(points: &[(f64, f64)]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &(t, r) in points {
        for b in t.to_bits().to_le_bytes().into_iter().chain(r.to_bits().to_le_bytes()) {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

#[test]
fn interdc_reports_are_bit_exact() {
    // Per buffer profile, per path: (dst_dc, capacity, rate, RTT estimate,
    // FCT) as bits; `u64::MAX` stands for a transfer that did not finish.
    let deep_and_shallow = [
        (1, [0x4038000000000000, 0x40051eb851eb851f, 0x401167768f707b48, 0x407b952e924f227d]),
        (2, [0x4038000000000000, 0x40169ff2e48e8a72, 0x40209d0c74e20608, u64::MAX]),
    ];
    let expect = [(0, deep_and_shallow), (30_000, deep_and_shallow)];
    for (wan_queue_bytes, paths) in expect {
        let r = run_interdc(3, 4, 24, wan_queue_bytes, 400_000, 600 * MILLIS, 5);
        let got: Vec<(u32, [u64; 4])> = r
            .paths
            .iter()
            .map(|p| {
                let fct = p.fct_ms.map_or(u64::MAX, f64::to_bits);
                let bits =
                    [p.capacity_mbps.to_bits(), p.rate_mbps.to_bits(), p.rtt_est_ms.to_bits(), fct];
                (p.dst_dc, bits)
            })
            .collect();
        assert_eq!(got, paths, "wan_queue_bytes {wan_queue_bytes}");
    }
}

#[test]
fn fanout_reports_are_bit_exact() {
    // Per subtree: (site, [bottleneck, adapted, relay goodput] as bits,
    // series length, series hash).
    let expect = [
        (1, [0x4028000000000000, 0x40268a8c154c9860, 0x40257e4b17e4b17f], 119, 0x378478e8e8ef8df4),
        (2, [0x4020000000000000, 0x401b9573eab367a1, 0x401ba06d3a06d3a1], 118, 0x7cd5a7232dcbea43),
    ];
    let r = run_fanout(3, 4, 24, 600 * MILLIS, 11);
    let got: Vec<(usize, [u64; 3], usize, u64)> = r
        .subtrees
        .iter()
        .map(|s| {
            let bits = [
                s.bottleneck_mbps.to_bits(),
                s.adapted_mbps.to_bits(),
                s.relay_goodput_mbps.to_bits(),
            ];
            (s.site, bits, s.series.len(), fnv1a_bits(&s.series))
        })
        .collect();
    assert_eq!(got, expect);
    assert_eq!(r.control_overhead_fraction.to_bits(), 0x3fb973fe4c73b52a);
}
