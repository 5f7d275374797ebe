//! Table 5: maximum attainable network throughput vs the number of
//! dataplane filters, under the `first` / `last` / `all` match scenarios.
//!
//! Like the paper's, this is a *CPU* measurement of the end-host shim: we
//! push pre-built 1500-byte frames through `Shim::outgoing` with N
//! installed rules and report achievable Gb/s on this machine, with the
//! cost of one frame in ns beside it. Each frame is copied into one reused
//! buffer, the way a sender fills its transmit buffer (and the way the repo
//! benchmark's `endhost_shim` drives the shim), so the loop times the shim
//! and one 1.4 kB copy, not the allocator.
//!
//! Each cell times 100 000 frames, or 1 000 with `--smoke`.

use std::time::Instant;

use tpp_apps::common::udp_frame;
use tpp_core::asm::TppBuilder;
use tpp_core::wire::{EthernetAddress, Ipv4Address};
use tpp_endhost::{Filter, Shim};

fn probe() -> tpp_core::wire::Tpp {
    TppBuilder::stack_mode().push_m("Switch:SwitchID").unwrap().hops(5).build().unwrap()
}

/// Build a shim with `n` rules. `scenario`: which rule the traffic matches.
fn build_shim(n: usize, scenario: &str) -> (Shim, Vec<Vec<u8>>) {
    let ip = Ipv4Address::from_host_id(1);
    let mut shim = Shim::new(ip, EthernetAddress::from_node_id(1), 1);
    for i in 0..n {
        // Each rule matches one destination port, like the paper's (which
        // are TCP; the traffic here is UDP).
        shim.add_tpp(
            1,
            Filter { protocol: Some(17), dst_port: Some(1000 + i as u16), ..Filter::default() },
            probe(),
            1,
            i as u32,
        );
    }
    let dst = Ipv4Address::from_host_id(2);
    let frames: Vec<Vec<u8>> = match scenario {
        // All traffic hits the first rule.
        "first" => (0..64).map(|i| udp_frame(ip, dst, 40_000 + i, 1000, 1400)).collect(),
        // All traffic hits the last rule.
        "last" => (0..64)
            .map(|i| udp_frame(ip, dst, 40_000 + i, 1000 + n.saturating_sub(1) as u16, 1400))
            .collect(),
        // One flow per rule.
        "all" => (0..64.max(n))
            .map(|i| udp_frame(ip, dst, 40_000 + i as u16, 1000 + (i % n.max(1)) as u16, 1400))
            .collect(),
        _ => unreachable!(),
    };
    (shim, frames)
}

/// Gb/s and ns per frame through a shim with `n` rules.
fn measure(n: usize, scenario: &str, iters: usize) -> (f64, f64) {
    let (mut shim, frames) = build_shim(n, scenario);
    let mut buf = Vec::with_capacity(2048);
    // One frame through the shim; returns its length before stamping.
    let mut send = |i: usize| {
        let f = &frames[i % frames.len()];
        buf.clear();
        buf.extend_from_slice(f);
        buf = shim.outgoing(std::mem::take(&mut buf));
        std::hint::black_box(&buf);
        f.len() as u64
    };
    const WARM_UP: usize = 16;
    (0..WARM_UP).for_each(|i| _ = send(i));
    let start = Instant::now();
    let bytes: u64 = (WARM_UP..WARM_UP + iters).map(&mut send).sum();
    let secs = start.elapsed().as_secs_f64();
    // With rules installed, every frame matches one: a run that stamped
    // nothing measured the wrong thing.
    assert_eq!(shim.counters.tx_stamped, if n == 0 { 0 } else { (WARM_UP + iters) as u64 });
    (bytes as f64 * 8.0 / secs / 1e9, secs * 1e9 / iters as f64)
}

fn main() {
    let iters = if tpp_bench::smoke_arg() { 1_000 } else { 100_000 };
    println!("# Table 5 — shim throughput, Gb/s (ns per frame), vs number of filters (§6.2)");
    println!("{:>7} {:>12} {:>12} {:>12} {:>12} {:>12}", "match", "0", "1", "10", "100", "1000");
    for scenario in ["first", "last", "all"] {
        let mut cells = vec![format!("{scenario:>7}")];
        for n in [0usize, 1, 10, 100, 1000] {
            let (gbps, ns) = measure(n, scenario, iters);
            cells.push(format!("{:>12}", format!("{gbps:.1} ({ns:.0})")));
        }
        println!("{}", cells.join(" "));
    }
    println!("\n# paper (kernel shim, 1500B MTU): first/last degrade only at 1000 rules;");
    println!("# 'all' degrades faster. The shape, not the absolute Gb/s, is the claim.");
    println!("# Here the filter table is indexed by 5-tuple, so the cost of a frame does");
    println!("# not depend on the number of rules; the 0 column is the buffer copy alone.");
}
