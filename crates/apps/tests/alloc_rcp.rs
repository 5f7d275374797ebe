//! RCP*'s data frames ride recycled buffers: the senders build each one in a
//! buffer from the frame pool and the sinks hand every delivered frame back,
//! so after the first few milliseconds of the Fig. 2 replay the data path
//! stops allocating.
//!
//! Same counting global allocator as `crates/fabric/tests/alloc_steady.rs`:
//! a pass-through to `System` that counts the calls made by the measuring
//! thread.

#![deny(unsafe_op_in_unsafe_fn)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use tpp_apps::common::udp_frame;
use tpp_apps::rcp::{RcpConfig, RcpSender, RcpSenderApp, RcpSink};
use tpp_core::wire::Ipv4Address;
use tpp_endhost::PacedSender;
use tpp_netsim::{Network, NodeId, Time, TopologySpec, MILLIS};

struct CountingAlloc;

// Per-thread and const-initialized: libtest's own threads allocate now and
// then, and reading the counter must not itself allocate; `try_with`
// tolerates allocator calls during TLS teardown.
thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

fn allocs_on_this_thread() -> u64 {
    ALLOCS.try_with(Cell::get).unwrap_or(0)
}

// SAFETY: pure pass-through to `System`, which upholds the `GlobalAlloc`
// contract; the only extra work is a thread-local counter bump, which never
// allocates (const-initialized `Cell`) and never unwinds into the allocator
// (`try_with` swallows TLS-teardown errors).
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: the caller upholds `alloc`'s contract; forwarded verbatim.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator with this `layout`, and
        // every allocation path forwards to `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        // SAFETY: same provenance as `dealloc`; the caller upholds
        // `realloc`'s non-zero `new_size` requirement.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: the caller upholds `alloc_zeroed`'s contract; forwarded
        // verbatim.
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// `(source host, sink host, source port)` per flow, as in
/// `benchmark/src/workloads/rcp.rs`.
const FLOWS: [(usize, usize, u16); 3] = [(0, 4, 7001), (1, 2, 7002), (3, 5, 7003)];

/// The shape of the benchmark's timed replay: the Fig. 2 line, every flow
/// started at 45 Mb/s, the starts a third of a millisecond apart.
fn fig2_replay() -> (Network, Vec<NodeId>) {
    let mut topo = TopologySpec::Line { switches: 3, hosts_per_switch: 2 }
        .builder()
        .link_mbps(100)
        .delay_ns(10_000)
        .seed(1)
        .build();
    let ips: Vec<Ipv4Address> = topo.hosts.iter().map(|&h| topo.net.host(h).ip).collect();
    let cfg = RcpConfig { start_rate_bps: 45e6, ..RcpConfig::default() };
    for (i, &(src, dst, sport)) in FLOWS.iter().enumerate() {
        let start_at = MILLIS + 317_000 * i as Time;
        topo.net.set_app(topo.hosts[src], Box::new(RcpSender::new(cfg, ips[dst], sport, start_at)));
        topo.net.set_app(topo.hosts[dst], Box::new(RcpSink::new(100 * MILLIS)));
    }
    (topo.net, topo.hosts)
}

fn data_frames_sent(net: &mut Network, hosts: &[NodeId]) -> u64 {
    let frame_len =
        udp_frame(Ipv4Address::default(), Ipv4Address::default(), 0, 0, PacedSender::PAYLOAD).len()
            as u64;
    FLOWS
        .iter()
        .map(|&(src, _, _)| net.app_mut::<RcpSenderApp>(hosts[src]).data_bytes_sent / frame_len)
        .sum()
}

#[test]
fn rcp_replay_sends_its_data_frames_in_recycled_buffers() {
    let before = allocs_on_this_thread();
    let (mut net, hosts) = fig2_replay();
    net.run_until(5 * MILLIS);
    let (sent0, recycled0) = (data_frames_sent(&mut net, &hosts), net.pool().recycled);
    net.run_until(50 * MILLIS);
    let allocs = allocs_on_this_thread() - before;

    let sent = data_frames_sent(&mut net, &hosts) - sent0;
    let recycled = net.pool().recycled - recycled0;
    assert!(sent > 500, "{sent} data frames is not the replay");
    // Measured: 536 of 559. At the parent commit none: every data frame was a
    // fresh `Vec`.
    assert!(recycled * 10 >= sent * 9, "{recycled} recycled buffers for {sent} data frames");
    // Build and replay together. Measured: 980 over 2,656 frame-hops (the
    // bound is that count plus under 5 %). It was 1,049 while a sink's shim
    // copied each write-back it consumed as the write-back app's aggregator,
    // 974 while the shim dropped updates by their source port, 1,049 while
    // every control period gathered its update's arguments into a `Vec`,
    // 1,118 over 2,886 while the sinks echoed every update, and 2,563 while
    // every completed probe was decoded into an owned `Tpp` and cloned into
    // the executor's outcome, every standalone probe frame was built a layer
    // at a time, and every control period compiled its update probe afresh.
    let hops = net.stats.frames_delivered;
    assert!(allocs <= 1_025, "{allocs} allocations over {hops} frame-hops");
}
