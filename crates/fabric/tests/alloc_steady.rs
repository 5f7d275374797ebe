//! The simulator's steady state stays off the heap: once the frame pool and
//! the queues have grown to their working size, the recorded
//! `fat_tree4 x uniform` cell sends, forwards and delivers frames in
//! recycled buffers.
//!
//! Same counting global allocator as `crates/switch/tests/alloc_free.rs`
//! (the only other `unsafe` in the workspace): a pass-through to `System`
//! that counts the calls made by the measuring thread.

#![deny(unsafe_op_in_unsafe_fn)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use tpp_fabric::{install_traffic, TrafficConfig};
use tpp_netsim::{TopologySpec, MILLIS};

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

#[test]
fn steady_state_cell_recycles_its_frames() {
    let mut t = TopologySpec::FatTree { k: 4 }.builder().seed(1).build();
    let hosts = t.hosts.clone();
    install_traffic(&mut t.net, &hosts, &TrafficConfig::default());

    // Warm-up: buffers are born here, one per frame in flight or queued.
    t.net.run_until(2 * MILLIS);
    let (hops0, recycled0) = (t.net.stats.frames_delivered, t.net.pool().recycled);
    assert!(recycled0 > 0, "generators must already draw from the pool");

    let before = allocs_on_this_thread();
    t.net.run_until(8 * MILLIS);
    let allocs = allocs_on_this_thread() - before;

    let hops = t.net.stats.frames_delivered - hops0;
    let recycled = t.net.pool().recycled - recycled0;
    assert!(hops > 100_000, "{hops} frame-hops is not the recorded cell");
    // At the parent commit: 1.33 allocations per frame-hop, pool full and
    // never drawn from.
    assert!((allocs as f64) <= 0.05 * hops as f64, "{allocs} allocations over {hops} frame-hops");
    // Almost every frame a host sent after the warm-up is a recycled buffer.
    let sent: u64 = hosts.iter().map(|&h| t.net.host(h).tx_frames).sum();
    assert!(recycled * 10 > sent * 6, "{recycled} recycled buffers for {sent} frames sent in all");
    assert!((t.net.pool().len() as u64) < 1024, "the pool is drawn down, not parked at its cap");
}
