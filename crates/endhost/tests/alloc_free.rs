//! Proof that the shim works in the frame it is handed: `Shim::outgoing`
//! stamps without touching the heap when the caller's buffer has room, and
//! `Shim::incoming` allocates only for what it surfaces beside the delivered
//! frame.
//!
//! A counting global allocator wraps the system allocator, as in
//! `crates/switch/tests/alloc_free.rs`. This is the one `unsafe` block of the
//! crate (the lib is `#![forbid(unsafe_code)]`): a `GlobalAlloc` impl is
//! inherently unsafe to declare, and each method body is audited below.

#![deny(unsafe_op_in_unsafe_fn)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use tpp_core::asm::TppBuilder;
use tpp_core::wire::{
    ethernet, udp_frame_into, EthernetAddress, EthernetRepr, Ipv4Address, Tpp, UdpFrameRepr,
};
use tpp_endhost::{Filter, Shim};

struct CountingAlloc;

// Per-thread count: the libtest harness threads allocate sporadically, and
// only allocations made by the thread running the shim count.
// Const-initialized so reading it never itself allocates; `try_with`
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
// contract; the only extra work is a thread-local counter bump, which
// never allocates (const-initialized `Cell`) and never unwinds into the
// allocator (`try_with` swallows TLS-teardown errors).
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: caller upholds `alloc`'s contract (non-zero-sized
        // `layout`); forwarded verbatim to the system allocator.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: caller guarantees `ptr` came from this allocator with
        // this `layout`; all allocation paths forward to `System`, so the
        // pointer is the system allocator's to free.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        // SAFETY: same provenance argument as `dealloc`, and the caller
        // upholds `realloc`'s non-zero `new_size` requirement.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: caller upholds `alloc_zeroed`'s contract (non-zero-sized
        // `layout`); forwarded verbatim to the system allocator.
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const STAMPED_PORT: u16 = 5000;
const APP: u16 = 7;

fn shim_for(host: u32) -> Shim {
    Shim::new(Ipv4Address::from_host_id(host), EthernetAddress::from_node_id(host), host as u64)
}

fn probe() -> Tpp {
    TppBuilder::stack_mode().push_m("Switch:SwitchID").unwrap().hops(5).build().unwrap()
}

/// Host 1's shim: every UDP packet to [`STAMPED_PORT`] is stamped, behind a
/// filter of a second shape that matches nothing sent here.
fn sender() -> Shim {
    let mut tx = shim_for(1);
    tx.add_tpp(APP + 1, Filter::tcp(), probe(), 1, 0);
    let to_port = Filter { protocol: Some(17), dst_port: Some(STAMPED_PORT), ..Filter::default() };
    tx.add_tpp(APP, to_port, probe(), 1, 1);
    tx
}

/// A UDP frame from host 1 to host 2 in a buffer with `spare` bytes of
/// capacity beyond its length.
fn udp_frame(dst_port: u16, spare: usize) -> Vec<u8> {
    let hdr = UdpFrameRepr {
        src_mac: EthernetAddress::from_node_id(1),
        dst_mac: EthernetAddress::from_node_id(2),
        src_ip: Ipv4Address::from_host_id(1),
        dst_ip: Ipv4Address::from_host_id(2),
        src_port: 1111,
        dst_port,
    };
    let mut frame = Vec::new();
    udp_frame_into(&mut frame, &hdr, 256, &[]);
    let mut buf = Vec::with_capacity(frame.len() + spare);
    buf.extend_from_slice(&frame);
    buf
}

/// Run `f` and count the allocator calls it made.
fn counting<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = allocs_on_this_thread();
    let out = f();
    (out, allocs_on_this_thread() - before)
}

#[test]
fn outgoing_reuses_the_callers_buffer() {
    let mut tx = sender();
    let section_len = probe().section_len();

    // Stamped, with room: nothing.
    let plain = udp_frame(STAMPED_PORT, 512);
    let (capacity, len) = (plain.capacity(), plain.len());
    let (stamped, allocs) = counting(|| tx.outgoing(plain));
    assert_eq!(tx.counters.tx_stamped, 1);
    assert_eq!(stamped.len(), len + section_len);
    assert_eq!((allocs, stamped.capacity()), (0, capacity), "stamped, spare capacity");

    // Already stamped: handed back as it came.
    let (again, allocs) = counting(|| tx.outgoing(stamped));
    assert_eq!((allocs, again.len()), (0, len + section_len), "already stamped");

    // No filter matches.
    let unmatched = udp_frame(STAMPED_PORT + 1, 512);
    let (out, allocs) = counting(|| tx.outgoing(unmatched));
    assert_eq!((allocs, out.len()), (0, len), "unmatched");

    // Not IPv4: never reaches the filter table.
    let arp = EthernetRepr {
        dst: EthernetAddress::from_node_id(2),
        src: EthernetAddress::from_node_id(1),
        ethertype: 0x0806,
    }
    .encapsulate(&[0u8; 28]);
    let arp_len = arp.len();
    let (out, allocs) = counting(|| tx.outgoing(arp));
    assert_eq!((allocs, out.len()), (0, arp_len), "non-IPv4");
    assert_eq!(tx.counters.tx_stamped, 1);

    // Stamped, without room: one call, to exactly the stamped length.
    let tight = udp_frame(STAMPED_PORT, 0);
    assert_eq!(tight.capacity(), tight.len());
    let (stamped, allocs) = counting(|| tx.outgoing(tight));
    assert_eq!(tx.counters.tx_stamped, 2);
    assert_eq!(stamped.len(), len + section_len);
    assert_eq!((allocs, stamped.capacity()), (1, stamped.len()), "stamped, no spare capacity");
}

#[test]
fn incoming_allocates_only_for_what_it_surfaces() {
    let stamped = sender().outgoing(udp_frame(STAMPED_PORT, 512));
    let plain_len = udp_frame(STAMPED_PORT, 0).len();
    // The delivered frame must be the received buffer, closed up.
    let is_stripped_in = |delivered: &Vec<u8>, received: *const u8| {
        assert_eq!((delivered.as_ptr(), delivered.len()), (received, plain_len));
        assert_eq!(delivered[12..14], ethernet::ethertype::IPV4.to_be_bytes());
    };

    // Host 2 echoes toward the source. The echo frame is the one thing
    // built: its payload and one buffer per layer around it.
    let mut rx = shim_for(2);
    let copy = stamped.clone();
    let received = copy.as_ptr();
    let (out, allocs) = counting(|| rx.incoming(copy));
    is_stripped_in(out.deliver.as_ref().expect("inner frame delivered"), received);
    let echo = out.echo.expect("echo built");
    assert!(out.completed.is_none());
    assert!(allocs <= 4, "{allocs} calls: more than the echo frame's payload, UDP, IPv4, Ethernet");

    // Host 2 as the app's own aggregator: the owned `Tpp` is the one thing
    // built, its program and its memory.
    rx.set_aggregator(APP, Ipv4Address::from_host_id(2));
    let received = stamped.as_ptr();
    let (out, allocs) = counting(|| rx.incoming(stamped));
    is_stripped_in(out.deliver.as_ref().expect("inner frame delivered"), received);
    assert!(out.completed.is_some() && out.echo.is_none());
    assert!(allocs <= 2, "{allocs} calls: more than the completed Tpp");

    // The echo, back at host 1, surfaces the completion and nothing else.
    let mut origin = shim_for(1);
    let (back, allocs) = counting(|| origin.incoming(echo));
    assert!(back.completed.is_some() && back.deliver.is_none());
    assert!(allocs <= 2, "{allocs} calls: more than the completed Tpp");
}
