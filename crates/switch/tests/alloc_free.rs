//! Proof of the zero-allocation forwarding path: in steady state, a switch
//! forwards packets — TPP-instrumented or plain — without touching the heap.
//!
//! A counting global allocator wraps the system allocator; after a warm-up
//! phase (queue rings grow to their working capacity), a measured run of
//! `receive` + `dequeue` cycles must perform **zero** allocations. The frame
//! buffer itself is recycled by the caller, exactly like the simulator does:
//! `dequeue` hands back the same `Vec` that `receive` consumed. A second
//! test holds the same over a deep queue of interleaved plain and TPP frames,
//! where the frame ring and the ring of TPP-state indices beside it advance
//! in lock-step. A third drops TPP frames by the ten thousand on every path
//! that has already planned them: the state a dropped frame was given must be
//! the state the next frame gets.
//!
//! Every crate lib is `#![forbid(unsafe_code)]`; the workspace's only
//! `unsafe` is in test and tool targets like this one (the counting
//! allocators of the `alloc_*` tests, the `sim_profile` sampler). A
//! `GlobalAlloc` impl is inherently unsafe to declare, and each method body
//! is audited below.

#![deny(unsafe_op_in_unsafe_fn)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use tpp_core::asm::TppBuilder;
use tpp_core::wire::{self, insert_transparent, ipv4, udp, EthernetAddress, Ipv4Address};
use tpp_switch::{Action, DropReason, ReceiveOutcome, Switch, SwitchConfig};

struct CountingAlloc;

// Per-thread count: the libtest harness threads allocate sporadically
// (mpmc channel blocks, thread parking contexts) and a process-global
// counter picks those up as false positives in the measured window. Only
// allocations made by the thread actually running the forwarding loop
// count. Const-initialized so reading it never itself allocates;
// `try_with` tolerates allocator calls during TLS teardown.
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

fn host_frame(ttl: u8) -> Vec<u8> {
    let src_ip = Ipv4Address::from_host_id(1);
    let dst_ip = Ipv4Address::from_host_id(2);
    let u = udp::Repr { src_port: 1000, dst_port: 2000, payload_len: 256 };
    let udp_bytes = u.encapsulate(src_ip, dst_ip, &vec![0xAB; 256]);
    let ip = ipv4::Repr {
        src: src_ip,
        dst: dst_ip,
        protocol: ipv4::protocol::UDP,
        ttl,
        payload_len: udp_bytes.len(),
    };
    wire::EthernetRepr {
        dst: EthernetAddress::from_node_id(2),
        src: EthernetAddress::from_node_id(1),
        ethertype: wire::ethernet::ethertype::IPV4,
    }
    .encapsulate(&ip.encapsulate(&udp_bytes))
}

/// Forward `frame` through receive+dequeue `rounds` times, reusing the frame
/// buffer, and return how many heap allocations that performed.
fn allocs_per_run(sw: &mut Switch, mut frame: Vec<u8>, rounds: usize) -> u64 {
    let mut now = 0u64;
    let before = allocs_on_this_thread();
    for _ in 0..rounds {
        now += 1000;
        let out = sw.receive(now, 0, frame);
        assert!(matches!(out, ReceiveOutcome::Enqueued { port: 2, .. }), "{out:?}");
        frame = sw.dequeue(now, 2).expect("frame queued");
    }
    allocs_on_this_thread() - before
}

#[test]
fn steady_state_forwarding_is_allocation_free() {
    let mut sw = Switch::new(SwitchConfig::new(7, 4));
    // 128 host routes, the table of a k=8 fat-tree switch: the route lookup
    // under the counter probes a populated prefix index.
    for h in 0..128 {
        sw.add_host_route(Ipv4Address::from_host_id(2 + h), Action::Output(2));
    }

    // A TPP exercising stack pushes across ingress and egress stages.
    let tpp = TppBuilder::stack_mode()
        .push_m("Switch:SwitchID")
        .unwrap()
        .push_m("PacketMetadata:OutputPort")
        .unwrap()
        .push_m("Queue:QueueOccupancy")
        .unwrap()
        .hops(5)
        .build()
        .unwrap();
    let stamped = insert_transparent(&host_frame(200), &tpp);
    let plain = host_frame(200);

    // Warm-up: queue rings and table stats reach steady capacity.
    let w1 = allocs_per_run(&mut sw, stamped.clone(), 16);
    let w2 = allocs_per_run(&mut sw, plain.clone(), 16);
    let _ = (w1, w2);

    // Steady state: the TPP executes in place in the frame; the switch
    // must not allocate at all.
    let tpp_allocs = allocs_per_run(&mut sw, stamped, 64);
    assert_eq!(tpp_allocs, 0, "TPP forwarding path allocated {tpp_allocs} times in 64 rounds");

    let plain_allocs = allocs_per_run(&mut sw, plain, 64);
    assert_eq!(
        plain_allocs, 0,
        "plain forwarding path allocated {plain_allocs} times in 64 rounds"
    );
}

#[test]
fn deep_queue_of_interleaved_plain_and_tpp_frames_is_allocation_free() {
    const QUEUED: usize = 96;
    let mut sw = Switch::new(SwitchConfig::new(7, 4));
    sw.add_host_route(Ipv4Address::from_host_id(2), Action::Output(2));
    let tpp = TppBuilder::stack_mode()
        .push_m("Switch:SwitchID")
        .unwrap()
        .push_m("Queue:QueueOccupancy")
        .unwrap()
        .hops(5)
        .build()
        .unwrap();
    let stamped = insert_transparent(&host_frame(250), &tpp);
    let plain = host_frame(250);

    // Fill: every third frame carries a TPP, so runs of plain frames sit
    // between the entries of the TPP-state ring.
    let mut now = 0u64;
    for i in 0..QUEUED {
        now += 1000;
        let frame = if i % 3 == 0 { stamped.clone() } else { plain.clone() };
        let out = sw.receive(now, 0, frame);
        assert!(matches!(out, ReceiveOutcome::Enqueued { port: 2, queue: 0, .. }), "{out:?}");
    }
    assert_eq!(sw.mem.queues[2][0].pkts, QUEUED as u64);

    // Steady state at that depth: the head leaves, goes round and joins the
    // tail in the buffer it left in (a used-up TPP still validates, plans and
    // queues its state). Two full rotations warm both rings up.
    let mut rotate = |rounds: usize| {
        let before = allocs_on_this_thread();
        for _ in 0..rounds {
            now += 1000;
            let frame = sw.dequeue(now, 2).expect("queue stays full");
            let out = sw.receive(now, 0, frame);
            assert!(matches!(out, ReceiveOutcome::Enqueued { port: 2, queue: 0, .. }), "{out:?}");
        }
        allocs_on_this_thread() - before
    };
    rotate(2 * QUEUED);
    let allocs = rotate(10 * QUEUED);
    assert_eq!(allocs, 0, "a {QUEUED}-deep mixed queue allocated {allocs} times in 10 rotations");
    assert_eq!(sw.mem.queues[2][0].pkts, QUEUED as u64);
    assert_eq!(sw.mem.tpp_executed, 12 * QUEUED as u64 / 3, "every TPP frame engaged the TCPU");
}

#[test]
fn dropped_tpp_frames_leave_no_tpp_state_behind() {
    const DROPS: usize = 10_000;
    let mut sw = Switch::new(SwitchConfig::new(7, 4));
    sw.add_host_route(Ipv4Address::from_host_id(2), Action::Output(2));
    // Port 2's queue admits nothing the size of these frames.
    sw.mem.queues[2][0].limit_bytes = 64;
    let tpp = TppBuilder::stack_mode()
        .push_m("Switch:SwitchID")
        .unwrap()
        .push_m("PacketMetadata:OutputPort")
        .unwrap()
        .push_m("Queue:QueueOccupancy")
        .unwrap()
        .hops(5)
        .build()
        .unwrap();
    let stamped = |inner: &[u8]| insert_transparent(inner, &tpp);
    let ip_at = wire::ethernet::HEADER_LEN + tpp.section_len();

    // Each of these is a valid TPP the switch validates, plans and gives
    // per-packet state before it finds the reason to drop the frame.
    let queue_full = stamped(&host_frame(200));
    let ttl_expired = stamped(&host_frame(1));
    let mut no_route = host_frame(200);
    {
        let mut ip = wire::Ipv4Packet::new_unchecked(&mut no_route[wire::ethernet::HEADER_LEN..]);
        ip.set_dst(Ipv4Address::from_host_id(99));
        ip.fill_checksum();
    }
    let no_route = stamped(&no_route);
    // The encapsulated packet claims IP version 0: the section is intact,
    // the routed header behind it is not.
    let mut bad_ip = queue_full.clone();
    bad_ip[ip_at] &= 0x0F;

    let cases = [
        (queue_full, DropReason::QueueFull),
        (no_route, DropReason::NoRoute),
        (ttl_expired, DropReason::TtlExpired),
        (bad_ip, DropReason::Malformed),
    ];
    for (frame, reason) in &cases {
        // Only `receive` is under the counter: the test's own frame copies
        // are not. The first drops fill the switch's bounded stock of retired
        // buffers; after that a drop must allocate nothing, which a slot
        // leaked or a ring entry left behind per drop could not keep up for
        // ten thousand frames (either grows a `Vec`).
        let mut drop_frames = |n: usize| {
            let mut allocs = 0;
            for i in 0..n {
                let copy = frame.clone();
                let before = allocs_on_this_thread();
                let out = sw.receive(1000 * i as u64, 0, copy);
                allocs += allocs_on_this_thread() - before;
                assert_eq!(out, ReceiveOutcome::Dropped(*reason));
            }
            allocs
        };
        drop_frames(128);
        let allocs = drop_frames(DROPS);
        assert_eq!(allocs, 0, "{DROPS} frames dropped as {reason:?} allocated {allocs} times");
    }
    assert_eq!(sw.mem.tpp_executed, 0);

    // And the switch still forwards: one TPP in flight, allocation-free from
    // the first frame (the slab entry the dropped frames used is this
    // frame's).
    sw.mem.queues[2][0].limit_bytes = 150_000;
    let allocs = allocs_per_run(&mut sw, cases[0].0.clone(), 64);
    assert_eq!(sw.mem.tpp_executed, 64);
    // The queue's two rings grow once each on first use.
    assert!(allocs <= 2, "forwarding after the drops allocated {allocs} times");
}
