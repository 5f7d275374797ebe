//! Damaged frames cannot make a switch panic (§3.3: a TPP that cannot run
//! must fail gracefully, and a damaged packet is dropped, not fatal).
//!
//! A seed-replayable mutation loop (the mutator is `tests/support/mutate.rs`
//! at the workspace root): each case takes one of the kinds of frame a
//! switch forwards — plain UDP, a transparent TPP (the section between the
//! Ethernet and IPv4 headers), a standalone TPP (the section in a UDP
//! datagram to port 0x6666) and a standalone TPP addressed to the switch
//! itself — and damages it. Every case goes through `receive`, then
//! `dequeue` until its port is empty, then `tick`, on one switch with host
//! routes, a prefix route, an ECMP group and a plan cache warmed with the
//! undamaged programs. A panic is reported with its seed and case number;
//! set `SWITCH_MUTATION_SEED` to run another seed.

use std::panic::{catch_unwind, AssertUnwindSafe};

use tpp_core::asm::{assemble, TppBuilder};
use tpp_core::wire::{
    build_standalone, ethernet, udp_frame_into, EthernetAddress, Ipv4Address, Tpp, UdpFrameRepr,
};
use tpp_switch::{Action, ReceiveOutcome, Switch, SwitchConfig};

#[path = "../../../tests/support/mutate.rs"]
mod mutate;
use mutate::{mutate, Base, Rng};

const CASES: u64 = 100_000;
const DEFAULT_SEED: u64 = 0x5EED_5717;
const PORTS: usize = 4;
/// Simulated nanoseconds between cases: a utilization window closes every
/// few hundred cases.
const CASE_NS: u64 = 700;

fn switch() -> Switch {
    let mut sw = Switch::new(SwitchConfig::new(9, PORTS));
    sw.add_host_route(Ipv4Address::from_host_id(2), Action::Output(1));
    let group = sw.add_group(vec![1, 2, 3]);
    sw.add_host_route(Ipv4Address::from_host_id(3), Action::Group(group));
    sw.add_route((Ipv4Address::new(10, 0, 0, 0), 8), Action::Output(3));
    sw
}

/// Switch id, output port and queue occupancy per hop (§2.1).
fn visibility() -> Tpp {
    TppBuilder::stack_mode()
        .push_m("Switch:SwitchID")
        .unwrap()
        .push_m("PacketMetadata:OutputPort")
        .unwrap()
        .push_m("Queue:QueueOccupancy")
        .unwrap()
        .hops(6)
        .build()
        .unwrap()
}

/// RCP*'s update program: a conditional store and a store per hop.
fn update() -> Tpp {
    assemble(
        "
        .mode hop
        .perhop 12
        .hops 4
        CSTORE [Link:AppSpecific_0], [Packet:Hop[0]], [Packet:Hop[1]]
        STORE [Link:AppSpecific_1], [Packet:Hop[2]]
        ",
    )
    .unwrap()
}

fn bases() -> Vec<Base> {
    let (h1, h2, h3) =
        (Ipv4Address::from_host_id(1), Ipv4Address::from_host_id(2), Ipv4Address::from_host_id(3));
    let mac = EthernetAddress::from_node_id;
    let udp = |dst, section: &[u8]| {
        let hdr = UdpFrameRepr {
            src_mac: mac(1),
            dst_mac: mac(2),
            src_ip: h1,
            dst_ip: dst,
            src_port: 7100,
            dst_port: 5001,
        };
        let mut frame = Vec::new();
        udp_frame_into(&mut frame, &hdr, 64, section);
        frame
    };
    let transparent = |name, tpp: Tpp| {
        let section = Tpp { encap_proto: ethernet::ethertype::IPV4, ..tpp }.serialize();
        let ip = 14 + section.len();
        Base { name, frame: udp(h3, &section), section: 14, ip, udp: ip + 20 }
    };
    let standalone = |name, dst, tpp: &Tpp| {
        let frame = build_standalone(mac(1), mac(2), h1, dst, 40_001, tpp);
        Base { name, frame, section: 42, ip: 14, udp: 34 }
    };
    let switch_ip = SwitchConfig::new(9, PORTS).ip;
    vec![
        Base { name: "plain", frame: udp(h2, &[]), section: 42, ip: 14, udp: 34 },
        transparent("visibility", visibility()),
        transparent("update", update()),
        standalone("standalone", h3, &update()),
        standalone("targeted", switch_ip, &visibility()),
    ]
}

/// One frame through the switch: receive on `in_port`, drain the port it
/// was queued on, and advance the clock.
fn forward(sw: &mut Switch, now: u64, in_port: u8, frame: Vec<u8>) -> ReceiveOutcome {
    let outcome = sw.receive(now, in_port, frame);
    if let ReceiveOutcome::Enqueued { port, proc_latency_ns, .. } = outcome {
        while sw.dequeue(now + proc_latency_ns, port).is_some() {}
    }
    while sw.take_retired().is_some() {}
    sw.tick(now + CASE_NS / 2);
    outcome
}

#[test]
fn damaged_frames_never_panic_the_switch() {
    let seed = mutate::seed("SWITCH_MUTATION_SEED", DEFAULT_SEED);
    let bases = bases();
    let mut sw = switch();
    // Warm the plan cache with the undamaged programs; each forwards.
    for (i, base) in bases.iter().enumerate() {
        let outcome = forward(&mut sw, i as u64, 0, base.frame.clone());
        assert!(matches!(outcome, ReceiveOutcome::Enqueued { .. }), "{}: {outcome:?}", base.name);
    }
    let (mut enqueued, mut dropped) = (0u64, 0u64);
    for case in 0..CASES {
        let mut rng = Rng::for_case(seed, case);
        let base = &bases[rng.below(bases.len())];
        let frame = mutate(base, &mut rng);
        let in_port = rng.below(PORTS) as u8;
        let now = (case + 1) * CASE_NS;
        let input = frame.clone();
        match catch_unwind(AssertUnwindSafe(|| forward(&mut sw, now, in_port, input))) {
            Ok(ReceiveOutcome::Enqueued { .. }) => enqueued += 1,
            Ok(ReceiveOutcome::Dropped(_)) => dropped += 1,
            Err(_) => panic!("seed {seed}, case {case} ({}) panicked: {frame:02x?}", base.name),
        }
    }
    // The loop reaches both the forwarding and the drop paths.
    assert!(
        enqueued > CASES / 10 && dropped > CASES / 10,
        "{enqueued} enqueued, {dropped} dropped"
    );
}
