//! Damaged frames cannot make a switch panic (§3.3: a TPP that cannot run
//! must fail gracefully, and a damaged packet is dropped, not fatal).
//!
//! A seed-replayable mutation loop: each case takes one of the kinds of
//! frame a switch forwards — plain UDP, a transparent TPP (the section
//! between the Ethernet and IPv4 headers), a standalone TPP (the section in
//! a UDP datagram to port 0x6666) and a standalone TPP addressed to the
//! switch itself — and applies one to three mutations drawn from the case's
//! own generator: bit flips, truncation, padding, and lying fields (the
//! section's instruction count, memory length, hop, stack pointer and
//! per-hop length, the IPv4 total length and header length, the UDP
//! length). Half the cases then refresh the section checksum over what the
//! header now claims, so the lies reach the planner and the TCPU instead
//! of stopping at the checksum. Every case goes through `receive`, then
//! `dequeue` until its port is empty, then `tick`, on one switch with host
//! routes, a prefix route, an ECMP group and a plan cache warmed with the
//! undamaged programs. A panic is reported with its seed and case number;
//! set `SWITCH_MUTATION_SEED` to run another seed.

use std::panic::{catch_unwind, AssertUnwindSafe};

use tpp_core::asm::{assemble, TppBuilder};
use tpp_core::wire::{
    build_standalone, checksum, ethernet, udp_frame_into, EthernetAddress, Ipv4Address, Tpp,
    UdpFrameRepr,
};
use tpp_switch::{Action, ReceiveOutcome, Switch, SwitchConfig};

const CASES: u64 = 100_000;
const DEFAULT_SEED: u64 = 0x5EED_5717;
const PORTS: usize = 4;
/// Simulated nanoseconds between cases: a utilization window closes every
/// few hundred cases.
const CASE_NS: u64 = 700;

/// `SplitMix64`: one independent stream per `(seed, case)`.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

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

/// A frame to mutate, with the offsets its lying fields sit at.
struct Base {
    name: &'static str,
    frame: Vec<u8>,
    section: usize,
    ip: usize,
    udp: usize,
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

/// Overwrite the byte at `at`, if the frame still reaches it.
fn put(frame: &mut [u8], at: usize, value: u8) {
    if let Some(b) = frame.get_mut(at) {
        *b = value;
    }
}

/// Recompute the section checksum over the bytes the header claims (or as
/// many of them as the frame still holds).
fn refresh_checksum(frame: &mut [u8], section: usize) {
    let Some(header) = frame.get(section..section + 12) else {
        return;
    };
    let claimed = 12 + 4 * header[1] as usize + header[2] as usize;
    let end = frame.len().min(section + claimed);
    frame[section + 6..section + 8].fill(0);
    let c = checksum::checksum(&frame[section..end]);
    frame[section + 6..section + 8].copy_from_slice(&c.to_be_bytes());
}

fn mutate(base: &Base, rng: &mut Rng) -> Vec<u8> {
    let mut frame = base.frame.clone();
    for _ in 0..1 + rng.below(3) {
        let r = rng.next();
        match rng.below(8) {
            0 => {
                for _ in 0..1 + rng.below(4) {
                    let bit = rng.below(8 * frame.len());
                    if let Some(b) = frame.get_mut(bit / 8) {
                        *b ^= 1 << (bit % 8);
                    }
                }
            }
            1 => frame.truncate(rng.below(frame.len() + 1)),
            2 => frame.extend((0..rng.below(64)).map(|i| (r >> (i % 8 * 8)) as u8)),
            // The section's instruction count or memory length.
            3 => put(&mut frame, base.section + 1 + rng.below(2), r as u8),
            // The section's hop, stack pointer or per-hop length.
            4 => put(&mut frame, base.section + 3 + rng.below(3), r as u8),
            // The IPv4 total length, or the header length nibble.
            5 => {
                put(&mut frame, base.ip + 2, (r >> 8) as u8);
                put(&mut frame, base.ip + 3, r as u8);
            }
            6 => put(&mut frame, base.ip, 0x40 | (r as u8 & 0x0F)),
            // The UDP length.
            _ => {
                put(&mut frame, base.udp + 4, (r >> 8) as u8);
                put(&mut frame, base.udp + 5, r as u8);
            }
        }
    }
    if rng.below(2) == 0 {
        refresh_checksum(&mut frame, base.section);
    }
    frame
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
    let seed = std::env::var("SWITCH_MUTATION_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(DEFAULT_SEED);
    let bases = bases();
    let mut sw = switch();
    // Warm the plan cache with the undamaged programs; each forwards.
    for (i, base) in bases.iter().enumerate() {
        let outcome = forward(&mut sw, i as u64, 0, base.frame.clone());
        assert!(matches!(outcome, ReceiveOutcome::Enqueued { .. }), "{}: {outcome:?}", base.name);
    }
    let (mut enqueued, mut dropped) = (0u64, 0u64);
    for case in 0..CASES {
        let mut rng = Rng(seed ^ case.wrapping_mul(0xD1B5_4A32_D192_ED03));
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
