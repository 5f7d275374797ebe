//! Damaged frames cannot make the receive side of the shim panic (§3.3:
//! a damaged packet must not hurt the stack that reads it).
//!
//! A seed-replayable mutation loop: each case takes one of the three kinds
//! of frame a shim receives with a TPP — stamped (transparent), standalone,
//! and an echo carrying a completion home — and applies one to three
//! mutations drawn from the case's own generator: bit flips, truncation,
//! padding, and lying length fields (the section's instruction count and
//! memory length, the IPv4 total length and header length, the UDP
//! length). Every case goes to a host that echoes and to one that is its
//! own aggregator. A panic is reported with its seed and case number; set
//! `SHIM_MUTATION_SEED` to run another seed.

use std::panic::{catch_unwind, AssertUnwindSafe};

use tpp_core::asm::TppBuilder;
use tpp_core::wire::{
    build_standalone, udp_frame_into, EthernetAddress, Ipv4Address, Tpp, TppView, UdpFrameRepr,
};
use tpp_endhost::{Filter, Incoming, Shim};

const CASES: u64 = 100_000;
const DEFAULT_SEED: u64 = 0x5EED_5A1F;
const APP: u16 = 7;

fn shim_for(host: u32) -> Shim {
    Shim::new(Ipv4Address::from_host_id(host), EthernetAddress::from_node_id(host), host as u64)
}

fn probe() -> Tpp {
    let mut t = TppBuilder::hop_mode(2)
        .push_m("Switch:SwitchID")
        .unwrap()
        .push_m("Queue:QueueOccupancy")
        .unwrap()
        .hops(4)
        .build()
        .unwrap();
    t.app_id = APP;
    t
}

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

/// A frame to mutate, with the offsets its lying fields sit at.
struct Base {
    name: &'static str,
    frame: Vec<u8>,
    section: usize,
    ip: usize,
    udp: usize,
}

fn bases() -> Vec<Base> {
    let (h1, h2) = (Ipv4Address::from_host_id(1), Ipv4Address::from_host_id(2));
    let mut sender = shim_for(1);
    sender.add_tpp(APP, Filter::udp(), probe(), 1, 0);
    let mut plain = Vec::new();
    let hdr = UdpFrameRepr {
        src_mac: EthernetAddress::from_node_id(1),
        dst_mac: EthernetAddress::from_node_id(2),
        src_ip: h1,
        dst_ip: h2,
        src_port: 7100,
        dst_port: 5001,
    };
    udp_frame_into(&mut plain, &hdr, 64, &[]);
    let stamped = sender.outgoing(plain);
    let standalone = build_standalone(
        EthernetAddress::from_node_id(1),
        EthernetAddress::from_node_id(2),
        h1,
        h2,
        40_001,
        &probe(),
    );
    let echo = shim_for(2).incoming(stamped.clone()).echo.expect("receiver echoes");
    // A stamped frame's IPv4 header follows the section.
    let ip = 14 + probe().section_len();
    vec![
        Base { name: "stamped", frame: stamped, section: 14, ip, udp: ip + 20 },
        Base { name: "standalone", frame: standalone, section: 42, ip: 14, udp: 34 },
        Base { name: "echo", frame: echo, section: 42, ip: 14, udp: 34 },
    ]
}

/// Overwrite the byte at `at`, if the frame still reaches it.
fn put(frame: &mut [u8], at: usize, value: u8) {
    if let Some(b) = frame.get_mut(at) {
        *b = value;
    }
}

fn mutate(base: &Base, rng: &mut Rng) -> Vec<u8> {
    let mut frame = base.frame.clone();
    for _ in 0..1 + rng.below(3) {
        let r = rng.next();
        match rng.below(7) {
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
            // The IPv4 total length, or the header length nibble.
            4 => {
                put(&mut frame, base.ip + 2, (r >> 8) as u8);
                put(&mut frame, base.ip + 3, r as u8);
            }
            5 => put(&mut frame, base.ip, 0x40 | (r as u8 & 0x0F)),
            // The UDP length.
            _ => {
                put(&mut frame, base.udp + 4, (r >> 8) as u8);
                put(&mut frame, base.udp + 5, r as u8);
            }
        }
    }
    frame
}

/// What must hold of any outcome: a surfaced completion is a valid section.
fn check(out: &Incoming) -> Result<(), String> {
    if let Some(done) = &out.completed {
        TppView::parse(done.tpp.as_bytes())
            .map_err(|e| format!("surfaced an invalid section: {e}"))?;
    }
    Ok(())
}

#[test]
fn damaged_frames_never_panic_the_shim() {
    let seed = std::env::var("SHIM_MUTATION_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(DEFAULT_SEED);
    let bases = bases();
    let mut echoing = shim_for(2);
    let mut local = shim_for(2);
    local.set_aggregator(APP, local.ip);
    let mut completed = 0;
    for case in 0..CASES {
        let mut rng = Rng(seed ^ case.wrapping_mul(0xD1B5_4A32_D192_ED03));
        let base = &bases[rng.below(bases.len())];
        let frame = mutate(base, &mut rng);
        for shim in [&mut echoing, &mut local] {
            let input = frame.clone();
            match catch_unwind(AssertUnwindSafe(|| shim.incoming(input))) {
                Ok(out) => {
                    if let Err(e) = check(&out) {
                        panic!("seed {seed}, case {case} ({}): {e}: {frame:02x?}", base.name);
                    }
                    completed += usize::from(out.completed.is_some());
                }
                Err(_) => panic!("seed {seed}, case {case} ({}) panicked: {frame:02x?}", base.name),
            }
        }
    }
    // The loop reaches the completion paths, not only the rejections.
    assert!(completed > 0, "no mutated frame surfaced a completion");
}
