//! Damaged frames cannot make the receive side of the shim panic (§3.3:
//! a damaged packet must not hurt the stack that reads it).
//!
//! A seed-replayable mutation loop (the mutator is `tests/support/mutate.rs`
//! at the workspace root, shared with the switch's loop): each case takes
//! one of the three kinds of frame a shim receives with a TPP — stamped
//! (transparent), standalone, and an echo carrying a completion home — and
//! damages it. Every case goes to a host that echoes and to one that is its
//! own aggregator. A panic is reported with its seed and case number; set
//! `SHIM_MUTATION_SEED` to run another seed.

use std::panic::{catch_unwind, AssertUnwindSafe};

use tpp_core::asm::TppBuilder;
use tpp_core::wire::{
    build_standalone, udp_frame_into, EthernetAddress, Ipv4Address, Tpp, TppView, UdpFrameRepr,
};
use tpp_endhost::{Filter, Incoming, Shim};

#[path = "../../../tests/support/mutate.rs"]
mod mutate;
use mutate::{mutate, Base, Rng};

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
    let seed = mutate::seed("SHIM_MUTATION_SEED", DEFAULT_SEED);
    let bases = bases();
    let mut echoing = shim_for(2);
    let mut local = shim_for(2);
    local.set_aggregator(APP, local.ip);
    let mut completed = 0;
    for case in 0..CASES {
        let mut rng = Rng::for_case(seed, case);
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
