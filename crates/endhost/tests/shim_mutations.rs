//! Damaged frames cannot make the receive side of the shim panic (§3.3:
//! a damaged packet must not hurt the stack that reads it).
//!
//! A seed-replayable mutation loop (the mutator is `tests/support/mutate.rs`
//! at the workspace root, shared with the switch's loop): each case takes
//! one of the kinds of frame a shim receives with a TPP — stamped
//! (transparent), standalone, a fire-and-forget update (standalone from
//! [`TPP_UPDATE_PORT`], which the shim absorbs), an echo carrying a
//! completion home, and the echo of a probe an [`Executor`] launched — and
//! damages it. Every case goes to a host that echoes, to one that is its own
//! aggregator and to the probe's origin. Every completion a shim surfaces is
//! fed to an executor that holds the launched probe: a completion it matches
//! must carry the probe's program, whatever else the damage changed. A panic
//! is reported with its seed and case number; set `SHIM_MUTATION_SEED` to
//! run another seed.

use std::panic::{catch_unwind, AssertUnwindSafe};

use tpp_core::asm::TppBuilder;
use tpp_core::wire::{
    build_standalone, udp_frame_into, EthernetAddress, Ipv4Address, Tpp, TppView, UdpFrameRepr,
};
use tpp_endhost::{
    Executor, ExecutorConfig, Filter, Incoming, ProbeOutcome, Shim, TPP_UPDATE_PORT,
};

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
    let from_port = |src_port| {
        let (m1, m2) = (EthernetAddress::from_node_id(1), EthernetAddress::from_node_id(2));
        build_standalone(m1, m2, h1, h2, src_port, &probe())
    };
    let (standalone, update) = (from_port(40_001), from_port(TPP_UPDATE_PORT));
    let echo = shim_for(2).incoming(stamped.clone()).echo.expect("receiver echoes");
    let (_, launched) = launcher();
    let launched_echo = shim_for(2).incoming(launched).echo.expect("receiver echoes");
    // A stamped frame's IPv4 header follows the section.
    let ip = 14 + probe().section_len();
    vec![
        Base { name: "stamped", frame: stamped, section: 14, ip, udp: ip + 20 },
        Base { name: "standalone", frame: standalone, section: 42, ip: 14, udp: 34 },
        Base { name: "update", frame: update, section: 42, ip: 14, udp: 34 },
        Base { name: "echo", frame: echo, section: 42, ip: 14, udp: 34 },
        Base { name: "launched echo", frame: launched_echo, section: 42, ip: 14, udp: 34 },
    ]
}

/// An executor at host 1 holding one probe launched toward host 2, and the
/// probe's frame.
fn launcher() -> (Executor, Vec<u8>) {
    let (h1, h2) = (Ipv4Address::from_host_id(1), Ipv4Address::from_host_id(2));
    let mut exec = Executor::new(h1, EthernetAddress::from_node_id(1), ExecutorConfig::default());
    let (_, frame) = exec.send(0, h2, probe(), None);
    (exec, frame)
}

/// What must hold of any outcome: a surfaced completion is a valid section,
/// and an executor holding the launched probe matches it only if it carries
/// the probe's program. Returns whether the executor matched it.
fn check(out: &Incoming) -> Result<bool, String> {
    let Some(done) = &out.completed else { return Ok(false) };
    TppView::parse(done.tpp.as_bytes()).map_err(|e| format!("surfaced an invalid section: {e}"))?;
    let (mut exec, _) = launcher();
    match exec.on_completed(done.clone()) {
        Some(ProbeOutcome::Completed { tpp, .. }) if !tpp.view().instrs().eq(probe().instrs) => {
            Err(format!("matched a completion of another program: {:?}", tpp.view().to_tpp()))
        }
        outcome => Ok(outcome.is_some()),
    }
}

#[test]
fn damaged_frames_never_panic_the_shim() {
    let seed = mutate::seed("SHIM_MUTATION_SEED", DEFAULT_SEED);
    let bases = bases();
    let mut echoing = shim_for(2);
    let mut local = shim_for(2);
    local.set_aggregator(APP, local.ip);
    let mut origin = shim_for(1);
    let (mut completed, mut matched, mut absorbed) = (0, 0, 0);
    for case in 0..CASES {
        let mut rng = Rng::for_case(seed, case);
        let base = &bases[rng.below(bases.len())];
        let frame = mutate(base, &mut rng);
        for shim in [&mut echoing, &mut local, &mut origin] {
            let input = frame.clone();
            let run = || {
                let out = shim.incoming(input);
                // Only an update's absorption leaves every field empty.
                let nothing = out == Incoming::default();
                check(&out).map(|hit| (out.completed.is_some(), hit, nothing))
            };
            match catch_unwind(AssertUnwindSafe(run)) {
                Ok(Ok((surfaced, hit, nothing))) => {
                    completed += usize::from(surfaced);
                    matched += usize::from(hit);
                    absorbed += usize::from(nothing);
                }
                Ok(Err(e)) => panic!("seed {seed}, case {case} ({}): {e}: {frame:02x?}", base.name),
                Err(_) => panic!("seed {seed}, case {case} ({}) panicked: {frame:02x?}", base.name),
            }
        }
    }
    // The loop reaches the completion paths, the executor's matches and the
    // update rule, not only the rejections.
    assert!(completed > 0, "no mutated frame surfaced a completion");
    assert!(matched > 0, "no surfaced completion matched the launched probe");
    assert!(absorbed > 0, "no mutated update was absorbed");
}
