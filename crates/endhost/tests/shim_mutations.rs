//! Damaged frames cannot make either side of the shim panic (§3.3: a
//! damaged packet must not hurt the stack that reads it).
//!
//! Two seed-replayable mutation loops (the mutator is
//! `tests/support/mutate.rs` at the workspace root, shared with the
//! switch's loop). On the receive side each case takes
//! one of the kinds of frame a shim receives with a TPP — stamped
//! (transparent), standalone, a fire-and-forget write-back (standalone from
//! a data port, with an app ID every receiver aggregates itself, so it is
//! consumed without an echo), an echo carrying a completion home, and the
//! echo of a probe an [`Executor`] launched — and damages it. Every case
//! goes to a host that echoes, to one that is its own aggregator and to the
//! probe's origin. Every completion a shim surfaces is
//! fed to an executor that holds the launched probe: a completion it matches
//! must carry the probe's program, whatever else the damage changed.
//!
//! On the send side each case damages a frame a host hands its shim (plain
//! UDP, not IPv4, truncated, or already carrying a TPP) and passes it to
//! [`Shim::outgoing`] with filters installed. A frame it leaves alone comes
//! back unchanged; a frame it stamps carries a section that
//! [`TppView::parse`] accepts, checksum included, and a receiving shim
//! strips it back to the frame that went in.
//!
//! A panic or a broken rule is reported with its seed and case number; set
//! `SHIM_MUTATION_SEED` to run another seed.

use std::panic::{catch_unwind, AssertUnwindSafe};

use tpp_core::asm::TppBuilder;
use tpp_core::wire::{
    build_standalone, locate_tpp, udp_frame_into, EthernetAddress, Ipv4Address, Tpp, TppLocation,
    TppView, UdpFrameRepr,
};
use tpp_endhost::{Executor, ExecutorConfig, Filter, Incoming, ProbeOutcome, Shim};

#[path = "../../../tests/support/mutate.rs"]
mod mutate;
use mutate::{mutate, Base, Rng};

const CASES: u64 = 100_000;
const DEFAULT_SEED: u64 = 0x5EED_5A1F;
const APP: u16 = 7;
/// The app ID of the fire-and-forget write-back, which every receiving
/// shim aggregates itself.
const WRITE_BACK: u16 = 6;

/// A receiving shim: it consumes write-backs.
fn shim_for(host: u32) -> Shim {
    let ip = Ipv4Address::from_host_id(host);
    let mut shim = Shim::new(ip, EthernetAddress::from_node_id(host), host as u64);
    shim.set_aggregator(WRITE_BACK, ip);
    shim
}

/// Whether `out` is a write-back consumed where it landed: surfaced to this
/// host, neither echoed nor delivered.
fn consumed_write_back(out: &Incoming) -> bool {
    out.echo.is_none()
        && out.deliver.is_none()
        && out.completed.as_ref().is_some_and(|c| c.app_id == WRITE_BACK)
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
    let from_port = |src_port, app_id| {
        let (m1, m2) = (EthernetAddress::from_node_id(1), EthernetAddress::from_node_id(2));
        build_standalone(m1, m2, h1, h2, src_port, &Tpp { app_id, ..probe() })
    };
    let (standalone, write_back) = (from_port(40_001, APP), from_port(7100, WRITE_BACK));
    let echo = shim_for(2).incoming(stamped.clone()).echo.expect("receiver echoes");
    let (_, launched) = launcher();
    let launched_echo = shim_for(2).incoming(launched).echo.expect("receiver echoes");
    // A stamped frame's IPv4 header follows the section.
    let ip = 14 + probe().section_len();
    vec![
        Base { name: "stamped", frame: stamped, section: 14, ip, udp: ip + 20 },
        Base { name: "standalone", frame: standalone, section: 42, ip: 14, udp: 34 },
        Base { name: "write-back", frame: write_back, section: 42, ip: 14, udp: 34 },
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
    // Undamaged, a write-back is consumed by every receiver.
    let write_back = bases.iter().find(|b| b.name == "write-back").expect("a base");
    for shim in [&mut echoing, &mut local, &mut origin] {
        assert!(consumed_write_back(&shim.incoming(write_back.frame.clone())), "{:?}", shim.ip);
    }
    let (mut completed, mut matched, mut absorbed) = (0, 0, 0);
    for case in 0..CASES {
        let mut rng = Rng::for_case(seed, case);
        let base = &bases[rng.below(bases.len())];
        let frame = mutate(base, &mut rng);
        for shim in [&mut echoing, &mut local, &mut origin] {
            let input = frame.clone();
            let run = || {
                let out = shim.incoming(input);
                let consumed = consumed_write_back(&out);
                check(&out).map(|hit| (out.completed.is_some(), hit, consumed))
            };
            match catch_unwind(AssertUnwindSafe(run)) {
                Ok(Ok((surfaced, hit, consumed))) => {
                    completed += usize::from(surfaced);
                    matched += usize::from(hit);
                    absorbed += usize::from(consumed);
                }
                Ok(Err(e)) => panic!("seed {seed}, case {case} ({}): {e}: {frame:02x?}", base.name),
                Err(_) => panic!("seed {seed}, case {case} ({}) panicked: {frame:02x?}", base.name),
            }
        }
    }
    // The loop reaches the completion paths, the executor's matches and the
    // write-back rule, not only the rejections.
    assert!(completed > 0, "no mutated frame surfaced a completion");
    assert!(matched > 0, "no surfaced completion matched the launched probe");
    assert!(absorbed > 0, "no mutated write-back was consumed");
}

/// A sender's shim: every UDP frame is stamped, and one in two of any other
/// frame with a 5-tuple.
fn stamping_shim() -> Shim {
    let mut shim = shim_for(1);
    shim.add_tpp(APP, Filter::udp(), probe(), 1, 1);
    shim.add_tpp(APP + 1, Filter::any(), probe(), 2, 0);
    shim
}

/// Frames a host hands its shim. A frame with no section gets the IPv4
/// header as its `section`, so the mutator's section lies damage that
/// header too.
fn outgoing_bases() -> Vec<Base> {
    let hdr = UdpFrameRepr {
        src_mac: EthernetAddress::from_node_id(1),
        dst_mac: EthernetAddress::from_node_id(2),
        src_ip: Ipv4Address::from_host_id(1),
        dst_ip: Ipv4Address::from_host_id(2),
        src_port: 7100,
        dst_port: 5001,
    };
    let mut plain = Vec::new();
    udp_frame_into(&mut plain, &hdr, 64, &[]);
    let mut not_ipv4 = plain.clone();
    not_ipv4[12..14].copy_from_slice(&0x86DDu16.to_be_bytes());
    // Cut inside the UDP header.
    let truncated = plain[..38].to_vec();
    let stamped = stamping_shim().outgoing(plain.clone());
    let (m1, m2) = (hdr.src_mac, hdr.dst_mac);
    let standalone = build_standalone(m1, m2, hdr.src_ip, hdr.dst_ip, 40_001, &probe());
    let ip = 14 + probe().section_len();
    vec![
        Base { name: "plain", frame: plain, section: 14, ip: 14, udp: 34 },
        Base { name: "not ipv4", frame: not_ipv4, section: 14, ip: 14, udp: 34 },
        Base { name: "truncated", frame: truncated, section: 14, ip: 14, udp: 34 },
        Base { name: "stamped", frame: stamped, section: 14, ip, udp: ip + 20 },
        Base { name: "standalone", frame: standalone, section: 42, ip: 14, udp: 34 },
    ]
}

/// What must hold of a frame `Shim::outgoing` returned for `input`: unchanged
/// unless the shim counted it stamped, and a stamped frame carries a valid
/// section that a receiving shim strips off again. Returns whether it was
/// stamped.
fn check_outgoing(input: &[u8], out: Vec<u8>, stamped: bool) -> Result<bool, String> {
    if !stamped {
        return if out == input {
            Ok(false)
        } else {
            Err("changed a frame it did not stamp".into())
        };
    }
    let TppLocation::Transparent { section } = locate_tpp(&out) else {
        return Err(format!("a stamped frame carries no transparent section: {out:02x?}"));
    };
    TppView::parse(&out[section..]).map_err(|e| format!("stamped an invalid section: {e}"))?;
    match shim_for(2).incoming(out).deliver {
        Some(inner) if inner == input => Ok(true),
        inner => Err(format!("stripping the stamp gave {inner:02x?}")),
    }
}

#[test]
fn damaged_frames_never_panic_the_sending_shim() {
    let seed = mutate::seed("SHIM_MUTATION_SEED", DEFAULT_SEED);
    let bases = outgoing_bases();
    let mut shim = stamping_shim();
    let mut stamped = 0;
    for case in 0..CASES {
        let mut rng = Rng::for_case(seed, case);
        let base = &bases[rng.below(bases.len())];
        let frame = mutate(base, &mut rng);
        let run = || {
            let before = shim.counters.tx_stamped;
            let out = shim.outgoing(frame.clone());
            check_outgoing(&frame, out, shim.counters.tx_stamped > before)
        };
        match catch_unwind(AssertUnwindSafe(run)) {
            Ok(Ok(hit)) => stamped += usize::from(hit),
            Ok(Err(e)) => panic!("seed {seed}, case {case} ({}): {e}: {frame:02x?}", base.name),
            Err(_) => panic!("seed {seed}, case {case} ({}) panicked: {frame:02x?}", base.name),
        }
    }
    // The loop reaches the stamping path, not only the frames it skips.
    assert!(stamped > 0, "no mutated frame was stamped");
}
