//! Hostile programs and hop budgets cannot make the verifier panic (§4.3:
//! the TPP-CP verifies what an application hands it, so the verifier's
//! input is untrusted too).
//!
//! A seed-replayable mutation loop (the mutator is `tests/support/mutate.rs`
//! at the workspace root): each case damages one of a few standalone-TPP
//! frames, parses the section with `Tpp::parse`, and, in half the cases,
//! then lies in the parsed program's fields (hop, stack pointer, per-hop
//! length, memory length, instruction count) past what the wire format
//! allows. Every program that parses goes through `verify` with no hop
//! budget, a small one and a huge one (overflowing footprints included),
//! each with and without a segment table. A panic is reported with its seed
//! and case number, which `Rng::for_case` replays.

use std::panic::{catch_unwind, AssertUnwindSafe};

use tpp_core::addr::resolve_mnemonic;
use tpp_core::analysis::Segment;
use tpp_core::asm::assemble;
use tpp_core::isa::Instruction;
use tpp_core::verify::{verify, VerifyOptions};
use tpp_core::wire::{build_standalone, EthernetAddress, Ipv4Address, Tpp};

// One fixed seed: `mutate::seed`, which reads another from the environment,
// goes unused here.
#[allow(dead_code)]
#[path = "../../../tests/support/mutate.rs"]
mod mutate;
use mutate::{mutate, Base, Rng};

const CASES: u64 = 100_000;
const SEED: u64 = 0x5EED_7E71;

/// The programs to damage: a stack-mode collect, RCP*'s versioned update, a
/// targeted `CEXEC` and a `POP` of what the program pushed.
fn bases() -> Vec<Base> {
    let programs = [
        ("collect", ".mode stack\n.hops 6\nPUSH [Switch:SwitchID]\nPUSH [Queue:QueueOccupancy]"),
        (
            "update",
            ".mode hop\n.perhop 12\n.hops 4\n\
             CSTORE [Link:AppSpecific_0], [Packet:Hop[0]], [Packet:Hop[1]]\n\
             STORE [Link:AppSpecific_1], [Packet:Hop[2]]",
        ),
        (
            "targeted",
            ".mode hop\n.perhop 8\n.hops 3\n.word 0 15\n.word 1 7\n\
             CEXEC [Switch:SwitchID], [Packet:Hop[0]], [Packet:Hop[1]]\n\
             LOAD [Link:QueueSize], [Packet:Hop[1]]",
        ),
        ("pop", ".mode stack\n.memory 8\nPUSH [Switch:SwitchID]\nPOP [Link:AppSpecific_2]"),
    ];
    let (mac, ip) = (EthernetAddress::from_node_id, Ipv4Address::from_host_id);
    programs
        .iter()
        .map(|&(name, src)| {
            let tpp = assemble(src).unwrap_or_else(|e| panic!("{name}: {e}"));
            let frame = build_standalone(mac(1), mac(2), ip(1), ip(2), 40_001, &tpp);
            Base { name, frame, section: 42, ip: 14, udp: 34 }
        })
        .collect()
}

/// Lie in the fields a parsed program can no longer be checked against:
/// any hop, stack pointer and per-hop length, memory of any length (not
/// word-aligned, past the cap) and more instructions than the budget.
fn lie(tpp: &mut Tpp, rng: &mut Rng) {
    for _ in 0..1 + rng.below(3) {
        match rng.below(5) {
            0 => tpp.hop = rng.below(256) as u8,
            1 => tpp.sp = rng.below(256) as u8,
            2 => tpp.per_hop_len = rng.below(256) as u8,
            3 => tpp.memory.resize(rng.below(600), 0),
            _ => {
                let extra = tpp
                    .instrs
                    .first()
                    .copied()
                    .unwrap_or(Instruction::push(resolve_mnemonic("Switch:SwitchID").unwrap()));
                tpp.instrs.extend(std::iter::repeat_n(extra, 1 + rng.below(4)));
            }
        }
    }
}

#[test]
fn hostile_programs_and_budgets_never_panic_the_verifier() {
    let bases = bases();
    let app = |m| resolve_mnemonic(m).unwrap();
    let segments = [
        Segment::read_only(app("Switch:SwitchID"), app("Switch:SwitchID")),
        Segment::read_write(app("Link:AppSpecific_0"), app("Link:AppSpecific_1")),
    ];
    let mut verified = 0u64;
    for case in 0..CASES {
        let mut rng = Rng::for_case(SEED, case);
        let base = &bases[rng.below(bases.len())];
        let frame = mutate(base, &mut rng);
        let Some(Ok((mut tpp, _))) = frame.get(base.section..).map(Tpp::parse) else {
            continue;
        };
        if rng.below(2) == 0 {
            lie(&mut tpp, &mut rng);
        }
        let budgets = [None, Some(rng.below(16)), Some(rng.below(usize::MAX)), Some(usize::MAX)];
        for hops in budgets {
            for segments in [None, Some(&segments[..])] {
                let run = catch_unwind(AssertUnwindSafe(|| {
                    verify(&tpp, VerifyOptions { hops, segments })
                }));
                assert!(
                    run.is_ok(),
                    "seed {SEED}, case {case} ({}), hops {hops:?}, segments {}: {tpp:?}",
                    base.name,
                    segments.is_some()
                );
            }
        }
        verified += 1;
    }
    // Enough damaged programs still parse to exercise the verifier.
    assert!(verified > CASES / 10, "{verified} of {CASES} cases parsed");
}
