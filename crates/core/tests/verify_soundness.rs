//! Differential soundness suite for the static verifier.
//!
//! The verifier's contract: a program it accepts for `h` hops executes
//! those hops with **zero** packet-memory bounds faults and zero permission
//! faults. These tests pit [`verify`] with a fixed hop budget against the in-place
//! interpreter on random programs, memory layouts and hop counts:
//!
//! * accepted ⇒ no runtime `Skipped` on a fully-mapped bus (soundness);
//! * any runtime fault ⇒ the verifier rejected (the contrapositive,
//!   stated directly over the fault trace).

use proptest::prelude::*;

use tpp_core::addr::{is_architecturally_writable, resolve_mnemonic, Address};
use tpp_core::exec::{execute_in_place, ExecOptions, InstrStatus, MapBus};
use tpp_core::isa::{Instruction, Opcode};
use tpp_core::verify::{verify, Verdict, VerifyOptions};
use tpp_core::wire::{AddrMode, Tpp, TppViewMut};

fn verify_for_hops(tpp: &Tpp, hops: usize) -> Verdict {
    verify(tpp, VerifyOptions { hops: Some(hops), segments: None })
}

fn arb_opcode() -> impl Strategy<Value = Opcode> {
    prop_oneof![
        Just(Opcode::Load),
        Just(Opcode::Store),
        Just(Opcode::Push),
        Just(Opcode::Pop),
        Just(Opcode::Cstore),
        Just(Opcode::Cexec),
    ]
}

prop_compose! {
    /// Mostly well-known (readable and writable) addresses, with a tail of
    /// fully random ones — so a useful fraction of generated programs are
    /// accepted while plenty still exercise the deny paths.
    fn arb_addr()(raw in any::<u16>(), pick in 0u8..6) -> Address {
        match pick {
            0 => resolve_mnemonic("Link$0:AppSpecific_0").unwrap(),
            1 => resolve_mnemonic("Stage1:Reg0").unwrap(),
            2 => resolve_mnemonic("Switch:SwitchID").unwrap(),
            3 => resolve_mnemonic("Queue:QueueOccupancy").unwrap(),
            4 => resolve_mnemonic("PacketMetadata:InputPort").unwrap(),
            _ => Address::new(raw),
        }
    }
}

prop_compose! {
    fn arb_instruction()(
        opcode in arb_opcode(),
        addr in arb_addr(),
        // Small operand offsets keep a useful fraction of programs in
        // bounds; the verifier sees plenty of out-of-range ones too.
        op1 in 0u8..16,
        op2 in 0u8..16,
    ) -> Instruction {
        let (op1, op2) = if opcode.is_conditional() { (op1, op2) } else { (op1, 0) };
        Instruction { opcode, addr, op1, op2 }
    }
}

prop_compose! {
    fn arb_tpp()(
        instrs in prop::collection::vec(arb_instruction(), 0..=5),
        mem_words in 0usize..=63,
        mode in prop_oneof![Just(AddrMode::Stack), Just(AddrMode::Hop)],
        hop_small in 0u8..4,
        hop_any in any::<u8>(),
        use_small_hop in any::<bool>(),
        sp in 0u8..=64,
        per_hop_words in 0u8..=8,
    ) -> Tpp {
        Tpp {
            mode,
            // Mostly early hops (where hop windows fit in memory), with a
            // tail of arbitrary counters for the wraparound paths.
            hop: if use_small_hop { hop_small } else { hop_any },
            sp,
            per_hop_len: per_hop_words * 4,
            encap_proto: 0x0800,
            instrs,
            memory: vec![0u8; mem_words * 4],
            ..Tpp::default()
        }
    }
}

/// A bus that faithfully models the architecture's permission surface:
/// every address an instruction touches is mapped, but architecturally
/// read-only addresses reject writes — exactly the faults the verifier's
/// standalone writability check must rule out.
fn full_bus(tpp: &Tpp) -> MapBus {
    let mut bus = MapBus::default();
    for ins in &tpp.instrs {
        bus.mem.insert(ins.addr.raw(), 0x5EED_0000 | u32::from(ins.addr.raw()));
        if !is_architecturally_writable(ins.addr) {
            bus.read_only.insert(ins.addr.raw());
        }
    }
    bus
}

proptest! {
    /// Soundness: a program the verifier accepts for `hops` hops executes
    /// all of them with zero `Skipped` statuses — no stack overflow or
    /// underflow, no hop-window overrun, no forbidden write — on a bus
    /// that maps every touched address and enforces architectural
    /// writability.
    #[test]
    fn accepted_programs_never_fault_at_runtime(tpp in arb_tpp(), hops in 1usize..=8) {
        if !verify_for_hops(&tpp, hops).passed() {
            return Ok(());
        }

        let mut bus = full_bus(&tpp);
        let opts = ExecOptions { allow_writes: true };
        let mut frame = tpp.serialize();
        for h in 0..hops {
            let (mut view, _) = TppViewMut::parse(&mut frame).expect("serialized TPP parses");
            let out = execute_in_place(&mut view, &mut bus, &opts);
            prop_assert!(!out.rejected, "verified program rejected at hop {}", h);
            for (i, st) in out.status.as_slice().iter().enumerate() {
                prop_assert_ne!(
                    *st,
                    InstrStatus::Skipped,
                    "hop {}: instr {} faulted on a verifier-accepted program",
                    h,
                    i
                );
            }
        }
    }

    /// The contrapositive, asserted from the runtime side: whenever the
    /// reference interpreter records a bounds/permission fault (`Skipped`)
    /// within the first `hops` hops, the verifier must have denied the
    /// program for that budget.
    #[test]
    fn runtime_fault_implies_verifier_rejection(tpp in arb_tpp(), hops in 1usize..=8) {
        let mut bus = full_bus(&tpp);
        let opts = ExecOptions { allow_writes: true };
        let mut frame = tpp.serialize();
        let mut faulted = false;
        for _ in 0..hops {
            let (mut view, _) = TppViewMut::parse(&mut frame).expect("serialized TPP parses");
            let out = execute_in_place(&mut view, &mut bus, &opts);
            faulted |= out.status.as_slice().contains(&InstrStatus::Skipped);
        }
        if faulted {
            prop_assert!(
                !verify_for_hops(&tpp, hops).passed(),
                "runtime faulted but the verifier accepted the program"
            );
        }
    }
}
