//! Property-based tests of the TPP core invariants.

use proptest::prelude::*;

use tpp_core::addr::{resolve_mnemonic, Address};
use tpp_core::asm::{assemble, disassemble};
use tpp_core::exec::{execute, execute_in_place, ExecOptions, MapBus};
use tpp_core::isa::{Instruction, Opcode};
use tpp_core::wire::{
    checksum, insert_transparent, insert_transparent_in_place, restore_inner_frame,
    restore_inner_frame_in_place, AddrMode, Tpp, TppView, TppViewMut,
};

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
    fn arb_instruction()(
        opcode in arb_opcode(),
        addr in any::<u16>(),
        op1 in any::<u8>(),
        op2 in 0u8..16,
    ) -> Instruction {
        // Canonical form: only CSTORE/CEXEC carry two (nibble) operands;
        // the second operand byte is otherwise unused on the wire.
        let (op1, op2) = if opcode.is_conditional() { (op1 % 16, op2) } else { (op1, 0) };
        Instruction { opcode, addr: Address::new(addr), op1, op2 }
    }
}

/// Valid sections of at most [`tpp_core::isa::MAX_INSTRUCTIONS`]
/// instructions: what the assembler accepts.
fn arb_tpp() -> impl Strategy<Value = Tpp> {
    arb_tpp_up_to(5)
}

prop_compose! {
    /// Valid sections of up to `max_instrs` instructions; past the budget
    /// they are well formed on the wire and rejected by the interpreters.
    fn arb_tpp_up_to(max_instrs: usize)(
        instrs in prop::collection::vec(arb_instruction(), 0..=max_instrs),
        mem_words in 0usize..=63,
        mode in prop_oneof![Just(AddrMode::Stack), Just(AddrMode::Hop)],
        hop in any::<u8>(),
        sp in any::<u8>(),
        per_hop_words in 0u8..=8,
        reflect in any::<bool>(),
        app_id in any::<u16>(),
        mem_seed in any::<u64>(),
        wrote in any::<bool>(),
    ) -> Tpp {
        let mut memory = vec![0u8; mem_words * 4];
        let mut x = mem_seed;
        for b in memory.iter_mut() {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            *b = (x >> 56) as u8;
        }
        Tpp {
            mode,
            reflect,
            wrote,
            hop,
            sp,
            per_hop_len: per_hop_words * 4,
            encap_proto: 0x0800,
            app_id,
            instrs,
            memory,
        }
    }
}

proptest! {
    /// Wire round-trip: serialize(parse(x)) == x for every well-formed TPP.
    #[test]
    fn tpp_wire_roundtrip(tpp in arb_tpp()) {
        let bytes = tpp.serialize();
        let (parsed, consumed) = Tpp::parse(&bytes).expect("self-serialized TPP parses");
        prop_assert_eq!(consumed, bytes.len());
        prop_assert_eq!(parsed, tpp);
    }

    /// Any single-bit flip in the section is caught by the checksum.
    #[test]
    fn tpp_checksum_catches_bit_flips(tpp in arb_tpp(), byte_sel in any::<prop::sample::Index>(), bit in 0u8..8) {
        let bytes = tpp.serialize();
        let idx = byte_sel.index(bytes.len());
        let mut corrupted = bytes.clone();
        corrupted[idx] ^= 1 << bit;
        // Either a parse error, or (for flips inside length fields) a
        // different shape — never a silent identical parse.
        match Tpp::parse(&corrupted) {
            Err(_) => {}
            Ok((t, _)) => prop_assert_ne!(t, tpp, "flip at byte {} bit {} undetected", idx, bit),
        }
    }

    /// `assemble ∘ disassemble` is the identity on every assembly-
    /// representable TPP (and the textual form is a fixed point): what the
    /// assembler accepts, the disassembler round-trips losslessly.
    #[test]
    fn asm_roundtrip_fixed_point(tpp in arb_tpp()) {
        // Restrict to the assembly-representable subset: execution state
        // (hop/sp/wrote) and the encapsulation ethertype have no
        // directives, and PUSH/POP take no textual operand (their encoded
        // operand byte is semantically ignored).
        let mut t = tpp;
        t.hop = 0;
        t.sp = 0;
        t.wrote = false;
        t.encap_proto = 0;
        for ins in &mut t.instrs {
            if matches!(ins.opcode, Opcode::Push | Opcode::Pop) {
                ins.op1 = 0;
            }
        }
        let text = disassemble(&t);
        let back = assemble(&text).expect("disassembly reassembles");
        prop_assert_eq!(&back, &t, "{}", text);
        prop_assert_eq!(disassemble(&back), text);
    }

    /// Instruction encode/decode is bijective over valid instructions.
    #[test]
    fn instruction_roundtrip(instrs in prop::collection::vec(arb_instruction(), 0..=16)) {
        let bytes: Vec<u8> = instrs.iter().flat_map(|i| i.encode()).collect();
        let back: Vec<_> = bytes
            .chunks_exact(4)
            .map(|c| Instruction::decode([c[0], c[1], c[2], c[3]]))
            .collect();
        prop_assert_eq!(back, instrs.into_iter().map(Some).collect::<Vec<_>>());
    }

    /// The internet checksum verifies after being embedded, for any data.
    #[test]
    fn checksum_self_verifies(mut data in prop::collection::vec(any::<u8>(), 2..256)) {
        data[0] = 0;
        data[1] = 0;
        let c = checksum::checksum(&data);
        data[0..2].copy_from_slice(&c.to_be_bytes());
        prop_assert!(checksum::verify(&data));
    }

    /// Execution never panics, never grows/shrinks packet memory, and only
    /// moves SP within bounds — for arbitrary programs against an arbitrary
    /// bus (graceful failure, §3.3).
    #[test]
    fn execution_is_total_and_memory_safe(tpp in arb_tpp(), mapped in any::<bool>()) {
        let mut t = tpp.clone();
        let mut bus = MapBus::default();
        if mapped {
            for ins in &t.instrs {
                bus.mem.insert(ins.addr.raw(), 0xAB);
            }
        }
        let out = execute(&mut t, &mut bus, &ExecOptions::default());
        prop_assert_eq!(t.memory.len(), tpp.memory.len(), "memory never grows/shrinks");
        prop_assert!(out.rejected || out.status.len() == t.instrs.len());
        // SP stays within the word count whenever it was in bounds before.
        if (tpp.sp as usize) <= tpp.memory_words() {
            prop_assert!((t.sp as usize) <= t.memory_words().max(tpp.sp as usize));
        }
        // And the serialized result still parses.
        let bytes = t.serialize();
        prop_assert!(Tpp::parse(&bytes).is_ok());
    }

    /// CSTORE is atomic: under any interleaving of two racing writers with
    /// the same expected value, exactly one succeeds.
    #[test]
    fn cstore_mutual_exclusion(expected in any::<u32>(), new_a in any::<u32>(), new_b in any::<u32>()) {
        prop_assume!(new_a != expected && new_b != expected);
        let addr = resolve_mnemonic("Link$0:AppSpecific_0").unwrap();
        let mk = |newval: u32| {
            let mut t = Tpp {
                mode: AddrMode::Hop,
                per_hop_len: 8,
                instrs: vec![Instruction::cstore(addr, 0, 1)],
                memory: vec![0; 8],
                ..Tpp::default()
            };
            t.write_word(0, expected).unwrap();
            t.write_word(1, newval).unwrap();
            t
        };
        let mut bus = MapBus::with(&[(addr, expected)]);
        let mut a = mk(new_a);
        let mut b = mk(new_b);
        let oa = execute(&mut a, &mut bus, &ExecOptions::default());
        let ob = execute(&mut b, &mut bus, &ExecOptions::default());
        prop_assert!(oa.wrote);
        // B succeeds only if A's write restored the expected value.
        if new_a == expected {
            prop_assert!(ob.wrote);
        } else {
            prop_assert!(!ob.wrote);
            // ...and B observed A's value.
            prop_assert_eq!(b.read_word(0), Some(new_a));
        }
    }

    /// Mnemonic resolution and pretty-printing are mutually consistent for
    /// every address that has a name.
    #[test]
    fn mnemonic_display_roundtrip(raw in any::<u16>()) {
        let addr = Address::new(raw);
        if let Some(name) = tpp_core::addr::mnemonic_of(addr) {
            let back = resolve_mnemonic(&name).unwrap();
            // Per-packet and explicit-instance namespaces share stat names;
            // resolution must land on an address with the same offset and
            // namespace class.
            prop_assert_eq!(back, addr, "{}", name);
        }
    }

    /// The hop counter wraps modulo 256 and increments exactly once per
    /// execution.
    #[test]
    fn hop_counter_increments(tpp in arb_tpp()) {
        prop_assume!(tpp.instrs.len() <= 5);
        let mut t = tpp.clone();
        let mut bus = MapBus::default();
        execute(&mut t, &mut bus, &ExecOptions::default());
        prop_assert_eq!(t.hop, tpp.hop.wrapping_add(1));
    }

    /// The borrowed view decodes exactly what the owned parser decodes, and
    /// both reject exactly the same corrupted inputs.
    #[test]
    fn view_parse_matches_owned_parse(tpp in arb_tpp(), flip in any::<u16>(), bit in 0u8..8) {
        let mut bytes = tpp.serialize();
        bytes.extend_from_slice(b"encapsulated payload");
        {
            let (view, consumed) = TppView::parse(&bytes).expect("self-serialized TPP parses");
            prop_assert_eq!(consumed, tpp.section_len());
            prop_assert_eq!(view.to_tpp(), tpp.clone());
        }
        let idx = flip as usize % bytes.len();
        bytes[idx] ^= 1 << bit;
        let owned = Tpp::parse(&bytes);
        let viewed = TppView::parse(&bytes);
        match (owned, viewed) {
            (Err(a), Err(b)) => prop_assert_eq!(a, b, "flip at byte {}", idx),
            (Ok((t, ca)), Ok((v, cb))) => {
                prop_assert_eq!(ca, cb);
                prop_assert_eq!(v.to_tpp(), t);
            }
            (a, b) => prop_assert!(false, "parse divergence at byte {}: {:?} vs {:?}", idx, a.map(|x| x.1), b.map(|x| x.1)),
        }
    }

    /// §3.3 differential suite: for arbitrary valid sections (some over the
    /// instruction budget), bus states and execution options,
    /// `execute_in_place` over the wire bytes produces a frame byte-identical
    /// to parse → `execute` → re-serialize — checksum, rejection and
    /// graceful-failure semantics included — with matching statuses and
    /// switch-memory side effects.
    #[test]
    fn in_place_execution_matches_reference(
        tpp in arb_tpp_up_to(7),
        mapped_mask in any::<u8>(),
        ro_mask in any::<u8>(),
        value_seed in any::<u64>(),
        allow_writes in any::<bool>(),
    ) {
        // Bus: per distinct instruction address, mapped/read-only by mask
        // bit, with a pseudo-random value.
        let mut bus = MapBus::default();
        let mut x = value_seed;
        for (i, ins) in tpp.instrs.iter().enumerate() {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            if mapped_mask & (1 << i) != 0 {
                bus.mem.insert(ins.addr.raw(), (x >> 32) as u32);
            }
            if ro_mask & (1 << i) != 0 {
                bus.read_only.insert(ins.addr.raw());
            }
        }
        let opts = ExecOptions { allow_writes };

        // Frame = section + trailing encapsulated payload.
        let section_len = tpp.section_len();
        let mut frame = tpp.serialize();
        frame.extend_from_slice(b"inner packet bytes");

        // Path A: parse -> reference execute -> re-serialize into the frame.
        let mut frame_a = frame.clone();
        let mut bus_a = bus.clone();
        let (mut ref_tpp, consumed) = Tpp::parse(&frame_a).expect("valid section");
        prop_assert_eq!(consumed, section_len);
        let out_a = execute(&mut ref_tpp, &mut bus_a, &opts);
        if !out_a.rejected {
            ref_tpp.emit(&mut frame_a[..section_len]);
        }

        // Path B: execute in place over the wire bytes.
        let mut frame_b = frame.clone();
        let mut bus_b = bus.clone();
        let (mut view, consumed) = TppViewMut::parse(&mut frame_b).expect("valid section");
        prop_assert_eq!(consumed, section_len);
        let out_b = execute_in_place(&mut view, &mut bus_b, &opts);

        prop_assert_eq!(out_a.rejected, out_b.rejected);
        prop_assert_eq!(&out_a.status[..], out_b.status.as_slice());
        prop_assert_eq!(out_a.wrote, out_b.wrote);
        prop_assert_eq!(frame_a, frame_b, "frames diverged (incl. checksum)");
        prop_assert_eq!(bus_a.mem, bus_b.mem, "switch-memory side effects diverged");
    }

    /// `insert_transparent` emits once and patches `encap_proto` through the
    /// incremental checksum: the frame must be the one the definition gives,
    /// `serialize()` of a clone that names the displaced ethertype — whatever
    /// `encap_proto` the TPP came with. The in-place splice of that section
    /// must build the same bytes, and the in-place strip must undo it as
    /// `restore_inner_frame` does.
    #[test]
    fn insert_transparent_matches_serialize_of_clone(
        tpp in arb_tpp(),
        own_encap in any::<u16>(),
        ethertype in any::<u16>(),
        macs in prop::collection::vec(any::<u8>(), 12),
        payload in prop::collection::vec(any::<u8>(), 0..64),
    ) {
        let tpp = Tpp { encap_proto: own_encap, ..tpp };
        let frame = [&macs[..], &ethertype.to_be_bytes(), &payload].concat();
        let section = Tpp { encap_proto: ethertype, ..tpp.clone() }.serialize();
        let want = [&macs[..], &0x6666u16.to_be_bytes(), &section, &payload].concat();
        prop_assert_eq!(insert_transparent(&frame, &tpp), want.clone());
        let mut in_place = frame.clone();
        insert_transparent_in_place(&mut in_place, &section);
        prop_assert_eq!(&in_place, &want);
        prop_assert_eq!(restore_inner_frame(&want, 14, section.len(), ethertype), frame.clone());
        restore_inner_frame_in_place(&mut in_place, 14, section.len(), ethertype);
        prop_assert_eq!(in_place, frame);
    }
}
