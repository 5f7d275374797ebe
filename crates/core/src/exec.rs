//! TPP execution semantics (paper §3.2, §3.3): the contract between a
//! TPP-capable switch and end-hosts.
//!
//! The interpreter here executes a whole TPP *in program order* against a
//! [`MemoryBus`]. This is the reference semantics; the pipelined switch in
//! `tpp-switch` executes instructions out of order across stages (§3.5) and
//! its tests assert equivalence with this interpreter for hazard-free
//! programs.
//!
//! The owned [`execute`] is that reference, and nothing but tests and
//! host-side dry runs call it. What a switch runs is the in-place
//! interpreter over wire bytes, and there is one of it: [`step_in_place`],
//! generic over the bus type, every packet-memory access bounds-checked.
//! [`execute_in_place`] and the switch's staged pipeline both step through
//! it.
//!
//! Key semantics:
//!
//! * Instructions that access unmapped memory are **skipped**, not faulted:
//!   "a TPP fails gracefully" (§3.3).
//! * `CSTORE` is an atomic compare-and-swap that writes the *observed* value
//!   back into packet memory and suppresses subsequent instructions on
//!   failure (§3.3.3).
//! * `CEXEC` suppresses subsequent instructions unless
//!   `(switch_value & mask) == value`.
//! * Writes may be administratively disabled (§4.3); a suppressed write
//!   behaves like a failed condition for `CSTORE` and a skip for others.

use crate::addr::{Address, Word};
use crate::isa::{Instruction, Opcode, MAX_INSTRUCTIONS};
use crate::wire::tpp::Tpp;
use crate::wire::view::TppViewMut;

/// Result of a switch-memory write attempt.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WriteOutcome {
    Ok,
    /// No memory at this address (or not at this stage).
    Unmapped,
    /// Address exists but is read-only (architecturally or by policy).
    Denied,
}

/// The TCPU's view of switch memory. Implemented by switches (over their
/// real state) and by test fixtures.
pub trait MemoryBus {
    /// Read a word. `None` when the address is unmapped.
    fn read(&mut self, addr: Address) -> Option<Word>;
    /// Write a word.
    fn write(&mut self, addr: Address, value: Word) -> WriteOutcome;
}

/// A trivial flat-map bus for tests and host-side dry runs.
#[derive(Default, Debug, Clone)]
pub struct MapBus {
    pub mem: std::collections::BTreeMap<u16, Word>,
    /// Addresses that reject writes.
    pub read_only: std::collections::BTreeSet<u16>,
}

impl MapBus {
    pub fn with(entries: &[(Address, Word)]) -> Self {
        let mut b = MapBus::default();
        for (a, v) in entries {
            b.mem.insert(a.raw(), *v);
        }
        b
    }
}

impl MemoryBus for MapBus {
    fn read(&mut self, addr: Address) -> Option<Word> {
        self.mem.get(&addr.raw()).copied()
    }
    fn write(&mut self, addr: Address, value: Word) -> WriteOutcome {
        if self.read_only.contains(&addr.raw()) {
            return WriteOutcome::Denied;
        }
        match self.mem.get_mut(&addr.raw()) {
            Some(slot) => {
                *slot = value;
                WriteOutcome::Ok
            }
            None => WriteOutcome::Unmapped,
        }
    }
}

/// Per-instruction execution status, for observability and tests.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum InstrStatus {
    /// Ran to completion (for CSTORE: the swap succeeded).
    Executed,
    /// CSTORE executed but the comparison failed (old value written back).
    CondFailed,
    /// CEXEC executed and its predicate was false.
    PredicateFalse,
    /// Skipped: an operand address was unmapped, packet memory out of
    /// bounds, stack empty/full, or a non-conditional write was denied.
    #[default]
    Skipped,
    /// Not executed because an earlier CSTORE/CEXEC suppressed it.
    Suppressed,
}

/// Options controlling execution at one switch. The instruction budget is
/// the architectural [`MAX_INSTRUCTIONS`] (longer TPPs are rejected), and
/// every execution advances the hop counter.
#[derive(Clone, Copy, Debug)]
pub struct ExecOptions {
    /// Administrative write kill-switch (§4.3). When false, `STORE`, `POP`
    /// and `CSTORE` cannot modify switch memory.
    pub allow_writes: bool,
}

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions { allow_writes: true }
    }
}

/// Outcome of executing one TPP at one switch.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExecOutcome {
    /// One status per instruction, in program order.
    pub status: Vec<InstrStatus>,
    /// Whether any switch-memory write took effect.
    pub wrote: bool,
    /// TPP was rejected before execution (over budget).
    pub rejected: bool,
}

/// Execute `tpp` in program order against `bus`.
///
/// Mutates the TPP's packet memory, stack pointer, `wrote` flag and hop
/// counter — exactly the state a switch forwards to the next hop.
pub fn execute(tpp: &mut Tpp, bus: &mut dyn MemoryBus, opts: &ExecOptions) -> ExecOutcome {
    if tpp.instrs.len() > MAX_INSTRUCTIONS {
        return ExecOutcome { status: Vec::new(), wrote: false, rejected: true };
    }
    let mut status = Vec::with_capacity(tpp.instrs.len());
    let mut wrote = false;
    let mut live = true; // flipped off by failed CSTORE / false CEXEC

    // Iterate by index and copy each (4-byte, `Copy`) instruction out so the
    // interpreter can borrow the TPP mutably without cloning the program.
    for idx in 0..tpp.instrs.len() {
        let ins = tpp.instrs[idx];
        if !live {
            // Stack slots are preassigned at parse time (§3.5 serialization),
            // so a suppressed PUSH/POP still consumes/releases its slot: the
            // SP delta is a parse-time constant, not a runtime outcome.
            match ins.opcode {
                Opcode::Push if (tpp.sp as usize) < tpp.memory_words() => tpp.sp += 1,
                Opcode::Pop if tpp.sp > 0 => tpp.sp -= 1,
                _ => {}
            }
            status.push(InstrStatus::Suppressed);
            continue;
        }
        let st = step(tpp, bus, &ins, opts, &mut wrote, &mut live);
        status.push(st);
    }
    if wrote {
        tpp.wrote = true;
    }
    // Wrapping: the hop counter is a modular path position, which the
    // large-TPP splitting pattern (§4.4) exploits by starting it "before
    // zero" so each split covers a later hop range.
    tpp.hop = tpp.hop.wrapping_add(1);
    ExecOutcome { status, wrote, rejected: false }
}

fn step(
    tpp: &mut Tpp,
    bus: &mut dyn MemoryBus,
    ins: &Instruction,
    opts: &ExecOptions,
    wrote: &mut bool,
    live: &mut bool,
) -> InstrStatus {
    match ins.opcode {
        Opcode::Push => {
            // The slot is preassigned at parse time: SP advances whenever a
            // slot exists, even if the read then fails (leaving a hole).
            let sp = tpp.sp as usize;
            if sp >= tpp.memory_words() {
                return InstrStatus::Skipped; // stack overflow: no side effect
            }
            tpp.sp += 1;
            let Some(v) = bus.read(ins.addr) else { return InstrStatus::Skipped };
            tpp.write_word(sp, v).expect("slot bounds checked");
            InstrStatus::Executed
        }
        Opcode::Pop => {
            if tpp.sp == 0 {
                return InstrStatus::Skipped; // stack underflow
            }
            // Like PUSH, the slot is consumed at parse time; a denied write
            // leaves switch memory untouched but still pops.
            tpp.sp -= 1;
            let Some(v) = tpp.read_word(tpp.sp as usize) else {
                return InstrStatus::Skipped;
            };
            if !opts.allow_writes {
                return InstrStatus::Skipped;
            }
            match bus.write(ins.addr, v) {
                WriteOutcome::Ok => {
                    *wrote = true;
                    InstrStatus::Executed
                }
                _ => InstrStatus::Skipped,
            }
        }
        Opcode::Load => {
            let Some(v) = bus.read(ins.addr) else { return InstrStatus::Skipped };
            match tpp.write_hop_word(ins.op1, v) {
                Some(()) => InstrStatus::Executed,
                None => InstrStatus::Skipped,
            }
        }
        Opcode::Store => {
            let Some(v) = tpp.read_hop_word(ins.op1) else { return InstrStatus::Skipped };
            if !opts.allow_writes {
                return InstrStatus::Skipped;
            }
            match bus.write(ins.addr, v) {
                WriteOutcome::Ok => {
                    *wrote = true;
                    InstrStatus::Executed
                }
                _ => InstrStatus::Skipped,
            }
        }
        Opcode::Cstore => {
            // CSTORE [X], [Packet:hop[Pre]], [Packet:hop[Post]]  (§3.3.3)
            let Some(x) = bus.read(ins.addr) else { return InstrStatus::Skipped };
            let (Some(pre), Some(post)) = (tpp.read_hop_word(ins.op1), tpp.read_hop_word(ins.op2))
            else {
                return InstrStatus::Skipped;
            };
            let mut observed = x;
            let mut succeeded = false;
            if x == pre && opts.allow_writes {
                match bus.write(ins.addr, post) {
                    WriteOutcome::Ok => {
                        *wrote = true;
                        succeeded = true;
                        observed = post;
                    }
                    // Write refused: behaves like a failed comparison so the
                    // end-host observes a non-matching value.
                    WriteOutcome::Denied | WriteOutcome::Unmapped => {}
                }
            }
            // Write the observed value back so the end-host can tell.
            let _ = tpp.write_hop_word(ins.op1, observed);
            if succeeded {
                InstrStatus::Executed
            } else {
                *live = false;
                InstrStatus::CondFailed
            }
        }
        Opcode::Cexec => {
            // CEXEC [X], [Packet:hop[mask]], [Packet:hop[value]]
            let Some(x) = bus.read(ins.addr) else { return InstrStatus::Skipped };
            let (Some(mask), Some(value)) =
                (tpp.read_hop_word(ins.op1), tpp.read_hop_word(ins.op2))
            else {
                return InstrStatus::Skipped;
            };
            if x & mask == value {
                InstrStatus::Executed
            } else {
                *live = false;
                InstrStatus::PredicateFalse
            }
        }
    }
}

/// A fixed-capacity per-instruction status list, sized by the architectural
/// instruction budget — the allocation-free counterpart of
/// [`ExecOutcome::status`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StatusVec {
    arr: [InstrStatus; MAX_INSTRUCTIONS],
    len: u8,
}

impl StatusVec {
    /// Append a status. Panics (with an explicit message) beyond the
    /// architectural [`MAX_INSTRUCTIONS`] capacity — a caller bug, since
    /// over-budget programs are rejected before any status is recorded.
    pub fn push(&mut self, s: InstrStatus) {
        assert!(
            (self.len as usize) < MAX_INSTRUCTIONS,
            "StatusVec holds at most MAX_INSTRUCTIONS statuses"
        );
        self.arr[self.len as usize] = s;
        self.len += 1;
    }
    pub fn as_slice(&self) -> &[InstrStatus] {
        &self.arr[..self.len as usize]
    }
}

impl std::ops::Deref for StatusVec {
    type Target = [InstrStatus];
    fn deref(&self) -> &[InstrStatus] {
        self.as_slice()
    }
}

/// Outcome of [`execute_in_place`]; same shape as [`ExecOutcome`] without
/// the heap-backed status vector.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct InPlaceOutcome {
    /// One status per instruction, in program order.
    pub status: StatusVec,
    /// Whether any switch-memory write took effect.
    pub wrote: bool,
    /// TPP was rejected before execution (over budget).
    pub rejected: bool,
}

impl InPlaceOutcome {
    pub fn executed_count(&self) -> usize {
        self.status.iter().filter(|s| matches!(s, InstrStatus::Executed)).count()
    }
}

/// Attempt a switch-memory write, honouring the administrative kill-switch
/// (§4.3). Returns whether it took effect.
fn bus_write<B: MemoryBus + ?Sized>(
    bus: &mut B,
    addr: Address,
    v: Word,
    allow_writes: bool,
    wrote: &mut bool,
) -> bool {
    let ok = allow_writes && bus.write(addr, v) == WriteOutcome::Ok;
    *wrote |= ok;
    ok
}

/// The §3.5 serialization of one PUSH/POP: the packet-memory word it owns,
/// with `sp` moved past it. `None`, `sp` untouched, for any other opcode and
/// for a PUSH onto a full stack or a POP from an empty one. Stack movement is
/// a parse-time constant — SP moves identically whether the instruction then
/// runs, skips or is suppressed — so callers resolve it before asking whether
/// the instruction is live.
pub fn stack_slot(opcode: Opcode, sp: &mut u8, memory_words: usize) -> Option<u8> {
    match opcode {
        Opcode::Push if usize::from(*sp) < memory_words => {
            *sp += 1;
            Some(*sp - 1)
        }
        Opcode::Pop if *sp > 0 => {
            *sp -= 1;
            Some(*sp)
        }
        _ => None,
    }
}

/// Execute one instruction in place: the only in-place step there is. The
/// program-order loop behind [`execute_in_place`] and the switch's staged
/// pipeline both call it, each with its own bus type. An access outside
/// packet memory skips the instruction (§3.3).
///
/// `slot` is the PUSH/POP word its caller resolved with [`stack_slot`]
/// (`None`: the instruction skips); SP is the caller's business, not the
/// step's. A failed conditional is reported as [`InstrStatus::CondFailed`] /
/// [`InstrStatus::PredicateFalse`]; the caller suppresses what follows.
pub fn step_in_place<B: MemoryBus + ?Sized>(
    view: &mut TppViewMut<'_>,
    bus: &mut B,
    ins: &Instruction,
    slot: Option<u8>,
    allow_writes: bool,
    wrote: &mut bool,
) -> InstrStatus {
    let done = |ok: bool| if ok { InstrStatus::Executed } else { InstrStatus::Skipped };
    match ins.opcode {
        Opcode::Push => {
            let Some(word) = slot else { return InstrStatus::Skipped };
            let Some(v) = bus.read(ins.addr) else { return InstrStatus::Skipped };
            done(view.write_word(word.into(), v).is_some())
        }
        Opcode::Pop => {
            // A denied write leaves switch memory untouched; the slot is
            // released all the same.
            let Some(v) = slot.and_then(|word| view.read_word(word.into())) else {
                return InstrStatus::Skipped;
            };
            done(bus_write(bus, ins.addr, v, allow_writes, wrote))
        }
        Opcode::Load => {
            let Some(v) = bus.read(ins.addr) else { return InstrStatus::Skipped };
            done(view.write_word(view.hop_word_index(ins.op1), v).is_some())
        }
        Opcode::Store => {
            let Some(v) = view.read_word(view.hop_word_index(ins.op1)) else {
                return InstrStatus::Skipped;
            };
            done(bus_write(bus, ins.addr, v, allow_writes, wrote))
        }
        Opcode::Cstore => {
            // CSTORE [X], [Packet:hop[Pre]], [Packet:hop[Post]]  (§3.3.3)
            let Some(x) = bus.read(ins.addr) else { return InstrStatus::Skipped };
            let pre_idx = view.hop_word_index(ins.op1);
            let (Some(pre), Some(post)) =
                (view.read_word(pre_idx), view.read_word(view.hop_word_index(ins.op2)))
            else {
                return InstrStatus::Skipped;
            };
            // A refused write behaves like a failed comparison; either way
            // the observed value goes back so the end-host can tell.
            let succeeded = x == pre && bus_write(bus, ins.addr, post, allow_writes, wrote);
            let _ = view.write_word(pre_idx, if succeeded { post } else { x });
            if succeeded {
                InstrStatus::Executed
            } else {
                InstrStatus::CondFailed
            }
        }
        Opcode::Cexec => {
            // CEXEC [X], [Packet:hop[mask]], [Packet:hop[value]]
            let Some(x) = bus.read(ins.addr) else { return InstrStatus::Skipped };
            let (Some(mask), Some(value)) = (
                view.read_word(view.hop_word_index(ins.op1)),
                view.read_word(view.hop_word_index(ins.op2)),
            ) else {
                return InstrStatus::Skipped;
            };
            if x & mask == value {
                InstrStatus::Executed
            } else {
                InstrStatus::PredicateFalse
            }
        }
    }
}

/// Execute a TPP **in place over its wire bytes** — the zero-allocation
/// form of [`execute`], every packet-memory access bounds-checked.
///
/// Observationally equivalent to [`execute`] on the parsed section
/// (property-tested in `tests/proptests.rs`): packet-memory words, the
/// SP/hop/flag bytes and the section checksum end up byte-identical to a
/// parse → [`execute`] → re-serialize round trip, and the per-instruction
/// statuses and bus side effects match.
pub fn execute_in_place(
    view: &mut TppViewMut<'_>,
    bus: &mut dyn MemoryBus,
    opts: &ExecOptions,
) -> InPlaceOutcome {
    let n = view.n_instr();
    if n > MAX_INSTRUCTIONS {
        return InPlaceOutcome { status: StatusVec::default(), wrote: false, rejected: true };
    }
    let mut status = StatusVec::default();
    let mut wrote = false;
    let mut live = true; // flipped off by failed CSTORE / false CEXEC

    for idx in 0..n {
        let ins = view.instr(idx);
        // A suppressed PUSH/POP still consumes or releases its slot.
        let mut sp = view.sp();
        let slot = stack_slot(ins.opcode, &mut sp, view.memory_words());
        if slot.is_some() {
            view.set_sp(sp);
        }
        if !live {
            status.push(InstrStatus::Suppressed);
            continue;
        }
        let st = step_in_place(view, bus, &ins, slot, opts.allow_writes, &mut wrote);
        live = !matches!(st, InstrStatus::CondFailed | InstrStatus::PredicateFalse);
        status.push(st);
    }
    if wrote {
        view.set_wrote(true);
    }
    let hop = view.hop();
    view.set_hop(hop.wrapping_add(1));
    InPlaceOutcome { status, wrote, rejected: false }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::resolve_mnemonic;
    use crate::wire::tpp::AddrMode;

    fn a(m: &str) -> Address {
        resolve_mnemonic(m).unwrap()
    }

    fn stack_tpp(instrs: Vec<Instruction>, mem_bytes: usize) -> Tpp {
        Tpp { instrs, memory: vec![0; mem_bytes], ..Tpp::default() }
    }

    fn hop_tpp(instrs: Vec<Instruction>, per_hop: u8, hops: usize) -> Tpp {
        Tpp {
            mode: AddrMode::Hop,
            per_hop_len: per_hop,
            instrs,
            memory: vec![0; per_hop as usize * hops],
            ..Tpp::default()
        }
    }

    #[test]
    fn push_collects_across_hops() {
        // The Figure 1a walk-through: PUSH [QSize] at three hops.
        let qsize = a("Queue:QueueOccupancy");
        let mut tpp = stack_tpp(vec![Instruction::push(qsize)], 12);
        for (hop, depth) in [(0u8, 0u32), (1, 0xa0), (2, 0x1234)] {
            assert_eq!(tpp.hop, hop);
            let mut bus = MapBus::with(&[(qsize, depth)]);
            let out = execute(&mut tpp, &mut bus, &ExecOptions::default());
            assert_eq!(out.status, vec![InstrStatus::Executed]);
        }
        assert_eq!(tpp.sp, 3);
        assert_eq!(tpp.words(), vec![0, 0xa0, 0x1234]);
    }

    #[test]
    fn push_overflow_is_graceful() {
        let qsize = a("Queue:QueueOccupancy");
        let mut tpp = stack_tpp(vec![Instruction::push(qsize)], 4);
        let mut bus = MapBus::with(&[(qsize, 7)]);
        assert_eq!(
            execute(&mut tpp, &mut bus, &ExecOptions::default()).status,
            vec![InstrStatus::Executed]
        );
        let out = execute(&mut tpp, &mut bus, &ExecOptions::default());
        assert_eq!(out.status, vec![InstrStatus::Skipped]);
        assert_eq!(tpp.sp, 1); // unchanged
    }

    #[test]
    fn pop_writes_switch_memory() {
        let reg = a("Stage1:Reg0");
        let qsize = a("Queue:QueueOccupancy");
        let mut tpp = stack_tpp(vec![Instruction::push(qsize), Instruction::pop(reg)], 8);
        let mut bus = MapBus::with(&[(qsize, 42), (reg, 0)]);
        let out = execute(&mut tpp, &mut bus, &ExecOptions::default());
        assert_eq!(out.status, vec![InstrStatus::Executed, InstrStatus::Executed]);
        assert!(out.wrote);
        assert_eq!(bus.read(reg), Some(42));
        assert_eq!(tpp.sp, 0);
        assert!(tpp.wrote);
    }

    #[test]
    fn pop_empty_stack_skips() {
        let reg = a("Stage1:Reg0");
        let mut tpp = stack_tpp(vec![Instruction::pop(reg)], 8);
        let mut bus = MapBus::with(&[(reg, 5)]);
        let out = execute(&mut tpp, &mut bus, &ExecOptions::default());
        assert_eq!(out.status, vec![InstrStatus::Skipped]);
        assert_eq!(bus.read(reg), Some(5));
    }

    #[test]
    fn load_hop_addressing() {
        // LOAD [Switch:SwitchID], [Packet:hop[1]] across two hops with
        // 16-byte windows: values land at words 1 and 5.
        let sid = a("Switch:SwitchID");
        let mut tpp = hop_tpp(vec![Instruction::load(sid, 1)], 16, 2);
        let mut bus = MapBus::with(&[(sid, 0xAA)]);
        execute(&mut tpp, &mut bus, &ExecOptions::default());
        let mut bus2 = MapBus::with(&[(sid, 0xBB)]);
        execute(&mut tpp, &mut bus2, &ExecOptions::default());
        assert_eq!(tpp.read_word(1), Some(0xAA));
        assert_eq!(tpp.read_word(5), Some(0xBB));
    }

    #[test]
    fn unmapped_read_skips_gracefully() {
        let sid = a("Switch:SwitchID");
        let mut tpp = stack_tpp(vec![Instruction::push(sid), Instruction::push(sid)], 8);
        let mut bus = MapBus::default(); // nothing mapped
        let out = execute(&mut tpp, &mut bus, &ExecOptions::default());
        assert_eq!(out.status, vec![InstrStatus::Skipped, InstrStatus::Skipped]);
        assert!(!out.wrote);
    }

    #[test]
    fn cstore_success_and_failure() {
        // The RCP* update TPP (§2.2): version-checked write.
        let v_addr = a("Link:AppSpecific_0");
        let r_addr = a("Link:AppSpecific_1");
        let mut tpp =
            hop_tpp(vec![Instruction::cstore(v_addr, 0, 1), Instruction::store(r_addr, 2)], 12, 2);
        // Hop 0 memory: [V, V+1, R_new]
        tpp.write_word(0, 10).unwrap();
        tpp.write_word(1, 11).unwrap();
        tpp.write_word(2, 5000).unwrap();
        // Hop 1 memory: stale version (switch has 20, packet says 19).
        tpp.write_word(3, 19).unwrap();
        tpp.write_word(4, 20).unwrap();
        tpp.write_word(5, 6000).unwrap();

        // Hop 0: version matches -> swap succeeds, rate stored.
        let mut bus = MapBus::with(&[(v_addr, 10), (r_addr, 0)]);
        let out = execute(&mut tpp, &mut bus, &ExecOptions::default());
        assert_eq!(out.status, vec![InstrStatus::Executed, InstrStatus::Executed]);
        assert_eq!(bus.read(v_addr), Some(11));
        assert_eq!(bus.read(r_addr), Some(5000));
        assert_eq!(tpp.read_word(0), Some(11)); // observed value written back

        // Hop 1: version mismatch -> swap fails, STORE suppressed.
        let mut bus = MapBus::with(&[(v_addr, 20), (r_addr, 0)]);
        let out = execute(&mut tpp, &mut bus, &ExecOptions::default());
        assert_eq!(out.status, vec![InstrStatus::CondFailed, InstrStatus::Suppressed]);
        assert_eq!(bus.read(v_addr), Some(20)); // untouched
        assert_eq!(bus.read(r_addr), Some(0)); // untouched
        assert_eq!(tpp.read_word(3), Some(20)); // observed value tells the host
    }

    #[test]
    fn cexec_gates_subsequent_instructions() {
        // Targeted execution (§4.4): run only on switch 7.
        let sid = a("Switch:SwitchID");
        let qsize = a("Queue:QueueOccupancy");
        let mk = || {
            let mut t = hop_tpp(
                vec![Instruction::cexec(sid, 0, 1), Instruction::push(qsize)],
                0, // absolute offsets
                0,
            );
            t.memory = vec![0; 16];
            t.write_word(0, 0xFFFF_FFFF).unwrap(); // mask
            t.write_word(1, 7).unwrap(); // value: switch id 7
            t.sp = 2;
            t
        };
        // On switch 7: predicate true, PUSH runs.
        let mut t = mk();
        let mut bus = MapBus::with(&[(sid, 7), (qsize, 99)]);
        let out = execute(&mut t, &mut bus, &ExecOptions::default());
        assert_eq!(out.status, vec![InstrStatus::Executed, InstrStatus::Executed]);
        assert_eq!(t.read_word(2), Some(99));
        // On switch 8: predicate false, PUSH suppressed.
        let mut t = mk();
        let mut bus = MapBus::with(&[(sid, 8), (qsize, 99)]);
        let out = execute(&mut t, &mut bus, &ExecOptions::default());
        assert_eq!(out.status, vec![InstrStatus::PredicateFalse, InstrStatus::Suppressed]);
        assert_eq!(t.read_word(2), Some(0));
        // The suppressed PUSH still consumed its parse-time slot.
        assert_eq!(t.sp, 3);
    }

    #[test]
    fn writes_can_be_disabled() {
        let reg = a("Stage1:Reg0");
        let mut tpp = hop_tpp(vec![Instruction::store(reg, 0)], 4, 1);
        tpp.write_word(0, 123).unwrap();
        let mut bus = MapBus::with(&[(reg, 0)]);
        let out = execute(&mut tpp, &mut bus, &ExecOptions { allow_writes: false });
        assert_eq!(out.status, vec![InstrStatus::Skipped]);
        assert_eq!(bus.read(reg), Some(0));
        assert!(!tpp.wrote);
    }

    #[test]
    fn cstore_with_writes_disabled_fails_visibly() {
        let reg = a("Link:AppSpecific_0");
        let mut tpp = hop_tpp(vec![Instruction::cstore(reg, 0, 1)], 8, 1);
        tpp.write_word(0, 10).unwrap();
        tpp.write_word(1, 11).unwrap();
        let mut bus = MapBus::with(&[(reg, 10)]);
        let out = execute(&mut tpp, &mut bus, &ExecOptions { allow_writes: false });
        assert_eq!(out.status, vec![InstrStatus::CondFailed]);
        assert_eq!(bus.read(reg), Some(10));
        // Observed value still written back so the host learns the state.
        assert_eq!(tpp.read_word(0), Some(10));
    }

    #[test]
    fn read_only_memory_denies_store() {
        let counter = a("Link:RX-Bytes");
        let mut tpp = hop_tpp(vec![Instruction::store(counter, 0)], 4, 1);
        let mut bus = MapBus::with(&[(counter, 555)]);
        bus.read_only.insert(counter.raw());
        let out = execute(&mut tpp, &mut bus, &ExecOptions::default());
        assert_eq!(out.status, vec![InstrStatus::Skipped]);
        assert_eq!(bus.read(counter), Some(555));
    }

    #[test]
    fn over_budget_rejected() {
        let sid = a("Switch:SwitchID");
        let mut tpp = stack_tpp(vec![Instruction::push(sid); 6], 64);
        let mut bus = MapBus::with(&[(sid, 1)]);
        let out = execute(&mut tpp, &mut bus, &ExecOptions::default());
        assert!(out.rejected);
        assert_eq!(tpp.sp, 0);
        assert_eq!(tpp.hop, 0); // hop not incremented on reject
    }

    #[test]
    fn hop_increments_after_execution() {
        let sid = a("Switch:SwitchID");
        let mut tpp = stack_tpp(vec![Instruction::push(sid)], 8);
        let mut bus = MapBus::with(&[(sid, 1)]);
        execute(&mut tpp, &mut bus, &ExecOptions::default());
        assert_eq!(tpp.hop, 1);
        // Wrapping: a hop counter wound "before zero" (§4.4) comes round.
        tpp.hop = u8::MAX;
        execute(&mut tpp, &mut bus, &ExecOptions::default());
        assert_eq!(tpp.hop, 0);
    }

    /// Run both interpreters on the same TPP/bus and require byte-identical
    /// frames and matching outcomes.
    fn assert_paths_agree(tpp: &Tpp, bus: &MapBus, opts: &ExecOptions) {
        let bytes = tpp.serialize();

        let mut ref_tpp = tpp.clone();
        let mut ref_bus = bus.clone();
        let ref_out = execute(&mut ref_tpp, &mut ref_bus, opts);
        let ref_bytes = ref_tpp.serialize();

        let mut wire = bytes.clone();
        let mut fast_bus = bus.clone();
        let (mut view, _) = TppViewMut::parse(&mut wire).unwrap();
        let fast_out = execute_in_place(&mut view, &mut fast_bus, opts);

        if ref_out.rejected {
            assert!(fast_out.rejected);
            assert_eq!(wire, bytes, "rejected TPP must be untouched");
        } else {
            assert_eq!(wire, ref_bytes, "in-place bytes != reference re-serialization");
        }
        assert_eq!(fast_out.status.as_slice(), &ref_out.status[..]);
        assert_eq!(fast_out.wrote, ref_out.wrote);
        assert_eq!(fast_bus.mem, ref_bus.mem);
    }

    #[test]
    fn in_place_matches_reference_on_core_scenarios() {
        let qsize = a("Queue:QueueOccupancy");
        let reg = a("Link:AppSpecific_0");
        let sid = a("Switch:SwitchID");

        // PUSH/POP with a mapped bus.
        let tpp = stack_tpp(vec![Instruction::push(qsize), Instruction::pop(reg)], 8);
        assert_paths_agree(&tpp, &MapBus::with(&[(qsize, 42), (reg, 0)]), &ExecOptions::default());

        // CSTORE failure suppressing a STORE, hop addressing.
        let mut tpp =
            hop_tpp(vec![Instruction::cstore(reg, 0, 1), Instruction::store(reg, 2)], 12, 2);
        tpp.write_word(0, 19).unwrap();
        tpp.write_word(1, 20).unwrap();
        tpp.write_word(2, 6000).unwrap();
        assert_paths_agree(&tpp, &MapBus::with(&[(reg, 77)]), &ExecOptions::default());

        // Unmapped reads skip; writes disabled.
        let tpp = stack_tpp(vec![Instruction::push(sid), Instruction::store(reg, 0)], 8);
        assert_paths_agree(&tpp, &MapBus::default(), &ExecOptions { allow_writes: false });

        // Over budget: rejected, bytes untouched.
        let tpp = stack_tpp(vec![Instruction::push(sid); 6], 64);
        assert_paths_agree(&tpp, &MapBus::with(&[(sid, 1)]), &ExecOptions::default());
    }
}
