//! Abstract-interpretation verifier for TPP programs (paper §3.5, §4.1,
//! §4.3).
//!
//! TPPs are "relatively amenable to static analysis, particularly since a
//! TPP contains at most five instructions" (§4.3): the ASIC and TPP-CP are
//! supposed to *reject* unsafe programs up front, not catch them mid-flight.
//! This module is that rejection step: it accepts or denies a program once,
//! at load time. The switch relies on none of it and bounds-checks every
//! access it makes (§3.3).
//!
//! [`verify`] symbolically executes the ≤5-instruction body across an
//! abstract hop range, tracking:
//!
//! * the **stack pointer** and **packet-memory footprint** per hop —
//!   PUSH/POP evolution and hop-window offsets against the preallocated
//!   memory, the declared hop budget, and [`MAX_MEMORY_BYTES`];
//! * **switch addresses** per instruction, checked against granted
//!   [`Segment`] tables and architectural writability;
//! * **CEXEC/CSTORE gating** — the suffix after the first conditional may
//!   not run, so its packet writes initialize nothing for later hops;
//! * **uninitialized packet-memory reads** (stack mode: a read of a word
//!   neither below the initial SP nor written by an earlier instruction) and
//!   **dead stores** (a packet word overwritten in the same hop before
//!   anything read it);
//! * **WAW/RAW hazards** on switch addresses, which out-of-order stage
//!   execution makes unsafe (§3.5).
//!
//! The result is a [`Verdict`]: a list of typed [`Diagnostic`]s split into
//! deny-class errors and lint-class warnings, each carrying the instruction
//! index and reason. A program is accepted exactly when its verdict has no
//! denial ([`Verdict::passed`]).
//!
//! # Initialization convention
//!
//! The verifier sees a compiled program, not the live packet, so it adopts
//! the conventions the probe layer compiles to: in **hop mode** the whole
//! packet memory is host-initialized (per-hop windows are argument slots the
//! end-host fills, as the RCP*/WAN write probes do); in **stack mode** only
//! the words below the initial SP are host-initialized (the prefill pattern
//! targeted CEXEC programs use) — everything above is the collection area
//! and reading it before writing it is a deny-class
//! [`DiagKind::UninitializedRead`].
//!
//! The verifier proves *memory* safety, not bus liveness: an operand address
//! may still be unmapped at some switch, and the runtime skips such
//! instructions gracefully (§3.3). Those skips are environment-dependent and
//! outside the proof.

use crate::addr::is_architecturally_writable;
use crate::analysis::{
    check_segments, find_hazards, instruction_access, Hazard, Segment, Violation, ViolationReason,
};
use crate::isa::{Instruction, Opcode, PacketOperands, MAX_INSTRUCTIONS};
use crate::wire::tpp::{AddrMode, Tpp, MAX_MEMORY_BYTES};
use core::fmt;

/// Diagnostic class: does this finding reject the program or merely warn?
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Severity {
    /// The program is unsafe or ill-formed and must not be installed.
    Deny,
    /// The program is safe but suspicious (hazard, dead store, …).
    Lint,
}

/// What the verifier found, with enough structure for callers to react
/// programmatically (every variant also renders via `Display`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DiagKind {
    /// More instructions than the architectural [`MAX_INSTRUCTIONS`] budget.
    OverBudget { n_instr: usize },
    /// Packet memory exceeds [`MAX_MEMORY_BYTES`].
    MemoryTooLarge { bytes: usize },
    /// Packet-memory length is not word-aligned.
    UnalignedMemory { bytes: usize },
    /// A CSTORE/CEXEC operand does not fit the 4-bit wire encoding.
    BadOperand { op1: u8, op2: u8 },
    /// The declared hop budget does not fit the preallocated memory.
    OverCapacity { hops: usize, needed_bytes: usize, have_bytes: usize },
    /// A PUSH would run past the end of packet memory within the hop range.
    StackOverflow { hop: u8, sp: u8, words: usize },
    /// A POP would run off the bottom of the stack within the hop range.
    StackUnderflow { hop: u8 },
    /// A hop-addressed access lands outside packet memory.
    OutOfBounds { hop: u8, word: usize, words: usize },
    /// A read of a packet word that nothing initialized (see module docs).
    UninitializedRead { hop: u8, word: usize },
    /// A switch access outside the granted segments, a write into a
    /// read-only segment, or a write to architecturally read-only state.
    Policy(Violation),
    /// A packet word overwritten in the same hop before anything read it.
    DeadStore { word: usize, overwritten_by: usize },
    /// A WAW/RAW conflict on a switch address (§3.5: unsafe out of order).
    Hazard(Hazard),
    /// A trailing CSTORE/CEXEC gates no subsequent instruction.
    UselessConditional,
}

impl DiagKind {
    /// Deny-class kinds reject the program; lint-class kinds only warn.
    pub fn severity(&self) -> Severity {
        match self {
            DiagKind::DeadStore { .. } | DiagKind::Hazard(_) | DiagKind::UselessConditional => {
                Severity::Lint
            }
            _ => Severity::Deny,
        }
    }

    /// Stable short code, rustc-style (`E…` deny, `W…` lint).
    pub fn code(&self) -> &'static str {
        match self {
            DiagKind::OverBudget { .. } => "E-BUDGET",
            DiagKind::MemoryTooLarge { .. } => "E-MEM-SIZE",
            DiagKind::UnalignedMemory { .. } => "E-MEM-ALIGN",
            DiagKind::BadOperand { .. } => "E-OPERAND",
            DiagKind::OverCapacity { .. } => "E-CAPACITY",
            DiagKind::StackOverflow { .. } => "E-STACK-OVF",
            DiagKind::StackUnderflow { .. } => "E-STACK-UND",
            DiagKind::OutOfBounds { .. } => "E-OOB",
            DiagKind::UninitializedRead { .. } => "E-UNINIT",
            DiagKind::Policy(_) => "E-POLICY",
            DiagKind::DeadStore { .. } => "W-DEAD-STORE",
            DiagKind::Hazard(_) => "W-HAZARD",
            DiagKind::UselessConditional => "W-COND-TAIL",
        }
    }
}

/// One verifier finding: a typed reason plus the instruction it anchors to
/// (`None` for whole-program findings like capacity).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diagnostic {
    pub kind: DiagKind,
    /// Program-order instruction index, when the finding is per-instruction.
    pub instr: Option<usize>,
}

impl Diagnostic {
    pub fn severity(&self) -> Severity {
        self.kind.severity()
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let level = match self.severity() {
            Severity::Deny => "error",
            Severity::Lint => "warning",
        };
        write!(f, "{level}[{}]: ", self.kind.code())?;
        match &self.kind {
            DiagKind::OverBudget { n_instr } => {
                write!(f, "{n_instr} instructions exceed the budget of {MAX_INSTRUCTIONS}")
            }
            DiagKind::MemoryTooLarge { bytes } => {
                write!(f, "packet memory of {bytes} bytes exceeds the {MAX_MEMORY_BYTES}-byte cap")
            }
            DiagKind::UnalignedMemory { bytes } => {
                write!(f, "packet memory of {bytes} bytes is not word-aligned")
            }
            DiagKind::BadOperand { op1, op2 } => {
                write!(f, "conditional operands ({op1}, {op2}) exceed the 4-bit encoding")
            }
            DiagKind::OverCapacity { hops, needed_bytes, have_bytes } => write!(
                f,
                "hop budget {hops} needs {needed_bytes} bytes of packet memory, have {have_bytes}"
            ),
            DiagKind::StackOverflow { hop, sp, words } => {
                write!(f, "PUSH at hop {hop} overflows the stack (SP {sp}, {words} words)")
            }
            DiagKind::StackUnderflow { hop } => {
                write!(f, "POP at hop {hop} underflows the stack")
            }
            DiagKind::OutOfBounds { hop, word, words } => {
                write!(f, "access at hop {hop} hits word {word}, outside the {words}-word memory")
            }
            DiagKind::UninitializedRead { hop, word } => {
                write!(f, "read of uninitialized packet word {word} at hop {hop}")
            }
            DiagKind::Policy(v) => {
                let why = match v.reason {
                    ViolationReason::OutsideSegments => "outside every granted segment",
                    ViolationReason::WriteNotPermitted => "write into a read-only segment",
                    ViolationReason::ArchitecturallyReadOnly => {
                        "write to architecturally read-only state"
                    }
                };
                write!(f, "{:?} of {} is {why}", v.access, v.addr)
            }
            DiagKind::DeadStore { word, overwritten_by } => write!(
                f,
                "packet word {word} is overwritten by instr {overwritten_by} before it is read"
            ),
            DiagKind::Hazard(h) => match h {
                Hazard::WriteAfterWrite { first, second, addr } => write!(
                    f,
                    "write-after-write on {addr} (instrs {first} and {second}) is unsafe out of order"
                ),
                Hazard::ReadAfterWrite { write, read, addr } => write!(
                    f,
                    "read-after-write on {addr} (write {write}, read {read}) is unsafe out of order"
                ),
            },
            DiagKind::UselessConditional => {
                write!(f, "trailing conditional gates no subsequent instruction")
            }
        }
    }
}

/// Inputs to [`verify`] beyond the program itself.
#[derive(Clone, Copy, Debug, Default)]
pub struct VerifyOptions<'a> {
    /// Declared hop budget. `None` derives the largest safe hop count from
    /// the memory layout instead of checking a fixed range.
    pub hops: Option<usize>,
    /// Granted segment table ([`check_segments`]). `None` skips policy
    /// checks (architectural writability is still enforced).
    pub segments: Option<&'a [Segment]>,
}

/// The structured result of [`verify`]: every diagnostic and the derived or
/// checked hop coverage.
#[derive(Clone, Debug)]
pub struct Verdict {
    pub diagnostics: Vec<Diagnostic>,
    /// Hops proven safe, starting at the program's current hop counter.
    pub hops_verified: usize,
}

impl Verdict {
    /// No deny-class diagnostics: the program may be installed.
    pub fn passed(&self) -> bool {
        self.denials().next().is_none()
    }

    pub fn denials(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics.iter().filter(|d| d.severity() == Severity::Deny)
    }

    pub fn lints(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics.iter().filter(|d| d.severity() == Severity::Lint)
    }

    /// Render every diagnostic rustc-style, each anchored to its
    /// disassembled instruction.
    pub fn render(&self, instrs: &[Instruction]) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&d.to_string());
            out.push('\n');
            if let Some(i) = d.instr {
                if let Some(ins) = instrs.get(i) {
                    out.push_str(&format!("  --> instr {i}: {ins}\n"));
                }
            }
        }
        out
    }
}

fn low_bits(n: usize) -> u64 {
    if n >= 64 {
        u64::MAX
    } else {
        (1u64 << n) - 1
    }
}

/// Run the abstract interpreter. See the module docs for what is checked;
/// see [`Verdict`] for what comes back.
pub fn verify(tpp: &Tpp, opts: VerifyOptions<'_>) -> Verdict {
    let mut diags = Vec::new();
    let words = tpp.memory_words();
    let phw = tpp.per_hop_words();
    let n = tpp.instrs.len();

    // Structural shape first; the interpreter assumes these hold.
    if n > MAX_INSTRUCTIONS {
        diags.push(Diagnostic { kind: DiagKind::OverBudget { n_instr: n }, instr: None });
    }
    if tpp.memory.len() > MAX_MEMORY_BYTES {
        diags.push(Diagnostic {
            kind: DiagKind::MemoryTooLarge { bytes: tpp.memory.len() },
            instr: None,
        });
    }
    if !tpp.memory.len().is_multiple_of(4) {
        diags.push(Diagnostic {
            kind: DiagKind::UnalignedMemory { bytes: tpp.memory.len() },
            instr: None,
        });
    }
    for (i, ins) in tpp.instrs.iter().enumerate() {
        if ins.opcode.is_conditional() && (ins.op1 >= 16 || ins.op2 >= 16) {
            diags.push(Diagnostic {
                kind: DiagKind::BadOperand { op1: ins.op1, op2: ins.op2 },
                instr: Some(i),
            });
        }
    }
    if !diags.is_empty() {
        return Verdict { diagnostics: diags, hops_verified: 0 };
    }

    // The first conditional gates every instruction after it.
    let gate_idx = tpp.instrs.iter().position(|i| i.opcode.is_conditional());
    if gate_idx == Some(n.wrapping_sub(1)) && n > 0 {
        diags.push(Diagnostic { kind: DiagKind::UselessConditional, instr: gate_idx });
    }

    // Declared hop budget vs. preallocated memory (hop mode reserves a full
    // window per hop whether or not an instruction touches it). A budget
    // whose footprint overflows is over capacity too.
    if let Some(h) = opts.hops {
        if tpp.mode == AddrMode::Hop && phw > 0 && h.checked_mul(phw).is_none_or(|n| n > words) {
            diags.push(Diagnostic {
                kind: DiagKind::OverCapacity {
                    hops: h,
                    needed_bytes: h.saturating_mul(tpp.per_hop_len as usize),
                    have_bytes: tpp.memory.len(),
                },
                instr: None,
            });
        }
    }

    // Switch-address checks: granted segments when provided, architectural
    // writability always.
    if let Some(segments) = opts.segments {
        for v in check_segments(&tpp.instrs, segments) {
            let instr = Some(v.instr_index);
            diags.push(Diagnostic { kind: DiagKind::Policy(v), instr });
        }
    } else {
        for (i, ins) in tpp.instrs.iter().enumerate() {
            let (addr, access) = instruction_access(ins);
            if access.is_write() && !is_architecturally_writable(addr) {
                diags.push(Diagnostic {
                    kind: DiagKind::Policy(Violation {
                        instr_index: i,
                        addr,
                        access,
                        reason: ViolationReason::ArchitecturallyReadOnly,
                    }),
                    instr: Some(i),
                });
            }
        }
    }

    // Out-of-order hazards on switch addresses (lints).
    for h in find_hazards(&tpp.instrs) {
        let instr = match h {
            Hazard::WriteAfterWrite { second, .. } => Some(second),
            Hazard::ReadAfterWrite { read, .. } => Some(read),
        };
        diags.push(Diagnostic { kind: DiagKind::Hazard(h), instr });
    }

    // The hop-range simulation: footprint, SP evolution, initialization.
    let budget = opts.hops;
    let max_sim = budget.unwrap_or(256).min(256);
    // In hop mode every window is a host-filled argument slot; in stack
    // mode only the prefix below the initial SP is host-initialized.
    let mut must_init: u64 =
        if tpp.mode == AddrMode::Hop { u64::MAX } else { low_bits((tpp.sp as usize).min(64)) };
    let mut sp = tpp.sp as usize;
    let mut clean_hops = 0usize;
    // Dedup: the same instruction faults identically every hop.
    let mut reported = [0u8; MAX_INSTRUCTIONS];
    const R_OOB: u8 = 1;
    const R_OVF: u8 = 2;
    const R_UND: u8 = 4;
    const R_UNINIT: u8 = 8;
    const R_DEAD: u8 = 16;

    'hops: for h in 0..max_sim {
        let hop = tpp.hop.wrapping_add(h as u8);
        let mut faulted = false;
        let mut sim_sp = sp;
        let mut hop_init: u64 = 0;
        let mut uncond_writes: u64 = 0;
        let mut last_write_idx = [0usize; 64];
        let mut unread_writes: u64 = 0;

        for (idx, ins) in tpp.instrs.iter().enumerate() {
            // Bounds faults mirror the runtime's graceful skips exactly: in
            // derive mode the first faulting hop ends the verified range; a
            // first-hop or in-budget fault is a denial.
            macro_rules! fault {
                ($bit:expr, $kind:expr) => {{
                    if budget.is_some() || h == 0 {
                        if reported[idx] & $bit == 0 {
                            reported[idx] |= $bit;
                            diags.push(Diagnostic { kind: $kind, instr: Some(idx) });
                        }
                        faulted = true;
                    } else {
                        break 'hops;
                    }
                }};
            }
            let read = |w: usize,
                        idx: usize,
                        diags: &mut Vec<Diagnostic>,
                        reported: &mut [u8; MAX_INSTRUCTIONS],
                        hop_init: &u64,
                        unread_writes: &mut u64| {
                if (must_init | *hop_init) & (1u64 << w) == 0 && reported[idx] & R_UNINIT == 0 {
                    reported[idx] |= R_UNINIT;
                    diags.push(Diagnostic {
                        kind: DiagKind::UninitializedRead { hop, word: w },
                        instr: Some(idx),
                    });
                }
                *unread_writes &= !(1u64 << w);
            };
            let write = |w: usize,
                         idx: usize,
                         diags: &mut Vec<Diagnostic>,
                         reported: &mut [u8; MAX_INSTRUCTIONS],
                         hop_init: &mut u64,
                         uncond_writes: &mut u64,
                         last_write_idx: &mut [usize; 64],
                         unread_writes: &mut u64| {
                if *unread_writes & (1u64 << w) != 0 && reported[last_write_idx[w]] & R_DEAD == 0 {
                    reported[last_write_idx[w]] |= R_DEAD;
                    diags.push(Diagnostic {
                        kind: DiagKind::DeadStore { word: w, overwritten_by: idx },
                        instr: Some(last_write_idx[w]),
                    });
                }
                *unread_writes |= 1u64 << w;
                last_write_idx[w] = idx;
                *hop_init |= 1u64 << w;
                // Writes at or before the first conditional always execute
                // (execution is a prefix of the program), so they carry into
                // later hops; gated writes are may-writes and do not.
                if gate_idx.is_none_or(|g| idx <= g) {
                    *uncond_writes |= 1u64 << w;
                }
            };

            match ins.packet_operands() {
                PacketOperands::Stack => match ins.opcode {
                    Opcode::Push => {
                        if sim_sp >= words {
                            fault!(
                                R_OVF,
                                DiagKind::StackOverflow { hop, sp: sim_sp.min(255) as u8, words }
                            );
                        } else {
                            write(
                                sim_sp,
                                idx,
                                &mut diags,
                                &mut reported,
                                &mut hop_init,
                                &mut uncond_writes,
                                &mut last_write_idx,
                                &mut unread_writes,
                            );
                            sim_sp += 1;
                        }
                    }
                    Opcode::Pop => {
                        if sim_sp == 0 {
                            fault!(R_UND, DiagKind::StackUnderflow { hop });
                        } else if sim_sp > words {
                            // POP still retreats SP on an out-of-bounds read
                            // (the slot is a parse-time constant).
                            sim_sp -= 1;
                            fault!(R_OOB, DiagKind::OutOfBounds { hop, word: sim_sp, words });
                        } else {
                            sim_sp -= 1;
                            read(
                                sim_sp,
                                idx,
                                &mut diags,
                                &mut reported,
                                &hop_init,
                                &mut unread_writes,
                            );
                        }
                    }
                    _ => unreachable!("only PUSH/POP are stack-relative"),
                },
                PacketOperands::One { off, write: is_write } => {
                    let w = hop as usize * phw + off as usize;
                    if w >= words {
                        fault!(R_OOB, DiagKind::OutOfBounds { hop, word: w, words });
                    } else if is_write {
                        write(
                            w,
                            idx,
                            &mut diags,
                            &mut reported,
                            &mut hop_init,
                            &mut uncond_writes,
                            &mut last_write_idx,
                            &mut unread_writes,
                        );
                    } else {
                        read(w, idx, &mut diags, &mut reported, &hop_init, &mut unread_writes);
                    }
                }
                PacketOperands::Two { a, b, writes_a } => {
                    let wa = hop as usize * phw + a as usize;
                    let wb = hop as usize * phw + b as usize;
                    if wa >= words || wb >= words {
                        let word = if wa >= words { wa } else { wb };
                        fault!(R_OOB, DiagKind::OutOfBounds { hop, word, words });
                    } else {
                        read(wa, idx, &mut diags, &mut reported, &hop_init, &mut unread_writes);
                        read(wb, idx, &mut diags, &mut reported, &hop_init, &mut unread_writes);
                        if writes_a {
                            write(
                                wa,
                                idx,
                                &mut diags,
                                &mut reported,
                                &mut hop_init,
                                &mut uncond_writes,
                                &mut last_write_idx,
                                &mut unread_writes,
                            );
                        }
                    }
                }
            }
        }

        must_init |= uncond_writes;
        sp = sim_sp;
        if !faulted {
            clean_hops = h + 1;
        } else if budget.is_none() {
            // First hop already faults: the program can never run.
            break;
        }
    }

    let hops_verified = match budget {
        Some(h) => {
            if diags.iter().any(|d| d.severity() == Severity::Deny) {
                0
            } else {
                h
            }
        }
        None => clean_hops,
    };

    Verdict { diagnostics: diags, hops_verified }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::{resolve_mnemonic, Address};
    use crate::asm::{assemble, TppBuilder};
    use crate::isa::Instruction;

    fn a(m: &str) -> Address {
        resolve_mnemonic(m).unwrap()
    }

    fn verify_for_hops(tpp: &Tpp, hops: usize) -> Verdict {
        verify(tpp, VerifyOptions { hops: Some(hops), segments: None })
    }

    #[test]
    fn hop_budget_past_the_address_space_is_over_capacity() {
        // `tpp-lint --hops 9223372036854775808` on a one-hop, 8-byte-window
        // program: the footprint overflows a usize, so it cannot fit.
        let t = assemble(".mode hop\n.perhop 8\n.hops 1\nLOAD [Switch:SwitchID], [Packet:Hop[0]]")
            .unwrap();
        for hops in [1usize << 63, usize::MAX] {
            let v = verify_for_hops(&t, hops);
            assert!(!v.passed());
            assert!(v.diagnostics.iter().any(|d| matches!(
                d.kind,
                DiagKind::OverCapacity { hops: h, needed_bytes: usize::MAX, have_bytes: 8 } if h == hops
            )));
        }
    }

    #[test]
    fn clean_collect_probe_verifies_with_token() {
        // The Figure 1a probe: 3 PUSHes, 5 hops => 15 words.
        let t = TppBuilder::stack_mode()
            .push(a("Switch:SwitchID"))
            .push(a("PacketMetadata:OutputPort"))
            .push(a("Queue:QueueOccupancy"))
            .memory_words(15)
            .build()
            .unwrap();
        let v = verify(&t, VerifyOptions::default());
        assert!(v.diagnostics.is_empty(), "{:?}", v.diagnostics);
        assert_eq!(v.hops_verified, 5);
        assert!(v.passed());
        // A sixth hop would overflow: asked for explicitly, it is denied
        // with a typed diagnostic.
        let v6 = verify_for_hops(&t, 6);
        assert!(!v6.passed());
        assert!(matches!(v6.denials().next().unwrap().kind, DiagKind::StackOverflow { .. }));
    }

    #[test]
    fn out_of_bounds_hop_window_denied() {
        // Window of 2 words but an offset of 5.
        let t = TppBuilder::hop_mode(2).load(a("Switch:SwitchID"), 5).hops(4).build().unwrap();
        let v = verify_for_hops(&t, 4);
        assert!(!v.passed());
        let d = v.denials().next().unwrap();
        assert_eq!(d.instr, Some(0));
        assert!(matches!(d.kind, DiagKind::OutOfBounds { .. }));
    }

    #[test]
    fn over_capacity_hop_budget_denied() {
        let t = TppBuilder::hop_mode(3).load(a("Switch:SwitchID"), 0).hops(4).build().unwrap();
        assert!(verify_for_hops(&t, 4).passed());
        let v = verify_for_hops(&t, 5);
        assert!(v.denials().any(|d| matches!(d.kind, DiagKind::OverCapacity { .. })));
    }

    #[test]
    fn uninitialized_read_denied_in_stack_mode() {
        // CEXEC reads words 0/1 (mask/value) with SP 0 and no prior writes.
        let mut t = TppBuilder::stack_mode()
            .cexec(a("Switch:SwitchID"), 0, 1)
            .push(a("Queue:QueueOccupancy"))
            .memory_words(8)
            .build()
            .unwrap();
        let v = verify(&t, VerifyOptions::default());
        assert!(v.denials().any(|d| matches!(d.kind, DiagKind::UninitializedRead { .. })));
        // The prefill pattern (SP above the operand words) is clean.
        t.sp = 2;
        assert!(verify(&t, VerifyOptions::default()).passed());
    }

    #[test]
    fn policy_violations_denied_against_segments() {
        let app0 = a("Link:AppSpecific_0");
        let segments = [Segment::read_only(a("Switch:SwitchID"), a("Switch:SwitchID"))];
        let t = TppBuilder::hop_mode(1).store(app0, 0).hops(1).build().unwrap();
        let v = verify(&t, VerifyOptions { hops: Some(1), segments: Some(&segments) });
        assert!(!v.passed());
        assert!(v.denials().any(|d| matches!(
            d.kind,
            DiagKind::Policy(Violation { reason: ViolationReason::OutsideSegments, .. })
        )));
    }

    #[test]
    fn architectural_writability_enforced_without_segments() {
        let t = TppBuilder::hop_mode(1).store(a("Link:RX-Bytes"), 0).hops(1).build().unwrap();
        let v = verify_for_hops(&t, 1);
        assert!(v.denials().any(|d| matches!(
            d.kind,
            DiagKind::Policy(Violation { reason: ViolationReason::ArchitecturallyReadOnly, .. })
        )));
    }

    #[test]
    fn stack_underflow_denied() {
        let t = Tpp {
            instrs: vec![Instruction::pop(a("Link:AppSpecific_0"))],
            memory: vec![0; 8],
            ..Tpp::default()
        };
        let v = verify_for_hops(&t, 1);
        assert!(v.denials().any(|d| matches!(d.kind, DiagKind::StackUnderflow { .. })));
    }

    #[test]
    fn dead_store_and_hazard_lints_do_not_deny() {
        // Two LOADs to the same word in one hop: the first is dead; both
        // touch the same switch address: a RAW hazard... actually two reads
        // of the same address carry no hazard, so use distinct addresses.
        let t = TppBuilder::hop_mode(2)
            .load(a("Switch:SwitchID"), 0)
            .load(a("Queue:QueueOccupancy"), 0)
            .hops(2)
            .build()
            .unwrap();
        let v = verify_for_hops(&t, 2);
        assert!(v.passed());
        assert!(v.lints().any(|d| matches!(d.kind, DiagKind::DeadStore { .. })));
    }

    #[test]
    fn hazard_lint_reported() {
        let t = Tpp {
            instrs: vec![
                Instruction::store(a("Stage1:Reg0"), 0),
                Instruction::push(a("Stage1:Reg0")),
            ],
            memory: vec![0; 16],
            per_hop_len: 4,
            mode: AddrMode::Hop,
            ..Tpp::default()
        };
        let v = verify_for_hops(&t, 1);
        assert!(v.lints().any(|d| matches!(d.kind, DiagKind::Hazard(_))));
    }

    #[test]
    fn gate_structure_reported() {
        let t = TppBuilder::hop_mode(3)
            .cstore(a("Link:AppSpecific_0"), 0, 1)
            .store(a("Link:AppSpecific_1"), 2)
            .hops(2)
            .build()
            .unwrap();
        let v = verify_for_hops(&t, 2);
        assert!(v.passed(), "{:?}", v.diagnostics);
        assert_eq!(v.hops_verified, 2);
    }

    #[test]
    fn trailing_conditional_lint() {
        let mut t = TppBuilder::stack_mode()
            .push(a("Switch:SwitchID"))
            .cexec(a("Switch:SwitchID"), 0, 1)
            .memory_words(8)
            .build()
            .unwrap();
        t.sp = 2; // prefill mask/value... operands read words 0/1
        let v = verify(&t, VerifyOptions::default());
        assert!(v.lints().any(|d| d.kind == DiagKind::UselessConditional));
    }

    #[test]
    fn over_budget_and_oversized_memory_denied() {
        let t = Tpp {
            instrs: vec![Instruction::push(a("Switch:SwitchID")); 6],
            memory: vec![0; 8],
            ..Tpp::default()
        };
        let v = verify(&t, VerifyOptions::default());
        assert!(v.denials().any(|d| matches!(d.kind, DiagKind::OverBudget { .. })));

        let t = Tpp { instrs: vec![], memory: vec![0; 256], ..Tpp::default() };
        let v = verify(&t, VerifyOptions::default());
        assert!(v.denials().any(|d| matches!(d.kind, DiagKind::MemoryTooLarge { .. })));
    }

    #[test]
    fn derived_hops_match_stack_capacity() {
        // One PUSH per hop into 8 words: exactly 8 hops derivable.
        let t =
            TppBuilder::stack_mode().push(a("Switch:SwitchID")).memory_words(8).build().unwrap();
        let v = verify(&t, VerifyOptions::default());
        assert_eq!(v.hops_verified, 8);
    }

    #[test]
    fn render_is_rustc_style() {
        let t = TppBuilder::hop_mode(2).load(a("Switch:SwitchID"), 5).hops(2).build().unwrap();
        let v = verify_for_hops(&t, 2);
        let rendered = v.render(&t.instrs);
        assert!(rendered.contains("error[E-OOB]"), "{rendered}");
        assert!(rendered.contains("--> instr 0: LOAD [Switch:SwitchID]"), "{rendered}");
    }
}
