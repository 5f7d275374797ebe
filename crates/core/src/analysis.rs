//! Static analysis of TPPs (paper §3.5, §4.1, §4.3).
//!
//! TPPs are "relatively amenable to static analysis, particularly since a
//! TPP contains at most five instructions" (§4.3). This module provides:
//!
//! * the switch access of each instruction (which address it reads/writes),
//!   used by TPP-CP to enforce per-application memory segments;
//! * write detection, used by the hypervisor-style policy that drops any
//!   TPP with write instructions;
//! * data-hazard detection (write-after-write / read-after-write on the same
//!   switch address), which out-of-order stage execution requires end-hosts
//!   to avoid (§3.5).
//!
//! Packet-memory bounds and the stack pointer are the verifier's
//! ([`mod@crate::verify`]).

use crate::addr::{is_architecturally_writable, Address};
use crate::isa::{Instruction, Opcode};

/// How an instruction accesses a switch address.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Access {
    Read,
    Write,
    /// CSTORE: read-modify-write.
    ReadWrite,
}

impl Access {
    pub fn is_write(self) -> bool {
        matches!(self, Access::Write | Access::ReadWrite)
    }
}

/// The switch-memory access performed by one instruction.
pub fn instruction_access(ins: &Instruction) -> (Address, Access) {
    let access = match ins.opcode {
        Opcode::Load | Opcode::Push | Opcode::Cexec => Access::Read,
        Opcode::Store | Opcode::Pop => Access::Write,
        Opcode::Cstore => Access::ReadWrite,
    };
    (ins.addr, access)
}

/// Does the program write to switch memory at all? (The §4.3 hypervisor
/// check: "drop any TPPs with write instructions".)
pub fn writes_switch_memory(instrs: &[Instruction]) -> bool {
    instrs.iter().any(|i| i.opcode.writes_switch_memory())
}

/// An address interval `[start, end]` with a permission, forming the
/// GDT-like memory access-control table of §4.1.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Segment {
    pub start: Address,
    pub end: Address,
    pub allow_write: bool,
}

impl Segment {
    pub fn read_only(start: Address, end: Address) -> Self {
        Segment { start, end, allow_write: false }
    }
    pub fn read_write(start: Address, end: Address) -> Self {
        Segment { start, end, allow_write: true }
    }
    pub fn contains(&self, a: Address) -> bool {
        self.start <= a && a <= self.end
    }
}

/// A policy violation discovered by [`check_segments`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    pub instr_index: usize,
    pub addr: Address,
    pub access: Access,
    pub reason: ViolationReason,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ViolationReason {
    /// No segment grants any access to this address.
    OutsideSegments,
    /// A segment covers the address but does not permit writing.
    WriteNotPermitted,
    /// The address is architecturally read-only yet the program writes it.
    ArchitecturallyReadOnly,
}

/// Check every access in the program against the permitted `segments`
/// (§4.1: "TPPs are statically analyzed, to see if it accesses memories
/// outside the permitted address range; if so, the API call returns a
/// failure and the TPP is never installed").
pub fn check_segments(instrs: &[Instruction], segments: &[Segment]) -> Vec<Violation> {
    let mut out = Vec::new();
    for (idx, ins) in instrs.iter().enumerate() {
        let (addr, access) = instruction_access(ins);
        let covering: Vec<&Segment> = segments.iter().filter(|s| s.contains(addr)).collect();
        if covering.is_empty() {
            out.push(Violation {
                instr_index: idx,
                addr,
                access,
                reason: ViolationReason::OutsideSegments,
            });
            continue;
        }
        if access.is_write() {
            if !is_architecturally_writable(addr) {
                out.push(Violation {
                    instr_index: idx,
                    addr,
                    access,
                    reason: ViolationReason::ArchitecturallyReadOnly,
                });
            } else if !covering.iter().any(|s| s.allow_write) {
                out.push(Violation {
                    instr_index: idx,
                    addr,
                    access,
                    reason: ViolationReason::WriteNotPermitted,
                });
            }
        }
    }
    out
}

/// Data hazards on *switch* addresses that make out-of-order execution
/// unsafe (§3.5: end-hosts must "ensure there are no write-after-write, or
/// read-after-write conflicts").
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Hazard {
    WriteAfterWrite { first: usize, second: usize, addr: Address },
    ReadAfterWrite { write: usize, read: usize, addr: Address },
}

/// Detect WAW/RAW hazards between instructions at different program points
/// touching the same switch address.
pub fn find_hazards(instrs: &[Instruction]) -> Vec<Hazard> {
    let mut hazards = Vec::new();
    for i in 0..instrs.len() {
        for j in i + 1..instrs.len() {
            let (ai, acci) = instruction_access(&instrs[i]);
            let (aj, accj) = instruction_access(&instrs[j]);
            if ai != aj {
                continue;
            }
            match (acci.is_write(), accj.is_write()) {
                (true, true) => {
                    hazards.push(Hazard::WriteAfterWrite { first: i, second: j, addr: ai });
                }
                (true, false) => {
                    hazards.push(Hazard::ReadAfterWrite { write: i, read: j, addr: ai });
                }
                _ => {}
            }
        }
    }
    hazards
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::resolve_mnemonic;
    use crate::asm::assemble;

    fn a(m: &str) -> Address {
        resolve_mnemonic(m).unwrap()
    }

    #[test]
    fn access_set_and_write_detection() {
        let t = assemble(
            "
            PUSH [Switch:SwitchID]
            STORE [Link:AppSpecific_0], [Packet:Hop[0]]
            ",
        )
        .unwrap();
        assert_eq!(instruction_access(&t.instrs[0]), (a("Switch:SwitchID"), Access::Read));
        assert_eq!(instruction_access(&t.instrs[1]), (a("Link:AppSpecific_0"), Access::Write));
        assert!(writes_switch_memory(&t.instrs));

        let ro = assemble("PUSH [Switch:SwitchID]").unwrap();
        assert!(!writes_switch_memory(&ro.instrs));
    }

    #[test]
    fn segment_checks() {
        let app0 = a("Link:AppSpecific_0");
        let app1 = a("Link:AppSpecific_1");
        let segments = [
            Segment::read_only(a("Switch:SwitchID"), a("Switch:SwitchID")),
            Segment::read_write(app0, app1),
        ];
        // Within segments: OK.
        let t = assemble(
            "
            PUSH [Switch:SwitchID]
            STORE [Link:AppSpecific_1], [Packet:Hop[0]]
            ",
        )
        .unwrap();
        assert!(check_segments(&t.instrs, &segments).is_empty());

        // Read outside all segments.
        let t2 = assemble("PUSH [Link:TX-Utilization]").unwrap();
        let v = check_segments(&t2.instrs, &segments);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].reason, ViolationReason::OutsideSegments);

        // Write into a read-only segment.
        let seg_ro = [Segment::read_only(app0, app1)];
        let t3 = assemble("STORE [Link:AppSpecific_0], [Packet:Hop[0]]").unwrap();
        let v = check_segments(&t3.instrs, &seg_ro);
        assert_eq!(v[0].reason, ViolationReason::WriteNotPermitted);

        // Write to an architecturally read-only counter.
        let seg_all = [Segment::read_write(Address::new(0), Address::new(0xFFFF))];
        let t4 = assemble("STORE [Link:RX-Bytes], [Packet:Hop[0]]").unwrap();
        let v = check_segments(&t4.instrs, &seg_all);
        assert_eq!(v[0].reason, ViolationReason::ArchitecturallyReadOnly);
    }

    #[test]
    fn hazard_detection() {
        // RAW: write then read of the same register.
        let instrs = [Instruction::store(a("Stage1:Reg0"), 0), Instruction::push(a("Stage1:Reg0"))];
        let h = find_hazards(&instrs);
        assert_eq!(h, vec![Hazard::ReadAfterWrite { write: 0, read: 1, addr: a("Stage1:Reg0") }]);

        // WAW.
        let instrs =
            [Instruction::store(a("Stage1:Reg0"), 0), Instruction::store(a("Stage1:Reg0"), 1)];
        assert!(matches!(find_hazards(&instrs)[0], Hazard::WriteAfterWrite { .. }));

        // Distinct addresses: no hazard.
        let instrs = [Instruction::store(a("Stage1:Reg0"), 0), Instruction::push(a("Stage1:Reg1"))];
        assert!(find_hazards(&instrs).is_empty());
    }
}
