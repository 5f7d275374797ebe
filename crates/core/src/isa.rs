//! The TPP instruction set (paper Table 1, §3.3).
//!
//! Each instruction encodes to exactly 4 bytes:
//!
//! ```text
//!  byte 0   byte 1..2    byte 3
//! +--------+------------+---------+
//! | opcode | address    | operand |
//! +--------+------------+---------+
//! ```
//!
//! * `address` is a 16-bit virtual address into the switch address space
//!   (big-endian on the wire).
//! * `operand` names packet-memory word offsets. For `LOAD`/`STORE` it is a
//!   single word offset within the current hop's window (hop addressing,
//!   §3.3.2). For `CSTORE`/`CEXEC`, which take *two* packet operands, the
//!   byte is split into two nibbles: high nibble = first operand offset, low
//!   nibble = second. `PUSH`/`POP` ignore it (they use the stack pointer).
//!
//! Five instructions at 4 bytes each give the 20-byte instruction budget of
//! Figure 7b.

use crate::addr::Address;
use core::fmt;

/// Maximum number of instructions a TPP may carry (§1: "at most 5
/// instructions"). Restricting TPP length is the key to executing within a
/// fraction of a packet's transmission time (§1.2).
pub const MAX_INSTRUCTIONS: usize = 5;

/// Encoded size of one instruction in bytes.
pub const INSTR_BYTES: usize = 4;

/// Opcodes (Table 1).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Opcode {
    /// Copy a switch word into hop-addressed packet memory.
    Load = 0x01,
    /// Copy a hop-addressed packet word into switch memory.
    Store = 0x02,
    /// Copy a switch word onto the packet stack (advances SP).
    Push = 0x03,
    /// Pop the top of the packet stack into switch memory (retreats SP).
    Pop = 0x04,
    /// Conditional store: compare-and-swap, gating subsequent instructions.
    Cstore = 0x05,
    /// Conditional execute: gate subsequent instructions on a masked compare.
    Cexec = 0x06,
}

impl Opcode {
    pub fn from_u8(b: u8) -> Option<Opcode> {
        Some(match b {
            0x01 => Opcode::Load,
            0x02 => Opcode::Store,
            0x03 => Opcode::Push,
            0x04 => Opcode::Pop,
            0x05 => Opcode::Cstore,
            0x06 => Opcode::Cexec,
            _ => return None,
        })
    }

    /// Whether this opcode writes to *switch* memory.
    pub fn writes_switch_memory(self) -> bool {
        matches!(self, Opcode::Store | Opcode::Pop | Opcode::Cstore)
    }

    /// Whether this opcode can suppress execution of subsequent instructions.
    pub fn is_conditional(self) -> bool {
        matches!(self, Opcode::Cstore | Opcode::Cexec)
    }

    pub fn mnemonic(self) -> &'static str {
        match self {
            Opcode::Load => "LOAD",
            Opcode::Store => "STORE",
            Opcode::Push => "PUSH",
            Opcode::Pop => "POP",
            Opcode::Cstore => "CSTORE",
            Opcode::Cexec => "CEXEC",
        }
    }
}

/// A decoded TPP instruction.
///
/// `op1`/`op2` are per-hop packet-memory *word* offsets; their meaning
/// depends on the opcode (see [`Opcode`] and the module docs).
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Instruction {
    pub opcode: Opcode,
    pub addr: Address,
    pub op1: u8,
    pub op2: u8,
}

impl Instruction {
    /// `LOAD [addr], [Packet:hop[off]]`
    pub fn load(addr: Address, off: u8) -> Self {
        Instruction { opcode: Opcode::Load, addr, op1: off, op2: 0 }
    }
    /// `STORE [addr], [Packet:hop[off]]`
    pub fn store(addr: Address, off: u8) -> Self {
        Instruction { opcode: Opcode::Store, addr, op1: off, op2: 0 }
    }
    /// `PUSH [addr]`
    pub fn push(addr: Address) -> Self {
        Instruction { opcode: Opcode::Push, addr, op1: 0, op2: 0 }
    }
    /// `POP [addr]`
    pub fn pop(addr: Address) -> Self {
        Instruction { opcode: Opcode::Pop, addr, op1: 0, op2: 0 }
    }
    /// `CSTORE [addr], [Packet:hop[pre]], [Packet:hop[post]]`
    pub fn cstore(addr: Address, pre: u8, post: u8) -> Self {
        Instruction { opcode: Opcode::Cstore, addr, op1: pre, op2: post }
    }
    /// `CEXEC [addr], [Packet:hop[mask]], [Packet:hop[value]]`
    pub fn cexec(addr: Address, mask: u8, value: u8) -> Self {
        Instruction { opcode: Opcode::Cexec, addr, op1: mask, op2: value }
    }

    /// Encode to the 4-byte wire form.
    pub fn encode(self) -> [u8; INSTR_BYTES] {
        let operand = match self.opcode {
            Opcode::Cstore | Opcode::Cexec => {
                debug_assert!(self.op1 < 16 && self.op2 < 16);
                (self.op1 << 4) | (self.op2 & 0x0F)
            }
            _ => self.op1,
        };
        let a = self.addr.raw().to_be_bytes();
        [self.opcode as u8, a[0], a[1], operand]
    }

    /// Decode from the 4-byte wire form. Returns `None` on unknown opcodes.
    pub fn decode(bytes: [u8; INSTR_BYTES]) -> Option<Instruction> {
        let opcode = Opcode::from_u8(bytes[0])?;
        let addr = Address::new(u16::from_be_bytes([bytes[1], bytes[2]]));
        let (op1, op2) = match opcode {
            Opcode::Cstore | Opcode::Cexec => (bytes[3] >> 4, bytes[3] & 0x0F),
            _ => (bytes[3], 0),
        };
        Some(Instruction { opcode, addr, op1, op2 })
    }

    /// Packet-memory word offsets (within the hop window) this instruction
    /// reads or writes, paired with whether the access is a write.
    pub fn packet_operands(&self) -> PacketOperands {
        match self.opcode {
            Opcode::Load => PacketOperands::One { off: self.op1, write: true },
            Opcode::Store => PacketOperands::One { off: self.op1, write: false },
            Opcode::Push | Opcode::Pop => PacketOperands::Stack,
            // CSTORE reads both, and writes the observed value back to op1.
            Opcode::Cstore => PacketOperands::Two { a: self.op1, b: self.op2, writes_a: true },
            Opcode::Cexec => PacketOperands::Two { a: self.op1, b: self.op2, writes_a: false },
        }
    }
}

/// Summary of how an instruction touches packet memory.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PacketOperands {
    /// Stack-pointer relative (PUSH/POP).
    Stack,
    /// One hop-relative word offset.
    One { off: u8, write: bool },
    /// Two hop-relative word offsets.
    Two { a: u8, b: u8, writes_a: bool },
}

impl fmt::Debug for Instruction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl fmt::Display for Instruction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.opcode {
            Opcode::Push | Opcode::Pop => write!(f, "{} {}", self.opcode.mnemonic(), self.addr),
            Opcode::Load | Opcode::Store => {
                write!(f, "{} {}, [Packet:Hop[{}]]", self.opcode.mnemonic(), self.addr, self.op1)
            }
            Opcode::Cstore | Opcode::Cexec => write!(
                f,
                "{} {}, [Packet:Hop[{}]], [Packet:Hop[{}]]",
                self.opcode.mnemonic(),
                self.addr,
                self.op1,
                self.op2
            ),
        }
    }
}

/// Why a program failed to decode.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProgramError {
    /// The byte length is not a multiple of [`INSTR_BYTES`].
    TrailingBytes,
    /// The first unknown opcode encountered, in program order, with the
    /// byte offset it was found at.
    BadOpcode { opcode: u8, offset: usize },
}

impl fmt::Display for ProgramError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProgramError::TrailingBytes => {
                write!(f, "program length is not a multiple of {INSTR_BYTES} bytes")
            }
            ProgramError::BadOpcode { opcode, offset } => {
                write!(f, "unknown opcode {opcode:#04x} at byte offset {offset}")
            }
        }
    }
}

impl std::error::Error for ProgramError {}

/// Validate program bytes: a whole number of instructions, every opcode
/// known (the borrowed TPP view's check).
pub fn validate_program(bytes: &[u8]) -> Result<(), ProgramError> {
    if !bytes.len().is_multiple_of(INSTR_BYTES) {
        return Err(ProgramError::TrailingBytes);
    }
    for (i, c) in bytes.chunks_exact(INSTR_BYTES).enumerate() {
        if Opcode::from_u8(c[0]).is_none() {
            return Err(ProgramError::BadOpcode { opcode: c[0], offset: i * INSTR_BYTES });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::resolve_mnemonic;

    fn encode_program(instrs: &[Instruction]) -> Vec<u8> {
        instrs.iter().flat_map(|i| i.encode()).collect()
    }

    fn qsize() -> Address {
        resolve_mnemonic("Queue:QueueOccupancy").unwrap()
    }

    #[test]
    fn encode_decode_roundtrip_all_opcodes() {
        let a = qsize();
        let instrs = [
            Instruction::load(a, 3),
            Instruction::store(a, 255),
            Instruction::push(a),
            Instruction::pop(a),
            Instruction::cstore(a, 1, 2),
            Instruction::cexec(a, 15, 0),
        ];
        for i in instrs {
            let bytes = i.encode();
            let back = Instruction::decode(bytes).unwrap();
            assert_eq!(i, back, "{i}");
        }
    }

    #[test]
    fn unknown_opcode_rejected() {
        assert!(Instruction::decode([0x00, 0, 0, 0]).is_none());
        assert!(Instruction::decode([0x07, 0, 0, 0]).is_none());
        assert!(Instruction::decode([0xFF, 1, 2, 3]).is_none());
    }

    #[test]
    fn instruction_is_four_bytes() {
        assert_eq!(Instruction::push(qsize()).encode().len(), 4);
        // 5 instructions -> 20 bytes, the Figure 7b budget.
        let p = vec![Instruction::push(qsize()); MAX_INSTRUCTIONS];
        assert_eq!(encode_program(&p).len(), 20);
    }

    #[test]
    fn program_roundtrip_and_trailing_bytes() {
        let p = vec![Instruction::push(qsize()), Instruction::cstore(qsize(), 0, 1)];
        let bytes = encode_program(&p);
        assert_eq!(validate_program(&bytes), Ok(()));
        let back =
            bytes.chunks_exact(INSTR_BYTES).map(|c| Instruction::decode([c[0], c[1], c[2], c[3]]));
        assert!(back.eq(p.iter().copied().map(Some)));
        let mut trailing = bytes.clone();
        trailing.push(0x01);
        assert_eq!(validate_program(&trailing), Err(ProgramError::TrailingBytes));
    }

    #[test]
    fn bad_opcode_reported_with_offset() {
        let mut bytes = encode_program(&[Instruction::push(qsize()), Instruction::pop(qsize())]);
        bytes[4] = 0x7F; // corrupt the second opcode
        let err = ProgramError::BadOpcode { opcode: 0x7F, offset: 4 };
        assert_eq!(validate_program(&bytes), Err(err));
        assert_eq!(err.to_string(), "unknown opcode 0x7f at byte offset 4");
    }

    #[test]
    fn write_classification() {
        assert!(Opcode::Store.writes_switch_memory());
        assert!(Opcode::Pop.writes_switch_memory());
        assert!(Opcode::Cstore.writes_switch_memory());
        assert!(!Opcode::Load.writes_switch_memory());
        assert!(!Opcode::Push.writes_switch_memory());
        assert!(!Opcode::Cexec.writes_switch_memory());
    }

    #[test]
    fn display_matches_paper_syntax() {
        let i = Instruction::push(qsize());
        assert_eq!(format!("{i}"), "PUSH [Queue:QueueOccupancy]");
        let l = Instruction::load(resolve_mnemonic("Switch:SwitchID").unwrap(), 1);
        assert_eq!(format!("{l}"), "LOAD [Switch:SwitchID], [Packet:Hop[1]]");
    }
}
