//! Assembler, disassembler, and builder for the paper's pseudo-assembly
//! (§2): programs like
//!
//! ```text
//! .mode hop
//! .perhop 20
//! .hops 5
//! PUSH [Switch:SwitchID]
//! PUSH [Link:QueueSize]
//! PUSH [Link:RX-Utilization]
//! PUSH [Link:AppSpecific_0]   # Version number
//! PUSH [Link:AppSpecific_1]   # Rfair
//! ```
//!
//! Mnemonic addresses (`[Namespace:Statistic]`) resolve at assembly time —
//! the paper posits these mappings are "known upfront at compile time"
//! (§2). Raw addresses are written `[0xb000]`.

use crate::addr::{resolve_mnemonic, Address};
use crate::isa::{Instruction, Opcode, MAX_INSTRUCTIONS};
use crate::wire::tpp::{AddrMode, Tpp};
use core::fmt;

/// Errors from assembling a TPP.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AsmError {
    /// `(line number, message)`
    Syntax(usize, String),
    TooManyInstructions(usize),
    MemoryTooLarge(usize),
    OperandOutOfRange(usize, String),
}

impl fmt::Display for AsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AsmError::Syntax(l, m) => write!(f, "line {l}: {m}"),
            AsmError::TooManyInstructions(n) => {
                write!(f, "{n} instructions exceed the {MAX_INSTRUCTIONS}-instruction budget")
            }
            AsmError::MemoryTooLarge(n) => write!(f, "packet memory {n} bytes exceeds 252"),
            AsmError::OperandOutOfRange(l, m) => write!(f, "line {l}: operand out of range: {m}"),
        }
    }
}

impl std::error::Error for AsmError {}

pub use crate::wire::tpp::MAX_MEMORY_BYTES;

fn parse_address(tok: &str, line: usize) -> Result<Address, AsmError> {
    let inner = tok
        .strip_prefix('[')
        .and_then(|s| s.strip_suffix(']'))
        .ok_or_else(|| AsmError::Syntax(line, format!("expected [..] address, got {tok}")))?;
    if let Some(hex) = inner.strip_prefix("0x").or_else(|| inner.strip_prefix("0X")) {
        let raw = u16::from_str_radix(hex, 16)
            .map_err(|_| AsmError::Syntax(line, format!("bad hex address {inner}")))?;
        return Ok(Address::new(raw));
    }
    resolve_mnemonic(inner).map_err(|e| AsmError::Syntax(line, e.to_string()))
}

fn parse_hop_operand(tok: &str, line: usize) -> Result<u8, AsmError> {
    // [Packet:Hop[3]]  (case-insensitive)
    let lower = tok.to_ascii_lowercase();
    let rest =
        lower.strip_prefix("[packet:hop[").and_then(|s| s.strip_suffix("]]")).ok_or_else(|| {
            AsmError::Syntax(line, format!("expected [Packet:Hop[n]] operand, got {tok}"))
        })?;
    rest.parse::<u8>().map_err(|_| AsmError::OperandOutOfRange(line, tok.to_string()))
}

/// Split an instruction line into comma-separated operand tokens, respecting
/// brackets.
fn split_operands(s: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut depth = 0usize;
    let mut cur = String::new();
    for c in s.chars() {
        match c {
            '[' => {
                depth += 1;
                cur.push(c);
            }
            ']' => {
                depth = depth.saturating_sub(1);
                cur.push(c);
            }
            ',' if depth == 0 => {
                out.push(cur.trim().to_string());
                cur.clear();
            }
            _ => cur.push(c),
        }
    }
    if !cur.trim().is_empty() {
        out.push(cur.trim().to_string());
    }
    out
}

/// Assemble a text program into a [`Tpp`].
///
/// Directives: `.mode stack|hop`, `.perhop <bytes>`, `.hops <n>`,
/// `.memory <bytes>`, `.appid <n>`, `.reflect`, `.word <idx> <value>`.
/// Comments start with `#` or `//`. A trailing `\` continues the line.
pub fn assemble(src: &str) -> Result<Tpp, AsmError> {
    let mut tpp = Tpp::default();
    let mut hops: Option<usize> = None;
    let mut mem_bytes: Option<usize> = None;
    let mut word_inits: Vec<(usize, u32)> = Vec::new();

    // Join continued lines first, tracking original line numbers.
    let mut logical: Vec<(usize, String)> = Vec::new();
    let mut pending: Option<(usize, String)> = None;
    for (idx, raw) in src.lines().enumerate() {
        let lineno = idx + 1;
        let no_comment = raw.split('#').next().unwrap_or("");
        let no_comment = no_comment.split("//").next().unwrap_or("");
        let trimmed = no_comment.trim();
        if trimmed.is_empty() {
            continue;
        }
        let (cont, body) = match trimmed.strip_suffix('\\') {
            Some(b) => (true, b.trim_end().to_string()),
            None => (false, trimmed.to_string()),
        };
        match pending.take() {
            Some((l, mut acc)) => {
                acc.push(' ');
                acc.push_str(&body);
                if cont {
                    pending = Some((l, acc));
                } else {
                    logical.push((l, acc));
                }
            }
            None => {
                if cont {
                    pending = Some((lineno, body));
                } else {
                    logical.push((lineno, body));
                }
            }
        }
    }
    if let Some((l, acc)) = pending {
        logical.push((l, acc));
    }

    for (line, text) in logical {
        let mut parts = text.splitn(2, char::is_whitespace);
        let head = parts.next().unwrap();
        let rest = parts.next().unwrap_or("").trim();
        let head_upper = head.to_ascii_uppercase();
        match head_upper.as_str() {
            ".MODE" => {
                tpp.mode = match rest.to_ascii_lowercase().as_str() {
                    "stack" => AddrMode::Stack,
                    "hop" => AddrMode::Hop,
                    other => return Err(AsmError::Syntax(line, format!("bad mode {other}"))),
                };
            }
            ".PERHOP" => {
                let v: u8 = rest
                    .parse()
                    .map_err(|_| AsmError::Syntax(line, format!("bad perhop {rest}")))?;
                if !v.is_multiple_of(4) {
                    return Err(AsmError::Syntax(line, "perhop must be word-aligned".into()));
                }
                tpp.per_hop_len = v;
            }
            ".HOPS" => {
                hops = Some(
                    rest.parse().map_err(|_| AsmError::Syntax(line, format!("bad hops {rest}")))?,
                );
            }
            ".MEMORY" => {
                let v: usize = rest
                    .parse()
                    .map_err(|_| AsmError::Syntax(line, format!("bad memory {rest}")))?;
                if !v.is_multiple_of(4) {
                    return Err(AsmError::Syntax(line, "memory must be word-aligned".into()));
                }
                mem_bytes = Some(v);
            }
            ".APPID" => {
                tpp.app_id = rest
                    .parse()
                    .map_err(|_| AsmError::Syntax(line, format!("bad appid {rest}")))?;
            }
            ".REFLECT" => tpp.reflect = true,
            ".WORD" => {
                let mut it = rest.split_whitespace();
                let idx: usize = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| AsmError::Syntax(line, "usage: .word <idx> <value>".into()))?;
                let val_str = it
                    .next()
                    .ok_or_else(|| AsmError::Syntax(line, "usage: .word <idx> <value>".into()))?;
                let val: u32 = if let Some(h) = val_str.strip_prefix("0x") {
                    u32::from_str_radix(h, 16)
                        .map_err(|_| AsmError::Syntax(line, format!("bad value {val_str}")))?
                } else {
                    val_str
                        .parse()
                        .map_err(|_| AsmError::Syntax(line, format!("bad value {val_str}")))?
                };
                word_inits.push((idx, val));
            }
            op @ ("LOAD" | "STORE" | "PUSH" | "POP" | "CSTORE" | "CEXEC") => {
                let operands = split_operands(rest);
                let ins = match (op, operands.as_slice()) {
                    ("PUSH", [addr]) => Instruction::push(parse_address(addr, line)?),
                    ("POP", [addr]) => Instruction::pop(parse_address(addr, line)?),
                    ("LOAD", [addr, off]) => {
                        Instruction::load(parse_address(addr, line)?, parse_hop_operand(off, line)?)
                    }
                    ("STORE", [addr, off]) => Instruction::store(
                        parse_address(addr, line)?,
                        parse_hop_operand(off, line)?,
                    ),
                    ("CSTORE", [addr, pre, post]) => {
                        let (pre, post) =
                            (parse_hop_operand(pre, line)?, parse_hop_operand(post, line)?);
                        if pre >= 16 || post >= 16 {
                            return Err(AsmError::OperandOutOfRange(
                                line,
                                "CSTORE operands must be < 16".into(),
                            ));
                        }
                        Instruction::cstore(parse_address(addr, line)?, pre, post)
                    }
                    ("CEXEC", [addr, mask, val]) => {
                        let (m, v) =
                            (parse_hop_operand(mask, line)?, parse_hop_operand(val, line)?);
                        if m >= 16 || v >= 16 {
                            return Err(AsmError::OperandOutOfRange(
                                line,
                                "CEXEC operands must be < 16".into(),
                            ));
                        }
                        Instruction::cexec(parse_address(addr, line)?, m, v)
                    }
                    _ => {
                        return Err(AsmError::Syntax(
                            line,
                            format!("wrong operand count for {op}: {rest}"),
                        ))
                    }
                };
                tpp.instrs.push(ins);
            }
            other => return Err(AsmError::Syntax(line, format!("unknown directive {other}"))),
        }
    }

    if tpp.instrs.len() > MAX_INSTRUCTIONS {
        return Err(AsmError::TooManyInstructions(tpp.instrs.len()));
    }
    let mem = match (mem_bytes, hops) {
        (Some(m), _) => m,
        (None, Some(h)) => h * tpp.per_hop_len as usize,
        // Default: enough stack space for one pushed word per instruction
        // over 8 hops.
        (None, None) => 8 * tpp.instrs.len() * 4,
    };
    if mem > MAX_MEMORY_BYTES {
        return Err(AsmError::MemoryTooLarge(mem));
    }
    tpp.memory = vec![0; mem];
    for (idx, val) in word_inits {
        if tpp.write_word(idx, val).is_none() {
            return Err(AsmError::OperandOutOfRange(0, format!(".word index {idx}")));
        }
    }
    Ok(tpp)
}

/// Disassemble a TPP back to text (inverse of [`assemble`] up to formatting).
pub fn disassemble(tpp: &Tpp) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        ".mode {}\n",
        match tpp.mode {
            AddrMode::Stack => "stack",
            AddrMode::Hop => "hop",
        }
    ));
    if tpp.per_hop_len > 0 {
        out.push_str(&format!(".perhop {}\n", tpp.per_hop_len));
    }
    out.push_str(&format!(".memory {}\n", tpp.memory.len()));
    if tpp.app_id != 0 {
        out.push_str(&format!(".appid {}\n", tpp.app_id));
    }
    if tpp.reflect {
        out.push_str(".reflect\n");
    }
    for (i, w) in tpp.words().iter().enumerate() {
        if *w != 0 {
            out.push_str(&format!(".word {i} {w:#x}\n"));
        }
    }
    for ins in &tpp.instrs {
        out.push_str(&format!("{ins}\n"));
    }
    out
}

/// Fluent builder used by applications to construct TPPs programmatically.
///
/// ```
/// use tpp_core::asm::TppBuilder;
/// let tpp = TppBuilder::hop_mode(3)
///     .push_m("Switch:SwitchID").unwrap()
///     .push_m("Link:QueueSize").unwrap()
///     .push_m("Link:RX-Utilization").unwrap()
///     .hops(5)
///     .build()
///     .unwrap();
/// assert_eq!(tpp.instrs.len(), 3);
/// ```
#[derive(Clone, Debug, Default)]
pub struct TppBuilder {
    tpp: Tpp,
    hops: Option<usize>,
    explicit_memory: Option<usize>,
    pending_words: Vec<(usize, u32)>,
}

impl TppBuilder {
    /// Stack-mode builder (PUSH/POP programs).
    #[must_use]
    pub fn stack_mode() -> Self {
        TppBuilder::default()
    }

    /// Hop-mode builder with a `per_hop_words`-word window per hop.
    #[must_use]
    pub fn hop_mode(per_hop_words: u8) -> Self {
        let mut b = TppBuilder::default();
        b.tpp.mode = AddrMode::Hop;
        b.tpp.per_hop_len = per_hop_words * 4;
        b
    }

    #[must_use]
    pub fn app_id(mut self, id: u16) -> Self {
        self.tpp.app_id = id;
        self
    }

    #[must_use]
    pub fn reflect(mut self) -> Self {
        self.tpp.reflect = true;
        self
    }

    /// Preallocate memory for `n` hops (hop mode) or `n` pushed words
    /// (stack mode).
    #[must_use]
    pub fn hops(mut self, n: usize) -> Self {
        self.hops = Some(n);
        self
    }

    #[must_use]
    pub fn memory_words(mut self, n: usize) -> Self {
        self.explicit_memory = Some(n * 4);
        self
    }

    #[must_use]
    pub fn instr(mut self, ins: Instruction) -> Self {
        self.tpp.instrs.push(ins);
        self
    }

    #[must_use]
    pub fn push(self, addr: Address) -> Self {
        self.instr(Instruction::push(addr))
    }
    #[must_use]
    pub fn pop(self, addr: Address) -> Self {
        self.instr(Instruction::pop(addr))
    }
    #[must_use]
    pub fn load(self, addr: Address, off: u8) -> Self {
        self.instr(Instruction::load(addr, off))
    }
    #[must_use]
    pub fn store(self, addr: Address, off: u8) -> Self {
        self.instr(Instruction::store(addr, off))
    }
    #[must_use]
    pub fn cstore(self, addr: Address, pre: u8, post: u8) -> Self {
        self.instr(Instruction::cstore(addr, pre, post))
    }
    #[must_use]
    pub fn cexec(self, addr: Address, mask: u8, value: u8) -> Self {
        self.instr(Instruction::cexec(addr, mask, value))
    }

    /// Mnemonic variants; errors surface at [`TppBuilder::build`].
    pub fn push_m(self, m: &str) -> Result<Self, AsmError> {
        let a = resolve_mnemonic(m).map_err(|e| AsmError::Syntax(0, e.to_string()))?;
        Ok(self.push(a))
    }
    pub fn load_m(self, m: &str, off: u8) -> Result<Self, AsmError> {
        let a = resolve_mnemonic(m).map_err(|e| AsmError::Syntax(0, e.to_string()))?;
        Ok(self.load(a, off))
    }
    pub fn store_m(self, m: &str, off: u8) -> Result<Self, AsmError> {
        let a = resolve_mnemonic(m).map_err(|e| AsmError::Syntax(0, e.to_string()))?;
        Ok(self.store(a, off))
    }
    pub fn cstore_m(self, m: &str, pre: u8, post: u8) -> Result<Self, AsmError> {
        let a = resolve_mnemonic(m).map_err(|e| AsmError::Syntax(0, e.to_string()))?;
        Ok(self.cstore(a, pre, post))
    }
    pub fn cexec_m(self, m: &str, mask: u8, value: u8) -> Result<Self, AsmError> {
        let a = resolve_mnemonic(m).map_err(|e| AsmError::Syntax(0, e.to_string()))?;
        Ok(self.cexec(a, mask, value))
    }

    /// Initialize packet-memory word `idx` (applied at build).
    #[must_use]
    pub fn init_word(mut self, idx: usize, value: u32) -> Self {
        // Deferred: memory is sized at build time; stash as instructions in
        // error-free form by growing a pending list.
        self.pending_words.push((idx, value));
        self
    }

    pub fn build(mut self) -> Result<Tpp, AsmError> {
        if self.tpp.instrs.len() > MAX_INSTRUCTIONS {
            return Err(AsmError::TooManyInstructions(self.tpp.instrs.len()));
        }
        let mem = if let Some(m) = self.explicit_memory {
            m
        } else {
            match (self.tpp.mode, self.hops) {
                (AddrMode::Hop, Some(h)) => h * self.tpp.per_hop_len as usize,
                (AddrMode::Stack, Some(h)) => h * self.tpp.instrs.len() * 4,
                _ => 8 * self.tpp.instrs.len().max(1) * 4,
            }
        };
        if mem > MAX_MEMORY_BYTES {
            return Err(AsmError::MemoryTooLarge(mem));
        }
        self.tpp.memory = vec![0; mem];
        for (idx, val) in std::mem::take(&mut self.pending_words) {
            if self.tpp.write_word(idx, val).is_none() {
                return Err(AsmError::OperandOutOfRange(0, format!("init word {idx}")));
            }
        }
        // Validate nibble operands.
        for ins in &self.tpp.instrs {
            if matches!(ins.opcode, Opcode::Cstore | Opcode::Cexec)
                && (ins.op1 >= 16 || ins.op2 >= 16)
            {
                return Err(AsmError::OperandOutOfRange(
                    0,
                    format!("{} packet operands must be < 16", ins.opcode.mnemonic()),
                ));
            }
        }
        Ok(self.tpp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::Opcode;

    #[test]
    fn assemble_microburst_tpp() {
        // §2.1: switch id, port, queue size per hop.
        let src = "
            PUSH [Switch:SwitchID]
            PUSH [PacketMetadata:OutputPort]
            PUSH [Queue:QueueOccupancy]
        ";
        let t = assemble(src).unwrap();
        assert_eq!(t.instrs.len(), 3);
        assert_eq!(t.instrs[0].opcode, Opcode::Push);
        assert!(t.memory.len() >= 3 * 4 * 5); // room for 5 hops
    }

    #[test]
    fn assemble_rcp_collect_tpp() {
        let src = "
            .mode hop
            .perhop 20
            .hops 5
            PUSH [Switch:SwitchID]
            PUSH [Link:QueueSize]
            PUSH [Link:RX-Utilization]
            PUSH [Link:AppSpecific_0] # Version number
            PUSH [Link:AppSpecific_1] # Rfair
        ";
        let t = assemble(src).unwrap();
        assert_eq!(t.instrs.len(), 5);
        assert_eq!(t.memory.len(), 100);
        assert_eq!(t.per_hop_len, 20);
        assert_eq!(t.mode, AddrMode::Hop);
    }

    #[test]
    fn assemble_rcp_update_with_continuation() {
        // The paper's Phase-3 TPP with a line continuation.
        let src = r"
            .mode hop
            .perhop 12
            .hops 2
            CSTORE [Link:AppSpecific_0], \
                   [Packet:Hop[0]], [Packet:Hop[1]]
            STORE [Link:AppSpecific_1], [Packet:Hop[2]]
            .word 0 10
            .word 1 11
            .word 2 5000
        ";
        let t = assemble(src).unwrap();
        assert_eq!(t.instrs.len(), 2);
        assert_eq!(t.instrs[0].opcode, Opcode::Cstore);
        assert_eq!(t.read_word(2), Some(5000));
    }

    #[test]
    fn assemble_raw_hex_address() {
        let t = assemble("PUSH [0xb000]").unwrap();
        assert_eq!(t.instrs[0].addr, Address::new(0xb000));
    }

    #[test]
    fn syntax_errors_reported_with_line() {
        match assemble("PUSH [Nope:Nothing]") {
            Err(AsmError::Syntax(1, _)) => {}
            other => panic!("unexpected {other:?}"),
        }
        match assemble("\nFROB [Switch:SwitchID]") {
            Err(AsmError::Syntax(2, _)) => {}
            other => panic!("unexpected {other:?}"),
        }
        assert!(assemble("LOAD [Switch:SwitchID]").is_err()); // missing operand
        assert!(assemble("CSTORE [Link:AppSpecific_0], [Packet:Hop[16]], [Packet:Hop[0]]").is_err());
    }

    #[test]
    fn budget_enforced() {
        let src = "
            PUSH [Switch:SwitchID]
            PUSH [Switch:SwitchID]
            PUSH [Switch:SwitchID]
            PUSH [Switch:SwitchID]
            PUSH [Switch:SwitchID]
            PUSH [Switch:SwitchID]
        ";
        assert_eq!(assemble(src), Err(AsmError::TooManyInstructions(6)));
    }

    #[test]
    fn disassemble_roundtrip() {
        let src = "
            .mode hop
            .perhop 12
            .hops 3
            .appid 9
            LOAD [Switch:SwitchID], [Packet:Hop[0]]
            CSTORE [Link:AppSpecific_0], [Packet:Hop[1]], [Packet:Hop[2]]
        ";
        let t = assemble(src).unwrap();
        let text = disassemble(&t);
        let t2 = assemble(&text).unwrap();
        assert_eq!(t, t2);
    }

    #[test]
    fn builder_matches_assembler() {
        let from_asm = assemble(
            "
            .mode hop
            .perhop 12
            .hops 5
            PUSH [Switch:SwitchID]
            PUSH [PacketMetadata:OutputPort]
            PUSH [Queue:QueueOccupancy]
            ",
        )
        .unwrap();
        let from_builder = TppBuilder::hop_mode(3)
            .push_m("Switch:SwitchID")
            .unwrap()
            .push_m("PacketMetadata:OutputPort")
            .unwrap()
            .push_m("Queue:QueueOccupancy")
            .unwrap()
            .hops(5)
            .build()
            .unwrap();
        assert_eq!(from_asm, from_builder);
    }

    #[test]
    fn builder_validates() {
        let b = TppBuilder::stack_mode();
        let mut b2 = b;
        for _ in 0..6 {
            b2 = b2.push_m("Switch:SwitchID").unwrap();
        }
        assert!(matches!(b2.build(), Err(AsmError::TooManyInstructions(6))));

        assert!(matches!(
            TppBuilder::hop_mode(4).hops(20).push_m("Switch:SwitchID").unwrap().build(),
            Err(AsmError::MemoryTooLarge(_))
        ));
    }

    #[test]
    fn builder_init_words() {
        let t = TppBuilder::hop_mode(3)
            .cstore_m("Link:AppSpecific_0", 0, 1)
            .unwrap()
            .init_word(0, 42)
            .init_word(1, 43)
            .hops(2)
            .build()
            .unwrap();
        assert_eq!(t.read_word(0), Some(42));
        assert_eq!(t.read_word(1), Some(43));
    }
}
