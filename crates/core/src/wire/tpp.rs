//! The TPP section format (paper §3.4, Figure 7b).
//!
//! A TPP section is: a 12-byte header, up to
//! [`MAX_INSTRUCTIONS`](crate::isa::MAX_INSTRUCTIONS) 4-byte instructions,
//! and preallocated packet memory. It appears either directly
//! after an Ethernet header with ethertype 0x6666 (*transparent* mode,
//! encapsulating the original packet), or as the payload of a UDP datagram
//! to port 0x6666 (*standalone* mode).
//!
//! Header layout (12 bytes):
//!
//! ```text
//! byte 0      version(4) | mode(1) | reflect(1) | wrote(1) | reserved(1)
//! byte 1      instruction count (each 4 bytes)
//! byte 2      packet-memory length in bytes
//! byte 3      hop number (incremented by each switch after execution)
//! byte 4      stack pointer (in words; used by PUSH/POP)
//! byte 5      per-hop memory length in bytes (hop addressing, §3.3.2)
//! bytes 6-7   checksum (internet checksum over the whole section)
//! bytes 8-9   encapsulated ethertype (0 = none)
//! bytes 10-11 TPP application ID
//! ```
//!
//! The packet memory is preallocated by the end-host; the TPP never grows or
//! shrinks inside the network (Figure 1a).

use super::checksum;
use super::view::TppView;
use crate::isa::{Instruction, INSTR_BYTES};
use core::fmt;

/// TPP wire-format version implemented by this crate.
pub const VERSION: u8 = 1;

/// TPP header length in bytes.
pub const HEADER_LEN: usize = 12;

/// Maximum packet-memory size: the largest word-aligned value representable
/// in the one-byte header field (Figure 7b allows 40–200 bytes; we cap at
/// the encoding limit).
pub const MAX_MEMORY_BYTES: usize = 252;

/// How many hops of `per_hop_bytes` each fit in the wire memory budget
/// ([`MAX_MEMORY_BYTES`]) — the typed replacement for ad-hoc `.min(252)`
/// sizing arithmetic. Zero-byte layouts report the word capacity.
pub const fn max_hops(per_hop_bytes: usize) -> usize {
    match MAX_MEMORY_BYTES.checked_div(per_hop_bytes) {
        Some(n) => n,
        None => MAX_MEMORY_BYTES / 4,
    }
}

/// Memory addressing modes (Figure 7b field 3).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum AddrMode {
    /// PUSH/POP against the stack pointer.
    #[default]
    Stack,
    /// `base:offset` hop addressing: word at `hop * per_hop_words + offset`.
    Hop,
}

/// Errors from parsing a TPP section.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TppError {
    Truncated,
    BadVersion(u8),
    BadChecksum,
    BadInstruction(u8),
    /// Packet memory length is not word-aligned.
    UnalignedMemory(u8),
}

impl fmt::Display for TppError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TppError::Truncated => write!(f, "TPP section truncated"),
            TppError::BadVersion(v) => write!(f, "unsupported TPP version {v}"),
            TppError::BadChecksum => write!(f, "TPP checksum mismatch"),
            TppError::BadInstruction(op) => write!(f, "unknown opcode {op:#04x}"),
            TppError::UnalignedMemory(l) => write!(f, "packet memory length {l} not word-aligned"),
        }
    }
}

impl std::error::Error for TppError {}

/// An owned, decoded TPP: header fields, instructions, and packet memory.
///
/// This is the object the TCPU executes against and the end-host stack
/// manipulates. [`Tpp::serialize`] and [`Tpp::parse`] convert to/from the
/// wire form.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Tpp {
    pub mode: AddrMode,
    /// Reflect bit: switches send the TPP back to its source (§4.4).
    pub reflect: bool,
    /// Set by any switch that performed a switch-memory write.
    pub wrote: bool,
    /// Hop number; incremented by each switch after executing the TPP.
    pub hop: u8,
    /// Stack pointer in words, advanced by PUSH.
    pub sp: u8,
    /// Per-hop window size in bytes (0 means offsets are absolute).
    pub per_hop_len: u8,
    /// Ethertype of the encapsulated payload; 0 when standalone.
    pub encap_proto: u16,
    /// Application ID assigned by the TPP control plane (§4.1).
    pub app_id: u16,
    pub instrs: Vec<Instruction>,
    /// Preallocated packet memory (word-aligned length, max 255 bytes).
    pub memory: Vec<u8>,
}

impl Default for Tpp {
    fn default() -> Self {
        Tpp {
            mode: AddrMode::Stack,
            reflect: false,
            wrote: false,
            hop: 0,
            sp: 0,
            per_hop_len: 0,
            encap_proto: 0,
            app_id: 0,
            instrs: Vec::new(),
            memory: Vec::new(),
        }
    }
}

impl Tpp {
    /// Total serialized length of the section (excluding any encapsulated
    /// payload).
    pub fn section_len(&self) -> usize {
        HEADER_LEN + self.instrs.len() * INSTR_BYTES + self.memory.len()
    }

    /// Number of words of packet memory.
    pub fn memory_words(&self) -> usize {
        self.memory.len() / 4
    }

    /// Per-hop window size in words.
    pub fn per_hop_words(&self) -> usize {
        (self.per_hop_len / 4) as usize
    }

    /// Read packet-memory word `idx` (word-granular indexing).
    pub fn read_word(&self, idx: usize) -> Option<u32> {
        let b = self.memory.get(idx.checked_mul(4)?..)?.get(..4)?;
        Some(u32::from_be_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Write packet-memory word `idx`. Returns `None` (and leaves memory
    /// untouched) when out of bounds.
    pub fn write_word(&mut self, idx: usize, value: u32) -> Option<()> {
        let b = self.memory.get_mut(idx.checked_mul(4)?..)?.get_mut(..4)?;
        b.copy_from_slice(&value.to_be_bytes());
        Some(())
    }

    /// Resolve a hop-relative word offset to an absolute word index for the
    /// *current* hop.
    pub fn hop_word_index(&self, offset: u8) -> usize {
        self.hop as usize * self.per_hop_words() + offset as usize
    }

    /// Read the word at hop-relative `offset` for the current hop.
    pub fn read_hop_word(&self, offset: u8) -> Option<u32> {
        self.read_word(self.hop_word_index(offset))
    }

    /// Write the word at hop-relative `offset` for the current hop.
    pub fn write_hop_word(&mut self, offset: u8, value: u32) -> Option<()> {
        self.write_word(self.hop_word_index(offset), value)
    }

    /// All words currently in memory (for result extraction at end-hosts).
    pub fn words(&self) -> Vec<u32> {
        self.iter_words().collect()
    }

    /// Iterate the packet-memory words without allocating.
    pub fn iter_words(&self) -> impl Iterator<Item = u32> + '_ {
        self.memory.chunks_exact(4).map(|b| u32::from_be_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Serialize to wire bytes, computing the checksum (Figure 7b field 6).
    pub fn serialize(&self) -> Vec<u8> {
        let mut out = vec![0u8; self.section_len()];
        self.emit(&mut out);
        out
    }

    /// Emit into a preallocated buffer of at least [`Tpp::section_len`] bytes.
    pub fn emit(&self, buf: &mut [u8]) {
        let n = self.section_len();
        assert!(buf.len() >= n, "buffer too small for TPP section");
        let mode_bit = match self.mode {
            AddrMode::Stack => 0,
            AddrMode::Hop => 1,
        };
        buf[0] = (VERSION << 4)
            | (mode_bit << 3)
            | ((self.reflect as u8) << 2)
            | ((self.wrote as u8) << 1);
        buf[1] = self.instrs.len() as u8;
        buf[2] = self.memory.len() as u8;
        buf[3] = self.hop;
        buf[4] = self.sp;
        buf[5] = self.per_hop_len;
        buf[6] = 0;
        buf[7] = 0;
        buf[8..10].copy_from_slice(&self.encap_proto.to_be_bytes());
        buf[10..12].copy_from_slice(&self.app_id.to_be_bytes());
        let mut off = HEADER_LEN;
        for i in &self.instrs {
            buf[off..off + INSTR_BYTES].copy_from_slice(&i.encode());
            off += INSTR_BYTES;
        }
        buf[off..off + self.memory.len()].copy_from_slice(&self.memory);
        let c = checksum::checksum(&buf[..n]);
        buf[6..8].copy_from_slice(&c.to_be_bytes());
    }

    /// Parse a TPP section from the front of `bytes`, with the validation of
    /// [`TppView::parse`]. Returns the TPP and the number of bytes consumed;
    /// any remaining bytes are the encapsulated payload.
    pub fn parse(bytes: &[u8]) -> Result<(Tpp, usize), TppError> {
        let (view, total) = TppView::parse(bytes)?;
        Ok((view.to_tpp(), total))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::resolve_mnemonic;

    impl Tpp {
        /// Iterate the per-hop window of hop `h` without allocating. Empty when
        /// hop addressing is off; truncated at the end of memory.
        fn iter_hop_words(&self, h: u8) -> impl Iterator<Item = u32> + '_ {
            let phw = self.per_hop_words();
            let start = (h as usize * phw * 4).min(self.memory.len());
            let end = (start + phw * 4).min(self.memory.len());
            self.memory[start..end]
                .chunks_exact(4)
                .map(|b| u32::from_be_bytes([b[0], b[1], b[2], b[3]]))
        }
    }

    fn sample() -> Tpp {
        Tpp {
            mode: AddrMode::Hop,
            reflect: true,
            wrote: false,
            hop: 2,
            sp: 0,
            per_hop_len: 12,
            encap_proto: 0x0800,
            app_id: 0xBEEF,
            instrs: vec![
                Instruction::push(resolve_mnemonic("Switch:SwitchID").unwrap()),
                Instruction::load(resolve_mnemonic("Queue:QueueOccupancy").unwrap(), 1),
                Instruction::cstore(resolve_mnemonic("Link:AppSpecific_0").unwrap(), 0, 1),
            ],
            memory: vec![0u8; 60],
        }
    }

    #[test]
    fn serialize_parse_roundtrip() {
        let t = sample();
        let bytes = t.serialize();
        assert_eq!(bytes.len(), t.section_len());
        let (back, consumed) = Tpp::parse(&bytes).unwrap();
        assert_eq!(consumed, bytes.len());
        assert_eq!(back, t);
    }

    #[test]
    fn section_len_matches_paper_overheads() {
        // §2.1: 3 instructions + 5 hops x 6B... our words are 4B so 3 stats
        // x 4B x 5 hops = 60B memory; header 12B + instrs 12B = 84B total.
        let mut t = sample();
        t.memory = vec![0; 60];
        assert_eq!(t.section_len(), 12 + 12 + 60);
    }

    #[test]
    fn checksum_detects_corruption() {
        let t = sample();
        let bytes = t.serialize();
        for byte in [0usize, 3, HEADER_LEN, bytes.len() - 1] {
            let mut m = bytes.clone();
            m[byte] ^= 0x10;
            match Tpp::parse(&m) {
                Err(_) => {}
                Ok(_) => panic!("corruption at byte {byte} undetected"),
            }
        }
        // Untouched still parses.
        assert!(Tpp::parse(&bytes).is_ok());
    }

    #[test]
    fn truncation_detected() {
        let t = sample();
        let bytes = t.serialize();
        for cut in [0, 5, HEADER_LEN, bytes.len() - 1] {
            assert_eq!(Tpp::parse(&bytes[..cut]), Err(TppError::Truncated), "cut at {cut}");
        }
    }

    #[test]
    fn trailing_payload_not_consumed() {
        let t = sample();
        let mut bytes = t.serialize();
        let section = bytes.len();
        bytes.extend_from_slice(b"inner ip packet");
        let (_, consumed) = Tpp::parse(&bytes).unwrap();
        assert_eq!(consumed, section);
    }

    #[test]
    fn word_accessors() {
        let mut t = sample();
        assert_eq!(t.memory_words(), 15);
        assert_eq!(t.per_hop_words(), 3);
        t.write_word(0, 0xDEAD_BEEF).unwrap();
        assert_eq!(t.read_word(0), Some(0xDEAD_BEEF));
        assert_eq!(t.read_word(15), None);
        assert_eq!(t.write_word(15, 1), None);
        // Hop addressing: hop=2, offset 1 -> word 7.
        t.write_hop_word(1, 77).unwrap();
        assert_eq!(t.read_word(7), Some(77));
        assert_eq!(t.iter_hop_words(2).collect::<Vec<_>>(), vec![0, 77, 0]);
        // The alloc-free iterator agrees with the Vec-returning accessor.
        assert_eq!(t.iter_words().collect::<Vec<_>>(), t.words());
        assert_eq!(t.iter_hop_words(200).count(), 0); // window past the end
    }

    #[test]
    fn fits_hops() {
        // 60 B of memory at 12 B per hop: hops 0-4 have a window, hop 5 none.
        let t = sample();
        assert_eq!(t.iter_hop_words(4).count(), 3);
        assert_eq!(t.iter_hop_words(5).count(), 0);
    }

    #[test]
    fn bad_version_rejected() {
        let t = sample();
        let mut bytes = t.serialize();
        bytes[0] = (2 << 4) | (bytes[0] & 0x0F);
        // Fix checksum so we specifically hit the version check.
        bytes[6] = 0;
        bytes[7] = 0;
        let c = checksum::checksum(&bytes);
        bytes[6..8].copy_from_slice(&c.to_be_bytes());
        assert_eq!(Tpp::parse(&bytes), Err(TppError::BadVersion(2)));
    }

    #[test]
    fn unaligned_memory_rejected() {
        let t = sample();
        let mut bytes = t.serialize();
        bytes[2] = 13;
        assert!(matches!(
            Tpp::parse(&bytes),
            Err(TppError::UnalignedMemory(13) | TppError::Truncated | TppError::BadChecksum)
        ));
    }
}
