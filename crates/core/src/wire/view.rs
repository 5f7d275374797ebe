//! Borrowed views over a TPP section in wire form — the zero-allocation
//! fast path.
//!
//! # The two-representation design
//!
//! The crate keeps **two** representations of a TPP:
//!
//! * [`Tpp`] — the *owned* form: header fields, a
//!   `Vec<Instruction>` and a `Vec<u8>` of packet memory. This is the
//!   end-host and control-plane representation: builders, the assembler,
//!   static analysis and application-level result extraction all operate on
//!   it, and it remains the reference semantics that differential tests
//!   execute against.
//! * [`TppView`] / [`TppViewMut`] — *borrowed* views directly over the wire
//!   bytes of a frame. A view is validated once ([`TppView::parse`]): shape,
//!   version, word alignment, checksum, and every opcode. After that, header
//!   fields are read straight out of the buffer and instructions are decoded
//!   lazily, four bytes at a time, with no heap allocation anywhere.
//!
//! Switches forward millions of packets and touch only a handful of words
//! per TPP, so the forwarding path uses [`TppViewMut`] to execute programs
//! *in place* in the received frame (see
//! [`execute_in_place`](crate::exec::execute_in_place)): packet-memory
//! words, the SP/hop/flag bytes — and the section checksum is maintained
//! **incrementally** per RFC 1624 ([`checksum::update`]) instead of being
//! recomputed over the whole section. Every mutator on [`TppViewMut`]
//! preserves the checksum invariant, so the section is valid wire format
//! after every single write.
//!
//! A mutator that changes several 16-bit groups (the two halves of a word;
//! SP, flags and hop in [`TppViewMut::complete_hop`]) sums their `!old + new`
//! terms and folds the sum into the field once. That leaves the bytes a
//! [`checksum::update`] per changed group would: an end-around-carry fold
//! maps `0` to `0` and any other value to the one member of `1..=0xFFFF`
//! congruent to it mod `0xFFFF`, so folding a partial sum before adding the
//! rest changes nothing. An unchanged group must add *nothing*, not the
//! `0xFFFF` its term would come to: that is a zero too, but folded into a
//! field of `0xFFFF` it would flip it to `0x0000`. The unit tests run the
//! per-group sequence as their oracle.
//!
//! One deliberate asymmetry: a parse→execute→re-serialize round trip through
//! the owned [`Tpp`] zeroes the reserved bit of byte 0, while the
//! in-place path preserves unknown bits it never touches. Sections produced
//! by [`Tpp::serialize`](super::Tpp::serialize) always carry a zero reserved
//! bit, so the two paths are byte-identical for every frame this stack
//! builds (property-tested in `tests/proptests.rs`).

use super::checksum;
use super::tpp::{AddrMode, Tpp, TppError, HEADER_LEN, VERSION};
use crate::isa::{self, Instruction, INSTR_BYTES};

/// Validated shape of a section: instruction count, memory length, total
/// byte length.
#[derive(Clone, Copy, Debug)]
struct Shape {
    n_instr: usize,
    mem_len: usize,
    total: usize,
}

impl Shape {
    /// Re-derive the shape from the header of already-validated bytes.
    fn of_validated(bytes: &[u8]) -> Shape {
        let n_instr = bytes[1] as usize;
        let mem_len = bytes[2] as usize;
        Shape { n_instr, mem_len, total: HEADER_LEN + n_instr * INSTR_BYTES + mem_len }
    }
}

/// Run the full §3.4 validation a switch performs once per packet: bounds,
/// version, memory alignment, checksum, opcodes.
fn validate(bytes: &[u8]) -> Result<Shape, TppError> {
    if bytes.len() < HEADER_LEN {
        return Err(TppError::Truncated);
    }
    let version = bytes[0] >> 4;
    if version != VERSION {
        return Err(TppError::BadVersion(version));
    }
    let n_instr = bytes[1] as usize;
    let mem_len = bytes[2] as usize;
    if !mem_len.is_multiple_of(4) {
        return Err(TppError::UnalignedMemory(bytes[2]));
    }
    let total = HEADER_LEN + n_instr * INSTR_BYTES + mem_len;
    if bytes.len() < total {
        return Err(TppError::Truncated);
    }
    if !checksum::verify(&bytes[..total]) {
        return Err(TppError::BadChecksum);
    }
    isa::validate_program(&bytes[HEADER_LEN..HEADER_LEN + n_instr * INSTR_BYTES]).map_err(|e| {
        match e {
            isa::ProgramError::BadOpcode { opcode, .. } => TppError::BadInstruction(opcode),
            // Unreachable: the slice length is n_instr * INSTR_BYTES.
            isa::ProgramError::TrailingBytes => TppError::Truncated,
        }
    })?;
    Ok(Shape { n_instr, mem_len, total })
}

macro_rules! view_accessors {
    () => {
        /// Instruction count carried in the header.
        pub fn n_instr(&self) -> usize {
            self.shape.n_instr
        }

        /// Packet-memory length in bytes.
        pub fn mem_len(&self) -> usize {
            self.shape.mem_len
        }

        /// Total serialized length of the section.
        pub fn section_len(&self) -> usize {
            self.shape.total
        }

        /// Memory addressing mode (Figure 7b field 3).
        pub fn mode(&self) -> AddrMode {
            if self.bytes[0] & 0x08 != 0 {
                AddrMode::Hop
            } else {
                AddrMode::Stack
            }
        }

        /// Reflect bit (§4.4).
        pub fn reflect(&self) -> bool {
            self.bytes[0] & 0x04 != 0
        }

        /// Wrote bit: some switch performed a switch-memory write.
        pub fn wrote(&self) -> bool {
            self.bytes[0] & 0x02 != 0
        }

        /// Hop number.
        pub fn hop(&self) -> u8 {
            self.bytes[3]
        }

        /// Stack pointer, in words.
        pub fn sp(&self) -> u8 {
            self.bytes[4]
        }

        /// Per-hop window size in bytes.
        pub fn per_hop_len(&self) -> u8 {
            self.bytes[5]
        }

        /// Per-hop window size in words.
        pub fn per_hop_words(&self) -> usize {
            (self.bytes[5] / 4) as usize
        }

        /// Ethertype of the encapsulated payload; 0 when standalone.
        pub fn encap_proto(&self) -> u16 {
            u16::from_be_bytes([self.bytes[8], self.bytes[9]])
        }

        /// TPP application ID.
        pub fn app_id(&self) -> u16 {
            u16::from_be_bytes([self.bytes[10], self.bytes[11]])
        }

        /// Number of words of packet memory.
        pub fn memory_words(&self) -> usize {
            self.shape.mem_len / 4
        }

        /// Decode instruction `i` (validated at parse; decoding cannot fail).
        pub fn instr(&self, i: usize) -> Instruction {
            debug_assert!(i < self.shape.n_instr);
            let off = HEADER_LEN + i * INSTR_BYTES;
            Instruction::decode([
                self.bytes[off],
                self.bytes[off + 1],
                self.bytes[off + 2],
                self.bytes[off + 3],
            ])
            .expect("opcodes validated at parse")
        }

        /// Iterate the program without allocating.
        pub fn instrs(&self) -> impl Iterator<Item = Instruction> + '_ {
            (0..self.shape.n_instr).map(move |i| self.instr(i))
        }

        /// Byte offset of packet-memory word `idx` within the section.
        fn word_off(&self, idx: usize) -> usize {
            HEADER_LEN + self.shape.n_instr * INSTR_BYTES + idx * 4
        }

        /// Read packet-memory word `idx`. `None` when out of bounds.
        pub fn read_word(&self, idx: usize) -> Option<u32> {
            if idx >= self.memory_words() {
                return None;
            }
            let o = self.word_off(idx);
            Some(u32::from_be_bytes([
                self.bytes[o],
                self.bytes[o + 1],
                self.bytes[o + 2],
                self.bytes[o + 3],
            ]))
        }

        /// Absolute word index of hop-relative `offset` for the current hop.
        pub fn hop_word_index(&self, offset: u8) -> usize {
            self.hop() as usize * self.per_hop_words() + offset as usize
        }

        /// Read the word at hop-relative `offset` for the current hop.
        pub fn read_hop_word(&self, offset: u8) -> Option<u32> {
            self.read_word(self.hop_word_index(offset))
        }

        /// The raw section bytes (exactly [`Self::section_len`] long).
        pub fn as_bytes(&self) -> &[u8] {
            &self.bytes
        }

        /// The packet-memory bytes.
        pub fn memory(&self) -> &[u8] {
            &self.bytes[self.word_off(0)..self.shape.total]
        }

        /// Materialize the owned control-plane representation. Allocates;
        /// not for the forwarding path.
        pub fn to_tpp(&self) -> Tpp {
            Tpp {
                mode: self.mode(),
                reflect: self.reflect(),
                wrote: self.wrote(),
                hop: self.hop(),
                sp: self.sp(),
                per_hop_len: self.per_hop_len(),
                encap_proto: self.encap_proto(),
                app_id: self.app_id(),
                instrs: self.instrs().collect(),
                memory: self.memory().to_vec(),
            }
        }
    };
}

/// A read-only, validated view of a TPP section in wire form.
#[derive(Clone, Copy, Debug)]
pub struct TppView<'a> {
    bytes: &'a [u8],
    shape: Shape,
}

impl<'a> TppView<'a> {
    /// Validate a TPP section at the front of `bytes` (checksum and opcodes
    /// included). Returns the view and the number of bytes it covers; any
    /// remaining bytes are the encapsulated payload.
    pub fn parse(bytes: &'a [u8]) -> Result<(TppView<'a>, usize), TppError> {
        let shape = validate(bytes)?;
        Ok((TppView { bytes: &bytes[..shape.total], shape }, shape.total))
    }

    view_accessors!();
}

/// What replacing the 16-bit group `old` by `new` adds to the ones'-complement
/// sum a section's checksum field complements (RFC 1624 eqn. 3): `!old + new`,
/// and nothing when the group does not change.
fn term(old: u16, new: u16) -> u32 {
    if old == new {
        0
    } else {
        u32::from(!old) + u32::from(new)
    }
}

/// A mutable, validated view of a TPP section in wire form.
///
/// Every mutator maintains the section checksum incrementally (RFC 1624, as
/// [`checksum::update`] does), so the buffer holds a valid section after each
/// write — no re-serialization step exists on this path.
#[derive(Debug)]
pub struct TppViewMut<'a> {
    bytes: &'a mut [u8],
    shape: Shape,
}

impl<'a> TppViewMut<'a> {
    /// Validate a TPP section at the front of `bytes`; see
    /// [`TppView::parse`].
    pub fn parse(bytes: &'a mut [u8]) -> Result<(TppViewMut<'a>, usize), TppError> {
        let shape = validate(bytes)?;
        let total = shape.total;
        Ok((TppViewMut { bytes: &mut bytes[..total], shape }, total))
    }

    /// Re-open a section that was already validated by [`TppViewMut::parse`]
    /// (or [`TppView::parse`]) and has only been mutated through a view
    /// since. Skips the O(section) checksum/opcode validation; the caller
    /// guarantees the bytes still start with that validated section.
    pub fn from_validated(bytes: &'a mut [u8]) -> TppViewMut<'a> {
        let shape = Shape::of_validated(bytes);
        debug_assert!(bytes.len() >= shape.total, "validated TPP section truncated");
        debug_assert!(checksum::verify(&bytes[..shape.total]), "validated TPP checksum broken");
        let total = shape.total;
        TppViewMut { bytes: &mut bytes[..total], shape }
    }

    view_accessors!();

    /// Downgrade to a read-only view.
    pub fn as_view(&self) -> TppView<'_> {
        TppView { bytes: self.bytes, shape: self.shape }
    }

    /// Replace the 16-bit group at even offset `off` and return its
    /// [`term`] for [`Self::fold`].
    fn put16(&mut self, off: usize, new: u16) -> u32 {
        debug_assert!(off.is_multiple_of(2) && off != 6);
        let old = u16::from_be_bytes([self.bytes[off], self.bytes[off + 1]]);
        self.bytes[off..off + 2].copy_from_slice(&new.to_be_bytes());
        term(old, new)
    }

    /// Fold the summed [`Self::put16`] terms of one mutator into the
    /// checksum field (bytes 6-7): one end-around-carry fold however many
    /// groups changed. The result is the field a [`checksum::update`] per
    /// changed group would leave (see the module docs); a zero `delta`
    /// leaves the field alone.
    fn fold(&mut self, delta: u32) {
        if delta == 0 {
            return;
        }
        let check = u16::from_be_bytes([self.bytes[6], self.bytes[7]]);
        let mut acc = u32::from(!check) + delta;
        while acc > 0xFFFF {
            acc = (acc & 0xFFFF) + (acc >> 16);
        }
        self.bytes[6..8].copy_from_slice(&(!(acc as u16)).to_be_bytes());
    }

    /// Set the hop counter.
    pub fn set_hop(&mut self, hop: u8) {
        let delta = self.put16(2, u16::from_be_bytes([self.bytes[2], hop]));
        self.fold(delta);
    }

    /// Set the stack pointer.
    pub fn set_sp(&mut self, sp: u8) {
        let delta = self.put16(4, u16::from_be_bytes([sp, self.bytes[5]]));
        self.fold(delta);
    }

    /// Set the wrote flag (bit 1 of byte 0).
    pub fn set_wrote(&mut self, wrote: bool) {
        let delta = self.put16(0, self.group0(wrote));
        self.fold(delta);
    }

    /// Bytes 0-1 with the wrote flag set to `wrote`.
    fn group0(&self, wrote: bool) -> u16 {
        let b0 = if wrote { self.bytes[0] | 0x02 } else { self.bytes[0] & !0x02 };
        u16::from_be_bytes([b0, self.bytes[1]])
    }

    /// What a switch leaves in the header when a TPP has run: the final SP,
    /// the wrote flag raised if `wrote` (never lowered), the hop counter set
    /// to `hop` if given. [`Self::set_sp`], [`Self::set_wrote`] and
    /// [`Self::set_hop`] in one checksum fold.
    pub fn complete_hop(&mut self, sp: u8, wrote: bool, hop: Option<u8>) {
        let mut delta = self.put16(4, u16::from_be_bytes([sp, self.bytes[5]]));
        if wrote {
            delta += self.put16(0, self.group0(true));
        }
        if let Some(hop) = hop {
            delta += self.put16(2, u16::from_be_bytes([self.bytes[2], hop]));
        }
        self.fold(delta);
    }

    /// Write packet-memory word `idx`. Returns `None` (buffer untouched)
    /// when out of bounds.
    pub fn write_word(&mut self, idx: usize, value: u32) -> Option<()> {
        if idx >= self.memory_words() {
            return None;
        }
        let o = self.word_off(idx);
        let word: &mut [u8; 4] = (&mut self.bytes[o..o + 4]).try_into().expect("a 4-byte slice");
        let old = u32::from_be_bytes(*word);
        *word = value.to_be_bytes();
        self.fold(term((old >> 16) as u16, (value >> 16) as u16) + term(old as u16, value as u16));
        Some(())
    }

    /// Write the word at hop-relative `offset` for the current hop.
    pub fn write_hop_word(&mut self, offset: u8, value: u32) -> Option<()> {
        self.write_word(self.hop_word_index(offset), value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::resolve_mnemonic;
    use crate::wire::checksum;

    fn sample() -> Tpp {
        Tpp {
            mode: AddrMode::Hop,
            reflect: true,
            wrote: false,
            hop: 2,
            sp: 1,
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
    fn view_matches_owned_parse() {
        let t = sample();
        let mut bytes = t.serialize();
        bytes.extend_from_slice(b"inner payload");
        let (view, consumed) = TppView::parse(&bytes).unwrap();
        assert_eq!(consumed, t.section_len());
        assert_eq!(view.mode(), t.mode);
        assert_eq!(view.reflect(), t.reflect);
        assert_eq!(view.wrote(), t.wrote);
        assert_eq!(view.hop(), t.hop);
        assert_eq!(view.sp(), t.sp);
        assert_eq!(view.per_hop_len(), t.per_hop_len);
        assert_eq!(view.encap_proto(), t.encap_proto);
        assert_eq!(view.app_id(), t.app_id);
        assert_eq!(view.n_instr(), t.instrs.len());
        assert_eq!(view.instrs().collect::<Vec<_>>(), t.instrs);
        assert_eq!(view.memory(), &t.memory[..]);
        assert_eq!(view.to_tpp(), t);
    }

    #[test]
    fn view_rejects_what_parse_rejects() {
        let t = sample();
        let bytes = t.serialize();
        for cut in [0, 5, HEADER_LEN, bytes.len() - 1] {
            assert_eq!(TppView::parse(&bytes[..cut]).unwrap_err(), TppError::Truncated);
        }
        let mut corrupt = bytes.clone();
        corrupt[HEADER_LEN] ^= 0xFF;
        assert!(TppView::parse(&corrupt).is_err());
        // Errors match the owned parser on the same inputs.
        for byte in [0usize, 1, 2, HEADER_LEN, bytes.len() - 1] {
            let mut m = bytes.clone();
            m[byte] ^= 0x11;
            assert_eq!(TppView::parse(&m).err(), Tpp::parse(&m).err(), "byte {byte}");
        }
    }

    #[test]
    fn mutators_keep_checksum_valid_and_match_reserialize() {
        let t = sample();
        let mut bytes = t.serialize();
        {
            let (mut v, _) = TppViewMut::parse(&mut bytes).unwrap();
            v.set_hop(3);
            v.set_sp(4);
            v.set_wrote(true);
            v.write_word(0, 0xDEAD_BEEF).unwrap();
            v.write_hop_word(1, 77).unwrap();
            assert_eq!(v.write_word(15, 1), None);
        }
        assert!(checksum::verify(&bytes));
        // The same mutations through the owned representation re-serialize
        // to identical bytes.
        let mut owned = t.clone();
        owned.hop = 3;
        owned.sp = 4;
        owned.wrote = true;
        owned.write_word(0, 0xDEAD_BEEF).unwrap();
        owned.write_hop_word(1, 77).unwrap();
        assert_eq!(bytes, owned.serialize());
        // And the view parses back to the mutated owned form.
        let (view, _) = TppView::parse(&bytes).unwrap();
        assert_eq!(view.to_tpp(), owned);
    }

    #[test]
    fn incremental_checksum_survives_many_writes() {
        let t = sample();
        let mut bytes = t.serialize();
        let (mut v, _) = TppViewMut::parse(&mut bytes).unwrap();
        let words = v.memory_words();
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        for i in 0..words * 8 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            v.write_word(i % words, (x >> 32) as u32).unwrap();
            v.set_hop((x >> 16) as u8);
            v.set_sp((x >> 8) as u8);
        }
        assert!(checksum::verify(v.as_bytes()));
        // Identical to a from-scratch re-serialization of the same state.
        let owned = v.as_view().to_tpp();
        assert_eq!(v.as_bytes(), &owned.serialize()[..]);
    }

    /// The mutators as they were before they folded once: one
    /// [`checksum::update`] per changed 16-bit group. The oracle of
    /// `one_fold_equals_an_update_per_group`.
    fn upd16_oracle(bytes: &mut [u8], off: usize, new: [u8; 2]) {
        let old = [bytes[off], bytes[off + 1]];
        if old == new {
            return;
        }
        bytes[off..off + 2].copy_from_slice(&new);
        let c = u16::from_be_bytes([bytes[6], bytes[7]]);
        let c = checksum::update(c, u16::from_be_bytes(old), u16::from_be_bytes(new));
        bytes[6..8].copy_from_slice(&c.to_be_bytes());
    }

    fn set_hop_oracle(bytes: &mut [u8], hop: u8) {
        upd16_oracle(bytes, 2, [bytes[2], hop]);
    }

    fn set_sp_oracle(bytes: &mut [u8], sp: u8) {
        upd16_oracle(bytes, 4, [sp, bytes[5]]);
    }

    fn set_wrote_oracle(bytes: &mut [u8], wrote: bool) {
        let b0 = if wrote { bytes[0] | 0x02 } else { bytes[0] & !0x02 };
        upd16_oracle(bytes, 0, [b0, bytes[1]]);
    }

    #[test]
    fn one_fold_equals_an_update_per_group() {
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut rand = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mem_off = HEADER_LEN + sample().instrs.len() * INSTR_BYTES;
        let mut zero_fields = 0;
        for case in 0..600 {
            let mut t = sample();
            for b in &mut t.memory {
                *b = rand() as u8;
            }
            (t.hop, t.sp, t.wrote) = (rand() as u8, rand() as u8, rand() & 1 == 0);
            let mut bytes = t.serialize();
            // Every third case: bend the last memory group so that the data
            // sums to 0xFFFF, where the field may read 0x0000 or 0xFFFF (the
            // two zeros; both verify) and a fold of a zero delta would show.
            if case % 3 != 0 {
                let last = bytes.len() - 2;
                bytes[6..8].fill(0);
                bytes[last..].fill(0);
                let s = checksum::sum(&bytes);
                bytes[last..].copy_from_slice(&(!s).to_be_bytes());
                let field = if case % 3 == 1 { 0x0000u16 } else { 0xFFFF };
                bytes[6..8].copy_from_slice(&field.to_be_bytes());
                zero_fields += 1;
            }
            assert!(checksum::verify(&bytes), "case {case}: the section under test is valid");
            let mut oracle = bytes.clone();
            let words = t.memory.len() / 4;

            for step in 0..40 {
                let r = rand();
                let mut v = TppViewMut::from_validated(&mut bytes);
                match r % 5 {
                    0 | 1 => {
                        // A word with none, the high, the low or both of its
                        // halves equal to what is there.
                        let idx = (r >> 8) as usize % words;
                        let old = v.read_word(idx).unwrap();
                        let fresh = (r >> 32) as u32;
                        let value = match (r >> 4) % 4 {
                            0 => fresh,
                            1 => (old & 0xFFFF_0000) | (fresh & 0xFFFF),
                            2 => (fresh & 0xFFFF_0000) | (old & 0xFFFF),
                            _ => old,
                        };
                        v.write_word(idx, value).unwrap();
                        let o = mem_off + idx * 4;
                        let b = value.to_be_bytes();
                        upd16_oracle(&mut oracle, o, [b[0], b[1]]);
                        upd16_oracle(&mut oracle, o + 2, [b[2], b[3]]);
                    }
                    2 => {
                        // SP, wrote and hop, each sometimes what is there.
                        let sp = if r & 0x100 == 0 { v.sp() } else { (r >> 16) as u8 };
                        let wrote = r & 0x200 == 0;
                        let hop = match (r >> 10) % 3 {
                            0 => None,
                            1 => Some(v.hop()),
                            _ => Some((r >> 24) as u8),
                        };
                        v.complete_hop(sp, wrote, hop);
                        // `TppRun::finish` as it was: three mutators.
                        set_sp_oracle(&mut oracle, sp);
                        if wrote {
                            set_wrote_oracle(&mut oracle, true);
                        }
                        if let Some(hop) = hop {
                            set_hop_oracle(&mut oracle, hop);
                        }
                    }
                    3 => {
                        v.set_hop((r >> 8) as u8);
                        set_hop_oracle(&mut oracle, (r >> 8) as u8);
                    }
                    _ => {
                        let wrote = r & 0x100 == 0;
                        v.set_wrote(wrote);
                        set_wrote_oracle(&mut oracle, wrote);
                        v.set_sp((r >> 16) as u8);
                        set_sp_oracle(&mut oracle, (r >> 16) as u8);
                    }
                }
                assert_eq!(bytes, oracle, "case {case} step {step} (r = {r:#x})");
                assert!(checksum::verify(&bytes), "case {case} step {step} (r = {r:#x})");
            }
        }
        assert_eq!(zero_fields, 400);
    }

    #[test]
    fn from_validated_reopens_section() {
        let t = sample();
        let mut bytes = t.serialize();
        let total = {
            let (mut v, total) = TppViewMut::parse(&mut bytes).unwrap();
            v.write_word(1, 42).unwrap();
            total
        };
        let v = TppViewMut::from_validated(&mut bytes);
        assert_eq!(v.section_len(), total);
        assert_eq!(v.read_word(1), Some(42));
    }
}
