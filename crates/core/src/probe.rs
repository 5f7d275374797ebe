//! Schema-driven probe programs and typed per-hop decoding.
//!
//! The paper's pitch is that end-host *software* defines what to measure
//! and the dataplane merely executes five instructions (§2, §4). A
//! [`Probe`] is that definition made first-class: an ordered list of named
//! fields bound to memory-mapped statistics, which
//!
//! * **compiles** ([`Probe::compile`]) to a validated [`Tpp`] — program plus
//!   packet-memory layout — through the existing [`TppBuilder`], with
//!   capacity checked against the wire constants
//!   ([`MAX_MEMORY_BYTES`],
//!   [`max_hops`]) instead of ad-hoc arithmetic; and
//! * **decodes** ([`Probe::records`]) a completed TPP (owned [`Tpp`],
//!   borrowed [`TppView`] or owned section [`TppBuf`]) into an iterator of
//!   per-hop records with field access by name or index — no hand-indexed
//!   `memory[4 * i..]` slicing.
//!
//! Collect fields compile to `PUSH` (one word per field per hop, stack
//! discipline); write fields (`store`/`cstore`/`cexec`) compile to
//! hop-window-addressed instructions whose operand words are filled in with
//! [`Probe::set_args`]. The two families cannot be mixed in one probe: a
//! probe either *collects* state or *updates* it, mirroring how every
//! application in the paper is structured.
//!
//! ```
//! use tpp_core::probe::Probe;
//!
//! // The §2.1 micro-burst probe: three statistics per hop.
//! let probe = Probe::stack("microburst")
//!     .field("switch", "Switch:SwitchID")
//!     .field("port", "PacketMetadata:OutputPort")
//!     .field("q", "Queue:QueueOccupancyPkts")
//!     .hops(8);
//! let tpp = probe.compile().unwrap();
//! assert_eq!(tpp.instrs.len(), 3);
//! assert_eq!(tpp.memory.len(), 8 * 3 * 4);
//!
//! // After the network executed it, read it back typed:
//! let mut done = tpp;
//! done.hop = 1;
//! done.sp = 3; // one hop pushed 3 words
//! done.write_word(0, 4).unwrap();
//! done.write_word(1, 2).unwrap();
//! done.write_word(2, 17).unwrap();
//! let rec = probe.records(&done).next().unwrap();
//! assert_eq!(rec.get("switch"), Some(4));
//! assert_eq!(rec.get("q"), Some(17));
//! ```

use crate::addr::{resolve_mnemonic, Address};
use crate::asm::{AsmError, TppBuilder};
use crate::isa::MAX_INSTRUCTIONS;
use crate::wire::tpp::HEADER_LEN;
use crate::wire::{max_hops, AddrMode, Tpp, TppBuf, TppView, MAX_MEMORY_BYTES};
use core::fmt;

/// Errors from compiling or using a [`Probe`] schema.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProbeError {
    /// `(field name, resolution error)` — the mnemonic did not resolve.
    BadAddress(String, String),
    NoFields,
    TooManyFields(usize),
    DuplicateField(String),
    /// Collect fields cannot be mixed with store/cstore/cexec fields.
    MixedKinds,
    /// Write fields require hop addressing (`Probe::hop`).
    WritesNeedHopMode,
    /// A cstore/cexec operand slot fell outside the 4-bit operand encoding.
    OperandOutOfRange(String),
    /// The requested hop count does not fit in the wire memory budget.
    TooManyHops {
        requested: usize,
        max: usize,
    },
    /// `pad_section_to` target smaller than header + program + one word.
    SectionTooSmall(usize),
    UnknownField(String),
    /// `(field name, expected slots, provided values)`.
    WrongArity(String, usize, usize),
    /// An underlying assembler/builder error (should be pre-empted by the
    /// checks above; kept for totality).
    Asm(String),
    /// The compiled program was rejected by the static verifier
    /// ([`crate::verify::verify`]); carries the deny-class diagnostics.
    Verify(Vec<crate::verify::Diagnostic>),
}

impl fmt::Display for ProbeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProbeError::BadAddress(name, e) => write!(f, "field {name}: {e}"),
            ProbeError::NoFields => write!(f, "probe has no fields"),
            ProbeError::TooManyFields(n) => {
                write!(f, "{n} fields exceed the {MAX_INSTRUCTIONS}-instruction budget")
            }
            ProbeError::DuplicateField(n) => write!(f, "duplicate field {n}"),
            ProbeError::MixedKinds => {
                write!(f, "collect fields cannot be mixed with write fields")
            }
            ProbeError::WritesNeedHopMode => {
                write!(f, "store/cstore/cexec fields require Probe::hop")
            }
            ProbeError::OperandOutOfRange(n) => {
                write!(f, "field {n}: operand slot exceeds the 4-bit encoding")
            }
            ProbeError::TooManyHops { requested, max } => {
                write!(f, "{requested} hops exceed the {max}-hop wire capacity")
            }
            ProbeError::SectionTooSmall(n) => write!(f, "{n}-byte section cannot hold the probe"),
            ProbeError::UnknownField(n) => write!(f, "no field named {n}"),
            ProbeError::WrongArity(n, want, got) => {
                write!(f, "field {n} takes {want} value(s), got {got}")
            }
            ProbeError::Asm(e) => write!(f, "assembly failed: {e}"),
            ProbeError::Verify(diags) => {
                write!(f, "verifier rejected the probe: ")?;
                for (i, d) in diags.iter().enumerate() {
                    if i > 0 {
                        write!(f, "; ")?;
                    }
                    write!(f, "{d}")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for ProbeError {}

/// How a field participates in the program.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FieldKind {
    /// `PUSH [addr]` — one collected word per hop.
    Collect,
    /// `STORE [addr], [Packet:Hop[off]]` — one argument word per hop.
    Store,
    /// `CSTORE [addr], [Packet:Hop[off]], [Packet:Hop[off+1]]` — two
    /// argument words per hop (expected, new); the observed old value is
    /// written back into the first slot (§3.3.3).
    CStore,
    /// `CEXEC [addr], [Packet:Hop[off]], [Packet:Hop[off+1]]` — two
    /// argument words per hop (mask, value) gating later instructions.
    CExec,
}

impl FieldKind {
    /// Packet-memory words this field occupies per hop.
    pub fn slots(self) -> usize {
        match self {
            FieldKind::Collect | FieldKind::Store => 1,
            FieldKind::CStore | FieldKind::CExec => 2,
        }
    }
}

/// One named, typed field of a probe schema.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Field {
    pub name: String,
    pub addr: Address,
    pub kind: FieldKind,
    /// First word offset of this field within the per-hop window.
    pub offset: usize,
}

/// Parse a `[Namespace:Statistic]`, `Namespace:Statistic`, or `[0x....]`
/// address spec.
fn parse_spec(spec: &str) -> Result<Address, String> {
    let inner = spec.strip_prefix('[').and_then(|s| s.strip_suffix(']')).unwrap_or(spec);
    if let Some(hex) = inner.strip_prefix("0x").or_else(|| inner.strip_prefix("0X")) {
        return u16::from_str_radix(hex, 16)
            .map(Address::new)
            .map_err(|_| format!("bad hex address {inner}"));
    }
    resolve_mnemonic(inner).map_err(|e| e.to_string())
}

/// A typed probe schema: what to measure (or update), per hop, by name.
///
/// See the [module docs](self) for the collect flavour. A write probe — the
/// paper's §2.2 RCP* versioned rate update — looks like this:
///
/// ```
/// use tpp_core::probe::Probe;
///
/// let update = Probe::hop("rcp-update")
///     .cstore("version", "Link:AppSpecific_0") // (expected, new) per hop
///     .store("rate", "Link:AppSpecific_1"); //    (kb/s) per hop
/// let mut tpp = update.compile_hops(2).unwrap();
/// update.set_args(&mut tpp, 0, "version", &[10, 11]).unwrap();
/// update.set_args(&mut tpp, 0, "rate", &[5000]).unwrap();
/// assert_eq!(tpp.per_hop_len, 12); // 3 words per hop
/// assert_eq!(tpp.read_word(2), Some(5000));
/// ```
#[derive(Clone, Debug)]
pub struct Probe {
    name: String,
    mode: AddrMode,
    app_id: u16,
    hops: usize,
    pad_to: Option<usize>,
    fields: Vec<Field>,
    words_per_hop: usize,
    err: Option<ProbeError>,
}

impl Probe {
    fn new(name: &str, mode: AddrMode) -> Probe {
        Probe {
            name: name.to_string(),
            mode,
            app_id: 0,
            hops: 8,
            pad_to: None,
            fields: Vec::new(),
            words_per_hop: 0,
            err: None,
        }
    }

    /// A stack-addressed probe (collect fields compile to `PUSH`).
    pub fn stack(name: &str) -> Probe {
        Probe::new(name, AddrMode::Stack)
    }

    /// A hop-addressed probe: the wire header carries the per-hop window
    /// size, and write fields address words within the current hop's window.
    pub fn hop(name: &str) -> Probe {
        Probe::new(name, AddrMode::Hop)
    }

    fn add_field(mut self, name: &str, spec: &str, kind: FieldKind) -> Self {
        if self.err.is_some() {
            return self;
        }
        if self.fields.iter().any(|f| f.name == name) {
            self.err = Some(ProbeError::DuplicateField(name.to_string()));
            return self;
        }
        match parse_spec(spec) {
            Ok(addr) => {
                let offset = self.words_per_hop;
                self.words_per_hop += kind.slots();
                self.fields.push(Field { name: name.to_string(), addr, kind, offset });
            }
            Err(e) => self.err = Some(ProbeError::BadAddress(name.to_string(), e)),
        }
        self
    }

    /// Add a collect field: one word of `spec` per hop.
    #[must_use]
    pub fn field(self, name: &str, spec: &str) -> Self {
        self.add_field(name, spec, FieldKind::Collect)
    }

    /// Add a `STORE` field: writes one argument word per hop to `spec`.
    #[must_use]
    pub fn store(self, name: &str, spec: &str) -> Self {
        self.add_field(name, spec, FieldKind::Store)
    }

    /// Add a `CSTORE` field: versioned compare-and-swap against `spec`.
    #[must_use]
    pub fn cstore(self, name: &str, spec: &str) -> Self {
        self.add_field(name, spec, FieldKind::CStore)
    }

    /// Add a `CEXEC` field: gate subsequent instructions on `spec`.
    #[must_use]
    pub fn cexec(self, name: &str, spec: &str) -> Self {
        self.add_field(name, spec, FieldKind::CExec)
    }

    /// TPP application ID stamped into compiled programs (§4.1).
    #[must_use]
    pub fn app_id(mut self, id: u16) -> Self {
        self.app_id = id;
        self
    }

    /// Preallocate memory for `n` hops (default 8). Compilation fails when
    /// `n` exceeds [`Probe::max_hops`].
    #[must_use]
    pub fn hops(mut self, n: usize) -> Self {
        self.hops = n;
        self
    }

    /// Pad packet memory so the wire section is `bytes` long (overrides
    /// [`Probe::hops`]); used by the §6.2 overhead experiments.
    ///
    /// The section is exactly `bytes` when the target is word-aligned and
    /// within the wire budget; otherwise the memory rounds *down* to the
    /// next word boundary and clamps at [`MAX_MEMORY_BYTES`]. Targets too
    /// small to hold the header, program, and one memory word fail
    /// compilation with [`ProbeError::SectionTooSmall`].
    #[must_use]
    pub fn pad_section_to(mut self, bytes: usize) -> Self {
        self.pad_to = Some(bytes);
        self
    }

    /// The schema's name (diagnostics only).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Packet-memory words each hop occupies.
    pub fn words_per_hop(&self) -> usize {
        self.words_per_hop
    }

    /// Most hops this schema can record within the wire memory budget
    /// ([`MAX_MEMORY_BYTES`]).
    pub fn max_hops(&self) -> usize {
        max_hops(self.words_per_hop * 4)
    }

    /// The schema's fields, in declaration (= layout) order.
    pub fn fields(&self) -> &[Field] {
        &self.fields
    }

    /// Resolve a field name to its declaration index — hoist this out of
    /// per-hop decode loops and read via [`HopRecord::at`] when decoding
    /// one record per received packet.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.fields.iter().position(|f| f.name == name)
    }

    fn field_named(&self, name: &str) -> Result<&Field, ProbeError> {
        self.fields
            .iter()
            .find(|f| f.name == name)
            .ok_or_else(|| ProbeError::UnknownField(name.to_string()))
    }

    fn has_collect(&self) -> bool {
        self.fields.iter().any(|f| f.kind == FieldKind::Collect)
    }

    /// Compile to a validated [`Tpp`] sized for [`Probe::hops`] hops.
    pub fn compile(&self) -> Result<Tpp, ProbeError> {
        self.compile_hops(self.hops)
    }

    /// Compile for an explicit hop count (e.g. one slot per pending update).
    pub fn compile_hops(&self, hops: usize) -> Result<Tpp, ProbeError> {
        if let Some(e) = &self.err {
            return Err(e.clone());
        }
        if self.fields.is_empty() {
            return Err(ProbeError::NoFields);
        }
        if self.fields.len() > MAX_INSTRUCTIONS {
            return Err(ProbeError::TooManyFields(self.fields.len()));
        }
        let has_collect = self.has_collect();
        let has_writes = self.fields.iter().any(|f| f.kind != FieldKind::Collect);
        if has_collect && has_writes {
            return Err(ProbeError::MixedKinds);
        }
        if has_writes && self.mode == AddrMode::Stack {
            return Err(ProbeError::WritesNeedHopMode);
        }
        for f in &self.fields {
            if f.kind != FieldKind::Collect && f.offset + f.kind.slots() > 16 {
                return Err(ProbeError::OperandOutOfRange(f.name.clone()));
            }
        }
        if self.pad_to.is_none() && hops > self.max_hops() {
            return Err(ProbeError::TooManyHops { requested: hops, max: self.max_hops() });
        }

        let mut b = match self.mode {
            AddrMode::Stack => TppBuilder::stack_mode(),
            AddrMode::Hop => TppBuilder::hop_mode(self.words_per_hop as u8),
        };
        b = b.app_id(self.app_id);
        for f in &self.fields {
            let off = f.offset as u8;
            b = match f.kind {
                FieldKind::Collect => b.push(f.addr),
                FieldKind::Store => b.store(f.addr, off),
                FieldKind::CStore => b.cstore(f.addr, off, off + 1),
                FieldKind::CExec => b.cexec(f.addr, off, off + 1),
            };
        }
        b = match self.pad_to {
            Some(bytes) => {
                let overhead = HEADER_LEN + self.fields.len() * crate::isa::INSTR_BYTES;
                if bytes < overhead + 4 {
                    return Err(ProbeError::SectionTooSmall(bytes));
                }
                let mem = ((bytes - overhead) & !3).min(MAX_MEMORY_BYTES);
                b.memory_words(mem / 4)
            }
            None => b.hops(hops),
        };
        let tpp = b.build().map_err(|e: AsmError| ProbeError::Asm(e.to_string()))?;

        // Every compiled probe is vetted at load time: the abstract
        // interpreter must accept the program for the declared hop budget
        // (or, with `pad_section_to`, for whatever hop count the padded
        // memory supports).
        let opts = crate::verify::VerifyOptions {
            hops: if self.pad_to.is_none() { Some(hops) } else { None },
            segments: None,
        };
        let verdict = crate::verify::verify(&tpp, opts);
        if !verdict.passed() {
            return Err(ProbeError::Verify(verdict.denials().cloned().collect()));
        }
        Ok(tpp)
    }

    /// Fill the argument slot(s) of write field `name` for `hop`.
    /// `values.len()` must equal the field's slot count
    /// ([`FieldKind::slots`]).
    pub fn set_args(
        &self,
        tpp: &mut Tpp,
        hop: usize,
        name: &str,
        values: &[u32],
    ) -> Result<(), ProbeError> {
        let f = self.field_named(name)?;
        if values.len() != f.kind.slots() {
            return Err(ProbeError::WrongArity(name.to_string(), f.kind.slots(), values.len()));
        }
        for (i, &v) in values.iter().enumerate() {
            let idx = hop * self.words_per_hop + f.offset + i;
            tpp.write_word(idx, v).ok_or(ProbeError::TooManyHops {
                requested: hop + 1,
                max: tpp.memory_words() / self.words_per_hop.max(1),
            })?;
        }
        Ok(())
    }

    /// How many hops of `t` actually executed, per this schema's layout:
    /// stack discipline (`sp / words_per_hop`) when the probe collects,
    /// the hop counter otherwise — both capped by memory capacity.
    pub fn executed_hops<T: TppData + ?Sized>(&self, t: &T) -> usize {
        let k = self.words_per_hop.max(1);
        let cap = t.memory().len() / 4 / k;
        if self.has_collect() {
            (t.sp() as usize / k).min(cap)
        } else {
            (t.hop() as usize).min(cap)
        }
    }

    /// Iterate the per-hop records of a completed TPP — works on any
    /// [`TppData`]: the owned [`Tpp`], a borrowed [`TppView`] or a
    /// [`TppBuf`]. The records read the packet memory as one byte slice,
    /// located once here, so a word costs the same whichever form holds it.
    pub fn records<'a, T: TppData + ?Sized>(&'a self, t: &'a T) -> Records<'a> {
        Records { probe: self, memory: t.memory(), hops: self.executed_hops(t), next: 0 }
    }
}

/// Read access to a completed TPP's header and packet memory — implemented
/// by the owned [`Tpp`], the borrowed [`TppView`] and the owned section
/// [`TppBuf`].
pub trait TppData {
    fn sp(&self) -> u8;
    fn hop(&self) -> u8;
    /// The packet-memory bytes.
    fn memory(&self) -> &[u8];
}

impl TppData for Tpp {
    fn sp(&self) -> u8 {
        self.sp
    }
    fn hop(&self) -> u8 {
        self.hop
    }
    fn memory(&self) -> &[u8] {
        &self.memory
    }
}

impl TppData for TppView<'_> {
    fn sp(&self) -> u8 {
        TppView::sp(self)
    }
    fn hop(&self) -> u8 {
        TppView::hop(self)
    }
    fn memory(&self) -> &[u8] {
        TppView::memory(self)
    }
}

impl TppData for TppBuf {
    fn sp(&self) -> u8 {
        TppBuf::sp(self)
    }
    fn hop(&self) -> u8 {
        TppBuf::hop(self)
    }
    fn memory(&self) -> &[u8] {
        TppBuf::memory(self)
    }
}

/// Iterator over the executed hops of a completed TPP (see
/// [`Probe::records`]).
pub struct Records<'a> {
    probe: &'a Probe,
    memory: &'a [u8],
    hops: usize,
    next: usize,
}

impl<'a> Iterator for Records<'a> {
    type Item = HopRecord<'a>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.next >= self.hops {
            return None;
        }
        let hop = self.next;
        self.next += 1;
        Some(HopRecord { probe: self.probe, memory: self.memory, hop })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.hops - self.next;
        (n, Some(n))
    }
}

impl ExactSizeIterator for Records<'_> {}

/// One hop's worth of typed values from a completed TPP.
pub struct HopRecord<'a> {
    probe: &'a Probe,
    memory: &'a [u8],
    hop: usize,
}

impl HopRecord<'_> {
    /// The value of field `name` (its first slot) at this hop.
    pub fn get(&self, name: &str) -> Option<u32> {
        let f = self.probe.field_named(name).ok()?;
        self.word(f.offset)
    }

    /// The value of the `idx`-th declared field (its first slot).
    pub fn at(&self, idx: usize) -> Option<u32> {
        let f = self.probe.fields().get(idx)?;
        self.word(f.offset)
    }

    fn word(&self, offset: usize) -> Option<u32> {
        let at = 4 * (self.hop * self.probe.words_per_hop() + offset);
        let b = self.memory.get(at..at + 4)?;
        Some(u32::from_be_bytes([b[0], b[1], b[2], b[3]]))
    }
}

impl fmt::Debug for HopRecord<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut d = f.debug_struct("HopRecord");
        d.field("hop", &self.hop);
        for field in self.probe.fields() {
            d.field(&field.name, &self.word(field.offset));
        }
        d.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble;
    use crate::exec::{execute, ExecOptions, MapBus};

    fn microburst() -> Probe {
        Probe::stack("microburst")
            .field("switch", "Switch:SwitchID")
            .field("port", "PacketMetadata:OutputPort")
            .field("q", "Queue:QueueOccupancyPkts")
    }

    #[test]
    fn compiles_identically_to_assembler() {
        let from_probe = microburst().hops(5).compile().unwrap();
        let from_asm = assemble(
            "
            PUSH [Switch:SwitchID]
            PUSH [PacketMetadata:OutputPort]
            PUSH [Queue:QueueOccupancyPkts]
            ",
        )
        .unwrap();
        assert_eq!(from_probe.instrs, from_asm.instrs);
        assert_eq!(from_probe.memory.len(), 5 * 3 * 4);
        // Hop flavour matches the §2.2 collect listing.
        let collect = Probe::hop("rcp-collect")
            .field("switch", "Switch:SwitchID")
            .field("qsize", "Link:QueueSize")
            .field("util", "Link:TX-Utilization")
            .field("version", "Link:AppSpecific_0")
            .field("rate", "Link:AppSpecific_1")
            .hops(5)
            .compile()
            .unwrap();
        assert_eq!(collect.per_hop_len, 20);
        assert_eq!(collect.memory.len(), 100);
        assert_eq!(collect.mode, AddrMode::Hop);
    }

    #[test]
    fn capacity_checks_use_wire_constants() {
        let p = microburst();
        assert_eq!(p.max_hops(), MAX_MEMORY_BYTES / 12);
        assert_eq!(
            p.clone().hops(p.max_hops() + 1).compile(),
            Err(ProbeError::TooManyHops { requested: 22, max: 21 })
        );
        let t = p.clone().hops(p.max_hops()).compile().unwrap();
        assert_eq!(t.memory.len(), 21 * 12);
        assert!(t.memory.len() <= MAX_MEMORY_BYTES);
    }

    #[test]
    fn records_decode_executed_hops() {
        let p = microburst().hops(4);
        let mut t = p.compile().unwrap();
        for hop in 0..3u32 {
            let mut bus = MapBus::with(&[
                (resolve_mnemonic("Switch:SwitchID").unwrap(), 10 + hop),
                (resolve_mnemonic("PacketMetadata:OutputPort").unwrap(), hop),
                (resolve_mnemonic("Queue:QueueOccupancyPkts").unwrap(), 100 + hop),
            ]);
            execute(&mut t, &mut bus, &ExecOptions::default());
        }
        let recs: Vec<_> = p.records(&t).collect();
        assert_eq!(recs.len(), 3);
        for (h, r) in recs.iter().enumerate() {
            assert_eq!(r.get("switch"), Some(10 + h as u32));
            assert_eq!(r.at(1), Some(h as u32));
            assert_eq!(r.get("q"), Some(100 + h as u32));
            assert_eq!(r.get("nope"), None);
        }
        // The borrowed view decodes identically.
        let bytes = t.serialize();
        let (view, _) = TppView::parse(&bytes).unwrap();
        let from_view: Vec<Vec<Option<u32>>> =
            p.records(&view).map(|r| vec![r.at(0), r.at(1), r.at(2)]).collect();
        let from_owned: Vec<Vec<Option<u32>>> =
            p.records(&t).map(|r| vec![r.at(0), r.at(1), r.at(2)]).collect();
        assert_eq!(from_view, from_owned);
    }

    #[test]
    fn write_probe_layout_matches_rcp_update() {
        let update = Probe::hop("rcp-update")
            .cstore("version", "Link:AppSpecific_0")
            .store("rate", "Link:AppSpecific_1");
        let mut t = update.compile_hops(2).unwrap();
        let reference = assemble(
            r"
            .mode hop
            .perhop 12
            CSTORE [Link:AppSpecific_0], \
                   [Packet:Hop[0]], [Packet:Hop[1]]
            STORE [Link:AppSpecific_1], [Packet:Hop[2]]
            ",
        )
        .unwrap();
        assert_eq!(t.instrs, reference.instrs);
        assert_eq!(t.per_hop_len, 12);
        assert_eq!(t.memory.len(), 24);

        update.set_args(&mut t, 1, "version", &[7, 8]).unwrap();
        update.set_args(&mut t, 1, "rate", &[5000]).unwrap();
        assert_eq!(t.read_word(3), Some(7));
        assert_eq!(t.read_word(4), Some(8));
        assert_eq!(t.read_word(5), Some(5000));
        assert_eq!(
            update.set_args(&mut t, 0, "version", &[1]),
            Err(ProbeError::WrongArity("version".into(), 2, 1))
        );
        assert_eq!(
            update.set_args(&mut t, 9, "rate", &[1]),
            Err(ProbeError::TooManyHops { requested: 10, max: 2 })
        );
        assert_eq!(
            update.set_args(&mut t, 0, "ghost", &[1]),
            Err(ProbeError::UnknownField("ghost".into()))
        );

        // Decode of a write probe follows the hop counter.
        t.hop = 1;
        let recs: Vec<_> = update.records(&t).collect();
        assert_eq!(recs.len(), 1);
        let version = &update.fields()[update.index_of("version").unwrap()];
        assert_eq!(t.read_word(version.offset + 1), Some(0)); // hop 0, slot 1
    }

    #[test]
    fn schema_validation() {
        assert_eq!(Probe::stack("x").compile(), Err(ProbeError::NoFields));
        let mut p = Probe::stack("x");
        for i in 0..6 {
            p = p.field(&format!("f{i}"), "Switch:SwitchID");
        }
        assert_eq!(p.compile(), Err(ProbeError::TooManyFields(6)));
        assert_eq!(
            Probe::stack("x").field("a", "Switch:SwitchID").field("a", "Switch:SwitchID").compile(),
            Err(ProbeError::DuplicateField("a".into()))
        );
        assert!(matches!(
            Probe::stack("x").field("a", "Nope:Nothing").compile(),
            Err(ProbeError::BadAddress(_, _))
        ));
        assert_eq!(
            Probe::hop("x")
                .field("a", "Switch:SwitchID")
                .store("b", "Link:AppSpecific_0")
                .compile(),
            Err(ProbeError::MixedKinds)
        );
        assert_eq!(
            Probe::stack("x").store("b", "Link:AppSpecific_0").compile(),
            Err(ProbeError::WritesNeedHopMode)
        );
        // Raw hex addresses are accepted.
        let t = Probe::stack("x").field("raw", "[0xb000]").compile().unwrap();
        assert_eq!(t.instrs[0].addr, Address::new(0xb000));
    }

    #[test]
    fn pad_section_to_exact_wire_length() {
        let p = Probe::stack("pad")
            .field("a", "Switch:SwitchID")
            .field("b", "Queue:QueueOccupancy")
            .pad_section_to(100);
        let t = p.compile().unwrap();
        assert_eq!(t.section_len(), 100);
        assert_eq!(
            Probe::stack("tiny").field("a", "Switch:SwitchID").pad_section_to(16).compile(),
            Err(ProbeError::SectionTooSmall(16))
        );
    }
}
