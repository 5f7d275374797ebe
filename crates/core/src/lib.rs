//! # tpp-core — Tiny Packet Programs
//!
//! The core of the TPP interface from *"Millions of Little Minions: Using
//! Packets for Low Latency Network Programming and Visibility"* (SIGCOMM
//! 2014): end-hosts embed ≤5-instruction programs in packet headers;
//! switches execute them in-band at line rate against a memory-mapped view
//! of switch state; end-hosts do all complex computation on the results.
//!
//! This crate defines the *contract* between end-hosts and switches:
//!
//! * [`addr`] — the unified, memory-mapped address space (Tables 2, 6–8):
//!   per-switch, per-port, per-queue and per-packet statistics behind
//!   16-bit virtual addresses, with human-readable mnemonics like
//!   `[Queue:QueueOccupancy]`.
//! * [`isa`] — the six-instruction ISA (Table 1): `LOAD`, `STORE`, `PUSH`,
//!   `POP`, `CSTORE`, `CEXEC`, each encoding to 4 bytes.
//! * [`wire`] — Ethernet/IPv4/UDP framing and the TPP section format
//!   (Figure 7), including the parse graph for transparent (ethertype
//!   0x6666) and standalone (UDP port 0x6666) modes.
//! * [`asm`] — assembler/disassembler for the paper's pseudo-assembly and a
//!   fluent [`asm::TppBuilder`].
//! * [`probe`] — the typed application layer: [`probe::Probe`] schemas that
//!   compile to validated programs + memory layouts and decode completed
//!   TPPs into per-hop records by field name.
//! * [`exec`] — reference execution semantics (§3.2–3.3): graceful failure,
//!   `CSTORE` compare-and-swap with observed-value write-back, `CEXEC`
//!   gating, administrative write-disable.
//! * [`analysis`] — static analysis (§3.5, §4.3): access sets, segment
//!   (GDT-like) permission checks, hazard detection, and the PUSH→LOAD
//!   serialization pass.
//! * [`mod@verify`] — the abstract-interpretation verifier: accept or deny a
//!   program's packet-memory and permission safety once at load time
//!   ([`verify::Verdict`]). Execution relies on none of it: the interpreter
//!   bounds-checks every access (§3.3).
//!
//! ## Quickstart
//!
//! ```
//! use tpp_core::asm::assemble;
//! use tpp_core::exec::{execute, ExecOptions, MapBus};
//! use tpp_core::addr::resolve_mnemonic;
//!
//! // The §2.1 micro-burst detection TPP.
//! let mut tpp = assemble(
//!     "PUSH [Switch:SwitchID]
//!      PUSH [PacketMetadata:OutputPort]
//!      PUSH [Queue:QueueOccupancy]",
//! ).unwrap();
//!
//! // A (mock) switch executes it...
//! let mut bus = MapBus::with(&[
//!     (resolve_mnemonic("Switch:SwitchID").unwrap(), 4),
//!     (resolve_mnemonic("PacketMetadata:OutputPort").unwrap(), 2),
//!     (resolve_mnemonic("Queue:QueueOccupancy").unwrap(), 17),
//! ]);
//! execute(&mut tpp, &mut bus, &ExecOptions::default());
//!
//! // ...and the end-host reads the snapshot out of the packet.
//! assert_eq!(&tpp.words()[..3], &[4, 2, 17]);
//! assert_eq!(tpp.hop, 1);
//! ```

#![forbid(unsafe_code)]

pub mod addr;
pub mod analysis;
pub mod asm;
pub mod exec;
pub mod isa;
pub mod probe;
pub mod verify;
pub mod wire;

pub use addr::{Address, Namespace, Word};
pub use asm::{assemble, disassemble, TppBuilder};
pub use exec::{
    execute, execute_in_place, ExecOptions, ExecOutcome, InPlaceOutcome, MemoryBus, StatusVec,
    WriteOutcome,
};
pub use isa::{Instruction, Opcode};
pub use probe::{HopRecord, Probe, ProbeError, Records, TppData};
pub use verify::{verify, Diagnostic, Severity, Verdict, VerifyOptions};
pub use wire::{max_hops, Tpp, TppError, TppView, TppViewMut, MAX_MEMORY_BYTES};
