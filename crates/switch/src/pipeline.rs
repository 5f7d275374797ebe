//! The distributed TCPU (paper §3.5, Figure 8).
//!
//! A single logical TCPU at the end of the pipeline would need read/write
//! paths from every module — prohibitively expensive wiring. Instead the
//! TCPU is *distributed*: each match-action stage executes the instructions
//! whose operands are local to it, out of program order across stages but in
//! program order within a stage. Two mechanisms make this sound:
//!
//! * PUSH/POP are converted at parse time into equivalent LOAD/STOREs with
//!   preassigned packet-memory offsets (the §3.5 serialization), so stack
//!   ordering in the packet always reflects program order;
//! * end-hosts must order conditional instructions (`CSTORE`/`CEXEC`) at or
//!   before the stages of the instructions they gate
//!   ([`check_pipeline_order`]); the failure of a conditional suppresses
//!   every *later-program-order* instruction that has not yet executed.
//!
//! Stage assignment mirrors where the data lives in a real ASIC: switch
//! globals at stage 0, flow-table state at its stage, routing results at
//! the last ingress stage, and link/queue state in the egress pipeline.
//!
//! The order in which the pipeline reaches a program's instructions (by
//! stage, program order within a stage, unmapped ones last) is a property of
//! the program, so [`TppRun::plan`] resolves it once into a schedule and the
//! per-frame [`TppRun::exec_stages`] walks that schedule instead of scanning
//! every stage against every instruction.

use crate::memmap::SwitchBus;
use tpp_core::addr::{meta_ns, Address, Namespace};
use tpp_core::exec::{stack_slot, step_in_place, ExecOptions, InstrStatus, StatusVec};
use tpp_core::isa::{Instruction, Opcode, MAX_INSTRUCTIONS};
use tpp_core::wire::{Tpp, TppView, TppViewMut};

/// Shape of the pipeline: ingress stages (the last one computes routing)
/// followed by egress stages (entered after the packet buffer).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PipelineConfig {
    pub n_ingress: usize,
    pub n_egress: usize,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        // The NetFPGA prototype has a four-stage pipeline (§5); we add two
        // egress stages for link/queue state.
        PipelineConfig { n_ingress: 4, n_egress: 2 }
    }
}

impl PipelineConfig {
    pub fn total_stages(&self) -> usize {
        self.n_ingress + self.n_egress
    }
    /// The stage where routing results (output port, matched entry) appear.
    pub fn routing_stage(&self) -> usize {
        self.n_ingress - 1
    }
    /// The first egress stage, where link/queue state lives.
    pub fn egress_stage(&self) -> usize {
        self.n_ingress
    }
}

/// Which pipeline stage can satisfy an access to `addr` (§3.3: "instructions
/// are not executed if they access memory that doesn't exist" — a `None`
/// here makes the instruction skip gracefully).
pub fn stage_of(addr: Address, cfg: &PipelineConfig) -> Option<usize> {
    let ns = Namespace::of(addr)?;
    match ns {
        Namespace::Switch => Some(0),
        Namespace::PacketMetadata => Some(match addr.raw() - ns.base().raw() {
            // Known at ingress parse.
            x if x == meta_ns::INPUT_PORT
                || x == meta_ns::PKT_LEN
                || x == meta_ns::HOP_COUNT
                || x == meta_ns::INGRESS_TSTAMP_NS_LO
                || x == meta_ns::INGRESS_TSTAMP_NS_HI =>
            {
                0
            }
            // Produced by the routing stage.
            x if x == meta_ns::OUTPUT_PORT
                || x == meta_ns::OUTPUT_QUEUE
                || x == meta_ns::MATCHED_ENTRY_ID
                || x == meta_ns::PATH_HASH =>
            {
                cfg.routing_stage()
            }
            // Known only after the packet buffer.
            _ => cfg.egress_stage(),
        }),
        Namespace::CurrentLink
        | Namespace::CurrentQueue
        | Namespace::Link(_)
        | Namespace::Queue(_, _) => Some(cfg.egress_stage()),
        Namespace::FlowEntry(s) => {
            let s = s as usize;
            (s < cfg.total_stages()).then_some(s)
        }
        Namespace::Stage(s) => {
            let s = s as usize;
            (s < cfg.total_stages()).then_some(s)
        }
    }
}

/// Verify the §3.5 ordering requirement: each conditional must execute at a
/// stage no later than every instruction it gates, so its outcome is
/// available in time.
pub fn check_pipeline_order(tpp: &Tpp, cfg: &PipelineConfig) -> bool {
    for (i, ins) in tpp.instrs.iter().enumerate() {
        if !ins.opcode.is_conditional() {
            continue;
        }
        let Some(cond_stage) = stage_of(ins.addr, cfg) else { continue };
        for later in &tpp.instrs[i + 1..] {
            if let Some(s) = stage_of(later.addr, cfg) {
                if s < cond_stage {
                    return false;
                }
            }
        }
    }
    true
}

/// Plan-time marker for an instruction whose operand maps to no pipeline
/// stage (it skips gracefully, §3.3) — stored in `TppRun::stages` so the
/// execute loop never resolves namespaces per frame.
const UNMAPPED_STAGE: u16 = u16::MAX;

/// The in-flight execution state of one TPP as it traverses the pipeline.
///
/// Planned once at ingress parse from a validated [`TppView`], carried
/// through the packet buffer, finished at egress. The run holds **no owned
/// TPP**: instructions and slots live in fixed-size inline arrays (bounded
/// by the architectural [`MAX_INSTRUCTIONS`] budget) and every packet-memory
/// access goes straight to the frame bytes through a [`TppViewMut`], which
/// maintains the section checksum incrementally. The forwarding path
/// therefore performs no heap allocation per packet. A plan is a schedule,
/// not a proof: every access it leads to is bounds-checked against the frame
/// it runs on (§3.3), so a plan applied to the wrong frame skips, never
/// indexes outside the section.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TppRun {
    /// Byte offset of the TPP section within the frame.
    pub section: usize,
    n_instr: u8,
    instrs: [Instruction; MAX_INSTRUCTIONS],
    /// The packet-memory word each PUSH/POP was serialized to at parse time
    /// (§3.5); `None` for a statically impossible one (stack underflow or
    /// memory overflow) and for every other opcode. SP is one byte on the
    /// wire, so a word index is too.
    slots: [Option<u8>; MAX_INSTRUCTIONS],
    /// Plan-time stage assignment per instruction ([`stage_of`] resolved
    /// once; [`UNMAPPED_STAGE`] = skips gracefully), so the per-frame
    /// execute loop is a flat integer compare instead of a namespace
    /// resolve.
    stages: [u16; MAX_INSTRUCTIONS],
    /// The schedule: program indices in the order the pipeline reaches them,
    /// by stage and in program order within a stage (`n_instr` entries).
    order: [u8; MAX_INSTRUCTIONS],
    status: [Option<InstrStatus>; MAX_INSTRUCTIONS],
    /// Program index of the first failed conditional, if any.
    fail_idx: Option<u8>,
    final_sp: u8,
    pub wrote: bool,
    /// Opcodes that reached an execution unit, for latency accounting.
    executed_ops: [Opcode; MAX_INSTRUCTIONS],
    n_executed: u8,
    pub rejected: bool,
    /// Header snapshot taken at plan time (the view owns the live bytes).
    pub reflect: bool,
    pub hop: u8,
}

impl TppRun {
    /// Parse-time planning over a validated view at byte offset `section`
    /// of its frame: decode the program, serialize PUSH/POP to preassigned
    /// offsets from this frame's SP, resolve each instruction's pipeline
    /// stage and order the instructions by it. The plan cache reuses the
    /// *whole* result for frames whose header prefix and instruction words
    /// match exactly, making this path per-program, not per-frame. Like the
    /// in-place interpreter, the pipeline enforces the architectural
    /// [`MAX_INSTRUCTIONS`] budget even when `opts.max_instructions` is
    /// configured above it.
    pub fn plan(
        view: &TppView<'_>,
        section: usize,
        opts: &ExecOptions,
        cfg: &PipelineConfig,
    ) -> TppRun {
        let n = view.n_instr();
        let filler = Instruction::load(Address::new(0), 0);
        let mut run = TppRun {
            section,
            n_instr: 0,
            instrs: [filler; MAX_INSTRUCTIONS],
            slots: [None; MAX_INSTRUCTIONS],
            stages: [UNMAPPED_STAGE; MAX_INSTRUCTIONS],
            order: [0; MAX_INSTRUCTIONS],
            status: [None; MAX_INSTRUCTIONS],
            fail_idx: None,
            final_sp: view.sp(),
            wrote: false,
            executed_ops: [Opcode::Load; MAX_INSTRUCTIONS],
            n_executed: 0,
            rejected: n > opts.max_instructions || n > MAX_INSTRUCTIONS,
            reflect: view.reflect(),
            hop: view.hop(),
        };
        if run.rejected {
            return run;
        }
        run.n_instr = n as u8;
        let mut sp = view.sp();
        let words = view.memory_words();
        for idx in 0..n {
            let ins = view.instr(idx);
            run.instrs[idx] = ins;
            let stage = match stage_of(ins.addr, cfg) {
                // A pipeline deeper than the u16 sentinel is architecturally
                // impossible (per-stage SRAM alone forbids it).
                Some(s) => s as u16,
                None => UNMAPPED_STAGE,
            };
            run.stages[idx] = stage;
            run.slots[idx] = stack_slot(ins.opcode, &mut sp, words);
            // Insert behind everything scheduled at this stage or an earlier
            // one: at most four moves, and program order survives in a stage.
            let mut at = idx;
            while at > 0 && run.stages[usize::from(run.order[at - 1])] > stage {
                run.order[at] = run.order[at - 1];
                at -= 1;
            }
            run.order[at] = idx as u8;
        }
        run.final_sp = sp;
        run
    }

    /// Opcodes that reached an execution unit so far, for cost accounting.
    pub fn executed_ops(&self) -> &[Opcode] {
        &self.executed_ops[..self.n_executed as usize]
    }

    /// Execute all instructions assigned to stages in `range` (processed in
    /// stage order, program order within a stage), mutating the TPP section
    /// inside `frame` in place. The pipeline is a stage filter over the one
    /// in-place step ([`step_in_place`]): stage assignment, schedule and
    /// PUSH/POP slots were resolved at plan time. Ranges may come in any
    /// order, overlap or repeat; an instruction runs the first time a range
    /// holds its stage. The frame is not opened when the range holds nothing
    /// that is still to run (a rejected plan schedules nothing).
    pub fn exec_stages(
        &mut self,
        frame: &mut [u8],
        bus: &mut SwitchBus<'_>,
        range: std::ops::Range<usize>,
        opts: &ExecOptions,
    ) {
        let n = usize::from(self.n_instr);
        let stage_at = |at: usize| usize::from(self.stages[usize::from(self.order[at])]);
        // The first scheduled instruction the range is due; past `range.end`
        // nothing is, the schedule being in stage order.
        let Some(first) = (0..n).take_while(|&at| stage_at(at) < range.end).find(|&at| {
            stage_at(at) >= range.start && self.status[usize::from(self.order[at])].is_none()
        }) else {
            return;
        };
        let mut view = TppViewMut::from_validated(&mut frame[self.section..]);
        for at in first..n {
            let idx = usize::from(self.order[at]);
            let stage = usize::from(self.stages[idx]);
            if stage >= range.end {
                break;
            }
            // (Sorted by stage: nothing from here on is before `range.start`.)
            if self.status[idx].is_some() {
                continue;
            }
            if self.fail_idx.is_some_and(|f| idx > usize::from(f)) {
                self.status[idx] = Some(InstrStatus::Suppressed);
                continue;
            }
            let ins = self.instrs[idx];
            let st = step_in_place(
                &mut view,
                bus,
                &ins,
                self.slots[idx],
                opts.allow_writes,
                &mut self.wrote,
            );
            if matches!(st, InstrStatus::CondFailed | InstrStatus::PredicateFalse) {
                self.fail_idx = Some(self.fail_idx.map_or(idx as u8, |f| f.min(idx as u8)));
            }
            if !matches!(st, InstrStatus::Skipped | InstrStatus::Suppressed) {
                self.executed_ops[self.n_executed as usize] = ins.opcode;
                self.n_executed += 1;
            }
            self.status[idx] = Some(st);
        }
    }

    /// Complete the run after the last stage: write the final SP, wrote
    /// flag and hop counter into the frame (one incremental checksum fold).
    /// Rejected TPPs are forwarded byte-for-byte untouched.
    pub fn finish(&mut self, frame: &mut [u8], opts: &ExecOptions) {
        if self.rejected {
            return;
        }
        TppViewMut::from_validated(&mut frame[self.section..]).complete_hop(
            self.final_sp,
            self.wrote,
            opts.increment_hop.then(|| self.hop.wrapping_add(1)),
        );
    }

    /// Per-instruction statuses with unexecuted slots resolved (Suppressed
    /// past a failed conditional, Skipped otherwise). Empty for rejected
    /// TPPs, mirroring the reference interpreter.
    pub fn final_statuses(&self) -> StatusVec {
        let mut out = StatusVec::default();
        if self.rejected {
            return out;
        }
        for (idx, s) in self.status[..self.n_instr as usize].iter().enumerate() {
            out.push(match s {
                Some(st) => *st,
                None => {
                    if self.fail_idx.is_some_and(|f| idx > usize::from(f)) {
                        InstrStatus::Suppressed
                    } else {
                        InstrStatus::Skipped
                    }
                }
            });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memmap::{PacketContext, SwitchMemory};
    use tpp_core::addr::resolve_mnemonic;
    use tpp_core::asm::{assemble, TppBuilder};
    use tpp_core::exec::{execute as ref_execute, MapBus, MemoryBus};
    use tpp_core::wire::AddrMode;

    fn a(m: &str) -> Address {
        resolve_mnemonic(m).unwrap()
    }

    fn cfg() -> PipelineConfig {
        PipelineConfig::default()
    }

    fn run_full(
        tpp: Tpp,
        mem: &mut SwitchMemory,
        ctx: &mut PacketContext,
    ) -> (Tpp, Vec<InstrStatus>) {
        let opts = ExecOptions::default();
        // The pipeline executes in place over wire bytes: serialize, run,
        // parse the mutated section back for the assertions.
        let mut frame = tpp.serialize();
        let c = cfg();
        let mut run = {
            let (view, _) = TppView::parse(&frame).expect("test TPP serializes validly");
            TppRun::plan(&view, 0, &opts, &c)
        };
        {
            let mut bus = SwitchBus { mem, ctx };
            run.exec_stages(&mut frame, &mut bus, 0..c.n_ingress, &opts);
        }
        {
            let mut bus = SwitchBus { mem, ctx };
            run.exec_stages(&mut frame, &mut bus, c.n_ingress..c.total_stages(), &opts);
        }
        run.finish(&mut frame, &opts);
        let st = run.final_statuses().as_slice().to_vec();
        let (tpp, _) = Tpp::parse(&frame).expect("executed section remains valid wire format");
        (tpp, st)
    }

    #[test]
    fn stage_assignment() {
        let c = cfg();
        assert_eq!(stage_of(a("Switch:SwitchID"), &c), Some(0));
        assert_eq!(stage_of(a("PacketMetadata:InputPort"), &c), Some(0));
        assert_eq!(stage_of(a("PacketMetadata:OutputPort"), &c), Some(3));
        assert_eq!(stage_of(a("Link:TX-Utilization"), &c), Some(4));
        assert_eq!(stage_of(a("Queue:QueueOccupancy"), &c), Some(4));
        assert_eq!(stage_of(a("Stage2:Reg0"), &c), Some(2));
        assert_eq!(stage_of(a("Stage5:Reg0"), &c), Some(5));
        assert_eq!(stage_of(a("Stage7:Reg0"), &c), None); // beyond 6 stages
        assert_eq!(stage_of(Address::new(0x0900), &c), None); // unmapped
    }

    #[test]
    fn paper_section35_example_order() {
        // PUSH out-port; PUSH in-port; PUSH Stage1:Reg1; POP Stage3:Reg3.
        // Values must land in packet memory in *program* order even though
        // the input port (stage 0) is known before the output port (stage 3).
        let mut mem = SwitchMemory::new(1, 4, 6);
        mem.stages[1].sram[1] = 0xAA;
        let mut ctx = PacketContext::new(3, 100, 0, 6);
        ctx.out_port = Some(2); // routing already decided
        let tpp = TppBuilder::stack_mode()
            .push(a("PacketMetadata:OutputPort"))
            .push(a("PacketMetadata:InputPort"))
            .push(a("Stage1:Reg1"))
            .pop(a("Stage3:Reg3"))
            .memory_words(4)
            .build()
            .unwrap();
        let (out, st) = run_full(tpp, &mut mem, &mut ctx);
        assert_eq!(st, vec![InstrStatus::Executed; 4]);
        // Program order preserved: word0 = output port, word1 = input port.
        assert_eq!(out.read_word(0), Some(2));
        assert_eq!(out.read_word(1), Some(3));
        assert_eq!(out.read_word(2), Some(0xAA));
        // POP landed in Stage3:Reg3 and consumed the stack slot.
        assert_eq!(mem.stages[3].sram[3], 0xAA);
        assert_eq!(out.sp, 2);
    }

    #[test]
    fn pipelined_matches_reference_semantics() {
        // For hazard-free, pipeline-ordered programs the distributed TCPU
        // must be observationally equivalent to the reference interpreter.
        let programs = [
            "PUSH [Switch:SwitchID]\nPUSH [PacketMetadata:InputPort]\nPUSH [Queue:QueueOccupancy]",
            ".mode hop\n.perhop 12\n.hops 2\nLOAD [Switch:SwitchID], [Packet:Hop[0]]\nLOAD [Link:QueueSize], [Packet:Hop[1]]\nLOAD [Link:TX-Utilization], [Packet:Hop[2]]",
            "PUSH [Switch:Version]\nPUSH [Stage1:Version]\nPUSH [FlowEntry$3:MatchPkts]",
        ];
        for src in programs {
            let tpp = assemble(src).unwrap();

            // Pipelined execution against the real switch memory.
            let mut mem = SwitchMemory::new(9, 4, 6);
            mem.links[2].queued_bytes = 777;
            mem.links[2].tx_util_bps = 1234;
            mem.queues[2][0].bytes = 555;
            mem.stages[1].version = 6;
            let mut ctx = PacketContext::new(1, 100, 0, 6);
            ctx.out_port = Some(2);
            ctx.matched_entry.set(
                3,
                crate::memmap::FlowEntryStats {
                    entry_id: 5,
                    insert_clock: 0,
                    match_pkts: 42,
                    match_bytes: 0,
                },
            );
            let (pipe_out, _) = run_full(tpp.clone(), &mut mem, &mut ctx.clone());

            // Reference execution against a MapBus snapshot of the same state.
            let mut mem2 = SwitchMemory::new(9, 4, 6);
            mem2.links[2].queued_bytes = 777;
            mem2.links[2].tx_util_bps = 1234;
            mem2.queues[2][0].bytes = 555;
            mem2.stages[1].version = 6;
            let mut ctx2 = ctx.clone();
            let mut snapshot = MapBus::default();
            for ins in &tpp.instrs {
                let mut bus = SwitchBus { mem: &mut mem2, ctx: &mut ctx2 };
                if let Some(v) = bus.read(ins.addr) {
                    snapshot.mem.insert(ins.addr.raw(), v);
                }
            }
            let mut ref_tpp = tpp.clone();
            ref_execute(&mut ref_tpp, &mut snapshot, &ExecOptions::default());

            assert_eq!(pipe_out.memory, ref_tpp.memory, "program: {src}");
            assert_eq!(pipe_out.sp, ref_tpp.sp, "program: {src}");
            assert_eq!(pipe_out.hop, ref_tpp.hop, "program: {src}");
        }
    }

    #[test]
    fn cexec_at_stage0_gates_egress_instructions() {
        // Targeted TPP: CEXEC on switch id gates a link-state push at egress.
        let mk = |memory: Vec<u8>| {
            let mut t = TppBuilder::stack_mode()
                .cexec(a("Switch:SwitchID"), 0, 1)
                .push(a("Link:QueueSize"))
                .memory_words(4)
                .build()
                .unwrap();
            t.memory = memory;
            t.write_word(0, 0xFFFF_FFFF).unwrap();
            t.write_word(1, 9).unwrap(); // target switch 9
            t.sp = 2;
            t
        };
        // On switch 9 it runs.
        let mut mem = SwitchMemory::new(9, 4, 6);
        mem.links[2].queued_bytes = 42;
        let mut ctx = PacketContext::new(0, 100, 0, 6);
        ctx.out_port = Some(2);
        let (out, st) = run_full(mk(vec![0; 16]), &mut mem, &mut ctx);
        assert_eq!(st, vec![InstrStatus::Executed, InstrStatus::Executed]);
        assert_eq!(out.read_word(2), Some(42));

        // On switch 8 the egress push is suppressed.
        let mut mem = SwitchMemory::new(8, 4, 6);
        mem.links[2].queued_bytes = 42;
        let mut ctx = PacketContext::new(0, 100, 0, 6);
        ctx.out_port = Some(2);
        let (out, st) = run_full(mk(vec![0; 16]), &mut mem, &mut ctx);
        assert_eq!(st, vec![InstrStatus::PredicateFalse, InstrStatus::Suppressed]);
        assert_eq!(out.read_word(2), Some(0));
    }

    #[test]
    fn rcp_update_tpp_versioned_write() {
        // §2.2 Phase 3 at the egress stage.
        let tpp = assemble(
            "
            .mode hop
            .perhop 12
            .hops 1
            CSTORE [Link:AppSpecific_0], [Packet:Hop[0]], [Packet:Hop[1]]
            STORE [Link:AppSpecific_1], [Packet:Hop[2]]
            .word 0 5
            .word 1 6
            .word 2 7777
            ",
        )
        .unwrap();
        let mut mem = SwitchMemory::new(1, 4, 6);
        mem.links[3].app[0] = 5; // version matches
        let mut ctx = PacketContext::new(0, 100, 0, 6);
        ctx.out_port = Some(3);
        let (_, st) = run_full(tpp.clone(), &mut mem, &mut ctx);
        assert_eq!(st, vec![InstrStatus::Executed, InstrStatus::Executed]);
        assert_eq!(mem.links[3].app[0], 6);
        assert_eq!(mem.links[3].app[1], 7777);

        // Stale version: both writes refused.
        let mut mem = SwitchMemory::new(1, 4, 6);
        mem.links[3].app[0] = 9;
        let mut ctx = PacketContext::new(0, 100, 0, 6);
        ctx.out_port = Some(3);
        let (out, st) = run_full(tpp, &mut mem, &mut ctx);
        assert_eq!(st, vec![InstrStatus::CondFailed, InstrStatus::Suppressed]);
        assert_eq!(mem.links[3].app[1], 0);
        assert_eq!(out.read_word(0), Some(9)); // observed version for the host
    }

    #[test]
    fn pipeline_order_check() {
        let c = cfg();
        // CEXEC on switch id (stage 0) before an egress push: fine.
        let ok = TppBuilder::stack_mode()
            .cexec(a("Switch:SwitchID"), 0, 1)
            .push(a("Link:QueueSize"))
            .memory_words(4)
            .build()
            .unwrap();
        assert!(check_pipeline_order(&ok, &c));
        // CSTORE on egress link state before a stage-0 read: violates §3.5.
        let bad = TppBuilder::stack_mode()
            .cstore(a("Link:AppSpecific_0"), 0, 1)
            .push(a("Switch:SwitchID"))
            .memory_words(4)
            .build()
            .unwrap();
        assert!(!check_pipeline_order(&bad, &c));
    }

    #[test]
    fn rejected_tpp_untouched() {
        let tpp = Tpp {
            instrs: vec![tpp_core::isa::Instruction::push(a("Switch:SwitchID")); 6],
            memory: vec![0; 32],
            ..Tpp::default()
        };
        let mut mem = SwitchMemory::new(1, 4, 6);
        let mut ctx = PacketContext::new(0, 100, 0, 6);
        let (out, _) = run_full(tpp.clone(), &mut mem, &mut ctx);
        assert_eq!(out.hop, 0);
        assert_eq!(out.sp, 0);
        assert_eq!(out.memory, tpp.memory);
    }

    #[test]
    fn overflowing_push_stays_on_checked_path() {
        // ("The checked path" is the only path: every access is tested.)
        // Two pushes into one word: the second has no slot and skips.
        let tpp = TppBuilder::stack_mode()
            .push(a("Switch:SwitchID"))
            .push(a("PacketMetadata:InputPort"))
            .memory_words(1)
            .build()
            .unwrap();
        let mut mem = SwitchMemory::new(7, 4, 6);
        let mut ctx = PacketContext::new(3, 100, 0, 6);
        let (out, st) = run_full(tpp, &mut mem, &mut ctx);
        assert_eq!(st, vec![InstrStatus::Executed, InstrStatus::Skipped]);
        assert_eq!(out.read_word(0), Some(7));
        assert_eq!(out.sp, 1);
    }

    #[test]
    fn hop_window_beyond_memory_stays_on_checked_path() {
        // ("The checked path" is the only path: every access is tested.)
        // A hop counter past the provisioned windows makes every Direct
        // access out of bounds: graceful skips.
        let mut tpp =
            assemble(".mode hop\n.perhop 8\n.hops 1\nLOAD [Switch:SwitchID], [Packet:Hop[0]]")
                .unwrap();
        tpp.hop = 3; // only hop 0 has a window
        let mut mem = SwitchMemory::new(7, 4, 6);
        let mut ctx = PacketContext::new(3, 100, 0, 6);
        let (out, st) = run_full(tpp, &mut mem, &mut ctx);
        assert_eq!(st, vec![InstrStatus::Skipped]);
        assert_eq!(out.memory, vec![0; 8]);
        assert_eq!(out.hop, 4);
    }

    #[test]
    fn stale_plan_on_a_smaller_frame_skips_gracefully() {
        // What a plan-cache key bug or collision would hand the TCPU: a plan
        // made for one frame, run on a frame of the same program with fewer
        // memory words and a later hop. Every access the plan leads to is
        // outside the smaller section, so every instruction skips. At PR 20
        // the plan carried a `trusted` bounds proof about the frame it was
        // made for and this call panicked (a `debug_assert` in debug, a slice
        // index in release).
        let program = |hops: u8, hop: u8, sp: u8| {
            let mut t = TppBuilder::hop_mode(2)
                .push(a("Switch:SwitchID"))
                .load(a("PacketMetadata:InputPort"), 1)
                .store(a("Stage1:Reg0"), 0)
                .cexec(a("Switch:SwitchID"), 0, 1)
                .hops(hops as usize)
                .build()
                .unwrap();
            t.hop = hop;
            t.sp = sp;
            t
        };
        let (opts, c) = (ExecOptions::default(), cfg());
        let planned = program(3, 0, 4).serialize();
        let (view, _) = TppView::parse(&planned).unwrap();
        let mut run = TppRun::plan(&view, 0, &opts, &c);
        // The plan is no larger than when it carried the proof flag.
        assert!(std::mem::size_of::<TppRun>() <= 96);

        let small = program(1, 2, 4).serialize();
        let mut frame = small.clone();
        frame.extend_from_slice(&[0xA5; 32]); // payload after the section
        let mut mem = SwitchMemory::new(7, 4, 6);
        mem.stages[1].sram[0] = 0x51;
        let mut ctx = PacketContext::new(3, 100, 0, 6);
        let mut bus = SwitchBus { mem: &mut mem, ctx: &mut ctx };
        run.exec_stages(&mut frame, &mut bus, 0..c.total_stages(), &opts);

        assert_eq!(run.final_statuses().as_slice(), &[InstrStatus::Skipped; 4]);
        assert!(!run.wrote);
        assert_eq!(mem.stages[1].sram[0], 0x51);
        assert_eq!(&frame[..small.len()], &small[..], "section untouched");
        assert_eq!(&frame[small.len()..], &[0xA5; 32], "bytes outside the section untouched");
    }

    impl TppRun {
        /// `exec_stages` as it was before the schedule: every stage of the
        /// range against every instruction. The oracle of
        /// `schedule_walk_equals_the_stage_by_program_loop`.
        fn exec_stages_oracle(
            &mut self,
            frame: &mut [u8],
            bus: &mut SwitchBus<'_>,
            range: std::ops::Range<usize>,
            opts: &ExecOptions,
        ) {
            if self.rejected {
                return;
            }
            let mut view = TppViewMut::from_validated(&mut frame[self.section..]);
            for stage in range {
                for idx in 0..self.n_instr as usize {
                    if self.status[idx].is_some() || usize::from(self.stages[idx]) != stage {
                        continue;
                    }
                    let ins = self.instrs[idx];
                    if self.fail_idx.is_some_and(|f| idx > usize::from(f)) {
                        self.status[idx] = Some(InstrStatus::Suppressed);
                        continue;
                    }
                    let st = step_in_place(
                        &mut view,
                        bus,
                        &ins,
                        self.slots[idx],
                        opts.allow_writes,
                        &mut self.wrote,
                    );
                    if matches!(st, InstrStatus::CondFailed | InstrStatus::PredicateFalse) {
                        self.fail_idx = Some(self.fail_idx.map_or(idx as u8, |f| f.min(idx as u8)));
                    }
                    if !matches!(st, InstrStatus::Skipped | InstrStatus::Suppressed) {
                        self.executed_ops[self.n_executed as usize] = ins.opcode;
                        self.n_executed += 1;
                    }
                    self.status[idx] = Some(st);
                }
            }
        }
    }

    #[test]
    fn schedule_walk_equals_the_stage_by_program_loop() {
        let mut x: u64 = 0x2545_F491_4F6C_DD1D;
        let mut below = move |n: usize| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x >> 33) as usize % n
        };
        // Every stage of the pipeline, read-only and writable targets, a
        // stage past the pipeline and an address in no namespace.
        let pool = [
            a("Switch:SwitchID"),
            a("PacketMetadata:InputPort"),
            a("Stage1:Reg0"),
            a("Stage2:Reg1"),
            a("PacketMetadata:OutputPort"),
            a("PacketMetadata:OutputQueue"),
            a("FlowEntry$3:MatchPkts"),
            a("Link:AppSpecific_0"),
            a("Queue:QueueOccupancy"),
            a("Stage5:Reg0"),
            a("Stage7:Reg0"),
            Address::new(0x0900),
        ];
        let (opts, c) = (ExecOptions::default(), cfg());
        let total = c.total_stages();
        let (mut conditionals_failed, mut suppressed, mut unmapped, mut no_slot) = (0, 0, 0, 0);
        for case in 0..2_000 {
            let n = 1 + below(MAX_INSTRUCTIONS);
            let words = below(9);
            let per_hop = below(4);
            let instrs: Vec<Instruction> = (0..n)
                .map(|_| {
                    let addr = pool[below(pool.len())];
                    let (o1, o2) = (below(4) as u8, below(4) as u8);
                    match below(6) {
                        0 => Instruction::push(addr),
                        1 => Instruction::pop(addr),
                        2 => Instruction::load(addr, o1),
                        3 => Instruction::store(addr, o1),
                        4 => Instruction::cstore(addr, o1, o2),
                        _ => Instruction::cexec(addr, o1, o2),
                    }
                })
                .collect();
            let mut tpp = Tpp {
                mode: if below(2) == 0 { AddrMode::Stack } else { AddrMode::Hop },
                hop: below(3) as u8,
                // Empty, full, or somewhere between.
                sp: [0, words, below(words + 1)][below(3)] as u8,
                per_hop_len: 4 * per_hop as u8,
                instrs,
                memory: vec![0; 4 * words],
                ..Tpp::default()
            };
            // Small values, so conditionals sometimes hold: switch id 1, an
            // all-ones or all-zeroes mask.
            for w in 0..words {
                tpp.write_word(w, [0, 1, 2, u32::MAX][below(4)]).unwrap();
            }
            let pristine = tpp.serialize();
            let (view, _) = TppView::parse(&pristine).expect("serialized by this crate");
            let plan = TppRun::plan(&view, 0, &opts, &c);
            unmapped += plan.stages[..n].iter().filter(|&&s| s == UNMAPPED_STAGE).count();
            no_slot += (0..n)
                .filter(|&i| {
                    matches!(plan.instrs[i].opcode, Opcode::Push | Opcode::Pop)
                        && plan.slots[i].is_none()
                })
                .count();

            // Random cuts of the pipeline: ascending splits (what the switch
            // does), then shuffled, repeated, overlapping and descending ones.
            let mut ranges: Vec<std::ops::Range<usize>> = Vec::new();
            match below(3) {
                0 => {
                    let (p, q) = (below(total + 1), below(total + 1));
                    let (p, q) = (p.min(q), p.max(q));
                    ranges.extend([0..p, p..q, q..total]);
                }
                1 => {
                    for _ in 0..1 + below(6) {
                        ranges.push(below(total + 1)..below(total + 2));
                    }
                    ranges.push(0..total);
                }
                _ => {
                    for s in (0..total).rev() {
                        ranges.push(s..s + 1 + below(2));
                        ranges.push(s..s + 1);
                    }
                }
            }

            let world = || {
                let mut mem = SwitchMemory::new(1, 4, total);
                mem.stages[1].sram[0] = 1;
                mem.links[2].app[0] = 2;
                let mut ctx = PacketContext::new(3, 100, 0, total);
                ctx.out_port = Some(2);
                (mem, ctx)
            };
            let (mut mem_a, mut ctx_a) = world();
            let (mut mem_b, mut ctx_b) = world();
            let (mut run_a, mut run_b) = (plan, plan);
            let (mut frame_a, mut frame_b) = (pristine.clone(), pristine.clone());
            for r in &ranges {
                let mut bus = SwitchBus { mem: &mut mem_a, ctx: &mut ctx_a };
                run_a.exec_stages(&mut frame_a, &mut bus, r.clone(), &opts);
                let mut bus = SwitchBus { mem: &mut mem_b, ctx: &mut ctx_b };
                run_b.exec_stages_oracle(&mut frame_b, &mut bus, r.clone(), &opts);
                assert_eq!(run_a, run_b, "case {case}: {ranges:?} at {r:?}\n{tpp:?}");
                assert_eq!(frame_a, frame_b, "case {case}: {ranges:?} at {r:?}\n{tpp:?}");
            }
            run_a.finish(&mut frame_a, &opts);
            run_b.finish(&mut frame_b, &opts);
            assert_eq!(frame_a, frame_b, "case {case}: {ranges:?}\n{tpp:?}");
            assert_eq!(run_a.final_statuses(), run_b.final_statuses(), "case {case}");
            assert_eq!(run_a.executed_ops(), run_b.executed_ops(), "case {case}");
            assert_eq!(format!("{mem_a:?}"), format!("{mem_b:?}"), "case {case}: bus writes");
            assert_eq!(format!("{ctx_a:?}"), format!("{ctx_b:?}"), "case {case}: bus writes");
            assert!(Tpp::parse(&frame_a).is_ok(), "case {case}: still valid wire format");
            let st = run_a.final_statuses();
            conditionals_failed += st
                .iter()
                .filter(|s| matches!(s, InstrStatus::CondFailed | InstrStatus::PredicateFalse))
                .count();
            suppressed += st.iter().filter(|s| **s == InstrStatus::Suppressed).count();
        }
        // The generator reached what it is there to reach.
        assert!(
            conditionals_failed > 100 && suppressed > 100,
            "{conditionals_failed} {suppressed}"
        );
        assert!(unmapped > 100 && no_slot > 100, "{unmapped} {no_slot}");
    }

    #[test]
    fn unmapped_stage_instruction_skipped() {
        let tpp = TppBuilder::stack_mode()
            .push(a("Stage7:Reg0")) // stage beyond the 6-stage pipeline
            .push(a("Switch:SwitchID"))
            .memory_words(4)
            .build()
            .unwrap();
        let mut mem = SwitchMemory::new(5, 4, 6);
        let mut ctx = PacketContext::new(0, 100, 0, 6);
        let (out, st) = run_full(tpp, &mut mem, &mut ctx);
        assert_eq!(st, vec![InstrStatus::Skipped, InstrStatus::Executed]);
        // The skipped PUSH still owns its preassigned slot (hole), the
        // second lands at word 1 — stack order reflects program order.
        assert_eq!(out.read_word(0), Some(0));
        assert_eq!(out.read_word(1), Some(5));
        assert_eq!(out.sp, 2);
    }
}
