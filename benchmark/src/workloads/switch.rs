//! `switch_plain`, `switch_tpp_hot`, `switch_tpp_cold`: one `Switch` driven
//! `receive` -> `dequeue`, one frame at a time, from a ring of pre-built
//! frames. The returned buffer is reused, so the harness adds one frame copy
//! and no allocation per op.
//!
//! Generation ([`generate`]) is pure data made from the seed; the switch only
//! ever sees routes and frames.

use std::ops::Range;
use std::time::Instant;

use tpp_apps::common::udp_frame;
use tpp_apps::{conga, microburst, netsight, netverify, rcp, sketch};
use tpp_core::exec::{execute, execute_in_place, ExecOptions, MapBus};
use tpp_core::isa::{Opcode, INSTR_BYTES};
use tpp_core::probe::Probe;
use tpp_core::verify::{verify, VerifyOptions};
use tpp_core::wire::tpp::HEADER_LEN;
use tpp_core::wire::{
    build_standalone, checksum, insert_transparent, locate_tpp, AddrMode, EthernetAddress,
    Ipv4Address, Tpp, TppLocation, TppView, TppViewMut,
};
use tpp_core::Address;
use tpp_switch::{
    Action, FlowTable, PacketContext, PipelineConfig, PlanCache, ReceiveOutcome, Switch, SwitchBus,
    SwitchConfig, SwitchMemory, TppRun,
};

use crate::rng::{Fnv, Rng};
use crate::stats::{quantile, Sample};
use crate::trace::{alloc_start, alloc_stop, Tracer, CHUNK};
use crate::workloads::per_call_ns;
use crate::{LayerValue, Slice, Workload};

pub const N_PORTS: usize = 16;
/// The per-switch table of the largest in-tree topology (`fat_tree` k=8).
pub const N_ROUTES: usize = 128;
pub const N_FLOWS: usize = 120;
pub const RING: usize = 2048;
/// Distinct programs of the cold workload: 8x the plan cache's 64 slots.
pub const COLD_PROGRAMS: usize = 512;
/// Every `GRACEFUL_EVERY`-th cold frame leaves the fast path.
pub const GRACEFUL_EVERY: usize = 8;
/// Hop budget every hot program is compiled for.
const HOPS: usize = 5;
/// Host ids of the 128 routed destinations start here; sources start at 1.
const DST_BASE: u32 = 1000;
const ETH_HEADER: usize = 14;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Plain,
    Hot,
    Cold,
}

impl Kind {
    /// Frames per slice: constants of the benchmark, ~2 ms each on the
    /// container it was sized on. Short slices matter: windows of a few
    /// milliseconds at full speed exist even in runs where no 100 ms window
    /// is quiet, and the fast share can only be as good as its best slices.
    pub fn slice_frames(self) -> usize {
        match self {
            Kind::Plain => 8_000,
            Kind::Hot => 5_000,
            Kind::Cold => 4_000,
        }
    }

    /// Frames of set-up's warm-up pass, which deep-checks every output
    /// (~0.1 s: it keeps `setup_s` large enough to compare by ratio).
    pub fn verify_frames(self) -> usize {
        40 * self.slice_frames()
    }
}

/// What the switch must do with a ring frame for the op to count.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Expect {
    /// No TPP: forwarded at the same length.
    Plain,
    /// A valid TPP at `section`: the hop counter advances by one and the
    /// forwarded section still parses.
    Executed { section: usize },
    /// The frame leaves the fast path gracefully: it is forwarded and the
    /// bytes in `keep` come out unchanged.
    Untouched { keep: Range<usize> },
}

#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RingFrame {
    pub bytes: Vec<u8>,
    pub in_port: u8,
    pub dst: Ipv4Address,
    /// Bit `p` set: the frame may leave on port `p`.
    pub out_ports: u16,
    pub expect: Expect,
}

/// The three ways a cold frame leaves the fast path, each handled without
/// panic by the current switch (self-tested).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Graceful {
    /// Six instructions, one over the architectural budget: the plan is
    /// rejected and the frame forwarded byte-for-byte.
    OverBudget,
    /// A standalone TPP whose first opcode byte is invalid (checksum fixed
    /// up): forwarded as an ordinary UDP packet, uninstrumented.
    BadOpcode,
    /// A stack program arriving with its packet memory full: every PUSH
    /// skips, packet memory is forwarded untouched.
    MemoryFull,
}

pub const GRACEFUL_CLASSES: [Graceful; 3] =
    [Graceful::OverBudget, Graceful::BadOpcode, Graceful::MemoryFull];

/// Everything the seed decides, as plain data.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Inputs {
    /// ECMP groups, 4 ports each.
    pub groups: Vec<Vec<u8>>,
    /// `/32` routes in install order; `Action::Group(i)` indexes `groups`.
    pub routes: Vec<(Ipv4Address, Action)>,
    pub ring: Vec<RingFrame>,
    /// The distinct valid programs the ring carries, in first-use order.
    pub programs: Vec<Tpp>,
}

/// The seven real application probes, hop budget left to the caller.
pub(crate) fn app_probes() -> [Probe; 7] {
    [
        microburst::microburst_probe(),
        rcp::collect_probe(),
        rcp::update_probe(),
        conga::conga_probe(),
        netsight::history_probe(),
        sketch::sketch_probe(),
        netverify::trace_probe(),
    ]
}

/// Index of `rcp::update_probe` in [`app_probes`]: the one program that
/// writes switch memory (CSTORE + STORE).
pub(crate) const UPDATE: usize = 2;

fn is_read(op: Opcode) -> bool {
    matches!(op, Opcode::Push | Opcode::Load)
}

/// The seven app programs exactly as the apps send them (5-hop memory).
fn hot_programs() -> Vec<Tpp> {
    app_probes().iter().map(|p| p.compile_hops(HOPS).expect("app probes compile")).collect()
}

/// The bytes the plan cache keys on: header prefix plus instruction words.
fn program_key(t: &Tpp) -> Vec<u8> {
    let bytes = t.serialize();
    let mut key = bytes[..6].to_vec();
    key[0] &= 0xFC;
    key.extend_from_slice(&bytes[HEADER_LEN..HEADER_LEN + t.instrs.len() * INSTR_BYTES]);
    key
}

/// 512 distinct programs: the seven app programs with hop budget, arrival
/// hop and statistic addresses varied by the seed. Every variant keeps its
/// base program's length and opcode sequence, so per-frame cost does not
/// depend on which variants a seed picks.
fn cold_programs(rng: &mut Rng) -> Vec<Tpp> {
    let probes = app_probes();
    let base = hot_programs();
    // Statistic addresses the apps really read, used as the substitution pool.
    let mut pool: Vec<Address> = Vec::new();
    for t in &base {
        for i in t.instrs.iter().filter(|i| is_read(i.opcode)) {
            if !pool.contains(&i.addr) {
                pool.push(i.addr);
            }
        }
    }
    let per_base = COLD_PROGRAMS.div_ceil(probes.len());
    let mut seen = std::collections::BTreeSet::new();
    let mut by_base: Vec<Vec<Tpp>> = Vec::new();
    for probe in &probes {
        // (hop budget, arrival hop, address rotation) candidates, seed-ordered.
        let mut candidates: Vec<(usize, usize, usize)> = Vec::new();
        for hops in 2..=HOPS {
            for at in 0..hops {
                candidates.extend((0..pool.len()).map(|rot| (hops, at, rot)));
            }
        }
        rng.shuffle(&mut candidates);
        let mut variants = Vec::new();
        for (hops, at, rot) in candidates {
            let mut t = probe.compile_hops(hops).expect("app probes compile");
            t.hop = at as u8;
            if t.mode == AddrMode::Stack {
                t.sp = (at * probe.words_per_hop()) as u8;
            }
            for (k, ins) in t.instrs.iter_mut().enumerate() {
                if is_read(ins.opcode) {
                    ins.addr = pool[(k + rot) % pool.len()];
                } else {
                    // Write targets stay inside the app-specific link
                    // registers (AppSpecific_0..).
                    ins.addr = Address::new(ins.addr.raw() + (rot % 8) as u16);
                }
            }
            if seen.insert(program_key(&t)) {
                variants.push(t);
                if variants.len() == per_base {
                    break;
                }
            }
        }
        assert_eq!(variants.len(), per_base, "variant space too small for {}", probe.name());
        by_base.push(variants);
    }
    // Interleave the bases so any window of the round-robin mixes all seven.
    let mut out = Vec::with_capacity(COLD_PROGRAMS);
    'fill: for j in 0..per_base {
        for variants in &by_base {
            out.push(variants[j].clone());
            if out.len() == COLD_PROGRAMS {
                break 'fill;
            }
        }
    }
    out
}

fn graceful_frame(class: Graceful, plain: &[u8], flow: &Flow) -> (Vec<u8>, Expect) {
    match class {
        Graceful::OverBudget => {
            let mut t = microburst::microburst_probe().compile_hops(HOPS).expect("compiles");
            let first = t.instrs[0];
            t.instrs = vec![first; 6];
            let bytes = insert_transparent(plain, &t);
            let keep = ETH_HEADER..ETH_HEADER + t.section_len();
            (bytes, Expect::Untouched { keep })
        }
        Graceful::BadOpcode => {
            let t = netverify::trace_probe().compile_hops(HOPS).expect("compiles");
            let mut bytes = build_standalone(
                EthernetAddress::from_node_id(flow.src_id),
                EthernetAddress::from_node_id(flow.dst_id),
                Ipv4Address::from_host_id(flow.src_id),
                Ipv4Address::from_host_id(flow.dst_id),
                flow.sport,
                &t,
            );
            let TppLocation::Standalone { section, .. } = locate_tpp(&bytes) else {
                unreachable!("build_standalone builds a standalone TPP");
            };
            let end = section + t.section_len();
            bytes[section + HEADER_LEN] = 0xFF;
            bytes[section + 6..section + 8].fill(0);
            let c = checksum::checksum(&bytes[section..end]);
            bytes[section + 6..section + 8].copy_from_slice(&c.to_be_bytes());
            (bytes, Expect::Untouched { keep: section..end })
        }
        Graceful::MemoryFull => {
            let mut t = microburst::microburst_probe().compile_hops(2).expect("compiles");
            t.hop = 2;
            t.sp = t.memory_words() as u8;
            let bytes = insert_transparent(plain, &t);
            let mem = ETH_HEADER + HEADER_LEN + t.instrs.len() * INSTR_BYTES;
            (bytes, Expect::Untouched { keep: mem..ETH_HEADER + t.section_len() })
        }
    }
}

#[derive(Clone, Copy, Debug)]
struct Flow {
    src_id: u32,
    dst_id: u32,
    sport: u16,
    in_port: u8,
    /// Index into `Inputs::routes`.
    route: usize,
}

/// Build the workload's inputs from the seed.
pub fn generate(kind: Kind, seed: u64) -> Inputs {
    let mut rng = Rng::new(seed, kind as u64 + 1);

    // 4 groups of 4 ports; 64 Output routes and 64 Group routes, installed
    // in a seeded order.
    let mut ports: Vec<u8> = (0..N_PORTS as u8).collect();
    rng.shuffle(&mut ports);
    let groups: Vec<Vec<u8>> = ports.chunks(4).map(<[u8]>::to_vec).collect();
    let mut routed: Vec<(u32, Action)> = (0..N_ROUTES)
        .map(|i| {
            let action = if i % 2 == 0 {
                Action::Output(rng.below(N_PORTS) as u8)
            } else {
                Action::Group(rng.below(groups.len()) as u16)
            };
            (DST_BASE + i as u32, action)
        })
        .collect();
    rng.shuffle(&mut routed);
    let routes: Vec<(Ipv4Address, Action)> =
        routed.iter().map(|&(id, action)| (Ipv4Address::from_host_id(id), action)).collect();
    let out_mask = |route: usize| match routes[route].1 {
        Action::Output(p) => 1u16 << p,
        Action::Group(g) => groups[g as usize].iter().fold(0u16, |m, p| m | 1 << p),
        Action::Drop => 0,
    };

    // 120 flows, exactly half toward Output routes and half toward Group
    // routes so the action mix does not move with the seed.
    let (outputs, grouped): (Vec<usize>, Vec<usize>) =
        (0..N_ROUTES).partition(|&r| matches!(routes[r].1, Action::Output(_)));
    let flows: Vec<Flow> = (0..N_FLOWS)
        .map(|i| {
            let side = if i % 2 == 0 { &outputs } else { &grouped };
            let route = side[rng.below(side.len())];
            Flow {
                src_id: 1 + i as u32,
                dst_id: routed[route].0,
                sport: 20_000 + rng.below(20_000) as u16,
                in_port: rng.below(N_PORTS) as u8,
                route,
            }
        })
        .collect();
    let output_flows: Vec<usize> = (0..N_FLOWS).step_by(2).collect();

    // Ring order: back-to-back seeded permutations of the flows.
    let mut flow_of_slot: Vec<usize> = Vec::with_capacity(RING + N_FLOWS);
    while flow_of_slot.len() < RING {
        let mut perm: Vec<usize> = (0..N_FLOWS).collect();
        rng.shuffle(&mut perm);
        flow_of_slot.extend(perm);
    }
    flow_of_slot.truncate(RING);

    let programs: Vec<Tpp> = match kind {
        Kind::Plain => Vec::new(),
        Kind::Hot => hot_programs(),
        Kind::Cold => cold_programs(&mut rng),
    };
    // Which program each slot carries. Hot: seeded permutations of the 7;
    // cold: strict round-robin over the valid (non-graceful) slots.
    let mut prog_of_slot: Vec<Option<usize>> = vec![None; RING];
    match kind {
        Kind::Plain => {}
        Kind::Hot => {
            let mut order: Vec<usize> = Vec::new();
            while order.len() < RING {
                let mut perm: Vec<usize> = (0..programs.len()).collect();
                rng.shuffle(&mut perm);
                order.extend(perm);
            }
            for (slot, p) in prog_of_slot.iter_mut().zip(order) {
                *slot = Some(p);
            }
        }
        Kind::Cold => {
            let mut next = 0;
            for (i, slot) in prog_of_slot.iter_mut().enumerate() {
                if i % GRACEFUL_EVERY != GRACEFUL_EVERY - 1 {
                    *slot = Some(next % programs.len());
                    next += 1;
                }
            }
        }
    }
    // The hot update program only rides Output-routed flows, so its out port
    // (and with it the link register it writes) is known up front.
    if kind == Kind::Hot {
        let mut spare = 0;
        for (slot, flow) in flow_of_slot.iter_mut().enumerate() {
            if prog_of_slot[slot] == Some(UPDATE) && *flow % 2 == 1 {
                *flow = output_flows[spare % output_flows.len()];
                spare += 1;
            }
        }
    }
    // Versions per out port cycle 0,1,..,n-1,0 around the ring, so every
    // CSTORE of every pass finds the version it expects and the STORE behind
    // it executes, as in the running app.
    let mut updates_on_port = [0u32; N_PORTS];
    if kind == Kind::Hot {
        for (slot, &flow) in flow_of_slot.iter().enumerate() {
            if prog_of_slot[slot] == Some(UPDATE) {
                if let Action::Output(p) = routes[flows[flow].route].1 {
                    updates_on_port[p as usize] += 1;
                }
            }
        }
    }
    let mut seen_on_port = [0u32; N_PORTS];
    let update_probe = rcp::update_probe();

    let mut graceful_next = 0usize;
    let ring: Vec<RingFrame> = (0..RING)
        .map(|slot| {
            let flow = &flows[flow_of_slot[slot]];
            let plain = udp_frame(
                Ipv4Address::from_host_id(flow.src_id),
                Ipv4Address::from_host_id(flow.dst_id),
                flow.sport,
                5001,
                18,
            );
            let (bytes, expect) = match (kind, prog_of_slot[slot]) {
                (Kind::Plain, _) => (plain, Expect::Plain),
                (_, Some(p)) => {
                    let mut t = programs[p].clone();
                    if kind == Kind::Hot && p == UPDATE {
                        let Action::Output(port) = routes[flow.route].1 else {
                            unreachable!("update frames ride Output-routed flows");
                        };
                        let (k, n) = (seen_on_port[port as usize], updates_on_port[port as usize]);
                        seen_on_port[port as usize] += 1;
                        update_probe
                            .set_args(&mut t, 0, "version", &[k, (k + 1) % n])
                            .expect("hop 0 exists");
                        update_probe
                            .set_args(&mut t, 0, "rate", &[40_000 + k])
                            .expect("hop 0 exists");
                    }
                    (insert_transparent(&plain, &t), Expect::Executed { section: ETH_HEADER })
                }
                (_, None) => {
                    let class = GRACEFUL_CLASSES[graceful_next % GRACEFUL_CLASSES.len()];
                    graceful_next += 1;
                    graceful_frame(class, &plain, flow)
                }
            };
            RingFrame {
                bytes,
                in_port: flow.in_port,
                dst: Ipv4Address::from_host_id(flow.dst_id),
                out_ports: out_mask(flow.route),
                expect,
            }
        })
        .collect();

    Inputs { groups, routes, ring, programs }
}

/// Install the generated routes on a fresh 16-port switch.
pub fn build_switch(inputs: &Inputs) -> Switch {
    let mut sw = Switch::new(SwitchConfig::new(1, N_PORTS));
    for p in 0..N_PORTS as u8 {
        sw.set_link_speed(p, 10_000);
    }
    let ids: Vec<u16> = inputs.groups.iter().map(|g| sw.add_group(g.clone())).collect();
    for &(dst, action) in &inputs.routes {
        let action = match action {
            Action::Group(g) => Action::Group(ids[g as usize]),
            other => other,
        };
        sw.add_host_route(dst, action);
    }
    sw
}

/// Did the switch do what `f` asks? `deep` adds the checks too slow for the
/// timed loop (re-validating the forwarded section).
pub fn frame_ok(f: &RingFrame, port: u8, out: &[u8], deep: bool) -> bool {
    if (f.out_ports >> port) & 1 == 0 || out.len() != f.bytes.len() {
        return false;
    }
    match &f.expect {
        Expect::Plain => true,
        Expect::Executed { section } => {
            out[section + 3] == f.bytes[section + 3].wrapping_add(1)
                && (!deep || TppView::parse(&out[*section..]).is_ok())
        }
        Expect::Untouched { keep } => out[keep.clone()] == f.bytes[keep.clone()],
    }
}

/// One frame through the switch: `receive`, then `dequeue` from the port it
/// was queued on. `Err` hands back a recycled buffer when the frame was
/// dropped, so the caller's loop never allocates.
fn forward(
    sw: &mut Switch,
    now_ns: u64,
    in_port: u8,
    frame: Vec<u8>,
) -> Result<(u8, Vec<u8>), Vec<u8>> {
    match sw.receive(now_ns, in_port, frame) {
        ReceiveOutcome::Enqueued { port, .. } => sw.dequeue(now_ns, port).map(|out| (port, out)),
        ReceiveOutcome::Dropped(_) => None,
    }
    .ok_or_else(|| sw.take_retired().unwrap_or_default())
}

pub struct SwitchBench {
    kind: Kind,
    inputs: Inputs,
    sw: Switch,
    /// The one frame buffer, handed to `receive` and taken back from
    /// `dequeue`.
    buf: Vec<u8>,
    /// Ring cursor; it carries over between slices so the per-port CSTORE
    /// version cycle is never broken.
    pos: usize,
    now_ns: u64,
    digest: u64,
}

/// Simulated nanoseconds between frames (1 Mpps offered).
const GAP_NS: u64 = 1000;

impl SwitchBench {
    fn new(kind: Kind, seed: u64) -> Result<SwitchBench, String> {
        let inputs = generate(kind, seed);
        for t in &inputs.programs {
            // What an end-host does before it sends a program: prove it safe.
            let verdict = verify(t, VerifyOptions::default());
            if !verdict.passed() {
                return Err(format!("generated program failed verification: {t:?}"));
            }
        }
        let sw = build_switch(&inputs);
        let mut b = SwitchBench {
            kind,
            inputs,
            sw,
            buf: Vec::with_capacity(512),
            pos: 0,
            now_ns: 0,
            digest: 0,
        };
        // Warm-up slice = the deep output check, hashed into the digest.
        let mut fnv = Fnv::default();
        let s = b.run(kind.verify_frames(), Some(&mut fnv));
        if s.failed != 0 {
            return Err(format!(
                "{} of {} frames failed the output check",
                s.failed,
                s.ops + s.failed
            ));
        }
        b.digest = fnv.0;
        Ok(b)
    }

    /// Forward `n` ring frames; with `deep`, validate and hash every output.
    fn run(&mut self, n: usize, mut deep: Option<&mut Fnv>) -> Slice {
        let ring = &self.inputs.ring;
        let mut buf = std::mem::take(&mut self.buf);
        let (mut ok, mut failed) = (0u64, 0u64);
        let t0 = Instant::now();
        for _ in 0..n {
            let f = &ring[self.pos];
            self.pos = (self.pos + 1) % ring.len();
            self.now_ns += GAP_NS;
            if self.pos.is_multiple_of(1024) {
                self.sw.tick(self.now_ns);
            }
            buf.clear();
            buf.extend_from_slice(&f.bytes);
            buf = match forward(&mut self.sw, self.now_ns, f.in_port, buf) {
                Ok((port, out)) => {
                    if frame_ok(f, port, &out, deep.is_some()) {
                        ok += 1;
                    } else {
                        failed += 1;
                    }
                    if let Some(h) = deep.as_deref_mut() {
                        h.write(&out);
                    }
                    out
                }
                Err(recycled) => {
                    failed += 1;
                    recycled
                }
            };
        }
        let ns = t0.elapsed().as_nanos() as u64;
        self.buf = buf;
        Slice { ops: ok, failed, ns, phase: 0 }
    }
}

impl SwitchBench {
    /// The workload's own calls on the live switch: its slice untraced, then
    /// `receive` and `dequeue` in spans of their own, per-packet latency, and
    /// the exact counts. Returns `receive_ns + dequeue_ns`.
    fn trace_calls(&mut self, tr: &mut Tracer, part: f64, out: &mut Vec<LayerValue>) -> f64 {
        let n = self.inputs.ring.len();
        let base_ns = per_call_ns(tr, None, part, |_| {
            let s = self.run(CHUNK, None);
            (s.ops + s.failed, Some(s.ns))
        });
        let mut bufs: Vec<Vec<u8>> = (0..CHUNK).map(|_| Vec::with_capacity(512)).collect();
        let mut ports: Vec<Option<u8>> = vec![None; CHUNK];
        let (mut rx, mut dq, mut both) = (Vec::new(), Vec::new(), Vec::new());
        let slice_span = tr.enter("switch_slice_traced");
        let started = Instant::now();
        while started.elapsed().as_secs_f64() < part || rx.len() < 8 {
            let start = self.pos;
            for (k, b) in bufs.iter_mut().enumerate() {
                b.clear();
                b.extend_from_slice(&self.inputs.ring[(start + k) % n].bytes);
            }
            let chunk = tr.enter("switch.switch.chunk");
            let sp = tr.enter("switch.switch.receive");
            for k in 0..CHUNK {
                let f = &self.inputs.ring[(start + k) % n];
                self.now_ns += GAP_NS;
                ports[k] =
                    match self.sw.receive(self.now_ns, f.in_port, std::mem::take(&mut bufs[k])) {
                        ReceiveOutcome::Enqueued { port, .. } => Some(port),
                        ReceiveOutcome::Dropped(_) => None,
                    };
            }
            let rx_ns = tr.exit(sp);
            let sp = tr.enter("switch.switch.dequeue");
            for k in 0..CHUNK {
                bufs[k] = ports[k]
                    .and_then(|p| self.sw.dequeue(self.now_ns, p))
                    .unwrap_or_else(|| self.sw.take_retired().unwrap_or_default());
            }
            let dq_ns = tr.exit(sp);
            let chunk_ns = tr.exit(chunk);
            self.sw.tick(self.now_ns);
            self.pos = (start + CHUNK) % n;
            rx.push(Sample::new(CHUNK as u64, rx_ns));
            dq.push(Sample::new(CHUNK as u64, dq_ns));
            both.push(Sample::new(CHUNK as u64, chunk_ns));
        }
        tr.exit(slice_span);
        let ns_of = |v: &[Sample]| 1e9 / crate::stats::fast_rate(v);
        let (receive_ns, dequeue_ns) = (ns_of(&rx), ns_of(&dq));
        out.push(("switch.switch.receive_ns", receive_ns));
        out.push(("switch.switch.dequeue_ns", dequeue_ns));
        out.push(("trace_overhead_ratio", ns_of(&both) / base_ns));

        // --- Per-packet latency (one span's worth of clock per packet).
        let mut lat: Vec<f64> = Vec::with_capacity(100_000);
        let mut buf = std::mem::take(&mut self.buf);
        for _ in 0..100_000 {
            let f = &self.inputs.ring[self.pos];
            self.pos = (self.pos + 1) % n;
            self.now_ns += GAP_NS;
            buf.clear();
            buf.extend_from_slice(&f.bytes);
            let t0 = Instant::now();
            let got = forward(&mut self.sw, self.now_ns, f.in_port, buf);
            lat.push(t0.elapsed().as_nanos() as f64);
            buf = got.map_or_else(|recycled| recycled, |(_, out)| out);
        }
        self.buf = buf;
        lat.sort_by(f64::total_cmp);
        out.push(("switch.switch.p99_ns", quantile(&lat, 0.99)));

        // --- Counts, over a fixed number of frames from the top of the ring
        // --- so that they repeat exactly whatever the time-based parts did:
        // --- plan cache, frames off the fast path, drops, allocations.
        self.run((n - self.pos) % n, None);
        let stats_before = self.sw.plan_cache_stats();
        let rejected_before = self.sw.mem.tpp_rejected;
        alloc_start();
        let s = self.run(self.kind.verify_frames(), None);
        let a = alloc_stop();
        let frames = (s.ops + s.failed) as f64;
        let st = self.sw.plan_cache_stats();
        let (hits, misses) = (st.hits - stats_before.hits, st.misses - stats_before.misses);
        out.push(("switch.plan_cache.hit_ratio", hits as f64 / (hits + misses).max(1) as f64));
        out.push(("switch.plan_cache.misses", misses as f64 / frames));
        out.push((
            "switch.plan_cache.evictions",
            (st.evictions - stats_before.evictions) as f64 / frames,
        ));
        let slow = self.sw.mem.tpp_rejected - rejected_before + s.failed;
        out.push(("switch.switch.slow_path_share", slow as f64 / frames));
        out.push(("switch.switch.drops", s.failed as f64));
        out.push(("switch.switch.allocs_per_op", a.allocs as f64 / frames));
        out.push(("switch.switch.live_bytes_peak", a.live_peak as f64));
        tr.count("switch.frames", frames);
        tr.count("switch.plan_cache.hits", hits as f64);
        tr.count("switch.plan_cache.misses", misses as f64);
        receive_ns + dequeue_ns
    }

    /// The layers `receive`/`dequeue` call into, each timed on the same ring
    /// frames but its own private state. Returns the sum of those that sit
    /// on the forwarding path.
    fn trace_children(
        &self,
        tr: &mut Tracer,
        part: f64,
        out: &mut Vec<LayerValue>,
    ) -> Result<f64, String> {
        let n = self.inputs.ring.len();
        let opts = ExecOptions::default();
        let pcfg = PipelineConfig::default();
        let ns_of = |v: &[Sample]| 1e9 / crate::stats::fast_rate(v);
        let ring = &self.inputs.ring;
        let locate_ns = per_call_ns(tr, Some("core.wire.locate"), part, |c| {
            for k in 0..CHUNK {
                std::hint::black_box(locate_tpp(std::hint::black_box(
                    &ring[(c * CHUNK + k) % n].bytes,
                )));
            }
            (CHUNK as u64, None)
        });
        out.push(("core.wire.locate_ns", locate_ns));

        let mut table = FlowTable::default();
        for &(dst, action) in &self.inputs.routes {
            table.insert_host(dst, action, 0);
        }
        let lookup_ns = per_call_ns(tr, Some("switch.tables.lookup"), part, |c| {
            for k in 0..CHUNK {
                let f = &ring[(c * CHUNK + k) % n];
                std::hint::black_box(table.lookup(f.dst, f.bytes.len() as u64).map(|e| e.action));
            }
            (CHUNK as u64, None)
        });
        out.push(("switch.tables.lookup_ns", lookup_ns));
        out.push(("switch.tables.routes", table.len() as f64));
        let mut children = locate_ns + lookup_ns;

        if self.kind != Kind::Plain {
            // Section offset of every ring frame that carries a TPP.
            let sections: Vec<Option<usize>> = ring
                .iter()
                .map(|f| match locate_tpp(&f.bytes) {
                    TppLocation::Transparent { section }
                    | TppLocation::Standalone { section, .. } => Some(section),
                    TppLocation::None => None,
                })
                .collect();
            let mut checksummed = 0u64;
            let parse_ns = per_call_ns(tr, Some("core.wire.parse"), part, |c| {
                for k in 0..CHUNK {
                    let i = (c * CHUNK + k) % n;
                    if let Some(s) = sections[i] {
                        std::hint::black_box(TppView::parse(&ring[i].bytes[s..]).is_ok());
                    }
                }
                (CHUNK as u64, None)
            });
            for (f, s) in ring.iter().zip(&sections) {
                if let Some((view, _)) = s.and_then(|s| TppView::parse(&f.bytes[s..]).ok()) {
                    checksummed += view.section_len() as u64;
                }
            }
            out.push(("core.wire.parse_ns", parse_ns));
            out.push(("core.wire.checksum_bytes_per_op", checksummed as f64 / n as f64));

            // Validated views of the ring, reused by the planning layers.
            let views: Vec<Option<(TppView<'_>, usize)>> = ring
                .iter()
                .zip(&sections)
                .map(|(f, s)| {
                    s.and_then(|s| TppView::parse(&f.bytes[s..]).ok().map(|(v, _)| (v, s)))
                })
                .collect();
            let mut cache = PlanCache::default();
            let cache_ns = per_call_ns(tr, Some("switch.plan_cache.plan"), part, |c| {
                for k in 0..CHUNK {
                    let i = (c * CHUNK + k) % n;
                    if let Some((view, s)) = &views[i] {
                        std::hint::black_box(cache.plan(
                            view,
                            &ring[i].bytes[*s..],
                            *s,
                            &opts,
                            &pcfg,
                        ));
                    }
                }
                (CHUNK as u64, None)
            });
            out.push(("switch.plan_cache.plan_ns", cache_ns));
            let plan_ns = per_call_ns(tr, Some("switch.pipeline.plan"), part, |c| {
                for k in 0..CHUNK {
                    if let Some((view, s)) = &views[(c * CHUNK + k) % n] {
                        std::hint::black_box(TppRun::plan(view, *s, &opts, &pcfg));
                    }
                }
                (CHUNK as u64, None)
            });
            out.push(("switch.pipeline.plan_ns", plan_ns));

            // Execute every stage plus `finish` on a private memory map; the
            // frames are reset outside the span.
            let runs: Vec<Option<TppRun>> = views
                .iter()
                .map(|v| v.as_ref().map(|(view, s)| TppRun::plan(view, *s, &opts, &pcfg)))
                .collect();
            let mut mem = SwitchMemory::new(1, N_PORTS, pcfg.total_stages());
            let mut ctx = PacketContext::new(0, 64, 0, pcfg.total_stages());
            ctx.out_port = Some(1);
            let mut scratch: Vec<Vec<u8>> = ring.iter().map(|f| f.bytes.clone()).collect();
            let started = Instant::now();
            let mut samples = Vec::new();
            while started.elapsed().as_secs_f64() < part || samples.len() < 8 {
                for (s, f) in scratch.iter_mut().zip(ring) {
                    s.copy_from_slice(&f.bytes);
                }
                let sp = tr.enter("switch.pipeline.exec");
                for (frame, run) in scratch.iter_mut().zip(&runs) {
                    if let Some(mut run) = *run {
                        let mut bus = SwitchBus { mem: &mut mem, ctx: &mut ctx };
                        run.exec_stages(frame, &mut bus, 0..pcfg.total_stages(), &opts);
                        run.finish(frame, &opts);
                    }
                }
                samples.push(Sample::new(n as u64, tr.exit(sp)));
            }
            let exec_ns = ns_of(&samples);
            out.push(("switch.pipeline.exec_ns", exec_ns));
            children += parse_ns + cache_ns + exec_ns;

            // --- The two reference interpreters over the program mix, on a
            // --- flat-map bus that maps every address the programs name.
            let programs = &self.inputs.programs;
            let entries: Vec<(Address, u32)> =
                programs.iter().flat_map(|t| t.instrs.iter().map(|i| (i.addr, 7))).collect();
            let mut bus = MapBus::with(&entries);
            let pristine: Vec<Vec<u8>> = programs.iter().map(Tpp::serialize).collect();
            let mut wire = pristine.clone();
            let mut executed = 0u64;
            for s in &mut wire {
                let (mut view, _) = TppViewMut::parse(s).map_err(|e| format!("{e:?}"))?;
                executed += execute_in_place(&mut view, &mut bus, &opts).executed_count() as u64;
            }
            out.push(("core.exec.instrs_per_op", executed as f64 / programs.len() as f64));
            let np = programs.len();
            let in_place_ns = per_call_ns(tr, Some("core.exec.in_place"), part, |_| {
                for (s, p) in wire.iter_mut().zip(&pristine) {
                    s.copy_from_slice(p);
                    let (mut view, _) = TppViewMut::parse(s).expect("serialized by this crate");
                    std::hint::black_box(execute_in_place(&mut view, &mut bus, &opts));
                }
                (np as u64, None)
            });
            out.push(("core.exec.in_place_ns", in_place_ns));
            let mut owned: Vec<Tpp> = programs.clone();
            let reference_ns = per_call_ns(tr, Some("core.exec.reference"), part, |_| {
                for (t, p) in owned.iter_mut().zip(programs) {
                    // Reset what execution mutates, without reallocating.
                    t.memory.copy_from_slice(&p.memory);
                    (t.hop, t.sp, t.wrote) = (p.hop, p.sp, p.wrote);
                    std::hint::black_box(execute(t, &mut bus, &opts));
                }
                (np as u64, None)
            });
            out.push(("core.exec.reference_ns", reference_ns));
            let verify_ns = per_call_ns(tr, Some("core.verify.verify"), part, |_| {
                for t in programs {
                    std::hint::black_box(verify(t, VerifyOptions::default()).passed());
                }
                (np as u64, None)
            });
            out.push(("core.verify.verify_ns", verify_ns));
            let probes = app_probes();
            let compile_ns = per_call_ns(tr, Some("core.probe.compile"), part, |_| {
                for p in &probes {
                    std::hint::black_box(p.compile_hops(HOPS).is_ok());
                }
                (probes.len() as u64, None)
            });
            out.push(("core.probe.compile_ns", compile_ns));
        }

        Ok(children)
    }
}

impl Workload for SwitchBench {
    fn slice(&mut self) -> Result<Slice, String> {
        Ok(self.run(self.kind.slice_frames(), None))
    }

    fn output_digest(&self) -> u64 {
        self.digest
    }

    fn traced(&mut self, tr: &mut Tracer, seconds: f64) -> Result<Vec<LayerValue>, String> {
        // Fourteen measurements share the budget.
        let part = seconds / 14.0;
        let mut out: Vec<LayerValue> = Vec::new();
        let calls_ns = self.trace_calls(tr, part, &mut out);
        let children_ns = self.trace_children(tr, part, &mut out)?;
        // What receive + dequeue spend outside the independently timed
        // children: Ethernet/IP parse, TTL rewrite, flow hash, queue
        // push/pop, counters, cost model, buffer moves.
        out.push(("switch.switch.self_ns", calls_ns - children_ns));
        Ok(out)
    }
}

pub fn setup_plain(seed: u64) -> Result<Box<dyn Workload>, String> {
    Ok(Box::new(SwitchBench::new(Kind::Plain, seed)?))
}

pub fn setup_hot(seed: u64) -> Result<Box<dyn Workload>, String> {
    Ok(Box::new(SwitchBench::new(Kind::Hot, seed)?))
}

pub fn setup_cold(seed: u64) -> Result<Box<dyn Workload>, String> {
    Ok(Box::new(SwitchBench::new(Kind::Cold, seed)?))
}

/// A small switch of its own with a fixed cycle of frames, for the two arms
/// that are not workloads: the runner's calibration arm and the traced pass's
/// estimate of what a simulated switch costs per frame.
pub struct PrivateSwitch {
    sw: Switch,
    frames: Vec<Vec<u8>>,
    buf: Vec<u8>,
    pos: usize,
    now_ns: u64,
}

impl PrivateSwitch {
    fn new(routes: usize, frames: Vec<Vec<u8>>) -> PrivateSwitch {
        let mut sw = Switch::new(SwitchConfig::new(1, 4));
        for i in 0..routes {
            sw.add_host_route(
                Ipv4Address::from_host_id(DST_BASE + i as u32),
                Action::Output(i as u8 % 4),
            );
        }
        PrivateSwitch { sw, frames, buf: Vec::with_capacity(512), pos: 0, now_ns: 0 }
    }

    /// The high-IPC calibration arm: one route, one minimum-size frame.
    pub fn calibration() -> PrivateSwitch {
        let (src, dst) = (Ipv4Address::from_host_id(1), Ipv4Address::from_host_id(DST_BASE));
        PrivateSwitch::new(1, vec![udp_frame(src, dst, 1, 2, 18)])
    }

    /// The simulator's own traffic shape: 16 routes, 256-byte payloads, every
    /// fourth frame carrying the visibility program.
    pub fn sim_mix() -> PrivateSwitch {
        let program = microburst::microburst_probe().compile_hops(6).expect("compiles");
        let frames = (0..64u32)
            .map(|i| {
                let dst = Ipv4Address::from_host_id(DST_BASE + i % 16);
                let plain = udp_frame(Ipv4Address::from_host_id(1), dst, 5001, 5001, 256);
                if i % 4 == 3 {
                    insert_transparent(&plain, &program)
                } else {
                    plain
                }
            })
            .collect();
        PrivateSwitch::new(16, frames)
    }

    /// Forward `n` frames of the cycle; returns the host nanoseconds it took.
    pub fn forward(&mut self, n: usize) -> u64 {
        let mut buf = std::mem::take(&mut self.buf);
        let t0 = Instant::now();
        for _ in 0..n {
            self.now_ns += GAP_NS;
            buf.clear();
            buf.extend_from_slice(&self.frames[self.pos]);
            self.pos = (self.pos + 1) % self.frames.len();
            buf = match forward(&mut self.sw, self.now_ns, 0, buf) {
                Ok((_, out)) => out,
                Err(recycled) => recycled,
            };
        }
        let ns = t0.elapsed().as_nanos() as u64;
        self.buf = buf;
        ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_order() {
        for kind in [Kind::Plain, Kind::Hot, Kind::Cold] {
            let a = generate(kind, 11);
            assert_eq!(
                a,
                generate(kind, 11),
                "{kind:?}: generation must be a function of the seed"
            );
            let b = generate(kind, 12);
            assert_ne!(
                a.ring.iter().map(|f| &f.bytes).collect::<Vec<_>>(),
                b.ring.iter().map(|f| &f.bytes).collect::<Vec<_>>(),
                "{kind:?}: another seed must give another frame order"
            );
            assert_eq!(a.ring.len(), RING);
            assert_eq!(a.routes.len(), N_ROUTES);
        }
    }

    #[test]
    fn program_sets_have_the_advertised_size_and_verify() {
        let hot = generate(Kind::Hot, 3);
        assert_eq!(hot.programs.len(), 7);
        let cold = generate(Kind::Cold, 3);
        assert_eq!(cold.programs.len(), COLD_PROGRAMS);
        let keys: std::collections::BTreeSet<Vec<u8>> =
            cold.programs.iter().map(program_key).collect();
        assert_eq!(keys.len(), COLD_PROGRAMS, "cold programs must be distinct to the plan cache");
        for t in hot.programs.iter().chain(&cold.programs) {
            assert!(verify(t, VerifyOptions::default()).passed(), "{t:?}");
        }
        // The program set does not depend on the seed's flow order.
        assert_eq!(hot.programs, generate(Kind::Hot, 4).programs);
    }

    /// Each graceful-failure class is forwarded, untouched where promised,
    /// and never panics the current switch.
    #[test]
    fn graceful_failure_classes_are_handled_without_panic() {
        let inputs = generate(Kind::Cold, 5);
        let mut sw = build_switch(&inputs);
        let graceful: Vec<&RingFrame> =
            inputs.ring.iter().filter(|f| matches!(f.expect, Expect::Untouched { .. })).collect();
        assert_eq!(graceful.len(), RING / GRACEFUL_EVERY);
        let rejected_before = sw.mem.tpp_rejected;
        for (i, f) in graceful.iter().enumerate() {
            let ReceiveOutcome::Enqueued { port, .. } =
                sw.receive(1000 * i as u64, f.in_port, f.bytes.clone())
            else {
                panic!("class {:?} was dropped", GRACEFUL_CLASSES[i % 3]);
            };
            let out = sw.dequeue(1000 * i as u64, port).expect("enqueued frame dequeues");
            assert!(frame_ok(f, port, &out, true), "class {:?} modified", GRACEFUL_CLASSES[i % 3]);
        }
        // OverBudget and BadOpcode are counted as rejected; MemoryFull runs
        // (and skips) normally.
        let counted = (sw.mem.tpp_rejected - rejected_before) as usize;
        assert_eq!(counted, graceful.len() - graceful.len() / 3);
    }

    #[test]
    fn every_hot_update_finds_its_version_on_every_pass() {
        let inputs = generate(Kind::Hot, 9);
        let mut sw = build_switch(&inputs);
        let mut wrote = 0;
        let mut updates = 0;
        for pass in 0..2u64 {
            for (i, f) in inputs.ring.iter().enumerate() {
                let now = (pass * RING as u64 + i as u64) * 1000;
                let ReceiveOutcome::Enqueued { port, .. } =
                    sw.receive(now, f.in_port, f.bytes.clone())
                else {
                    panic!("hot frame dropped");
                };
                let out = sw.dequeue(now, port).unwrap();
                assert!(frame_ok(f, port, &out, true));
                let (view, _) = TppView::parse(&out[ETH_HEADER..]).unwrap();
                if view.instrs().any(|ins| ins.opcode == Opcode::Cstore) {
                    updates += 1;
                    wrote += view.wrote() as usize;
                }
            }
        }
        assert!(updates > 400, "the update program is one seventh of the ring");
        assert_eq!(wrote, updates, "every CSTORE/STORE pair must take effect");
    }
}
