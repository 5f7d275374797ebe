//! A TPP-capable switch: parser, ingress pipeline, output queues, egress
//! pipeline, and the distributed TCPU (§3, Figure 6).
//!
//! The switch is driven by its owner (the network simulator):
//!
//! * [`Switch::receive`] — a frame arrives on a port: parse, execute the
//!   ingress portion of any TPP, route, and enqueue (or drop).
//! * [`Switch::dequeue`] — the port is ready to transmit: pop the next
//!   frame, execute the egress portion of its TPP, rewrite the packet.
//! * [`Switch::tick`] — advance time-driven state (link-utilization EWMAs).

use std::collections::VecDeque;

use crate::cost::{CostProfile, ASIC};
use crate::memmap::{FlowEntryStats, PacketContext, SwitchBus, SwitchMemory};
use crate::pipeline::{PipelineConfig, TppRun};
use crate::plan_cache::{PlanCache, PlanCacheStats};
use crate::tables::{Action, FlowKey, FlowTable, GroupTable};
use tpp_core::addr::layout;
use tpp_core::exec::ExecOptions;
use tpp_core::wire::{
    ethernet, locate_tpp, EthernetFrame, Ipv4Address, Ipv4Packet, TppLocation, TppView,
};

/// Static configuration of one switch.
#[derive(Clone, Debug)]
pub struct SwitchConfig {
    pub switch_id: u32,
    /// The switch's own IP, used for targeted TPPs (§4.4).
    pub ip: Ipv4Address,
    pub n_ports: usize,
    pub pipeline: PipelineConfig,
    /// Administrative write kill-switch (§4.3).
    pub allow_writes: bool,
    pub max_instructions: usize,
    /// Drop-tail limit per queue, bytes.
    pub queue_limit_bytes: u32,
    /// Link-utilization refresh interval (§2.2: "the network updates link
    /// utilization counters every millisecond").
    pub util_interval_ns: u64,
    /// Include the L4 destination port in the ECMP hash. CONGA* deployments
    /// exclude it so a flow's TPP probes follow the flow's path (§2.4).
    pub ecmp_hash_dst_port: bool,
    pub cost: CostProfile,
}

impl SwitchConfig {
    pub fn new(switch_id: u32, n_ports: usize) -> Self {
        SwitchConfig {
            switch_id,
            ip: Ipv4Address::new(192, 168, (switch_id >> 8) as u8, switch_id as u8),
            n_ports,
            pipeline: PipelineConfig::default(),
            allow_writes: true,
            max_instructions: tpp_core::isa::MAX_INSTRUCTIONS,
            queue_limit_bytes: 150_000,
            util_interval_ns: 1_000_000,
            ecmp_hash_dst_port: true,
            cost: ASIC,
        }
    }
}

/// Why a packet was dropped.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DropReason {
    /// No route for the destination.
    NoRoute,
    /// Drop-tail queue overflow.
    QueueFull,
    /// TTL expired.
    TtlExpired,
    /// Unparseable frame or unsupported ethertype.
    Malformed,
    /// Explicit drop action.
    Policy,
}

/// Result of [`Switch::receive`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReceiveOutcome {
    /// Frame enqueued on `port`/`queue`; the pipeline spent
    /// `proc_latency_ns` on it: the baseline plus, for a TPP, parse, rewrite
    /// and the instructions its *ingress* stages executed (§6.1). What the
    /// egress stages execute at [`Switch::dequeue`] is charged nowhere.
    Enqueued {
        port: u8,
        queue: u8,
        proc_latency_ns: u64,
    },
    Dropped(DropReason),
}

/// One frame waiting in an output queue. Forwarding a plain frame needs no
/// more than its buffer; what a TPP carries from ingress to egress sits in
/// [`Switch::tpp_slab`], so this stays a fraction of a cache line.
struct QueuedFrame {
    frame: Vec<u8>,
    /// This frame's TPP state is named in `tpps`, at its front when the
    /// frame is at the front of `frames`.
    has_tpp: bool,
    /// Reflect back toward the source after egress execution.
    reflect: bool,
}

/// The ingress-to-egress state of one TPP.
struct QueuedTpp {
    run: TppRun,
    ctx: PacketContext,
    enq_ns: u64,
}

/// One output queue of one port: the frames in FIFO order and, in the same
/// order, where in [`Switch::tpp_slab`] the TPP state is of those that carry
/// one. Two contiguous rings popped in lock-step, both allocation-free once
/// grown to their working size.
#[derive(Default)]
struct OutQueue {
    frames: VecDeque<QueuedFrame>,
    tpps: VecDeque<u32>,
}

const QUEUES_PER_PORT: usize = layout::QUEUES_PER_PORT as usize;
// `Switch::nonempty` keeps one bit per queue of a port in a `u8`.
const _: () = assert!(QUEUES_PER_PORT <= u8::BITS as usize);

/// A TPP-capable switch.
pub struct Switch {
    pub cfg: SwitchConfig,
    pub mem: SwitchMemory,
    pub table: FlowTable,
    pub groups: GroupTable,
    /// `n_ports * QUEUES_PER_PORT` output queues, port-major.
    queues: Vec<OutQueue>,
    /// The state of every TPP between `receive` and `dequeue`, built where it
    /// stays: the plan is copied in once, the ingress stages, the queue wait
    /// and the egress stages run on it in place. The queues hold indices.
    /// Grows to the most TPP frames ever queued at once, like the rings.
    tpp_slab: Vec<QueuedTpp>,
    /// Slab entries not in any queue. `receive` builds a TPP's state in the
    /// *last* one and takes it off this list only once the frame is queued,
    /// so no drop path has anything to give back.
    tpp_free: Vec<u32>,
    /// Per port, bit `q` is set while queue `q` holds a frame: `dequeue`
    /// picks the next queue to serve without touching the empty ones.
    nonempty: Vec<u8>,
    rr_next: Vec<usize>,
    last_util_ns: u64,
    /// Frame buffers of dropped packets, retained (bounded) for reuse so
    /// the owner — e.g. the network simulator's frame pool — can recycle
    /// them instead of round-tripping the allocator on every drop.
    retired: Vec<Vec<u8>>,
    /// Program-keyed cache of ingress plans: the same probe program on the
    /// thousandth packet of a flow reuses the decoded [`TppRun`] (slot
    /// serialization, stage assignment, schedule) instead of re-planning.
    /// Exact-compare keyed — see [`crate::plan_cache`].
    plan_cache: PlanCache,
}

/// Retained dropped-frame buffers are capped; beyond this they free
/// normally.
const MAX_RETIRED: usize = 64;

impl Switch {
    pub fn new(cfg: SwitchConfig) -> Self {
        let mem = SwitchMemory::new(cfg.switch_id, cfg.n_ports, cfg.pipeline.total_stages());
        let mut sw = Switch {
            mem,
            table: FlowTable::default(),
            groups: GroupTable::default(),
            queues: (0..cfg.n_ports * QUEUES_PER_PORT).map(|_| OutQueue::default()).collect(),
            tpp_slab: Vec::new(),
            tpp_free: Vec::new(),
            nonempty: vec![0; cfg.n_ports],
            rr_next: vec![0; cfg.n_ports],
            last_util_ns: 0,
            retired: Vec::new(),
            plan_cache: PlanCache::default(),
            cfg,
        };
        for q in 0..QUEUES_PER_PORT {
            for p in 0..sw.cfg.n_ports {
                sw.mem.queues[p][q].limit_bytes = sw.cfg.queue_limit_bytes;
            }
        }
        sw
    }

    /// Park a dropped frame's buffer for reuse by the owner.
    fn retire(&mut self, frame: Vec<u8>) {
        if self.retired.len() < MAX_RETIRED {
            self.retired.push(frame);
        }
    }

    /// Take back one retired (dropped) frame buffer, if any.
    pub fn take_retired(&mut self) -> Option<Vec<u8>> {
        self.retired.pop()
    }

    fn exec_options(&self) -> ExecOptions {
        ExecOptions {
            allow_writes: self.cfg.allow_writes,
            max_instructions: self.cfg.max_instructions,
            increment_hop: true,
        }
    }

    /// Plan-cache hit/miss/eviction counters since construction.
    pub fn plan_cache_stats(&self) -> PlanCacheStats {
        self.plan_cache.stats()
    }

    /// Set the speed of a port (called when the simulator attaches a link).
    pub fn set_link_speed(&mut self, port: u8, mbps: u32) {
        self.mem.links[port as usize].speed_mbps = mbps;
    }

    /// Control-plane route insertion; bumps flow-table and switch versions.
    pub fn add_route(&mut self, prefix: (Ipv4Address, u8), action: Action) -> u32 {
        let now = self.mem.now_ns;
        let id = self.table.upsert(prefix, action, now);
        self.sync_table_meta();
        id
    }

    pub fn add_host_route(&mut self, dst: Ipv4Address, action: Action) -> u32 {
        self.add_route((dst, 32), action)
    }

    /// Control-plane route withdrawal: remove the `/32` entry for `dst`.
    /// Returns whether an entry existed. Bumps flow-table and switch
    /// versions on removal; subsequent packets toward `dst` drop with
    /// `NoRoute`.
    pub fn remove_host_route(&mut self, dst: Ipv4Address) -> bool {
        let Some(id) = self.table.find_exact((dst, 32)).map(|e| e.entry_id) else {
            return false;
        };
        self.table.remove(id);
        self.sync_table_meta();
        true
    }

    /// The `/32` action currently installed for `dst`, if any (control-plane
    /// read used by the dependency-ordered update scheduler).
    pub fn host_route(&self, dst: Ipv4Address) -> Option<Action> {
        self.table.find_exact((dst, 32)).map(|e| e.action)
    }

    pub fn add_group(&mut self, ports: Vec<u8>) -> u16 {
        self.groups.add(ports)
    }

    fn sync_table_meta(&mut self) {
        let rs = self.cfg.pipeline.routing_stage();
        self.mem.stages[rs].version = self.table.version;
        self.mem.stages[rs].refcount = self.table.len() as u32;
        self.mem.version = self.mem.version.wrapping_add(1);
    }

    /// Total bytes queued on a port (all queues).
    pub fn queued_bytes(&self, port: u8) -> u64 {
        self.mem.links[port as usize].queued_bytes
    }

    pub fn has_queued(&self, port: u8) -> bool {
        self.nonempty[port as usize] != 0
    }

    /// Advance time-driven state. Call at least once per utilization
    /// interval. A `now_ns` earlier than the last closed utilization window
    /// closes none, and neither does a zero `util_interval_ns`.
    pub fn tick(&mut self, now_ns: u64) {
        self.mem.now_ns = now_ns;
        let interval = self.cfg.util_interval_ns;
        while interval != 0 && now_ns.saturating_sub(self.last_util_ns) >= interval {
            self.last_util_ns += interval;
            self.mem.update_utilization(interval);
        }
    }

    /// A frame arrives on `in_port` at `now_ns`: parse, plan and run the
    /// ingress stages of its TPP if it has one, route, and enqueue or drop.
    /// The latency reported covers the ingress stages only (see
    /// [`ReceiveOutcome::Enqueued`]).
    pub fn receive(&mut self, now_ns: u64, in_port: u8, mut frame: Vec<u8>) -> ReceiveOutcome {
        self.mem.set_clock(now_ns);
        let opts = &self.exec_options();
        let len = frame.len() as u64;
        {
            let l = &mut self.mem.links[in_port as usize];
            l.rx_bytes += len;
            l.rx_pkts += 1;
            l.rx_bytes_interval += len;
        }

        let Some(eth) = EthernetFrame::new_checked(&frame[..]) else {
            return self.drop_malformed(in_port, frame);
        };
        let ethertype = eth.ethertype();
        if ethertype != ethernet::ethertype::IPV4 && ethertype != ethernet::ethertype::TPP {
            return self.drop_malformed(in_port, frame);
        }

        // Locate and validate the TPP, if any (Figure 7a parse graph). The
        // section is validated once as a borrowed view — no owned parse —
        // and planned into a fixed-size TppRun through the per-switch plan
        // cache (a repeated program reuses its decoded plan); the program
        // then executes in place against the frame bytes. Only a frame that
        // carries a TPP gets per-packet TPP state (Fig. 6: everything else
        // forwards without engaging the TCPU), built in a free slab entry.
        let pcfg = self.cfg.pipeline;
        let loc = locate_tpp(&frame);
        let (plan_cache, slab, free) =
            (&mut self.plan_cache, &mut self.tpp_slab, &mut self.tpp_free);
        let n_stages = self.mem.n_stages;
        let mut plan = |view: &TppView<'_>, section: usize| {
            let run = plan_cache.plan(view, &frame[section..], section, opts, &pcfg);
            let mut ctx = PacketContext::new(in_port, len as u32, now_ns, n_stages);
            ctx.hop_count = run.hop.into();
            let state = QueuedTpp { run, ctx, enq_ns: now_ns };
            match free.last() {
                Some(&at) => {
                    slab[at as usize] = state;
                    at
                }
                None => {
                    let at = u32::try_from(slab.len()).expect("fewer than 2^32 queued TPPs");
                    slab.push(state);
                    // Room for every entry to come back: `dequeue` never
                    // allocates.
                    free.reserve(slab.len());
                    free.push(at);
                    at
                }
            }
        };
        let mut tpp_at: Option<u32> = None;
        let ip_offset: Option<usize> = match loc {
            TppLocation::Transparent { section } => match TppView::parse(&frame[section..]) {
                Ok((view, consumed)) if view.encap_proto() == ethernet::ethertype::IPV4 => {
                    tpp_at = Some(plan(&view, section));
                    Some(section + consumed)
                }
                // Damaged TPP (the inner packet's location is unknowable)
                // or unroutable non-IP payload: count and drop below, once
                // the frame is no longer borrowed.
                Ok(_) | Err(_) => None,
            },
            TppLocation::Standalone { section, ip, .. } => {
                match TppView::parse(&frame[section..]) {
                    Ok((view, _)) => tpp_at = Some(plan(&view, section)),
                    // Forward as a normal UDP packet, uninstrumented.
                    Err(_) => self.mem.tpp_rejected += 1,
                }
                Some(ip)
            }
            TppLocation::None => Some(ethernet::HEADER_LEN),
        };
        let Some(ip_offset) = ip_offset else {
            self.mem.tpp_rejected += 1;
            return self.drop_malformed(in_port, frame);
        };

        // Routing header checks (TTL) on the routed IP header, parsed once:
        // the flow key reads addresses, protocol and L4 ports, which neither
        // the TTL rewrite nor a TPP (it writes inside its own section only)
        // can change before the routing stage hashes them.
        let Some(ip) = Ipv4Packet::new_checked(&frame[ip_offset..]) else {
            return self.drop_malformed(in_port, frame);
        };
        let (dst_ip, ttl, key) = (ip.dst(), ip.ttl(), FlowKey::from_ipv4(&ip));
        if ttl <= 1 {
            let l = &mut self.mem.links[in_port as usize];
            l.drop_bytes += len;
            l.drop_pkts += 1;
            self.retire(frame);
            return ReceiveOutcome::Dropped(DropReason::TtlExpired);
        }
        Ipv4Packet::new_unchecked(&mut frame[ip_offset..]).decrement_ttl();

        // Execute the pre-routing ingress stages in place.
        let cfg = pcfg;
        let rs = cfg.routing_stage();
        let mut tpp = tpp_at.map(|at| &mut self.tpp_slab[at as usize]);
        if let Some(t) = &mut tpp {
            if t.run.rejected {
                self.mem.tpp_rejected += 1;
            }
            let mut bus = SwitchBus { mem: &mut self.mem, ctx: &mut t.ctx };
            t.run.exec_stages(&mut frame, &mut bus, 0..rs, opts);
        }

        // Targeted TPP addressed to this switch (§4.4): execute and reflect.
        let reflect_here = dst_ip == self.cfg.ip
            || tpp.as_ref().is_some_and(|t| t.run.reflect)
                && matches!(loc, TppLocation::Standalone { .. });

        // Routing lookup at the routing stage. The flow hash has two readers,
        // a TPP (`[PacketMetadata:PathHash]`) and an ECMP group: a plain
        // frame on an `Output` route never computes it.
        let out_port: Option<u8> = if reflect_here {
            Some(in_port)
        } else {
            let path_hash = || key.hash_with(self.cfg.ecmp_hash_dst_port);
            self.mem.stages[rs].lookup_pkts += 1;
            self.mem.stages[rs].lookup_bytes += len;
            match self.table.lookup(dst_ip, len) {
                Some(entry) => {
                    self.mem.stages[rs].match_pkts += 1;
                    self.mem.stages[rs].match_bytes += len;
                    if let Some(t) = &mut tpp {
                        t.ctx.path_hash = path_hash();
                        t.ctx.matched_entry.set(
                            rs,
                            FlowEntryStats {
                                entry_id: entry.entry_id,
                                insert_clock: entry.insert_clock,
                                match_pkts: entry.match_pkts,
                                match_bytes: entry.match_bytes,
                            },
                        );
                    }
                    match entry.action {
                        Action::Output(p) => Some(p),
                        Action::Group(g) => {
                            let hash = tpp.as_ref().map_or_else(path_hash, |t| t.ctx.path_hash);
                            self.groups.select(g, hash)
                        }
                        Action::Drop => None,
                    }
                }
                None => None,
            }
        };
        let Some(out_port) = out_port else {
            let l = &mut self.mem.links[in_port as usize];
            l.drop_bytes += len;
            l.drop_pkts += 1;
            self.retire(frame);
            return ReceiveOutcome::Dropped(DropReason::NoRoute);
        };
        let mut out_port = out_port % self.cfg.n_ports as u8;
        let mut queue = 0;

        // Execute the routing stage itself (output port now visible; a TPP
        // write to [PacketMetadata:OutputPort] supersedes the lookup, §3.2).
        if let Some(t) = &mut tpp {
            t.ctx.out_port = Some(out_port);
            let mut bus = SwitchBus { mem: &mut self.mem, ctx: &mut t.ctx };
            t.run.exec_stages(&mut frame, &mut bus, rs..cfg.n_ingress, opts);
            out_port = t.ctx.out_port.expect("set above; a TPP can only overwrite it")
                % self.cfg.n_ports as u8;
            t.ctx.out_port = Some(out_port);
            queue = t.ctx.out_queue % QUEUES_PER_PORT as u8;
        }

        // Drop-tail admission against the queue limit.
        let qstats = &self.mem.queues[out_port as usize][queue as usize];
        if qstats.bytes + len > qstats.limit_bytes as u64 {
            let q = &mut self.mem.queues[out_port as usize][queue as usize];
            q.drop_pkts += 1;
            q.drop_bytes += len;
            let l = &mut self.mem.links[out_port as usize];
            l.drop_bytes += len;
            l.drop_pkts += 1;
            self.retire(frame);
            return ReceiveOutcome::Dropped(DropReason::QueueFull);
        }

        // Enqueue-time snapshot: the congestion this packet experienced.
        if let Some(t) = &mut tpp {
            t.ctx.enq_qdepth_bytes = Some(qstats.bytes as u32);
            t.ctx.enq_qdepth_pkts = Some(qstats.pkts as u32);
        }
        {
            let q = &mut self.mem.queues[out_port as usize][queue as usize];
            q.bytes += len;
            q.pkts += 1;
            let l = &mut self.mem.links[out_port as usize];
            l.queued_bytes += len;
            l.queued_pkts += 1;
        }

        // Pipeline latency: baseline plus what the instructions executed in
        // the ingress stages cost. (What runs in the egress stages, at
        // `dequeue`, is charged nowhere.)
        let mut proc_latency_ns = self.cfg.cost.base_latency_ns;
        if let Some(t) = &tpp {
            proc_latency_ns += self.cfg.cost.tpp_latency_ns(t.run.executed_ops().iter().copied());
        }

        let q = &mut self.queues[out_port as usize * QUEUES_PER_PORT + queue as usize];
        q.frames.push_back(QueuedFrame { frame, has_tpp: tpp_at.is_some(), reflect: reflect_here });
        if let Some(at) = tpp_at {
            self.tpp_free.pop();
            q.tpps.push_back(at);
        }
        self.nonempty[out_port as usize] |= 1 << queue;
        ReceiveOutcome::Enqueued { port: out_port, queue, proc_latency_ns }
    }

    fn drop_malformed(&mut self, in_port: u8, frame: Vec<u8>) -> ReceiveOutcome {
        let len = frame.len() as u64;
        self.retire(frame);
        let l = &mut self.mem.links[in_port as usize];
        l.err_pkts += 1;
        l.drop_bytes += len;
        l.drop_pkts += 1;
        ReceiveOutcome::Dropped(DropReason::Malformed)
    }

    /// The port is ready to transmit: pop the next frame (round-robin over
    /// non-empty queues), run the egress pipeline, rewrite the TPP. Charges
    /// no latency: the caller's link model times the transmission.
    pub fn dequeue(&mut self, now_ns: u64, port: u8) -> Option<Vec<u8>> {
        self.mem.set_clock(now_ns);
        let opts = &self.exec_options();
        let p = port as usize;
        // The first non-empty queue at or after the round-robin pointer,
        // else (wrapping) the first one before it.
        let nonempty = self.nonempty[p];
        if nonempty == 0 {
            return None;
        }
        let ahead = nonempty & (u8::MAX << self.rr_next[p]);
        let qi = if ahead != 0 { ahead } else { nonempty }.trailing_zeros() as usize;
        self.rr_next[p] = (qi + 1) % QUEUES_PER_PORT;
        let q = &mut self.queues[p * QUEUES_PER_PORT + qi];
        let QueuedFrame { mut frame, has_tpp, reflect } =
            q.frames.pop_front().expect("non-empty by its bit");
        if q.frames.is_empty() {
            self.nonempty[p] &= !(1 << qi);
        }
        let len = frame.len() as u64;

        {
            let q = &mut self.mem.queues[p][qi];
            q.bytes -= len;
            q.pkts -= 1;
            q.tx_bytes += len;
            q.tx_pkts += 1;
            let l = &mut self.mem.links[p];
            l.queued_bytes -= len;
            l.queued_pkts -= 1;
            l.tx_bytes += len;
            l.tx_pkts += 1;
            l.tx_bytes_interval += len;
        }

        if has_tpp {
            // The TPP's state is finished where it has sat since `receive`.
            let at = q.tpps.pop_front().expect("queued with its frame");
            let t = &mut self.tpp_slab[at as usize];
            t.ctx.queue_wait_ns = Some(now_ns.saturating_sub(t.enq_ns).min(u32::MAX as u64) as u32);
            let cfg = self.cfg.pipeline;
            let mut bus = SwitchBus { mem: &mut self.mem, ctx: &mut t.ctx };
            t.run.exec_stages(&mut frame, &mut bus, cfg.egress_stage()..cfg.total_stages(), opts);
            // In-place completion: SP/wrote/hop land in the frame with the
            // checksum folded incrementally — no re-serialization.
            t.run.finish(&mut frame, opts);
            if !t.run.rejected {
                self.mem.tpp_executed += 1;
            }
            self.tpp_free.push(at);
        }

        if reflect {
            reflect_frame(&mut frame);
        }
        Some(frame)
    }
}

/// Send a frame back toward its source (§4.4 "Reflective TPP"): swap the
/// Ethernet addresses and, for a standalone TPP, the IP addresses. Swapping
/// src/dst leaves both the IPv4 header checksum and the UDP pseudo-header
/// checksum unchanged (the ones' complement sum is commutative), and the UDP
/// destination port stays 0x6666 so the origin's parse graph still
/// recognizes the TPP.
///
/// Where the IP header sits is read off the frame here, not carried with it
/// from ingress: reflection is the rare targeted probe, and nothing a switch
/// rewrites (TTL, checksums, the TPP section) moves a frame on the Figure 7a
/// parse graph.
pub fn reflect_frame(frame: &mut [u8]) {
    // Swap MACs.
    for i in 0..6 {
        frame.swap(i, i + 6);
    }
    if let TppLocation::Standalone { ip, .. } = locate_tpp(frame) {
        for i in 0..4 {
            frame.swap(ip + 12 + i, ip + 16 + i);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpp_core::addr::resolve_mnemonic;
    use tpp_core::asm::TppBuilder;
    use tpp_core::wire::{
        self, build_standalone, insert_transparent, ipv4, udp, EthernetAddress, Tpp,
    };

    fn host_frame(src: u32, dst: u32, payload_len: usize, sport: u16, dport: u16) -> Vec<u8> {
        let src_ip = Ipv4Address::from_host_id(src);
        let dst_ip = Ipv4Address::from_host_id(dst);
        let u = udp::Repr { src_port: sport, dst_port: dport, payload_len };
        let udp_bytes = u.encapsulate(src_ip, dst_ip, &vec![0xAB; payload_len]);
        let ip = ipv4::Repr {
            src: src_ip,
            dst: dst_ip,
            protocol: ipv4::protocol::UDP,
            ttl: 64,
            payload_len: udp_bytes.len(),
        };
        let ip_bytes = ip.encapsulate(&udp_bytes);
        wire::EthernetRepr {
            dst: EthernetAddress::from_node_id(dst),
            src: EthernetAddress::from_node_id(src),
            ethertype: ethernet::ethertype::IPV4,
        }
        .encapsulate(&ip_bytes)
    }

    fn basic_switch() -> Switch {
        let mut sw = Switch::new(SwitchConfig::new(7, 4));
        sw.add_host_route(Ipv4Address::from_host_id(2), Action::Output(2));
        sw
    }

    #[test]
    fn plain_forwarding() {
        let mut sw = basic_switch();
        let frame = host_frame(1, 2, 100, 1000, 2000);
        let out = sw.receive(0, 0, frame.clone());
        match out {
            ReceiveOutcome::Enqueued { port: 2, queue: 0, .. } => {}
            other => panic!("unexpected {other:?}"),
        }
        let sent = sw.dequeue(10, 2).unwrap();
        // TTL decremented, checksum still valid.
        let ip = Ipv4Packet::new_checked(&sent[14..]).unwrap();
        assert_eq!(ip.ttl(), 63);
        assert!(ip.verify_checksum());
        // Stats updated.
        assert_eq!(sw.mem.links[0].rx_pkts, 1);
        assert_eq!(sw.mem.links[2].tx_pkts, 1);
        assert!(!sw.has_queued(2));
    }

    #[test]
    fn a_queued_plain_frame_is_little_more_than_its_buffer() {
        // The guard on the queue layout: TPP state lives beside the frame
        // ring, not in it, so a deep queue of plain frames stays compact.
        assert!(std::mem::size_of::<QueuedFrame>() <= 40);
    }

    #[test]
    fn no_route_drops() {
        let mut sw = basic_switch();
        let frame = host_frame(1, 99, 100, 1000, 2000);
        assert_eq!(sw.receive(0, 0, frame), ReceiveOutcome::Dropped(DropReason::NoRoute));
        assert_eq!(sw.mem.links[0].drop_pkts, 1);
    }

    #[test]
    fn ttl_expiry_drops() {
        let mut sw = basic_switch();
        let mut frame = host_frame(1, 2, 100, 1, 2);
        {
            let mut ip = Ipv4Packet::new_unchecked(&mut frame[14..]);
            ip.set_ttl(1);
            ip.fill_checksum();
        }
        assert_eq!(sw.receive(0, 0, frame), ReceiveOutcome::Dropped(DropReason::TtlExpired));
    }

    #[test]
    fn queue_overflow_drops_and_counts() {
        let mut cfg = SwitchConfig::new(7, 4);
        cfg.queue_limit_bytes = 300;
        let mut sw = Switch::new(cfg);
        sw.add_host_route(Ipv4Address::from_host_id(2), Action::Output(2));
        let mut drops = 0;
        for _ in 0..4 {
            if let ReceiveOutcome::Dropped(DropReason::QueueFull) =
                sw.receive(0, 0, host_frame(1, 2, 100, 1, 2))
            {
                drops += 1;
            }
        }
        assert!(drops >= 2, "expected overflow drops, got {drops}");
        assert_eq!(sw.mem.queues[2][0].drop_pkts, drops);
        assert_eq!(sw.mem.links[2].drop_pkts, drops);
    }

    #[test]
    fn transparent_tpp_executes_and_forwards() {
        let mut sw = basic_switch();
        let inner = host_frame(1, 2, 64, 1000, 2000);
        let tpp = TppBuilder::stack_mode()
            .push_m("Switch:SwitchID")
            .unwrap()
            .push_m("PacketMetadata:OutputPort")
            .unwrap()
            .push_m("Queue:QueueOccupancy")
            .unwrap()
            .hops(2)
            .build()
            .unwrap();
        let frame = insert_transparent(&inner, &tpp);
        let out = sw.receive(5, 0, frame);
        assert!(matches!(out, ReceiveOutcome::Enqueued { port: 2, .. }));
        let sent = sw.dequeue(10, 2).unwrap();
        let (_, executed) = wire::extract_tpp(&sent).expect("TPP still present and valid");
        assert_eq!(executed.hop, 1);
        assert_eq!(executed.sp, 3);
        let w = executed.words();
        assert_eq!(w[0], 7); // switch id
        assert_eq!(w[1], 2); // output port
        assert_eq!(w[2], 0); // empty queue at enqueue
        assert_eq!(sw.mem.tpp_executed, 1);
    }

    #[test]
    fn tpp_sees_enqueue_snapshot_of_queue() {
        let mut sw = basic_switch();
        // First fill the queue with two plain packets.
        sw.receive(0, 0, host_frame(1, 2, 200, 1, 2));
        sw.receive(1, 0, host_frame(1, 2, 200, 1, 2));
        let inner = host_frame(1, 2, 64, 1000, 2000);
        let tpp = TppBuilder::stack_mode()
            .push_m("Queue:QueueOccupancy")
            .unwrap()
            .hops(1)
            .build()
            .unwrap();
        sw.receive(2, 0, insert_transparent(&inner, &tpp));
        // Drain: two plain packets then the instrumented one.
        sw.dequeue(10, 2);
        sw.dequeue(20, 2);
        let sent = sw.dequeue(30, 2).unwrap();
        let (_, executed) = wire::extract_tpp(&sent).unwrap();
        // Two 242-byte frames were ahead of it at enqueue.
        let expected = 2 * (200 + 8 + 20 + 14) as u32;
        assert_eq!(executed.words()[0], expected);
    }

    #[test]
    fn standalone_tpp_to_switch_ip_reflects() {
        let mut sw = basic_switch();
        let src_ip = Ipv4Address::from_host_id(1);
        let tpp =
            TppBuilder::stack_mode().push_m("Switch:SwitchID").unwrap().hops(1).build().unwrap();
        let frame = build_standalone(
            EthernetAddress::from_node_id(1),
            EthernetAddress::from_node_id(1000),
            src_ip,
            sw.cfg.ip,
            5000,
            &tpp,
        );
        let out = sw.receive(0, 1, frame);
        // Reflected: queued back out the ingress port.
        assert!(matches!(out, ReceiveOutcome::Enqueued { port: 1, .. }));
        let sent = sw.dequeue(5, 1).unwrap();
        let ip = Ipv4Packet::new_checked(&sent[14..]).unwrap();
        assert_eq!(ip.dst(), src_ip);
        assert!(ip.verify_checksum());
        // Still recognizable as a standalone TPP, now executed.
        let (_, executed) = wire::extract_tpp(&sent).unwrap();
        assert_eq!(executed.words()[0], 7);
        assert_eq!(executed.hop, 1);
    }

    /// What a switch makes of `frame` when it reflects it without running a
    /// TPP: TTL rewritten, Ethernet addresses swapped, and the IP addresses
    /// too when `swap_ips`.
    fn reflected_unexecuted(frame: &[u8], swap_ips: bool) -> Vec<u8> {
        let mut want = frame.to_vec();
        let ip_at = ethernet::HEADER_LEN;
        Ipv4Packet::new_unchecked(&mut want[ip_at..]).decrement_ttl();
        for i in 0..6 {
            want.swap(i, i + 6);
        }
        if swap_ips {
            for i in 0..4 {
                want.swap(ip_at + 12 + i, ip_at + 16 + i);
            }
        }
        want
    }

    #[test]
    fn damaged_standalone_tpp_to_switch_ip_reflects_uninstrumented() {
        // The section fails validation, so no TPP runs, yet the frame is a
        // standalone TPP on the parse graph and is addressed to the switch:
        // it goes back the way it came, IP addresses swapped like any
        // reflected standalone TPP, with no TPP state to lean on.
        let mut sw = basic_switch();
        let tpp =
            TppBuilder::stack_mode().push_m("Switch:SwitchID").unwrap().hops(1).build().unwrap();
        let mut frame = build_standalone(
            EthernetAddress::from_node_id(1),
            EthernetAddress::from_node_id(1000),
            Ipv4Address::from_host_id(1),
            sw.cfg.ip,
            5000,
            &tpp,
        );
        let TppLocation::Standalone { section, .. } = locate_tpp(&frame) else {
            panic!("built as a standalone TPP");
        };
        frame[section + 4] ^= 0xFF;
        assert!(TppView::parse(&frame[section..]).is_err());

        let out = sw.receive(0, 1, frame.clone());
        assert!(matches!(out, ReceiveOutcome::Enqueued { port: 1, queue: 0, .. }), "{out:?}");
        assert_eq!((sw.mem.tpp_rejected, sw.mem.tpp_executed), (1, 0));
        assert_eq!(sw.dequeue(5, 1).unwrap(), reflected_unexecuted(&frame, true));
        assert_eq!(sw.mem.tpp_executed, 0);
    }

    #[test]
    fn plain_frame_to_switch_ip_reflects_with_macs_swapped_only() {
        let mut sw = basic_switch();
        let mut frame = host_frame(1, 2, 100, 1000, 2000);
        {
            let mut ip = Ipv4Packet::new_unchecked(&mut frame[ethernet::HEADER_LEN..]);
            ip.set_dst(sw.cfg.ip);
            ip.fill_checksum();
        }
        assert_eq!(locate_tpp(&frame), TppLocation::None);

        let out = sw.receive(0, 3, frame.clone());
        assert!(matches!(out, ReceiveOutcome::Enqueued { port: 3, queue: 0, .. }), "{out:?}");
        assert_eq!(sw.dequeue(5, 3).unwrap(), reflected_unexecuted(&frame, false));
        assert_eq!((sw.mem.tpp_rejected, sw.mem.tpp_executed), (0, 0));
    }

    #[test]
    fn ecmp_group_spreads_flows() {
        let mut sw = Switch::new(SwitchConfig::new(7, 4));
        let g = sw.add_group(vec![2, 3]);
        sw.add_host_route(Ipv4Address::from_host_id(2), Action::Group(g));
        let mut ports = std::collections::BTreeSet::new();
        for sport in 0..32 {
            let frame = host_frame(1, 2, 64, 1000 + sport, 2000);
            if let ReceiveOutcome::Enqueued { port, .. } = sw.receive(0, 0, frame) {
                ports.insert(port);
            }
        }
        assert_eq!(ports.into_iter().collect::<Vec<_>>(), vec![2, 3]);
    }

    #[test]
    fn tpp_reroute_write_overrides_lookup() {
        // A STORE to [PacketMetadata:OutputPort] supersedes forwarding (§3.2).
        let mut sw = basic_switch();
        let inner = host_frame(1, 2, 64, 1, 2);
        let mut tpp = TppBuilder::hop_mode(1)
            .store_m("PacketMetadata:OutputPort", 0)
            .unwrap()
            .hops(1)
            .build()
            .unwrap();
        tpp.write_word(0, 3).unwrap(); // force port 3 instead of routed 2
        let frame = insert_transparent(&inner, &tpp);
        let out = sw.receive(0, 0, frame);
        assert!(matches!(out, ReceiveOutcome::Enqueued { port: 3, .. }));
    }

    #[test]
    fn writes_disabled_by_admin() {
        let mut cfg = SwitchConfig::new(7, 4);
        cfg.allow_writes = false;
        let mut sw = Switch::new(cfg);
        sw.add_host_route(Ipv4Address::from_host_id(2), Action::Output(2));
        let inner = host_frame(1, 2, 64, 1, 2);
        let mut tpp = TppBuilder::hop_mode(1)
            .store_m("Link:AppSpecific_0", 0)
            .unwrap()
            .hops(1)
            .build()
            .unwrap();
        tpp.write_word(0, 999).unwrap();
        sw.receive(0, 0, insert_transparent(&inner, &tpp));
        let sent = sw.dequeue(1, 2).unwrap();
        let (_, executed) = wire::extract_tpp(&sent).unwrap();
        assert!(!executed.wrote);
        assert_eq!(sw.mem.links[2].app[0], 0);
    }

    #[test]
    fn over_budget_tpp_counted_and_forwarded_unexecuted() {
        let mut sw = basic_switch();
        let inner = host_frame(1, 2, 64, 1, 2);
        let sid = resolve_mnemonic("Switch:SwitchID").unwrap();
        let tpp = Tpp {
            instrs: vec![tpp_core::isa::Instruction::push(sid); 6],
            memory: vec![0; 32],
            ..Tpp::default()
        };
        sw.receive(0, 0, insert_transparent(&inner, &tpp));
        let sent = sw.dequeue(1, 2).unwrap();
        let (_, t) = wire::extract_tpp(&sent).unwrap();
        assert_eq!(t.hop, 0); // untouched
        assert_eq!(sw.mem.tpp_rejected, 1);
        assert_eq!(sw.mem.tpp_executed, 0);
    }

    #[test]
    fn corrupted_transparent_tpp_dropped() {
        let mut sw = basic_switch();
        let inner = host_frame(1, 2, 64, 1, 2);
        let tpp =
            TppBuilder::stack_mode().push_m("Switch:SwitchID").unwrap().hops(1).build().unwrap();
        let mut frame = insert_transparent(&inner, &tpp);
        frame[20] ^= 0xFF;
        assert!(matches!(sw.receive(0, 0, frame), ReceiveOutcome::Dropped(DropReason::Malformed)));
        assert_eq!(sw.mem.tpp_rejected, 1);
    }

    #[test]
    fn utilization_ticks() {
        let mut sw = basic_switch();
        sw.set_link_speed(2, 100); // 100 Mb/s
                                   // ~50% load for 1ms: 6250 bytes.
        for _ in 0..10 {
            sw.receive(0, 0, host_frame(1, 2, 583, 1, 2));
            sw.dequeue(0, 2);
        }
        sw.tick(1_000_000);
        let util = sw.mem.links[2].tx_util_bps;
        assert!(util > 2000 && util < 3000, "expected ~2500 (EWMA of 5000), got {util}");
    }

    /// A switch that carried ~50% load on port 2 over one closed window.
    fn ticked_switch() -> Switch {
        let mut sw = basic_switch();
        sw.set_link_speed(2, 100);
        for _ in 0..10 {
            sw.receive(0, 0, host_frame(1, 2, 583, 1, 2));
            sw.dequeue(0, 2);
        }
        sw.tick(3_000_000);
        sw
    }

    #[test]
    fn tick_with_an_earlier_clock_closes_no_window() {
        // `now_ns - last_util_ns` underflowed: a panic in debug builds,
        // ~10^13 loop iterations in release.
        let mut sw = ticked_switch();
        let util = sw.mem.links[2].tx_util_bps;
        sw.tick(1_000);
        assert_eq!(sw.mem.now_ns, 1_000);
        assert_eq!(sw.mem.links[2].tx_util_bps, util);
        // Windows resume where they left off once the clock is past them.
        sw.tick(4_000_000);
        assert_ne!(sw.mem.links[2].tx_util_bps, util);
    }

    #[test]
    fn dequeue_with_an_earlier_clock_reads_zero_queue_wait() {
        // `now_ns - pkt.enq_ns` underflowed: a panic in debug builds, a
        // wrapped (then clamped) wait of u32::MAX ns in release.
        let mut sw = basic_switch();
        let tpp = TppBuilder::stack_mode()
            .push_m("PacketMetadata:QueueWaitNs")
            .unwrap()
            .hops(1)
            .build()
            .unwrap();
        let out = sw.receive(100, 0, insert_transparent(&host_frame(1, 2, 64, 1, 2), &tpp));
        assert!(matches!(out, ReceiveOutcome::Enqueued { port: 2, .. }));
        let sent = sw.dequeue(50, 2).expect("the frame comes back");
        let (_, executed) = wire::extract_tpp(&sent).unwrap();
        assert_eq!(executed.sp, 1);
        assert_eq!(executed.words()[0], 0);
    }

    #[test]
    fn tick_with_a_zero_interval_terminates() {
        // `now_ns - last_util_ns >= 0` never turned false.
        let mut sw = ticked_switch();
        let util = sw.mem.links[2].tx_util_bps;
        sw.cfg.util_interval_ns = 0;
        sw.tick(5_000_000);
        assert_eq!(sw.mem.now_ns, 5_000_000);
        assert_eq!(sw.mem.links[2].tx_util_bps, util);
    }

    #[test]
    fn flow_table_version_exposed_to_tpps() {
        let mut sw = basic_switch();
        let rs = sw.cfg.pipeline.routing_stage();
        let v0 = sw.mem.stages[rs].version;
        sw.add_host_route(Ipv4Address::from_host_id(3), Action::Output(1));
        assert_eq!(sw.mem.stages[rs].version, v0 + 1);
        assert_eq!(sw.mem.stages[rs].refcount, 2);
    }

    #[test]
    fn matched_entry_visible_to_tpp() {
        let mut sw = basic_switch();
        let inner = host_frame(1, 2, 64, 1, 2);
        let tpp = TppBuilder::stack_mode()
            .push_m("PacketMetadata:MatchedEntryID")
            .unwrap()
            .push_m("FlowEntry$3:MatchPkts")
            .unwrap()
            .hops(1)
            .build()
            .unwrap();
        sw.receive(0, 0, insert_transparent(&inner, &tpp));
        let sent = sw.dequeue(1, 2).unwrap();
        let (_, t) = wire::extract_tpp(&sent).unwrap();
        let w = t.words();
        assert_eq!(w[0], 0); // first entry id
        assert_eq!(w[1], 1); // this packet's match incremented it
    }
}

#[cfg(test)]
mod scheduler_tests {
    use super::*;
    use tpp_core::asm::TppBuilder;
    use tpp_core::wire::{self, insert_transparent, ipv4, udp, EthernetAddress};

    fn plain_frame(src: u32, dst: u32, payload: usize) -> Vec<u8> {
        let hdr = wire::UdpFrameRepr {
            src_mac: EthernetAddress::from_node_id(src),
            dst_mac: EthernetAddress::from_node_id(dst),
            src_ip: Ipv4Address::from_host_id(src),
            dst_ip: Ipv4Address::from_host_id(dst),
            src_port: 1,
            dst_port: 2,
        };
        let mut frame = Vec::new();
        wire::udp_frame_into(&mut frame, &hdr, payload, &[]);
        frame
    }

    fn frame_to_queue(src: u32, dst: u32, queue: u8, payload: usize) -> Vec<u8> {
        // Steer into a queue via a TPP that writes [PacketMetadata:OutputQueue].
        let inner = plain_frame(src, dst, payload);
        let mut tpp = TppBuilder::hop_mode(1)
            .store_m("PacketMetadata:OutputQueue", 0)
            .unwrap()
            .hops(1)
            .build()
            .unwrap();
        tpp.write_word(0, queue as u32).unwrap();
        insert_transparent(&inner, &tpp)
    }

    fn sw() -> Switch {
        let mut sw = Switch::new(SwitchConfig::new(3, 4));
        sw.add_host_route(Ipv4Address::from_host_id(2), Action::Output(2));
        sw
    }

    #[test]
    fn tpp_can_steer_packets_into_queues() {
        let mut s = sw();
        let out = s.receive(0, 0, frame_to_queue(1, 2, 5, 64));
        assert!(matches!(out, ReceiveOutcome::Enqueued { port: 2, queue: 5, .. }), "{out:?}");
        assert_eq!(s.mem.queues[2][5].pkts, 1);
        assert_eq!(s.mem.queues[2][0].pkts, 0);
    }

    #[test]
    fn round_robin_across_nonempty_queues() {
        let mut s = sw();
        // Two packets into queue 1, two into queue 6.
        for q in [1u8, 1, 6, 6] {
            s.receive(0, 0, frame_to_queue(1, 2, q, 64));
        }
        // Dequeue order must alternate between the two queues.
        let mut order = Vec::new();
        for t in 1..=4 {
            s.dequeue(t, 2).unwrap();
            // Infer which queue was served from tx counters.
            order.push((s.mem.queues[2][1].tx_pkts, s.mem.queues[2][6].tx_pkts));
        }
        assert_eq!(order, vec![(1, 0), (1, 1), (2, 1), (2, 2)]);
        assert!(!s.has_queued(2));
    }

    #[test]
    fn per_queue_limits_are_tpp_tunable() {
        let mut s = sw();
        // An admin TPP shrinks queue 0's drop-tail limit to ~1 packet.
        let mut tpp = TppBuilder::hop_mode(1)
            .store_m("Queue$2$0:LimitBytes", 0)
            .unwrap()
            .hops(1)
            .build()
            .unwrap();
        tpp.write_word(0, 200).unwrap();
        s.receive(0, 0, insert_transparent(&plain_frame(1, 2, 16), &tpp));
        s.dequeue(1, 2);
        assert_eq!(s.mem.queues[2][0].limit_bytes, 200);
        // Now a second full-size packet overflows immediately.
        let out = s.receive(2, 0, frame_to_queue(1, 2, 0, 400));
        assert_eq!(out, ReceiveOutcome::Dropped(DropReason::QueueFull));
    }

    #[test]
    fn reflect_frame_swaps_addresses_in_place() {
        let tpp =
            TppBuilder::stack_mode().push_m("Switch:SwitchID").unwrap().hops(1).build().unwrap();
        let mut frame = wire::build_standalone(
            EthernetAddress::from_node_id(1),
            EthernetAddress::from_node_id(9),
            Ipv4Address::from_host_id(1),
            Ipv4Address::new(192, 168, 0, 9),
            5555,
            &tpp,
        );
        reflect_frame(&mut frame);
        let eth = EthernetFrame::new_checked(&frame[..]).unwrap();
        assert_eq!(eth.dst(), EthernetAddress::from_node_id(1));
        assert_eq!(eth.src(), EthernetAddress::from_node_id(9));
        let ip = Ipv4Packet::new_checked(eth.payload()).unwrap();
        assert_eq!(ip.dst(), Ipv4Address::from_host_id(1));
        assert!(ip.verify_checksum(), "address swap must not break the checksum");
        // Still a recognizable standalone TPP.
        assert!(matches!(wire::locate_tpp(&frame), wire::TppLocation::Standalone { .. }));
    }

    #[test]
    fn forwarding_loop_is_bounded_by_ttl() {
        // Two switches routing the destination at each other: the packet
        // must die by TTL, not live forever.
        let mut a = Switch::new(SwitchConfig::new(1, 2));
        let mut b = Switch::new(SwitchConfig::new(2, 2));
        let dst = Ipv4Address::from_host_id(9);
        a.add_host_route(dst, Action::Output(0));
        b.add_host_route(dst, Action::Output(0));
        let mut frame = {
            let u = udp::Repr { src_port: 1, dst_port: 2, payload_len: 8 };
            let udp_b = u.encapsulate(Ipv4Address::from_host_id(1), dst, &[0u8; 8]);
            let ip = ipv4::Repr {
                src: Ipv4Address::from_host_id(1),
                dst,
                protocol: ipv4::protocol::UDP,
                ttl: 8,
                payload_len: udp_b.len(),
            };
            wire::EthernetRepr {
                dst: EthernetAddress::from_node_id(9),
                src: EthernetAddress::from_node_id(1),
                ethertype: ethernet::ethertype::IPV4,
            }
            .encapsulate(&ip.encapsulate(&udp_b))
        };
        let mut hops = 0;
        loop {
            let out = a.receive(hops, 0, frame.clone());
            if matches!(out, ReceiveOutcome::Dropped(DropReason::TtlExpired)) {
                break;
            }
            frame = a.dequeue(hops, 0).unwrap();
            std::mem::swap(&mut a, &mut b);
            hops += 1;
            assert!(hops < 20, "TTL must bound the loop");
        }
        assert_eq!(hops, 7);
    }
}
