//! Concrete switch state behind the unified TPP address space (§3.3.1).
//!
//! [`SwitchMemory`] owns every addressable statistic of one switch: global
//! registers, per-stage SRAM and flow-table stats, per-port link stats and
//! per-queue stats. [`PacketContext`] carries the per-packet metadata of
//! Tables 7/8 and resolves the per-packet namespaces (`[Link:...]`,
//! `[Queue:...]`, `[FlowEntry$s:...]`, `[PacketMetadata:...]`).
//!
//! Wide counters are stored as `u64` and exposed as `_LO`/`_HI` word pairs.

use tpp_core::addr::{
    flow_entry_ns, layout, link_ns, meta_ns, queue_ns, stage_ns, switch_ns, Address, Namespace,
    Word,
};
use tpp_core::exec::{MemoryBus, WriteOutcome};

/// Per-port statistics block (Table 6, "Per Port").
#[derive(Clone, Debug, Default)]
pub struct LinkStats {
    pub link_id: u32,
    pub speed_mbps: u32,
    pub up: bool,
    pub queued_bytes: u64,
    pub queued_pkts: u64,
    pub tx_bytes: u64,
    pub tx_pkts: u64,
    pub rx_bytes: u64,
    pub rx_pkts: u64,
    pub drop_bytes: u64,
    pub drop_pkts: u64,
    pub err_pkts: u64,
    /// EWMA utilization in basis points (`0..=10_000`), refreshed every
    /// utilization interval.
    pub tx_util_bps: u32,
    pub rx_util_bps: u32,
    /// Application-specific registers (§2.2 stores RCP state here).
    pub app: [u32; link_ns::APP_COUNT as usize],
    /// Interval accumulators for utilization updates (not addressable).
    pub tx_bytes_interval: u64,
    pub rx_bytes_interval: u64,
}

impl LinkStats {
    fn read(&self, off: u16) -> Option<Word> {
        if (link_ns::APP_BASE..link_ns::APP_BASE + link_ns::APP_COUNT).contains(&off) {
            return Some(self.app[(off - link_ns::APP_BASE) as usize]);
        }
        Some(match off {
            x if x == link_ns::LINK_ID => self.link_id,
            x if x == link_ns::SPEED_MBPS => self.speed_mbps,
            x if x == link_ns::STATUS => self.up as u32,
            x if x == link_ns::QUEUED_BYTES => self.queued_bytes as u32,
            x if x == link_ns::QUEUED_PKTS => self.queued_pkts as u32,
            x if x == link_ns::TX_BYTES_LO => self.tx_bytes as u32,
            x if x == link_ns::TX_BYTES_HI => (self.tx_bytes >> 32) as u32,
            x if x == link_ns::TX_PKTS_LO => self.tx_pkts as u32,
            x if x == link_ns::TX_PKTS_HI => (self.tx_pkts >> 32) as u32,
            x if x == link_ns::RX_BYTES_LO => self.rx_bytes as u32,
            x if x == link_ns::RX_BYTES_HI => (self.rx_bytes >> 32) as u32,
            x if x == link_ns::RX_PKTS_LO => self.rx_pkts as u32,
            x if x == link_ns::RX_PKTS_HI => (self.rx_pkts >> 32) as u32,
            x if x == link_ns::DROP_BYTES_LO => self.drop_bytes as u32,
            x if x == link_ns::DROP_BYTES_HI => (self.drop_bytes >> 32) as u32,
            x if x == link_ns::DROP_PKTS_LO => self.drop_pkts as u32,
            x if x == link_ns::DROP_PKTS_HI => (self.drop_pkts >> 32) as u32,
            x if x == link_ns::ERR_PKTS => self.err_pkts as u32,
            x if x == link_ns::TX_UTIL_BPS => self.tx_util_bps,
            x if x == link_ns::RX_UTIL_BPS => self.rx_util_bps,
            _ => return None,
        })
    }

    fn write(&mut self, off: u16, value: Word) -> WriteOutcome {
        if (link_ns::APP_BASE..link_ns::APP_BASE + link_ns::APP_COUNT).contains(&off) {
            self.app[(off - link_ns::APP_BASE) as usize] = value;
            return WriteOutcome::Ok;
        }
        if self.read(off).is_some() {
            WriteOutcome::Denied
        } else {
            WriteOutcome::Unmapped
        }
    }
}

/// Per-queue statistics block (Table 6, "Per Queue").
#[derive(Clone, Debug)]
pub struct QueueStats {
    pub bytes: u64,
    pub pkts: u64,
    pub drop_pkts: u64,
    pub drop_bytes: u64,
    pub tx_pkts: u64,
    pub tx_bytes: u64,
    pub sched_weight: u32,
    pub limit_bytes: u32,
}

impl Default for QueueStats {
    fn default() -> Self {
        QueueStats {
            bytes: 0,
            pkts: 0,
            drop_pkts: 0,
            drop_bytes: 0,
            tx_pkts: 0,
            tx_bytes: 0,
            sched_weight: 1,
            limit_bytes: 150_000, // default drop-tail limit (~100 MTU packets)
        }
    }
}

impl QueueStats {
    fn read(&self, off: u16) -> Option<Word> {
        Some(match off {
            x if x == queue_ns::BYTES => self.bytes as u32,
            x if x == queue_ns::PKTS => self.pkts as u32,
            x if x == queue_ns::DROP_PKTS => self.drop_pkts as u32,
            x if x == queue_ns::DROP_BYTES => self.drop_bytes as u32,
            x if x == queue_ns::TX_PKTS => self.tx_pkts as u32,
            x if x == queue_ns::TX_BYTES => self.tx_bytes as u32,
            x if x == queue_ns::SCHED_WEIGHT => self.sched_weight,
            x if x == queue_ns::LIMIT_BYTES => self.limit_bytes,
            _ => return None,
        })
    }

    fn write(&mut self, off: u16, value: Word) -> WriteOutcome {
        match off {
            x if x == queue_ns::SCHED_WEIGHT => {
                self.sched_weight = value;
                WriteOutcome::Ok
            }
            x if x == queue_ns::LIMIT_BYTES => {
                self.limit_bytes = value;
                WriteOutcome::Ok
            }
            _ => {
                if self.read(off).is_some() {
                    WriteOutcome::Denied
                } else {
                    WriteOutcome::Unmapped
                }
            }
        }
    }
}

/// Per-stage state: general-purpose SRAM plus flow-table statistics
/// (Table 6, "Per Flow Table").
#[derive(Clone, Debug)]
pub struct StageMemory {
    pub sram: Vec<u32>,
    pub version: u32,
    pub refcount: u32,
    pub lookup_pkts: u64,
    pub lookup_bytes: u64,
    pub match_pkts: u64,
    pub match_bytes: u64,
}

impl Default for StageMemory {
    fn default() -> Self {
        StageMemory {
            sram: vec![0; stage_ns::SRAM_WORDS as usize],
            version: 0,
            refcount: 0,
            lookup_pkts: 0,
            lookup_bytes: 0,
            match_pkts: 0,
            match_bytes: 0,
        }
    }
}

impl StageMemory {
    fn read(&self, off: u16) -> Option<Word> {
        if off < stage_ns::SRAM_WORDS {
            return Some(self.sram[off as usize]);
        }
        Some(match off {
            x if x == stage_ns::VERSION => self.version,
            x if x == stage_ns::REFCOUNT => self.refcount,
            x if x == stage_ns::LOOKUP_PKTS_LO => self.lookup_pkts as u32,
            x if x == stage_ns::LOOKUP_PKTS_HI => (self.lookup_pkts >> 32) as u32,
            x if x == stage_ns::LOOKUP_BYTES_LO => self.lookup_bytes as u32,
            x if x == stage_ns::LOOKUP_BYTES_HI => (self.lookup_bytes >> 32) as u32,
            x if x == stage_ns::MATCH_PKTS_LO => self.match_pkts as u32,
            x if x == stage_ns::MATCH_PKTS_HI => (self.match_pkts >> 32) as u32,
            x if x == stage_ns::MATCH_BYTES_LO => self.match_bytes as u32,
            x if x == stage_ns::MATCH_BYTES_HI => (self.match_bytes >> 32) as u32,
            _ => return None,
        })
    }

    fn write(&mut self, off: u16, value: Word) -> WriteOutcome {
        if off < stage_ns::SRAM_WORDS {
            self.sram[off as usize] = value;
            return WriteOutcome::Ok;
        }
        if self.read(off).is_some() {
            WriteOutcome::Denied
        } else {
            WriteOutcome::Unmapped
        }
    }
}

/// Statistics of one flow-table entry, resolved through the per-packet
/// `[FlowEntry$s:...]` namespace.
#[derive(Clone, Copy, Debug, Default)]
pub struct FlowEntryStats {
    pub entry_id: u32,
    pub insert_clock: u64,
    pub match_pkts: u64,
    pub match_bytes: u64,
}

/// The flow entries a packet matched, keyed by pipeline stage.
///
/// Stored as a compact fixed-capacity list rather than a per-stage array:
/// a packet matches at most a couple of table stages (the seed datapath
/// records only the routing stage), and this struct rides inside every
/// queued packet, so it must be both allocation-free and small.
#[derive(Clone, Copy, Debug)]
pub struct MatchedEntries {
    entries: [(u8, FlowEntryStats); Self::CAP],
    len: u8,
}

impl Default for MatchedEntries {
    /// No match at any stage. A constant, stored as one, where the derive
    /// built the array an element at a time for every TPP frame.
    fn default() -> Self {
        const VACANT: FlowEntryStats =
            FlowEntryStats { entry_id: 0, insert_clock: 0, match_pkts: 0, match_bytes: 0 };
        const NONE: MatchedEntries =
            MatchedEntries { entries: [(0, VACANT); MatchedEntries::CAP], len: 0 };
        NONE
    }
}

impl MatchedEntries {
    /// Distinct stages that can record a match for one packet.
    pub const CAP: usize = 2;

    /// Record (or replace) the entry matched at `stage`. Silently ignored
    /// beyond [`Self::CAP`] distinct stages.
    pub fn set(&mut self, stage: usize, stats: FlowEntryStats) {
        for e in &mut self.entries[..self.len as usize] {
            if e.0 == stage as u8 {
                e.1 = stats;
                return;
            }
        }
        if (self.len as usize) < Self::CAP {
            self.entries[self.len as usize] = (stage as u8, stats);
            self.len += 1;
        }
    }

    /// The entry matched at `stage`, if any.
    pub fn get(&self, stage: usize) -> Option<&FlowEntryStats> {
        self.entries[..self.len as usize].iter().find(|e| e.0 == stage as u8).map(|e| &e.1)
    }

    /// The match at the highest stage (by convention, the routing result).
    pub fn routing_match(&self) -> Option<&FlowEntryStats> {
        self.entries[..self.len as usize].iter().max_by_key(|e| e.0).map(|e| &e.1)
    }
}

impl FlowEntryStats {
    fn read(&self, off: u16) -> Option<Word> {
        Some(match off {
            x if x == flow_entry_ns::ENTRY_ID => self.entry_id,
            x if x == flow_entry_ns::INSERT_CLOCK_LO => self.insert_clock as u32,
            x if x == flow_entry_ns::INSERT_CLOCK_HI => (self.insert_clock >> 32) as u32,
            x if x == flow_entry_ns::MATCH_PKTS_LO => self.match_pkts as u32,
            x if x == flow_entry_ns::MATCH_PKTS_HI => (self.match_pkts >> 32) as u32,
            x if x == flow_entry_ns::MATCH_BYTES_LO => self.match_bytes as u32,
            x if x == flow_entry_ns::MATCH_BYTES_HI => (self.match_bytes >> 32) as u32,
            _ => return None,
        })
    }
}

/// All addressable state of one switch.
#[derive(Clone, Debug)]
pub struct SwitchMemory {
    pub switch_id: u32,
    pub vendor_id: u32,
    /// Global forwarding-state generation (bumped on every rule change).
    pub version: u32,
    pub clock_freq_hz: u32,
    pub n_ports: usize,
    pub n_stages: usize,
    pub tpp_executed: u64,
    pub tpp_rejected: u64,
    /// Current simulation time, mirrored in by the owner before execution.
    pub now_ns: u64,
    pub stages: Vec<StageMemory>,
    pub links: Vec<LinkStats>,
    pub queues: Vec<Vec<QueueStats>>,
}

impl SwitchMemory {
    pub fn new(switch_id: u32, n_ports: usize, n_stages: usize) -> Self {
        assert!(n_ports <= layout::MAX_PORTS as usize);
        assert!(n_stages <= layout::MAX_STAGES as usize);
        let links = (0..n_ports)
            .map(|p| LinkStats {
                link_id: (switch_id << 8) | p as u32,
                speed_mbps: 10_000,
                up: true,
                ..LinkStats::default()
            })
            .collect();
        SwitchMemory {
            switch_id,
            vendor_id: 0x0001,
            version: 0,
            clock_freq_hz: 1_000_000_000,
            n_ports,
            n_stages,
            tpp_executed: 0,
            tpp_rejected: 0,
            now_ns: 0,
            stages: (0..n_stages).map(|_| StageMemory::default()).collect(),
            links,
            queues: (0..n_ports)
                .map(|_| {
                    (0..layout::QUEUES_PER_PORT as usize).map(|_| QueueStats::default()).collect()
                })
                .collect(),
        }
    }

    /// Set the switch wall clock: [`crate::switch::Switch::receive`] and
    /// [`crate::switch::Switch::dequeue`] call this with the instant the
    /// frame observes, before any TPP instruction reads the clock.
    pub fn set_clock(&mut self, now_ns: u64) {
        self.now_ns = now_ns;
    }

    /// Clock cycles since time zero, exact: whole seconds and the remainder
    /// are scaled apart, so no product overflows before the 64-bit counter
    /// itself wraps (after ~585 years at 1 GHz).
    fn uptime_cycles(&self) -> u64 {
        const NS_PER_S: u64 = 1_000_000_000;
        let f = u64::from(self.clock_freq_hz);
        (self.now_ns / NS_PER_S)
            .wrapping_mul(f)
            .wrapping_add((self.now_ns % NS_PER_S) * f / NS_PER_S)
    }

    fn read_switch_ns(&self, off: u16) -> Option<Word> {
        Some(match off {
            x if x == switch_ns::SWITCH_ID => self.switch_id,
            x if x == switch_ns::VERSION => self.version,
            x if x == switch_ns::UPTIME_CYCLES_LO => self.uptime_cycles() as u32,
            x if x == switch_ns::UPTIME_CYCLES_HI => (self.uptime_cycles() >> 32) as u32,
            x if x == switch_ns::CLOCK_FREQ_HZ => self.clock_freq_hz,
            x if x == switch_ns::VENDOR_ID => self.vendor_id,
            x if x == switch_ns::NUM_PORTS => self.n_ports as u32,
            x if x == switch_ns::NUM_STAGES => self.n_stages as u32,
            x if x == switch_ns::TIME_NS_LO => self.now_ns as u32,
            x if x == switch_ns::TIME_NS_HI => (self.now_ns >> 32) as u32,
            x if x == switch_ns::TPP_EXECUTED_LO => self.tpp_executed as u32,
            x if x == switch_ns::TPP_EXECUTED_HI => (self.tpp_executed >> 32) as u32,
            x if x == switch_ns::TPP_REJECTED => self.tpp_rejected as u32,
            _ => return None,
        })
    }

    /// Update EWMA link utilizations from the interval accumulators and
    /// reset them. Called every utilization interval (1 ms by default).
    pub fn update_utilization(&mut self, interval_ns: u64) {
        for link in &mut self.links {
            let cap_bits = (link.speed_mbps as u64) * interval_ns / 1000; // Mbps * ns / 1000 = bits
            let tx_bps = (link.tx_bytes_interval * 8 * 10_000)
                .checked_div(cap_bits)
                .map_or(0, |v| v.min(10_000) as u32);
            let rx_bps = (link.rx_bytes_interval * 8 * 10_000)
                .checked_div(cap_bits)
                .map_or(0, |v| v.min(10_000) as u32);
            // EWMA with alpha = 1/2: responsive at RTT timescales yet smooth.
            link.tx_util_bps = (link.tx_util_bps + tx_bps) / 2;
            link.rx_util_bps = (link.rx_util_bps + rx_bps) / 2;
            link.tx_bytes_interval = 0;
            link.rx_bytes_interval = 0;
        }
    }
}

/// Per-packet metadata (Tables 7, 8), including the indirections that make
/// `[Link:...]` / `[Queue:...]` / `[FlowEntry$s:...]` resolve against *this*
/// packet.
#[derive(Clone, Debug)]
pub struct PacketContext {
    pub in_port: u8,
    /// Known only after the routing stage (end of ingress).
    pub out_port: Option<u8>,
    pub out_queue: u8,
    /// Matched flow entries, keyed by stage. Fixed-capacity so building a
    /// context per packet performs no heap allocation.
    pub matched_entry: MatchedEntries,
    pub pkt_len: u32,
    pub hop_count: u32,
    pub path_hash: u32,
    pub enq_qdepth_bytes: Option<u32>,
    pub enq_qdepth_pkts: Option<u32>,
    pub queue_wait_ns: Option<u32>,
    pub ingress_tstamp_ns: u64,
}

impl PacketContext {
    pub fn new(in_port: u8, pkt_len: u32, now_ns: u64, n_stages: usize) -> Self {
        debug_assert!(n_stages <= layout::MAX_STAGES as usize);
        let _ = n_stages;
        PacketContext {
            in_port,
            out_port: None,
            out_queue: 0,
            matched_entry: MatchedEntries::default(),
            pkt_len,
            hop_count: 0,
            path_hash: 0,
            enq_qdepth_bytes: None,
            enq_qdepth_pkts: None,
            queue_wait_ns: None,
            ingress_tstamp_ns: now_ns,
        }
    }

    fn read_meta(&self, off: u16) -> Option<Word> {
        Some(match off {
            x if x == meta_ns::INPUT_PORT => self.in_port as u32,
            x if x == meta_ns::OUTPUT_PORT => self.out_port? as u32,
            x if x == meta_ns::OUTPUT_QUEUE => {
                self.out_port?; // meaningful only once routed
                self.out_queue as u32
            }
            x if x == meta_ns::MATCHED_ENTRY_ID => {
                // Convention: the routing stage's matched entry.
                self.matched_entry.routing_match()?.entry_id
            }
            x if x == meta_ns::PKT_LEN => self.pkt_len,
            x if x == meta_ns::HOP_COUNT => self.hop_count,
            x if x == meta_ns::PATH_HASH => self.path_hash,
            x if x == meta_ns::ENQ_QDEPTH_BYTES => self.enq_qdepth_bytes?,
            x if x == meta_ns::ENQ_QDEPTH_PKTS => self.enq_qdepth_pkts?,
            x if x == meta_ns::QUEUE_WAIT_NS => self.queue_wait_ns?,
            x if x == meta_ns::INGRESS_TSTAMP_NS_LO => self.ingress_tstamp_ns as u32,
            x if x == meta_ns::INGRESS_TSTAMP_NS_HI => (self.ingress_tstamp_ns >> 32) as u32,
            _ => return None,
        })
    }

    fn write_meta(&mut self, off: u16, value: Word) -> WriteOutcome {
        match off {
            x if x == meta_ns::OUTPUT_PORT => {
                // Writes by a TPP supersede forwarding logic (§3.2) — but
                // only once the forwarding logic has run.
                if self.out_port.is_none() {
                    return WriteOutcome::Unmapped;
                }
                self.out_port = Some(value as u8);
                WriteOutcome::Ok
            }
            x if x == meta_ns::OUTPUT_QUEUE => {
                if self.out_port.is_none() {
                    return WriteOutcome::Unmapped;
                }
                self.out_queue = (value as u8) % layout::QUEUES_PER_PORT as u8;
                WriteOutcome::Ok
            }
            _ => {
                if self.read_meta(off).is_some() {
                    WriteOutcome::Denied
                } else {
                    WriteOutcome::Unmapped
                }
            }
        }
    }
}

/// A [`MemoryBus`] over the whole switch for one packet: the reference
/// (non-pipelined) view used by software switches, tests, and as the
/// per-stage bus's underlying accessor.
pub struct SwitchBus<'a> {
    pub mem: &'a mut SwitchMemory,
    pub ctx: &'a mut PacketContext,
}

impl SwitchBus<'_> {
    fn resolve_link(&self, ns: Namespace) -> Option<usize> {
        match ns {
            Namespace::CurrentLink => self.ctx.out_port.map(|p| p as usize),
            Namespace::Link(p) => Some(p as usize),
            _ => None,
        }
        .filter(|p| *p < self.mem.n_ports)
    }

    fn resolve_queue(&self, ns: Namespace) -> Option<(usize, usize)> {
        match ns {
            Namespace::CurrentQueue => {
                self.ctx.out_port.map(|p| (p as usize, self.ctx.out_queue as usize))
            }
            Namespace::Queue(p, q) => Some((p as usize, q as usize)),
            _ => None,
        }
        .filter(|(p, q)| *p < self.mem.n_ports && *q < layout::QUEUES_PER_PORT as usize)
    }
}

impl MemoryBus for SwitchBus<'_> {
    fn read(&mut self, a: Address) -> Option<Word> {
        let ns = Namespace::of(a)?;
        // (`a.offset()` would classify the address a second time.)
        let off = a.raw() - ns.base().raw();
        match ns {
            Namespace::Switch => self.mem.read_switch_ns(off),
            Namespace::PacketMetadata => self.ctx.read_meta(off),
            Namespace::CurrentLink | Namespace::Link(_) => {
                let p = self.resolve_link(ns)?;
                self.mem.links[p].read(off)
            }
            Namespace::CurrentQueue | Namespace::Queue(_, _) => {
                // Packet-consistency (§3.2): once the packet has been
                // buffered, its *current queue's* occupancy reads resolve to
                // the snapshot taken at enqueue — the same values the
                // forwarding logic used for this packet — rather than the
                // live counter, which by egress no longer includes it.
                if ns == Namespace::CurrentQueue {
                    if off == queue_ns::BYTES {
                        if let Some(snap) = self.ctx.enq_qdepth_bytes {
                            return Some(snap);
                        }
                    }
                    if off == queue_ns::PKTS {
                        if let Some(snap) = self.ctx.enq_qdepth_pkts {
                            return Some(snap);
                        }
                    }
                }
                let (p, q) = self.resolve_queue(ns)?;
                self.mem.queues[p][q].read(off)
            }
            Namespace::FlowEntry(s) => self.ctx.matched_entry.get(s as usize)?.read(off),
            Namespace::Stage(s) => {
                if (s as usize) < self.mem.n_stages {
                    self.mem.stages[s as usize].read(off)
                } else {
                    None
                }
            }
        }
    }

    fn write(&mut self, a: Address, value: Word) -> WriteOutcome {
        let Some(ns) = Namespace::of(a) else { return WriteOutcome::Unmapped };
        let off = a.raw() - ns.base().raw();
        match ns {
            Namespace::Switch => {
                if self.mem.read_switch_ns(off).is_some() {
                    WriteOutcome::Denied
                } else {
                    WriteOutcome::Unmapped
                }
            }
            Namespace::PacketMetadata => self.ctx.write_meta(off, value),
            Namespace::CurrentLink | Namespace::Link(_) => match self.resolve_link(ns) {
                Some(p) => self.mem.links[p].write(off, value),
                None => WriteOutcome::Unmapped,
            },
            Namespace::CurrentQueue | Namespace::Queue(_, _) => match self.resolve_queue(ns) {
                Some((p, q)) => self.mem.queues[p][q].write(off, value),
                None => WriteOutcome::Unmapped,
            },
            Namespace::FlowEntry(_) => WriteOutcome::Denied,
            Namespace::Stage(s) => {
                if (s as usize) < self.mem.n_stages {
                    self.mem.stages[s as usize].write(off, value)
                } else {
                    WriteOutcome::Unmapped
                }
            }
        }
    }
}

/// Convenience: read an address without a packet context (per-packet
/// namespaces resolve to `None`). Used by control planes and tests.
pub fn read_global(mem: &mut SwitchMemory, a: Address) -> Option<Word> {
    let mut ctx = PacketContext::new(0, 0, mem.now_ns, mem.n_stages);
    ctx.out_port = None;
    SwitchBus { mem, ctx: &mut ctx }.read(a)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpp_core::addr::resolve_mnemonic;

    fn a(m: &str) -> Address {
        resolve_mnemonic(m).unwrap()
    }

    fn mem() -> SwitchMemory {
        SwitchMemory::new(7, 4, 6)
    }

    #[test]
    fn switch_globals_readable() {
        let mut m = mem();
        m.now_ns = 5_000_000_000;
        let mut ctx = PacketContext::new(0, 100, m.now_ns, 6);
        let mut bus = SwitchBus { mem: &mut m, ctx: &mut ctx };
        assert_eq!(bus.read(a("Switch:SwitchID")), Some(7));
        assert_eq!(bus.read(a("Switch:NumPorts")), Some(4));
        assert_eq!(bus.read(a("Switch:NumStages")), Some(6));
        assert_eq!(bus.read(a("Switch:TimeNs")), Some(5_000_000_000u64 as u32));
        assert_eq!(bus.read(a("Switch:TimeNsHi")), Some(1));
        // Globals are read-only.
        assert_eq!(bus.write(a("Switch:SwitchID"), 9), WriteOutcome::Denied);
    }

    /// The cycle counter stays exact past 18.4 s at 1 GHz, where
    /// `now_ns * clock_freq_hz` no longer fits in 64 bits.
    #[test]
    fn uptime_exact_past_u64_product() {
        let uptime = |now_ns, hz| {
            let mut m = mem();
            (m.now_ns, m.clock_freq_hz) = (now_ns, hz);
            let lo = read_global(&mut m, a("Switch:Uptime")).unwrap();
            let hi = read_global(&mut m, a("Switch:UptimeHi")).unwrap();
            u64::from(hi) << 32 | u64::from(lo)
        };
        assert_eq!(uptime(20_000_000_000, 1_000_000_000), 20_000_000_000);
        assert_eq!(uptime(20_000_000_001, 1_000_000_000), 20_000_000_001);
        // 1.5 GHz: 7 s and 3 ns of a cycle rounded down to 4.
        assert_eq!(uptime(7_000_000_003, 1_500_000_000), 10_500_000_004);
    }

    #[test]
    fn current_link_indirection() {
        let mut m = mem();
        m.links[2].queued_bytes = 1234;
        m.links[3].queued_bytes = 9999;
        let mut ctx = PacketContext::new(0, 100, 0, 6);
        // Before routing: unmapped (output port unknown).
        {
            let mut bus = SwitchBus { mem: &mut m, ctx: &mut ctx };
            assert_eq!(bus.read(a("Link:QueueSize")), None);
        }
        ctx.out_port = Some(2);
        let mut bus = SwitchBus { mem: &mut m, ctx: &mut ctx };
        assert_eq!(bus.read(a("Link:QueueSize")), Some(1234));
        // Explicit-port addressing is independent of the packet.
        assert_eq!(bus.read(a("Link$3:QueueSize")), Some(9999));
    }

    #[test]
    fn current_queue_indirection() {
        let mut m = mem();
        m.queues[1][0].bytes = 4096;
        m.queues[1][5].bytes = 11;
        let mut ctx = PacketContext::new(0, 100, 0, 6);
        ctx.out_port = Some(1);
        let mut bus = SwitchBus { mem: &mut m, ctx: &mut ctx };
        assert_eq!(bus.read(a("Queue:QueueOccupancy")), Some(4096));
        assert_eq!(bus.read(a("Queue$1$5:QueueOccupancy")), Some(11));
    }

    #[test]
    fn app_registers_writable() {
        let mut m = mem();
        let mut ctx = PacketContext::new(0, 100, 0, 6);
        ctx.out_port = Some(0);
        let mut bus = SwitchBus { mem: &mut m, ctx: &mut ctx };
        assert_eq!(bus.write(a("Link:AppSpecific_0"), 777), WriteOutcome::Ok);
        assert_eq!(bus.read(a("Link:AppSpecific_0")), Some(777));
        // Counters reject writes.
        assert_eq!(bus.write(a("Link:RX-Bytes"), 0), WriteOutcome::Denied);
    }

    #[test]
    fn wide_counters_split() {
        let mut m = mem();
        m.links[0].tx_bytes = 0x1_2345_6789;
        let mut ctx = PacketContext::new(0, 100, 0, 6);
        let mut bus = SwitchBus { mem: &mut m, ctx: &mut ctx };
        assert_eq!(bus.read(a("Link$0:TX-Bytes")), Some(0x2345_6789));
        assert_eq!(bus.read(a("Link$0:TX-BytesHi")), Some(1));
    }

    #[test]
    fn metadata_reads_and_reroute_write() {
        let mut m = mem();
        let mut ctx = PacketContext::new(3, 1500, 42, 6);
        ctx.path_hash = 0xABCD;
        {
            let mut bus = SwitchBus { mem: &mut m, ctx: &mut ctx };
            assert_eq!(bus.read(a("PacketMetadata:InputPort")), Some(3));
            assert_eq!(bus.read(a("PacketMetadata:PktLen")), Some(1500));
            assert_eq!(bus.read(a("PacketMetadata:PathHash")), Some(0xABCD));
            // Output port unknown pre-routing: read unmapped, write refused.
            assert_eq!(bus.read(a("PacketMetadata:OutputPort")), None);
            assert_eq!(bus.write(a("PacketMetadata:OutputPort"), 1), WriteOutcome::Unmapped);
        }
        ctx.out_port = Some(2);
        {
            let mut bus = SwitchBus { mem: &mut m, ctx: &mut ctx };
            assert_eq!(bus.read(a("PacketMetadata:OutputPort")), Some(2));
            // The fast-reroute write (§2.6).
            assert_eq!(bus.write(a("PacketMetadata:OutputPort"), 1), WriteOutcome::Ok);
            // Input port is read-only.
            assert_eq!(bus.write(a("PacketMetadata:InputPort"), 1), WriteOutcome::Denied);
        }
        assert_eq!(ctx.out_port, Some(1));
    }

    #[test]
    fn flow_entry_stats_via_indirection() {
        let mut m = mem();
        let mut ctx = PacketContext::new(0, 100, 0, 6);
        ctx.matched_entry.set(
            3,
            FlowEntryStats { entry_id: 55, insert_clock: 1000, match_pkts: 10, match_bytes: 1500 },
        );
        let mut bus = SwitchBus { mem: &mut m, ctx: &mut ctx };
        assert_eq!(bus.read(a("FlowEntry$3:EntryID")), Some(55));
        assert_eq!(bus.read(a("FlowEntry$3:MatchPkts")), Some(10));
        assert_eq!(bus.read(a("FlowEntry$2:EntryID")), None); // no match there
        assert_eq!(bus.read(a("PacketMetadata:MatchedEntryID")), Some(55));
        assert_eq!(bus.write(a("FlowEntry$3:EntryID"), 1), WriteOutcome::Denied);
    }

    #[test]
    fn stage_sram_readwrite_stats_readonly() {
        let mut m = mem();
        let mut ctx = PacketContext::new(0, 100, 0, 6);
        let mut bus = SwitchBus { mem: &mut m, ctx: &mut ctx };
        assert_eq!(bus.write(a("Stage2:Reg7"), 0xCAFE), WriteOutcome::Ok);
        assert_eq!(bus.read(a("Stage2:Reg7")), Some(0xCAFE));
        assert_eq!(bus.write(a("Stage2:Version"), 1), WriteOutcome::Denied);
        // Stage beyond configured count is unmapped.
        assert_eq!(bus.read(a("Stage7:Reg0")), None);
        assert_eq!(bus.write(a("Stage7:Reg0"), 1), WriteOutcome::Unmapped);
    }

    #[test]
    fn out_of_range_ports_unmapped() {
        let mut m = mem(); // 4 ports
        let mut ctx = PacketContext::new(0, 100, 0, 6);
        let mut bus = SwitchBus { mem: &mut m, ctx: &mut ctx };
        assert_eq!(bus.read(a("Link$5:ID")), None);
        assert_eq!(bus.write(a("Link$5:AppSpecific_0"), 1), WriteOutcome::Unmapped);
    }

    #[test]
    fn utilization_update_ewma() {
        let mut m = mem();
        m.links[0].speed_mbps = 100;
        // 50% utilization over 1 ms: 100Mb/s * 1ms = 100_000 bits capacity;
        // send 6250 bytes = 50_000 bits.
        m.links[0].tx_bytes_interval = 6_250;
        m.update_utilization(1_000_000);
        assert_eq!(m.links[0].tx_util_bps, 2_500); // EWMA from 0: (0+5000)/2
        m.links[0].tx_bytes_interval = 6_250;
        m.update_utilization(1_000_000);
        assert_eq!(m.links[0].tx_util_bps, 3_750);
        // Accumulator reset each interval.
        m.update_utilization(1_000_000);
        assert_eq!(m.links[0].tx_util_bps, 1_875);
    }

    #[test]
    fn utilization_saturates_at_10000() {
        let mut m = mem();
        m.links[0].speed_mbps = 10;
        m.links[0].rx_bytes_interval = 10_000_000;
        m.update_utilization(1_000_000);
        assert!(m.links[0].rx_util_bps <= 10_000);
    }

    #[test]
    fn read_global_helper() {
        let mut m = mem();
        assert_eq!(read_global(&mut m, a("Switch:SwitchID")), Some(7));
        assert_eq!(read_global(&mut m, a("Link:QueueSize")), None); // per-packet
        assert_eq!(read_global(&mut m, a("Link$0:QueueSize")), Some(0));
    }
}
