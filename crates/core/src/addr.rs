//! The TPP unified, memory-mapped address space (paper §3.3.1, Tables 2, 6, 7, 8).
//!
//! Every statistic a TPP can touch is a 32-bit word behind a 16-bit virtual
//! address. Addresses are *segmented* into namespaces. Two kinds of segments
//! exist:
//!
//! * **Global segments** name a concrete resource (`Link$3`, `Stage1`, ...).
//! * **Per-packet segments** are indirections resolved against the packet
//!   being forwarded (`[Link:...]` is *this packet's output link*,
//!   `[Queue:...]` is *this packet's output queue*, `[FlowEntry$i:...]` is
//!   the entry this packet matched at stage `i`). This is what gives TPPs a
//!   packet-consistent view of state (§3.2).
//!
//! Layout (16-bit virtual addresses, word-granular):
//!
//! ```text
//! 0x0000..=0x00FF   Switch        per-ASIC globals
//! 0x0100..=0x01FF   PacketMetadata per-packet metadata (Tables 7, 8)
//! 0x0200..=0x02FF   Link          current output link (same layout as Link$i)
//! 0x0300..=0x03FF   Queue         current output queue (same layout as Queue$i$j)
//! 0x0400..=0x04FF   FlowEntry$s   matched entry at stage s (16 stages x 16 words)
//! 0x1000..=0x1FFF   Stage$s       per-stage SRAM + flow-table stats (16 x 256)
//! 0x2000..=0x5FFF   Link$p        per-port stats blocks (64 x 256)
//! 0x6000..=0x6FFF   Queue$p$q     per-queue stats (64 ports x 8 queues x 8)
//! ```
//!
//! Wide (64-bit) counters are exposed as `_LO`/`_HI` word pairs, mirroring how
//! real ASICs expose wide counters over a narrow MMIO bus.

use core::fmt;

/// A 32-bit word, the unit of every TPP memory transfer.
pub type Word = u32;

/// A 16-bit virtual address into the unified switch address space.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Address(pub u16);

impl Address {
    pub const fn new(raw: u16) -> Self {
        Address(raw)
    }
    pub const fn raw(self) -> u16 {
        self.0
    }
    /// Offset of this address within its namespace block.
    pub fn offset(self) -> u16 {
        match Namespace::of(self) {
            Some(ns) => self.0 - ns.base().0,
            None => self.0,
        }
    }
}

impl fmt::Debug for Address {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Address({:#06x})", self.0)
    }
}

impl fmt::Display for Address {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match mnemonic_of(*self) {
            Some(m) => write!(f, "[{m}]"),
            None => write!(f, "[{:#06x}]", self.0),
        }
    }
}

/// Segment bases and sizes.
pub mod layout {
    pub const SWITCH_BASE: u16 = 0x0000;
    pub const SWITCH_SIZE: u16 = 0x0100;
    pub const PKT_META_BASE: u16 = 0x0100;
    pub const PKT_META_SIZE: u16 = 0x0100;
    pub const CUR_LINK_BASE: u16 = 0x0200;
    pub const CUR_LINK_SIZE: u16 = 0x0100;
    pub const CUR_QUEUE_BASE: u16 = 0x0300;
    pub const CUR_QUEUE_SIZE: u16 = 0x0100;
    pub const FLOW_ENTRY_BASE: u16 = 0x0400;
    pub const FLOW_ENTRY_STRIDE: u16 = 0x10;
    pub const MAX_STAGES: u16 = 16;
    pub const STAGE_BASE: u16 = 0x1000;
    pub const STAGE_STRIDE: u16 = 0x100;
    pub const LINK_BASE: u16 = 0x2000;
    pub const LINK_STRIDE: u16 = 0x100;
    pub const MAX_PORTS: u16 = 64;
    pub const QUEUE_BASE: u16 = 0x6000;
    pub const QUEUE_PORT_STRIDE: u16 = 0x40;
    pub const QUEUE_STRIDE: u16 = 0x8;
    pub const QUEUES_PER_PORT: u16 = 8;
}

/// Word offsets inside the `Switch` namespace (Table 6, "Per ASIC").
pub mod switch_ns {
    pub const SWITCH_ID: u16 = 0x00;
    /// Global forwarding-state generation number; bumped on every rule update.
    pub const VERSION: u16 = 0x01;
    pub const UPTIME_CYCLES_LO: u16 = 0x02;
    pub const UPTIME_CYCLES_HI: u16 = 0x03;
    pub const CLOCK_FREQ_HZ: u16 = 0x04;
    pub const VENDOR_ID: u16 = 0x05;
    pub const NUM_PORTS: u16 = 0x06;
    pub const NUM_STAGES: u16 = 0x07;
    pub const TIME_NS_LO: u16 = 0x08;
    pub const TIME_NS_HI: u16 = 0x09;
    /// Number of TPPs executed by this switch (visibility into visibility).
    pub const TPP_EXECUTED_LO: u16 = 0x0A;
    pub const TPP_EXECUTED_HI: u16 = 0x0B;
    /// TPPs dropped for checksum / malformed / policy reasons.
    pub const TPP_REJECTED: u16 = 0x0C;
}

/// Word offsets inside the `PacketMetadata` namespace (Tables 7, 8).
pub mod meta_ns {
    pub const INPUT_PORT: u16 = 0x00;
    /// Read-write: a TPP may rewrite the output port (fast reroute, §2.6).
    pub const OUTPUT_PORT: u16 = 0x01;
    pub const OUTPUT_QUEUE: u16 = 0x02;
    pub const MATCHED_ENTRY_ID: u16 = 0x03;
    pub const PKT_LEN: u16 = 0x04;
    pub const HOP_COUNT: u16 = 0x05;
    /// The ECMP hash value used to pick among multipath routes.
    pub const PATH_HASH: u16 = 0x06;
    /// Queue depth snapshots taken when this packet was enqueued: the
    /// packet-consistent view of the congestion it experienced.
    pub const ENQ_QDEPTH_BYTES: u16 = 0x07;
    pub const ENQ_QDEPTH_PKTS: u16 = 0x08;
    /// Egress-only: nanoseconds this packet waited in the output queue.
    pub const QUEUE_WAIT_NS: u16 = 0x09;
    pub const INGRESS_TSTAMP_NS_LO: u16 = 0x0A;
    pub const INGRESS_TSTAMP_NS_HI: u16 = 0x0B;
}

/// Word offsets inside a `Link` block (Table 6, "Per Port"). The same layout
/// serves both the per-packet `[Link:...]` segment and global `[Link$p:...]`.
pub mod link_ns {
    pub const LINK_ID: u16 = 0x00;
    pub const SPEED_MBPS: u16 = 0x01;
    /// Bit 0: up. Other bits reserved for maintenance states.
    pub const STATUS: u16 = 0x02;
    /// Total bytes/packets currently queued on this port (all queues).
    pub const QUEUED_BYTES: u16 = 0x03;
    pub const QUEUED_PKTS: u16 = 0x04;
    pub const TX_BYTES_LO: u16 = 0x05;
    pub const TX_BYTES_HI: u16 = 0x06;
    pub const TX_PKTS_LO: u16 = 0x07;
    pub const TX_PKTS_HI: u16 = 0x08;
    pub const RX_BYTES_LO: u16 = 0x09;
    pub const RX_BYTES_HI: u16 = 0x0A;
    pub const RX_PKTS_LO: u16 = 0x0B;
    pub const RX_PKTS_HI: u16 = 0x0C;
    pub const DROP_BYTES_LO: u16 = 0x0D;
    pub const DROP_BYTES_HI: u16 = 0x0E;
    pub const DROP_PKTS_LO: u16 = 0x0F;
    pub const DROP_PKTS_HI: u16 = 0x10;
    pub const ERR_PKTS: u16 = 0x11;
    /// EWMA link utilization in basis points (0..=10000), refreshed every
    /// utilization interval (1 ms by default, §2.2).
    pub const TX_UTIL_BPS: u16 = 0x12;
    pub const RX_UTIL_BPS: u16 = 0x13;
    /// First of 32 application-specific read-write registers (§2.2 uses two
    /// of these per link to store the RCP fair-share rate and its version).
    pub const APP_BASE: u16 = 0x80;
    pub const APP_COUNT: u16 = 32;
}

/// Word offsets inside a `Queue` block (Table 6, "Per Queue").
pub mod queue_ns {
    pub const BYTES: u16 = 0x0;
    pub const PKTS: u16 = 0x1;
    pub const DROP_PKTS: u16 = 0x2;
    pub const DROP_BYTES: u16 = 0x3;
    pub const TX_PKTS: u16 = 0x4;
    pub const TX_BYTES: u16 = 0x5;
    /// Scheduler weight (DRR quantum); read-write.
    pub const SCHED_WEIGHT: u16 = 0x6;
    /// Drop-tail limit in bytes; read-write (admin).
    pub const LIMIT_BYTES: u16 = 0x7;
}

/// Word offsets inside a `FlowEntry$s` block (Table 6, "Per Flow Entry"):
/// statistics of the entry *this packet* matched at stage `s`.
pub mod flow_entry_ns {
    pub const ENTRY_ID: u16 = 0x0;
    pub const INSERT_CLOCK_LO: u16 = 0x1;
    pub const INSERT_CLOCK_HI: u16 = 0x2;
    pub const MATCH_PKTS_LO: u16 = 0x3;
    pub const MATCH_PKTS_HI: u16 = 0x4;
    pub const MATCH_BYTES_LO: u16 = 0x5;
    pub const MATCH_BYTES_HI: u16 = 0x6;
}

/// Word offsets inside a `Stage$s` block (Table 6, "Per Flow Table"). Offsets
/// `0x00..=0xBF` are general-purpose SRAM words; the tail holds flow-table
/// statistics.
pub mod stage_ns {
    /// Number of general-purpose SRAM words available to applications.
    pub const SRAM_WORDS: u16 = 0xC0;
    pub const VERSION: u16 = 0xC0;
    pub const REFCOUNT: u16 = 0xC1;
    pub const LOOKUP_PKTS_LO: u16 = 0xC2;
    pub const LOOKUP_PKTS_HI: u16 = 0xC3;
    pub const LOOKUP_BYTES_LO: u16 = 0xC4;
    pub const LOOKUP_BYTES_HI: u16 = 0xC5;
    pub const MATCH_PKTS_LO: u16 = 0xC6;
    pub const MATCH_PKTS_HI: u16 = 0xC7;
    pub const MATCH_BYTES_LO: u16 = 0xC8;
    pub const MATCH_BYTES_HI: u16 = 0xC9;
}

/// The namespaces of the unified address space.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Namespace {
    /// Per-ASIC globals.
    Switch,
    /// Per-packet metadata.
    PacketMetadata,
    /// This packet's output link (per-packet indirection).
    CurrentLink,
    /// This packet's output queue (per-packet indirection).
    CurrentQueue,
    /// The flow entry this packet matched at a stage (per-packet indirection).
    FlowEntry(u8),
    /// A match-action stage's SRAM and flow-table stats.
    Stage(u8),
    /// A concrete port's stats block.
    Link(u8),
    /// A concrete queue's stats block `(port, queue)`.
    Queue(u8, u8),
}

impl Namespace {
    /// Classify a raw address.
    pub fn of(addr: Address) -> Option<Namespace> {
        use layout::*;
        let a = addr.0;
        match a {
            _ if a < PKT_META_BASE => Some(Namespace::Switch),
            _ if a < CUR_LINK_BASE => Some(Namespace::PacketMetadata),
            _ if a < CUR_QUEUE_BASE => Some(Namespace::CurrentLink),
            _ if a < FLOW_ENTRY_BASE => Some(Namespace::CurrentQueue),
            _ if a < FLOW_ENTRY_BASE + MAX_STAGES * FLOW_ENTRY_STRIDE => {
                Some(Namespace::FlowEntry(((a - FLOW_ENTRY_BASE) / FLOW_ENTRY_STRIDE) as u8))
            }
            _ if (STAGE_BASE..STAGE_BASE + MAX_STAGES * STAGE_STRIDE).contains(&a) => {
                Some(Namespace::Stage(((a - STAGE_BASE) / STAGE_STRIDE) as u8))
            }
            _ if (LINK_BASE..LINK_BASE + MAX_PORTS * LINK_STRIDE).contains(&a) => {
                Some(Namespace::Link(((a - LINK_BASE) / LINK_STRIDE) as u8))
            }
            _ if (QUEUE_BASE..QUEUE_BASE + MAX_PORTS * QUEUE_PORT_STRIDE).contains(&a) => {
                let off = a - QUEUE_BASE;
                Some(Namespace::Queue(
                    (off / QUEUE_PORT_STRIDE) as u8,
                    ((off % QUEUE_PORT_STRIDE) / QUEUE_STRIDE) as u8,
                ))
            }
            _ => None,
        }
    }

    /// Base address of this namespace block.
    pub fn base(self) -> Address {
        use layout::*;
        let raw = match self {
            Namespace::Switch => SWITCH_BASE,
            Namespace::PacketMetadata => PKT_META_BASE,
            Namespace::CurrentLink => CUR_LINK_BASE,
            Namespace::CurrentQueue => CUR_QUEUE_BASE,
            Namespace::FlowEntry(s) => FLOW_ENTRY_BASE + s as u16 * FLOW_ENTRY_STRIDE,
            Namespace::Stage(s) => STAGE_BASE + s as u16 * STAGE_STRIDE,
            Namespace::Link(p) => LINK_BASE + p as u16 * LINK_STRIDE,
            Namespace::Queue(p, q) => {
                QUEUE_BASE + p as u16 * QUEUE_PORT_STRIDE + q as u16 * QUEUE_STRIDE
            }
        };
        Address(raw)
    }

    /// Address of `offset` within this namespace.
    pub fn at(self, offset: u16) -> Address {
        Address(self.base().0 + offset)
    }
}

/// Architectural writability of an address: `true` if the location is
/// read-write *by design* (Table 2 notes some statistics are read-only while
/// others can be modified). Switches may further restrict writes
/// administratively (§4.3); that check lives in the switch, not here.
pub fn is_architecturally_writable(addr: Address) -> bool {
    match Namespace::of(addr) {
        Some(Namespace::Switch) => false,
        Some(Namespace::PacketMetadata) => {
            matches!(addr.offset(), meta_ns::OUTPUT_PORT | meta_ns::OUTPUT_QUEUE)
        }
        Some(Namespace::CurrentLink) | Some(Namespace::Link(_)) => {
            let off = addr.offset();
            (link_ns::APP_BASE..link_ns::APP_BASE + link_ns::APP_COUNT).contains(&off)
        }
        Some(Namespace::CurrentQueue) | Some(Namespace::Queue(_, _)) => {
            matches!(addr.offset(), queue_ns::SCHED_WEIGHT | queue_ns::LIMIT_BYTES)
        }
        Some(Namespace::FlowEntry(_)) => false,
        Some(Namespace::Stage(_)) => addr.offset() < stage_ns::SRAM_WORDS,
        None => false,
    }
}

/// Errors raised when resolving human-readable mnemonics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AddrError {
    /// Mnemonic did not match `Namespace:Statistic` or was unknown.
    UnknownMnemonic(String),
    /// Instance index (port, stage, queue) out of range.
    IndexOutOfRange(String),
}

impl fmt::Display for AddrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AddrError::UnknownMnemonic(s) => write!(f, "unknown mnemonic: {s}"),
            AddrError::IndexOutOfRange(s) => write!(f, "index out of range: {s}"),
        }
    }
}

impl std::error::Error for AddrError {}

/// One namespace's statistic names: `(name, offset)` rows, the first row
/// for an offset its canonical name, plus an optional indexed range
/// `(prefix, first offset, count)` in which `{prefix}{i}` names offset
/// `first + i`. [`resolve_mnemonic`] reads a table forwards and
/// [`mnemonic_of`] backwards.
struct Names {
    rows: &'static [(&'static str, u16)],
    indexed: Option<(&'static str, u16, u16)>,
}

impl Names {
    fn offset(&self, stat: &str) -> Option<u16> {
        if let Some((prefix, first, count)) = self.indexed {
            if let Some(n) = stat.strip_prefix(prefix) {
                let i: u16 = n.parse().ok()?;
                return (i < count).then_some(first + i);
            }
        }
        self.rows.iter().find(|&&(name, _)| name == stat).map(|&(_, off)| off)
    }

    fn name(&self, off: u16) -> Option<String> {
        if let Some((prefix, first, count)) = self.indexed {
            if (first..first + count).contains(&off) {
                return Some(format!("{prefix}{}", off - first));
            }
        }
        self.rows.iter().find(|&&(_, o)| o == off).map(|&(name, _)| name.to_string())
    }
}

const SWITCH_NAMES: Names = Names {
    rows: &[
        ("SwitchID", switch_ns::SWITCH_ID),
        ("ID", switch_ns::SWITCH_ID),
        ("Version", switch_ns::VERSION),
        ("VersionNumber", switch_ns::VERSION),
        ("Uptime", switch_ns::UPTIME_CYCLES_LO),
        ("UptimeCycles", switch_ns::UPTIME_CYCLES_LO),
        ("UptimeHi", switch_ns::UPTIME_CYCLES_HI),
        ("ClockFreq", switch_ns::CLOCK_FREQ_HZ),
        ("VendorID", switch_ns::VENDOR_ID),
        ("NumPorts", switch_ns::NUM_PORTS),
        ("NumStages", switch_ns::NUM_STAGES),
        ("TimeNs", switch_ns::TIME_NS_LO),
        ("TimeNsHi", switch_ns::TIME_NS_HI),
        ("TppExecuted", switch_ns::TPP_EXECUTED_LO),
        ("TppRejected", switch_ns::TPP_REJECTED),
    ],
    indexed: None,
};

const META_NAMES: Names = Names {
    rows: &[
        ("InputPort", meta_ns::INPUT_PORT),
        ("OutputPort", meta_ns::OUTPUT_PORT),
        ("OutputQueue", meta_ns::OUTPUT_QUEUE),
        ("MatchedEntryID", meta_ns::MATCHED_ENTRY_ID),
        ("PktLen", meta_ns::PKT_LEN),
        ("PacketLength", meta_ns::PKT_LEN),
        ("HopCount", meta_ns::HOP_COUNT),
        ("PathHash", meta_ns::PATH_HASH),
        ("EnqQueueBytes", meta_ns::ENQ_QDEPTH_BYTES),
        ("EnqQueuePkts", meta_ns::ENQ_QDEPTH_PKTS),
        ("QueueWaitNs", meta_ns::QUEUE_WAIT_NS),
        ("IngressTimestamp", meta_ns::INGRESS_TSTAMP_NS_LO),
        ("IngressTimestampHi", meta_ns::INGRESS_TSTAMP_NS_HI),
    ],
    indexed: None,
};

const LINK_NAMES: Names = Names {
    rows: &[
        ("ID", link_ns::LINK_ID),
        ("LinkID", link_ns::LINK_ID),
        ("Speed", link_ns::SPEED_MBPS),
        ("SpeedMbps", link_ns::SPEED_MBPS),
        ("Status", link_ns::STATUS),
        ("QueueSize", link_ns::QUEUED_BYTES),
        ("QueuedBytes", link_ns::QUEUED_BYTES),
        ("QueuedPkts", link_ns::QUEUED_PKTS),
        ("QueueSizePkts", link_ns::QUEUED_PKTS),
        ("TX-Bytes", link_ns::TX_BYTES_LO),
        ("TX-BytesHi", link_ns::TX_BYTES_HI),
        ("TX-Pkts", link_ns::TX_PKTS_LO),
        ("RX-Bytes", link_ns::RX_BYTES_LO),
        ("RX-BytesHi", link_ns::RX_BYTES_HI),
        ("RX-Pkts", link_ns::RX_PKTS_LO),
        ("Drop-Bytes", link_ns::DROP_BYTES_LO),
        ("Drop-Pkts", link_ns::DROP_PKTS_LO),
        ("Err-Pkts", link_ns::ERR_PKTS),
        ("TX-Utilization", link_ns::TX_UTIL_BPS),
        ("RX-Utilization", link_ns::RX_UTIL_BPS),
    ],
    indexed: Some(("AppSpecific_", link_ns::APP_BASE, link_ns::APP_COUNT)),
};

const QUEUE_NAMES: Names = Names {
    rows: &[
        ("QueueOccupancy", queue_ns::BYTES),
        ("Bytes", queue_ns::BYTES),
        ("QueueOccupancyPkts", queue_ns::PKTS),
        ("Pkts", queue_ns::PKTS),
        ("Drop-Pkts", queue_ns::DROP_PKTS),
        ("Drop-Bytes", queue_ns::DROP_BYTES),
        ("TX-Pkts", queue_ns::TX_PKTS),
        ("TX-Bytes", queue_ns::TX_BYTES),
        ("SchedWeight", queue_ns::SCHED_WEIGHT),
        ("LimitBytes", queue_ns::LIMIT_BYTES),
    ],
    indexed: None,
};

const FLOW_ENTRY_NAMES: Names = Names {
    rows: &[
        ("EntryID", flow_entry_ns::ENTRY_ID),
        ("InsertClock", flow_entry_ns::INSERT_CLOCK_LO),
        ("MatchPkts", flow_entry_ns::MATCH_PKTS_LO),
        ("MatchBytes", flow_entry_ns::MATCH_BYTES_LO),
    ],
    indexed: None,
};

const STAGE_NAMES: Names = Names {
    rows: &[
        ("Version", stage_ns::VERSION),
        ("RefCount", stage_ns::REFCOUNT),
        ("LookupPkts", stage_ns::LOOKUP_PKTS_LO),
        ("LookupBytes", stage_ns::LOOKUP_BYTES_LO),
        ("MatchPkts", stage_ns::MATCH_PKTS_LO),
        ("MatchBytes", stage_ns::MATCH_BYTES_LO),
    ],
    indexed: Some(("Reg", 0, stage_ns::SRAM_WORDS)),
};

impl Namespace {
    /// The statistic names of this namespace.
    fn names(self) -> &'static Names {
        match self {
            Namespace::Switch => &SWITCH_NAMES,
            Namespace::PacketMetadata => &META_NAMES,
            Namespace::CurrentLink | Namespace::Link(_) => &LINK_NAMES,
            Namespace::CurrentQueue | Namespace::Queue(_, _) => &QUEUE_NAMES,
            Namespace::FlowEntry(_) => &FLOW_ENTRY_NAMES,
            Namespace::Stage(_) => &STAGE_NAMES,
        }
    }
}

/// Resolve a human-readable mnemonic like `Switch:SwitchID`,
/// `Link:TX-Utilization`, `Link$3:RX-Bytes`, `Queue:QueueOccupancy`,
/// `Stage1:Reg5`, or `PacketMetadata:OutputPort` to a virtual address
/// (without the surrounding brackets).
pub fn resolve_mnemonic(m: &str) -> Result<Address, AddrError> {
    use layout::{MAX_PORTS, MAX_STAGES, QUEUES_PER_PORT};
    let unknown = || AddrError::UnknownMnemonic(m.to_string());
    let out_of_range = || AddrError::IndexOutOfRange(m.to_string());
    let (ns, stat) = m.split_once(':').ok_or_else(unknown)?;
    let (ns, stat) = (ns.trim(), stat.trim());

    // `Name$i` / `Name$i$j` instance syntax.
    let mut parts = ns.split('$');
    let ns_name = parts.next().ok_or_else(unknown)?;
    let mut index = || parts.next().map(|s| s.parse::<u16>().map_err(|_| out_of_range()));
    let (idx1, idx2) = (index().transpose()?, index().transpose()?);

    // `StageN` compact syntax ("Stage1:Reg5").
    let (ns_name, idx1) = if let Some(num) = ns_name.strip_prefix("Stage").filter(|s| !s.is_empty())
    {
        let i: u16 = num.parse().map_err(|_| unknown())?;
        ("Stage", Some(i))
    } else {
        (ns_name, idx1)
    };

    let ns = match (ns_name, idx1, idx2) {
        ("Switch", None, None) => Namespace::Switch,
        ("PacketMetadata", None, None) => Namespace::PacketMetadata,
        ("Link", None, None) => Namespace::CurrentLink,
        ("Link", Some(p), None) if p < MAX_PORTS => Namespace::Link(p as u8),
        ("Queue", None, None) => Namespace::CurrentQueue,
        ("Queue", Some(p), Some(q)) if p < MAX_PORTS && q < QUEUES_PER_PORT => {
            Namespace::Queue(p as u8, q as u8)
        }
        ("FlowEntry", Some(s), None) if s < MAX_STAGES => Namespace::FlowEntry(s as u8),
        ("Stage", Some(s), None) if s < MAX_STAGES => Namespace::Stage(s as u8),
        ("Link" | "FlowEntry" | "Stage", Some(_), None) | ("Queue", Some(_), Some(_)) => {
            return Err(out_of_range())
        }
        _ => return Err(unknown()),
    };
    ns.names().offset(stat).map(|off| ns.at(off)).ok_or_else(unknown)
}

/// Best-effort inverse of [`resolve_mnemonic`], used by the disassembler and
/// `Display for Address`.
pub fn mnemonic_of(addr: Address) -> Option<String> {
    let ns = Namespace::of(addr)?;
    let stat = ns.names().name(addr.offset())?;
    let prefix = match ns {
        Namespace::Switch => "Switch".to_string(),
        Namespace::PacketMetadata => "PacketMetadata".to_string(),
        Namespace::CurrentLink => "Link".to_string(),
        Namespace::CurrentQueue => "Queue".to_string(),
        Namespace::FlowEntry(s) => format!("FlowEntry${s}"),
        Namespace::Stage(s) => format!("Stage{s}"),
        Namespace::Link(p) => format!("Link${p}"),
        Namespace::Queue(p, q) => format!("Queue${p}${q}"),
    };
    Some(format!("{prefix}:{stat}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn namespace_classification_roundtrip() {
        let cases = [
            (Namespace::Switch, 0x12),
            (Namespace::PacketMetadata, 0x01),
            (Namespace::CurrentLink, 0x12),
            (Namespace::CurrentQueue, 0x3),
            (Namespace::FlowEntry(3), 0x2),
            (Namespace::Stage(7), 0x55),
            (Namespace::Link(63), 0xFF),
            (Namespace::Queue(63, 7), 0x7),
        ];
        for (ns, off) in cases {
            let addr = ns.at(off);
            assert_eq!(Namespace::of(addr), Some(ns), "addr {addr:?}");
            assert_eq!(addr.offset(), off);
        }
    }

    #[test]
    fn unmapped_addresses_have_no_namespace() {
        assert_eq!(Namespace::of(Address(0x0800)), None);
        assert_eq!(Namespace::of(Address(0x7000)), None);
        assert_eq!(Namespace::of(Address(0xFFFF)), None);
    }

    #[test]
    fn paper_mnemonics_resolve() {
        // Every mnemonic used in a TPP listing in the paper must resolve.
        let paper = [
            "Switch:SwitchID",
            "Switch:ID",
            "Link:QueueSize",
            "Link:RX-Utilization",
            "Link:TX-Utilization",
            "Link:TX-Bytes",
            "Link:RX-Bytes",
            "Link:AppSpecific_0",
            "Link:AppSpecific_1",
            "Link:ID",
            "Queue:QueueOccupancy",
            "PacketMetadata:MatchedEntryID",
            "PacketMetadata:InputPort",
            "PacketMetadata:OutputPort",
            "Switch:VendorID",
            "Switch:Version",
            "Stage1:Reg1",
            "Stage3:Reg3",
        ];
        for m in paper {
            resolve_mnemonic(m).unwrap_or_else(|e| panic!("{m}: {e}"));
        }
    }

    #[test]
    fn mnemonic_roundtrip() {
        let names = [
            "Switch:SwitchID",
            "PacketMetadata:OutputPort",
            "Link:TX-Utilization",
            "Link$5:RX-Bytes",
            "Link:AppSpecific_7",
            "Queue:QueueOccupancy",
            "Queue$2$3:Drop-Pkts",
            "Stage2:Reg9",
            "Stage2:Version",
            "FlowEntry$1:MatchPkts",
        ];
        for name in names {
            let addr = resolve_mnemonic(name).unwrap();
            let back = mnemonic_of(addr).unwrap();
            let addr2 = resolve_mnemonic(&back).unwrap();
            assert_eq!(addr, addr2, "{name} -> {back}");
        }
    }

    #[test]
    fn every_named_address_resolves_back_to_itself() {
        let mut named = 0;
        for addr in (0..=u16::MAX).map(Address) {
            if let Some(m) = mnemonic_of(addr) {
                assert_eq!(resolve_mnemonic(&m), Ok(addr), "{m}");
                named += 1;
            }
        }
        // 12 + 12 + 48 + 8 per-packet or global words, 4 per flow entry,
        // 198 per stage, 48 per port, 8 per queue.
        assert_eq!(named, 80 + 16 * 4 + 16 * 198 + 64 * 48 + 512 * 8);
    }

    #[test]
    fn unknown_mnemonics_rejected() {
        assert!(resolve_mnemonic("Bogus:Thing").is_err());
        assert!(resolve_mnemonic("Switch:NoSuchStat").is_err());
        assert!(resolve_mnemonic("SwitchID").is_err()); // missing namespace
        assert!(resolve_mnemonic("Link$64:ID").is_err()); // port out of range
        assert!(resolve_mnemonic("Stage16:Reg0").is_err()); // stage out of range
        assert!(resolve_mnemonic("Queue$1$8:Bytes").is_err()); // queue out of range
        assert!(resolve_mnemonic("Link:AppSpecific_32").is_err()); // app reg range
    }

    #[test]
    fn writability_matches_table2() {
        // Read-only examples from Table 2.
        assert!(!is_architecturally_writable(
            resolve_mnemonic("PacketMetadata:MatchedEntryID").unwrap()
        ));
        assert!(!is_architecturally_writable(resolve_mnemonic("Link:RX-Bytes").unwrap()));
        assert!(!is_architecturally_writable(resolve_mnemonic("Switch:SwitchID").unwrap()));
        // Modifiable examples from Table 2 / §2.2.
        assert!(is_architecturally_writable(
            resolve_mnemonic("PacketMetadata:OutputPort").unwrap()
        ));
        assert!(is_architecturally_writable(resolve_mnemonic("Link:AppSpecific_0").unwrap()));
        assert!(is_architecturally_writable(resolve_mnemonic("Stage1:Reg0").unwrap()));
        // Flow-table stats are never writable.
        assert!(!is_architecturally_writable(resolve_mnemonic("Stage1:Version").unwrap()));
    }

    #[test]
    fn display_uses_mnemonics() {
        let a = resolve_mnemonic("Queue:QueueOccupancy").unwrap();
        assert_eq!(format!("{a}"), "[Queue:QueueOccupancy]");
        let unmapped = Address(0x0900);
        assert_eq!(format!("{unmapped}"), "[0x0900]");
    }
}
