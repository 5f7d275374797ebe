//! `NetSight` refactored onto TPPs (paper §2.3, Figure 3).
//!
//! `NetSight`'s core construct is the *packet history*: "a record of the
//! packet's path through the network and the switch forwarding state
//! applied to the packet". Instead of having switches generate truncated
//! packet copies, every end-host inserts
//!
//! ```text
//! PUSH [Switch:ID]
//! PUSH [PacketMetadata:MatchedEntryID]
//! PUSH [PacketMetadata:InputPort]
//! ```
//!
//! on (a subset of) its packets; the receiving shim forwards the completed
//! TPP to a collector, which reconstructs histories. On top of the store we
//! implement the paper's four troubleshooting applications:
//!
//! * **netshark** — a network-wide tcpdump: the history store itself, with
//!   per-flow grouping;
//! * **ndb** — an interactive debugger: query histories by switch, flow,
//!   or matched entry;
//! * **netwatch** — live policy checking (isolation, waypointing, loop
//!   detection);
//! * **loss localization** — find the last switch that saw packets of a
//!   flow that never arrived (§2.6 fault localization).

use crate::common::{shared, udp_frame, Shared, DATA_PORT};
use tpp_core::probe::{Probe, TppData};
use tpp_core::wire::Ipv4Address;
use tpp_endhost::harness::{Aggregator, Endhost, Harness};
use tpp_endhost::shim::FlowRef;
use tpp_endhost::Filter;
use tpp_netsim::{NodeId, Time, TopologySpec};

/// One hop of a packet history.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HopRecord {
    pub switch_id: u32,
    pub matched_entry: u32,
    pub in_port: u32,
}

/// A reconstructed packet history (§2.3).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PacketHistory {
    /// Collector arrival time.
    pub t_ns: Time,
    pub flow: FlowRef,
    pub hops: Vec<HopRecord>,
}

impl PacketHistory {
    pub fn path(&self) -> Vec<u32> {
        self.hops.iter().map(|h| h.switch_id).collect()
    }

    pub fn traverses(&self, switch_id: u32) -> bool {
        self.hops.iter().any(|h| h.switch_id == switch_id)
    }

    /// A forwarding loop shows as a repeated switch.
    pub fn has_loop(&self) -> bool {
        let mut seen = std::collections::BTreeSet::new();
        self.hops.iter().any(|h| !seen.insert(h.switch_id))
    }
}

/// The TPP application ID the `NetSight` deployment runs under: the traced
/// hosts stamp it and the collector listens for it — both sides must agree
/// for completions to route.
pub const NETSIGHT_APP_ID: u16 = 3;

/// The §2.3 packet-history probe schema.
pub fn history_probe() -> Probe {
    Probe::stack("netsight-history")
        .field("switch", "Switch:ID")
        .field("entry", "PacketMetadata:MatchedEntryID")
        .field("in_port", "PacketMetadata:InputPort")
}

/// The schema instance shared by all decode paths (built once; decoding is
/// on the per-packet collector path).
fn history_schema() -> &'static Probe {
    crate::common::static_schema!(history_probe)
}

/// Decode a completed history TPP through the typed schema.
pub fn parse_history<T: TppData>(t_ns: Time, tpp: &T, flow: FlowRef) -> PacketHistory {
    let p = history_schema();
    // Resolve names once per TPP, not once per hop (this runs per packet
    // at the collector).
    let (switch, entry, in_port) = (
        p.index_of("switch").unwrap(),
        p.index_of("entry").unwrap(),
        p.index_of("in_port").unwrap(),
    );
    let hops = p
        .records(tpp)
        .map(|r| HopRecord {
            switch_id: r.at(switch).unwrap_or(0),
            matched_entry: r.at(entry).unwrap_or(0),
            in_port: r.at(in_port).unwrap_or(0),
        })
        .collect();
    PacketHistory { t_ns, flow, hops }
}

/// The collector service (Figure 3): receives completed TPPs on the echo
/// channel and stores reconstructed histories. Construct with
/// [`Collector::new`].
pub struct Collector {
    pub histories: Shared<Vec<PacketHistory>>,
}

/// The wired collector application.
pub type CollectorApp = Endhost<Collector>;

impl Collector {
    pub fn new() -> CollectorApp {
        Harness::new(Collector { histories: shared(Vec::new()) })
            .listen(history_probe().app_id(NETSIGHT_APP_ID), |s, io, c| {
                s.histories.borrow_mut().push(parse_history(io.ctx.now, &c.tpp, c.flow));
            })
            .build()
            .expect("static wiring")
    }
}

const TIMER_SEND: u64 = 1;

/// A traced host: sends paced UDP packets to a destination with the history
/// TPP attached (aggregated at the collector), via [`TracedHost::new`].
pub struct TracedHost {
    pub dst: Ipv4Address,
    pub collector: Ipv4Address,
    pub period_ns: Time,
    pub payload: usize,
    pub packets_sent: u64,
    sport: u16,
}

/// The wired traced-host application.
pub type TracedApp = Endhost<TracedHost>;

impl TracedHost {
    pub fn new(dst: Ipv4Address, collector: Ipv4Address, sport: u16) -> TracedApp {
        TracedHost::with_sampling(dst, collector, sport, 1)
    }

    /// Like [`TracedHost::new`] with a 1-in-`sample_frequency` stamp rate.
    pub fn with_sampling(
        dst: Ipv4Address,
        collector: Ipv4Address,
        sport: u16,
        sample_frequency: u32,
    ) -> TracedApp {
        let state = TracedHost {
            dst,
            collector,
            period_ns: 1_000_000,
            payload: 200,
            packets_sent: 0,
            sport,
        };
        Harness::new(state)
            .stamp(
                history_probe().app_id(NETSIGHT_APP_ID).hops(8),
                Filter::udp(),
                sample_frequency,
                Aggregator::Remote(collector),
            )
            .on_start(|s, io| io.ctx.set_timer(s.period_ns, TIMER_SEND))
            .on_timer(|s, io, token| {
                if token == TIMER_SEND {
                    let frame = udp_frame(io.ctx.ip, s.dst, s.sport, DATA_PORT, s.payload);
                    io.send_data(frame);
                    s.packets_sent += 1;
                    io.ctx.set_timer(s.period_ns, TIMER_SEND);
                }
            })
            .build()
            .expect("static wiring")
    }
}

// ---------------------------------------------------------------------------
// ndb: the interactive network debugger (query language over histories).
// ---------------------------------------------------------------------------

/// An ndb query: all fields optional, conjunctive.
#[derive(Clone, Copy, Debug, Default)]
pub struct Query {
    pub src: Option<Ipv4Address>,
    pub dst: Option<Ipv4Address>,
    pub traverses_switch: Option<u32>,
    pub matched_entry: Option<u32>,
    pub after_ns: Option<Time>,
    pub before_ns: Option<Time>,
}

/// Run an ndb query over the history store.
pub fn ndb_query<'a>(store: &'a [PacketHistory], q: &Query) -> Vec<&'a PacketHistory> {
    store
        .iter()
        .filter(|h| q.src.is_none_or(|s| h.flow.src == s))
        .filter(|h| q.dst.is_none_or(|d| h.flow.dst == d))
        .filter(|h| q.traverses_switch.is_none_or(|s| h.traverses(s)))
        .filter(|h| q.matched_entry.is_none_or(|e| h.hops.iter().any(|hop| hop.matched_entry == e)))
        .filter(|h| q.after_ns.is_none_or(|t| h.t_ns >= t))
        .filter(|h| q.before_ns.is_none_or(|t| h.t_ns <= t))
        .collect()
}

/// netshark: group histories per flow (a network-wide tcpdump index).
pub fn netshark_flows(
    store: &[PacketHistory],
) -> std::collections::BTreeMap<(Ipv4Address, Ipv4Address, u16, u16), Vec<&PacketHistory>> {
    let mut out: std::collections::BTreeMap<_, Vec<&PacketHistory>> =
        std::collections::BTreeMap::new();
    for h in store {
        out.entry((h.flow.src, h.flow.dst, h.flow.src_port, h.flow.dst_port)).or_default().push(h);
    }
    out
}

// ---------------------------------------------------------------------------
// netwatch: verify forwarding traces against control-plane policy.
// ---------------------------------------------------------------------------

/// A netwatch policy rule.
#[derive(Clone, Debug)]
pub enum Rule {
    /// Traffic from `src` must never reach `dst` (tenant isolation).
    Isolation { src: Ipv4Address, dst: Ipv4Address },
    /// Flows from `src` to `dst` must traverse `switch_id` (waypointing,
    /// e.g. a firewall).
    Waypoint { src: Ipv4Address, dst: Ipv4Address, switch_id: u32 },
    /// No forwarding loops anywhere.
    NoLoops,
    /// Paths must be at most `max` switch hops.
    MaxPathLength { max: usize },
}

/// A detected policy violation.
#[derive(Clone, Debug, PartialEq)]
pub struct RuleViolation {
    pub rule_index: usize,
    pub history_index: usize,
    pub description: String,
}

/// Check every history against every rule.
pub fn netwatch_check(store: &[PacketHistory], rules: &[Rule]) -> Vec<RuleViolation> {
    let mut out = Vec::new();
    for (hi, h) in store.iter().enumerate() {
        for (ri, rule) in rules.iter().enumerate() {
            let violation = match rule {
                Rule::Isolation { src, dst } => {
                    if h.flow.src == *src && h.flow.dst == *dst {
                        Some(format!("isolated pair {src} -> {dst} communicated"))
                    } else {
                        None
                    }
                }
                Rule::Waypoint { src, dst, switch_id } => {
                    if h.flow.src == *src && h.flow.dst == *dst && !h.traverses(*switch_id) {
                        Some(format!("flow {src} -> {dst} bypassed waypoint {switch_id}"))
                    } else {
                        None
                    }
                }
                Rule::NoLoops => {
                    if h.has_loop() {
                        Some(format!("forwarding loop on path {:?}", h.path()))
                    } else {
                        None
                    }
                }
                Rule::MaxPathLength { max } => {
                    if h.hops.len() > *max {
                        Some(format!("path length {} exceeds {max}", h.hops.len()))
                    } else {
                        None
                    }
                }
            };
            if let Some(description) = violation {
                out.push(RuleViolation { rule_index: ri, history_index: hi, description });
            }
        }
    }
    out
}

/// Loss localization: given histories of a flow whose packets stopped
/// arriving, report the switch most recently seen forwarding it (the
/// failure is just downstream of it).
pub fn last_seen_switch(
    store: &[PacketHistory],
    src: Ipv4Address,
    dst: Ipv4Address,
) -> Option<u32> {
    store
        .iter()
        .filter(|h| h.flow.src == src && h.flow.dst == dst)
        .max_by_key(|h| h.t_ns)
        .and_then(|h| h.hops.last().map(|hop| hop.switch_id))
}

/// Drive a `NetSight` deployment on a line topology; returns the collector's
/// store and the hosts used.
pub struct NetsightRun {
    pub histories: Vec<PacketHistory>,
    pub hosts: Vec<NodeId>,
    pub host_ips: Vec<Ipv4Address>,
    pub packets_sent: u64,
}

/// All hosts send traced traffic to their "next" host; the last host is the
/// dedicated collector.
pub fn run_netsight(duration: Time, sample_frequency: u32, seed: u64) -> NetsightRun {
    let mut topo = TopologySpec::Line { switches: 3, hosts_per_switch: 2 }
        .builder()
        .link_mbps(100)
        .delay_ns(10_000)
        .seed(seed)
        .build();
    let hosts = topo.hosts.clone();
    let ips: Vec<Ipv4Address> = hosts.iter().map(|&h| topo.net.host(h).ip).collect();
    // Last host is the collector.
    let collector_host = hosts[hosts.len() - 1];
    let collector_ip = ips[hosts.len() - 1];
    topo.net.set_app(collector_host, Box::new(Collector::new()));
    let senders = hosts.len() - 1;
    for i in 0..senders {
        let dst = ips[(i + 1) % senders];
        let app = TracedHost::with_sampling(dst, collector_ip, 6000 + i as u16, sample_frequency);
        topo.net.set_app(hosts[i], Box::new(app));
    }
    topo.net.run_until(duration);
    let mut packets_sent = 0;
    for &h in &hosts[..senders] {
        packets_sent += topo.net.app_mut::<TracedApp>(h).packets_sent;
    }
    let histories = topo.net.app_mut::<CollectorApp>(collector_host).histories.borrow().clone();
    NetsightRun { histories, hosts, host_ips: ips, packets_sent }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpp_netsim::MILLIS;

    fn flow(src: u32, dst: u32) -> FlowRef {
        FlowRef {
            src: Ipv4Address::from_host_id(src),
            dst: Ipv4Address::from_host_id(dst),
            src_port: 1,
            dst_port: 2,
        }
    }

    fn hist(t: Time, f: FlowRef, path: &[u32]) -> PacketHistory {
        PacketHistory {
            t_ns: t,
            flow: f,
            hops: path
                .iter()
                .map(|&s| HopRecord { switch_id: s, matched_entry: 0, in_port: 0 })
                .collect(),
        }
    }

    #[test]
    fn history_tpp_overhead_matches_paper() {
        // §2.3: 12 bytes of instructions, a TPP header, space for 10 hops.
        let t = history_probe().hops(10).compile().unwrap();
        assert_eq!(t.instrs.len() * 4, 12);
        // Paper counts 6B/hop with 16-bit words = 84B total; ours are
        // 32-bit words: 12B/hop -> 144B.
        assert_eq!(t.section_len(), 12 + 12 + 120);
    }

    #[test]
    fn end_to_end_histories_match_topology() {
        let r = run_netsight(50 * MILLIS, 1, 1);
        assert!(!r.histories.is_empty(), "collector got histories");
        // Host 0 (on switch 1) sends to host 1 (also switch 1): 1-switch
        // path. Host 1 -> host 2 (switch 2): 2-switch path... check that
        // every history's path is a contiguous run of switch ids and the
        // flow context survived.
        for h in &r.histories {
            assert!(!h.hops.is_empty());
            assert!(!h.has_loop(), "path {:?}", h.path());
            assert!(h.hops.len() <= 3);
            assert_ne!(h.flow.src, Ipv4Address::UNSPECIFIED);
            assert_eq!(h.flow.dst_port, DATA_PORT);
        }
        // Sampling freq 1: every data packet produced a history (allow for
        // in-flight tail).
        assert!(r.histories.len() as u64 >= r.packets_sent * 9 / 10);
    }

    #[test]
    fn sampling_reduces_history_volume() {
        let full = run_netsight(50 * MILLIS, 1, 2);
        let tenth = run_netsight(50 * MILLIS, 10, 2);
        assert!(
            (tenth.histories.len() as f64) < (full.histories.len() as f64) * 0.3,
            "{} vs {}",
            tenth.histories.len(),
            full.histories.len()
        );
    }

    #[test]
    fn ndb_queries() {
        let store = vec![
            hist(10, flow(1, 2), &[1, 2]),
            hist(20, flow(1, 3), &[1, 2, 3]),
            hist(30, flow(4, 2), &[2]),
        ];
        assert_eq!(
            ndb_query(
                &store,
                &Query { src: Some(Ipv4Address::from_host_id(1)), ..Query::default() }
            )
            .len(),
            2
        );
        assert_eq!(
            ndb_query(&store, &Query { traverses_switch: Some(3), ..Query::default() }).len(),
            1
        );
        assert_eq!(
            ndb_query(
                &store,
                &Query { after_ns: Some(15), before_ns: Some(25), ..Query::default() }
            )
            .len(),
            1
        );
        let both = Query {
            src: Some(Ipv4Address::from_host_id(1)),
            traverses_switch: Some(2),
            ..Query::default()
        };
        assert_eq!(ndb_query(&store, &both).len(), 2);
    }

    #[test]
    fn netshark_groups_by_flow() {
        let store =
            vec![hist(1, flow(1, 2), &[1]), hist(2, flow(1, 2), &[1]), hist(3, flow(2, 1), &[1])];
        let flows = netshark_flows(&store);
        assert_eq!(flows.len(), 2);
        assert_eq!(flows.values().map(Vec::len).max(), Some(2));
    }

    #[test]
    fn netwatch_detects_violations() {
        let store = vec![
            hist(1, flow(1, 2), &[1, 2]),
            hist(2, flow(3, 4), &[1, 1, 2]), // loop!
            hist(3, flow(5, 6), &[2, 3]),    // bypasses waypoint 1
        ];
        let rules = vec![
            Rule::Isolation {
                src: Ipv4Address::from_host_id(1),
                dst: Ipv4Address::from_host_id(2),
            },
            Rule::NoLoops,
            Rule::Waypoint {
                src: Ipv4Address::from_host_id(5),
                dst: Ipv4Address::from_host_id(6),
                switch_id: 1,
            },
        ];
        let v = netwatch_check(&store, &rules);
        assert_eq!(v.len(), 3);
        assert!(v.iter().any(|x| x.rule_index == 0 && x.history_index == 0));
        assert!(v.iter().any(|x| x.rule_index == 1 && x.history_index == 1));
        assert!(v.iter().any(|x| x.rule_index == 2 && x.history_index == 2));
        // Clean store: no violations.
        assert!(netwatch_check(&store[..1], &rules[1..]).is_empty());
    }

    #[test]
    fn loss_localization() {
        let src = Ipv4Address::from_host_id(1);
        let dst = Ipv4Address::from_host_id(2);
        let store = vec![
            hist(10, flow(1, 2), &[1, 2, 3]),
            hist(20, flow(1, 2), &[1, 2]), // later packets die after switch 2
        ];
        assert_eq!(last_seen_switch(&store, src, dst), Some(2));
        assert_eq!(last_seen_switch(&store, dst, src), None);
    }
}
