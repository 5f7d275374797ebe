//! iptables-like packet filters for the end-host dataplane (§4.1–4.2).
//!
//! `add_tpp(filter, tpp, sample_frequency, priority)` installs a filter;
//! outgoing packets are matched against the table in priority order and the
//! first matching, sampling-admitted entry contributes its TPP ("Only one
//! TPP is added to any packet", §4.2).
//!
//! # Structure
//!
//! [`FilterTable`] keeps its entries in priority order (equal priorities in
//! insertion order) and, beside them, a tuple-space index: one hash map per
//! filter *shape* in use, a shape being the set of 5-tuple fields a filter
//! fixes. A map takes the packet's 5-tuple masked to its shape to the
//! positions of the entries whose filter is exactly that tuple, in ascending
//! order. [`Filter::any`] is the shape with no fields and one empty key.
//! `add` and `remove_app` keep the index current, and nothing else can change
//! an installed entry's filter or position.
//!
//! Each entry's TPP section is serialized once, when it is added, with
//! `encap_proto` = IPv4 — the only ethertype of a packet that has a 5-tuple
//! to match. Stamping copies those bytes (see [`crate::shim::Shim::outgoing`]).
//!
//! # Cost
//!
//! [`FilterTable::select`] makes one hash probe per shape in use and then
//! does work only for the entries that match the packet: it is independent of
//! the number of installed filters (Table 5). In-tree tables have one or two
//! shapes.

use std::collections::{BTreeMap, HashMap};
use std::hash::{BuildHasherDefault, Hasher};

use tpp_core::wire::{ethernet, Ipv4Address, Tpp};
use tpp_switch::FlowKey;

/// A packet filter over the 5-tuple (any field may be wildcarded).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Filter {
    /// IP protocol (6 = TCP, 17 = UDP); `None` matches any.
    pub protocol: Option<u8>,
    pub src: Option<Ipv4Address>,
    pub dst: Option<Ipv4Address>,
    pub src_port: Option<u16>,
    pub dst_port: Option<u16>,
}

impl Filter {
    /// Match everything.
    pub fn any() -> Filter {
        Filter::default()
    }

    pub fn udp() -> Filter {
        Filter { protocol: Some(17), ..Filter::default() }
    }

    pub fn tcp() -> Filter {
        Filter { protocol: Some(6), ..Filter::default() }
    }

    pub fn dst_port(port: u16) -> Filter {
        Filter { dst_port: Some(port), ..Filter::default() }
    }

    pub fn matches(&self, key: &FlowKey) -> bool {
        self.protocol.is_none_or(|p| p == key.protocol)
            && self.src.is_none_or(|a| a == key.src)
            && self.dst.is_none_or(|a| a == key.dst)
            && self.src_port.is_none_or(|p| p == key.src_port)
            && self.dst_port.is_none_or(|p| p == key.dst_port)
    }

    /// The filter's shape: the bits of a [`pack`]ed 5-tuple it fixes.
    fn mask(&self) -> u128 {
        let field = |fixed: bool, bits: u128| if fixed { bits } else { 0 };
        field(self.protocol.is_some(), PROTOCOL)
            | field(self.src.is_some(), SRC)
            | field(self.dst.is_some(), DST)
            | field(self.src_port.is_some(), SRC_PORT)
            | field(self.dst_port.is_some(), DST_PORT)
    }

    /// The [`pack`]ed tuple a packet must have under [`Filter::mask`] to
    /// match: wildcarded fields are zero.
    fn tuple(&self) -> u128 {
        pack(&FlowKey {
            src: self.src.unwrap_or_default(),
            dst: self.dst.unwrap_or_default(),
            protocol: self.protocol.unwrap_or_default(),
            src_port: self.src_port.unwrap_or_default(),
            dst_port: self.dst_port.unwrap_or_default(),
        })
    }
}

const PROTOCOL: u128 = 0xFF << 96;
const SRC: u128 = 0xFFFF_FFFF << 64;
const DST: u128 = 0xFFFF_FFFF << 32;
const SRC_PORT: u128 = 0xFFFF << 16;
const DST_PORT: u128 = 0xFFFF;

/// A 5-tuple as one integer, each field under its mask constant, so that
/// masking to a filter shape is one `&`.
fn pack(key: &FlowKey) -> u128 {
    u128::from(key.protocol) << PROTOCOL.trailing_zeros()
        | u128::from(key.src.to_u32()) << SRC.trailing_zeros()
        | u128::from(key.dst.to_u32()) << DST.trailing_zeros()
        | u128::from(key.src_port) << SRC_PORT.trailing_zeros()
        | u128::from(key.dst_port)
}

/// One installed `add_tpp` rule.
#[derive(Clone, Debug)]
pub struct FilterEntry {
    pub app_id: u16,
    pub filter: Filter,
    pub tpp: Tpp,
    /// Sampling frequency N: a matched packet is stamped with probability
    /// 1/N (N = 1 stamps every packet; §4.1).
    pub sample_frequency: u32,
    /// Lower value = higher priority.
    pub priority: u32,
    pub matched: u64,
    pub stamped: u64,
}

/// Hasher for the tuple-space index: the two halves of the `u128` key
/// combined, then one widening multiply, folded (the step of
/// `tpp_switch::tables`' prefix index). `select` runs per packet, where
/// `SipHash` would cost more than the probe, and only the control plane
/// stores keys — packets merely probe — so the default hasher's flooding
/// resistance buys nothing here. The constants are fixed: the index is
/// identical in every run.
#[derive(Clone, Copy, Debug, Default)]
struct TupleHasher(u64);

impl Hasher for TupleHasher {
    fn write(&mut self, _: &[u8]) {
        unreachable!("the tuple index hashes u128 keys only");
    }
    fn write_u128(&mut self, key: u128) {
        self.0 = (key as u64) ^ ((key >> 64) as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F);
    }
    fn finish(&self) -> u64 {
        let m = u128::from(self.0) * 0x9E37_79B9_7F4A_7C15_u128;
        (m as u64) ^ ((m >> 64) as u64)
    }
}

/// The filters of one shape: masked tuple → ascending positions in `entries`
/// of the filters that are exactly that tuple. Probed per packet; iterated
/// only to shift positions, which is order-independent.
type Rules = HashMap<u128, Vec<usize>, BuildHasherDefault<TupleHasher>>;

/// The ordered filter table.
#[derive(Clone, Debug, Default)]
pub struct FilterTable {
    /// Priority order, insertion order among equal priorities.
    entries: Vec<FilterEntry>,
    /// `sections[i]` is `entries[i].tpp` on the wire, checksum included,
    /// with `encap_proto` = IPv4.
    sections: Vec<Vec<u8>>,
    /// The index, one map per filter shape in use: the shape's mask (the
    /// bits of a [`pack`]ed tuple its filters fix) → its rules.
    shapes: BTreeMap<u128, Rules>,
}

impl FilterTable {
    /// Install `entry` after every entry of equal or higher priority (lower
    /// or equal `priority` value).
    pub fn add(&mut self, entry: FilterEntry) {
        let pos = self.entries.partition_point(|e| e.priority <= entry.priority);
        if pos < self.entries.len() {
            // Everything from `pos` on moves down one.
            for positions in self.shapes.values_mut().flat_map(HashMap::values_mut) {
                let moved = positions.partition_point(|&p| p < pos);
                positions[moved..].iter_mut().for_each(|p| *p += 1);
            }
        }
        let on_ipv4 = Tpp { encap_proto: ethernet::ethertype::IPV4, ..entry.tpp.clone() };
        self.sections.insert(pos, on_ipv4.serialize());
        self.entries.insert(pos, entry);
        self.index_entry(pos);
    }

    pub fn remove_app(&mut self, app_id: u16) {
        let mut keep = self.entries.iter().map(|e| e.app_id != app_id);
        self.sections.retain(|_| keep.next().expect("one section per entry"));
        self.entries.retain(|e| e.app_id != app_id);
        // Positions moved: index again. Shapes left without a filter go.
        self.shapes.clear();
        for pos in 0..self.entries.len() {
            self.index_entry(pos);
        }
    }

    /// Enter `entries[pos]` into the index. The positions already there must
    /// be current: `add` shifts them before it calls this.
    fn index_entry(&mut self, pos: usize) {
        let filter = &self.entries[pos].filter;
        let rules = self.shapes.entry(filter.mask()).or_default();
        let positions = rules.entry(filter.tuple()).or_default();
        positions.insert(positions.partition_point(|&p| p < pos), pos);
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    pub fn entries(&self) -> &[FilterEntry] {
        &self.entries
    }

    /// Find the TPP to stamp on an IPv4 packet with flow key `key`, if any:
    /// the owning app's id and the TPP section as it goes on the wire, with
    /// `encap_proto` = IPv4. `coin` must be uniform in [0, 1): it drives
    /// sampling.
    ///
    /// All matching entries update their match counters (needed for the
    /// Table 5 experiment's `first`/`last`/`all` scenarios to be
    /// meaningfully different), but only the first sampling-admitted entry
    /// — the one at the lowest position whose `1/sample_frequency` exceeds
    /// `coin` — stamps.
    ///
    /// Cost: one hash probe per filter shape in use, plus the counter update
    /// of each matching entry.
    pub fn select(&mut self, key: &FlowKey, coin: f64) -> Option<(u16, &[u8])> {
        let tuple = pack(key);
        let mut chosen: Option<usize> = None;
        for (mask, rules) in &self.shapes {
            let Some(positions) = rules.get(&(tuple & mask)) else {
                continue;
            };
            for &pos in positions {
                let e = &mut self.entries[pos];
                e.matched += 1;
                if chosen.is_none_or(|c| pos < c) && coin < 1.0 / e.sample_frequency as f64 {
                    chosen = Some(pos);
                }
            }
        }
        let pos = chosen?;
        self.entries[pos].stamped += 1;
        Some((self.entries[pos].app_id, &self.sections[pos]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpp_core::asm::TppBuilder;

    fn key(proto: u8, sport: u16, dport: u16) -> FlowKey {
        FlowKey {
            src: Ipv4Address::new(10, 0, 0, 1),
            dst: Ipv4Address::new(10, 0, 0, 2),
            protocol: proto,
            src_port: sport,
            dst_port: dport,
        }
    }

    fn tpp(app: u16) -> Tpp {
        let mut t =
            TppBuilder::stack_mode().push_m("Switch:SwitchID").unwrap().hops(5).build().unwrap();
        t.app_id = app;
        t
    }

    fn entry(app: u16, filter: Filter, freq: u32, prio: u32) -> FilterEntry {
        FilterEntry {
            app_id: app,
            filter,
            tpp: tpp(app),
            sample_frequency: freq,
            priority: prio,
            matched: 0,
            stamped: 0,
        }
    }

    #[test]
    fn wildcards_and_fields() {
        assert!(Filter::any().matches(&key(6, 1, 2)));
        assert!(Filter::udp().matches(&key(17, 1, 2)));
        assert!(!Filter::udp().matches(&key(6, 1, 2)));
        assert!(Filter::dst_port(80).matches(&key(6, 5, 80)));
        assert!(!Filter::dst_port(80).matches(&key(6, 5, 81)));
        let f = Filter { src: Some(Ipv4Address::new(10, 0, 0, 1)), ..Filter::default() };
        assert!(f.matches(&key(17, 0, 0)));
        let g = Filter { src: Some(Ipv4Address::new(10, 0, 0, 9)), ..Filter::default() };
        assert!(!g.matches(&key(17, 0, 0)));
    }

    #[test]
    fn priority_order_first_match_wins() {
        let mut t = FilterTable::default();
        t.add(entry(2, Filter::any(), 1, 20));
        t.add(entry(1, Filter::any(), 1, 10));
        let (app, _) = t.select(&key(17, 1, 2), 0.0).unwrap();
        assert_eq!(app, 1);
        // Both matched, one stamped.
        assert_eq!(t.entries()[0].matched, 1);
        assert_eq!(t.entries()[1].matched, 1);
        assert_eq!(t.entries()[0].stamped, 1);
        assert_eq!(t.entries()[1].stamped, 0);
    }

    #[test]
    fn sampling_frequency() {
        let mut t = FilterTable::default();
        t.add(entry(1, Filter::any(), 10, 0));
        // coin < 0.1 stamps, otherwise not.
        assert!(t.select(&key(17, 1, 2), 0.05).is_some());
        assert!(t.select(&key(17, 1, 2), 0.5).is_none());
        assert_eq!(t.entries()[0].matched, 2);
        assert_eq!(t.entries()[0].stamped, 1);
    }

    #[test]
    fn skipped_entry_falls_through() {
        // If the first entry's sampling coin fails, the next matching entry
        // still gets a chance with the same coin.
        let mut t = FilterTable::default();
        t.add(entry(1, Filter::any(), 100, 0)); // p = 0.01
        t.add(entry(2, Filter::any(), 1, 1)); // p = 1
        let (app, _) = t.select(&key(17, 1, 2), 0.5).unwrap();
        assert_eq!(app, 2);
    }

    #[test]
    fn remove_app() {
        let mut t = FilterTable::default();
        t.add(entry(1, Filter::any(), 1, 0));
        t.add(entry(2, Filter::udp(), 1, 1));
        t.remove_app(1);
        assert_eq!(t.len(), 1);
        assert_eq!(t.entries()[0].app_id, 2);
    }

    #[test]
    fn coexisting_apps_one_stamp_per_packet() {
        // §4.1: multiple applications wanting TPPs on the same traffic
        // coexist; §4.2: only one TPP per packet.
        let mut t = FilterTable::default();
        t.add(entry(1, Filter::udp(), 1, 0));
        t.add(entry(2, Filter::udp(), 1, 1));
        for _ in 0..10 {
            let sel = t.select(&key(17, 1, 2), 0.0);
            assert_eq!(sel.unwrap().0, 1);
        }
        assert_eq!(t.entries()[0].stamped, 10);
        assert_eq!(t.entries()[1].stamped, 0);
        assert_eq!(t.entries()[1].matched, 10);
    }

    /// The table as it was before the index, the oracle of [`differential`]:
    /// `add` stable-sorts the whole table, `select` scans every entry and
    /// hands out an owned `Tpp`.
    #[derive(Default)]
    struct LinearTable {
        entries: Vec<FilterEntry>,
    }

    impl LinearTable {
        fn add(&mut self, entry: FilterEntry) {
            self.entries.push(entry);
            self.entries.sort_by_key(|e| e.priority);
        }

        fn remove_app(&mut self, app_id: u16) {
            self.entries.retain(|e| e.app_id != app_id);
        }

        fn select(&mut self, key: &FlowKey, coin: f64) -> Option<(u16, Tpp)> {
            let mut chosen: Option<(u16, Tpp)> = None;
            for e in &mut self.entries {
                if !e.filter.matches(key) {
                    continue;
                }
                e.matched += 1;
                if chosen.is_none() && coin < 1.0 / e.sample_frequency as f64 {
                    e.stamped += 1;
                    chosen = Some((e.app_id, e.tpp.clone()));
                }
            }
            chosen
        }
    }

    fn on_ipv4(tpp: &Tpp) -> Vec<u8> {
        Tpp { encap_proto: ethernet::ethertype::IPV4, ..tpp.clone() }.serialize()
    }

    #[derive(Clone, Debug)]
    enum Op {
        Add { app: u16, filter: Filter, freq: u32, prio: u32 },
        Remove(u16),
        Select(FlowKey, f64),
    }

    use proptest::prelude::*;

    prop_compose! {
        /// Every field draws from two values, so the 32 filter shapes meet
        /// 32 keys: duplicates, overlaps and misses are all common. Coins
        /// crowd towards 0 so that high sampling frequencies admit some.
        fn op()(
            kind in 0u8..10,
            shape in 0u8..32,
            pick in 0u8..32,
            app in 1u16..5,
            freq in 1u32..=100,
            prio in 0u32..3,
            coin in any::<f64>(),
            scale in 0usize..4,
        ) -> Op {
            let bit = |i: u8| pick >> i & 1;
            let key = FlowKey {
                protocol: [6, 17][bit(0) as usize],
                src: Ipv4Address::new(10, 0, 0, 1 + bit(1)),
                dst: Ipv4Address::new(10, 0, 1, 1 + bit(2)),
                src_port: 5000 + u16::from(bit(3)),
                dst_port: 80 + u16::from(bit(4)),
            };
            let fixed = |i: u8| shape >> i & 1 == 1;
            let filter = Filter {
                protocol: fixed(0).then_some(key.protocol),
                src: fixed(1).then_some(key.src),
                dst: fixed(2).then_some(key.dst),
                src_port: fixed(3).then_some(key.src_port),
                dst_port: fixed(4).then_some(key.dst_port),
            };
            match kind {
                0..=3 => Op::Add { app, filter, freq, prio },
                4 => Op::Remove(app),
                _ => Op::Select(key, coin * [1.0, 0.1, 0.01, 0.0][scale]),
            }
        }
    }

    type Row = (u16, u16, Filter, u32, u32, u64, u64);

    fn rows(entries: &[FilterEntry]) -> Vec<Row> {
        entries
            .iter()
            .map(|e| {
                (
                    e.app_id,
                    e.tpp.app_id,
                    e.filter,
                    e.sample_frequency,
                    e.priority,
                    e.matched,
                    e.stamped,
                )
            })
            .collect()
    }

    proptest! {
        /// The indexed table against the linear scan it replaced, over random
        /// interleavings of `add`, `remove_app` and `select`. Each added TPP
        /// carries a serial number (and one of five section lengths), so the
        /// section `select` returns names the position that was chosen. After
        /// every step both agree on the result and on every entry, in order,
        /// counters included.
        #[test]
        fn differential(ops in proptest::collection::vec(op(), 1..64)) {
            let mut fast = FilterTable::default();
            let mut slow = LinearTable::default();
            for (serial, op) in ops.iter().enumerate() {
                match *op {
                    Op::Add { app, filter, freq, prio } => {
                        let mut e = entry(app, filter, freq, prio);
                        e.tpp.app_id = serial as u16;
                        e.tpp.memory.resize(4 * (1 + serial % 5), 0);
                        fast.add(e.clone());
                        slow.add(e);
                    }
                    Op::Remove(app) => {
                        fast.remove_app(app);
                        slow.remove_app(app);
                    }
                    Op::Select(key, coin) => {
                        let got = fast.select(&key, coin).map(|(app, s)| (app, s.to_vec()));
                        let want = slow.select(&key, coin).map(|(app, tpp)| (app, on_ipv4(&tpp)));
                        prop_assert_eq!(got, want);
                    }
                }
                prop_assert_eq!(rows(fast.entries()), rows(&slow.entries));
            }
            let sections: Vec<Vec<u8>> = slow.entries.iter().map(|e| on_ipv4(&e.tpp)).collect();
            prop_assert_eq!(&fast.sections, &sections);
        }
    }
}
