//! Match-action flow tables and ECMP group tables (§3.1, §2.4).
//!
//! The routing stage holds an L3 longest-prefix table keyed on destination
//! IPv4 address. [`FlowTable`] keeps its entries in insertion order (the
//! control plane and the tests read them through [`FlowTable::entries`])
//! and, beside them, an exact-prefix index: a hash map from the canonical
//! `(prefix_len, masked addr)` to the first-inserted entry with that
//! prefix, plus a bitmask of the prefix lengths present. A lookup walks the
//! lengths present longest-first and probes the map once per length, so
//! its cost is the number of *distinct prefix lengths* in the table — one
//! probe for the all-`/32` tables every in-tree topology installs —
//! whatever the number of routes.
//!
//! Actions either output to a fixed port or select among a *group* of
//! ports by hashing packet headers — the "group table available in many
//! switches today for multipath routing" that CONGA* repurposes (§2.4):
//! end-hosts steer flowlets by varying the fields the hash covers (we hash
//! the UDP/TCP source port, among others).

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use tpp_core::wire::{ipv4, udp, EthernetFrame, Ipv4Address, Ipv4Packet};

/// Forwarding actions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Action {
    /// Forward out a specific port.
    Output(u8),
    /// Hash-select a port from a group.
    Group(u16),
    Drop,
}

/// One flow-table entry.
#[derive(Clone, Debug)]
pub struct FlowEntry {
    pub entry_id: u32,
    /// Destination prefix `(addr, prefix_len)`, canonical: `prefix_len` is
    /// at most 32 and the host bits of `addr` are zero.
    pub prefix: (Ipv4Address, u8),
    pub action: Action,
    pub insert_clock: u64,
    pub match_pkts: u64,
    pub match_bytes: u64,
}

/// The network mask of a prefix length (`len <= 32`).
fn mask(len: u8) -> u32 {
    u32::MAX.checked_shl(32 - u32::from(len)).unwrap_or(0)
}

/// Clamp the length to 32 and clear the host bits, so that prefixes
/// matching the same packets are equal.
fn canonical(prefix: (Ipv4Address, u8)) -> (Ipv4Address, u8) {
    let len = prefix.1.min(32);
    (Ipv4Address::from_u32(prefix.0.to_u32() & mask(len)), len)
}

/// Index key of a canonical prefix: the length above the masked address.
fn index_key(net: u32, len: u8) -> u64 {
    u64::from(len) << 32 | u64::from(net)
}

/// Hasher for the prefix index: one widening multiply of the `u64` key,
/// folded. The route lookup runs per packet, where `SipHash` would cost more
/// than the probe. Only the control plane stores keys — packets merely
/// probe — so the default hasher's flooding resistance buys nothing here.
/// The constant is fixed: the index is identical in every run.
#[derive(Clone, Copy, Debug, Default)]
struct PrefixHasher(u64);

impl Hasher for PrefixHasher {
    fn write(&mut self, _: &[u8]) {
        unreachable!("the prefix index hashes u64 keys only");
    }
    fn write_u64(&mut self, key: u64) {
        self.0 = key;
    }
    fn finish(&self) -> u64 {
        // Folding keeps both ends of the product: the map takes bucket bits
        // from the low end and tag bits from the high end, and the low bits
        // of a plain product would be constant for short prefixes (whose
        // low address bits are all zero).
        let m = u128::from(self.0) * 0x9E37_79B9_7F4A_7C15_u128;
        (m as u64) ^ ((m >> 64) as u64)
    }
}

/// A longest-prefix-match flow table.
#[derive(Clone, Debug, Default)]
pub struct FlowTable {
    /// Insertion order, which is also `entry_id` order.
    entries: Vec<FlowEntry>,
    /// Canonical prefix → position in `entries` of the first-inserted entry
    /// with that prefix. Probed, never iterated.
    index: HashMap<u64, usize, BuildHasherDefault<PrefixHasher>>,
    /// Bit `len` set: some entry has prefix length `len` (0..=32).
    lens: u64,
    next_id: u32,
    /// Bumped on every mutation; mirrored into `Stage:Version` (Table 6:
    /// "a per flow table version number that monotonically increases on
    /// every flow update").
    pub version: u32,
}

impl FlowTable {
    /// Insert a route; returns the entry id. The prefix is stored
    /// canonical (length clamped to 32, host bits cleared). A duplicate of
    /// an existing prefix is kept but shadowed: lookups match the
    /// first-inserted entry until it is removed.
    pub fn insert(&mut self, prefix: (Ipv4Address, u8), action: Action, now: u64) -> u32 {
        let prefix = canonical(prefix);
        let id = self.next_id;
        self.next_id += 1;
        self.entries.push(FlowEntry {
            entry_id: id,
            prefix,
            action,
            insert_clock: now,
            match_pkts: 0,
            match_bytes: 0,
        });
        self.index_entry(self.entries.len() - 1);
        self.version = self.version.wrapping_add(1);
        id
    }

    /// Insert a host route (`/32`).
    pub fn insert_host(&mut self, dst: Ipv4Address, action: Action, now: u64) -> u32 {
        self.insert((dst, 32), action, now)
    }

    /// Remove an entry by id. Returns whether it existed.
    pub fn remove(&mut self, entry_id: u32) -> bool {
        let Some(pos) = self.entries.iter().position(|e| e.entry_id == entry_id) else {
            return false;
        };
        self.entries.remove(pos);
        // Later entries moved down one position and a shadowed duplicate of
        // the removed prefix may take over: rebuild (control plane, rare).
        self.index.clear();
        self.lens = 0;
        for pos in 0..self.entries.len() {
            self.index_entry(pos);
        }
        self.version = self.version.wrapping_add(1);
        true
    }

    /// Replace the action of an existing destination (exact prefix match),
    /// or insert if absent. Used for fast network updates (§2.6).
    pub fn upsert(&mut self, prefix: (Ipv4Address, u8), action: Action, now: u64) -> u32 {
        if let Some(i) = self.exact_position(prefix) {
            let e = &mut self.entries[i];
            e.action = action;
            e.insert_clock = now;
            self.version = self.version.wrapping_add(1);
            return e.entry_id;
        }
        self.insert(prefix, action, now)
    }

    /// The entry lookups match for exactly this prefix (compared
    /// canonically), if any: one index probe, no counter update.
    pub fn find_exact(&self, prefix: (Ipv4Address, u8)) -> Option<&FlowEntry> {
        self.exact_position(prefix).map(|i| &self.entries[i])
    }

    /// Longest-prefix match; updates the entry's counters on hit.
    ///
    /// One index probe per distinct prefix length present in the table,
    /// longest first, stopping at the first hit; among entries with the
    /// same prefix the first-inserted one matches. No scan, no allocation.
    pub fn lookup(&mut self, dst: Ipv4Address, pkt_bytes: u64) -> Option<&FlowEntry> {
        let addr = dst.to_u32();
        let mut lens = self.lens;
        while lens != 0 {
            let len = lens.ilog2() as u8;
            lens ^= 1 << len;
            if let Some(&i) = self.index.get(&index_key(addr & mask(len), len)) {
                let e = &mut self.entries[i];
                e.match_pkts += 1;
                e.match_bytes += pkt_bytes;
                return Some(e);
            }
        }
        None
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
    pub fn entries(&self) -> &[FlowEntry] {
        &self.entries
    }

    fn exact_position(&self, prefix: (Ipv4Address, u8)) -> Option<usize> {
        let (net, len) = canonical(prefix);
        self.index.get(&index_key(net.to_u32(), len)).copied()
    }

    /// Record the entry at `pos` in the index unless an earlier entry
    /// already holds its (canonical) prefix.
    fn index_entry(&mut self, pos: usize) {
        let (net, len) = self.entries[pos].prefix;
        self.index.entry(index_key(net.to_u32(), len)).or_insert(pos);
        self.lens |= 1 << len;
    }
}

/// ECMP group table: each group is a list of candidate output ports.
#[derive(Clone, Debug, Default)]
pub struct GroupTable {
    groups: Vec<Vec<u8>>,
}

impl GroupTable {
    /// Register a group; returns its id.
    pub fn add(&mut self, ports: Vec<u8>) -> u16 {
        assert!(!ports.is_empty(), "empty ECMP group");
        self.groups.push(ports);
        (self.groups.len() - 1) as u16
    }

    /// Pick a member port by hash.
    pub fn select(&self, group: u16, hash: u32) -> Option<u8> {
        let ports = self.groups.get(group as usize)?;
        Some(ports[hash as usize % ports.len()])
    }

    pub fn ports(&self, group: u16) -> Option<&[u8]> {
        self.groups.get(group as usize).map(Vec::as_slice)
    }
}

/// The fields covered by the ECMP hash.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FlowKey {
    pub src: Ipv4Address,
    pub dst: Ipv4Address,
    pub protocol: u8,
    pub src_port: u16,
    pub dst_port: u16,
}

impl FlowKey {
    /// Extract the 5-tuple from an (inner) IPv4 packet.
    pub fn from_ipv4(ip: &Ipv4Packet<&[u8]>) -> FlowKey {
        let mut key = FlowKey {
            src: ip.src(),
            dst: ip.dst(),
            protocol: ip.protocol(),
            src_port: 0,
            dst_port: 0,
        };
        if matches!(ip.protocol(), ipv4::protocol::UDP | ipv4::protocol::TCP) {
            let pl = ip.payload();
            if pl.len() >= 4 {
                key.src_port = u16::from_be_bytes([pl[0], pl[1]]);
                key.dst_port = u16::from_be_bytes([pl[2], pl[3]]);
            }
        }
        key
    }

    /// Extract the key from a full Ethernet frame, looking through a
    /// transparent-mode TPP if present.
    pub fn from_frame(frame: &[u8]) -> Option<FlowKey> {
        let eth = EthernetFrame::new_checked(frame)?;
        let l3 = match eth.ethertype() {
            tpp_core::wire::ethernet::ethertype::IPV4 => eth.payload(),
            tpp_core::wire::ethernet::ethertype::TPP => {
                let (view, consumed) = tpp_core::wire::TppView::parse(eth.payload()).ok()?;
                if view.encap_proto() != tpp_core::wire::ethernet::ethertype::IPV4 {
                    return None;
                }
                &eth.payload()[consumed..]
            }
            _ => return None,
        };
        let ip = Ipv4Packet::new_checked(l3)?;
        Some(FlowKey::from_ipv4(&ip))
    }

    /// FNV-1a over the tuple: deterministic, well-mixed, cheap — a stand-in
    /// for the proprietary hash functions the paper notes are "often
    /// proprietary and unknown" (§2.1).
    pub fn hash(&self) -> u32 {
        self.hash_with(true)
    }

    /// Hash with or without the destination port. Excluding it makes a
    /// flow's standalone TPP probes (UDP dst 0x6666) follow the *same* ECMP
    /// path as its data packets — the configuration CONGA* uses (§2.4).
    pub fn hash_with(&self, include_dst_port: bool) -> u32 {
        let mut h: u32 = 0x811C_9DC5;
        let mut mix = |b: u8| {
            h ^= b as u32;
            h = h.wrapping_mul(0x0100_0193);
        };
        for b in self.src.0 {
            mix(b);
        }
        for b in self.dst.0 {
            mix(b);
        }
        mix(self.protocol);
        for b in self.src_port.to_be_bytes() {
            mix(b);
        }
        if include_dst_port {
            for b in self.dst_port.to_be_bytes() {
                mix(b);
            }
        }
        h
    }
}

/// Is this frame's UDP destination port the TPP port? (Used by hosts to
/// avoid hashing TPP probes differently from their flows.)
pub fn is_standalone_tpp_key(key: &FlowKey) -> bool {
    key.protocol == ipv4::protocol::UDP && key.dst_port == udp::TPP_PORT
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ip(a: u8, b: u8, c: u8, d: u8) -> Ipv4Address {
        Ipv4Address::new(a, b, c, d)
    }

    #[test]
    fn exact_and_prefix_matching() {
        let mut t = FlowTable::default();
        t.insert((ip(10, 0, 0, 0), 8), Action::Output(1), 0);
        t.insert_host(ip(10, 0, 0, 5), Action::Output(2), 0);
        // Host route wins (longest prefix).
        assert_eq!(t.lookup(ip(10, 0, 0, 5), 100).unwrap().action, Action::Output(2));
        assert_eq!(t.lookup(ip(10, 9, 9, 9), 100).unwrap().action, Action::Output(1));
        assert!(t.lookup(ip(192, 168, 0, 1), 100).is_none());
    }

    #[test]
    fn default_route() {
        let mut t = FlowTable::default();
        t.insert((ip(0, 0, 0, 0), 0), Action::Drop, 0);
        assert_eq!(t.lookup(ip(1, 2, 3, 4), 10).unwrap().action, Action::Drop);
    }

    #[test]
    fn counters_and_version() {
        let mut t = FlowTable::default();
        assert_eq!(t.version, 0);
        let id = t.insert_host(ip(10, 0, 0, 1), Action::Output(0), 42);
        assert_eq!(t.version, 1);
        t.lookup(ip(10, 0, 0, 1), 100);
        t.lookup(ip(10, 0, 0, 1), 200);
        let e = t.entries().iter().find(|e| e.entry_id == id).unwrap();
        assert_eq!(e.match_pkts, 2);
        assert_eq!(e.match_bytes, 300);
        assert_eq!(e.insert_clock, 42);
        assert!(t.remove(id));
        assert_eq!(t.version, 2);
        assert!(!t.remove(id));
        assert_eq!(t.version, 2);
    }

    #[test]
    fn upsert_replaces_action() {
        let mut t = FlowTable::default();
        let id1 = t.upsert((ip(10, 0, 0, 1), 32), Action::Output(0), 0);
        let id2 = t.upsert((ip(10, 0, 0, 1), 32), Action::Output(3), 5);
        assert_eq!(id1, id2);
        assert_eq!(t.len(), 1);
        assert_eq!(t.lookup(ip(10, 0, 0, 1), 1).unwrap().action, Action::Output(3));
    }

    #[test]
    fn non_canonical_host_bits_name_the_same_prefix() {
        let mut t = FlowTable::default();
        let id = t.upsert((ip(10, 0, 0, 5), 8), Action::Output(1), 0);
        assert_eq!(t.entries()[0].prefix, (ip(10, 0, 0, 0), 8));
        // Same /8 spelled canonically: replaces, does not add.
        assert_eq!(t.upsert((ip(10, 0, 0, 0), 8), Action::Output(2), 1), id);
        assert_eq!(t.len(), 1);
        assert_eq!(t.find_exact((ip(10, 200, 1, 1), 8)).unwrap().entry_id, id);
        assert_eq!(t.lookup(ip(10, 9, 9, 9), 1).unwrap().action, Action::Output(2));
    }

    #[test]
    fn overlong_prefix_is_a_host_route_and_does_not_outrank_one() {
        let mut t = FlowTable::default();
        let first = t.insert_host(ip(10, 0, 0, 1), Action::Output(1), 0);
        t.insert((ip(10, 0, 0, 1), 40), Action::Output(2), 0);
        assert_eq!(t.entries()[1].prefix, (ip(10, 0, 0, 1), 32));
        // Equal prefixes now: the first-inserted entry keeps matching.
        assert_eq!(t.lookup(ip(10, 0, 0, 1), 1).unwrap().entry_id, first);
        assert_eq!(t.upsert((ip(10, 0, 0, 1), 255), Action::Output(3), 0), first);
    }

    #[test]
    fn duplicate_prefix_first_inserted_wins_until_removed() {
        let mut t = FlowTable::default();
        let a = t.insert((ip(10, 1, 0, 0), 16), Action::Output(1), 0);
        let mid = t.insert_host(ip(10, 2, 0, 1), Action::Output(9), 0);
        let b = t.insert((ip(10, 1, 0, 0), 16), Action::Output(2), 0);
        let c = t.insert((ip(10, 1, 0, 0), 16), Action::Output(3), 0);
        assert_eq!(t.lookup(ip(10, 1, 2, 3), 10).unwrap().entry_id, a);
        // Removing an unrelated earlier entry shifts positions, not winners.
        assert!(t.remove(mid));
        assert_eq!(t.lookup(ip(10, 1, 2, 3), 10).unwrap().entry_id, a);
        assert!(t.remove(a));
        assert_eq!(t.lookup(ip(10, 1, 2, 3), 10).unwrap().entry_id, b);
        assert_eq!(t.find_exact((ip(10, 1, 0, 0), 16)).unwrap().entry_id, b);
        assert!(t.remove(b));
        assert_eq!(t.lookup(ip(10, 1, 2, 3), 10).unwrap().entry_id, c);
        assert!(t.remove(c));
        assert!(t.lookup(ip(10, 1, 2, 3), 10).is_none());
        assert!(t.is_empty());
    }

    #[test]
    fn default_route_under_a_populated_table_and_a_miss() {
        let mut t = FlowTable::default();
        for h in 0..128u32 {
            t.insert_host(Ipv4Address::from_host_id(1000 + h), Action::Output(1), 0);
        }
        t.insert((ip(172, 16, 0, 0), 12), Action::Output(2), 0);
        assert!(t.lookup(ip(8, 8, 8, 8), 1).is_none());
        let dflt = t.insert((ip(0, 0, 0, 0), 0), Action::Output(3), 0);
        assert_eq!(t.lookup(ip(8, 8, 8, 8), 1).unwrap().entry_id, dflt);
        // Longer prefixes still win over it.
        assert_eq!(t.lookup(ip(172, 20, 1, 1), 1).unwrap().action, Action::Output(2));
        let host = Ipv4Address::from_host_id(1000 + 77);
        assert_eq!(t.lookup(host, 1).unwrap().action, Action::Output(1));
        assert!(t.remove(dflt));
        assert!(t.lookup(ip(8, 8, 8, 8), 1).is_none());
    }

    /// The indexed table against the linear scan it replaced, kept here as
    /// the oracle: random interleavings of insert / upsert / remove /
    /// lookup over a small address pool (so duplicate and nested prefixes
    /// are common), with non-canonical spellings (stray host bits, lengths
    /// above 32). After every step both must agree on the op's result, the
    /// version, and every entry's id, prefix, action, clock and counters in
    /// `entries()` order.
    mod differential {
        use super::*;
        use proptest::prelude::*;

        /// `FlowTable` as it was before the index, except that prefixes are
        /// canonicalised on the way in (the one intended behaviour change).
        #[derive(Default)]
        struct LinearTable {
            entries: Vec<FlowEntry>,
            next_id: u32,
            version: u32,
        }

        impl LinearTable {
            fn insert(&mut self, prefix: (Ipv4Address, u8), action: Action, now: u64) -> u32 {
                let id = self.next_id;
                self.next_id += 1;
                self.entries.push(FlowEntry {
                    entry_id: id,
                    prefix: canonical(prefix),
                    action,
                    insert_clock: now,
                    match_pkts: 0,
                    match_bytes: 0,
                });
                self.version = self.version.wrapping_add(1);
                id
            }

            fn remove(&mut self, entry_id: u32) -> bool {
                let before = self.entries.len();
                self.entries.retain(|e| e.entry_id != entry_id);
                let removed = self.entries.len() != before;
                if removed {
                    self.version = self.version.wrapping_add(1);
                }
                removed
            }

            fn upsert(&mut self, prefix: (Ipv4Address, u8), action: Action, now: u64) -> u32 {
                let canon = canonical(prefix);
                if let Some(e) = self.entries.iter_mut().find(|e| e.prefix == canon) {
                    e.action = action;
                    e.insert_clock = now;
                    self.version = self.version.wrapping_add(1);
                    return e.entry_id;
                }
                self.insert(prefix, action, now)
            }

            fn lookup(&mut self, dst: Ipv4Address, pkt_bytes: u64) -> Option<u32> {
                let mut best: Option<usize> = None;
                let mut best_len = 0u8;
                for (i, e) in self.entries.iter().enumerate() {
                    let (net, len) = e.prefix;
                    let matches = net.to_u32() & mask(len) == dst.to_u32() & mask(len);
                    if matches && (best.is_none() || len > best_len) {
                        best = Some(i);
                        best_len = len;
                    }
                }
                let e = &mut self.entries[best?];
                e.match_pkts += 1;
                e.match_bytes += pkt_bytes;
                Some(e.entry_id)
            }
        }

        #[derive(Clone, Debug)]
        enum Op {
            Insert((Ipv4Address, u8), u8),
            Upsert((Ipv4Address, u8), u8),
            /// Remove entry id `n % ids issued so far` (possibly gone already).
            Remove(u32),
            Lookup(Ipv4Address, u64),
        }

        const LENS: [u8; 8] = [0, 8, 16, 24, 31, 32, 32, 40];

        prop_compose! {
            fn op()(
                kind in 0u8..8,
                a in 0u8..2,
                b in 0u8..2,
                c in 0u8..2,
                d in 0u8..4,
                len in 0usize..LENS.len(),
                n in any::<u32>(),
                bytes in 0u64..2000,
            ) -> Op {
                let addr = ip(10 + a, b, c, d);
                let prefix = (addr, LENS[len]);
                match kind {
                    0 | 1 => Op::Insert(prefix, n as u8),
                    2 => Op::Upsert(prefix, n as u8),
                    3 => Op::Remove(n),
                    _ => Op::Lookup(addr, bytes),
                }
            }
        }

        type Row = (u32, (Ipv4Address, u8), Action, u64, u64, u64);

        fn rows(entries: &[FlowEntry]) -> Vec<Row> {
            entries
                .iter()
                .map(|e| {
                    (e.entry_id, e.prefix, e.action, e.insert_clock, e.match_pkts, e.match_bytes)
                })
                .collect()
        }

        proptest! {
            #[test]
            fn indexed_table_equals_linear_scan(ops in proptest::collection::vec(op(), 1..96)) {
                let mut fast = FlowTable::default();
                let mut slow = LinearTable::default();
                for (now, op) in ops.iter().enumerate() {
                    let now = now as u64;
                    match *op {
                        Op::Insert(p, port) => prop_assert_eq!(
                            fast.insert(p, Action::Output(port), now),
                            slow.insert(p, Action::Output(port), now)
                        ),
                        Op::Upsert(p, port) => prop_assert_eq!(
                            fast.upsert(p, Action::Output(port), now),
                            slow.upsert(p, Action::Output(port), now)
                        ),
                        Op::Remove(n) => {
                            let id = n % slow.next_id.max(1);
                            prop_assert_eq!(fast.remove(id), slow.remove(id));
                        }
                        Op::Lookup(dst, bytes) => prop_assert_eq!(
                            fast.lookup(dst, bytes).map(|e| e.entry_id),
                            slow.lookup(dst, bytes)
                        ),
                    }
                    prop_assert_eq!(fast.version, slow.version);
                    prop_assert_eq!(rows(fast.entries()), rows(&slow.entries));
                    for e in &slow.entries {
                        let first = slow.entries.iter().find(|f| f.prefix == e.prefix).unwrap();
                        prop_assert_eq!(fast.find_exact(e.prefix).unwrap().entry_id, first.entry_id);
                    }
                }
            }
        }
    }

    #[test]
    fn group_selection_is_deterministic_and_covers_members() {
        let mut g = GroupTable::default();
        let gid = g.add(vec![2, 3]);
        let mut seen = std::collections::BTreeSet::new();
        for sport in 0..64u16 {
            let key = FlowKey {
                src: ip(10, 0, 0, 1),
                dst: ip(10, 0, 0, 9),
                protocol: 17,
                src_port: sport,
                dst_port: 80,
            };
            let p = g.select(gid, key.hash()).unwrap();
            assert!(p == 2 || p == 3);
            seen.insert(p);
            // Deterministic.
            assert_eq!(g.select(gid, key.hash()), Some(p));
        }
        assert_eq!(seen.len(), 2, "hash should spread across both paths");
        assert_eq!(g.select(99, 0), None);
    }

    #[test]
    fn flow_key_from_frames() {
        use tpp_core::wire::*;
        let src_ip = ip(10, 0, 0, 1);
        let dst_ip = ip(10, 0, 0, 2);
        let u = udp::Repr { src_port: 4321, dst_port: 80, payload_len: 2 };
        let udp_bytes = u.encapsulate(src_ip, dst_ip, b"hi");
        let ip_repr = ipv4::Repr {
            src: src_ip,
            dst: dst_ip,
            protocol: ipv4::protocol::UDP,
            ttl: 64,
            payload_len: udp_bytes.len(),
        };
        let ip_bytes = ip_repr.encapsulate(&udp_bytes);
        let frame = EthernetRepr {
            dst: EthernetAddress::from_node_id(2),
            src: EthernetAddress::from_node_id(1),
            ethertype: ethernet::ethertype::IPV4,
        }
        .encapsulate(&ip_bytes);

        let key = FlowKey::from_frame(&frame).unwrap();
        assert_eq!(key.src_port, 4321);
        assert_eq!(key.dst_port, 80);

        // The key is identical when a transparent TPP is piggy-backed: the
        // hash (and thus the path) must not change when we instrument a
        // packet.
        let tpp = Tpp { memory: vec![0; 8], ..Tpp::default() };
        let outer = insert_transparent(&frame, &tpp);
        assert_eq!(FlowKey::from_frame(&outer).unwrap(), key);
    }

    #[test]
    fn hash_differs_across_ports() {
        let base = FlowKey {
            src: ip(10, 0, 0, 1),
            dst: ip(10, 0, 0, 2),
            protocol: 17,
            src_port: 1000,
            dst_port: 80,
        };
        let mut other = base;
        other.src_port = 1001;
        assert_ne!(base.hash(), other.hash());
    }
}
