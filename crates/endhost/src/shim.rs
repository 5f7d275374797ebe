//! The end-host dataplane shim (§4.2).
//!
//! Sits between the application/transport layer and the NIC:
//!
//! * **Transmit**: matches outgoing frames against the filter table and
//!   piggy-backs at most one TPP per packet (transparent mode).
//! * **Receive**: strips completed TPPs before the stack sees the packet
//!   (applications are oblivious to TPPs); echoes standalone TPPs back to
//!   the source; routes completed piggy-backed TPPs to the owning
//!   application's aggregator.
//!
//! Completed TPPs travel on a dedicated UDP port ([`TPP_ECHO_PORT`]) as
//! *payload*, so switches do not re-execute them on the return path.
//!
//! Both directions work in the frame they are handed: a stamped frame is the
//! caller's buffer with the filter entry's pre-serialized section spliced in,
//! and a stripped frame is the received buffer with the section closed up.
//! The shim allocates only for what it surfaces beside the frame (an echo
//! frame, an owned completed [`Tpp`]) and, on transmit, when the caller's
//! buffer has no room for the section.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::BTreeMap;

use crate::filter::{Filter, FilterEntry, FilterTable};
use tpp_core::wire::{
    ethernet, insert_transparent_in_place, ipv4, locate_tpp, restore_inner_frame_in_place, udp,
    udp_frame_into, EthernetAddress, Ipv4Address, Ipv4Packet, Tpp, TppLocation, TppView,
    UdpDatagram, UdpFrameRepr,
};
use tpp_switch::FlowKey;

/// Completed TPPs are carried back to applications as the payload of UDP
/// datagrams to this port (one above the TPP execution port 0x6666, which
/// switches would execute).
pub const TPP_ECHO_PORT: u16 = 0x6667;

/// Recover the simulated node id behind a host IP (hosts are `10.x.y.z`
/// with `x.y.z` = node id; see `Ipv4Address::from_host_id`).
pub fn host_id_of_ip(ip: Ipv4Address) -> u32 {
    u32::from_be_bytes([0, ip.0[1], ip.0[2], ip.0[3]])
}

/// MAC of the host owning `ip` under the simulator's addressing convention.
pub fn mac_of_ip(ip: Ipv4Address) -> EthernetAddress {
    EthernetAddress::from_node_id(host_id_of_ip(ip))
}

/// Shim activity counters (observability for tests and benches).
#[derive(Clone, Copy, Debug, Default)]
pub struct ShimCounters {
    pub tx_frames: u64,
    pub tx_stamped: u64,
    pub rx_frames: u64,
    pub rx_stripped: u64,
    pub echoes_sent: u64,
    pub completed_delivered: u64,
    pub parse_failures: u64,
}

/// The flow whose packet carried a TPP — NetSight-style context carried on
/// the echo channel so collectors can attribute histories to flows (§2.3).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FlowRef {
    pub src: Ipv4Address,
    pub dst: Ipv4Address,
    pub src_port: u16,
    pub dst_port: u16,
}

impl FlowRef {
    pub const TRAILER_LEN: usize = 12;

    fn emit(&self) -> [u8; Self::TRAILER_LEN] {
        let mut b = [0u8; Self::TRAILER_LEN];
        b[0..4].copy_from_slice(&self.src.0);
        b[4..8].copy_from_slice(&self.dst.0);
        b[8..10].copy_from_slice(&self.src_port.to_be_bytes());
        b[10..12].copy_from_slice(&self.dst_port.to_be_bytes());
        b
    }

    fn parse(b: &[u8]) -> Option<FlowRef> {
        if b.len() < Self::TRAILER_LEN {
            return None;
        }
        Some(FlowRef {
            src: Ipv4Address(b[0..4].try_into().unwrap()),
            dst: Ipv4Address(b[4..8].try_into().unwrap()),
            src_port: u16::from_be_bytes([b[8], b[9]]),
            dst_port: u16::from_be_bytes([b[10], b[11]]),
        })
    }
}

/// A completed TPP surfaced to an application.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CompletedTpp {
    pub app_id: u16,
    pub tpp: Tpp,
    /// Source of the packet that carried (or echoed) the TPP.
    pub from: Ipv4Address,
    /// The instrumented packet's flow.
    pub flow: FlowRef,
}

/// What the shim decided about an incoming frame. Several actions can
/// apply at once (e.g. deliver the stripped payload *and* surface the
/// completed TPP locally when this host is the aggregator).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Incoming {
    /// TPP-stripped frame for the local stack, if any.
    pub deliver: Option<Vec<u8>>,
    /// Completed-TPP frame to transmit toward the aggregator/source.
    pub echo: Option<Vec<u8>>,
    /// Completed TPP for a local application (this host is the origin or
    /// the app's aggregator).
    pub completed: Option<CompletedTpp>,
    /// Frame was unparseable and dropped.
    pub discarded: bool,
}

/// The per-host dataplane shim.
pub struct Shim {
    pub ip: Ipv4Address,
    pub mac: EthernetAddress,
    pub filters: FilterTable,
    /// app id -> aggregator address for piggy-backed TPPs (§4.2). Defaults
    /// to the packet source when absent.
    pub aggregators: BTreeMap<u16, Ipv4Address>,
    pub counters: ShimCounters,
    rng: StdRng,
}

impl Shim {
    pub fn new(ip: Ipv4Address, mac: EthernetAddress, seed: u64) -> Self {
        Shim {
            ip,
            mac,
            filters: FilterTable::default(),
            aggregators: BTreeMap::new(),
            counters: ShimCounters::default(),
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// The TPP-CP `add_tpp` API realized on this host (§4.1). The caller
    /// must have validated the TPP against the app's policy.
    pub fn add_tpp(
        &mut self,
        app_id: u16,
        filter: Filter,
        tpp: Tpp,
        sample_frequency: u32,
        priority: u32,
    ) {
        let mut tpp = tpp;
        tpp.app_id = app_id;
        self.filters.add(FilterEntry {
            app_id,
            filter,
            tpp,
            sample_frequency: sample_frequency.max(1),
            priority,
            matched: 0,
            stamped: 0,
        });
    }

    pub fn set_aggregator(&mut self, app_id: u16, addr: Ipv4Address) {
        self.aggregators.insert(app_id, addr);
    }

    /// Transmit-side interposition: possibly piggy-back a TPP.
    ///
    /// The frame returned is the buffer passed in. A stamped frame grows in
    /// place by the selected entry's pre-serialized section: no allocation
    /// when the buffer has that much spare capacity, one exact growth when
    /// it has not.
    ///
    /// Exactly one sampling coin is drawn per frame that reaches the filter
    /// table: a plain IPv4 frame, with a non-empty table. Frames that
    /// already carry a TPP, and frames without a 5-tuple, draw none.
    pub fn outgoing(&mut self, mut frame: Vec<u8>) -> Vec<u8> {
        self.counters.tx_frames += 1;
        if self.filters.is_empty() {
            return frame;
        }
        // Never double-stamp.
        if !matches!(locate_tpp(&frame), TppLocation::None) {
            return frame;
        }
        // Only IPv4 frames have a key, and IPv4 is the protocol the sections
        // `select` hands out say they encapsulate.
        let Some(key) = FlowKey::from_frame(&frame) else {
            return frame;
        };
        let coin: f64 = self.rng.random();
        if let Some((_, section)) = self.filters.select(&key, coin) {
            self.counters.tx_stamped += 1;
            insert_transparent_in_place(&mut frame, section);
        }
        frame
    }

    /// Receive-side interposition. TPP sections are validated and read
    /// through borrowed [`TppView`]s over the frame bytes; the owned [`Tpp`]
    /// is materialized only when a completion is surfaced to a local
    /// application, and echo frames carry the section bytes verbatim.
    pub fn incoming(&mut self, mut frame: Vec<u8>) -> Incoming {
        self.counters.rx_frames += 1;
        match locate_tpp(&frame) {
            TppLocation::Transparent { section } => {
                let Ok((view, consumed)) = TppView::parse(&frame[section..]) else {
                    self.counters.parse_failures += 1;
                    return Incoming { discarded: true, ..Incoming::default() };
                };
                self.counters.rx_stripped += 1;
                let encap_proto = view.encap_proto();
                // The instrumented packet's flow, from the IPv4 header right
                // behind the section; the default when something else is.
                let flow = match Ipv4Packet::new_checked(&frame[section + consumed..]) {
                    Some(ip) if encap_proto == ethernet::ethertype::IPV4 => {
                        let k = FlowKey::from_ipv4(&ip);
                        FlowRef {
                            src: k.src,
                            dst: k.dst,
                            src_port: k.src_port,
                            dst_port: k.dst_port,
                        }
                    }
                    _ => FlowRef::default(),
                };
                // Everything that reads the section goes first: stripping
                // the frame in place overwrites it.
                let mut out = self.route_completed(&view, flow);
                restore_inner_frame_in_place(&mut frame, section, consumed, encap_proto);
                out.deliver = Some(frame);
                out
            }
            TppLocation::Standalone { section, ip, udp } => {
                let (src, dst) = match Ipv4Packet::new_checked(&frame[ip..]) {
                    Some(p) => (p.src(), p.dst()),
                    None => {
                        self.counters.parse_failures += 1;
                        return Incoming { discarded: true, ..Incoming::default() };
                    }
                };
                let src_port = u16::from_be_bytes([frame[udp], frame[udp + 1]]);
                match TppView::parse(&frame[section..]) {
                    Ok((view, _)) => self.route_completed(
                        &view,
                        FlowRef { src, dst, src_port, dst_port: udp::TPP_PORT },
                    ),
                    Err(_) => {
                        self.counters.parse_failures += 1;
                        Incoming { discarded: true, ..Incoming::default() }
                    }
                }
            }
            TppLocation::None => {
                // The echo channel?
                if let Some(completed) = self.parse_echo(&frame) {
                    self.counters.completed_delivered += 1;
                    return Incoming { completed: Some(completed), ..Incoming::default() };
                }
                Incoming { deliver: Some(frame), ..Incoming::default() }
            }
        }
    }

    /// Route a freshly executed TPP: locally if this host is the app's
    /// aggregator, otherwise as an echo frame toward the aggregator (or
    /// the packet source when no aggregator is registered; §4.2).
    fn route_completed(&mut self, view: &TppView<'_>, flow: FlowRef) -> Incoming {
        let to = self.aggregators.get(&view.app_id()).copied().unwrap_or(flow.src);
        if to == self.ip {
            self.counters.completed_delivered += 1;
            return Incoming {
                completed: Some(CompletedTpp {
                    app_id: view.app_id(),
                    from: flow.src,
                    tpp: view.to_tpp(),
                    flow,
                }),
                ..Incoming::default()
            };
        }
        self.counters.echoes_sent += 1;
        Incoming {
            echo: Some(self.build_echo_frame(view.as_bytes(), to, flow)),
            ..Incoming::default()
        }
    }

    /// Build a completed-TPP frame around the executed section bytes,
    /// carried verbatim — no re-serialization of the TPP. One buffer: the
    /// headers and a zero payload from `udp_frame_into`, then the section
    /// and the flow trailer written over the payload and summed.
    fn build_echo_frame(&self, section: &[u8], to: Ipv4Address, flow: FlowRef) -> Vec<u8> {
        let hdr = UdpFrameRepr {
            src_mac: self.mac,
            dst_mac: mac_of_ip(to),
            src_ip: self.ip,
            dst_ip: to,
            src_port: udp::TPP_PORT,
            dst_port: TPP_ECHO_PORT,
        };
        let mut frame = Vec::new();
        udp_frame_into(&mut frame, &hdr, section.len() + FlowRef::TRAILER_LEN, &[]);
        let udp_off = ethernet::HEADER_LEN + ipv4::HEADER_LEN;
        let (payload, trailer) = frame[udp_off + udp::HEADER_LEN..].split_at_mut(section.len());
        payload.copy_from_slice(section);
        trailer.copy_from_slice(&flow.emit());
        UdpDatagram::new_unchecked(&mut frame[udp_off..]).fill_checksum(self.ip, to);
        frame
    }

    fn parse_echo(&self, frame: &[u8]) -> Option<CompletedTpp> {
        let eth = tpp_core::wire::EthernetFrame::new_checked(frame)?;
        if eth.ethertype() != ethernet::ethertype::IPV4 {
            return None;
        }
        let ip = Ipv4Packet::new_checked(eth.payload())?;
        if ip.protocol() != ipv4::protocol::UDP {
            return None;
        }
        let from = ip.src();
        let u = UdpDatagram::new_checked(ip.payload())?;
        if u.dst_port() != TPP_ECHO_PORT {
            return None;
        }
        let (view, consumed) = TppView::parse(u.payload()).ok()?;
        let flow = FlowRef::parse(&u.payload()[consumed..]).unwrap_or_default();
        Some(CompletedTpp { app_id: view.app_id(), tpp: view.to_tpp(), from, flow })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpp_core::asm::TppBuilder;
    use tpp_core::isa::INSTR_BYTES;
    use tpp_core::wire::{extract_tpp, tpp, EthernetRepr, MAX_MEMORY_BYTES};

    fn shim_for(host: u32) -> Shim {
        Shim::new(Ipv4Address::from_host_id(host), EthernetAddress::from_node_id(host), host as u64)
    }

    /// The layer-by-layer echo frame `build_echo_frame` replaced, kept as its
    /// oracle: payload, datagram, packet and frame each in a buffer of their
    /// own.
    fn nested_echo_frame(shim: &Shim, section: &[u8], to: Ipv4Address, flow: FlowRef) -> Vec<u8> {
        let mut payload = Vec::with_capacity(section.len() + FlowRef::TRAILER_LEN);
        payload.extend_from_slice(section);
        payload.extend_from_slice(&flow.emit());
        let u = udp::Repr {
            src_port: udp::TPP_PORT,
            dst_port: TPP_ECHO_PORT,
            payload_len: payload.len(),
        };
        let udp_bytes = u.encapsulate(shim.ip, to, &payload);
        let ip_repr = ipv4::Repr {
            src: shim.ip,
            dst: to,
            protocol: ipv4::protocol::UDP,
            ttl: 64,
            payload_len: udp_bytes.len(),
        };
        EthernetRepr { dst: mac_of_ip(to), src: shim.mac, ethertype: ethernet::ethertype::IPV4 }
            .encapsulate(&ip_repr.encapsulate(&udp_bytes))
    }

    #[test]
    fn echo_frame_matches_the_nested_construction() {
        // Every section length the header's one-byte instruction count and
        // memory length can express, which includes every length an app
        // probe compiles to, over bytes that are not zero; sent back to the
        // packet's source (the `Source` aggregator), to this host itself
        // (`Local`) and to a third host (`Remote`).
        let shim = shim_for(0x0001_0203);
        let flow = FlowRef {
            src: Ipv4Address::from_host_id(7),
            dst: shim.ip,
            src_port: 40_001,
            dst_port: udp::TPP_PORT,
        };
        let longest = tpp::HEADER_LEN + usize::from(u8::MAX) * INSTR_BYTES + MAX_MEMORY_BYTES;
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let bytes: Vec<u8> = (0..longest)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 32) as u8
            })
            .collect();
        for len in 0..=longest {
            for to in [flow.src, shim.ip, Ipv4Address::from_host_id(0x00fe_dcba)] {
                let section = &bytes[..len];
                assert_eq!(
                    shim.build_echo_frame(section, to, flow),
                    nested_echo_frame(&shim, section, to, flow),
                    "section of {len} bytes to {to:?}"
                );
            }
        }
    }

    fn udp_frame(src: u32, dst: u32, dport: u16) -> Vec<u8> {
        let src_ip = Ipv4Address::from_host_id(src);
        let dst_ip = Ipv4Address::from_host_id(dst);
        let u = udp::Repr { src_port: 1111, dst_port: dport, payload_len: 32 };
        let udp_b = u.encapsulate(src_ip, dst_ip, &[7u8; 32]);
        let ip = ipv4::Repr {
            src: src_ip,
            dst: dst_ip,
            protocol: ipv4::protocol::UDP,
            ttl: 64,
            payload_len: udp_b.len(),
        };
        EthernetRepr {
            dst: EthernetAddress::from_node_id(dst),
            src: EthernetAddress::from_node_id(src),
            ethertype: ethernet::ethertype::IPV4,
        }
        .encapsulate(&ip.encapsulate(&udp_b))
    }

    fn probe_tpp(app: u16) -> Tpp {
        let mut t =
            TppBuilder::stack_mode().push_m("Switch:SwitchID").unwrap().hops(4).build().unwrap();
        t.app_id = app;
        t
    }

    #[test]
    fn stamp_strip_echo_roundtrip() {
        let mut tx = shim_for(1);
        tx.add_tpp(7, Filter::udp(), probe_tpp(7), 1, 0);
        let stamped = tx.outgoing(udp_frame(1, 2, 5000));
        assert!(extract_tpp(&stamped).is_some());
        assert_eq!(tx.counters.tx_stamped, 1);

        // Receiver strips and echoes to the source.
        let mut rx = shim_for(2);
        let out = rx.incoming(stamped);
        assert_eq!(out.deliver, Some(udp_frame(1, 2, 5000)));
        let echo = out.echo.expect("echo generated");
        assert!(out.completed.is_none());
        // The echo is addressed to host 1 on the echo port.
        let ip = Ipv4Packet::new_checked(&echo[14..]).unwrap();
        assert_eq!(ip.dst(), Ipv4Address::from_host_id(1));
        // And the origin shim surfaces it as a completion.
        let mut origin = shim_for(1);
        let back = origin.incoming(echo);
        let done = back.completed.expect("completion surfaced");
        assert_eq!(done.app_id, 7);
        assert_eq!(done.from, Ipv4Address::from_host_id(2));
        assert_eq!(done.tpp.instrs.len(), 1);
    }

    #[test]
    fn local_aggregator_consumes_without_echo() {
        // When the receiving host *is* the aggregator, the completed TPP is
        // surfaced locally and no echo traffic is generated.
        let mut tx = shim_for(1);
        tx.add_tpp(7, Filter::udp(), probe_tpp(7), 1, 0);
        let stamped = tx.outgoing(udp_frame(1, 2, 5000));
        let mut rx = shim_for(2);
        rx.set_aggregator(7, Ipv4Address::from_host_id(2));
        let out = rx.incoming(stamped);
        assert!(out.deliver.is_some());
        assert!(out.echo.is_none());
        let done = out.completed.expect("local completion");
        assert_eq!(done.app_id, 7);
        assert_eq!(done.from, Ipv4Address::from_host_id(1));
        assert_eq!(rx.counters.echoes_sent, 0);
    }

    #[test]
    fn sampling_controls_stamp_rate() {
        let mut tx = shim_for(1);
        tx.add_tpp(7, Filter::udp(), probe_tpp(7), 10, 0);
        for _ in 0..2000 {
            tx.outgoing(udp_frame(1, 2, 5000));
        }
        let rate = tx.counters.tx_stamped as f64 / 2000.0;
        assert!((rate - 0.1).abs() < 0.03, "sampling rate {rate} should be ~0.1");
    }

    #[test]
    fn non_matching_traffic_untouched() {
        let mut tx = shim_for(1);
        tx.add_tpp(7, Filter::dst_port(80), probe_tpp(7), 1, 0);
        let f = udp_frame(1, 2, 5000);
        let out = tx.outgoing(f.clone());
        assert_eq!(out, f);
        assert_eq!(tx.counters.tx_stamped, 0);
    }

    #[test]
    fn standalone_probe_echoed() {
        let mut rx = shim_for(2);
        let tpp = probe_tpp(3);
        let frame = tpp_core::wire::build_standalone(
            EthernetAddress::from_node_id(1),
            EthernetAddress::from_node_id(2),
            Ipv4Address::from_host_id(1),
            Ipv4Address::from_host_id(2),
            9999,
            &tpp,
        );
        let out = rx.incoming(frame);
        assert!(out.deliver.is_none());
        let echo = out.echo.expect("probe echoed");
        let ip = Ipv4Packet::new_checked(&echo[14..]).unwrap();
        assert_eq!(ip.dst(), Ipv4Address::from_host_id(1));
        let u = UdpDatagram::new_checked(ip.payload()).unwrap();
        assert_eq!(u.dst_port(), TPP_ECHO_PORT);
    }

    #[test]
    fn aggregator_overrides_echo_destination() {
        let mut rx = shim_for(2);
        rx.set_aggregator(7, Ipv4Address::from_host_id(9));
        let tx_frame = {
            let mut tx = shim_for(1);
            tx.add_tpp(7, Filter::udp(), probe_tpp(7), 1, 0);
            tx.outgoing(udp_frame(1, 2, 5000))
        };
        let out = rx.incoming(tx_frame);
        let echo = out.echo.expect("echo to aggregator");
        let ip = Ipv4Packet::new_checked(&echo[14..]).unwrap();
        assert_eq!(ip.dst(), Ipv4Address::from_host_id(9));
    }

    #[test]
    fn plain_traffic_passes_through() {
        let mut rx = shim_for(2);
        let f = udp_frame(1, 2, 5000);
        let out = rx.incoming(f.clone());
        assert_eq!(out.deliver, Some(f));
        assert!(out.echo.is_none() && out.completed.is_none() && !out.discarded);
    }

    #[test]
    fn corrupted_tpp_discarded() {
        let mut tx = shim_for(1);
        tx.add_tpp(7, Filter::udp(), probe_tpp(7), 1, 0);
        let mut stamped = tx.outgoing(udp_frame(1, 2, 5000));
        stamped[16] ^= 0xFF; // corrupt TPP section
        let mut rx = shim_for(2);
        let out = rx.incoming(stamped);
        assert!(out.discarded && out.deliver.is_none());
        assert_eq!(rx.counters.parse_failures, 1);
    }

    #[test]
    fn non_ipv4_payload_stripped_with_default_flow() {
        // A TPP riding on something other than IPv4 (only a foreign sender
        // builds one: `outgoing` stamps IPv4 alone) is still stripped to the
        // frame `restore_inner_frame` builds, and attributed to no flow.
        const ARP: u16 = 0x0806;
        let arp = EthernetRepr {
            dst: EthernetAddress::from_node_id(2),
            src: EthernetAddress::from_node_id(1),
            ethertype: ARP,
        }
        .encapsulate(&[0x45; 28]);
        let stamped = tpp_core::wire::insert_transparent(&arp, &probe_tpp(7));
        let section = ethernet::HEADER_LEN;
        let (view, consumed) = TppView::parse(&stamped[section..]).unwrap();
        assert_eq!(view.encap_proto(), ARP);
        let rebuilt = tpp_core::wire::restore_inner_frame(&stamped, section, consumed, ARP);
        assert_eq!(rebuilt, arp);

        let mut rx = shim_for(2);
        rx.set_aggregator(7, Ipv4Address::from_host_id(2));
        let out = rx.incoming(stamped);
        assert_eq!(out.deliver, Some(rebuilt));
        let done = out.completed.expect("local completion");
        assert_eq!(done.flow, FlowRef::default());
        assert_eq!(done.from, Ipv4Address::default());
    }

    #[test]
    fn already_stamped_frames_not_double_stamped() {
        let mut tx = shim_for(1);
        tx.add_tpp(7, Filter::udp(), probe_tpp(7), 1, 0);
        let stamped = tx.outgoing(udp_frame(1, 2, 5000));
        let len1 = stamped.len();
        let again = tx.outgoing(stamped);
        assert_eq!(again.len(), len1);
        assert_eq!(tx.counters.tx_stamped, 1);
    }

    #[test]
    fn ip_host_id_roundtrip() {
        for id in [1u32, 255, 300, 65_000] {
            assert_eq!(host_id_of_ip(Ipv4Address::from_host_id(id)), id);
        }
    }
}
