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
//! *payload*, so switches do not re-execute them on the return path. A
//! fire-and-forget TPP (a write-back that no one awaits) carries an app ID
//! its destination aggregates itself ([`Shim::set_aggregator`]), so it is
//! consumed there and never echoed.
//!
//! Both directions work in the frame they are handed: a stamped frame is the
//! caller's buffer with the filter entry's pre-serialized section spliced in,
//! a stripped frame is the received buffer with the section closed up, and a
//! completion that arrives on the echo channel, or a standalone TPP consumed
//! at this host (its aggregator), is the received frame itself, handed on as
//! a validated [`TppBuf`]. The shim allocates only for what it surfaces
//! beside the frame — an echo frame, or the copy of the section a
//! piggy-backed completion consumed here travels in while its packet is
//! delivered — and, on transmit, when the caller's buffer has no room for
//! the section.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::BTreeMap;
use std::ops::Range;

use crate::filter::{Filter, FilterEntry, FilterTable};
use tpp_core::wire::{
    ethernet, insert_transparent_in_place, ipv4, locate_tpp, restore_inner_frame_in_place, udp,
    udp_frame_with, EthernetAddress, EthernetFrame, Ipv4Address, Ipv4Packet, Tpp, TppBuf,
    TppLocation, TppView, UdpDatagram, UdpFrameRepr,
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
    /// The executed section, validated, in the frame it reached this host
    /// in (an echo frame or a standalone TPP) or, when it rode a packet that
    /// is delivered, in a copy of its own.
    pub tpp: TppBuf,
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
    /// through borrowed [`TppView`]s over the frame bytes, echo frames carry
    /// the section bytes verbatim, and no completion is decoded into a
    /// [`Tpp`]: one that arrives on the echo channel, or a standalone one
    /// consumed here at its aggregator, keeps its frame as its [`TppBuf`]; a
    /// piggy-backed one consumed here is a copy of the section.
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
                let src_port = u16::from_be_bytes([frame[udp], frame[udp + 1]]);
                let (src, dst) = match Ipv4Packet::new_checked(&frame[ip..]) {
                    Some(p) => (p.src(), p.dst()),
                    None => {
                        self.counters.parse_failures += 1;
                        return Incoming { discarded: true, ..Incoming::default() };
                    }
                };
                let flow = FlowRef { src, dst, src_port, dst_port: udp::TPP_PORT };
                let within = section..frame.len();
                match TppBuf::parse(frame, within) {
                    // Consumed here: the received frame is the completion.
                    Ok(tpp) if self.completion_to(&tpp.view(), &flow) == self.ip => {
                        self.surface(tpp, flow)
                    }
                    Ok(tpp) => self.route_completed(&tpp.view(), flow),
                    Err(_) => {
                        self.counters.parse_failures += 1;
                        Incoming { discarded: true, ..Incoming::default() }
                    }
                }
            }
            TppLocation::None => match parse_echo(frame) {
                Ok(completed) => {
                    self.counters.completed_delivered += 1;
                    Incoming { completed: Some(completed), ..Incoming::default() }
                }
                Err(frame) => Incoming { deliver: Some(frame), ..Incoming::default() },
            },
        }
    }

    /// Where a freshly executed TPP goes: its app's aggregator, or the
    /// packet source when no aggregator is registered (§4.2).
    fn completion_to(&self, view: &TppView<'_>, flow: &FlowRef) -> Ipv4Address {
        self.aggregators.get(&view.app_id()).copied().unwrap_or(flow.src)
    }

    /// Route a freshly executed TPP: locally, in a copy of the section, if
    /// this host is where it goes, otherwise as an echo frame toward there.
    fn route_completed(&mut self, view: &TppView<'_>, flow: FlowRef) -> Incoming {
        let to = self.completion_to(view, &flow);
        if to == self.ip {
            return self.surface(view.to_buf(), flow);
        }
        self.counters.echoes_sent += 1;
        Incoming {
            echo: Some(self.build_echo_frame(view.as_bytes(), to, flow)),
            ..Incoming::default()
        }
    }

    /// A completion this host consumes, surfaced to its application.
    fn surface(&mut self, tpp: TppBuf, flow: FlowRef) -> Incoming {
        self.counters.completed_delivered += 1;
        let completed = CompletedTpp { app_id: tpp.view().app_id(), from: flow.src, tpp, flow };
        Incoming { completed: Some(completed), ..Incoming::default() }
    }

    /// Build a completed-TPP frame around the executed section bytes,
    /// carried verbatim — no re-serialization of the TPP. One buffer
    /// ([`udp_frame_with`]): the section and the flow trailer are the
    /// payload.
    fn build_echo_frame(&self, section: &[u8], to: Ipv4Address, flow: FlowRef) -> Vec<u8> {
        let hdr = UdpFrameRepr {
            src_mac: self.mac,
            dst_mac: mac_of_ip(to),
            src_ip: self.ip,
            dst_ip: to,
            src_port: udp::TPP_PORT,
            dst_port: TPP_ECHO_PORT,
        };
        udp_frame_with(&hdr, section.len() + FlowRef::TRAILER_LEN, |payload| {
            let (carried, trailer) = payload.split_at_mut(section.len());
            carried.copy_from_slice(section);
            trailer.copy_from_slice(&flow.emit());
        })
    }
}

/// The completion an echo frame carries, read where it landed: the frame
/// becomes the completion's [`TppBuf`], with no copy. The section is
/// validated within the UDP payload, so bytes after the payload (Ethernet
/// padding) never count as section or trailer bytes. A frame that is not a
/// valid echo comes back unchanged.
fn parse_echo(frame: Vec<u8>) -> Result<CompletedTpp, Vec<u8>> {
    let Some((from, payload)) = echo_payload(&frame) else { return Err(frame) };
    let tpp = TppBuf::parse(frame, payload.clone()).map_err(|(frame, _)| frame)?;
    let trailer = &tpp.buffer()[payload.start + tpp.view().section_len()..payload.end];
    let flow = FlowRef::parse(trailer).unwrap_or_default();
    Ok(CompletedTpp { app_id: tpp.view().app_id(), tpp, from, flow })
}

/// The source address of an echo frame, and where its UDP payload lies in it.
fn echo_payload(frame: &[u8]) -> Option<(Ipv4Address, Range<usize>)> {
    let eth = EthernetFrame::new_checked(frame)?;
    if eth.ethertype() != ethernet::ethertype::IPV4 {
        return None;
    }
    let ip = Ipv4Packet::new_checked(eth.payload())?;
    if ip.protocol() != ipv4::protocol::UDP {
        return None;
    }
    let u = UdpDatagram::new_checked(ip.payload())?;
    if u.dst_port() != TPP_ECHO_PORT {
        return None;
    }
    let start = ethernet::HEADER_LEN + ip.header_len() + udp::HEADER_LEN;
    Some((ip.src(), start..start + u.payload().len()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpp_core::addr::resolve_mnemonic;
    use tpp_core::asm::TppBuilder;
    use tpp_core::isa::{Instruction, INSTR_BYTES};
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

    /// A section of `len` bytes: a valid section of the greatest length
    /// the header can state that is at most `len` (its words split between
    /// program and memory, memory first), then filler up to `len`. Below
    /// the header's length, filler alone.
    fn section_of_len(len: usize, byte: &mut impl FnMut() -> u8) -> Vec<u8> {
        let program = [
            Instruction::push(resolve_mnemonic("Switch:SwitchID").unwrap()),
            Instruction::load(resolve_mnemonic("Queue:QueueOccupancy").unwrap(), 1),
        ];
        let mut section = Vec::with_capacity(len);
        if len >= tpp::HEADER_LEN {
            let words = (len - tpp::HEADER_LEN) / 4;
            let n_instr = words.saturating_sub(MAX_MEMORY_BYTES / 4);
            section = Tpp {
                hop: byte(),
                sp: byte(),
                app_id: u16::from_be_bytes([byte(), byte()]),
                instrs: (0..n_instr).map(|i| program[i % program.len()]).collect(),
                memory: (0..4 * (words - n_instr)).map(|_| byte()).collect(),
                ..Tpp::default()
            }
            .serialize();
        }
        section.extend((section.len()..len).map(|_| byte()));
        section
    }

    #[test]
    fn echo_completions_read_what_the_udp_payload_holds() {
        // Sections of every length `echo_frame_matches_the_nested_construction`
        // iterates, in echo frames four ways: as built; with Ethernet padding
        // after the UDP payload; cut 4 bytes short of the length they claim,
        // with the cut bytes and the trailer as padding; with the flow trailer
        // cut short. What host 1 surfaces must be what `TppView::parse` reads
        // in the UDP payload, and a frame it cannot read must be delivered
        // byte for byte as it came.
        let sender = shim_for(2);
        let mut origin = shim_for(1);
        let flow =
            FlowRef { src: origin.ip, dst: sender.ip, src_port: 40_001, dst_port: udp::TPP_PORT };
        let hdr = UdpFrameRepr {
            src_mac: sender.mac,
            dst_mac: origin.mac,
            src_ip: sender.ip,
            dst_ip: origin.ip,
            src_port: udp::TPP_PORT,
            dst_port: TPP_ECHO_PORT,
        };
        let echo_with = |payload: &[u8], padding: &[u8]| {
            let mut frame = udp_frame_with(&hdr, payload.len(), |p| p.copy_from_slice(payload));
            frame.extend_from_slice(padding);
            frame
        };
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let mut byte = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x >> 32) as u8
        };
        let longest = tpp::HEADER_LEN + usize::from(u8::MAX) * INSTR_BYTES + MAX_MEMORY_BYTES;
        let (mut completed, mut delivered) = (0, 0);
        for len in 0..=longest {
            let section = section_of_len(len, &mut byte);
            let whole = [&section[..], &flow.emit()].concat();
            let cut = len.saturating_sub(4);
            let frames = [
                ("as built", sender.build_echo_frame(&section, origin.ip, flow)),
                ("padded", echo_with(&whole, &[0xA5; 17])),
                ("claiming past the payload", echo_with(&section[..cut], &whole[cut..])),
                ("short trailer", echo_with(&whole[..len + 5], &[])),
            ];
            for (case, frame) in frames {
                let (_, payload) = echo_payload(&frame).expect("an echo frame");
                let payload = &frame[payload];
                let out = origin.incoming(frame.clone());
                assert!(out.echo.is_none() && !out.discarded, "{len} bytes, {case}");
                let Ok((view, consumed)) = TppView::parse(payload) else {
                    assert_eq!(out.deliver.as_ref(), Some(&frame), "{len} bytes, {case}");
                    assert!(out.completed.is_none(), "{len} bytes, {case}");
                    delivered += 1;
                    continue;
                };
                let done = out.completed.unwrap_or_else(|| panic!("{len} bytes, {case}"));
                let t = &done.tpp;
                assert!(out.deliver.is_none(), "{len} bytes, {case}");
                assert_eq!(t.as_bytes(), view.as_bytes(), "{len} bytes, {case}");
                assert_eq!(
                    (done.app_id, t.view().app_id(), t.sp(), t.hop(), t.memory()),
                    (view.app_id(), view.app_id(), view.sp(), view.hop(), view.memory()),
                    "{len} bytes, {case}"
                );
                let trailer = FlowRef::parse(&payload[consumed..]).unwrap_or_default();
                assert_eq!((done.flow, done.from), (trailer, sender.ip), "{len} bytes, {case}");
                completed += 1;
            }
        }
        // Each section of a header's length or more is read three ways; the
        // one cut short, and every frame with less than a header, are not.
        let sections = longest + 1 - tpp::HEADER_LEN;
        assert_eq!(completed, 3 * sections);
        assert_eq!(delivered, 4 * (longest + 1) - 3 * sections);
        assert_eq!(origin.counters.completed_delivered, completed as u64);
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
        assert_eq!(done.tpp.view().n_instr(), 1);
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
    fn fire_and_forget_tpps_are_absorbed() {
        // A fire-and-forget write-back leaves from its flow's data port, and
        // a destination that aggregates its app ID consumes it: no echo,
        // nothing delivered, whatever the port. Another app's standalone TPP
        // from the same ports is echoed to its source.
        let standalone = |src_port, app| {
            tpp_core::wire::build_standalone(
                EthernetAddress::from_node_id(1),
                EthernetAddress::from_node_id(2),
                Ipv4Address::from_host_id(1),
                Ipv4Address::from_host_id(2),
                src_port,
                &probe_tpp(app),
            )
        };
        let mut rx = shim_for(2);
        rx.set_aggregator(6, rx.ip);
        let ports = [7_001, 0x6669, 40_001];
        for src_port in ports {
            let out = rx.incoming(standalone(src_port, 6));
            assert!(out.echo.is_none() && out.deliver.is_none(), "port {src_port}");
            assert_eq!(out.completed.map(|c| c.app_id), Some(6), "port {src_port}");
            assert!(rx.incoming(standalone(src_port, 3)).echo.is_some(), "port {src_port}");
        }
        assert_eq!(rx.counters.echoes_sent, ports.len() as u64);
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
