//! Wire formats: Ethernet, IPv4, UDP, and the TPP section, plus the parse
//! graph of Figure 7a that locates a TPP inside a frame.

pub mod checksum;
pub mod ethernet;
pub mod ipv4;
pub mod tpp;
pub mod udp;
pub mod view;

pub use ethernet::{EthernetAddress, Frame as EthernetFrame, Repr as EthernetRepr};
pub use ipv4::{Ipv4Address, Packet as Ipv4Packet, Repr as Ipv4Repr};
pub use tpp::{max_hops, AddrMode, Tpp, TppError, MAX_MEMORY_BYTES};
pub use udp::{Datagram as UdpDatagram, Repr as UdpRepr, TPP_PORT};
pub use view::{TppBuf, TppView, TppViewMut};

/// Where (if anywhere) a TPP section lives inside an Ethernet frame
/// (Figure 7a parse graph).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TppLocation {
    /// Ethertype 0x6666: TPP section directly follows the Ethernet header,
    /// encapsulating the original packet (piggy-backed mode).
    Transparent {
        /// Byte offset of the TPP section within the frame.
        section: usize,
    },
    /// A normal UDP packet to port 0x6666 carrying the TPP as its payload.
    Standalone {
        section: usize,
        /// Byte offset of the IPv4 header (for echoing back to the source).
        ip: usize,
        /// Byte offset of the UDP header.
        udp: usize,
    },
    /// Not a TPP packet.
    None,
}

/// Walk the Figure 7a parse graph: `ethernet -> tpp` (transparent) or
/// `ethernet -> ipv4 -> udp(dport=0x6666) -> tpp` (standalone).
pub fn locate_tpp(frame: &[u8]) -> TppLocation {
    let Some(eth) = ethernet::Frame::new_checked(frame) else {
        return TppLocation::None;
    };
    match eth.ethertype() {
        ethernet::ethertype::TPP => TppLocation::Transparent { section: ethernet::HEADER_LEN },
        ethernet::ethertype::IPV4 => {
            let ip_off = ethernet::HEADER_LEN;
            let Some(ip) = ipv4::Packet::new_checked(eth.payload()) else {
                return TppLocation::None;
            };
            if ip.protocol() != ipv4::protocol::UDP {
                return TppLocation::None;
            }
            let udp_off = ip_off + ip.header_len();
            let Some(u) = udp::Datagram::new_checked(ip.payload()) else {
                return TppLocation::None;
            };
            if u.dst_port() != TPP_PORT {
                return TppLocation::None;
            }
            TppLocation::Standalone { section: udp_off + udp::HEADER_LEN, ip: ip_off, udp: udp_off }
        }
        _ => TppLocation::None,
    }
}

/// Parse the TPP out of a frame, if present and well-formed.
pub fn extract_tpp(frame: &[u8]) -> Option<(TppLocation, Tpp)> {
    match locate_tpp(frame) {
        TppLocation::None => None,
        loc @ (TppLocation::Transparent { section } | TppLocation::Standalone { section, .. }) => {
            let (tpp, _) = Tpp::parse(&frame[section..]).ok()?;
            Some((loc, tpp))
        }
    }
}

/// Piggy-back `tpp` onto an existing Ethernet frame (transparent mode): the
/// outer ethertype becomes 0x6666 and the original ethertype moves into the
/// TPP's `encap_proto` field. The original L3+ payload follows the section.
pub fn insert_transparent(frame: &[u8], tpp: &Tpp) -> Vec<u8> {
    let (section, payload) = (ethernet::HEADER_LEN, ethernet::HEADER_LEN + tpp.section_len());
    let mut out = Vec::with_capacity(frame.len() + tpp.section_len());
    out.extend_from_slice(&frame[..12]); // dst + src
    out.extend_from_slice(&ethernet::ethertype::TPP.to_be_bytes());
    out.resize(payload, 0);
    tpp.emit(&mut out[section..]);
    // The section went out naming `tpp`'s own `encap_proto`: name the
    // displaced ethertype instead, and account for the swap in the checksum.
    let displaced = u16::from_be_bytes([frame[12], frame[13]]);
    let check = u16::from_be_bytes([out[section + 6], out[section + 7]]);
    let check = checksum::update(check, tpp.encap_proto, displaced);
    out[section + 6..section + 8].copy_from_slice(&check.to_be_bytes());
    out[section + 8..section + 10].copy_from_slice(&displaced.to_be_bytes());
    out.extend_from_slice(&frame[ethernet::HEADER_LEN..]);
    out
}

/// [`insert_transparent`] in the frame's own buffer, for a section serialized
/// ahead of time: no allocation when `frame` has `section.len()` bytes of
/// spare capacity, one exact growth when it has not, and no checksum pass.
/// `section` must name the frame's ethertype as its `encap_proto`, and
/// `frame` must hold an Ethernet header.
pub fn insert_transparent_in_place(frame: &mut Vec<u8>, section: &[u8]) {
    debug_assert!(
        section[8..10] == frame[12..14],
        "a piggy-backed section must name the ethertype it displaces"
    );
    let (at, old_len) = (ethernet::HEADER_LEN, frame.len());
    frame.reserve_exact(section.len());
    frame.resize(old_len + section.len(), 0);
    frame.copy_within(at..old_len, at + section.len());
    frame[12..14].copy_from_slice(&ethernet::ethertype::TPP.to_be_bytes());
    frame[at..at + section.len()].copy_from_slice(section);
}

/// Rebuild the inner frame of a transparent-mode packet: the original MAC
/// pair, the restored (encapsulated) ethertype, and the payload that
/// follows the TPP section. `section`/`consumed` come from [`locate_tpp`]
/// and a successful section parse of the same frame.
pub fn restore_inner_frame(
    frame: &[u8],
    section: usize,
    consumed: usize,
    encap_proto: u16,
) -> Vec<u8> {
    let mut inner = Vec::with_capacity(frame.len() - consumed);
    inner.extend_from_slice(&frame[..section - 2]); // dst + src MACs
    inner.extend_from_slice(&encap_proto.to_be_bytes());
    inner.extend_from_slice(&frame[section + consumed..]);
    inner
}

/// [`restore_inner_frame`] in the frame's own buffer: the restored ethertype
/// overwrites 0x6666 and the payload closes up over the TPP section. No
/// allocation; `frame` keeps its capacity.
pub fn restore_inner_frame_in_place(
    frame: &mut Vec<u8>,
    section: usize,
    consumed: usize,
    encap_proto: u16,
) {
    frame[section - 2..section].copy_from_slice(&encap_proto.to_be_bytes());
    frame.copy_within(section + consumed.., section);
    frame.truncate(frame.len() - consumed);
}

/// Build a standalone TPP packet: Ethernet/IPv4/UDP(dport 0x6666)/TPP, in
/// one buffer ([`udp_frame_with`]) with the section emitted as the payload.
#[allow(clippy::too_many_arguments)]
pub fn build_standalone(
    src_mac: EthernetAddress,
    dst_mac: EthernetAddress,
    src_ip: Ipv4Address,
    dst_ip: Ipv4Address,
    src_port: u16,
    tpp: &Tpp,
) -> Vec<u8> {
    let hdr = UdpFrameRepr { src_mac, dst_mac, src_ip, dst_ip, src_port, dst_port: TPP_PORT };
    udp_frame_with(&hdr, tpp.section_len(), |payload| tpp.emit(payload))
}

/// Addressing of a UDP frame between two hosts (see [`udp_frame_into`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct UdpFrameRepr {
    pub src_mac: EthernetAddress,
    pub dst_mac: EthernetAddress,
    pub src_ip: Ipv4Address,
    pub dst_ip: Ipv4Address,
    pub src_port: u16,
    pub dst_port: u16,
}

/// Write an Ethernet/IPv4/UDP frame carrying `payload_len` zero payload
/// bytes into `buf` in one pass, replacing whatever `buf` held (its
/// capacity is reused). The simulated traffic sources use it: only the
/// lengths of their payloads matter.
///
/// A non-empty `section` is piggy-backed in transparent mode exactly as
/// [`insert_transparent`] would: it follows the Ethernet header, whose
/// ethertype becomes 0x6666. It must be a TPP section serialized with
/// `encap_proto` = IPv4, the ethertype it displaces.
///
/// The UDP checksum is the one [`UdpDatagram::fill_checksum`] writes, summed
/// over the pseudo-header and the 8-byte UDP header alone: the payload is
/// zeros, and zeros add nothing to a ones'-complement sum.
pub fn udp_frame_into(buf: &mut Vec<u8>, hdr: &UdpFrameRepr, payload_len: usize, section: &[u8]) {
    debug_assert!(
        section.is_empty() || section[8..10] == ethernet::ethertype::IPV4.to_be_bytes(),
        "a piggy-backed section must name IPv4 as its encapsulated protocol"
    );
    let ip_off = ethernet::HEADER_LEN + section.len();
    let udp_off = ip_off + ipv4::HEADER_LEN;
    let udp_len = udp::HEADER_LEN + payload_len;
    // Exact growth: a recycled buffer that is too small grows once, to the
    // frame's size, not to twice its old capacity.
    buf.clear();
    buf.reserve_exact(udp_off + udp_len);
    buf.resize(udp_off + udp_len, 0);

    let ethertype =
        if section.is_empty() { ethernet::ethertype::IPV4 } else { ethernet::ethertype::TPP };
    EthernetRepr { dst: hdr.dst_mac, src: hdr.src_mac, ethertype }
        .emit(&mut EthernetFrame::new_unchecked(&mut buf[..]));
    buf[ethernet::HEADER_LEN..ip_off].copy_from_slice(section);
    ipv4::Repr {
        src: hdr.src_ip,
        dst: hdr.dst_ip,
        protocol: ipv4::protocol::UDP,
        ttl: 64,
        payload_len: udp_len,
    }
    .emit(&mut Ipv4Packet::new_unchecked(&mut buf[ip_off..]));
    let mut d = UdpDatagram::new_unchecked(&mut buf[udp_off..]);
    d.set_src_port(hdr.src_port);
    d.set_dst_port(hdr.dst_port);
    d.set_len(udp_len as u16);
    d.fill_checksum_over(hdr.src_ip, hdr.dst_ip, udp::HEADER_LEN);
}

/// An Ethernet/IPv4/UDP frame whose `payload_len` payload bytes `fill`
/// writes, in one buffer: the headers from [`udp_frame_into`], then `fill`
/// over the payload, then the UDP checksum over the whole datagram.
pub fn udp_frame_with(
    hdr: &UdpFrameRepr,
    payload_len: usize,
    fill: impl FnOnce(&mut [u8]),
) -> Vec<u8> {
    let mut frame = Vec::new();
    udp_frame_into(&mut frame, hdr, payload_len, &[]);
    let udp_off = ethernet::HEADER_LEN + ipv4::HEADER_LEN;
    fill(&mut frame[udp_off + udp::HEADER_LEN..]);
    UdpDatagram::new_unchecked(&mut frame[udp_off..]).fill_checksum(hdr.src_ip, hdr.dst_ip);
    frame
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::resolve_mnemonic;
    use crate::isa::Instruction;

    /// Remove a transparent-mode TPP from a frame, restoring the original
    /// ethertype. Returns the TPP and the restored inner frame.
    fn strip_transparent(frame: &[u8]) -> Option<(Tpp, Vec<u8>)> {
        let TppLocation::Transparent { section } = locate_tpp(frame) else {
            return None;
        };
        let (tpp, consumed) = Tpp::parse(&frame[section..]).ok()?;
        let inner = restore_inner_frame(frame, section, consumed, tpp.encap_proto);
        Some((tpp, inner))
    }

    fn mac(i: u32) -> EthernetAddress {
        EthernetAddress::from_node_id(i)
    }

    fn sample_tpp() -> Tpp {
        Tpp {
            mode: AddrMode::Hop,
            per_hop_len: 8,
            memory: vec![0; 40],
            instrs: vec![
                Instruction::push(resolve_mnemonic("Switch:SwitchID").unwrap()),
                Instruction::push(resolve_mnemonic("Queue:QueueOccupancy").unwrap()),
            ],
            ..Tpp::default()
        }
    }

    fn plain_udp_frame(dst_port: u16) -> Vec<u8> {
        let src_ip = Ipv4Address::new(10, 0, 0, 1);
        let dst_ip = Ipv4Address::new(10, 0, 0, 2);
        let u = udp::Repr { src_port: 1234, dst_port, payload_len: 3 };
        let udp_bytes = u.encapsulate(src_ip, dst_ip, b"abc");
        let ip = ipv4::Repr {
            src: src_ip,
            dst: dst_ip,
            protocol: ipv4::protocol::UDP,
            ttl: 64,
            payload_len: udp_bytes.len(),
        };
        let ip_bytes = ip.encapsulate(&udp_bytes);
        EthernetRepr { dst: mac(2), src: mac(1), ethertype: ethernet::ethertype::IPV4 }
            .encapsulate(&ip_bytes)
    }

    #[test]
    fn standalone_parse_graph() {
        let tpp = sample_tpp();
        let frame = build_standalone(
            mac(1),
            mac(2),
            Ipv4Address::new(10, 0, 0, 1),
            Ipv4Address::new(10, 0, 0, 2),
            5000,
            &tpp,
        );
        match locate_tpp(&frame) {
            TppLocation::Standalone { section, ip, udp } => {
                assert_eq!(ip, 14);
                assert_eq!(udp, 34);
                assert_eq!(section, 42);
            }
            other => panic!("unexpected {other:?}"),
        }
        let (_, parsed) = extract_tpp(&frame).unwrap();
        assert_eq!(parsed, tpp);
    }

    #[test]
    fn non_tpp_udp_not_matched() {
        let frame = plain_udp_frame(5353);
        assert_eq!(locate_tpp(&frame), TppLocation::None);
    }

    #[test]
    fn transparent_insert_strip_roundtrip() {
        let inner = plain_udp_frame(5353);
        let tpp = sample_tpp();
        let outer = insert_transparent(&inner, &tpp);
        assert_eq!(outer.len(), inner.len() + tpp.section_len());
        match locate_tpp(&outer) {
            TppLocation::Transparent { section } => assert_eq!(section, 14),
            other => panic!("unexpected {other:?}"),
        }
        let (stripped, restored) = strip_transparent(&outer).unwrap();
        assert_eq!(restored, inner);
        assert_eq!(stripped.encap_proto, ethernet::ethertype::IPV4);
        assert_eq!(stripped.instrs, tpp.instrs);
    }

    #[test]
    fn replace_tpp_in_place() {
        let tpp = sample_tpp();
        let mut frame = build_standalone(
            mac(1),
            mac(2),
            Ipv4Address::new(10, 0, 0, 1),
            Ipv4Address::new(10, 0, 0, 2),
            5000,
            &tpp,
        );
        let TppLocation::Standalone { section, .. } = locate_tpp(&frame) else {
            panic!("a standalone TPP");
        };
        let (mut view, _) = TppViewMut::parse(&mut frame[section..]).unwrap();
        view.set_hop(3);
        view.write_word(0, 0x1234_5678).unwrap();
        let (_, back) = extract_tpp(&frame).unwrap();
        assert_eq!(back.hop, 3);
        assert_eq!(back.read_word(0), Some(0x1234_5678));
    }

    #[test]
    fn corrupted_tpp_not_extracted() {
        let tpp = sample_tpp();
        let inner = plain_udp_frame(80);
        let mut outer = insert_transparent(&inner, &tpp);
        outer[20] ^= 0xFF; // corrupt inside the TPP section
        assert!(extract_tpp(&outer).is_none());
        // but it's still recognized as a (damaged) TPP location
        assert!(matches!(locate_tpp(&outer), TppLocation::Transparent { .. }));
    }

    /// The nested construction `udp_frame_into` and `build_standalone`
    /// replaced, kept as their oracle: one allocation per layer, then a copy
    /// for a piggy-backed TPP.
    fn nested_udp_frame(hdr: &UdpFrameRepr, payload: &[u8], tpp: Option<&Tpp>) -> Vec<u8> {
        let payload_len = payload.len();
        let u = udp::Repr { src_port: hdr.src_port, dst_port: hdr.dst_port, payload_len };
        let udp_bytes = u.encapsulate(hdr.src_ip, hdr.dst_ip, payload);
        let ip = ipv4::Repr {
            src: hdr.src_ip,
            dst: hdr.dst_ip,
            protocol: ipv4::protocol::UDP,
            ttl: 64,
            payload_len: udp_bytes.len(),
        };
        let plain = EthernetRepr {
            dst: hdr.dst_mac,
            src: hdr.src_mac,
            ethertype: ethernet::ethertype::IPV4,
        }
        .encapsulate(&ip.encapsulate(&udp_bytes));
        match tpp {
            Some(t) => insert_transparent(&plain, t),
            None => plain,
        }
    }

    #[test]
    fn udp_frame_into_matches_nested_construction() {
        let hdr = UdpFrameRepr {
            src_mac: mac(1),
            dst_mac: mac(0x0102_0304),
            src_ip: Ipv4Address::from_host_id(1),
            dst_ip: Ipv4Address::from_host_id(0x0102_0304),
            src_port: 5001,
            dst_port: 0xfffe,
        };
        let tpp = sample_tpp();
        let section = Tpp { encap_proto: ethernet::ethertype::IPV4, ..tpp.clone() }.serialize();
        // A dirty, longer buffer: the writer must not let old bytes through.
        let mut buf = vec![0xAAu8; 4096];
        for payload_len in [0usize, 1, 2, 7, 255, 256, 1000, 1458] {
            udp_frame_into(&mut buf, &hdr, payload_len, &[]);
            let zeros = vec![0u8; payload_len];
            assert_eq!(buf, nested_udp_frame(&hdr, &zeros, None), "plain, {payload_len}");
            udp_frame_into(&mut buf, &hdr, payload_len, &section);
            assert_eq!(buf, nested_udp_frame(&hdr, &zeros, Some(&tpp)), "tpp, {payload_len}");
            buf.iter_mut().for_each(|b| *b = 0x55);
        }
        // The frame is what the parse graph expects.
        udp_frame_into(&mut buf, &hdr, 64, &section);
        let (stripped, inner) = strip_transparent(&buf).unwrap();
        assert_eq!(stripped.instrs, tpp.instrs);
        assert_eq!(inner, nested_udp_frame(&hdr, &[0; 64], None));
    }

    #[test]
    fn udp_frame_into_checksum_equals_fill_checksum() {
        // The header-only sum against `fill_checksum` over the whole
        // datagram, zero payload and all, at every payload length.
        let mut hdr = UdpFrameRepr {
            src_mac: mac(1),
            dst_mac: mac(2),
            src_ip: Ipv4Address::from_host_id(0x00ab_cdef),
            dst_ip: Ipv4Address::from_host_id(2),
            src_port: 5001,
            dst_port: 5001,
        };
        let section = Tpp { encap_proto: ethernet::ethertype::IPV4, ..sample_tpp() }.serialize();
        let check = |hdr: &UdpFrameRepr, payload_len: usize, section: &[u8]| {
            let mut buf = Vec::new();
            udp_frame_into(&mut buf, hdr, payload_len, section);
            let udp_off = ethernet::HEADER_LEN + section.len() + ipv4::HEADER_LEN;
            let sent = UdpDatagram::new_unchecked(&buf[udp_off..]).checksum_field();
            let mut d = UdpDatagram::new_unchecked(&mut buf[udp_off..]);
            d.fill_checksum(hdr.src_ip, hdr.dst_ip);
            assert_eq!(sent, d.checksum_field(), "{payload_len}, section {}", section.len());
            sent
        };
        for payload_len in 0..=1500 {
            check(&hdr, payload_len, &[]);
            check(&hdr, payload_len, &section);
        }
        // A destination port that makes the sum come to zero: it must go out
        // as all-ones (RFC 768), never as 0, which means "no checksum".
        let payload_len = 1000;
        let sums_to_zero = |port: u16| {
            let mut h = [0u8; udp::HEADER_LEN];
            h[0..2].copy_from_slice(&hdr.src_port.to_be_bytes());
            h[2..4].copy_from_slice(&port.to_be_bytes());
            h[4..6].copy_from_slice(&((udp::HEADER_LEN + payload_len) as u16).to_be_bytes());
            let ph = checksum::pseudo_header_sum(
                hdr.src_ip.0,
                hdr.dst_ip.0,
                ipv4::protocol::UDP,
                (udp::HEADER_LEN + payload_len) as u16,
            );
            !checksum::combine(&[ph, checksum::sum(&h)]) == 0
        };
        hdr.dst_port = (0..=u16::MAX).find(|&p| sums_to_zero(p)).expect("one port zeroes it");
        assert_eq!(check(&hdr, payload_len, &[]), 0xFFFF);
        assert_eq!(check(&hdr, payload_len, &section), 0xFFFF);
    }

    #[test]
    fn standalone_matches_the_nested_construction() {
        // Every section length the one-byte instruction count and memory
        // length can express, each reached twice (memory first, then
        // instructions first), over memory bytes that are not zero, between
        // several pairs of hosts.
        let instrs = [
            Instruction::push(resolve_mnemonic("Switch:SwitchID").unwrap()),
            Instruction::load(resolve_mnemonic("Queue:QueueOccupancy").unwrap(), 3),
            Instruction::cstore(resolve_mnemonic("Link:AppSpecific_0").unwrap(), 1, 2),
        ];
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut byte = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x >> 32) as u8
        };
        let (max_instrs, max_words) = (usize::from(u8::MAX), MAX_MEMORY_BYTES / 4);
        let hosts = [(1, 2), (0x0001_0203, 7), (0x00fe_dcba, 0x00ab_cdef)];
        for words in 0..=max_instrs + max_words {
            let memory_first = words.saturating_sub(max_words);
            let instrs_first = words.min(max_instrs);
            for n_instr in [memory_first, instrs_first] {
                let tpp = Tpp {
                    mode: if words % 2 == 0 { AddrMode::Stack } else { AddrMode::Hop },
                    hop: byte(),
                    sp: byte(),
                    per_hop_len: byte() & 0xFC,
                    app_id: u16::from_be_bytes([byte(), byte()]),
                    instrs: (0..n_instr).map(|i| instrs[i % instrs.len()]).collect(),
                    memory: (0..4 * (words - n_instr)).map(|_| byte()).collect(),
                    ..Tpp::default()
                };
                for (a, b) in hosts {
                    let hdr = UdpFrameRepr {
                        src_mac: mac(a),
                        dst_mac: mac(b),
                        src_ip: Ipv4Address::from_host_id(a),
                        dst_ip: Ipv4Address::from_host_id(b),
                        src_port: 40_000 + words as u16,
                        dst_port: TPP_PORT,
                    };
                    assert_eq!(
                        build_standalone(
                            hdr.src_mac,
                            hdr.dst_mac,
                            hdr.src_ip,
                            hdr.dst_ip,
                            hdr.src_port,
                            &tpp
                        ),
                        nested_udp_frame(&hdr, &tpp.serialize(), None),
                        "{n_instr} instructions, {} memory bytes, {a} -> {b}",
                        tpp.memory.len()
                    );
                }
            }
        }
    }

    #[test]
    fn short_frames_safe() {
        assert_eq!(locate_tpp(&[]), TppLocation::None);
        assert_eq!(locate_tpp(&[0u8; 13]), TppLocation::None);
        assert!(extract_tpp(&[0u8; 14]).is_none());
    }
}
