//! IPv4 packet format (no options, no fragmentation — datacenter MTUs make
//! fragmentation unnecessary, and §3.3 requires TPPs to fit in one MTU).

use super::checksum;
use core::fmt;

/// An IPv4 address.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub struct Ipv4Address(pub [u8; 4]);

impl Ipv4Address {
    pub const UNSPECIFIED: Ipv4Address = Ipv4Address([0; 4]);

    pub const fn new(a: u8, b: u8, c: u8, d: u8) -> Self {
        Ipv4Address([a, b, c, d])
    }

    /// Deterministic address for simulated host `id`: `10.x.y.z`.
    pub fn from_host_id(id: u32) -> Self {
        let b = id.to_be_bytes();
        Ipv4Address([10, b[1], b[2], b[3]])
    }

    pub fn to_u32(self) -> u32 {
        u32::from_be_bytes(self.0)
    }

    pub fn from_u32(v: u32) -> Self {
        Ipv4Address(v.to_be_bytes())
    }
}

impl fmt::Debug for Ipv4Address {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl fmt::Display for Ipv4Address {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{}.{}.{}", self.0[0], self.0[1], self.0[2], self.0[3])
    }
}

/// IP protocol numbers used by the stack.
pub mod protocol {
    pub const ICMP: u8 = 1;
    pub const TCP: u8 = 6;
    pub const UDP: u8 = 17;
}

/// Header length (we never emit options).
pub const HEADER_LEN: usize = 20;

/// Typed view over an IPv4 packet.
pub struct Packet<T: AsRef<[u8]>> {
    buffer: T,
}

impl<T: AsRef<[u8]>> Packet<T> {
    pub fn new_checked(buffer: T) -> Option<Packet<T>> {
        let len = buffer.as_ref().len();
        if len < HEADER_LEN {
            return None;
        }
        let p = Packet { buffer };
        if p.version() != 4 || p.header_len() < HEADER_LEN || p.header_len() > len {
            return None;
        }
        if (p.total_len() as usize) < p.header_len() || p.total_len() as usize > len {
            return None;
        }
        Some(p)
    }

    pub fn new_unchecked(buffer: T) -> Packet<T> {
        Packet { buffer }
    }

    pub fn into_inner(self) -> T {
        self.buffer
    }

    pub fn version(&self) -> u8 {
        self.buffer.as_ref()[0] >> 4
    }
    pub fn header_len(&self) -> usize {
        ((self.buffer.as_ref()[0] & 0x0F) as usize) * 4
    }
    pub fn dscp_ecn(&self) -> u8 {
        self.buffer.as_ref()[1]
    }
    pub fn total_len(&self) -> u16 {
        let b = self.buffer.as_ref();
        u16::from_be_bytes([b[2], b[3]])
    }
    pub fn ident(&self) -> u16 {
        let b = self.buffer.as_ref();
        u16::from_be_bytes([b[4], b[5]])
    }
    pub fn ttl(&self) -> u8 {
        self.buffer.as_ref()[8]
    }
    pub fn protocol(&self) -> u8 {
        self.buffer.as_ref()[9]
    }
    pub fn header_checksum(&self) -> u16 {
        let b = self.buffer.as_ref();
        u16::from_be_bytes([b[10], b[11]])
    }
    pub fn src(&self) -> Ipv4Address {
        let b = self.buffer.as_ref();
        Ipv4Address(b[12..16].try_into().unwrap())
    }
    pub fn dst(&self) -> Ipv4Address {
        let b = self.buffer.as_ref();
        Ipv4Address(b[16..20].try_into().unwrap())
    }
    pub fn verify_checksum(&self) -> bool {
        checksum::verify(&self.buffer.as_ref()[..self.header_len()])
    }
    pub fn payload(&self) -> &[u8] {
        let hl = self.header_len();
        let tl = self.total_len() as usize;
        &self.buffer.as_ref()[hl..tl]
    }
}

impl<T: AsRef<[u8]> + AsMut<[u8]>> Packet<T> {
    pub fn set_version_and_len(&mut self) {
        self.buffer.as_mut()[0] = 0x45;
    }
    pub fn set_dscp_ecn(&mut self, v: u8) {
        self.buffer.as_mut()[1] = v;
    }
    pub fn set_total_len(&mut self, v: u16) {
        self.buffer.as_mut()[2..4].copy_from_slice(&v.to_be_bytes());
    }
    pub fn set_ident(&mut self, v: u16) {
        self.buffer.as_mut()[4..6].copy_from_slice(&v.to_be_bytes());
    }
    pub fn set_flags_frag(&mut self, v: u16) {
        self.buffer.as_mut()[6..8].copy_from_slice(&v.to_be_bytes());
    }
    pub fn set_ttl(&mut self, v: u8) {
        self.buffer.as_mut()[8] = v;
    }
    pub fn set_protocol(&mut self, v: u8) {
        self.buffer.as_mut()[9] = v;
    }
    pub fn set_src(&mut self, a: Ipv4Address) {
        self.buffer.as_mut()[12..16].copy_from_slice(&a.0);
    }
    pub fn set_dst(&mut self, a: Ipv4Address) {
        self.buffer.as_mut()[16..20].copy_from_slice(&a.0);
    }
    pub fn fill_checksum(&mut self) {
        self.buffer.as_mut()[10..12].copy_from_slice(&[0, 0]);
        let c = checksum::checksum(&self.buffer.as_ref()[..HEADER_LEN]);
        self.buffer.as_mut()[10..12].copy_from_slice(&c.to_be_bytes());
    }
    /// Decrement TTL and recompute the header checksum from scratch
    /// ([`fill_checksum`](Packet::fill_checksum)), not by an RFC 1624
    /// incremental update. The difference shows on a damaged header, and is
    /// pinned behaviour: the switch does not verify the IPv4 checksum, so a
    /// header that took a bit flip on a faulty link leaves the next switch
    /// with a *valid* checksum over the damaged bytes, where an incremental
    /// update would carry the error along. The fault-injecting golden
    /// digests hold this; whether a switch should verify and drop instead is
    /// an open question (ROADMAP, hostile-input hardening).
    pub fn decrement_ttl(&mut self) {
        let ttl = self.ttl();
        self.buffer.as_mut()[8] = ttl.saturating_sub(1);
        self.fill_checksum();
    }
    pub fn payload_mut(&mut self) -> &mut [u8] {
        let hl = self.header_len();
        let tl = self.total_len() as usize;
        &mut self.buffer.as_mut()[hl..tl]
    }
}

/// High-level IPv4 header representation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Repr {
    pub src: Ipv4Address,
    pub dst: Ipv4Address,
    pub protocol: u8,
    pub ttl: u8,
    pub payload_len: usize,
}

impl Repr {
    pub fn parse<T: AsRef<[u8]>>(p: &Packet<T>) -> Option<Repr> {
        if !p.verify_checksum() {
            return None;
        }
        Some(Repr {
            src: p.src(),
            dst: p.dst(),
            protocol: p.protocol(),
            ttl: p.ttl(),
            payload_len: p.total_len() as usize - p.header_len(),
        })
    }

    pub fn buffer_len(&self) -> usize {
        HEADER_LEN + self.payload_len
    }

    pub fn emit<T: AsRef<[u8]> + AsMut<[u8]>>(&self, p: &mut Packet<T>) {
        p.set_version_and_len();
        p.set_dscp_ecn(0);
        p.set_total_len((HEADER_LEN + self.payload_len) as u16);
        p.set_ident(0);
        p.set_flags_frag(0x4000); // don't fragment
        p.set_ttl(self.ttl);
        p.set_protocol(self.protocol);
        p.set_src(self.src);
        p.set_dst(self.dst);
        p.fill_checksum();
    }

    /// Build a full packet: header + payload.
    pub fn encapsulate(&self, payload: &[u8]) -> Vec<u8> {
        debug_assert_eq!(payload.len(), self.payload_len);
        let mut buf = vec![0u8; self.buffer_len()];
        let mut p = Packet::new_unchecked(&mut buf[..]);
        self.emit(&mut p);
        p.payload_mut().copy_from_slice(payload);
        buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_repr() -> Repr {
        Repr {
            src: Ipv4Address::new(10, 0, 0, 1),
            dst: Ipv4Address::new(10, 0, 0, 2),
            protocol: protocol::UDP,
            ttl: 64,
            payload_len: 5,
        }
    }

    #[test]
    fn roundtrip() {
        let repr = sample_repr();
        let bytes = repr.encapsulate(b"abcde");
        let p = Packet::new_checked(&bytes[..]).unwrap();
        assert!(p.verify_checksum());
        assert_eq!(Repr::parse(&p).unwrap(), repr);
        assert_eq!(p.payload(), b"abcde");
    }

    #[test]
    fn corrupt_checksum_detected() {
        let mut bytes = sample_repr().encapsulate(b"abcde");
        bytes[12] ^= 0xFF; // flip a source-address bit pattern
        let p = Packet::new_checked(&bytes[..]).unwrap();
        assert!(!p.verify_checksum());
        assert!(Repr::parse(&p).is_none());
    }

    #[test]
    fn ttl_decrement_keeps_checksum_valid() {
        let mut bytes = sample_repr().encapsulate(b"abcde");
        {
            let mut p = Packet::new_unchecked(&mut bytes[..]);
            p.decrement_ttl();
        }
        let p = Packet::new_checked(&bytes[..]).unwrap();
        assert_eq!(p.ttl(), 63);
        assert!(p.verify_checksum());
    }

    #[test]
    fn ttl_decrement_revalidates_a_damaged_header() {
        // A full recompute, not an incremental update: the error a link
        // fault put in the header does not survive the next TTL rewrite.
        for damaged in [1, 4, 9, 12, 19] {
            let mut bytes = sample_repr().encapsulate(b"abcde");
            bytes[damaged] ^= 0x10;
            assert!(!Packet::new_unchecked(&bytes[..]).verify_checksum(), "byte {damaged}");
            Packet::new_unchecked(&mut bytes[..]).decrement_ttl();
            let p = Packet::new_unchecked(&bytes[..]);
            assert_eq!(p.ttl(), 63);
            assert!(p.verify_checksum(), "byte {damaged}");
        }
    }

    #[test]
    fn malformed_rejected() {
        assert!(Packet::new_checked(&[0u8; 10][..]).is_none());
        let mut bytes = sample_repr().encapsulate(b"abcde");
        bytes[0] = 0x65; // version 6
        assert!(Packet::new_checked(&bytes[..]).is_none());
        let mut bytes2 = sample_repr().encapsulate(b"abcde");
        bytes2[2..4].copy_from_slice(&1000u16.to_be_bytes()); // total_len > buffer
        assert!(Packet::new_checked(&bytes2[..]).is_none());
    }

    #[test]
    fn host_id_addresses() {
        let a = Ipv4Address::from_host_id(1);
        assert_eq!(format!("{a}"), "10.0.0.1");
        assert_eq!(Ipv4Address::from_u32(a.to_u32()), a);
    }

    #[test]
    fn payload_slice_respects_total_len() {
        // Buffer longer than total_len (e.g. Ethernet padding) must be ignored.
        let repr = sample_repr();
        let mut bytes = repr.encapsulate(b"abcde");
        bytes.extend_from_slice(&[0u8; 7]); // padding
        let p = Packet::new_checked(&bytes[..]).unwrap();
        assert_eq!(p.payload(), b"abcde");
    }
}
