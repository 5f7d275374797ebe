//! UDP datagram format. A TPP in standalone mode lives in a UDP datagram
//! with destination port 0x6666 (Figure 7a).

use super::checksum;
use super::ipv4::Ipv4Address;

/// The UDP port usurped by TPP-enabled routers (Figure 7a).
pub const TPP_PORT: u16 = 0x6666;

pub const HEADER_LEN: usize = 8;

/// Typed view over a UDP datagram.
pub struct Datagram<T: AsRef<[u8]>> {
    buffer: T,
}

impl<T: AsRef<[u8]>> Datagram<T> {
    pub fn new_checked(buffer: T) -> Option<Datagram<T>> {
        let len = buffer.as_ref().len();
        if len < HEADER_LEN {
            return None;
        }
        let d = Datagram { buffer };
        let l = d.len() as usize;
        if l < HEADER_LEN || l > len {
            return None;
        }
        Some(d)
    }

    pub fn new_unchecked(buffer: T) -> Datagram<T> {
        Datagram { buffer }
    }

    pub fn into_inner(self) -> T {
        self.buffer
    }

    pub fn src_port(&self) -> u16 {
        let b = self.buffer.as_ref();
        u16::from_be_bytes([b[0], b[1]])
    }
    pub fn dst_port(&self) -> u16 {
        let b = self.buffer.as_ref();
        u16::from_be_bytes([b[2], b[3]])
    }
    pub fn len(&self) -> u16 {
        let b = self.buffer.as_ref();
        u16::from_be_bytes([b[4], b[5]])
    }
    pub fn is_empty(&self) -> bool {
        self.len() as usize == HEADER_LEN
    }
    pub fn checksum_field(&self) -> u16 {
        let b = self.buffer.as_ref();
        u16::from_be_bytes([b[6], b[7]])
    }
    pub fn payload(&self) -> &[u8] {
        &self.buffer.as_ref()[HEADER_LEN..self.len() as usize]
    }

    /// Verify the UDP checksum given the IPv4 pseudo-header. A zero checksum
    /// field means "not computed" and always verifies (RFC 768).
    pub fn verify_checksum(&self, src: Ipv4Address, dst: Ipv4Address) -> bool {
        if self.checksum_field() == 0 {
            return true;
        }
        let data = &self.buffer.as_ref()[..self.len() as usize];
        let ph = checksum::pseudo_header_sum(src.0, dst.0, super::ipv4::protocol::UDP, self.len());
        checksum::combine(&[ph, checksum::sum(data)]) == 0xFFFF
    }
}

impl<T: AsRef<[u8]> + AsMut<[u8]>> Datagram<T> {
    pub fn set_src_port(&mut self, v: u16) {
        self.buffer.as_mut()[0..2].copy_from_slice(&v.to_be_bytes());
    }
    pub fn set_dst_port(&mut self, v: u16) {
        self.buffer.as_mut()[2..4].copy_from_slice(&v.to_be_bytes());
    }
    pub fn set_len(&mut self, v: u16) {
        self.buffer.as_mut()[4..6].copy_from_slice(&v.to_be_bytes());
    }
    pub fn payload_mut(&mut self) -> &mut [u8] {
        let l = self.len() as usize;
        &mut self.buffer.as_mut()[HEADER_LEN..l]
    }
    pub fn fill_checksum(&mut self, src: Ipv4Address, dst: Ipv4Address) {
        let len = self.len() as usize;
        self.fill_checksum_over(src, dst, len);
    }

    /// [`fill_checksum`](Datagram::fill_checksum) for a datagram whose bytes
    /// past the first `covered` are all zero: zeros add nothing to a
    /// ones'-complement sum, so only those `covered` bytes are summed. The
    /// value is the same, since a datagram is never all zero (its length
    /// field is at least 8), so both sums land on the one non-zero
    /// representative of their residue.
    pub(crate) fn fill_checksum_over(
        &mut self,
        src: Ipv4Address,
        dst: Ipv4Address,
        covered: usize,
    ) {
        self.buffer.as_mut()[6..8].copy_from_slice(&[0, 0]);
        let len = self.len();
        let data = &self.buffer.as_ref()[..covered];
        let ph = checksum::pseudo_header_sum(src.0, dst.0, super::ipv4::protocol::UDP, len);
        let mut c = !checksum::combine(&[ph, checksum::sum(data)]);
        if c == 0 {
            c = 0xFFFF; // RFC 768: transmitted as all-ones if computed as zero
        }
        self.buffer.as_mut()[6..8].copy_from_slice(&c.to_be_bytes());
    }
}

/// High-level UDP header representation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Repr {
    pub src_port: u16,
    pub dst_port: u16,
    pub payload_len: usize,
}

impl Repr {
    pub fn parse<T: AsRef<[u8]>>(d: &Datagram<T>) -> Repr {
        Repr {
            src_port: d.src_port(),
            dst_port: d.dst_port(),
            payload_len: d.len() as usize - HEADER_LEN,
        }
    }

    pub fn buffer_len(&self) -> usize {
        HEADER_LEN + self.payload_len
    }

    /// Build a full datagram with checksum over the pseudo-header.
    pub fn encapsulate(&self, src: Ipv4Address, dst: Ipv4Address, payload: &[u8]) -> Vec<u8> {
        debug_assert_eq!(payload.len(), self.payload_len);
        let mut buf = vec![0u8; self.buffer_len()];
        let mut d = Datagram::new_unchecked(&mut buf[..]);
        d.set_src_port(self.src_port);
        d.set_dst_port(self.dst_port);
        d.set_len((HEADER_LEN + payload.len()) as u16);
        d.payload_mut().copy_from_slice(payload);
        d.fill_checksum(src, dst);
        buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addrs() -> (Ipv4Address, Ipv4Address) {
        (Ipv4Address::new(10, 0, 0, 1), Ipv4Address::new(10, 0, 0, 2))
    }

    #[test]
    fn roundtrip_with_checksum() {
        let (src, dst) = addrs();
        let repr = Repr { src_port: 5555, dst_port: TPP_PORT, payload_len: 4 };
        let bytes = repr.encapsulate(src, dst, b"abcd");
        let d = Datagram::new_checked(&bytes[..]).unwrap();
        assert_eq!(Repr::parse(&d), repr);
        assert!(d.verify_checksum(src, dst));
        assert_eq!(d.payload(), b"abcd");
    }

    #[test]
    fn corruption_detected() {
        let (src, dst) = addrs();
        let repr = Repr { src_port: 1, dst_port: 2, payload_len: 4 };
        let mut bytes = repr.encapsulate(src, dst, b"abcd");
        bytes[9] ^= 0x40;
        let d = Datagram::new_checked(&bytes[..]).unwrap();
        assert!(!d.verify_checksum(src, dst));
        // Wrong pseudo-header (different dst) must also fail.
        let bytes2 = repr.encapsulate(src, dst, b"abcd");
        let d2 = Datagram::new_checked(&bytes2[..]).unwrap();
        assert!(!d2.verify_checksum(src, Ipv4Address::new(10, 0, 0, 3)));
    }

    #[test]
    fn zero_checksum_accepted() {
        let (src, dst) = addrs();
        let repr = Repr { src_port: 1, dst_port: 2, payload_len: 0 };
        let mut bytes = repr.encapsulate(src, dst, b"");
        bytes[6] = 0;
        bytes[7] = 0;
        let d = Datagram::new_checked(&bytes[..]).unwrap();
        assert!(d.verify_checksum(src, dst));
    }

    #[test]
    fn length_validation() {
        assert!(Datagram::new_checked(&[0u8; 7][..]).is_none());
        let mut hdr = [0u8; 8];
        hdr[4..6].copy_from_slice(&20u16.to_be_bytes()); // len > buffer
        assert!(Datagram::new_checked(&hdr[..]).is_none());
        let mut hdr2 = [0u8; 8];
        hdr2[4..6].copy_from_slice(&4u16.to_be_bytes()); // len < header
        assert!(Datagram::new_checked(&hdr2[..]).is_none());
    }
}
