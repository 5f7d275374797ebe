//! Ethernet II framing.

use core::fmt;

/// A MAC address.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub struct EthernetAddress(pub [u8; 6]);

impl EthernetAddress {
    pub const BROADCAST: EthernetAddress = EthernetAddress([0xFF; 6]);

    /// Deterministic locally-administered address for a simulated node.
    pub fn from_node_id(id: u32) -> Self {
        let b = id.to_be_bytes();
        EthernetAddress([0x02, 0x00, b[0], b[1], b[2], b[3]])
    }
}

impl fmt::Debug for EthernetAddress {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl fmt::Display for EthernetAddress {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let b = self.0;
        write!(f, "{:02x}:{:02x}:{:02x}:{:02x}:{:02x}:{:02x}", b[0], b[1], b[2], b[3], b[4], b[5])
    }
}

/// `EtherType` values understood by the parse graph (Figure 7a).
pub mod ethertype {
    /// A TPP in transparent (piggy-backed) mode.
    pub const TPP: u16 = 0x6666;
    pub const IPV4: u16 = 0x0800;
    pub const ARP: u16 = 0x0806;
}

/// Ethernet II header length.
pub const HEADER_LEN: usize = 14;

/// A typed view over an Ethernet II frame.
///
/// Follows the smoltcp convention: `Frame<&[u8]>` for read access,
/// `Frame<&mut [u8]>` for in-place rewriting.
pub struct Frame<T: AsRef<[u8]>> {
    buffer: T,
}

impl<T: AsRef<[u8]>> Frame<T> {
    /// Wrap a buffer, checking the minimum length.
    pub fn new_checked(buffer: T) -> Option<Frame<T>> {
        if buffer.as_ref().len() < HEADER_LEN {
            return None;
        }
        Some(Frame { buffer })
    }

    /// Wrap without checking (caller guarantees length).
    pub fn new_unchecked(buffer: T) -> Frame<T> {
        Frame { buffer }
    }

    pub fn ethertype(&self) -> u16 {
        let b = self.buffer.as_ref();
        u16::from_be_bytes([b[12], b[13]])
    }

    pub fn payload(&self) -> &[u8] {
        &self.buffer.as_ref()[HEADER_LEN..]
    }
}

impl<T: AsRef<[u8]> + AsMut<[u8]>> Frame<T> {
    pub fn set_dst(&mut self, addr: EthernetAddress) {
        self.buffer.as_mut()[0..6].copy_from_slice(&addr.0);
    }
    pub fn set_src(&mut self, addr: EthernetAddress) {
        self.buffer.as_mut()[6..12].copy_from_slice(&addr.0);
    }
    pub fn set_ethertype(&mut self, ty: u16) {
        self.buffer.as_mut()[12..14].copy_from_slice(&ty.to_be_bytes());
    }
    pub fn payload_mut(&mut self) -> &mut [u8] {
        &mut self.buffer.as_mut()[HEADER_LEN..]
    }
}

/// High-level representation of an Ethernet header.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Repr {
    pub dst: EthernetAddress,
    pub src: EthernetAddress,
    pub ethertype: u16,
}

impl Repr {
    pub fn emit<T: AsRef<[u8]> + AsMut<[u8]>>(&self, frame: &mut Frame<T>) {
        frame.set_dst(self.dst);
        frame.set_src(self.src);
        frame.set_ethertype(self.ethertype);
    }

    /// Build a full frame: header + payload.
    pub fn encapsulate(&self, payload: &[u8]) -> Vec<u8> {
        let mut buf = vec![0u8; HEADER_LEN + payload.len()];
        let mut frame = Frame::new_unchecked(&mut buf[..]);
        self.emit(&mut frame);
        frame.payload_mut().copy_from_slice(payload);
        buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The decode, as the oracle of `emit`.
    impl<T: AsRef<[u8]>> Frame<T> {
        fn dst(&self) -> EthernetAddress {
            let b = self.buffer.as_ref();
            EthernetAddress(b[0..6].try_into().unwrap())
        }

        fn src(&self) -> EthernetAddress {
            let b = self.buffer.as_ref();
            EthernetAddress(b[6..12].try_into().unwrap())
        }
    }

    impl Repr {
        fn parse<T: AsRef<[u8]>>(frame: &Frame<T>) -> Repr {
            Repr { dst: frame.dst(), src: frame.src(), ethertype: frame.ethertype() }
        }
    }

    #[test]
    fn roundtrip() {
        let repr = Repr {
            dst: EthernetAddress([1, 2, 3, 4, 5, 6]),
            src: EthernetAddress::from_node_id(42),
            ethertype: ethertype::TPP,
        };
        let frame_bytes = repr.encapsulate(b"hello");
        let frame = Frame::new_checked(&frame_bytes[..]).unwrap();
        assert_eq!(Repr::parse(&frame), repr);
        assert_eq!(frame.payload(), b"hello");
    }

    #[test]
    fn too_short_rejected() {
        assert!(Frame::new_checked(&[0u8; 13][..]).is_none());
        assert!(Frame::new_checked(&[0u8; 14][..]).is_some());
    }

    #[test]
    fn address_properties() {
        let a = EthernetAddress::from_node_id(7);
        assert_eq!(format!("{a}"), "02:00:00:00:00:07");
    }

    #[test]
    fn node_ids_unique() {
        let a = EthernetAddress::from_node_id(1);
        let b = EthernetAddress::from_node_id(256);
        assert_ne!(a, b);
    }
}
