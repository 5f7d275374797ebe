//! Host transports: a window-based TCP-Reno-like stream (the Figure 10 /
//! §2.2 baseline) and rate-limited UDP senders (the RCP* and CONGA* flow
//! substrate).
//!
//! The TCP model is deliberately compact: no handshake (connections are
//! pre-established by the experiment), cumulative ACKs with out-of-order
//! reassembly, slow start, congestion avoidance, fast retransmit on three
//! duplicate ACKs, and RTO with exponential backoff. Payload bytes are
//! zeros — only lengths and sequence numbers matter to the experiments.

use std::collections::BTreeMap;

use tpp_core::wire::{ethernet, ipv4, udp, EthernetRepr, Ipv4Address, Ipv4Packet};

use crate::shim::mac_of_ip;

/// Our TCP-like segment header (IP protocol 6), 20 bytes like real TCP.
///
/// ```text
/// 0-1 src_port | 2-3 dst_port | 4-7 seq | 8-11 ack | 12 flags | 13 rsvd
/// 14-15 window | 16-19 reserved
/// ```
pub const SEG_HEADER_LEN: usize = 20;

/// Flags.
pub mod flags {
    pub const ACK: u8 = 0x01;
}

/// A decoded segment header.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SegHeader {
    pub src_port: u16,
    pub dst_port: u16,
    pub seq: u32,
    pub ack: u32,
    pub flags: u8,
    pub payload_len: usize,
}

impl SegHeader {
    pub fn parse(data: &[u8]) -> Option<SegHeader> {
        if data.len() < SEG_HEADER_LEN {
            return None;
        }
        Some(SegHeader {
            src_port: u16::from_be_bytes([data[0], data[1]]),
            dst_port: u16::from_be_bytes([data[2], data[3]]),
            seq: u32::from_be_bytes([data[4], data[5], data[6], data[7]]),
            ack: u32::from_be_bytes([data[8], data[9], data[10], data[11]]),
            flags: data[12],
            payload_len: data.len() - SEG_HEADER_LEN,
        })
    }

    pub fn emit(&self) -> Vec<u8> {
        let mut out = vec![0u8; SEG_HEADER_LEN + self.payload_len];
        out[0..2].copy_from_slice(&self.src_port.to_be_bytes());
        out[2..4].copy_from_slice(&self.dst_port.to_be_bytes());
        out[4..8].copy_from_slice(&self.seq.to_be_bytes());
        out[8..12].copy_from_slice(&self.ack.to_be_bytes());
        out[12] = self.flags;
        out
    }
}

/// Build a full Ethernet frame carrying a segment.
pub fn seg_frame(src_ip: Ipv4Address, dst_ip: Ipv4Address, hdr: &SegHeader) -> Vec<u8> {
    let seg = hdr.emit();
    let ip = ipv4::Repr {
        src: src_ip,
        dst: dst_ip,
        protocol: ipv4::protocol::TCP,
        ttl: 64,
        payload_len: seg.len(),
    };
    EthernetRepr {
        dst: mac_of_ip(dst_ip),
        src: mac_of_ip(src_ip),
        ethertype: ethernet::ethertype::IPV4,
    }
    .encapsulate(&ip.encapsulate(&seg))
}

/// Extract a segment from a received frame, if it is one of ours.
pub fn parse_seg_frame(frame: &[u8]) -> Option<(Ipv4Address, Ipv4Address, SegHeader)> {
    let eth = tpp_core::wire::EthernetFrame::new_checked(frame)?;
    if eth.ethertype() != ethernet::ethertype::IPV4 {
        return None;
    }
    let ip = Ipv4Packet::new_checked(eth.payload())?;
    if ip.protocol() != ipv4::protocol::TCP {
        return None;
    }
    Some((ip.src(), ip.dst(), SegHeader::parse(ip.payload())?))
}

/// A segment the connection wants transmitted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SegOut {
    pub seq: u32,
    pub ack: u32,
    pub flags: u8,
    pub payload_len: usize,
}

/// Reno-style congestion-controlled stream endpoint (sender + receiver).
#[derive(Clone, Debug)]
pub struct TcpConn {
    pub local_port: u16,
    pub peer_port: u16,
    pub mss: usize,
    // Sender state.
    snd_una: u32,
    snd_nxt: u32,
    cwnd: f64,
    ssthresh: f64,
    /// Peer receive window in MSS units (caps cwnd, like a real advertised
    /// window; prevents unbounded growth when the path never drops).
    pub max_cwnd: f64,
    dup_acks: u32,
    /// Total bytes the application wants to send (`u64::MAX` = bulk).
    pub bytes_to_send: u64,
    // RTT estimation (Karn's algorithm: one sample in flight).
    srtt_ns: Option<u64>,
    rttvar_ns: u64,
    rto_ns: u64,
    rtt_probe: Option<(u32, u64)>,
    rto_deadline: Option<u64>,
    backoff: u32,
    // Receiver state.
    rcv_nxt: u32,
    ooo: BTreeMap<u32, u32>,
    /// In-order bytes delivered to the application.
    pub delivered: u64,
    // Counters.
    pub retransmits: u64,
    pub timeouts: u64,
}

/// Initial/min/max RTO for the simulated datacenter environment.
const INIT_RTO_NS: u64 = 10_000_000;
const MIN_RTO_NS: u64 = 1_000_000;
const MAX_RTO_NS: u64 = 2_000_000_000;

impl TcpConn {
    pub fn new(local_port: u16, peer_port: u16, mss: usize) -> Self {
        TcpConn {
            local_port,
            peer_port,
            mss,
            snd_una: 0,
            snd_nxt: 0,
            cwnd: 2.0,
            ssthresh: 64.0,
            max_cwnd: 256.0,
            dup_acks: 0,
            bytes_to_send: u64::MAX,
            srtt_ns: None,
            rttvar_ns: 0,
            rto_ns: INIT_RTO_NS,
            rtt_probe: None,
            rto_deadline: None,
            backoff: 0,
            rcv_nxt: 0,
            ooo: BTreeMap::new(),
            delivered: 0,
            retransmits: 0,
            timeouts: 0,
        }
    }

    pub fn cwnd_bytes(&self) -> u64 {
        (self.cwnd * self.mss as f64) as u64
    }

    /// When the retransmission timer should fire, if armed.
    pub fn rto_deadline(&self) -> Option<u64> {
        self.rto_deadline
    }

    fn arm_rto(&mut self, now: u64) {
        self.rto_deadline = Some(now + self.rto_ns.saturating_mul(1 << self.backoff.min(10)));
    }

    /// New data segments allowed by the window, advancing `snd_nxt`.
    pub fn pump(&mut self, now: u64) -> Vec<SegOut> {
        let mut out = Vec::new();
        let limit = self.snd_una as u64 + self.cwnd_bytes();
        while (self.snd_nxt as u64) < limit && (self.snd_nxt as u64) < self.bytes_to_send {
            let remaining = self.bytes_to_send - self.snd_nxt as u64;
            let window = limit - self.snd_nxt as u64;
            // Silly-window avoidance: never emit a sub-MSS segment unless it
            // is the final chunk of the stream.
            if window < self.mss as u64 && window < remaining {
                break;
            }
            let len = (self.mss as u64).min(remaining).min(window) as usize;
            if len == 0 {
                break;
            }
            out.push(SegOut { seq: self.snd_nxt, ack: self.rcv_nxt, flags: 0, payload_len: len });
            if self.rtt_probe.is_none() {
                self.rtt_probe = Some((self.snd_nxt.wrapping_add(len as u32), now));
            }
            self.snd_nxt = self.snd_nxt.wrapping_add(len as u32);
        }
        if !out.is_empty() && self.rto_deadline.is_none() {
            self.arm_rto(now);
        }
        out
    }

    /// Process a received segment; returns segments to send in response
    /// (ACKs, fast retransmits). Call [`TcpConn::pump`] afterwards.
    pub fn on_segment(&mut self, now: u64, hdr: &SegHeader) -> Vec<SegOut> {
        let mut out = Vec::new();

        // --- Receiver side: data?
        if hdr.payload_len > 0 {
            let seq = hdr.seq;
            let len = hdr.payload_len as u32;
            if seq == self.rcv_nxt {
                self.rcv_nxt = self.rcv_nxt.wrapping_add(len);
                // Drain contiguous out-of-order segments.
                while let Some((&s, &l)) = self.ooo.first_key_value() {
                    if s == self.rcv_nxt {
                        self.rcv_nxt = self.rcv_nxt.wrapping_add(l);
                        self.ooo.remove(&s);
                    } else if s < self.rcv_nxt {
                        self.ooo.remove(&s); // stale
                    } else {
                        break;
                    }
                }
            } else if seq > self.rcv_nxt {
                self.ooo.insert(seq, len);
            } // else: duplicate of already-received data
            self.delivered = self.rcv_nxt as u64;
            out.push(SegOut {
                seq: self.snd_nxt,
                ack: self.rcv_nxt,
                flags: flags::ACK,
                payload_len: 0,
            });
        }

        // --- Sender side: ACK?
        if hdr.flags & flags::ACK != 0 {
            let ack = hdr.ack;
            if ack > self.snd_una {
                let newly = (ack - self.snd_una) as u64;
                self.snd_una = ack;
                self.dup_acks = 0;
                self.backoff = 0;
                // RTT sample.
                if let Some((probe_seq, sent_at)) = self.rtt_probe {
                    if ack >= probe_seq {
                        self.update_rtt(now.saturating_sub(sent_at));
                        self.rtt_probe = None;
                    }
                }
                // Window growth.
                let acked_mss = newly as f64 / self.mss as f64;
                if self.cwnd < self.ssthresh {
                    self.cwnd += acked_mss; // slow start
                } else {
                    self.cwnd += acked_mss / self.cwnd; // congestion avoidance
                }
                self.cwnd = self.cwnd.min(self.max_cwnd);
                // Re-arm or disarm the RTO.
                if self.snd_una == self.snd_nxt {
                    self.rto_deadline = None;
                } else {
                    self.arm_rto(now);
                }
            } else if ack == self.snd_una && self.snd_nxt != self.snd_una {
                self.dup_acks += 1;
                if self.dup_acks == 3 {
                    // Fast retransmit.
                    self.ssthresh = (self.cwnd / 2.0).max(2.0);
                    self.cwnd = self.ssthresh;
                    self.retransmits += 1;
                    let len =
                        (self.mss as u64).min(self.bytes_to_send - self.snd_una as u64) as usize;
                    out.push(SegOut {
                        seq: self.snd_una,
                        ack: self.rcv_nxt,
                        flags: 0,
                        payload_len: len,
                    });
                    self.rtt_probe = None; // Karn: no sample from retransmit
                    self.arm_rto(now);
                }
            }
        }
        out
    }

    /// The retransmission timer fired (call only when `now >=
    /// rto_deadline()`). Returns the go-back-N retransmission.
    pub fn on_rto(&mut self, now: u64) -> Vec<SegOut> {
        self.rto_deadline = None;
        if self.snd_una == self.snd_nxt {
            return Vec::new(); // nothing outstanding
        }
        self.timeouts += 1;
        self.retransmits += 1;
        self.ssthresh = (self.cwnd / 2.0).max(2.0);
        self.cwnd = 1.0;
        self.snd_nxt = self.snd_una; // go-back-N
        self.backoff = (self.backoff + 1).min(10);
        self.rtt_probe = None;
        let out = self.pump(now);
        self.arm_rto(now);
        out
    }

    fn update_rtt(&mut self, sample_ns: u64) {
        match self.srtt_ns {
            None => {
                self.srtt_ns = Some(sample_ns);
                self.rttvar_ns = sample_ns / 2;
            }
            Some(srtt) => {
                let diff = srtt.abs_diff(sample_ns);
                self.rttvar_ns = (3 * self.rttvar_ns + diff) / 4;
                self.srtt_ns = Some((7 * srtt + sample_ns) / 8);
            }
        }
        let srtt = self.srtt_ns.unwrap();
        self.rto_ns = (srtt + 4 * self.rttvar_ns).clamp(MIN_RTO_NS, MAX_RTO_NS);
    }

    /// Render a [`SegOut`] as a frame between the connection's endpoints.
    pub fn frame_for(&self, src: Ipv4Address, dst: Ipv4Address, seg: &SegOut) -> Vec<u8> {
        seg_frame(
            src,
            dst,
            &SegHeader {
                src_port: self.local_port,
                dst_port: self.peer_port,
                seq: seg.seq,
                ack: seg.ack,
                flags: seg.flags,
                payload_len: seg.payload_len,
            },
        )
    }
}

/// A paced constant-bit-rate UDP sender whose rate can be retargeted at any
/// time — the "rate limiter" of the RCP* end-host implementation (§2.2).
/// Its one setting is the rate; every frame it paces carries
/// [`PacedSender::PAYLOAD`] bytes.
#[derive(Clone, Debug)]
pub struct PacedSender {
    pub rate_bps: f64,
    next_send_ns: u64,
}

impl PacedSender {
    /// Payload bytes of every paced data frame (RCP*, the WAN fan-out and
    /// CONGA* build theirs with it). The pacer spaces frames by this payload
    /// plus the Ethernet, IPv4 and UDP headers, 1,042 bytes on the wire.
    pub const PAYLOAD: usize = 1000;

    pub fn new(rate_bps: f64) -> Self {
        PacedSender { rate_bps, next_send_ns: 0 }
    }

    pub fn set_rate(&mut self, rate_bps: f64) {
        self.rate_bps = rate_bps.max(1.0);
    }

    fn interval_ns(&self) -> u64 {
        let wire = Self::PAYLOAD + ethernet::HEADER_LEN + ipv4::HEADER_LEN + udp::HEADER_LEN;
        let bits = (wire * 8) as f64;
        (bits / self.rate_bps * 1e9) as u64
    }

    /// How many packets are due at `now`; advances internal state. The
    /// caller should re-poll at [`PacedSender::next_deadline`].
    pub fn due(&mut self, now: u64) -> usize {
        let mut n = 0;
        // Cap catch-up bursts at 32 packets so a rate increase doesn't dump
        // an unbounded burst.
        while self.next_send_ns <= now && n < 32 {
            n += 1;
            self.next_send_ns =
                self.next_send_ns.max(now.saturating_sub(self.interval_ns())) + self.interval_ns();
        }
        n
    }

    pub fn next_deadline(&self) -> u64 {
        self.next_send_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(conn: &mut TcpConn, now: u64) -> Vec<SegOut> {
        conn.pump(now)
    }

    /// Drive two connections over a perfect, instant link until `steps`
    /// exchanges complete. Returns total delivered at the receiver.
    fn run_lossless(bytes: u64, steps: usize) -> (TcpConn, TcpConn) {
        let mut a = TcpConn::new(1, 2, 1000);
        a.bytes_to_send = bytes;
        let mut b = TcpConn::new(2, 1, 1000);
        b.bytes_to_send = 0;
        let mut now = 0u64;
        let mut wire: Vec<(bool, SegOut)> =
            drain(&mut a, now).into_iter().map(|s| (true, s)).collect();
        for _ in 0..steps {
            if wire.is_empty() {
                break;
            }
            now += 1000;
            let mut next = Vec::new();
            for (from_a, seg) in wire.drain(..) {
                let hdr = SegHeader {
                    src_port: 0,
                    dst_port: 0,
                    seq: seg.seq,
                    ack: seg.ack,
                    flags: seg.flags,
                    payload_len: seg.payload_len,
                };
                if from_a {
                    for r in b.on_segment(now, &hdr) {
                        next.push((false, r));
                    }
                } else {
                    for r in a.on_segment(now, &hdr) {
                        next.push((true, r));
                    }
                    for r in a.pump(now) {
                        next.push((true, r));
                    }
                }
            }
            wire = next;
        }
        (a, b)
    }

    #[test]
    fn bulk_transfer_completes() {
        let (a, b) = run_lossless(50_000, 10_000);
        assert_eq!(b.delivered, 50_000);
        assert_eq!(a.snd_una, 50_000, "every byte acknowledged");
        assert_eq!(a.retransmits, 0);
    }

    #[test]
    fn slow_start_doubles_window() {
        let mut a = TcpConn::new(1, 2, 1000);
        a.bytes_to_send = u64::MAX;
        let w0 = a.pump(0).len(); // initial cwnd = 2
        assert_eq!(w0, 2);
        // ACK both: cwnd 2 -> 4.
        let ack = SegHeader {
            src_port: 0,
            dst_port: 0,
            seq: 0,
            ack: 2000,
            flags: flags::ACK,
            payload_len: 0,
        };
        a.on_segment(1000, &ack);
        let w1 = a.pump(1000).len();
        assert_eq!(w1, 4);
    }

    #[test]
    fn congestion_avoidance_grows_linearly() {
        let mut a = TcpConn::new(1, 2, 1000);
        a.ssthresh = 2.0; // force CA immediately
        a.bytes_to_send = u64::MAX;
        let before = a.cwnd;
        let segs = a.pump(0);
        let mut acked = 0;
        for s in &segs {
            acked += s.payload_len as u32;
        }
        let ack = SegHeader {
            src_port: 0,
            dst_port: 0,
            seq: 0,
            ack: acked,
            flags: flags::ACK,
            payload_len: 0,
        };
        a.on_segment(1000, &ack);
        // Gained ~1 MSS per cwnd of data.
        assert!(a.cwnd - before > 0.9 && a.cwnd - before < 1.1, "cwnd {} -> {}", before, a.cwnd);
    }

    #[test]
    fn triple_dupack_fast_retransmit() {
        let mut a = TcpConn::new(1, 2, 1000);
        a.bytes_to_send = u64::MAX;
        a.cwnd = 8.0;
        let _segs = a.pump(0);
        let cwnd_before = a.cwnd;
        let dup = SegHeader {
            src_port: 0,
            dst_port: 0,
            seq: 0,
            ack: 0,
            flags: flags::ACK,
            payload_len: 0,
        };
        assert!(a.on_segment(10, &dup).is_empty());
        assert!(a.on_segment(20, &dup).is_empty());
        let rtx = a.on_segment(30, &dup);
        assert_eq!(rtx.len(), 1);
        assert_eq!(rtx[0].seq, 0);
        assert!(a.cwnd < cwnd_before);
        assert_eq!(a.retransmits, 1);
    }

    #[test]
    fn rto_go_back_n() {
        let mut a = TcpConn::new(1, 2, 1000);
        a.bytes_to_send = u64::MAX;
        let segs = a.pump(0);
        assert!(!segs.is_empty());
        let deadline = a.rto_deadline().unwrap();
        let rtx = a.on_rto(deadline);
        assert!(!rtx.is_empty());
        assert_eq!(rtx[0].seq, 0);
        assert_eq!(a.timeouts, 1);
        assert_eq!(a.cwnd as u32, 1);
        // Backoff doubles the next deadline interval.
        let d2 = a.rto_deadline().unwrap();
        assert!(d2 - deadline >= a.rto_ns);
    }

    #[test]
    fn receiver_reassembles_out_of_order() {
        let mut b = TcpConn::new(2, 1, 1000);
        let seg = |seq, len| SegHeader {
            src_port: 0,
            dst_port: 0,
            seq,
            ack: 0,
            flags: 0,
            payload_len: len,
        };
        // Deliver 1000..2000 first (out of order).
        let acks = b.on_segment(0, &seg(1000, 1000));
        assert_eq!(acks[0].ack, 0); // dup-ack semantics
        assert_eq!(b.delivered, 0);
        let acks = b.on_segment(10, &seg(0, 1000));
        assert_eq!(acks[0].ack, 2000); // both segments now in order
        assert_eq!(b.delivered, 2000);
    }

    #[test]
    fn rtt_estimation_converges() {
        let mut a = TcpConn::new(1, 2, 1000);
        a.bytes_to_send = u64::MAX;
        let mut now = 0;
        for _ in 0..20 {
            let segs = a.pump(now);
            let end = segs.iter().map(|s| s.seq + s.payload_len as u32).max().unwrap_or(a.snd_una);
            now += 5_000_000; // 5 ms RTT
            let ack = SegHeader {
                src_port: 0,
                dst_port: 0,
                seq: 0,
                ack: end,
                flags: flags::ACK,
                payload_len: 0,
            };
            a.on_segment(now, &ack);
        }
        let srtt = a.srtt_ns.unwrap();
        assert!((4_000_000..6_000_000).contains(&srtt), "srtt {srtt}");
    }

    #[test]
    fn seg_frame_roundtrip() {
        let src = Ipv4Address::from_host_id(1);
        let dst = Ipv4Address::from_host_id(2);
        let hdr = SegHeader {
            src_port: 7,
            dst_port: 9,
            seq: 100,
            ack: 50,
            flags: flags::ACK,
            payload_len: 64,
        };
        let frame = seg_frame(src, dst, &hdr);
        let (s, d, back) = parse_seg_frame(&frame).unwrap();
        assert_eq!((s, d), (src, dst));
        assert_eq!(back, hdr);
    }

    #[test]
    fn paced_sender_rate() {
        // 10 Mb/s with 1000B payloads (+42B overhead): one packet per
        // 833.6 us.
        let mut p = PacedSender::new(10e6);
        let mut sent = 0;
        let mut now = 0;
        while now < 1_000_000_000 {
            sent += p.due(now);
            now = p.next_deadline();
        }
        // ~1200 packets in 1 s.
        assert!((1100..1300).contains(&sent), "sent {sent}");
    }

    #[test]
    fn paced_sender_rate_change() {
        let mut p = PacedSender::new(1e6);
        let d1 = p.interval_ns();
        p.set_rate(2e6);
        assert!(p.interval_ns() < d1);
    }
}
