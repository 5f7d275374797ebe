//! Shared plumbing for TPP applications: frame construction, rate meters,
//! and the standard shim-wiring pattern every app uses.
//!
//! An application's results are plain fields of its state. Its callbacks
//! write them through the `&mut` state the harness hands them, and the
//! experiment reads them after the run through
//! `Network::app_mut::<Endhost<S>>`, which derefs to the state.

use tpp_core::wire::{
    ethernet, ipv4, udp, udp_frame_into, Ipv4Address, Ipv4Packet, UdpDatagram, UdpFrameRepr,
};
use tpp_endhost::shim::mac_of_ip;
use tpp_endhost::ExecutorConfig;
use tpp_netsim::{Time, Topology};

/// Default UDP port for application data traffic in experiments.
pub const DATA_PORT: u16 = 5001;

/// Retries a periodic controller's probe gets before it counts as failed.
const CONTROL_RETRIES: u32 = 3;

/// A periodic controller's probe is first retried this many control
/// periods after it was sent. Four periods fall inside the probe's round
/// trip on a loaded path: with them the RCP* paper run retransmits a fifth
/// of its probes, every one of which is answered.
const CONTROL_TIMEOUT_PERIODS: u64 = 8;

/// The executor settings of the periodic path controller (`rcp::RcpSender`,
/// under either law), which launches one probe per path every `period_ns`:
/// [`CONTROL_RETRIES`] retries, the first after [`CONTROL_TIMEOUT_PERIODS`]
/// periods.
pub(crate) fn control_executor(period_ns: Time) -> ExecutorConfig {
    ExecutorConfig { max_retries: CONTROL_RETRIES, timeout_ns: CONTROL_TIMEOUT_PERIODS * period_ns }
}

/// Leave the destination port out of ECMP hashing on every switch (§2.4): a
/// standalone TPP (UDP port 0x6666) sent from its flow's source port then
/// follows the flow's data, and reads and writes the links the data crosses.
pub(crate) fn hash_ecmp_without_dst_port(topo: &mut Topology) {
    for &s in &topo.switches {
        topo.net.switch_mut(s).cfg.ecmp_hash_dst_port = false;
    }
}

/// Expand to a `&'static Probe` built once from the given constructor —
/// decode paths run per received packet, and a probe schema is immutable.
macro_rules! static_schema {
    ($ctor:path) => {{
        static SCHEMA: std::sync::OnceLock<tpp_core::probe::Probe> = std::sync::OnceLock::new();
        SCHEMA.get_or_init($ctor)
    }};
}
pub(crate) use static_schema;

/// Build a UDP data frame between two simulated hosts (zero payload bytes;
/// only lengths matter).
pub fn udp_frame(
    src_ip: Ipv4Address,
    dst_ip: Ipv4Address,
    src_port: u16,
    dst_port: u16,
    payload_len: usize,
) -> Vec<u8> {
    let mut frame = Vec::new();
    udp_frame_into(&mut frame, &udp_hdr(src_ip, dst_ip, src_port, dst_port), payload_len, &[]);
    frame
}

/// The addressing [`udp_frame`] gives a frame, for building one with
/// `udp_frame_into` in a buffer of the caller's.
pub(crate) fn udp_hdr(
    src_ip: Ipv4Address,
    dst_ip: Ipv4Address,
    src_port: u16,
    dst_port: u16,
) -> UdpFrameRepr {
    UdpFrameRepr {
        src_mac: mac_of_ip(src_ip),
        dst_mac: mac_of_ip(dst_ip),
        src_ip,
        dst_ip,
        src_port,
        dst_port,
    }
}

/// Parsed view of a received UDP frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct UdpInfo {
    pub src: Ipv4Address,
    pub dst: Ipv4Address,
    pub src_port: u16,
    pub dst_port: u16,
    pub payload_len: usize,
}

/// Parse a UDP frame (post-shim, i.e. TPP already stripped).
pub fn parse_udp(frame: &[u8]) -> Option<UdpInfo> {
    let eth = tpp_core::wire::EthernetFrame::new_checked(frame)?;
    if eth.ethertype() != ethernet::ethertype::IPV4 {
        return None;
    }
    let ip = Ipv4Packet::new_checked(eth.payload())?;
    if ip.protocol() != ipv4::protocol::UDP {
        return None;
    }
    let u = UdpDatagram::new_checked(ip.payload())?;
    Some(UdpInfo {
        src: ip.src(),
        dst: ip.dst(),
        src_port: u.src_port(),
        dst_port: u.dst_port(),
        payload_len: u.length() as usize - udp::HEADER_LEN,
    })
}

/// Accumulates byte arrivals into fixed time buckets and reports a rate
/// series — how every throughput-vs-time figure in the paper is produced.
#[derive(Clone, Debug)]
pub struct RateMeter {
    pub bucket_ns: Time,
    buckets: Vec<u64>,
    pub total_bytes: u64,
}

impl RateMeter {
    pub fn new(bucket_ns: Time) -> Self {
        RateMeter { bucket_ns, buckets: Vec::new(), total_bytes: 0 }
    }

    pub fn record(&mut self, now: Time, bytes: u64) {
        let idx = (now / self.bucket_ns) as usize;
        if idx >= self.buckets.len() {
            self.buckets.resize(idx + 1, 0);
        }
        self.buckets[idx] += bytes;
        self.total_bytes += bytes;
    }

    /// `(bucket start seconds, Mb/s)` series.
    pub fn series_mbps(&self) -> Vec<(f64, f64)> {
        self.buckets
            .iter()
            .enumerate()
            .map(|(i, &b)| {
                let t = i as f64 * self.bucket_ns as f64 / 1e9;
                let mbps = b as f64 * 8.0 / (self.bucket_ns as f64 / 1e9) / 1e6;
                (t, mbps)
            })
            .collect()
    }

    /// Average rate over `[from_s, to_s)` in Mb/s. The divisor is the whole
    /// window: buckets past the last arrival count as zero.
    pub fn avg_mbps(&self, from_s: f64, to_s: f64) -> f64 {
        let from = (from_s * 1e9 / self.bucket_ns as f64) as usize;
        let to = (to_s * 1e9 / self.bucket_ns as f64) as usize;
        if to <= from {
            return 0.0;
        }
        let bytes: u64 = self.buckets.iter().take(to).skip(from).sum();
        bytes as f64 * 8.0 / ((to - from) as f64 * self.bucket_ns as f64 / 1e9) / 1e6
    }
}

/// The last [`HopWindows::LEN`] readings of one statistic at each hop of a
/// path, averaged to de-noise a per-hop signal over recent control periods.
#[derive(Debug)]
pub struct HopWindows {
    /// Per hop: a ring of readings and how many were ever recorded.
    hops: Vec<([u32; HopWindows::LEN], usize)>,
}

impl HopWindows {
    /// Readings kept per hop.
    pub const LEN: usize = 8;

    /// Windows for the first `hops` hops of a path.
    pub fn new(hops: usize) -> Self {
        HopWindows { hops: vec![([0; Self::LEN], 0); hops] }
    }

    /// Record hop `h`'s latest reading; a hop past the windows is ignored.
    pub fn record(&mut self, h: usize, reading: u32) {
        if let Some((ring, n)) = self.hops.get_mut(h) {
            ring[*n % Self::LEN] = reading;
            *n += 1;
        }
    }

    /// The mean of hop `h`'s window, or `latest` for a hop with no readings
    /// (none recorded yet, or a hop past the windows).
    pub fn mean(&self, h: usize, latest: u32) -> f64 {
        match self.hops.get(h) {
            Some((ring, n)) if *n > 0 => {
                let kept = &ring[..(*n).min(Self::LEN)];
                // Whole numbers below 2^35: the sum is exact in any order.
                kept.iter().map(|&r| r as f64).sum::<f64>() / kept.len() as f64
            }
            _ => latest as f64,
        }
    }
}

/// A minimal host that runs only the dataplane shim: it echoes completed
/// standalone TPPs back to their source (§4.2) and counts received data.
/// Probe destinations in experiments run this when they have no other role.
pub struct Responder {
    pub data_bytes: u64,
}

impl Responder {
    /// A wired responder (echoing is the harness's default behaviour; the
    /// only app logic is the byte counter).
    pub fn new() -> tpp_endhost::Endhost<Responder> {
        tpp_endhost::Harness::new(Responder { data_bytes: 0 })
            .on_deliver(|s: &mut Responder, _io, inner| {
                if let Some(info) = parse_udp(&inner) {
                    s.data_bytes += info.payload_len as u64;
                }
            })
            .build()
            .expect("static wiring")
    }
}

/// Empirical CDF of a sample set: returns `(value, fraction <= value)`.
pub fn cdf(samples: &[u32]) -> Vec<(u32, f64)> {
    if samples.is_empty() {
        return Vec::new();
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let n = sorted.len() as f64;
    let mut out = Vec::new();
    let mut i = 0;
    while i < sorted.len() {
        let v = sorted[i];
        let mut j = i;
        while j < sorted.len() && sorted[j] == v {
            j += 1;
        }
        out.push((v, j as f64 / n));
        i = j;
    }
    out
}

/// The fraction of samples <= `value` from a CDF produced by [`cdf`].
pub fn cdf_at(cdf: &[(u32, f64)], value: u32) -> f64 {
    let mut frac = 0.0;
    for &(v, f) in cdf {
        if v <= value {
            frac = f;
        } else {
            break;
        }
    }
    frac
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn udp_frame_roundtrip() {
        let f = udp_frame(Ipv4Address::from_host_id(1), Ipv4Address::from_host_id(2), 7, 9, 100);
        let info = parse_udp(&f).unwrap();
        assert_eq!(info.src_port, 7);
        assert_eq!(info.dst_port, 9);
        assert_eq!(info.payload_len, 100);
    }

    #[test]
    fn udp_frame_matches_the_nested_construction() {
        use tpp_core::wire::EthernetRepr;
        // The layer-by-layer build `udp_frame` used to do, as its oracle.
        let nested = |src_ip, dst_ip, src_port, dst_port, payload_len: usize| {
            let u = udp::Repr { src_port, dst_port, payload_len };
            let udp_b = u.encapsulate(src_ip, dst_ip, &vec![0u8; payload_len]);
            let ip = ipv4::Repr {
                src: src_ip,
                dst: dst_ip,
                protocol: ipv4::protocol::UDP,
                ttl: 64,
                payload_len: udp_b.len(),
            };
            EthernetRepr {
                dst: mac_of_ip(dst_ip),
                src: mac_of_ip(src_ip),
                ethertype: ethernet::ethertype::IPV4,
            }
            .encapsulate(&ip.encapsulate(&udp_b))
        };
        let (a, b) = (Ipv4Address::from_host_id(3), Ipv4Address::from_host_id(0x00fe_dcba));
        for payload_len in [0, 1, 40, 999, 1000, 1458] {
            for (sp, dp) in [(DATA_PORT, DATA_PORT), (1, 0xffff), (30_001, 9)] {
                assert_eq!(udp_frame(a, b, sp, dp, payload_len), nested(a, b, sp, dp, payload_len));
                assert_eq!(udp_frame(b, a, sp, dp, payload_len), nested(b, a, sp, dp, payload_len));
            }
        }
    }

    #[test]
    fn rate_meter_series() {
        let mut m = RateMeter::new(1_000_000_000); // 1 s buckets
        m.record(100, 1_250_000); // 10 Mb in bucket 0
        m.record(500_000_000, 1_250_000); // +10 Mb in bucket 0
        m.record(1_500_000_000, 1_250_000); // 10 Mb in bucket 1
        let s = m.series_mbps();
        assert_eq!(s.len(), 2);
        assert!((s[0].1 - 20.0).abs() < 1e-9);
        assert!((s[1].1 - 10.0).abs() < 1e-9);
        assert!((m.avg_mbps(0.0, 2.0) - 15.0).abs() < 1e-9);
    }

    #[test]
    fn rate_meter_counts_silent_buckets_in_the_window() {
        // Traffic in the first half of a 4 s window only: 40 Mb over 4 s is
        // 10 Mb/s, not 20 Mb/s over the two buckets that saw bytes.
        let mut m = RateMeter::new(1_000_000_000);
        m.record(0, 2_500_000);
        m.record(1_000_000_000, 2_500_000);
        assert_eq!(m.avg_mbps(0.0, 4.0), 10.0);
        assert_eq!(m.avg_mbps(1.0, 3.0), 10.0);
        // A window wholly after the last arrival.
        assert_eq!(m.avg_mbps(2.0, 4.0), 0.0);
    }

    #[test]
    fn hop_windows_average_the_last_readings() {
        let mut w = HopWindows::new(2);
        assert_eq!(w.mean(0, 7), 7.0); // nothing recorded yet
        for r in 1..=10 {
            w.record(0, r);
        }
        w.record(1, 4);
        w.record(2, 99); // no window for hop 2
        assert_eq!(w.mean(0, 0), (3..=10).sum::<u32>() as f64 / 8.0);
        assert_eq!(w.mean(1, 0), 4.0);
        assert_eq!(w.mean(2, 5), 5.0);
    }

    #[test]
    fn cdf_properties() {
        let c = cdf(&[0, 0, 0, 0, 5, 10, 10, 20]);
        assert_eq!(cdf_at(&c, 0), 0.5);
        assert_eq!(cdf_at(&c, 4), 0.5);
        assert_eq!(cdf_at(&c, 10), 0.875);
        assert_eq!(cdf_at(&c, 100), 1.0);
        assert_eq!(cdf(&[]).len(), 0);
    }
}
