//! End-host stack overheads (paper §6.2, Figure 10 and Table 5).
//!
//! Figure 10 measures TCP goodput and network throughput as a function of
//! the TPP sampling frequency: with a 260-byte TPP on every packet (N = 1)
//! application goodput drops roughly by the header overhead while network
//! throughput stays near line rate; at N = 10/20 the cost shrinks
//! proportionally; N = ∞ is the uninstrumented baseline.
//!
//! The paper ran real Linux TCP over veth (CPU-bound at ~4–6.5 Gb/s); here
//! the same experiment runs our Reno-like TCP over a simulated 10 Gb/s
//! link, so the absolute numbers are link-bound, but the *shape* — goodput
//! declining with sampling frequency, network throughput flat — is the
//! claim under test.

use std::collections::BTreeMap;

use crate::common::{shared, Shared};
use tpp_core::probe::Probe;
use tpp_core::wire::Ipv4Address;
use tpp_endhost::harness::{Endhost, Harness, Io};
use tpp_endhost::transport::{parse_seg_frame, SegOut, TcpConn};
use tpp_endhost::Filter;
use tpp_netsim::{LinkSpec, Network, Time};
use tpp_switch::{Action, SwitchConfig};

/// The §6.2 five-statistic probe schema, padded on compile to the target
/// wire size.
pub fn overhead_probe() -> Probe {
    Probe::stack("overhead")
        .field("switch", "Switch:SwitchID")
        .field("out_port", "PacketMetadata:OutputPort")
        .field("q", "Queue:QueueOccupancy")
        .field("util", "Link:TX-Utilization")
        .field("tx_bytes", "Link:TX-Bytes")
}

const TIMER_RTO: u64 = 1;
const TIMER_PUMP: u64 = 2;

/// A bulk TCP sender with `n_flows` parallel connections through the shim.
/// Construct with [`TcpSenderApp::new`].
pub struct TcpSenderApp {
    dst: Ipv4Address,
    conns: Vec<TcpConn>,
    pub wire_bytes_sent: u64,
}

/// The wired bulk-TCP sender application.
pub type TcpSender = Endhost<TcpSenderApp>;

impl TcpSenderApp {
    /// `sample_frequency` 0 = no instrumentation (the ∞ baseline).
    pub fn new(
        dst: Ipv4Address,
        n_flows: usize,
        mss: usize,
        sample_frequency: u32,
        tpp_bytes: usize,
    ) -> TcpSender {
        let conns = (0..n_flows).map(|i| TcpConn::new(10_000 + i as u16, 443, mss)).collect();
        let state = TcpSenderApp { dst, conns, wire_bytes_sent: 0 };
        let mut h = Harness::new(state);
        if sample_frequency > 0 {
            h = h.stamp(
                overhead_probe().app_id(9).pad_section_to(tpp_bytes),
                Filter::tcp(),
                sample_frequency,
                tpp_endhost::Aggregator::Source,
            );
        }
        h.on_start(|_s, io| io.ctx.set_timer(0, TIMER_PUMP))
            .on_timer(|s, io, token| match token {
                TIMER_PUMP => {
                    for i in 0..s.conns.len() {
                        let segs = s.conns[i].pump(io.ctx.now);
                        s.flush(io, i, segs);
                    }
                }
                TIMER_RTO => {
                    for i in 0..s.conns.len() {
                        if s.conns[i].rto_deadline().is_some_and(|d| d <= io.ctx.now) {
                            let segs = s.conns[i].on_rto(io.ctx.now);
                            s.flush(io, i, segs);
                        }
                    }
                }
                _ => {}
            })
            .on_deliver(|s, io, inner| {
                let Some((_, _, hdr)) = parse_seg_frame(&inner) else { return };
                let idx = (hdr.dst_port as usize).wrapping_sub(10_000);
                if idx >= s.conns.len() {
                    return;
                }
                let mut segs = s.conns[idx].on_segment(io.ctx.now, &hdr);
                segs.extend(s.conns[idx].pump(io.ctx.now));
                s.flush(io, idx, segs);
            })
            .build()
            .expect("static wiring")
    }

    fn flush(&mut self, io: &mut Io<'_, '_>, idx: usize, segs: Vec<SegOut>) {
        for seg in segs {
            let frame = self.conns[idx].frame_for(io.ctx.ip, self.dst, &seg);
            self.wire_bytes_sent += io.send_data(frame) as u64;
        }
        if let Some(d) = self.conns[idx].rto_deadline() {
            io.ctx.set_timer_at(d, TIMER_RTO);
        }
    }
}

/// The receiving side: per-flow reassembly, ACK generation, goodput meters.
/// Construct with [`TcpSinkApp::new`].
pub struct TcpSinkApp {
    conns: BTreeMap<u16, TcpConn>,
    /// Total in-order payload bytes delivered, per source port.
    pub delivered: Shared<BTreeMap<u16, u64>>,
    pub wire_bytes_received: u64,
}

/// The wired bulk-TCP sink application.
pub type TcpSink = Endhost<TcpSinkApp>;

impl TcpSinkApp {
    pub fn new() -> TcpSink {
        let state = TcpSinkApp {
            conns: BTreeMap::new(),
            delivered: shared(BTreeMap::new()),
            wire_bytes_received: 0,
        };
        Harness::new(state)
            // Keep completed TPPs local: the sink is the aggregator, so
            // echoes don't perturb the reverse (ACK) path.
            .aggregate_local(9)
            .on_raw_frame(|s, frame| s.wire_bytes_received += frame.len() as u64)
            .on_deliver(|s, io, inner| {
                let Some((src, _dst, hdr)) = parse_seg_frame(&inner) else { return };
                let conn = s
                    .conns
                    .entry(hdr.src_port)
                    .or_insert_with(|| TcpConn::new(hdr.dst_port, hdr.src_port, 1240));
                let replies = conn.on_segment(io.ctx.now, &hdr);
                s.delivered.borrow_mut().insert(hdr.src_port, conn.delivered);
                for seg in replies {
                    let frame = conn.frame_for(io.ctx.ip, src, &seg);
                    io.ctx.send(frame);
                }
            })
            .build()
            .expect("static wiring")
    }
}

/// One Figure 10 data point.
#[derive(Clone, Copy, Debug)]
pub struct Fig10Point {
    pub n_flows: usize,
    /// 0 encodes the ∞ (uninstrumented) baseline.
    pub sample_frequency: u32,
    /// Application goodput, Gb/s.
    pub goodput_gbps: f64,
    /// Wire throughput at the receiver, Gb/s.
    pub network_gbps: f64,
}

/// Run one Figure 10 cell: `n_flows` bulk TCP flows across one switch on
/// 10 Gb/s links, `tpp_bytes`-byte TPPs at 1-in-`sample_frequency` packets.
pub fn run_fig10_point(
    n_flows: usize,
    sample_frequency: u32,
    tpp_bytes: usize,
    duration: Time,
    seed: u64,
) -> Fig10Point {
    let mut net = Network::new(seed);
    let sw = net.add_switch(SwitchConfig::new(1, 2));
    let snd = net.add_host(Box::new(tpp_netsim::NullApp));
    let rcv = net.add_host(Box::new(tpp_netsim::NullApp));
    net.connect(sw, snd, LinkSpec::new(10_000, 5_000));
    net.connect(sw, rcv, LinkSpec::new(10_000, 5_000));
    let snd_ip = net.host(snd).ip;
    let rcv_ip = net.host(rcv).ip;
    {
        let s = net.switch_mut(sw);
        s.cfg.queue_limit_bytes = 500_000;
        s.add_host_route(snd_ip, Action::Output(0));
        s.add_host_route(rcv_ip, Action::Output(1));
    }
    net.set_app(
        snd,
        Box::new(TcpSenderApp::new(rcv_ip, n_flows, 1240, sample_frequency, tpp_bytes)),
    );
    net.set_app(rcv, Box::new(TcpSinkApp::new()));
    net.run_until(duration);
    let secs = duration as f64 / 1e9;
    let (goodput, wire) = {
        let sink = net.app_mut::<TcpSink>(rcv);
        let total: u64 = sink.delivered.borrow().values().sum();
        (total as f64 * 8.0 / secs / 1e9, sink.wire_bytes_received as f64 * 8.0 / secs / 1e9)
    };
    Fig10Point { n_flows, sample_frequency, goodput_gbps: goodput, network_gbps: wire }
}

/// The whole Figure 10 sweep: flows x sampling frequencies (0 = ∞).
pub fn run_fig10(duration: Time, seed: u64) -> Vec<Fig10Point> {
    let mut out = Vec::new();
    for &n_flows in &[1usize, 10, 20] {
        for &freq in &[1u32, 10, 20, 0] {
            out.push(run_fig10_point(n_flows, freq, 260, duration, seed));
        }
    }
    out
}

impl TcpSenderApp {
    /// Expose connection state for diagnostics.
    pub fn conns_debug(&self) -> &[TcpConn] {
        &self.conns
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpp_netsim::MILLIS;

    #[test]
    fn padded_tpp_is_260_bytes() {
        let t = overhead_probe().pad_section_to(260).compile().unwrap();
        assert_eq!(t.section_len(), 260);
        assert!(t.instrs.len() <= tpp_core::isa::MAX_INSTRUCTIONS);
    }

    #[test]
    fn tcp_fills_a_10g_link() {
        let p = run_fig10_point(1, 0, 260, 100 * MILLIS, 1);
        // Baseline: goodput near 10 Gb/s x (1240 payload / 1294 frame).
        assert!(p.goodput_gbps > 8.0, "baseline goodput {p:?}");
        assert!(p.network_gbps > 9.0, "wire rate {p:?}");
    }

    #[test]
    fn instrumentation_costs_goodput_not_throughput() {
        // The Figure 10 shape.
        let base = run_fig10_point(1, 0, 260, 100 * MILLIS, 1);
        let every = run_fig10_point(1, 1, 260, 100 * MILLIS, 1);
        let tenth = run_fig10_point(1, 10, 260, 100 * MILLIS, 1);
        // Goodput penalty at N=1 is roughly the 260B-per-1554B header share.
        assert!(every.goodput_gbps < base.goodput_gbps * 0.92, "{every:?} vs {base:?}");
        assert!(every.goodput_gbps > base.goodput_gbps * 0.70);
        // N=10 sits between N=1 and the baseline.
        assert!(tenth.goodput_gbps > every.goodput_gbps);
        assert!(tenth.goodput_gbps <= base.goodput_gbps * 1.01);
        // Network throughput barely moves.
        assert!((every.network_gbps - base.network_gbps).abs() < 1.0);
    }

    #[test]
    fn multiple_flows_share_the_link() {
        let p = run_fig10_point(10, 0, 260, 100 * MILLIS, 2);
        assert!(p.goodput_gbps > 7.0, "{p:?}");
    }
}
