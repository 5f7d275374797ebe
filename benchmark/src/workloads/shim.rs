//! `endhost_shim`: the end-host's per-packet cost (paper §6.2, Table 5),
//! driven directly because inside `app_rcp` its share is too small to
//! resolve. One `Shim` with 100 dst-port filters stamps 1400-byte UDP frames
//! on the way out; the matching completed-TPP echo frames come back in and
//! are decoded through the typed `Probe::records`.

use std::time::Instant;

use tpp_apps::common::udp_frame;
use tpp_core::probe::Probe;
use tpp_core::wire::{EthernetAddress, Ipv4Address, Tpp};
use tpp_endhost::shim::CompletedTpp;
use tpp_endhost::{Filter, Shim};
use tpp_switch::{Action, FlowKey, ReceiveOutcome, Switch, SwitchConfig};

use crate::rng::{Fnv, Rng};
use crate::trace::{alloc_start, alloc_stop, Tracer, CHUNK};
use crate::workloads::per_call_ns;
use crate::workloads::switch::{app_probes, UPDATE};
use crate::{LayerValue, Slice, Workload};

pub const N_FILTERS: usize = 100;
pub const N_FLOWS: usize = 120;
/// Frames per direction per slice (~2 ms; see `switch::Kind::slice_frames`).
pub const SLICE_FRAMES: usize = 2_500;
/// Frames per direction of set-up's warm-up pass, which deep-checks and
/// hashes every output (~0.1 s).
pub const VERIFY_FRAMES: usize = 40 * SLICE_FRAMES;
/// Hops every probe is sized for; set-up executes the stamped frames at this
/// many switches so the echoes carry real records.
const HOPS: usize = 3;
const PORT_BASE: u16 = 1000;
const SENDER: u32 = 1;
const RECEIVER: u32 = 2;

/// The six collecting app probes (the RCP update probe has nothing to decode).
fn probes() -> Vec<Probe> {
    let mut all = Vec::from(app_probes());
    all.remove(UPDATE);
    all
}

fn new_shim(host: u32, seed: u64) -> Shim {
    Shim::new(Ipv4Address::from_host_id(host), EthernetAddress::from_node_id(host), seed)
}

/// A sender shim with the 100 rules: rule `i` matches UDP dst port
/// `1000 + i`, stamps probe `i % 6` on every packet (sampling 1-in-1), and
/// sits at position `i` of the table.
fn sender_shim(programs: &[Tpp], seed: u64) -> Shim {
    let mut shim = new_shim(SENDER, seed);
    for i in 0..N_FILTERS {
        let filter = Filter {
            protocol: Some(17),
            dst_port: Some(PORT_BASE + i as u16),
            ..Filter::default()
        };
        let app = i % programs.len();
        shim.add_tpp(1 + app as u16, filter, programs[app].clone(), 1, i as u32);
    }
    shim
}

pub struct ShimBench {
    shim: Shim,
    probes: Vec<Probe>,
    /// Pristine outgoing frames, one per flow.
    out_ring: Vec<Vec<u8>>,
    /// The completed-TPP echo frame each flow's stamped packet comes back as.
    in_ring: Vec<Vec<u8>>,
    buf: Vec<u8>,
    pos: usize,
    digest: u64,
}

impl ShimBench {
    fn new(seed: u64) -> Result<ShimBench, String> {
        let mut rng = Rng::new(seed, 7);
        let probes = probes();
        let programs: Vec<Tpp> =
            probes.iter().map(|p| p.compile_hops(HOPS).expect("app probes compile")).collect();
        let mut shim = sender_shim(&programs, seed);

        // Flows differ in which rule they match: position uniform per flow.
        let (src, dst) = (Ipv4Address::from_host_id(SENDER), Ipv4Address::from_host_id(RECEIVER));
        let out_ring: Vec<Vec<u8>> = (0..N_FLOWS)
            .map(|_| {
                let rule = rng.below(N_FILTERS) as u16;
                udp_frame(src, dst, 20_000 + rng.below(20_000) as u16, PORT_BASE + rule, 1400)
            })
            .collect();

        // What comes back: stamp, execute at HOPS switches, and let the
        // receiver's shim turn the result into an echo toward the sender.
        let mut sw = Switch::new(SwitchConfig::new(1, 4));
        sw.add_host_route(dst, Action::Output(1));
        let mut receiver = new_shim(RECEIVER, seed);
        let mut in_ring = Vec::with_capacity(N_FLOWS);
        for (i, frame) in out_ring.iter().enumerate() {
            let mut wire = shim.outgoing(frame.clone());
            for hop in 0..HOPS {
                let now = (i * HOPS + hop) as u64 * 1000;
                wire = match sw.receive(now, 0, wire) {
                    ReceiveOutcome::Enqueued { port, .. } => sw.dequeue(now, port),
                    ReceiveOutcome::Dropped(_) => None,
                }
                .ok_or("set-up switch dropped a stamped frame")?;
            }
            in_ring.push(receiver.incoming(wire).echo.ok_or("receiver shim built no echo")?);
        }

        let mut b = ShimBench {
            shim,
            probes,
            out_ring,
            in_ring,
            buf: Vec::with_capacity(2048),
            pos: 0,
            digest: 0,
        };
        // Warm-up slice = the deep output check, hashed into the digest.
        let mut fnv = Fnv::default();
        let s = b.run(VERIFY_FRAMES, Some(&mut fnv));
        if s.failed != 0 {
            return Err(format!(
                "{} of {} frames failed the output check",
                s.failed,
                s.ops + s.failed
            ));
        }
        b.digest = fnv.0;
        Ok(b)
    }

    /// Decode every executed hop of a completion through its typed schema;
    /// returns the number of hop records and folds the values into `sum`.
    fn decode(&self, done: &CompletedTpp, sum: &mut u64) -> usize {
        let Some(probe) = self.probes.get((done.app_id as usize).wrapping_sub(1)) else {
            return 0;
        };
        let mut hops = 0;
        for record in probe.records(&done.tpp) {
            hops += 1;
            for field in 0..probe.fields().len() {
                *sum = sum.wrapping_add(u64::from(record.at(field).unwrap_or(0)));
            }
        }
        hops
    }

    /// `n` frames out through the shim, then `n` completed TPPs back in.
    fn run(&mut self, n: usize, mut deep: Option<&mut Fnv>) -> Slice {
        let flows = self.out_ring.len();
        let mut buf = std::mem::take(&mut self.buf);
        let (mut ok, mut failed, mut sum) = (0u64, 0u64, 0u64);
        let t0 = Instant::now();
        for k in 0..n {
            let frame = &self.out_ring[(self.pos + k) % flows];
            buf.clear();
            buf.extend_from_slice(frame);
            buf = self.shim.outgoing(buf);
            // Every flow matches a 1-in-1 rule, so every frame must grow by a
            // TPP section.
            if buf.len() > frame.len() {
                ok += 1;
            } else {
                failed += 1;
            }
            if let Some(h) = deep.as_deref_mut() {
                h.write(&buf);
            }
        }
        for k in 0..n {
            let echo = self.in_ring[(self.pos + k) % flows].clone();
            match self.shim.incoming(echo).completed {
                Some(done) if self.decode(&done, &mut sum) == HOPS => ok += 1,
                _ => failed += 1,
            }
        }
        let ns = t0.elapsed().as_nanos() as u64;
        std::hint::black_box(sum);
        if let Some(h) = deep {
            h.write_u64(sum);
        }
        self.pos = (self.pos + n) % flows;
        self.buf = buf;
        Slice { ops: ok, failed, ns, phase: 0 }
    }
}

impl Workload for ShimBench {
    fn slice(&mut self) -> Result<Slice, String> {
        Ok(self.run(SLICE_FRAMES, None))
    }

    fn output_digest(&self) -> u64 {
        self.digest
    }

    fn traced(&mut self, tr: &mut Tracer, seconds: f64) -> Result<Vec<LayerValue>, String> {
        let mut out: Vec<LayerValue> = Vec::new();
        // Seven measurements share the budget.
        let part = seconds / 7.0;
        let flows = self.out_ring.len();

        let base_ns = per_call_ns(tr, None, part, |_| {
            let s = self.run(CHUNK, None);
            (s.ops + s.failed, Some(s.ns))
        });

        // The slice with spans: out, in and decode each in their own span.
        let counters = self.shim.counters;
        let slice_span = tr.enter("shim_slice_traced");
        let out_ns = per_call_ns(tr, Some("endhost.shim.outgoing"), part, |c| {
            let mut buf = std::mem::take(&mut self.buf);
            for k in 0..CHUNK {
                buf.clear();
                buf.extend_from_slice(&self.out_ring[(c * CHUNK + k) % flows]);
                buf = self.shim.outgoing(buf);
            }
            self.buf = buf;
            (CHUNK as u64, None)
        });
        let mut completions: Vec<CompletedTpp> = Vec::with_capacity(CHUNK);
        let in_ns = per_call_ns(tr, Some("endhost.shim.incoming"), part, |c| {
            completions.clear();
            for k in 0..CHUNK {
                let echo = self.in_ring[(c * CHUNK + k) % flows].clone();
                completions.extend(self.shim.incoming(echo).completed);
            }
            (CHUNK as u64, None)
        });
        let mut sum = 0u64;
        let decode_ns = per_call_ns(tr, Some("core.probe.decode"), part, |_| {
            for done in &completions {
                std::hint::black_box(self.decode(done, &mut sum));
            }
            (completions.len() as u64, None)
        });
        tr.exit(slice_span);
        std::hint::black_box(sum);
        let c = self.shim.counters;
        let stamped = (c.tx_stamped - counters.tx_stamped) as f64;
        out.push(("endhost.shim.outgoing_ns", out_ns));
        out.push(("endhost.shim.incoming_ns", in_ns));
        out.push(("core.probe.decode_ns", decode_ns));
        out.push((
            "endhost.shim.stamped_share",
            stamped / (c.tx_frames - counters.tx_frames) as f64,
        ));
        // One op of the slice is half an out-frame and half an in-frame.
        out.push(("trace_overhead_ratio", (out_ns + in_ns + decode_ns) / 2.0 / base_ns));
        tr.count("shim.tx_stamped", stamped);
        tr.count(
            "shim.completed_delivered",
            (c.completed_delivered - counters.completed_delivered) as f64,
        );

        // Filter selection alone, on a private table with the same rules.
        let programs: Vec<Tpp> =
            self.probes.iter().map(|p| p.compile_hops(HOPS).expect("app probes compile")).collect();
        let mut table = sender_shim(&programs, 0).filters;
        let keys: Vec<FlowKey> = self
            .out_ring
            .iter()
            .map(|f| FlowKey::from_frame(f).expect("generated UDP frame"))
            .collect();
        let select_ns = per_call_ns(tr, Some("endhost.filter.select"), part, |c| {
            for k in 0..CHUNK {
                std::hint::black_box(table.select(&keys[(c * CHUNK + k) % flows], 0.0).is_some());
            }
            (CHUNK as u64, None)
        });
        out.push(("endhost.filter.select_ns", select_ns));
        let compile_ns = per_call_ns(tr, Some("core.probe.compile"), part, |_| {
            for p in &self.probes {
                std::hint::black_box(p.compile_hops(HOPS).is_ok());
            }
            (self.probes.len() as u64, None)
        });
        out.push(("core.probe.compile_ns", compile_ns));

        alloc_start();
        let s = self.run(VERIFY_FRAMES, None);
        let a = alloc_stop();
        out.push(("endhost.shim.allocs_per_op", a.allocs as f64 / (s.ops + s.failed) as f64));
        Ok(out)
    }
}

pub fn setup(seed: u64) -> Result<Box<dyn Workload>, String> {
    Ok(Box::new(ShimBench::new(seed)?))
}
