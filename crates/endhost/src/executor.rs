//! The TPP Executor library (§4.4): common execution patterns built from
//! the raw TPP primitives.
//!
//! * **Reliable execution** — standalone probes tracked by a nonce stamped
//!   into the last packet-memory word, retried on timeout.
//! * **Targeted execution** — wrap a TPP in a `CEXEC` on the switch ID so
//!   it executes at exactly one switch; send it to the switch's IP and it
//!   reflects back (§4.4 "Reflective TPP").
//! * **Scatter-gather** — the same TPP fanned out to a set of switches,
//!   with per-probe retries and a completion barrier.
//! * **Large TPPs** — statistics that don't fit in one packet are split
//!   into several hop-range TPPs by pre-winding the hop counter, so each
//!   split's hop windows cover a later slice of the path.

use std::collections::BTreeMap;

use tpp_core::addr::{resolve_mnemonic, Address};
use tpp_core::asm::AsmError;
use tpp_core::isa::{Instruction, MAX_INSTRUCTIONS};
use tpp_core::wire::{build_standalone, AddrMode, EthernetAddress, Ipv4Address, Tpp};

use crate::shim::{mac_of_ip, CompletedTpp};

/// Executor tuning knobs.
#[derive(Clone, Copy, Debug)]
pub struct ExecutorConfig {
    pub max_retries: u32,
    /// Base timeout: the first deadline is `send time + timeout_ns`. Every
    /// deadline saturates at `u64::MAX`, so `u64::MAX` means "never time
    /// out".
    pub timeout_ns: u64,
    /// Exponential backoff cap: retry `k` waits `timeout_ns << min(k,
    /// max_backoff_exp)` (plus jitter), saturating. 0 disables backoff
    /// entirely.
    pub max_backoff_exp: u32,
    /// Jitter divisor: each backoff wait adds a deterministic pseudo-random
    /// jitter in `0..=wait/jitter_div`, keyed by `(token, attempt)` so
    /// synchronized probes (scatter-gather fan-outs, fleet-wide monitors)
    /// don't retransmit in lockstep. 0 disables jitter.
    pub jitter_div: u64,
}

impl Default for ExecutorConfig {
    fn default() -> Self {
        ExecutorConfig { max_retries: 3, timeout_ns: 10_000_000, max_backoff_exp: 3, jitter_div: 8 }
    }
}

/// `SplitMix64` finalizer — the jitter hash. Deterministic and stateless:
/// the retry schedule of a probe depends only on its token and attempt
/// number, never on interleaving with other probes.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Why a probe finished.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProbeOutcome {
    Completed {
        token: u32,
        tpp: Tpp,
    },
    /// All retries exhausted.
    Failed {
        token: u32,
    },
}

struct Pending {
    frame: Vec<u8>,
    retries_left: u32,
    deadline: u64,
    src_port: u16,
}

/// Tracks in-flight standalone probes (reliable execution).
pub struct Executor {
    pub cfg: ExecutorConfig,
    src_ip: Ipv4Address,
    src_mac: EthernetAddress,
    next_token: u32,
    pending: BTreeMap<u32, Pending>,
    /// UDP source port -> token, the fallback completion match for probes
    /// whose nonce word a long hop-addressed path may overwrite.
    sport_map: BTreeMap<u16, u32>,
    pub sent: u64,
    pub retransmitted: u64,
    pub completed: u64,
    pub failed: u64,
}

impl Executor {
    pub fn new(src_ip: Ipv4Address, src_mac: EthernetAddress, cfg: ExecutorConfig) -> Self {
        Executor {
            cfg,
            src_ip,
            src_mac,
            next_token: 1,
            pending: BTreeMap::new(),
            sport_map: BTreeMap::new(),
            sent: 0,
            retransmitted: 0,
            completed: 0,
            failed: 0,
        }
    }

    /// Stamp a nonce into the TPP's last packet-memory word, growing memory
    /// by one word so the program's own accesses can't clobber it. A probe
    /// already at the wire memory budget cannot grow (the one-byte length
    /// field would wrap): its last word is overwritten instead, and if the
    /// program then clobbers it, completion falls back to the source-port
    /// match ([`Executor::on_completed_full`]).
    fn stamp_nonce(tpp: &mut Tpp, token: u32) {
        if tpp.memory.len() + 4 <= tpp_core::wire::MAX_MEMORY_BYTES {
            tpp.memory.extend_from_slice(&token.to_be_bytes());
        } else if let Some(last) = tpp.memory.len().checked_sub(4) {
            tpp.memory[last..].copy_from_slice(&token.to_be_bytes());
        }
    }

    /// Read a probe's nonce back out of a completed TPP.
    pub fn nonce_of(tpp: &Tpp) -> Option<u32> {
        let n = tpp.memory_words();
        if n == 0 {
            return None;
        }
        tpp.read_word(n - 1)
    }

    /// Launch a reliable standalone probe toward `dst` (a host or a switch
    /// IP). Returns the token and the frame to transmit now.
    pub fn send(&mut self, now: u64, dst: Ipv4Address, mut tpp: Tpp) -> (u32, Vec<u8>) {
        let token = self.next_token;
        self.next_token += 1;
        Self::stamp_nonce(&mut tpp, token);
        // A per-probe source port doubles as a completion key (the shim's
        // echo channel carries the probe's flow context back).
        let src_port = 40_000 + (token % 16_384) as u16;
        let frame =
            build_standalone(self.src_mac, mac_of_ip(dst), self.src_ip, dst, src_port, &tpp);
        self.pending.insert(
            token,
            Pending {
                frame: frame.clone(),
                retries_left: self.cfg.max_retries,
                deadline: now.saturating_add(self.cfg.timeout_ns),
                src_port,
            },
        );
        self.sport_map.insert(src_port, token);
        self.sent += 1;
        (token, frame)
    }

    /// Feed a completed TPP (from the shim's echo channel). Returns the
    /// outcome if it matches a pending probe.
    pub fn on_completed(&mut self, tpp: &Tpp) -> Option<ProbeOutcome> {
        let token = Self::nonce_of(tpp)?;
        let p = self.pending.remove(&token)?;
        self.sport_map.remove(&p.src_port);
        self.completed += 1;
        Some(ProbeOutcome::Completed { token, tpp: tpp.clone() })
    }

    /// Like [`Executor::on_completed`] but with the shim's full completion
    /// record: if the nonce was overwritten by a long hop-addressed path,
    /// fall back to matching by the probe's source port.
    pub fn on_completed_full(&mut self, done: &CompletedTpp) -> Option<ProbeOutcome> {
        if let Some(o) = self.on_completed(&done.tpp) {
            return Some(o);
        }
        let token = *self.sport_map.get(&done.flow.src_port)?;
        self.pending.remove(&token)?;
        self.sport_map.remove(&done.flow.src_port);
        self.completed += 1;
        Some(ProbeOutcome::Completed { token, tpp: done.tpp.clone() })
    }

    /// Check timeouts: returns frames to retransmit and probes that failed
    /// permanently. Call when [`Executor::next_deadline`] passes.
    pub fn poll(&mut self, now: u64) -> (Vec<Vec<u8>>, Vec<ProbeOutcome>) {
        if self.next_deadline().is_none_or(|deadline| deadline > now) {
            return (Vec::new(), Vec::new());
        }
        let mut resend = Vec::new();
        let mut done = Vec::new();
        let expired: Vec<u32> =
            self.pending.iter().filter(|(_, p)| p.deadline <= now).map(|(t, _)| *t).collect();
        for token in expired {
            let p = self.pending.get_mut(&token).unwrap();
            if p.retries_left == 0 {
                let sport = p.src_port;
                self.pending.remove(&token);
                self.sport_map.remove(&sport);
                self.failed += 1;
                done.push(ProbeOutcome::Failed { token });
            } else {
                p.retries_left -= 1;
                let attempt = self.cfg.max_retries - p.retries_left; // 1st retry = 1
                p.deadline = now.saturating_add(Self::backoff_ns(&self.cfg, token, attempt));
                self.retransmitted += 1;
                resend.push(p.frame.clone());
            }
        }
        (resend, done)
    }

    /// The wait before retry `attempt` (1-based) of probe `token`:
    /// exponential backoff capped at `max_backoff_exp` doublings, plus a
    /// deterministic jitter keyed by `(token, attempt)`.
    fn backoff_ns(cfg: &ExecutorConfig, token: u32, attempt: u32) -> u64 {
        let exp = attempt.min(cfg.max_backoff_exp);
        let base = cfg.timeout_ns.saturating_mul(1 << exp.min(63));
        let jitter = base.checked_div(cfg.jitter_div).map_or(0, |bound| {
            splitmix64(((token as u64) << 32) | attempt as u64) % bound.saturating_add(1)
        });
        base.saturating_add(jitter)
    }

    /// Earliest pending timeout.
    pub fn next_deadline(&self) -> Option<u64> {
        self.pending.values().map(|p| p.deadline).min()
    }

    pub fn pending_count(&self) -> usize {
        self.pending.len()
    }
}

/// Wrap a stack-mode TPP so it executes only at the switch whose
/// `[Switch:SwitchID]` equals `switch_id` (§4.4 "Targeted execution").
///
/// Layout: the CEXEC mask/value live at packet-memory words 0 and 1 and the
/// stack starts at word 2 (the 4-bit operand encoding requires absolute
/// offsets < 16).
pub fn targeted(tpp: &Tpp, switch_id: u32) -> Result<Tpp, AsmError> {
    if tpp.mode != AddrMode::Stack {
        return Err(AsmError::Syntax(0, "targeted() requires a stack-mode TPP".into()));
    }
    if tpp.instrs.len() + 1 > MAX_INSTRUCTIONS {
        return Err(AsmError::TooManyInstructions(tpp.instrs.len() + 1));
    }
    let sid: Address = resolve_mnemonic("Switch:SwitchID").expect("known mnemonic");
    let mut out = tpp.clone();
    out.instrs.insert(0, Instruction::cexec(sid, 0, 1));
    // Shift memory by two words for the mask/value operands.
    let mut memory = Vec::with_capacity(tpp.memory.len() + 8);
    memory.extend_from_slice(&u32::MAX.to_be_bytes());
    memory.extend_from_slice(&switch_id.to_be_bytes());
    memory.extend_from_slice(&tpp.memory);
    out.memory = memory;
    out.sp = tpp.sp + 2;
    // Reflect so the probe comes straight back (§4.4).
    out.reflect = true;
    Ok(out)
}

/// A scatter-gather round: the same statistics program fanned out to many
/// switches, gathered with retries (§4.4).
pub struct ScatterGather {
    /// token -> switch id, for result attribution.
    pub memberships: BTreeMap<u32, u32>,
    pub results: BTreeMap<u32, Tpp>,
    pub failed: Vec<u32>,
}

impl ScatterGather {
    /// Launch one targeted probe per `(switch_id, switch_ip)`.
    pub fn launch(
        exec: &mut Executor,
        now: u64,
        tpp: &Tpp,
        switches: &[(u32, Ipv4Address)],
    ) -> Result<(ScatterGather, Vec<Vec<u8>>), AsmError> {
        let mut sg = ScatterGather {
            memberships: BTreeMap::new(),
            results: BTreeMap::new(),
            failed: Vec::new(),
        };
        let mut frames = Vec::new();
        for &(sid, ip) in switches {
            let probe = targeted(tpp, sid)?;
            let (token, frame) = exec.send(now, ip, probe);
            sg.memberships.insert(token, sid);
            frames.push(frame);
        }
        Ok((sg, frames))
    }

    /// Record an executor outcome. Returns `true` if it belonged to this
    /// round.
    pub fn absorb(&mut self, outcome: &ProbeOutcome) -> bool {
        match outcome {
            ProbeOutcome::Completed { token, tpp } => {
                let Some(sid) = self.memberships.get(token) else { return false };
                self.results.insert(*sid, tpp.clone());
                true
            }
            ProbeOutcome::Failed { token } => {
                let Some(sid) = self.memberships.get(token) else { return false };
                self.failed.push(*sid);
                true
            }
        }
    }

    /// All probes resolved (completed or failed)?
    pub fn done(&self) -> bool {
        self.results.len() + self.failed.len() == self.memberships.len()
    }
}

/// Split a per-hop statistics collection that doesn't fit in one packet
/// into several hop-mode TPPs (§4.4 "Large TPPs").
///
/// Each split TPP reads `stats` into its per-hop window via `LOAD`; the
/// `k`-th split starts its hop counter at `-(k * hops_per_tpp) mod 256`, so
/// its windows address hops `k*hops_per_tpp ..` of the path and every other
/// hop falls outside its memory (and is skipped gracefully).
pub fn split_for_path(
    stats: &[Address],
    path_len: usize,
    max_memory_words: usize,
) -> Result<Vec<Tpp>, AsmError> {
    if stats.is_empty() || stats.len() > MAX_INSTRUCTIONS {
        return Err(AsmError::TooManyInstructions(stats.len()));
    }
    let per_hop_words = stats.len();
    let hops_per_tpp = (max_memory_words / per_hop_words).max(1);
    let instrs: Vec<Instruction> =
        stats.iter().enumerate().map(|(i, &a)| Instruction::load(a, i as u8)).collect();
    let mut out = Vec::new();
    let mut start = 0usize;
    while start < path_len {
        let hops = hops_per_tpp.min(path_len - start);
        out.push(Tpp {
            mode: AddrMode::Hop,
            per_hop_len: (per_hop_words * 4) as u8,
            // Pre-wind the counter so this TPP's hop 0 is path hop `start`.
            hop: (start as u8).wrapping_neg(),
            instrs: instrs.clone(),
            memory: vec![0; hops * per_hop_words * 4],
            ..Tpp::default()
        });
        start += hops;
    }
    Ok(out)
}

/// Reassemble the per-hop values collected by [`split_for_path`] TPPs into
/// one `path_len x stats.len()` matrix. `tpps` must be in launch order (the
/// initial hop pre-wind is consumed by execution, so coverage is inferred
/// from each TPP's memory capacity).
pub fn merge_split_results(tpps: &[Tpp], path_len: usize, n_stats: usize) -> Vec<Vec<u32>> {
    let mut rows = vec![vec![0u32; n_stats]; path_len];
    let mut hop = 0usize;
    for t in tpps {
        let hops_here = t.memory_words() / n_stats;
        for h in 0..hops_here {
            if hop >= path_len {
                break;
            }
            for (s, cell) in rows[hop].iter_mut().enumerate().take(n_stats) {
                *cell = t.read_word(h * n_stats + s).unwrap_or(0);
            }
            hop += 1;
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpp_core::asm::TppBuilder;
    use tpp_core::exec::{execute, ExecOptions, MapBus};

    fn probe() -> Tpp {
        TppBuilder::stack_mode().push_m("Switch:SwitchID").unwrap().hops(3).build().unwrap()
    }

    fn exec() -> Executor {
        Executor::new(
            Ipv4Address::from_host_id(1),
            EthernetAddress::from_node_id(1),
            ExecutorConfig::default(),
        )
    }

    #[test]
    fn nonce_roundtrip() {
        let mut e = exec();
        let (token, frame) = e.send(0, Ipv4Address::from_host_id(2), probe());
        let (_, tpp) = tpp_core::wire::extract_tpp(&frame).unwrap();
        assert_eq!(Executor::nonce_of(&tpp), Some(token));
        // Completion matches.
        match e.on_completed(&tpp) {
            Some(ProbeOutcome::Completed { token: t2, .. }) => assert_eq!(t2, token),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(e.pending_count(), 0);
    }

    #[test]
    fn full_capacity_probe_stays_wire_valid() {
        // A probe compiled at the full wire memory budget cannot grow by a
        // nonce word: the one-byte length field would wrap to 0. The nonce
        // overwrites the last word instead and the section stays parseable.
        let mut e = exec();
        let mut big = probe();
        big.memory = vec![0; tpp_core::wire::MAX_MEMORY_BYTES];
        let (token, frame) = e.send(0, Ipv4Address::from_host_id(2), big);
        let (_, tpp) = tpp_core::wire::extract_tpp(&frame).expect("section parses");
        assert_eq!(tpp.memory.len(), tpp_core::wire::MAX_MEMORY_BYTES);
        assert_eq!(Executor::nonce_of(&tpp), Some(token));
        assert!(e.on_completed(&tpp).is_some());
    }

    #[test]
    fn duplicate_completion_ignored() {
        let mut e = exec();
        let (_, frame) = e.send(0, Ipv4Address::from_host_id(2), probe());
        let (_, tpp) = tpp_core::wire::extract_tpp(&frame).unwrap();
        assert!(e.on_completed(&tpp).is_some());
        assert!(e.on_completed(&tpp).is_none());
    }

    #[test]
    fn retry_then_fail() {
        let mut e = exec();
        // Jitter off: the backoff schedule is exactly 1000, 2000, 4000.
        e.cfg =
            ExecutorConfig { max_retries: 2, timeout_ns: 1000, max_backoff_exp: 3, jitter_div: 0 };
        let (token, _) = e.send(0, Ipv4Address::from_host_id(2), probe());
        assert_eq!(e.next_deadline(), Some(1000));
        // First timeout: retransmit, next wait doubles.
        let (resend, done) = e.poll(1000);
        assert_eq!(resend.len(), 1);
        assert!(done.is_empty());
        assert_eq!(e.next_deadline(), Some(3000), "1000 + 1000<<1");
        // Second: retransmit again, wait doubles again.
        let (resend, _) = e.poll(3000);
        assert_eq!(resend.len(), 1);
        assert_eq!(e.next_deadline(), Some(7000), "3000 + 1000<<2");
        // Third: out of retries.
        let (resend, done) = e.poll(7000);
        assert!(resend.is_empty());
        assert_eq!(done, vec![ProbeOutcome::Failed { token }]);
        assert_eq!(e.failed, 1);
        assert_eq!(e.retransmitted, 2);
    }

    #[test]
    fn backoff_caps_and_jitters_deterministically() {
        let cfg =
            ExecutorConfig { max_retries: 8, timeout_ns: 1000, max_backoff_exp: 2, jitter_div: 4 };
        // The exponent caps at 2: attempts 2, 3, 9 share the same base.
        for attempt in [2u32, 3, 9] {
            let base = 1000u64 << 2;
            let expected = base + splitmix64(((7u64) << 32) | attempt as u64) % (base / 4 + 1);
            assert_eq!(Executor::backoff_ns(&cfg, 7, attempt), expected);
            assert!(Executor::backoff_ns(&cfg, 7, attempt) >= base);
            assert!(Executor::backoff_ns(&cfg, 7, attempt) <= base + base / 4);
        }
        // Different tokens de-synchronize: some pair of 16 tokens must
        // disagree (they all share attempt 1).
        let waits: Vec<u64> = (0..16).map(|t| Executor::backoff_ns(&cfg, t, 1)).collect();
        assert!(waits.windows(2).any(|w| w[0] != w[1]), "{waits:?}");
        // Jitter off means pure exponential.
        let plain = ExecutorConfig { jitter_div: 0, ..cfg };
        assert_eq!(Executor::backoff_ns(&plain, 7, 1), 2000);
        assert_eq!(Executor::backoff_ns(&plain, 7, 2), 4000);
        assert_eq!(Executor::backoff_ns(&plain, 7, 3), 4000);
    }

    #[test]
    fn deadline_arithmetic_saturates() {
        // "Never time out": the deadline pins at u64::MAX and no earlier
        // poll resends. The bare `now + timeout_ns` panicked in debug and in
        // release wrapped the deadline to 0, retransmitting at once.
        let mut e = exec();
        e.cfg = ExecutorConfig { timeout_ns: u64::MAX, jitter_div: 1, ..e.cfg };
        e.send(1, Ipv4Address::from_host_id(2), probe());
        assert_eq!(e.next_deadline(), Some(u64::MAX));
        for now in [1, 1 << 40, u64::MAX - 1] {
            assert_eq!(e.poll(now), (Vec::new(), Vec::new()));
        }
        // At u64::MAX itself it retries, and the next deadline stays there
        // (`base + jitter` and the jitter bound `base / 1 + 1` saturate).
        assert_eq!(e.poll(u64::MAX).0.len(), 1);
        assert_eq!(e.next_deadline(), Some(u64::MAX));

        // A backoff exponent at or past the word size: `timeout_ns << 64`
        // panicked in debug and shifted by 0 in release. Waits now double up
        // to 2^63 and deadlines never move backwards.
        let mut e = exec();
        e.cfg =
            ExecutorConfig { max_retries: 70, timeout_ns: 1, max_backoff_exp: 64, jitter_div: 0 };
        let (token, _) = e.send(0, Ipv4Address::from_host_id(2), probe());
        for _ in 0..70 {
            let now = e.next_deadline().unwrap();
            let (resend, done) = e.poll(now);
            assert_eq!((resend.len(), done.len()), (1, 0));
            assert!(e.next_deadline().unwrap() >= now);
        }
        assert_eq!(e.next_deadline(), Some(u64::MAX), "1 + 2 + 4 + ... + 2^63, then pinned");
        assert_eq!(e.poll(u64::MAX).1, vec![ProbeOutcome::Failed { token }]);
    }

    #[test]
    fn poll_before_deadline_is_noop() {
        let mut e = exec();
        e.send(0, Ipv4Address::from_host_id(2), probe());
        let deadline = e.next_deadline().unwrap();
        let (resend, done) = e.poll(deadline - 1);
        assert!(resend.is_empty() && done.is_empty());
    }

    #[test]
    fn targeted_executes_only_on_matching_switch() {
        let t = targeted(&probe(), 9).unwrap();
        assert!(t.reflect);
        assert_eq!(t.instrs.len(), 2);
        // Simulate at switch 9 and at switch 8.
        let sid = resolve_mnemonic("Switch:SwitchID").unwrap();
        let mut on9 = t.clone();
        execute(&mut on9, &mut MapBus::with(&[(sid, 9)]), &ExecOptions::default());
        assert_eq!(on9.read_word(2), Some(9)); // pushed after mask/value words

        let mut on8 = t.clone();
        execute(&mut on8, &mut MapBus::with(&[(sid, 8)]), &ExecOptions::default());
        assert_eq!(on8.read_word(2), Some(0)); // suppressed
    }

    #[test]
    fn targeted_rejects_full_programs() {
        let mut t = probe();
        let i = t.instrs[0];
        t.instrs = vec![i; 5];
        assert!(targeted(&t, 1).is_err());
    }

    #[test]
    fn scatter_gather_barrier() {
        let mut e = exec();
        let switches =
            [(1u32, Ipv4Address::new(192, 168, 0, 1)), (2, Ipv4Address::new(192, 168, 0, 2))];
        let (mut sg, frames) = ScatterGather::launch(&mut e, 0, &probe(), &switches).unwrap();
        assert_eq!(frames.len(), 2);
        assert!(!sg.done());
        // First probe completes, second fails after retries.
        let (_, t0) = tpp_core::wire::extract_tpp(&frames[0]).unwrap();
        let o = e.on_completed(&t0).unwrap();
        assert!(sg.absorb(&o));
        assert!(!sg.done());
        // Exhaust the second probe's retries.
        let mut now = e.cfg.timeout_ns;
        while !sg.done() {
            let (_, done) = e.poll(now);
            for o in &done {
                sg.absorb(o);
            }
            now += e.cfg.timeout_ns;
        }
        assert_eq!(sg.results.len(), 1);
        assert_eq!(sg.failed.len(), 1);
        assert!(sg.results.contains_key(&1));
    }

    #[test]
    fn split_covers_long_paths() {
        let qsize = resolve_mnemonic("Link:QueueSize").unwrap();
        let sid = resolve_mnemonic("Switch:SwitchID").unwrap();
        // 2 stats x 10 hops = 20 words, but cap memory at 8 words -> 4 hops
        // per TPP -> 3 TPPs.
        let tpps = split_for_path(&[sid, qsize], 10, 8).unwrap();
        assert_eq!(tpps.len(), 3);
        assert_eq!(tpps[0].hop, 0);
        assert_eq!(tpps[1].hop, (4u8).wrapping_neg());
        assert_eq!(tpps[2].hop, (8u8).wrapping_neg());
        assert_eq!(tpps[0].memory.len(), 4 * 2 * 4);
        assert_eq!(tpps[2].memory.len(), 2 * 2 * 4);

        // Execute all three across a simulated 10-hop path; each hop's
        // switch has a distinct ID.
        let mut executed: Vec<Tpp> = tpps.clone();
        for t in &mut executed {
            for hop in 0..10u32 {
                let mut bus = MapBus::with(&[(sid, 100 + hop), (qsize, 1000 + hop)]);
                execute(t, &mut bus, &ExecOptions::default());
            }
        }
        let rows = merge_split_results(&executed, 10, 2);
        for (hop, row) in rows.iter().enumerate() {
            assert_eq!(row[0], 100 + hop as u32, "switch id at hop {hop}");
            assert_eq!(row[1], 1000 + hop as u32, "queue size at hop {hop}");
        }
    }

    #[test]
    fn split_single_tpp_when_it_fits() {
        let sid = resolve_mnemonic("Switch:SwitchID").unwrap();
        let tpps = split_for_path(&[sid], 5, 63).unwrap();
        assert_eq!(tpps.len(), 1);
        assert_eq!(tpps[0].memory.len(), 5 * 4);
    }
}
