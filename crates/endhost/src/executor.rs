//! The TPP Executor library (§4.4): common execution patterns built from
//! the raw TPP primitives.
//!
//! * **Reliable execution** — standalone probes tracked by a nonce stamped
//!   into the last packet-memory word, retried on timeout.
//! * **Targeted execution** — wrap a TPP in a `CEXEC` on the switch ID so
//!   it executes at exactly one switch; send it to the switch's IP and it
//!   reflects back (§4.4 "Reflective TPP").
//! * **Large TPPs** — statistics that don't fit in one packet are split
//!   into several hop-range TPPs by pre-winding the hop counter, so each
//!   split's hop windows cover a later slice of the path.
//!
//! The [`Executor`] is the one ledger of a launched probe. It keeps the
//! frame it built and the time it was first sent, retransmits that frame
//! unchanged, and reports the launch time with the completion. A completion
//! names its probe by its nonce. A probe launched from a port the executor
//! picked has a second key, that port, which no other pending probe shares:
//! it names the probe when a hop window that runs past the probe's memory
//! overwrote the nonce (a looping probe does). A probe launched from the
//! caller's port matches by nonce alone, because several of one flow's
//! probes can be pending from that port at once, and a late echo of one
//! must not complete another. Either key matches only if the completion
//! comes from the probe's destination and its instruction bytes equal the
//! pending probe's. Execution never rewrites instructions, so an echo of
//! some other program (one sent from the probe's port, or one whose last
//! word happens to equal a pending token), or one from any other host,
//! completes nothing; it counts as [`Executor::unmatched`].

use std::collections::BTreeMap;
use std::ops::Range;

use tpp_core::addr::{resolve_mnemonic, Address};
use tpp_core::asm::AsmError;
use tpp_core::isa::{Instruction, INSTR_BYTES, MAX_INSTRUCTIONS};
use tpp_core::probe::TppData;
use tpp_core::wire::tpp::HEADER_LEN;
use tpp_core::wire::{
    build_standalone, ethernet, AddrMode, EthernetAddress, Ipv4Address, Ipv4Packet, Tpp, TppBuf,
};

use crate::shim::{mac_of_ip, CompletedTpp};

/// Executor tuning knobs.
#[derive(Clone, Copy, Debug)]
pub struct ExecutorConfig {
    pub max_retries: u32,
    /// Base timeout: the first deadline is `send time + timeout_ns`. Every
    /// deadline saturates at `u64::MAX`, so `u64::MAX` means "never time
    /// out".
    pub timeout_ns: u64,
}

impl Default for ExecutorConfig {
    fn default() -> Self {
        ExecutorConfig { max_retries: 3, timeout_ns: 10_000_000 }
    }
}

/// A probe launched without a port of the caller's leaves from
/// `PORT_BASE + token % PORTS`, so its port doubles as a completion key.
const PORT_BASE: u16 = 40_000;
const PORTS: u16 = 16_384;

/// Exponential backoff cap: retry `k` waits `timeout_ns << min(k,
/// MAX_BACKOFF_EXP)` plus jitter, saturating.
const MAX_BACKOFF_EXP: u32 = 3;

/// Jitter divisor: each backoff wait adds a deterministic pseudo-random
/// jitter in `0..=wait / JITTER_DIV`, keyed by `(token, attempt)`, so
/// synchronized probes (fleet-wide monitors) don't retransmit in lockstep.
const JITTER_DIV: u64 = 8;

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
        /// The completion's section, moved out of it.
        tpp: TppBuf,
        /// When the probe was first sent (a retry does not move it).
        sent_at: u64,
    },
    /// All retries exhausted.
    Failed { token: u32 },
}

struct Pending {
    frame: Vec<u8>,
    /// Where the probe's instruction bytes sit in `frame`.
    program: Range<usize>,
    /// The port the executor picked for the probe, a completion key of its
    /// own; `None` when the caller chose the port.
    port_key: Option<u16>,
    sent_at: u64,
    retries_left: u32,
    deadline: u64,
}

/// Tracks in-flight standalone probes (reliable execution).
pub struct Executor {
    pub cfg: ExecutorConfig,
    src_ip: Ipv4Address,
    src_mac: EthernetAddress,
    next_token: u32,
    pending: BTreeMap<u32, Pending>,
    pub sent: u64,
    pub retransmitted: u64,
    pub completed: u64,
    pub failed: u64,
    /// Completions that matched no pending probe: duplicates, late copies
    /// of a retried probe, and echoes of other programs.
    pub unmatched: u64,
}

impl Executor {
    pub fn new(src_ip: Ipv4Address, src_mac: EthernetAddress, cfg: ExecutorConfig) -> Self {
        Executor {
            cfg,
            src_ip,
            src_mac,
            next_token: 1,
            pending: BTreeMap::new(),
            sent: 0,
            retransmitted: 0,
            completed: 0,
            failed: 0,
            unmatched: 0,
        }
    }

    /// Stamp a nonce into the TPP's last packet-memory word, growing memory
    /// by one word so the program's own accesses can't clobber it. A probe
    /// already at the wire memory budget cannot grow (the one-byte length
    /// field would wrap): its last word is overwritten instead, and if the
    /// program then clobbers it, only a port the executor picked still names
    /// the probe ([`Executor::on_completed`]).
    fn stamp_nonce(tpp: &mut Tpp, token: u32) {
        if tpp.memory.len() + 4 <= tpp_core::wire::MAX_MEMORY_BYTES {
            tpp.memory.extend_from_slice(&token.to_be_bytes());
        } else if let Some(last) = tpp.memory.len().checked_sub(4) {
            tpp.memory[last..].copy_from_slice(&token.to_be_bytes());
        }
    }

    /// Read a probe's nonce back out of a completed TPP.
    pub fn nonce_of<T: TppData + ?Sized>(tpp: &T) -> Option<u32> {
        let memory = tpp.memory();
        memory[..memory.len() / 4 * 4].last_chunk().map(|word| u32::from_be_bytes(*word))
    }

    /// Launch a reliable standalone probe toward `dst` (a host or a switch
    /// IP) from `src_port`, or by default from a port of its own,
    /// `PORT_BASE + token % PORTS`. Returns the token and the frame to
    /// transmit now; retransmissions resend that frame.
    pub fn send(
        &mut self,
        now: u64,
        dst: Ipv4Address,
        mut tpp: Tpp,
        src_port: Option<u16>,
    ) -> (u32, Vec<u8>) {
        let token = self.next_token;
        self.next_token += 1;
        Self::stamp_nonce(&mut tpp, token);
        // The shim's echo channel carries the probe's source port back, so
        // a port of its own doubles as a completion key.
        let own = PORT_BASE + (token % u32::from(PORTS)) as u16;
        let (sport, port_key) = src_port.map_or((own, Some(own)), |p| (p, None));
        let frame = build_standalone(self.src_mac, mac_of_ip(dst), self.src_ip, dst, sport, &tpp);
        // The section is the frame's payload, so it ends where the frame does.
        let at = frame.len() - tpp.section_len() + HEADER_LEN;
        let pending = Pending {
            frame: frame.clone(),
            program: at..at + tpp.instrs.len() * INSTR_BYTES,
            port_key,
            sent_at: now,
            retries_left: self.cfg.max_retries,
            deadline: now.saturating_add(self.cfg.timeout_ns),
        };
        self.pending.insert(token, pending);
        self.sent += 1;
        (token, frame)
    }

    /// Feed a completed TPP (from the shim's echo channel). Returns the
    /// outcome, which takes over the completion's section, if it matches a
    /// pending probe: by its nonce or, when a long hop-addressed path
    /// overwrote the nonce, by a source port the executor picked for the
    /// probe, and in either case only if it comes from the probe's
    /// destination and carries the probe's instructions.
    pub fn on_completed(&mut self, done: CompletedTpp) -> Option<ProbeOutcome> {
        let section = done.tpp.as_bytes();
        let program = &section[HEADER_LEN..section.len() - done.tpp.memory().len()];
        // The launch frame names the probe's destination: IPv4 follows
        // Ethernet in every frame `build_standalone` makes.
        let dst = |p: &Pending| Ipv4Packet::new_unchecked(&p.frame[ethernet::HEADER_LEN..]).dst();
        let ours = |p: &Pending| dst(p) == done.from && p.frame[p.program.clone()] == *program;
        let token = match Self::nonce_of(&done.tpp) {
            Some(nonce) if self.pending.get(&nonce).is_some_and(ours) => Some(nonce),
            _ => self
                .pending
                .iter()
                .find(|(_, p)| p.port_key == Some(done.flow.src_port) && ours(p))
                .map(|(&t, _)| t),
        };
        let Some((token, p)) = token.and_then(|token| self.pending.remove_entry(&token)) else {
            self.unmatched += 1;
            return None;
        };
        self.completed += 1;
        Some(ProbeOutcome::Completed { token, tpp: done.tpp, sent_at: p.sent_at })
    }

    /// Check timeouts: returns frames to retransmit and probes that failed
    /// permanently, both in ascending token order. Call when
    /// [`Executor::next_deadline`] passes.
    pub fn poll(&mut self, now: u64) -> (Vec<Vec<u8>>, Vec<ProbeOutcome>) {
        let mut resend = Vec::new();
        let mut done = Vec::new();
        if self.next_deadline().is_none_or(|deadline| deadline > now) {
            return (resend, done);
        }
        let cfg = self.cfg;
        self.pending.retain(|&token, p| {
            if p.deadline > now {
                return true;
            }
            if p.retries_left == 0 {
                done.push(ProbeOutcome::Failed { token });
                return false;
            }
            p.retries_left -= 1;
            let attempt = cfg.max_retries - p.retries_left; // 1st retry = 1
            p.deadline = now.saturating_add(backoff_ns(cfg.timeout_ns, token, attempt));
            resend.push(p.frame.clone());
            true
        });
        self.failed += done.len() as u64;
        self.retransmitted += resend.len() as u64;
        (resend, done)
    }

    /// Earliest pending timeout.
    pub fn next_deadline(&self) -> Option<u64> {
        self.pending.values().map(|p| p.deadline).min()
    }
}

/// The wait before retry `attempt` (1-based) of probe `token`: `timeout_ns`
/// doubled per attempt up to [`MAX_BACKOFF_EXP`] times, plus a deterministic
/// jitter keyed by `(token, attempt)`.
pub(crate) fn backoff_ns(timeout_ns: u64, token: u32, attempt: u32) -> u64 {
    let base = timeout_ns.saturating_mul(1 << attempt.min(MAX_BACKOFF_EXP));
    let jitter = splitmix64(((token as u64) << 32) | attempt as u64) % (base / JITTER_DIV + 1);
    base.saturating_add(jitter)
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
    use crate::Shim;
    use tpp_core::asm::TppBuilder;
    use tpp_core::exec::{execute, ExecOptions, MapBus};
    use tpp_core::wire;

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

    /// What the origin's shim surfaces once `frame` has been echoed back to
    /// it by the probe's destination.
    fn completion(frame: Vec<u8>) -> CompletedTpp {
        let host =
            |id| Shim::new(Ipv4Address::from_host_id(id), EthernetAddress::from_node_id(id), 0);
        let echo = host(2).incoming(frame).echo.expect("probe echoed");
        host(1).incoming(echo).completed.expect("completion surfaced")
    }

    /// Overwrite the probe's last memory word, its nonce, as a path would.
    fn overwrite_nonce(frame: &mut [u8], value: u32) {
        let wire::TppLocation::Standalone { section, .. } = wire::locate_tpp(frame) else {
            panic!("a standalone probe");
        };
        let (mut view, _) = wire::TppViewMut::parse(&mut frame[section..]).unwrap();
        view.write_word(view.memory_words() - 1, value).unwrap();
    }

    #[test]
    fn nonce_roundtrip() {
        let mut e = exec();
        let (token, frame) = e.send(0, Ipv4Address::from_host_id(2), probe(), None);
        let (_, tpp) = tpp_core::wire::extract_tpp(&frame).unwrap();
        assert_eq!(Executor::nonce_of(&tpp), Some(token));
        // Completion matches, and the outcome carries the section it came in.
        let done = completion(frame);
        let section = done.tpp.clone();
        match e.on_completed(done) {
            Some(ProbeOutcome::Completed { token: t2, tpp, sent_at }) => {
                assert_eq!((t2, tpp, sent_at), (token, section, 0));
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(e.next_deadline(), None, "nothing pending");
    }

    #[test]
    fn full_capacity_probe_stays_wire_valid() {
        // A probe compiled at the full wire memory budget cannot grow by a
        // nonce word: the one-byte length field would wrap to 0. The nonce
        // overwrites the last word instead and the section stays parseable.
        let mut e = exec();
        let mut big = probe();
        big.memory = vec![0; tpp_core::wire::MAX_MEMORY_BYTES];
        let (token, frame) = e.send(0, Ipv4Address::from_host_id(2), big, None);
        let (_, tpp) = tpp_core::wire::extract_tpp(&frame).expect("section parses");
        assert_eq!(tpp.memory.len(), tpp_core::wire::MAX_MEMORY_BYTES);
        assert_eq!(Executor::nonce_of(&tpp), Some(token));
        assert!(e.on_completed(completion(frame)).is_some());
    }

    #[test]
    fn overwritten_nonce_falls_back_to_the_source_port() {
        // The path wrote over the nonce word: the probe's source port, which
        // the echo carries back in its flow trailer, still names it.
        let mut e = exec();
        let (token, mut frame) = e.send(0, Ipv4Address::from_host_id(2), probe(), None);
        overwrite_nonce(&mut frame, 0xDEAD_BEEF);
        let done = completion(frame);
        assert_eq!(Executor::nonce_of(&done.tpp), Some(0xDEAD_BEEF));
        match e.on_completed(done) {
            Some(ProbeOutcome::Completed { token: t2, .. }) => assert_eq!(t2, token),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(e.next_deadline(), None, "nothing pending");
    }

    #[test]
    fn duplicate_completion_ignored() {
        let mut e = exec();
        let (_, frame) = e.send(0, Ipv4Address::from_host_id(2), probe(), None);
        let done = completion(frame);
        assert!(e.on_completed(done.clone()).is_some());
        assert!(e.on_completed(done).is_none());
        assert_eq!((e.completed, e.unmatched), (1, 1));
    }

    #[test]
    fn a_late_echo_on_a_shared_port_completes_nothing() {
        // Two probes of one flow pending from the flow's port: after the
        // first completes, a duplicate of its echo names no pending nonce,
        // and the port is no key, so it must not complete the second.
        let mut e = exec();
        let dst = Ipv4Address::from_host_id(2);
        let (first, first_frame) = e.send(0, dst, probe(), Some(7_001));
        let (second, second_frame) = e.send(1, dst, probe(), Some(7_001));
        let echo = completion(first_frame);
        match e.on_completed(echo.clone()) {
            Some(ProbeOutcome::Completed { token, .. }) => assert_eq!(token, first),
            other => panic!("unexpected {other:?}"),
        }
        assert!(e.on_completed(echo).is_none());
        assert_eq!((e.completed, e.unmatched), (1, 1));
        // Nor does an echo of the second whose nonce the path overwrote.
        let mut overwritten = second_frame.clone();
        overwrite_nonce(&mut overwritten, 0xDEAD_BEEF);
        assert!(e.on_completed(completion(overwritten)).is_none());
        assert_eq!((e.unmatched, e.next_deadline()), (2, Some(1 + e.cfg.timeout_ns)));
        // Its own echo completes it.
        match e.on_completed(completion(second_frame)) {
            Some(ProbeOutcome::Completed { token, sent_at, .. }) => {
                assert_eq!((token, sent_at), (second, 1));
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!((e.completed, e.next_deadline()), (2, None));
    }

    /// A fire-and-forget write program, sent from `src_port` to host 2 with
    /// `last_word` in its last memory word.
    fn update_frame(src_port: u16, last_word: u32) -> Vec<u8> {
        let mut update = tpp_core::probe::Probe::hop("update")
            .store("rate", "Link:AppSpecific_0")
            .hops(3)
            .compile()
            .unwrap();
        update.write_word(update.memory_words() - 1, last_word).unwrap();
        let (h1, h2) = (Ipv4Address::from_host_id(1), Ipv4Address::from_host_id(2));
        let (m1, m2) = (EthernetAddress::from_node_id(1), EthernetAddress::from_node_id(2));
        build_standalone(m1, m2, h1, h2, src_port, &update)
    }

    #[test]
    fn update_echo_on_a_probes_port_completes_nothing() {
        // Token 1 leaves from port 40,001. An echo of another program from
        // that port matches the port key but not the program.
        let mut e = exec();
        let (token, frame) = e.send(0, Ipv4Address::from_host_id(2), probe(), None);
        assert_eq!(u16::from_be_bytes([frame[34], frame[35]]), 40_001);
        assert!(e.on_completed(completion(update_frame(40_001, 0))).is_none());
        // The probe is still pending, and its own echo completes it.
        match e.on_completed(completion(frame)) {
            Some(ProbeOutcome::Completed { token: t2, .. }) => assert_eq!(t2, token),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!((e.completed, e.unmatched), (1, 1));
    }

    #[test]
    fn echo_of_the_probe_from_another_host_completes_nothing() {
        // The right program and token, but host 3 sent it: a forgery, or a
        // copy the probe's destination did not echo.
        let mut e = exec();
        let (token, frame) = e.send(0, Ipv4Address::from_host_id(2), probe(), None);
        let genuine = completion(frame);
        let forged = CompletedTpp { from: Ipv4Address::from_host_id(3), ..genuine.clone() };
        assert_eq!(Executor::nonce_of(&forged.tpp), Some(token));
        assert!(e.on_completed(forged).is_none());
        assert_eq!((e.completed, e.unmatched, e.next_deadline()), (0, 1, Some(e.cfg.timeout_ns)));
        // The destination's own echo still completes the probe.
        match e.on_completed(genuine) {
            Some(ProbeOutcome::Completed { token: t2, .. }) => assert_eq!(t2, token),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn echo_carrying_a_pending_token_but_another_program_completes_nothing() {
        let mut e = exec();
        let (token, _) = e.send(0, Ipv4Address::from_host_id(2), probe(), None);
        let done = completion(update_frame(7_000, token));
        assert_eq!(Executor::nonce_of(&done.tpp), Some(token));
        assert!(e.on_completed(done).is_none());
        assert_eq!((e.completed, e.next_deadline()), (0, Some(e.cfg.timeout_ns)));
    }

    #[test]
    fn retries_resend_the_launch_frame_and_completion_reports_the_launch() {
        // A probe launched from a port the caller chose is retransmitted
        // from that port, and completing the retry reports the first send.
        let mut e = exec();
        let (token, frame) = e.send(5, Ipv4Address::from_host_id(2), probe(), Some(30_007));
        assert_eq!(u16::from_be_bytes([frame[34], frame[35]]), 30_007);
        let (resend, _) = e.poll(5 + e.cfg.timeout_ns);
        assert_eq!(resend, vec![frame]);
        let done = completion(resend.into_iter().next().unwrap());
        assert_eq!(done.flow.src_port, 30_007);
        match e.on_completed(done) {
            Some(ProbeOutcome::Completed { token: t2, sent_at, .. }) => {
                assert_eq!((t2, sent_at), (token, 5));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn retry_then_fail() {
        let mut e = exec();
        e.cfg = ExecutorConfig { max_retries: 2, timeout_ns: 1000 };
        let (token, _) = e.send(0, Ipv4Address::from_host_id(2), probe(), None);
        assert_eq!(e.next_deadline(), Some(1000));
        // First timeout: retransmit, next wait doubles, plus jitter.
        let (resend, done) = e.poll(1000);
        assert_eq!(resend.len(), 1);
        assert!(done.is_empty());
        assert_eq!(e.next_deadline(), Some(3219), "1000 + 1000<<1 + 219 of at most 250");
        // Second: retransmit again, wait doubles again.
        let (resend, _) = e.poll(3219);
        assert_eq!(resend.len(), 1);
        assert_eq!(e.next_deadline(), Some(7378), "3219 + 1000<<2 + 159 of at most 500");
        // Third: out of retries.
        let (resend, done) = e.poll(7378);
        assert!(resend.is_empty());
        assert_eq!(done, vec![ProbeOutcome::Failed { token }]);
        assert_eq!(e.failed, 1);
        assert_eq!(e.retransmitted, 2);
    }

    #[test]
    fn backoff_caps_and_jitters_deterministically() {
        // The exponent caps at 3: attempts 3, 4 and 9 share the same base.
        for attempt in [3u32, 4, 9] {
            let base = 1000u64 << 3;
            let expected = base + splitmix64(((7u64) << 32) | attempt as u64) % (base / 8 + 1);
            assert_eq!(backoff_ns(1000, 7, attempt), expected);
            assert!(backoff_ns(1000, 7, attempt) >= base);
            assert!(backoff_ns(1000, 7, attempt) <= base + base / 8);
        }
        // Below the cap the wait doubles per attempt.
        assert_eq!([1, 2].map(|attempt| backoff_ns(1000, 7, attempt) / 1000), [2, 4]);
        // Different tokens de-synchronize: some pair of 16 tokens must
        // disagree (they all share attempt 1).
        let waits: Vec<u64> = (0..16).map(|t| backoff_ns(1000, t, 1)).collect();
        assert!(waits.windows(2).any(|w| w[0] != w[1]), "{waits:?}");
    }

    #[test]
    fn deadline_arithmetic_saturates() {
        // "Never time out": the deadline pins at u64::MAX and no earlier
        // poll resends. The bare `now + timeout_ns` panicked in debug and in
        // release wrapped the deadline to 0, retransmitting at once.
        let mut e = exec();
        e.cfg = ExecutorConfig { timeout_ns: u64::MAX, ..e.cfg };
        e.send(1, Ipv4Address::from_host_id(2), probe(), None);
        assert_eq!(e.next_deadline(), Some(u64::MAX));
        for now in [1, 1 << 40, u64::MAX - 1] {
            assert_eq!(e.poll(now), (Vec::new(), Vec::new()));
        }
        // At u64::MAX itself it retries, and the next deadline stays there
        // (the doubled base and `base + jitter` saturate).
        assert_eq!(e.poll(u64::MAX).0.len(), 1);
        assert_eq!(e.next_deadline(), Some(u64::MAX));
    }

    #[test]
    fn poll_before_deadline_is_noop() {
        let mut e = exec();
        e.send(0, Ipv4Address::from_host_id(2), probe(), None);
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
