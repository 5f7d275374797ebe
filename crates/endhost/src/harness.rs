//! The unified end-host application harness.
//!
//! Every TPP application repeats the same edge wiring: create a [`Shim`],
//! register probes (`add_tpp` + filter + sampling + aggregator), forward
//! echo frames, match completed TPPs back to the code that understands
//! them, and drive an [`Executor`] for reliable standalone probes. The
//! [`Harness`] builder packages that pattern once: applications declare
//! *probes* ([`Probe`] schemas from `tpp-core`) with typed completion
//! callbacks, and the produced [`Endhost`] implements the simulator's
//! `HostApp` with a single `on_frame`/`on_timer` entry.
//!
//! A launched probe lives in the [`Executor`] alone, from launch to
//! completion or failure: it keeps the frame, the source port it left from
//! and its launch time, and retransmits the frame as it was first sent. A
//! completion reaches a launch callback only if the executor matches it to
//! a pending probe, by nonce or by launch port, and only if it carries that
//! probe's instructions. Fire-and-forget TPPs ([`Io::send_standalone`]) are
//! not echoed: the destination's shim absorbs them, so no reply comes back.
//!
//! An application's state `S` is plain data. Callbacks get `&mut S` while
//! the host runs; after (or between) runs the experiment reads them off
//! `Network::app_mut::<Endhost<S>>(host)`, whose `Deref` reaches `S`. No
//! handle into the state is kept outside the host.
//!
//! Three probe roles cover the paper's applications (§2):
//!
//! * [`Harness::stamp`] — piggy-back the probe on matching outgoing traffic
//!   (transparent mode, §4.2), optionally routing completions to an
//!   aggregator.
//! * [`Harness::launch`] — standalone probes sent on demand via
//!   [`Io::launch`], tracked with retries by the Executor (§4.4); the
//!   completion callback receives the time the probe was first sent.
//! * [`Harness::listen`] — decode completions of an app ID this host
//!   receives (e.g. a NetSight-style collector that other hosts aggregate
//!   to).
//!
//! ```
//! use tpp_core::probe::Probe;
//! use tpp_endhost::harness::{Aggregator, Harness};
//! use tpp_endhost::Filter;
//!
//! struct Watcher {
//!     samples: Vec<u32>,
//! }
//!
//! let probe = Probe::stack("queues").field("q", "Queue:QueueOccupancyPkts").app_id(7);
//! let app = Harness::new(Watcher { samples: Vec::new() })
//!     .stamp_with(probe, Filter::udp(), 1, Aggregator::Local, |w, _io, c| {
//!         w.samples.extend(c.hops().filter_map(|r| r.get("q")));
//!     })
//!     .build()
//!     .unwrap();
//! // `app` implements tpp_netsim::HostApp; hand it to Network::set_app.
//! assert!(app.samples.is_empty()); // Deref exposes the state
//! ```

use std::ops::{Deref, DerefMut};
use std::sync::Arc;

use tpp_core::probe::Probe;
use tpp_core::wire::{build_standalone, Ipv4Address, Tpp, TppBuf};
use tpp_netsim::{HostApp, HostCtx, Time};

use crate::cp::{CentralCp, CpError, Policy};
use crate::executor::{Executor, ExecutorConfig, ProbeOutcome};
use crate::filter::Filter;
use crate::shim::{mac_of_ip, CompletedTpp, FlowRef, Shim, TPP_UPDATE_PORT};

/// Timer token reserved for the harness's executor retry sweep; application
/// tokens must stay below it.
pub const RETRY_TOKEN: u64 = u64::MAX;

/// Errors from building a [`Harness`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum HarnessError {
    /// A probe schema failed to compile.
    Probe(tpp_core::probe::ProbeError),
    /// A compiled probe violated the configured [`Policy`].
    Policy(CpError),
    /// Two registrations share an app ID; completions could not be routed.
    DuplicateAppId(u16),
    /// `launch` registrations need [`Harness::executor`].
    NoExecutor,
}

impl std::fmt::Display for HarnessError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HarnessError::Probe(e) => write!(f, "probe: {e}"),
            HarnessError::Policy(e) => write!(f, "policy: {e}"),
            HarnessError::DuplicateAppId(id) => write!(f, "duplicate app id {id}"),
            HarnessError::NoExecutor => write!(f, "launch probes require an executor config"),
        }
    }
}

impl std::error::Error for HarnessError {}

/// Where a stamped probe's completions are sent (§4.2).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Aggregator {
    /// Default: echo completions back to the instrumented packet's source.
    Source,
    /// This host consumes its own completions (receiver-side observation).
    Local,
    /// A dedicated collector host.
    Remote(Ipv4Address),
}

/// A completed probe surfaced to its typed callback.
pub struct Completion {
    /// The schema that decodes this TPP.
    pub probe: Arc<Probe>,
    /// The executed section, as the shim surfaced it.
    pub tpp: TppBuf,
    /// Source of the packet that carried (or echoed) the TPP.
    pub from: Ipv4Address,
    /// The instrumented packet's flow (a launched probe's source port is
    /// the one it was launched from).
    pub flow: FlowRef,
    /// When a launched probe was first sent (a retry does not move it);
    /// `None` for stamped and listened probes.
    pub sent_at: Option<Time>,
}

impl Completion {
    /// Typed per-hop records of the completed TPP.
    pub fn hops(&self) -> tpp_core::probe::Records<'_> {
        self.probe.records(&self.tpp)
    }
}

type StartFn<S> = Box<dyn FnMut(&mut S, &mut Io<'_, '_>) + Send>;
type TimerFn<S> = Box<dyn FnMut(&mut S, &mut Io<'_, '_>, u64) + Send>;
type DeliverFn<S> = Box<dyn FnMut(&mut S, &mut Io<'_, '_>, Vec<u8>) + Send>;
type CompletionFn<S> = Box<dyn FnMut(&mut S, &mut Io<'_, '_>, Completion) + Send>;
type FailedFn<S> = Box<dyn FnMut(&mut S, &mut Io<'_, '_>) + Send>;
type RawFn<S> = Box<dyn FnMut(&mut S, &[u8]) + Send>;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Role {
    Stamp { sample_frequency: u32 },
    Launch,
    Listen,
}

struct Registration {
    app_id: u16,
    probe: Arc<Probe>,
    /// Compiled template (stamp: installed in the filter table; launch:
    /// cloned per send).
    template: Tpp,
    filter: Filter,
    aggregator: Aggregator,
    role: Role,
}

/// The shim/executor half of an [`Endhost`], shared with callbacks as part
/// of [`Io`].
struct Core {
    shim: Option<Shim>,
    exec: Option<Executor>,
    exec_cfg: Option<ExecutorConfig>,
    seed: Option<u64>,
    regs: Vec<Registration>,
    aggregate_local: Vec<u16>,
    /// Bytes of standalone probe/update traffic sent (first transmissions
    /// and retries) — the §2.2 control-overhead numerator.
    probe_bytes_sent: u64,
    /// When the one live [`RETRY_TOKEN`] timer fires, if one is armed. It is
    /// never later than the executor's earliest deadline, so every
    /// retransmission goes out at the instant it falls due.
    retry_armed: Option<Time>,
}

impl Core {
    /// Make sure a retry timer fires at the executor's earliest deadline.
    /// Timers cannot be cancelled: one armed for a later instant stays in
    /// the scheduler and is ignored when it fires (see `on_timer`).
    fn arm_retry(&mut self, ctx: &mut HostCtx<'_>) {
        let Some(deadline) = self.exec.as_ref().and_then(Executor::next_deadline) else { return };
        let at = deadline.max(ctx.now);
        if self.retry_armed.is_none_or(|armed| at < armed) {
            ctx.set_timer_at(at, RETRY_TOKEN);
            self.retry_armed = Some(at);
        }
    }
}

struct Handlers<S> {
    on_start: Option<StartFn<S>>,
    on_timer: Option<TimerFn<S>>,
    on_deliver: Option<DeliverFn<S>>,
    on_failed: Option<FailedFn<S>>,
    on_raw: Option<RawFn<S>>,
    /// Completion callbacks keyed by registration index (app IDs may still
    /// be rewritten by `register` inheritance at build time).
    completions: Vec<(usize, CompletionFn<S>)>,
}

/// Builder for an [`Endhost`]: state + probes + callbacks.
pub struct Harness<S> {
    state: S,
    core: Core,
    handlers: Handlers<S>,
    policy: Option<Policy>,
    default_app_id: u16,
    err: Option<HarnessError>,
}

impl<S: Send + 'static> Harness<S> {
    pub fn new(state: S) -> Harness<S> {
        Harness {
            state,
            core: Core {
                shim: None,
                exec: None,
                exec_cfg: None,
                seed: None,
                regs: Vec::new(),
                aggregate_local: Vec::new(),
                probe_bytes_sent: 0,
                retry_armed: None,
            },
            handlers: Handlers {
                on_start: None,
                on_timer: None,
                on_deliver: None,
                on_failed: None,
                on_raw: None,
                completions: Vec::new(),
            },
            policy: None,
            default_app_id: 0,
            err: None,
        }
    }

    /// Seed for the shim's sampling RNG (default: the host's node id).
    #[must_use]
    pub fn shim_seed(mut self, seed: u64) -> Self {
        self.core.seed = Some(seed);
        self
    }

    /// Enable the reliable-execution [`Executor`] (required by
    /// [`Harness::launch`]); retries run on the reserved [`RETRY_TOKEN`]
    /// timer.
    #[must_use]
    pub fn executor(mut self, cfg: ExecutorConfig) -> Self {
        self.core.exec_cfg = Some(cfg);
        self
    }

    /// Register with the central TPP-CP: allocates (or re-uses — the call
    /// is idempotent per name) an app ID, and adopts the app's [`Policy`],
    /// against which every probe is validated at build time (§4.1: a TPP
    /// that violates its app's segments "is never installed"). Probes
    /// compiled with app ID 0 inherit the allocated ID.
    #[must_use]
    pub fn register(mut self, cp: &mut CentralCp, name: &str) -> Self {
        let app_id = cp.register_app(name);
        self.default_app_id = app_id;
        match cp.policy_for(app_id, false) {
            Ok(p) => self.policy = Some(p),
            Err(e) => self.err = Some(HarnessError::Policy(e)),
        }
        self
    }

    fn add(
        mut self,
        probe: Probe,
        filter: Filter,
        aggregator: Aggregator,
        role: Role,
        cb: Option<CompletionFn<S>>,
    ) -> Self {
        if self.err.is_some() {
            return self;
        }
        let template = match probe.compile() {
            Ok(t) => t,
            Err(e) => {
                self.err = Some(HarnessError::Probe(e));
                return self;
            }
        };
        // App-id inheritance, policy validation, executor and duplicate
        // checks all happen in build(), so registration order relative to
        // register()/executor() does not matter.
        let app_id = template.app_id;
        let index = self.core.regs.len();
        self.core.regs.push(Registration {
            app_id,
            probe: Arc::new(probe),
            template,
            filter,
            aggregator,
            role,
        });
        if let Some(cb) = cb {
            self.handlers.completions.push((index, cb));
        }
        self
    }

    /// Piggy-back `probe` on outgoing traffic matching `filter`, one in
    /// `sample_frequency` packets (§4.1), without observing completions.
    #[must_use]
    pub fn stamp(
        self,
        probe: Probe,
        filter: Filter,
        sample_frequency: u32,
        aggregator: Aggregator,
    ) -> Self {
        self.add(probe, filter, aggregator, Role::Stamp { sample_frequency }, None)
    }

    /// Like [`Harness::stamp`], with a typed completion callback.
    #[must_use]
    pub fn stamp_with(
        self,
        probe: Probe,
        filter: Filter,
        sample_frequency: u32,
        aggregator: Aggregator,
        cb: impl FnMut(&mut S, &mut Io<'_, '_>, Completion) + Send + 'static,
    ) -> Self {
        self.add(probe, filter, aggregator, Role::Stamp { sample_frequency }, Some(Box::new(cb)))
    }

    /// Register a standalone probe sent on demand with [`Io::launch`];
    /// completions the Executor matches to a launch invoke `cb`.
    #[must_use]
    pub fn launch(
        self,
        probe: Probe,
        cb: impl FnMut(&mut S, &mut Io<'_, '_>, Completion) + Send + 'static,
    ) -> Self {
        self.add(probe, Filter::any(), Aggregator::Source, Role::Launch, Some(Box::new(cb)))
    }

    /// Decode completions of `probe`'s app ID arriving at this host (the
    /// collector side of a remote aggregation).
    #[must_use]
    pub fn listen(
        self,
        probe: Probe,
        cb: impl FnMut(&mut S, &mut Io<'_, '_>, Completion) + Send + 'static,
    ) -> Self {
        self.add(probe, Filter::any(), Aggregator::Source, Role::Listen, Some(Box::new(cb)))
    }

    /// Consume completions of `app_id` locally (sets this host as the
    /// app's aggregator) without decoding them — keeps foreign TPP echoes
    /// off the network, e.g. on a throughput sink's ACK path.
    #[must_use]
    pub fn aggregate_local(mut self, app_id: u16) -> Self {
        self.core.aggregate_local.push(app_id);
        self
    }

    /// Called once before the first event, after the shim and executor
    /// exist (send initial probes, arm timers here).
    #[must_use]
    pub fn on_start(mut self, cb: impl FnMut(&mut S, &mut Io<'_, '_>) + Send + 'static) -> Self {
        self.handlers.on_start = Some(Box::new(cb));
        self
    }

    /// Application timer dispatch ([`RETRY_TOKEN`] is consumed internally).
    #[must_use]
    pub fn on_timer(
        mut self,
        cb: impl FnMut(&mut S, &mut Io<'_, '_>, u64) + Send + 'static,
    ) -> Self {
        self.handlers.on_timer = Some(Box::new(cb));
        self
    }

    /// TPP-stripped frames for the local stack (§4.2). Without a handler
    /// they are dropped.
    #[must_use]
    pub fn on_deliver(
        mut self,
        cb: impl FnMut(&mut S, &mut Io<'_, '_>, Vec<u8>) + Send + 'static,
    ) -> Self {
        self.handlers.on_deliver = Some(Box::new(cb));
        self
    }

    /// Called once per launched probe that exhausted its retries.
    #[must_use]
    pub fn on_failed(mut self, cb: impl FnMut(&mut S, &mut Io<'_, '_>) + Send + 'static) -> Self {
        self.handlers.on_failed = Some(Box::new(cb));
        self
    }

    /// Observe every raw frame before shim processing (wire-byte
    /// accounting for the §6.2 overhead experiments).
    #[must_use]
    pub fn on_raw_frame(mut self, cb: impl FnMut(&mut S, &[u8]) + Send + 'static) -> Self {
        self.handlers.on_raw = Some(Box::new(cb));
        self
    }

    /// Finish the wiring: resolve inherited app IDs, validate every probe
    /// against the policy, and check executor/duplicate constraints. These
    /// run here — not at registration — so builder calls compose in any
    /// order.
    pub fn build(mut self) -> Result<Endhost<S>, HarnessError> {
        if let Some(e) = self.err {
            return Err(e);
        }
        for reg in &mut self.core.regs {
            if reg.template.app_id == 0 {
                reg.template.app_id = self.default_app_id;
                reg.app_id = self.default_app_id;
            }
            if let Some(policy) = &self.policy {
                policy.validate(&reg.template).map_err(HarnessError::Policy)?;
            }
            if matches!(reg.role, Role::Launch) && self.core.exec_cfg.is_none() {
                return Err(HarnessError::NoExecutor);
            }
        }
        for (i, reg) in self.core.regs.iter().enumerate() {
            if self.core.regs[..i].iter().any(|r| r.app_id == reg.app_id) {
                return Err(HarnessError::DuplicateAppId(reg.app_id));
            }
        }
        Ok(Endhost { state: self.state, core: self.core, handlers: self.handlers })
    }
}

/// What probe callbacks can do: the simulator context plus the harness's
/// shim/executor.
pub struct Io<'a, 'b> {
    /// The simulator host context (timers, `now`, raw sends, frame pool).
    pub ctx: &'a mut HostCtx<'b>,
    core: &'a mut Core,
}

impl Io<'_, '_> {
    /// Transmit through the shim's stamp path (piggy-backs a TPP when a
    /// stamped probe's filter matches; §4.2). Returns the wire length.
    pub fn send_data(&mut self, frame: Vec<u8>) -> usize {
        let frame = match self.core.shim.as_mut() {
            Some(shim) => shim.outgoing(frame),
            None => frame,
        };
        let len = frame.len();
        self.ctx.send(frame);
        len
    }

    /// Launch the registered standalone probe `app_id` toward `dst` with
    /// reliable retries, from `src_port` (e.g. a port chosen to steer the
    /// probe onto one ECMP path) or from one the executor picks. Every
    /// retransmission leaves from the same port. Returns `false` when no
    /// such registration exists.
    pub fn launch(&mut self, app_id: u16, dst: Ipv4Address, src_port: Option<u16>) -> bool {
        let reg = self.core.regs.iter().find(|r| r.app_id == app_id && r.role == Role::Launch);
        let (Some(reg), Some(exec)) = (reg, self.core.exec.as_mut()) else { return false };
        let (_, frame) = exec.send(self.ctx.now, dst, reg.template.clone(), src_port);
        self.core.probe_bytes_sent += frame.len() as u64;
        self.ctx.send(frame);
        self.core.arm_retry(self.ctx);
        true
    }

    /// Fire-and-forget a standalone TPP (e.g. a write/update program whose
    /// effect the next collect probe verifies, §2.2). It leaves from
    /// [`TPP_UPDATE_PORT`], so the destination's shim sends no echo. Counted
    /// in [`Endhost::probe_bytes_sent`].
    pub fn send_standalone(&mut self, tpp: &Tpp, dst: Ipv4Address) {
        let frame =
            build_standalone(self.ctx.mac, mac_of_ip(dst), self.ctx.ip, dst, TPP_UPDATE_PORT, tpp);
        self.core.probe_bytes_sent += frame.len() as u64;
        self.ctx.send(frame);
    }
}

/// A wired TPP end-host application: shim + executor + typed probe
/// dispatch around user state `S` (built by [`Harness`]).
///
/// Implements the simulator's `HostApp`; derefs to `S` so an experiment
/// reads results straight off the state, through
/// `Network::app_mut::<Endhost<S>>` once the run is over.
pub struct Endhost<S> {
    state: S,
    core: Core,
    handlers: Handlers<S>,
}

impl<S> Deref for Endhost<S> {
    type Target = S;
    fn deref(&self) -> &S {
        &self.state
    }
}

impl<S> DerefMut for Endhost<S> {
    fn deref_mut(&mut self) -> &mut S {
        &mut self.state
    }
}

impl<S> Endhost<S> {
    /// Bytes of standalone probe/update traffic sent (incl. retries) — the
    /// §2.2 control-overhead numerator.
    pub fn probe_bytes_sent(&self) -> u64 {
        self.core.probe_bytes_sent
    }

    /// Shim counters (None before `start`).
    pub fn shim(&self) -> Option<&Shim> {
        self.core.shim.as_ref()
    }

    /// The reliable-execution engine with its retry/completion counters
    /// (None when the harness was built without [`Harness::executor`]).
    pub fn executor(&self) -> Option<&Executor> {
        self.core.exec.as_ref()
    }

    fn dispatch_completion(&mut self, ctx: &mut HostCtx<'_>, done: CompletedTpp) {
        let Some((index, reg)) =
            self.core.regs.iter().enumerate().find(|(_, r)| r.app_id == done.app_id)
        else {
            return;
        };
        let (probe, role, from, flow) = (reg.probe.clone(), reg.role, done.from, done.flow);
        // Executor-tracked first: a launched probe's completion must consume
        // its pending entry exactly once.
        let (sent_at, tpp) = match (role, self.core.exec.as_mut()) {
            (Role::Launch, Some(exec)) => match exec.on_completed(done) {
                Some(ProbeOutcome::Completed { tpp, sent_at, .. }) => (Some(sent_at), tpp),
                // Duplicate, stale or foreign completion: drop.
                _ => return,
            },
            _ => (None, done.tpp),
        };
        if let Some((_, cb)) = self.handlers.completions.iter_mut().find(|(i, _)| *i == index) {
            let completion = Completion { probe, tpp, from, flow, sent_at };
            cb(&mut self.state, &mut Io { ctx, core: &mut self.core }, completion);
        }
    }

    fn poll_retries(&mut self, ctx: &mut HostCtx<'_>) {
        let Some(exec) = self.core.exec.as_mut() else { return };
        let (resend, failed) = exec.poll(ctx.now);
        for frame in resend {
            self.core.probe_bytes_sent += frame.len() as u64;
            ctx.send(frame);
        }
        self.core.arm_retry(ctx);
        if let Some(cb) = &mut self.handlers.on_failed {
            for _ in &failed {
                cb(&mut self.state, &mut Io { ctx, core: &mut self.core });
            }
        }
    }
}

impl<S: Send + 'static> HostApp for Endhost<S> {
    fn start(&mut self, ctx: &mut HostCtx<'_>) {
        let seed = self.core.seed.unwrap_or(ctx.node.0 as u64);
        let mut shim = Shim::new(ctx.ip, ctx.mac, seed);
        for reg in &self.core.regs {
            if let Role::Stamp { sample_frequency } = reg.role {
                shim.add_tpp(reg.app_id, reg.filter, reg.template.clone(), sample_frequency, 0);
            }
            match reg.aggregator {
                Aggregator::Source => {}
                Aggregator::Local => shim.set_aggregator(reg.app_id, ctx.ip),
                Aggregator::Remote(ip) => shim.set_aggregator(reg.app_id, ip),
            }
        }
        for &app_id in &self.core.aggregate_local {
            shim.set_aggregator(app_id, ctx.ip);
        }
        self.core.shim = Some(shim);
        self.core.exec = self.core.exec_cfg.map(|cfg| Executor::new(ctx.ip, ctx.mac, cfg));
        if let Some(cb) = &mut self.handlers.on_start {
            cb(&mut self.state, &mut Io { ctx, core: &mut self.core });
        }
    }

    fn on_frame(&mut self, ctx: &mut HostCtx<'_>, frame: Vec<u8>) {
        if let Some(cb) = &mut self.handlers.on_raw {
            cb(&mut self.state, &frame);
        }
        let Some(shim) = self.core.shim.as_mut() else { return };
        let out = shim.incoming(frame);
        if let Some(echo) = out.echo {
            ctx.send(echo);
        }
        if let Some(done) = out.completed {
            self.dispatch_completion(ctx, done);
        }
        if let Some(inner) = out.deliver {
            if let Some(cb) = &mut self.handlers.on_deliver {
                cb(&mut self.state, &mut Io { ctx, core: &mut self.core }, inner);
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut HostCtx<'_>, token: u64) {
        if token == RETRY_TOKEN {
            // Only the armed timer is live. One that an earlier deadline
            // superseded fires before anything it could resend is due.
            if self.core.retry_armed == Some(ctx.now) {
                self.core.retry_armed = None;
                self.poll_retries(ctx);
            }
            return;
        }
        if let Some(cb) = &mut self.handlers.on_timer {
            cb(&mut self.state, &mut Io { ctx, core: &mut self.core }, token);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn read_probe() -> Probe {
        Probe::stack("t").field("s", "Switch:SwitchID")
    }

    #[test]
    fn builder_calls_compose_in_any_order() {
        // launch() before executor() must not error.
        let ok = Harness::new(0u32)
            .launch(read_probe().app_id(1), |_, _, _| {})
            .executor(ExecutorConfig::default())
            .build();
        assert!(ok.is_ok());
        // ...but a launch probe with no executor at all still does.
        let err = Harness::new(0u32).launch(read_probe().app_id(1), |_, _, _| {}).build();
        assert!(matches!(err, Err(HarnessError::NoExecutor)));
    }

    #[test]
    fn register_applies_to_probes_added_before_it() {
        // A write probe added *before* register() must still be validated
        // against the CP policy adopted by register() — which rejects it,
        // since the app holds no write grant.
        let mut cp = CentralCp::new();
        let write_probe = Probe::hop("w").store("r", "Link:AppSpecific_0");
        let err = Harness::new(0u32)
            .stamp(write_probe, Filter::udp(), 1, Aggregator::Source)
            .register(&mut cp, "reader")
            .build();
        assert!(matches!(err, Err(HarnessError::Policy(_))), "{:?}", err.err());
        // A read probe passes, inheriting the CP-allocated app id.
        let ok = Harness::new(0u32)
            .stamp(read_probe(), Filter::udp(), 1, Aggregator::Source)
            .register(&mut cp, "reader")
            .build()
            .unwrap();
        assert_eq!(ok.core.regs[0].template.app_id, cp.register_app("reader"));
    }

    #[test]
    fn duplicate_app_ids_rejected_at_build() {
        let err = Harness::new(0u32)
            .stamp(read_probe().app_id(7), Filter::udp(), 1, Aggregator::Source)
            .listen(read_probe().app_id(7), |_, _, _| {})
            .build();
        assert!(matches!(err, Err(HarnessError::DuplicateAppId(7))));
    }

    /// A host that logs when each frame reaches it and never answers.
    struct Recorder(Vec<Time>);
    impl HostApp for Recorder {
        fn on_frame(&mut self, ctx: &mut HostCtx<'_>, _frame: Vec<u8>) {
            self.0.push(ctx.now);
        }
    }

    #[test]
    fn one_retry_timer_serves_every_pending_probe() {
        use tpp_netsim::{LinkSpec, Network, MILLIS};
        // 100 probes, one every 100 us, into a peer that never echoes: each
        // is retransmitted twice (after 1.062 ms, then 2.124 ms and its
        // jitter more) and then fails. With this timeout no two of the 300
        // transmissions, jitter included, fall within 1.8 us of each other,
        // so none queues behind another and every frame sees the same wire
        // latency.
        const PROBES: u64 = 100;
        const GAP: Time = 100_000;
        const TIMEOUT: Time = 1_062_000;
        let cfg = ExecutorConfig { max_retries: 2, timeout_ns: TIMEOUT };
        let peer = Ipv4Address::from_host_id(1);
        let launcher = Harness::new(0u64)
            .executor(cfg)
            .launch(read_probe().app_id(1), |_, _, _| {})
            .on_start(|_, io| io.ctx.set_timer(0, 0))
            .on_timer(move |launched: &mut u64, io, _| {
                assert!(io.launch(1, peer, None), "registered");
                *launched += 1;
                if *launched < PROBES {
                    io.ctx.set_timer(GAP, 0);
                }
            })
            .build()
            .unwrap();
        let mut net = Network::new(1);
        let a = net.add_host(Box::new(launcher));
        let b = net.add_host(Box::new(Recorder(Vec::new())));
        net.connect(a, b, LinkSpec::new(1000, 1000));
        net.run_until(30 * MILLIS);

        let app = net.app_mut::<Endhost<u64>>(a);
        let exec = app.executor().unwrap();
        assert_eq!((exec.sent, exec.retransmitted, exec.failed), (PROBES, 2 * PROBES, PROBES));
        // Every first transmission and every retry left at its own deadline.
        let log = &net.app_mut::<Recorder>(b).0;
        let wire = log[0];
        // Probe `k` holds token `k + 1`.
        let mut want: Vec<Time> = (0..PROBES)
            .flat_map(|k| {
                let second = TIMEOUT + crate::executor::backoff_ns(TIMEOUT, k as u32 + 1, 1);
                [0, TIMEOUT, second].map(|after| k * GAP + after + wire)
            })
            .collect();
        want.sort_unstable();
        assert_eq!(*log, want);
        // 300 frames cost three events each, 100 launch timers, and one retry
        // timer per distinct deadline (300, plus the few a newer, earlier
        // deadline superseded). Re-arming on every launch and every firing
        // kept one live chain per probe and cost over 20,000 events here.
        assert!(net.stats.events_processed < 1_500, "{}", net.stats.events_processed);
        assert_eq!(net.pending_events(), 1, "only the utilization tick is left");
    }
}
