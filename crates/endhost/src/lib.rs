//! # tpp-endhost — the TPP end-host stack (paper §4, Figure 9)
//!
//! End-hosts do the heavy lifting in the TPP architecture: switches only
//! execute five-instruction programs, while hosts compose them, interpose
//! on traffic, enforce security policy, and compute on the results.
//!
//! * [`cp`] — TPP-CP: the control plane that registers applications,
//!   allocates exclusive switch-memory segments (GDT-style), and statically
//!   validates TPPs before installation (§4.1, §4.3).
//! * [`filter`] — iptables-like filters with sampling frequencies, backing
//!   the `add_tpp(filter, tpp, sample_freq, priority)` API (§4.1).
//! * [`shim`] — the dataplane shim on the host's critical path: stamps
//!   outgoing packets, strips incoming ones, echoes completed standalone
//!   TPPs to their source and piggy-backed ones to per-app aggregators
//!   (§4.2). A fire-and-forget TPP is consumed by a destination that
//!   aggregates its app ID, so it is not echoed.
//! * [`executor`] — reliable / targeted / split execution patterns (§4.4).
//! * [`transport`] — a Reno-like TCP model and paced UDP senders: the
//!   substrate for the paper's congestion-control and overhead experiments
//!   (§2.2, §6.2).
//! * [`harness`] — the unified application harness: declare typed
//!   [`Probe`](tpp_core::probe::Probe)s with completion callbacks and get a
//!   fully wired simulator host ([`Harness`] → [`Endhost`]).

#![forbid(unsafe_code)]

pub mod cp;
pub mod executor;
pub mod filter;
pub mod harness;
pub mod shim;
pub mod transport;

pub use cp::{CentralCp, CpError, Policy};
pub use executor::{Executor, ExecutorConfig, ProbeOutcome};
pub use filter::{Filter, FilterTable};
pub use harness::{Aggregator, Completion, Endhost, Harness, HarnessError, Io};
pub use shim::{CompletedTpp, FlowRef, Incoming, Shim, TPP_ECHO_PORT};
pub use transport::{PacedSender, SegHeader, TcpConn};
