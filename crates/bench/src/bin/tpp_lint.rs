//! tpp-lint: disassemble and statically verify TPP programs.
//!
//! The command-line face of `tpp_core::verify` — the same abstract
//! interpreter that gates `Probe::compile` and TPP-CP's `Policy::validate`,
//! with rustc-style diagnostics:
//!
//! ```text
//! tpp-lint --all-apps            verify every built-in app probe against
//!                                its declared TPP-CP segment table
//! tpp-lint [--hops N] FILE       assemble FILE (paper pseudo-assembly)
//!                                and verify it for N hops (default: derive)
//! tpp-lint [--hops N] --hex STR  parse STR as a hex dump of a wire-format
//!                                TPP section and verify it
//! ```
//!
//! Exit status: 0 when every program passes (lints are warnings), 1 when
//! any deny-class diagnostic fires, 2 on usage/parse errors.

use std::process::ExitCode;

use tpp_apps::{conga, microburst, netsight, netverify, overhead, rcp, sketch, wan};
use tpp_core::asm::{assemble, disassemble};
use tpp_core::probe::Probe;
use tpp_core::verify::{verify, Verdict, VerifyOptions};
use tpp_core::wire::Tpp;
use tpp_endhost::cp::{CentralCp, Policy};

fn usage() -> ExitCode {
    eprintln!(
        "usage: tpp-lint --all-apps\n       tpp-lint [--hops N] FILE\n       tpp-lint [--hops N] --hex HEXSTRING"
    );
    ExitCode::from(2)
}

/// Print a verdict rustc-style; returns whether it denied.
fn report(name: &str, tpp: &Tpp, verdict: &Verdict) -> bool {
    let denied = !verdict.passed();
    for d in &verdict.diagnostics {
        println!("{d}");
        match d.instr.and_then(|i| tpp.instrs.get(i).map(|ins| (i, ins))) {
            Some((i, ins)) => println!("  --> {name}: instr {i}: {ins}"),
            None => println!("  --> {name}"),
        }
    }
    if denied {
        println!("{name}: DENY ({} error(s))", verdict.denials().count());
    } else {
        let hops = verdict.hops_verified;
        let lints = verdict.lints().count();
        match lints {
            0 => println!("{name}: ok ({hops} hop(s) verified)"),
            n => println!("{name}: ok ({hops} hop(s) verified, {n} warning(s))"),
        }
    }
    denied
}

/// Verify one built-in probe for `hops` hops against `policy`'s segments.
fn lint_probe(name: &str, probe: &Probe, hops: usize, policy: &Policy) -> bool {
    let tpp = match probe.compile_hops(hops) {
        Ok(t) => t,
        Err(e) => {
            println!("error[E-COMPILE]: {e}\n  --> {name}");
            println!("{name}: DENY (compile error)");
            return true;
        }
    };
    let verdict =
        verify(&tpp, VerifyOptions { hops: Some(hops), segments: Some(&policy.segments) });
    report(name, &tpp, &verdict)
}

/// `--all-apps`: every built-in application probe against the segment
/// table its app would be granted by the central TPP-CP. Mirrors (and is
/// pinned by) `crates/apps/tests/verify_apps.rs`.
fn lint_all_apps() -> ExitCode {
    let mut cp = CentralCp::new();
    let (rcp_app, _) = cp.register_app_with_regs("rcp", 2).expect("registers available");
    let (wan_app, _) = cp.register_app_with_regs("wan-fanout", 2).expect("registers available");
    let reader_app = cp.register_app("reader");
    let rcp_policy = cp.policy_for(rcp_app, false).expect("registered");
    let wan_policy = cp.policy_for(wan_app, false).expect("registered");
    let reader = cp.policy_for(reader_app, false).expect("registered");

    let mut denied = false;
    denied |= lint_probe("microburst", &microburst::microburst_probe(), 8, &reader);
    denied |= lint_probe("conga-path", &conga::conga_probe(), 8, &reader);
    denied |= lint_probe("netsight-history", &netsight::history_probe(), 8, &reader);
    denied |= lint_probe("netverify-trace", &netverify::trace_probe(), 8, &reader);
    denied |= lint_probe("transient-trace", &netverify::trace_probe(), 8, &reader);
    denied |= lint_probe("sketch", &sketch::sketch_probe(), 8, &reader);
    denied |= lint_probe("overhead", &overhead::overhead_probe(), 8, &reader);
    denied |= lint_probe("rcp-collect", &rcp::collect_probe(), 8, &rcp_policy);
    denied |= lint_probe("rcp-update", &rcp::update_probe(), 4, &rcp_policy);
    denied |= lint_probe("wan-discover", &wan::discover_probe(), 8, &wan_policy);
    denied |= lint_probe("wan-install", &wan::install_probe(), 4, &wan_policy);

    if denied {
        ExitCode::FAILURE
    } else {
        println!("all built-in app probes verified");
        ExitCode::SUCCESS
    }
}

fn parse_hex(s: &str) -> Option<Vec<u8>> {
    let cleaned: String = s.chars().filter(|c| !c.is_whitespace()).collect();
    if !cleaned.len().is_multiple_of(2) {
        return None;
    }
    (0..cleaned.len()).step_by(2).map(|i| u8::from_str_radix(&cleaned[i..i + 2], 16).ok()).collect()
}

fn lint_tpp(name: &str, tpp: &Tpp, hops: Option<usize>) -> ExitCode {
    println!("{}", disassemble(tpp).trim_end());
    println!();
    let verdict = verify(tpp, VerifyOptions { hops, segments: None });
    if report(name, tpp, &verdict) {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut hops: Option<usize> = None;
    let mut hex: Option<String> = None;
    let mut file: Option<String> = None;
    let mut all_apps = false;

    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--all-apps" => all_apps = true,
            "--hops" => {
                i += 1;
                let Some(n) = args.get(i).and_then(|v| v.parse().ok()) else {
                    return usage();
                };
                hops = Some(n);
            }
            "--hex" => {
                i += 1;
                let Some(h) = args.get(i) else { return usage() };
                hex = Some(h.clone());
            }
            "-h" | "--help" => return usage(),
            a if !a.starts_with('-') && file.is_none() => file = Some(a.to_string()),
            _ => return usage(),
        }
        i += 1;
    }

    if all_apps {
        return lint_all_apps();
    }
    if let Some(hex) = hex {
        let Some(bytes) = parse_hex(&hex) else {
            eprintln!("tpp-lint: --hex: not a hex string");
            return ExitCode::from(2);
        };
        return match Tpp::parse(&bytes) {
            Ok((tpp, _)) => lint_tpp("<hex>", &tpp, hops),
            Err(e) => {
                eprintln!("tpp-lint: --hex: invalid TPP section: {e:?}");
                ExitCode::from(2)
            }
        };
    }
    if let Some(path) = file {
        let src = match std::fs::read_to_string(&path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("tpp-lint: {path}: {e}");
                return ExitCode::from(2);
            }
        };
        return match assemble(&src) {
            Ok(tpp) => lint_tpp(&path, &tpp, hops),
            Err(e) => {
                eprintln!("tpp-lint: {path}: assembly error: {e}");
                ExitCode::from(2)
            }
        };
    }
    usage()
}
