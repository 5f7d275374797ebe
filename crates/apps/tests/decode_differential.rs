//! Differential tests: the typed [`Probe`] decoder must agree with the
//! legacy hand-indexed `memory[4 * i..]` extraction it replaced, both on
//! TPPs recorded from real simulated runs (microburst- and NetSight-style
//! deployments) and on reference executions of the RCP collect program.

use tpp_apps::common::{udp_frame, DATA_PORT};
use tpp_apps::microburst::microburst_probe;
use tpp_apps::netsight::{history_probe, TracedHost};
use tpp_apps::rcp::{collect_probe, parse_collect};
use tpp_core::addr::resolve_mnemonic;
use tpp_core::exec::{execute, ExecOptions, MapBus};
use tpp_core::probe::Probe;
use tpp_core::wire::{Tpp, TppBuf};
use tpp_endhost::harness::{Aggregator, Endhost, Harness};
use tpp_endhost::Filter;
use tpp_netsim::TopologySpec;
use tpp_netsim::MILLIS;

/// The pre-redesign extraction for stack probes of `k` words per hop:
/// `sp / k` hops, hand-indexed word reads.
fn legacy_stack_rows(tpp: &Tpp, k: usize) -> Vec<Vec<u32>> {
    let hops = (tpp.sp as usize / k).min(tpp.memory_words() / k);
    (0..hops).map(|h| (0..k).map(|i| tpp.read_word(k * h + i).unwrap_or(0)).collect()).collect()
}

/// Decode through the typed schema, straight from the section as the shim
/// surfaced it, into the same row shape.
fn probe_rows(probe: &Probe, tpp: &TppBuf) -> Vec<Vec<u32>> {
    let k = probe.fields().len();
    probe.records(tpp).map(|r| (0..k).map(|i| r.at(i).unwrap_or(0)).collect()).collect()
}

/// A recording sender: stamps `probe` on paced UDP traffic and keeps every
/// completed TPP verbatim (completions echo back from the receiver).
struct Recorder {
    dst: tpp_core::wire::Ipv4Address,
    recorded: Vec<TppBuf>,
}

fn recorder(dst: tpp_core::wire::Ipv4Address, probe: Probe) -> Endhost<Recorder> {
    Harness::new(Recorder { dst, recorded: Vec::new() })
        .stamp_with(probe, Filter::udp(), 1, Aggregator::Source, |s, _io, c| {
            s.recorded.push(c.tpp);
        })
        .on_start(|_s, io| io.ctx.set_timer(500_000, 1))
        .on_timer(|s, io, _| {
            let frame = udp_frame(io.ctx.ip, s.dst, 7100, DATA_PORT, 256);
            io.send_data(frame);
            io.ctx.set_timer(500_000, 1);
        })
        .build()
        .expect("static wiring")
}

/// A raw-TPP collector for remotely aggregated completions (`NetSight`).
struct RawCollector {
    recorded: Vec<TppBuf>,
}

fn raw_collector(app_id: u16, probe: Probe) -> Endhost<RawCollector> {
    Harness::new(RawCollector { recorded: Vec::new() })
        .listen(probe.app_id(app_id), |s, _io, c| s.recorded.push(c.tpp))
        .build()
        .expect("static wiring")
}

#[test]
fn typed_decode_matches_legacy_on_recorded_runs() {
    // Line of 3 switches: host0 records microburst-style stamped TPPs on
    // its own traffic; host2 runs a NetSight traced host aggregating to a
    // collector on host5.
    let mut topo = TopologySpec::Line { switches: 3, hosts_per_switch: 2 }
        .builder()
        .link_mbps(100)
        .delay_ns(10_000)
        .seed(11)
        .build();
    let hosts = topo.hosts.clone();
    let ips: Vec<_> = hosts.iter().map(|&h| topo.net.host(h).ip).collect();

    topo.net.set_app(hosts[0], Box::new(recorder(ips[3], microburst_probe().app_id(1).hops(8))));
    topo.net.set_app(hosts[3], Box::new(tpp_apps::common::Responder::new()));
    topo.net.set_app(hosts[2], Box::new(TracedHost::new(ips[4], ips[5], 6000)));
    // The receiver is also a traced host (as in the Figure 3 deployment):
    // its shim owns the app-3 aggregator entry that routes completions to
    // the collector.
    topo.net.set_app(hosts[4], Box::new(TracedHost::new(ips[2], ips[5], 6001)));
    topo.net.set_app(hosts[5], Box::new(raw_collector(3, history_probe())));
    topo.net.run_until(60 * MILLIS);

    let micro = std::mem::take(&mut topo.net.app_mut::<Endhost<Recorder>>(hosts[0]).recorded);
    let hist = std::mem::take(&mut topo.net.app_mut::<Endhost<RawCollector>>(hosts[5]).recorded);
    assert!(micro.len() > 50, "recorded {} microburst TPPs", micro.len());
    assert!(hist.len() > 30, "recorded {} history TPPs", hist.len());

    let mp = microburst_probe();
    for tpp in &micro {
        let typed = probe_rows(&mp, tpp);
        assert_eq!(typed, legacy_stack_rows(&tpp.view().to_tpp(), 3));
        assert!(!typed.is_empty(), "traversed at least one switch");
    }
    let hp = history_probe();
    for tpp in &hist {
        assert_eq!(probe_rows(&hp, tpp), legacy_stack_rows(&tpp.view().to_tpp(), 3));
    }
}

#[test]
fn typed_decode_matches_legacy_on_rcp_collect() {
    // Reference-execute the §2.2 collect program across 1..=6 hops (one
    // beyond its 5-hop memory) and compare against the legacy hop-counter
    // walk with its stop-at-zero rule.
    let stats = [
        "Switch:SwitchID",
        "Link:QueueSize",
        "Link:TX-Utilization",
        "Link:AppSpecific_0",
        "Link:AppSpecific_1",
    ];
    for path_len in 1..=6u32 {
        let probe = collect_probe();
        let mut tpp = probe.hops(5).compile().unwrap();
        for hop in 0..path_len {
            let entries: Vec<_> = stats
                .iter()
                .enumerate()
                .map(|(i, s)| (resolve_mnemonic(s).unwrap(), 1 + hop * 10 + i as u32))
                .collect();
            execute(&mut tpp, &mut MapBus::with(&entries), &ExecOptions::default());
        }
        // Legacy: iterate `0..hop`, reading 5 hand-indexed words per hop,
        // breaking at a zero switch id or the end of memory.
        let mut legacy = Vec::new();
        for h in 0..tpp.hop as usize {
            let base = h * 5;
            let Some(switch_id) = tpp.read_word(base) else { break };
            if switch_id == 0 {
                break;
            }
            legacy.push([
                switch_id,
                tpp.read_word(base + 1).unwrap_or(0),
                tpp.read_word(base + 2).unwrap_or(0),
                tpp.read_word(base + 3).unwrap_or(0),
                tpp.read_word(base + 4).unwrap_or(0),
            ]);
        }
        let typed: Vec<[u32; 5]> = parse_collect(&tpp)
            .iter()
            .map(|s| [s.switch_id, s.queue_bytes, s.util_bps, s.version, s.rate_kbps])
            .collect();
        assert_eq!(typed, legacy, "path_len {path_len}");
        assert_eq!(typed.len(), (path_len as usize).min(5));
    }
}
