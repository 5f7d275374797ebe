//! The plan cache's key covers every byte the planner reads, over many
//! frames and not only one bit at a time (`plan_cache`'s unit test
//! `every_keyed_bit_misses_and_no_other_bit_does` flips each bit of one
//! program once).
//!
//! A seed-replayable mutation loop (the mutator is `tests/support/mutate.rs`
//! at the workspace root): each case takes one of the seven app probes at
//! one of a few hop budgets, carried transparently (section at byte 14) or
//! standalone (section at byte 42), plans the undamaged frame through one
//! long-lived [`PlanCache`] so its key is resident, then damages a copy.
//! Every frame whose section `TppView::parse` accepts must plan, hit or
//! miss, to exactly what a fresh [`TppRun::plan`] of the same bytes gives.
//! The loop runs one fixed seed, `SEED`; a mismatch names its case.

use tpp_core::exec::ExecOptions;
use tpp_core::wire::{
    build_standalone, ethernet, locate_tpp, udp_frame_into, EthernetAddress, Ipv4Address, Tpp,
    TppLocation, TppView, UdpFrameRepr,
};
use tpp_switch::{PipelineConfig, PlanCache, TppRun};

#[path = "../../../tests/support/mutate.rs"]
#[allow(dead_code)] // `mutate::seed`: this loop runs one fixed seed.
mod mutate;
use mutate::{mutate, Base, Rng};

#[path = "../../../tests/support/app_probes.rs"]
mod app_probes;

const CASES: u64 = 100_000;
const SEED: u64 = 0x9A11_CAC4;
const HOP_BUDGETS: [usize; 3] = [1, 4, 8];

fn bases() -> Vec<Base> {
    let (h1, h2) = (Ipv4Address::from_host_id(1), Ipv4Address::from_host_id(2));
    let (m1, m2) = (EthernetAddress::from_node_id(1), EthernetAddress::from_node_id(2));
    let mut bases = Vec::new();
    for probe in app_probes::app_probes() {
        for hops in HOP_BUDGETS.map(|h| h.min(probe.max_hops())) {
            let tpp = probe.compile_hops(hops).expect("an app probe compiles");
            let section = Tpp { encap_proto: ethernet::ethertype::IPV4, ..tpp.clone() }.serialize();
            let hdr = UdpFrameRepr {
                src_mac: m1,
                dst_mac: m2,
                src_ip: h1,
                dst_ip: h2,
                src_port: 7100,
                dst_port: 5001,
            };
            let mut frame = Vec::new();
            udp_frame_into(&mut frame, &hdr, 64, &section);
            let ip = 14 + section.len();
            bases.push(Base { name: "transparent", frame, section: 14, ip, udp: ip + 20 });
            let frame = build_standalone(m1, m2, h1, h2, 40_001, &tpp);
            bases.push(Base { name: "standalone", frame, section: 42, ip: 14, udp: 34 });
        }
    }
    bases
}

/// Plan `frame`'s section through `cache` and afresh: both plans and whether
/// the cache hit, or `None` when the frame carries no section that parses.
fn plan_both(
    cache: &mut PlanCache,
    frame: &[u8],
    opts: &ExecOptions,
    cfg: &PipelineConfig,
) -> Option<(TppRun, TppRun, bool)> {
    let section = match locate_tpp(frame) {
        TppLocation::Transparent { section } | TppLocation::Standalone { section, .. } => section,
        TppLocation::None => return None,
    };
    let bytes = frame.get(section..)?;
    let (view, _) = TppView::parse(bytes).ok()?;
    let hits = cache.stats().hits;
    let cached = cache.plan(&view, bytes, section, opts, cfg);
    Some((cached, TppRun::plan(&view, section, opts, cfg), cache.stats().hits > hits))
}

#[test]
fn cached_plans_equal_fresh_plans_of_damaged_frames() {
    let (opts, cfg) = (ExecOptions::default(), PipelineConfig::default());
    let bases = bases();
    let mut cache = PlanCache::default();
    let (mut parsed, mut hits) = (0u64, 0u64);
    for case in 0..CASES {
        let mut rng = Rng::for_case(SEED, case);
        let base = &bases[rng.below(bases.len())];
        let (cached, fresh, _) = plan_both(&mut cache, &base.frame, &opts, &cfg).expect("a base");
        assert_eq!(cached, fresh, "case {case}: undamaged {}", base.name);
        let frame = mutate(base, &mut rng);
        let Some((cached, fresh, hit)) = plan_both(&mut cache, &frame, &opts, &cfg) else {
            continue;
        };
        assert_eq!(cached, fresh, "case {case} ({}): {frame:02x?}", base.name);
        parsed += 1;
        hits += u64::from(hit);
    }
    // Damage reaches both sides of the key: frames that still share their
    // base's plan, and parsed frames that need a plan of their own.
    // At the default seed a third of the cases parse: 25 k hits, 7.5 k misses.
    assert!(hits > CASES / 10 && parsed - hits > CASES / 50, "{parsed} parsed, {hits} hits");
}
