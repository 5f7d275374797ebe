//! Micro-benchmarks of TCPU execution (the Table 3 software column):
//! per-opcode execution cost through the reference interpreter and the
//! staged pipeline.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use tpp_core::addr::resolve_mnemonic;
use tpp_core::asm::TppBuilder;
use tpp_core::exec::{execute, execute_in_place, ExecOptions, MapBus};
use tpp_core::wire::{Tpp, TppView, TppViewMut};
use tpp_switch::memmap::{PacketContext, SwitchBus, SwitchMemory};
use tpp_switch::pipeline::{PipelineConfig, TppRun};

fn programs() -> Vec<(&'static str, Tpp)> {
    let sid = resolve_mnemonic("Switch:SwitchID").unwrap();
    let q = resolve_mnemonic("Queue:QueueOccupancy").unwrap();
    let reg = resolve_mnemonic("Link:AppSpecific_0").unwrap();
    vec![
        ("push1", TppBuilder::stack_mode().push(sid).hops(2).build().unwrap()),
        (
            "push5",
            TppBuilder::stack_mode()
                .push(sid)
                .push(q)
                .push(sid)
                .push(q)
                .push(sid)
                .hops(2)
                .build()
                .unwrap(),
        ),
        (
            "load5",
            TppBuilder::hop_mode(5)
                .load(sid, 0)
                .load(q, 1)
                .load(sid, 2)
                .load(q, 3)
                .load(sid, 4)
                .hops(2)
                .build()
                .unwrap(),
        ),
        (
            "cstore2",
            TppBuilder::hop_mode(3).cstore(reg, 0, 1).store(reg, 2).hops(2).build().unwrap(),
        ),
    ]
}

fn bench_reference(c: &mut Criterion) {
    let mut g = c.benchmark_group("tcpu_reference");
    for (name, tpp) in programs() {
        let sid = resolve_mnemonic("Switch:SwitchID").unwrap();
        let q = resolve_mnemonic("Queue:QueueOccupancy").unwrap();
        let reg = resolve_mnemonic("Link:AppSpecific_0").unwrap();
        let opts = ExecOptions::default();
        g.bench_with_input(BenchmarkId::from_parameter(name), &tpp, |b, tpp| {
            let mut bus = MapBus::with(&[(sid, 7), (q, 100), (reg, 0)]);
            b.iter(|| {
                let mut t = tpp.clone();
                black_box(execute(&mut t, &mut bus, &opts));
            });
        });
    }
    g.finish();
}

fn bench_pipeline(c: &mut Criterion) {
    let mut g = c.benchmark_group("tcpu_pipeline");
    let cfg = PipelineConfig::default();
    for (name, tpp) in programs() {
        let opts = ExecOptions::default();
        let bytes = tpp.serialize();
        g.bench_with_input(BenchmarkId::from_parameter(name), &bytes, |b, bytes| {
            let mut mem = SwitchMemory::new(7, 4, cfg.total_stages());
            let mut frame = bytes.clone();
            b.iter(|| {
                // Reset the section in place (what a fresh arrival carries).
                frame.copy_from_slice(bytes);
                let mut ctx = PacketContext::new(0, 100, 0, cfg.total_stages());
                ctx.out_port = Some(1);
                let mut run = {
                    let (view, _) = TppView::parse(&frame).unwrap();
                    TppRun::plan(&view, 0, &opts, &cfg)
                };
                {
                    let mut bus = SwitchBus { mem: &mut mem, ctx: &mut ctx };
                    run.exec_stages(&mut frame, &mut bus, 0..cfg.total_stages(), &opts);
                }
                run.finish(&mut frame, &opts);
                black_box(&frame);
            });
        });
    }
    g.finish();
}

/// The zero-allocation reference fast path: validate once, execute in place
/// over the wire bytes with incremental checksum maintenance.
fn bench_in_place(c: &mut Criterion) {
    let mut g = c.benchmark_group("tcpu_in_place");
    for (name, tpp) in programs() {
        let sid = resolve_mnemonic("Switch:SwitchID").unwrap();
        let q = resolve_mnemonic("Queue:QueueOccupancy").unwrap();
        let reg = resolve_mnemonic("Link:AppSpecific_0").unwrap();
        let opts = ExecOptions::default();
        let bytes = tpp.serialize();
        g.bench_with_input(BenchmarkId::from_parameter(name), &bytes, |b, bytes| {
            let mut bus = MapBus::with(&[(sid, 7), (q, 100), (reg, 0)]);
            let mut frame = bytes.clone();
            b.iter(|| {
                frame.copy_from_slice(bytes);
                let (mut view, _) = TppViewMut::parse(&mut frame).unwrap();
                black_box(execute_in_place(&mut view, &mut bus, &opts));
            });
        });
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_millis(700))
        .sample_size(30);
    targets = bench_reference, bench_in_place, bench_pipeline
}
criterion_main!(benches);
