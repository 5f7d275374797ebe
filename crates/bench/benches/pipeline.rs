//! Whole-switch benchmarks: packets per second through receive+dequeue,
//! with and without TPP support exercised — the runtime counterpart of the
//! Table 4 "cost of adding TPP support" question.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

use tpp_apps::common::udp_frame;
use tpp_core::asm::TppBuilder;
use tpp_core::wire::{insert_transparent, Ipv4Address};
use tpp_switch::{Action, Switch, SwitchConfig};

fn make_switch() -> Switch {
    let mut sw = Switch::new(SwitchConfig::new(1, 4));
    sw.add_host_route(Ipv4Address::from_host_id(2), Action::Output(2));
    sw
}

fn bench_switch(c: &mut Criterion) {
    let plain = udp_frame(Ipv4Address::from_host_id(1), Ipv4Address::from_host_id(2), 1, 2, 1000);
    let tpp = TppBuilder::stack_mode()
        .push_m("Switch:SwitchID")
        .unwrap()
        .push_m("PacketMetadata:OutputPort")
        .unwrap()
        .push_m("Queue:QueueOccupancy")
        .unwrap()
        .hops(5)
        .build()
        .unwrap();
    let stamped = insert_transparent(&plain, &tpp);

    let mut g = c.benchmark_group("switch_forward");
    g.throughput(Throughput::Elements(1));
    g.bench_function("plain_packet", |b| {
        let mut sw = make_switch();
        let mut now = 0u64;
        b.iter(|| {
            now += 1000;
            sw.receive(now, 0, plain.clone());
            black_box(sw.dequeue(now, 2));
        });
    });
    g.bench_function("tpp_packet", |b| {
        let mut sw = make_switch();
        let mut now = 0u64;
        b.iter(|| {
            now += 1000;
            sw.receive(now, 0, stamped.clone());
            black_box(sw.dequeue(now, 2));
        });
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_millis(700))
        .sample_size(30);
    targets = bench_switch
}
criterion_main!(benches);
