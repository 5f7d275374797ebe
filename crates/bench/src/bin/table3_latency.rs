//! Table 3: per-stage hardware latency costs, for the `NetFPGA` and ASIC
//! profiles, plus measured software-execution costs of our TCPU.
//!
//! `--smoke` times 1 000 executions per row instead of 200 000.

use std::time::Instant;

use tpp_core::asm::TppBuilder;
use tpp_core::exec::{execute, ExecOptions, MapBus};
use tpp_core::isa::Opcode;
use tpp_switch::{ASIC, NETFPGA};

fn main() {
    let iters = if tpp_bench::smoke_arg() { 1_000 } else { 200_000 };
    println!("# Table 3 — hardware latency cost model (§6.1)");
    println!("{:>24} {:>12} {:>12}", "task", "NetFPGA", "ASIC");
    type CostCell = fn(&tpp_switch::CostProfile) -> String;
    let rows: [(&str, CostCell); 5] = [
        ("Parsing (cycles)", |p| p.parse_cycles.to_string()),
        ("Memory access (cycles)", |p| p.mem_access_cycles.to_string()),
        ("CSTORE exec (cycles)", |p| p.cstore_exec_cycles.to_string()),
        ("Other exec (cycles)", |p| p.other_exec_cycles.to_string()),
        ("Packet rewrite (cycles)", |p| p.rewrite_cycles.to_string()),
    ];
    for (name, f) in rows {
        println!("{:>24} {:>12} {:>12}", name, f(&NETFPGA), f(&ASIC));
    }
    println!("\n## end-to-end TPP cost (5 instructions)");
    for profile in [NETFPGA, ASIC] {
        let loads = profile.tpp_latency_ns(std::iter::repeat_n(Opcode::Load, 5));
        let worst = profile.worst_case_latency_ns(5);
        println!(
            "{:>12}: 5xLOAD = {} ns, worst case (5xCSTORE) = {} ns, baseline switch latency {} ns \
             -> {:.0}% worst-case overhead",
            profile.name,
            loads,
            worst,
            profile.base_latency_ns,
            100.0 * worst as f64 / profile.base_latency_ns as f64
        );
    }

    // Software TCPU: measured wall-clock per instruction class.
    println!("\n## measured software TCPU (this machine, reference interpreter)");
    let sid = tpp_core::addr::resolve_mnemonic("Switch:SwitchID").unwrap();
    let reg = tpp_core::addr::resolve_mnemonic("Link$0:AppSpecific_0").unwrap();
    let cases = [
        (
            "5x PUSH",
            TppBuilder::stack_mode()
                .push(sid)
                .push(sid)
                .push(sid)
                .push(sid)
                .push(sid)
                .hops(1)
                .build()
                .unwrap(),
        ),
        (
            "5x LOAD",
            TppBuilder::hop_mode(5)
                .load(sid, 0)
                .load(sid, 1)
                .load(sid, 2)
                .load(sid, 3)
                .load(sid, 4)
                .hops(1)
                .build()
                .unwrap(),
        ),
        (
            "5x CSTORE",
            TppBuilder::hop_mode(5)
                .cstore(reg, 0, 1)
                .cstore(reg, 0, 1)
                .cstore(reg, 0, 1)
                .cstore(reg, 0, 1)
                .cstore(reg, 0, 1)
                .hops(1)
                .build()
                .unwrap(),
        ),
    ];
    for (name, tpp) in cases {
        let mut bus = MapBus::with(&[(sid, 7), (reg, 0)]);
        let opts = ExecOptions::default();
        let start = Instant::now();
        for _ in 0..iters {
            let mut t = tpp.clone();
            std::hint::black_box(execute(&mut t, &mut bus, &opts));
        }
        let ns = start.elapsed().as_nanos() as f64 / iters as f64;
        println!("{name:>12}: {ns:.0} ns per 5-instruction TPP (incl. clone)");
    }
}
