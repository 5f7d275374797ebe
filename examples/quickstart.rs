//! Quickstart: declare a typed probe, send it across a small simulated
//! network, and read the per-hop records it collected. The entire
//! application — schema, wiring, decode — is the ~20 lines inside `main`.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use minions::core::probe::Probe;
use minions::endhost::{Endhost, ExecutorConfig, Harness};
use minions::netsim::MILLIS;
use tpp_netsim::TopologySpec;

type Rows = Vec<(u32, u32, u32)>;

fn main() {
    // A 3-switch line; the probe traverses all three.
    let mut topo = TopologySpec::Line { switches: 3, hosts_per_switch: 1 }
        .builder()
        .link_mbps(1000)
        .delay_ns(10_000)
        .seed(42)
        .build();
    let hosts = topo.hosts.clone();
    let dst = topo.net.host(hosts[2]).ip;
    topo.net.set_app(hosts[2], Box::new(minions::apps::common::Responder::new()));

    // The §2.1 micro-burst probe, as a typed schema.
    let probe = Probe::stack("quickstart")
        .field("switch", "Switch:SwitchID")
        .field("port", "PacketMetadata:OutputPort")
        .field("queue", "Queue:QueueOccupancy");

    let prober = Harness::new(Rows::new())
        .executor(ExecutorConfig::default())
        .launch(probe, |rows: &mut Rows, _io, c| {
            rows.extend(c.hops().map(|r| {
                (r.get("switch").unwrap(), r.get("port").unwrap(), r.get("queue").unwrap())
            }));
        })
        .on_start(move |_rows, io| {
            io.launch(0, dst, None);
        })
        .build()
        .expect("valid probe");
    topo.net.set_app(hosts[0], Box::new(prober));
    topo.net.run_until(10 * MILLIS);

    let rows = topo.net.app_mut::<Endhost<Rows>>(hosts[0]);
    println!("probe executed at {} hops; collected state:", rows.len());
    println!("{:>8} {:>10} {:>12}", "switch", "out port", "queue bytes");
    for (s, p, q) in rows.iter() {
        println!("{s:>8} {p:>10} {q:>12}");
    }
}
