//! Threaded fabrics share the process's parked helper threads instead of
//! spawning their own. A binary of its own, with one test, so that no other
//! test starts threads while this one counts them. Linux only: the count is
//! the `Threads:` line of `/proc/self/status`.

#![cfg(target_os = "linux")]

use tpp_fabric::{install_traffic, ExecMode, Fabric, PartitionStrategy, TrafficConfig};
use tpp_netsim::{TopologySpec, MILLIS};

fn threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    let line = status.lines().find_map(|l| l.strip_prefix("Threads:")).expect("a Threads: line");
    line.trim().parse().expect("a thread count")
}

/// Fifty fresh 2-shard fabrics, each run twice, need one helper: the first
/// run spawns it, and it parks between runs instead of exiting.
#[test]
fn fifty_threaded_fabrics_share_one_parked_helper() {
    let before = threads();
    for fabric in 0..50 {
        let mut t = TopologySpec::Star { hosts: 4 }
            .builder()
            .host_mbps(1000)
            .delay_ns(1000)
            .seed(fabric)
            .build();
        let hosts = t.hosts.clone();
        let cfg = TrafficConfig { stop_at: MILLIS / 2, ..TrafficConfig::default() };
        let _delivered = install_traffic(&mut t.net, &hosts, &cfg);
        let mut fabric = Fabric::new(t.net, 2, PartitionStrategy::RoundRobin);
        fabric.set_mode(ExecMode::Threaded);
        fabric.run_until(MILLIS / 4);
        fabric.run_until(MILLIS / 2);
        assert_eq!(threads(), before + 1, "one helper, parked between runs");
    }
}
