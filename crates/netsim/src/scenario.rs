//! Declarative topology construction: a topology is *data*, not code.
//!
//! [`TopologySpec`] names a topology family and its shape parameters;
//! [`TopologyBuilder`] adds the physical knobs (link rate, host rate,
//! propagation delay, seed) and produces a routed [`Topology`]. The five
//! classic shapes (star, dumbbell, line, leaf-spine, fat-tree) keep the
//! node-id assignment order, switch-config numbering, and link creation
//! order of the original free-function builders, so historical digests
//! stay valid.
//!
//! Beyond the classics, the spec covers the topologies the evaluation
//! matrix sweeps:
//!
//! * [`TopologySpec::Jellyfish`] — the random-regular graph of Singla et
//!   al. (NSDI'12): a deterministic random ring (guaranteeing
//!   connectivity) plus random port matching, all drawn from the builder
//!   seed.
//! * [`TopologySpec::OversubFatTree`] — a fat-tree whose aggregation→core
//!   uplinks run at `1/oversub` of the edge rate, the classic
//!   oversubscribed datacenter fabric.
//! * [`TopologySpec::AsymFatTree`] — a fat-tree where every pod's first
//!   aggregation switch has half-rate core uplinks: equal-cost paths with
//!   unequal capacity, the CONGA* stress case.
//!
//! ```
//! use tpp_netsim::scenario::{TopologyBuilder, TopologySpec};
//!
//! let t = TopologyBuilder::new(TopologySpec::Star { hosts: 4 })
//!     .host_mbps(1000)
//!     .delay_ns(1000)
//!     .seed(7)
//!     .build();
//! assert_eq!(t.hosts.len(), 4);
//! assert_eq!(t.switches.len(), 1);
//! ```

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::engine::Time;
use crate::net::{LinkSpec, Network, NodeId, NullApp};
use crate::reconfig::{ReconfigAction, ReconfigPlan};
use crate::topology::Topology;
use tpp_core::wire::Ipv4Address;
use tpp_switch::{Action, SwitchConfig};

/// A topology family plus its shape parameters. Physical knobs (rates,
/// delay, seed) live on [`TopologyBuilder`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TopologySpec {
    /// One switch, `hosts` hosts. All links run at the builder host rate.
    Star {
        /// Number of hosts on the hub switch.
        hosts: usize,
    },
    /// Two switches joined by a trunk at the builder *link* rate, with
    /// `per_side` hosts on each at the builder *host* rate (the §2.1
    /// micro-burst topology).
    Dumbbell {
        /// Hosts attached to each of the two switches.
        per_side: usize,
    },
    /// A chain of `switches` switches with `hosts_per_switch` hosts each
    /// (the Figure 2 RCP topology is `Line { switches: 3, .. }`).
    Line {
        /// Switches in the chain.
        switches: usize,
        /// Hosts on every switch.
        hosts_per_switch: usize,
    },
    /// A leaf-spine fabric: every leaf connects to every spine at the
    /// builder link rate; hosts hang off leaves at the host rate.
    LeafSpine {
        /// Leaf (top-of-rack) switches.
        leaves: usize,
        /// Spine switches.
        spines: usize,
        /// Hosts per leaf.
        hosts_per_leaf: usize,
    },
    /// A k-ary fat-tree: k pods of k/2 edge and k/2 aggregation switches,
    /// (k/2)^2 cores, k^3/4 hosts. `k` must be even.
    FatTree {
        /// Fat-tree arity (even; the paper's §2.5 uses k = 64).
        k: usize,
    },
    /// A fat-tree whose aggregation→core uplinks run at `1/oversub` of the
    /// builder link rate — the classic oversubscribed fabric.
    OversubFatTree {
        /// Fat-tree arity (even).
        k: usize,
        /// Oversubscription factor (≥ 1); core uplinks get
        /// `link_mbps / oversub`.
        oversub: u64,
    },
    /// A fat-tree where each pod's *first* aggregation switch has
    /// half-rate core uplinks: ECMP still splits evenly over equal-cost
    /// paths of unequal capacity.
    AsymFatTree {
        /// Fat-tree arity (even).
        k: usize,
    },
    /// A Jellyfish random-regular switch graph (Singla et al., NSDI'12):
    /// a seed-deterministic random ring plus random port matching, with
    /// `hosts_per_switch` hosts on every switch. Always connected.
    Jellyfish {
        /// Switch count (≥ 3).
        switches: usize,
        /// Network ports per switch (≥ 2, < `switches`).
        degree: usize,
        /// Hosts on every switch.
        hosts_per_switch: usize,
    },
    /// An inter-datacenter fabric: `sites` identical `site_k`-ary
    /// fat-trees, each fronted by one border switch wired to all of the
    /// site's core switches, with the borders joined in a full mesh of
    /// WAN links. WAN links are orders of magnitude slower and longer
    /// than the intra-site links, which makes them natural shard cut
    /// points for the fabric partitioner (their propagation delay is the
    /// conservative lookahead).
    ///
    /// Hosts are site-major: `hosts[site * (site_k³/4) + i]` is host `i`
    /// of `site`.
    MultiSite {
        /// Number of datacenter sites (≥ 2).
        sites: usize,
        /// Fat-tree arity inside every site (even).
        site_k: usize,
        /// One-way propagation delay of the shortest WAN link, in
        /// nanoseconds (multi-ms for realistic WANs).
        wan_delay_ns: u64,
        /// Extra delay per unit of site distance: the border `i` ↔ `j`
        /// link has delay `wan_delay_ns + wan_delay_step_ns * (|i-j|-1)`,
        /// giving heterogeneous RTTs across site pairs (0 = uniform).
        wan_delay_step_ns: u64,
        /// WAN link rate in Mb/s (intra-site links use the builder rate).
        wan_mbps: u64,
        /// Per-site WAN rate override: the border `i` ↔ `j` link runs at
        /// `min(rate(i), rate(j))` where `rate(s)` is `wan_site_mbps[s]`
        /// (or `wan_mbps` beyond the vector). Empty = uniform. The viewer
        /// fan-out preset uses this to give every subtree a distinct
        /// bottleneck.
        wan_site_mbps: Vec<u64>,
        /// Drop-tail buffer depth of the border switches, in bytes
        /// (0 = switch default). The shallow-vs-deep buffer knob of the
        /// inter-DC congestion-control experiments.
        wan_queue_bytes: u32,
    },
}

impl TopologySpec {
    /// A short, filesystem-safe label for matrix output
    /// (e.g. `fat_tree4`, `jellyfish16x4`).
    pub fn label(&self) -> String {
        match self {
            TopologySpec::Star { hosts } => format!("star{hosts}"),
            TopologySpec::Dumbbell { per_side } => format!("dumbbell{per_side}"),
            TopologySpec::Line { switches, hosts_per_switch } => {
                format!("line{switches}x{hosts_per_switch}")
            }
            TopologySpec::LeafSpine { leaves, spines, hosts_per_leaf } => {
                format!("leaf_spine{leaves}x{spines}x{hosts_per_leaf}")
            }
            TopologySpec::FatTree { k } => format!("fat_tree{k}"),
            TopologySpec::OversubFatTree { k, oversub } => {
                format!("oversub_fat_tree{k}x{oversub}")
            }
            TopologySpec::AsymFatTree { k } => format!("asym_fat_tree{k}"),
            TopologySpec::Jellyfish { switches, degree, .. } => {
                format!("jellyfish{switches}x{degree}")
            }
            TopologySpec::MultiSite { sites, site_k, .. } => {
                format!("multi_site{sites}x{site_k}")
            }
        }
    }

    /// Start a [`TopologyBuilder`] for this spec.
    pub fn builder(self) -> TopologyBuilder {
        TopologyBuilder::new(self)
    }
}

/// Builds a routed [`Topology`] from a [`TopologySpec`] plus the physical
/// knobs: switch-to-switch link rate, host link rate (defaults to the link
/// rate), propagation delay, and the network seed.
#[derive(Clone, Debug)]
pub struct TopologyBuilder {
    spec: TopologySpec,
    link_mbps: u64,
    host_mbps: Option<u64>,
    delay_ns: u64,
    seed: u64,
}

impl TopologyBuilder {
    /// A builder with defaults: 1000 Mb/s links, host rate = link rate,
    /// 1000 ns delay, seed 1.
    pub fn new(spec: TopologySpec) -> Self {
        TopologyBuilder { spec, link_mbps: 1000, host_mbps: None, delay_ns: 1000, seed: 1 }
    }

    /// Switch-to-switch link rate in Mb/s (also the host rate unless
    /// [`TopologyBuilder::host_mbps`] overrides it).
    pub fn link_mbps(mut self, mbps: u64) -> Self {
        self.link_mbps = mbps;
        self
    }

    /// Host link rate in Mb/s.
    pub fn host_mbps(mut self, mbps: u64) -> Self {
        self.host_mbps = Some(mbps);
        self
    }

    /// Propagation delay on every link, in nanoseconds.
    pub fn delay_ns(mut self, ns: u64) -> Self {
        self.delay_ns = ns;
        self
    }

    /// Seed for the network (ECMP hashing, fault streams) and for any
    /// randomized wiring (jellyfish).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// A short label for matrix output (delegates to the spec).
    pub fn label(&self) -> String {
        self.spec.label()
    }

    /// Construct the network, install shortest-path (ECMP) routes, and
    /// return the routed topology.
    pub fn build(self) -> Topology {
        let host_mbps = self.host_mbps.unwrap_or(self.link_mbps);
        let (link, delay, seed) = (self.link_mbps, self.delay_ns, self.seed);
        let mut t = match self.spec {
            TopologySpec::Star { hosts } => build_star(hosts, host_mbps, delay, seed),
            TopologySpec::Dumbbell { per_side } => {
                build_dumbbell(per_side, host_mbps, link, delay, seed)
            }
            TopologySpec::Line { switches, hosts_per_switch } => {
                build_line(switches, hosts_per_switch, link, delay, seed)
            }
            TopologySpec::LeafSpine { leaves, spines, hosts_per_leaf } => {
                build_leaf_spine(leaves, spines, hosts_per_leaf, link, host_mbps, delay, seed)
            }
            TopologySpec::FatTree { k } => build_fat_tree(k, link, delay, seed, |_, _| link),
            TopologySpec::OversubFatTree { k, oversub } => {
                assert!(oversub >= 1, "oversubscription factor must be >= 1");
                let core = (link / oversub).max(1);
                build_fat_tree(k, link, delay, seed, move |_, _| core)
            }
            TopologySpec::AsymFatTree { k } => {
                let slow = (link / 2).max(1);
                build_fat_tree(k, link, delay, seed, move |_, j| if j == 0 { slow } else { link })
            }
            TopologySpec::Jellyfish { switches, degree, hosts_per_switch } => {
                build_jellyfish(switches, degree, hosts_per_switch, link, host_mbps, delay, seed)
            }
            TopologySpec::MultiSite {
                sites,
                site_k,
                wan_delay_ns,
                wan_delay_step_ns,
                wan_mbps,
                wan_site_mbps,
                wan_queue_bytes,
            } => build_multi_site(
                sites,
                site_k,
                link,
                delay,
                seed,
                &WanKnobs {
                    delay_ns: wan_delay_ns,
                    delay_step_ns: wan_delay_step_ns,
                    mbps: wan_mbps,
                    site_mbps: wan_site_mbps,
                    queue_bytes: wan_queue_bytes,
                },
            ),
        };
        t.install_routes();
        t
    }
}

fn switch_cfg(id: u32, n_ports: usize) -> SwitchConfig {
    SwitchConfig::new(id, n_ports)
}

/// Hang `per_switch` hosts off each of `switches` in turn, each on its own
/// `link`; returns the hosts in that order.
fn add_hosts(
    net: &mut Network,
    switches: impl IntoIterator<Item = NodeId>,
    per_switch: usize,
    link: LinkSpec,
) -> Vec<NodeId> {
    let mut hosts = Vec::new();
    for s in switches {
        for _ in 0..per_switch {
            let h = net.add_host(Box::new(NullApp));
            net.connect(s, h, link);
            hosts.push(h);
        }
    }
    hosts
}

fn build_star(n: usize, host_mbps: u64, delay_ns: u64, seed: u64) -> Topology {
    let mut net = Network::new(seed);
    let sw = net.add_switch(switch_cfg(1, n));
    let hosts = add_hosts(&mut net, [sw], n, LinkSpec::new(host_mbps, delay_ns));
    Topology { net, hosts, switches: vec![sw] }
}

fn build_dumbbell(
    per_side: usize,
    host_mbps: u64,
    bottleneck_mbps: u64,
    delay_ns: u64,
    seed: u64,
) -> Topology {
    let mut net = Network::new(seed);
    let s0 = net.add_switch(switch_cfg(1, per_side + 1));
    let s1 = net.add_switch(switch_cfg(2, per_side + 1));
    net.connect(s0, s1, LinkSpec::new(bottleneck_mbps, delay_ns));
    let hosts = add_hosts(&mut net, [s0, s1], per_side, LinkSpec::new(host_mbps, delay_ns));
    Topology { net, hosts, switches: vec![s0, s1] }
}

fn build_line(
    n_switches: usize,
    hosts_per_switch: usize,
    link_mbps: u64,
    delay_ns: u64,
    seed: u64,
) -> Topology {
    let mut net = Network::new(seed);
    let switches: Vec<NodeId> = (0..n_switches)
        .map(|i| net.add_switch(switch_cfg(i as u32 + 1, hosts_per_switch + 2)))
        .collect();
    let link = LinkSpec::new(link_mbps, delay_ns);
    for w in switches.windows(2) {
        net.connect(w[0], w[1], link);
    }
    let hosts = add_hosts(&mut net, switches.iter().copied(), hosts_per_switch, link);
    Topology { net, hosts, switches }
}

fn build_leaf_spine(
    n_leaf: usize,
    n_spine: usize,
    hosts_per_leaf: usize,
    fabric_mbps: u64,
    host_mbps: u64,
    delay_ns: u64,
    seed: u64,
) -> Topology {
    let mut net = Network::new(seed);
    let spines: Vec<NodeId> =
        (0..n_spine).map(|i| net.add_switch(switch_cfg(100 + i as u32, n_leaf))).collect();
    let leaves: Vec<NodeId> = (0..n_leaf)
        .map(|i| net.add_switch(switch_cfg(1 + i as u32, n_spine + hosts_per_leaf)))
        .collect();
    for &leaf in &leaves {
        for &spine in &spines {
            net.connect(leaf, spine, LinkSpec::new(fabric_mbps, delay_ns));
        }
    }
    let link = LinkSpec::new(host_mbps, delay_ns);
    let hosts = add_hosts(&mut net, leaves.iter().copied(), hosts_per_leaf, link);
    let mut switches = leaves.clone();
    switches.extend_from_slice(&spines);
    Topology { net, hosts, switches }
}

/// The switches of one fat-tree, with its core–aggregation and
/// aggregation–edge links in place.
struct FatTreeSwitches {
    cores: Vec<NodeId>,
    /// Per pod.
    aggs: Vec<Vec<NodeId>>,
    /// Per pod.
    edges: Vec<Vec<NodeId>>,
}

impl FatTreeSwitches {
    /// Add and wire a `k`-ary fat-tree: the cores (`core_ports` ports each),
    /// then each pod's aggregation and edge switches, switch ids offset by
    /// `id_offset`. Aggregation `j` of every pod connects to the cores
    /// `(i, j)` at `core_rate(pod, j)`; inside a pod aggregation and edge
    /// connect full bipartite at `link_mbps`.
    fn wire(
        net: &mut Network,
        k: usize,
        id_offset: u32,
        core_ports: usize,
        link_mbps: u64,
        delay_ns: u64,
        core_rate: impl Fn(usize, usize) -> u64,
    ) -> FatTreeSwitches {
        assert!(k >= 2 && k.is_multiple_of(2), "fat-tree arity must be even");
        let half = k / 2;
        let id = |n: usize| id_offset + n as u32;
        let cores: Vec<NodeId> = (0..half * half)
            .map(|i| net.add_switch(switch_cfg(id(1000 + i), core_ports)))
            .collect();
        let mut aggs: Vec<Vec<NodeId>> = Vec::new();
        let mut edges: Vec<Vec<NodeId>> = Vec::new();
        for pod in 0..k {
            aggs.push(
                (0..half).map(|i| net.add_switch(switch_cfg(id(100 + pod * 10 + i), k))).collect(),
            );
            edges.push(
                (0..half).map(|i| net.add_switch(switch_cfg(id(500 + pod * 10 + i), k))).collect(),
            );
        }
        for j in 0..half {
            for i in 0..half {
                let core = cores[j * half + i];
                for (pod, pod_aggs) in aggs.iter().enumerate() {
                    net.connect(pod_aggs[j], core, LinkSpec::new(core_rate(pod, j), delay_ns));
                }
            }
        }
        for (pod_aggs, pod_edges) in aggs.iter().zip(&edges) {
            for &a in pod_aggs {
                for &e in pod_edges {
                    net.connect(a, e, LinkSpec::new(link_mbps, delay_ns));
                }
            }
        }
        FatTreeSwitches { cores, aggs, edges }
    }

    /// Cores first, then each pod's aggregation and edge switches.
    fn into_switches(self) -> Vec<NodeId> {
        let mut switches = self.cores;
        for (pod_aggs, pod_edges) in self.aggs.iter().zip(&self.edges) {
            switches.extend_from_slice(pod_aggs);
            switches.extend_from_slice(pod_edges);
        }
        switches
    }
}

/// Fat-tree shared by the plain, oversubscribed, and asymmetric variants:
/// `core_rate(pod, agg_index)` decides each aggregation→core uplink's rate,
/// everything else runs at `link_mbps`.
fn build_fat_tree(
    k: usize,
    link_mbps: u64,
    delay_ns: u64,
    seed: u64,
    core_rate: impl Fn(usize, usize) -> u64,
) -> Topology {
    let mut net = Network::new(seed);
    let tree = FatTreeSwitches::wire(&mut net, k, 0, k, link_mbps, delay_ns, core_rate);
    let link = LinkSpec::new(link_mbps, delay_ns);
    let hosts = add_hosts(&mut net, tree.edges.iter().flatten().copied(), k / 2, link);
    Topology { net, hosts, switches: tree.into_switches() }
}

fn build_jellyfish(
    n: usize,
    degree: usize,
    hosts_per_switch: usize,
    link_mbps: u64,
    host_mbps: u64,
    delay_ns: u64,
    seed: u64,
) -> Topology {
    assert!(n >= 3, "jellyfish needs at least 3 switches");
    assert!((2..n).contains(&degree), "jellyfish degree must be in 2..switches");
    let mut net = Network::new(seed);
    let switches: Vec<NodeId> = (0..n)
        .map(|i| net.add_switch(switch_cfg(1 + i as u32, degree + hosts_per_switch)))
        .collect();

    // Wiring randomness is its own stream so it cannot perturb the
    // network's ECMP/fault streams for the same seed.
    let mut rng = StdRng::seed_from_u64(seed ^ 0x4A45_4C4C_5946_4953);
    let mut adj = vec![vec![false; n]; n];
    let mut free = vec![degree; n];

    // A random ring first: connectivity is guaranteed before any random
    // matching happens, so every built jellyfish is usable.
    let mut perm: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = rng.random_range(0..=i);
        perm.swap(i, j);
    }
    for i in 0..n {
        let (a, b) = (perm[i], perm[(i + 1) % n]);
        if !adj[a][b] {
            adj[a][b] = true;
            adj[b][a] = true;
            net.connect(switches[a], switches[b], LinkSpec::new(link_mbps, delay_ns));
            free[a] -= 1;
            free[b] -= 1;
        }
    }

    // Random matching over the remaining ports: pick two non-adjacent
    // switches with free ports until no progress is possible.
    let mut misses = 0usize;
    while misses < 50 * n {
        let cand: Vec<usize> = (0..n).filter(|&i| free[i] > 0).collect();
        if cand.len() < 2 {
            break;
        }
        let a = cand[rng.random_range(0..cand.len())];
        let b = cand[rng.random_range(0..cand.len())];
        if a == b || adj[a][b] {
            misses += 1;
            continue;
        }
        adj[a][b] = true;
        adj[b][a] = true;
        net.connect(switches[a], switches[b], LinkSpec::new(link_mbps, delay_ns));
        free[a] -= 1;
        free[b] -= 1;
        misses = 0;
    }

    let link = LinkSpec::new(host_mbps, delay_ns);
    let hosts = add_hosts(&mut net, switches.iter().copied(), hosts_per_switch, link);
    Topology { net, hosts, switches }
}

/// The WAN half of a [`TopologySpec::MultiSite`], bundled so the builder
/// dispatch stays readable.
struct WanKnobs {
    delay_ns: u64,
    delay_step_ns: u64,
    mbps: u64,
    site_mbps: Vec<u64>,
    queue_bytes: u32,
}

impl WanKnobs {
    fn site_rate(&self, s: usize) -> u64 {
        self.site_mbps.get(s).copied().unwrap_or(self.mbps).max(1)
    }

    /// Rate/delay of the WAN link between borders `i < j`.
    fn link(&self, i: usize, j: usize) -> LinkSpec {
        let rate = self.site_rate(i).min(self.site_rate(j));
        let delay = self.delay_ns + self.delay_step_ns * (j - i - 1) as u64;
        LinkSpec::new(rate, delay)
    }
}

fn build_multi_site(
    sites: usize,
    site_k: usize,
    link_mbps: u64,
    delay_ns: u64,
    seed: u64,
    wan: &WanKnobs,
) -> Topology {
    assert!(sites >= 2, "a multi-site fabric needs at least 2 sites");
    let half = site_k / 2;
    let link = LinkSpec::new(link_mbps, delay_ns);
    let mut net = Network::new(seed);
    let mut hosts = Vec::new();
    let mut switches = Vec::new();
    let mut borders = Vec::new();

    // Each site is a fat-tree with switch ids offset by `(site + 1) * 10_000`,
    // so `Switch:SwitchID` reads locate a hop's site at a glance; its cores
    // have one port more, for the border switch `offset + 9000`.
    for site in 0..sites {
        let offset = ((site + 1) * 10_000) as u32;
        let tree = FatTreeSwitches::wire(
            &mut net,
            site_k,
            offset,
            site_k + 1,
            link_mbps,
            delay_ns,
            |_, _| link_mbps,
        );
        // The border: one port per core below, one per remote site above.
        let mut border_cfg = switch_cfg(offset + 9000, half * half + sites - 1);
        if wan.queue_bytes > 0 {
            border_cfg.queue_limit_bytes = wan.queue_bytes;
        }
        let border = net.add_switch(border_cfg);
        for &core in &tree.cores {
            net.connect(core, border, link);
        }
        hosts.extend(add_hosts(&mut net, tree.edges.iter().flatten().copied(), half, link));
        switches.extend(tree.into_switches());
        switches.push(border);
        borders.push(border);
    }
    // The WAN mesh: every border pair, heterogeneous delays by distance.
    for i in 0..sites {
        for j in (i + 1)..sites {
            net.connect(borders[i], borders[j], wan.link(i, j));
        }
    }
    Topology { net, hosts, switches }
}

/// The coordinated-fan-out preset: a [`TopologySpec::MultiSite`] whose
/// site-0 fat-tree hosts the video source and every other site a viewer
/// group, with each viewer site `j ≥ 1` reached over a WAN link throttled
/// to `wan_mbps / (j + 1)` — so every fan-out subtree has a *distinct*
/// bottleneck bandwidth for the rate-adaptation loop to discover. WAN
/// delays start at 2 ms and grow 1 ms per site of distance
/// (heterogeneous RTTs).
pub fn viewer_fanout(sites: usize, site_k: usize, wan_mbps: u64) -> TopologySpec {
    let wan_site_mbps =
        (0..sites).map(|j| if j == 0 { wan_mbps } else { wan_mbps / (j as u64 + 1) }).collect();
    TopologySpec::MultiSite {
        sites,
        site_k,
        wan_delay_ns: 2_000_000,
        wan_delay_step_ns: 1_000_000,
        wan_mbps,
        wan_site_mbps,
        wan_queue_bytes: 0,
    }
}

/// Declarative churn: *what* should change while the network runs,
/// compiled against a built network into a concrete [`ReconfigPlan`].
///
/// Churn composes with every [`TopologySpec`] × workload cell: the
/// scenario layer (`tpp_fabric::scenario`) compiles the spec once against
/// the freshly built network and installs the plan *before* any sharding,
/// so single-shard and partitioned runs of the same churned scenario stay
/// digest-equal.
#[derive(Clone, Debug, Default)]
pub enum ChurnSpec {
    /// No churn (the default): compiles to an empty plan.
    #[default]
    None,
    /// An explicit timed plan, used verbatim.
    Plan(ReconfigPlan),
    /// Seeded random link flapping: each switch–switch link flaps with
    /// probability `fraction`; a flapping link goes down for `down_ns`
    /// once per `period_ns` at a per-link random phase drawn from `seed`.
    LinkFlap {
        /// Probability a given switch–switch link flaps at all.
        fraction: f64,
        /// Flap period; one down/up cycle per period per flapping link.
        period_ns: Time,
        /// How long the link stays down each cycle (must be < `period_ns`).
        down_ns: Time,
        /// Seed for flap selection and phases (decoupled from the
        /// network's fault/topology seeds).
        seed: u64,
        /// Also detour `/32` routes around the downed link while it is
        /// down (and restore them when it comes back). Detours are
        /// computed against the pre-churn tables, best effort: entries
        /// with no loop-free alternate are left to blackhole — which is
        /// exactly what the path monitor exists to catch.
        reroute: bool,
    },
}

impl ChurnSpec {
    /// Short name for evaluation-cell labels (`none`, `plan`, `link_flap`).
    pub fn label(&self) -> &'static str {
        match self {
            ChurnSpec::None => "none",
            ChurnSpec::Plan(_) => "plan",
            ChurnSpec::LinkFlap { .. } => "link_flap",
        }
    }

    /// Compile the spec against a built network into a timed plan covering
    /// `[0, horizon)`. Deterministic: depends only on the spec (including
    /// its seed) and the network's link enumeration order.
    pub fn compile(&self, net: &Network, horizon: Time) -> ReconfigPlan {
        match self {
            ChurnSpec::None => Vec::new(),
            ChurnSpec::Plan(p) => p.clone(),
            ChurnSpec::LinkFlap { fraction, period_ns, down_ns, seed, reroute } => {
                assert!(*period_ns > 0, "flap period must be positive");
                assert!(down_ns < period_ns, "down time must be shorter than the period");
                let mut rng = StdRng::seed_from_u64(*seed);
                // Unique switch–switch links, in deterministic id order.
                let links: Vec<(NodeId, u8, NodeId, u8)> = net
                    .links_iter()
                    .filter(|&(a, _, b, _, _)| a < b && net.is_switch(a) && net.is_switch(b))
                    .map(|(a, pa, b, pb, _)| (a, pa, b, pb))
                    .collect();
                let mut plan = ReconfigPlan::new();
                for (a, pa, b, pb) in links {
                    if rng.random::<f64>() >= *fraction {
                        continue;
                    }
                    let phase: Time = rng.random_range(0..*period_ns);
                    let mut t = phase;
                    while t + *down_ns <= horizon {
                        plan.push((t, ReconfigAction::LinkUp { node: a, port: pa, up: false }));
                        if *reroute {
                            for (sw, port) in [(a, pa), (b, pb)] {
                                for (dst, old, detour) in detours(net, sw, port) {
                                    plan.push((
                                        t,
                                        ReconfigAction::RouteSet {
                                            switch: sw,
                                            dst,
                                            action: detour,
                                        },
                                    ));
                                    plan.push((
                                        t + *down_ns,
                                        ReconfigAction::RouteSet { switch: sw, dst, action: old },
                                    ));
                                }
                            }
                        }
                        plan.push((
                            t + *down_ns,
                            ReconfigAction::LinkUp { node: a, port: pa, up: true },
                        ));
                        t += *period_ns;
                    }
                }
                plan
            }
        }
    }
}

/// Detours for the `/32` entries on `sw` that exit through `port`:
/// `(dst, original action, detour action)` per entry with a usable
/// alternate. The alternate is the first other switch port whose peer has
/// a route for `dst` that does not point straight back at `sw` (one-hop
/// loop avoidance; multi-hop loops are the path monitor's job).
fn detours(net: &Network, sw: NodeId, port: u8) -> Vec<(Ipv4Address, Action, Action)> {
    let mut out = Vec::new();
    for e in net.switch(sw).table.entries() {
        if e.prefix.1 != 32 || e.action != Action::Output(port) {
            continue;
        }
        let dst = e.prefix.0;
        let alt = net.neighbors_iter(sw).find(|&(p, peer)| {
            p != port
                && net.is_switch(peer)
                && match net.switch(peer).host_route(dst) {
                    Some(Action::Output(pp)) => {
                        net.neighbors_iter(peer).find(|&(q, _)| q == pp).map(|(_, n)| n) != Some(sw)
                    }
                    Some(_) => true,
                    None => false,
                }
        });
        if let Some((p, _)) = alt {
            out.push((dst, e.action, Action::Output(p)));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn connected(t: &Topology) -> bool {
        let n = t.net.node_count();
        let mut seen = vec![false; n];
        let mut stack = vec![t.switches[0]];
        seen[t.switches[0].0 as usize] = true;
        let mut count = 1;
        while let Some(node) = stack.pop() {
            for (_, peer) in t.net.neighbors_iter(node) {
                if !seen[peer.0 as usize] {
                    seen[peer.0 as usize] = true;
                    count += 1;
                    stack.push(peer);
                }
            }
        }
        count == n
    }

    #[test]
    fn jellyfish_is_connected_and_degree_bounded() {
        for seed in [1u64, 7, 42] {
            let t = TopologyBuilder::new(TopologySpec::Jellyfish {
                switches: 12,
                degree: 4,
                hosts_per_switch: 1,
            })
            .seed(seed)
            .build();
            assert_eq!(t.switches.len(), 12);
            assert_eq!(t.hosts.len(), 12);
            assert!(connected(&t), "seed {seed}");
            for &s in &t.switches {
                let net_links =
                    t.net.neighbors(s).iter().filter(|&&(_, p)| t.net.is_switch(p)).count();
                assert!(net_links <= 4, "degree bound violated at seed {seed}");
                assert!(net_links >= 2, "ring guarantees degree >= 2");
            }
        }
    }

    #[test]
    fn jellyfish_same_seed_same_graph() {
        let build = |seed| {
            TopologyBuilder::new(TopologySpec::Jellyfish {
                switches: 10,
                degree: 3,
                hosts_per_switch: 1,
            })
            .seed(seed)
            .build()
        };
        let (a, b) = (build(5), build(5));
        for (&sa, &sb) in a.switches.iter().zip(&b.switches) {
            assert_eq!(a.net.neighbors(sa), b.net.neighbors(sb));
        }
    }

    #[test]
    fn oversub_fat_tree_slows_core_uplinks_only() {
        let t = TopologyBuilder::new(TopologySpec::OversubFatTree { k: 4, oversub: 4 })
            .link_mbps(1000)
            .build();
        let mut core_rates = Vec::new();
        let mut edge_rates = Vec::new();
        for (a, _pa, b, _pb, spec) in t.net.links_iter() {
            if t.net.is_switch(a) && t.net.is_switch(b) {
                let ids = (t.net.switch(a).cfg.switch_id, t.net.switch(b).cfg.switch_id);
                if ids.0 >= 1000 || ids.1 >= 1000 {
                    core_rates.push(spec.rate_mbps);
                } else {
                    edge_rates.push(spec.rate_mbps);
                }
            }
        }
        assert!(core_rates.iter().all(|&r| r == 250), "{core_rates:?}");
        assert!(edge_rates.iter().all(|&r| r == 1000), "{edge_rates:?}");
    }

    #[test]
    fn asym_fat_tree_halves_first_agg_uplinks() {
        let t = TopologyBuilder::new(TopologySpec::AsymFatTree { k: 4 }).link_mbps(1000).build();
        let mut slow = 0;
        let mut fast = 0;
        for (a, _pa, b, _pb, spec) in t.net.links_iter() {
            if t.net.is_switch(a) && t.net.is_switch(b) {
                let ids = (t.net.switch(a).cfg.switch_id, t.net.switch(b).cfg.switch_id);
                if ids.0 >= 1000 || ids.1 >= 1000 {
                    if spec.rate_mbps == 500 {
                        slow += 1;
                    } else {
                        assert_eq!(spec.rate_mbps, 1000);
                        fast += 1;
                    }
                }
            }
        }
        // k=4: 2 aggs/pod x 2 core links each x 4 pods = 16 core links, half
        // through agg 0 of each pod; links_iter yields both directions.
        assert_eq!(slow, 16);
        assert_eq!(fast, 16);
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(TopologySpec::FatTree { k: 8 }.label(), "fat_tree8");
        assert_eq!(
            TopologySpec::Jellyfish { switches: 16, degree: 4, hosts_per_switch: 1 }.label(),
            "jellyfish16x4"
        );
        assert_eq!(
            TopologySpec::OversubFatTree { k: 4, oversub: 4 }.label(),
            "oversub_fat_tree4x4"
        );
    }

    #[test]
    fn link_flap_compiles_deterministically() {
        let t = TopologyBuilder::new(TopologySpec::FatTree { k: 4 }).build();
        let spec = ChurnSpec::LinkFlap {
            fraction: 0.5,
            period_ns: 1_000_000,
            down_ns: 200_000,
            seed: 9,
            reroute: false,
        };
        let horizon = 4_000_000;
        let a = spec.compile(&t.net, horizon);
        let b = spec.compile(&t.net, horizon);
        assert_eq!(a, b, "same spec, same network, same plan");
        assert!(!a.is_empty(), "half the fat-tree links should flap");
        // Every action is a LinkUp on a switch–switch link, inside horizon,
        // and downs/ups pair off exactly.
        let (mut downs, mut ups) = (0usize, 0usize);
        for (at, action) in &a {
            let ReconfigAction::LinkUp { node, up, .. } = action else {
                panic!("non-flap action {action:?}");
            };
            assert!(t.net.is_switch(*node));
            assert!(*at <= horizon);
            if *up {
                ups += 1;
            } else {
                downs += 1;
            }
        }
        assert_eq!(downs, ups);
    }

    #[test]
    fn link_flap_reroute_emits_paired_route_sets() {
        let t = TopologyBuilder::new(TopologySpec::LeafSpine {
            leaves: 4,
            spines: 2,
            hosts_per_leaf: 2,
        })
        .build();
        let spec = ChurnSpec::LinkFlap {
            fraction: 1.0,
            period_ns: 2_000_000,
            down_ns: 500_000,
            seed: 3,
            reroute: true,
        };
        let plan = spec.compile(&t.net, 2_000_000);
        let sets: Vec<_> =
            plan.iter().filter(|(_, a)| matches!(a, ReconfigAction::RouteSet { .. })).collect();
        assert!(!sets.is_empty(), "leaf-spine always has an alternate spine");
        // Detour and restore come in pairs: equal counts at down and up
        // times for each (switch, dst).
        let mut per_key: std::collections::BTreeMap<(NodeId, Ipv4Address), usize> =
            std::collections::BTreeMap::new();
        for (_, a) in &plan {
            if let ReconfigAction::RouteSet { switch, dst, .. } = a {
                *per_key.entry((*switch, *dst)).or_default() += 1;
            }
        }
        assert!(per_key.values().all(|&c| c % 2 == 0), "{per_key:?}");
    }

    #[test]
    fn multi_site_is_connected_with_border_mesh() {
        let t = TopologyBuilder::new(TopologySpec::MultiSite {
            sites: 3,
            site_k: 4,
            wan_delay_ns: 2_000_000,
            wan_delay_step_ns: 1_000_000,
            wan_mbps: 400,
            wan_site_mbps: Vec::new(),
            wan_queue_bytes: 0,
        })
        .build();
        // Per site: 4 cores + 4 pods x (2 agg + 2 edge) + 1 border = 21
        // switches and 16 hosts (site-major).
        assert_eq!(t.switches.len(), 3 * 21);
        assert_eq!(t.hosts.len(), 3 * 16);
        assert!(connected(&t));
        // Borders (id offset + 9000) pair into a full WAN mesh with
        // distance-proportional delays.
        let border_ids: Vec<u32> = (0..3).map(|s| (s + 1) as u32 * 10_000 + 9000).collect();
        let mut wan = 0;
        for (a, _pa, b, _pb, spec) in t.net.links_iter() {
            if !(t.net.is_switch(a) && t.net.is_switch(b)) {
                continue;
            }
            let ia = t.net.switch(a).cfg.switch_id;
            let ib = t.net.switch(b).cfg.switch_id;
            if border_ids.contains(&ia) && border_ids.contains(&ib) {
                wan += 1;
                let (si, sj) = (ia / 10_000 - 1, ib / 10_000 - 1);
                let dist = si.abs_diff(sj) as u64;
                assert_eq!(spec.delay_ns, 2_000_000 + 1_000_000 * (dist - 1));
                assert_eq!(spec.rate_mbps, 400);
            }
        }
        // links_iter yields both directions: C(3,2) pairs x 2.
        assert_eq!(wan, 6);
    }

    #[test]
    fn multi_site_queue_override_hits_borders_only() {
        let t = TopologyBuilder::new(TopologySpec::MultiSite {
            sites: 2,
            site_k: 4,
            wan_delay_ns: 1_000_000,
            wan_delay_step_ns: 0,
            wan_mbps: 100,
            wan_site_mbps: Vec::new(),
            wan_queue_bytes: 30_000,
        })
        .build();
        for &s in &t.switches {
            let cfg = &t.net.switch(s).cfg;
            if cfg.switch_id % 10_000 == 9000 {
                assert_eq!(cfg.queue_limit_bytes, 30_000, "shallow border buffer");
            } else {
                assert_ne!(cfg.queue_limit_bytes, 30_000, "intra-site untouched");
            }
        }
    }

    #[test]
    fn viewer_fanout_throttles_each_viewer_site() {
        let spec = viewer_fanout(4, 4, 600);
        assert_eq!(spec.label(), "multi_site4x4");
        let TopologySpec::MultiSite { ref wan_site_mbps, .. } = spec else {
            panic!("viewer_fanout must be MultiSite");
        };
        assert_eq!(wan_site_mbps, &[600, 300, 200, 150]);
        let t = TopologyBuilder::new(spec).build();
        assert!(connected(&t));
        // The source-side border (site 0) sees each viewer link at the
        // viewer site's throttled rate: min(600, 600/(j+1)).
        let is_border =
            |n: NodeId| t.net.is_switch(n) && t.net.switch(n).cfg.switch_id % 10_000 == 9000;
        let mut rates: Vec<u64> = t
            .net
            .links_iter()
            .filter(|&(a, _, b, _, _)| {
                is_border(a) && is_border(b) && t.net.switch(a).cfg.switch_id == 19_000
            })
            .map(|(_, _, _, _, spec)| spec.rate_mbps)
            .collect();
        rates.sort_unstable();
        assert_eq!(rates, vec![150, 200, 300]);
    }

    #[test]
    fn multi_site_hosts_are_site_major_and_routed() {
        let t = TopologyBuilder::new(TopologySpec::MultiSite {
            sites: 2,
            site_k: 4,
            wan_delay_ns: 250_000,
            wan_delay_step_ns: 0,
            wan_mbps: 1000,
            wan_site_mbps: Vec::new(),
            wan_queue_bytes: 0,
        })
        .build();
        let per_site = t.hosts.len() / 2;
        assert_eq!(per_site, 16);
        // A cross-site route exists: host 0 (site 0) to the first host of
        // site 1, resolvable at host 0's edge switch.
        let dst = t.net.host(t.hosts[per_site]).ip;
        let (_, edge) = t.net.neighbors(t.hosts[0])[0];
        assert!(t.net.is_switch(edge));
        assert!(t.net.switch(edge).host_route(dst).is_some(), "no WAN route");
    }

    #[test]
    fn churn_labels_are_stable() {
        assert_eq!(ChurnSpec::None.label(), "none");
        assert_eq!(ChurnSpec::Plan(Vec::new()).label(), "plan");
        let flap = ChurnSpec::LinkFlap {
            fraction: 0.1,
            period_ns: 1,
            down_ns: 0,
            seed: 0,
            reroute: false,
        };
        assert_eq!(flap.label(), "link_flap");
    }
}
