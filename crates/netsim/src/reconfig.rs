//! Runtime reconfiguration: scheduled route and link changes, plus the
//! dependency-ordered update scheduler.
//!
//! A live network is never frozen: routes move, links flap, rates degrade.
//! This module gives the simulator a deterministic way to *create* those
//! conditions so the TPP detection apps (netverify, `NetSight` histories,
//! the transient monitor) have something to police.
//!
//! # Scheduled reconfiguration
//!
//! A [`ReconfigAction`] describes one change; a plan is a list of
//! `(time, action)` pairs installed with
//! [`Network::schedule_reconfig`](crate::Network::schedule_reconfig).
//! Plans are carried as *data* through [`Network::split`](crate::Network::split),
//! so every shard of a partitioned run holds the full plan and applies the
//! slice it owns: route updates fire only on the shard owning the switch,
//! link updates fire on every shard (each shard carries the full port
//! table). Delivery rides the ordinary event queue with a content-derived
//! key, so sharded runs stay digest-equal with the single-threaded one.
//!
//! # Dependency-ordered updates
//!
//! Applying a route change set in an arbitrary order can create transient
//! forwarding loops even when both the old and the new configuration are
//! loop-free (the classic consensus-routing / Snowcap observation).
//! [`order_route_updates`] computes a safe order greedily: an update is
//! applied only when the mixed old/new forwarding graph it produces stays
//! loop-free for its destination. The transient monitor
//! (`tpp_apps::transient`) validates the property end to end: a misordered
//! plan must trip violations, the ordered plan must produce zero.

use std::collections::BTreeMap;

use tpp_core::wire::Ipv4Address;
use tpp_switch::Action;

use crate::engine::Time;
use crate::net::{Network, NodeId};

/// One scheduled change to a running network.
#[derive(Clone, Debug, PartialEq)]
pub enum ReconfigAction {
    /// Insert or replace the `/32` route for `dst` on `switch` (bumps the
    /// flow-table version).
    RouteSet { switch: NodeId, dst: Ipv4Address, action: Action },
    /// Withdraw the `/32` route for `dst` on `switch`; subsequent packets
    /// blackhole with a `NoRoute` drop.
    RouteWithdraw { switch: NodeId, dst: Ipv4Address },
    /// Take the link at `(node, port)` down (blackhole) or back up, both
    /// directions; link-status memory words on the endpoint switches track
    /// it.
    LinkUp { node: NodeId, port: u8, up: bool },
    /// Change rate/delay of the link at `(node, port)`, both directions.
    /// In a partitioned run, lowering a cross-shard delay is folded into
    /// the fabric's lookahead up front (see `tpp_fabric`), keeping the
    /// conservative epoch windows safe.
    LinkDegrade { node: NodeId, port: u8, rate_mbps: u64, delay_ns: u64 },
    /// Change the drop/corruption fault probabilities of the link at
    /// `(node, port)`, both directions.
    LinkFaults { node: NodeId, port: u8, drop_prob: f64, corrupt_prob: f64 },
}

/// A timed reconfiguration plan.
pub type ReconfigPlan = Vec<(Time, ReconfigAction)>;

/// One pending `/32` route change for the ordered-update scheduler.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RouteUpdate {
    pub switch: NodeId,
    pub dst: Ipv4Address,
    pub action: Action,
}

impl RouteUpdate {
    /// The scheduled-action form of this update.
    pub fn action(&self) -> ReconfigAction {
        ReconfigAction::RouteSet { switch: self.switch, dst: self.dst, action: self.action }
    }
}

/// The switches a forwarding action can hand a packet to next.
fn next_hops(net: &Network, switch: NodeId, action: Action) -> Vec<NodeId> {
    let port_peer = |port: u8| net.neighbors_iter(switch).find(|&(p, _)| p == port).map(|(_, n)| n);
    let peers = match action {
        Action::Output(port) => port_peer(port).into_iter().collect::<Vec<_>>(),
        Action::Group(g) => net
            .switch(switch)
            .groups
            .ports(g)
            .unwrap_or(&[])
            .iter()
            .filter_map(|&p| port_peer(p))
            .collect::<Vec<_>>(),
        Action::Drop => Vec::new(),
    };
    peers.into_iter().filter(|&n| net.is_switch(n)).collect()
}

/// Does the per-destination forwarding graph in `state` contain a cycle
/// reachable from any updated switch? Iterative three-color DFS.
fn has_loop(adj: &BTreeMap<NodeId, Vec<NodeId>>) -> bool {
    #[derive(Clone, Copy, PartialEq)]
    enum Color {
        White,
        Gray,
        Black,
    }
    let mut color: BTreeMap<NodeId, Color> = adj.keys().map(|&n| (n, Color::White)).collect();
    for &start in adj.keys() {
        if color[&start] != Color::White {
            continue;
        }
        // Stack of (node, next-child-index).
        let mut stack = vec![(start, 0usize)];
        color.insert(start, Color::Gray);
        while let Some(&mut (node, ref mut idx)) = stack.last_mut() {
            let children = adj.get(&node).map(Vec::as_slice).unwrap_or(&[]);
            if *idx < children.len() {
                let child = children[*idx];
                *idx += 1;
                match color.get(&child).copied().unwrap_or(Color::Black) {
                    Color::Gray => return true,
                    Color::White => {
                        color.insert(child, Color::Gray);
                        stack.push((child, 0));
                    }
                    Color::Black => {}
                }
            } else {
                color.insert(node, Color::Black);
                stack.pop();
            }
        }
    }
    false
}

/// Build the per-destination forwarding adjacency implied by the current
/// switch tables, with `overrides` applied on top.
fn forwarding_graph(
    net: &Network,
    dst: Ipv4Address,
    overrides: &BTreeMap<NodeId, Action>,
) -> BTreeMap<NodeId, Vec<NodeId>> {
    let mut adj = BTreeMap::new();
    for s in net.switch_ids() {
        let action = overrides.get(&s).copied().or_else(|| net.switch(s).host_route(dst));
        let hops = match action {
            Some(a) => next_hops(net, s, a),
            None => Vec::new(),
        };
        adj.insert(s, hops);
    }
    adj
}

/// Order a set of `/32` route updates so that no intermediate state has a
/// forwarding loop (Snowcap-style dependency ordering).
///
/// Greedy: repeatedly apply the lowest-id pending update whose resulting
/// mixed old/new graph stays loop-free for its destination. When both the
/// initial and the final configuration are loop-free, a safe per-step
/// order exists for `/32` next-hop updates; if the greedy pass ever finds
/// no safe candidate (e.g. the *final* state itself loops), the remaining
/// updates are appended in switch-id order so the plan still terminates.
///
/// The returned order, spaced out in time and applied through
/// [`Network::schedule_reconfig`](crate::Network::schedule_reconfig), is
/// what the transient monitor validates: zero violations for this order,
/// at least one for a crafted misorder.
pub fn order_route_updates(net: &Network, updates: &[RouteUpdate]) -> Vec<RouteUpdate> {
    // Per-destination groups: loops in /32 forwarding are per-destination,
    // so each group orders independently (deterministically: dst order).
    let mut by_dst: BTreeMap<Ipv4Address, Vec<RouteUpdate>> = BTreeMap::new();
    for u in updates {
        by_dst.entry(u.dst).or_default().push(*u);
    }
    let mut out = Vec::with_capacity(updates.len());
    for (dst, mut group) in by_dst {
        group.sort_by_key(|u| u.switch);
        let mut applied: BTreeMap<NodeId, Action> = BTreeMap::new();
        while !group.is_empty() {
            let pick = group.iter().position(|u| {
                let mut trial = applied.clone();
                trial.insert(u.switch, u.action);
                !has_loop(&forwarding_graph(net, dst, &trial))
            });
            // No single-step-safe candidate: fall back to the first pending
            // update so the plan always terminates.
            let i = pick.unwrap_or(0);
            let u = group.remove(i);
            applied.insert(u.switch, u.action);
            out.push(u);
        }
    }
    out
}

/// Turn an update order into a timed plan: the `k`-th update fires at
/// `start + k * spacing`. Spacing longer than the network's convergence
/// time (propagation plus queueing) keeps each step's transient windows
/// from overlapping.
pub fn plan_route_updates(updates: &[RouteUpdate], start: Time, spacing: Time) -> ReconfigPlan {
    updates.iter().enumerate().map(|(k, u)| (start + k as Time * spacing, u.action())).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::NullApp;
    use crate::LinkSpec;
    use tpp_switch::SwitchConfig;

    /// Triangle of switches s1-s2-s3 with the destination host on s3 and a
    /// source host on s1. Old routes: s1 -> s2 -> s3. New routes: s1 -> s3
    /// directly, s2 -> s1 (the s2-s3 link is being drained).
    fn triangle() -> (Network, [NodeId; 3], Ipv4Address, [RouteUpdate; 2]) {
        let mut net = Network::new(1);
        let s1 = net.add_switch(SwitchConfig::new(1, 4));
        let s2 = net.add_switch(SwitchConfig::new(2, 4));
        let s3 = net.add_switch(SwitchConfig::new(3, 4));
        let h_src = net.add_host(Box::new(NullApp));
        let h_dst = net.add_host(Box::new(NullApp));
        let spec = LinkSpec::new(1000, 10_000);
        net.connect(s1, s2, spec); // s1 port 0 / s2 port 0
        net.connect(s2, s3, spec); // s2 port 1 / s3 port 0
        net.connect(s1, s3, spec); // s1 port 1 / s3 port 1
        net.connect(s1, h_src, spec); // s1 port 2
        net.connect(s3, h_dst, spec); // s3 port 2
        let dst_ip = net.host(h_dst).ip;
        let src_ip = net.host(h_src).ip;
        net.switch_mut(s1).add_host_route(dst_ip, Action::Output(0)); // via s2
        net.switch_mut(s2).add_host_route(dst_ip, Action::Output(1)); // via s3
        net.switch_mut(s3).add_host_route(dst_ip, Action::Output(2)); // deliver
        net.switch_mut(s1).add_host_route(src_ip, Action::Output(2));
        net.switch_mut(s2).add_host_route(src_ip, Action::Output(0));
        net.switch_mut(s3).add_host_route(src_ip, Action::Output(1));
        let updates = [
            RouteUpdate { switch: s1, dst: dst_ip, action: Action::Output(1) }, // direct
            RouteUpdate { switch: s2, dst: dst_ip, action: Action::Output(0) }, // via s1
        ];
        (net, [s1, s2, s3], dst_ip, updates)
    }

    #[test]
    fn ordered_updates_put_the_dependency_first() {
        let (net, [s1, _, _], _, updates) = triangle();
        // Applying s2 -> s1 before s1 -> s3 creates a transient s1<->s2
        // loop; the safe order applies s1's update first.
        let ordered = order_route_updates(&net, &updates);
        assert_eq!(ordered.len(), 2);
        assert_eq!(ordered[0].switch, s1, "s1's direct route must go first");
        // The reversed order really is unsafe: its first step loops.
        let mut trial = BTreeMap::new();
        trial.insert(updates[1].switch, updates[1].action);
        assert!(has_loop(&forwarding_graph(&net, updates[1].dst, &trial)));
    }

    #[test]
    fn ordering_is_stable_for_already_safe_plans() {
        let (net, [s1, s2, _], dst, _) = triangle();
        // Updates that are individually safe keep switch-id order.
        let updates = [
            RouteUpdate { switch: s2, dst, action: Action::Output(1) }, // no-op re-set
            RouteUpdate { switch: s1, dst, action: Action::Output(1) },
        ];
        let ordered = order_route_updates(&net, &updates);
        assert_eq!(ordered[0].switch, s1);
        assert_eq!(ordered[1].switch, s2);
    }

    #[test]
    fn plan_spaces_updates_out() {
        let (net, _, _, updates) = triangle();
        let ordered = order_route_updates(&net, &updates);
        let plan = plan_route_updates(&ordered, 1_000, 500);
        assert_eq!(plan.len(), 2);
        assert_eq!(plan[0].0, 1_000);
        assert_eq!(plan[1].0, 1_500);
        assert!(matches!(plan[0].1, ReconfigAction::RouteSet { .. }));
    }

    #[test]
    fn group_actions_participate_in_loop_analysis() {
        let (mut net, [s1, _, _], dst, _) = triangle();
        // An ECMP group on s1 spraying over both s2 and s3 is loop-free...
        let g = net.switch_mut(s1).add_group(vec![0, 1]);
        net.switch_mut(s1).add_host_route(dst, Action::Group(g));
        assert!(!has_loop(&forwarding_graph(&net, dst, &BTreeMap::new())));
        // ...but pointing s2 back at s1 while s1 sprays through s2 loops.
        let mut trial = BTreeMap::new();
        trial.insert(NodeId(1), Action::Output(0));
        assert!(has_loop(&forwarding_graph(&net, dst, &trial)));
    }
}
