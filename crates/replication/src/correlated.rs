//! Correlated failure domains: one event kills a co-located rank group.
//!
//! Independent per-rank Poisson traces miss the failure mode that makes
//! replica placement interesting: on real machines a power supply, a DIMM
//! riser or a rack switch takes out *every* process on the affected node or
//! rack at once.  A [`CorrelatedPlan`] models exactly that — crash events
//! are drawn per failure *domain group* (a node, or a rack of several
//! nodes) from any [`FailureRate`], and each event kills the whole
//! co-located rank group of [`simcluster::Topology`] at the event time.
//!
//! Because an event is correlated across a group, placement now matters:
//! with [`simcluster::Topology::replica_disjoint`] placement the replicas
//! of a logical process never share a node, so any single node (or rack,
//! when racks do not span both replica halves) loss leaves one replica of
//! every logical rank alive; with [`simcluster::Topology::single_node`]
//! placement one event is fatal to the whole job.
//!
//! Determinism rule 5 holds: group traces are pure functions of
//! `(seed, group id)` on a dedicated RNG stream ([`sample_group_trace`]),
//! disjoint from the per-rank stream of
//! [`crate::rate::sample_failure_trace`], so correlated and independent
//! plans can coexist under one seed without interacting.

use crate::rate::FailureRate;
use simcluster::{SimTime, Topology};

/// RNG stream id reserved for correlated (group-level) failure traces,
/// disjoint from the per-rank `FAILURE_TRACE_STREAM`.
const CORRELATED_TRACE_STREAM: usize = 0xC0FA;

/// The granularity of a correlated failure event: what one event kills.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FailureDomain {
    /// One event kills every rank on one node.
    Node,
    /// One event kills every rank on one rack of `nodes_per_rack`
    /// consecutive nodes (rack r hosts nodes `r*n .. (r+1)*n`).
    Rack {
        /// Nodes per rack (≥ 1).
        nodes_per_rack: usize,
    },
}

impl FailureDomain {
    /// Compact label used in plan labels: `node` or `rack<N>`.
    pub fn label(&self) -> String {
        match *self {
            FailureDomain::Node => "node".to_string(),
            FailureDomain::Rack { nodes_per_rack } => format!("rack{nodes_per_rack}"),
        }
    }

    /// Parses the output of [`FailureDomain::label`] (whitespace/case
    /// lenient, like the rate labels).
    pub fn parse(s: &str) -> Option<Self> {
        let s = s.trim().to_ascii_lowercase();
        if s == "node" {
            return Some(FailureDomain::Node);
        }
        let n = s.strip_prefix("rack")?.parse().ok()?;
        (n >= 1).then_some(FailureDomain::Rack { nodes_per_rack: n })
    }

    /// Number of failure groups this domain partitions `topology` into.
    pub fn num_groups(&self, topology: &Topology) -> usize {
        match *self {
            FailureDomain::Node => topology.num_nodes(),
            FailureDomain::Rack { nodes_per_rack } => topology.num_racks(nodes_per_rack.max(1)),
        }
    }

    /// All ranks of `topology` that one event on `group` kills, ascending.
    fn ranks_in(&self, topology: &Topology, group: usize) -> Vec<usize> {
        match *self {
            FailureDomain::Node => topology.ranks_on(group),
            FailureDomain::Rack { nodes_per_rack } => {
                topology.ranks_on_rack(group, nodes_per_rack.max(1))
            }
        }
    }
}

/// Samples the crash-event times of one failure group over `[0, horizon)`
/// from the Poisson process described by `rate` — the same Lewis–Shedler
/// thinning loop as [`crate::rate::sample_failure_trace`], on the dedicated
/// correlated stream of `(seed, group)`, so group traces never alias the
/// per-rank traces of an independent plan under the same seed.
pub fn sample_group_trace(
    rate: FailureRate,
    horizon: SimTime,
    seed: u64,
    group: usize,
) -> Vec<SimTime> {
    rate.over(horizon.as_secs())
        .thinned(seed, group, CORRELATED_TRACE_STREAM)
        .filter_map(|(t, accepted)| accepted.then_some(t))
        .collect()
}

/// A correlated failure plan: group-level crash events over a topology.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CorrelatedPlan {
    /// What one event kills.
    pub domain: FailureDomain,
    /// Intensity of the per-group event process.
    pub rate: FailureRate,
    /// Observation horizon.
    pub horizon: SimTime,
}

impl CorrelatedPlan {
    /// Builds a plan from its three axes.
    pub fn new(domain: FailureDomain, rate: FailureRate, horizon: SimTime) -> Self {
        CorrelatedPlan {
            domain,
            rate,
            horizon,
        }
    }

    /// Expands the plan over `topology` into per-rank crash times: for
    /// every group whose trace is non-empty, each co-located rank is
    /// scheduled to crash at the group's *first* event (ranks are
    /// crash-stop, so later events of the group can never fire).  The
    /// result is ordered group-ascending, rank-ascending — a pure function
    /// of `(plan, topology, seed)`.
    pub fn crashes(&self, topology: &Topology, seed: u64) -> Vec<(usize, SimTime)> {
        // `horizon.as_secs()`, as in `sample_group_trace`: the traces stay
        // bit-identical, and the majorant is computed once for all groups.
        let rate = self.rate.over(self.horizon.as_secs());
        let mut out = Vec::new();
        for group in 0..self.domain.num_groups(topology) {
            let first = rate
                .thinned(seed, group, CORRELATED_TRACE_STREAM)
                .find_map(|(t, accepted)| accepted.then_some(t));
            let Some(at) = first else {
                continue;
            };
            for rank in self.domain.ranks_in(topology, group) {
                out.push((rank, at));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn domain_labels_round_trip() {
        for d in [
            FailureDomain::Node,
            FailureDomain::Rack { nodes_per_rack: 4 },
        ] {
            assert_eq!(FailureDomain::parse(&d.label()), Some(d), "{}", d.label());
        }
        assert_eq!(FailureDomain::parse(" NODE "), Some(FailureDomain::Node));
        assert_eq!(FailureDomain::parse("rack0"), None);
        assert_eq!(FailureDomain::parse("rack"), None);
        assert_eq!(FailureDomain::parse("switch2"), None);
    }

    #[test]
    fn group_traces_are_deterministic_and_distinct_from_rank_traces() {
        let rate = FailureRate::Constant(0.5);
        let horizon = SimTime::from_secs(50.0);
        let a = sample_group_trace(rate, horizon, 42, 0);
        assert_eq!(a, sample_group_trace(rate, horizon, 42, 0));
        assert_ne!(a, sample_group_trace(rate, horizon, 42, 1));
        // The correlated stream must not alias the per-rank stream.
        assert_ne!(a, crate::rate::sample_failure_trace(rate, horizon, 42, 0));
    }

    #[test]
    fn node_groups_follow_the_topology() {
        let topo = Topology::block(8, 4);
        let d = FailureDomain::Node;
        assert_eq!(d.num_groups(&topo), 2);
        assert_eq!(d.ranks_in(&topo, 0), vec![0, 1, 2, 3]);
        assert_eq!(d.ranks_in(&topo, 1), vec![4, 5, 6, 7]);
    }

    #[test]
    fn rack_groups_merge_consecutive_nodes() {
        let topo = Topology::block(16, 2); // 8 nodes of 2 ranks
        let d = FailureDomain::Rack { nodes_per_rack: 4 };
        assert_eq!(d.num_groups(&topo), 2);
        assert_eq!(d.ranks_in(&topo, 0), (0..8).collect::<Vec<_>>());
        assert_eq!(d.ranks_in(&topo, 1), (8..16).collect::<Vec<_>>());
    }

    #[test]
    fn crashes_kill_whole_groups_at_one_time() {
        let topo = Topology::block(8, 4);
        let plan = CorrelatedPlan::new(
            FailureDomain::Node,
            FailureRate::Constant(5.0),
            SimTime::from_secs(10.0),
        );
        let crashes = plan.crashes(&topo, 42);
        assert!(!crashes.is_empty(), "rate 5/s over 10 s must fire");
        for group in 0..2 {
            let times: Vec<SimTime> = crashes
                .iter()
                .filter(|(r, _)| topo.node_of(*r) == group)
                .map(|&(_, t)| t)
                .collect();
            if times.is_empty() {
                continue;
            }
            assert_eq!(times.len(), 4, "an event kills the whole node");
            assert!(times.windows(2).all(|w| w[0] == w[1]));
        }
        assert_eq!(crashes, plan.crashes(&topo, 42), "pure function of seed");
    }

    #[test]
    fn crashes_are_the_group_traces_bit_for_bit() {
        // The plan computes one majorant for all groups; every group's first
        // event must still be exactly what the per-group sampler draws.
        let topo = Topology::block(16, 2);
        for rate in [
            FailureRate::Constant(3.0),
            FailureRate::weibull_hpc(0.5),
            FailureRate::lognormal_hpc(0.5),
        ] {
            let plan = CorrelatedPlan::new(FailureDomain::Node, rate, SimTime::from_secs(1.37));
            let expected: Vec<_> = (0..8)
                .filter_map(|node| {
                    let trace = sample_group_trace(rate, plan.horizon, 42, node);
                    Some((node, *trace.first()?))
                })
                .flat_map(|(node, at)| topo.ranks_on(node).into_iter().map(move |r| (r, at)))
                .collect();
            assert!(!expected.is_empty(), "{}", rate.label());
            assert_eq!(plan.crashes(&topo, 42), expected, "{}", rate.label());
        }
    }
}
