//! Correlated failure-domain tests: one event kills exactly the co-located
//! rank group, and replica placement decides whether the job survives it.

use replication::{CorrelatedPlan, FailureDomain, FailureRate};
use simcluster::{SimTime, Topology};

/// A plan hot enough that every group fires within the horizon (constant
/// rate 50/s over 10 s: the probability of an empty group trace is ~e^-500).
fn hot_plan(domain: FailureDomain) -> CorrelatedPlan {
    CorrelatedPlan::new(
        domain,
        FailureRate::Constant(50.0),
        SimTime::from_secs(10.0),
    )
}

#[test]
fn a_node_event_kills_exactly_ranks_on_that_node() {
    let topo = Topology::replica_disjoint(8, 2, 4); // 16 ranks on 4 nodes
    let plan = hot_plan(FailureDomain::Node);
    let crashes = plan.crashes(&topo, 42);
    // Every group fired; group the crash list back by node and compare
    // against the topology's own membership view.
    for node in 0..topo.num_nodes() {
        let killed: Vec<usize> = crashes
            .iter()
            .filter(|&&(r, _)| topo.node_of(r) == node)
            .map(|&(r, _)| r)
            .collect();
        assert_eq!(
            killed,
            topo.ranks_on(node),
            "node {node}: event must kill exactly the co-located ranks"
        );
    }
    // No rank appears twice (one fatal event per crash-stop rank).
    let mut ranks: Vec<usize> = crashes.iter().map(|&(r, _)| r).collect();
    ranks.sort_unstable();
    ranks.dedup();
    assert_eq!(ranks.len(), crashes.len());
}

#[test]
fn rack_events_kill_every_node_of_the_rack() {
    let topo = Topology::block(16, 2); // 8 nodes of 2 ranks
    let domain = FailureDomain::Rack { nodes_per_rack: 4 };
    let crashes = hot_plan(domain).crashes(&topo, 42);
    for rack in 0..topo.num_racks(4) {
        let killed: Vec<usize> = crashes
            .iter()
            .filter(|&&(r, _)| topo.node_of(r) / 4 == rack)
            .map(|&(r, _)| r)
            .collect();
        assert_eq!(killed, topo.ranks_on_rack(rack, 4));
        // All at the same instant: the rack's first event.
        let times: Vec<SimTime> = crashes
            .iter()
            .filter(|&&(r, _)| topo.node_of(r) / 4 == rack)
            .map(|&(_, t)| t)
            .collect();
        assert!(times.windows(2).all(|w| w[0] == w[1]));
    }
}

/// True if, after removing `lost` ranks, every logical rank of a
/// degree-`degree` replicated job of `num_logical` logical processes still
/// has at least one live replica (physical rank = replica * num_logical +
/// logical).
fn all_logical_survive(num_logical: usize, degree: usize, lost: &[usize]) -> bool {
    (0..num_logical).all(|logical| {
        (0..degree).any(|replica| !lost.contains(&(replica * num_logical + logical)))
    })
}

#[test]
fn replica_disjoint_placement_survives_any_single_node_loss() {
    let (num_logical, degree, cores) = (8, 2, 4);
    let topo = Topology::replica_disjoint(num_logical, degree, cores);
    for node in 0..topo.num_nodes() {
        let lost = topo.ranks_on(node);
        assert!(
            all_logical_survive(num_logical, degree, &lost),
            "losing node {node} must leave a replica of every logical rank"
        );
    }
}

#[test]
fn single_node_placement_dies_to_one_node_event() {
    let (num_logical, degree) = (8, 2);
    let topo = Topology::single_node(num_logical * degree);
    let lost = topo.ranks_on(0);
    assert_eq!(lost.len(), topo.num_procs(), "one node hosts everything");
    assert!(
        !all_logical_survive(num_logical, degree, &lost),
        "co-located replicas cannot survive their shared node"
    );
    // The correlated plan reaches the same verdict end to end: a node
    // event under single-node placement schedules every rank to crash.
    let crashes = hot_plan(FailureDomain::Node).crashes(&topo, 42);
    assert_eq!(crashes.len(), topo.num_procs());
}

#[test]
fn crash_expansion_is_deterministic_and_seed_sensitive() {
    let topo = Topology::replica_disjoint(8, 2, 4);
    let plan = CorrelatedPlan::new(
        FailureDomain::Node,
        FailureRate::weibull_hpc(5.0),
        SimTime::from_secs(10.0),
    );
    assert_eq!(plan.crashes(&topo, 42), plan.crashes(&topo, 42));
    assert_ne!(
        plan.crashes(&topo, 42),
        plan.crashes(&topo, 43),
        "different seeds must draw different correlated event times"
    );
}
