//! Workspace smoke matrix: every crate's headline entry point must run.
//!
//! One `run_cluster` round-trip per `ClusterConfig` preset, and one
//! intra-parallel section end-to-end per scheduler.  These tests guard the
//! build wiring itself — if a crate's public API or the facade re-exports
//! drift, this file is the first thing that stops compiling.

use intra_replication::prelude::*;

/// Allreduce round-trip on a cluster built from the given config.
fn allreduce_round_trip(config: &ClusterConfig, procs: usize) {
    let report = run_cluster(config, |proc| {
        let world = proc.world();
        world.allreduce_sum_f64(world.rank() as f64).unwrap()
    });
    let expected = (procs * (procs - 1) / 2) as f64;
    for sum in report.unwrap_results() {
        assert_eq!(sum, expected);
    }
}

#[test]
fn cluster_preset_ideal_round_trips() {
    allreduce_round_trip(&ClusterConfig::ideal(4), 4);
}

#[test]
fn cluster_preset_default_machine_round_trips() {
    allreduce_round_trip(&ClusterConfig::new(4), 4);
}

#[test]
fn cluster_preset_grid5000_round_trips() {
    let machine = MachineModel::grid5000_ib20g();
    let cores = machine.cores_per_node;
    let config = ClusterConfig::new(4)
        .with_machine(machine)
        .with_topology(Topology::replica_disjoint(2, 2, cores));
    allreduce_round_trip(&config, 4);
}

#[test]
fn cluster_preset_ideal_compute_round_trips() {
    let config = ClusterConfig::new(2)
        .with_machine(MachineModel::ideal_compute_ib20g())
        .with_topology(Topology::one_per_node(2));
    allreduce_round_trip(&config, 2);
}

/// Runs one intra-parallel section (w = 2x over 64 elements, 8 tasks) with
/// the given scheduler on 2 replicas; both replicas must hold the full,
/// correct result.
fn section_round_trip(scheduler: SchedulerKind) {
    let name = scheduler.name();
    let report = run_cluster(&ClusterConfig::ideal(2), move |proc| {
        let env = ReplicatedEnv::without_failures(proc, ExecutionMode::IntraParallel { degree: 2 })
            .unwrap();
        let config = IntraConfig::paper()
            .with_tasks_per_section(8)
            .with_scheduler_kind(scheduler);
        let mut rt = IntraRuntime::new(env, config);
        let mut ws = Workspace::new();
        let x = ws.add("x", (0..64).map(|i| i as f64).collect());
        let w = ws.add_zeros("w", 64);
        let mut section = rt.section(&mut ws);
        section
            .add_split(64, |chunk| {
                TaskDef::new(
                    "double",
                    |c| {
                        for i in 0..c.inputs[0].len() {
                            c.outputs[0][i] = 2.0 * c.inputs[0][i];
                        }
                    },
                    vec![ArgSpec::input(x, chunk.clone()), ArgSpec::output(w, chunk)],
                )
            })
            .unwrap();
        let _ = section.end().unwrap();
        (ws.get(w).to_vec(), ws.fingerprint())
    });
    let results = report.unwrap_results();
    let mut fingerprints = Vec::new();
    for (w, fp) in results {
        for (i, v) in w.iter().enumerate() {
            assert_eq!(*v, 2.0 * i as f64, "scheduler {name}: w[{i}]");
        }
        fingerprints.push(fp);
    }
    assert!(
        fingerprints.windows(2).all(|p| p[0] == p[1]),
        "scheduler {name}: replicas disagree"
    );
}

#[test]
fn static_block_scheduler_section_round_trips() {
    section_round_trip(SchedulerKind::StaticBlock);
}

#[test]
fn round_robin_scheduler_section_round_trips() {
    section_round_trip(SchedulerKind::RoundRobin);
}

#[test]
fn cost_aware_scheduler_section_round_trips() {
    section_round_trip(SchedulerKind::CostAware);
}

#[test]
fn adaptive_scheduler_section_round_trips() {
    section_round_trip(SchedulerKind::Adaptive);
}

#[test]
fn locality_scheduler_section_round_trips() {
    section_round_trip(SchedulerKind::Locality);
}

#[test]
fn every_builtin_scheduler_kind_section_round_trips() {
    // `SchedulerKind` is the typed source of truth for scheduler selection
    // (the `Experiment` builder's scheduler axis); every kind must run.
    for kind in SchedulerKind::ALL {
        section_round_trip(kind);
    }
}

/// One `Experiment::run` smoke per execution mode: the facade's unified
/// entry point must stay wired to every layer below it.
#[test]
fn experiment_builder_smoke_per_mode() {
    use intra_replication::{Experiment, Mode};
    for mode in [
        Mode::NoReplication,
        Mode::Replication,
        Mode::IntraReplication,
    ] {
        let report = Experiment::builder()
            .app(apps::AppId::Hpccg)
            .mode(mode)
            .build()
            .expect("valid experiment")
            .run()
            .expect("experiment executes");
        assert_eq!(report.completed(), report.procs, "{mode}");
    }
}

#[test]
fn every_crate_headline_symbol_is_reachable_via_facade() {
    // simcluster
    let _ = MachineModel::grid5000_ib20g();
    let _ = SimTime::ZERO;
    // simmpi
    let _ = ClusterConfig::ideal(1);
    // replication
    let _ = FailureInjector::none();
    let _ = ExecutionMode::Native;
    // ipr-core
    let _ = IntraConfig::paper();
    let _ = split_ranges(10, 3);
    let _ = SchedulerKind::StaticBlock;
    // kernels
    let _ = intra_replication::kernels::vecops::ddot_cost(1024);
    // apps (type-level: the constructor needs a live ProcHandle)
    let _ = intra_replication::apps::HpccgParams::small(4, 2);
    // facade experiment surface
    let _ = intra_replication::Experiment::builder();
    let _ = intra_replication::FailurePlan::none();
}
