//! Workspace-level integration tests: exercise the whole stack (simulated
//! cluster → MPI → replication → intra-parallelization → application kernels)
//! through the facade crate, the way a downstream user would.

use intra_replication::prelude::*;
use kernels::vecops;

#[test]
fn facade_reexports_every_layer() {
    // simcluster
    let machine = MachineModel::grid5000_ib20g();
    assert!(machine.inter_node.bandwidth_bytes_per_s > 1e9);
    // simmpi + replication + core through a tiny end-to-end run.
    let report = run_cluster(&ClusterConfig::ideal(2), |proc| {
        let env = ReplicatedEnv::without_failures(proc, ExecutionMode::IntraParallel { degree: 2 })
            .unwrap();
        let mut rt = IntraRuntime::new(env, IntraConfig::paper());
        let mut ws = Workspace::new();
        let x = ws.add("x", vec![3.0; 32]);
        let w = ws.add_zeros("w", 32);
        let mut section = rt.section(&mut ws);
        section
            .add_split(32, |chunk| {
                TaskDef::new(
                    "copy",
                    |c| c.outputs[0].copy_from_slice(&c.inputs[0]),
                    vec![ArgSpec::input(x, chunk.clone()), ArgSpec::output(w, chunk)],
                )
            })
            .unwrap();
        let _ = section.end().unwrap();
        vecops::grid_sum(ws.get(w))
    });
    for sum in report.unwrap_results() {
        assert_eq!(sum, 96.0);
    }
}

#[test]
fn efficiency_ordering_matches_the_paper_headline() {
    // The headline claim of the paper: on compute-intensive kernels,
    // intra-parallelization breaks the 50% efficiency wall of replication.
    // Reproduce it end to end with the ddot kernel on a realistic machine.
    let kernel_time = |mode: ExecutionMode| -> f64 {
        let degree = mode.degree();
        let procs = 4;
        let machine = MachineModel::grid5000_ib20g();
        let topology = if degree > 1 {
            Topology::replica_disjoint(procs / degree, degree, machine.cores_per_node)
        } else {
            Topology::block(procs, machine.cores_per_node)
        };
        let config = ClusterConfig::new(procs)
            .with_machine(machine)
            .with_topology(topology);
        let actual_n = 1 << 10;
        let modeled_n = (1 << 21) * degree; // paper-scale vector, doubled with replication
        let report = run_cluster(&config, move |proc| {
            let env = ReplicatedEnv::without_failures(proc, mode).unwrap();
            let cfg = IntraConfig::paper().with_modeled_scale(modeled_n as f64 / actual_n as f64);
            let tasks = cfg.tasks_per_section;
            let mut rt = IntraRuntime::new(env, cfg);
            let mut ws = Workspace::new();
            let x = ws.add("x", vec![1.0; actual_n]);
            let partial = ws.add_zeros("partial", tasks);
            let cost = kernels::vecops::ddot_cost(modeled_n / tasks);
            let mut section = rt.section(&mut ws);
            for (t, chunk) in split_ranges(actual_n, tasks).into_iter().enumerate() {
                section
                    .add_task(
                        TaskDef::new(
                            "ddot",
                            |c| {
                                c.outputs[0][0] = c.inputs[0].iter().map(|v| v * v).sum::<f64>();
                            },
                            vec![ArgSpec::input(x, chunk), ArgSpec::output(partial, t..t + 1)],
                        )
                        .with_cost(TaskCost::new(cost.flops, cost.mem_bytes())),
                    )
                    .unwrap();
            }
            section.end().unwrap().total_time().as_secs()
        });
        let times = report.unwrap_results();
        times.iter().sum::<f64>() / times.len() as f64
    };

    let t_native = kernel_time(ExecutionMode::Native);
    let t_replicated = kernel_time(ExecutionMode::Replicated { degree: 2 });
    let t_intra = kernel_time(ExecutionMode::IntraParallel { degree: 2 });

    let eff_replicated = t_native / t_replicated;
    let eff_intra = t_native / t_intra;
    assert!(
        (eff_replicated - 0.5).abs() < 0.05,
        "plain replication must sit at the 50% wall, got {eff_replicated:.2}"
    );
    assert!(
        eff_intra > 0.9,
        "intra-parallelized ddot must get close to 100%, got {eff_intra:.2}"
    );
}

#[test]
fn kernel_costs_drive_task_weights_end_to_end() {
    // Cost descriptors flow from the kernels crate into the runtime and are
    // charged to the virtual clock.
    let cost = kernels::sparse::spmv_cost(1000, 27_000);
    let report = run_cluster(&ClusterConfig::new(1), move |proc| {
        let env = ReplicatedEnv::without_failures(proc.clone(), ExecutionMode::Native).unwrap();
        let mut rt = IntraRuntime::new(env, IntraConfig::paper());
        let mut ws = Workspace::new();
        let w = ws.add_zeros("w", 8);
        let before = proc.now();
        let mut section = rt.section(&mut ws);
        section
            .add_task(
                TaskDef::new(
                    "noop",
                    |c| c.outputs[0][0] = 1.0,
                    vec![ArgSpec::output(w, 0..8)],
                )
                .with_cost(TaskCost::new(cost.flops, cost.mem_bytes())),
            )
            .unwrap();
        let _ = section.end().unwrap();
        (proc.now() - before).as_secs()
    });
    let elapsed = report.unwrap_results()[0];
    // 27k nnz at a few GB/s of memory bandwidth: around 0.1 ms of virtual time.
    assert!(elapsed > 1e-5, "cost was not charged (elapsed {elapsed})");
}

#[test]
fn replicas_of_an_application_survive_injected_failures() {
    use apps::{run_minighost, MiniGhostParams};
    let run = Experiment::builder()
        .app(AppId::MiniGhost)
        .mode(Mode::IntraReplication)
        .logical_procs(2)
        .inject_failure(2, ProtocolPoint::IterationStart { iteration: 1 })
        .build()
        .unwrap()
        .run_with(|ctx| {
            let params = MiniGhostParams::small(5, 4);
            run_minighost(ctx, &params)
        })
        .unwrap();
    // Physical rank 2 crashed; the others finished with a finite checksum.
    assert!(run.results[2].is_err());
    assert_eq!(run.failure_events, 1);
    for rank in [0usize, 1, 3] {
        let out = run.results[rank].as_ref().unwrap();
        assert!(out.last_sum.is_finite());
    }
}

#[test]
fn experiment_facade_runs_every_mode_end_to_end() {
    // The same typed experiment, swept over the mode axis: native completes
    // on every rank, and both replicated modes complete on twice as many.
    for (mode, expected_procs) in [
        (Mode::NoReplication, 2),
        (Mode::Replication, 4),
        (Mode::IntraReplication, 4),
    ] {
        let experiment = Experiment::builder()
            .app(AppId::Hpccg)
            .scale(ExperimentScale::Tiny)
            .mode(mode)
            .build()
            .unwrap();
        assert_eq!(experiment.procs(), expected_procs, "{mode}");
        let report = experiment.run().unwrap();
        assert_eq!(report.procs, expected_procs, "{mode}");
        assert_eq!(report.completed(), expected_procs, "{mode}");
        assert_eq!(report.crashed() + report.errored(), 0, "{mode}");
        assert_eq!(report.failure_events, 0, "{mode}");
        assert!(report.makespan_s > 0.0, "{mode}");
        assert!(report.app_time_s() > 0.0, "{mode}");
        // Only the work-sharing mode receives peer task results.
        if mode == Mode::IntraReplication {
            assert!(report.tasks_received() > 0);
        } else {
            assert_eq!(report.tasks_received(), 0, "{mode}");
        }
    }
}

#[test]
fn experiment_runs_are_deterministic_and_seed_sensitive() {
    let experiment = |seed: u64| {
        Experiment::builder()
            .app(AppId::Gtc)
            .scale(ExperimentScale::Tiny)
            .mode(Mode::IntraReplication)
            .failures(FailurePlan::poisson(2.0))
            .seed(seed)
            .build()
            .unwrap()
    };
    let strip = |report: intra_replication::RunReport| {
        (
            report.makespan_s,
            report.ranks,
            report.failure_events,
            report.procs,
        )
    };
    let a = strip(experiment(43).run().unwrap());
    let b = strip(experiment(43).run().unwrap());
    assert_eq!(a, b, "same seed, same everything (modulo wall clock)");
    let c = strip(experiment(44).run().unwrap());
    assert_ne!(a, c, "the seed drives the failure trace");
}

#[test]
fn application_parameters_the_model_cannot_scale_are_a_typed_error_on_every_rank() {
    // A modeled grid smaller than the allocated one is reachable through the
    // public parameter fields; the run must report it, not panic.
    use apps::{run_hpccg, HpccgParams};
    let run = Experiment::builder()
        .app(AppId::Hpccg)
        .mode(Mode::IntraReplication)
        .logical_procs(2)
        .build()
        .unwrap()
        .run_with(|ctx| {
            let params = HpccgParams {
                modeled_nz: 2,
                ..HpccgParams::small(4, 2)
            };
            run_hpccg(ctx, &params)
        })
        .unwrap();
    assert_eq!(run.results.len(), 4);
    for result in &run.results {
        assert!(
            matches!(result, Err(Error::Intra(IntraError::InvalidConfig(_)))),
            "{result:?}"
        );
    }
}
