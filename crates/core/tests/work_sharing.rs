//! Integration tests of the work-sharing protocol in failure-free runs.

use ipr_core::prelude::*;
use replication::{ExecutionMode, ReplicatedEnv};
use simmpi::{run_cluster, ClusterConfig};

/// Helper: builds the runtime for a process in the given mode.
fn make_rt(proc: simmpi::ProcHandle, mode: ExecutionMode, config: IntraConfig) -> IntraRuntime {
    let env = ReplicatedEnv::without_failures(proc, mode).unwrap();
    IntraRuntime::new(env, config)
}

/// A waxpby-style section: w = alpha*x + beta*y, split into tasks.
#[allow(clippy::too_many_arguments)]
fn waxpby_section(
    rt: &mut IntraRuntime,
    ws: &mut Workspace,
    x: VarId,
    y: VarId,
    w: VarId,
    alpha: f64,
    beta: f64,
    n: usize,
) -> SectionReport {
    let mut section = rt.section(ws);
    section
        .add_split(n, |chunk| {
            TaskDef::new(
                "waxpby",
                |ctx| {
                    let alpha = ctx.scalars[0];
                    let beta = ctx.scalars[1];
                    let x = &ctx.inputs[0];
                    let y = &ctx.inputs[1];
                    let w = &mut ctx.outputs[0];
                    for i in 0..w.len() {
                        w[i] = alpha * x[i] + beta * y[i];
                    }
                },
                vec![
                    ArgSpec::input(x, chunk.clone()),
                    ArgSpec::input(y, chunk.clone()),
                    ArgSpec::output(w, chunk),
                ],
            )
            .with_scalars(vec![alpha, beta])
        })
        .unwrap();
    section.end().unwrap()
}

#[test]
fn two_replicas_share_work_and_stay_consistent() {
    let n = 1000;
    let report = run_cluster(&ClusterConfig::ideal(2), move |proc| {
        let mut rt = make_rt(
            proc,
            ExecutionMode::IntraParallel { degree: 2 },
            IntraConfig::paper(),
        );
        let mut ws = Workspace::new();
        let x = ws.add("x", (0..n).map(|i| i as f64).collect());
        let y = ws.add("y", (0..n).map(|i| (i as f64) * 0.5).collect());
        let w = ws.add_zeros("w", n);
        let sec = waxpby_section(&mut rt, &mut ws, x, y, w, 2.0, -1.0, n);
        (ws.get(w).to_vec(), sec, ws.fingerprint())
    });
    let results = report.unwrap_results();
    let expected: Vec<f64> = (0..n).map(|i| 2.0 * i as f64 - 0.5 * i as f64).collect();
    let (w0, sec0, fp0) = &results[0];
    let (w1, sec1, fp1) = &results[1];
    assert_eq!(w0, &expected);
    assert_eq!(w1, &expected);
    assert_eq!(fp0, fp1, "replicas must hold identical workspaces");
    // 8 tasks, degree 2: each replica executed 4 and received 4.
    assert_eq!(sec0.num_tasks, 8);
    assert_eq!(sec0.tasks_executed_locally, 4);
    assert_eq!(sec0.tasks_received, 4);
    assert_eq!(sec1.tasks_executed_locally, 4);
    assert_eq!(sec0.tasks_reexecuted, 0);
    assert!(sec0.update_bytes_sent > 0);
    assert!(sec0.update_bytes_received > 0);
}

#[test]
fn ddot_style_reduction_shares_partial_sums() {
    // Each task writes one partial sum; the global sum is computed outside
    // the section (as in the paper, the MPI reduction stays outside).
    let n = 512;
    let report = run_cluster(&ClusterConfig::ideal(2), move |proc| {
        let mut rt = make_rt(
            proc,
            ExecutionMode::IntraParallel { degree: 2 },
            IntraConfig::paper(),
        );
        let mut ws = Workspace::new();
        let x = ws.add("x", (0..n).map(|i| (i % 10) as f64).collect());
        let partial = ws.add_zeros("partial", 8);
        let mut section = rt.section(&mut ws);
        let chunks = split_ranges(n, 8);
        for (t, chunk) in chunks.into_iter().enumerate() {
            section
                .add_task(TaskDef::new(
                    "ddot",
                    |ctx| {
                        let x = &ctx.inputs[0];
                        ctx.outputs[0][0] = x.iter().map(|v| v * v).sum();
                    },
                    vec![ArgSpec::input(x, chunk), ArgSpec::output(partial, t..t + 1)],
                ))
                .unwrap();
        }
        let sec = section.end().unwrap();
        let local_sum: f64 = ws.get(partial).iter().sum();
        (local_sum, sec.update_bytes_sent)
    });
    let results = report.unwrap_results();
    let expected: f64 = (0..n).map(|i| ((i % 10) as f64).powi(2)).sum();
    assert_eq!(results[0].0, expected);
    assert_eq!(results[1].0, expected);
    // Each replica ships only 4 scalars (32 modeled bytes).
    assert_eq!(results[0].1, 32);
}

#[test]
fn inout_arguments_round_trip() {
    // Task increments its inout range in place; both replicas must converge
    // on the incremented vector.
    let n = 64;
    let report = run_cluster(&ClusterConfig::ideal(2), move |proc| {
        let mut rt = make_rt(
            proc,
            ExecutionMode::IntraParallel { degree: 2 },
            IntraConfig::paper(),
        );
        let mut ws = Workspace::new();
        let v = ws.add("v", (0..n).map(|i| i as f64).collect());
        let mut section = rt.section(&mut ws);
        section
            .add_split(n, |chunk| {
                TaskDef::new(
                    "increment",
                    |ctx| {
                        for slot in ctx.outputs[0].iter_mut() {
                            *slot += 100.0;
                        }
                    },
                    vec![ArgSpec::inout(v, chunk)],
                )
            })
            .unwrap();
        let sec = section.end().unwrap();
        (ws.get(v).to_vec(), sec.inout_snapshot_bytes)
    });
    let results = report.unwrap_results();
    let expected: Vec<f64> = (0..n).map(|i| i as f64 + 100.0).collect();
    assert_eq!(results[0].0, expected);
    assert_eq!(results[1].0, expected);
    // The whole vector was snapshotted (it is inout).
    assert_eq!(results[0].1, n * 8);
}

#[test]
fn native_and_replicated_modes_execute_everything_locally() {
    for (mode, procs) in [
        (ExecutionMode::Native, 1usize),
        (ExecutionMode::Replicated { degree: 2 }, 2usize),
    ] {
        let n = 128;
        let report = run_cluster(&ClusterConfig::ideal(procs), move |proc| {
            let mut rt = make_rt(proc, mode, IntraConfig::paper());
            let mut ws = Workspace::new();
            let x = ws.add("x", vec![1.0; n]);
            let y = ws.add("y", vec![2.0; n]);
            let w = ws.add_zeros("w", n);
            let sec = waxpby_section(&mut rt, &mut ws, x, y, w, 3.0, 1.0, n);
            (ws.get(w)[0], sec)
        });
        for (value, sec) in report.unwrap_results() {
            assert_eq!(value, 5.0);
            assert_eq!(sec.tasks_executed_locally, sec.num_tasks);
            assert_eq!(sec.tasks_received, 0);
            assert_eq!(
                sec.update_bytes_sent, 0,
                "mode {mode:?} must not ship updates"
            );
        }
    }
}

#[test]
fn multiple_sections_reuse_the_runtime() {
    let n = 100;
    let report = run_cluster(&ClusterConfig::ideal(2), move |proc| {
        let mut rt = make_rt(
            proc,
            ExecutionMode::IntraParallel { degree: 2 },
            IntraConfig::paper(),
        );
        let mut ws = Workspace::new();
        let x = ws.add("x", vec![1.0; n]);
        let y = ws.add("y", vec![1.0; n]);
        let w = ws.add_zeros("w", n);
        for iteration in 0..5 {
            let alpha = iteration as f64 + 1.0;
            let _ = waxpby_section(&mut rt, &mut ws, x, y, w, alpha, 0.0, n);
            // Feed the output back into x for the next iteration.
            let w_now = ws.get(w).to_vec();
            ws.get_mut(x).copy_from_slice(&w_now);
        }
        (ws.get(x)[0], rt.sections_executed(), rt.totals().count)
    });
    for (value, sections, recorded) in report.unwrap_results() {
        // x = 1 * 1 * 2 * 3 * 4 * 5 = 120
        assert_eq!(value, 120.0);
        assert_eq!(sections, 5);
        assert_eq!(recorded, 5);
    }
}

#[test]
fn three_replicas_share_work() {
    let n = 90;
    let report = run_cluster(&ClusterConfig::ideal(3), move |proc| {
        let mut rt = make_rt(
            proc,
            ExecutionMode::IntraParallel { degree: 3 },
            IntraConfig::paper().with_tasks_per_section(9),
        );
        let mut ws = Workspace::new();
        let x = ws.add("x", (0..n).map(|i| i as f64).collect());
        let w = ws.add_zeros("w", n);
        let mut section = rt.section(&mut ws);
        section
            .add_split(n, |chunk| {
                TaskDef::new(
                    "triple",
                    |ctx| {
                        for i in 0..ctx.outputs[0].len() {
                            ctx.outputs[0][i] = 3.0 * ctx.inputs[0][i];
                        }
                    },
                    vec![ArgSpec::input(x, chunk.clone()), ArgSpec::output(w, chunk)],
                )
            })
            .unwrap();
        let sec = section.end().unwrap();
        (ws.get(w).to_vec(), sec.tasks_executed_locally)
    });
    let results = report.unwrap_results();
    let expected: Vec<f64> = (0..n).map(|i| 3.0 * i as f64).collect();
    for (w, local) in &results {
        assert_eq!(w, &expected);
        assert_eq!(*local, 3, "9 tasks over 3 replicas");
    }
}

#[test]
fn schedulers_produce_identical_results() {
    let n = 200;
    for scheduler in [
        SchedulerKind::StaticBlock,
        SchedulerKind::RoundRobin,
        SchedulerKind::CostAware,
    ] {
        let config = IntraConfig::paper().with_scheduler_kind(scheduler);
        let report = run_cluster(&ClusterConfig::ideal(2), move |proc| {
            let mut rt = make_rt(
                proc,
                ExecutionMode::IntraParallel { degree: 2 },
                config.clone(),
            );
            let mut ws = Workspace::new();
            let x = ws.add("x", (0..n).map(|i| i as f64).collect());
            let y = ws.add("y", vec![1.0; n]);
            let w = ws.add_zeros("w", n);
            let _ = waxpby_section(&mut rt, &mut ws, x, y, w, 1.0, 2.0, n);
            ws.get(w).to_vec()
        });
        let results = report.unwrap_results();
        let expected: Vec<f64> = (0..n).map(|i| i as f64 + 2.0).collect();
        assert_eq!(results[0], expected);
        assert_eq!(results[1], expected);
    }
}

#[test]
fn paper_api_reproduces_the_figure_4_waxpby() {
    // The intra-parallelized waxpby of Figure 4, written through the
    // paper-style register/launch shim.
    let n = 80;
    let ntasks = 8;
    let report = run_cluster(&ClusterConfig::ideal(2), move |proc| {
        let mut rt = make_rt(
            proc,
            ExecutionMode::IntraParallel { degree: 2 },
            IntraConfig::paper(),
        );
        let mut ws = Workspace::new();
        let x = ws.add("x", (0..n).map(|i| i as f64).collect());
        let y = ws.add("y", (0..n).map(|i| (n - i) as f64).collect());
        let w = ws.add_zeros("w", n);

        // WAXPBY(n, alpha, x, beta, y, w) from Figure 4, through the typed
        // handle API: the three-argument arity is part of the handle's type.
        let mut session = IntraSession::begin(rt.section(&mut ws));
        let task = session.register(
            "task_function",
            [ArgTag::In, ArgTag::In, ArgTag::Out],
            |ctx| {
                let tsize = ctx.scalar_usize(0);
                let alpha = ctx.scalars[1];
                let beta = ctx.scalars[2];
                for i in 0..tsize {
                    ctx.outputs[0][i] = alpha * ctx.inputs[0][i] + beta * ctx.inputs[1][i];
                }
            },
        );
        let tsize = n / ntasks;
        for i in 0..ntasks {
            let lo = i * tsize;
            let hi = lo + tsize;
            session
                .launch(
                    task,
                    [(x, lo..hi), (y, lo..hi), (w, lo..hi)],
                    vec![tsize as f64, 2.0, 1.0],
                    (),
                )
                .unwrap();
        }
        let _ = session.end().unwrap();
        ws.get(w).to_vec()
    });
    let results = report.unwrap_results();
    let expected: Vec<f64> = (0..n).map(|i| 2.0 * i as f64 + (n - i) as f64).collect();
    assert_eq!(results[0], expected);
    assert_eq!(results[1], expected);
}

#[test]
fn update_drain_time_is_visible_with_a_realistic_network() {
    // With a realistic network model and a waxpby-sized update, the section
    // report must attribute some time to draining updates.
    let n = 4096;
    let config = ClusterConfig::new(2)
        .with_machine(simcluster::MachineModel::ideal_compute_ib20g())
        .with_topology(simcluster::Topology::one_per_node(2));
    let report = run_cluster(&config, move |proc| {
        let mut rt = make_rt(
            proc,
            ExecutionMode::IntraParallel { degree: 2 },
            IntraConfig::paper(),
        );
        let mut ws = Workspace::new();
        let x = ws.add("x", vec![1.0; n]);
        let y = ws.add("y", vec![1.0; n]);
        let w = ws.add_zeros("w", n);
        let sec = waxpby_section(&mut rt, &mut ws, x, y, w, 1.0, 1.0, n);
        (
            sec.update_drain_time().as_secs(),
            sec.total_time().as_secs(),
        )
    });
    for (drain, total) in report.unwrap_results() {
        assert!(drain > 0.0, "update drain time must be positive");
        assert!(total >= drain);
    }
}

#[test]
fn task_resizing_output_is_rejected() {
    let report = run_cluster(&ClusterConfig::ideal(2), |proc| {
        let mut rt = make_rt(
            proc,
            ExecutionMode::IntraParallel { degree: 2 },
            IntraConfig::paper(),
        );
        let mut ws = Workspace::new();
        let w = ws.add_zeros("w", 8);
        let mut section = rt.section(&mut ws);
        section
            .add_task(TaskDef::new(
                "bad",
                |ctx| {
                    ctx.outputs[0].push(1.0);
                },
                vec![ArgSpec::output(w, 0..8)],
            ))
            .unwrap();
        section.end().is_err()
    });
    assert!(report.unwrap_results().into_iter().all(|x| x));
}

#[test]
fn invalid_ranges_are_rejected_at_launch() {
    let report = run_cluster(&ClusterConfig::ideal(1), |proc| {
        let mut rt = make_rt(proc, ExecutionMode::Native, IntraConfig::paper());
        let mut ws = Workspace::new();
        let x = ws.add("x", vec![0.0; 4]);
        let mut section = rt.section(&mut ws);
        let err = section.add_task(TaskDef::new("oob", |_| {}, vec![ArgSpec::input(x, 0..5)]));
        err.is_err()
    });
    assert!(report.unwrap_results()[0]);
}

/// The runtime refills one `TaskCtx` for every task it runs.  Whatever a
/// body does to the buffers it was lent — empty an input with `mem::take`,
/// scribble over one, grow the scalar list — stays with that task: the
/// workspace keeps its inputs, and the next task (here with fewer and
/// shorter arguments, so every buffer is a reused one) finds exactly its own
/// arguments.  An output that comes back shorter than it was handed out is
/// still the `InvalidTask` error it always was.
#[test]
fn reused_task_context_leaks_nothing_between_tasks() {
    let report = run_cluster(&ClusterConfig::ideal(1), |proc| {
        let mut rt = make_rt(proc, ExecutionMode::Native, IntraConfig::paper());
        let mut ws = Workspace::new();
        let x = ws.add("x", vec![1.0, 2.0, 3.0, 4.0]);
        let y = ws.add("y", vec![5.0, 6.0]);
        let w = ws.add_zeros("w", 6);

        let mut section = rt.section(&mut ws);
        section
            .add_task(
                TaskDef::new(
                    "greedy",
                    |c| {
                        let mut stolen = std::mem::take(&mut c.inputs[0]);
                        c.outputs[0].copy_from_slice(&stolen);
                        stolen[0] = -1.0;
                        c.inputs[1][0] = -1.0;
                        c.scalars.push(99.0);
                    },
                    vec![
                        ArgSpec::input(x, 0..4),
                        ArgSpec::input(y, 0..2),
                        ArgSpec::output(w, 0..4),
                    ],
                )
                .with_scalars(vec![7.0]),
            )
            .unwrap();
        section
            .add_task(TaskDef::new(
                "frugal",
                |c| {
                    assert_eq!(c.inputs, vec![vec![5.0, 6.0]]);
                    assert_eq!(c.outputs, vec![vec![0.0, 0.0]]);
                    assert!(c.scalars.is_empty());
                    let (inputs, outputs) = (&c.inputs, &mut c.outputs);
                    outputs[0].copy_from_slice(&inputs[0]);
                },
                vec![ArgSpec::input(y, 0..2), ArgSpec::output(w, 4..6)],
            ))
            .unwrap();
        let _ = section.end().unwrap();
        assert_eq!(ws.get(x), [1.0, 2.0, 3.0, 4.0]);
        assert_eq!(ws.get(y), [5.0, 6.0]);
        assert_eq!(ws.get(w), [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);

        let mut section = rt.section(&mut ws);
        section
            .add_task(TaskDef::new(
                "shrinks",
                |c| c.outputs[0].truncate(1),
                vec![ArgSpec::output(w, 0..4)],
            ))
            .unwrap();
        section.end().unwrap_err()
    });
    let err = report.unwrap_results().pop().unwrap();
    assert!(matches!(err, IntraError::InvalidTask(_)), "{err}");
}
