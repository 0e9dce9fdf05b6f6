//! Integration tests of the adaptive scheduling subsystem: measured-cost
//! recording, EMA convergence through real sections, warm-up behaviour of
//! the adaptive scheduler, and its interaction with replica failures.
//!
//! The workload is a heterogeneous section mixing flop-bound "push-like"
//! tasks with memory-bound "sparsemv-like" tasks.  The declared scheduling
//! weight (`max(flops, mem_bytes)`, a unit-mixing scalar) mis-ranks tasks
//! across the two roofline regimes, so LPT on declared weights
//! (`SchedulerKind::CostAware`) is measurably worse than LPT on learned
//! execution times (`SchedulerKind::Adaptive` after one warm-up iteration).

use ipr_core::prelude::*;
use replication::{ExecutionMode, FailureInjector, ProtocolPoint, ReplicatedEnv};
use simmpi::{run_cluster, ClusterConfig};

/// The heterogeneous task set: (name, flops, mem_bytes).  Mirrors
/// `ipr_bench::ablations::adaptive_task_set` (ipr-core cannot depend on the
/// bench crate).
///
/// On the Grid'5000 machine model (5 Gflop/s, 3.2 GB/s per core) the true
/// roofline times are 0.2, 0.28125, 0.1875, 0.1, 0.0625 and 0.04 s, while
/// the declared weights rank task `push-a` as the most expensive.  LPT on
/// declared weights yields a 0.509 s makespan; LPT on true times 0.444 s.
fn hetero_tasks() -> Vec<(&'static str, f64, f64)> {
    vec![
        ("push-a", 1.0e9, 1.0e6),
        ("spmv-b", 1.0e7, 9.0e8),
        ("spmv-c", 1.0e7, 6.0e8),
        ("push-d", 5.0e8, 1.0e6),
        ("spmv-e", 1.0e7, 2.0e8),
        ("push-f", 2.0e8, 1.0e6),
    ]
}

/// Per-process outcome of [`run_hetero`]: the per-iteration section times
/// plus the learned (cost-model key, predicted seconds) pairs.
type HeteroOutcome = Result<(Vec<f64>, Vec<(String, f64)>), String>;

/// Runs `reps` instances of the heterogeneous section on a 2-replica
/// logical process and returns, per physical process, the per-iteration
/// section times plus the learned cost-model predictions.
fn run_hetero(
    scheduler: &'static str,
    reps: usize,
    failure: Option<(usize, ProtocolPoint)>,
) -> Vec<HeteroOutcome> {
    let config = ClusterConfig::new(2);
    let report = run_cluster(&config, move |proc| {
        let injector = FailureInjector::none();
        if let Some((rank, point)) = failure {
            injector.arm(rank, point);
        }
        let env =
            ReplicatedEnv::new(proc, ExecutionMode::IntraParallel { degree: 2 }, injector).unwrap();
        let intra = IntraConfig::paper().with_scheduler_kind(scheduler.parse().unwrap());
        let mut rt = IntraRuntime::new(env, intra);
        let mut ws = Workspace::new();
        let tasks = hetero_tasks();
        let out = ws.add_zeros("out", tasks.len());
        let mut times = Vec::with_capacity(reps);
        for _ in 0..reps {
            let mut section = rt.section(&mut ws);
            for (t, (name, flops, mem)) in tasks.iter().enumerate() {
                section
                    .add_task(
                        TaskDef::new(
                            name,
                            |c| c.outputs[0][0] += 1.0,
                            vec![ArgSpec::inout(out, t..t + 1)],
                        )
                        .with_cost(TaskCost::new(*flops, *mem)),
                    )
                    .unwrap();
            }
            match section.end() {
                Ok(report) => times.push(report.total_time().as_secs()),
                Err(e) => return Err(format!("{e}")),
            }
        }
        let learned: Vec<(String, f64)> = tasks
            .iter()
            .map(|(name, _, _)| {
                // Every name occurs once per section, so its history is
                // that of the first instance of the name.
                (
                    name.to_string(),
                    rt.cost_model().predict(name, 0).unwrap_or(f64::NAN),
                )
            })
            .collect();
        Ok((times, learned))
    });
    report
        .results
        .into_iter()
        .map(|r| r.expect("no process panicked"))
        .collect()
}

/// Per-iteration makespan: max over the replicas of the section time.
fn makespans(results: &[HeteroOutcome]) -> Vec<f64> {
    let ok: Vec<&Vec<f64>> = results
        .iter()
        .map(|r| &r.as_ref().expect("replica failed").0)
        .collect();
    let reps = ok[0].len();
    (0..reps)
        .map(|i| ok.iter().map(|t| t[i]).fold(0.0f64, f64::max))
        .collect()
}

#[test]
fn adaptive_converges_after_one_warmup_iteration() {
    let adaptive = makespans(&run_hetero("adaptive", 5, None));
    let cost_aware = makespans(&run_hetero("cost-aware", 5, None));
    // Iteration 0: no history yet, adaptive falls back to declared weights
    // and must match cost-aware exactly.
    assert!(
        (adaptive[0] - cost_aware[0]).abs() < 1e-9,
        "warm-up iteration differs: {} vs {}",
        adaptive[0],
        cost_aware[0]
    );
    // From iteration 1 on, the learned times drive the assignment: the
    // acceptance criterion is "matching or beating cost-aware after <= 3
    // warm-up iterations"; this workload needs exactly one.
    for i in 1..adaptive.len() {
        assert!(
            adaptive[i] <= cost_aware[i] + 1e-9,
            "iteration {i}: adaptive {} > cost-aware {}",
            adaptive[i],
            cost_aware[i]
        );
    }
    // And the win is real, not a tie: ~13 % on this workload.
    assert!(
        adaptive[4] < 0.95 * cost_aware[4],
        "expected a real improvement: adaptive {} vs cost-aware {}",
        adaptive[4],
        cost_aware[4]
    );
}

#[test]
fn cost_model_learns_true_roofline_times() {
    let results = run_hetero("adaptive", 4, None);
    for r in &results {
        let (_, learned) = r.as_ref().expect("replica failed");
        for (name, predicted) in learned {
            let (_, flops, mem) = *hetero_tasks()
                .iter()
                .find(|(n, _, _)| n == name)
                .expect("known task");
            // True roofline time on the default Grid'5000 model (plus the
            // fixed 0.5 us per-region overhead).
            let truth = (flops / 5.0e9).max(mem / 3.2e9) + 0.5e-6;
            assert!(
                (predicted - truth).abs() < 1e-9,
                "{name}: learned {predicted}, true {truth}"
            );
        }
    }
}

#[test]
fn task_cost_samples_are_recorded_and_replica_identical() {
    let config = ClusterConfig::new(2);
    let report = run_cluster(&config, |proc| {
        let env = ReplicatedEnv::without_failures(proc, ExecutionMode::IntraParallel { degree: 2 })
            .unwrap();
        let mut rt = IntraRuntime::new(
            env.clone(),
            IntraConfig::paper().with_scheduler_kind(SchedulerKind::CostAware),
        );
        let mut ws = Workspace::new();
        let tasks = hetero_tasks();
        let out = ws.add_zeros("out", tasks.len());
        let mut section = rt.section(&mut ws);
        for (t, (name, flops, mem)) in tasks.iter().enumerate() {
            section
                .add_task(
                    TaskDef::new(
                        name,
                        |c| c.outputs[0][0] = 1.0,
                        vec![ArgSpec::output(out, t..t + 1)],
                    )
                    .with_cost(TaskCost::new(*flops, *mem)),
                )
                .unwrap();
        }
        let sr = section.end().unwrap();
        (sr, env.replica_id())
    });
    let results = report.unwrap_results();
    let (ref sr0, _) = results[0];
    for (sr, replica) in &results {
        assert_eq!(sr.task_costs.len(), hetero_tasks().len());
        for sample in &sr.task_costs {
            assert!(sample.observed_seconds > 0.0);
            assert_eq!(sample.executed_locally, sample.executed_by == *replica);
        }
        let local = sr.task_costs.iter().filter(|s| s.executed_locally).count();
        assert_eq!(local, sr.tasks_executed_locally);
        // The cost stream is bit-identical across replicas (the
        // determinism contract of the adaptive subsystem): only the
        // locality flag differs.
        for (a, b) in sr.task_costs.iter().zip(&sr0.task_costs) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.occurrence, b.occurrence);
            assert_eq!(a.declared_weight, b.declared_weight);
            assert_eq!(a.observed_seconds, b.observed_seconds);
            assert_eq!(a.executed_by, b.executed_by);
        }
        assert!(sr.task_costs.iter().any(|t| t.observed_seconds > 0.0));
    }
}

#[test]
fn adaptive_sections_survive_replica_crash() {
    // Crash replica 1 after it sent the update of its first task in the
    // second section: replica 0 must adopt the rest and finish every
    // iteration with the correct result.
    let results = run_hetero(
        "adaptive",
        4,
        Some((
            1,
            ProtocolPoint::AfterUpdateSend {
                section: 1,
                task: 0,
            },
        )),
    );
    let survivors: Vec<_> = results.iter().filter(|r| r.is_ok()).collect();
    assert_eq!(survivors.len(), 1, "exactly replica 0 survives");
    let (times, _) = survivors[0].as_ref().unwrap();
    assert_eq!(times.len(), 4, "all iterations completed");
}

#[test]
fn same_named_chunks_learn_independent_histories() {
    // Real sections launch many tasks under one name (HPCCG's sparsemv is
    // eight identically named chunks).  The cost model keys histories by
    // name *and* occurrence index, so heterogeneous same-named chunks must
    // still be differentiated: with a merged history, all-equal weights
    // would tie-break LPT into a 0.381 s split; per-instance histories
    // reach the 0.321 s LPT-on-true-times split.
    let chunks: Vec<(f64, f64)> = vec![
        (1.0e7, 9.0e8), // mem-bound, true 0.28125 s
        (1.0e9, 1.0e6), // flop-bound, true 0.2 s
        (5.0e8, 1.0e6), // flop-bound, true 0.1 s
        (2.0e8, 1.0e6), // flop-bound, true 0.04 s
    ];
    let reps = 4usize;
    let chunks2 = chunks.clone();
    let report = run_cluster(&ClusterConfig::new(2), move |proc| {
        let env = ReplicatedEnv::without_failures(proc, ExecutionMode::IntraParallel { degree: 2 })
            .unwrap();
        let intra = IntraConfig::paper().with_scheduler_kind(SchedulerKind::Adaptive);
        let mut rt = IntraRuntime::new(env, intra);
        let mut ws = Workspace::new();
        let out = ws.add_zeros("out", chunks2.len());
        let mut times = Vec::with_capacity(reps);
        for _ in 0..reps {
            let mut section = rt.section(&mut ws);
            for (t, (flops, mem)) in chunks2.iter().enumerate() {
                section
                    .add_task(
                        TaskDef::new(
                            "chunk",
                            |c| c.outputs[0][0] += 1.0,
                            vec![ArgSpec::inout(out, t..t + 1)],
                        )
                        .with_cost(TaskCost::new(*flops, *mem)),
                    )
                    .unwrap();
            }
            times.push(section.end().unwrap().total_time().as_secs());
        }
        let keys: Vec<Option<f64>> = (0..chunks2.len())
            .map(|k| rt.cost_model().predict("chunk", k as u32))
            .collect();
        (times, keys)
    });
    let results = report.unwrap_results();
    for (times, learned) in &results {
        // One independent history per chunk, each with its true time.
        let truths = [0.28125, 0.2, 0.1, 0.04];
        for (k, l) in learned.iter().enumerate() {
            let l = l.expect("chunk has history");
            assert!((l - truths[k]).abs() < 1e-6, "chunk#{k}: {l}");
        }
        // Warm-up split (declared weights) is 0.381 s; the per-instance
        // histories must reach the LPT-on-true-times split of 0.321 s.
        assert!(times[0] > 0.37, "warm-up iteration: {}", times[0]);
        let last = times[reps - 1];
        assert!(last < 0.33, "converged iteration: {last}");
    }
}

#[test]
fn locality_scheduler_runs_sections_correctly() {
    let results = run_hetero("locality", 3, None);
    for r in &results {
        let (times, _) = r.as_ref().expect("replica failed");
        assert_eq!(times.len(), 3);
        assert!(times.iter().all(|t| *t > 0.0));
    }
}
