//! Ablation studies for the design choices called out in
//! `docs/ARCHITECTURE.md`.
//!
//! * **Task granularity** (`ABL-GRAN`) — the paper uses 8 tasks per section
//!   (4 per replica) and argues that fewer tasks reduce transfer/compute
//!   overlap while more tasks add synchronization overhead.  The sweep
//!   reproduces that U-shape on the sparsemv kernel.
//! * **Replica-link bandwidth** (`ABL-NET`) — how the kernel efficiencies of
//!   Figure 5a move when the inter-node bandwidth changes (waxpby is
//!   bandwidth-bound, ddot is not).
//! * **Scheduler** (`ABL-SCHED`) — static block vs round-robin vs cost-aware
//!   scheduling on a section with heterogeneous task costs.
//! * **Adaptive scheduling** (`ABL-ADAPT`) — all five schedulers on a
//!   heterogeneous HPCCG/GTC-like section repeated over iterations, showing
//!   the warm-up convergence of the history-driven `adaptive` scheduler (it
//!   must match `cost-aware` on the first instance and match-or-beat it
//!   afterwards).
//!
//! Every study is driven through the facade's [`Experiment`] builder
//! (custom bodies via [`Experiment::run_with`], typed [`SchedulerKind`]
//! axes); the bandwidth sweep is the Figure 5a generator on a perturbed
//! machine model.

use crate::fig5a;
use crate::scale::ExperimentScale;
use apps::sections::KernelSpec;
use apps::AppId;
use intra_replication::Experiment;
use ipr_core::{ArgSpec, SchedulerKind, TaskCost, TaskDef, Workspace};
use kernels::sparse::CsrMatrix;
use replication::ExecutionMode;
use std::sync::Arc;

/// One row of the task-granularity sweep.
#[derive(Debug, Clone)]
pub struct GranularityRow {
    /// Tasks per section.
    pub tasks_per_section: usize,
    /// Average per-process section time (virtual seconds).
    pub time_s: f64,
    /// Efficiency relative to the native (non-replicated) kernel time.
    pub efficiency: f64,
}

/// Sweeps the number of tasks per section for the sparsemv kernel.
pub fn granularity(scale: ExperimentScale, task_counts: &[usize]) -> Vec<GranularityRow> {
    let procs = match scale {
        ExperimentScale::Full => 64,
        ExperimentScale::Small => 8,
        ExperimentScale::Tiny => 4,
    };
    let edge = scale.actual_grid_edge();
    let reps = scale.kernel_reps();

    let time_for = |tasks: usize, mode: ExecutionMode| -> f64 {
        let degree = mode.degree();
        let (ax, ay, az) = (edge, edge, edge * degree);
        let actual_n = ax * ay * az;
        let modeled_n = 128 * 128 * 128 * degree;
        let run = Experiment::builder()
            .app(AppId::Hpccg) // sparsemv is HPCCG's dominant kernel
            .scale(scale)
            .execution_mode(mode)
            .logical_procs(procs / degree)
            .tasks_per_section(tasks)
            .modeled_scale(modeled_n as f64 / actual_n as f64)
            .build()
            .expect("ablation experiments are valid")
            .run_with(move |ctx| {
                let mut ws = Workspace::new();
                let x = ws.add("x", vec![1.0; actual_n]);
                let w = ws.add_zeros("w", actual_n);
                let matrix = Arc::new(CsrMatrix::stencil27(ax, ay, az, false, false));
                let sparsemv = KernelSpec {
                    name: "sparsemv",
                    intra: true,
                    n: actual_n,
                    modeled_n,
                };
                for _ in 0..reps {
                    sparsemv.spmv(ctx, &mut ws, &matrix, x, w)?;
                }
                Ok(ctx.rt.report().view().total_section_time().as_secs() / reps as f64)
            })
            .expect("ablation experiments execute");
        let results = run.unwrap_results();
        results.iter().sum::<f64>() / results.len() as f64
    };

    let t_native = time_for(8, ExecutionMode::Native);
    task_counts
        .iter()
        .map(|&tasks| {
            let t = time_for(tasks, ExecutionMode::IntraParallel { degree: 2 });
            GranularityRow {
                tasks_per_section: tasks,
                time_s: t,
                efficiency: t_native / t,
            }
        })
        .collect()
}

/// One row of the bandwidth-sensitivity sweep.
#[derive(Debug, Clone)]
pub struct BandwidthRow {
    /// Inter-node bandwidth in GB/s.
    pub bandwidth_gbs: f64,
    /// Kernel name.
    pub kernel: &'static str,
    /// Intra-parallelization efficiency at that bandwidth.
    pub efficiency: f64,
}

/// Sweeps the inter-node bandwidth and reports the intra efficiency of the
/// three kernels of Figure 5a.
pub fn bandwidth(scale: ExperimentScale, bandwidths_gbs: &[f64]) -> Vec<BandwidthRow> {
    let mut rows = Vec::new();
    for &bw in bandwidths_gbs {
        let mut machine = simcluster::MachineModel::grid5000_ib20g();
        machine.inter_node = machine.inter_node.with_bandwidth(bw * 1e9);
        let kernel_rows = fig5a::run_with_machine(scale, machine);
        for kr in kernel_rows.into_iter().filter(|r| r.mode == "intra") {
            rows.push(BandwidthRow {
                bandwidth_gbs: bw,
                kernel: kr.kernel,
                efficiency: kr.efficiency,
            });
        }
    }
    rows
}

/// One row of the scheduler comparison.
#[derive(Debug, Clone)]
pub struct SchedulerRow {
    /// Scheduler name.
    pub scheduler: &'static str,
    /// Average per-process section time (virtual seconds).
    pub time_s: f64,
}

/// Compares the classic schedulers on a section whose tasks have strongly
/// heterogeneous costs (a geometric distribution of work).
pub fn scheduler(scale: ExperimentScale) -> Vec<SchedulerRow> {
    let reps = scale.kernel_reps();
    let mut rows = Vec::new();
    for kind in [
        SchedulerKind::StaticBlock,
        SchedulerKind::RoundRobin,
        SchedulerKind::CostAware,
    ] {
        let run = Experiment::builder()
            .app(AppId::Hpccg) // nominal: the section is synthetic
            .scale(scale)
            .execution_mode(ExecutionMode::IntraParallel { degree: 2 })
            .logical_procs(1)
            .scheduler(kind)
            .tasks_per_section(12)
            .build()
            .expect("ablation experiments are valid")
            .run_with(move |ctx| {
                let mut ws = Workspace::new();
                let out = ws.add_zeros("out", 12);
                for _ in 0..reps {
                    let mut section = ctx.rt.section(&mut ws);
                    for t in 0..12usize {
                        // Task t models 2^(t/3) units of work: heterogeneous.
                        let weight = (1 << (t / 3)) as f64;
                        section.add_task(
                            TaskDef::new(
                                "hetero",
                                |c| {
                                    c.outputs[0][0] = 1.0;
                                },
                                vec![ArgSpec::output(out, t..t + 1)],
                            )
                            .with_cost(TaskCost::new(weight * 1e8, weight * 1e8)),
                        )?;
                    }
                    let _ = section.end()?;
                }
                Ok(ctx.rt.report().view().total_section_time().as_secs() / reps as f64)
            })
            .expect("ablation experiments execute");
        let results = run.unwrap_results();
        rows.push(SchedulerRow {
            scheduler: kind.name(),
            time_s: results.iter().sum::<f64>() / results.len() as f64,
        });
    }
    rows
}

/// One row of the `ABL-ADAPT` adaptive-scheduling ablation.
#[derive(Debug, Clone)]
pub struct AdaptiveRow {
    /// Scheduler name (one per built-in scheduler).
    pub scheduler: &'static str,
    /// Section instance index (iteration of the same section).
    pub iteration: usize,
    /// Makespan of that instance: max over the replicas of the section time
    /// (virtual seconds).
    pub makespan_s: f64,
}

/// The heterogeneous HPCCG/GTC-like task set of `ABL-ADAPT`:
/// `(name, flops, mem_bytes)` per task.
///
/// Half the tasks are flop-bound ("push", GTC's particle push at a
/// realistic flops-per-particle) and half memory-bound ("sparsemv", HPCCG's
/// dominant kernel).  The declared scheduling weight,
/// `max(flops, mem_bytes)`, mixes units and mis-ranks tasks across the two
/// roofline regimes — `push-a` declares the largest weight but `spmv-b`
/// takes the most time — which is exactly the situation where scheduling
/// from measured durations pays off.
pub fn adaptive_task_set() -> Vec<(&'static str, f64, f64)> {
    vec![
        ("push-a", 1.0e9, 1.0e6),
        ("spmv-b", 1.0e7, 9.0e8),
        ("spmv-c", 1.0e7, 6.0e8),
        ("push-d", 5.0e8, 1.0e6),
        ("spmv-e", 1.0e7, 2.0e8),
        ("push-f", 2.0e8, 1.0e6),
    ]
}

/// Runs the `ABL-ADAPT` ablation: every built-in scheduler on `iters`
/// instances of the heterogeneous section, one row per (scheduler,
/// iteration).
///
/// Expected shape: `adaptive` equals `cost-aware` on iteration 0 (no
/// history yet) and matches-or-beats every declared-weight scheduler from
/// iteration 1 on (a single warm-up instance fills the cost model).
pub fn adaptive(scale: ExperimentScale) -> Vec<AdaptiveRow> {
    let iters = match scale {
        ExperimentScale::Full => 8,
        ExperimentScale::Small => 5,
        ExperimentScale::Tiny => 3,
    };
    let mut rows = Vec::new();
    for kind in SchedulerKind::ALL {
        let run = Experiment::builder()
            .app(AppId::Hpccg) // nominal: the section is synthetic
            .scale(scale)
            .execution_mode(ExecutionMode::IntraParallel { degree: 2 })
            .logical_procs(1)
            .scheduler(kind)
            .build()
            .expect("ablation experiments are valid")
            .run_with(move |ctx| {
                let mut ws = Workspace::new();
                let tasks = adaptive_task_set();
                let out = ws.add_zeros("out", tasks.len());
                for _ in 0..iters {
                    let mut section = ctx.rt.section(&mut ws);
                    for (t, (task_name, flops, mem)) in tasks.iter().enumerate() {
                        section.add_task(
                            TaskDef::new(
                                task_name,
                                |c| c.outputs[0][0] += 1.0,
                                vec![ArgSpec::inout(out, t..t + 1)],
                            )
                            .with_cost(TaskCost::new(*flops, *mem)),
                        )?;
                    }
                    let _ = section.end()?;
                }
                Ok(ctx
                    .rt
                    .report()
                    .sections()
                    .iter()
                    .map(|s| s.total_time().as_secs())
                    .collect::<Vec<f64>>())
            })
            .expect("ablation experiments execute");
        let per_proc = run.unwrap_results();
        for it in 0..iters {
            let makespan = per_proc.iter().map(|t| t[it]).fold(0.0f64, f64::max);
            rows.push(AdaptiveRow {
                scheduler: kind.name(),
                iteration: it,
                makespan_s: makespan,
            });
        }
    }
    rows
}

/// The granularity sweep used by the paper discussion (1 to 64 tasks).
pub fn default_task_counts() -> Vec<usize> {
    vec![1, 2, 4, 8, 16, 32, 64]
}

/// The default bandwidth sweep in GB/s (IB 20G is ~1.8 GB/s).
pub fn default_bandwidths() -> Vec<f64> {
    vec![0.45, 0.9, 1.8, 3.6, 7.2]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `ABL-ADAPT` acceptance criterion: `adaptive` matches or beats
    /// `cost-aware` on the heterogeneous section after at most 3 warm-up
    /// iterations (this workload needs exactly one).
    #[test]
    fn adaptive_matches_or_beats_cost_aware_after_warmup() {
        let rows = adaptive(ExperimentScale::Small);
        let makespan = |sched: &str, it: usize| {
            rows.iter()
                .find(|r| r.scheduler == sched && r.iteration == it)
                .expect("row exists")
                .makespan_s
        };
        let iters = rows.iter().filter(|r| r.scheduler == "adaptive").count();
        assert!(iters >= 4, "need warm-up + measured iterations");
        // Iteration 0: no history, identical to cost-aware.
        assert!((makespan("adaptive", 0) - makespan("cost-aware", 0)).abs() < 1e-9);
        // After the warm-up window, adaptive never loses to cost-aware, and
        // on this workload it wins outright.
        for it in 3..iters {
            assert!(
                makespan("adaptive", it) <= makespan("cost-aware", it) + 1e-9,
                "iteration {it}"
            );
        }
        assert!(makespan("adaptive", iters - 1) < 0.95 * makespan("cost-aware", iters - 1));
    }
}
