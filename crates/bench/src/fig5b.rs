//! Figure 5b: HPCCG application weak scaling.
//!
//! The paper fixes the number of physical processes (128, 256, 512), keeps
//! the per-logical-process problem size constant (128³ for the native runs,
//! doubled for the replicated configurations, which use half as many logical
//! processes) and reports the total execution time, with the efficiency
//! above each point.  Intra-parallelization is applied only to ddot and
//! sparsemv (waxpby performs poorly, see Figure 5a), yielding ≈ 0.8
//! efficiency against 0.5 for plain replication.
//!
//! The cluster setup (machine model, replica-disjoint topology, seed) comes
//! from the facade's [`Experiment`] builder; only the per-process body is
//! custom, because the weak-scaling study overrides the per-rank problem
//! size instead of using the catalog workload.

use crate::MODES;
use apps::ExperimentScale;
use apps::{run_hpccg, AppId, HpccgParams};
use intra_replication::Experiment;
use ipr_core::SchedulerKind;
use replication::ExecutionMode;

/// One point of Figure 5b.
#[derive(Debug, Clone)]
pub struct ScalingRow {
    /// Number of physical processes.
    pub procs: usize,
    /// Configuration label.
    pub mode: &'static str,
    /// Application execution time (virtual seconds, makespan).
    pub time_s: f64,
    /// Efficiency relative to the native run on the same resources.
    pub efficiency: f64,
}

fn hpccg_time(
    mode: ExecutionMode,
    procs: usize,
    scale: ExperimentScale,
    scheduler: Option<SchedulerKind>,
) -> f64 {
    let degree = mode.degree();
    let num_logical = procs / degree;
    assert!(num_logical > 0);
    let actual_edge = scale.actual_grid_edge();
    let iters = scale.app_iterations();
    let run = Experiment::builder()
        .app(AppId::Hpccg)
        .scale(scale)
        .execution_mode(mode)
        .scheduler(scheduler.unwrap_or(SchedulerKind::StaticBlock))
        .logical_procs(num_logical)
        .build()
        .expect("figure experiments are valid")
        .run_with(move |ctx| {
            // Per-logical-process problem size: 128^3 for native, doubled
            // along z for the replicated configurations (half as many
            // logical processes on the same physical resources).
            let params = HpccgParams {
                nx: actual_edge,
                ny: actual_edge,
                nz: actual_edge * degree,
                modeled_nx: 128,
                modeled_ny: 128,
                modeled_nz: 128 * degree,
                max_iters: iters,
            };
            let out = run_hpccg(ctx, &params)?;
            Ok(out.report.total_time.as_secs())
        })
        .expect("figure experiments execute");
    run.unwrap_results().into_iter().fold(0.0f64, f64::max)
}

/// Runs the Figure 5b study: one row per (process count, configuration).
/// `scheduler` is the scheduler knob of the `figures` CLI (`figures fig5b
/// small adaptive`); `None` keeps the paper's static block scheduler.
pub fn run(scale: ExperimentScale, scheduler: Option<SchedulerKind>) -> Vec<ScalingRow> {
    let mut rows = Vec::new();
    for procs in scale.fig5b_procs() {
        let times = MODES.map(|(_, mode)| hpccg_time(mode, procs, scale, scheduler));
        for ((mode, _), time) in MODES.into_iter().zip(times) {
            rows.push(ScalingRow {
                procs,
                mode,
                time_s: time,
                efficiency: times[0] / time,
            });
        }
    }
    rows
}
