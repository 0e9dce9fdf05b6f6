//! Figure 5: the replication-vs-checkpoint/restart efficiency crossover.
//!
//! The paper's case for replication rests on a comparison against
//! coordinated checkpoint/restart at exascale failure rates: below some
//! MTBF, a checkpointed native run spends so much time rolling back and
//! re-executing lost work that running every process twice — halving the
//! ideal efficiency to 0.5, but absorbing almost every failure without a
//! rollback — comes out ahead.  This study reproduces that crossover from
//! swept [`Experiment`] runs:
//!
//! * **native + Daly C/R** — one replica per logical process, a Daly
//!   optimal-interval checkpoint plan, per-process exponential failures;
//! * **replicated(2) + Daly C/R** — the same logical processes duplicated,
//!   the same per-process hazard, the same plan (rollbacks now happen only
//!   on a *replica defeat*, i.e. both replicas of a logical process lost
//!   between consecutive recoveries).
//!
//! The x-axis is the per-process MTBF, swept geometrically around the
//! failure-free native makespan `T0`; the y-axis is the resource-adjusted
//! efficiency `useful_time / (makespan × degree)` from the run's
//! [`CkptStats`](intra_replication::CkptStats) accounting.  The crossover
//! threshold — the MTBF below
//! which replication wins — is interpolated between the two bracketing
//! grid points.

use apps::AppId;
use apps::ExperimentScale;
use intra_replication::{CheckpointPlan, Experiment, FailurePlan};
use ipr_core::SchedulerKind;
use replication::{ExecutionMode, FailureRate};

/// One MTBF point of the crossover curve.
#[derive(Debug, Clone)]
pub struct CrossoverRow {
    /// Per-process MTBF in virtual seconds.
    pub mtbf_s: f64,
    /// MTBF as a multiple of the failure-free native makespan.
    pub mtbf_over_t0: f64,
    /// Efficiency of the checkpointed native run.
    pub native_eff: f64,
    /// Rollback-recoveries the native run paid.
    pub native_recoveries: usize,
    /// Efficiency of the checkpointed replicated(2) run.
    pub replicated_eff: f64,
    /// Rollback-recoveries (replica defeats) the replicated run paid.
    pub replicated_recoveries: usize,
}

/// The full crossover study.
#[derive(Debug, Clone)]
pub struct CrossoverStudy {
    /// Failure-free native makespan `T0` the sweep is scaled to, in
    /// virtual seconds.
    pub baseline_s: f64,
    /// Modeled checkpoint commit cost `C`, in virtual seconds.
    pub ckpt_cost_s: f64,
    /// Modeled restart cost `R`, in virtual seconds.
    pub restart_cost_s: f64,
    /// One row per swept MTBF, ascending.
    pub rows: Vec<CrossoverRow>,
    /// Per-process MTBF below which replication beats checkpointed native
    /// execution (linear interpolation between the bracketing grid
    /// points); `None` when the curves do not cross inside the grid.
    pub crossover_mtbf_s: Option<f64>,
}

/// MTBF grid, as multiples of the failure-free native makespan.
const MTBF_MULTIPLES: [f64; 11] = [
    0.125, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0,
];

fn run_point(
    mode: ExecutionMode,
    scale: ExperimentScale,
    plan: CheckpointPlan,
    mtbf_s: f64,
    horizon_s: f64,
) -> (f64, usize) {
    let report = Experiment::builder()
        .app(AppId::Hpccg)
        .scale(scale)
        .execution_mode(mode)
        .scheduler(SchedulerKind::StaticBlock)
        .failures(FailurePlan::poisson_process(
            FailureRate::Constant(1.0 / mtbf_s),
            horizon_s,
        ))
        .checkpointing(plan)
        .build()
        .expect("crossover experiments are valid")
        .run()
        .expect("crossover experiments execute");
    let stats = report
        .ckpt
        .expect("checkpointed runs always report C/R accounting");
    (
        stats.efficiency(report.makespan_s, mode.degree()),
        stats.recoveries,
    )
}

/// The failure-free native makespan the sweep is scaled to.
fn baseline(scale: ExperimentScale) -> f64 {
    Experiment::builder()
        .app(AppId::Hpccg)
        .scale(scale)
        .execution_mode(ExecutionMode::Native)
        .scheduler(SchedulerKind::StaticBlock)
        .build()
        .expect("baseline experiment is valid")
        .run()
        .expect("baseline experiment executes")
        .makespan_s
}

/// Runs the crossover study at the given scale.
pub fn run(scale: ExperimentScale) -> CrossoverStudy {
    let t0 = baseline(scale);
    // Paper-flavoured cost model: a checkpoint commit costs ~1.5% of the
    // failure-free run, a restart twice that.
    let ckpt_cost_s = t0 / 64.0;
    let restart_cost_s = t0 / 32.0;
    let plan = CheckpointPlan::daly(ckpt_cost_s, restart_cost_s);
    // The failure horizon must cover the *extended* makespan of the most
    // failure-ridden run (rollbacks stretch the run well past T0).
    let horizon_s = 64.0 * t0;
    let rows: Vec<CrossoverRow> = MTBF_MULTIPLES
        .iter()
        .map(|&mult| {
            let mtbf_s = mult * t0;
            let (native_eff, native_recoveries) =
                run_point(ExecutionMode::Native, scale, plan, mtbf_s, horizon_s);
            let (replicated_eff, replicated_recoveries) = run_point(
                ExecutionMode::Replicated { degree: 2 },
                scale,
                plan,
                mtbf_s,
                horizon_s,
            );
            CrossoverRow {
                mtbf_s,
                mtbf_over_t0: mult,
                native_eff,
                native_recoveries,
                replicated_eff,
                replicated_recoveries,
            }
        })
        .collect();
    CrossoverStudy {
        baseline_s: t0,
        ckpt_cost_s,
        restart_cost_s,
        crossover_mtbf_s: crossover(&rows),
        rows,
    }
}

/// The MTBF at which the native curve overtakes the replicated one,
/// linearly interpolated inside the first bracketing interval (rows are
/// ascending in MTBF).  `None` when one side dominates the whole grid.
fn crossover(rows: &[CrossoverRow]) -> Option<f64> {
    for pair in rows.windows(2) {
        let (lo, hi) = (&pair[0], &pair[1]);
        let d_lo = lo.native_eff - lo.replicated_eff;
        let d_hi = hi.native_eff - hi.replicated_eff;
        if d_lo < 0.0 && d_hi >= 0.0 {
            let t = d_lo / (d_lo - d_hi);
            return Some(lo.mtbf_s + t * (hi.mtbf_s - lo.mtbf_s));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_crossover_study_reproduces_the_papers_shape() {
        let study = run(ExperimentScale::Tiny);
        assert!(study.baseline_s > 0.0);
        assert_eq!(study.rows.len(), MTBF_MULTIPLES.len());
        // Replication pins efficiency near 0.5 and pays almost no
        // rollbacks at the benign end of the grid.
        let last = study.rows.last().unwrap();
        assert!(last.replicated_eff <= 0.5 + 1e-9);
        // Native efficiency is monotone-ish: the benign end must beat the
        // hostile end decisively.
        let first = study.rows.first().unwrap();
        assert!(
            last.native_eff > first.native_eff,
            "native eff {} at MTBF {} !> {} at {}",
            last.native_eff,
            last.mtbf_s,
            first.native_eff,
            first.mtbf_s
        );
        // At the benign end, checkpointed native execution must beat
        // paying for every process twice.
        assert!(last.native_eff > last.replicated_eff);
        // Determinism: the study is a pure function of its axes.
        let again = run(ExperimentScale::Tiny);
        assert_eq!(study.baseline_s, again.baseline_s);
        for (a, b) in study.rows.iter().zip(&again.rows) {
            assert_eq!(a.native_eff, b.native_eff);
            assert_eq!(a.replicated_eff, b.replicated_eff);
        }
    }
}
