//! Figure 6: full-application performance (AMG2013, GTC, MiniGhost).
//!
//! Methodology of the paper's Section V-D: the problem size is fixed and the
//! replicated configurations use twice as many physical processes as the
//! native run, so equal execution time means 50 % efficiency.  Each bar is
//! split into the time spent in intra-parallelized sections and the rest
//! ("others"); the efficiency is printed above the bar.
//!
//! Every bar is one run of the facade's typed [`Experiment`] builder — this
//! module only maps sub-plots to catalog [`AppId`]s and folds the
//! [`intra_replication::RunReport`] aggregates into figure rows.
//!
//! Published outcomes: AMG2013/PCG-27pt ≈ 0.61, AMG2013/GMRES-7pt ≈ 0.59,
//! GTC ≈ 0.71, MiniGhost ≈ 0.51 (plain replication ≈ 0.48–0.49 everywhere).

use crate::MODES;
use apps::AppId;
use apps::ExperimentScale;
use intra_replication::Experiment;
use ipr_core::SchedulerKind;
use replication::ExecutionMode;

/// One bar of a Figure 6 sub-plot.
#[derive(Debug, Clone)]
pub struct AppRow {
    /// The application.
    pub app: AppId,
    /// Configuration label.
    pub mode: &'static str,
    /// Number of physical processes used.
    pub procs: usize,
    /// Total execution time (virtual seconds, makespan).
    pub time_s: f64,
    /// Time spent in intra-parallel(izable) sections (average per process).
    pub sections_s: f64,
    /// Remaining time.
    pub others_s: f64,
    /// Efficiency (1.0 for native; 0.5 * T_native / T for the replicated
    /// configurations, which use twice the resources).
    pub efficiency: f64,
}

fn run_app(
    app: AppId,
    mode: ExecutionMode,
    scale: ExperimentScale,
    scheduler: Option<SchedulerKind>,
) -> (f64, f64, usize) {
    let report = Experiment::builder()
        .app(app)
        .scale(scale)
        .execution_mode(mode)
        .scheduler(scheduler.unwrap_or(SchedulerKind::StaticBlock))
        .build()
        .expect("figure experiments are valid")
        .run()
        .expect("figure experiments execute");
    assert_eq!(
        report.completed(),
        report.procs,
        "failure-free figure runs complete on every rank"
    );
    (report.app_time_s(), report.mean_section_s(), report.procs)
}

/// Runs one Figure 6 sub-plot: native, replicated and intra bars.
/// `scheduler` is the `figures` CLI's scheduler argument (`figures fig6c
/// small locality`); `None` keeps the paper's static block scheduler.
pub fn run(app: AppId, scale: ExperimentScale, scheduler: Option<SchedulerKind>) -> Vec<AppRow> {
    let runs = MODES.map(|(_, mode)| run_app(app, mode, scale, scheduler));
    let (t_native, _, _) = runs[0];
    MODES
        .into_iter()
        .zip(runs)
        .map(|((label, mode), (time, sections, procs))| AppRow {
            app,
            mode: label,
            procs,
            time_s: time,
            sections_s: sections,
            others_s: (time - sections).max(0.0),
            // The replicated configurations use `degree` times the
            // resources of the native run.
            efficiency: t_native / (mode.degree() as f64 * time),
        })
        .collect()
}
