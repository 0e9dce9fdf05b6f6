//! `faults-ckpt`: failure-bearing runs under checkpoint/restart.
//!
//! Why: it is where `replication::{rate, correlated}` (trace sampling),
//! `ckpt::CkptSession` (up to thousands of rollbacks per run), the
//! allreduce-synchronised iteration boundaries and the engine's crash path
//! do the work; `kernels` and the run cache do none.  Thread-world runs are
//! built like `ipr_bench::fig5` but seeded; engine runs are crash-stop
//! ("continue with holes").  A simulated rank loss is a valid result.

use super::{check_against_first, stripped_record, stripped_row};
use crate::harness::{Ctx, Rep, Size, Workload};
use crate::inputs::{fault_baseline, fault_engine_specs, fault_experiments, MODES};
use apps::ExperimentScale;
use campaign::spec::mode_label;
use campaign::{diff_documents, run_campaign, run_weak_spec, CampaignGrid, Json, WeakRunSpec};
use intra_replication::{Experiment, FailurePlan, RunReport};
use replication::FailureRate;
use std::time::Instant;

const GOLDEN_FAILURES: &str = include_str!("../../../crates/campaign/golden/failures.json");
const GOLDEN_CKPT: &str = include_str!("../../../crates/campaign/golden/ckpt.json");

/// See the module docs.
#[derive(Default)]
pub struct FaultsCkpt {
    thread_runs: Vec<Experiment>,
    engine_runs: Vec<WeakRunSpec>,
    /// Scale of the memory pass.
    large: Option<ExperimentScale>,
    first: Vec<String>,
}

/// Under a plan crashes become rollbacks: every rank finishes, and the run
/// reports its C/R statistics.  Returns the recoveries.
fn check_recovered(ctx: &mut Ctx, report: &RunReport) -> usize {
    match report.ckpt {
        Some(stats) if report.completed() == report.procs => stats.recoveries,
        _ => {
            ctx.ledger.fail(
                1,
                format!(
                    "checkpointed run completed {} of {} ranks (stats: {})",
                    report.completed(),
                    report.procs,
                    report.ckpt.is_some()
                ),
            );
            0
        }
    }
}

/// Failure-free native makespan at `scale`, in virtual seconds.
fn baseline_s(scale: ExperimentScale) -> f64 {
    fault_baseline(scale)
        .run()
        .expect("the failure-free baseline executes")
        .makespan_s
}

impl Workload for FaultsCkpt {
    fn ops_per_rep(&self) -> u64 {
        (self.thread_runs.len() + self.engine_runs.len()) as u64
    }

    fn set_up(&mut self, ctx: &mut Ctx) {
        let (scale, logical, large) = match ctx.size {
            Size::Full => (ExperimentScale::Small, 1_000, ExperimentScale::Full),
            Size::Quick => (ExperimentScale::Tiny, 64, ExperimentScale::Small),
        };
        self.large = Some(large);
        self.thread_runs = fault_experiments(ctx.seed, scale, baseline_s(scale));
        self.engine_runs = fault_engine_specs(ctx.seed, logical);
        // Warm-up, unchecked: one pass over the thread-world runs and the
        // engine runs at a small size.
        for run in &self.thread_runs {
            let _ = run.run();
        }
        for spec in fault_engine_specs(ctx.seed, 64).iter().step_by(4) {
            run_weak_spec(spec, 1);
        }
    }

    fn rep(&mut self, ctx: &mut Ctx, index: usize) -> Rep {
        let mut rep = Rep::default();
        let mut records = Vec::new();
        let started = Instant::now();
        let mut reports = Vec::new();
        for run in &self.thread_runs {
            let family = match run.failures() {
                FailurePlan::Poisson {
                    rate: FailureRate::Constant(_),
                    ..
                } => "exponential",
                _ => "weibull",
            };
            let name = format!("hpccg/{}/{family}", mode_label(run.execution_mode()));
            let (report, ms) = ctx.op("ckpt", &name, || run.run().map_err(|e| e.to_string()));
            rep.op_ms.push(ms);
            rep.ranks += run.procs() as u64;
            reports.push(report);
        }
        let thread_wall_s = started.elapsed().as_secs_f64();
        let mut rows = Vec::new();
        for spec in &self.engine_runs {
            let domain = match spec.failure {
                FailurePlan::Correlated { .. } => "rack",
                _ => "rank",
            };
            let name = format!("weak{}/{}/{domain}", spec.logical, spec.mode.label());
            let (row, ms) = ctx.op("simmpi.engine", &name, || Ok(run_weak_spec(spec, 1)));
            rep.op_ms.push(ms);
            rep.ranks += spec.procs() as u64;
            rows.push(row);
        }
        rep.wall_s = started.elapsed().as_secs_f64();
        rep.ops = (reports.len() + rows.len()) as u64;
        rep.rank_ops = rep.op_ms.len();

        let mut recoveries = 0;
        for (run, report) in self.thread_runs.iter().zip(&reports) {
            let Some(report) = report else {
                records.push(String::new());
                continue;
            };
            recoveries += check_recovered(ctx, report);
            records.push(stripped_record(run, report));
        }
        for row in &rows {
            let Some(row) = row else {
                records.push(String::new());
                continue;
            };
            if row.errored != 0 || row.completed + row.crashed != row.procs {
                ctx.ledger.fail(
                    1,
                    format!(
                        "{}: {} completed + {} crashed of {}, {} errored",
                        row.id, row.completed, row.crashed, row.procs, row.errored
                    ),
                );
            }
            records.push(stripped_row(row));
        }
        rep.extra.push((
            "rollbacks_per_s",
            recoveries as f64 / thread_wall_s.max(1e-9),
        ));
        rep.counts.push(("rollbacks", recoveries as u64));
        rep.counts.push((
            "engine_messages",
            rows.iter().flatten().map(|r| r.messages).sum(),
        ));
        check_against_first(ctx, &mut self.first, index, records);
        rep
    }

    fn memory_pass(&mut self, ctx: &mut Ctx) {
        // The issue's size: one checkpointed HPCCG `full` run under
        // replication (128 OS threads), MTBF 4 x T0.
        let Some(scale) = self.large.take() else {
            return;
        };
        // Replicated runs come per MTBF multiple in fours: the fifth is
        // the first at the middle multiple.
        let Some(large) = fault_experiments(ctx.seed, scale, baseline_s(scale))
            .into_iter()
            .filter(|run| run.execution_mode() == MODES[1])
            .nth(4)
        else {
            return;
        };
        let name = format!("hpccg/{}/large", mode_label(large.execution_mode()));
        let (report, _) = ctx.op("ckpt", &name, || large.run().map_err(|e| e.to_string()));
        if let Some(report) = report {
            check_recovered(ctx, &report);
        }
    }

    fn verify(&mut self, ctx: &mut Ctx) {
        for (name, golden, grid) in [
            ("failures.json", GOLDEN_FAILURES, CampaignGrid::failures()),
            ("ckpt.json", GOLDEN_CKPT, CampaignGrid::ckpt()),
        ] {
            let golden = Json::parse(golden).expect("the checked-in golden parses");
            for jobs in [1, ctx.workers] {
                let candidate = run_campaign(&grid, jobs).to_json();
                let verdict = diff_documents(&golden, &candidate, 0.0);
                ctx.ledger.check(
                    matches!(&verdict, Ok(v) if v.is_empty()),
                    format!("{name} at jobs={jobs}: {verdict:?}"),
                );
            }
        }
    }
}
