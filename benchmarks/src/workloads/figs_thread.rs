//! `figs-thread`: regenerate the paper's Figure 6 in the thread world.
//!
//! Why: regenerating the figures is the product.  All host time goes to the
//! thread world — `simmpi` router/mailbox/collectives, the `replication`
//! fan-out, `ipr-core` sections, `apps`, and spawning one OS thread per
//! rank — and none to `campaign`, the run cache or the event engine.
//!
//! The points run at the `small` scale (`figures fig6 small`: 4 logical
//! ranks, so 4, 8 and 8 OS threads), not at `full` (64 / 128 / 128 threads).
//! On the two shared cores this benchmark is run on, a pass over the `full`
//! points takes 6–9 s, three or four fit into a run, and their wall moved
//! by 25–33 % between runs of the same code: that measured the host's
//! scheduler and its other tenants.  A `small` pass takes 0.06 s, a run
//! holds some 400 of them, and each point is reported by its median.

use super::{check_against_first, stripped_record};
use crate::harness::{Ctx, Rep, Size, Workload};
use crate::inputs::{figure_points, FIGURE_SCALE, MODES};
use apps::{AppId, ExperimentScale};
use campaign::spec::mode_label;
use intra_replication::Experiment;
use std::time::Instant;

/// See the module docs.
#[derive(Default)]
pub struct FigsThread {
    points: Vec<Experiment>,
    /// The memory pass: GTC under intra2 at the `full` scale.
    large: Option<Experiment>,
    first: Vec<String>,
}

fn label(point: &Experiment) -> String {
    format!(
        "{}/{}",
        point.app().name(),
        mode_label(point.execution_mode())
    )
}

fn check_complete(ctx: &mut Ctx, report: &intra_replication::RunReport) {
    if report.completed() != report.procs {
        ctx.ledger.fail(
            1,
            format!(
                "failure-free run completed {} of {} ranks",
                report.completed(),
                report.procs
            ),
        );
    }
}

impl Workload for FigsThread {
    fn ops_per_rep(&self) -> u64 {
        self.points.len() as u64
    }

    fn set_up(&mut self, ctx: &mut Ctx) {
        let (scale, large) = match ctx.size {
            Size::Full => (FIGURE_SCALE, ExperimentScale::Full),
            Size::Quick => (ExperimentScale::Tiny, ExperimentScale::Small),
        };
        self.points = figure_points(ctx.seed, scale);
        self.large = figure_points(ctx.seed, large)
            .into_iter()
            .find(|p| p.app() == AppId::Gtc && p.execution_mode() == MODES[2]);
        // Warm-up: two passes, unchecked (the timed passes check every
        // report).
        for point in self.points.iter().chain(&self.points) {
            let _ = point.run();
        }
    }

    fn rep(&mut self, ctx: &mut Ctx, index: usize) -> Rep {
        let mut rep = Rep::default();
        let mut records = Vec::with_capacity(self.points.len());
        let started = Instant::now();
        let mut reports = Vec::with_capacity(self.points.len());
        for point in &self.points {
            let (report, ms) = ctx.op("apps", &label(point), || {
                point.run().map_err(|e| e.to_string())
            });
            rep.op_ms.push(ms);
            reports.push(report);
        }
        rep.wall_s = started.elapsed().as_secs_f64();
        rep.ops = self.points.len() as u64;
        rep.rank_ops = self.points.len();
        for (point, report) in self.points.iter().zip(&reports) {
            rep.ranks += point.procs() as u64;
            let Some(report) = report else {
                records.push(String::new());
                continue;
            };
            check_complete(ctx, report);
            records.push(stripped_record(point, report));
        }
        check_against_first(ctx, &mut self.first, index, records);
        rep
    }

    fn memory_pass(&mut self, ctx: &mut Ctx) {
        // One `full` point (64 logical ranks, 128 OS threads): what
        // `figures fig6 full` holds in memory at its largest.
        let Some(large) = self.large.take() else {
            return;
        };
        let name = format!("{}/full", label(&large));
        let (report, _) = ctx.op("apps", &name, || large.run().map_err(|e| e.to_string()));
        if let Some(report) = report {
            check_complete(ctx, &report);
        }
    }

    fn verify(&mut self, _: &mut Ctx) {}
}
