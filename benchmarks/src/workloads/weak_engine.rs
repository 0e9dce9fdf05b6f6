//! `weak-engine`: weak-scaling runs on the event engine.
//!
//! Why: the only workload where `simmpi::engine`, `simcluster::engine` and
//! `apps::weak_scaling` do all the work and the thread world, the cache and
//! the executor do none.  The timed repetitions run at `workers = 1` (what
//! the end-to-end metrics time).  After them, untimed, come one 30 000-rank
//! run (the memory pass) and the same specs at `workers = 0`, the automatic
//! worker count `campaign weak` users get by default: reported as
//! `ranks_per_s_auto`, checked row for row against the pinned runs, never
//! bounded (see KNOWN_HAZARDS.md for why).

use super::{check_against_first, stripped_row};
use crate::harness::{Ctx, Rep, Size, Workload};
use crate::inputs::weak_specs;
use campaign::{
    diff_reports, run_weak_spec, run_weak_sweep, Json, WeakRow, WeakRunSpec, WeakSweep,
};
use std::time::Instant;

const GOLDEN: &str = include_str!("../../../crates/campaign/golden/weak_scaling.json");

/// See the module docs.
#[derive(Default)]
pub struct WeakEngine {
    /// Timed at `workers = 1`; run once more at `workers = 0` afterwards.
    pinned: Vec<WeakRunSpec>,
    /// The memory pass: the largest of the issue's 30 000-rank runs.
    large: Option<WeakRunSpec>,
    first: Vec<String>,
}

fn run_checked(ctx: &mut Ctx, spec: &WeakRunSpec, workers: usize) -> (Option<WeakRow>, f64) {
    let name = format!("weak{}/{}/w{workers}", spec.logical, spec.mode.label());
    let (row, ms) = ctx.op("simmpi.engine", &name, || Ok(run_weak_spec(spec, workers)));
    if let Some(row) = &row {
        if row.completed != row.procs || row.errored != 0 {
            ctx.ledger.fail(
                1,
                format!(
                    "{name}: failure-free run completed {} of {} ranks, {} errored",
                    row.completed, row.procs, row.errored
                ),
            );
        }
    }
    (row, ms)
}

impl Workload for WeakEngine {
    fn ops_per_rep(&self) -> u64 {
        self.pinned.len() as u64
    }

    fn set_up(&mut self, ctx: &mut Ctx) {
        let (pinned, large, warm_up) = match ctx.size {
            Size::Full => (5_000, 30_000, 2_000),
            Size::Quick => (600, 1_000, 50),
        };
        self.pinned = weak_specs(ctx.seed, pinned);
        self.large = weak_specs(ctx.seed, large).pop();
        // One worker only: the automatic worker count flips between two
        // speeds (KNOWN_HAZARDS.md) and would make `setup_s` bimodal.
        for spec in weak_specs(ctx.seed, warm_up) {
            run_weak_spec(&spec, 1);
        }
    }

    fn rep(&mut self, ctx: &mut Ctx, index: usize) -> Rep {
        let mut rep = Rep::default();
        let mut rows = Vec::new();
        let started = Instant::now();
        for spec in &self.pinned {
            let (row, ms) = run_checked(ctx, spec, 1);
            rep.op_ms.push(ms);
            rep.ranks += spec.procs() as u64;
            rows.push(row);
        }
        // Only the pinned slice runs in the timed repetitions.  The
        // automatic slice flips between two speeds on a virtualised host
        // and, interleaved with pinned runs in one process, makes the peak
        // resident set multi-modal (KNOWN_HAZARDS.md): it runs after the
        // repetitions, in `verify`, reported and checked but never bounded.
        rep.wall_s = started.elapsed().as_secs_f64();
        rep.ops = rows.len() as u64;
        rep.rank_ops = rows.len();
        // Deterministic at one worker: must repeat exactly for one seed.
        rep.counts
            .push(("messages", rows.iter().flatten().map(|r| r.messages).sum()));
        rep.counts.push((
            "dispatches",
            rows.iter().flatten().map(|r| r.dispatches).sum(),
        ));
        let records = rows
            .iter()
            .map(|row| row.as_ref().map(stripped_row).unwrap_or_default())
            .collect();
        check_against_first(ctx, &mut self.first, index, records);
        rep
    }

    fn memory_pass(&mut self, ctx: &mut Ctx) {
        // intra2 at 30 000 logical ranks: 60 000 simulated ranks resident.
        if let Some(large) = self.large.take() {
            run_checked(ctx, &large, 1);
        }
    }

    fn verify(&mut self, ctx: &mut Ctx) {
        // The automatic slice, once, after the peak resident set has been
        // read: one informational sample.  The automatic worker count must
        // simulate exactly what one worker simulated in repetition 0.
        let auto_ranks: usize = self.pinned.iter().map(WeakRunSpec::procs).sum();
        let started = Instant::now();
        let auto_rows: Vec<_> = self
            .pinned
            .iter()
            .map(|spec| run_checked(ctx, spec, 0).0)
            .collect();
        let wall_s = started.elapsed().as_secs_f64().max(1e-9);
        ctx.notes
            .push(("ranks_per_s_auto", auto_ranks as f64 / wall_s));
        for ((spec, auto_row), pinned) in self.pinned.iter().zip(&auto_rows).zip(&self.first) {
            let Some(auto_row) = auto_row else {
                continue;
            };
            let auto = stripped_row(auto_row);
            ctx.digest.update(auto.as_bytes());
            if *pinned != auto {
                ctx.ledger
                    .fail(1, format!("{}: workers=1 and auto rows differ", spec.id()));
            }
        }
        let golden = Json::parse(GOLDEN).expect("the checked-in golden parses");
        for workers in [1, 0] {
            let candidate = run_weak_sweep(&WeakSweep::smoke(), workers).to_json();
            let violations = diff_reports(&golden, &candidate, 0.0);
            ctx.ledger.check(
                violations.is_empty(),
                format!("weak_scaling.json at workers={workers}: {violations:?}"),
            );
        }
    }
}
