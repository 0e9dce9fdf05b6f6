//! `sweep-serve`: thousands of tiny runs through the sweep service.
//!
//! Why: sub-millisecond simulations make `campaign::{queue, cache, serve,
//! json, report}` and per-run thread spawn/teardown dominate.  One
//! repetition uses the run cache three ways on a fresh spool — `cold`
//! (0 % hits: every run executes and is written), `delta` (the seed window
//! shifted by half: 50 % hits) and a train of `warm` passes (100 % hits:
//! pure replay) — so a gain for replay that costs the cold path shows.

use crate::harness::{Ctx, Rep, Size, Workload};
use crate::inputs::{sweep_first_seed, sweep_jobs, SPECS_PER_SWEEP_SEED};
use campaign::{
    diff_documents, serve, strip_informational, JobSummary, Json, RunCache, RunSpec, ServeOptions,
    Spool,
};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

const GOLDEN_SMOKE: &str = include_str!("../../../crates/campaign/golden/smoke.json");

/// See the module docs.
#[derive(Default)]
pub struct SweepServe {
    /// One job per seed of the cold window.
    cold: Vec<Vec<RunSpec>>,
    /// The window shifted by half: its first half is cached by `cold`.
    delta: Vec<Vec<RunSpec>>,
    warm_passes: usize,
    /// Repetition 0's stripped cold and delta reports, per job.
    first: Vec<String>,
}

/// A fresh spool and cache under `root`.
struct Service {
    root: PathBuf,
    spool: Spool,
    cache: Arc<RunCache>,
    options: ServeOptions,
}

impl Service {
    fn fresh(ctx: &Ctx, tag: &str) -> Self {
        let root = ctx.scratch.join(tag);
        let _ = std::fs::remove_dir_all(&root);
        Service {
            spool: Spool::open(root.join("spool")).expect("the scratch spool opens"),
            cache: Arc::new(RunCache::open(root.join("cache")).expect("the scratch cache opens")),
            options: ServeOptions {
                workers: ctx.workers,
                drain: true,
                poll: Duration::from_millis(1),
            },
            root,
        }
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

/// One submit-and-drain pass over `jobs`.
struct Pass {
    wall_s: f64,
    summaries: Vec<JobSummary>,
    /// Final report text per job, the job id in its `campaign` field
    /// blanked so passes compare byte for byte.
    reports: Vec<String>,
}

impl Pass {
    fn executed(&self) -> usize {
        self.summaries.iter().map(|s| s.executed).sum()
    }

    fn hits(&self) -> usize {
        self.summaries.iter().map(|s| s.cache_hits).sum()
    }
}

/// Submits every job of `jobs` as `<tag>-<i>` and drains the spool; one op
/// per spec.  Spans: phase `tag` → ops `submit`, `serve`.
fn pass(ctx: &mut Ctx, service: &Service, tag: &str, jobs: &[Vec<RunSpec>]) -> Pass {
    let specs: u64 = jobs.iter().map(|j| j.len() as u64).sum();
    ctx.ledger.attempt(specs);
    ctx.tracer.begin("harness", tag);
    let started = Instant::now();
    ctx.tracer.begin("campaign.serve", "submit");
    let submitted = catch_unwind(AssertUnwindSafe(|| {
        jobs.iter()
            .enumerate()
            .try_for_each(|(i, job)| service.spool.submit_specs(&format!("{tag}-{i}"), job))
    }));
    ctx.tracer.end();
    ctx.tracer.begin("campaign.serve", "serve");
    let served = catch_unwind(AssertUnwindSafe(|| {
        serve(&service.spool, &service.cache, &service.options)
    }));
    ctx.tracer.end();
    let wall_s = started.elapsed().as_secs_f64();
    ctx.tracer.end();
    let mut summaries = match (submitted, served) {
        (Ok(Ok(())), Ok(Ok(summaries))) => summaries,
        (submitted, served) => {
            ctx.ledger.fail(
                specs,
                format!(
                    "{tag}: submit {:?}, serve {:?}",
                    submitted.map_err(|_| "panicked"),
                    served.map(|r| r.map(|s| s.len())).map_err(|_| "panicked")
                ),
            );
            Vec::new()
        }
    };
    // Completion order varies; job order does not.
    summaries.sort_by_key(|s| {
        s.id.rsplit('-')
            .next()
            .and_then(|i| i.parse::<usize>().ok())
            .unwrap_or(usize::MAX)
    });
    let mut reports = Vec::new();
    for (i, job) in jobs.iter().enumerate() {
        let id = format!("{tag}-{i}");
        let ok = summaries
            .get(i)
            .is_some_and(|s| s.id == id && s.error.is_none() && s.runs == job.len());
        let text = std::fs::read_to_string(service.spool.result_path(&id)).unwrap_or_default();
        if !summaries.is_empty() && (!ok || text.is_empty()) {
            ctx.ledger.fail(
                job.len() as u64,
                format!("{id}: summary {:?}", summaries.get(i)),
            );
        }
        reports.push(text.replacen(&format!("\"campaign\": \"{id}\""), "\"campaign\": \"\"", 1));
    }
    Pass {
        wall_s,
        summaries,
        reports,
    }
}

/// A report text with its informational fields removed.
fn stripped(report: &str) -> String {
    match Json::parse(report) {
        Ok(mut doc) => {
            strip_informational(&mut doc);
            doc.render_compact()
        }
        Err(_) => String::new(),
    }
}

impl Workload for SweepServe {
    fn ops_per_rep(&self) -> u64 {
        (self.cold.len() * SPECS_PER_SWEEP_SEED * (2 + self.warm_passes)) as u64
    }

    fn set_up(&mut self, ctx: &mut Ctx) {
        let (seeds, warm_passes, warm_up_seeds) = match ctx.size {
            Size::Full => (6, 10, 2),
            Size::Quick => (4, 2, 1),
        };
        let first = sweep_first_seed(ctx.seed);
        self.cold = sweep_jobs(first, seeds);
        self.delta = sweep_jobs(first + seeds as u64 / 2, seeds);
        self.warm_passes = warm_passes;
        // Warm-up: a small cold and a small warm pass, unchecked.
        let service = Service::fresh(ctx, "sweep-warm-up");
        let jobs = sweep_jobs(first, warm_up_seeds);
        for tag in ["a", "b"] {
            for (i, job) in jobs.iter().enumerate() {
                let _ = service.spool.submit_specs(&format!("{tag}-{i}"), job);
            }
            let _ = serve(&service.spool, &service.cache, &service.options);
        }
    }

    fn rep(&mut self, ctx: &mut Ctx, index: usize) -> Rep {
        let service = Service::fresh(ctx, &format!("sweep-rep{index}"));
        let total = self.cold.len() * SPECS_PER_SWEEP_SEED;
        let mut rep = Rep::default();
        let check = |ctx: &mut Ctx, ok: bool, specs: usize, what: String| {
            if !ok {
                ctx.ledger.fail(specs as u64, what);
            }
        };

        let cold = pass(ctx, &service, "cold", &self.cold);
        check(
            ctx,
            cold.summaries.is_empty() || (cold.executed(), cold.hits()) == (total, 0),
            total,
            format!("cold: executed {} hits {}", cold.executed(), cold.hits()),
        );

        let delta = pass(ctx, &service, "delta", &self.delta);
        check(
            ctx,
            delta.summaries.is_empty()
                || (delta.executed(), delta.hits()) == (total / 2, total / 2),
            total,
            format!("delta: executed {} hits {}", delta.executed(), delta.hits()),
        );
        // The shared half of the window replays the cold pass verbatim.
        let half = self.cold.len() / 2;
        for i in 0..half {
            check(
                ctx,
                delta.reports[i] == cold.reports[half + i],
                SPECS_PER_SWEEP_SEED,
                format!("delta job {i} is not a byte-identical replay of the cold pass"),
            );
        }

        let mut warm_wall_s = 0.0;
        // What a caller waits for: one submit-and-drain pass over the sweep.
        let mut pass_ms = vec![cold.wall_s * 1e3, delta.wall_s * 1e3];
        for w in 0..self.warm_passes {
            let warm = pass(ctx, &service, &format!("warm{w}"), &self.delta);
            check(
                ctx,
                warm.summaries.is_empty() || (warm.executed(), warm.hits()) == (0, total),
                total,
                format!("warm: executed {} hits {}", warm.executed(), warm.hits()),
            );
            for (i, report) in warm.reports.iter().enumerate() {
                check(
                    ctx,
                    *report == delta.reports[i],
                    SPECS_PER_SWEEP_SEED,
                    format!("warm job {i} is not a byte-identical replay"),
                );
            }
            warm_wall_s += warm.wall_s;
            pass_ms.push(warm.wall_s * 1e3);
        }

        rep.op_ms = pass_ms;
        rep.wall_s = cold.wall_s + delta.wall_s + warm_wall_s;
        rep.ops = (total * (2 + self.warm_passes)) as u64;
        rep.ranks = self.cold.iter().flatten().map(|s| s.procs() as u64).sum();
        // Only the cold pass (entry 0 of `op_ms`) simulates every rank.
        rep.rank_ops = 1;
        rep.extra = vec![
            ("cold_specs_per_s", total as f64 / cold.wall_s.max(1e-9)),
            ("delta_specs_per_s", total as f64 / delta.wall_s.max(1e-9)),
            (
                "warm_specs_per_s",
                (total * self.warm_passes) as f64 / warm_wall_s.max(1e-9),
            ),
        ];
        rep.counts = vec![("cache_entries", service.cache.len() as u64)];

        // Simulated statistics: every executed run, once.
        let records: Vec<String> = cold
            .reports
            .iter()
            .chain(&delta.reports[half.min(delta.reports.len())..])
            .map(|r| stripped(r))
            .collect();
        if index == 0 {
            for record in &records {
                ctx.digest.update(record.as_bytes());
            }
            self.first = records;
        } else {
            for (i, record) in records.iter().enumerate() {
                check(
                    ctx,
                    self.first.get(i) == Some(record),
                    SPECS_PER_SWEEP_SEED,
                    format!("rep {index} job {i} simulated something else than rep 0"),
                );
            }
        }
        rep
    }

    fn verify(&mut self, ctx: &mut Ctx) {
        // The smoke golden, through the serve path.
        let service = Service::fresh(ctx, "sweep-golden");
        let candidate = service
            .spool
            .submit_grid("golden-smoke", "smoke")
            .and_then(|()| serve(&service.spool, &service.cache, &service.options))
            .and_then(|_| std::fs::read_to_string(service.spool.result_path("golden-smoke")))
            .map_err(|e| e.to_string())
            .and_then(|text| Json::parse(&text));
        let golden = Json::parse(GOLDEN_SMOKE).expect("the checked-in golden parses");
        let verdict = candidate.and_then(|c| {
            diff_documents(&golden, &c, 0.0)
                .map_err(|e| e.to_string())
                .and_then(|v| {
                    if v.is_empty() {
                        Ok(())
                    } else {
                        Err(format!("{v:?}"))
                    }
                })
        });
        ctx.ledger.check(
            verdict.is_ok(),
            format!("smoke.json through serve: {verdict:?}"),
        );
    }
}
