//! Campaign execution: one deterministic virtual-time simulation per
//! [`RunSpec`], fanned out over the executor pool ([`crate::queue`]).
//!
//! Every run is self-contained — its own simulated cluster, its own seed,
//! its own failure traces — so runs can execute concurrently without
//! affecting each other's results: the report produced with `--jobs 8` is
//! byte-identical to the one produced with `--jobs 1` (results are placed
//! by grid index, never by completion order).

use crate::cache::{CachedBatch, RunCache};
use crate::grid::CampaignGrid;
use crate::queue::ExecutorPool;
use crate::spec::RunSpec;
use std::io;
use std::sync::{mpsc, Arc};

/// Aggregated result of one campaign run — the campaign-historical name of
/// the versioned report model's row type ([`crate::report::v1::RunRecord`]).
pub use crate::report::v1::RunRecord as RunResult;

/// Executes one run specification to completion by handing it to the
/// facade's [`intra_replication::Experiment`] engine and folding the
/// [`intra_replication::RunReport`] into the v1 row.
pub fn run_spec(spec: &RunSpec) -> RunResult {
    let experiment = spec
        .experiment()
        .expect("expanded grid points are valid experiments");
    let report = experiment.run().expect("experiment execution");
    RunResult::from_run(spec, report.scheduled_crashes, &report)
}

/// Executes `specs` on a transient pool of up to `jobs` workers and returns
/// the results in grid order (independent of completion order).  Panics if
/// a run panicked.
pub fn run_specs(specs: &[RunSpec], jobs: usize) -> Vec<RunResult> {
    let pool = ExecutorPool::new(jobs.max(1).min(specs.len()));
    run_batch(&pool, specs, None, |_, _, _| {})
        .expect("campaign run")
        .runs
}

/// The one batch path: executes `specs` on an existing pool (the
/// long-running serve pool, or a transient one), through `cache` when there
/// is one — hits replay immediately, misses run concurrently and are stored
/// for next time.  Blocks until every one of *these* specs finished; other
/// traffic on the pool proceeds concurrently and is not waited for.
///
/// Workers send `(index, result, cache-write outcome)` back to the calling
/// thread, which places results by index and calls
/// `on_complete(index, cached, result)` once per spec in completion order
/// (hits first, then misses as they finish) — the serve loop streams its
/// JSONL from this.  The first failed cache write, or a run that panicked
/// (its worker survives, see [`crate::queue`]), is returned as the error
/// once every other run of the batch has finished.
pub fn run_batch(
    pool: &ExecutorPool,
    specs: &[RunSpec],
    cache: Option<&Arc<RunCache>>,
    mut on_complete: impl FnMut(usize, bool, &RunResult),
) -> io::Result<CachedBatch> {
    let mut slots: Vec<Option<RunResult>> = specs.iter().map(|_| None).collect();
    let (results, completed) = mpsc::channel();
    let mut hits = 0;
    for (i, spec) in specs.iter().enumerate() {
        if let Some(result) = cache.and_then(|c| c.get(spec)) {
            on_complete(i, true, &result);
            slots[i] = Some(result);
            hits += 1;
            continue;
        }
        let (spec, cache, results) = (spec.clone(), cache.cloned(), results.clone());
        pool.submit(move || {
            let result = run_spec(&spec);
            let stored = cache.map_or(Ok(()), |c| c.put(&spec, &result));
            // The receiver outlives every job of its batch.
            let _ = results.send((i, result, stored));
        });
    }
    // Only the jobs hold senders now: the loop ends when the last one has
    // reported or unwound.
    drop(results);
    let mut failure = None;
    for (i, result, stored) in completed {
        if let Err(e) = stored {
            failure.get_or_insert(e);
        }
        on_complete(i, false, &result);
        slots[i] = Some(result);
    }
    if let Some(e) = failure {
        return Err(io::Error::new(e.kind(), format!("run cache write: {e}")));
    }
    let runs = specs
        .iter()
        .zip(slots)
        .map(|(spec, slot)| {
            slot.ok_or_else(|| io::Error::other(format!("run {} panicked", spec.id())))
        })
        .collect::<io::Result<Vec<_>>>()?;
    Ok(CachedBatch {
        executed: runs.len() - hits,
        runs,
        hits,
    })
}

/// Expands and executes a whole grid, producing the campaign report.
pub fn run_campaign(grid: &CampaignGrid, jobs: usize) -> crate::report::CampaignReport {
    let specs = grid.expand();
    let runs = run_specs(&specs, jobs);
    crate::report::CampaignReport {
        campaign: grid.name.clone(),
        scale: grid.scale.name().to_string(),
        runs,
    }
}
