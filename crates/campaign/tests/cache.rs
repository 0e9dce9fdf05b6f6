//! Run-cache correctness: warm hits are byte-identical to the cold runs
//! that populated them, the fingerprint is sensitive to every `RunSpec`
//! axis, stale entries (schema bump, corruption, a torn append) read as
//! misses, and concurrent appenders share one log.

use apps::{AppId, ExperimentScale};
use campaign::cache::{fingerprint, fingerprint_material, run_specs_cached, RunCache};
use campaign::spec::RunSpec;
use campaign::{strip_informational, CampaignGrid, CampaignReport, FailureSpec, Json};
use intra_replication::FailurePlan;
use ipr_core::SchedulerKind;
use proptest::prelude::*;
use replication::{ExecutionMode, FailureRate};
use std::sync::Arc;

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("ipr-cache-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn mini_specs() -> Vec<RunSpec> {
    // A 4-run slice of the smoke axes: native and intra2, two seeds.
    let mut specs = Vec::new();
    for (i, (mode, seed)) in [
        (ExecutionMode::Native, 43),
        (ExecutionMode::Native, 44),
        (ExecutionMode::IntraParallel { degree: 2 }, 43),
        (ExecutionMode::IntraParallel { degree: 2 }, 44),
    ]
    .into_iter()
    .enumerate()
    {
        specs.push(RunSpec {
            index: i,
            app: AppId::Hpccg,
            scale: ExperimentScale::Tiny,
            mode,
            scheduler: SchedulerKind::StaticBlock,
            failure: FailureSpec::None,
            seed,
            ckpt: None,
        });
    }
    specs
}

fn render(runs: Vec<campaign::RunResult>) -> String {
    CampaignReport {
        campaign: "mini".into(),
        scale: "tiny".into(),
        runs,
    }
    .to_json()
    .render()
}

#[test]
fn warm_hits_are_byte_identical_to_the_cold_run() {
    let dir = temp_dir("warm");
    let cache = Arc::new(RunCache::open(&dir).unwrap());
    let specs = mini_specs();

    let cold = run_specs_cached(&specs, 2, &cache).unwrap();
    assert_eq!(cold.executed, specs.len());
    assert_eq!(cold.hits, 0);
    assert_eq!(cache.len(), specs.len());

    let warm = run_specs_cached(&specs, 1, &cache).unwrap();
    assert_eq!(warm.executed, 0, "warm re-sweep must execute nothing");
    assert_eq!(warm.hits, specs.len());

    // Full byte identity — *including* the informational wall clock,
    // because a hit replays the record stored by the cold run verbatim.
    assert_eq!(render(cold.runs), render(warm.runs));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn cached_results_are_jobs_invariant() {
    // jobs=1 against one cache, jobs=8 against another: the deterministic
    // payload must agree (wall clocks are host noise and are stripped).
    let dir1 = temp_dir("j1");
    let dir8 = temp_dir("j8");
    let specs = mini_specs();
    let c1 = run_specs_cached(&specs, 1, &Arc::new(RunCache::open(&dir1).unwrap())).unwrap();
    let c8 = run_specs_cached(&specs, 8, &Arc::new(RunCache::open(&dir8).unwrap())).unwrap();
    let strip = |runs| {
        let mut doc = Json::parse(&render(runs)).unwrap();
        strip_informational(&mut doc);
        doc.render()
    };
    assert_eq!(strip(c1.runs), strip(c8.runs));
    std::fs::remove_dir_all(&dir1).unwrap();
    std::fs::remove_dir_all(&dir8).unwrap();
}

#[test]
fn smoke_grid_warm_resweep_executes_zero_runs() {
    let dir = temp_dir("smoke");
    let cache = Arc::new(RunCache::open(&dir).unwrap());
    let specs = CampaignGrid::smoke().expand();
    let cold = run_specs_cached(&specs, 4, &cache).unwrap();
    assert_eq!((cold.executed, cold.hits), (specs.len(), 0));
    let warm = run_specs_cached(&specs, 4, &cache).unwrap();
    assert_eq!((warm.executed, warm.hits), (0, specs.len()));
    assert_eq!(render(cold.runs), render(warm.runs));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_vanished_cache_directory_is_an_error_not_a_hang() {
    // On a helper thread under a deadline: before, the failed writes
    // panicked the pool's workers and the batch waited for them forever.
    let (done, finished) = std::sync::mpsc::channel();
    let helper = std::thread::spawn(move || {
        let dir = temp_dir("vanished");
        let cache = Arc::new(RunCache::open(&dir).unwrap());
        std::fs::remove_dir_all(&dir).unwrap();
        let specs = mini_specs();
        let err = run_specs_cached(&specs, 2, &cache)
            .err()
            .expect("no cache to write to");
        assert!(err.to_string().contains("run cache write"), "{err}");
        // Nothing is left broken: the next batch, on a cache that exists,
        // runs everything.
        let cache = Arc::new(RunCache::open(&dir).unwrap());
        let batch = run_specs_cached(&specs, 2, &cache).unwrap();
        assert_eq!((batch.executed, batch.hits), (specs.len(), 0));
        std::fs::remove_dir_all(&dir).unwrap();
        done.send(()).unwrap();
    });
    let deadline = std::time::Duration::from_secs(5);
    if finished.recv_timeout(deadline) == Err(std::sync::mpsc::RecvTimeoutError::Timeout) {
        panic!("batch on a vanished cache still blocked after {deadline:?}");
    }
    // A failed assertion on the helper surfaces here.
    helper.join().unwrap();
}

#[test]
fn schema_bump_changes_the_fingerprint() {
    // The fingerprint hashes material that embeds the report schema and
    // the determinism epoch; bumping either changes every address, which
    // is how a schema bump orphans (invalidates) all previous entries.
    let spec = &mini_specs()[0];
    let material = fingerprint_material(spec);
    assert!(material.contains("|schema=ipr-report/1|"), "{material}");
    let bumped_schema = material.replace("schema=ipr-report/1", "schema=ipr-report/2");
    let bumped_epoch = material.replace("epoch=", "epoch=9");
    assert_ne!(material, bumped_schema);
    assert_ne!(material, bumped_epoch);
    // Same axes, same schema, same epoch => same address.
    assert_eq!(fingerprint(spec), fingerprint(&spec.clone()));
}

/// The cache's one log file.
fn log_path(dir: &std::path::Path) -> std::path::PathBuf {
    dir.join("entries.jsonl")
}

#[test]
fn stale_or_corrupt_entries_read_as_misses() {
    let dir = temp_dir("stale");
    let cache = RunCache::open(&dir).unwrap();
    let specs = mini_specs();
    let spec = &specs[0];
    let result = campaign::run_spec(spec);
    cache.put(spec, &result).unwrap();
    assert_eq!(cache.get(spec), Some(result.clone()));
    let line = std::fs::read_to_string(log_path(&dir)).unwrap();
    let procs = format!("\"procs\": {}", result.procs);
    assert!(line.contains(&procs));

    for (what, damaged) in [
        // A line written under a *previous* cache-entry schema.
        (
            "schema",
            line.replace("ipr-cache-entry/1", "ipr-cache-entry/0"),
        ),
        // A truncated line (its newline cut off with the rest).
        ("truncated", line[..line.len() / 2].to_string()),
        ("not json", "{ not json\n".to_string()),
        // Well-formed, but counts damaged (negative, fractional): never a
        // hit carrying the saturated or truncated count.
        ("negative", line.replace(&procs, "\"procs\": -3")),
        ("fractional", line.replace(&procs, "\"procs\": 2.5")),
        // Nested far past the parser's depth cap: a miss, not a stack
        // overflow.
        (
            "too deep",
            line.replace(
                &procs,
                &format!("\"procs\": {}1{}", "[".repeat(100_000), "]".repeat(100_000)),
            ),
        ),
    ] {
        std::fs::write(log_path(&dir), damaged).unwrap();
        assert_eq!(RunCache::open(&dir).unwrap().get(spec), None, "{what}");
        assert_eq!(cache.get(spec), None, "{what}, writing handle");
    }

    // Re-running heals the damage, also in a handle that indexed the
    // damaged line: its miss catches up to the line appended after it.
    let reader = RunCache::open(&dir).unwrap();
    assert_eq!(reader.get(spec), None);
    reader.put(spec, &result).unwrap();
    assert_eq!(reader.get(spec), Some(result));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_torn_tail_reads_as_a_miss_and_a_put_heals_it() {
    let dir = temp_dir("torn");
    let specs = mini_specs();
    let spec = &specs[0];
    let result = campaign::run_spec(spec);
    RunCache::open(&dir).unwrap().put(spec, &result).unwrap();
    let line = std::fs::read_to_string(log_path(&dir)).unwrap();
    // A writer killed mid-append: cut inside the fingerprint prefix, and
    // past it.
    for cut in [20, line.len() / 2] {
        std::fs::write(log_path(&dir), &line[..cut]).unwrap();
        let cache = RunCache::open(&dir).unwrap();
        assert_eq!(cache.get(spec), None, "cut at {cut}");
        cache.put(spec, &result).unwrap();
        assert_eq!(cache.get(spec), Some(result.clone()), "cut at {cut}");
        assert_eq!(
            RunCache::open(&dir).unwrap().get(spec),
            Some(result.clone()),
            "cut at {cut}, fresh handle"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn two_handles_append_concurrently() {
    let dir = temp_dir("two-handles");
    let caches = [RunCache::open(&dir).unwrap(), RunCache::open(&dir).unwrap()];
    let specs = mini_specs();
    let results: Vec<_> = specs.iter().map(campaign::run_spec).collect();
    // Eight appenders, four threads on each handle, released together; each
    // puts every entry.
    let start = std::sync::Barrier::new(8);
    std::thread::scope(|scope| {
        for cache in &caches {
            for _ in 0..4 {
                scope.spawn(|| {
                    start.wait();
                    for (spec, result) in specs.iter().zip(&results) {
                        cache.put(spec, result).unwrap();
                    }
                });
            }
        }
    });
    let reader = RunCache::open(&dir).unwrap();
    for (spec, result) in specs.iter().zip(&results) {
        assert_eq!(reader.get(spec).as_ref(), Some(result), "{}", spec.id());
    }
    assert_eq!(reader.len(), specs.len());
    // No two appends interleaved: every line is one whole entry.
    let log = std::fs::read_to_string(log_path(&dir)).unwrap();
    assert_eq!(log.lines().count(), 8 * specs.len());
    assert!(log.lines().all(|line| Json::parse(line).is_ok()));
    std::fs::remove_dir_all(&dir).unwrap();
}

const SCALES: [ExperimentScale; 3] = [
    ExperimentScale::Full,
    ExperimentScale::Small,
    ExperimentScale::Tiny,
];

fn nth_failure(i: usize) -> FailurePlan {
    match i {
        0 => FailurePlan::None,
        1 => FailurePlan::poisson(0.5),
        2 => FailurePlan::poisson_process(
            FailureRate::Ramp {
                start: 0.0,
                end: 2.0,
            },
            2.0,
        ),
        3 => FailurePlan::poisson_process(FailureRate::weibull_hpc(360.0), 1.0),
        4 => FailurePlan::node_failures(FailureRate::Constant(1.0)),
        _ => FailurePlan::rack_failures(
            4,
            FailureRate::Weibull {
                shape: 0.7,
                scale_s: 90.0,
            },
        ),
    }
}

proptest! {
    // The fingerprint must separate any two specs that differ on any axis
    // (and must not depend on the grid index, which is bookkeeping).  The
    // strategy reuses the PR 5 round-trip domain: every spec goes through
    // the lossless Experiment conversion on the way to its fingerprint.
    #[test]
    fn fingerprint_separates_every_axis(
        app_i in 0usize..AppId::ALL.len(),
        scale_i in 0usize..SCALES.len(),
        mode_i in 0usize..3,
        degree in 2usize..5,
        sched_i in 0usize..SchedulerKind::ALL.len(),
        fail_i in 0usize..6,
        seed in 0u64..10_000,
        app_j in 0usize..AppId::ALL.len(),
        scale_j in 0usize..SCALES.len(),
        mode_j in 0usize..3,
        degree_j in 2usize..5,
        sched_j in 0usize..SchedulerKind::ALL.len(),
        fail_j in 0usize..6,
        seed_j in 0u64..10_000,
    ) {
        let build = |app_i: usize, scale_i: usize, mode_i: usize, degree: usize,
                     sched_i: usize, fail_i: usize, seed: u64, index: usize| {
            let mode = match mode_i {
                0 => ExecutionMode::Native,
                1 => ExecutionMode::Replicated { degree },
                _ => ExecutionMode::IntraParallel { degree },
            };
            RunSpec {
                index,
                app: AppId::ALL[app_i],
                scale: SCALES[scale_i],
                mode,
                scheduler: SchedulerKind::ALL[sched_i],
                failure: nth_failure(fail_i),
                seed,
                ckpt: None,
            }
        };
        let a = build(app_i, scale_i, mode_i, degree, sched_i, fail_i, seed, 0);
        let b = build(app_j, scale_j, mode_j, degree_j, sched_j, fail_j, seed_j, 63);

        // The index is not an axis: same axes at different grid positions
        // share an address.
        let moved = RunSpec { index: 17, ..a.clone() };
        prop_assert_eq!(fingerprint(&a), fingerprint(&moved));

        // Axis-differing specs have different material (and the material is
        // what the 64-bit hash addresses).
        let same_axes = RunSpec { index: a.index, ..b.clone() } == a;
        if same_axes {
            prop_assert_eq!(fingerprint_material(&a), fingerprint_material(&b));
        } else {
            prop_assert_ne!(fingerprint_material(&a), fingerprint_material(&b));
            prop_assert_ne!(fingerprint(&a), fingerprint(&b));
        }
    }
}
