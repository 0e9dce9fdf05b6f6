//! Content-addressed run cache: re-sweeps execute only the delta.
//!
//! Every [`RunSpec`] has a deterministic **fingerprint**: an FNV-1a 64-bit
//! hash over
//!
//! 1. the canonical axis material of its facade twin
//!    ([`intra_replication::Experiment::fingerprint_material`], reached
//!    through the lossless `RunSpec` ↔ `Experiment` conversion),
//! 2. the report-schema version ([`v1::SCHEMA`]) — a cached row can never
//!    be replayed into a report of another schema, and
//! 3. the code-determinism epoch ([`DETERMINISM_EPOCH`]) — bumped whenever
//!    a code change alters simulation *output* for an unchanged spec, which
//!    is exactly the event that forces golden regeneration.
//!
//! Because every run is a pure function of its spec (determinism rule: the
//! same spec produces byte-identical results at any `--jobs`), the
//! fingerprint can content-address a completed [`RunResult`] on disk: a
//! warm sweep looks each spec up, replays hits verbatim — including the
//! originally measured `wall_time_ms`, so a warm report is byte-identical
//! to the cold one that populated the cache — and executes only misses.
//!
//! The store is a flat directory of self-describing JSON entries (one file
//! per fingerprint, written atomically via temp-file + rename, safe under
//! concurrent writers); no database, no new dependencies.

use crate::queue::ExecutorPool;
use crate::report::v1;
use crate::runner::{run_batch, RunResult};
use crate::spec::RunSpec;
use crate::Json;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The code-determinism epoch.  Part of every fingerprint: bump it (with
/// the golden baselines) whenever a code change alters what an unchanged
/// spec simulates — cached results from the previous epoch then miss
/// instead of resurrecting pre-change numbers.
pub const DETERMINISM_EPOCH: u32 = 1;

/// Schema tag of on-disk cache entries.
const ENTRY_SCHEMA: &str = "ipr-cache-entry/1";

/// FNV-1a, 64-bit.  In-tree because the fingerprint must be stable across
/// builds and platforms (no `DefaultHasher`, whose algorithm is
/// unspecified).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The exact string a spec's fingerprint hashes (exposed for tests and for
/// the ARCHITECTURE.md definition): the facade's canonical axis material,
/// then the report schema, then the determinism epoch.
pub fn fingerprint_material(spec: &RunSpec) -> String {
    let experiment = spec
        .experiment()
        .expect("cacheable specs are valid experiments");
    format!(
        "{}|schema={}|epoch={}",
        experiment.fingerprint_material(),
        v1::SCHEMA,
        DETERMINISM_EPOCH
    )
}

/// Content-address of a run spec (see the module docs for what it covers).
pub fn fingerprint(spec: &RunSpec) -> u64 {
    fnv1a(fingerprint_material(spec).as_bytes())
}

/// An on-disk, content-addressed store of completed [`RunResult`]s.
pub struct RunCache {
    dir: PathBuf,
    writes: AtomicU64,
}

impl RunCache {
    /// Opens (creating if needed) a cache rooted at `dir`.
    pub fn open(dir: impl Into<PathBuf>) -> std::io::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(RunCache {
            dir,
            writes: AtomicU64::new(0),
        })
    }

    /// The conventional in-repo cache location (`target/campaign-cache`).
    pub fn default_dir() -> PathBuf {
        PathBuf::from("target/campaign-cache")
    }

    /// The cache root.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn entry_path(&self, fp: u64) -> PathBuf {
        self.dir.join(format!("{fp:016x}.json"))
    }

    /// Looks up the cached result of `spec`, if present.  Any malformed,
    /// mis-tagged, or colliding entry reads as a miss (the run simply
    /// re-executes and overwrites it).
    pub fn get(&self, spec: &RunSpec) -> Option<RunResult> {
        let fp = fingerprint(spec);
        let text = std::fs::read_to_string(self.entry_path(fp)).ok()?;
        let doc = Json::parse(&text).ok()?;
        if doc.get("schema").and_then(Json::as_str) != Some(ENTRY_SCHEMA) {
            return None;
        }
        if doc.get("fingerprint").and_then(Json::as_str) != Some(format!("{fp:016x}").as_str()) {
            return None;
        }
        let run = RunResult::from_json(doc.get("run")?).ok()?;
        // Fingerprint collision guard: the entry must describe this run.
        if run.id != spec.id() {
            return None;
        }
        Some(run)
    }

    /// Stores the result of `spec`.  Atomic (temp-file + rename) and safe
    /// under concurrent writers of the same entry: both write identical
    /// content, and the rename is a whole-file replacement.
    pub fn put(&self, spec: &RunSpec, result: &RunResult) -> std::io::Result<()> {
        let fp = fingerprint(spec);
        let entry = Json::obj(vec![
            ("schema", Json::Str(ENTRY_SCHEMA.to_string())),
            ("fingerprint", Json::Str(format!("{fp:016x}"))),
            ("material", Json::Str(fingerprint_material(spec))),
            ("run", result.to_json()),
        ]);
        let serial = self.writes.fetch_add(1, Ordering::SeqCst);
        let tmp = self
            .dir
            .join(format!(".tmp-{fp:016x}-{}-{serial}", std::process::id()));
        std::fs::write(&tmp, entry.render() + "\n")?;
        std::fs::rename(&tmp, self.entry_path(fp))
    }

    /// Number of entries currently stored.
    pub fn len(&self) -> usize {
        std::fs::read_dir(&self.dir)
            .map(|entries| {
                entries
                    .filter_map(Result::ok)
                    .filter(|e| e.file_name().to_string_lossy().ends_with(".json"))
                    .count()
            })
            .unwrap_or(0)
    }

    /// True if the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Outcome of a batch ([`run_batch`]): the results in spec order plus how
/// many came from the cache versus fresh execution.
pub struct CachedBatch {
    /// Results in spec order (grid order for an expanded grid).
    pub runs: Vec<RunResult>,
    /// Runs actually executed (cache misses; every run without a cache).
    pub executed: usize,
    /// Runs replayed from the cache.
    pub hits: usize,
}

/// Cache-aware batch on a transient pool of `jobs` workers (what
/// `campaign run --cache-dir` uses): [`run_batch`] with this cache.  A
/// cache entry that cannot be written is an error, not a lost run.
pub fn run_specs_cached(
    specs: &[RunSpec],
    jobs: usize,
    cache: &Arc<RunCache>,
) -> std::io::Result<CachedBatch> {
    let pool = ExecutorPool::new(jobs.max(1).min(specs.len()));
    run_batch(&pool, specs, Some(cache), |_, _, _| {})
}

#[cfg(test)]
mod tests {
    use super::*;
    use apps::{AppId, ExperimentScale};
    use ipr_core::SchedulerKind;
    use replication::ExecutionMode;

    fn spec(seed: u64) -> RunSpec {
        RunSpec {
            index: 0,
            app: AppId::Hpccg,
            scale: ExperimentScale::Tiny,
            mode: ExecutionMode::IntraParallel { degree: 2 },
            scheduler: SchedulerKind::StaticBlock,
            failure: crate::FailureSpec::None,
            seed,
            ckpt: None,
        }
    }

    #[test]
    fn fingerprint_covers_schema_and_epoch() {
        let material = fingerprint_material(&spec(42));
        assert!(material.starts_with("ipr-experiment/1|"), "{material}");
        assert!(material.contains("|schema=ipr-report/1|"), "{material}");
        assert!(material.ends_with(&format!("|epoch={DETERMINISM_EPOCH}")));
        // Stable across calls, distinct across specs.
        assert_eq!(fingerprint(&spec(42)), fingerprint(&spec(42)));
        assert_ne!(fingerprint(&spec(42)), fingerprint(&spec(43)));
    }

    #[test]
    fn fnv_vector() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }
}
