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
//! The store is one append-only log, `<dir>/entries.jsonl`: each `put`
//! appends one self-describing JSON line with a single `O_APPEND` write,
//! so a cached run costs an append, not a new file.  Each handle keeps an
//! index from fingerprint to the offset of that fingerprint's latest line,
//! filled by reading the log forward from where it last stopped (complete
//! lines only).  The index holds no results: a hit reads its one line and
//! validates it in full, so a torn or interleaved line — a writer killed
//! mid-append, another handle or process appending concurrently — can only
//! cost a miss, never a wrong hit, and the run's re-put heals it.  No
//! compaction, no database, no new dependencies.

use crate::queue::ExecutorPool;
use crate::report::v1;
use crate::runner::{run_batch, RunResult};
use crate::spec::RunSpec;
use crate::Json;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{self, BufRead as _, Read as _, Seek as _, SeekFrom, Write as _};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// The code-determinism epoch.  Part of every fingerprint: bump it (with
/// the golden baselines) whenever a code change alters what an unchanged
/// spec simulates — cached results from the previous epoch then miss
/// instead of resurrecting pre-change numbers.
pub const DETERMINISM_EPOCH: u32 = 1;

/// Schema tag of on-disk cache entries.
const ENTRY_SCHEMA: &str = "ipr-cache-entry/1";

/// The log every entry is appended to, inside the cache directory.
const LOG_FILE: &str = "entries.jsonl";

/// How every log line begins, up to its 16 hex fingerprint digits: the
/// compact rendering of an entry's first two fields (it spells out
/// [`ENTRY_SCHEMA`]; change the two together).  Indexing reads the
/// fingerprint from here and parses no JSON.
const LINE_PREFIX: &[u8] = b"{\"schema\": \"ipr-cache-entry/1\", \"fingerprint\": \"";

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
    log: Mutex<LogIndex>,
}

/// A read handle on the log and where each fingerprint's latest line lies
/// in it — offsets only: results stay on disk until a hit reads them.
struct LogIndex {
    file: File,
    /// Log bytes indexed so far; always the end of a complete line.
    scanned: u64,
    /// Fingerprint → `(offset, length)` of its latest line, newline excluded.
    lines: HashMap<u64, (u64, usize)>,
}

impl LogIndex {
    /// Indexes every complete line appended since the last call.  A final
    /// line without its newline (still being written, or torn) waits.
    fn catch_up(&mut self) {
        if self.file.seek(SeekFrom::Start(self.scanned)).is_err() {
            return;
        }
        let mut reader = io::BufReader::new(&self.file);
        let mut line = Vec::new();
        while reader.read_until(b'\n', &mut line).is_ok() && line.ends_with(b"\n") {
            if let Some((start, fp)) = entry_start(&line) {
                let len = line.len() - 1 - start;
                self.lines.insert(fp, (self.scanned + start as u64, len));
            }
            self.scanned += line.len() as u64;
            line.clear();
        }
    }

    /// The bytes of the latest line for `fp` (`None`: no line names `fp`),
    /// catching up first when `refresh` is set or `fp` is not indexed yet.
    fn latest(&mut self, fp: u64, refresh: bool) -> Option<io::Result<Vec<u8>>> {
        if refresh || !self.lines.contains_key(&fp) {
            self.catch_up();
        }
        let (offset, len) = *self.lines.get(&fp)?;
        let mut line = vec![0; len];
        let read = self.file.seek(SeekFrom::Start(offset));
        Some(
            read.and_then(|_| self.file.read_exact(&mut line))
                .map(|()| line),
        )
    }
}

/// Where the last entry of a log line starts, and the fingerprint its
/// prefix names.  The *last* one: when a writer died mid-append, the next
/// entry lands on the same line after the torn bytes and must still index.
fn entry_start(line: &[u8]) -> Option<(usize, u64)> {
    let start = (0..line.len())
        .rev()
        .find(|&i| line[i] == b'{' && line[i..].starts_with(LINE_PREFIX))?;
    let digits = line.get(start + LINE_PREFIX.len()..)?.get(..17)?;
    if digits[16] != b'"' {
        return None;
    }
    let fp = u64::from_str_radix(std::str::from_utf8(&digits[..16]).ok()?, 16).ok()?;
    Some((start, fp))
}

/// The run a log line stores for `spec` — `None` for any malformed,
/// mis-tagged or colliding line.
fn decode(line: &[u8], fp: u64, spec: &RunSpec) -> Option<RunResult> {
    let doc = Json::parse(std::str::from_utf8(line).ok()?).ok()?;
    if doc.get("schema").and_then(Json::as_str) != Some(ENTRY_SCHEMA) {
        return None;
    }
    if doc.get("fingerprint").and_then(Json::as_str) != Some(format!("{fp:016x}").as_str()) {
        return None;
    }
    let run = RunResult::from_json(doc.get("run")?).ok()?;
    // Fingerprint collision guard: the entry must describe this run.
    (run.id == spec.id()).then_some(run)
}

impl RunCache {
    /// Opens (creating if needed) a cache rooted at `dir`.
    pub fn open(dir: impl Into<PathBuf>) -> std::io::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        let file = OpenOptions::new()
            .read(true)
            .append(true)
            .create(true)
            .open(dir.join(LOG_FILE))?;
        Ok(RunCache {
            dir,
            log: Mutex::new(LogIndex {
                file,
                scanned: 0,
                lines: HashMap::new(),
            }),
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

    /// Looks up the cached result of `spec`, if present.  Any malformed,
    /// mis-tagged, or colliding entry reads as a miss (the run simply
    /// re-executes and appends a fresh one).
    pub fn get(&self, spec: &RunSpec) -> Option<RunResult> {
        let fp = fingerprint(spec);
        let line = self.log.lock().latest(fp, false)?;
        if let Some(run) = line.ok().and_then(|line| decode(&line, fp, spec)) {
            return Some(run);
        }
        // A damaged line: a newer one for `fp` may have been appended since.
        let line = self.log.lock().latest(fp, true)?.ok()?;
        decode(&line, fp, spec)
    }

    /// Stores the result of `spec`: one line, appended with one write, so
    /// concurrent writers (threads, handles or processes) never interleave
    /// within a line.
    pub fn put(&self, spec: &RunSpec, result: &RunResult) -> std::io::Result<()> {
        let material = fingerprint_material(spec);
        let fp = fnv1a(material.as_bytes());
        let mut line = Json::obj(vec![
            ("schema", Json::Str(ENTRY_SCHEMA.to_string())),
            ("fingerprint", Json::Str(format!("{fp:016x}"))),
            ("material", Json::Str(material)),
            ("run", result.to_json()),
        ])
        .render_compact();
        line.push('\n');
        // Opened per put, and without `create`: a cache whose directory or
        // log vanished is an error, never a silently fresh log.
        OpenOptions::new()
            .append(true)
            .open(self.dir.join(LOG_FILE))?
            .write_all(line.as_bytes())
    }

    /// Number of distinct fingerprints the log holds a line for.
    pub fn len(&self) -> usize {
        let mut log = self.log.lock();
        log.catch_up();
        log.lines.len()
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
