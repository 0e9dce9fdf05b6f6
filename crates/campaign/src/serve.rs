//! `campaign serve`: a persistent sweep service over a file-queue protocol.
//!
//! Dependency-freedom rules out sockets-plus-serde, so the wire is a
//! **spool directory** — the classic mail/printer-queue shape, which gets
//! atomicity from `rename(2)` instead of a connection protocol:
//!
//! ```text
//! spool/
//!   jobs/<id>.json      submitted jobs (written via temp + rename)
//!   active/<id>.json    claimed by the server (claim = atomic rename)
//!   results/<id>.jsonl  per-run records, streamed in completion order
//!   results/<id>.json   final v1 report, grid order, written atomically
//!   done/<id>.json      job summary (runs / executed / cache hits)
//!   stop                graceful-shutdown request marker
//! ```
//!
//! Any number of clients submit concurrently ([`Spool::submit_grid`] /
//! [`Spool::submit_specs`]); claiming moves the job file into `active/`,
//! so exactly one server instance owns each job even if several servers
//! share a spool.  The server executes every job through the shared
//! executor pool ([`crate::queue::ExecutorPool`]) and the
//! content-addressed run cache ([`crate::cache::RunCache`]): a re-submitted
//! sweep replays its cached runs verbatim and executes only the delta, and
//! because cached rows carry their originally measured values, the warm
//! final report is byte-identical to the cold one.
//!
//! Determinism split: `results/<id>.json` is in grid order and fully
//! deterministic (modulo informational fields); `results/<id>.jsonl` is in
//! *completion* order — it exists for progress streaming, not for gating.

use crate::cache::RunCache;
use crate::grid::CampaignGrid;
use crate::queue::ExecutorPool;
use crate::report::v1;
use crate::runner::run_batch;
use crate::spec::RunSpec;
use crate::Json;
use parking_lot::Mutex;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

/// Schema tag of job files.
pub const JOB_SCHEMA: &str = "ipr-job/1";
/// Schema tag of job summaries (`done/<id>.json`).
pub const SUMMARY_SCHEMA: &str = "ipr-serve/1";

/// A spool directory handle: the client *and* server side of the protocol.
pub struct Spool {
    root: PathBuf,
}

/// What became of one job: how much ran, how much replayed from cache.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSummary {
    /// Job id (the submitter chose it).
    pub id: String,
    /// Campaign name the job expanded to (grid name, or the job id for
    /// explicit spec lists).
    pub campaign: String,
    /// Total runs in the job.
    pub runs: usize,
    /// Runs actually executed (cache misses).
    pub executed: usize,
    /// Runs replayed from the cache.
    pub cache_hits: usize,
    /// Host wall-clock for the whole job, in milliseconds (informational).
    pub wall_ms: f64,
    /// Failure description if the job could not run (bad grid name,
    /// malformed or invalid spec list) or did not finish (a run panicked,
    /// a cache entry could not be written); `None` on success.
    pub error: Option<String>,
}

impl JobSummary {
    fn to_json(&self) -> Json {
        let mut fields = vec![
            ("schema", Json::Str(SUMMARY_SCHEMA.to_string())),
            ("id", Json::Str(self.id.clone())),
            ("campaign", Json::Str(self.campaign.clone())),
            ("runs", Json::Num(self.runs as f64)),
            ("executed", Json::Num(self.executed as f64)),
            ("cache_hits", Json::Num(self.cache_hits as f64)),
            ("wall_ms", Json::Num(self.wall_ms)),
        ];
        if let Some(e) = &self.error {
            fields.push(("error", Json::Str(e.clone())));
        }
        Json::obj(fields)
    }

    fn from_json(doc: &Json) -> Option<Self> {
        if doc.get("schema").and_then(Json::as_str) != Some(SUMMARY_SCHEMA) {
            return None;
        }
        let count = |k: &str| doc.get(k).and_then(Json::as_f64).map(|v| v as usize);
        Some(JobSummary {
            id: doc.get("id").and_then(Json::as_str)?.to_string(),
            campaign: doc.get("campaign").and_then(Json::as_str)?.to_string(),
            runs: count("runs")?,
            executed: count("executed")?,
            cache_hits: count("cache_hits")?,
            wall_ms: doc.get("wall_ms").and_then(Json::as_f64).unwrap_or(0.0),
            error: doc.get("error").and_then(Json::as_str).map(str::to_string),
        })
    }
}

/// Snapshot of a spool: what is queued, being executed, and finished.
#[derive(Debug, Clone, PartialEq)]
pub struct SpoolStatus {
    /// Submitted, unclaimed job ids (sorted).
    pub queued: Vec<String>,
    /// Jobs a server currently owns (sorted).
    pub active: Vec<String>,
    /// Finished jobs, by summary (sorted by id).
    pub done: Vec<JobSummary>,
}

fn valid_job_id(id: &str) -> bool {
    !id.is_empty()
        && id.len() <= 128
        && id
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.'))
        && !id.starts_with('.')
}

fn job_ids(dir: &Path) -> io::Result<Vec<String>> {
    let mut ids = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let name = entry?.file_name().to_string_lossy().into_owned();
        if let Some(id) = name.strip_suffix(".json") {
            if valid_job_id(id) {
                ids.push(id.to_string());
            }
        }
    }
    ids.sort();
    Ok(ids)
}

/// Writes `text` to `path` atomically (temp file in the same directory,
/// then rename).
fn write_atomic(path: &Path, text: &str) -> io::Result<()> {
    let dir = path.parent().unwrap_or_else(|| Path::new("."));
    let name = path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_default();
    let tmp = dir.join(format!(".tmp-{}-{name}", std::process::id()));
    std::fs::write(&tmp, text)?;
    std::fs::rename(&tmp, path)
}

impl Spool {
    /// Opens (creating if needed) the spool rooted at `root`.
    pub fn open(root: impl Into<PathBuf>) -> io::Result<Self> {
        let root = root.into();
        for sub in ["jobs", "active", "results", "done"] {
            std::fs::create_dir_all(root.join(sub))?;
        }
        Ok(Spool { root })
    }

    /// The spool root.
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn dir(&self, sub: &str) -> PathBuf {
        self.root.join(sub)
    }

    fn job_path(&self, sub: &str, id: &str) -> PathBuf {
        self.dir(sub).join(format!("{id}.json"))
    }

    /// Path of a job's final (grid-order, v1) report.
    pub fn result_path(&self, id: &str) -> PathBuf {
        self.job_path("results", id)
    }

    /// Path of a job's streaming JSONL record (completion order).
    pub fn stream_path(&self, id: &str) -> PathBuf {
        self.dir("results").join(format!("{id}.jsonl"))
    }

    fn submit(&self, id: &str, body: Json) -> io::Result<()> {
        if !valid_job_id(id) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("invalid job id '{id}' (use [A-Za-z0-9._-], not leading with '.')"),
            ));
        }
        for sub in ["jobs", "active", "done"] {
            if self.job_path(sub, id).exists() {
                return Err(io::Error::new(
                    io::ErrorKind::AlreadyExists,
                    format!("job '{id}' already exists in {sub}/"),
                ));
            }
        }
        write_atomic(&self.job_path("jobs", id), &body.render())
    }

    /// Submits a built-in grid by name as job `id`.
    pub fn submit_grid(&self, id: &str, grid: &str) -> io::Result<()> {
        self.submit(
            id,
            Json::obj(vec![
                ("schema", Json::Str(JOB_SCHEMA.to_string())),
                ("id", Json::Str(id.to_string())),
                ("grid", Json::Str(grid.to_string())),
            ]),
        )
    }

    /// Submits an explicit list of run specs as job `id`.  A seed above
    /// 2^53 is `InvalidInput`: the job file's number form would round it
    /// and the server would run a different seed than was submitted.
    pub fn submit_specs(&self, id: &str, specs: &[RunSpec]) -> io::Result<()> {
        if let Some(spec) = specs.iter().find(|s| s.seed > crate::json::MAX_EXACT_INT) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("spec {}: seed {} exceeds 2^53", spec.index, spec.seed),
            ));
        }
        self.submit(
            id,
            Json::obj(vec![
                ("schema", Json::Str(JOB_SCHEMA.to_string())),
                ("id", Json::Str(id.to_string())),
                (
                    "specs",
                    Json::Arr(specs.iter().map(RunSpec::to_json).collect()),
                ),
            ]),
        )
    }

    /// Asks a running server to finish its active jobs and exit.
    pub fn request_stop(&self) -> io::Result<()> {
        std::fs::write(self.root.join("stop"), "stop\n")
    }

    fn stop_requested(&self) -> bool {
        self.root.join("stop").exists()
    }

    fn clear_stop(&self) {
        let _ = std::fs::remove_file(self.root.join("stop"));
    }

    /// Takes a snapshot of the spool.
    pub fn status(&self) -> io::Result<SpoolStatus> {
        let mut done = Vec::new();
        for id in job_ids(&self.dir("done"))? {
            let text = std::fs::read_to_string(self.job_path("done", &id))?;
            if let Some(summary) = Json::parse(&text)
                .ok()
                .as_ref()
                .and_then(JobSummary::from_json)
            {
                done.push(summary);
            }
        }
        Ok(SpoolStatus {
            queued: job_ids(&self.dir("jobs"))?,
            active: job_ids(&self.dir("active"))?,
            done,
        })
    }

    /// Claims every currently queued job (atomic rename into `active/`);
    /// returns the claimed ids in sorted order.  A rename lost to another
    /// server instance is simply skipped.
    fn claim_all(&self) -> io::Result<Vec<String>> {
        let mut claimed = Vec::new();
        for id in job_ids(&self.dir("jobs"))? {
            if std::fs::rename(self.job_path("jobs", &id), self.job_path("active", &id)).is_ok() {
                claimed.push(id);
            }
        }
        Ok(claimed)
    }

    /// Moves orphaned `active/` jobs (a previous server died mid-job) back
    /// into `jobs/` so they run again.  Called once at server start, when
    /// no other server shares the spool.
    fn recover_orphans(&self) -> io::Result<()> {
        for id in job_ids(&self.dir("active"))? {
            let _ = std::fs::rename(self.job_path("active", &id), self.job_path("jobs", &id));
        }
        Ok(())
    }
}

/// Server tuning knobs.
pub struct ServeOptions {
    /// Executor-pool worker threads.
    pub workers: usize,
    /// Exit once the queue is empty instead of waiting for more jobs
    /// (batch mode; what `make serve-smoke` uses).
    pub drain: bool,
    /// Poll interval while idle.
    pub poll: Duration,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            workers: 4,
            drain: false,
            poll: Duration::from_millis(50),
        }
    }
}

fn expand_job(doc: &Json, id: &str) -> Result<(String, String, Vec<RunSpec>), String> {
    if doc.get("schema").and_then(Json::as_str) != Some(JOB_SCHEMA) {
        return Err(format!("job '{id}': missing schema tag \"{JOB_SCHEMA}\""));
    }
    if let Some(grid_name) = doc.get("grid").and_then(Json::as_str) {
        let grid = CampaignGrid::by_name(grid_name)
            .ok_or_else(|| format!("job '{id}': unknown grid '{grid_name}'"))?;
        return Ok((
            grid.name.clone(),
            grid.scale.name().to_string(),
            grid.expand(),
        ));
    }
    if let Some(items) = doc.get("specs").and_then(Json::as_arr) {
        let specs = items
            .iter()
            .enumerate()
            .map(|(i, item)| RunSpec::from_json(i, item))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("job '{id}': {e}"))?;
        let scale = match specs.as_slice() {
            [] => "none".to_string(),
            [first, rest @ ..] if rest.iter().all(|s| s.scale == first.scale) => {
                first.scale.name().to_string()
            }
            _ => "mixed".to_string(),
        };
        return Ok((id.to_string(), scale, specs));
    }
    Err(format!("job '{id}': neither 'grid' nor 'specs' present"))
}

fn process_job(
    spool: &Spool,
    pool: &ExecutorPool,
    cache: &Arc<RunCache>,
    id: &str,
) -> io::Result<JobSummary> {
    let started = std::time::Instant::now();
    let fail = |campaign: &str, error: String| JobSummary {
        id: id.to_string(),
        campaign: campaign.to_string(),
        runs: 0,
        executed: 0,
        cache_hits: 0,
        wall_ms: 0.0,
        error: Some(error),
    };
    let text = std::fs::read_to_string(spool.job_path("active", id))?;
    let summary = match Json::parse(&text)
        .map_err(|e| format!("job '{id}': unparsable: {e}"))
        .and_then(|doc| expand_job(&doc, id))
    {
        Err(error) => fail(id, error),
        Ok((campaign, scale, specs)) => {
            // Stream per-run records (completion order) while the batch runs.
            let mut stream = std::fs::File::create(spool.stream_path(id))?;
            let batch = run_batch(pool, &specs, Some(cache), |index, cached, run| {
                let mut line = Json::obj(vec![
                    ("index", Json::Num(index as f64)),
                    ("cached", Json::Bool(cached)),
                    ("run", run.to_json()),
                ])
                .render_compact();
                // One write per record: a reader tailing the stream never
                // sees a record without its newline.
                line.push('\n');
                let _ = stream.write_all(line.as_bytes());
            });
            match batch {
                // A run that panicked or a cache that cannot be written
                // fails this job, on record; the server keeps serving.
                Err(e) => fail(&campaign, format!("job '{id}': {e}")),
                Ok(batch) => {
                    let report = v1::Report {
                        campaign: campaign.clone(),
                        scale,
                        runs: batch.runs,
                    };
                    write_atomic(&spool.result_path(id), &report.to_json().render())?;
                    JobSummary {
                        id: id.to_string(),
                        campaign,
                        runs: report.runs.len(),
                        executed: batch.executed,
                        cache_hits: batch.hits,
                        wall_ms: started.elapsed().as_secs_f64() * 1e3,
                        error: None,
                    }
                }
            }
        }
    };
    write_atomic(&spool.job_path("done", id), &summary.to_json().render())?;
    std::fs::remove_file(spool.job_path("active", id))?;
    Ok(summary)
}

/// Runs the server loop over `spool`: claim queued jobs, execute them on
/// one shared executor pool through the run cache, repeat.  Returns the
/// summaries of every job processed in this session, in completion order.
///
/// Exits when a stop marker appears ([`Spool::request_stop`]; consumed on
/// exit) or, with [`ServeOptions::drain`], as soon as the queue is empty.
pub fn serve(
    spool: &Spool,
    cache: &Arc<RunCache>,
    options: &ServeOptions,
) -> io::Result<Vec<JobSummary>> {
    spool.recover_orphans()?;
    let pool = ExecutorPool::new(options.workers);
    let summaries: Mutex<Vec<JobSummary>> = Mutex::new(Vec::new());
    let failure: Mutex<Option<io::Error>> = Mutex::new(None);
    loop {
        let claimed = spool.claim_all()?;
        if claimed.is_empty() {
            if options.drain || spool.stop_requested() {
                break;
            }
            std::thread::sleep(options.poll);
            continue;
        }
        // One coordinator thread per claimed job: jobs run *concurrently*
        // (their runs interleave on the shared pool), so one huge sweep
        // does not starve a small one submitted after it.
        std::thread::scope(|scope| {
            for id in &claimed {
                scope.spawn(|| match process_job(spool, &pool, cache, id) {
                    Ok(summary) => summaries.lock().push(summary),
                    Err(e) => {
                        failure.lock().get_or_insert(e);
                    }
                });
            }
        });
        if let Some(e) = failure.lock().take() {
            pool.shutdown();
            return Err(e);
        }
        if spool.stop_requested() {
            break;
        }
    }
    pool.shutdown();
    spool.clear_stop();
    Ok(summaries.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_ids_are_validated() {
        assert!(valid_job_id("smoke-1"));
        assert!(valid_job_id("a.b_c-3"));
        assert!(!valid_job_id(""));
        assert!(!valid_job_id(".hidden"));
        assert!(!valid_job_id("a/b"));
        assert!(!valid_job_id("a b"));
        assert!(!valid_job_id(&"x".repeat(200)));
    }

    #[test]
    fn summaries_round_trip_through_json() {
        let summary = JobSummary {
            id: "first".into(),
            campaign: "smoke".into(),
            runs: 12,
            executed: 12,
            cache_hits: 0,
            wall_ms: 81.5,
            error: None,
        };
        assert_eq!(
            JobSummary::from_json(&summary.to_json()),
            Some(summary.clone())
        );
        let failed = JobSummary {
            error: Some("job 'first': unknown grid 'nope'".into()),
            ..summary
        };
        assert_eq!(JobSummary::from_json(&failed.to_json()), Some(failed));
        // Wrong schema tag: not a summary.
        let alien = Json::obj(vec![("schema", Json::Str("ipr-report/1".into()))]);
        assert_eq!(JobSummary::from_json(&alien), None);
    }
}
