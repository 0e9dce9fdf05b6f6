//! Machine-readable campaign reports: one versioned data model.
//!
//! Everything a campaign produces — the per-run rows, the JSON/CSV
//! renderings, the golden baselines, the run-cache entries and the serve
//! protocol's streaming results — serializes through the [`v1`] model: a
//! schema-tagged envelope (`"schema": "ipr-report/1"`) around
//! [`v1::RunRecord`] rows.  Each row type declares its columns once, in
//! one table in JSON/CSV order (`v1::RUN_COLUMNS` here, `weak::COLUMNS`
//! for the weak-scaling rows): a column's name, its *class* (discrete /
//! metric / informational) and its cell in a row, or "absent" when the row
//! leaves it out.  The JSON and CSV renderings walk the tables, and the
//! tolerance diff ([`crate::diff`]) and the golden gates look classes up in
//! them: a new column is one table entry, and a key no table declares is
//! compared exactly whatever its spelling.
//!
//! [`CampaignReport`] is the historical name of the classic grid's
//! envelope and remains the constructor-friendly alias of [`v1::Report`].

pub use v1::Report as CampaignReport;

/// Version 1 of the report model (`ipr-report/1`).
///
/// The schema version participates in the run-cache fingerprint
/// ([`crate::cache::fingerprint`]), so bumping it invalidates every cached
/// run — a report produced under one schema can never be replayed as
/// another.
pub mod v1 {
    use crate::json::Json;
    use crate::spec::{mode_label, RunSpec};
    use intra_replication::RunReport;

    /// The version tag carried by every report envelope.
    pub const SCHEMA: &str = "ipr-report/1";

    /// Semantic class of a report column, declared in its row's table.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub(crate) enum FieldClass {
        /// Deterministic and discrete (ids, labels, seeds, counts):
        /// compared exactly by the diff, at any tolerance.
        Discrete,
        /// Deterministic and continuous (virtual times, residuals):
        /// compared under the diff's relative tolerance.
        Metric,
        /// Host-side measurement (wall clocks, scheduler dispatch counts):
        /// non-deterministic by nature, ignored by the diff entirely.
        Informational,
    }

    pub(crate) use FieldClass::{Discrete, Informational, Metric};

    /// One row's value in one column.
    #[derive(Debug, Clone, Copy)]
    pub(crate) enum Cell<'a> {
        /// A label.
        Text(&'a str),
        /// A count or seed (exact in the CSV, a number in the JSON).
        Count(u64),
        /// A continuous value.
        Num(f64),
        /// Left out of this row: no JSON key, and this text in the CSV.
        Absent(&'static str),
    }

    impl Cell<'_> {
        fn to_json(self) -> Option<Json> {
            match self {
                Cell::Text(s) => Some(Json::Str(s.to_string())),
                Cell::Count(n) => Some(Json::Num(n as f64)),
                Cell::Num(v) => Some(Json::Num(v)),
                Cell::Absent(_) => None,
            }
        }

        fn write_csv(self, out: &mut String) -> std::fmt::Result {
            use std::fmt::Write as _;
            match self {
                Cell::Text(s) | Cell::Absent(s) => out.write_str(s),
                Cell::Count(n) => write!(out, "{n}"),
                Cell::Num(v) => write!(out, "{v}"),
            }
        }
    }

    /// One declared column of the row type `R`: its stable name (the JSON
    /// key and the CSV header), its class, and its cell in a row.
    pub(crate) struct Column<R> {
        pub(crate) name: &'static str,
        pub(crate) class: FieldClass,
        pub(crate) cell: fn(&R) -> Cell<'_>,
    }

    pub(crate) const fn col<R>(
        name: &'static str,
        class: FieldClass,
        cell: fn(&R) -> Cell<'_>,
    ) -> Column<R> {
        Column { name, class, cell }
    }

    /// A row as a JSON object: the columns it carries, in table order.
    pub(crate) fn row_to_json<R>(columns: &[Column<R>], row: &R) -> Json {
        let mut fields = Vec::with_capacity(columns.len());
        for c in columns {
            if let Some(value) = (c.cell)(row).to_json() {
                fields.push((c.name.to_string(), value));
            }
        }
        Json::Obj(fields)
    }

    /// A checkpoint column's cell; absent, written as `zero` in the CSV, on
    /// a checkpoint-free run.
    fn ckpt<'a>(
        r: &'a RunRecord,
        zero: &'static str,
        cell: fn(&'a CkptColumns) -> Cell<'a>,
    ) -> Cell<'a> {
        r.ckpt.as_ref().map_or(Cell::Absent(zero), cell)
    }

    /// The columns of a [`RunRecord`], in JSON and CSV order.  The
    /// checkpoint columns are absent on checkpoint-free runs, so their
    /// reports (and golden baselines) stay byte-identical.
    #[rustfmt::skip]
    pub(crate) const RUN_COLUMNS: &[Column<RunRecord>] = &[
        col("id", Discrete, |r| Cell::Text(&r.id)),
        col("app", Discrete, |r| Cell::Text(&r.app)),
        col("scale", Discrete, |r| Cell::Text(&r.scale)),
        col("mode", Discrete, |r| Cell::Text(&r.mode)),
        col("scheduler", Discrete, |r| Cell::Text(&r.scheduler)),
        col("failure", Discrete, |r| Cell::Text(&r.failure)),
        col("seed", Discrete, |r| Cell::Count(r.seed)),
        col("procs", Discrete, |r| Cell::Count(r.procs as u64)),
        col("completed", Discrete, |r| Cell::Count(r.completed as u64)),
        col("crashed", Discrete, |r| Cell::Count(r.crashed as u64)),
        col("errored", Discrete, |r| Cell::Count(r.errored as u64)),
        col("failure_events", Discrete, |r| Cell::Count(r.failure_events as u64)),
        col("scheduled_crashes", Discrete, |r| Cell::Count(r.scheduled_crashes as u64)),
        col("makespan_s", Metric, |r| Cell::Num(r.makespan_s)),
        col("section_s", Metric, |r| Cell::Num(r.section_s)),
        col("update_drain_s", Metric, |r| Cell::Num(r.update_drain_s)),
        col("tasks_executed", Discrete, |r| Cell::Count(r.tasks_executed as u64)),
        col("tasks_received", Discrete, |r| Cell::Count(r.tasks_received as u64)),
        col("tasks_reexecuted", Discrete, |r| Cell::Count(r.tasks_reexecuted as u64)),
        col("update_bytes_sent", Discrete, |r| Cell::Count(r.update_bytes_sent as u64)),
        col("verification", Metric, |r| Cell::Num(r.verification)),
        col("ckpt", Discrete, |r| ckpt(r, "", |c| Cell::Text(&c.ckpt))),
        col("checkpoints", Discrete, |r| ckpt(r, "0", |c| Cell::Count(c.checkpoints as u64))),
        col("recoveries", Discrete, |r| ckpt(r, "0", |c| Cell::Count(c.recoveries as u64))),
        col("time_lost_s", Metric, |r| ckpt(r, "0", |c| Cell::Num(c.time_lost_s))),
        col("ckpt_overhead_s", Metric, |r| ckpt(r, "0", |c| Cell::Num(c.ckpt_overhead_s))),
        col("efficiency", Metric, |r| ckpt(r, "0", |c| Cell::Num(c.efficiency))),
        col("wall_time_ms", Informational, |r| Cell::Num(r.wall_time_ms)),
    ];

    /// The declared class of a column name, from the [`RunRecord`] table
    /// or the weak-scaling row table, if either declares it.  Envelope keys
    /// (`schema`, `campaign`, `sweep`, `runs`) are undeclared and compared
    /// exactly.
    pub(crate) fn field_class(name: &str) -> Option<FieldClass> {
        let run = RUN_COLUMNS.iter().map(|c| (c.name, c.class));
        let weak = crate::weak::COLUMNS.iter().map(|c| (c.name, c.class));
        run.chain(weak)
            .find(|&(n, _)| n == name)
            .map(|(_, class)| class)
    }

    /// True if a column table declares `name` as informational.
    pub(crate) fn is_informational(name: &str) -> bool {
        field_class(name) == Some(Informational)
    }

    /// A typed schema-envelope violation: the version tag of a document is
    /// missing, unknown, or does not match its counterpart.  Produced by
    /// `check_envelope` and [`crate::diff::diff_documents`] so that tools
    /// reject incompatible reports instead of silently comparing them.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum SchemaError {
        /// The document carries no string `schema` field.
        Missing {
            /// Which document ("baseline", "candidate", a path, …).
            which: String,
        },
        /// The document's schema tag is not a version this build knows.
        Unknown {
            /// Which document.
            which: String,
            /// The tag found.
            found: String,
        },
        /// Baseline and candidate carry different schema tags.
        Mismatch {
            /// The baseline's tag.
            baseline: String,
            /// The candidate's tag.
            candidate: String,
        },
    }

    impl std::fmt::Display for SchemaError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            match self {
                SchemaError::Missing { which } => {
                    write!(
                        f,
                        "{which}: no 'schema' version tag (expected \"{SCHEMA}\")"
                    )
                }
                SchemaError::Unknown { which, found } => {
                    write!(
                        f,
                        "{which}: unknown schema \"{found}\" (expected \"{SCHEMA}\")"
                    )
                }
                SchemaError::Mismatch {
                    baseline,
                    candidate,
                } => write!(
                    f,
                    "schema mismatch: baseline is \"{baseline}\", candidate is \"{candidate}\""
                ),
            }
        }
    }

    impl std::error::Error for SchemaError {}

    /// The schema tag of a document, if it carries one.
    pub fn document_schema(doc: &Json) -> Option<&str> {
        doc.get("schema").and_then(Json::as_str)
    }

    /// Validates that `doc` carries this build's schema tag.
    pub(crate) fn check_envelope(doc: &Json, which: &str) -> Result<(), SchemaError> {
        match document_schema(doc) {
            None => Err(SchemaError::Missing {
                which: which.to_string(),
            }),
            Some(tag) if tag != SCHEMA => Err(SchemaError::Unknown {
                which: which.to_string(),
                found: tag.to_string(),
            }),
            Some(_) => Ok(()),
        }
    }

    /// The checkpoint/restart columns of one run, present only on
    /// checkpointed runs: their `RUN_COLUMNS` entries are absent on a
    /// checkpoint-free run, so checkpoint-free reports (and their golden
    /// baselines) stay byte-identical across campaign versions.
    #[derive(Debug, Clone, PartialEq)]
    pub struct CkptColumns {
        /// Checkpoint-plan label (`CheckpointPlan::label`).
        pub ckpt: String,
        /// Coordinated checkpoints committed.
        pub checkpoints: usize,
        /// Rollback-recoveries performed.
        pub recoveries: usize,
        /// Virtual seconds lost to rollbacks (restarts + re-executed work).
        pub time_lost_s: f64,
        /// Virtual seconds spent writing checkpoints.
        pub ckpt_overhead_s: f64,
        /// Useful time per resource:
        /// `(makespan - time_lost - ckpt_overhead) / (makespan * degree)`.
        pub efficiency: f64,
    }

    /// One run of a campaign, as the v1 model records it (all fields
    /// except `wall_time_ms` are deterministic functions of the
    /// [`RunSpec`]).  This is the single row type the classic grid's JSON
    /// and CSV, the run cache and the serve protocol all share.
    #[derive(Debug, Clone, PartialEq)]
    pub struct RunRecord {
        /// Run id ([`RunSpec::id`]).
        pub id: String,
        /// Application name.
        pub app: String,
        /// Scale preset name.
        pub scale: String,
        /// Mode label (with degree).
        pub mode: String,
        /// Scheduler name.
        pub scheduler: String,
        /// Failure-spec label.
        pub failure: String,
        /// Run seed.
        pub seed: u64,
        /// Physical processes simulated.
        pub procs: usize,
        /// Ranks that completed the application.
        pub completed: usize,
        /// Ranks that crashed through failure injection.
        pub crashed: usize,
        /// Ranks that failed for any other reason (e.g. peers of a crashed
        /// native rank observing `ProcessFailed`).
        pub errored: usize,
        /// Crash-stop failure events recorded by the cluster.
        pub failure_events: usize,
        /// Timed crashes the failure plan scheduled before the run started
        /// (`Experiment::scheduled_crashes().len()`): a pure function of the
        /// spec, so diffed exactly like every other deterministic column.
        /// Not every scheduled crash fires — a rank that finishes before its
        /// crash time survives — which is why this is reported next to
        /// `failure_events`.
        pub scheduled_crashes: usize,
        /// Virtual makespan over the surviving ranks, in seconds.
        pub makespan_s: f64,
        /// Mean virtual time inside intra-parallel sections over completed
        /// ranks, in seconds.
        pub section_s: f64,
        /// Mean virtual update-drain time over completed ranks, in seconds.
        pub update_drain_s: f64,
        /// Total tasks executed locally (summed over completed ranks).
        pub tasks_executed: usize,
        /// Total task results received from peer replicas.
        pub tasks_received: usize,
        /// Total tasks re-executed because their owner crashed.
        pub tasks_reexecuted: usize,
        /// Total modeled update bytes sent between replicas.
        pub update_bytes_sent: usize,
        /// Application verification value (max over completed ranks; 0 when
        /// no rank completed).
        pub verification: f64,
        /// Checkpoint/restart columns, for checkpointed runs only.
        pub ckpt: Option<CkptColumns>,
        /// Host wall-clock time this run took to simulate, in milliseconds.
        /// *Informational only* (see `FieldClass::Informational`): a cache
        /// hit replays the value recorded when the run actually executed.
        pub wall_time_ms: f64,
    }

    impl RunRecord {
        /// Folds a facade [`RunReport`] into the flat v1 row for `spec`.
        pub fn from_run(spec: &RunSpec, scheduled_crashes: usize, report: &RunReport) -> Self {
            let ckpt = match (spec.ckpt, report.ckpt) {
                (Some(plan), Some(stats)) => Some(CkptColumns {
                    ckpt: plan.label(),
                    checkpoints: stats.checkpoints,
                    recoveries: stats.recoveries,
                    time_lost_s: stats.time_lost_s,
                    ckpt_overhead_s: stats.ckpt_overhead_s,
                    efficiency: stats.efficiency(report.makespan_s, spec.mode.degree()),
                }),
                _ => None,
            };
            RunRecord {
                id: spec.id(),
                app: spec.app.name().to_string(),
                scale: spec.scale.name().to_string(),
                mode: mode_label(spec.mode),
                scheduler: spec.scheduler.to_string(),
                failure: spec.failure.label(),
                seed: spec.seed,
                procs: report.procs,
                completed: report.completed(),
                crashed: report.crashed(),
                errored: report.errored(),
                failure_events: report.failure_events,
                scheduled_crashes,
                makespan_s: report.makespan_s,
                section_s: report.mean_section_s(),
                update_drain_s: report.mean_update_drain_s(),
                tasks_executed: report.tasks_executed(),
                tasks_received: report.tasks_received(),
                tasks_reexecuted: report.tasks_reexecuted(),
                update_bytes_sent: report.update_bytes_sent(),
                verification: report.verification(),
                ckpt,
                wall_time_ms: report.wall_time_ms,
            }
        }

        /// The record as a JSON object, in `RUN_COLUMNS` order (the
        /// checkpoint columns appear only on checkpointed runs).
        pub fn to_json(&self) -> Json {
            row_to_json(RUN_COLUMNS, self)
        }

        /// Parses a record serialized by [`RunRecord::to_json`].  A missing
        /// `wall_time_ms` (stripped documents) parses as `0.0`; every
        /// deterministic field is required.
        pub(crate) fn from_json(doc: &Json) -> Result<Self, String> {
            let str_field = |name: &str| -> Result<String, String> {
                doc.get(name)
                    .and_then(Json::as_str)
                    .map(str::to_string)
                    .ok_or_else(|| format!("run record: missing string field '{name}'"))
            };
            let num = |name: &str| -> Result<f64, String> {
                doc.get(name)
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("run record: missing numeric field '{name}'"))
            };
            let int = |name: &str| -> Result<u64, String> {
                doc.get(name).and_then(Json::as_exact_u64).ok_or_else(|| {
                    format!("run record: field '{name}' must be an integer in 0..=2^53")
                })
            };
            let count = |name: &str| -> Result<usize, String> { Ok(int(name)? as usize) };
            let ckpt = if doc.get("ckpt").is_some() {
                Some(CkptColumns {
                    ckpt: str_field("ckpt")?,
                    checkpoints: count("checkpoints")?,
                    recoveries: count("recoveries")?,
                    time_lost_s: num("time_lost_s")?,
                    ckpt_overhead_s: num("ckpt_overhead_s")?,
                    efficiency: num("efficiency")?,
                })
            } else {
                None
            };
            Ok(RunRecord {
                id: str_field("id")?,
                app: str_field("app")?,
                scale: str_field("scale")?,
                mode: str_field("mode")?,
                scheduler: str_field("scheduler")?,
                failure: str_field("failure")?,
                seed: int("seed")?,
                procs: count("procs")?,
                completed: count("completed")?,
                crashed: count("crashed")?,
                errored: count("errored")?,
                failure_events: count("failure_events")?,
                scheduled_crashes: count("scheduled_crashes")?,
                makespan_s: num("makespan_s")?,
                section_s: num("section_s")?,
                update_drain_s: num("update_drain_s")?,
                tasks_executed: count("tasks_executed")?,
                tasks_received: count("tasks_received")?,
                tasks_reexecuted: count("tasks_reexecuted")?,
                update_bytes_sent: count("update_bytes_sent")?,
                verification: num("verification")?,
                ckpt,
                wall_time_ms: doc
                    .get("wall_time_ms")
                    .and_then(Json::as_f64)
                    .unwrap_or(0.0),
            })
        }
    }

    /// The aggregated result of one campaign execution: the v1 envelope.
    #[derive(Debug, Clone, PartialEq)]
    pub struct Report {
        /// Grid name.
        pub campaign: String,
        /// Scale preset name.
        pub scale: String,
        /// Per-run results in grid order.
        pub runs: Vec<RunRecord>,
    }

    impl Report {
        /// The report as a JSON document, led by the `schema` version tag.
        /// Rendering [`Json::render`] of this value is byte-deterministic,
        /// which is what the golden-baseline gate compares against.
        pub fn to_json(&self) -> Json {
            Json::obj(vec![
                ("schema", Json::Str(SCHEMA.to_string())),
                ("campaign", Json::Str(self.campaign.clone())),
                ("scale", Json::Str(self.scale.clone())),
                (
                    "runs",
                    Json::Arr(self.runs.iter().map(RunRecord::to_json).collect()),
                ),
            ])
        }

        /// Parses a document produced by [`Report::to_json`], validating
        /// the schema envelope first.
        pub fn from_json(doc: &Json) -> Result<Self, String> {
            check_envelope(doc, "report").map_err(|e| e.to_string())?;
            let field = |name: &str| -> Result<String, String> {
                doc.get(name)
                    .and_then(Json::as_str)
                    .map(str::to_string)
                    .ok_or_else(|| format!("report: missing string field '{name}'"))
            };
            let runs = doc
                .get("runs")
                .and_then(Json::as_arr)
                .ok_or("report: missing 'runs' array")?
                .iter()
                .map(RunRecord::from_json)
                .collect::<Result<Vec<_>, _>>()?;
            Ok(Report {
                campaign: field("campaign")?,
                scale: field("scale")?,
                runs,
            })
        }

        /// The report as CSV (header + one row per run, `RUN_COLUMNS`
        /// order), deterministic.  Every row carries every column: an
        /// absent checkpoint column is written as an empty label or a `0`.
        pub fn to_csv(&self) -> String {
            let names: Vec<&str> = RUN_COLUMNS.iter().map(|c| c.name).collect();
            let mut out = names.join(",");
            out.push('\n');
            for r in &self.runs {
                for (i, c) in RUN_COLUMNS.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    let _ = (c.cell)(r).write_csv(&mut out);
                }
                out.push('\n');
            }
            out
        }
    }
}

#[cfg(test)]
mod tests {
    use super::v1::{self, FieldClass, RunRecord};
    use super::CampaignReport;
    use crate::json::Json;

    fn sample_record() -> RunRecord {
        RunRecord {
            id: "hpccg-tiny-native-static-block-none-s42".into(),
            app: "hpccg".into(),
            scale: "tiny".into(),
            mode: "native".into(),
            scheduler: "static-block".into(),
            failure: "none".into(),
            seed: 42,
            procs: 2,
            completed: 2,
            crashed: 0,
            errored: 0,
            failure_events: 0,
            scheduled_crashes: 0,
            makespan_s: 1.5,
            section_s: 0.75,
            update_drain_s: 0.25,
            tasks_executed: 64,
            tasks_received: 0,
            tasks_reexecuted: 0,
            update_bytes_sent: 0,
            verification: 1e-6,
            ckpt: None,
            wall_time_ms: 12.5,
        }
    }

    fn checkpointed_record() -> RunRecord {
        RunRecord {
            id: "hpccg-tiny-native-static-block-none-s42-daly-c0.005-r0.01".into(),
            failure: "poisson-weibull-0.7-1-h1".into(),
            ckpt: Some(v1::CkptColumns {
                ckpt: "daly-c0.005-r0.01".into(),
                checkpoints: 3,
                recoveries: 1,
                time_lost_s: 0.04,
                ckpt_overhead_s: 0.015,
                efficiency: 0.9,
            }),
            ..sample_record()
        }
    }

    fn sample() -> CampaignReport {
        CampaignReport {
            campaign: "smoke".into(),
            scale: "tiny".into(),
            runs: vec![sample_record()],
        }
    }

    #[test]
    fn json_rendering_is_parsable_stable_and_schema_tagged() {
        let report = sample();
        let text = report.to_json().render();
        let parsed = Json::parse(&text).unwrap();
        assert_eq!(
            v1::document_schema(&parsed),
            Some(v1::SCHEMA),
            "the envelope leads with the schema version tag"
        );
        assert_eq!(parsed.get("campaign").and_then(Json::as_str), Some("smoke"));
        let runs = parsed.get("runs").and_then(Json::as_arr).unwrap();
        assert_eq!(runs.len(), 1);
        assert_eq!(runs[0].get("procs").and_then(Json::as_f64), Some(2.0));
        assert_eq!(parsed.render(), text);
        // And the whole envelope round-trips through the typed model.
        assert_eq!(CampaignReport::from_json(&parsed).unwrap(), report);
    }

    #[test]
    fn run_records_round_trip_through_json() {
        let record = sample_record();
        let doc = record.to_json();
        assert_eq!(RunRecord::from_json(&doc).unwrap(), record);
        // A stripped record (no wall clock) still parses; the host field
        // defaults to zero.
        let mut stripped = doc.clone();
        crate::diff::strip_informational(&mut stripped);
        let parsed = RunRecord::from_json(&stripped).unwrap();
        assert_eq!(parsed.wall_time_ms, 0.0);
        assert_eq!(
            RunRecord {
                wall_time_ms: 0.0,
                ..record
            },
            parsed
        );
        // A missing deterministic field is an error, not a default.
        let broken = Json::obj(vec![("id", Json::Str("x".into()))]);
        assert!(RunRecord::from_json(&broken).is_err());
        // A count or seed the number form cannot carry exactly is an
        // error, not a saturated or truncated different value.
        for (field, value) in [
            ("procs", -3.0),
            ("seed", -1.0),
            ("completed", 1.5),
            ("update_bytes_sent", 1e300),
        ] {
            let mut damaged = doc.clone();
            if let Json::Obj(fields) = &mut damaged {
                fields.iter_mut().find(|(k, _)| k == field).unwrap().1 = Json::Num(value);
            }
            let err = RunRecord::from_json(&damaged).unwrap_err();
            assert!(err.contains(field), "{field}: {err}");
        }
    }

    #[test]
    fn envelope_validation_is_typed() {
        let good = sample().to_json();
        assert!(v1::check_envelope(&good, "report").is_ok());
        let missing = Json::obj(vec![("campaign", Json::Str("x".into()))]);
        assert_eq!(
            v1::check_envelope(&missing, "baseline"),
            Err(v1::SchemaError::Missing {
                which: "baseline".into()
            })
        );
        let unknown = Json::obj(vec![("schema", Json::Str("ipr-report/9".into()))]);
        assert_eq!(
            v1::check_envelope(&unknown, "candidate"),
            Err(v1::SchemaError::Unknown {
                which: "candidate".into(),
                found: "ipr-report/9".into()
            })
        );
        assert!(CampaignReport::from_json(&missing).is_err());
    }

    #[test]
    fn a_name_both_row_types_declare_has_one_class() {
        // The diff looks classes up by name, so a column the classic and
        // the weak-scaling rows share must mean the same in both.
        let weak = crate::weak::COLUMNS;
        let mut shared = 0;
        for run in v1::RUN_COLUMNS {
            for w in weak.iter().filter(|w| w.name == run.name) {
                assert_eq!(run.class, w.class, "'{}' has two classes", run.name);
                shared += 1;
            }
        }
        assert_eq!(shared, 11, "id … failure_events, makespan_s, wall_time_ms");
        // No table declares a name twice.
        for names in [
            v1::RUN_COLUMNS.iter().map(|c| c.name).collect::<Vec<_>>(),
            weak.iter().map(|c| c.name).collect(),
        ] {
            let mut unique = names.clone();
            unique.sort_unstable();
            unique.dedup();
            assert_eq!(unique.len(), names.len(), "{names:?}");
        }
        // Spot checks of the three classes.
        assert_eq!(v1::field_class("seed"), Some(FieldClass::Discrete));
        assert_eq!(v1::field_class("makespan_s"), Some(FieldClass::Metric));
        assert_eq!(v1::field_class("mean_wait_s"), Some(FieldClass::Metric));
        assert!(v1::is_informational("wall_time_ms"));
        assert!(v1::is_informational("dispatches"));
        assert!(!v1::is_informational("makespan_s"));
        assert_eq!(v1::field_class("bogus"), None);
    }

    #[test]
    fn checkpoint_columns_serialize_conditionally_and_round_trip() {
        // Checkpoint-free records carry no ckpt keys at all — that is what
        // keeps pre-existing golden baselines byte-identical.
        let plain = sample_record().to_json();
        for key in [
            "ckpt",
            "checkpoints",
            "recoveries",
            "time_lost_s",
            "ckpt_overhead_s",
            "efficiency",
        ] {
            assert!(plain.get(key).is_none(), "unexpected '{key}' field");
        }
        // Checkpointed records serialize and round-trip the columns, with
        // wall_time_ms kept last.
        let record = checkpointed_record();
        let doc = record.to_json();
        assert_eq!(
            doc.get("ckpt").and_then(Json::as_str),
            Some("daly-c0.005-r0.01")
        );
        assert_eq!(doc.get("checkpoints").and_then(Json::as_f64), Some(3.0));
        if let Json::Obj(fields) = &doc {
            assert_eq!(fields.last().unwrap().0, "wall_time_ms");
        }
        assert_eq!(RunRecord::from_json(&doc).unwrap(), record);
        // The CSV export always carries the columns (empty for
        // checkpoint-free rows); it is a convenience view, never gated.
        let report = CampaignReport {
            campaign: "ckpt".into(),
            scale: "tiny".into(),
            runs: vec![sample_record(), checkpointed_record()],
        };
        let csv = report.to_csv();
        assert!(csv.lines().next().unwrap().contains(",ckpt,checkpoints,"));
        assert!(csv.contains(",daly-c0.005-r0.01,3,1,"));
    }

    #[test]
    fn csv_and_compact_json_bytes_are_pinned() {
        // One checkpoint-free row and one checkpointed row whose numbers
        // need the shortest round-trip form (`0.1 + 0.2`, `1e-7`) and whose
        // seed is above 2^53: the CSV prints the seed exactly, the JSON
        // number form cannot.
        let checkpointed = RunRecord {
            seed: (1 << 53) + 1,
            makespan_s: 0.1 + 0.2,
            verification: 1e-7,
            ..checkpointed_record()
        };
        let report = CampaignReport {
            campaign: "ckpt".into(),
            scale: "tiny".into(),
            runs: vec![sample_record(), checkpointed],
        };
        assert_eq!(
            report.to_csv(),
            "id,app,scale,mode,scheduler,failure,seed,procs,completed,crashed,errored,\
             failure_events,scheduled_crashes,makespan_s,section_s,update_drain_s,\
             tasks_executed,tasks_received,tasks_reexecuted,update_bytes_sent,verification,\
             ckpt,checkpoints,recoveries,time_lost_s,ckpt_overhead_s,efficiency,wall_time_ms\n\
             hpccg-tiny-native-static-block-none-s42,hpccg,tiny,native,static-block,none,\
             42,2,2,0,0,0,0,1.5,0.75,0.25,64,0,0,0,0.000001,,0,0,0,0,0,12.5\n\
             hpccg-tiny-native-static-block-none-s42-daly-c0.005-r0.01,hpccg,tiny,native,\
             static-block,poisson-weibull-0.7-1-h1,9007199254740993,2,2,0,0,0,0,\
             0.30000000000000004,0.75,0.25,64,0,0,0,0.0000001,daly-c0.005-r0.01,3,1,0.04,\
             0.015,0.9,12.5\n"
        );
        assert_eq!(
            report.runs[0].to_json().render_compact(),
            "{\"id\": \"hpccg-tiny-native-static-block-none-s42\", \"app\": \"hpccg\", \
             \"scale\": \"tiny\", \"mode\": \"native\", \"scheduler\": \"static-block\", \
             \"failure\": \"none\", \"seed\": 42, \"procs\": 2, \"completed\": 2, \
             \"crashed\": 0, \"errored\": 0, \"failure_events\": 0, \"scheduled_crashes\": 0, \
             \"makespan_s\": 1.5, \"section_s\": 0.75, \"update_drain_s\": 0.25, \
             \"tasks_executed\": 64, \"tasks_received\": 0, \"tasks_reexecuted\": 0, \
             \"update_bytes_sent\": 0, \"verification\": 0.000001, \"wall_time_ms\": 12.5}"
        );
        assert_eq!(
            report.runs[1].to_json().render_compact(),
            "{\"id\": \"hpccg-tiny-native-static-block-none-s42-daly-c0.005-r0.01\", \
             \"app\": \"hpccg\", \"scale\": \"tiny\", \"mode\": \"native\", \
             \"scheduler\": \"static-block\", \"failure\": \"poisson-weibull-0.7-1-h1\", \
             \"seed\": 9007199254740992, \"procs\": 2, \"completed\": 2, \"crashed\": 0, \
             \"errored\": 0, \"failure_events\": 0, \"scheduled_crashes\": 0, \
             \"makespan_s\": 0.30000000000000004, \"section_s\": 0.75, \
             \"update_drain_s\": 0.25, \"tasks_executed\": 64, \"tasks_received\": 0, \
             \"tasks_reexecuted\": 0, \"update_bytes_sent\": 0, \"verification\": 0.0000001, \
             \"ckpt\": \"daly-c0.005-r0.01\", \"checkpoints\": 3, \"recoveries\": 1, \
             \"time_lost_s\": 0.04, \"ckpt_overhead_s\": 0.015, \"efficiency\": 0.9, \
             \"wall_time_ms\": 12.5}"
        );
    }

    /// The outcome of damaging one field of a serialized record.
    fn damaged(pick: u64) -> Option<Option<Json>> {
        let value = match pick % 16 {
            0 => return Some(None),
            1 => Json::Str("x".into()),
            2 => Json::Bool(true),
            3 => Json::Null,
            4 => Json::Arr(vec![]),
            5 => Json::Num(-3.0),
            6 => Json::Num(2.5),
            7 => Json::Num(((1u64 << 53) + 2) as f64),
            8 => Json::Num(f64::from_bits(pick)),
            _ => return None,
        };
        Some(Some(value))
    }

    /// A string of three arbitrary characters drawn from `word`.
    fn text(word: u64) -> String {
        (0..3)
            .filter_map(|i| char::from_u32((word >> (21 * i)) as u32 % 0x11_0000))
            .collect()
    }

    proptest::proptest! {
        #[test]
        fn from_json_never_panics_on_damaged_fields(
            picks in proptest::collection::vec(proptest::prelude::any::<u64>(), 28..29)
        ) {
            // Each field of a checkpointed record is kept, removed, or given
            // a wrong type, a negative number, a fraction, a value above
            // 2^53 or any f64.  The sample's counts are whole numbers and
            // its metrics are not, which tells the two apart below.
            let Json::Obj(fields) = checkpointed_record().to_json() else {
                unreachable!("records serialize as objects");
            };
            let at = fields.iter().position(|(k, _)| k == "ckpt").unwrap();
            let ckpt_kept = !matches!(damaged(picks[at]), Some(None));
            let mut doc = Vec::new();
            let mut must_fail = false;
            for ((name, original), &pick) in fields.into_iter().zip(&picks) {
                let Some(damage) = damaged(pick) else {
                    doc.push((name, original));
                    continue;
                };
                let ckpt_column = matches!(
                    name.as_str(),
                    "ckpt" | "checkpoints" | "recoveries" | "time_lost_s" | "ckpt_overhead_s"
                        | "efficiency"
                );
                let rejected = match (&original, &damage) {
                    _ if name == "wall_time_ms" || (ckpt_column && !ckpt_kept) => false,
                    (_, None) => true,
                    (Json::Str(_), Some(v)) => v.as_str().is_none(),
                    (Json::Num(x), Some(v)) if x.fract() == 0.0 => v.as_exact_u64().is_none(),
                    (_, Some(v)) => v.as_f64().is_none(),
                };
                must_fail |= rejected;
                if let Some(v) = damage {
                    doc.push((name, v));
                }
            }
            let parsed = RunRecord::from_json(&Json::Obj(doc));
            proptest::prop_assert_eq!(parsed.is_err(), must_fail, "{parsed:?}");
        }

        #[test]
        fn records_json_can_carry_exactly_round_trip(
            words in proptest::collection::vec(proptest::prelude::any::<u64>(), 29..30)
        ) {
            let count = |i: usize| (words[i] % ((1 << 53) + 1)) as usize;
            let metric = |i: usize| {
                let v = f64::from_bits(words[i]);
                if v.is_finite() { v } else { words[i] as f64 }
            };
            let record = RunRecord {
                id: text(words[0]),
                app: text(words[1]),
                scale: text(words[2]),
                mode: text(words[3]),
                scheduler: text(words[4]),
                failure: text(words[5]),
                seed: count(6) as u64,
                procs: count(7),
                completed: count(8),
                crashed: count(9),
                errored: count(10),
                failure_events: count(11),
                scheduled_crashes: count(12),
                makespan_s: metric(13),
                section_s: metric(14),
                update_drain_s: metric(15),
                tasks_executed: count(16),
                tasks_received: count(17),
                tasks_reexecuted: count(18),
                update_bytes_sent: count(19),
                verification: metric(20),
                ckpt: (words[21] % 2 == 0).then(|| v1::CkptColumns {
                    ckpt: text(words[22]),
                    checkpoints: count(23),
                    recoveries: count(24),
                    time_lost_s: metric(25),
                    ckpt_overhead_s: metric(26),
                    efficiency: metric(27),
                }),
                wall_time_ms: metric(28),
            };
            let doc = record.to_json();
            for rendered in [doc.render(), doc.render_compact()] {
                let parsed = Json::parse(&rendered).unwrap();
                proptest::prop_assert_eq!(RunRecord::from_json(&parsed), Ok(record.clone()));
            }
        }
    }

    #[test]
    fn csv_has_a_row_per_run() {
        let csv = sample().to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("id,app,scale,"));
        assert!(lines[1].starts_with("hpccg-tiny-native-static-block-none-s42,hpccg,"));
    }
}
