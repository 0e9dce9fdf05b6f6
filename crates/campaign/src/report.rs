//! Machine-readable campaign reports: one versioned data model.
//!
//! Everything a campaign produces — the per-run rows, the JSON/CSV
//! renderings, the golden baselines, the run-cache entries and the serve
//! protocol's streaming results — serializes through the [`v1`] model: a
//! schema-tagged envelope (`"schema": "ipr-report/1"`) around
//! [`v1::RunRecord`] rows whose field semantics are declared once in
//! `v1::FIELDS`.  The declaration carries each field's *class*
//! (discrete / metric / informational), which is what the tolerance diff
//! ([`crate::diff`]) and the golden gates consult instead of ad-hoc name
//! lists: a new field cannot silently become ungated (or gated) by its
//! spelling alone.
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

    /// Semantic class of a report field, declared per field in [`FIELDS`].
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

    /// Declaration of one report field: its stable name and class.
    #[derive(Debug, Clone, Copy)]
    pub(crate) struct FieldSpec {
        /// Stable field name, as it appears in JSON and CSV.
        pub name: &'static str,
        /// Semantic class (see [`FieldClass`]).
        pub class: FieldClass,
    }

    const fn field(name: &'static str, class: FieldClass) -> FieldSpec {
        FieldSpec { name, class }
    }

    /// The declared fields of the v1 model: every run-level field of the
    /// classic campaign rows and of the weak-scaling rows, with its class.
    /// Envelope fields (`schema`, `campaign`, `scale`, `sweep`, `runs`) are
    /// structural and compared exactly.
    pub(crate) const FIELDS: &[FieldSpec] = &[
        // -- shared identity / axis fields ------------------------------
        field("id", FieldClass::Discrete),
        field("app", FieldClass::Discrete),
        field("scale", FieldClass::Discrete),
        field("mode", FieldClass::Discrete),
        field("scheduler", FieldClass::Discrete),
        field("failure", FieldClass::Discrete),
        field("seed", FieldClass::Discrete),
        // -- shared outcome counts --------------------------------------
        field("procs", FieldClass::Discrete),
        field("completed", FieldClass::Discrete),
        field("crashed", FieldClass::Discrete),
        field("errored", FieldClass::Discrete),
        field("failure_events", FieldClass::Discrete),
        field("scheduled_crashes", FieldClass::Discrete),
        // -- classic grid rows ------------------------------------------
        field("makespan_s", FieldClass::Metric),
        field("section_s", FieldClass::Metric),
        field("update_drain_s", FieldClass::Metric),
        field("tasks_executed", FieldClass::Discrete),
        field("tasks_received", FieldClass::Discrete),
        field("tasks_reexecuted", FieldClass::Discrete),
        field("update_bytes_sent", FieldClass::Discrete),
        field("verification", FieldClass::Metric),
        // -- checkpoint/restart rows (serialized only for checkpointed
        //    runs, so checkpoint-free reports stay byte-identical) --------
        field("ckpt", FieldClass::Discrete),
        field("checkpoints", FieldClass::Discrete),
        field("recoveries", FieldClass::Discrete),
        field("time_lost_s", FieldClass::Metric),
        field("ckpt_overhead_s", FieldClass::Metric),
        field("efficiency", FieldClass::Metric),
        // -- weak-scaling rows ------------------------------------------
        field("logical", FieldClass::Discrete),
        field("holes", FieldClass::Discrete),
        field("messages", FieldClass::Discrete),
        field("mean_compute_s", FieldClass::Metric),
        field("mean_comm_s", FieldClass::Metric),
        field("mean_wait_s", FieldClass::Metric),
        // -- host-side measurements -------------------------------------
        field("wall_time_ms", FieldClass::Informational),
        field("dispatches", FieldClass::Informational),
    ];

    /// Looks up the declared class of a field, if the schema declares it.
    pub(crate) fn field_class(name: &str) -> Option<FieldClass> {
        FIELDS.iter().find(|f| f.name == name).map(|f| f.class)
    }

    /// True if the schema declares `name` as informational.
    pub(crate) fn is_informational(name: &str) -> bool {
        field_class(name) == Some(FieldClass::Informational)
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
    /// checkpointed runs: their fields are declared in `FIELDS` but
    /// serialized conditionally, so checkpoint-free reports (and their
    /// golden baselines) stay byte-identical across campaign versions.
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

        /// The record as a JSON object (field order is the schema order;
        /// the checkpoint columns appear only on checkpointed runs).
        pub fn to_json(&self) -> Json {
            let mut doc = Json::obj(vec![
                ("id", Json::Str(self.id.clone())),
                ("app", Json::Str(self.app.clone())),
                ("scale", Json::Str(self.scale.clone())),
                ("mode", Json::Str(self.mode.clone())),
                ("scheduler", Json::Str(self.scheduler.clone())),
                ("failure", Json::Str(self.failure.clone())),
                ("seed", Json::Num(self.seed as f64)),
                ("procs", Json::Num(self.procs as f64)),
                ("completed", Json::Num(self.completed as f64)),
                ("crashed", Json::Num(self.crashed as f64)),
                ("errored", Json::Num(self.errored as f64)),
                ("failure_events", Json::Num(self.failure_events as f64)),
                (
                    "scheduled_crashes",
                    Json::Num(self.scheduled_crashes as f64),
                ),
                ("makespan_s", Json::Num(self.makespan_s)),
                ("section_s", Json::Num(self.section_s)),
                ("update_drain_s", Json::Num(self.update_drain_s)),
                ("tasks_executed", Json::Num(self.tasks_executed as f64)),
                ("tasks_received", Json::Num(self.tasks_received as f64)),
                ("tasks_reexecuted", Json::Num(self.tasks_reexecuted as f64)),
                (
                    "update_bytes_sent",
                    Json::Num(self.update_bytes_sent as f64),
                ),
                ("verification", Json::Num(self.verification)),
                ("wall_time_ms", Json::Num(self.wall_time_ms)),
            ]);
            if let (Some(c), Json::Obj(fields)) = (&self.ckpt, &mut doc) {
                let at = fields.len() - 1; // keep wall_time_ms last
                fields.splice(
                    at..at,
                    [
                        ("ckpt".to_string(), Json::Str(c.ckpt.clone())),
                        ("checkpoints".to_string(), Json::Num(c.checkpoints as f64)),
                        ("recoveries".to_string(), Json::Num(c.recoveries as f64)),
                        ("time_lost_s".to_string(), Json::Num(c.time_lost_s)),
                        ("ckpt_overhead_s".to_string(), Json::Num(c.ckpt_overhead_s)),
                        ("efficiency".to_string(), Json::Num(c.efficiency)),
                    ],
                );
            }
            doc
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

        /// The report as CSV (header + one row per run), deterministic.
        pub fn to_csv(&self) -> String {
            let mut out = String::from(
                "id,app,scale,mode,scheduler,failure,seed,procs,completed,crashed,errored,\
                 failure_events,scheduled_crashes,makespan_s,section_s,update_drain_s,\
                 tasks_executed,tasks_received,tasks_reexecuted,update_bytes_sent,verification,\
                 ckpt,checkpoints,recoveries,time_lost_s,ckpt_overhead_s,efficiency,\
                 wall_time_ms\n",
            );
            for r in &self.runs {
                let (ckpt, checkpoints, recoveries, time_lost_s, ckpt_overhead_s, efficiency) =
                    match &r.ckpt {
                        Some(c) => (
                            c.ckpt.as_str(),
                            c.checkpoints,
                            c.recoveries,
                            c.time_lost_s,
                            c.ckpt_overhead_s,
                            c.efficiency,
                        ),
                        None => ("", 0, 0, 0.0, 0.0, 0.0),
                    };
                out.push_str(&format!(
                    "{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}\n",
                    r.id,
                    r.app,
                    r.scale,
                    r.mode,
                    r.scheduler,
                    r.failure,
                    r.seed,
                    r.procs,
                    r.completed,
                    r.crashed,
                    r.errored,
                    r.failure_events,
                    r.scheduled_crashes,
                    r.makespan_s,
                    r.section_s,
                    r.update_drain_s,
                    r.tasks_executed,
                    r.tasks_received,
                    r.tasks_reexecuted,
                    r.update_bytes_sent,
                    r.verification,
                    ckpt,
                    checkpoints,
                    recoveries,
                    time_lost_s,
                    ckpt_overhead_s,
                    efficiency,
                    r.wall_time_ms,
                ));
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
    fn field_registry_classifies_every_serialized_field() {
        // Every field the sample record serializes is declared.
        if let Json::Obj(fields) = sample_record().to_json() {
            for (name, _) in fields {
                assert!(
                    v1::field_class(&name).is_some(),
                    "field '{name}' is serialized but not declared in v1::FIELDS"
                );
            }
        } else {
            unreachable!("records serialize as objects");
        }
        // Spot checks of the three classes.
        assert_eq!(v1::field_class("seed"), Some(FieldClass::Discrete));
        assert_eq!(v1::field_class("makespan_s"), Some(FieldClass::Metric));
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
            assert!(
                v1::field_class(key).is_some(),
                "'{key}' must be declared in v1::FIELDS"
            );
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
            for (name, _) in fields {
                assert!(
                    v1::field_class(name).is_some(),
                    "field '{name}' is serialized but not declared in v1::FIELDS"
                );
            }
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
    fn csv_has_a_row_per_run() {
        let csv = sample().to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("id,app,scale,"));
        assert!(lines[1].starts_with("hpccg-tiny-native-static-block-none-s42,hpccg,"));
    }
}
