//! # campaign — declarative scenario-campaign engine
//!
//! The paper's evaluation is a grid of scenarios: proxy application × scale
//! × execution mode (native / replicated / intra-parallelized) × failure
//! behaviour.  This crate makes that grid *declarative* and *cheap to
//! sweep*:
//!
//! * [`grid::CampaignGrid`] — the cross product of six axes (app, scale,
//!   mode, scheduler, failure spec, seed) expands into independent
//!   [`spec::RunSpec`]s;
//! * [`runner`] — executes the runs **in parallel across OS threads**; each
//!   run is a self-contained virtual-time simulation, so wall-clock drops
//!   near-linearly with `--jobs` while the results stay byte-identical to a
//!   sequential execution;
//! * failure traces are first class: a run can draw per-rank crash times
//!   from homogeneous or inhomogeneous Poisson processes
//!   ([`replication::sample_failure_trace`]) instead of hand-placed crash
//!   points;
//! * [`report::CampaignReport`] — machine-readable JSON/CSV with per-run
//!   seeds for exact reproduction;
//! * [`diff`] — a tolerance-aware comparison that turns a checked-in golden
//!   JSON into a CI determinism/regression gate;
//! * [`weak`] — weak-scaling sweeps on `simmpi`'s event-driven engine
//!   (tens of thousands of logical ranks, far past the thread-per-rank
//!   ceiling), gated by their own golden baseline;
//! * [`report::v1`] — the versioned report model every rendering above
//!   serializes through: a schema-tagged envelope (`ipr-report/1`) with
//!   per-field semantics (discrete / metric / informational) declared once;
//! * [`cache`] — a content-addressed run cache (fingerprint = experiment
//!   axes + report schema + determinism epoch) so re-sweeps execute only
//!   the delta;
//! * [`queue`] + [`mod@serve`] — a long-running sweep service over one
//!   shared executor pool, with a file-queue submit/status/results protocol
//!   and streaming JSONL output.
//!
//! The `campaign` binary exposes `run` / `list` / `diff` plus the service
//! verbs `serve` / `submit` / `status` / `results` / `stop` on the command
//! line; `make campaign-smoke` and `make serve-smoke` reproduce the CI
//! gates locally.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod cache;
pub mod diff;
pub mod grid;
pub mod json;
pub mod queue;
pub mod report;
pub mod runner;
pub mod serve;
pub mod spec;
pub mod weak;

pub use cache::{fingerprint, run_specs_cached, CachedBatch, RunCache, DETERMINISM_EPOCH};
pub use diff::{diff_documents, diff_reports, strip_informational, INFORMATIONAL_KEYS};
pub use grid::CampaignGrid;
pub use json::Json;
pub use queue::ExecutorPool;
pub use report::{v1, CampaignReport};
pub use runner::{run_batch, run_campaign, run_spec, run_specs, RunResult};
pub use serve::{serve, JobSummary, ServeOptions, Spool, SpoolStatus};
pub use spec::{FailureSpec, RunSpec};
pub use weak::{run_weak_spec, run_weak_sweep, WeakReport, WeakRow, WeakRunSpec, WeakSweep};
