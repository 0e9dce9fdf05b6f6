//! # ipr-core — intra-parallelization for replicated MPI processes
//!
//! This crate is the reproduction of the paper's primary contribution
//! (Ropars, Lefray, Kim, Schiper, *"Efficient Process Replication for MPI
//! Applications: Sharing Work Between Replicas"*, IPDPS 2015): a runtime that
//! lets the replicas of a logical MPI process **share** the computation of
//! designated code sections instead of executing all of it redundantly,
//! breaking the 50 %-efficiency wall of classic state-machine replication
//! while preserving crash-stop fault tolerance.
//!
//! ## Concepts (Section III of the paper)
//!
//! * a [`workspace::Workspace`] holds the replicated variables (identical on
//!   every replica outside sections);
//! * an intra-parallel [`section::Section`] is a block with no message
//!   passing, divided into [`task::TaskDef`]s whose arguments carry
//!   `in`/`out`/`inout` tags;
//! * at `Section::end`, a deterministic [`sched::SchedulerKind`] splits the tasks
//!   among the alive replicas; every replica executes its share, ships the
//!   written ranges to its peers (overlapping transfers with the remaining
//!   computation) and applies the peers' updates, so all replicas are
//!   consistent again when the section returns;
//! * if a replica crashes, its unfinished tasks are re-executed by the
//!   survivors; `inout` ranges are snapshotted at launch time so
//!   re-execution after a partial update is safe (Figure 2 of the paper).
//!
//! ## Quick example
//!
//! ```
//! use ipr_core::prelude::*;
//! use replication::{ExecutionMode, ReplicatedEnv};
//! use simmpi::{run_cluster, ClusterConfig};
//!
//! // Two physical processes = two replicas of one logical process.
//! let report = run_cluster(&ClusterConfig::ideal(2), |proc| {
//!     let env = ReplicatedEnv::without_failures(
//!         proc, ExecutionMode::IntraParallel { degree: 2 }).unwrap();
//!     let mut rt = IntraRuntime::new(env, IntraConfig::paper());
//!     let mut ws = Workspace::new();
//!     let x = ws.add("x", (0..64).map(|i| i as f64).collect());
//!     let w = ws.add_zeros("w", 64);
//!
//!     let mut section = rt.section(&mut ws);
//!     section.add_split(64, |chunk| {
//!         TaskDef::new("double", |ctx| {
//!             for i in 0..ctx.inputs[0].len() {
//!                 ctx.outputs[0][i] = 2.0 * ctx.inputs[0][i];
//!             }
//!         }, vec![ArgSpec::input(x, chunk.clone()), ArgSpec::output(w, chunk)])
//!     }).unwrap();
//!     section.end().unwrap();
//!
//!     // Both replicas now hold the full result even though each computed
//!     // only half of it.
//!     ws.get(w).iter().sum::<f64>()
//! });
//! for sum in report.unwrap_results() {
//!     assert_eq!(sum, 2.0 * (0..64).sum::<i64>() as f64);
//! }
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod api;
pub mod cost;
pub mod error;
pub mod report;
pub mod runtime;
pub mod sched;
pub mod section;
pub mod task;
pub mod workspace;

pub use api::{IntraSession, TaskHandle};
pub use cost::{CostEstimate, CostModel};
pub use error::{IntraError, IntraResult};
pub use report::{RuntimeReport, SectionReport, SectionsView, TaskCostSample};
pub use runtime::{IntraConfig, IntraRuntime};
pub use sched::{assignment_makespan, SchedulerKind};
pub use section::{split_ranges, Section, MAX_ARGS_PER_TASK, MAX_TASKS_PER_SECTION};
pub use task::{ArgSpec, ArgTag, CostHint, TaskCost, TaskCtx, TaskDef, TaskFn};
pub use workspace::{VarId, Workspace};

/// Convenience re-exports for application code.
pub mod prelude {
    pub use crate::api::{IntraSession, TaskHandle};
    pub use crate::cost::{CostEstimate, CostModel};
    pub use crate::error::{IntraError, IntraResult};
    pub use crate::report::{RuntimeReport, SectionReport, SectionsView, TaskCostSample};
    pub use crate::runtime::{IntraConfig, IntraRuntime};
    pub use crate::sched::SchedulerKind;
    pub use crate::section::{split_ranges, Section};
    pub use crate::task::{ArgSpec, ArgTag, CostHint, TaskCost, TaskCtx, TaskDef};
    pub use crate::workspace::{VarId, Workspace};
}
