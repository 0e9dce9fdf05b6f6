//! # simmpi — an in-process MPI-like runtime with a virtual-time cost model
//!
//! The reproduced paper implements intra-parallelization inside Open MPI and
//! runs it on an InfiniBand cluster.  `simmpi` plays the role of that MPI
//! library: every *physical process* is an OS thread, communicators and
//! point-to-point/collective operations follow MPI semantics, and all timing
//! is accounted in *virtual time* through the calibrated cost model of
//! [`simcluster`].
//!
//! ## Quick example
//!
//! ```
//! use simmpi::{run_cluster, ClusterConfig};
//!
//! let report = run_cluster(&ClusterConfig::ideal(4), |proc| {
//!     let world = proc.world();
//!     // Every rank contributes its rank; the sum must be 0+1+2+3 = 6.
//!     world.allreduce_sum_f64(world.rank() as f64).unwrap()
//! });
//! for sum in report.unwrap_results() {
//!     assert_eq!(sum, 6.0);
//! }
//! ```
//!
//! ## Layering
//!
//! * [`cluster`] spawns the threads and collects reports;
//! * [`comm`] implements communicators (`split_by`) and point-to-point
//!   messaging: buffered sends, non-blocking ones completed by
//!   `waitall_send`, and receives that each name one `(communicator, source,
//!   tag)` lane — the send-deterministic programs replication supports need
//!   no wildcard;
//! * [`collectives`] adds the barrier and the all-reductions (a reduction to
//!   rank 0, then a broadcast from it);
//! * [`router`] moves envelopes between per-rank mailboxes;
//! * [`engine`] is the second execution strategy: cooperatively-scheduled
//!   rank state machines on a discrete-event virtual-time core, lifting the
//!   thread-per-rank ceiling to 10k–1M logical ranks; its receives, too,
//!   each name one source rank and one tag;
//! * [`datatype`] converts typed slices to and from bytes.
//!
//! The replication layer (`replication` crate) and the intra-parallelization
//! runtime (`ipr-core`) are built purely on this public API, exactly like the
//! paper's prototype is built on (a patched) Open MPI.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod cluster;
pub mod collectives;
pub mod comm;
pub mod datatype;
pub mod engine;
pub mod error;
pub mod fxhash;
mod mailbox;
pub mod message;
pub mod proc;
pub mod request;
pub mod router;

pub use cluster::{run_cluster, try_run_cluster, ClusterConfig, ClusterReport, ProcReport};
pub use comm::{Comm, WORLD_COMM_ID};
pub use datatype::{
    copied_bytes, copy_into, from_bytes, reset_copied_bytes, to_bytes, to_payload, typed_view, Pod,
};
pub use engine::{
    run_virtual_cluster, try_run_virtual_cluster, EngineConfig, RankCtx, RankEnd, RankProgram,
    RecvDone, RecvOutcome, Step, VirtualClusterReport, VirtualRankReport,
};
pub use error::{ConfigError, MpiError, MpiResult};
pub use fxhash::{FxBuildHasher, FxHasher};
pub use message::{CommId, Envelope, LaneKey, Tag, RESERVED_TAG_BASE};
pub use proc::ProcHandle;
pub use request::SendRequest;
pub use router::Router;
