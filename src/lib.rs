//! # intra-replication — work sharing between the replicas of MPI processes
//!
//! A Rust reproduction of *"Efficient Process Replication for MPI
//! Applications: Sharing Work Between Replicas"* (Ropars, Lefray, Kim,
//! Schiper — IPDPS 2015).
//!
//! This facade crate re-exports the whole workspace so that examples and
//! downstream users can depend on a single crate:
//!
//! * [`simcluster`] — machine model, virtual time, topology, failure board;
//! * [`simmpi`] — the in-process MPI-like runtime (communicators,
//!   point-to-point, collectives, cluster launcher);
//! * [`replication`] — active replication substrate (logical/replica
//!   communicators, failure injection, the failure-model library: fitted
//!   Weibull/LogNormal hazards, custom rate functions, correlated
//!   node/rack failure domains);
//! * [`ckpt`] — coordinated checkpoint/restart in virtual time: the
//!   Young/Daly optimal-interval formulas and the deterministic
//!   rollback-recovery replay the replication-vs-C/R comparison runs on;
//! * [`core`] (`ipr-core`) — **the paper's contribution**: intra-parallel
//!   sections, tasks, schedulers, update transfer, failure recovery;
//! * [`kernels`] — HPC kernels (waxpby, ddot, sparsemv, stencils, PIC) and
//!   their cost descriptors;
//! * [`apps`] — the mini-applications of the evaluation (HPCCG, AMG proxy,
//!   GTC proxy, MiniGhost proxy).
//!
//! ## The `Experiment` surface
//!
//! The whole stack is driven through one typed entry point, the
//! [`Experiment`] builder: application × scale × mode × scheduler ×
//! failure plan × seed, validated at [`ExperimentBuilder::build`] into
//! typed [`enum@Error`] values and executed with [`Experiment::run`]
//! (catalog applications) or [`Experiment::run_with`] (custom per-process
//! bodies).  The campaign engine, the figure harness and every example are
//! built on it.
//!
//! See `examples/quickstart.rs` for the shortest end-to-end program, the
//! `ipr-bench` crate for the harness that regenerates every figure of the
//! paper, and the `campaign` crate for declarative scenario sweeps with a
//! CI-grade regression gate (`examples/campaign_sweep.rs`).

#![warn(missing_docs)]

pub mod error;
pub mod experiment;

pub use apps;
pub use ckpt;
pub use ipr_core as core;
pub use kernels;
pub use replication;
pub use simcluster;
pub use simmpi;

pub use ckpt::{system_mtbf, CheckpointPlan, CkptStats, IntervalPolicy};
pub use error::{Error, Result};
pub use experiment::{
    CustomRun, Experiment, ExperimentBuilder, FailurePlan, Mode, RankOutcome, RunReport,
};

/// Convenience prelude pulling in the most commonly used items from every
/// layer.
pub mod prelude {
    pub use crate::error::Error;
    pub use crate::experiment::{
        CustomRun, Experiment, ExperimentBuilder, FailurePlan, Mode, RankOutcome, RunReport,
    };
    pub use apps::{AppContext, AppId, AppRunReport, AppWorkload, ExperimentScale};
    pub use ckpt::{system_mtbf, CheckpointPlan, CkptStats, IntervalPolicy};
    pub use ipr_core::prelude::*;
    pub use replication::{
        sample_failure_trace, CorrelatedPlan, ExecutionMode, FailureDomain, FailureInjector,
        FailureRate, ProtocolPoint, ReplicatedEnv,
    };
    pub use simcluster::{MachineModel, SimTime, Topology};
    pub use simmpi::{run_cluster, ClusterConfig, Comm, MpiError, ProcHandle};
}
