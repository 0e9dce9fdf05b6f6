//! # replication — active replication substrate (SDR-MPI analog)
//!
//! The paper's prototype is built on SDR-MPI, the authors' active-replication
//! patch for Open MPI.  Intra-parallelization itself is deliberately
//! independent of the replication protocol; it only consumes a few
//! facilities, which is exactly what this crate provides on top of `simmpi`:
//!
//! * a mapping from *physical* ranks to *(logical rank, replica id)* pairs
//!   ([`mapping::ReplicaMapping`]);
//! * a **logical communicator** on which the application communicates as if
//!   it were not replicated (each replica set mirrors the application's
//!   messages, the optimization at the heart of SDR-MPI);
//! * a **replica communicator** connecting the replicas of one logical
//!   process, used by the intra-parallelization runtime to ship task updates
//!   ("SDR-MPI allows sending messages between the replicas of a logical MPI
//!   process by simply using MPI functions over a dedicated communicator");
//! * crash-stop **failure injection and detection** hooks
//!   ([`failure::FailureInjector`], [`failure::ProtocolPoint`]) backed by a
//!   failure-model library: parametric and user-supplied rate functions
//!   sampled by Lewis–Shedler thinning ([`rate`]) and correlated node/rack
//!   failure domains ([`correlated`]).
//!
//! The crate also provides [`ReplicatedEnv`], the per-physical-process handle
//! the mini-applications use, and a non-replicated pass-through mode so the
//! same application code can run natively (the paper's "Open MPI" baseline),
//! fully replicated (the "SDR-MPI" baseline) or intra-parallelized.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod correlated;
pub mod env;
pub mod failure;
pub mod mapping;
pub mod rate;
pub mod replicated_comm;

pub use correlated::{sample_group_trace, CorrelatedPlan, FailureDomain};
pub use env::{ExecutionMode, ReplicatedEnv};
pub use failure::{FailureInjector, ProtocolPoint, TimedFiring};
pub use mapping::ReplicaMapping;
pub use rate::{majorant_candidates, sample_failure_trace, FailureRate, HorizonRate};
pub use replicated_comm::ReplicatedComm;
