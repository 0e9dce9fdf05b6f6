//! # simcluster — virtual cluster substrate
//!
//! This crate provides the *machine* under the simulated MPI runtime
//! (`simmpi`): a description of the compute nodes and the interconnect (the
//! paper's testbed is a 128-node cluster of 2.53 GHz 4-core Xeons linked by
//! InfiniBand 20G), virtual clocks used to account for compute and
//! communication time, the placement of physical processes on nodes, and a
//! shared failure status board used by the replication layer to inject and
//! detect crash-stop failures.
//!
//! Nothing in this crate spawns threads or moves messages; it only *models*
//! time and topology.  The execution engine lives in `simmpi`.
//!
//! ## Why a model?
//!
//! The reproduced paper reports *efficiency ratios* (time without replication
//! divided by time with replication / intra-parallelization) that are driven
//! by the ratio between the computation cost of a kernel and the size of the
//! updates that must be shipped between replicas.  A calibrated analytic
//! model of compute throughput and link bandwidth preserves those ratios
//! exactly, while the protocol itself executes for real (threads, real
//! messages, real payloads) so that every ordering and consistency property
//! is exercised.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod clock;
pub mod engine;
pub mod failure;
pub mod model;
pub mod rng;
pub mod time;
pub mod topology;

pub use clock::{Endpoint, VirtualClock};
pub use engine::{Dispatch, TaskId, VirtualEngine};
pub use failure::{FailureEvent, FailureStatusBoard, FailureWaker};
pub use model::{ComputeModel, MachineModel, NetworkModel};
pub use rng::seeded_rng;
pub use time::SimTime;
pub use topology::{NodeId, Topology};
