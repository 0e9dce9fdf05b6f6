//! # ipr-benchmarks — the repository's benchmark
//!
//! Four workloads drive the replication simulator through its public API
//! from one closed-loop client and report the end-to-end metrics a user of
//! the system sees; a separate traced run times every layer from outside
//! and reports the per-layer metrics.  `BENCHMARK.json` at the repository
//! root is the contract; `benchmarks/README.md` says what each number means
//! and which one an optimisation of which layer should move.
//!
//! This package is a workspace of its own: the root workspace's build,
//! tests, lints and API-surface gate never see it.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod child;
pub mod cli;
pub mod harness;
pub mod host;
pub mod inputs;
pub mod layers;
pub mod names;
pub mod report;
pub mod stats;
pub mod trace;
pub mod workloads;
