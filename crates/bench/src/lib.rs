//! # ipr-bench — experiment harness regenerating the paper's figures
//!
//! Every evaluation figure of the paper has a generator here:
//!
//! | Figure | Generator | Content |
//! |--------|-----------|---------|
//! | 5 | [`fig5::run`] | replication-vs-checkpoint/restart efficiency crossover |
//! | 5a | [`fig5a::run`] | waxpby / ddot / sparsemv kernel efficiency |
//! | 5b | [`fig5b::run`] | HPCCG weak scaling (128/256/512 processes) |
//! | 6a | [`fig6::run`] (`AppId::AmgPcg27`) | AMG2013, 27-pt PCG |
//! | 6b | [`fig6::run`] (`AppId::AmgGmres7`) | AMG2013, 7-pt GMRES |
//! | 6c | [`fig6::run`] (`AppId::Gtc`) | GTC charge/push |
//! | 6d | [`fig6::run`] (`AppId::MiniGhost`) | MiniGhost stencil + sum |
//! | — | [`ablations`] | task granularity, bandwidth, scheduler, adaptive-scheduling (`ABL-ADAPT`) ablations |
//! | — | [`fabric`] | wall-clock microbenchmarks of the simulator host's message fabric (called by `benchmarks/`) |
//! | — | [`kernels`] | wall-clock throughput of the compute kernels at HPCCG/MiniGhost scales (called by `benchmarks/`) |
//!
//! Every thread-world generator (5a, 5b, 6, the ablations) is a set of
//! `intra_replication::Experiment` runs over [`MODES`]; the kernel-level
//! ones call the applications' own section code, `apps::sections`.
//!
//! The `figures` binary prints the rows in the same form as the paper
//! (normalized time / execution time plus the efficiency above each bar).

#![warn(missing_docs)]

pub mod ablations;
pub mod fabric;
pub mod fig5;
pub mod fig5a;
pub mod fig5b;
pub mod fig6;
pub mod kernels;
pub mod scale;
pub mod table;

pub use scale::ExperimentScale;

use replication::ExecutionMode;

/// The paper's three configurations in bar order, with their figure labels:
/// the unmodified library, classic active replication and
/// intra-parallelization (both at the paper's degree 2).
pub const MODES: [(&str, ExecutionMode); 3] = [
    ("Open MPI", ExecutionMode::Native),
    ("SDR-MPI", ExecutionMode::Replicated { degree: 2 }),
    ("intra", ExecutionMode::IntraParallel { degree: 2 }),
];
