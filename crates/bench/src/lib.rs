//! # ipr-bench — experiment harness regenerating the paper's figures
//!
//! Every evaluation figure of the paper has a generator here:
//!
//! | Figure | Generator | Content |
//! |--------|-----------|---------|
//! | 5 | [`fig5::run`] | replication-vs-checkpoint/restart efficiency crossover |
//! | 5a | [`fig5a::run`] | waxpby / ddot / sparsemv kernel efficiency |
//! | 5b | [`fig5b::run`] | HPCCG weak scaling (128/256/512 processes) |
//! | 6a | [`fig6::run`] (`Fig6App::AmgPcg27`) | AMG2013, 27-pt PCG |
//! | 6b | [`fig6::run`] (`Fig6App::AmgGmres7`) | AMG2013, 7-pt GMRES |
//! | 6c | [`fig6::run`] (`Fig6App::Gtc`) | GTC charge/push |
//! | 6d | [`fig6::run`] (`Fig6App::MiniGhost`) | MiniGhost stencil + sum |
//! | — | [`ablations`] | task granularity, bandwidth, scheduler, adaptive-scheduling (`ABL-ADAPT`) ablations |
//! | — | [`fabric`] | wall-clock microbenchmarks of the simulator host's message fabric (called by `benchmarks/`) |
//! | — | [`kernels`] | wall-clock throughput of the compute kernels at HPCCG/MiniGhost scales (called by `benchmarks/`) |
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
