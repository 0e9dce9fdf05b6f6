//! # apps — mini-applications of the paper's evaluation
//!
//! The four workloads of Section V, each written once and runnable in the
//! paper's three configurations (native, replicated, intra-parallelized):
//!
//! * [`hpccg`] — the Mantevo conjugate-gradient mini-app (Figures 5a / 5b);
//! * [`amg_proxy`] — AMG2013 stand-in: PCG on a 27-point operator and GMRES
//!   on a 7-point operator (Figures 6a / 6b);
//! * [`gtc_proxy`] — particle-in-cell charge/push proxy for GTC (Figure 6c);
//! * [`minighost`] — 27-point stencil + grid summation proxy for MiniGhost
//!   (Figure 6d).
//!
//! [`driver`] holds the shared per-process plumbing ([`driver::AppContext`]),
//! [`sections`] the paper's section shapes (waxpby, reduction, sparsemv) and
//! the z-plane halo exchange that the applications and the figure harness
//! share, and [`report::AppRunReport`] the per-process results that the benchmark
//! harness aggregates into the paper's efficiency figures.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod amg_proxy;
pub mod catalog;
pub mod driver;
pub mod gtc_proxy;
pub mod hpccg;
pub mod minighost;
pub mod report;
pub mod scale;
pub mod sections;
pub mod weak_scaling;

pub use amg_proxy::{run_amg, AmgOutput, AmgParams, AmgSolver};
pub use catalog::{run_app, AppId, AppWorkload};
pub use driver::{task_cost, AppContext, ScaledWorkload};
pub use gtc_proxy::{run_gtc, GtcOutput, GtcParams};
pub use hpccg::{run_hpccg, HpccgOutput, HpccgParams, KernelSelection};
pub use minighost::{run_minighost, MiniGhostOutput, MiniGhostParams};
pub use report::AppRunReport;
pub use scale::ExperimentScale;
pub use weak_scaling::{
    ckpt_charges, run_weak_scaling, WeakMode, WeakScalingProgram, WeakScalingSpec,
};
