//! Figure 5a: kernel-level performance of intra-parallelization.
//!
//! The paper measures the average time a process spends inside each HPCCG
//! computation kernel (waxpby, ddot, sparsemv) on 512 cores, comparing the
//! unmodified library ("Open MPI"), classic active replication ("SDR-MPI")
//! and intra-parallelization ("intra"), all for the *same amount of physical
//! resources* (so the replicated configurations run half as many logical
//! processes, each with twice the data).  The published outcome:
//!
//! | kernel   | SDR-MPI | intra | intra update share |
//! |----------|---------|-------|--------------------|
//! | waxpby   | 0.50    | 0.34  | dominant           |
//! | ddot     | 0.50    | 0.99  | ~0                 |
//! | sparsemv | 0.50    | 0.94  | small              |

//!
//! Every bar is one [`Experiment::run_with`] run whose body calls the
//! applications' own section code (`apps::sections`), so the figure
//! measures what Figures 5b and 6 execute.

use crate::MODES;
use apps::sections::{KernelSpec, Reduction};
use apps::AppId;
use apps::ExperimentScale;
use intra_replication::Experiment;
use ipr_core::Workspace;
use kernels::sparse::CsrMatrix;
use replication::ExecutionMode;
use simcluster::MachineModel;
use std::sync::Arc;

/// The kernel under study.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Kernel {
    /// `w = alpha x + beta y`.
    Waxpby,
    /// Local dot product.
    Ddot,
    /// Sparse matrix-vector product (27-point operator).
    Sparsemv,
}

impl Kernel {
    /// All three kernels, in the order of the figure.
    pub(crate) const ALL: [Kernel; 3] = [Kernel::Waxpby, Kernel::Ddot, Kernel::Sparsemv];

    /// Display name.
    pub(crate) fn name(&self) -> &'static str {
        match self {
            Kernel::Waxpby => "waxpby",
            Kernel::Ddot => "ddot",
            Kernel::Sparsemv => "sparsemv",
        }
    }
}

/// One bar of Figure 5a.
#[derive(Debug, Clone)]
pub struct KernelRow {
    /// Kernel name.
    pub kernel: &'static str,
    /// Configuration label ("Open MPI", "SDR-MPI", "intra").
    pub mode: &'static str,
    /// Average per-process virtual time spent in the kernel (seconds).
    pub time_s: f64,
    /// Time normalized to the Open MPI configuration.
    pub normalized: f64,
    /// Efficiency (T_openmpi / T_mode).
    pub efficiency: f64,
    /// Fraction of the kernel time spent finishing update transfers (the
    /// dashed "intra updates" area; zero for the other configurations).
    pub update_fraction: f64,
}

/// Average per-process section time and update-drain time for one kernel in
/// one configuration.
fn kernel_time(
    kernel: Kernel,
    mode: ExecutionMode,
    scale: ExperimentScale,
    machine: MachineModel,
) -> (f64, f64) {
    let degree = mode.degree();
    let num_logical = scale.fig5a_procs() / degree;
    assert!(num_logical > 0, "not enough processes for degree {degree}");
    // Same physical resources for every configuration: replicated runs have
    // half the logical processes, each owning twice the data (z is doubled).
    let edge = scale.actual_grid_edge();
    let (ax, ay, az) = (edge, edge, edge * degree);
    let actual_n = ax * ay * az;
    let modeled_n = 128 * 128 * 128 * degree;
    let reps = scale.kernel_reps();

    let run = Experiment::builder()
        .app(AppId::Hpccg) // the three kernels are HPCCG's
        .scale(scale)
        .execution_mode(mode)
        .logical_procs(num_logical)
        .modeled_scale(modeled_n as f64 / actual_n as f64)
        .machine(machine)
        .build()
        .expect("figure experiments are valid")
        .run_with(move |ctx| {
            let mut ws = Workspace::new();
            let x = ws.add("x", (0..actual_n).map(|i| (i % 13) as f64).collect());
            let y = ws.add("y", (0..actual_n).map(|i| (i % 7) as f64 * 0.5).collect());
            let w = ws.add_zeros("w", actual_n);
            let partial = ws.add_zeros("partial", ctx.rt.config().tasks_per_section);
            let matrix = Arc::new(CsrMatrix::stencil27(ax, ay, az, false, false));
            let spec = KernelSpec {
                name: kernel.name(),
                intra: true,
                n: actual_n,
                modeled_n,
            };
            for _ in 0..reps {
                match kernel {
                    Kernel::Waxpby => spec.waxpby(ctx, &mut ws, 2.0, x, 0.5, y, w)?,
                    Kernel::Ddot => {
                        spec.reduce(ctx, &mut ws, Reduction::Dot, x, y, partial)?;
                    }
                    Kernel::Sparsemv => spec.spmv(ctx, &mut ws, &matrix, x, w)?,
                }
            }
            let sections = ctx.rt.totals();
            let rep_count = reps.max(1) as f64;
            Ok((
                sections.section_time.as_secs() / rep_count,
                sections.update_drain_time.as_secs() / rep_count,
            ))
        })
        .expect("figure experiments execute");

    let results = run.unwrap_results();
    let n = results.len() as f64;
    let total: f64 = results.iter().map(|(t, _)| t).sum::<f64>() / n;
    let drain: f64 = results.iter().map(|(_, d)| d).sum::<f64>() / n;
    (total, drain)
}

/// Runs the Figure 5a study and returns one row per (kernel, configuration).
pub fn run(scale: ExperimentScale) -> Vec<KernelRow> {
    run_with_machine(scale, MachineModel::grid5000_ib20g())
}

/// Same as [`run`] but with an explicit machine model (used by the bandwidth
/// ablation).
pub(crate) fn run_with_machine(scale: ExperimentScale, machine: MachineModel) -> Vec<KernelRow> {
    let mut rows = Vec::new();
    for kernel in Kernel::ALL {
        let times = MODES.map(|(_, mode)| kernel_time(kernel, mode, scale, machine));
        let (t_native, _) = times[0];
        for ((mode, _), (time, drain)) in MODES.into_iter().zip(times) {
            rows.push(KernelRow {
                kernel: kernel.name(),
                mode,
                time_s: time,
                normalized: time / t_native,
                efficiency: t_native / time,
                update_fraction: if time > 0.0 { drain / time } else { 0.0 },
            });
        }
    }
    rows
}
