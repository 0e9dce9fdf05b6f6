//! HPCCG: the Mantevo conjugate-gradient mini-application.
//!
//! HPCCG solves a 27-point finite-difference problem on a 3D grid with an
//! unpreconditioned conjugate gradient.  Its three computational kernels —
//! `waxpby`, `ddot` and `sparsemv` — are the micro-kernels of Figure 5a, and
//! the full application is the weak-scaling experiment of Figure 5b (where,
//! following the paper, intra-parallelization is applied only to `ddot` and
//! `sparsemv` because it hurts `waxpby`).
//!
//! The domain is decomposed by stacking the local `nx × ny × nz` grids along
//! the z axis, one block per logical process; the sparse matrix-vector
//! product needs the neighbouring z-planes, which are exchanged over the
//! logical channel before every `sparsemv` (outside the intra-parallel
//! sections, as the paper requires).

use crate::driver::{
    copy_var, dot_task_args, task_cost, waxpby_in_place, AppContext, ScaledWorkload,
};
use crate::report::AppRunReport;
use ipr_core::{ArgSpec, IntraResult, TaskDef};
use kernels::sparse::{spmv_cost, CsrMatrix};
use kernels::vecops::{self, ddot_cost, waxpby_cost};
use simmpi::Tag;
use std::sync::Arc;

const HALO_TAG_UP: Tag = 101;
const HALO_TAG_DOWN: Tag = 102;

/// Which kernels are executed inside intra-parallel sections.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelSelection {
    /// Intra-parallelize `waxpby` (the paper only does this in the
    /// kernel-level study of Figure 5a, not in the full application).
    pub waxpby: bool,
    /// Intra-parallelize `ddot`.
    pub ddot: bool,
    /// Intra-parallelize `sparsemv`.
    pub sparsemv: bool,
}

impl KernelSelection {
    /// The paper's Figure 5b configuration: ddot and sparsemv only.
    pub fn paper_application() -> Self {
        KernelSelection {
            waxpby: false,
            ddot: true,
            sparsemv: true,
        }
    }

    /// All three kernels (used by the Figure 5a kernel study).
    pub fn all() -> Self {
        KernelSelection {
            waxpby: true,
            ddot: true,
            sparsemv: true,
        }
    }
}

/// Parameters of an HPCCG run.
#[derive(Debug, Clone, Copy)]
pub struct HpccgParams {
    /// Local grid dimensions actually allocated per logical process.
    pub nx: usize,
    /// Local grid dimension y.
    pub ny: usize,
    /// Local grid dimension z.
    pub nz: usize,
    /// Modeled (paper-scale) local grid dimensions per logical process.
    pub modeled_nx: usize,
    /// Modeled local grid dimension y.
    pub modeled_ny: usize,
    /// Modeled local grid dimension z.
    pub modeled_nz: usize,
    /// Number of CG iterations to run.
    pub max_iters: usize,
    /// Which kernels run inside intra-parallel sections.
    pub kernels: KernelSelection,
}

impl HpccgParams {
    /// A small functional configuration (actual == modeled), handy for tests.
    pub fn small(n: usize, iters: usize) -> Self {
        HpccgParams {
            nx: n,
            ny: n,
            nz: n,
            modeled_nx: n,
            modeled_ny: n,
            modeled_nz: n,
            max_iters: iters,
            kernels: KernelSelection::paper_application(),
        }
    }

    /// The paper-scale configuration: a 128^3 modeled grid per logical
    /// process, executed on a reduced `actual^3` grid.
    pub fn paper_scale(actual: usize, iters: usize) -> Self {
        HpccgParams {
            nx: actual,
            ny: actual,
            nz: actual,
            modeled_nx: 128,
            modeled_ny: 128,
            modeled_nz: 128,
            max_iters: iters,
            kernels: KernelSelection::paper_application(),
        }
    }

    /// Local problem size actually allocated.
    pub fn local_n(&self) -> usize {
        self.nx * self.ny * self.nz
    }

    /// Modeled local problem size.
    pub fn modeled_n(&self) -> usize {
        self.modeled_nx * self.modeled_ny * self.modeled_nz
    }

    fn workload(&self) -> ScaledWorkload {
        ScaledWorkload::scaled(self.local_n(), self.modeled_n())
    }
}

/// Result of one HPCCG run on one physical process.
#[derive(Debug, Clone)]
pub struct HpccgOutput {
    /// Generic per-process report.
    pub report: AppRunReport,
    /// Final residual norm (global).
    pub residual: f64,
    /// Maximum absolute error against the known solution (all ones).
    pub solution_error: f64,
}

struct HaloLayout {
    n: usize,
    plane: usize,
    has_below: bool,
    has_above: bool,
}

impl HaloLayout {
    fn ghost_len(&self) -> usize {
        self.plane * (usize::from(self.has_below) + usize::from(self.has_above))
    }
    fn below_range(&self) -> Option<std::ops::Range<usize>> {
        self.has_below.then(|| self.n..self.n + self.plane)
    }
    fn above_range(&self) -> Option<std::ops::Range<usize>> {
        self.has_above.then(|| {
            let base = self.n + if self.has_below { self.plane } else { 0 };
            base..base + self.plane
        })
    }
}

/// Exchanges the boundary z-planes of the vector `values` (local part of
/// length `layout.n`, ghosts appended) with the logical neighbours.  Returns
/// the vector with ghost entries filled in.
fn exchange_halo(
    ctx: &AppContext,
    layout: &HaloLayout,
    values: &mut [f64],
    workload: &ScaledWorkload,
) -> IntraResult<()> {
    let rcomm = ctx.env.rcomm();
    let logical = rcomm.logical_rank();
    let modeled_plane_bytes = workload.scale_count(layout.plane) * std::mem::size_of::<f64>();
    // Send up (my top plane feeds the neighbour above), then down.
    if layout.has_above {
        let top = &values[(layout.n - layout.plane)..layout.n];
        rcomm.send_logical_with_modeled_size(top, logical + 1, HALO_TAG_UP, modeled_plane_bytes)?;
    }
    if layout.has_below {
        let bottom = &values[0..layout.plane];
        rcomm.send_logical_with_modeled_size(
            bottom,
            logical - 1,
            HALO_TAG_DOWN,
            modeled_plane_bytes,
        )?;
    }
    if let Some(range) = layout.below_range() {
        let incoming: Vec<f64> = rcomm.recv_logical(logical - 1, HALO_TAG_UP)?;
        values[range].copy_from_slice(&incoming);
    }
    if let Some(range) = layout.above_range() {
        let incoming: Vec<f64> = rcomm.recv_logical(logical + 1, HALO_TAG_DOWN)?;
        values[range].copy_from_slice(&incoming);
    }
    Ok(())
}

/// Runs HPCCG on this physical process and returns its report.
///
/// The run is collective: every physical process of the cluster must call it
/// with identical parameters.
pub fn run_hpccg(ctx: &mut AppContext, params: &HpccgParams) -> IntraResult<HpccgOutput> {
    let workload = params.workload();
    let rcomm = ctx.env.rcomm().clone();
    let logical = rcomm.logical_rank();
    let num_logical = rcomm.num_logical();
    let has_below = logical > 0;
    let has_above = logical + 1 < num_logical;

    let n = params.local_n();
    let plane = params.nx * params.ny;
    let layout = HaloLayout {
        n,
        plane,
        has_below,
        has_above,
    };
    let matrix = Arc::new(CsrMatrix::stencil27(
        params.nx, params.ny, params.nz, has_below, has_above,
    ));
    let ncols = matrix.ncols();

    // Modeled per-kernel costs at paper scale.
    let modeled_n = params.modeled_n();
    let nnz_per_row = matrix.nnz() as f64 / n as f64;
    let modeled_nnz = (modeled_n as f64 * nnz_per_row) as usize;
    let tasks = ctx.rt.config().tasks_per_section.max(1);
    let waxpby_task_cost = task_cost(waxpby_cost(modeled_n / tasks));
    let ddot_task_cost = task_cost(ddot_cost(modeled_n / tasks));
    let spmv_task_cost = task_cost(spmv_cost(modeled_n / tasks, modeled_nnz / tasks));

    // b = A * ones  => the exact solution of A x = b is the all-ones vector.
    let ones = vec![1.0; ncols];
    let mut b = vec![0.0; n];
    matrix.spmv(&ones, &mut b);

    // Workspace: x (solution), r (residual), p (search direction, with ghost
    // space), Ap, and the per-task partial dot products.
    let mut ws = ipr_core::Workspace::new();
    let x_v = ws.add_zeros("x", n);
    let r_v = ws.add("r", b.clone());
    let p_v = ws.add_zeros("p", n + layout.ghost_len());
    let ap_v = ws.add_zeros("Ap", n);
    let partial_v = ws.add_zeros("partial", tasks);

    ctx.start_measurement();

    // Kernel helpers ------------------------------------------------------

    // waxpby over the local range of two workspace vectors, written over one
    // of them, as every update of the CG loop is (`p = r + beta*p`).  The
    // aliased input is declared `inout` so that re-execution after a failure
    // is safe (Section III-B2 of the paper).  The section path would take a
    // distinct `w` too; the redundant one (`waxpby_in_place`) does not.
    let do_waxpby = |ctx: &mut AppContext,
                     ws: &mut ipr_core::Workspace,
                     alpha: f64,
                     xv: ipr_core::VarId,
                     beta: f64,
                     yv: ipr_core::VarId,
                     wv: ipr_core::VarId|
     -> IntraResult<()> {
        if params.kernels.waxpby {
            // mode 0: w distinct from x and y; 1: w == x; 2: w == y.
            let mode = if wv == xv {
                1.0
            } else if wv == yv {
                2.0
            } else {
                0.0
            };
            let mut section = ctx.rt.section(ws);
            section.add_split(n, |chunk| {
                let args = if wv == xv {
                    vec![ArgSpec::inout(wv, chunk.clone()), ArgSpec::input(yv, chunk)]
                } else if wv == yv {
                    vec![ArgSpec::input(xv, chunk.clone()), ArgSpec::inout(wv, chunk)]
                } else {
                    vec![
                        ArgSpec::input(xv, chunk.clone()),
                        ArgSpec::input(yv, chunk.clone()),
                        ArgSpec::output(wv, chunk),
                    ]
                };
                TaskDef::new(
                    "waxpby",
                    |c| {
                        let alpha = c.scalars[0];
                        let beta = c.scalars[1];
                        let mode = c.scalars[2] as i64;
                        let w = &mut c.outputs[0];
                        match mode {
                            1 => {
                                // w == x: w = alpha*w + beta*y
                                let y = &c.inputs[0];
                                for i in 0..w.len() {
                                    w[i] = alpha * w[i] + beta * y[i];
                                }
                            }
                            2 => {
                                // w == y: w = alpha*x + beta*w
                                let x = &c.inputs[0];
                                for i in 0..w.len() {
                                    w[i] = alpha * x[i] + beta * w[i];
                                }
                            }
                            _ => {
                                let x = &c.inputs[0];
                                let y = &c.inputs[1];
                                for i in 0..w.len() {
                                    w[i] = alpha * x[i] + beta * y[i];
                                }
                            }
                        }
                    },
                    args,
                )
                .with_scalars(vec![alpha, beta, mode])
                .with_cost(waxpby_task_cost)
            })?;
            let _ = section.end()?;
        } else {
            ctx.run_redundant(waxpby_cost(modeled_n), || ());
            waxpby_in_place(ws, n, alpha, xv, beta, yv, wv);
        }
        Ok(())
    };

    // Local dot product of two workspace vectors followed by the global
    // all-reduce over the logical processes (the reduce stays outside the
    // section, as in the paper).
    let do_ddot = |ctx: &mut AppContext,
                   ws: &mut ipr_core::Workspace,
                   xv: ipr_core::VarId,
                   yv: ipr_core::VarId|
     -> IntraResult<f64> {
        let local = if params.kernels.ddot {
            let mut section = ctx.rt.section(ws);
            let chunks = ipr_core::split_ranges(n, tasks);
            for (t, chunk) in chunks.into_iter().enumerate() {
                let same = xv == yv;
                section.add_task(
                    TaskDef::new(
                        "ddot",
                        move |c| {
                            let x = &c.inputs[0];
                            let y = if same { &c.inputs[0] } else { &c.inputs[1] };
                            c.outputs[0][0] = x.iter().zip(y.iter()).map(|(a, b)| a * b).sum();
                        },
                        dot_task_args(xv, yv, chunk, partial_v, t),
                    )
                    .with_cost(ddot_task_cost),
                )?;
            }
            let _ = section.end()?;
            ws.get(partial_v).iter().sum::<f64>()
        } else {
            ctx.run_redundant(ddot_cost(modeled_n), || ());
            vecops::ddot(&ws.get(xv)[..n], &ws.get(yv)[..n])
        };
        Ok(ctx.env.rcomm().logical_allreduce_sum_f64(local)?)
    };

    // Sparse matrix-vector product Ap = A * p (p includes the ghost planes).
    let do_spmv = |ctx: &mut AppContext, ws: &mut ipr_core::Workspace| -> IntraResult<()> {
        if params.kernels.sparsemv {
            let matrix = Arc::clone(&matrix);
            let mut section = ctx.rt.section(ws);
            section.add_split(n, |chunk| {
                let matrix = Arc::clone(&matrix);
                TaskDef::new(
                    "sparsemv",
                    move |c| {
                        // The output buffer covers exactly `rows`.
                        let rows = c.scalar_usize(0)..c.scalar_usize(1);
                        matrix.spmv_rows_into(rows, &c.inputs[0], &mut c.outputs[0]);
                    },
                    vec![
                        ArgSpec::input(p_v, 0..ncols),
                        ArgSpec::output(ap_v, chunk.clone()),
                    ],
                )
                .with_scalars(vec![chunk.start as f64, chunk.end as f64])
                .with_cost(spmv_task_cost)
            })?;
            let _ = section.end()?;
        } else {
            ctx.run_redundant(spmv_cost(modeled_n, modeled_nnz), || ());
            let mut ap = ws.take(ap_v);
            matrix.spmv(&ws.get(p_v)[..ncols], &mut ap[..n]);
            ws.replace(ap_v, ap);
        }
        Ok(())
    };

    // CG iterations --------------------------------------------------------
    // p = r ; rtrans = <r, r>
    copy_var(&mut ws, n, r_v, p_v);
    let mut rtrans = do_ddot(ctx, &mut ws, r_v, r_v)?;
    let mut iterations = 0usize;

    for iter in 0..params.max_iters {
        ctx.iteration_boundary(iter)?;
        if iter > 0 {
            // beta = rtrans / oldrtrans ; p = r + beta * p
            let oldrtrans = rtrans;
            rtrans = do_ddot(ctx, &mut ws, r_v, r_v)?;
            let beta = rtrans / oldrtrans;
            do_waxpby(ctx, &mut ws, 1.0, r_v, beta, p_v, p_v)?;
        }
        // Halo exchange of p, then Ap = A p.
        {
            let mut p = ws.take(p_v);
            exchange_halo(ctx, &layout, &mut p, &workload)?;
            ws.replace(p_v, p);
        }
        do_spmv(ctx, &mut ws)?;
        let p_ap = do_ddot(ctx, &mut ws, p_v, ap_v)?;
        if p_ap.abs() < f64::MIN_POSITIVE {
            break;
        }
        let alpha = rtrans / p_ap;
        // x = x + alpha p ; r = r - alpha Ap
        do_waxpby(ctx, &mut ws, 1.0, x_v, alpha, p_v, x_v)?;
        do_waxpby(ctx, &mut ws, 1.0, r_v, -alpha, ap_v, r_v)?;
        iterations = iter + 1;
    }

    let final_rtrans = do_ddot(ctx, &mut ws, r_v, r_v)?;
    let residual = final_rtrans.sqrt();
    let solution_error = ws
        .get(x_v)
        .iter()
        .map(|v| (v - 1.0).abs())
        .fold(0.0f64, f64::max);

    let report = ctx.finish(iterations, residual);
    Ok(HpccgOutput {
        report,
        residual,
        solution_error,
    })
}
