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

use crate::driver::{copy_var, AppContext, ScaledWorkload};
use crate::report::AppRunReport;
use crate::sections::{exchange_ghost_planes, tasks_per_section, KernelSpec, Reduction};
use ipr_core::IntraResult;
use kernels::sparse::CsrMatrix;
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

    fn workload(&self) -> IntraResult<ScaledWorkload> {
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

/// Runs HPCCG on this physical process and returns its report.
///
/// The run is collective: every physical process of the cluster must call it
/// with identical parameters.
pub fn run_hpccg(ctx: &mut AppContext, params: &HpccgParams) -> IntraResult<HpccgOutput> {
    let workload = params.workload()?;
    let rcomm = ctx.env.rcomm().clone();
    let logical = rcomm.logical_rank();
    let has_below = logical > 0;
    let has_above = logical + 1 < rcomm.num_logical();

    let n = params.local_n();
    let plane = params.nx * params.ny;
    let modeled_plane_bytes = workload.scale_count(plane) * std::mem::size_of::<f64>();
    let matrix = Arc::new(CsrMatrix::stencil27(
        params.nx, params.ny, params.nz, has_below, has_above,
    ));
    let ncols = matrix.ncols();

    // The three kernels, costed at paper scale.
    let kernel = |name, intra| KernelSpec {
        name,
        intra,
        n,
        modeled_n: params.modeled_n(),
    };
    let updates = kernel("waxpby", params.kernels.waxpby);
    let dots = kernel("ddot", params.kernels.ddot);
    let matvec = kernel("sparsemv", params.kernels.sparsemv);

    // b = A * ones  => the exact solution of A x = b is the all-ones vector.
    let ones = vec![1.0; ncols];
    let mut b = vec![0.0; n];
    matrix.spmv(&ones, &mut b);

    // Workspace: x (solution), r (residual), p (search direction, with ghost
    // space), Ap, and the per-task partial dot products.
    let mut ws = ipr_core::Workspace::new();
    let x_v = ws.add_zeros("x", n);
    let r_v = ws.add("r", b.clone());
    let p_v = ws.add_zeros("p", ncols);
    let ap_v = ws.add_zeros("Ap", n);
    let partial_v = ws.add_zeros("partial", tasks_per_section(ctx));

    ctx.start_measurement();

    // Local dot product followed by the global all-reduce over the logical
    // processes (the reduce stays outside the section, as in the paper).
    let do_ddot = |ctx: &mut AppContext,
                   ws: &mut ipr_core::Workspace,
                   xv: ipr_core::VarId,
                   yv: ipr_core::VarId|
     -> IntraResult<f64> {
        let local = dots.reduce(ctx, ws, Reduction::Dot, xv, yv, partial_v)?;
        Ok(rcomm.logical_allreduce_sum_f64(local)?)
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
            updates.waxpby(ctx, &mut ws, 1.0, r_v, beta, p_v, p_v)?;
        }
        // Halo exchange of p, then Ap = A p.
        exchange_ghost_planes(
            &rcomm,
            (HALO_TAG_UP, HALO_TAG_DOWN),
            modeled_plane_bytes,
            ws.get_mut(p_v),
            n,
            plane,
        )?;
        matvec.spmv(ctx, &mut ws, &matrix, p_v, ap_v)?;
        let p_ap = do_ddot(ctx, &mut ws, p_v, ap_v)?;
        if p_ap.abs() < f64::MIN_POSITIVE {
            break;
        }
        let alpha = rtrans / p_ap;
        // x = x + alpha p ; r = r - alpha Ap
        updates.waxpby(ctx, &mut ws, 1.0, x_v, alpha, p_v, x_v)?;
        updates.waxpby(ctx, &mut ws, 1.0, r_v, -alpha, ap_v, r_v)?;
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
