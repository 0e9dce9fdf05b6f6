//! AMG2013 proxy: Krylov solvers on Laplace-type stencil operators.
//!
//! AMG2013 is an algebraic multigrid proxy application; the paper evaluates
//! two of its configurations (Figure 6a/6b):
//!
//! * a **preconditioned conjugate gradient** applied to a Laplace problem
//!   with a **27-point** stencil (sections ≈ 62 % of the native runtime,
//!   intra efficiency ≈ 0.61);
//! * **GMRES** applied to a Laplace problem with a **7-point** stencil
//!   (sections ≈ 42 %, intra efficiency ≈ 0.59).
//!
//! The proxy implemented here keeps the solver structure (diagonally
//! preconditioned CG, restarted GMRES with classical Gram–Schmidt) and the
//! stencil operators, and intra-parallelizes the kernels that are good
//!   candidates — the sparse matrix-vector product and the dot products —
//! while the vector updates (waxpby-like, poor candidates) and the
//! preconditioner run redundantly.  This reproduces both the
//! sections-vs-others split and the compute-to-update ratios that drive the
//! paper's Figure 6a/6b results.

use crate::driver::{copy_var, AppContext, ScaledWorkload};
use crate::report::AppRunReport;
use crate::sections::{exchange_ghost_planes, tasks_per_section, KernelSpec, Reduction};
use ipr_core::{IntraResult, VarId, Workspace};
use kernels::dense::{back_substitute, Givens};
use kernels::sparse::CsrMatrix;
use kernels::vecops::{self, axpy_cost, scale_cost, waxpby_cost};
use simmpi::Tag;
use std::sync::Arc;

const HALO_TAG_UP: Tag = 111;
const HALO_TAG_DOWN: Tag = 112;

/// Which solver (and stencil) the proxy runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AmgSolver {
    /// Diagonally preconditioned CG on a 27-point operator (Figure 6a).
    Pcg27,
    /// Restarted GMRES on a 7-point operator (Figure 6b).
    Gmres7,
}

/// Parameters of an AMG-proxy run.
#[derive(Debug, Clone, Copy)]
pub struct AmgParams {
    /// Solver / stencil selection.
    pub solver: AmgSolver,
    /// Actual local grid edge (the local grid is `n_actual^3`).
    pub n_actual: usize,
    /// Modeled local grid edge (the paper uses 100, i.e. 100^3 per logical
    /// process).
    pub n_modeled: usize,
    /// Outer iterations (CG iterations, or GMRES restart cycles).
    pub max_iters: usize,
    /// GMRES restart length.
    pub restart: usize,
    /// Whether the dot products run in intra-parallel sections.
    pub intra_dots: bool,
}

impl AmgParams {
    /// A small functional configuration.
    pub fn small(solver: AmgSolver, n: usize, iters: usize) -> Self {
        AmgParams {
            solver,
            n_actual: n,
            n_modeled: n,
            max_iters: iters,
            restart: 10,
            intra_dots: true,
        }
    }

    /// The paper-scale configuration: 100^3 modeled per logical process.
    /// For the 27-point PCG problem only the matrix-vector product is
    /// intra-parallelized (it already covers ~62 % of the runtime, matching
    /// the paper's reported share); for the 7-point GMRES problem the
    /// Gram-Schmidt dot products are included as well.
    pub fn paper_scale(solver: AmgSolver, actual: usize, iters: usize) -> Self {
        AmgParams {
            solver,
            n_actual: actual,
            n_modeled: 100,
            max_iters: iters,
            restart: 30,
            intra_dots: matches!(solver, AmgSolver::Gmres7),
        }
    }

    fn local_n(&self) -> usize {
        self.n_actual * self.n_actual * self.n_actual
    }

    fn modeled_n(&self) -> usize {
        self.n_modeled * self.n_modeled * self.n_modeled
    }

    fn workload(&self) -> IntraResult<ScaledWorkload> {
        ScaledWorkload::scaled(self.local_n(), self.modeled_n())
    }
}

/// Result of one AMG-proxy run on one physical process.
#[derive(Debug, Clone)]
pub struct AmgOutput {
    /// Generic per-process report.
    pub report: AppRunReport,
    /// Final residual norm.
    pub residual: f64,
}

/// Shared state for the kernel helpers.
struct AmgKernels {
    matrix: Arc<CsrMatrix>,
    /// Local rows; vectors multiplied by the matrix carry `matrix.ncols()`
    /// values (ghost planes appended).
    n: usize,
    plane: usize,
    modeled_plane_bytes: usize,
    modeled_n: usize,
    /// The good section candidates, and the vector update that is not one.
    matvec: KernelSpec,
    dots: KernelSpec,
    updates: KernelSpec,
    /// Workspace variable holding the per-task partial dot products.
    partial: VarId,
}

impl AmgKernels {
    /// y = A * x where `xv` has ghost space appended; exchanges halos first.
    fn spmv(
        &self,
        ctx: &mut AppContext,
        ws: &mut Workspace,
        xv: VarId,
        yv: VarId,
    ) -> IntraResult<()> {
        exchange_ghost_planes(
            ctx.env.rcomm(),
            (HALO_TAG_UP, HALO_TAG_DOWN),
            self.modeled_plane_bytes,
            ws.get_mut(xv),
            self.n,
            self.plane,
        )?;
        self.matvec.spmv(ctx, ws, &self.matrix, xv, yv)
    }

    /// Global dot product of two local vectors.
    fn dot(
        &self,
        ctx: &mut AppContext,
        ws: &mut Workspace,
        xv: VarId,
        yv: VarId,
    ) -> IntraResult<f64> {
        let local = self
            .dots
            .reduce(ctx, ws, Reduction::Dot, xv, yv, self.partial)?;
        Ok(ctx.env.rcomm().logical_allreduce_sum_f64(local)?)
    }

    /// Redundant axpy: y += alpha * x (`xv` and `yv` distinct).
    fn axpy_redundant(
        &self,
        ctx: &AppContext,
        ws: &mut Workspace,
        alpha: f64,
        xv: VarId,
        yv: VarId,
    ) {
        let n = self.n;
        ctx.run_redundant(axpy_cost(self.modeled_n), || ());
        let mut y = ws.take(yv);
        vecops::axpy(alpha, &ws.get(xv)[..n], &mut y[..n]);
        ws.replace(yv, y);
    }

    /// Redundant scale: x *= alpha.
    fn scale_redundant(&self, ctx: &AppContext, ws: &mut Workspace, alpha: f64, xv: VarId) {
        let n = self.n;
        ctx.run_redundant(scale_cost(self.modeled_n), || ());
        vecops::scale(alpha, &mut ws.get_mut(xv)[..n]);
    }
}

/// Runs the AMG proxy on this physical process.
pub fn run_amg(ctx: &mut AppContext, params: &AmgParams) -> IntraResult<AmgOutput> {
    let workload = params.workload()?;
    let logical = ctx.env.logical_rank();
    let has_below = logical > 0;
    let has_above = logical + 1 < ctx.env.num_logical();

    let edge = params.n_actual;
    let n = params.local_n();
    let plane = edge * edge;
    let matrix = Arc::new(match params.solver {
        AmgSolver::Pcg27 => CsrMatrix::stencil27(edge, edge, edge, has_below, has_above),
        AmgSolver::Gmres7 => CsrMatrix::stencil7(edge, edge, edge, has_below, has_above),
    });
    let ncols = matrix.ncols();
    let modeled_n = params.modeled_n();
    let kernel = |name, intra| KernelSpec {
        name,
        intra,
        n,
        modeled_n,
    };
    let mut ws = Workspace::new();
    let kernels = AmgKernels {
        matrix: Arc::clone(&matrix),
        n,
        plane,
        modeled_plane_bytes: workload.scale_count(plane) * std::mem::size_of::<f64>(),
        modeled_n,
        matvec: kernel("amg-spmv", true),
        dots: kernel("amg-dot", params.intra_dots),
        updates: kernel("amg-waxpby", false),
        partial: ws.add_zeros("partial", tasks_per_section(ctx)),
    };

    // b = A * ones, exact solution = ones.
    let ones = vec![1.0; ncols];
    let mut b = vec![0.0; n];
    matrix.spmv(&ones, &mut b);

    match params.solver {
        AmgSolver::Pcg27 => run_pcg(ctx, params, kernels, ws, b),
        AmgSolver::Gmres7 => run_gmres(ctx, params, kernels, ws, b),
    }
}

fn run_pcg(
    ctx: &mut AppContext,
    params: &AmgParams,
    kernels: AmgKernels,
    mut ws: Workspace,
    b: Vec<f64>,
) -> IntraResult<AmgOutput> {
    let n = kernels.n;
    let ncols = kernels.matrix.ncols();
    let diag = kernels.matrix.diagonal();

    let x_v = ws.add_zeros("x", n);
    let r_v = ws.add("r", b);
    let z_v = ws.add_zeros("z", n);
    let p_v = ws.add_zeros("p", ncols);
    let ap_v = ws.add_zeros("Ap", n);

    ctx.start_measurement();

    // z = M^{-1} r (Jacobi preconditioner), p = z.
    let apply_precond = |ctx: &AppContext, ws: &mut Workspace| {
        ctx.run_redundant(scale_cost(kernels.modeled_n), || ());
        let mut z = ws.take(z_v);
        for ((zi, ri), di) in z.iter_mut().zip(ws.get(r_v)).zip(&diag) {
            *zi = ri / di;
        }
        ws.replace(z_v, z);
    };

    apply_precond(ctx, &mut ws);
    copy_var(&mut ws, n, z_v, p_v);
    let mut rz = kernels.dot(ctx, &mut ws, r_v, z_v)?;
    let mut iterations = 0usize;

    for iter in 0..params.max_iters {
        // C/R-only coordinated point: AMG's timed-crash behaviour predates
        // the checkpoint subsystem and must stay unchanged, so no
        // failure-injection check is added here.
        ctx.checkpoint_boundary()?;
        kernels.spmv(ctx, &mut ws, p_v, ap_v)?;
        let p_ap = kernels.dot(ctx, &mut ws, p_v, ap_v)?;
        if p_ap.abs() < f64::MIN_POSITIVE {
            break;
        }
        let alpha = rz / p_ap;
        kernels.axpy_redundant(ctx, &mut ws, alpha, p_v, x_v);
        kernels.axpy_redundant(ctx, &mut ws, -alpha, ap_v, r_v);
        apply_precond(ctx, &mut ws);
        let rz_new = kernels.dot(ctx, &mut ws, r_v, z_v)?;
        let beta = rz_new / rz;
        rz = rz_new;
        // p = z + beta * p
        kernels
            .updates
            .waxpby(ctx, &mut ws, 1.0, z_v, beta, p_v, p_v)?;
        iterations = iter + 1;
    }

    let rr = kernels.dot(ctx, &mut ws, r_v, r_v)?;
    let residual = rr.sqrt();
    let report = ctx.finish(iterations, residual);
    Ok(AmgOutput { report, residual })
}

fn run_gmres(
    ctx: &mut AppContext,
    params: &AmgParams,
    kernels: AmgKernels,
    mut ws: Workspace,
    b: Vec<f64>,
) -> IntraResult<AmgOutput> {
    let n = kernels.n;
    let ncols = kernels.matrix.ncols();
    let m = params.restart.max(2);

    let x_v = ws.add_zeros("x", n);
    let r_v = ws.add("r", b.clone());
    let w_v = ws.add_zeros("w", n);
    // Krylov basis: m+1 vectors, each with ghost space for the halo.
    let v_vs: Vec<VarId> = (0..=m)
        .map(|j| ws.add_zeros(&format!("v{j}"), ncols))
        .collect();

    ctx.start_measurement();

    let mut residual = f64::MAX;
    let mut cycles = 0usize;
    for _cycle in 0..params.max_iters {
        // C/R-only coordinated point (see run_pcg).
        ctx.checkpoint_boundary()?;
        // r = b - A x
        copy_var(&mut ws, n, x_v, v_vs[0]);
        kernels.spmv(ctx, &mut ws, v_vs[0], w_v)?;
        {
            ctx.run_redundant(waxpby_cost(kernels.modeled_n), || ());
            let mut r = ws.take(r_v);
            for ((ri, bi), axi) in r.iter_mut().zip(&b).zip(ws.get(w_v)) {
                *ri = bi - axi;
            }
            ws.replace(r_v, r);
        }
        let beta = kernels.dot(ctx, &mut ws, r_v, r_v)?.sqrt();
        residual = beta;
        if beta < 1e-12 {
            break;
        }
        // v0 = r / beta
        copy_var(&mut ws, n, r_v, v_vs[0]);
        kernels.scale_redundant(ctx, &mut ws, 1.0 / beta, v_vs[0]);

        let mut h: Vec<Vec<f64>> = vec![vec![0.0; m + 1]; m];
        let mut g = vec![0.0; m + 1];
        g[0] = beta;
        let mut rotations: Vec<Givens> = Vec::with_capacity(m);
        let mut k = 0usize;

        for j in 0..m {
            // w = A v_j
            kernels.spmv(ctx, &mut ws, v_vs[j], w_v)?;
            // Classical Gram-Schmidt: h[i][j] = <w, v_i>, then w -= h[i][j] v_i.
            for (i, &vi) in v_vs.iter().enumerate().take(j + 1) {
                let hij = kernels.dot(ctx, &mut ws, w_v, vi)?;
                h[j][i] = hij;
                kernels.axpy_redundant(ctx, &mut ws, -hij, vi, w_v);
            }
            let wnorm = kernels.dot(ctx, &mut ws, w_v, w_v)?.sqrt();
            h[j][j + 1] = wnorm;
            k = j + 1;
            if wnorm < 1e-14 {
                break;
            }
            // v_{j+1} = w / wnorm
            copy_var(&mut ws, n, w_v, v_vs[j + 1]);
            kernels.scale_redundant(ctx, &mut ws, 1.0 / wnorm, v_vs[j + 1]);

            // Apply the previous Givens rotations to the new column, compute
            // the new rotation, and update the residual estimate.
            for (i, rot) in rotations.iter().enumerate() {
                let (a, b2) = rot.apply(h[j][i], h[j][i + 1]);
                h[j][i] = a;
                h[j][i + 1] = b2;
            }
            let rot = Givens::compute(h[j][j], h[j][j + 1]);
            let (a, _) = rot.apply(h[j][j], h[j][j + 1]);
            h[j][j] = a;
            h[j][j + 1] = 0.0;
            let (g0, g1) = rot.apply(g[j], g[j + 1]);
            g[j] = g0;
            g[j + 1] = g1;
            rotations.push(rot);
            residual = g[j + 1].abs();
        }

        // Solve the small least-squares problem and update x.
        if k > 0 {
            let y = back_substitute(&h, &g, k);
            for (j, &yj) in y.iter().enumerate().take(k) {
                kernels.axpy_redundant(ctx, &mut ws, yj, v_vs[j], x_v);
            }
        }
        cycles += 1;
        if residual < 1e-10 {
            break;
        }
    }

    let report = ctx.finish(cycles, residual);
    Ok(AmgOutput { report, residual })
}
