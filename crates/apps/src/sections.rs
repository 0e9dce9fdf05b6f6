//! The paper's section shapes, written once.
//!
//! Section IV intra-parallelizes three HPCCG kernels — `waxpby` (a map),
//! `ddot` (a reduction) and `sparsemv` — and every application of Figures
//! 5b–6 reuses those shapes under its own task names.  [`KernelSpec`] owns
//! them: the task bodies and argument tags, the per-task cost
//! `task_cost(cost(modeled_n / tasks))`, and the choice between an
//! intra-parallel section and redundant execution on every replica.  The
//! figure harness (`ipr-bench`) measures these same functions.
//!
//! [`exchange_z_planes`] is the boundary exchange of the z-stacked domain
//! decomposition the grid applications share; it runs outside the sections,
//! as the paper requires.

use crate::driver::{task_cost, AppContext};
use ipr_core::{split_ranges, ArgSpec, IntraResult, TaskDef, VarId, Workspace};
use kernels::sparse::{spmv_cost, CsrMatrix};
use kernels::vecops::{self, ddot_cost, grid_sum_cost, waxpby_cost};
use kernels::KernelCost;
use replication::ReplicatedComm;
use simmpi::Tag;
use std::sync::Arc;

/// One kernel of an application: its task name, where it runs and how big
/// it is.  The kernel covers elements `0..n` of its operands.
#[derive(Debug, Clone, Copy)]
pub struct KernelSpec {
    /// Task name: what `TaskCostSample`s and the cost model key on.
    pub name: &'static str,
    /// Run as an intra-parallel section (tasks shared between the replicas)
    /// or redundantly on every replica.
    pub intra: bool,
    /// Elements actually computed.
    pub n: usize,
    /// Elements of the modeled, paper-scale problem the costs are charged for.
    pub modeled_n: usize,
}

/// What a reduction section computes per chunk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reduction {
    /// The dot product of two operands (HPCCG `ddot`, the AMG proxy's
    /// `amg-dot`).
    Dot,
    /// The plain sum of one operand (MiniGhost's `grid-sum`).
    Sum,
}

impl Reduction {
    /// Two operand chunks (the same chunk twice in the one-operand form) to
    /// one scalar.
    fn chunk(self, x: &[f64], y: &[f64]) -> f64 {
        match self {
            Reduction::Dot => vecops::ddot(x, y),
            Reduction::Sum => vecops::grid_sum(x),
        }
    }

    /// Cost of [`Reduction::chunk`] on `n` elements.
    fn cost(self, n: usize) -> KernelCost {
        match self {
            Reduction::Dot => ddot_cost(n),
            Reduction::Sum => grid_sum_cost(n),
        }
    }
}

impl KernelSpec {
    /// `w = alpha * x + beta * y` over `0..n`, where `wv` may be `xv` or
    /// `yv` (every update of the CG loop overwrites an operand, e.g.
    /// `p = r + beta * p`).  In a section the aliased operand is declared
    /// `inout`, so re-execution after a failure is safe (Section III-B2 of
    /// the paper).  Element for element the arithmetic is
    /// [`kernels::vecops::waxpby`]'s, whose special-casing of a unit factor
    /// does not change a result bit.
    #[allow(clippy::too_many_arguments)]
    pub fn waxpby(
        &self,
        ctx: &mut AppContext,
        ws: &mut Workspace,
        alpha: f64,
        xv: VarId,
        beta: f64,
        yv: VarId,
        wv: VarId,
    ) -> IntraResult<()> {
        let n = self.n;
        if !self.intra {
            ctx.run_redundant(waxpby_cost(self.modeled_n), || ());
            let mut w = ws.take(wv);
            let x = (wv != xv).then(|| &ws.get(xv)[..n]);
            let y = (wv != yv).then(|| &ws.get(yv)[..n]);
            waxpby_over(alpha, x, beta, y, &mut w[..n]);
            ws.replace(wv, w);
            return Ok(());
        }
        let cost = task_cost(waxpby_cost(self.modeled_n / tasks_per_section(ctx)));
        let name = self.name;
        let mut section = ctx.rt.section(ws);
        section.add_split(n, |chunk| {
            let mut args = Vec::with_capacity(3);
            if wv != xv {
                args.push(ArgSpec::input(xv, chunk.clone()));
            }
            if wv != yv {
                args.push(ArgSpec::input(yv, chunk.clone()));
            }
            args.push(if wv == xv || wv == yv {
                ArgSpec::inout(wv, chunk)
            } else {
                ArgSpec::output(wv, chunk)
            });
            TaskDef::new(
                name,
                move |c| {
                    let mut inputs = c.inputs.iter().map(Vec::as_slice);
                    let x = if wv != xv { inputs.next() } else { None };
                    let y = if wv != yv { inputs.next() } else { None };
                    waxpby_over(alpha, x, beta, y, &mut c.outputs[0]);
                },
                args,
            )
            .with_cost(cost)
        })?;
        let _ = section.end()?;
        Ok(())
    }

    /// The local reduction of `xv` and `yv` over `0..n` (one operand when
    /// `xv == yv`): task `t` reduces its chunk into slot `t` of `partial`
    /// (at least `tasks_per_section` long) and the slots are summed.  The
    /// all-reduce that makes the value global stays with the caller,
    /// outside the section, as in the paper.
    pub fn reduce(
        &self,
        ctx: &mut AppContext,
        ws: &mut Workspace,
        op: Reduction,
        xv: VarId,
        yv: VarId,
        partial: VarId,
    ) -> IntraResult<f64> {
        let n = self.n;
        if !self.intra {
            ctx.run_redundant(op.cost(self.modeled_n), || ());
            return Ok(op.chunk(&ws.get(xv)[..n], &ws.get(yv)[..n]));
        }
        let tasks = tasks_per_section(ctx);
        let cost = task_cost(op.cost(self.modeled_n / tasks));
        let same = xv == yv;
        let mut section = ctx.rt.section(ws);
        for (t, chunk) in split_ranges(n, tasks).into_iter().enumerate() {
            let slot = ArgSpec::output(partial, t..t + 1);
            let args = if same {
                vec![ArgSpec::input(xv, chunk), slot]
            } else {
                vec![
                    ArgSpec::input(xv, chunk.clone()),
                    ArgSpec::input(yv, chunk),
                    slot,
                ]
            };
            section.add_task(
                TaskDef::new(
                    self.name,
                    move |c| {
                        let x = &c.inputs[0];
                        let y = if same { x } else { &c.inputs[1] };
                        c.outputs[0][0] = op.chunk(x, y);
                    },
                    args,
                )
                .with_cost(cost),
            )?;
        }
        let _ = section.end()?;
        Ok(ws.get(partial).iter().sum())
    }

    /// `y[0..n] = A x`, where `A` has `n` rows and `xv` holds at least
    /// `A.ncols()` values (the local part followed by its ghost planes).
    /// Each task computes a contiguous row block straight into its output
    /// buffer.
    pub fn spmv(
        &self,
        ctx: &mut AppContext,
        ws: &mut Workspace,
        matrix: &Arc<CsrMatrix>,
        xv: VarId,
        yv: VarId,
    ) -> IntraResult<()> {
        let (n, ncols) = (self.n, matrix.ncols());
        // The modeled operator has the actual one's fill per row.
        let modeled_nnz = (self.modeled_n as f64 * (matrix.nnz() as f64 / n as f64)) as usize;
        if !self.intra {
            ctx.run_redundant(spmv_cost(self.modeled_n, modeled_nnz), || ());
            let mut y = ws.take(yv);
            matrix.spmv(&ws.get(xv)[..ncols], &mut y[..n]);
            ws.replace(yv, y);
            return Ok(());
        }
        let tasks = tasks_per_section(ctx);
        let cost = task_cost(spmv_cost(self.modeled_n / tasks, modeled_nnz / tasks));
        let name = self.name;
        let mut section = ctx.rt.section(ws);
        section.add_split(n, |rows| {
            let matrix = Arc::clone(matrix);
            let args = vec![
                ArgSpec::input(xv, 0..ncols),
                ArgSpec::output(yv, rows.clone()),
            ];
            TaskDef::new(
                name,
                move |c| matrix.spmv_rows_into(rows.clone(), &c.inputs[0], &mut c.outputs[0]),
                args,
            )
            .with_cost(cost)
        })?;
        let _ = section.end()?;
        Ok(())
    }
}

/// `w = alpha * x + beta * y`, where an absent operand is `w` itself.
fn waxpby_over(alpha: f64, x: Option<&[f64]>, beta: f64, y: Option<&[f64]>, w: &mut [f64]) {
    match (x, y) {
        (Some(x), Some(y)) => vecops::waxpby(alpha, x, beta, y, w),
        (None, Some(y)) => {
            for (w, y) in w.iter_mut().zip(y) {
                *w = alpha * *w + beta * y;
            }
        }
        (Some(x), None) => {
            for (w, x) in w.iter_mut().zip(x) {
                *w = alpha * x + beta * *w;
            }
        }
        (None, None) => {
            for w in w.iter_mut() {
                *w = alpha * *w + beta * *w;
            }
        }
    }
}

/// Tasks a section is split into: also the slots a `partial` variable needs.
pub(crate) fn tasks_per_section(ctx: &AppContext) -> usize {
    ctx.rt.config().tasks_per_section.max(1)
}

/// One boundary exchange of a domain decomposed by stacking the local grids
/// along z, one block per logical process: sends the plane `top()` to the
/// logical neighbour above and `bottom()` to the one below (each is only
/// built when that neighbour exists), then returns the planes received from
/// `[below, above]`, `None` where the domain ends.  `tags` are the (upward,
/// downward) message tags and `modeled_plane_bytes` the paper-scale size
/// charged per plane.
pub fn exchange_z_planes<P: AsRef<[f64]>>(
    rcomm: &ReplicatedComm,
    (tag_up, tag_down): (Tag, Tag),
    modeled_plane_bytes: usize,
    top: impl FnOnce() -> P,
    bottom: impl FnOnce() -> P,
) -> IntraResult<[Option<Vec<f64>>; 2]> {
    let logical = rcomm.logical_rank();
    let (has_below, has_above) = (logical > 0, logical + 1 < rcomm.num_logical());
    let send = |plane: P, dest, tag| {
        rcomm.send_logical_with_modeled_size(plane.as_ref(), dest, tag, modeled_plane_bytes)
    };
    if has_above {
        send(top(), logical + 1, tag_up)?;
    }
    if has_below {
        send(bottom(), logical - 1, tag_down)?;
    }
    let below = has_below.then(|| rcomm.recv_logical(logical - 1, tag_up));
    let above = has_above.then(|| rcomm.recv_logical(logical + 1, tag_down));
    Ok([below.transpose()?, above.transpose()?])
}

/// [`exchange_z_planes`] for a vector that keeps its ghost planes appended
/// to its `n` local values, the plane from below first (the column layout
/// of [`CsrMatrix::stencil27`] / [`CsrMatrix::stencil7`]): sends the last
/// and first local planes and fills the ghost ranges in place.
pub fn exchange_ghost_planes(
    rcomm: &ReplicatedComm,
    tags: (Tag, Tag),
    modeled_plane_bytes: usize,
    values: &mut [f64],
    n: usize,
    plane: usize,
) -> IntraResult<()> {
    let ghosts = exchange_z_planes(
        rcomm,
        tags,
        modeled_plane_bytes,
        || &values[n - plane..n],
        || &values[..plane],
    )?;
    let mut ghost = n;
    for incoming in ghosts.into_iter().flatten() {
        values[ghost..ghost + plane].copy_from_slice(&incoming);
        ghost += plane;
    }
    Ok(())
}
