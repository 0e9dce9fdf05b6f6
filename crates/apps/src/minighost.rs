//! MiniGhost proxy: 27-point stencil sweeps with halo exchange.
//!
//! MiniGhost (Mantevo) studies boundary-exchange strategies: every time step
//! it exchanges ghost faces with its neighbours, applies a 27-point stencil,
//! and periodically reduces a global grid summation.  The paper (Figure 6d)
//! could **not** intra-parallelize the stencil itself — its output is a full
//! new grid, so shipping the update costs as much as recomputing it — and
//! only the grid summation (~10 % of the runtime) runs in intra-parallel
//! sections, which caps the efficiency at ≈ 0.51.  The proxy reproduces
//! exactly that split: the stencil is executed redundantly on every replica,
//! the grid summation is intra-parallelized.

use crate::driver::{AppContext, ScaledWorkload};
use crate::report::AppRunReport;
use crate::sections::{exchange_z_planes, tasks_per_section, KernelSpec, Reduction};
use ipr_core::{IntraResult, Workspace};
use kernels::grid::{Face, Grid3d};
use kernels::stencil::{stencil27_planes, stencil_cost};
use simmpi::Tag;

const HALO_TAG_UP: Tag = 131;
const HALO_TAG_DOWN: Tag = 132;

/// Parameters of a MiniGhost-proxy run.
#[derive(Debug, Clone, Copy)]
pub struct MiniGhostParams {
    /// Actual local grid dimensions per logical process.
    pub nx: usize,
    /// Local grid dimension y.
    pub ny: usize,
    /// Local grid dimension z.
    pub nz: usize,
    /// Modeled local grid dimensions (the paper uses 128 × 128 × 64).
    pub modeled_nx: usize,
    /// Modeled local grid dimension y.
    pub modeled_ny: usize,
    /// Modeled local grid dimension z.
    pub modeled_nz: usize,
    /// Number of stencil time steps.
    pub steps: usize,
    /// A grid summation is performed every `sum_every` steps (MiniGhost's
    /// `percent_sum` knob; 1 = every step).
    pub sum_every: usize,
    /// Whether the grid summation runs inside intra-parallel sections.
    pub intra_sum: bool,
}

impl MiniGhostParams {
    /// A small functional configuration.
    pub fn small(n: usize, steps: usize) -> Self {
        MiniGhostParams {
            nx: n,
            ny: n,
            nz: n,
            modeled_nx: n,
            modeled_ny: n,
            modeled_nz: n,
            steps,
            sum_every: 1,
            intra_sum: true,
        }
    }

    /// Paper-scale configuration: 128 × 128 × 64 modeled per process.
    pub fn paper_scale(actual: usize, steps: usize) -> Self {
        MiniGhostParams {
            nx: actual,
            ny: actual,
            nz: actual / 2,
            modeled_nx: 128,
            modeled_ny: 128,
            modeled_nz: 64,
            steps,
            sum_every: 2,
            intra_sum: true,
        }
    }

    fn local_n(&self) -> usize {
        self.nx * self.ny * self.nz
    }

    fn modeled_n(&self) -> usize {
        self.modeled_nx * self.modeled_ny * self.modeled_nz
    }

    fn workload(&self) -> IntraResult<ScaledWorkload> {
        ScaledWorkload::scaled(self.local_n(), self.modeled_n())
    }
}

/// Result of a MiniGhost-proxy run on one physical process.
#[derive(Debug, Clone)]
pub struct MiniGhostOutput {
    /// Generic per-process report.
    pub report: AppRunReport,
    /// Last global grid summation value.
    pub last_sum: f64,
}

/// Runs the MiniGhost proxy on this physical process.
pub fn run_minighost(
    ctx: &mut AppContext,
    params: &MiniGhostParams,
) -> IntraResult<MiniGhostOutput> {
    let workload = params.workload()?;
    let rcomm = ctx.env.rcomm().clone();
    let logical = rcomm.logical_rank();

    let (nx, ny, nz) = (params.nx, params.ny, params.nz);
    let n = params.local_n();
    let modeled_n = params.modeled_n();
    let face_cells = nx * ny;
    let modeled_face_bytes = params.modeled_nx * params.modeled_ny * std::mem::size_of::<f64>();

    // Two grids (ping-pong) initialized from a smooth deterministic field.
    let mut current = Grid3d::from_fn(nx, ny, nz, |x, y, z| {
        1.0 + ((x + 2 * y + 3 * z + logical) % 7) as f64 * 0.1
    });
    let mut next = Grid3d::filled(nx, ny, nz, 0.0);

    // Workspace: the flattened interior (input of the summation) and the
    // per-task partial sums.
    let mut ws = Workspace::new();
    let interior_v = ws.add_zeros("interior", n);
    let partial_v = ws.add_zeros("partial", tasks_per_section(ctx));

    let stencil_full_cost = stencil_cost(modeled_n, 27);
    let grid_sum = KernelSpec {
        name: "grid-sum",
        intra: params.intra_sum,
        n,
        modeled_n,
    };

    ctx.start_measurement();

    let mut last_sum = 0.0;
    for step in 0..params.steps {
        ctx.iteration_boundary(step)?;

        // --- boundary exchange (outside sections) --------------------------
        let [below, above] = exchange_z_planes(
            &rcomm,
            (HALO_TAG_UP, HALO_TAG_DOWN),
            modeled_face_bytes,
            || current.extract_face(Face::Up),
            || current.extract_face(Face::Down),
        )?;
        if let Some(face) = below {
            current.fill_ghost(Face::Down, &face);
        }
        if let Some(face) = above {
            current.fill_ghost(Face::Up, &face);
        }
        // Charge the (small) copy cost of packing/unpacking the faces.
        ctx.charge_other(kernels::KernelCost::new(
            0.0,
            2.0 * face_cells as f64 * 8.0 * workload.scale(),
            2.0 * face_cells as f64 * 8.0 * workload.scale(),
            0.0,
        ));

        // --- 27-point stencil sweep (redundant on every replica) -----------
        ctx.run_redundant(stencil_full_cost, || ());
        stencil27_planes(&current, &mut next, 0..nz);
        std::mem::swap(&mut current, &mut next);

        // --- grid summation (intra-parallel) --------------------------------
        if params.sum_every > 0 && (step + 1) % params.sum_every == 0 {
            ws.write_range(interior_v, 0..n, &current.interior_to_vec());
            let local_sum = grid_sum.reduce(
                ctx,
                &mut ws,
                Reduction::Sum,
                interior_v,
                interior_v,
                partial_v,
            )?;
            last_sum = rcomm.logical_allreduce_sum_f64(local_sum)?;
        }
    }

    let report = ctx.finish(params.steps, last_sum);
    Ok(MiniGhostOutput { report, last_sum })
}
