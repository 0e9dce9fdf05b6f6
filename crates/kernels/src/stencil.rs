//! Stencil kernels (MiniGhost-style).
//!
//! MiniGhost applies a 27-point stencil to a 3D grid after exchanging ghost
//! faces with its neighbours, then computes a global grid summation every few
//! time steps.  The paper could not intra-parallelize the stencil itself (its
//! output is a full new grid, like waxpby) and only applied
//! intra-parallelization to the grid summation (about 10 % of the runtime) —
//! this is the negative result of Figure 6d.  Both kernels are implemented
//! here, with cost descriptors.

use crate::cost::{KernelCost, F64};
use crate::grid::Grid3d;
use crate::pool::{KernelPool, Task};
use std::ops::Range;

/// Scalar reference for the 27-point stencil: one indexed load per tap.
/// Kept as the bit-identity oracle for the blocked kernel (the property
/// tests check `stencil27_planes` against this, bit for bit).
pub fn stencil27_planes_scalar(input: &Grid3d, output: &mut Grid3d, zs: Range<usize>) {
    let (nx, ny, nz) = input.dims();
    assert_eq!(input.dims(), output.dims(), "grids must have equal dims");
    assert!(zs.end <= nz, "plane range out of bounds");
    let inv = 1.0 / 27.0;
    for z in zs {
        for y in 0..ny {
            for x in 0..nx {
                let mut sum = 0.0;
                for dz in 0..3 {
                    for dy in 0..3 {
                        for dx in 0..3 {
                            sum += input.get_raw(x + dx, y + dy, z + dz);
                        }
                    }
                }
                output.set(x, y, z, sum * inv);
            }
        }
    }
}

/// Accumulates the 27-point sums of output row `(y, z)` into `out`
/// (`out.len()` = nx), then scales by `inv`.
///
/// The nine input rows are visited in `(dz, dy)` order and each row's three
/// taps are added in `dx` order, so every cell's floating-point addition
/// chain is exactly the scalar reference's `(dz, dy, dx)` chain — the
/// results are bit-identical.  The difference is purely mechanical: each
/// pass is an element-wise add of three shifted row slices, which compiles
/// to bounds-check-free SIMD instead of 27 indexed loads per cell.
#[inline]
fn stencil27_row_into(input: &Grid3d, y: usize, z: usize, inv: f64, out: &mut [f64]) {
    let nx = out.len();
    for o in out.iter_mut() {
        *o = 0.0;
    }
    for dz in 0..3 {
        for dy in 0..3 {
            let row = input.raw_row(y + dy, z + dz);
            let (r0, r1, r2) = (&row[..nx], &row[1..nx + 1], &row[2..nx + 2]);
            for (((o, a), b), c) in out.iter_mut().zip(r0).zip(r1).zip(r2) {
                *o = ((*o + a) + b) + c;
            }
        }
    }
    for o in out.iter_mut() {
        *o *= inv;
    }
}

/// Applies the 27-point average stencil to the interior z-planes in `zs` of
/// `input`, writing into the same planes of `output`.  Ghost cells of
/// `input` must already be filled.  Restricting the plane range is what lets
/// the stencil be split into intra-parallel tasks (and what the pool-driven
/// [`stencil27_pool`] tiles over).
///
/// Blocked implementation: sweeps row by row with slice-based inner loops
/// (see `Grid3d::raw_row`); bit-identical to
/// [`stencil27_planes_scalar`].
///
/// # Panics
/// Panics if the grids have different dimensions or the range is out of
/// bounds.
pub fn stencil27_planes(input: &Grid3d, output: &mut Grid3d, zs: Range<usize>) {
    let (_, ny, nz) = input.dims();
    assert_eq!(input.dims(), output.dims(), "grids must have equal dims");
    assert!(zs.end <= nz, "plane range out of bounds");
    let inv = 1.0 / 27.0;
    for z in zs {
        for y in 0..ny {
            stencil27_row_into(input, y, z, inv, output.interior_row_mut(y, z));
        }
    }
}

/// One interior z-plane of the 27-point stencil, written into the plane's
/// raw slab (as handed out by [`Grid3d::interior_plane_slabs_mut`]).  The
/// unit of work of [`stencil27_pool`].
fn stencil27_plane_into(input: &Grid3d, z: usize, slab: &mut [f64]) {
    let (nx, ny, _) = input.dims();
    let stride = input.raw_row_len();
    let inv = 1.0 / 27.0;
    for y in 0..ny {
        let start = (y + 1) * stride + 1;
        stencil27_row_into(input, y, z, inv, &mut slab[start..start + nx]);
    }
}

/// Full 27-point sweep executed on a [`KernelPool`]: the interior planes
/// are tiled across the pool's workers (one task per plane, any worker),
/// each writing its own disjoint output slab.  Bit-identical to the
/// sequential sweep for any worker count — every cell's arithmetic is
/// unchanged; only *which thread* computes a plane varies.
pub fn stencil27_pool(input: &Grid3d, output: &mut Grid3d, pool: &KernelPool) {
    assert_eq!(input.dims(), output.dims(), "grids must have equal dims");
    let slabs = output.interior_plane_slabs_mut();
    pool.run(
        slabs
            .into_iter()
            .enumerate()
            .map(|(z, slab)| {
                let task: Task<'_> = Box::new(move || stencil27_plane_into(input, z, slab));
                task
            })
            .collect(),
    );
}

/// Applies the 27-point stencil to the whole interior.
pub fn stencil27(input: &Grid3d, output: &mut Grid3d) {
    let (_, _, nz) = input.dims();
    stencil27_planes(input, output, 0..nz);
}

/// Sums the interior cells of the z-planes in `zs` (the MiniGhost grid
/// summation, split by planes for intra-parallel tasks).
pub fn grid_sum_planes(grid: &Grid3d, zs: Range<usize>) -> f64 {
    let (nx, ny, nz) = grid.dims();
    assert!(zs.end <= nz, "plane range out of bounds");
    let mut sum = 0.0;
    for z in zs {
        for y in 0..ny {
            for x in 0..nx {
                sum += grid.get(x, y, z);
            }
        }
    }
    sum
}

/// Cost of applying a `points`-point stencil to `n` grid cells: `points`
/// adds + 1 multiply per cell; reads `points` values (cache estimate: each
/// input cell read once per sweep plus the stencil reuse overhead folded
/// into a 2x factor), writes and ships one value per cell.
pub fn stencil_cost(n: usize, points: usize) -> KernelCost {
    let n = n as f64;
    let p = points as f64;
    KernelCost::new(p * n, 2.0 * n * F64, n * F64, n * F64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_field_is_a_fixed_point_of_both_stencils() {
        let mut input = Grid3d::filled(4, 4, 4, 2.5);
        // Fill ghosts with the same constant so averages stay constant.
        for z in 0..6 {
            for y in 0..6 {
                for x in 0..6 {
                    input.set_raw(x, y, z, 2.5);
                }
            }
        }
        let mut out27 = Grid3d::filled(4, 4, 4, 0.0);
        stencil27(&input, &mut out27);
        for z in 0..4 {
            for y in 0..4 {
                for x in 0..4 {
                    assert!((out27.get(x, y, z) - 2.5).abs() < 1e-12);
                }
            }
        }
    }

    #[test]
    fn plane_split_matches_full_sweep() {
        let input = Grid3d::from_fn(3, 3, 6, |x, y, z| ((x * 7 + y * 3 + z * 11) % 5) as f64);
        let mut full = Grid3d::filled(3, 3, 6, 0.0);
        stencil27(&input, &mut full);
        let mut split = Grid3d::filled(3, 3, 6, 0.0);
        stencil27_planes(&input, &mut split, 0..2);
        stencil27_planes(&input, &mut split, 2..5);
        stencil27_planes(&input, &mut split, 5..6);
        assert_eq!(full, split);
    }

    #[test]
    fn grid_sum_planes_partition_adds_up() {
        let g = Grid3d::from_fn(4, 3, 5, |x, y, z| (x + y + z) as f64);
        let total = grid_sum_planes(&g, 0..5);
        let split = grid_sum_planes(&g, 0..2) + grid_sum_planes(&g, 2..5);
        assert!((total - split).abs() < 1e-12);
        let expected: f64 = g.interior_to_vec().iter().sum();
        assert!((total - expected).abs() < 1e-12);
    }

    #[test]
    fn stencil_cost_is_update_heavy_and_sum_cost_is_not() {
        let s = stencil_cost(1_000_000, 27);
        let g = crate::vecops::grid_sum_cost(1_000_000);
        assert!(s.flops / s.output_bytes < 4.0);
        assert!(g.flops / g.output_bytes > 1e4);
    }
}
