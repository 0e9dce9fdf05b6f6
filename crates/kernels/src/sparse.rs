//! Sparse matrices in CSR format and the HPCCG / AMG problem generators.
//!
//! HPCCG builds a 27-point finite-difference operator on a 3D grid (diagonal
//! 27, off-diagonals −1), distributes it by stacking the local grids along
//! the z axis, and spends most of its time in `sparsemv`.  AMG2013's two
//! evaluation problems are Laplace-type operators with 27-point and 7-point
//! stencils on the same kind of grid.  This module generates the *local*
//! matrix of one logical process: rows are the local grid points, columns
//! `0..nrows` are local values and columns `nrows..ncols` refer to ghost
//! values received from the z-neighbours (the paper's applications exchange
//! those ghosts outside the intra-parallel sections).

use crate::cost::{KernelCost, F64};
use crate::pool::{KernelPool, Task};
use std::ops::Range;

/// A sparse matrix in compressed-sparse-row format.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    nrows: usize,
    ncols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<u32>,
    vals: Vec<f64>,
}

impl CsrMatrix {
    /// Builds a CSR matrix from per-row (column, value) lists.
    ///
    /// # Panics
    /// Panics if any column index is out of range.
    pub fn from_rows(ncols: usize, rows: &[Vec<(usize, f64)>]) -> Self {
        let nrows = rows.len();
        let nnz: usize = rows.iter().map(|r| r.len()).sum();
        let mut row_ptr = Vec::with_capacity(nrows + 1);
        let mut col_idx = Vec::with_capacity(nnz);
        let mut vals = Vec::with_capacity(nnz);
        row_ptr.push(0);
        for row in rows {
            for &(c, v) in row {
                assert!(c < ncols, "column index {c} out of range ({ncols} cols)");
                col_idx.push(c as u32);
                vals.push(v);
            }
            row_ptr.push(col_idx.len());
        }
        CsrMatrix {
            nrows,
            ncols,
            row_ptr,
            col_idx,
            vals,
        }
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns (local + ghost).
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of stored nonzeros.
    pub fn nnz(&self) -> usize {
        self.col_idx.len()
    }

    /// Number of nonzeros in the given row range.
    pub fn nnz_in_rows(&self, rows: Range<usize>) -> usize {
        self.row_ptr[rows.end] - self.row_ptr[rows.start]
    }

    /// The matrix diagonal (zero where a row has no diagonal entry).
    pub fn diagonal(&self) -> Vec<f64> {
        let mut d = vec![0.0; self.nrows];
        for (i, slot) in d.iter_mut().enumerate() {
            for k in self.row_ptr[i]..self.row_ptr[i + 1] {
                if self.col_idx[k] as usize == i {
                    *slot = self.vals[k];
                }
            }
        }
        d
    }

    /// Sparse matrix-vector product `y = A x` (the HPCCG `sparsemv` kernel).
    ///
    /// # Panics
    /// Panics if `x` is shorter than `ncols` or `y` shorter than `nrows`.
    pub fn spmv(&self, x: &[f64], y: &mut [f64]) {
        self.spmv_rows(0..self.nrows, x, y);
    }

    /// Sparse matrix-vector product restricted to a row range — this is the
    /// unit of work one intra-parallel task executes.
    ///
    /// # Panics
    /// Panics on out-of-range rows or undersized vectors.
    pub fn spmv_rows(&self, rows: Range<usize>, x: &[f64], y: &mut [f64]) {
        assert!(y.len() >= rows.end, "y is shorter than the row range");
        let start = rows.start;
        self.spmv_rows_into(rows.clone(), x, &mut y[start..rows.end]);
    }

    /// Like [`CsrMatrix::spmv_rows`], but writes the products into a
    /// zero-based chunk: `out[i - rows.start] = (A x)[rows.start + i]`.
    /// This is the form a tile pool wants — each tile borrows its
    /// own disjoint slice of `y` (e.g. from `chunks_mut`) with no index
    /// offsetting at the call site.
    ///
    /// The inner loop walks the row's values and column indices as zipped
    /// slices in the same `k` order as the classic indexed loop, so results
    /// are bit-identical to it — the slices merely drop the per-nonzero
    /// bounds checks.
    ///
    /// # Panics
    /// Panics on out-of-range rows, an undersized `x`, or an `out` chunk
    /// shorter than the row range.
    pub fn spmv_rows_into(&self, rows: Range<usize>, x: &[f64], out: &mut [f64]) {
        assert!(rows.end <= self.nrows, "row range out of bounds");
        assert!(x.len() >= self.ncols, "x is shorter than ncols");
        assert!(
            out.len() >= rows.len(),
            "out chunk is shorter than the row range"
        );
        let start = rows.start;
        for i in rows {
            let (lo, hi) = (self.row_ptr[i], self.row_ptr[i + 1]);
            let mut sum = 0.0;
            for (v, c) in self.vals[lo..hi].iter().zip(&self.col_idx[lo..hi]) {
                sum += v * x[*c as usize];
            }
            out[i - start] = sum;
        }
    }

    /// Sparse matrix-vector product executed on a [`KernelPool`]: rows are
    /// split into one contiguous block per worker (the striping the paper's
    /// intra-parallel `sparsemv` tasks use) and each block runs as a pool
    /// task writing its own disjoint chunk of `y`.  Bit-identical to
    /// [`CsrMatrix::spmv`] for any worker count.
    ///
    /// # Panics
    /// Panics if `x` is shorter than `ncols` or `y` shorter than `nrows`.
    pub fn spmv_pool(&self, x: &[f64], y: &mut [f64], pool: &KernelPool) {
        assert!(x.len() >= self.ncols, "x is shorter than ncols");
        assert!(y.len() >= self.nrows, "y is shorter than nrows");
        let block = self.nrows.div_ceil(pool.workers().max(1)).max(1);
        pool.run(
            y[..self.nrows]
                .chunks_mut(block)
                .enumerate()
                .map(|(b, chunk)| {
                    let lo = b * block;
                    let hi = (lo + chunk.len()).min(self.nrows);
                    let task: Task<'_> = Box::new(move || self.spmv_rows_into(lo..hi, x, chunk));
                    task
                })
                .collect(),
        );
    }

    /// Generates the HPCCG-style 27-point operator for a local `nx × ny × nz`
    /// grid: 27.0 on the diagonal, −1.0 for every neighbour (truncated at the
    /// local x/y boundaries).  The grid is distributed along z: if
    /// `ghost_below` / `ghost_above` are true, the neighbouring z-planes of
    /// adjacent logical processes appear as ghost columns appended after the
    /// local columns (first the plane below, then the plane above).
    pub fn stencil27(
        nx: usize,
        ny: usize,
        nz: usize,
        ghost_below: bool,
        ghost_above: bool,
    ) -> Self {
        Self::grid_operator(nx, ny, nz, ghost_below, ghost_above, 27.0, |dx, dy, dz| {
            // All 26 neighbours.
            !(dx == 0 && dy == 0 && dz == 0)
        })
    }

    /// Generates a 7-point Laplace-type operator (diagonal 6, −1 on the six
    /// face neighbours), with the same ghost-column convention as
    /// [`CsrMatrix::stencil27`].
    pub fn stencil7(nx: usize, ny: usize, nz: usize, ghost_below: bool, ghost_above: bool) -> Self {
        Self::grid_operator(nx, ny, nz, ghost_below, ghost_above, 6.0, |dx, dy, dz| {
            (dx.abs() + dy.abs() + dz.abs()) == 1
        })
    }

    fn grid_operator<F>(
        nx: usize,
        ny: usize,
        nz: usize,
        ghost_below: bool,
        ghost_above: bool,
        diag: f64,
        is_neighbour: F,
    ) -> Self
    where
        F: Fn(i64, i64, i64) -> bool,
    {
        let nlocal = nx * ny * nz;
        let plane = nx * ny;
        let below_base = nlocal;
        let above_base = nlocal + if ghost_below { plane } else { 0 };
        let ncols =
            nlocal + if ghost_below { plane } else { 0 } + if ghost_above { plane } else { 0 };
        let idx = |x: usize, y: usize, z: usize| -> usize { (z * ny + y) * nx + x };
        let mut rows: Vec<Vec<(usize, f64)>> = Vec::with_capacity(nlocal);
        for z in 0..nz as i64 {
            for y in 0..ny as i64 {
                for x in 0..nx as i64 {
                    let mut row = Vec::with_capacity(27);
                    for dz in -1i64..=1 {
                        for dy in -1i64..=1 {
                            for dx in -1i64..=1 {
                                if dx == 0 && dy == 0 && dz == 0 {
                                    row.push((idx(x as usize, y as usize, z as usize), diag));
                                    continue;
                                }
                                if !is_neighbour(dx, dy, dz) {
                                    continue;
                                }
                                let (cx, cy, cz) = (x + dx, y + dy, z + dz);
                                if cx < 0 || cx >= nx as i64 || cy < 0 || cy >= ny as i64 {
                                    continue; // truncated at local x/y boundary
                                }
                                if cz < 0 {
                                    if ghost_below {
                                        // The ghost plane below stores the
                                        // neighbour's top plane in (x, y) order.
                                        row.push((
                                            below_base + (cy as usize) * nx + cx as usize,
                                            -1.0,
                                        ));
                                    }
                                } else if cz >= nz as i64 {
                                    if ghost_above {
                                        row.push((
                                            above_base + (cy as usize) * nx + cx as usize,
                                            -1.0,
                                        ));
                                    }
                                } else {
                                    row.push((idx(cx as usize, cy as usize, cz as usize), -1.0));
                                }
                            }
                        }
                    }
                    rows.push(row);
                }
            }
        }
        Self::from_rows(ncols, &rows)
    }
}

/// Cost of a sparse matrix-vector product with `nrows` rows and `nnz`
/// nonzeros: 2 flops per nonzero; reads values (8 B) + column indices (4 B)
/// per nonzero plus the source vector (counted once per row, the cache-
/// friendly estimate HPCCG's memory behaviour justifies), writes and ships
/// the destination vector.
pub fn spmv_cost(nrows: usize, nnz: usize) -> KernelCost {
    let nrows = nrows as f64;
    let nnz = nnz as f64;
    KernelCost::new(
        2.0 * nnz,
        nnz * (F64 + 4.0) + nrows * F64,
        nrows * F64,
        nrows * F64,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn from_rows_and_accessors() {
        // [[2, -1, 0], [-1, 2, -1], [0, -1, 2]]
        let a = CsrMatrix::from_rows(
            3,
            &[
                vec![(0, 2.0), (1, -1.0)],
                vec![(0, -1.0), (1, 2.0), (2, -1.0)],
                vec![(1, -1.0), (2, 2.0)],
            ],
        );
        assert_eq!(a.nrows(), 3);
        assert_eq!(a.ncols(), 3);
        assert_eq!(a.nnz(), 7);
        assert_eq!(a.nnz_in_rows(1..3), 5);
        assert_eq!(a.diagonal(), vec![2.0, 2.0, 2.0]);
        let mut y = vec![0.0; 3];
        a.spmv(&[1.0, 2.0, 3.0], &mut y);
        assert_eq!(y, vec![0.0, 0.0, 4.0]);
    }

    #[test]
    fn spmv_rows_matches_full_spmv() {
        let a = CsrMatrix::stencil27(4, 3, 2, false, false);
        let x: Vec<f64> = (0..a.ncols()).map(|i| (i % 7) as f64 - 3.0).collect();
        let mut full = vec![0.0; a.nrows()];
        a.spmv(&x, &mut full);
        let mut pieces = vec![0.0; a.nrows()];
        let n = a.nrows();
        a.spmv_rows(0..n / 3, &x, &mut pieces);
        a.spmv_rows(n / 3..2 * n / 3, &x, &mut pieces);
        a.spmv_rows(2 * n / 3..n, &x, &mut pieces);
        assert_eq!(full, pieces);
    }

    #[test]
    fn stencil27_interior_row_has_27_entries() {
        let a = CsrMatrix::stencil27(5, 5, 5, false, false);
        assert_eq!(a.nrows(), 125);
        // Center point (2,2,2) has all 27 neighbours inside the local grid.
        let center = (2 * 5 + 2) * 5 + 2;
        assert_eq!(a.nnz_in_rows(center..center + 1), 27);
        // A corner has only 8 (2x2x2 block).
        assert_eq!(a.nnz_in_rows(0..1), 8);
        assert_eq!(a.diagonal(), vec![27.0; 125]);
    }

    #[test]
    fn stencil7_interior_row_has_7_entries() {
        let a = CsrMatrix::stencil7(4, 4, 4, false, false);
        let center = (4 + 1) * 4 + 1; // grid point (1, 1, 1)
        assert_eq!(a.nnz_in_rows(center..center + 1), 7);
        assert_eq!(a.nnz_in_rows(0..1), 4);
        assert_eq!(a.diagonal(), vec![6.0; 64]);
    }

    #[test]
    fn ghost_planes_extend_the_column_space() {
        let (nx, ny, nz) = (3, 3, 2);
        let a = CsrMatrix::stencil7(nx, ny, nz, true, true);
        assert_eq!(a.nrows(), nx * ny * nz);
        assert_eq!(a.ncols(), nx * ny * nz + 2 * nx * ny);
        // Bottom-plane center point reaches into the ghost plane below.
        let bottom_center = nx + 1; // grid point (1, 1, 0)
        let has_ghost_col = (a.row_ptr[bottom_center]..a.row_ptr[bottom_center + 1])
            .any(|k| (a.col_idx[k] as usize) >= nx * ny * nz);
        assert!(has_ghost_col);
    }

    #[test]
    fn row_sums_are_consistent_with_stencil_weights() {
        // With x = all ones (including ghosts), row i of the 27-pt operator
        // gives 27 - (#neighbours), which is >= 1 for interior points of a
        // closed domain and equals 1 when all 26 neighbours are present.
        let a = CsrMatrix::stencil27(5, 5, 5, false, false);
        let x = vec![1.0; a.ncols()];
        let mut y = vec![0.0; a.nrows()];
        a.spmv(&x, &mut y);
        let center = (2 * 5 + 2) * 5 + 2;
        assert_eq!(y[center], 1.0);
        assert!(y.iter().all(|&v| v >= 1.0));
    }

    #[test]
    fn spmv_cost_is_memory_bound_but_update_light() {
        let c = spmv_cost(1000, 27_000);
        assert!(c.intensity() < 0.5, "sparsemv is memory bound");
        // ~6.75 flops per update byte vs waxpby's ~0.375.
        assert!(c.flops_per_output_byte() > 5.0);
    }

    proptest! {
        #[test]
        fn spmv_is_linear(scale in -3.0f64..3.0) {
            let a = CsrMatrix::stencil7(3, 3, 3, false, false);
            let x: Vec<f64> = (0..a.ncols()).map(|i| (i as f64).sin()).collect();
            let xs: Vec<f64> = x.iter().map(|v| v * scale).collect();
            let mut y1 = vec![0.0; a.nrows()];
            let mut y2 = vec![0.0; a.nrows()];
            a.spmv(&x, &mut y1);
            a.spmv(&xs, &mut y2);
            for i in 0..a.nrows() {
                prop_assert!((y2[i] - scale * y1[i]).abs() < 1e-9);
            }
        }

        #[test]
        fn split_spmv_equals_full_spmv(split in 1usize..26) {
            let a = CsrMatrix::stencil27(3, 3, 3, false, false);
            let x: Vec<f64> = (0..a.ncols()).map(|i| ((i * 13 % 7) as f64) - 3.0).collect();
            let mut full = vec![0.0; a.nrows()];
            a.spmv(&x, &mut full);
            let s = split.min(a.nrows() - 1);
            let mut parts = vec![0.0; a.nrows()];
            a.spmv_rows(0..s, &x, &mut parts);
            a.spmv_rows(s..a.nrows(), &x, &mut parts);
            prop_assert_eq!(full, parts);
        }
    }
}
