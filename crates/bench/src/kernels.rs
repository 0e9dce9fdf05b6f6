//! Wall-clock throughput microbenchmarks of the compute kernels.
//!
//! Like [`crate::fabric`], this measures *host* speed, not virtual time: how
//! many grid cells, matrix nonzeros, or vector elements per second the
//! kernels crate moves on the machine running the simulator.  The modeled
//! [`kernels::KernelCost`] descriptors — and therefore every virtual-time
//! report — are untouched by kernel implementation changes; these benchmarks
//! are how such changes are held to account (the `kernels.*` per-layer
//! metrics of `benchmarks/`).
//!
//! Scales are chosen to match the paper's applications: the stencil runs on
//! a MiniGhost-sized local subgrid (64³, ~2 MiB of f64 per grid — well out
//! of L2, so cache blocking is what it measures), and the HPCCG trio
//! (`spmv`, `waxpby`, `ddot`) runs on a 32×32×64 local operator / 1M-element
//! vectors.

use kernels::stencil::{grid_sum_planes, stencil27, stencil27_pool};
use kernels::vecops::{ddot, ddot_lanes, waxpby};
use kernels::{CsrMatrix, Grid3d, KernelPool};
use std::time::Instant;

/// Result of one kernel throughput microbenchmark.
#[derive(Debug, Clone)]
pub struct KernelBench {
    /// Benchmark name (stable identifier).
    pub name: String,
    /// Timed iterations of the kernel.
    pub iters: usize,
    /// Work units processed per iteration (see `unit`).
    pub n: u64,
    /// What a work unit is: `"cells"`, `"nnz"`, or `"elems"`.
    pub unit: &'static str,
    /// Wall-clock duration of the measured region, in seconds.
    pub wall_s: f64,
    /// `n * iters / wall_s`.
    pub per_sec: f64,
    /// A value derived from the kernel output: keeps the compiler from
    /// discarding the work and gives the smoke gate a sanity check.
    pub checksum: f64,
}

fn finish(
    name: String,
    iters: usize,
    n: u64,
    unit: &'static str,
    checksum: f64,
    t0: Instant,
) -> KernelBench {
    let wall_s = t0.elapsed().as_secs_f64().max(1e-9);
    KernelBench {
        name,
        iters,
        n,
        unit,
        wall_s,
        per_sec: (n * iters as u64) as f64 / wall_s,
        checksum,
    }
}

/// 27-point stencil sweep over an `edge³` local subgrid (MiniGhost's kernel);
/// input and output alternate so every iteration reads the previous result.
pub fn stencil27_throughput(edge: usize, iters: usize) -> KernelBench {
    let mut a = Grid3d::from_fn(edge, edge, edge, |x, y, z| {
        ((x * 7 + y * 3 + z * 11) % 13) as f64 - 6.0
    });
    let mut b = Grid3d::filled(edge, edge, edge, 0.0);
    let t0 = Instant::now();
    for _ in 0..iters {
        stencil27(&a, &mut b);
        std::mem::swap(&mut a, &mut b);
    }
    let checksum = grid_sum_planes(&a, 0..edge);
    finish(
        format!("stencil27_mg{edge}"),
        iters,
        (edge * edge * edge) as u64,
        "cells",
        checksum,
        t0,
    )
}

/// The same sweep driven through a [`KernelPool`] sized to the host — one
/// task per interior z-plane, stolen freely.  On a single-core host this
/// degenerates to the sequential blocked sweep (same checksum either way:
/// pool execution is bit-identical for any worker count).
pub fn stencil27_pool_throughput(edge: usize, iters: usize) -> KernelBench {
    let pool = KernelPool::host_sized();
    let mut a = Grid3d::from_fn(edge, edge, edge, |x, y, z| {
        ((x * 7 + y * 3 + z * 11) % 13) as f64 - 6.0
    });
    let mut b = Grid3d::filled(edge, edge, edge, 0.0);
    let t0 = Instant::now();
    for _ in 0..iters {
        stencil27_pool(&a, &mut b, &pool);
        std::mem::swap(&mut a, &mut b);
    }
    let checksum = grid_sum_planes(&a, 0..edge);
    finish(
        format!("stencil27_pool_mg{edge}"),
        iters,
        (edge * edge * edge) as u64,
        "cells",
        checksum,
        t0,
    )
}

/// Sparse matrix-vector product on the HPCCG 27-point operator for an
/// `nx × ny × nz` local grid (with both z ghost planes, as a middle rank
/// sees it).  Throughput is counted in nonzeros per second.
pub fn spmv_throughput(nx: usize, ny: usize, nz: usize, iters: usize) -> KernelBench {
    let a = CsrMatrix::stencil27(nx, ny, nz, true, true);
    let x: Vec<f64> = (0..a.ncols())
        .map(|i| ((i % 17) as f64) * 0.25 - 2.0)
        .collect();
    let mut y = vec![0.0; a.nrows()];
    let t0 = Instant::now();
    for _ in 0..iters {
        a.spmv(&x, &mut y);
    }
    let checksum = y.iter().sum();
    finish(
        format!("spmv_hpccg_{nx}x{ny}x{nz}"),
        iters,
        a.nnz() as u64,
        "nnz",
        checksum,
        t0,
    )
}

/// `w = alpha x + beta y` on `n`-element vectors (the HPCCG update kernel).
pub fn waxpby_throughput(n: usize, iters: usize) -> KernelBench {
    let x: Vec<f64> = (0..n).map(|i| (i % 31) as f64 * 0.125).collect();
    let y: Vec<f64> = (0..n).map(|i| (i % 29) as f64 * 0.25 - 3.0).collect();
    let mut w = vec![0.0; n];
    let t0 = Instant::now();
    for _ in 0..iters {
        waxpby(1.0, &x, 0.75, &y, &mut w);
    }
    let checksum = w[n / 2] + w[n - 1];
    finish(
        format!("waxpby_hpccg_{n}"),
        iters,
        n as u64,
        "elems",
        checksum,
        t0,
    )
}

/// Dot product on `n`-element vectors (the HPCCG reduction kernel).
pub fn ddot_throughput(n: usize, iters: usize) -> KernelBench {
    let x: Vec<f64> = (0..n).map(|i| (i % 23) as f64 * 0.0625 - 0.5).collect();
    let y: Vec<f64> = (0..n).map(|i| (i % 19) as f64 * 0.03125).collect();
    let mut acc = 0.0;
    let t0 = Instant::now();
    for _ in 0..iters {
        acc += ddot(&x, &y);
    }
    finish(format!("ddot_hpccg_{n}"), iters, n as u64, "elems", acc, t0)
}

/// Dot product via the lane-parallel [`ddot_lanes`] variant; same scale as
/// [`ddot_throughput`] so the two entries expose the serial-chain cost.
pub fn ddot_lanes_throughput(n: usize, iters: usize) -> KernelBench {
    let x: Vec<f64> = (0..n).map(|i| (i % 23) as f64 * 0.0625 - 0.5).collect();
    let y: Vec<f64> = (0..n).map(|i| (i % 19) as f64 * 0.03125).collect();
    let mut acc = 0.0;
    let t0 = Instant::now();
    for _ in 0..iters {
        acc += ddot_lanes(&x, &y);
    }
    finish(
        format!("ddot_lanes_hpccg_{n}"),
        iters,
        n as u64,
        "elems",
        acc,
        t0,
    )
}

/// Structural invariant on a finished kernel benchmark: the kernel did real
/// work and produced a finite result.  Never a wall-clock assertion.
pub fn check_kernel_result(b: &KernelBench) -> Result<(), String> {
    if b.n == 0 || b.iters == 0 {
        return Err(format!("{}: no work configured", b.name));
    }
    if b.wall_s <= 0.0 || !b.per_sec.is_finite() || b.per_sec <= 0.0 {
        return Err(format!("{}: degenerate measurement", b.name));
    }
    if !b.checksum.is_finite() {
        return Err(format!("{}: non-finite checksum {}", b.name, b.checksum));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A reduced suite for the structural unit test.
    fn smoke_suite() -> Vec<KernelBench> {
        vec![
            stencil27_throughput(12, 2),
            stencil27_pool_throughput(12, 2),
            spmv_throughput(8, 8, 8, 2),
            waxpby_throughput(1 << 12, 4),
            ddot_throughput(1 << 12, 4),
            ddot_lanes_throughput(1 << 12, 4),
        ]
    }

    #[test]
    fn kernel_microbenchmarks_do_real_work() {
        for b in smoke_suite() {
            check_kernel_result(&b).unwrap();
        }
    }

    #[test]
    fn stencil_checksum_is_scale_stable() {
        // Same grid, same iteration count: the checksum is a pure function
        // of the kernel — two runs must agree bit-for-bit (the throughput
        // rewrite must not perturb the arithmetic).
        let a = stencil27_throughput(10, 3);
        let b = stencil27_throughput(10, 3);
        assert_eq!(a.checksum.to_bits(), b.checksum.to_bits());
    }

    #[test]
    fn pool_stencil_checksum_matches_sequential() {
        // Pool execution only redistributes which thread computes a plane;
        // the arithmetic is the sequential sweep's, bit for bit.
        let a = stencil27_throughput(10, 3);
        let b = stencil27_pool_throughput(10, 3);
        assert_eq!(a.checksum.to_bits(), b.checksum.to_bits());
    }
}
