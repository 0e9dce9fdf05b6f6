//! Vector kernels: the HPCCG trio (`waxpby`, `ddot`) and friends.
//!
//! These are the kernels of Figure 5a of the paper.  Each comes with a cost
//! descriptor; the key property reproduced by the costs is the ratio between
//! computation and output (update) size:
//!
//! * `waxpby` writes a full vector while doing only 3 flops per element — its
//!   update is as large as its memory traffic, so intra-parallelization
//!   *loses* (paper: 0.34 efficiency, worse than plain replication);
//! * `ddot` reduces two vectors to a single scalar — its update is 8 bytes,
//!   so intra-parallelization is essentially free (paper: 0.99);
//! * `sparsemv` (in [`crate::sparse`]) writes a vector but reads a whole
//!   matrix row per element — enough work per output byte for
//!   intra-parallelization to pay off (paper: 0.94).

use crate::cost::{KernelCost, F64};

/// `w = alpha * x + beta * y` (the HPCCG `waxpby` kernel).
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn waxpby(alpha: f64, x: &[f64], beta: f64, y: &[f64], w: &mut [f64]) {
    assert_eq!(
        x.len(),
        y.len(),
        "waxpby: x and y must have the same length"
    );
    assert_eq!(
        x.len(),
        w.len(),
        "waxpby: x and w must have the same length"
    );
    // Match HPCCG's special-casing of alpha/beta == 1.0 (it matters for the
    // flop count, not for the result).  The zipped iterators give the
    // compiler three bounds-check-free elementwise loops; the per-element
    // arithmetic is unchanged, so results are bit-identical to the indexed
    // form.
    let pairs = w.iter_mut().zip(x.iter().zip(y));
    if alpha == 1.0 {
        for (w, (x, y)) in pairs {
            *w = x + beta * y;
        }
    } else if beta == 1.0 {
        for (w, (x, y)) in pairs {
            *w = alpha * x + y;
        }
    } else {
        for (w, (x, y)) in pairs {
            *w = alpha * x + beta * y;
        }
    }
}

/// Cost of [`waxpby`] on vectors of length `n`: 3 flops per element, reads
/// two vectors, writes one (which is also the update).
pub fn waxpby_cost(n: usize) -> KernelCost {
    let n = n as f64;
    KernelCost::new(3.0 * n, 2.0 * n * F64, n * F64, n * F64)
}

/// Local part of the HPCCG `ddot` kernel: the dot product of two vectors.
/// (The MPI all-reduce that completes the global dot product is *outside*
/// the intra-parallel section, as in the paper.)
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn ddot(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "ddot: vectors must have the same length");
    let mut sum = 0.0;
    for i in 0..x.len() {
        sum += x[i] * y[i];
    }
    sum
}

/// Number of independent accumulators used by [`ddot_lanes`].
const DDOT_LANES: usize = 8;

/// Dot product with `DDOT_LANES` (8) fixed-width accumulator lanes.
///
/// The sequential [`ddot`] carries one serial addition chain, so its
/// throughput is capped by the FP-add latency and the compiler cannot
/// vectorize it without `-ffast-math`-style licence.  This variant keeps
/// eight independent accumulators (lane `l` sums elements `l, l+8, l+16, …`)
/// and tree-reduces them at the end, which is the standard way to expose the
/// reduction to SIMD while keeping the summation order *fixed*: for a given
/// input the result is always the same bits, on every host and worker count.
/// It is **not** bit-identical to [`ddot`] (the association differs), which
/// is why `ddot` stays the app-facing kernel: the simulated applications'
/// goldens are pinned to the sequential order.
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn ddot_lanes(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(
        x.len(),
        y.len(),
        "ddot_lanes: vectors must have the same length"
    );
    let mut lanes = [0.0f64; DDOT_LANES];
    let mut xc = x.chunks_exact(DDOT_LANES);
    let mut yc = y.chunks_exact(DDOT_LANES);
    for (xs, ys) in xc.by_ref().zip(yc.by_ref()) {
        for ((lane, a), b) in lanes.iter_mut().zip(xs).zip(ys) {
            *lane += a * b;
        }
    }
    let mut sum = ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3]))
        + ((lanes[4] + lanes[5]) + (lanes[6] + lanes[7]));
    for (a, b) in xc.remainder().iter().zip(yc.remainder()) {
        sum += a * b;
    }
    sum
}

/// Cost of [`ddot`] on vectors of length `n`: 2 flops per element, reads two
/// vectors, writes (and ships) a single scalar.
pub fn ddot_cost(n: usize) -> KernelCost {
    let n = n as f64;
    KernelCost::new(2.0 * n, 2.0 * n * F64, F64, F64)
}

/// `y += alpha * x` (classic axpy).
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpy: vectors must have the same length");
    for i in 0..y.len() {
        y[i] += alpha * x[i];
    }
}

/// Cost of [`axpy`] on vectors of length `n`.
pub fn axpy_cost(n: usize) -> KernelCost {
    let n = n as f64;
    KernelCost::new(2.0 * n, 2.0 * n * F64, n * F64, n * F64)
}

/// Scales a vector in place: `x *= alpha`.
pub fn scale(alpha: f64, x: &mut [f64]) {
    for v in x.iter_mut() {
        *v *= alpha;
    }
}

/// Cost of [`scale`] on a vector of length `n`.
pub fn scale_cost(n: usize) -> KernelCost {
    let n = n as f64;
    KernelCost::new(n, n * F64, n * F64, n * F64)
}

/// Sum of all elements (the MiniGhost grid-summation kernel, `GRID_SUM`).
pub fn grid_sum(x: &[f64]) -> f64 {
    let mut sum = 0.0;
    for &v in x {
        sum += v;
    }
    sum
}

/// Cost of [`grid_sum`] on `n` elements: 1 flop per element, reads one
/// vector, ships a single scalar.
pub fn grid_sum_cost(n: usize) -> KernelCost {
    let n = n as f64;
    KernelCost::new(n, n * F64, F64, F64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn waxpby_matches_reference() {
        let x = vec![1.0, 2.0, 3.0];
        let y = vec![10.0, 20.0, 30.0];
        let mut w = vec![0.0; 3];
        waxpby(2.0, &x, 0.5, &y, &mut w);
        assert_eq!(w, vec![7.0, 14.0, 21.0]);
        // alpha == 1 and beta == 1 fast paths give the same results.
        waxpby(1.0, &x, 0.5, &y, &mut w);
        assert_eq!(w, vec![6.0, 12.0, 18.0]);
        waxpby(2.0, &x, 1.0, &y, &mut w);
        assert_eq!(w, vec![12.0, 24.0, 36.0]);
    }

    #[test]
    fn ddot_and_norm() {
        let x = vec![3.0, 4.0];
        assert_eq!(ddot(&x, &x), 25.0);
        assert_eq!(ddot(&x, &[1.0, 1.0]), 7.0);
    }

    #[test]
    fn axpy_scale_fill_and_sum() {
        let mut y = vec![1.0, 1.0, 1.0];
        axpy(3.0, &[1.0, 2.0, 3.0], &mut y);
        assert_eq!(y, vec![4.0, 7.0, 10.0]);
        scale(0.5, &mut y);
        assert_eq!(y, vec![2.0, 3.5, 5.0]);
        assert_eq!(grid_sum(&y), 10.5);
        y.fill(0.0);
        assert_eq!(grid_sum(&y), 0.0);
    }

    #[test]
    fn cost_ratios_match_the_papers_story() {
        let n = 1 << 20;
        let w = waxpby_cost(n);
        let d = ddot_cost(n);
        // waxpby ships as many bytes as it writes: ~2.7 flops per output
        // byte.  ddot ships 8 bytes total: millions of flops per output byte.
        assert!(w.flops / w.output_bytes < 1.0);
        assert!(d.flops / d.output_bytes > 1e5);
        assert!(grid_sum_cost(n).flops / grid_sum_cost(n).output_bytes > 1e5);
    }

    #[test]
    #[should_panic]
    fn waxpby_rejects_mismatched_lengths() {
        let mut w = vec![0.0; 2];
        waxpby(1.0, &[1.0, 2.0], 1.0, &[1.0], &mut w);
    }

    proptest! {
        #[test]
        fn waxpby_is_linear(alpha in -10.0f64..10.0, beta in -10.0f64..10.0,
                            xs in proptest::collection::vec(-100.0f64..100.0, 1..64)) {
            let ys: Vec<f64> = xs.iter().map(|v| v * 0.5 + 1.0).collect();
            let mut w = vec![0.0; xs.len()];
            waxpby(alpha, &xs, beta, &ys, &mut w);
            for i in 0..xs.len() {
                prop_assert!((w[i] - (alpha * xs[i] + beta * ys[i])).abs() < 1e-9);
            }
        }

        #[test]
        fn ddot_is_symmetric_and_positive(xs in proptest::collection::vec(-100.0f64..100.0, 1..64)) {
            let ys: Vec<f64> = xs.iter().rev().cloned().collect();
            let xy = ddot(&xs, &ys);
            let yx = ddot(&ys, &xs);
            prop_assert!((xy - yx).abs() < 1e-6);
            prop_assert!(ddot(&xs, &xs) >= 0.0);
        }

        #[test]
        fn ddot_lanes_agrees_with_sequential_ddot(
            xs in proptest::collection::vec(-100.0f64..100.0, 0..200)
        ) {
            let ys: Vec<f64> = xs.iter().map(|v| v * 0.25 - 2.0).collect();
            let seq = ddot(&xs, &ys);
            let lanes = ddot_lanes(&xs, &ys);
            // Different association, same value up to rounding.
            let scale = 1.0 + seq.abs();
            prop_assert!((seq - lanes).abs() / scale < 1e-10);
            // And the laned result is itself deterministic bit for bit.
            prop_assert_eq!(lanes.to_bits(), ddot_lanes(&xs, &ys).to_bits());
        }

        #[test]
        fn grid_sum_matches_iterator_sum(xs in proptest::collection::vec(-1.0f64..1.0, 0..128)) {
            let expected: f64 = xs.iter().sum();
            prop_assert!((grid_sum(&xs) - expected).abs() < 1e-9);
        }
    }
}
