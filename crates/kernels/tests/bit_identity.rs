//! Bit-identity properties of the blocked / pooled kernels.
//!
//! The blocked rewrites (slice-based stencils, laned reductions, pooled
//! sweeps) are throughput work on the *host* side; the contract that keeps
//! the repository's goldens valid is that they change no result by even one
//! ULP.  Every property here compares `f64::to_bits`, not approximate
//! equality: the blocked kernels must reproduce their scalar references'
//! floating-point addition chains exactly, and the pool must be invisible —
//! the same bits for any worker count and any plane-split point.

use kernels::pic::{charge_deposit, push};
use kernels::stencil::{stencil27, stencil27_planes, stencil27_planes_scalar, stencil27_pool};
use kernels::vecops::{ddot_lanes, waxpby};
use kernels::{CsrMatrix, Grid3d, KernelPool, ParticleSet};
use proptest::prelude::*;
use std::ops::Range;

fn arb_grid(nx: usize, ny: usize, nz: usize, seed: u64) -> Grid3d {
    // A cheap deterministic fill with enough structure that reassociated
    // sums would actually differ in the low bits.
    Grid3d::from_fn(nx, ny, nz, move |x, y, z| {
        let h = (x as u64)
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add((y as u64).wrapping_mul(0xbf58_476d_1ce4_e5b9))
            .wrapping_add((z as u64).wrapping_mul(0x94d0_49bb_1331_11eb))
            .wrapping_add(seed);
        ((h % 4093) as f64) * 0.037 - 75.0
    })
}

fn grids_bit_equal(a: &Grid3d, b: &Grid3d) -> bool {
    let (nx, ny, nz) = a.dims();
    for z in 0..nz {
        for y in 0..ny {
            for x in 0..nx {
                if a.get(x, y, z).to_bits() != b.get(x, y, z).to_bits() {
                    return false;
                }
            }
        }
    }
    true
}

/// `pic::charge_deposit` with `rem_euclid` and `%` on every particle, as it
/// was first written: the oracle its comparison fast paths must match.
fn charge_deposit_oracle(particles: &ParticleSet, range: Range<usize>, density: &mut [f64]) {
    let ncells = density.len();
    let dx = particles.length / ncells as f64;
    for i in range {
        let xp = particles.x[i].rem_euclid(particles.length);
        let cell = (xp / dx).floor();
        let frac = xp / dx - cell;
        let c0 = (cell as usize) % ncells;
        let c1 = (c0 + 1) % ncells;
        density[c0] += 1.0 - frac;
        density[c1] += frac;
    }
}

/// `pic::push` as first written, the oracle of its fast paths.
fn push_oracle(particles: &mut ParticleSet, range: Range<usize>, field: &[f64], dt: f64) {
    let ncells = field.len();
    let length = particles.length;
    let dx = length / ncells as f64;
    for i in range {
        let xp = particles.x[i].rem_euclid(length);
        let cell = (xp / dx).floor();
        let frac = xp / dx - cell;
        let c0 = (cell as usize) % ncells;
        let c1 = (c0 + 1) % ncells;
        let e = field[c0] * (1.0 - frac) + field[c1] * frac;
        particles.v[i] += e * dt;
        particles.x[i] = (particles.x[i] + particles.v[i] * dt).rem_euclid(length);
    }
}

/// Particles of domain `length` in every position class the kernels
/// branch on: inside `[0, length)`, negative, at or past `length`, and the
/// boundary values `length − ulp`, `length`, `0` and `−0`.  A particle at
/// `±0` moves at `±0`, so a push that gathers a `±0` field contribution
/// shows the sign it got in the particle's velocity.
fn arb_particles(n: usize, length: f64, seed: u64) -> ParticleSet {
    let below_length = f64::from_bits(length.to_bits() - 1);
    let (mut x, mut v) = (Vec::with_capacity(n), Vec::with_capacity(n));
    for i in 0..n as u64 {
        let h = i
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(seed.wrapping_mul(0xbf58_476d_1ce4_e5b9));
        let frac = ((h >> 11) % 10_007) as f64 / 10_007.0;
        let class = (h >> 40) % 8;
        x.push(match class {
            0..=2 => frac * length,
            3 => -frac * 3.0 * length,
            4 => length + frac * 3.0 * length,
            5 => below_length,
            6 => length,
            _ => [0.0, -0.0][(h & 1) as usize],
        });
        v.push(if class == 7 {
            [0.0, -0.0][((h >> 1) & 1) as usize]
        } else {
            (frac - 0.5) * 4.0 * length
        });
    }
    ParticleSet { x, v, length }
}

/// Domain lengths for `ncells` cells.  The kernels multiply by `1 / dx`
/// when the cell width `dx` is a power of two and divide otherwise, so the
/// first four fix `dx` at a power of two (1, 0.5, 2⁻³, 16) and the last
/// at `0.3 / 7`; the fixed lengths in between give a power-of-two width
/// only for some cell counts.
fn pic_lengths(ncells: usize) -> [f64; 9] {
    let n = ncells as f64;
    [
        n,
        0.5 * n,
        0.125 * n,
        16.0 * n,
        1.0,
        16.0,
        0.3,
        100.0 / 3.0,
        0.3 / 7.0 * n,
    ]
}

proptest! {
    #[test]
    fn pic_kernels_match_their_rem_euclid_oracles(
        n in 1usize..64, ncells in 1usize..140, seed in 0u64..1000,
    ) {
        for length in pic_lengths(ncells) {
            let particles = arb_particles(n, length, seed);
            // A `−0` grid keeps the sign of a `±0` deposit: `−0 + −0` is
            // `−0`, `−0 + +0` is `+0`.
            let mut density = vec![-0.0; ncells];
            let mut expect = vec![-0.0; ncells];
            charge_deposit(&particles, 0..n, &mut density);
            charge_deposit_oracle(&particles, 0..n, &mut expect);
            for (got, want) in density.iter().zip(&expect) {
                prop_assert_eq!(got.to_bits(), want.to_bits(), "length {}", length);
            }
            // `field[0]` is `−0`, so the sign of a zero fraction reaches
            // the gathered field.
            let field: Vec<f64> = (0..ncells).map(|c| -(c as f64 * 0.61).sin() * 3.0).collect();
            let (mut pushed, mut oracle) = (particles.clone(), particles);
            // A step long enough to carry particles out of the domain both ways.
            push(&mut pushed, 0..n, &field, 0.37);
            push_oracle(&mut oracle, 0..n, &field, 0.37);
            for i in 0..n {
                prop_assert_eq!(pushed.x[i].to_bits(), oracle.x[i].to_bits(), "length {}", length);
                prop_assert_eq!(pushed.v[i].to_bits(), oracle.v[i].to_bits(), "length {}", length);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn blocked_stencil27_matches_scalar_reference(
        nx in 1usize..9, ny in 1usize..8, nz in 1usize..7, seed in 0u64..1000,
    ) {
        let input = arb_grid(nx, ny, nz, seed);
        let mut blocked = Grid3d::filled(nx, ny, nz, 0.0);
        let mut scalar = Grid3d::filled(nx, ny, nz, 0.0);
        stencil27(&input, &mut blocked);
        stencil27_planes_scalar(&input, &mut scalar, 0..nz);
        prop_assert!(grids_bit_equal(&blocked, &scalar));
    }

    #[test]
    fn plane_split_point_is_invisible(
        nx in 1usize..8, ny in 1usize..8, nz in 2usize..7,
        split_pick in 1usize..6, seed in 0u64..1000,
    ) {
        // Splitting the sweep into two plane ranges — the intra-parallel
        // tiling — must reproduce the one-shot sweep bit for bit.
        let split = split_pick.min(nz - 1);
        let input = arb_grid(nx, ny, nz, seed);
        let mut whole = Grid3d::filled(nx, ny, nz, 0.0);
        let mut parts = Grid3d::filled(nx, ny, nz, 0.0);
        stencil27(&input, &mut whole);
        stencil27_planes(&input, &mut parts, 0..split);
        stencil27_planes(&input, &mut parts, split..nz);
        prop_assert!(grids_bit_equal(&whole, &parts));
    }

    #[test]
    fn pooled_stencil27_matches_sequential_for_any_worker_count(
        nx in 1usize..8, ny in 1usize..8, nz in 1usize..7, seed in 0u64..1000,
    ) {
        let input = arb_grid(nx, ny, nz, seed);
        let mut sequential = Grid3d::filled(nx, ny, nz, 0.0);
        stencil27(&input, &mut sequential);
        for workers in [1, 2, 4] {
            let pool = KernelPool::new(workers);
            let mut pooled = Grid3d::filled(nx, ny, nz, 0.0);
            stencil27_pool(&input, &mut pooled, &pool);
            prop_assert!(
                grids_bit_equal(&sequential, &pooled),
                "pooled sweep diverged at workers={workers}",
            );
        }
    }

    #[test]
    fn sliced_spmv_matches_indexed_reference(
        nx in 1usize..6, ny in 1usize..6, nz in 1usize..6, seed in 0u64..1000,
    ) {
        let a = CsrMatrix::stencil27(nx, ny, nz, true, true);
        let x: Vec<f64> = (0..a.ncols())
            .map(|i| (((i as u64).wrapping_mul(2654435761).wrapping_add(seed) % 1021) as f64)
                * 0.013 - 6.5)
            .collect();
        let mut y = vec![0.0; a.nrows()];
        a.spmv(&x, &mut y);
        // One-row-at-a-time sweeps must agree with the full sweep exactly
        // (each row's k-order is fixed, so any row partition is invisible).
        let mut per_row = vec![0.0; a.nrows()];
        for i in 0..a.nrows() {
            a.spmv_rows_into(i..i + 1, &x, &mut per_row[i..i + 1]);
        }
        for (full, single) in y.iter().zip(&per_row) {
            prop_assert_eq!(full.to_bits(), single.to_bits());
        }
        // And a chunk starting mid-matrix.
        let mid = a.nrows() / 2;
        let mut chunk = vec![0.0; a.nrows() - mid];
        a.spmv_rows_into(mid..a.nrows(), &x, &mut chunk);
        for (full, got) in y[mid..].iter().zip(&chunk) {
            prop_assert_eq!(full.to_bits(), got.to_bits());
        }
    }

    #[test]
    fn zipped_waxpby_matches_indexed_arithmetic(
        alpha_pick in 0usize..3, n in 0usize..80, seed in 0u64..1000,
    ) {
        // Covers all three special-case branches (alpha == 1, beta == 1,
        // general) against per-element recomputation.
        let (alpha, beta) = [(1.0, 0.75), (2.5, 1.0), (1.25, -0.5)][alpha_pick];
        let x: Vec<f64> = (0..n)
            .map(|i| (((i as u64).wrapping_add(seed) % 509) as f64) * 0.21 - 53.0)
            .collect();
        let y: Vec<f64> = x.iter().map(|v| v * 0.3 + 1.0).collect();
        let mut w = vec![0.0; n];
        waxpby(alpha, &x, beta, &y, &mut w);
        for i in 0..n {
            let expect = if alpha == 1.0 {
                x[i] + beta * y[i]
            } else if beta == 1.0 {
                alpha * x[i] + y[i]
            } else {
                alpha * x[i] + beta * y[i]
            };
            prop_assert_eq!(w[i].to_bits(), expect.to_bits());
        }
    }

    #[test]
    fn ddot_lanes_is_deterministic_across_layouts(
        n in 0usize..100, seed in 0u64..1000,
    ) {
        let x: Vec<f64> = (0..n)
            .map(|i| (((i as u64).wrapping_mul(31).wrapping_add(seed) % 701) as f64)
                * 0.017 - 6.0)
            .collect();
        let y: Vec<f64> = x.iter().rev().cloned().collect();
        let first = ddot_lanes(&x, &y);
        // Re-running, and running on freshly cloned storage, gives the same
        // bits: the lane layout is a function of index only.
        prop_assert_eq!(first.to_bits(), ddot_lanes(&x.clone(), &y.clone()).to_bits());
    }
}
