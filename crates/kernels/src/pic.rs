//! Particle-in-cell kernels (GTC-style `charge` and `push`).
//!
//! GTC is a gyrokinetic particle-in-cell code; the paper intra-parallelizes
//! its two main kernels, which together account for ~75 % of the runtime:
//!
//! * **charge** — deposit every particle's charge onto the grid (the output
//!   is the grid-sized charge density array);
//! * **push** — advance every particle's position and velocity from the
//!   field (the output is the particle arrays themselves, which makes the
//!   positions `inout` variables — this is the paper's example of data that
//!   needs the extra copy of Section III-B2, measured at ~6 % overhead on
//!   the affected tasks).
//!
//! The proxy here is a simple 1D-periodic electrostatic PIC with cloud-in-
//! cell deposition; what matters for the reproduction is the per-particle
//! flop count, the size of the shipped outputs, and the inout nature of the
//! particle arrays, all of which match.

use crate::cost::{KernelCost, F64};
use rand::Rng;
use std::ops::Range;

/// `x.rem_euclid(length)`, bit for bit, without the `fmod` call on the
/// common path: `x % length` is exact, so it is `x` itself whenever
/// `0 ≤ x < length`.
#[inline]
fn wrap(x: f64, length: f64) -> f64 {
    if (0.0..length).contains(&x) {
        x
    } else {
        x.rem_euclid(length)
    }
}

/// The cell grid of `[0, length)`: `ncells` cells of width `dx`.
///
/// [`Cells::locate`] is `(xp / dx).floor()` and `xp / dx − floor`, bit for
/// bit, without a `floor` call and, for the widths GTC uses, without a
/// division:
///
/// * after [`wrap`], `xp ∈ [+0, length)` or `xp = −0`, so `q = xp / dx` is
///   `+0`, `−0` or positive.  `q + 0.0` turns `−0` into `+0` and leaves
///   every other value alone, and on `[+0, 2⁵³)` the truncation `q as
///   i64` is `floor(q)`, exactly representable, so `q − c as f64` is the
///   fraction `q − floor(q)` (with `floor(−0) = −0` the old fraction of
///   `−0` was `+0`, which the canonicalised `q` reproduces).  `q` stays
///   below about `ncells`, far inside that range.  The conversions go
///   through `i64`, not `usize`: x86-64 converts signed integers to and
///   from `f64` in one instruction each, unsigned ones in a sequence;
/// * when `dx` is a power of two whose reciprocal is normal, `1 / dx` is
///   exact and `xp · (1 / dx)` is the same real number as `xp / dx`, so
///   both round to the same double, subnormal results included.  Other
///   widths keep the division.  The choice is made once per call.
#[derive(Debug)]
struct Cells {
    ncells: usize,
    dx: f64,
    /// `1 / dx` when it is exact (see above).
    inv_dx: Option<f64>,
}

impl Cells {
    fn new(length: f64, ncells: usize) -> Self {
        let dx = length / ncells as f64;
        let inv = 1.0 / dx;
        let power_of_two = dx.is_normal() && dx.to_bits() & ((1u64 << 52) - 1) == 0;
        Cells {
            ncells,
            dx,
            inv_dx: (power_of_two && inv.is_normal()).then_some(inv),
        }
    }

    /// The two grid cells a particle at `xp` (inside `[0, length)`)
    /// weighs onto, and its fractional offset from the first: cell `c0` is
    /// `(xp / dx).floor() as usize % ncells` and `c1 = (c0 + 1) % ncells`,
    /// with the integer divisions left to the rare particle that rounds
    /// onto the upper boundary.
    #[inline]
    fn locate(&self, xp: f64) -> (usize, usize, f64) {
        let q = match self.inv_dx {
            Some(inv) => xp * inv,
            None => xp / self.dx,
        } + 0.0;
        let c = q as i64;
        let frac = q - c as f64;
        let c = c as usize;
        let ncells = self.ncells;
        let c0 = if c < ncells { c } else { c % ncells };
        let c1 = if c0 + 1 == ncells { 0 } else { c0 + 1 };
        (c0, c1, frac)
    }
}

/// A set of charged particles in a periodic 1D domain `[0, length)`.
#[derive(Debug, Clone, PartialEq)]
pub struct ParticleSet {
    /// Positions in `[0, length)`.
    pub x: Vec<f64>,
    /// Velocities.
    pub v: Vec<f64>,
    /// Domain length.
    pub length: f64,
}

impl ParticleSet {
    /// Creates `n` particles at uniformly random positions with a small
    /// sinusoidal velocity perturbation (two-stream-like setup), using the
    /// caller's RNG so runs stay deterministic per rank.
    pub fn random<R: Rng>(n: usize, length: f64, rng: &mut R) -> Self {
        let mut x = Vec::with_capacity(n);
        let mut v = Vec::with_capacity(n);
        for i in 0..n {
            let pos: f64 = rng.gen_range(0.0..length);
            x.push(pos);
            let dir = if i % 2 == 0 { 1.0 } else { -1.0 };
            v.push(dir * (1.0 + 0.1 * (2.0 * std::f64::consts::PI * pos / length).sin()));
        }
        ParticleSet { x, v, length }
    }

    /// Number of particles.
    pub fn len(&self) -> usize {
        self.x.len()
    }

    /// True if the set has no particles.
    pub fn is_empty(&self) -> bool {
        self.x.is_empty()
    }
}

/// Deposits the charge of particles `range` onto `density` using cloud-in-
/// cell (linear) weighting on a periodic grid.  `density` is accumulated
/// into, so the caller zeroes it (or splits it) as appropriate; each task of
/// the intra-parallel version writes its own partial density array.
///
/// # Panics
/// Panics if the range is out of bounds or the grid is empty.
pub fn charge_deposit(particles: &ParticleSet, range: Range<usize>, density: &mut [f64]) {
    let ncells = density.len();
    assert!(ncells > 0, "density grid must not be empty");
    assert!(range.end <= particles.len(), "particle range out of bounds");
    let cells = Cells::new(particles.length, ncells);
    for i in range {
        let xp = wrap(particles.x[i], particles.length);
        let (c0, c1, frac) = cells.locate(xp);
        density[c0] += 1.0 - frac;
        density[c1] += frac;
    }
}

/// Cost of depositing `n` particles onto a grid of `cells` cells: ~10 flops
/// per particle, reads positions, read-modify-writes two grid cells per
/// particle; the shipped output is the density array.
pub fn charge_cost(n: usize, cells: usize) -> KernelCost {
    let n = n as f64;
    let cells = cells as f64;
    KernelCost::new(
        10.0 * n,
        n * F64 + 2.0 * n * F64,
        2.0 * n * F64 + cells * F64,
        cells * F64,
    )
}

/// Advances particles `range` by one leapfrog step in the given electric
/// field (periodic, cloud-in-cell gather).  Positions and velocities are
/// updated in place — they are the `inout` variables of the paper's GTC
/// example.
///
/// # Panics
/// Panics if the range is out of bounds or the field is empty.
pub fn push(particles: &mut ParticleSet, range: Range<usize>, field: &[f64], dt: f64) {
    let ncells = field.len();
    assert!(ncells > 0, "field grid must not be empty");
    assert!(range.end <= particles.len(), "particle range out of bounds");
    let length = particles.length;
    let cells = Cells::new(length, ncells);
    for i in range {
        let xp = wrap(particles.x[i], length);
        let (c0, c1, frac) = cells.locate(xp);
        let e = field[c0] * (1.0 - frac) + field[c1] * frac;
        particles.v[i] += e * dt;
        particles.x[i] = wrap(particles.x[i] + particles.v[i] * dt, length);
    }
}

/// Cost of pushing `n` particles: ~15 flops per particle; reads and writes
/// the particle arrays (which are also the shipped output, since positions
/// and velocities are `inout`).
pub fn push_cost(n: usize) -> KernelCost {
    let n = n as f64;
    KernelCost::new(15.0 * n, 3.0 * n * F64, 2.0 * n * F64, 2.0 * n * F64)
}

/// Solves the 1D periodic Poisson equation for the electric field from the
/// charge density (simple integration with zero-mean correction).  This is
/// the "field solve" phase GTC performs between charge and push; it stays
/// outside the intra-parallel sections.
pub fn field_solve(density: &[f64], length: f64) -> Vec<f64> {
    let n = density.len();
    if n == 0 {
        return Vec::new();
    }
    let mean = density.iter().sum::<f64>() / n as f64;
    let dx = length / n as f64;
    // E' = rho - <rho>  (periodic), integrate then remove the mean of E.
    let mut e = Vec::with_capacity(n);
    let mut acc = 0.0;
    for &rho in density {
        acc += (rho - mean) * dx;
        e.push(acc);
    }
    let e_mean = e.iter().sum::<f64>() / n as f64;
    for v in e.iter_mut() {
        *v -= e_mean;
    }
    e
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::SmallRng {
        rand::rngs::SmallRng::seed_from_u64(7)
    }

    #[test]
    fn random_particles_are_inside_the_domain() {
        let p = ParticleSet::random(100, 32.0, &mut rng());
        assert_eq!(p.len(), 100);
        assert!(!p.is_empty());
        assert!(p.x.iter().all(|&x| (0.0..32.0).contains(&x)));
    }

    #[test]
    fn charge_deposit_conserves_total_charge() {
        let p = ParticleSet::random(500, 16.0, &mut rng());
        let mut density = vec![0.0; 64];
        charge_deposit(&p, 0..p.len(), &mut density);
        let total: f64 = density.iter().sum();
        assert!((total - 500.0).abs() < 1e-9, "total charge {total}");
    }

    #[test]
    fn charge_deposit_splits_into_additive_ranges() {
        let p = ParticleSet::random(200, 8.0, &mut rng());
        let mut full = vec![0.0; 32];
        charge_deposit(&p, 0..200, &mut full);
        let mut a = vec![0.0; 32];
        let mut b = vec![0.0; 32];
        charge_deposit(&p, 0..77, &mut a);
        charge_deposit(&p, 77..200, &mut b);
        for i in 0..32 {
            assert!((full[i] - (a[i] + b[i])).abs() < 1e-9);
        }
    }

    #[test]
    fn push_with_zero_field_is_free_streaming() {
        let mut p = ParticleSet {
            x: vec![1.0, 2.0],
            v: vec![0.5, -0.25],
            length: 4.0,
        };
        let field = vec![0.0; 8];
        push(&mut p, 0..2, &field, 2.0);
        assert!((p.x[0] - 2.0).abs() < 1e-12);
        assert!((p.x[1] - 1.5).abs() < 1e-12);
        assert_eq!(p.v, vec![0.5, -0.25]);
    }

    #[test]
    fn push_wraps_positions_periodically() {
        let mut p = ParticleSet {
            x: vec![3.9],
            v: vec![1.0],
            length: 4.0,
        };
        let field = vec![0.0; 4];
        push(&mut p, 0..1, &field, 0.5);
        assert!((p.x[0] - 0.4).abs() < 1e-12);
    }

    #[test]
    fn push_ranges_partition_the_work() {
        let p0 = ParticleSet::random(300, 10.0, &mut rng());
        let field: Vec<f64> = (0..50).map(|i| ((i as f64) * 0.3).sin()).collect();
        let mut full = p0.clone();
        push(&mut full, 0..300, &field, 0.1);
        let mut split = p0.clone();
        push(&mut split, 0..100, &field, 0.1);
        push(&mut split, 100..300, &field, 0.1);
        assert_eq!(full, split);
    }

    #[test]
    fn field_solve_has_zero_mean_and_matches_uniform_density() {
        let density = vec![2.0; 16];
        let e = field_solve(&density, 8.0);
        assert_eq!(e.len(), 16);
        let mean: f64 = e.iter().sum::<f64>() / 16.0;
        assert!(mean.abs() < 1e-12);
        // Uniform density => zero field everywhere.
        assert!(e.iter().all(|&v| v.abs() < 1e-12));
        assert!(field_solve(&[], 1.0).is_empty());
    }

    #[test]
    fn costs_reflect_inout_nature_of_push() {
        let push_c = push_cost(1_000_000);
        let charge_c = charge_cost(1_000_000, 1000);
        // push ships the particle arrays (large); charge ships only the grid.
        assert!(push_c.output_bytes > charge_c.output_bytes * 100.0);
        assert!(charge_c.flops / charge_c.output_bytes > push_c.flops / push_c.output_bytes);
    }
}
