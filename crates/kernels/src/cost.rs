//! Analytic cost descriptors.
//!
//! Every kernel exposes a `*_cost(n)` companion returning a [`KernelCost`]:
//! the number of floating-point operations and the memory traffic the kernel
//! generates for a problem of size `n`.  The simulator charges virtual time
//! for the cost through its roofline model, which is what lets paper-scale
//! problem sizes (128³ grid points per logical process) be timed while the
//! actual arrays in memory stay small.
//!
//! The descriptors also record `output_bytes`: the size of the data a task
//! writes, i.e. the size of the *update* that intra-parallelization must ship
//! to the other replicas.  The compute-to-update ratio is the single quantity
//! that decides whether a kernel benefits from intra-parallelization (the
//! paper's Section V-C discussion of waxpby vs ddot vs sparsemv).

use serde::{Deserialize, Serialize};
use std::ops::{Add, AddAssign, Mul};

/// Flop count and memory traffic of a computational region.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct KernelCost {
    /// Floating-point operations performed.
    pub flops: f64,
    /// Bytes read from memory.
    pub bytes_read: f64,
    /// Bytes written to memory.
    pub bytes_written: f64,
    /// Bytes of output that would have to be shipped to a replica (size of
    /// the variables written that are live after the kernel).
    pub output_bytes: f64,
}

impl KernelCost {
    /// Creates a cost descriptor.
    pub fn new(flops: f64, bytes_read: f64, bytes_written: f64, output_bytes: f64) -> Self {
        KernelCost {
            flops,
            bytes_read,
            bytes_written,
            output_bytes,
        }
    }

    /// Total memory traffic (read + written).
    pub fn mem_bytes(&self) -> f64 {
        self.bytes_read + self.bytes_written
    }

    /// Arithmetic intensity in flops per byte of memory traffic.
    pub fn intensity(&self) -> f64 {
        if self.mem_bytes() > 0.0 {
            self.flops / self.mem_bytes()
        } else {
            f64::INFINITY
        }
    }
}

impl Add for KernelCost {
    type Output = KernelCost;
    fn add(self, rhs: KernelCost) -> KernelCost {
        KernelCost {
            flops: self.flops + rhs.flops,
            bytes_read: self.bytes_read + rhs.bytes_read,
            bytes_written: self.bytes_written + rhs.bytes_written,
            output_bytes: self.output_bytes + rhs.output_bytes,
        }
    }
}

impl AddAssign for KernelCost {
    fn add_assign(&mut self, rhs: KernelCost) {
        *self = *self + rhs;
    }
}

impl Mul<f64> for KernelCost {
    type Output = KernelCost;
    fn mul(self, k: f64) -> KernelCost {
        KernelCost {
            flops: self.flops * k,
            bytes_read: self.bytes_read * k,
            bytes_written: self.bytes_written * k,
            output_bytes: self.output_bytes * k,
        }
    }
}

/// Size of one `f64` in bytes, used by the per-kernel cost functions.
pub(crate) const F64: f64 = 8.0;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_combines_costs() {
        let a = KernelCost::new(10.0, 100.0, 50.0, 8.0);
        let b = KernelCost::new(5.0, 10.0, 10.0, 0.0);
        let c = a + b;
        assert_eq!(c.flops, 15.0);
        assert_eq!(c.mem_bytes(), 170.0);
        assert_eq!(c.output_bytes, 8.0);
        let d = a * 2.0;
        assert_eq!(d.flops, 20.0);
        assert_eq!(d.bytes_written, 100.0);
    }

    #[test]
    fn intensity_and_update_ratio() {
        let c = KernelCost::new(100.0, 100.0, 100.0, 10.0);
        assert_eq!(c.intensity(), 0.5);
        assert_eq!(c.flops / c.output_bytes, 10.0);
        assert_eq!(KernelCost::default().intensity(), f64::INFINITY);
    }

    #[test]
    fn add_assign_accumulates() {
        let mut acc = KernelCost::default();
        for _ in 0..3 {
            acc += KernelCost::new(1.0, 2.0, 3.0, 4.0);
        }
        assert_eq!(acc.flops, 3.0);
        assert_eq!(acc.output_bytes, 12.0);
    }
}
