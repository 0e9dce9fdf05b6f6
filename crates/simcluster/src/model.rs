//! Machine model: compute throughput and interconnect characteristics.
//!
//! The paper's testbed is a 128-node Grid'5000 cluster (2.53 GHz 4-core Intel
//! Xeon, 16 GB per node) with InfiniBand 20G.  [`MachineModel::grid5000_ib20g`]
//! encodes a calibration of that machine; the individual pieces
//! ([`NetworkModel`], [`ComputeModel`]) can be swapped to run sensitivity
//! sweeps (see the `ablation_bandwidth` bench).
//!
//! Compute time follows a simple roofline: a kernel that performs `flops`
//! floating-point operations while moving `mem_bytes` to/from memory takes
//! `max(flops / flops_per_s, mem_bytes / mem_bandwidth)` seconds.  For the
//! memory-bound kernels of the paper (waxpby, ddot, sparsemv, stencils) the
//! memory term dominates, which is exactly what makes waxpby a bad candidate
//! for intra-parallelization (its update is as large as its memory traffic)
//! and ddot a perfect one (its update is a single scalar).

use crate::time::SimTime;
use serde::{Deserialize, Serialize};

/// Point-to-point link model: `transfer_time = latency + bytes / bandwidth`
/// plus a fixed per-message CPU overhead charged to the sender.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NetworkModel {
    /// One-way message latency in seconds.
    pub latency_s: f64,
    /// Sustained bandwidth in bytes per second.
    pub bandwidth_bytes_per_s: f64,
    /// CPU overhead charged to the sender per message (the LogP `o` term).
    pub send_overhead_s: f64,
    /// CPU overhead charged to the receiver per message.
    pub recv_overhead_s: f64,
}

impl NetworkModel {
    /// InfiniBand 20G (4X DDR): ~1.8 GB/s sustained, ~2.5 us latency.
    fn infiniband_20g() -> Self {
        NetworkModel {
            latency_s: 2.5e-6,
            bandwidth_bytes_per_s: 1.8e9,
            send_overhead_s: 0.4e-6,
            recv_overhead_s: 0.4e-6,
        }
    }

    /// Shared-memory transfer between two processes on the same node.
    fn intra_node() -> Self {
        NetworkModel {
            latency_s: 0.3e-6,
            bandwidth_bytes_per_s: 6.0e9,
            send_overhead_s: 0.1e-6,
            recv_overhead_s: 0.1e-6,
        }
    }

    /// An idealized, infinitely fast network.  Useful in unit tests that only
    /// care about protocol correctness, not timing.
    pub(crate) fn ideal() -> Self {
        NetworkModel {
            latency_s: 0.0,
            bandwidth_bytes_per_s: f64::INFINITY,
            send_overhead_s: 0.0,
            recv_overhead_s: 0.0,
        }
    }

    /// Returns a copy of this model with a different bandwidth (bytes/s).
    /// Used by the bandwidth-sensitivity ablation.
    pub fn with_bandwidth(mut self, bytes_per_s: f64) -> Self {
        self.bandwidth_bytes_per_s = bytes_per_s;
        self
    }

    /// Wire time for a message of `bytes` bytes (latency + serialization),
    /// excluding sender/receiver CPU overheads.
    pub(crate) fn wire_time(&self, bytes: usize) -> SimTime {
        let ser = if self.bandwidth_bytes_per_s.is_finite() && self.bandwidth_bytes_per_s > 0.0 {
            bytes as f64 / self.bandwidth_bytes_per_s
        } else {
            0.0
        };
        SimTime::from_secs(self.latency_s + ser)
    }

    /// Time the sender's CPU is busy injecting a message of `bytes` bytes.
    /// The sender NIC serializes back-to-back sends, so this includes the
    /// serialization term (bytes / bandwidth) in addition to the fixed
    /// overhead; latency is *not* charged to the sender.
    pub fn sender_occupancy(&self, bytes: usize) -> SimTime {
        let ser = if self.bandwidth_bytes_per_s.is_finite() && self.bandwidth_bytes_per_s > 0.0 {
            bytes as f64 / self.bandwidth_bytes_per_s
        } else {
            0.0
        };
        SimTime::from_secs(self.send_overhead_s + ser)
    }

    /// Fixed CPU overhead charged to the receiver when a message completes.
    pub fn receiver_overhead(&self) -> SimTime {
        SimTime::from_secs(self.recv_overhead_s)
    }
}

impl Default for NetworkModel {
    fn default() -> Self {
        NetworkModel::infiniband_20g()
    }
}

/// Per-core compute model (roofline).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ComputeModel {
    /// Peak achievable floating-point rate per core, in flop/s.
    pub flops_per_s: f64,
    /// Sustained memory bandwidth available to one core, in bytes/s.
    pub mem_bandwidth_bytes_per_s: f64,
    /// Fixed cost of entering a compute region (loop setup, scheduling), s.
    pub per_region_overhead_s: f64,
}

impl ComputeModel {
    /// One core of a 2.53 GHz Nehalem-class Xeon: ~2 flop/cycle sustained on
    /// these memory-bound kernels and ~3.2 GB/s of per-core STREAM bandwidth
    /// when all four cores are active.
    fn xeon_2_53ghz() -> Self {
        ComputeModel {
            flops_per_s: 5.0e9,
            mem_bandwidth_bytes_per_s: 3.2e9,
            per_region_overhead_s: 0.5e-6,
        }
    }

    /// An idealized infinitely fast CPU (for protocol-only tests).
    pub fn ideal() -> Self {
        ComputeModel {
            flops_per_s: f64::INFINITY,
            mem_bandwidth_bytes_per_s: f64::INFINITY,
            per_region_overhead_s: 0.0,
        }
    }

    /// Roofline time for a region with the given flop count and memory
    /// traffic (bytes read + written).
    pub fn region_time(&self, flops: f64, mem_bytes: f64) -> SimTime {
        let t_flop = if self.flops_per_s.is_finite() && self.flops_per_s > 0.0 {
            flops / self.flops_per_s
        } else {
            0.0
        };
        let t_mem =
            if self.mem_bandwidth_bytes_per_s.is_finite() && self.mem_bandwidth_bytes_per_s > 0.0 {
                mem_bytes / self.mem_bandwidth_bytes_per_s
            } else {
                0.0
            };
        SimTime::from_secs(self.per_region_overhead_s + t_flop.max(t_mem))
    }

    /// Time to perform a plain memory copy of `bytes` bytes (used for the
    /// inout snapshot overhead of Section III-B2).
    pub fn memcpy_time(&self, bytes: usize) -> SimTime {
        if self.mem_bandwidth_bytes_per_s.is_finite() && self.mem_bandwidth_bytes_per_s > 0.0 {
            // A copy reads and writes every byte.
            SimTime::from_secs(2.0 * bytes as f64 / self.mem_bandwidth_bytes_per_s)
        } else {
            SimTime::ZERO
        }
    }
}

impl Default for ComputeModel {
    fn default() -> Self {
        ComputeModel::xeon_2_53ghz()
    }
}

/// Full machine model: compute per core plus the two relevant interconnect
/// classes (inter-node and intra-node).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MachineModel {
    /// Per-core compute model.
    pub compute: ComputeModel,
    /// Link used between processes placed on different nodes.
    pub inter_node: NetworkModel,
    /// Link used between processes placed on the same node.
    pub intra_node: NetworkModel,
    /// Number of cores per node (used for default process placement).
    pub cores_per_node: usize,
}

impl MachineModel {
    /// Calibration of the paper's Grid'5000 testbed (Xeon 2.53 GHz, 4 cores,
    /// InfiniBand 20G).
    pub fn grid5000_ib20g() -> Self {
        MachineModel {
            compute: ComputeModel::xeon_2_53ghz(),
            inter_node: NetworkModel::infiniband_20g(),
            intra_node: NetworkModel::intra_node(),
            cores_per_node: 4,
        }
    }

    /// Fully idealized machine (zero-cost network and compute).
    pub fn ideal() -> Self {
        MachineModel {
            compute: ComputeModel::ideal(),
            inter_node: NetworkModel::ideal(),
            intra_node: NetworkModel::ideal(),
            cores_per_node: 4,
        }
    }

    /// Machine with an ideal CPU but a realistic network; convenient for
    /// tests that want deterministic, communication-dominated timings.
    pub fn ideal_compute_ib20g() -> Self {
        MachineModel {
            compute: ComputeModel::ideal(),
            inter_node: NetworkModel::infiniband_20g(),
            intra_node: NetworkModel::intra_node(),
            cores_per_node: 4,
        }
    }

    /// Link model to use between two physical ranks given whether they share
    /// a node.
    pub fn link(&self, same_node: bool) -> &NetworkModel {
        if same_node {
            &self.intra_node
        } else {
            &self.inter_node
        }
    }
}

impl Default for MachineModel {
    fn default() -> Self {
        MachineModel::grid5000_ib20g()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_time_is_latency_plus_serialization() {
        let net = NetworkModel {
            latency_s: 1e-6,
            bandwidth_bytes_per_s: 1e9,
            send_overhead_s: 0.0,
            recv_overhead_s: 0.0,
        };
        let t = net.wire_time(1_000_000);
        assert!((t.as_secs() - (1e-6 + 1e-3)).abs() < 1e-12);
    }

    #[test]
    fn ideal_network_is_free() {
        let net = NetworkModel::ideal();
        assert_eq!(net.wire_time(1 << 30), SimTime::ZERO);
        assert_eq!(net.sender_occupancy(1 << 30), SimTime::ZERO);
        assert_eq!(net.receiver_overhead(), SimTime::ZERO);
    }

    #[test]
    fn sender_occupancy_excludes_latency() {
        let net = NetworkModel {
            latency_s: 1.0,
            bandwidth_bytes_per_s: 100.0,
            send_overhead_s: 0.25,
            recv_overhead_s: 0.0,
        };
        // 50 bytes at 100 B/s = 0.5 s of serialization + 0.25 s overhead.
        assert!((net.sender_occupancy(50).as_secs() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn roofline_takes_the_max_term() {
        let cm = ComputeModel {
            flops_per_s: 10.0,
            mem_bandwidth_bytes_per_s: 100.0,
            per_region_overhead_s: 0.0,
        };
        // flop-bound: 100 flops -> 10 s, 10 bytes -> 0.1 s.
        assert!((cm.region_time(100.0, 10.0).as_secs() - 10.0).abs() < 1e-12);
        // memory-bound: 1 flop -> 0.1 s, 1000 bytes -> 10 s.
        assert!((cm.region_time(1.0, 1000.0).as_secs() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn memcpy_counts_read_and_write_traffic() {
        let cm = ComputeModel {
            flops_per_s: 1.0,
            mem_bandwidth_bytes_per_s: 8.0,
            per_region_overhead_s: 0.0,
        };
        assert!((cm.memcpy_time(8).as_secs() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn machine_selects_link_by_locality() {
        let m = MachineModel::grid5000_ib20g();
        assert_eq!(*m.link(true), m.intra_node);
        assert_eq!(*m.link(false), m.inter_node);
    }

    #[test]
    fn calibration_orders_of_magnitude_are_sane() {
        let m = MachineModel::grid5000_ib20g();
        // 1 MB over IB should take on the order of half a millisecond.
        let t = m.inter_node.wire_time(1 << 20).as_secs();
        assert!(t > 1e-4 && t < 2e-3, "unexpected IB transfer time {t}");
        // waxpby on 1M doubles: 3 Mflop, 24 MB of traffic -> memory bound,
        // several milliseconds.
        let c = m.compute.region_time(3.0e6, 24.0e6).as_secs();
        assert!(c > 1e-3 && c < 2e-2, "unexpected compute time {c}");
    }

    #[test]
    fn with_bandwidth_and_latency_builders() {
        let net = NetworkModel::infiniband_20g().with_bandwidth(2.0e9);
        assert_eq!(net.bandwidth_bytes_per_s, 2.0e9);
        assert_eq!(net.latency_s, NetworkModel::infiniband_20g().latency_s);
    }
}
