//! Per-physical-process environment handle.
//!
//! [`ReplicatedEnv`] bundles everything a mini-application (or the
//! intra-parallelization runtime) needs on one physical process: the process
//! handle of the simulated MPI runtime, the replicated communicator, the
//! execution mode, and the failure injector.  It is the analog of "the MPI
//! library as seen by one process" in the paper's prototype.

use crate::failure::{FailureInjector, ProtocolPoint};
use crate::replicated_comm::ReplicatedComm;
use simcluster::SimTime;
use simmpi::{MpiResult, ProcHandle};

/// How the application is being executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecutionMode {
    /// No replication: every physical process is a logical process (the
    /// paper's "Open MPI" baseline).
    Native,
    /// Classic state-machine replication: every logical process is executed
    /// by `degree` replicas and all computation is duplicated (the paper's
    /// "SDR-MPI" baseline).
    Replicated {
        /// Replication degree (the paper always uses 2).
        degree: usize,
    },
    /// Replication with intra-parallelization: computation inside
    /// intra-parallel sections is shared between the replicas (the paper's
    /// "intra" configuration).
    IntraParallel {
        /// Replication degree (the paper always uses 2).
        degree: usize,
    },
}

impl ExecutionMode {
    /// Replication degree implied by the mode (1 for native execution).
    pub fn degree(&self) -> usize {
        match self {
            ExecutionMode::Native => 1,
            ExecutionMode::Replicated { degree } | ExecutionMode::IntraParallel { degree } => {
                *degree
            }
        }
    }

    /// True if computation inside sections should be shared between replicas.
    pub fn shares_work(&self) -> bool {
        matches!(self, ExecutionMode::IntraParallel { .. })
    }

    /// Short label used in reports ("native", "replicated", "intra").
    pub fn label(&self) -> &'static str {
        match self {
            ExecutionMode::Native => "native",
            ExecutionMode::Replicated { .. } => "replicated",
            ExecutionMode::IntraParallel { .. } => "intra",
        }
    }
}

/// Everything one physical process needs to take part in a replicated run.
#[derive(Clone)]
pub struct ReplicatedEnv {
    proc: ProcHandle,
    rcomm: ReplicatedComm,
    mode: ExecutionMode,
    injector: FailureInjector,
}

impl ReplicatedEnv {
    /// Builds the environment for this physical process.  Must be called
    /// collectively by every process of the cluster.
    pub fn new(
        proc: ProcHandle,
        mode: ExecutionMode,
        injector: FailureInjector,
    ) -> MpiResult<Self> {
        let rcomm = ReplicatedComm::new(proc.world(), mode.degree())?;
        Ok(ReplicatedEnv {
            proc,
            rcomm,
            mode,
            injector,
        })
    }

    /// Convenience constructor without failure injection.
    pub fn without_failures(proc: ProcHandle, mode: ExecutionMode) -> MpiResult<Self> {
        Self::new(proc, mode, FailureInjector::none())
    }

    /// The simulated-process handle.
    pub fn proc(&self) -> &ProcHandle {
        &self.proc
    }

    /// The replicated communicator.
    pub fn rcomm(&self) -> &ReplicatedComm {
        &self.rcomm
    }

    /// Execution mode.
    pub fn mode(&self) -> ExecutionMode {
        self.mode
    }

    /// Logical rank of this process (what the application considers its MPI
    /// rank).
    pub fn logical_rank(&self) -> usize {
        self.rcomm.logical_rank()
    }

    /// Number of logical processes.
    pub fn num_logical(&self) -> usize {
        self.rcomm.num_logical()
    }

    /// Replica id of this process.
    pub fn replica_id(&self) -> usize {
        self.rcomm.replica_id()
    }

    /// World (physical) rank of this process.
    pub fn physical_rank(&self) -> usize {
        self.proc.rank()
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.proc.now()
    }

    /// Charges compute time for a region described by flops and memory
    /// traffic.
    pub fn charge_compute(&self, flops: f64, mem_bytes: f64) {
        self.proc.charge_compute(flops, mem_bytes);
    }

    /// True if this process has crashed.
    pub fn is_failed(&self) -> bool {
        self.proc.is_failed()
    }

    /// Consults the failure injector at a protocol point; if an injection is
    /// armed for this physical rank at this point — or a timed failure from
    /// a failure trace is due at the current virtual time — the process
    /// crashes (crash-stop) and `true` is returned — the caller must stop
    /// doing any further work.
    pub fn maybe_fail(&self, point: ProtocolPoint) -> bool {
        if self
            .injector
            .consult(self.physical_rank(), point, self.now())
        {
            self.proc.fail_here();
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_degrees_and_labels() {
        assert_eq!(ExecutionMode::Native.degree(), 1);
        assert_eq!(ExecutionMode::Replicated { degree: 2 }.degree(), 2);
        assert_eq!(ExecutionMode::IntraParallel { degree: 2 }.degree(), 2);
        assert!(!ExecutionMode::Replicated { degree: 2 }.shares_work());
        assert!(ExecutionMode::IntraParallel { degree: 2 }.shares_work());
        assert_eq!(ExecutionMode::Native.label(), "native");
        assert_eq!(
            ExecutionMode::Replicated { degree: 2 }.label(),
            "replicated"
        );
        assert_eq!(ExecutionMode::IntraParallel { degree: 2 }.label(), "intra");
    }
}
