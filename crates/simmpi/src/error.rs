//! Error type for the simulated MPI runtime.

use std::fmt;

/// Errors returned by communication operations.
///
/// The variant the fault-tolerance layers care about is
/// [`MpiError::ProcessFailed`]: the paper's Algorithm 1 assumes that "trying
/// to receive an update from a failed replica returns an error", and this is
/// how that error surfaces.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MpiError {
    /// The peer process (world rank) has crashed and the requested message
    /// will never arrive.
    ProcessFailed {
        /// World rank of the failed peer.
        rank: usize,
    },
    /// The local process has been marked as crashed; it must stop
    /// communicating.
    SelfFailed,
    /// A rank argument was outside the communicator.
    InvalidRank {
        /// The offending rank.
        rank: usize,
        /// Size of the communicator.
        size: usize,
    },
    /// The received message was larger than the posted receive buffer.
    Truncated {
        /// Bytes in the incoming message.
        got: usize,
        /// Capacity of the receive buffer.
        capacity: usize,
    },
    /// The incoming payload length is not a multiple of the element size,
    /// or the message is framed where a plain one was expected or the
    /// reverse (`Comm::recv_framed`; `elem_size` is then the 8-byte head).
    TypeMismatch {
        /// Bytes in the incoming message.
        bytes: usize,
        /// Size of one element of the requested type.
        elem_size: usize,
    },
    /// The simulation was aborted — no rank of the run can make progress
    /// any more (every rank thread is parked in a receive or has returned),
    /// or an explicit abort — so the pending operation cannot complete.
    Aborted,
    /// A collective was attempted on an empty communicator or with an
    /// otherwise invalid configuration.
    InvalidCommunicator(String),
}

impl fmt::Display for MpiError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MpiError::ProcessFailed { rank } => write!(f, "peer process {rank} has failed"),
            MpiError::SelfFailed => write!(f, "local process has been marked as failed"),
            MpiError::InvalidRank { rank, size } => {
                write!(
                    f,
                    "rank {rank} out of range for communicator of size {size}"
                )
            }
            MpiError::Truncated { got, capacity } => {
                write!(
                    f,
                    "message of {got} bytes truncated to buffer of {capacity} bytes"
                )
            }
            MpiError::TypeMismatch { bytes, elem_size } => {
                write!(
                    f,
                    "payload of {bytes} bytes is not a multiple of element size {elem_size}"
                )
            }
            MpiError::Aborted => write!(
                f,
                "simulation aborted: no rank can make progress, or explicit abort"
            ),
            MpiError::InvalidCommunicator(msg) => write!(f, "invalid communicator: {msg}"),
        }
    }
}

impl std::error::Error for MpiError {}

/// Result alias used throughout the runtime.
pub type MpiResult<T> = Result<T, MpiError>;

/// Invalid launcher configurations, returned by
/// [`crate::cluster::try_run_cluster`] and
/// [`crate::engine::try_run_virtual_cluster`] before any thread is spawned.
///
/// The panicking entry points ([`crate::run_cluster`],
/// [`crate::run_virtual_cluster`]) surface the same conditions as a panic
/// with the error's message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigError {
    /// The cluster has no processes to run.
    NoProcesses,
    /// The explicit topology places fewer ranks than the cluster runs, so
    /// some rank would have no node.
    TopologyTooSmall {
        /// Ranks the topology places.
        covers: usize,
        /// Ranks the cluster runs.
        ranks: usize,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::NoProcesses => write!(f, "cluster needs at least one process"),
            ConfigError::TopologyTooSmall { covers, ranks } => write!(
                f,
                "topology covers {covers} ranks but the cluster has {ranks}"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = MpiError::ProcessFailed { rank: 3 };
        assert!(e.to_string().contains('3'));
        let e = MpiError::Truncated {
            got: 16,
            capacity: 8,
        };
        assert!(e.to_string().contains("16"));
        assert!(e.to_string().contains('8'));
        let e = MpiError::InvalidRank { rank: 9, size: 4 };
        assert!(e.to_string().contains('9'));
    }

    #[test]
    fn errors_are_comparable() {
        assert_eq!(
            MpiError::ProcessFailed { rank: 1 },
            MpiError::ProcessFailed { rank: 1 }
        );
        assert_ne!(MpiError::Aborted, MpiError::SelfFailed);
    }
}
