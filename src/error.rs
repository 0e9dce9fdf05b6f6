//! The unified error type of the `intra-replication` facade.
//!
//! Every layer of the workspace keeps its own focused error type
//! ([`ipr_core::IntraError`], [`simmpi::MpiError`]), but downstream users of
//! the facade interact with exactly one: [`enum@Error`].  `From`
//! conversions (usable with the `?` operator) fold the per-crate errors into
//! it, and the [`crate::Experiment`] builder adds the typed validation
//! errors of the experiment axes — no panics, no stringly `Box<dyn Error>`.

use ipr_core::IntraError;
use simmpi::MpiError;
use std::fmt;

/// Any error the facade can produce: per-layer runtime errors folded in via
/// `From`, plus the typed validation errors of the [`crate::Experiment`]
/// builder and the spec-parsing errors of the campaign layer.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Error {
    /// An intra-parallelization runtime error (converted with `?` /
    /// `From<IntraError>`).
    Intra(IntraError),
    /// An MPI-level error that escaped the intra runtime (converted with
    /// `?` / `From<MpiError>`).
    Mpi(MpiError),
    /// The replication degree is invalid for the requested mode: below 2
    /// with replication, or so large that the physical process count
    /// (logical processes × degree) overflows.
    InvalidReplicas {
        /// The requested execution mode.
        mode: crate::experiment::Mode,
        /// The offending replica count.
        replicas: usize,
    },
    /// A failure plan was configured for an unreplicated experiment, which
    /// cannot recover from any crash.  See
    /// [`crate::ExperimentBuilder::allow_unrecoverable_failures`] for the
    /// explicit opt-in used by baseline measurements.
    UnrecoverableFailurePlan,
    /// The experiment has no logical processes to run on.
    NoLogicalProcs,
    /// A textual spec (failure plan, mode label, …) did not parse.
    InvalidSpec {
        /// What was being parsed (e.g. `"failure plan"`).
        what: &'static str,
        /// The offending input.
        input: String,
    },
    /// A configuration value outside the experiment axes was invalid.
    Config(String),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Intra(e) => write!(f, "intra runtime error: {e}"),
            Error::Mpi(e) => write!(f, "MPI error: {e}"),
            Error::InvalidReplicas { mode, replicas } => write!(
                f,
                "invalid replica count {replicas} for mode {mode}: replicated modes take at \
                 least 2, and logical processes × replicas must fit in a usize"
            ),
            Error::UnrecoverableFailurePlan => write!(
                f,
                "a failure plan without replication cannot recover from any crash (opt in \
                 explicitly with allow_unrecoverable_failures() to measure the unprotected \
                 baseline)"
            ),
            Error::NoLogicalProcs => write!(f, "experiment has zero logical processes"),
            Error::InvalidSpec { what, input } => {
                write!(f, "cannot parse {what} from '{input}'")
            }
            Error::Config(msg) => write!(f, "invalid configuration: {msg}"),
        }
    }
}

impl std::error::Error for Error {}

impl From<IntraError> for Error {
    fn from(e: IntraError) -> Self {
        Error::Intra(e)
    }
}

impl From<MpiError> for Error {
    fn from(e: MpiError) -> Self {
        // `SelfFailed` means "this replica crashed", which the intra layer
        // already normalizes; keep the same normalization here so matching
        // on a crash needs exactly one pattern.
        Error::Intra(IntraError::from(e))
    }
}

/// Result alias for facade operations.
pub type Result<T> = std::result::Result<T, Error>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_crate_errors_fold_in_with_from() {
        assert_eq!(
            Error::from(IntraError::Crashed),
            Error::Intra(IntraError::Crashed)
        );
        // MPI errors are normalized the same way the intra layer does it.
        assert_eq!(
            Error::from(MpiError::SelfFailed),
            Error::Intra(IntraError::Crashed)
        );
        assert_eq!(
            Error::from(MpiError::Aborted),
            Error::Intra(IntraError::Mpi(MpiError::Aborted))
        );
    }

    #[test]
    fn display_is_informative() {
        assert!(Error::UnrecoverableFailurePlan
            .to_string()
            .contains("allow_unrecoverable_failures"));
        let e = Error::InvalidSpec {
            what: "failure plan",
            input: "poisson-?".into(),
        };
        assert!(e.to_string().contains("failure plan"));
        assert!(e.to_string().contains("poisson-?"));
    }
}
