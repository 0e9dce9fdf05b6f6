//! Experiment scale selection.
//!
//! The paper's experiments use 128 nodes (252–512 physical processes).  The
//! simulator reproduces those process counts on threads, but the benchmark
//! and the test suite use a reduced scale so they stay fast.  The
//! scale is one axis of the root facade's `Experiment` builder, which is why
//! this type lives here (the lowest layer that knows about workloads) rather
//! than in the bench harness.  The
//! virtual-time results are driven by the *modeled* per-process problem size
//! and the machine model, so the efficiency numbers are comparable at both
//! scales; only the cluster-size-dependent effects (all-reduce depth) change.

/// How large the simulated cluster and the actual arrays are.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExperimentScale {
    /// Paper-scale process counts (up to 512 simulated processes).
    Full,
    /// Reduced process counts for quick runs (tests, `benchmarks/`).
    Small,
    /// Minimal process counts for the campaign smoke grid and CI gates:
    /// every run finishes in a fraction of a second.
    Tiny,
}

impl ExperimentScale {
    /// Parses `"full"` / `"small"` / `"tiny"`.
    pub fn parse(s: &str) -> Option<Self> {
        match s.to_ascii_lowercase().as_str() {
            "full" => Some(ExperimentScale::Full),
            "small" => Some(ExperimentScale::Small),
            "tiny" => Some(ExperimentScale::Tiny),
            _ => None,
        }
    }

    /// Stable lowercase name (the inverse of [`ExperimentScale::parse`]).
    pub fn name(self) -> &'static str {
        match self {
            ExperimentScale::Full => "full",
            ExperimentScale::Small => "small",
            ExperimentScale::Tiny => "tiny",
        }
    }

    /// Physical process count for the Figure 5a kernel study.
    pub fn fig5a_procs(self) -> usize {
        match self {
            ExperimentScale::Full => 512,
            ExperimentScale::Small => 16,
            ExperimentScale::Tiny => 4,
        }
    }

    /// Physical process counts for the Figure 5b weak-scaling study.
    pub fn fig5b_procs(self) -> Vec<usize> {
        match self {
            ExperimentScale::Full => vec![128, 256, 512],
            ExperimentScale::Small => vec![8, 16, 32],
            ExperimentScale::Tiny => vec![2, 4],
        }
    }

    /// Number of *logical* processes for the Figure 6 application runs
    /// (native uses this many physical processes, replicated/intra twice as
    /// many).
    pub fn fig6_logical_procs(self) -> usize {
        match self {
            ExperimentScale::Full => 64,
            ExperimentScale::Small => 4,
            ExperimentScale::Tiny => 2,
        }
    }

    /// Edge of the actual (allocated) local grid for grid-based workloads.
    pub fn actual_grid_edge(self) -> usize {
        match self {
            ExperimentScale::Full => 8,
            ExperimentScale::Small => 6,
            ExperimentScale::Tiny => 4,
        }
    }

    /// Actual number of particles per logical process for the GTC proxy.
    pub fn actual_particles(self) -> usize {
        match self {
            ExperimentScale::Full => 20_000,
            ExperimentScale::Small => 4_000,
            ExperimentScale::Tiny => 500,
        }
    }

    /// Solver iterations / time steps for application runs.
    pub fn app_iterations(self) -> usize {
        match self {
            ExperimentScale::Full => 20,
            ExperimentScale::Small => 8,
            ExperimentScale::Tiny => 4,
        }
    }

    /// Repetitions of each kernel in the Figure 5a study.
    pub fn kernel_reps(self) -> usize {
        match self {
            ExperimentScale::Full => 5,
            ExperimentScale::Small => 3,
            ExperimentScale::Tiny => 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_process_counts() {
        assert_eq!(ExperimentScale::parse("full"), Some(ExperimentScale::Full));
        assert_eq!(
            ExperimentScale::parse("SMALL"),
            Some(ExperimentScale::Small)
        );
        assert_eq!(ExperimentScale::parse("other"), None);
        assert_eq!(ExperimentScale::Full.fig5a_procs(), 512);
        assert_eq!(ExperimentScale::Small.fig5b_procs(), vec![8, 16, 32]);
        assert!(
            ExperimentScale::Full.fig6_logical_procs()
                > ExperimentScale::Small.fig6_logical_procs()
        );
    }
}
