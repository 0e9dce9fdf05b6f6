//! Per-process application run reports.

use simcluster::SimTime;

/// Summary of one application run on one physical process, in virtual time.
///
/// The benchmark harness aggregates these across processes (taking the
/// makespan) and across execution modes to compute the paper's efficiency
/// numbers.
///
/// Carries *measurements only*: the run's configuration axes (app, mode,
/// scheduler, …) live on the experiment that produced it and in the
/// versioned campaign report model (`campaign::report::v1`), not here —
/// the pre-v1 `app`/`mode`/`scheduler` string fields were deleted (see
/// MIGRATION.md).
#[derive(Debug, Clone, PartialEq)]
#[must_use = "an AppRunReport carries the run's metrics; dropping it silently loses them"]
pub struct AppRunReport {
    /// Logical rank of this process.
    pub logical_rank: usize,
    /// Replica id of this process.
    pub replica_id: usize,
    /// Number of outer iterations / time steps executed.
    pub iterations: usize,
    /// Virtual time spent in the measured region of the application.
    pub total_time: SimTime,
    /// Virtual time spent inside intra-parallel sections (the "sections"
    /// part of the Figure 6 breakdown).
    pub section_time: SimTime,
    /// Virtual time spent draining update transfers after local task
    /// execution (subset of `section_time`; the dashed area of Figure 5a).
    pub update_drain_time: SimTime,
    /// Number of sections executed.
    pub sections: usize,
    /// Number of tasks executed locally.
    pub tasks_executed: usize,
    /// Number of tasks whose result was received from a peer replica.
    pub tasks_received: usize,
    /// Number of tasks re-executed locally because their owner crashed.
    pub tasks_reexecuted: usize,
    /// Replica failures of this logical process observed inside sections.
    pub replica_failures_observed: usize,
    /// Modeled bytes of replica updates sent.
    pub update_bytes_sent: usize,
    /// Application-specific verification value (residual norm, conserved
    /// charge, …) used by tests to check numerical correctness.
    pub verification: f64,
}

impl AppRunReport {
    /// Fraction of the runtime covered by intra-parallel sections.
    pub fn section_fraction(&self) -> f64 {
        if self.total_time.is_zero() {
            0.0
        } else {
            self.section_time / self.total_time
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breakdown_accessors() {
        let r = AppRunReport {
            logical_rank: 0,
            replica_id: 0,
            iterations: 10,
            total_time: SimTime::from_secs(10.0),
            section_time: SimTime::from_secs(6.0),
            update_drain_time: SimTime::from_secs(1.0),
            sections: 30,
            tasks_executed: 120,
            tasks_received: 60,
            tasks_reexecuted: 0,
            replica_failures_observed: 0,
            update_bytes_sent: 1000,
            verification: 0.0,
        };
        assert!((r.section_fraction() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn zero_total_time_gives_zero_fraction() {
        let r = AppRunReport {
            logical_rank: 0,
            replica_id: 0,
            iterations: 0,
            total_time: SimTime::ZERO,
            section_time: SimTime::ZERO,
            update_drain_time: SimTime::ZERO,
            sections: 0,
            tasks_executed: 0,
            tasks_received: 0,
            tasks_reexecuted: 0,
            replica_failures_observed: 0,
            update_bytes_sent: 0,
            verification: 0.0,
        };
        assert_eq!(r.section_fraction(), 0.0);
    }
}
