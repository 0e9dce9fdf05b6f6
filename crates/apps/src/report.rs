//! Per-process application run reports.

use ipr_core::SectionTotals;
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
    /// Totals of the sections of the measured region: their time (the
    /// "sections" part of the Figure 6 breakdown), update drain and task
    /// counts.
    pub sections: SectionTotals,
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
            self.sections.section_time / self.total_time
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
            sections: SectionTotals {
                count: 30,
                section_time: SimTime::from_secs(6.0),
                ..SectionTotals::default()
            },
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
            sections: SectionTotals::default(),
            verification: 0.0,
        };
        assert_eq!(r.section_fraction(), 0.0);
    }
}
