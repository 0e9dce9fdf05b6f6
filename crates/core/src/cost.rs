//! Measured-cost history: the data the adaptive scheduler learns from.
//!
//! The paper's prototype schedules tasks from their *declared* weights (or,
//! with the static split, from nothing at all) and notes that "more elaborate
//! strategies could be designed".  The elaborate strategy implemented here
//! closes the loop: every executed section records the virtual-time duration
//! of each of its tasks ([`crate::report::TaskCostSample`]), the runtime
//! feeds those durations into an exponential-moving-average history keyed
//! per task instance (this module), and the scheduler that opts in (see
//! [`crate::sched::SchedulerKind::wants_measured_weights`]) receives the
//! learned durations instead of the declared weights on the next instance
//! of the section.
//!
//! ## Task instances
//!
//! A task instance is identified by its name plus its occurrence index among
//! the same-named tasks of its section (HPCCG's `sparsemv` section is eight
//! identically named chunks; qualifying by occurrence lets each chunk learn
//! its own history).  Every method takes that pair, `(name, occurrence)`.
//! Names are interned privately, so the per-section hot path performs no
//! string formatting: one name lookup, then one lookup of the copyable
//! `(name id, occurrence)` entry key.
//!
//! ## Replica determinism
//!
//! Work-sharing correctness requires every replica to compute the *same*
//! assignment without exchanging messages, so the cost model must evolve
//! identically on all replicas.  This holds because the runtime feeds it one
//! observation per task of every executed section, in task order, where the
//! observation is the task's modeled execution time — a pure function of the
//! task's declared [`crate::task::TaskCost`] and the cluster-wide machine
//! model, identical no matter which replica actually ran the task (see
//! `observed_seconds` in [`crate::report::TaskCostSample`]).  No
//! wall-clock or per-replica state ever enters the model.  Name interning
//! preserves this: ids are assigned in first-sighting order, which is the
//! (replica-identical) task launch order.

use std::collections::HashMap;

/// Smoothing factor α of the exponential moving average.
const EMA_ALPHA: f64 = 0.5;

/// One learned per-instance cost estimate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostEstimate {
    /// Exponentially smoothed execution time in virtual seconds.
    pub seconds: f64,
    /// Number of observations folded into the estimate.
    pub samples: u64,
}

/// Exponential-moving-average history of measured task execution times,
/// keyed by task instance `(name, occurrence)`.
///
/// `mean ← α·sample + (1−α)·mean` with α = 0.5, the first observation
/// initializing the mean directly so a single iteration is enough to start
/// scheduling from measured costs.
///
/// # Examples
///
/// ```
/// use ipr_core::CostModel;
///
/// let mut model = CostModel::default();
/// model.observe("sparsemv", 0, 0.25);
/// model.observe("sparsemv", 0, 0.25);
/// assert_eq!(model.predict("sparsemv", 0), Some(0.25));
/// // Unknown instances fall back to the declared weight.
/// assert_eq!(model.effective_weight("ddot", 0, 42.0), 42.0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct CostModel {
    /// Task-name interner; ids are assigned in first-sighting order.
    names: HashMap<String, u32>,
    /// Estimates keyed by `(name id, occurrence)`.
    entries: HashMap<(u32, u32), CostEstimate>,
}

impl CostModel {
    /// The entry key of `(name, occurrence)` if the name has been seen
    /// before; read-only (never interns).
    fn key(&self, name: &str, occurrence: u32) -> Option<(u32, u32)> {
        self.names.get(name).map(|&id| (id, occurrence))
    }

    /// Folds one measured duration (virtual seconds) into the history of
    /// `(name, occurrence)`.  Non-finite or negative samples are ignored.
    pub fn observe(&mut self, name: &str, occurrence: u32, seconds: f64) {
        if !seconds.is_finite() || seconds < 0.0 {
            return;
        }
        let id = match self.names.get(name) {
            Some(&id) => id,
            None => {
                let id = u32::try_from(self.names.len()).expect("more than u32::MAX task names");
                self.names.insert(name.to_string(), id);
                id
            }
        };
        self.entries
            .entry((id, occurrence))
            .and_modify(|e| {
                e.seconds = EMA_ALPHA * seconds + (1.0 - EMA_ALPHA) * e.seconds;
                e.samples += 1;
            })
            .or_insert(CostEstimate {
                seconds,
                samples: 1,
            });
    }

    /// The full estimate (smoothed seconds + sample count) of
    /// `(name, occurrence)`, if any observation exists.
    pub fn estimate(&self, name: &str, occurrence: u32) -> Option<CostEstimate> {
        self.entries.get(&self.key(name, occurrence)?).copied()
    }

    /// The learned execution time of `(name, occurrence)`, if any
    /// observation exists.
    pub fn predict(&self, name: &str, occurrence: u32) -> Option<f64> {
        self.estimate(name, occurrence).map(|e| e.seconds)
    }

    /// The scheduling weight to use for task instance `(name, occurrence)`
    /// with declared weight `declared`: the learned duration when one exists
    /// and is positive, the declared weight otherwise.
    ///
    /// Falling back on non-positive predictions keeps the adaptive scheduler
    /// well-behaved on idealized machines (where every measured duration is
    /// zero): an all-zero weight vector would make greedy LPT pile every
    /// task onto one replica.
    pub fn effective_weight(&self, name: &str, occurrence: u32, declared: f64) -> f64 {
        match self.predict(name, occurrence) {
            Some(p) if p > 0.0 && p.is_finite() => p,
            _ => declared,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl CostModel {
        /// Number of distinct task instances with history.
        fn len(&self) -> usize {
            self.entries.len()
        }

        /// True if no observation has been recorded yet.
        fn is_empty(&self) -> bool {
            self.entries.is_empty()
        }
    }

    #[test]
    fn first_observation_initializes_the_mean() {
        let mut m = CostModel::default();
        m.observe("t", 0, 4.0);
        assert_eq!(m.predict("t", 0), Some(4.0));
        assert_eq!(m.estimate("t", 0).unwrap().samples, 1);
    }

    #[test]
    fn ema_smooths_subsequent_observations() {
        let mut m = CostModel::default();
        m.observe("t", 0, 4.0);
        m.observe("t", 0, 2.0);
        // 0.5 * 2 + 0.5 * 4 = 3.
        assert_eq!(m.predict("t", 0), Some(3.0));
        assert_eq!(m.estimate("t", 0).unwrap().samples, 2);
    }

    #[test]
    fn ema_converges_on_stable_workloads() {
        // Regression: starting far from the true cost, the estimate must
        // converge geometrically once the workload stabilizes.
        let mut m = CostModel::default();
        m.observe("t", 0, 100.0);
        for _ in 0..40 {
            m.observe("t", 0, 0.25);
        }
        let err = (m.predict("t", 0).unwrap() - 0.25).abs();
        assert!(err < 1e-9, "EMA did not converge: err = {err}");
    }

    #[test]
    fn invalid_samples_are_ignored() {
        let mut m = CostModel::default();
        m.observe("t", 0, f64::NAN);
        m.observe("t", 0, -1.0);
        m.observe("t", 0, f64::INFINITY);
        assert!(m.is_empty());
        m.observe("t", 0, 1.0);
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn effective_weight_falls_back_when_unknown_or_zero() {
        let mut m = CostModel::default();
        assert_eq!(m.effective_weight("t", 0, 7.0), 7.0);
        m.observe("t", 0, 0.0);
        // Zero prediction (idealized machine) must not override the declared
        // weight.
        assert_eq!(m.effective_weight("t", 0, 7.0), 7.0);
        m.observe("u", 0, 3.0);
        assert_eq!(m.effective_weight("u", 0, 7.0), 3.0);
    }

    #[test]
    fn instance_keys_separate_same_named_tasks() {
        let mut m = CostModel::default();
        m.observe("sparsemv", 0, 1.0);
        m.observe("sparsemv", 1, 4.0);
        assert_eq!(m.predict("sparsemv", 0), Some(1.0));
        assert_eq!(m.predict("sparsemv", 1), Some(4.0));
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn reads_never_record_history() {
        let mut m = CostModel::default();
        assert_eq!(m.predict("never-seen", 0), None);
        assert_eq!(m.estimate("never-seen", 3), None);
        assert_eq!(m.effective_weight("never-seen", 0, 2.0), 2.0);
        assert!(m.is_empty() && m.names.is_empty(), "reads intern nothing");
        m.observe("waxpby", 0, 1.0);
        // A known name at an unseen occurrence is still unknown.
        assert_eq!(m.predict("waxpby", 2), None);
        assert_eq!(m.effective_weight("waxpby", 2, 5.0), 5.0);
        assert_eq!(m.len(), 1);
        assert_eq!(m.names.len(), 1);
    }
}
