//! Task schedulers: deciding which replica executes which task.
//!
//! The paper's prototype uses a simple static strategy ("the N/2 first
//! launched tasks of a section are executed by replica 1 and the N/2 last
//! ones are executed by replica 2") and notes that more elaborate strategies
//! could be designed.  [`SchedulerKind::StaticBlock`] is that strategy;
//! [`SchedulerKind::RoundRobin`] and [`SchedulerKind::CostAware`] are the
//! obvious alternatives, compared in the `ABL-SCHED` ablation; and
//! [`SchedulerKind::Adaptive`] / [`SchedulerKind::Locality`] are the "more
//! elaborate" designs: the former schedules from *measured* execution times
//! learned across section instances (see [`crate::cost::CostModel`]), the
//! latter keeps assignments contiguous and stable across iterations.
//! [`SchedulerKind`] is the closed set of schedulers (CLIs parse it from
//! strings at the edge with `FromStr`), and [`SchedulerKind::assign`] is the
//! one dispatch point.
//!
//! A scheduler is a pure function of the task weights and the set of alive
//! replicas, so all replicas of a logical process independently compute the
//! same assignment — no coordination messages are needed, which is what
//! makes failure-driven rescheduling (Algorithm 1, line 24) cheap.

use crate::error::{IntraError, IntraResult};
use std::fmt;
use std::str::FromStr;

/// The paper's static block split: the first `N/k` tasks go to the first
/// alive replica, the next block to the second, and so on.
fn static_block(task_weights: &[f64], alive_replicas: &[usize]) -> Vec<usize> {
    let n = task_weights.len();
    let k = alive_replicas.len();
    let mut out = Vec::with_capacity(n);
    if n == 0 {
        return out;
    }
    // Block sizes differ by at most one (ceil for the first `n % k`
    // blocks), matching the N/2-first / N/2-last split of the paper.
    let base = n / k;
    let extra = n % k;
    for (i, &replica) in alive_replicas.iter().enumerate() {
        let count = base + usize::from(i < extra);
        out.extend(std::iter::repeat_n(replica, count));
    }
    debug_assert_eq!(out.len(), n);
    out
}

/// Task `i` goes to alive replica `i % k`.
fn round_robin(task_weights: &[f64], alive_replicas: &[usize]) -> Vec<usize> {
    let k = alive_replicas.len();
    (0..task_weights.len())
        .map(|i| alive_replicas[i % k])
        .collect()
}

/// Greedy longest-processing-time list scheduling: sort task indices by
/// decreasing weight and give each to the currently least-loaded replica.
/// Ties (both in task weight and in replica load) are broken by index so the
/// result is deterministic across replicas.
fn lpt(task_weights: &[f64], alive_replicas: &[usize]) -> Vec<usize> {
    let k = alive_replicas.len();
    let mut load = vec![0.0f64; k];
    let mut order: Vec<usize> = (0..task_weights.len()).collect();
    order.sort_by(|&a, &b| {
        task_weights[b]
            .partial_cmp(&task_weights[a])
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });
    let mut out = vec![alive_replicas[0]; task_weights.len()];
    for &t in &order {
        let (slot, _) = load
            .iter()
            .enumerate()
            .min_by(|(ia, a), (ib, b)| {
                a.partial_cmp(b)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(ia.cmp(ib))
            })
            .expect("at least one replica");
        load[slot] += task_weights[t];
        out[t] = alive_replicas[slot];
    }
    out
}

/// Weight-balanced contiguous split (see [`SchedulerKind::Locality`]).
fn locality(task_weights: &[f64], alive_replicas: &[usize]) -> Vec<usize> {
    let n = task_weights.len();
    let k = alive_replicas.len();
    let total: f64 = task_weights.iter().filter(|w| w.is_finite()).sum();
    if n == 0 {
        return Vec::new();
    }
    if total <= 0.0 || total.is_nan() || k == 1 {
        // Degenerate weights: fall back to the paper's static block
        // split, which is contiguous and balanced by task count.
        return static_block(task_weights, alive_replicas);
    }
    // Place each task by the midpoint of its weight interval within the
    // cumulative profile: task t covering [prefix, prefix + w) goes to
    // the replica whose share of the total contains prefix + w/2.  The
    // midpoint is monotonically increasing, so the assignment is
    // contiguous by construction.
    let mut out = Vec::with_capacity(n);
    let mut prefix = 0.0f64;
    for &w in task_weights {
        let w = if w.is_finite() && w > 0.0 { w } else { 0.0 };
        let mid = prefix + w * 0.5;
        let slot = ((mid / total) * k as f64).floor() as usize;
        out.push(alive_replicas[slot.min(k - 1)]);
        prefix += w;
    }
    out
}

/// One scheduler: the scheduler-selection knob of
/// [`crate::runtime::IntraConfig`], the `Experiment` builder of the root
/// facade and the campaign grids, and the assignment itself
/// ([`SchedulerKind::assign`]).
///
/// Strings exist only at the edges: CLIs parse their arguments with
/// [`FromStr`] and reports render the kind with [`fmt::Display`]; everything
/// in between carries the enum, so an unknown or misspelled scheduler can
/// only be constructed where user input enters the program.
///
/// # Examples
///
/// ```
/// use ipr_core::SchedulerKind;
///
/// let kind: SchedulerKind = "adaptive".parse().unwrap();
/// assert_eq!(kind, SchedulerKind::Adaptive);
/// assert_eq!(kind.to_string(), "adaptive");
/// assert_eq!(kind.name(), "adaptive");
/// // Surrounding whitespace is trimmed; empty names are rejected.
/// assert_eq!("  locality ".parse(), Ok(SchedulerKind::Locality));
/// assert!("".parse::<SchedulerKind>().is_err());
/// assert!("bogus".parse::<SchedulerKind>().is_err());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchedulerKind {
    /// The paper's static block split: the first `N/k` tasks go to the
    /// first alive replica, the next block to the second, and so on.
    ///
    /// ```
    /// use ipr_core::SchedulerKind;
    ///
    /// // The paper's split: 8 tasks, 2 replicas -> N/2 first / N/2 last.
    /// let assignment = SchedulerKind::StaticBlock.assign(&[1.0; 8], &[0, 1]);
    /// assert_eq!(assignment, vec![0, 0, 0, 0, 1, 1, 1, 1]);
    /// ```
    StaticBlock,
    /// Round-robin assignment: task `i` goes to alive replica `i % k`.
    ///
    /// ```
    /// use ipr_core::SchedulerKind;
    ///
    /// let assignment = SchedulerKind::RoundRobin.assign(&[1.0; 5], &[0, 1]);
    /// assert_eq!(assignment, vec![0, 1, 0, 1, 0]);
    /// ```
    RoundRobin,
    /// Greedy longest-processing-time assignment balancing the *declared*
    /// task weights across replicas (useful when tasks are heterogeneous).
    ///
    /// ```
    /// use ipr_core::SchedulerKind;
    ///
    /// // One heavy task and four light ones: LPT isolates the heavy task.
    /// let assignment = SchedulerKind::CostAware.assign(&[8.0, 1.0, 1.0, 1.0, 1.0], &[0, 1]);
    /// assert_eq!(assignment[0], 0);
    /// assert!(assignment[1..].iter().all(|&r| r == 1));
    /// ```
    CostAware,
    /// History-driven longest-processing-time scheduling: the same greedy
    /// LPT as [`SchedulerKind::CostAware`], but
    /// [`SchedulerKind::wants_measured_weights`] is true, so the runtime
    /// substitutes each task's *learned* execution time (the
    /// [`crate::cost::CostModel`] EMA over previous section instances) for
    /// its declared weight.
    ///
    /// Declared weights mix units (flops vs bytes) and can mis-rank tasks
    /// whose roofline bottlenecks differ; measured virtual-time durations
    /// cannot.  On the first instance of a section no history exists yet,
    /// every task falls back to its declared weight, and the scheduler
    /// behaves exactly like `CostAware` — one warm-up iteration later the
    /// assignment is driven by measured costs (see the `ABL-ADAPT` ablation
    /// and `examples/adaptive_sched.rs`).
    ///
    /// ```
    /// use ipr_core::SchedulerKind;
    ///
    /// let sched = SchedulerKind::Adaptive;
    /// assert!(sched.wants_measured_weights());
    /// // Given (measured) weights, the assignment is plain LPT:
    /// let assignment = sched.assign(&[8.0, 7.0, 2.0, 1.0], &[0, 1]);
    /// assert_eq!(assignment, vec![0, 1, 1, 0]);
    /// ```
    Adaptive,
    /// Weight-balanced *contiguous* partitioning: replica `j` receives a
    /// contiguous run of tasks whose cumulative weight is as close as
    /// possible to `j/k .. (j+1)/k` of the total.
    ///
    /// Two properties distinguish it from greedy LPT:
    ///
    /// * **locality** — each replica owns one contiguous task range, so the
    ///   `out`/`inout` ranges it ships form as few contiguous runs per
    ///   variable as possible (tasks produced by
    ///   [`crate::section::split_ranges`] write adjacent ranges), which is
    ///   what an implementation that coalesces update messages wants;
    /// * **stickiness** — the split point moves only when the weight
    ///   *profile* moves, so across iterations of a section with stable (or
    ///   slowly drifting) weights every task keeps its owner, whereas LPT can
    ///   permute ownership on the smallest weight perturbation.  Stable
    ///   ownership means iteration `i+1` re-reads the ranges replica `j`
    ///   already produced in iteration `i` from local memory, not from a
    ///   differently shaped peer update.
    ///
    /// ```
    /// use ipr_core::SchedulerKind;
    ///
    /// // A weight gradient: the contiguous split is 4 light tasks / 2 heavy.
    /// let weights = [1.0, 1.0, 1.0, 1.0, 2.0, 2.0];
    /// let assignment = SchedulerKind::Locality.assign(&weights, &[0, 1]);
    /// assert_eq!(assignment, vec![0, 0, 0, 0, 1, 1]);
    /// // Contiguity: the replica id never decreases along the task list.
    /// assert!(assignment.windows(2).all(|w| w[0] <= w[1]));
    /// ```
    Locality,
}

impl SchedulerKind {
    /// Every built-in scheduler, in documentation order.
    pub const ALL: [SchedulerKind; 5] = [
        SchedulerKind::StaticBlock,
        SchedulerKind::RoundRobin,
        SchedulerKind::CostAware,
        SchedulerKind::Adaptive,
        SchedulerKind::Locality,
    ];

    /// Stable name, used in run ids, reports and on the command line.
    pub fn name(self) -> &'static str {
        match self {
            SchedulerKind::StaticBlock => "static-block",
            SchedulerKind::RoundRobin => "round-robin",
            SchedulerKind::CostAware => "cost-aware",
            SchedulerKind::Adaptive => "adaptive",
            SchedulerKind::Locality => "locality",
        }
    }

    /// Returns, for each task weight in `task_weights`, the replica id (an
    /// element of `alive_replicas`) that must execute it.
    ///
    /// `alive_replicas` is never empty and is sorted in increasing order.
    pub fn assign(self, task_weights: &[f64], alive_replicas: &[usize]) -> Vec<usize> {
        match self {
            SchedulerKind::StaticBlock => static_block(task_weights, alive_replicas),
            SchedulerKind::RoundRobin => round_robin(task_weights, alive_replicas),
            SchedulerKind::CostAware | SchedulerKind::Adaptive => lpt(task_weights, alive_replicas),
            SchedulerKind::Locality => locality(task_weights, alive_replicas),
        }
    }

    /// True if the runtime should hand [`SchedulerKind::assign`] *measured*
    /// task weights (the learned execution times of
    /// [`crate::cost::CostModel`], falling back to the declared weight for
    /// tasks without history) instead of the declared weights: `Adaptive`
    /// only, which preserves the paper's behaviour for the others.
    pub fn wants_measured_weights(self) -> bool {
        self == SchedulerKind::Adaptive
    }

    /// Returns `self`: the kind itself assigns, call
    /// [`SchedulerKind::assign`] on it.
    ///
    /// It remains only because `benchmarks/` (which a PR may not edit)
    /// calls it; it goes when that fence is next opened.
    pub fn scheduler(self) -> SchedulerKind {
        self
    }

    /// The names of every built-in scheduler, for error messages and CLI
    /// usage strings.
    pub fn names() -> Vec<&'static str> {
        SchedulerKind::ALL.iter().map(|k| k.name()).collect()
    }
}

impl fmt::Display for SchedulerKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for SchedulerKind {
    type Err = IntraError;

    /// Parses a scheduler name, trimming surrounding whitespace.  Empty or
    /// unknown names yield [`IntraError::InvalidConfig`].
    fn from_str(s: &str) -> IntraResult<Self> {
        let name = s.trim();
        if name.is_empty() {
            return Err(IntraError::InvalidConfig(format!(
                "scheduler name is empty (available: {})",
                SchedulerKind::names().join(", ")
            )));
        }
        SchedulerKind::ALL
            .into_iter()
            .find(|k| k.name() == name)
            .ok_or_else(|| {
                IntraError::InvalidConfig(format!(
                    "unknown scheduler '{name}' (available: {})",
                    SchedulerKind::names().join(", ")
                ))
            })
    }
}

/// Makespan of an assignment: the maximum, over the replicas, of the summed
/// weights of the tasks assigned to that replica.  Used by the scheduler
/// tests and the `ABL-ADAPT` ablation.
pub fn assignment_makespan(task_weights: &[f64], assignment: &[usize]) -> f64 {
    debug_assert_eq!(task_weights.len(), assignment.len());
    let mut loads = std::collections::HashMap::new();
    for (w, &r) in task_weights.iter().zip(assignment) {
        *loads.entry(r).or_insert(0.0f64) += w;
    }
    loads.into_values().fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn scheduler_kind_round_trips_names_and_instances() {
        for kind in SchedulerKind::ALL {
            assert_eq!(kind.name().parse::<SchedulerKind>(), Ok(kind));
            assert_eq!(kind.to_string(), kind.name());
            assert_eq!(kind.scheduler(), kind);
        }
        assert_eq!(
            SchedulerKind::names(),
            [
                "static-block",
                "round-robin",
                "cost-aware",
                "adaptive",
                "locality"
            ]
        );
    }

    #[test]
    fn scheduler_kind_parse_trims_and_rejects_empty_names() {
        assert_eq!(
            " static-block\t".parse::<SchedulerKind>(),
            Ok(SchedulerKind::StaticBlock)
        );
        for bad in ["", "   ", "\t"] {
            let err = bad.parse::<SchedulerKind>().unwrap_err();
            assert!(
                matches!(err, IntraError::InvalidConfig(_)),
                "{bad:?}: {err:?}"
            );
            assert!(err.to_string().contains("empty"), "{err}");
        }
        let err = "no-such".parse::<SchedulerKind>().unwrap_err();
        assert!(err.to_string().contains("no-such"), "{err}");
        assert!(err.to_string().contains("static-block"), "{err}");
    }

    #[test]
    fn static_block_splits_in_halves_for_degree_two() {
        // The paper's configuration: 8 tasks per section, 2 replicas.
        let s = SchedulerKind::StaticBlock;
        let a = s.assign(&[1.0; 8], &[0, 1]);
        assert_eq!(a, vec![0, 0, 0, 0, 1, 1, 1, 1]);
        assert_eq!(s.name(), "static-block");
    }

    #[test]
    fn static_block_handles_remainders_and_single_replica() {
        let s = SchedulerKind::StaticBlock;
        assert_eq!(s.assign(&[1.0; 5], &[0, 1]), vec![0, 0, 0, 1, 1]);
        assert_eq!(s.assign(&[1.0; 3], &[1]), vec![1, 1, 1]);
        assert_eq!(s.assign(&[], &[0, 1]), Vec::<usize>::new());
    }

    #[test]
    fn static_block_uses_surviving_replica_ids() {
        // After replica 0 failed, everything must go to replica 1.
        let s = SchedulerKind::StaticBlock;
        assert_eq!(s.assign(&[1.0; 4], &[1]), vec![1; 4]);
    }

    #[test]
    fn round_robin_alternates() {
        let s = SchedulerKind::RoundRobin;
        assert_eq!(s.assign(&[1.0; 5], &[0, 1]), vec![0, 1, 0, 1, 0]);
        assert_eq!(s.name(), "round-robin");
    }

    #[test]
    fn cost_aware_balances_heterogeneous_tasks() {
        let s = SchedulerKind::CostAware;
        // Weights 8, 1, 1, 1, 1, 1, 1, 1, 1: the heavy task goes alone.
        let weights = [8.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0];
        let a = s.assign(&weights, &[0, 1]);
        let load0: f64 = weights
            .iter()
            .zip(&a)
            .filter(|(_, &r)| r == 0)
            .map(|(w, _)| w)
            .sum();
        let load1: f64 = weights
            .iter()
            .zip(&a)
            .filter(|(_, &r)| r == 1)
            .map(|(w, _)| w)
            .sum();
        assert!((load0 - load1).abs() <= 1.0, "loads {load0} vs {load1}");
        assert_eq!(s.name(), "cost-aware");
    }

    #[test]
    fn adaptive_is_lpt_and_wants_measured_weights() {
        let s = SchedulerKind::Adaptive;
        assert!(s.wants_measured_weights());
        assert!(!SchedulerKind::CostAware.wants_measured_weights());
        let weights = [8.0, 7.0, 2.0, 1.0];
        assert_eq!(s.assign(&weights, &[0, 1]), lpt(&weights, &[0, 1]));
        assert_eq!(s.name(), "adaptive");
    }

    #[test]
    fn locality_is_contiguous_and_weight_balanced() {
        let s = SchedulerKind::Locality;
        // A strong gradient: the unweighted block split (3|3) would give
        // loads 3 vs 12; the weighted contiguous split must do better.
        let weights = [1.0, 1.0, 1.0, 4.0, 4.0, 4.0];
        let a = s.assign(&weights, &[0, 1]);
        assert!(a.windows(2).all(|w| w[0] <= w[1]), "not contiguous: {a:?}");
        let makespan = assignment_makespan(&weights, &a);
        let block = assignment_makespan(
            &weights,
            &SchedulerKind::StaticBlock.assign(&weights, &[0, 1]),
        );
        assert!(makespan < block, "locality {makespan} vs block {block}");
        assert_eq!(s.name(), "locality");
    }

    #[test]
    fn locality_falls_back_to_block_on_degenerate_weights() {
        let s = SchedulerKind::Locality;
        assert_eq!(s.assign(&[0.0; 4], &[0, 1]), vec![0, 0, 1, 1]);
        assert_eq!(s.assign(&[], &[0, 1]), Vec::<usize>::new());
        assert_eq!(s.assign(&[1.0; 3], &[2]), vec![2, 2, 2]);
    }

    #[test]
    fn locality_is_sticky_under_small_perturbations() {
        // LPT permutes ownership when weights wiggle; the contiguous split
        // must not move for a 1 % perturbation of a stable profile.
        let s = SchedulerKind::Locality;
        let base = [2.0, 2.0, 2.0, 2.0, 2.0, 2.0, 2.0, 2.0];
        let wiggled: Vec<f64> = base
            .iter()
            .enumerate()
            .map(|(i, w)| w * (1.0 + 0.01 * ((i % 3) as f64 - 1.0)))
            .collect();
        assert_eq!(s.assign(&base, &[0, 1]), s.assign(&wiggled, &[0, 1]));
    }

    #[test]
    fn schedulers_are_deterministic() {
        let weights = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0];
        for s in SchedulerKind::ALL {
            assert_eq!(s.assign(&weights, &[0, 1]), s.assign(&weights, &[0, 1]));
        }
    }

    proptest! {
        #[test]
        fn every_task_is_assigned_to_an_alive_replica(
            weights in proptest::collection::vec(0.1f64..100.0, 0..64),
            alive_mask in 1u8..7,
        ) {
            let alive: Vec<usize> = (0..3).filter(|i| alive_mask & (1 << i) != 0).collect();
            for s in SchedulerKind::ALL {
                let a = s.assign(&weights, &alive);
                prop_assert_eq!(a.len(), weights.len());
                for r in &a {
                    prop_assert!(alive.contains(r), "{} assigned to dead replica {}", s.name(), r);
                }
            }
        }

        #[test]
        fn static_block_is_contiguous(n in 0usize..64) {
            let a = SchedulerKind::StaticBlock.assign(&vec![1.0; n], &[0, 1, 2]);
            // Once the replica id increases it never goes back down.
            for w in a.windows(2) {
                prop_assert!(w[0] <= w[1]);
            }
        }

        #[test]
        fn locality_is_always_contiguous(
            weights in proptest::collection::vec(0.0f64..50.0, 0..64),
            alive_mask in 1u8..15,
        ) {
            let alive: Vec<usize> = (0..4).filter(|i| alive_mask & (1 << i) != 0).collect();
            let a = SchedulerKind::Locality.assign(&weights, &alive);
            // Map back to positions within `alive` to check monotonicity.
            let pos: Vec<usize> = a
                .iter()
                .map(|r| alive.iter().position(|x| x == r).unwrap())
                .collect();
            for w in pos.windows(2) {
                prop_assert!(w[0] <= w[1], "assignment not contiguous: {:?}", a);
            }
        }
    }
}
