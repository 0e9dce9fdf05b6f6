//! Failure injection hooks and Poisson failure-trace generation.
//!
//! The paper's Section III-B2 distinguishes three crash scenarios relative to
//! a task update: before any update bytes were sent, after the full update
//! reached only a subset of the replicas, and in the middle of an update
//! (partial update).  To test all of them deterministically, the runtime
//! layers call [`FailureInjector::consult`] at well-defined protocol
//! points ([`ProtocolPoint`]); a test arms the injector with (physical rank,
//! point) pairs and the matching process crashes itself (crash-stop) exactly
//! there.
//!
//! On top of the point-armed one-shots, the injector supports *timed*
//! failures: a crash scheduled at a virtual time instead of a protocol
//! point.  A timed failure fires at the first protocol point the process
//! reaches at or after the scheduled time, which is exactly how a crash of
//! the underlying node would be observed by the protocol.  Timed failures
//! are what failure *traces* arm, one [`FailureInjector::arm_at`] per
//! sampled time: [`crate::rate::sample_failure_trace`]
//! draws crash times from a homogeneous or inhomogeneous Poisson process
//! (via thinning, in the spirit of IPPP-style simulation packages) using the
//! deterministic per-rank streams of [`simcluster::rng`], so a campaign can
//! sweep failure rates instead of hand-placing crashes while every run stays
//! exactly reproducible from its seed.

use parking_lot::Mutex;
use simcluster::SimTime;
use std::sync::Arc;

/// A point in the intra-parallelization / replication protocol at which a
/// failure can be injected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProtocolPoint {
    /// Right after entering the section with the given index (0-based count
    /// of sections executed by the process).
    SectionEnter {
        /// Section index.
        section: usize,
    },
    /// Right after finishing the local execution of a task, before sending
    /// any update for it.
    BeforeUpdateSend {
        /// Section index.
        section: usize,
        /// Task index within the section.
        task: usize,
    },
    /// In the middle of sending the update of a task: after `vars_sent`
    /// output variables have been shipped, before the remaining ones.
    MidUpdateSend {
        /// Section index.
        section: usize,
        /// Task index within the section.
        task: usize,
        /// Number of output variables already sent when the crash happens.
        vars_sent: usize,
    },
    /// Right after the full update of a task has been sent.
    AfterUpdateSend {
        /// Section index.
        section: usize,
        /// Task index within the section.
        task: usize,
    },
    /// Right after leaving the section with the given index (i.e. outside any
    /// section — the "no specific action required" case of the paper).
    SectionExit {
        /// Section index.
        section: usize,
    },
    /// At the beginning of application iteration `iteration` (used by the
    /// mini-apps to crash a replica between solver iterations).
    IterationStart {
        /// Iteration index.
        iteration: usize,
    },
}

/// One timed failure that fired: the rank, the virtual time it was scheduled
/// for, and the protocol point / virtual time at which the process actually
/// observed it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimedFiring {
    /// Physical rank that crashed.
    pub rank: usize,
    /// Crash time sampled from the failure trace.
    pub scheduled: SimTime,
    /// Virtual time at which the crash was observed (first protocol point at
    /// or after `scheduled`).
    pub fired_at: SimTime,
    /// Protocol point at which the crash was observed.
    pub point: ProtocolPoint,
}

#[derive(Debug, Default)]
struct Plan {
    /// Armed one-shot injections: (physical rank, point).
    armed: Vec<(usize, ProtocolPoint)>,
    /// Armed timed injections: (physical rank, virtual crash time).
    timed: Vec<(usize, SimTime)>,
    /// History of fired injections.
    fired: Vec<(usize, ProtocolPoint)>,
    /// History of fired timed injections.
    fired_timed: Vec<TimedFiring>,
}

/// A shared, thread-safe failure-injection plan.
///
/// Cloning is cheap; all clones share the same plan.  An injector with no
/// armed entries never fires, so production code paths can always consult it.
#[derive(Debug, Clone, Default)]
pub struct FailureInjector {
    plan: Arc<Mutex<Plan>>,
}

impl FailureInjector {
    /// Creates an injector with no armed failures.
    pub fn none() -> Self {
        Self::default()
    }

    /// Arms a one-shot failure of `physical_rank` at `point`.
    pub fn arm(&self, physical_rank: usize, point: ProtocolPoint) -> &Self {
        self.plan.lock().armed.push((physical_rank, point));
        self
    }

    /// Arms a timed failure: `physical_rank` crashes at the first protocol
    /// point it reaches at or after virtual time `at`.
    pub fn arm_at(&self, physical_rank: usize, at: SimTime) -> &Self {
        self.plan.lock().timed.push((physical_rank, at));
        self
    }

    /// The one protocol-point query (what [`crate::ReplicatedEnv`]'s
    /// `maybe_fail` calls), under a single lock acquisition.  Returns true
    /// exactly once per armed entry:
    /// * a one-shot armed for this rank and `point` fires and is consumed;
    /// * otherwise a timed failure of this rank due at virtual time `now`
    ///   fires, consuming every timed entry of the rank (the process is
    ///   crash-stop, so later entries can never fire), with `point` recorded
    ///   as the protocol point at which the crash was observed.
    pub fn consult(&self, physical_rank: usize, point: ProtocolPoint, now: SimTime) -> bool {
        let mut plan = self.plan.lock();
        if let Some(pos) = plan
            .armed
            .iter()
            .position(|&(r, p)| r == physical_rank && p == point)
        {
            plan.armed.remove(pos);
            plan.fired.push((physical_rank, point));
            return true;
        }
        let due = plan
            .timed
            .iter()
            .filter(|&&(r, at)| r == physical_rank && at <= now)
            .map(|&(_, at)| at)
            .min();
        let Some(scheduled) = due else {
            return false;
        };
        plan.timed.retain(|&(r, _)| r != physical_rank);
        plan.fired_timed.push(TimedFiring {
            rank: physical_rank,
            scheduled,
            fired_at: now,
            point,
        });
        true
    }

    /// Number of armed injections (point-armed and timed) that have not
    /// fired yet.
    pub fn pending(&self) -> usize {
        let plan = self.plan.lock();
        plan.armed.len() + plan.timed.len()
    }

    /// Injections that fired, in firing order.
    pub fn fired(&self) -> Vec<(usize, ProtocolPoint)> {
        self.plan.lock().fired.clone()
    }

    /// Timed injections that fired, in firing order.
    pub fn fired_timed(&self) -> Vec<TimedFiring> {
        self.plan.lock().fired_timed.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unarmed_injector_never_fires() {
        let inj = FailureInjector::none();
        assert!(!inj.consult(0, ProtocolPoint::SectionEnter { section: 0 }, SimTime::ZERO));
        assert_eq!(inj.pending(), 0);
        assert!(inj.fired().is_empty());
    }

    #[test]
    fn armed_injection_fires_exactly_once() {
        let inj = FailureInjector::none();
        let point = ProtocolPoint::BeforeUpdateSend {
            section: 1,
            task: 2,
        };
        inj.arm(3, point);
        assert_eq!(inj.pending(), 1);
        assert!(
            !inj.consult(2, point, SimTime::ZERO),
            "wrong rank must not fire"
        );
        assert!(!inj.consult(3, ProtocolPoint::SectionEnter { section: 1 }, SimTime::ZERO));
        assert!(inj.consult(3, point, SimTime::ZERO));
        assert!(
            !inj.consult(3, point, SimTime::ZERO),
            "one-shot: second query is false"
        );
        assert_eq!(inj.fired(), vec![(3, point)]);
    }

    #[test]
    fn multiple_injections_are_independent() {
        let inj = FailureInjector::none();
        inj.arm(0, ProtocolPoint::SectionEnter { section: 0 });
        inj.arm(
            1,
            ProtocolPoint::MidUpdateSend {
                section: 0,
                task: 1,
                vars_sent: 1,
            },
        );
        assert!(inj.consult(0, ProtocolPoint::SectionEnter { section: 0 }, SimTime::ZERO));
        assert_eq!(inj.pending(), 1);
        assert!(inj.consult(
            1,
            ProtocolPoint::MidUpdateSend {
                section: 0,
                task: 1,
                vars_sent: 1,
            },
            SimTime::ZERO
        ));
        assert_eq!(inj.pending(), 0);
    }

    #[test]
    fn clones_share_the_plan() {
        let a = FailureInjector::none();
        let b = a.clone();
        a.arm(5, ProtocolPoint::SectionExit { section: 2 });
        assert!(b.consult(5, ProtocolPoint::SectionExit { section: 2 }, SimTime::ZERO));
        assert!(!a.consult(5, ProtocolPoint::SectionExit { section: 2 }, SimTime::ZERO));
    }
}
