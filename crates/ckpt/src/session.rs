//! Deterministic rollback-recovery replay over a precomputed crash schedule.

use crate::plan::CheckpointPlan;

/// Wasted-work and overhead accounting of one checkpointed run.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CkptStats {
    /// Coordinated checkpoints committed.
    pub checkpoints: usize,
    /// Rollback-recoveries performed (one per defeating failure event).
    pub recoveries: usize,
    /// Virtual seconds lost to rollbacks: restart cost plus re-executed
    /// work, summed over recoveries.
    pub time_lost_s: f64,
    /// Virtual seconds spent writing checkpoints.
    pub ckpt_overhead_s: f64,
}

impl CkptStats {
    /// The efficiency of the run: useful time over total resource time,
    /// `(makespan - time_lost - ckpt_overhead) / (makespan * degree)`.
    /// `degree` is the replication degree (resources per logical rank);
    /// a failure-free, checkpoint-free native run scores 1.0.
    pub fn efficiency(&self, makespan_s: f64, degree: usize) -> f64 {
        if makespan_s <= 0.0 {
            return 0.0;
        }
        let useful = (makespan_s - self.time_lost_s - self.ckpt_overhead_s).max(0.0);
        useful / (makespan_s * degree.max(1) as f64)
    }
}

/// The coordinated-C/R replay for one run: consumes the precomputed crash
/// schedule and converts crashes into restart + re-execution time at the
/// run's coordinated protocol points.
///
/// Every rank of a run constructs its own session from the same inputs
/// (the plan, the system MTBF, the sorted crash schedule and the replica
/// mapping) and advances it with the same allreduce-synchronized
/// timestamps, so all sessions stay in lock-step: the extra virtual time
/// [`CkptSession::advance`] returns is identical on every rank, which is
/// what keeps the simulation deterministic and every rank's clock
/// consistently charged.
///
/// The model (documented simplifications included):
///
/// * checkpoints commit atomically at protocol points once the work since
///   the last checkpoint reaches the policy interval — the checkpoint
///   frequency is capped at the protocol-point frequency;
/// * a crash during a segment is observed at the next protocol point; the
///   run then pays the restart cost and re-executes the work since the
///   last committed checkpoint;
/// * under replication, a crash only defeats a logical rank when *all* of
///   its replicas have been lost since the last recovery; a recovery
///   restores every replica (native degree-1 runs are defeated by every
///   event);
/// * crash events sharing a timestamp (a correlated node/rack event) are
///   one failure event and cause at most one recovery.
#[derive(Debug, Clone)]
pub struct CkptSession {
    interval_s: f64,
    ckpt_cost_s: f64,
    restart_cost_s: f64,
    /// Crash schedule, sorted by (time, rank).
    events: Vec<(f64, usize)>,
    cursor: usize,
    num_logical: usize,
    degree: usize,
    dead: Vec<bool>,
    /// Modeled absolute time after the previous advance.
    last_s: f64,
    work_since_ckpt_s: f64,
    stats: CkptStats,
}

impl CkptSession {
    /// Builds the session for one run.  `crashes` is the experiment's
    /// precomputed `(physical rank, crash time in seconds)` schedule (any
    /// order); `mtbf_s` the system MTBF the interval policy resolves
    /// against; `num_logical`/`degree` the replica mapping (physical rank
    /// `p` hosts replica `p / num_logical` of logical rank
    /// `p % num_logical`).
    pub fn new(
        plan: &CheckpointPlan,
        mtbf_s: f64,
        crashes: &[(usize, f64)],
        num_logical: usize,
        degree: usize,
    ) -> Self {
        let num_physical = num_logical.max(1) * degree.max(1);
        let mut events: Vec<(f64, usize)> = crashes
            .iter()
            .filter(|&&(rank, _)| rank < num_physical)
            .map(|&(rank, at)| (at, rank))
            .collect();
        events.sort_by(|a, b| a.partial_cmp(b).expect("crash times are finite"));
        CkptSession {
            interval_s: plan.interval_for(mtbf_s),
            ckpt_cost_s: plan.ckpt_cost_s,
            restart_cost_s: plan.restart_cost_s,
            events,
            cursor: 0,
            num_logical: num_logical.max(1),
            degree: degree.max(1),
            dead: vec![false; num_physical],
            last_s: 0.0,
            work_since_ckpt_s: 0.0,
            stats: CkptStats::default(),
        }
    }

    /// Advances the session to the coordinated protocol point at
    /// allreduce-synchronized virtual time `synced_now_s` and returns the
    /// extra virtual seconds (restarts, re-executed work, a committed
    /// checkpoint) every rank must charge.  Identical on every rank of the
    /// run by construction.
    pub fn advance(&mut self, synced_now_s: f64) -> f64 {
        self.advance_inner(synced_now_s, true)
    }

    /// Final advance at the end of the run: replays any crash events the
    /// last segment overlaps but commits no trailing checkpoint (there is
    /// no work left to protect).  Returns the extra virtual seconds to
    /// charge, like [`CkptSession::advance`].
    pub fn finish(&mut self, synced_now_s: f64) -> f64 {
        self.advance_inner(synced_now_s, false)
    }

    /// The accounting so far.
    pub fn stats(&self) -> CkptStats {
        self.stats
    }

    fn advance_inner(&mut self, synced_now_s: f64, commit_checkpoint: bool) -> f64 {
        // Work this segment contributed, on the synchronized timeline.
        let segment = (synced_now_s - self.last_s).max(0.0);
        let mut clock = self.last_s;
        let mut remaining = segment;
        // Replay every crash event the segment (plus any re-executed work)
        // overlaps.  The cursor strictly advances per event group, so the
        // loop terminates even though recoveries extend `remaining`.
        while let Some(&(t_ev, _)) = self.events.get(self.cursor) {
            if t_ev > clock + remaining {
                break;
            }
            let done = (t_ev - clock).max(0.0);
            clock += done;
            remaining -= done;
            self.work_since_ckpt_s += done;
            // Consume the whole same-timestamp group: a correlated event
            // killing several ranks at once is one failure event.
            let mut defeated = false;
            while let Some(&(t, rank)) = self.events.get(self.cursor) {
                if t != t_ev {
                    break;
                }
                self.cursor += 1;
                self.dead[rank] = true;
                let logical = rank % self.num_logical;
                if (0..self.degree).all(|r| self.dead[r * self.num_logical + logical]) {
                    defeated = true;
                }
            }
            if defeated {
                // Rollback: pay the restart and re-execute everything since
                // the last committed checkpoint.  The redo work re-enters
                // the replay window, so a crash during re-execution is
                // handled by the next loop iteration.
                let lost = self.work_since_ckpt_s;
                clock += self.restart_cost_s;
                remaining += lost;
                self.work_since_ckpt_s = 0.0;
                self.stats.recoveries += 1;
                self.stats.time_lost_s += self.restart_cost_s + lost;
                self.dead.iter_mut().for_each(|d| *d = false);
            }
        }
        clock += remaining;
        self.work_since_ckpt_s += remaining;
        if commit_checkpoint
            && self.interval_s.is_finite()
            && self.work_since_ckpt_s >= self.interval_s
        {
            clock += self.ckpt_cost_s;
            self.work_since_ckpt_s = 0.0;
            self.stats.checkpoints += 1;
            self.stats.ckpt_overhead_s += self.ckpt_cost_s;
        }
        let extra = clock - synced_now_s;
        self.last_s = clock;
        extra
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixed_plan(interval: f64) -> CheckpointPlan {
        CheckpointPlan::fixed(interval, 0.01, 0.02)
    }

    #[test]
    fn failure_free_fixed_plan_charges_pure_checkpoint_overhead() {
        let mut s = CkptSession::new(&fixed_plan(0.1), f64::INFINITY, &[], 2, 1);
        // Three boundaries 0.1s apart: one checkpoint each.
        let mut total_extra = 0.0;
        for k in 1..=3 {
            // Boundaries on the overhead-inclusive timeline.
            let synced = k as f64 * 0.1 + total_extra;
            total_extra += s.advance(synced);
        }
        let stats = s.stats();
        assert_eq!(stats.checkpoints, 3);
        assert_eq!(stats.recoveries, 0);
        assert!((stats.ckpt_overhead_s - 0.03).abs() < 1e-12);
        assert_eq!(stats.time_lost_s, 0.0);
        assert!((total_extra - 0.03).abs() < 1e-12);
    }

    #[test]
    fn interval_below_boundary_spacing_checkpoints_every_boundary_once() {
        // Work accumulates 0.1s per boundary but the interval is 0.25s:
        // checkpoints commit at boundaries 3, 6, ... (work since last >=
        // interval), never more than once per boundary.
        let mut s = CkptSession::new(&fixed_plan(0.25), f64::INFINITY, &[], 1, 1);
        let mut extra = 0.0;
        for k in 1..=6 {
            extra += s.advance(k as f64 * 0.1 + extra);
        }
        assert_eq!(s.stats().checkpoints, 2);
    }

    #[test]
    fn young_plan_without_failures_never_checkpoints() {
        let mut s = CkptSession::new(&CheckpointPlan::young(0.01, 0.02), f64::INFINITY, &[], 2, 1);
        assert_eq!(s.advance(1.0), 0.0);
        assert_eq!(s.finish(2.0), 0.0);
        assert_eq!(s.stats(), CkptStats::default());
    }

    #[test]
    fn a_native_crash_rolls_back_to_the_last_checkpoint() {
        // Binary-exact values (powers of two) so the >= interval threshold
        // is exact: interval 0.125, C = 0.015625, R = 0.03125.  Crash at
        // t = 0.3125: by then checkpoints committed at the 0.125 boundary
        // (clock 0.140625) and the 0.25 boundary (clock 0.28125).  The
        // crash is observed at the next boundary: restart R plus redo of
        // the work since clock 0.28125.
        let plan = CheckpointPlan::fixed(0.125, 0.015625, 0.03125);
        let mut s = CkptSession::new(&plan, f64::INFINITY, &[(0, 0.3125)], 1, 1);
        let e1 = s.advance(0.125);
        assert_eq!(e1, 0.015625, "first checkpoint");
        let e2 = s.advance(0.25 + e1);
        assert_eq!(e2, 0.015625, "second checkpoint");
        // Boundary at synced 0.375 + overhead so far (2C): the crash fired
        // at absolute 0.3125, work since last ckpt at that instant is
        // 0.3125 - 0.28125 = 0.03125.  Extra = restart 0.03125 + redo
        // 0.03125 + the checkpoint this boundary commits (redo restores the
        // full 0.125 of segment work) = 0.078125.
        let e3 = s.advance(0.375 + e1 + e2);
        let stats = s.stats();
        assert_eq!(stats.recoveries, 1);
        assert_eq!(stats.checkpoints, 3);
        assert_eq!(stats.time_lost_s, 0.0625, "{stats:?}");
        assert_eq!(e3, 0.078125, "recovery boundary: {e3}");
    }

    #[test]
    fn replicated_ranks_only_roll_back_when_all_replicas_are_lost() {
        // 2 logical ranks x 2 replicas; replicas of logical 0 are physical
        // 0 and 2.  Losing only replica 0 defeats nothing.
        let mut s = CkptSession::new(&fixed_plan(10.0), f64::INFINITY, &[(0, 0.5)], 2, 2);
        assert_eq!(s.finish(1.0), 0.0);
        assert_eq!(s.stats().recoveries, 0);
        // Losing both replicas of logical 0 defeats it.
        let mut s = CkptSession::new(
            &fixed_plan(10.0),
            f64::INFINITY,
            &[(0, 0.3), (2, 0.5)],
            2,
            2,
        );
        let extra = s.finish(1.0);
        assert_eq!(s.stats().recoveries, 1);
        // Lost work at t=0.5 is 0.5 (no checkpoint ever committed), plus
        // the 0.02 restart.
        assert!((extra - 0.52).abs() < 1e-12, "{extra}");
        // A recovery revives every replica: the same single-replica loss
        // afterwards defeats nothing again.
        let mut s = CkptSession::new(
            &fixed_plan(10.0),
            f64::INFINITY,
            &[(0, 0.3), (2, 0.5), (1, 0.9)],
            2,
            2,
        );
        s.finish(1.0);
        assert_eq!(s.stats().recoveries, 1);
    }

    #[test]
    fn correlated_same_timestamp_events_are_one_recovery() {
        // Both replicas of logical 0 die at the same instant (a node
        // event): one recovery, not two.
        let mut s = CkptSession::new(
            &fixed_plan(10.0),
            f64::INFINITY,
            &[(0, 0.4), (2, 0.4)],
            2,
            2,
        );
        s.finish(1.0);
        assert_eq!(s.stats().recoveries, 1);
    }

    #[test]
    fn crash_during_redo_work_recovers_again() {
        // Native, no checkpoints ever (huge interval): the crash at 0.5
        // loses 0.5 of work; the second crash at absolute 0.8 lands inside
        // the redo window — by then the restart (0.02) has completed and
        // 0.28 of the redo has been re-executed past the (initial-state)
        // checkpoint, so the second rollback loses exactly those 0.28.
        let mut s = CkptSession::new(
            &fixed_plan(100.0),
            f64::INFINITY,
            &[(0, 0.5), (0, 0.8)],
            1,
            1,
        );
        let extra = s.finish(1.0);
        let stats = s.stats();
        assert_eq!(stats.recoveries, 2);
        // time_lost = (0.02 + 0.5) + (0.02 + 0.28).
        assert!((stats.time_lost_s - 0.82).abs() < 1e-12, "{stats:?}");
        assert!((extra - 0.82).abs() < 1e-12, "{extra}");
    }

    #[test]
    fn crashes_after_the_run_never_fire() {
        let mut s = CkptSession::new(&fixed_plan(10.0), f64::INFINITY, &[(0, 5.0)], 1, 1);
        assert_eq!(s.finish(1.0), 0.0);
        assert_eq!(s.stats().recoveries, 0);
    }

    #[test]
    fn sessions_are_deterministic_and_rank_independent() {
        let crashes = [(1usize, 0.33), (0usize, 0.21), (3usize, 0.21)];
        let run = || {
            let mut s = CkptSession::new(&fixed_plan(0.2), 2.0, &crashes, 2, 2);
            let mut extras = Vec::new();
            let mut total = 0.0;
            for k in 1..=4 {
                let e = s.advance(k as f64 * 0.25 + total);
                total += e;
                extras.push(e);
            }
            extras.push(s.finish(1.25 + total));
            (extras, s.stats())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn efficiency_accounts_useful_time_per_resource() {
        let stats = CkptStats {
            checkpoints: 2,
            recoveries: 1,
            time_lost_s: 0.2,
            ckpt_overhead_s: 0.1,
        };
        // Native: (1.0 - 0.3) / 1.0.
        assert!((stats.efficiency(1.0, 1) - 0.7).abs() < 1e-12);
        // Duplicated resources halve the efficiency.
        assert!((stats.efficiency(1.0, 2) - 0.35).abs() < 1e-12);
        assert_eq!(CkptStats::default().efficiency(0.0, 1), 0.0);
        // Overheads can never push efficiency below zero.
        assert_eq!(stats.efficiency(0.25, 1), 0.0);
    }
}
