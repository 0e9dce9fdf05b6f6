//! Common plumbing for running a mini-application on one physical process.
//!
//! Every application is written once and runs in the paper's three
//! configurations (native / replicated / intra) by switching the
//! [`ExecutionMode`]: intra-parallel sections degrade gracefully to local
//! execution when work is not shared, and kernels that are *not*
//! intra-parallelized are executed redundantly on every replica through
//! `AppContext::run_redundant`.

use crate::report::AppRunReport;
use ckpt::{CkptSession, CkptStats};
use ipr_core::{IntraConfig, IntraError, IntraResult, IntraRuntime, TaskCost, VarId, Workspace};
use kernels::KernelCost;
use replication::{ExecutionMode, FailureInjector, ProtocolPoint, ReplicatedEnv};
use simcluster::SimTime;
use simmpi::{MpiResult, ProcHandle};

/// Converts a kernel cost descriptor into the task cost charged by the
/// intra-parallelization runtime.
pub fn task_cost(cost: KernelCost) -> TaskCost {
    TaskCost::new(cost.flops, cost.mem_bytes())
}

/// Copies `src[..n]` over `dst[..n]` between two distinct workspace variables
/// without an intermediate vector.
pub(crate) fn copy_var(ws: &mut Workspace, n: usize, src: VarId, dst: VarId) {
    let mut d = ws.take(dst);
    d[..n].copy_from_slice(&ws.get(src)[..n]);
    ws.replace(dst, d);
}

/// Per-process context shared by all the mini-applications.
pub struct AppContext {
    /// The replication environment (communicators, failure injection).
    pub env: ReplicatedEnv,
    /// The intra-parallelization runtime.
    pub rt: IntraRuntime,
    /// Virtual time at which the measured region started.
    start: SimTime,
    /// The coordinated checkpoint/restart session, when the experiment has
    /// a checkpoint plan.  Every rank holds its own copy built from the
    /// same inputs, advanced with allreduce-synchronized timestamps, so
    /// the sessions stay in lock-step.
    ckpt: Option<CkptSession>,
}

impl AppContext {
    /// Builds the context for this physical process.  Collective: every
    /// process of the cluster must call it with the same mode and intra
    /// configuration.
    pub fn new(
        proc: ProcHandle,
        mode: ExecutionMode,
        intra: IntraConfig,
        injector: FailureInjector,
    ) -> MpiResult<Self> {
        let env = ReplicatedEnv::new(proc, mode, injector)?;
        let rt = IntraRuntime::new(env.clone(), intra);
        let start = env.now();
        Ok(AppContext {
            env,
            rt,
            start,
            ckpt: None,
        })
    }

    /// Convenience constructor without failure injection.
    pub fn without_failures(
        proc: ProcHandle,
        mode: ExecutionMode,
        intra: IntraConfig,
    ) -> MpiResult<Self> {
        Self::new(proc, mode, intra, FailureInjector::none())
    }

    /// Attaches a coordinated checkpoint/restart session.  Collective in
    /// spirit: every rank of the run must attach a session built from the
    /// same inputs, or none at all.
    pub fn set_checkpointing(&mut self, session: CkptSession) {
        self.ckpt = Some(session);
    }

    /// The coordinated protocol point applications place at iteration
    /// boundaries: checks the timed/hand-placed failure injector exactly
    /// like the former inline `maybe_fail` blocks, then (when a C/R
    /// session is attached) runs the checkpoint protocol.  Behaviourally
    /// identical to the plain `maybe_fail` check when no session is set.
    pub(crate) fn iteration_boundary(&mut self, iteration: usize) -> IntraResult<()> {
        if self
            .env
            .maybe_fail(ProtocolPoint::IterationStart { iteration })
        {
            return Err(IntraError::Crashed);
        }
        self.checkpoint_boundary()
    }

    /// A C/R-only coordinated protocol point (no failure-injection check):
    /// synchronizes the rank clocks with an allreduce, advances the
    /// session, and charges the identical extra virtual time (restarts,
    /// re-executed work, a committed checkpoint) on every rank.  A no-op
    /// without an attached session.
    pub(crate) fn checkpoint_boundary(&mut self) -> IntraResult<()> {
        let Some(session) = self.ckpt.as_mut() else {
            return Ok(());
        };
        let synced = self
            .env
            .proc()
            .world()
            .allreduce_max_f64(self.env.now().as_secs())?;
        let extra = session.advance(synced);
        if extra > 0.0 {
            self.env.proc().charge_other(SimTime::from_secs(extra));
        }
        Ok(())
    }

    /// The final coordinated point at the end of the run: replays any
    /// crash events the last segment overlaps (committing no trailing
    /// checkpoint) and returns the session's accounting.  `None` without
    /// an attached session.
    pub fn finish_checkpointing(&mut self) -> IntraResult<Option<CkptStats>> {
        let Some(session) = self.ckpt.as_mut() else {
            return Ok(None);
        };
        let synced = self
            .env
            .proc()
            .world()
            .allreduce_max_f64(self.env.now().as_secs())?;
        let extra = session.finish(synced);
        if extra > 0.0 {
            self.env.proc().charge_other(SimTime::from_secs(extra));
        }
        Ok(Some(session.stats()))
    }

    /// Marks the beginning of the measured region (e.g. after problem
    /// setup): restarts the clock mark and the runtime's section totals.
    pub fn start_measurement(&mut self) {
        self.start = self.env.now();
        self.rt.take_totals();
    }

    /// Executes a kernel redundantly on every replica (no work sharing),
    /// charging its modeled cost.  This is how the applications run the
    /// kernels that are *not* intra-parallelized.
    pub(crate) fn run_redundant<R>(&self, cost: KernelCost, f: impl FnOnce() -> R) -> R {
        self.env.charge_compute(cost.flops, cost.mem_bytes());
        f()
    }

    /// Charges communication-free "other" work (e.g. problem setup phases
    /// that are modeled but not executed).
    pub(crate) fn charge_other(&self, cost: KernelCost) {
        self.env.charge_compute(cost.flops, cost.mem_bytes());
    }

    /// Builds the per-process report for the measured region.  The report
    /// carries measurements only — the configuration axes (app name, mode,
    /// scheduler) are known to the caller that configured the run.
    pub fn finish(&self, iterations: usize, verification: f64) -> AppRunReport {
        AppRunReport {
            logical_rank: self.env.logical_rank(),
            replica_id: self.env.replica_id(),
            iterations,
            total_time: self.env.now().saturating_sub(self.start),
            sections: self.rt.totals(),
            verification,
        }
    }
}

/// Parameters shared by the applications to describe the scale gap between
/// the arrays actually allocated and the paper-scale problem being modeled.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScaledWorkload {
    /// Number of elements (grid points, particles, …) actually allocated per
    /// logical process.
    pub actual: usize,
    /// Number of elements of the modeled, paper-scale problem per logical
    /// process.
    pub modeled: usize,
}

impl ScaledWorkload {
    /// A workload running on `actual` elements while modeling `modeled`:
    /// `actual` must be positive and `modeled` at least as large.
    pub(crate) fn scaled(actual: usize, modeled: usize) -> IntraResult<Self> {
        if actual == 0 || modeled < actual {
            return Err(IntraError::InvalidConfig(format!(
                "a scaled workload needs 0 < actual <= modeled, got actual {actual}, modeled {modeled}"
            )));
        }
        Ok(ScaledWorkload { actual, modeled })
    }

    /// The ratio modeled / actual, used as the `modeled_scale` of the intra
    /// runtime and for scaling halo-exchange message sizes.
    pub(crate) fn scale(&self) -> f64 {
        self.modeled as f64 / self.actual as f64
    }

    /// Scales an element count from actual to modeled size.
    pub(crate) fn scale_count(&self, actual_count: usize) -> usize {
        (actual_count as f64 * self.scale()).round() as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaled_workload_ratios() {
        let w = ScaledWorkload::scaled(1000, 1000).unwrap();
        assert_eq!(w.scale(), 1.0);
        let w = ScaledWorkload::scaled(1000, 8000).unwrap();
        assert_eq!(w.scale(), 8.0);
        assert_eq!(w.scale_count(10), 80);
    }

    #[test]
    fn modeled_smaller_than_actual_is_rejected() {
        assert!(ScaledWorkload::scaled(100, 10).is_err());
        assert!(ScaledWorkload::scaled(0, 10).is_err());
    }

    #[test]
    fn task_cost_conversion_keeps_flops_and_traffic() {
        let c = KernelCost::new(10.0, 100.0, 50.0, 8.0);
        let t = task_cost(c);
        assert_eq!(t.flops, 10.0);
        assert_eq!(t.mem_bytes, 150.0);
    }
}
