//! The intra-parallelization runtime owned by one physical process.

use crate::cost::CostModel;
use crate::report::RuntimeReport;
use crate::sched::SchedulerKind;
use crate::section::Section;
use crate::task::TaskCtx;
use crate::workspace::Workspace;
use replication::ReplicatedEnv;

/// Configuration of the intra-parallelization runtime.
#[derive(Debug, Clone)]
#[must_use = "IntraConfig is a builder: apply it to an IntraRuntime (or pass it on) to take effect"]
pub struct IntraConfig {
    /// Default number of tasks per section used by the convenience helpers
    /// that split a kernel automatically (`Section::add_split_task`, the
    /// paper-style API).  The paper uses 8 tasks per section (4 per replica)
    /// for all its experiments.
    pub tasks_per_section: usize,
    /// Scale factor applied to update sizes and `inout` snapshot sizes when
    /// charging the network/memory model.  Used by paper-scale experiments
    /// that run the protocol on reduced actual arrays (see `docs/ARCHITECTURE.md`); 1.0
    /// means "charge exactly what is really transferred".
    pub modeled_scale: f64,
    /// Scheduler deciding which replica executes which task.
    pub scheduler: SchedulerKind,
}

impl Default for IntraConfig {
    fn default() -> Self {
        IntraConfig {
            tasks_per_section: 8,
            modeled_scale: 1.0,
            scheduler: SchedulerKind::StaticBlock,
        }
    }
}

impl IntraConfig {
    /// The paper's configuration: 8 tasks per section, static block
    /// scheduling.
    pub fn paper() -> Self {
        Self::default()
    }

    /// Sets the number of tasks per section.
    pub fn with_tasks_per_section(mut self, n: usize) -> Self {
        self.tasks_per_section = n.max(1);
        self
    }

    /// Sets the modeled-size scale factor.
    pub fn with_modeled_scale(mut self, scale: f64) -> Self {
        self.modeled_scale = if scale.is_finite() && scale > 0.0 {
            scale
        } else {
            1.0
        };
        self
    }

    /// Sets the scheduler — the scheduler-selection knob of the `Experiment`
    /// builder, the app drivers and the bench harness.  Infallible: an
    /// invalid scheduler cannot be expressed.
    ///
    /// ```
    /// use ipr_core::{IntraConfig, SchedulerKind};
    ///
    /// let config = IntraConfig::paper().with_scheduler_kind(SchedulerKind::Adaptive);
    /// assert_eq!(config.scheduler.name(), "adaptive");
    /// ```
    pub fn with_scheduler_kind(mut self, kind: SchedulerKind) -> Self {
        self.scheduler = kind;
        self
    }
}

/// The per-physical-process intra-parallelization runtime.
///
/// One `IntraRuntime` is created per physical process (replica).  It hands
/// out [`Section`]s, executes the work-sharing protocol when a section ends,
/// and accumulates per-section metrics.
pub struct IntraRuntime {
    env: ReplicatedEnv,
    config: IntraConfig,
    section_count: usize,
    report: RuntimeReport,
    cost_model: CostModel,
    /// The one task context of this process: every section borrows it and
    /// refills its buffers for each task it executes.
    task_ctx: TaskCtx,
}

impl IntraRuntime {
    /// Creates the runtime for this physical process.
    pub fn new(env: ReplicatedEnv, config: IntraConfig) -> Self {
        IntraRuntime {
            env,
            config,
            section_count: 0,
            report: RuntimeReport::default(),
            cost_model: CostModel::default(),
            task_ctx: TaskCtx::default(),
        }
    }

    /// The replication environment of this process.
    pub fn env(&self) -> &ReplicatedEnv {
        &self.env
    }

    /// The runtime configuration.
    pub fn config(&self) -> &IntraConfig {
        &self.config
    }

    /// Opens a new intra-parallel section over `workspace`
    /// (`Intra_Section_begin` in the paper's API).
    pub fn section<'a>(&'a mut self, workspace: &'a mut Workspace) -> Section<'a> {
        Section::new(self, workspace)
    }

    /// Number of sections executed so far.
    pub fn sections_executed(&self) -> usize {
        self.section_count
    }

    /// Accumulated per-section metrics.
    pub fn report(&self) -> &RuntimeReport {
        &self.report
    }

    /// The measured-cost history learned from the sections executed so far.
    ///
    /// Keyed by task instance, `(name, occurrence)`; fed one observation per
    /// task of every recorded section (see [`crate::report::TaskCostSample`]
    /// for why the stream is identical on every replica).
    pub fn cost_model(&self) -> &CostModel {
        &self.cost_model
    }

    pub(crate) fn next_section_index(&mut self) -> usize {
        let idx = self.section_count;
        self.section_count += 1;
        idx
    }

    pub(crate) fn take_task_ctx(&mut self) -> TaskCtx {
        std::mem::take(&mut self.task_ctx)
    }

    pub(crate) fn put_task_ctx(&mut self, ctx: TaskCtx) {
        self.task_ctx = ctx;
    }

    pub(crate) fn record(&mut self, report: &crate::report::SectionReport) {
        // Fold the section's per-task costs into the EMA history, in task
        // order (the order is part of the replica-determinism contract —
        // including the first-sighting order of interned names).
        for sample in &report.task_costs {
            self.cost_model
                .observe(sample.name, sample.occurrence, sample.observed_seconds);
        }
        // The one per-section copy: `Section::end` returns the report by
        // value and `IntraRuntime::report` keeps every section's.
        self.report.push(report.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_matches_the_paper() {
        let c = IntraConfig::paper();
        assert_eq!(c.tasks_per_section, 8);
        assert_eq!(c.modeled_scale, 1.0);
        assert_eq!(c.scheduler.name(), "static-block");
    }

    #[test]
    fn scheduler_kind_builder_sets_every_builtin() {
        for kind in SchedulerKind::ALL {
            let c = IntraConfig::paper().with_scheduler_kind(kind);
            assert_eq!(c.scheduler.name(), kind.name());
        }
    }

    #[test]
    fn builders_clamp_invalid_values() {
        let c = IntraConfig::default()
            .with_tasks_per_section(0)
            .with_modeled_scale(-3.0);
        assert_eq!(c.tasks_per_section, 1);
        assert_eq!(c.modeled_scale, 1.0);
        let c = c.with_modeled_scale(64.0);
        assert_eq!(c.modeled_scale, 64.0);
    }

    #[test]
    fn debug_impl_shows_scheduler_name() {
        let c = IntraConfig::default();
        assert!(format!("{c:?}").contains("StaticBlock"));
    }
}
