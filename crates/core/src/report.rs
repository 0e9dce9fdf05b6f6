//! Per-section and per-run metrics.
//!
//! These reports are what the benchmark harness turns into the paper's
//! figures: the split between local compute time and the time spent finishing
//! update transfers ("intra updates", the dashed area of Figure 5a), the
//! number of bytes shipped between replicas, and the bookkeeping of
//! failure-driven re-executions.

use simcluster::SimTime;

/// Measured cost of one task instance of an executed section.
///
/// `observed_seconds` is the task's execution time in *virtual* seconds: the
/// time the task charges to the virtual clock when it runs (the roofline
/// time of its declared cost on the cluster-wide machine model).  It is
/// recorded for every task of the section — including the ones a peer
/// replica executed — because the value is a pure function of the task and
/// the machine model, identical no matter which replica runs the task (a
/// debug assertion in the section executor checks the actual clock delta of
/// every locally executed task against it).  Every replica therefore
/// observes an identical cost stream, which is what lets the
/// [`crate::cost::CostModel`] — and hence the adaptive scheduler's
/// assignment — stay replica-deterministic without any coordination
/// messages.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskCostSample {
    /// Task name.
    pub name: &'static str,
    /// Occurrence index of the name among same-named tasks of the section
    /// (launch order), so heterogeneous same-named chunks learn independent
    /// histories.  `(name, occurrence)` is the cost-model identity of the
    /// instance ([`crate::cost::CostModel`]).
    pub occurrence: u32,
    /// The declared scheduling weight ([`crate::task::TaskDef::weight`]).
    pub declared_weight: f64,
    /// Execution time in virtual seconds (see the type-level docs).
    pub observed_seconds: f64,
    /// Replica that executed the task (after failure-driven adoption).
    pub executed_by: usize,
    /// True if this replica executed the task itself.
    pub executed_locally: bool,
}

/// Metrics of one executed intra-parallel section.
#[derive(Debug, Clone, PartialEq)]
#[must_use = "a SectionReport carries the section's metrics; dropping it silently loses them"]
pub struct SectionReport {
    /// Index of the section (0-based, per logical process).
    pub section_index: usize,
    /// Number of tasks in the section.
    pub num_tasks: usize,
    /// Tasks executed by this replica (including re-executions).
    pub tasks_executed_locally: usize,
    /// Tasks whose result was received from another replica.
    pub tasks_received: usize,
    /// Tasks re-executed locally because their owner crashed.
    pub tasks_reexecuted: usize,
    /// Modeled bytes of update data sent to other replicas.
    pub update_bytes_sent: usize,
    /// Modeled bytes of update data received from other replicas.
    pub update_bytes_received: usize,
    /// Modeled bytes snapshotted for `inout` arguments.
    pub inout_snapshot_bytes: usize,
    /// Number of peer replicas of this logical process whose crash this
    /// section observed through a failed update receive (the deterministic,
    /// protocol-level notion of an observed failure).
    pub replica_failures_observed: usize,
    /// Virtual time at section entry.
    pub start_time: SimTime,
    /// Virtual time when this replica finished executing its own tasks (and
    /// had posted all its update sends).
    pub local_work_done: SimTime,
    /// Virtual time at section exit (all updates exchanged).
    pub end_time: SimTime,
    /// Per-task measured execution costs (one entry per task, in launch
    /// order).  Fed into the runtime's [`crate::cost::CostModel`] so later
    /// instances of the section can be scheduled from measured rather than
    /// declared weights.
    pub task_costs: Vec<TaskCostSample>,
}

impl SectionReport {
    /// Total virtual time spent in the section.
    pub fn total_time(&self) -> SimTime {
        self.end_time.saturating_sub(self.start_time)
    }

    /// Virtual time spent finishing update transfers after the local work was
    /// done (the dashed "intra updates" part of the Figure 5a bars).
    pub fn update_drain_time(&self) -> SimTime {
        self.end_time.saturating_sub(self.local_work_done)
    }
}

/// Aggregated view over any slice of [`SectionReport`]s: the one place the
/// per-section metrics are summed.  [`RuntimeReport`] is a thin owner over
/// this view, and consumers that aggregate a *sub-range* of sections (the
/// app driver sums only the measured region) borrow the same arithmetic
/// instead of duplicating it.
#[derive(Debug, Clone, Copy)]
pub struct SectionsView<'a> {
    sections: &'a [SectionReport],
}

impl<'a> SectionsView<'a> {
    /// Wraps a slice of section reports.
    pub fn new(sections: &'a [SectionReport]) -> Self {
        SectionsView { sections }
    }

    /// The underlying sections.
    pub fn sections(&self) -> &'a [SectionReport] {
        self.sections
    }

    /// Number of sections in the view.
    pub fn num_sections(&self) -> usize {
        self.sections.len()
    }

    /// Total virtual time spent inside sections.
    pub fn total_section_time(&self) -> SimTime {
        self.sections.iter().map(SectionReport::total_time).sum()
    }

    /// Total virtual time spent draining update transfers.
    pub fn total_update_drain_time(&self) -> SimTime {
        self.sections
            .iter()
            .map(SectionReport::update_drain_time)
            .sum()
    }

    /// Total modeled update bytes sent.
    pub fn total_update_bytes_sent(&self) -> usize {
        self.sections.iter().map(|s| s.update_bytes_sent).sum()
    }

    /// Total tasks executed locally across all sections.
    pub fn total_tasks_executed(&self) -> usize {
        self.sections.iter().map(|s| s.tasks_executed_locally).sum()
    }

    /// Total tasks re-executed after failures.
    pub fn total_tasks_reexecuted(&self) -> usize {
        self.sections.iter().map(|s| s.tasks_reexecuted).sum()
    }

    /// Total tasks whose result was received from a peer replica.
    pub fn total_tasks_received(&self) -> usize {
        self.sections.iter().map(|s| s.tasks_received).sum()
    }

    /// Total replica failures of this logical process observed inside
    /// sections (a crash spanning several sections counts once per section
    /// that observed it).
    pub fn total_replica_failures_observed(&self) -> usize {
        self.sections
            .iter()
            .map(|s| s.replica_failures_observed)
            .sum()
    }
}

/// Accumulated metrics over every section executed by one
/// [`crate::runtime::IntraRuntime`] — a thin owner over [`SectionsView`],
/// which holds the aggregation arithmetic.
#[derive(Debug, Clone, Default)]
pub struct RuntimeReport {
    sections: Vec<SectionReport>,
}

impl RuntimeReport {
    /// Records a section report.
    pub fn push(&mut self, report: SectionReport) {
        self.sections.push(report);
    }

    /// All recorded sections.
    pub fn sections(&self) -> &[SectionReport] {
        &self.sections
    }

    /// The aggregated view over every recorded section.
    pub fn view(&self) -> SectionsView<'_> {
        SectionsView::new(&self.sections)
    }

    /// Number of sections executed.
    pub fn num_sections(&self) -> usize {
        self.sections.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(start: f64, work_done: f64, end: f64) -> SectionReport {
        SectionReport {
            section_index: 0,
            num_tasks: 8,
            tasks_executed_locally: 4,
            tasks_received: 4,
            tasks_reexecuted: 0,
            update_bytes_sent: 100,
            update_bytes_received: 200,
            inout_snapshot_bytes: 0,
            replica_failures_observed: 0,
            start_time: SimTime::from_secs(start),
            local_work_done: SimTime::from_secs(work_done),
            end_time: SimTime::from_secs(end),
            task_costs: vec![
                TaskCostSample {
                    name: "t",
                    occurrence: 0,
                    declared_weight: 1.0,
                    observed_seconds: 0.5,
                    executed_by: 0,
                    executed_locally: true,
                },
                TaskCostSample {
                    name: "t",
                    occurrence: 1,
                    declared_weight: 1.0,
                    observed_seconds: 0.25,
                    executed_by: 1,
                    executed_locally: false,
                },
            ],
        }
    }

    #[test]
    fn section_time_breakdown() {
        let r = report(1.0, 3.0, 4.5);
        assert_eq!(r.total_time().as_secs(), 3.5);
        assert_eq!(r.update_drain_time().as_secs(), 1.5);
        assert_eq!(r.task_costs[1].occurrence, 1);
    }

    #[test]
    fn runtime_report_accumulates() {
        let mut rr = RuntimeReport::default();
        rr.push(report(0.0, 1.0, 2.0));
        rr.push(report(2.0, 2.5, 4.0));
        assert_eq!(rr.num_sections(), 2);
        let view = rr.view();
        assert_eq!(view.total_section_time().as_secs(), 4.0);
        assert_eq!(view.total_update_drain_time().as_secs(), 2.5);
        assert_eq!(view.total_update_bytes_sent(), 200);
        assert_eq!(view.total_tasks_executed(), 8);
        assert_eq!(view.total_tasks_reexecuted(), 0);
        assert_eq!(view.total_tasks_received(), 8);
        assert_eq!(view.total_replica_failures_observed(), 0);
        assert_eq!(rr.sections().len(), 2);
    }

    #[test]
    fn sections_view_aggregates_sub_ranges() {
        // The view is the shared aggregation arithmetic: summing a
        // sub-range (what the app driver's measured region does) must agree
        // with summing the parts.
        let sections = vec![report(0.0, 1.0, 2.0), report(2.0, 2.5, 4.0)];
        let all = SectionsView::new(&sections);
        let tail = SectionsView::new(&sections[1..]);
        assert_eq!(all.num_sections(), 2);
        assert_eq!(tail.num_sections(), 1);
        assert_eq!(tail.total_section_time().as_secs(), 2.0);
        assert_eq!(tail.total_update_drain_time().as_secs(), 1.5);
        assert_eq!(
            all.total_tasks_executed(),
            SectionsView::new(&sections[..1]).total_tasks_executed() + tail.total_tasks_executed()
        );
    }
}
