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

/// What the sections of a run add up to: the additive quantities of
/// [`SectionReport`], summed as each section ends.  The one place a
/// section's metrics are totalled: [`crate::runtime::IntraRuntime`] keeps
/// one, the app driver copies it into its per-process report, and the
/// experiment facade's run report sums those over ranks.
///
/// Times are summed from zero in section order, so a total is bit-identical
/// to folding the sections' own times; a region's totals are taken by
/// zeroing them at its start ([`crate::runtime::IntraRuntime::take_totals`]),
/// never by subtracting two totals.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SectionTotals {
    /// Number of sections.
    pub count: usize,
    /// Virtual time spent inside the sections.
    pub section_time: SimTime,
    /// Virtual time spent draining update transfers after the local work
    /// (part of `section_time`; the dashed area of Figure 5a).
    pub update_drain_time: SimTime,
    /// Tasks executed locally, re-executions included.
    pub tasks_executed: usize,
    /// Tasks whose result was received from a peer replica.
    pub tasks_received: usize,
    /// Tasks re-executed because their owner crashed.
    pub tasks_reexecuted: usize,
    /// Peer replica failures observed (a crash spanning several sections
    /// counts once per section that observed it).
    pub replica_failures_observed: usize,
    /// Modeled bytes of update data sent to other replicas.
    pub update_bytes_sent: usize,
    /// Modeled bytes snapshotted for `inout` arguments.
    pub inout_snapshot_bytes: usize,
}

impl SectionTotals {
    /// Adds one finished section.
    pub(crate) fn add(&mut self, section: &SectionReport) {
        self.count += 1;
        self.section_time += section.total_time();
        self.update_drain_time += section.update_drain_time();
        self.tasks_executed += section.tasks_executed_locally;
        self.tasks_received += section.tasks_received;
        self.tasks_reexecuted += section.tasks_reexecuted;
        self.replica_failures_observed += section.replica_failures_observed;
        self.update_bytes_sent += section.update_bytes_sent;
        self.inout_snapshot_bytes += section.inout_snapshot_bytes;
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
    fn totals_accumulate_every_additive_field() {
        let mut totals = SectionTotals::default();
        totals.add(&report(0.0, 1.0, 2.0));
        totals.add(&report(2.0, 2.5, 4.0));
        assert_eq!(
            totals,
            SectionTotals {
                count: 2,
                section_time: SimTime::from_secs(4.0),
                update_drain_time: SimTime::from_secs(2.5),
                tasks_executed: 8,
                tasks_received: 8,
                tasks_reexecuted: 0,
                replica_failures_observed: 0,
                update_bytes_sent: 200,
                inout_snapshot_bytes: 0,
            }
        );
    }

    #[test]
    fn totals_of_a_sub_range_add_up_bit_for_bit() {
        // A measured region zeroes the totals at its start, so its totals
        // are those of its own sections: the parts add up to the whole, and
        // a summed time has the bits of the sections' times folded from
        // zero in order.
        let totals = |sections: &[SectionReport]| {
            let mut totals = SectionTotals::default();
            sections.iter().for_each(|s| totals.add(s));
            totals
        };
        let sections = [report(0.0, 1.0, 2.0), report(2.0, 2.5, 4.0)];
        let (all, head, tail) = (
            totals(&sections),
            totals(&sections[..1]),
            totals(&sections[1..]),
        );
        assert_eq!((all.count, tail.count), (2, 1));
        assert_eq!(tail.section_time.as_secs(), 2.0);
        assert_eq!(tail.update_drain_time.as_secs(), 1.5);
        assert_eq!(
            all.tasks_executed,
            head.tasks_executed + tail.tasks_executed
        );

        let uneven = [
            report(0.0, 0.1, 0.3),
            report(0.3, 0.7, 1.1),
            report(1.1, 1.2, 1.7),
        ];
        let summed = totals(&uneven);
        let folded = |f: fn(&SectionReport) -> SimTime| {
            let sum: SimTime = uneven.iter().map(f).sum();
            sum.as_secs().to_bits()
        };
        assert_eq!(
            summed.section_time.as_secs().to_bits(),
            folded(SectionReport::total_time)
        );
        assert_eq!(
            summed.update_drain_time.as_secs().to_bits(),
            folded(SectionReport::update_drain_time)
        );
    }
}
