//! Intra-parallel sections: the work-sharing protocol (Algorithm 1).
//!
//! A [`Section`] collects task instances between `Intra_Section_begin` and
//! `Intra_Section_end`.  When the section ends, the protocol runs:
//!
//! 1. every replica snapshots the `inout` ranges of every task (the extra
//!    copy of Section III-B2 that makes re-execution safe after a partial
//!    update);
//! 2. a deterministic scheduler assigns every task to one replica.  The
//!    assignment is computed over the *full* replica set (dead replicas
//!    included) so that every replica derives exactly the same assignment
//!    locally, with no coordination messages, even when a failure
//!    notification races with section entry.  Tasks assigned to a replica
//!    that is already known to be dead are simply adopted in step 5;
//! 3. each replica executes its own tasks in order, posting non-blocking
//!    sends of every `out`/`inout` range to its peer replicas as each task
//!    completes (so update transfers overlap with the remaining computation,
//!    as in the paper's Open MPI implementation);
//! 4. each replica then receives the updates of the tasks it did not
//!    execute and applies them to its workspace;
//! 5. if the owner of a pending task is detected as crashed (a receive
//!    returns an error, as Algorithm 1 assumes), the task is *re-executed
//!    locally* after restoring the `inout` snapshots — this is the "execute
//!    the task locally" option of the paper's failure case 2 and is always
//!    correct because tasks of one section are only input-dependent;
//! 6. the section completes once every task is done and all posted sends
//!    have drained (`MPI_Waitall` in the paper's implementation).
//!
//! In `Native` and `Replicated` execution modes the same API executes every
//! task locally and ships nothing, which is how the same application code
//! produces the paper's three configurations (Open MPI / SDR-MPI / intra).

use crate::error::{IntraError, IntraResult};
use crate::report::{SectionReport, TaskCostSample};
use crate::runtime::IntraRuntime;
use crate::task::{ArgTag, TaskCtx, TaskDef};
use crate::workspace::Workspace;
use replication::ProtocolPoint;
use simmpi::{MpiError, SendRequest, Tag};
use std::ops::Range;

/// First tag used for update messages on the replica communicator.  The
/// replica communicator carries no other traffic, so this only needs to stay
/// clear of the reserved collective range.
const UPDATE_TAG_BASE: Tag = 1 << 27;
/// Maximum number of tasks per section (tag-encoding limit).
pub const MAX_TASKS_PER_SECTION: usize = 2048;
/// Maximum number of arguments per task (tag-encoding limit).
pub const MAX_ARGS_PER_TASK: usize = 16;

fn update_tag(section: usize, task: usize, arg: usize) -> Tag {
    let window = (section % 512) as u32;
    UPDATE_TAG_BASE
        + window * (MAX_TASKS_PER_SECTION * MAX_ARGS_PER_TASK) as u32
        + (task as u32) * MAX_ARGS_PER_TASK as u32
        + arg as u32
}

/// Splits `0..total` into `parts` contiguous ranges whose lengths differ by
/// at most one (empty ranges are omitted when `total < parts`).
pub fn split_ranges(total: usize, parts: usize) -> Vec<Range<usize>> {
    let parts = parts.max(1);
    let base = total / parts;
    let extra = total % parts;
    let mut out = Vec::with_capacity(parts);
    let mut start = 0;
    for i in 0..parts {
        let len = base + usize::from(i < extra);
        if len == 0 {
            continue;
        }
        out.push(start..start + len);
        start += len;
    }
    out
}

/// An open intra-parallel section.
pub struct Section<'a> {
    rt: &'a mut IntraRuntime,
    ws: &'a mut Workspace,
    tasks: Vec<TaskDef>,
}

impl<'a> Section<'a> {
    pub(crate) fn new(rt: &'a mut IntraRuntime, ws: &'a mut Workspace) -> Self {
        let tasks = Vec::with_capacity(rt.config().tasks_per_section);
        Section { rt, ws, tasks }
    }

    /// Adds a task instance to the section (`Intra_Task_launch`).
    pub fn add_task(&mut self, task: TaskDef) -> IntraResult<()> {
        task.validate(self.ws)?;
        if task.args.len() > MAX_ARGS_PER_TASK {
            return Err(IntraError::InvalidTask(format!(
                "task '{}' has {} arguments (max {MAX_ARGS_PER_TASK})",
                task.name,
                task.args.len()
            )));
        }
        if self.tasks.len() >= MAX_TASKS_PER_SECTION {
            return Err(IntraError::InvalidTask(format!(
                "section already has {MAX_TASKS_PER_SECTION} tasks"
            )));
        }
        self.tasks.push(task);
        Ok(())
    }

    /// Splits the index space `0..total` into the configured number of tasks
    /// per section and adds one task per chunk, built by `make`.
    pub fn add_split<F>(&mut self, total: usize, make: F) -> IntraResult<()>
    where
        F: Fn(Range<usize>) -> TaskDef,
    {
        let parts = self.rt.config().tasks_per_section;
        for chunk in split_ranges(total, parts) {
            self.add_task(make(chunk))?;
        }
        Ok(())
    }

    /// Number of tasks launched so far.
    pub fn num_tasks(&self) -> usize {
        self.tasks.len()
    }

    /// Read access to the workspace (e.g. to compute argument ranges).
    pub fn workspace(&self) -> &Workspace {
        self.ws
    }

    /// Ends the section (`Intra_Section_end`): runs the work-sharing
    /// protocol and returns the section report.
    pub fn end(self) -> IntraResult<SectionReport> {
        let Section { rt, ws, tasks } = self;
        execute_section(rt, ws, &tasks)
    }
}

/// Refills the reused context for `task` from the workspace: scalars and
/// one buffer per argument, each overwritten in place (`clear` +
/// `extend_from_slice`), so nothing is allocated once the buffers have grown
/// to the largest argument seen.  The buffer lists end up exactly as long as
/// the task's `In` and `Out`/`InOut` argument lists.
fn fill_ctx(ctx: &mut TaskCtx, ws: &Workspace, task: &TaskDef) {
    ctx.scalars.clear();
    ctx.scalars.extend_from_slice(&task.scalars);
    let (mut inputs, mut outputs) = (0, 0);
    for arg in &task.args {
        let (bufs, used) = match arg.tag {
            ArgTag::In => (&mut ctx.inputs, &mut inputs),
            ArgTag::Out | ArgTag::InOut => (&mut ctx.outputs, &mut outputs),
        };
        if *used == bufs.len() {
            bufs.push(Vec::new());
        }
        let buf = &mut bufs[*used];
        buf.clear();
        buf.extend_from_slice(&ws.get(arg.var)[arg.range.clone()]);
        *used += 1;
    }
    ctx.inputs.truncate(inputs);
    ctx.outputs.truncate(outputs);
}

/// Writes the output buffers of a finished task back into the workspace.
fn write_back(ws: &mut Workspace, task: &TaskDef, ctx: &TaskCtx) -> IntraResult<()> {
    let outputs = task.args.iter().filter(|arg| arg.tag.is_output());
    for (out_idx, arg) in outputs.enumerate() {
        // A buffer the body removed reads as one resized to nothing.
        let buf = ctx.outputs.get(out_idx).map_or(&[][..], Vec::as_slice);
        if buf.len() != arg.len() {
            return Err(IntraError::InvalidTask(format!(
                "task '{}' resized output argument {} ({} -> {} elements)",
                task.name,
                out_idx,
                arg.len(),
                buf.len()
            )));
        }
        ws.write_range(arg.var, arg.range.clone(), buf);
    }
    Ok(())
}

/// The `inout` snapshots of one work-sharing section (the extra copy of
/// Section III-B2): every `inout` range of every task, back to back in one
/// buffer, in launch order.
struct Snapshots {
    data: Vec<f64>,
    /// Offset in `data` of each task's first `inout` range.
    start: Vec<usize>,
    /// Modeled size of the copy, as charged to the virtual clock.
    modeled_bytes: usize,
}

impl Snapshots {
    /// Copies the `inout` ranges of `tasks` out of the workspace and charges
    /// the copy to the virtual clock.
    fn take(rt: &IntraRuntime, ws: &Workspace, tasks: &[TaskDef]) -> Self {
        let modeled_scale = rt.config().modeled_scale;
        let mut data = Vec::new();
        let mut start = Vec::with_capacity(tasks.len());
        let mut modeled_bytes = 0usize;
        for task in tasks {
            start.push(data.len());
            for arg in task.args.iter().filter(|arg| arg.tag == ArgTag::InOut) {
                data.extend_from_slice(&ws.get(arg.var)[arg.range.clone()]);
                let bytes = (arg.bytes() as f64 * modeled_scale) as usize;
                modeled_bytes += bytes;
                rt.env().proc().charge_memcpy(bytes);
            }
        }
        Snapshots {
            data,
            start,
            modeled_bytes,
        }
    }

    /// Loads the pre-section values of task `i`'s `inout` ranges back into
    /// the workspace ("loading a' into a" in Figure 2c).
    fn restore(&self, ws: &mut Workspace, task: &TaskDef, i: usize) {
        let mut at = self.start[i];
        for arg in task.args.iter().filter(|arg| arg.tag == ArgTag::InOut) {
            ws.write_range(arg.var, arg.range.clone(), &self.data[at..at + arg.len()]);
            at += arg.len();
        }
    }
}

/// Occurrence indices for the tasks of one section, in launch order: the
/// i-th task named `n` gets occurrence `i`.  Launch order is identical on
/// every replica, so the indices are too.  Together with the task name this
/// is the cost-model identity of each instance ([`crate::cost::CostModel`]);
/// no strings are formatted here and none hashed:
/// names are compared pairwise, because sections are small (the paper's have
/// 8 tasks; the largest in this tree, the granularity ablation, 64; never
/// more than [`MAX_TASKS_PER_SECTION`]).
fn occurrence_indices(tasks: &[TaskDef]) -> Vec<u32> {
    tasks
        .iter()
        .enumerate()
        .map(|(i, t)| tasks[..i].iter().filter(|p| p.name == t.name).count() as u32)
        .collect()
}

/// The virtual-time cost of executing `task`, in seconds: exactly what
/// [`run_task`] charges to the clock (the roofline time of the declared
/// cost, or zero for cost-less tasks).
///
/// This is a pure function of the task and the cluster-wide machine model,
/// so every replica computes the same value for every task — including the
/// tasks it did not execute.  The cost model is fed from these values (see
/// [`TaskCostSample`]) precisely because the stream must be identical on all
/// replicas: the next section's assignment is derived from it without any
/// coordination messages.  A debug assertion in the execution loop checks
/// that the actual clock delta of each locally executed task agrees.
fn modeled_task_seconds(rt: &IntraRuntime, task: &TaskDef) -> f64 {
    task.cost.map_or(0.0, |cost| {
        rt.env()
            .proc()
            .machine()
            .compute
            .region_time(cost.flops, cost.mem_bytes)
            .as_secs()
    })
}

/// Executes one task locally: refill the context, charge the modeled cost,
/// run the body, write the outputs back.
fn run_task(
    rt: &IntraRuntime,
    ws: &mut Workspace,
    task: &TaskDef,
    ctx: &mut TaskCtx,
) -> IntraResult<()> {
    fill_ctx(ctx, ws, task);
    if let Some(cost) = task.cost {
        rt.env().charge_compute(cost.flops, cost.mem_bytes);
    }
    (task.func)(ctx);
    write_back(ws, task, ctx)
}

fn execute_section(
    rt: &mut IntraRuntime,
    ws: &mut Workspace,
    tasks: &[TaskDef],
) -> IntraResult<SectionReport> {
    let section = rt.next_section_index();
    // The runtime's one task context is lent to the section and handed back
    // whatever the outcome, so its buffers serve every later section.
    let mut ctx = rt.take_task_ctx();
    let result = run_protocol(rt, ws, tasks, section, &mut ctx);
    rt.put_task_ctx(ctx);
    match result {
        Ok(report) => {
            rt.record(&report);
            Ok(report)
        }
        Err(e) => {
            // A replica that cannot complete the section protocol (bad task
            // definition, unexpected MPI error, …) can no longer stay
            // consistent with its peers; converting the local error into a
            // crash-stop failure lets the surviving replicas detect it and
            // re-execute the affected tasks instead of blocking on updates
            // that will never arrive.
            if e != IntraError::Crashed && !rt.env().is_failed() {
                rt.env().proc().fail_here();
            }
            Err(e)
        }
    }
}

fn run_protocol(
    rt: &IntraRuntime,
    ws: &mut Workspace,
    tasks: &[TaskDef],
    section: usize,
    ctx: &mut TaskCtx,
) -> IntraResult<SectionReport> {
    let start_time = rt.env().now();

    if rt.env().maybe_fail(ProtocolPoint::SectionEnter { section }) {
        return Err(IntraError::Crashed);
    }
    if rt.env().is_failed() {
        return Err(IntraError::Crashed);
    }

    let rcomm = rt.env().rcomm();
    let share = rt.env().mode().shares_work() && rcomm.degree() > 1;
    let n = tasks.len();
    let occurrences = occurrence_indices(tasks);

    // --- non-sharing modes: execute everything locally -----------------
    if !share {
        let my_replica = rt.env().replica_id();
        let mut task_costs = Vec::with_capacity(n);
        for (task, occurrence) in tasks.iter().zip(occurrences) {
            run_task(rt, ws, task, ctx)?;
            task_costs.push(TaskCostSample {
                name: task.name,
                occurrence,
                declared_weight: task.weight(),
                observed_seconds: modeled_task_seconds(rt, task),
                executed_by: my_replica,
                executed_locally: true,
            });
        }
        let end = rt.env().now();
        if rt.env().maybe_fail(ProtocolPoint::SectionExit { section }) {
            return Err(IntraError::Crashed);
        }
        return Ok(SectionReport {
            section_index: section,
            num_tasks: n,
            tasks_executed_locally: n,
            tasks_received: 0,
            tasks_reexecuted: 0,
            update_bytes_sent: 0,
            update_bytes_received: 0,
            inout_snapshot_bytes: 0,
            replica_failures_observed: 0,
            start_time,
            local_work_done: end,
            end_time: end,
            task_costs,
        });
    }

    // --- work-sharing protocol ------------------------------------------
    let modeled_scale = rt.config().modeled_scale;
    let snapshots = Snapshots::take(rt, ws, tasks);
    let rc = rcomm.replica_comm();
    let my = rcomm.replica_id();

    // Scheduling is a pure function of the task weights and the *full*
    // replica set, never of the (racy) alive set: every replica therefore
    // computes the same assignment without exchanging messages.  Work lost
    // to crashed replicas is recovered by adoption in Phase B.
    //
    // Schedulers that ask for measured weights receive the cost model's
    // learned execution times instead of the declared weights; the model is
    // itself replica-deterministic (see `modeled_task_seconds`), so the
    // no-coordination property is preserved.
    let all_replicas: Vec<usize> = (0..rcomm.degree()).collect();
    let declared_weights: Vec<f64> = tasks.iter().map(TaskDef::weight).collect();
    let measured_weights: Vec<f64>;
    let weights: &[f64] = if rt.config().scheduler.wants_measured_weights() {
        // Read-only lookups: a task with no history keeps its declared
        // weight.
        let model = rt.cost_model();
        measured_weights = tasks
            .iter()
            .zip(&occurrences)
            .zip(&declared_weights)
            .map(|((t, &occ), &d)| model.effective_weight(t.name, occ, d))
            .collect();
        &measured_weights
    } else {
        &declared_weights
    };
    let mut assignment = rt.config().scheduler.assign(weights, &all_replicas);
    debug_assert_eq!(assignment.len(), n);
    // Per-task observed costs: the deterministic modeled time of every task
    // (identical on each replica, whoever executes it).
    let observed_seconds: Vec<f64> = tasks.iter().map(|t| modeled_task_seconds(rt, t)).collect();

    let mut done = vec![false; n];
    // Peer replicas whose crash this section observed through a failed
    // update receive (the deterministic, protocol-level notion of an
    // observed failure).
    let mut dead_owners = std::collections::BTreeSet::new();
    let mut send_reqs: Vec<SendRequest> = Vec::new();
    let mut update_bytes_sent = 0usize;
    let mut update_bytes_received = 0usize;
    let mut tasks_local = 0usize;
    let mut tasks_received = 0usize;
    let mut tasks_reexecuted = 0usize;

    // Sends the updates of task `i` to every peer replica, serialized
    // straight from the workspace.  Crashed peers are served too — the
    // sender has no failure detector, so consulting the (real-time-racy)
    // failure board here would make the charged send time depend on thread
    // scheduling; the network drops copies addressed to crashed replicas.
    let send_updates = |ws: &Workspace,
                        i: usize,
                        send_reqs: &mut Vec<SendRequest>,
                        update_bytes_sent: &mut usize|
     -> IntraResult<()> {
        let mut vars_sent = 0usize;
        for (ai, arg) in tasks[i].args.iter().enumerate() {
            if !arg.tag.is_output() {
                continue;
            }
            let data = &ws.get(arg.var)[arg.range.clone()];
            let modeled = (arg.bytes() as f64 * modeled_scale) as usize;
            for peer in 0..rcomm.degree() {
                if peer == my {
                    continue;
                }
                let tag = update_tag(section, i, ai);
                let req = rc.isend_with_modeled_size(data, peer, tag, modeled)?;
                send_reqs.push(req);
                *update_bytes_sent += modeled;
            }
            vars_sent += 1;
            if rt.env().maybe_fail(ProtocolPoint::MidUpdateSend {
                section,
                task: i,
                vars_sent,
            }) {
                return Err(IntraError::Crashed);
            }
        }
        if rt
            .env()
            .maybe_fail(ProtocolPoint::AfterUpdateSend { section, task: i })
        {
            return Err(IntraError::Crashed);
        }
        Ok(())
    };

    // Phase A: execute my tasks, overlapping update sends with the remaining
    // computation.
    for i in 0..n {
        if assignment[i] != my {
            continue;
        }
        let task_started = rt.env().now();
        snapshots.restore(ws, &tasks[i], i);
        run_task(rt, ws, &tasks[i], ctx)?;
        // The clock delta of a locally executed task must agree with the
        // modeled time fed to the cost model (the determinism contract).
        debug_assert!(
            (rt.env().now().saturating_sub(task_started).as_secs() - observed_seconds[i]).abs()
                <= 1e-9 * observed_seconds[i].max(1.0),
            "task '{}' charged a different time than its model",
            tasks[i].name
        );
        tasks_local += 1;
        done[i] = true;
        if rt
            .env()
            .maybe_fail(ProtocolPoint::BeforeUpdateSend { section, task: i })
        {
            return Err(IntraError::Crashed);
        }
        send_updates(ws, i, &mut send_reqs, &mut update_bytes_sent)?;
    }
    let local_work_done = rt.env().now();

    // Phase B: collect (or recompute) the remaining tasks.
    for i in 0..n {
        if done[i] {
            continue;
        }
        let owner = assignment[i];
        // Always try to receive first, even when the owner is already known
        // to be dead: updates it sent before crashing are still deliverable
        // (the paper's failure case 2 — "get the update from the replicas
        // that already got it" degenerates to draining the channel here), and
        // the receive returns an error immediately if nothing was sent.
        let mut adopt = owner == my;
        if !adopt {
            // Receive every output argument of the task from its owner,
            // straight from the payload into the workspace.
            let mut receive_failed = false;
            for (ai, arg) in tasks[i].args.iter().enumerate() {
                if !arg.tag.is_output() {
                    continue;
                }
                let tag = update_tag(section, i, ai);
                match rc.recv_payload(owner, tag) {
                    Ok(payload) => {
                        if payload.len() != arg.bytes() {
                            return Err(IntraError::InvalidTask(format!(
                                "update for task '{}' arg {ai} has {} bytes, expected {}",
                                tasks[i].name,
                                payload.len(),
                                arg.bytes()
                            )));
                        }
                        let dst = &mut ws.get_mut(arg.var)[arg.range.clone()];
                        simmpi::datatype::copy_into(&payload, dst)?;
                        update_bytes_received += (arg.bytes() as f64 * modeled_scale) as usize;
                    }
                    Err(MpiError::ProcessFailed { .. }) => {
                        // Owner crashed before completing this update: adopt
                        // the task (failure cases 1 and 3 of Section III-B2).
                        dead_owners.insert(owner);
                        receive_failed = true;
                        break;
                    }
                    Err(MpiError::SelfFailed) => return Err(IntraError::Crashed),
                    Err(e) => return Err(e.into()),
                }
            }
            if !receive_failed {
                done[i] = true;
                tasks_received += 1;
                continue;
            }
            adopt = true;
        }
        if adopt {
            assignment[i] = my;
            // Re-execute locally, from the restored inout snapshots, so a
            // partial update applied above cannot create the true-dependence
            // problem of Figure 2b.
            snapshots.restore(ws, &tasks[i], i);
            run_task(rt, ws, &tasks[i], ctx)?;
            tasks_local += 1;
            tasks_reexecuted += 1;
            done[i] = true;
        }
    }

    // Drain the posted update sends (MPI_Waitall in the paper's prototype).
    rc.waitall_send(send_reqs)?;
    let end_time = rt.env().now();

    if rt.env().maybe_fail(ProtocolPoint::SectionExit { section }) {
        return Err(IntraError::Crashed);
    }

    let task_costs: Vec<TaskCostSample> = tasks
        .iter()
        .zip(occurrences)
        .enumerate()
        .map(|(i, (t, occurrence))| TaskCostSample {
            name: t.name,
            occurrence,
            declared_weight: declared_weights[i],
            observed_seconds: observed_seconds[i],
            executed_by: assignment[i],
            executed_locally: assignment[i] == my,
        })
        .collect();

    Ok(SectionReport {
        section_index: section,
        num_tasks: n,
        tasks_executed_locally: tasks_local,
        tasks_received,
        tasks_reexecuted,
        update_bytes_sent,
        update_bytes_received,
        inout_snapshot_bytes: snapshots.modeled_bytes,
        replica_failures_observed: dead_owners.len(),
        start_time,
        local_work_done,
        end_time,
        task_costs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_ranges_cover_the_index_space() {
        let ranges = split_ranges(10, 3);
        assert_eq!(ranges, vec![0..4, 4..7, 7..10]);
        let ranges = split_ranges(8, 8);
        assert_eq!(ranges.len(), 8);
        assert!(ranges.iter().all(|r| r.len() == 1));
        // Fewer elements than parts: empty chunks are dropped.
        let ranges = split_ranges(3, 8);
        assert_eq!(ranges.len(), 3);
        assert!(split_ranges(0, 4).is_empty());
        // parts == 0 is clamped to 1.
        assert_eq!(split_ranges(5, 0), vec![0..5]);
    }

    #[test]
    fn update_tags_are_unique_within_a_section() {
        let mut seen = std::collections::HashSet::new();
        for task in 0..32 {
            for arg in 0..MAX_ARGS_PER_TASK {
                assert!(seen.insert(update_tag(3, task, arg)));
            }
        }
        // Different sections (within the window) do not collide either.
        assert_ne!(update_tag(1, 0, 0), update_tag(2, 0, 0));
    }
}
