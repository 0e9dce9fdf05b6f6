//! Allocation budget of the section path.
//!
//! The paper's protocol mandates one copy per section (the `inout` snapshot
//! of Section III-B2).  Everything else a section does on the host — the
//! task context, bookkeeping, reports — is supposed to cost a constant
//! number of allocations per section and nothing per *executed* task: the
//! runtime refills one reused `TaskCtx`, ships updates straight from the
//! workspace and writes received ones straight into it.  What remains per
//! task is what the caller builds to *launch* it (its argument `Vec`, its
//! body `Arc`).
//!
//! The section is the one the benchmark's `ipr-core.section_us` times:
//! 8 tasks × `[in, out]` over one vector.  Iterations 2–201 are measured as
//! the difference between a 201-section and a 1-section run, so cluster
//! set-up, thread spawn and first-use growth cancel.
//!
//! One `#[test]` only: the counters are process-wide, and a second test
//! running on a sibling thread would leak into the window.

use ipr_core::prelude::*;
use replication::{ExecutionMode, ReplicatedEnv};
use simcluster::SimTime;
use simmpi::{run_cluster, ClusterConfig};

#[global_allocator]
static ALLOC: alloc_counter::CountingAllocator = alloc_counter::CountingAllocator;

const TASKS: usize = 8;
const N: usize = 4_096;
const EXTRA_SECTIONS: usize = 200;
/// Allocations one launched task costs: its argument `Vec` and its body
/// `Arc`, both built by the caller.  No slack: executing the task adds none.
const PER_TASK_LAUNCHED: u64 = 2;
/// Allocations one shipped update costs in the fabric (measured: the payload
/// and its queueing); each replica ships one per task it executed.
const PER_UPDATE_SHIPPED: u64 = 3;

/// Allocations one section may cost on top, whatever its task count: the
/// task list, the occurrence / weight / assignment vectors and the report
/// (the runtime adds it into its totals without a copy), plus, when work is
/// shared, the observed-cost / done / snapshot-offset vectors and the
/// posted-send list.  Measured 4 and 11 (a whole run of 200 sections: 4 000
/// allocations native, 15 602 on the two replicas, the same on every run).
/// Only the sharing budget has slack, one allocation for the amortized
/// growth of the mailbox lanes (2 in the 400 replica-sections measured): a
/// native section ships nothing, and nothing else grows.
fn per_section(mode: ExecutionMode) -> u64 {
    if mode.shares_work() {
        12
    } else {
        4
    }
}

/// The report every section of a failure-free run on the ideal (zero-cost)
/// machine must return on `replica`: the parent commit's semantics, spelled
/// out field by field.
fn expected_report(mode: ExecutionMode, replica: usize, n: usize) -> SectionReport {
    let shared = mode.shares_work();
    let chunk_bytes = n / TASKS * std::mem::size_of::<f64>();
    let shipped = if shared { TASKS / 2 * chunk_bytes } else { 0 };
    SectionReport {
        section_index: 0,
        num_tasks: TASKS,
        tasks_executed_locally: if shared { TASKS / 2 } else { TASKS },
        tasks_received: if shared { TASKS / 2 } else { 0 },
        tasks_reexecuted: 0,
        update_bytes_sent: shipped,
        update_bytes_received: shipped,
        inout_snapshot_bytes: 0,
        replica_failures_observed: 0,
        start_time: SimTime::ZERO,
        local_work_done: SimTime::ZERO,
        end_time: SimTime::ZERO,
        task_costs: (0..TASKS)
            .map(|t| {
                // Static block scheduling: the first half to replica 0.
                let owner = if shared { t / (TASKS / 2) } else { replica };
                TaskCostSample {
                    name: "scale",
                    occurrence: t as u32,
                    declared_weight: chunk_bytes as f64,
                    observed_seconds: 0.0,
                    executed_by: owner,
                    executed_locally: owner == replica,
                }
            })
            .collect(),
    }
}

/// Runs `sections` sections of `w = 2 x` over `n` elements on every rank,
/// checks each returned report and the final workspace against the
/// sequential reference, and returns what the whole run allocated.
fn run(mode: ExecutionMode, n: usize, sections: usize) -> alloc_counter::Stats {
    let procs = mode.degree();
    let before = alloc_counter::snapshot();
    let report = run_cluster(&ClusterConfig::ideal(procs), move |proc| {
        let env = ReplicatedEnv::without_failures(proc, mode).unwrap();
        let mut expected = expected_report(mode, env.replica_id(), n);
        let mut rt = IntraRuntime::new(env, IntraConfig::paper());
        let mut ws = Workspace::new();
        let x = ws.add("x", (0..n).map(|i| i as f64).collect());
        let w = ws.add_zeros("w", n);
        for index in 0..sections {
            let mut section = rt.section(&mut ws);
            for chunk in split_ranges(n, TASKS) {
                section
                    .add_task(TaskDef::new(
                        "scale",
                        |c| {
                            for i in 0..c.outputs[0].len() {
                                c.outputs[0][i] = 2.0 * c.inputs[0][i];
                            }
                        },
                        vec![ArgSpec::input(x, chunk.clone()), ArgSpec::output(w, chunk)],
                    ))
                    .unwrap();
            }
            expected.section_index = index;
            assert_eq!(section.end().unwrap(), expected);
        }
        assert_eq!(rt.totals().count, sections);
        ws.fingerprint()
    });
    let stats = alloc_counter::since(&before);

    let mut reference = Workspace::new();
    reference.add("x", (0..n).map(|i| i as f64).collect());
    reference.add("w", (0..n).map(|i| 2.0 * i as f64).collect());
    for fingerprint in report.unwrap_results() {
        assert_eq!(fingerprint, reference.fingerprint());
    }
    stats
}

/// What sections 2..=201 of a run cost, summed over the ranks.
fn extra_sections(mode: ExecutionMode, n: usize) -> alloc_counter::Stats {
    let short = run(mode, n, 1);
    let long = run(mode, n, 1 + EXTRA_SECTIONS);
    alloc_counter::Stats {
        allocs: long.allocs.saturating_sub(short.allocs),
        bytes: long.bytes.saturating_sub(short.bytes),
        large_allocs: 0,
    }
}

#[test]
fn a_section_allocates_per_launch_not_per_execution() {
    let chunk_bytes = (N / TASKS * std::mem::size_of::<f64>()) as u64;
    for mode in [
        ExecutionMode::Native,
        ExecutionMode::IntraParallel { degree: 2 },
    ] {
        let ranks = mode.degree() as u64;
        let small = extra_sections(mode, N);
        let large = extra_sections(mode, 2 * N);

        let shipped = if mode.shares_work() {
            (TASKS / 2) as u64
        } else {
            0
        };
        let budget = EXTRA_SECTIONS as u64
            * ranks
            * (PER_TASK_LAUNCHED * TASKS as u64 + PER_UPDATE_SHIPPED * shipped + per_section(mode));
        assert!(
            small.allocs <= budget,
            "{mode:?}: sections 2-{} cost {} allocations on {ranks} rank(s), budget {budget} \
             ({PER_TASK_LAUNCHED} per task launched + {PER_UPDATE_SHIPPED} per update shipped \
             + {} per section)",
            1 + EXTRA_SECTIONS,
            small.allocs,
            per_section(mode),
        );

        // Doubling every argument may only grow what the protocol ships: the
        // update payloads of the tasks each replica executed (none when work
        // is not shared).  One chunk of slack in total — a single per-task
        // copy would cost a chunk per task per section.
        let shipped_chunks = if mode.shares_work() {
            EXTRA_SECTIONS as u64 * TASKS as u64
        } else {
            0
        };
        let growth = large.bytes.saturating_sub(small.bytes);
        assert!(
            growth <= (shipped_chunks + 1) * chunk_bytes,
            "{mode:?}: doubling the arguments grew sections 2-{} by {growth} bytes, \
             payloads explain {}",
            1 + EXTRA_SECTIONS,
            shipped_chunks * chunk_bytes,
        );
    }
}
