//! Failure recovery demo: the crash scenarios of Section III-B2 / Figure 2.
//!
//! Run with:
//! ```text
//! cargo run --example failure_recovery
//! ```
//!
//! The example executes the paper's Figure 2 scenario: a single task reads
//! and writes variable `a` (inout) and writes variable `b` (out).  Replica 0
//! executes the task, manages to send the update of `a`, and crashes before
//! sending `b`.  The surviving replica applies no part of that update and
//! re-executes the task from the pre-section value of `a`, ending with the
//! correct state (a = 2, b = 4) instead of the corrupted one (a = 3, b = 6) that a
//! naive re-execution would produce.  It then runs a second, larger section
//! to show that work continues (entirely on the survivor) after the crash.
//!
//! The hand-placed crash is one knob of the `Experiment` builder
//! (`inject_failure`); the cluster, replication environment and runtime all
//! come with it.

use intra_replication::prelude::*;

fn main() {
    let run = Experiment::builder()
        .app(AppId::Hpccg) // nominal: the body drives its own sections
        .mode(Mode::IntraReplication)
        .logical_procs(1)
        // Replica 0 (physical rank 0) crashes in the middle of sending the
        // update of the first task of section 0: after variable `a`
        // (1 variable sent), before variable `b`.
        .inject_failure(
            0,
            ProtocolPoint::MidUpdateSend {
                section: 0,
                task: 0,
                vars_sent: 1,
            },
        )
        .build()
        .expect("valid experiment")
        .run_with(|ctx| {
            let rank = ctx.env.physical_rank();

            // Figure 2a: a = 1, b = 0; task1: a <- a + 1; b <- a * 2.
            let mut ws = Workspace::new();
            let a = ws.add("a", vec![1.0]);
            let b = ws.add("b", vec![0.0]);

            let mut section = ctx.rt.section(&mut ws);
            section.add_task(TaskDef::new(
                "task1",
                |c| {
                    c.outputs[0][0] += 1.0; // a (inout)
                    c.outputs[1][0] = c.outputs[0][0] * 2.0; // b (out)
                },
                vec![ArgSpec::inout(a, 0..1), ArgSpec::output(b, 0..1)],
            ))?;

            match section.end() {
                Ok(rep) => {
                    // Only the survivor reaches this point.
                    println!(
                        "rank {rank}: section 0 finished, a = {}, b = {}, re-executed tasks = {}",
                        ws.get(a)[0],
                        ws.get(b)[0],
                        rep.tasks_reexecuted
                    );
                    assert_eq!(
                        ws.get(a)[0],
                        2.0,
                        "re-execution must start from the pre-section value of `a`"
                    );
                    assert_eq!(ws.get(b)[0], 4.0);
                }
                Err(IntraError::Crashed) => {
                    println!("rank {rank}: crashed mid-update (as injected)");
                    return Ok((rank, false));
                }
                Err(e) => panic!("unexpected error: {e}"),
            }

            // A follow-up section: the survivor now owns all the work.
            let big = ws.add("big", (0..1024).map(|i| i as f64).collect());
            let out = ws.add_zeros("out", 1024);
            let mut section = ctx.rt.section(&mut ws);
            section.add_split(1024, |chunk| {
                TaskDef::new(
                    "square",
                    |c| {
                        for i in 0..c.outputs[0].len() {
                            c.outputs[0][i] = c.inputs[0][i] * c.inputs[0][i];
                        }
                    },
                    vec![
                        ArgSpec::input(big, chunk.clone()),
                        ArgSpec::output(out, chunk),
                    ],
                )
            })?;
            let rep = section.end()?;
            println!(
                "rank {rank}: section 1 executed {} tasks locally (peer is gone), received {}",
                rep.tasks_executed_locally, rep.tasks_received
            );
            assert_eq!(ws.get(out)[3], 9.0);
            Ok((rank, true))
        })
        .expect("failure-recovery experiment");

    let mut survivors = 0;
    for (rank, survived) in run.results.iter().flatten() {
        if *survived {
            survivors += 1;
            println!("physical rank {rank} survived and holds a consistent state");
        }
    }
    assert_eq!(
        survivors, 1,
        "exactly one replica survives in this scenario"
    );
    assert_eq!(run.failure_events, 1, "exactly one crash was injected");
    println!("failure recovery demo finished successfully");
}
