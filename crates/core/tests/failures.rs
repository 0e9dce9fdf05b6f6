//! Failure-injection tests: the crash scenarios of Section III-B2 and
//! Figure 2 of the paper.

use ipr_core::prelude::*;
use replication::{ExecutionMode, FailureInjector, ProtocolPoint, ReplicatedEnv};
use simmpi::{run_cluster, ClusterConfig};

/// Runs a 2-replica (degree 2, one logical process) cluster where rank 0 is
/// replica 0 and rank 1 is replica 1, with the given injector plan, and a
/// body that receives the runtime and workspace.
fn run_pair<R, F>(
    injector_setup: impl Fn(&FailureInjector) + Sync,
    body: F,
) -> Vec<Result<R, String>>
where
    R: Send,
    F: Fn(&mut IntraRuntime, &mut Workspace) -> R + Send + Sync,
{
    let report = run_cluster(&ClusterConfig::ideal(2), |proc| {
        let injector = FailureInjector::none();
        injector_setup(&injector);
        let env =
            ReplicatedEnv::new(proc, ExecutionMode::IntraParallel { degree: 2 }, injector).unwrap();
        let mut rt = IntraRuntime::new(env, IntraConfig::paper());
        let mut ws = Workspace::new();
        body(&mut rt, &mut ws)
    });
    report.results
}

/// Builds the Figure-2 style section: one task with an inout variable `a`
/// and an out variable `b`, computing `a <- a + 1; b <- a * 2`.
fn figure2_section(
    rt: &mut IntraRuntime,
    ws: &mut Workspace,
    a: VarId,
    b: VarId,
) -> IntraResult<SectionReport> {
    let mut section = rt.section(ws);
    section.add_task(TaskDef::new(
        "task1",
        |ctx| {
            // outputs[0] = a (inout), outputs[1] = b (out)
            ctx.outputs[0][0] += 1.0;
            ctx.outputs[1][0] = ctx.outputs[0][0] * 2.0;
        },
        vec![ArgSpec::inout(a, 0..1), ArgSpec::output(b, 0..1)],
    ))?;
    section.end()
}

#[test]
fn failure_before_any_update_send_triggers_local_reexecution() {
    // Replica 0 (physical rank 0) owns the first half of the tasks and
    // crashes right after executing its first task, before sending anything.
    // Replica 1 must re-execute all of replica 0's tasks and finish with the
    // correct result.
    let n = 64;
    let results = run_pair(
        |inj| {
            inj.arm(
                0,
                ProtocolPoint::BeforeUpdateSend {
                    section: 0,
                    task: 0,
                },
            );
        },
        move |rt, ws| {
            let x = ws.add("x", (0..n).map(|i| i as f64).collect());
            let w = ws.add_zeros("w", n);
            let mut section = rt.section(ws);
            section
                .add_split(n, |chunk| {
                    TaskDef::new(
                        "double",
                        |ctx| {
                            for i in 0..ctx.outputs[0].len() {
                                ctx.outputs[0][i] = 2.0 * ctx.inputs[0][i];
                            }
                        },
                        vec![ArgSpec::input(x, chunk.clone()), ArgSpec::output(w, chunk)],
                    )
                })
                .unwrap();
            match section.end() {
                Ok(report) => Ok((ws.get(w).to_vec(), report)),
                Err(e) => Err(e),
            }
        },
    );
    // Replica 0 crashed.
    let r0 = results[0].as_ref().unwrap();
    assert_eq!(r0.as_ref().unwrap_err(), &IntraError::Crashed);
    // Replica 1 finished with the full, correct result.
    let (w, report) = results[1].as_ref().unwrap().as_ref().unwrap();
    let expected: Vec<f64> = (0..n).map(|i| 2.0 * i as f64).collect();
    assert_eq!(w, &expected);
    assert_eq!(
        report.tasks_executed_locally, 8,
        "survivor executed everything"
    );
    assert!(
        report.tasks_reexecuted >= 4,
        "replica 0's tasks were re-executed"
    );
    assert_eq!(report.tasks_received, 0);
}

#[test]
fn figure2_partial_update_does_not_corrupt_inout_variables() {
    // The exact scenario of Figure 2b/2c: replica 0 executes task1, sends the
    // update of `a` but crashes before sending `b`.  Replica 1 must apply
    // no part of that update and re-execute task1 from the pre-section
    // value of `a`, ending with a = 2, b = 4 — not the corrupted a = 3,
    // b = 6.
    let results = run_pair(
        |inj| {
            inj.arm(
                0,
                ProtocolPoint::MidUpdateSend {
                    section: 0,
                    task: 0,
                    vars_sent: 1,
                },
            );
        },
        |rt, ws| {
            let a = ws.add("a", vec![1.0]);
            let b = ws.add("b", vec![0.0]);
            match figure2_section(rt, ws, a, b) {
                Ok(_) => Ok((ws.get(a)[0], ws.get(b)[0])),
                Err(e) => Err(e),
            }
        },
    );
    assert_eq!(
        results[0].as_ref().unwrap().as_ref().unwrap_err(),
        &IntraError::Crashed
    );
    let (a, b) = results[1].as_ref().unwrap().as_ref().unwrap();
    assert_eq!(
        (*a, *b),
        (2.0, 4.0),
        "re-execution must start from the pre-section value of `a`, not a partial update"
    );
}

#[test]
fn failure_after_full_update_leaves_peer_with_received_result() {
    // Replica 0 crashes right after sending the complete update of its last
    // task: replica 1 receives everything and does not need to re-execute.
    let n = 32;
    let results = run_pair(
        |inj| {
            // 8 tasks, replica 0 owns tasks 0..4; crash after the update of
            // its last task (index 3) has been fully sent.
            inj.arm(
                0,
                ProtocolPoint::AfterUpdateSend {
                    section: 0,
                    task: 3,
                },
            );
        },
        move |rt, ws| {
            let x = ws.add("x", (0..n).map(|i| i as f64).collect());
            let w = ws.add_zeros("w", n);
            let mut section = rt.section(ws);
            section
                .add_split(n, |chunk| {
                    TaskDef::new(
                        "negate",
                        |ctx| {
                            for i in 0..ctx.outputs[0].len() {
                                ctx.outputs[0][i] = -ctx.inputs[0][i];
                            }
                        },
                        vec![ArgSpec::input(x, chunk.clone()), ArgSpec::output(w, chunk)],
                    )
                })
                .unwrap();
            match section.end() {
                Ok(report) => Ok((ws.get(w).to_vec(), report)),
                Err(e) => Err(e),
            }
        },
    );
    assert!(results[0].as_ref().unwrap().is_err());
    let (w, report) = results[1].as_ref().unwrap().as_ref().unwrap();
    let expected: Vec<f64> = (0..n).map(|i| -(i as f64)).collect();
    assert_eq!(w, &expected);
    // All of replica 0's updates were sent before the crash, so replica 1
    // received them all (no re-execution necessary).
    assert_eq!(report.tasks_reexecuted, 0);
    assert_eq!(report.tasks_received, 4);
}

#[test]
fn failure_outside_sections_moves_all_work_to_the_survivor() {
    // Replica 0 crashes after the first section completes (outside any
    // section).  The second section must be executed entirely by replica 1.
    let n = 40;
    let results = run_pair(
        |inj| {
            inj.arm(0, ProtocolPoint::SectionExit { section: 0 });
        },
        move |rt, ws| {
            let x = ws.add("x", vec![1.0; n]);
            let w = ws.add_zeros("w", n);
            let mut reports = Vec::new();
            for step in 0..2 {
                let mut section = rt.section(ws);
                section
                    .add_split(n, |chunk| {
                        TaskDef::new(
                            "add_step",
                            move |ctx| {
                                let step = ctx.scalars[0];
                                for i in 0..ctx.outputs[0].len() {
                                    ctx.outputs[0][i] = ctx.inputs[0][i] + step;
                                }
                            },
                            vec![ArgSpec::input(x, chunk.clone()), ArgSpec::output(w, chunk)],
                        )
                        .with_scalars(vec![step as f64 + 1.0])
                    })
                    .unwrap();
                match section.end() {
                    Ok(r) => reports.push(r),
                    Err(e) => return Err(e),
                }
                // Copy w back into x between sections (outside the section).
                let w_now = ws.get(w).to_vec();
                ws.get_mut(x).copy_from_slice(&w_now);
            }
            Ok((ws.get(x)[0], reports))
        },
    );
    // Replica 0 crashed at the exit of section 0.
    assert!(results[0].as_ref().unwrap().is_err());
    let (value, reports) = results[1].as_ref().unwrap().as_ref().unwrap();
    // x = 1 + 1 (section 0) + 2 (section 1) = 4
    assert_eq!(*value, 4.0);
    assert_eq!(reports.len(), 2);
    // In section 0 both replicas were alive (4 tasks each); in section 1 the
    // survivor executed all 8 tasks and received none.  The 4 tasks that the
    // static schedule still maps to the dead replica are adopted locally.
    assert_eq!(reports[0].tasks_executed_locally, 4);
    assert_eq!(reports[1].tasks_executed_locally, 8);
    assert_eq!(reports[1].tasks_received, 0);
    assert_eq!(reports[1].tasks_reexecuted, 4);
}

#[test]
fn failure_at_section_entry_is_survivable() {
    let n = 16;
    let results = run_pair(
        |inj| {
            inj.arm(0, ProtocolPoint::SectionEnter { section: 0 });
        },
        move |rt, ws| {
            let x = ws.add("x", vec![2.0; n]);
            let w = ws.add_zeros("w", n);
            let mut section = rt.section(ws);
            section
                .add_split(n, |chunk| {
                    TaskDef::new(
                        "square",
                        |ctx| {
                            for i in 0..ctx.outputs[0].len() {
                                ctx.outputs[0][i] = ctx.inputs[0][i] * ctx.inputs[0][i];
                            }
                        },
                        vec![ArgSpec::input(x, chunk.clone()), ArgSpec::output(w, chunk)],
                    )
                })
                .unwrap();
            match section.end() {
                Ok(_) => Ok(ws.get(w).to_vec()),
                Err(e) => Err(e),
            }
        },
    );
    assert!(results[0].as_ref().unwrap().is_err());
    let w = results[1].as_ref().unwrap().as_ref().unwrap();
    assert_eq!(w, &vec![4.0; n]);
}

#[test]
fn degree_three_survives_one_crash_and_keeps_sharing() {
    // Three replicas of one logical process; replica 1 (physical rank 1)
    // crashes before sending its updates.  Replicas 0 and 2 must both end up
    // with the complete result.
    let n = 90;
    let report = run_cluster(&ClusterConfig::ideal(3), move |proc| {
        let injector = FailureInjector::none();
        injector.arm(
            1,
            ProtocolPoint::BeforeUpdateSend {
                section: 0,
                task: 3,
            },
        );
        let env =
            ReplicatedEnv::new(proc, ExecutionMode::IntraParallel { degree: 3 }, injector).unwrap();
        let mut rt = IntraRuntime::new(env, IntraConfig::paper().with_tasks_per_section(9));
        let mut ws = Workspace::new();
        let x = ws.add("x", (0..n).map(|i| i as f64).collect());
        let w = ws.add_zeros("w", n);
        let mut section = rt.section(&mut ws);
        section
            .add_split(n, |chunk| {
                TaskDef::new(
                    "shift",
                    |ctx| {
                        for i in 0..ctx.outputs[0].len() {
                            ctx.outputs[0][i] = ctx.inputs[0][i] + 0.5;
                        }
                    },
                    vec![ArgSpec::input(x, chunk.clone()), ArgSpec::output(w, chunk)],
                )
            })
            .unwrap();
        match section.end() {
            Ok(_) => Ok(ws.get(w).to_vec()),
            Err(e) => Err(e),
        }
    });
    let expected: Vec<f64> = (0..n).map(|i| i as f64 + 0.5).collect();
    for rank in [0usize, 2] {
        let w = report.results[rank].as_ref().unwrap().as_ref().unwrap();
        assert_eq!(w, &expected, "physical rank {rank}");
    }
    assert!(report.results[1].as_ref().unwrap().is_err());
}

#[test]
fn all_replicas_crashing_is_reported() {
    // Both replicas crash at section entry: each of them must observe its own
    // crash (IntraError::Crashed), and the run must not hang.
    let results = run_pair(
        |inj| {
            inj.arm(0, ProtocolPoint::SectionEnter { section: 0 });
            inj.arm(1, ProtocolPoint::SectionEnter { section: 0 });
        },
        |rt, ws| {
            let x = ws.add("x", vec![1.0; 8]);
            let w = ws.add_zeros("w", 8);
            let mut section = rt.section(ws);
            section
                .add_split(8, |chunk| {
                    TaskDef::new(
                        "id",
                        |ctx| {
                            ctx.outputs[0].copy_from_slice(&ctx.inputs[0]);
                        },
                        vec![ArgSpec::input(x, chunk.clone()), ArgSpec::output(w, chunk)],
                    )
                })
                .unwrap();
            section.end().err()
        },
    );
    for r in results {
        assert_eq!(r.unwrap(), Some(IntraError::Crashed));
    }
}

#[test]
fn consecutive_sections_after_failure_keep_producing_correct_results() {
    // Replica 0 dies in the middle of section 1 (of 3); sections 2 and 3 run
    // degraded but correct.
    let n = 48;
    let results = run_pair(
        |inj| {
            inj.arm(
                0,
                ProtocolPoint::BeforeUpdateSend {
                    section: 1,
                    task: 1,
                },
            );
        },
        move |rt, ws| {
            let x = ws.add("x", vec![1.0; n]);
            let w = ws.add_zeros("w", n);
            for _ in 0..3 {
                let mut section = rt.section(ws);
                section
                    .add_split(n, |chunk| {
                        TaskDef::new(
                            "double",
                            |ctx| {
                                for i in 0..ctx.outputs[0].len() {
                                    ctx.outputs[0][i] = 2.0 * ctx.inputs[0][i];
                                }
                            },
                            vec![ArgSpec::input(x, chunk.clone()), ArgSpec::output(w, chunk)],
                        )
                    })
                    .unwrap();
                let _ = section.end()?;
                let w_now = ws.get(w).to_vec();
                ws.get_mut(x).copy_from_slice(&w_now);
            }
            Ok::<_, IntraError>(ws.get(x)[0])
        },
    );
    assert!(results[0].as_ref().unwrap().is_err());
    assert_eq!(*results[1].as_ref().unwrap().as_ref().unwrap(), 8.0);
}
