//! Crash/recovery matrix: every [`ProtocolPoint`] crossed with the three
//! execution modes.
//!
//! In the intra-parallelized mode all five section-level protocol points are
//! reachable; in the native and replicated modes the runtime executes every
//! task locally, so only `SectionEnter` / `SectionExit` exist (the
//! update-send points belong to the work-sharing protocol and must never
//! fire there).  Timed failures (from failure traces) are observed at the
//! first reachable protocol point in every mode.

use ipr_core::prelude::*;
use replication::{ExecutionMode, FailureInjector, ProtocolPoint, ReplicatedEnv};
use simcluster::SimTime;
use simmpi::{run_cluster, ClusterConfig};

const N: usize = 64;

/// Runs a two-section workload (`w = 2x`, then `w = 2w`) on `procs`
/// processes in `mode`, with `injector` shared by every process.  Returns
/// the per-rank results: the final first element of `w` on success.
fn run_workload(
    mode: ExecutionMode,
    procs: usize,
    injector: &FailureInjector,
) -> Vec<Result<IntraResult<f64>, String>> {
    run_workload_on(&ClusterConfig::ideal(procs), mode, injector, 0.0)
}

/// [`run_workload`] on an explicit cluster configuration, with `warmup_s`
/// virtual seconds of modeled work charged before the first section.  The
/// timed-trace tests use both: arrivals at t > 0 are only due once virtual
/// time has advanced past them, which never happens on the zero-cost ideal
/// machine (and, outside the intra mode, this workload models no
/// time-charged communication of its own).
fn run_workload_on(
    config: &ClusterConfig,
    mode: ExecutionMode,
    injector: &FailureInjector,
    warmup_s: f64,
) -> Vec<Result<IntraResult<f64>, String>> {
    let injector = injector.clone();
    let report = run_cluster(config, move |proc| {
        if warmup_s > 0.0 {
            proc.charge_other(SimTime::from_secs(warmup_s));
        }
        let env = ReplicatedEnv::new(proc, mode, injector.clone())?;
        let mut rt = IntraRuntime::new(env, IntraConfig::paper());
        let mut ws = Workspace::new();
        let x = ws.add("x", vec![1.0; N]);
        let w = ws.add_zeros("w", N);
        for step in 0..2 {
            let (src, dst) = if step == 0 { (x, w) } else { (w, w) };
            let mut section = rt.section(&mut ws);
            section.add_split(N, |chunk| {
                let args = if src == dst {
                    vec![ArgSpec::inout(dst, chunk)]
                } else {
                    vec![
                        ArgSpec::input(src, chunk.clone()),
                        ArgSpec::output(dst, chunk),
                    ]
                };
                TaskDef::new(
                    "double",
                    move |ctx| {
                        if ctx.inputs.is_empty() {
                            for v in ctx.outputs[0].iter_mut() {
                                *v *= 2.0;
                            }
                        } else {
                            for i in 0..ctx.outputs[0].len() {
                                ctx.outputs[0][i] = 2.0 * ctx.inputs[0][i];
                            }
                        }
                    },
                    args,
                )
            })?;
            let _ = section.end()?;
        }
        Ok(ws.get(w)[0])
    });
    report.results
}

// Every matrix entry runs on 2 physical processes: native = two independent
// logical processes, replicated/intra = one logical process with two
// replicas.
const ALL_MODES: [ExecutionMode; 3] = [
    ExecutionMode::Native,
    ExecutionMode::Replicated { degree: 2 },
    ExecutionMode::IntraParallel { degree: 2 },
];

/// The section-boundary points exist in every mode: the armed rank crashes
/// there and the other rank finishes with the correct result.
#[test]
fn section_boundary_crashes_are_survivable_in_every_mode() {
    for mode in ALL_MODES {
        for point in [
            ProtocolPoint::SectionEnter { section: 0 },
            ProtocolPoint::SectionExit { section: 0 },
            ProtocolPoint::SectionEnter { section: 1 },
        ] {
            let injector = FailureInjector::none();
            injector.arm(0, point);
            let results = run_workload(mode, 2, &injector);
            let r0 = results[0].as_ref().expect("rank 0 must not panic");
            assert_eq!(
                r0.as_ref().unwrap_err(),
                &IntraError::Crashed,
                "{mode:?} {point:?}: armed rank must crash"
            );
            let r1 = results[1].as_ref().expect("rank 1 must not panic");
            assert_eq!(
                r1.as_ref().expect("survivor completes"),
                &4.0,
                "{mode:?} {point:?}: survivor result"
            );
            assert_eq!(injector.pending(), 0, "{mode:?} {point:?}: injection fired");
            assert_eq!(injector.fired(), vec![(0, point)]);
        }
    }
}

/// The update-send points belong to the work-sharing protocol: they fire in
/// the intra mode (and recovery re-executes the lost tasks), and never fire
/// in the native / replicated modes (where no update protocol runs).
#[test]
fn update_send_crashes_fire_only_in_the_intra_mode() {
    let update_points = [
        ProtocolPoint::BeforeUpdateSend {
            section: 0,
            task: 0,
        },
        ProtocolPoint::MidUpdateSend {
            section: 0,
            task: 0,
            vars_sent: 1,
        },
        ProtocolPoint::AfterUpdateSend {
            section: 0,
            task: 0,
        },
    ];
    for point in update_points {
        // Intra: fires, survivor recovers the correct result.
        let injector = FailureInjector::none();
        injector.arm(0, point);
        let results = run_workload(ExecutionMode::IntraParallel { degree: 2 }, 2, &injector);
        assert_eq!(
            results[0].as_ref().unwrap().as_ref().unwrap_err(),
            &IntraError::Crashed,
            "intra {point:?}"
        );
        assert_eq!(
            results[1].as_ref().unwrap().as_ref().unwrap(),
            &4.0,
            "intra {point:?}: survivor result"
        );
        assert_eq!(injector.pending(), 0, "intra {point:?} must fire");

        // Native / replicated: the point is never reached; the run completes
        // everywhere and the injection stays armed.
        for mode in [
            ExecutionMode::Native,
            ExecutionMode::Replicated { degree: 2 },
        ] {
            let injector = FailureInjector::none();
            injector.arm(0, point);
            let results = run_workload(mode, 2, &injector);
            for (rank, r) in results.iter().enumerate() {
                assert_eq!(
                    r.as_ref().unwrap().as_ref().unwrap(),
                    &4.0,
                    "{mode:?} {point:?} rank {rank} completes"
                );
            }
            assert_eq!(injector.pending(), 1, "{mode:?} {point:?} must not fire");
        }
    }
}

/// Timed failures (the mechanism failure traces arm) are observed at the
/// first protocol point at or after the scheduled virtual time, in every
/// mode.
#[test]
fn timed_failures_fire_at_the_first_protocol_point_in_every_mode() {
    for mode in ALL_MODES {
        let injector = FailureInjector::none();
        // Virtual time 0: due immediately — the first consulted point is
        // SectionEnter of section 0 (the cluster is ideal, so no virtual
        // time passes before it).
        injector.arm_at(0, SimTime::ZERO);
        let results = run_workload(mode, 2, &injector);
        assert_eq!(
            results[0].as_ref().unwrap().as_ref().unwrap_err(),
            &IntraError::Crashed,
            "{mode:?}: timed failure must crash rank 0"
        );
        assert_eq!(
            results[1].as_ref().unwrap().as_ref().unwrap(),
            &4.0,
            "{mode:?}: survivor result"
        );
        let fired = injector.fired_timed();
        assert_eq!(fired.len(), 1, "{mode:?}");
        assert_eq!(fired[0].rank, 0);
        assert_eq!(
            fired[0].point,
            ProtocolPoint::SectionEnter { section: 0 },
            "{mode:?}: first reachable protocol point"
        );
    }
}

/// Recovery bookkeeping in the intra mode: a crash before any update was
/// sent makes the survivor re-execute the lost tasks, and the section report
/// records exactly one observed replica failure.
#[test]
fn intra_recovery_reports_the_observed_failure() {
    let injector = FailureInjector::none();
    injector.arm(
        0,
        ProtocolPoint::BeforeUpdateSend {
            section: 0,
            task: 0,
        },
    );
    let injector2 = injector.clone();
    let report = run_cluster(&ClusterConfig::ideal(2), move |proc| {
        let env = ReplicatedEnv::new(
            proc,
            ExecutionMode::IntraParallel { degree: 2 },
            injector2.clone(),
        )
        .unwrap();
        let mut rt = IntraRuntime::new(env, IntraConfig::paper());
        let mut ws = Workspace::new();
        let x = ws.add("x", vec![3.0; N]);
        let w = ws.add_zeros("w", N);
        let mut section = rt.section(&mut ws);
        section
            .add_split(N, |chunk| {
                TaskDef::new(
                    "copy",
                    |ctx| ctx.outputs[0].copy_from_slice(&ctx.inputs[0]),
                    vec![ArgSpec::input(x, chunk.clone()), ArgSpec::output(w, chunk)],
                )
            })
            .unwrap();
        section.end()
    });
    let survivor = report.results[1].as_ref().unwrap().as_ref().unwrap();
    assert_eq!(survivor.replica_failures_observed, 1);
    assert!(survivor.tasks_reexecuted > 0);
    assert_eq!(
        survivor.tasks_executed_locally, survivor.num_tasks,
        "survivor ends up executing everything"
    );
}

/// Failure traces drawn from the fitted MTBF hazards (Weibull, LogNormal)
/// arm timed failures exactly like the homogeneous traces: in every mode
/// the armed rank crashes at the first protocol point past its first
/// arrival, and the survivor finishes with the correct result.
#[test]
fn mtbf_hazard_traces_crash_and_recover_in_every_mode() {
    use replication::{sample_failure_trace, FailureRate};

    // MTBF of 1e-9 virtual seconds: the first arrival lands long before
    // the workload's first modeled compute step (~1e-7 s of virtual time),
    // so the crash is observed at an early protocol point.
    let horizon = SimTime::from_secs(1e-6);
    for rate in [
        FailureRate::weibull_hpc(1e-9),
        FailureRate::lognormal_hpc(1e-9),
    ] {
        let trace = sample_failure_trace(rate, horizon, 42, 0);
        assert!(
            !trace.is_empty(),
            "{}: a hot hazard must produce arrivals",
            rate.label()
        );
        for mode in ALL_MODES {
            let injector = FailureInjector::none();
            for &at in &trace {
                injector.arm_at(0, at);
            }
            let results = run_workload_on(&ClusterConfig::new(2), mode, &injector, 1e-7);
            assert_eq!(
                results[0].as_ref().unwrap().as_ref().unwrap_err(),
                &IntraError::Crashed,
                "{mode:?} {}: traced rank must crash",
                rate.label()
            );
            assert_eq!(
                results[1].as_ref().unwrap().as_ref().unwrap(),
                &4.0,
                "{mode:?} {}: survivor result",
                rate.label()
            );
            let fired = injector.fired_timed();
            assert_eq!(fired.len(), 1, "{mode:?} {}", rate.label());
            assert_eq!(fired[0].scheduled, trace[0], "earliest arrival fires");
        }
    }
}

/// A correlated node event expanded over a replica-disjoint topology arms
/// one whole replica set; the intra runtime recovers on the other set.
#[test]
fn correlated_node_loss_is_survivable_under_replica_disjoint_placement() {
    use replication::{CorrelatedPlan, FailureDomain, FailureRate};
    use simcluster::Topology;

    // 2 logical ranks x 2 replicas on 2-core nodes: node 0 = replica set 0.
    let topo = Topology::replica_disjoint(2, 2, 2);
    let plan = CorrelatedPlan::new(
        FailureDomain::Node,
        FailureRate::Constant(1e9),
        SimTime::from_secs(1e-6),
    );
    let crashes = plan.crashes(&topo, 42);
    let injector = FailureInjector::none();
    // Keep only node 0's event: a single correlated loss.
    for &(rank, at) in crashes.iter().filter(|&&(r, _)| topo.node_of(r) == 0) {
        injector.arm_at(rank, at);
    }
    let results = run_workload_on(
        &ClusterConfig::new(4),
        ExecutionMode::IntraParallel { degree: 2 },
        &injector,
        1e-7,
    );
    for rank in topo.ranks_on(0) {
        assert_eq!(
            results[rank].as_ref().unwrap().as_ref().unwrap_err(),
            &IntraError::Crashed,
            "rank {rank} of the lost node"
        );
    }
    for rank in topo.ranks_on(1) {
        assert_eq!(
            results[rank].as_ref().unwrap().as_ref().unwrap(),
            &4.0,
            "rank {rank} of the surviving node"
        );
    }
}
