//! End-to-end tests of the mini-applications in the three execution modes.

use apps::{
    run_amg, run_gtc, run_hpccg, run_minighost, AmgParams, AmgSolver, AppContext, AppRunReport,
    ExperimentScale, GtcParams, HpccgParams, MiniGhostParams,
};
use ipr_core::{
    split_ranges, ArgSpec, IntraConfig, IntraResult, SectionReport, TaskCost, TaskDef, VarId,
    Workspace,
};
use replication::{ExecutionMode, FailureInjector, ProtocolPoint};
use simcluster::SimTime;
use simmpi::{run_cluster, ClusterConfig};

fn modes(logical: usize) -> Vec<(ExecutionMode, usize)> {
    vec![
        (ExecutionMode::Native, logical),
        (ExecutionMode::Replicated { degree: 2 }, 2 * logical),
        (ExecutionMode::IntraParallel { degree: 2 }, 2 * logical),
    ]
}

#[test]
fn hpccg_converges_in_all_modes() {
    for (mode, procs) in modes(4) {
        let report = run_cluster(&ClusterConfig::ideal(procs), move |proc| {
            let mut ctx = AppContext::without_failures(proc, mode, IntraConfig::paper()).unwrap();
            let params = HpccgParams::small(6, 40);
            run_hpccg(&mut ctx, &params).unwrap()
        });
        for out in report.unwrap_results() {
            assert!(
                out.solution_error < 1e-6,
                "mode {mode:?}: CG did not converge to the all-ones solution (err {})",
                out.solution_error
            );
            assert!(
                out.residual < 1e-5,
                "mode {mode:?}: residual {}",
                out.residual
            );
            // The report carries measurements only (the mode is the
            // caller's configuration); intra mode shares section work, so
            // it must have executed sections.
            if matches!(mode, ExecutionMode::IntraParallel { .. }) {
                assert!(out.report.sections.count > 0, "mode {mode:?}: no sections");
            }
        }
    }
}

#[test]
fn hpccg_replicas_agree_bit_for_bit() {
    let report = run_cluster(&ClusterConfig::ideal(8), |proc| {
        let mut ctx = AppContext::without_failures(
            proc,
            ExecutionMode::IntraParallel { degree: 2 },
            IntraConfig::paper(),
        )
        .unwrap();
        let params = HpccgParams::small(5, 25);
        let out = run_hpccg(&mut ctx, &params).unwrap();
        (ctx.env.logical_rank(), out.residual, out.solution_error)
    });
    let results = report.unwrap_results();
    // Replicas of the same logical rank (physical r and r+4) must agree.
    for logical in 0..4 {
        let a = &results[logical];
        let b = &results[logical + 4];
        assert_eq!(a.0, b.0);
        assert_eq!(a.1.to_bits(), b.1.to_bits(), "residuals must be identical");
        assert_eq!(a.2.to_bits(), b.2.to_bits());
    }
}

#[test]
fn hpccg_intra_shares_sections_between_replicas() {
    let report = run_cluster(&ClusterConfig::ideal(4), |proc| {
        let mut ctx = AppContext::without_failures(
            proc,
            ExecutionMode::IntraParallel { degree: 2 },
            IntraConfig::paper(),
        )
        .unwrap();
        let params = HpccgParams::small(5, 10);
        run_hpccg(&mut ctx, &params).unwrap().report
    });
    for r in report.unwrap_results() {
        let r = r.sections;
        assert!(r.count > 0);
        assert!(r.update_bytes_sent > 0, "intra mode must ship updates");
        // ddot + sparsemv sections: each replica executes about half of the
        // tasks of every section.
        assert!(r.tasks_executed < r.count * 8);
    }
}

#[test]
fn hpccg_survives_a_replica_crash_between_iterations() {
    let report = run_cluster(&ClusterConfig::ideal(4), |proc| {
        let injector = FailureInjector::none();
        // Physical rank 0 = replica 0 of logical 0 crashes at iteration 3.
        injector.arm(0, ProtocolPoint::IterationStart { iteration: 3 });
        let mut ctx = AppContext::new(
            proc,
            ExecutionMode::IntraParallel { degree: 2 },
            IntraConfig::paper(),
            injector,
        )
        .unwrap();
        let params = HpccgParams::small(5, 25);
        run_hpccg(&mut ctx, &params)
    });
    // The crashed rank reports the crash...
    assert!(report.results[0].as_ref().unwrap().is_err());
    // ...every other physical rank still converges.
    for rank in 1..4 {
        let out = report.results[rank]
            .as_ref()
            .unwrap()
            .as_ref()
            .unwrap_or_else(|e| panic!("rank {rank} failed: {e}"));
        assert!(
            out.solution_error < 1e-6,
            "rank {rank}: {}",
            out.solution_error
        );
    }
}

#[test]
fn amg_pcg_and_gmres_converge_in_all_modes() {
    for solver in [AmgSolver::Pcg27, AmgSolver::Gmres7] {
        for (mode, procs) in modes(2) {
            let report = run_cluster(&ClusterConfig::ideal(procs), move |proc| {
                let mut ctx =
                    AppContext::without_failures(proc, mode, IntraConfig::paper()).unwrap();
                let params = AmgParams::small(solver, 5, 30);
                run_amg(&mut ctx, &params).unwrap()
            });
            for out in report.unwrap_results() {
                assert!(
                    out.residual < 1e-6,
                    "{solver:?} in {mode:?}: residual {}",
                    out.residual
                );
            }
        }
    }
}

#[test]
fn amg_sections_cover_a_larger_fraction_for_pcg_than_gmres() {
    // Figure 6a vs 6b: the 27-point PCG problem has a larger fraction of its
    // runtime inside sections than the 7-point GMRES problem.
    let fraction = |solver: AmgSolver| {
        let report = run_cluster(&ClusterConfig::new(2), move |proc| {
            let mut ctx =
                AppContext::without_failures(proc, ExecutionMode::Native, IntraConfig::paper())
                    .unwrap();
            let params = AmgParams::paper_scale(solver, 6, 5);
            run_amg(&mut ctx, &params)
                .unwrap()
                .report
                .section_fraction()
        });
        report.unwrap_results().into_iter().sum::<f64>() / 2.0
    };
    let pcg = fraction(AmgSolver::Pcg27);
    let gmres = fraction(AmgSolver::Gmres7);
    assert!(
        pcg > gmres,
        "PCG section fraction ({pcg:.2}) should exceed GMRES ({gmres:.2})"
    );
    assert!(pcg > 0.4 && pcg < 0.95, "PCG fraction {pcg:.2}");
    assert!(gmres > 0.2 && gmres < 0.7, "GMRES fraction {gmres:.2}");
}

#[test]
fn gtc_conserves_charge_in_all_modes() {
    for (mode, procs) in modes(2) {
        let report = run_cluster(&ClusterConfig::ideal(procs), move |proc| {
            let mut ctx = AppContext::without_failures(proc, mode, IntraConfig::paper()).unwrap();
            let params = GtcParams::small(4000, 5);
            run_gtc(&mut ctx, &params).unwrap()
        });
        for out in report.unwrap_results() {
            assert!(
                (out.total_charge - 4000.0).abs() < 1e-6,
                "mode {mode:?}: charge {} not conserved",
                out.total_charge
            );
            assert!(out.kinetic.is_finite() && out.kinetic > 0.0);
        }
    }
}

#[test]
fn gtc_replicas_agree_and_ship_inout_snapshots() {
    let report = run_cluster(&ClusterConfig::ideal(2), |proc| {
        let mut ctx = AppContext::without_failures(
            proc,
            ExecutionMode::IntraParallel { degree: 2 },
            IntraConfig::paper(),
        )
        .unwrap();
        let params = GtcParams::small(2000, 4);
        let out = run_gtc(&mut ctx, &params).unwrap();
        (out.kinetic, out.report.sections.inout_snapshot_bytes)
    });
    let results = report.unwrap_results();
    assert_eq!(results[0].0.to_bits(), results[1].0.to_bits());
    // The push kernel's inout particle arrays must have been snapshotted.
    assert!(results[0].1 > 0);
}

#[test]
fn minighost_matches_across_modes_and_reports_small_section_fraction() {
    let mut sums = Vec::new();
    for (mode, procs) in modes(2) {
        let report = run_cluster(&ClusterConfig::ideal(procs), move |proc| {
            let mut ctx = AppContext::without_failures(proc, mode, IntraConfig::paper()).unwrap();
            let params = MiniGhostParams::small(6, 4);
            run_minighost(&mut ctx, &params).unwrap()
        });
        let results = report.unwrap_results();
        sums.push(results[0].last_sum);
        for out in &results {
            assert!(out.last_sum.is_finite());
        }
    }
    // The global sum is mode-independent (native vs replicated vs intra).
    assert!((sums[0] - sums[1]).abs() < 1e-9);
    assert!((sums[0] - sums[2]).abs() < 1e-9);

    // With a realistic machine model, the section (grid-sum) fraction is
    // small — this is the paper's explanation for the poor MiniGhost result.
    let report = run_cluster(&ClusterConfig::new(2), |proc| {
        let mut ctx =
            AppContext::without_failures(proc, ExecutionMode::Native, IntraConfig::paper())
                .unwrap();
        let params = MiniGhostParams::paper_scale(8, 4);
        run_minighost(&mut ctx, &params)
            .unwrap()
            .report
            .section_fraction()
    });
    for fraction in report.unwrap_results() {
        assert!(
            fraction < 0.35,
            "grid-sum sections should be a small fraction, got {fraction:.2}"
        );
    }
}

/// Bits of `(total_charge, kinetic)` of each logical process of a GTC run,
/// recorded before the particle path was optimised.  `GtcParams::small`
/// on 2 logical processes:
const GTC_SMALL_BITS: [(u64, u64); 2] = [
    (0x40af_4000_0000_0001, 0x40cd_4a0a_4c32_8cfa),
    (0x40af_4000_0000_0000, 0x40e2_1436_5a8c_4d5f),
];
/// The catalog's `GtcParams::paper_scale` at `ExperimentScale::Small`.
const GTC_PAPER_SMALL_BITS: [(u64, u64); 4] = [
    (0x40af_4000_0000_0002, 0x40d3_e67c_7174_c347),
    (0x40af_3fff_ffff_fffc, 0x40e9_8942_1837_83ab),
    (0x40af_4000_0000_0002, 0x40cd_0054_e841_ebda),
    (0x40af_4000_0000_0000, 0x40e4_f116_ebf0_2c79),
];

/// The conserved total charge, which is all a golden or `sim_digest`
/// carries, cannot see a particle move; the kinetic diagnostic can.  Every
/// replica of a logical process, in every mode, must reproduce the same
/// bits of both.
#[test]
fn gtc_physics_is_pinned_bit_for_bit() {
    let small = ExperimentScale::Small;
    assert_eq!(GTC_PAPER_SMALL_BITS.len(), small.fig6_logical_procs());
    let cases: [(GtcParams, &[(u64, u64)]); 2] = [
        (GtcParams::small(4000, 5), &GTC_SMALL_BITS),
        (
            GtcParams::paper_scale(small.actual_particles(), small.app_iterations()),
            &GTC_PAPER_SMALL_BITS,
        ),
    ];
    for (params, pinned) in cases {
        for (mode, procs) in modes(pinned.len()) {
            let report = run_cluster(&ClusterConfig::ideal(procs), move |proc| {
                let mut ctx =
                    AppContext::without_failures(proc, mode, IntraConfig::paper()).unwrap();
                let out = run_gtc(&mut ctx, &params).unwrap();
                let logical = ctx.env.rcomm().logical_rank();
                (logical, out.total_charge.to_bits(), out.kinetic.to_bits())
            });
            for (logical, charge, kinetic) in report.unwrap_results() {
                assert_eq!(
                    (charge, kinetic),
                    pinned[logical],
                    "mode {mode:?}, logical process {logical}: {params:?}"
                );
            }
        }
    }
}

const TASKS: usize = 8;
const N: usize = 64;

/// One section of eight tasks of uneven cost (so that summed times round),
/// each scaling its chunk of `x` in place and saving the old values in `w`.
fn uneven_section(
    ctx: &mut AppContext,
    ws: &mut Workspace,
    (x, w): (VarId, VarId),
    index: usize,
) -> IntraResult<SectionReport> {
    let mut section = ctx.rt.section(ws);
    for (t, chunk) in split_ranges(N, TASKS).into_iter().enumerate() {
        let flops = 1e6 * (1 + index * TASKS + t) as f64 / 3.0;
        let task = TaskDef::new(
            "scale",
            |c| {
                for i in 0..c.outputs[0].len() {
                    c.outputs[1][i] = c.outputs[0][i];
                    c.outputs[0][i] *= 1.5;
                }
            },
            vec![ArgSpec::inout(x, chunk.clone()), ArgSpec::output(w, chunk)],
        );
        section.add_task(task.with_cost(TaskCost::new(flops, flops)))?;
    }
    section.end()
}

/// Runs `before` sections, starts the measurement, runs `measured` more,
/// and returns what `finish` reports with the measured sections' reports.
fn measured_region(
    ctx: &mut AppContext,
    before: usize,
    measured: usize,
) -> IntraResult<(AppRunReport, Vec<SectionReport>)> {
    let mut ws = Workspace::new();
    let x = ws.add("x", (0..N).map(|i| i as f64).collect());
    let w = ws.add_zeros("w", N);
    for index in 0..before {
        let _ = uneven_section(ctx, &mut ws, (x, w), index)?;
    }
    ctx.start_measurement();
    let reports = (before..before + measured)
        .map(|index| uneven_section(ctx, &mut ws, (x, w), index))
        .collect::<IntraResult<Vec<_>>>()?;
    Ok((ctx.finish(measured, 0.0), reports))
}

/// `finish` reports the measured region only: after `start_measurement`,
/// its section totals are the field-wise sums of the reports the measured
/// sections returned, times to the bit (summed from zero in section
/// order), whether work is shared or not and whether a replica crashes
/// inside the region.
#[test]
fn finish_sums_exactly_the_sections_after_start_measurement() {
    const BEFORE: usize = 2;
    const MEASURED: usize = 3;
    let intra2 = ExecutionMode::IntraParallel { degree: 2 };
    // Static block scheduling gives replica 1 tasks 4..8; it dies in the
    // second measured section after shipping the first of task 4's two
    // outputs.
    let crash = ProtocolPoint::MidUpdateSend {
        section: BEFORE + 1,
        task: 4,
        vars_sent: 1,
    };
    for (label, mode, crash) in [
        ("native", ExecutionMode::Native, None),
        ("intra2", intra2, None),
        ("intra2, replica 1 crashes", intra2, Some(crash)),
    ] {
        let report = run_cluster(&ClusterConfig::new(mode.degree()), move |proc| {
            let injector = FailureInjector::none();
            if let Some(point) = crash {
                injector.arm(1, point);
            }
            let mut ctx = AppContext::new(proc, mode, IntraConfig::paper(), injector)?;
            measured_region(&mut ctx, BEFORE, MEASURED)
        });
        for (rank, result) in report.unwrap_results().into_iter().enumerate() {
            let (finished, sections) = match result {
                Ok(out) => out,
                Err(e) => {
                    assert!(crash.is_some() && rank == 1, "{label}: rank {rank}: {e}");
                    continue;
                }
            };
            let time = |f: fn(&SectionReport) -> SimTime| {
                let sum = sections.iter().map(f).fold(SimTime::ZERO, |a, t| a + t);
                sum.as_secs().to_bits()
            };
            let count = |f: fn(&SectionReport) -> usize| sections.iter().map(f).sum::<usize>();
            let totals = (
                finished.sections.count,
                finished.sections.section_time.as_secs().to_bits(),
                finished.sections.update_drain_time.as_secs().to_bits(),
                finished.sections.tasks_executed,
                finished.sections.tasks_received,
                finished.sections.tasks_reexecuted,
                finished.sections.replica_failures_observed,
                finished.sections.update_bytes_sent,
            );
            let sums = (
                MEASURED,
                time(SectionReport::total_time),
                time(SectionReport::update_drain_time),
                count(|s| s.tasks_executed_locally),
                count(|s| s.tasks_received),
                count(|s| s.tasks_reexecuted),
                count(|s| s.replica_failures_observed),
                count(|s| s.update_bytes_sent),
            );
            assert_eq!(totals, sums, "{label}: rank {rank}");
            assert!(finished.sections.section_time > SimTime::ZERO, "{label}");
            if crash.is_some() {
                assert!(finished.sections.tasks_reexecuted > 0, "{label}");
                assert!(finished.sections.replica_failures_observed > 0, "{label}");
            }
        }
    }
}
