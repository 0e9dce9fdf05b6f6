//! End-to-end tests of the mini-applications in the three execution modes.

use apps::{
    run_amg, run_gtc, run_hpccg, run_minighost, AmgParams, AmgSolver, AppContext, ExperimentScale,
    GtcParams, HpccgParams, MiniGhostParams,
};
use ipr_core::IntraConfig;
use replication::{ExecutionMode, FailureInjector, ProtocolPoint};
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
                assert!(out.report.sections > 0, "mode {mode:?}: no sections");
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
        assert!(r.sections > 0);
        assert!(r.update_bytes_sent > 0, "intra mode must ship updates");
        // ddot + sparsemv sections: each replica executes about half of the
        // tasks of every section.
        assert!(r.tasks_executed < r.sections * 8);
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
        let snapshot_bytes: usize = ctx
            .rt
            .report()
            .sections()
            .iter()
            .map(|s| s.inout_snapshot_bytes)
            .sum();
        (out.kinetic, snapshot_bytes)
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
