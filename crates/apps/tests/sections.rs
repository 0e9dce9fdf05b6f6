//! The shared section shapes against the sequential kernels they wrap.
//!
//! Whatever the configuration — native, two replicas sharing the tasks, two
//! replicas each running the kernel redundantly, or two replicas of which
//! one crashes in the middle of sending an update — a kernel of
//! `apps::sections` must leave exactly the bits `kernels::vecops` /
//! `CsrMatrix::spmv` compute on the same data.

use apps::sections::{exchange_ghost_planes, exchange_z_planes, KernelSpec, Reduction};
use apps::AppContext;
use ipr_core::{split_ranges, IntraConfig, IntraError, IntraResult, Workspace};
use kernels::sparse::CsrMatrix;
use kernels::vecops;
use replication::{ExecutionMode, FailureInjector, ProtocolPoint};
use simmpi::{run_cluster, ClusterConfig};
use std::sync::Arc;

const INTRA2: ExecutionMode = ExecutionMode::IntraParallel { degree: 2 };

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// Runs `body(ctx, intra)` on one logical process in the four
/// configurations and returns what each surviving rank produced.
fn in_every_configuration<T, F>(body: F) -> Vec<(&'static str, T)>
where
    T: Send,
    F: Fn(&mut AppContext, bool) -> IntraResult<T> + Send + Sync + Copy,
{
    // Static block scheduling gives replica 1 (physical rank 1) tasks 4..8
    // of the first section; it dies after shipping one output of task 4.
    let crash = ProtocolPoint::MidUpdateSend {
        section: 0,
        task: 4,
        vars_sent: 1,
    };
    let cases = [
        ("native", ExecutionMode::Native, true, None),
        ("intra2", INTRA2, true, None),
        ("intra2, redundant", INTRA2, false, None),
        ("intra2, replica 1 crashes", INTRA2, true, Some(crash)),
    ];
    let mut out = Vec::new();
    for (label, mode, intra, crash) in cases {
        let report = run_cluster(&ClusterConfig::ideal(mode.degree()), move |proc| {
            let injector = FailureInjector::none();
            if let Some(point) = crash {
                injector.arm(1, point);
            }
            let mut ctx = AppContext::new(proc, mode, IntraConfig::paper(), injector)?;
            body(&mut ctx, intra)
        });
        for (rank, result) in report.unwrap_results().into_iter().enumerate() {
            match result {
                Ok(value) => out.push((label, value)),
                Err(e) => {
                    assert!(crash.is_some() && rank == 1, "{label}: rank {rank}: {e}");
                    assert_eq!(e, IntraError::Crashed);
                }
            }
        }
    }
    // 1 native rank + 2 + 2 + the survivor of the crash.
    assert_eq!(out.len(), 6);
    out
}

fn spec(name: &'static str, intra: bool, n: usize) -> KernelSpec {
    KernelSpec {
        name,
        intra,
        n,
        modeled_n: 8 * n,
    }
}

/// Operands three elements longer than the kernel's range, so a write past
/// `n` would show.
const N: usize = 67;
const LEN: usize = N + 3;

fn operand(seed: usize) -> Vec<f64> {
    (0..LEN)
        .map(|i| ((i * 7 + seed) % 11) as f64 * 0.37 - 1.3)
        .collect()
}

#[test]
fn waxpby_matches_the_sequential_kernel_in_all_three_aliasing_cases() {
    let (alpha, beta) = (1.7, -0.3);
    let (x, y, w) = (operand(1), operand(2), operand(3));
    let mut expected = w.clone();
    vecops::waxpby(alpha, &x[..N], beta, &y[..N], &mut expected[..N]);

    // The variable that receives the result: a third one, x itself, y itself.
    for target in 0..3 {
        let results = in_every_configuration(|ctx, intra| {
            let mut ws = Workspace::new();
            let vars = [
                ws.add("x", operand(1)),
                ws.add("y", operand(2)),
                ws.add("w", operand(3)),
            ];
            let wv = [vars[2], vars[0], vars[1]][target];
            spec("waxpby", intra, N).waxpby(ctx, &mut ws, alpha, vars[0], beta, vars[1], wv)?;
            Ok(vars.map(|v| bits(ws.get(v))))
        });
        for (label, [xs, ys, ws]) in results {
            let written = [&ws, &xs, &ys][target];
            assert_eq!(written[..N], bits(&expected[..N]), "{label}, w = {target}");
            // The tail of the target and the other variables are untouched.
            let original = [&w, &x, &y][target];
            assert_eq!(written[N..], bits(&original[N..]), "{label}, w = {target}");
            if target != 1 {
                assert_eq!(xs, bits(&x), "{label}, w = {target}");
            }
            if target != 2 {
                assert_eq!(ys, bits(&y), "{label}, w = {target}");
            }
        }
    }
}

#[test]
fn reduction_slots_and_sum_match_the_sequential_kernels() {
    let (x, y) = (operand(4), operand(5));
    let tasks = IntraConfig::paper().tasks_per_section;
    // (operation, one operand?, the sequential kernel)
    type Kernel = fn(&[f64], &[f64]) -> f64;
    let cases: [(Reduction, bool, Kernel); 3] = [
        (Reduction::Dot, false, vecops::ddot),
        (Reduction::Dot, true, vecops::ddot),
        (Reduction::Sum, true, |x, _| vecops::grid_sum(x)),
    ];
    for (case, (op, one_operand, kernel)) in cases.into_iter().enumerate() {
        let y = if one_operand { &x } else { &y };
        let slots: Vec<f64> = split_ranges(N, tasks)
            .into_iter()
            .map(|chunk| kernel(&x[chunk.clone()], &y[chunk]))
            .collect();
        let results = in_every_configuration(|ctx, intra| {
            let mut ws = Workspace::new();
            let xv = ws.add("x", operand(4));
            let yv = if one_operand {
                xv
            } else {
                ws.add("y", operand(5))
            };
            let partial = ws.add_zeros("partial", tasks);
            let local = spec("reduce", intra, N).reduce(ctx, &mut ws, op, xv, yv, partial)?;
            Ok((local.to_bits(), bits(ws.get(partial))))
        });
        for (label, (local, partial)) in results {
            if label == "intra2, redundant" {
                // One pass over the whole range, no slot written.
                assert_eq!(local, kernel(&x[..N], &y[..N]).to_bits(), "{label} {case}");
                assert_eq!(partial, bits(&vec![0.0; tasks]), "{label} {case}");
            } else {
                assert_eq!(partial, bits(&slots), "{label} {case}");
                assert_eq!(local, slots.iter().sum::<f64>().to_bits(), "{label} {case}");
            }
        }
    }
}

#[test]
fn spmv_matches_the_sequential_kernel() {
    let matrix = Arc::new(CsrMatrix::stencil27(4, 4, 4, false, false));
    let n = matrix.nrows();
    let x: Vec<f64> = (0..n).map(|i| (i % 13) as f64 * 0.21 - 0.9).collect();
    let mut expected = vec![0.0; n];
    matrix.spmv(&x, &mut expected);

    let results = in_every_configuration(|ctx, intra| {
        let mut ws = Workspace::new();
        let xv = ws.add("x", x.clone());
        let yv = ws.add("y", vec![f64::NAN; n]);
        spec("sparsemv", intra, n).spmv(ctx, &mut ws, &matrix, xv, yv)?;
        Ok((bits(ws.get(xv)), bits(ws.get(yv))))
    });
    for (label, (xs, ys)) in results {
        assert_eq!(ys, bits(&expected), "{label}");
        assert_eq!(xs, bits(&x), "{label}");
    }
}

/// The value rank `logical` holds at local index `i`.
fn cell(logical: usize, i: usize) -> f64 {
    (logical * 1000 + i) as f64
}

#[test]
fn halo_exchange_round_trips_planes_between_neighbours() {
    const PLANE: usize = 6;
    const LOCAL: usize = 4 * PLANE;
    const TAGS: (u32, u32) = (7, 8);
    for (mode, logical_procs) in [
        (ExecutionMode::Native, 1),
        (ExecutionMode::Native, 2),
        (ExecutionMode::Native, 3),
        (INTRA2, 3),
    ] {
        let procs = logical_procs * mode.degree();
        let report = run_cluster(&ClusterConfig::ideal(procs), move |proc| {
            let ctx = AppContext::without_failures(proc, mode, IntraConfig::paper())?;
            let rcomm = ctx.env.rcomm();
            let logical = rcomm.logical_rank();
            let neighbours = usize::from(logical > 0) + usize::from(logical + 1 < logical_procs);
            let mut values: Vec<f64> = (0..LOCAL).map(|i| cell(logical, i)).collect();
            values.resize(LOCAL + neighbours * PLANE, -1.0);
            exchange_ghost_planes(rcomm, TAGS, PLANE * 8, &mut values, LOCAL, PLANE)?;
            // The same exchange, planes handed over and returned.
            let planes = exchange_z_planes(
                rcomm,
                TAGS,
                PLANE * 8,
                || &values[LOCAL - PLANE..LOCAL],
                || &values[..PLANE],
            )?;
            IntraResult::Ok((logical, values, planes))
        });
        for result in report.unwrap_results() {
            let (logical, values, received) = result.unwrap();
            // What the neighbours own next to this rank: the top plane of
            // the rank below, the bottom plane of the rank above.
            let expected = [
                (logical > 0).then(|| {
                    (LOCAL - PLANE..LOCAL)
                        .map(|i| cell(logical - 1, i))
                        .collect::<Vec<f64>>()
                }),
                (logical + 1 < logical_procs)
                    .then(|| (0..PLANE).map(|i| cell(logical + 1, i)).collect()),
            ];
            assert_eq!(
                received, expected,
                "{mode:?} x{logical_procs}, rank {logical}"
            );
            let appended = expected
                .into_iter()
                .flatten()
                .flatten()
                .collect::<Vec<f64>>();
            assert_eq!(values[LOCAL..], appended[..], "ghost planes, below first");
            let local: Vec<f64> = (0..LOCAL).map(|i| cell(logical, i)).collect();
            assert_eq!(values[..LOCAL], local[..], "local values untouched");
        }
    }
}
