//! Property-based tests of the intra-parallelization runtime: for arbitrary
//! inputs, task counts and failure points, the work-sharing protocol must
//! produce exactly the same workspace contents as a sequential execution,
//! and all surviving replicas must agree bit for bit.

use ipr_core::assignment_makespan;
use ipr_core::prelude::*;
use proptest::prelude::*;
use replication::{ExecutionMode, FailureInjector, ProtocolPoint, ReplicatedEnv};
use simmpi::{run_cluster, ClusterConfig};

/// Sequential reference: w[i] = alpha*x[i] + beta*y[i], then y scaled by 0.5
/// in place (an inout step).
fn reference(alpha: f64, beta: f64, x: &[f64], y: &[f64]) -> (Vec<f64>, Vec<f64>) {
    let w: Vec<f64> = x.iter().zip(y).map(|(a, b)| alpha * a + beta * b).collect();
    let y2: Vec<f64> = y.iter().map(|v| v * 0.5).collect();
    (w, y2)
}

/// Per-process outcome: the `w` and `y` vectors plus the workspace
/// fingerprint, or the error message of a crashed replica.
type SharedOutcome = Result<(Vec<f64>, Vec<f64>, u64), String>;

fn run_shared(
    alpha: f64,
    beta: f64,
    x_data: Vec<f64>,
    y_data: Vec<f64>,
    tasks: usize,
    degree: usize,
    failure: Option<(usize, ProtocolPoint)>,
) -> Vec<SharedOutcome> {
    let n = x_data.len();
    let report = run_cluster(&ClusterConfig::ideal(degree), move |proc| {
        let injector = FailureInjector::none();
        if let Some((rank, point)) = failure {
            injector.arm(rank, point);
        }
        let env =
            ReplicatedEnv::new(proc, ExecutionMode::IntraParallel { degree }, injector).unwrap();
        let mut rt = IntraRuntime::new(env, IntraConfig::paper().with_tasks_per_section(tasks));
        let mut ws = Workspace::new();
        let x = ws.add("x", x_data.clone());
        let y = ws.add("y", y_data.clone());
        let w = ws.add_zeros("w", n);
        let mut section = rt.section(&mut ws);
        section
            .add_split(n, |chunk| {
                TaskDef::new(
                    "waxpby_then_scale",
                    move |c| {
                        // inputs[0] = x chunk; outputs[0] = w chunk (out),
                        // outputs[1] = y chunk (inout).
                        let x = &c.inputs[0];
                        for (i, &xi) in x.iter().enumerate() {
                            c.outputs[0][i] = alpha * xi + beta * c.outputs[1][i];
                            c.outputs[1][i] *= 0.5;
                        }
                    },
                    vec![
                        ArgSpec::input(x, chunk.clone()),
                        ArgSpec::output(w, chunk.clone()),
                        ArgSpec::inout(y, chunk),
                    ],
                )
            })
            .unwrap();
        match section.end() {
            Ok(_) => Ok((ws.get(w).to_vec(), ws.get(y).to_vec(), ws.fingerprint())),
            Err(e) => Err(format!("{e}")),
        }
    });
    report
        .results
        .into_iter()
        .map(|r| r.expect("no process panicked"))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn shared_execution_matches_sequential_reference(
        alpha in -3.0f64..3.0,
        beta in -3.0f64..3.0,
        xs in proptest::collection::vec(-100.0f64..100.0, 1..80),
        tasks in 1usize..12,
        degree in 2usize..4,
    ) {
        let ys: Vec<f64> = xs.iter().map(|v| v * 0.25 - 1.0).collect();
        let (w_ref, y_ref) = reference(alpha, beta, &xs, &ys);
        let results = run_shared(alpha, beta, xs, ys, tasks, degree, None);
        let mut fingerprints = Vec::new();
        for r in results {
            let (w, y, fp) = r.expect("no failure injected, every replica succeeds");
            for i in 0..w.len() {
                prop_assert!((w[i] - w_ref[i]).abs() < 1e-9, "w[{i}]");
                prop_assert!((y[i] - y_ref[i]).abs() < 1e-9, "y[{i}]");
            }
            fingerprints.push(fp);
        }
        // All replicas hold bit-identical workspaces.
        prop_assert!(fingerprints.windows(2).all(|p| p[0] == p[1]));
    }

    #[test]
    fn any_single_crash_point_still_yields_the_reference_result(
        xs in proptest::collection::vec(-50.0f64..50.0, 8..64),
        crash_task in 0usize..8,
        crash_kind in 0usize..4,
        crashing_replica in 0usize..2,
    ) {
        let tasks = 8usize;
        let alpha = 2.0;
        let beta = -1.0;
        let ys: Vec<f64> = xs.iter().map(|v| v + 3.0).collect();
        let (w_ref, y_ref) = reference(alpha, beta, &xs, &ys);
        let point = match crash_kind {
            0 => ProtocolPoint::SectionEnter { section: 0 },
            1 => ProtocolPoint::BeforeUpdateSend { section: 0, task: crash_task },
            2 => ProtocolPoint::MidUpdateSend { section: 0, task: crash_task, vars_sent: 1 },
            _ => ProtocolPoint::AfterUpdateSend { section: 0, task: crash_task },
        };
        let results = run_shared(
            alpha,
            beta,
            xs,
            ys,
            tasks,
            2,
            Some((crashing_replica, point)),
        );
        // Whether the injection fires depends on whether the crashing replica
        // owns `crash_task`; in every case, all replicas that complete the
        // section must hold the reference result.
        let mut survivors = 0;
        for (w, y, _) in results.into_iter().flatten() {
            survivors += 1;
            for i in 0..w.len() {
                prop_assert!((w[i] - w_ref[i]).abs() < 1e-9);
                prop_assert!((y[i] - y_ref[i]).abs() < 1e-9);
            }
        }
        prop_assert!(survivors >= 1, "at least one replica must survive");
    }

    #[test]
    fn split_ranges_always_partition(total in 0usize..5000, parts in 1usize..64) {
        let ranges = split_ranges(total, parts);
        // Contiguous, ordered, covering exactly 0..total.
        let mut cursor = 0usize;
        for r in &ranges {
            prop_assert_eq!(r.start, cursor);
            prop_assert!(r.end > r.start);
            cursor = r.end;
        }
        prop_assert_eq!(cursor, total);
        prop_assert!(ranges.len() <= parts.max(1));
        // Balanced: sizes differ by at most one.
        if let (Some(max), Some(min)) = (
            ranges.iter().map(|r| r.len()).max(),
            ranges.iter().map(|r| r.len()).min(),
        ) {
            prop_assert!(max - min <= 1);
        }
    }

    #[test]
    fn split_ranges_cover_each_index_exactly_once(n in 0usize..3000, parts in 1usize..128) {
        // Complement of `split_ranges_always_partition`: prove the partition
        // property (disjoint + covering + ordered) without assuming the
        // chunks are contiguous — every index of 0..n is hit exactly once.
        let ranges = split_ranges(n, parts);
        let mut hits = vec![0u32; n];
        for r in &ranges {
            for i in r.clone() {
                prop_assert!(i < n, "chunk {r:?} escapes 0..{n}");
                hits[i] += 1;
            }
        }
        prop_assert!(
            hits.iter().all(|&h| h == 1),
            "some index covered != once for n={n}, parts={parts}"
        );
        // Strictly ordered and pairwise disjoint, no empty chunks.
        prop_assert!(ranges.iter().all(|r| !r.is_empty()));
        for pair in ranges.windows(2) {
            prop_assert!(pair[0].end <= pair[1].start);
        }
    }

    #[test]
    fn adaptive_is_deterministic_across_alive_replica_subsets(
        weights in proptest::collection::vec(0.01f64..100.0, 0..48),
        alive_mask in 1u8..15,
    ) {
        // Failure-driven rescheduling recomputes the assignment on every
        // replica independently, over whatever replica subset it passes in;
        // the adaptive scheduler must be a pure function of its inputs.
        let alive: Vec<usize> = (0..4).filter(|i| alive_mask & (1 << i) != 0).collect();
        let s = SchedulerKind::Adaptive;
        let first = s.assign(&weights, &alive);
        prop_assert_eq!(&first, &s.assign(&weights, &alive));
        prop_assert_eq!(&first, &SchedulerKind::Adaptive.assign(&weights, &alive));
        prop_assert_eq!(first.len(), weights.len());
        for r in &first {
            prop_assert!(alive.contains(r));
        }
        // Restricting to a smaller subset must still be deterministic and
        // valid (the full-set and subset assignments legitimately differ).
        let sub: Vec<usize> = alive[..1].to_vec();
        let a = s.assign(&weights, &sub);
        prop_assert_eq!(&a, &s.assign(&weights, &sub));
        for r in &a {
            prop_assert!(sub.contains(r));
        }
    }

    #[test]
    fn adaptive_makespan_not_worse_than_static_block_on_heterogeneous_weights(
        n in 1usize..48,
        base in 1.05f64..2.5,
        scale in 0.1f64..10.0,
        k in 2usize..5,
    ) {
        // Heterogeneous profile: geometrically decaying weights (the shape
        // of the ABL-SCHED / ABL-ADAPT workloads).  On decreasing-ordered
        // weights, greedy LPT never loses to the paper's contiguous block
        // split, which can put all the heavy tasks in the first block.
        let weights: Vec<f64> = (0..n).map(|i| scale * base.powi(-(i as i32))).collect();
        let alive: Vec<usize> = (0..k).collect();
        let adaptive = SchedulerKind::Adaptive.assign(&weights, &alive);
        let lpt = assignment_makespan(&weights, &adaptive);
        let static_block = SchedulerKind::StaticBlock.assign(&weights, &alive);
        let block = assignment_makespan(&weights, &static_block);
        prop_assert!(
            lpt <= block * (1.0 + 1e-12),
            "adaptive makespan {} worse than static block {}",
            lpt,
            block
        );
    }

    #[test]
    fn native_and_shared_modes_agree(
        xs in proptest::collection::vec(-10.0f64..10.0, 1..40),
        tasks in 1usize..10,
    ) {
        let ys: Vec<f64> = xs.iter().map(|v| 1.0 - v).collect();
        // Shared (2 replicas).
        let shared = run_shared(1.5, 0.5, xs.clone(), ys.clone(), tasks, 2, None);
        let (w_shared, y_shared, _) = shared[0].clone().unwrap();
        // Native (1 process) through the same API.
        let xs2 = xs.clone();
        let ys2 = ys.clone();
        let report = run_cluster(&ClusterConfig::ideal(1), move |proc| {
            let env = ReplicatedEnv::without_failures(proc, ExecutionMode::Native).unwrap();
            let mut rt = IntraRuntime::new(env, IntraConfig::paper().with_tasks_per_section(tasks));
            let mut ws = Workspace::new();
            let x = ws.add("x", xs2.clone());
            let y = ws.add("y", ys2.clone());
            let w = ws.add_zeros("w", xs2.len());
            let mut section = rt.section(&mut ws);
            section
                .add_split(xs2.len(), |chunk| {
                    TaskDef::new(
                        "waxpby_then_scale",
                        |c| {
                            let x = &c.inputs[0];
                            for (i, &xi) in x.iter().enumerate() {
                                c.outputs[0][i] = 1.5 * xi + 0.5 * c.outputs[1][i];
                                c.outputs[1][i] *= 0.5;
                            }
                        },
                        vec![
                            ArgSpec::input(x, chunk.clone()),
                            ArgSpec::output(w, chunk.clone()),
                            ArgSpec::inout(y, chunk),
                        ],
                    )
                })
                .unwrap();
            let _ = section.end().unwrap();
            (ws.get(w).to_vec(), ws.get(y).to_vec())
        });
        let (w_native, y_native) = report.unwrap_results().remove(0);
        prop_assert_eq!(w_shared, w_native);
        prop_assert_eq!(y_shared, y_native);
    }
}
