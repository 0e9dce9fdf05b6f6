//! Heap footprint of the thread world's application runs, per simulated rank.
//!
//! A figure run spawns one rank thread per physical process, so what each
//! rank holds at once — its workspace, its task context, the update
//! payloads in flight, its mailboxes — decides how many simulated ranks fit
//! in one host.  The peak of live heap bytes over a run, divided by its
//! physical ranks, is counted by `shims/alloc-counter`: unlike the resident
//! set it does not move with the allocator's caching or the host, and
//! little with thread timing, so it is pinned here with little headroom.
//! GTC is the gate: its particles are the largest per-rank state of the
//! catalog, and its push tasks carry the `inout` arguments whose snapshot
//! the protocol charges to the virtual clock without copying.  A second
//! copy of the particles, or a per-section snapshot buffer, fails this test.
//!
//! One `#[test]` runs by default: the counters are process-wide, and a
//! second test running on a sibling thread would leak into the window.  The
//! `#[ignore]`d table (`make footprint`) runs alone for the same reason.

use apps::{run_app, AppContext, AppId, AppWorkload, ExperimentScale};
use ipr_core::IntraConfig;
use replication::ExecutionMode;
use simmpi::{run_cluster, ClusterConfig};

#[global_allocator]
static ALLOC: alloc_counter::CountingAllocator = alloc_counter::CountingAllocator;

/// Logical processes of every measured run.
const LOGICAL: usize = 4;

const MODES: [(&str, ExecutionMode); 3] = [
    ("native", ExecutionMode::Native),
    ("replicated2", ExecutionMode::Replicated { degree: 2 }),
    ("intra2", ExecutionMode::IntraParallel { degree: 2 }),
];

/// Peak live heap bytes per physical rank of `app` on `LOGICAL` logical
/// processes in `mode`.
fn peak_per_rank(app: AppId, mode: ExecutionMode, workload: AppWorkload) -> i64 {
    let procs = LOGICAL * mode.degree();
    alloc_counter::reset_peak();
    let base = alloc_counter::live_bytes();
    let report = run_cluster(&ClusterConfig::new(procs), move |proc| {
        let mut ctx = AppContext::without_failures(proc, mode, IntraConfig::paper()).unwrap();
        run_app(&mut ctx, app, &workload).is_ok()
    });
    let peak = alloc_counter::peak_live_bytes() - base;
    assert!(
        report.unwrap_results().into_iter().all(|ok| ok),
        "{app:?} {mode:?}"
    );
    peak / procs as i64
}

/// GTC at the `full` scale's 20 000 particles per logical process, for two
/// steps: every buffer reaches its size in the first.
const GTC: AppWorkload = AppWorkload {
    grid_edge: 8,
    particles: 20_000,
    iterations: 2,
};

/// Peak live heap bytes per physical rank GTC may reach in each mode of
/// [`MODES`].  Every rank holds its particles once (positions and
/// velocities, 320 000 bytes, in the workspace), its densities and its
/// task context (about 70 000 bytes): measured 375 000–396 000 in native
/// and replicated2, the spread being which ranks overlap in time.
/// An intra2 rank adds the updates it has shipped and its peer has not
/// received yet — at most one push section's, 4 tasks × 2 arguments ×
/// 20 000 bytes — so it peaks at about 560 000 bytes when every pair
/// reaches the end of its local work at once (measured 446 000–506 000).
/// A second copy of the particles adds 320 000 bytes everywhere, a
/// physical `inout` snapshot as much to intra2.
const GTC_BUDGET_PER_RANK: [i64; 3] = [410_000, 410_000, 575_000];

#[test]
fn gtc_peak_heap_per_rank_stays_within_budget() {
    assert_eq!(ExperimentScale::Full.actual_particles(), GTC.particles);
    for ((label, mode), budget) in MODES.into_iter().zip(GTC_BUDGET_PER_RANK) {
        let per_rank = peak_per_rank(AppId::Gtc, mode, GTC);
        println!("gtc {label}: {per_rank} bytes per physical rank (budget {budget})");
        assert!(
            per_rank <= budget,
            "gtc {label} on {LOGICAL} logical processes peaked at {per_rank} live heap \
             bytes per physical rank (budget {budget})"
        );
    }
}

/// The per-layer table: every application in every mode at the `full`
/// scale on `LOGICAL` logical processes, peak live heap per physical rank.
/// Manual (`make footprint`, release mode); it gates nothing.
#[test]
#[ignore = "manual table: make footprint"]
fn print_peak_heap_per_rank_of_every_app_and_mode() {
    let scale = ExperimentScale::Full;
    let workload = AppWorkload {
        grid_edge: scale.actual_grid_edge(),
        particles: scale.actual_particles(),
        iterations: scale.app_iterations(),
    };
    println!("peak live heap per physical rank, KB ({LOGICAL} logical processes, full)");
    println!(
        "{:<12}{:>12}{:>14}{:>10}",
        "app", "native", "replicated2", "intra2"
    );
    for app in AppId::ALL {
        let kb = MODES.map(|(_, mode)| peak_per_rank(app, mode, workload) as f64 / 1024.0);
        println!(
            "{:<12}{:>12.1}{:>14.1}{:>10.1}",
            app.name(),
            kb[0],
            kb[1],
            kb[2]
        );
    }
}
