//! Allocation budget of the event engine.
//!
//! A run allocates its rank table, its programs' shared state and its timer
//! queue once; every queued message of the run lives in one slab that grows
//! by doubling to the run's high-water mark, a rank's inbox is two links into
//! it, and the loop reuses one send buffer for all its bursts.  Nothing is
//! allocated per rank, so:
//!
//! * the allocations of a run do not grow with its ranks — a run four times
//!   as wide may only cost the few extra doublings of those shared tables,
//!   where a buffer per inbox costs one allocation per rank;
//! * three more iterations of the same workload may only cost what a deeper
//!   slab or a larger timer queue costs — at most one allocation per rank,
//!   where a queue per message and a buffer per burst would cost tens of
//!   allocations per rank *per iteration*.
//!
//! One `#[test]` only: the counters are process-wide, and a second test
//! running on a sibling thread would leak into the window.

use apps::{run_weak_scaling, WeakMode, WeakScalingSpec};
use simmpi::VirtualClusterReport;

#[global_allocator]
static ALLOC: alloc_counter::CountingAllocator = alloc_counter::CountingAllocator;

/// Logical ranks of the narrow run (two replicas each in intra2 mode).
const LOGICAL: usize = 2_000;

/// Logical ranks of the wide run.
const WIDE: usize = 4 * LOGICAL;

/// Allocations the wide run may make beyond the narrow one.
const WIDTH_BUDGET: u64 = 512;

/// Runs the intra2 workload and returns the allocations the whole run
/// performed plus its report.
fn run(logical: usize, iters: usize) -> (u64, VirtualClusterReport) {
    let spec = WeakScalingSpec::new(logical, WeakMode::Intra).with_iters(iters);
    let before = alloc_counter::snapshot();
    let report = run_weak_scaling(&spec, &[]);
    let allocs = alloc_counter::since(&before).allocs;
    assert_eq!(report.num_completed(), 2 * logical);
    (allocs, report)
}

#[test]
fn allocations_grow_with_neither_ranks_nor_iterations() {
    let (short_allocs, short_report) = run(LOGICAL, 1);
    let (wide_allocs, _) = run(WIDE, 1);
    let (long_allocs, long_report) = run(LOGICAL, 4);
    let wider = wide_allocs.saturating_sub(short_allocs);
    assert!(
        wider <= WIDTH_BUDGET,
        "{WIDE} logical ranks cost {wider} more allocations than {LOGICAL} \
         ({short_allocs} against {wide_allocs}; budget {WIDTH_BUDGET})"
    );
    let ranks = 2 * LOGICAL as u64;
    let extra = long_allocs.saturating_sub(short_allocs);
    assert!(
        extra <= ranks,
        "iterations 2-4 cost {extra} allocations for {ranks} ranks \
         ({short_allocs} at 1 iteration, {long_allocs} at 4)"
    );
    // The budget must not be met by computing something else: both runs
    // reproduce field for field, `dispatches` included.
    assert_eq!(short_report, run(LOGICAL, 1).1);
    assert_eq!(long_report, run(LOGICAL, 4).1);
}
