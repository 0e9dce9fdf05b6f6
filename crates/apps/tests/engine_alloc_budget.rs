//! Allocation budget of the event engine's steady state.
//!
//! Once a run is set up (rank slots, programs, the timer queue), dispatching
//! is supposed to allocate nothing: messages are plain values in a flat
//! per-rank inbox, and the loop reuses one send buffer for all its
//! bursts.  So three more iterations of the same workload may only cost what
//! a deeper inbox or a larger timer slab costs — growth, amortized to at
//! most one allocation per rank — where a queue per message and a buffer
//! per burst would cost tens of allocations per rank *per iteration*.
//!
//! One `#[test]` only: the counters are process-wide, and a second test
//! running on a sibling thread would leak into the window.

use apps::{run_weak_scaling, WeakMode, WeakScalingSpec};
use simmpi::VirtualClusterReport;

#[global_allocator]
static ALLOC: alloc_counter::CountingAllocator = alloc_counter::CountingAllocator;

/// Physical ranks of the run: 2 000 logical ranks, two replicas each.
const RANKS: usize = 4_000;

/// Runs the intra2 workload and returns the allocations the whole run
/// performed plus its report.
fn run(iters: usize) -> (u64, VirtualClusterReport) {
    let spec = WeakScalingSpec::new(RANKS / 2, WeakMode::Intra).with_iters(iters);
    let before = alloc_counter::snapshot();
    let report = run_weak_scaling(&spec, &[]);
    let allocs = alloc_counter::since(&before).allocs;
    assert_eq!(report.num_completed(), RANKS);
    (allocs, report)
}

#[test]
fn extra_iterations_allocate_at_most_once_per_rank() {
    let (short_allocs, short_report) = run(1);
    let (long_allocs, long_report) = run(4);
    let extra = long_allocs.saturating_sub(short_allocs);
    assert!(
        extra <= RANKS as u64,
        "iterations 2-4 cost {extra} allocations for {RANKS} ranks \
         ({short_allocs} at 1 iteration, {long_allocs} at 4)"
    );
    // The budget must not be met by computing something else: both runs
    // reproduce field for field, `dispatches` included.
    assert_eq!(short_report, run(1).1);
    assert_eq!(long_report, run(4).1);
}
