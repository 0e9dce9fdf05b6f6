//! Allocation budget of the event engine's steady state.
//!
//! Once a run is set up (rank slots, programs, the timer heap), dispatching
//! is supposed to allocate nothing: messages are plain values in a flat
//! per-rank inbox, and each worker reuses one send buffer for all its
//! bursts.  So three more iterations of the same workload may only cost what
//! a deeper inbox or a larger timer heap costs — growth, amortized to at
//! most one allocation per rank — where a queue per message and a buffer
//! per burst would cost tens of allocations per rank *per iteration*.
//!
//! One `#[test]` only: the counters are process-wide, and a second test
//! running on a sibling thread would leak into the window.

use apps::{run_weak_scaling, WeakMode, WeakScalingSpec};
use simcluster::SimTime;

#[global_allocator]
static ALLOC: alloc_counter::CountingAllocator = alloc_counter::CountingAllocator;

/// Physical ranks of the run: 2 000 logical ranks, two replicas each.
const RANKS: usize = 4_000;

/// Runs the intra2 workload and returns the allocations the whole run
/// performed plus every rank's final virtual time.
fn run(iters: usize, workers: usize) -> (u64, Vec<SimTime>) {
    let spec = WeakScalingSpec::new(RANKS / 2, WeakMode::Intra)
        .with_iters(iters)
        .with_workers(workers);
    let before = alloc_counter::snapshot();
    let report = run_weak_scaling(&spec, &[]);
    let allocs = alloc_counter::since(&before).allocs;
    assert_eq!(report.num_completed(), RANKS);
    (allocs, report.ranks.iter().map(|r| r.final_time).collect())
}

#[test]
fn extra_iterations_allocate_at_most_once_per_rank() {
    let (short_allocs, short_times) = run(1, 1);
    let (long_allocs, long_times) = run(4, 1);
    let extra = long_allocs.saturating_sub(short_allocs);
    assert!(
        extra <= RANKS as u64,
        "iterations 2-4 cost {extra} allocations for {RANKS} ranks \
         ({short_allocs} at 1 iteration, {long_allocs} at 4)"
    );
    // The budget must not be met by computing something else: both runs
    // reproduce at another worker count, rank for rank.
    assert_eq!(short_times, run(1, 2).1);
    assert_eq!(long_times, run(4, 2).1);
}
