//! Heap footprint of the event engine, per simulated rank.
//!
//! What a run holds at once decides how many logical ranks fit in one
//! process: the rank slots (program, clock, receive state, inbox), the
//! waiter lists, the placement, the timer queue and the report.  The peak
//! of live heap bytes over a whole intra2 run, divided by its physical
//! ranks, is a deterministic function of those layouts — unlike the
//! resident set, it does not move with the allocator's caching or the host —
//! so it is pinned here with little headroom: a field added to a slot, or a
//! per-rank vector beside the slots, fails this test.
//!
//! One `#[test]` only: the counters are process-wide, and a second test
//! running on a sibling thread would leak into the window.

use apps::{run_weak_scaling, WeakMode, WeakScalingSpec};

#[global_allocator]
static ALLOC: alloc_counter::CountingAllocator = alloc_counter::CountingAllocator;

/// Logical ranks of the measured run (two replicas each in intra2 mode).
const LOGICAL: usize = 10_000;

/// Peak live heap bytes per physical rank the run may reach.
const BYTES_PER_RANK_BUDGET: i64 = 200;

#[test]
fn peak_heap_per_rank_stays_within_budget() {
    let spec = WeakScalingSpec::new(LOGICAL, WeakMode::Intra).with_iters(1);
    alloc_counter::reset_peak();
    let base = alloc_counter::live_bytes();
    let report = run_weak_scaling(&spec, &[]);
    let peak = alloc_counter::peak_live_bytes() - base;
    assert_eq!(report.num_completed(), spec.num_procs());
    let per_rank = peak / spec.num_procs() as i64;
    println!("peak {peak} bytes, {per_rank} bytes per physical rank");
    assert!(
        per_rank <= BYTES_PER_RANK_BUDGET,
        "{} physical ranks peaked at {peak} live heap bytes, {per_rank} per rank \
         (budget {BYTES_PER_RANK_BUDGET})",
        spec.num_procs()
    );
}
