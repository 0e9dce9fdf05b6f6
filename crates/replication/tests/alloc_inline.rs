//! Allocation budget of *small* logical sends: the inline-payload path.
//!
//! Payloads that fit [`bytes::Bytes::INLINE_CAP`] (64 bytes) are carried
//! inline in the envelope — nothing for the allocator to do per message.
//! One byte over the cap and both ends must materialize a real vector, so
//! the boundary is observable from allocation counts alone.  This binary (separate from `alloc_counting.rs` so each test
//! binary owns its `#[global_allocator]` and threshold) measures the
//! *marginal* allocation cost of a logical send by differencing two runs
//! that differ only in message count — cluster setup, replica spawning and
//! warmup cancel out exactly.
//!
//! What the boundary case counts: the sender's frame (one `Vec` per logical
//! send, shared by reference count across the fan-out) and the vector each
//! consuming receiver deserializes the payload into.

use replication::ReplicatedComm;
use simmpi::{run_cluster, ClusterConfig};

#[global_allocator]
static ALLOC: alloc_counter::CountingAllocator = alloc_counter::CountingAllocator;

const DEGREE: usize = 2;

/// Runs a 2-logical-rank × [`DEGREE`]-replica cluster in which logical rank
/// 0 streams `sends` messages of `elems` f64s to logical rank 1, and returns
/// the whole run's large-allocation count.
fn large_allocs(elems: usize, sends: u64) -> u64 {
    let data: Vec<f64> = (0..elems).map(|i| i as f64 * 0.5).collect();
    let config = ClusterConfig::ideal(2 * DEGREE);
    let before = alloc_counter::snapshot();
    let report = run_cluster(&config, move |proc| {
        let world = proc.world();
        let rcomm = ReplicatedComm::new(world, DEGREE).unwrap();
        // Sends are eager, so the barrier forces one interleaving: every
        // message is queued before the first receive.  Left to the host
        // scheduler, a receiver that keeps pace empties its mailbox lane
        // after every message and each send re-creates the lane's queue —
        // an allocation per send that has nothing to do with the payload.
        if rcomm.logical_rank() == 0 {
            for _ in 0..sends {
                rcomm.send_logical(&data, 1, 9).unwrap();
            }
            rcomm.world().barrier().unwrap();
        } else {
            rcomm.world().barrier().unwrap();
            for _ in 0..sends {
                let v: Vec<f64> = rcomm.recv_logical(0, 9).unwrap();
                assert_eq!(v.len(), elems);
            }
        }
    });
    assert!(!report.any_panicked());
    alloc_counter::since(&before).large_allocs
}

/// Marginal large allocations per extra logical send, isolated by
/// differencing a short and a long run of the same cluster shape.
fn marginal_allocs_per_send(elems: usize) -> f64 {
    const SHORT: u64 = 8;
    const LONG: u64 = 72;
    let short = large_allocs(elems, SHORT);
    let long = large_allocs(elems, LONG);
    long.saturating_sub(short) as f64 / (LONG - SHORT) as f64
}

#[test]
fn inline_threshold_separates_free_sends_from_allocating_sends() {
    // Count allocations of at least 65 bytes: one byte above the inline
    // cap, so an inline body can never trip it while the smallest
    // spilled-payload vector always does.
    const INLINE_CAP: usize = 64; // bytes::Bytes::INLINE_CAP
    assert_eq!(INLINE_CAP % std::mem::size_of::<f64>(), 0);
    alloc_counter::set_large_threshold(INLINE_CAP + 1);

    // Sub-threshold: an exactly-64-byte body rides inline end to end.  The
    // steady-state fabric is allocation-free — inline envelope on the wire,
    // inline deserialization on the receiver — so the marginal cost of a
    // send is (near) zero.  A small slack absorbs amortized container
    // growth (mailbox deques and the like).
    let inline = marginal_allocs_per_send(INLINE_CAP / 8);
    assert!(
        inline <= 0.5,
        "sub-threshold sends should be allocation-free, measured {inline:.2} \
         large allocations per send"
    );

    // Threshold boundary: one element more (72-byte body) spills.  The
    // sender builds a heap frame and each consuming receiver replica
    // materializes a payload-sized vector, so the marginal cost jumps to at
    // least one allocation per logical send.
    let spilled = marginal_allocs_per_send(INLINE_CAP / 8 + 1);
    assert!(
        spilled >= 1.0,
        "a just-over-threshold payload must allocate, \
         measured {spilled:.2} large allocations per send"
    );
}
