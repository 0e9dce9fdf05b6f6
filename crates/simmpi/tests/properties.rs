//! Property-based tests of the simulated MPI runtime: collective results
//! must match their sequential definitions for arbitrary inputs and sizes,
//! the virtual clock must never run backwards, and the typed payload views
//! hold exactly when their documented conditions do.

use proptest::prelude::*;
use simmpi::{run_cluster, ClusterConfig};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn allreduce_matches_sequential_sum(
        n in 1usize..9,
        values in proptest::collection::vec(-1e3f64..1e3, 1..6),
    ) {
        let values_per_rank = values.clone();
        let report = run_cluster(&ClusterConfig::ideal(n), move |proc| {
            let world = proc.world();
            // Every rank contributes rank-dependent values.
            let mine: Vec<f64> = values_per_rank
                .iter()
                .map(|v| v * (world.rank() as f64 + 1.0))
                .collect();
            world.allreduce(&mine, |a, b| a + b).unwrap()
        });
        let results = report.unwrap_results();
        let factor: f64 = (1..=n).map(|r| r as f64).sum();
        for got in results {
            for (g, v) in got.iter().zip(&values) {
                prop_assert!((g - v * factor).abs() < 1e-6 * (1.0 + v.abs() * factor.abs()));
            }
        }
    }

    #[test]
    fn point_to_point_preserves_arbitrary_payloads(
        payload in proptest::collection::vec(any::<f64>().prop_filter("finite", |v| v.is_finite()), 0..64),
        tag in 0u32..1000,
    ) {
        let sent = payload.clone();
        let report = run_cluster(&ClusterConfig::ideal(2), move |proc| {
            let world = proc.world();
            if world.rank() == 0 {
                world.send(&sent, 1, tag).unwrap();
                Vec::new()
            } else {
                world.recv::<f64>(0, tag).unwrap()
            }
        });
        let results = report.unwrap_results();
        prop_assert_eq!(&results[1], &payload);
    }

    #[test]
    fn concurrent_senders_keep_per_source_fifo_order(
        senders in 1usize..6,
        messages in 1usize..12,
        tag in 0u32..100,
    ) {
        // Ranks 1..=senders all blast rank 0 concurrently (each logical
        // process runs on its own host thread, so this genuinely exercises
        // the mailbox lanes under contention).  Rank 0 receives from each
        // source in turn and must observe every source's counter sequence
        // in send order — the per-lane FIFO guarantee — while the senders
        // keep running ahead of it.
        let report = run_cluster(&ClusterConfig::ideal(senders + 1), move |proc| {
            let world = proc.world();
            let rank = world.rank();
            if rank == 0 {
                let mut next_expected = vec![0u64; senders + 1];
                for _ in 0..messages {
                    for (src, next) in next_expected.iter_mut().enumerate().skip(1) {
                        let msg = world.recv::<u64>(src, tag).unwrap();
                        assert_eq!(
                            msg,
                            vec![src as u64, *next],
                            "source {src} delivered out of send order"
                        );
                        *next += 1;
                    }
                }
                next_expected
            } else {
                for m in 0..messages as u64 {
                    world.send(&[rank as u64, m], 0, tag).unwrap();
                }
                Vec::new()
            }
        });
        let results = report.unwrap_results();
        for (src, &count) in results[0].iter().enumerate().skip(1) {
            prop_assert_eq!(count, messages as u64, "source {} short-counted", src);
        }
    }

    #[test]
    fn virtual_clocks_are_monotone_and_consistent(
        n in 1usize..6,
        messages in 1usize..8,
    ) {
        let report = run_cluster(&ClusterConfig::new(n), move |proc| {
            let world = proc.world();
            let mut last = proc.now();
            for m in 0..messages {
                let next = (world.rank() + 1) % world.size();
                let prev = (world.rank() + world.size() - 1) % world.size();
                if world.size() > 1 {
                    world.send(&[m as f64], next, 7).unwrap();
                    let _ = world.recv::<f64>(prev, 7).unwrap();
                }
                proc.charge_compute(1e6, 1e6);
                let now = proc.now();
                assert!(now >= last, "virtual clock went backwards");
                last = now;
            }
        });
        for p in &report.procs {
            let (now, compute, comm, wait) = (
                p.final_time.as_secs(),
                p.compute_time.as_secs(),
                p.comm_time.as_secs(),
                p.wait_time.as_secs(),
            );
            prop_assert!(now >= compute);
            prop_assert!(comm >= wait);
            prop_assert!(now + 1e-12 >= compute + comm * 0.0); // sanity: all finite, non-negative
            prop_assert!(now.is_finite() && compute >= 0.0 && comm >= 0.0 && wait >= 0.0);
        }
    }
}

// ---------------------------------------------------------------------------
// Typed payload views: `typed_view`, `copy_into` and `to_payload` against
// their documented conditions, on arbitrary bytes at every offset of an
// 8-aligned buffer.
// ---------------------------------------------------------------------------

mod payload_views {
    use proptest::prelude::*;
    use simmpi::{copy_into, from_bytes, to_bytes, to_payload, typed_view, MpiError, Pod};

    /// Checks every documented condition for element type `T` on `bytes`;
    /// `dst_pick` chooses a `copy_into` destination one element short,
    /// exact, or one or two elements long.
    fn check<T: Pod>(bytes: &[u8], dst_pick: usize) {
        let len = bytes.len();
        let viewable = cfg!(target_endian = "little")
            && len.is_multiple_of(T::SIZE)
            && (bytes.as_ptr() as usize).is_multiple_of(std::mem::align_of::<T>());
        let view = typed_view::<T>(bytes);
        assert_eq!(
            view.is_some(),
            viewable,
            "len {len} at {:p}",
            bytes.as_ptr()
        );
        if let Some(view) = view {
            // Bitwise: arbitrary bytes include NaN payloads.
            assert_eq!(to_bytes(view), to_bytes(&from_bytes::<T>(bytes).unwrap()));
        }

        let n = len / T::SIZE;
        let dst_len = n.saturating_sub(1) + dst_pick;
        let mut dst = from_bytes::<T>(&vec![0u8; dst_len * T::SIZE]).unwrap();
        let expected = if !len.is_multiple_of(T::SIZE) || n < dst_len {
            Err(MpiError::TypeMismatch {
                bytes: len,
                elem_size: T::SIZE,
            })
        } else if n > dst_len {
            Err(MpiError::Truncated {
                got: len,
                capacity: dst_len * T::SIZE,
            })
        } else {
            Ok(())
        };
        assert_eq!(
            copy_into(bytes, &mut dst),
            expected,
            "len {len} into {dst_len}"
        );
        if expected.is_ok() {
            assert_eq!(to_bytes(&dst), bytes);
        }

        let values = from_bytes::<T>(&bytes[..n * T::SIZE]).unwrap();
        assert_eq!(&to_payload(&values)[..], &to_bytes(&values)[..]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn typed_views_and_copies_hold_exactly_their_documented_conditions(
            data in proptest::collection::vec(any::<u8>(), 0..160),
            offset in 0usize..8,
            dst_pick in 0usize..4,
        ) {
            // Place `data` at `offset` bytes past an 8-aligned address.
            let mut backing = vec![0u8; data.len() + offset + 8];
            let base = backing.as_ptr().align_offset(8) + offset;
            backing[base..base + data.len()].copy_from_slice(&data);
            let bytes = &backing[base..base + data.len()];
            check::<f64>(bytes, dst_pick);
            check::<u32>(bytes, dst_pick);
            check::<u16>(bytes, dst_pick);
        }
    }
}
