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

// ---------------------------------------------------------------------------
// Mailbox-lane properties of the indexed router (PR 4).
// ---------------------------------------------------------------------------

mod mailbox_lanes {
    use bytes::Bytes;
    use proptest::prelude::*;
    use simcluster::{FailureStatusBoard, SimTime};
    use simmpi::{Envelope, LaneKey, MpiError, Router};
    use std::sync::{Arc, Barrier};
    use std::thread;
    use std::time::Duration;

    /// An envelope to rank 0 whose payload is `id`, the identity the tests
    /// check.
    fn env(src: usize, tag: u32, id: u64) -> Envelope {
        Envelope {
            src_world: src,
            dst_world: 0,
            comm: 1,
            tag,
            payload: Bytes::copy_from_slice(&id.to_le_bytes()),
            head: None,
            modeled_bytes: 8,
            arrival: SimTime::ZERO,
        }
    }

    fn id(env: &Envelope) -> u64 {
        u64::from_le_bytes(env.payload.to_vec().try_into().unwrap())
    }

    fn lane(src: usize, tag: u32) -> LaneKey {
        (1, src, tag)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Per-(source, tag) FIFO is preserved no matter how receives on
        /// different lanes interleave with each other: every lane hands out
        /// its envelopes in delivery order, a receive takes exactly one
        /// envelope of the lane it names or none when the lane is empty,
        /// and draining every lane afterwards returns the rest.
        #[test]
        fn lane_fifo_survives_interleaved_receives(
            // Delivery schedule: each element encodes (src in 0..3, tag in
            // 0..3) as src * 3 + tag (the shim proptest has no tuple strategy).
            delivery_codes in proptest::collection::vec(0u8..9, 1..40),
            // Receive schedule: the lane each receive names, same encoding.
            recv_codes in proptest::collection::vec(0u8..9, 0..60),
        ) {
            let decode = |c: u8| (1 + (c / 3) as usize, (c % 3) as u32);
            let router = Router::new(4, FailureStatusBoard::new(4));
            // Shadow model: the delivery indices queued per lane.
            let mut model = std::collections::HashMap::<(usize, u32), Vec<u64>>::new();
            for (i, &code) in delivery_codes.iter().enumerate() {
                let (src, tag) = decode(code);
                router.deliver(env(src, tag, i as u64));
                model.entry((src, tag)).or_default().push(i as u64);
            }

            let mut received = 0usize;
            for &code in &recv_codes {
                let (src, tag) = decode(code);
                let before = router.queued(0);
                let expected = model.get_mut(&(src, tag)).filter(|q| !q.is_empty());
                match (router.try_match(0, &lane(src, tag)), expected) {
                    (Some(got), Some(queue)) => {
                        received += 1;
                        prop_assert_eq!(router.queued(0), before - 1);
                        prop_assert_eq!((got.src_world, got.tag), (src, tag));
                        prop_assert_eq!(id(&got), queue.remove(0));
                    }
                    (None, None) => prop_assert_eq!(router.queued(0), before),
                    (got, want) => panic!("lane ({src}, {tag}) gave {got:?}, model {want:?}"),
                }
            }

            // Drain lane by lane: each hands out exactly its remainder, in
            // delivery order.
            for ((src, tag), queue) in model {
                for want in queue {
                    let got = router.try_match(0, &lane(src, tag));
                    prop_assert_eq!(got.map(|e| id(&e)), Some(want));
                    received += 1;
                }
                prop_assert!(router.try_match(0, &lane(src, tag)).is_none());
            }
            prop_assert_eq!(received, delivery_codes.len());
            prop_assert_eq!(router.queued(0), 0);
        }
    }

    /// Four receivers parked on one mailbox under one lock, one per lane,
    /// while four sender threads interleave deliveries into all of them.
    /// Each receiver must get exactly its own messages, in per-lane FIFO
    /// order, and the mailbox must end empty; a lost or misdirected wake-up
    /// hangs a receiver.
    #[test]
    fn receivers_parked_on_one_mailbox_each_get_exactly_their_messages() {
        const PER_LANE: u64 = 200;
        let router = Arc::new(Router::new(5, FailureStatusBoard::new(5)));

        // Sources 1 and 2 feed tags 0 and 7 alternately; 3 and 4 only tag 7.
        let lanes = [lane(1, 0), lane(2, 0), lane(3, 7), lane(4, 7)];
        let receivers: Vec<_> = lanes
            .iter()
            .map(|&key| {
                let router = Arc::clone(&router);
                thread::spawn(move || {
                    (0..PER_LANE)
                        .map(|_| router.recv_blocking(0, &key).unwrap())
                        .collect::<Vec<Envelope>>()
                })
            })
            .collect();
        // Let the receivers park before the first delivery.
        thread::sleep(Duration::from_millis(10));

        let senders: Vec<_> = (1..=4usize)
            .map(|src| {
                let router = Arc::clone(&router);
                thread::spawn(move || {
                    for n in 0..PER_LANE {
                        if src <= 2 {
                            router.deliver(env(src, 0, n));
                        }
                        router.deliver(env(src, 7, n));
                    }
                })
            })
            .collect();
        for sender in senders {
            sender.join().unwrap();
        }

        for (key, got) in lanes.iter().zip(receivers) {
            let got: Vec<_> = got
                .join()
                .unwrap()
                .iter()
                .map(|e| (e.src_world, e.tag, id(e)))
                .collect();
            let want: Vec<_> = (0..PER_LANE).map(|n| (key.1, key.2, n)).collect();
            assert_eq!(got, want);
        }
        // Sources 1 and 2's tag-7 lanes had no receiver: still queued.
        assert_eq!(router.queued(0), 2 * PER_LANE as usize);
        for src in 1..=2 {
            for n in 0..PER_LANE {
                assert_eq!(router.try_match(0, &lane(src, 7)).map(|e| id(&e)), Some(n));
            }
        }
        assert_eq!(router.queued(0), 0);
    }

    /// Failures signalled on the board while two receivers naming different
    /// sources are parked on the same mailbox: each crash ends only the
    /// receive that names the crashed rank (`ProcessFailed`), and the other
    /// keeps waiting until its own source crashes.
    #[test]
    fn board_failure_ends_only_the_receives_it_concerns() {
        let board = FailureStatusBoard::new(3);
        let router = Arc::new(Router::new(3, board.clone()));
        let park = |key: LaneKey| {
            let router = Arc::clone(&router);
            thread::spawn(move || router.recv_blocking(0, &key))
        };
        let from_one = park(lane(1, 3));
        let from_two = park(lane(2, 3));
        thread::sleep(Duration::from_millis(30));

        board.mark_failed(1, SimTime::ZERO);
        assert_eq!(
            from_one.join().unwrap().unwrap_err(),
            MpiError::ProcessFailed { rank: 1 }
        );
        thread::sleep(Duration::from_millis(10));
        assert!(!from_two.is_finished(), "rank 2 is alive, nothing to fail");

        board.mark_failed(2, SimTime::ZERO);
        assert_eq!(
            from_two.join().unwrap().unwrap_err(),
            MpiError::ProcessFailed { rank: 2 }
        );
    }

    /// A receive checks, yields a bounded number of times, then parks.  A
    /// delivery can land in any of the three phases; the barrier releases
    /// receiver and sender together each round and the sender gives up a
    /// varying number of time slices first, so over the rounds the delivery
    /// falls before the first check, between two yields and after the park.
    /// Wherever it lands the envelope comes back exactly once, in order, and
    /// the mailbox ends empty; a wake-up lost between the last check and the
    /// park hangs the receiver.
    #[test]
    fn delivery_in_any_receive_phase_is_returned_exactly_once() {
        const ROUNDS: u64 = 600;
        let router = Arc::new(Router::new(2, FailureStatusBoard::new(2)));
        let start = Arc::new(Barrier::new(2));
        let receiver = {
            let (router, start) = (Arc::clone(&router), Arc::clone(&start));
            thread::spawn(move || {
                for round in 0..ROUNDS {
                    start.wait();
                    let got = router.recv_blocking(0, &lane(1, 3)).unwrap();
                    assert_eq!(id(&got), round);
                }
            })
        };
        for round in 0..ROUNDS {
            start.wait();
            for _ in 0..round % 6 {
                thread::yield_now();
            }
            router.deliver(env(1, 3, round));
        }
        receiver.join().unwrap();
        assert_eq!(router.queued(0), 0);
        assert!(router.try_match(0, &lane(1, 3)).is_none());
    }

    /// The three terminal conditions of a receive, raised while the receiver
    /// may be anywhere between its first check and its park (same barrier
    /// and varying head start as above, a fresh router per round): each
    /// surfaces its documented error — the yield phase re-runs the failure
    /// checks itself, the parked phase is woken by the board or by `abort`.
    #[test]
    fn failure_in_any_receive_phase_surfaces_the_documented_error() {
        const ROUNDS: usize = 150;
        type Raise = fn(&Router, &FailureStatusBoard);
        let cases: [(LaneKey, Raise, MpiError); 3] = [
            (
                lane(1, 3),
                |_, board| board.mark_failed(1, SimTime::ZERO),
                MpiError::ProcessFailed { rank: 1 },
            ),
            (
                lane(1, 3),
                |_, board| board.mark_failed(0, SimTime::ZERO),
                MpiError::SelfFailed,
            ),
            (lane(1, 3), |router, _| router.abort(), MpiError::Aborted),
        ];
        for (selector, raise, expected) in cases {
            for round in 0..ROUNDS {
                let board = FailureStatusBoard::new(2);
                let router = Router::new(2, board.clone());
                let start = Barrier::new(2);
                let got = thread::scope(|scope| {
                    let receiver = scope.spawn(|| {
                        start.wait();
                        router.recv_blocking(0, &selector)
                    });
                    start.wait();
                    for _ in 0..round % 6 {
                        thread::yield_now();
                    }
                    raise(&router, &board);
                    receiver.join().unwrap()
                });
                assert_eq!(got.unwrap_err(), expected, "round {round}");
                assert_eq!(router.queued(0), 0);
            }
        }
    }
}
