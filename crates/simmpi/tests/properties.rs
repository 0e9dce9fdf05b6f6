//! Property-based tests of the simulated MPI runtime: collective results
//! must match their sequential definitions for arbitrary inputs, sizes and
//! roots, and the virtual clock must never run backwards.

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
    fn bcast_from_any_root_delivers_identical_data(
        n in 2usize..9,
        root_pick in 0usize..8,
        payload in proptest::collection::vec(-1e6f64..1e6, 1..32),
    ) {
        let root = root_pick % n;
        let payload_for_root = payload.clone();
        let report = run_cluster(&ClusterConfig::ideal(n), move |proc| {
            let world = proc.world();
            let mut data = if world.rank() == root {
                payload_for_root.clone()
            } else {
                vec![0.0; payload_for_root.len()]
            };
            world.bcast(&mut data, root).unwrap();
            data
        });
        for got in report.unwrap_results() {
            prop_assert_eq!(&got, &payload);
        }
    }

    #[test]
    fn gather_scatter_round_trip(
        n in 2usize..7,
        chunk in proptest::collection::vec(-1e3f64..1e3, 1..8),
    ) {
        let chunk_len = chunk.len();
        let report = run_cluster(&ClusterConfig::ideal(n), move |proc| {
            let world = proc.world();
            // Each rank owns a distinct chunk; gather to root then scatter
            // back must return the original chunk.
            let mine: Vec<f64> = chunk.iter().map(|v| v + world.rank() as f64).collect();
            let gathered = world.gather(&mine, 0).unwrap();
            let back = world
                .scatter(gathered.as_deref(), chunk_len, 0)
                .unwrap();
            (mine, back)
        });
        for (mine, back) in report.unwrap_results() {
            prop_assert_eq!(mine, back);
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
        // the sharded mailbox lanes under contention).  Rank 0 receives with
        // wildcard source and must observe every source's counter sequence
        // in send order — the per-lane FIFO guarantee — while the sharding
        // makes no promise about interleaving *between* sources.
        let report = run_cluster(&ClusterConfig::ideal(senders + 1), move |proc| {
            let world = proc.world();
            let rank = world.rank();
            if rank == 0 {
                let mut next_expected = vec![0u64; senders + 1];
                for _ in 0..senders * messages {
                    let (msg, status) = world.recv_any::<u64>(tag).unwrap();
                    let src = status.source;
                    assert_eq!(
                        msg,
                        vec![src as u64, next_expected[src]],
                        "source {src} delivered out of send order"
                    );
                    next_expected[src] += 1;
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
            let (now, compute, comm, wait) = proc.time_breakdown();
            (now.as_secs(), compute.as_secs(), comm.as_secs(), wait.as_secs())
        });
        for (now, compute, comm, wait) in report.unwrap_results() {
            prop_assert!(now >= compute);
            prop_assert!(comm >= wait);
            prop_assert!(now + 1e-12 >= compute + comm * 0.0); // sanity: all finite, non-negative
            prop_assert!(now.is_finite() && compute >= 0.0 && comm >= 0.0 && wait >= 0.0);
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
    use simmpi::{Envelope, MatchSelector, MpiError, Router};
    use std::sync::{Arc, Barrier};
    use std::thread;
    use std::time::Duration;

    fn env(src: usize, tag: u32, seq: u64) -> Envelope {
        Envelope {
            src_world: src,
            dst_world: 0,
            comm: 1,
            tag,
            payload: Bytes::new(),
            head: None,
            modeled_bytes: 0,
            arrival: SimTime::ZERO,
            seq,
        }
    }

    fn sel(src: Option<usize>, tag: Option<u32>) -> MatchSelector {
        MatchSelector {
            comm: 1,
            src_world: src,
            tag,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Per-(source, tag) FIFO is preserved no matter how exact and
        /// wildcard receives interleave: for every lane, the envelopes a
        /// receiver extracts (through any mix of selectors) appear in
        /// delivery order, and wildcard receives always return the earliest
        /// delivered live envelope that their selector admits.
        #[test]
        fn lane_fifo_survives_interleaved_wildcard_receives(
            // Delivery schedule: each element encodes (src in 0..3, tag in
            // 0..3) as src * 3 + tag (the shim proptest has no tuple strategy).
            delivery_codes in proptest::collection::vec(0u8..9, 1..40),
            // Receive schedule: 0 = exact on a lane picked round-robin,
            // 1 = wildcard-any, 2 = tag-only wildcard, 3 = src-only wildcard.
            recv_kinds in proptest::collection::vec(0u8..4, 0..60),
        ) {
            let deliveries: Vec<(usize, u32)> = delivery_codes
                .iter()
                .map(|&c| ((c / 3) as usize, (c % 3) as u32))
                .collect();
            let board = FailureStatusBoard::new(4);
            let router = Router::new(4, board);
            for (i, &(src, tag)) in deliveries.iter().enumerate() {
                // The global seq doubles as the delivery index.
                router.deliver(env(1 + src, tag, i as u64));
            }

            // Shadow model: one FIFO per lane plus the global delivery order.
            let mut last_seq_per_lane = std::collections::HashMap::new();
            let mut received = 0usize;
            let mut exact_cursor = 0usize;
            for &kind in &recv_kinds {
                let selector = match kind {
                    0 => {
                        let (src, tag) = deliveries[exact_cursor % deliveries.len()];
                        exact_cursor += 1;
                        sel(Some(1 + src), Some(tag))
                    }
                    1 => sel(None, None),
                    2 => sel(None, Some(deliveries[0].1)),
                    _ => sel(Some(1 + deliveries[0].0), None),
                };
                let before = router.queued(0);
                match router.try_match(0, &selector) {
                    Some(got) => {
                        received += 1;
                        prop_assert_eq!(router.queued(0), before - 1);
                        // The envelope matches what was asked for.
                        prop_assert!(got.matches(&selector));
                        // Per-lane FIFO: seq strictly increases within the lane.
                        let lane = (got.src_world, got.tag);
                        if let Some(&prev) = last_seq_per_lane.get(&lane) {
                            prop_assert!(
                                got.seq > prev,
                                "lane {:?} delivered seq {} after {}",
                                lane, got.seq, prev
                            );
                        }
                        last_seq_per_lane.insert(lane, got.seq);
                    }
                    None => prop_assert_eq!(router.queued(0), before),
                }
            }

            // Drain with a full wildcard: the remainder comes out in global
            // delivery order restricted to the live envelopes.
            let mut last_global = None;
            while let Some(got) = router.try_match(0, &sel(None, None)) {
                received += 1;
                if let Some(prev) = last_global {
                    prop_assert!(got.seq > prev, "wildcard drain out of delivery order");
                }
                last_global = Some(got.seq);
                let lane = (got.src_world, got.tag);
                if let Some(&prev) = last_seq_per_lane.get(&lane) {
                    prop_assert!(got.seq > prev);
                }
                last_seq_per_lane.insert(lane, got.seq);
            }
            prop_assert_eq!(received, deliveries.len());
            prop_assert_eq!(router.queued(0), 0);
        }
    }

    /// Three receivers parked on one mailbox under one lock — two exact
    /// selectors on different lanes and a tag-only wildcard — while four
    /// sender threads interleave deliveries into all of them.  Each receiver
    /// must get exactly its own messages, in per-lane FIFO order, and the
    /// mailbox must end empty; a lost or misdirected wake-up hangs a receiver.
    #[test]
    fn receivers_parked_on_one_mailbox_each_get_exactly_their_messages() {
        const PER_LANE: u64 = 200;
        const WILD_TAG: u32 = 7;
        let router = Arc::new(Router::new(5, FailureStatusBoard::new(5)));

        let receive = |selector: MatchSelector, count: u64| {
            let router = Arc::clone(&router);
            thread::spawn(move || {
                (0..count)
                    .map(|_| router.recv_blocking(0, &selector).unwrap())
                    .collect::<Vec<Envelope>>()
            })
        };
        let exact_a = receive(sel(Some(1), Some(0)), PER_LANE);
        let exact_b = receive(sel(Some(2), Some(0)), PER_LANE);
        let wildcard = receive(sel(None, Some(WILD_TAG)), 4 * PER_LANE);
        // Let the receivers park before the first delivery.
        thread::sleep(Duration::from_millis(10));

        let senders: Vec<_> = (1..=4usize)
            .map(|src| {
                let router = Arc::clone(&router);
                thread::spawn(move || {
                    for seq in 0..PER_LANE {
                        // Sources 1 and 2 feed an exact lane and the
                        // wildcard alternately; 3 and 4 only the wildcard.
                        if src <= 2 {
                            router.deliver(env(src, 0, seq));
                        }
                        router.deliver(env(src, WILD_TAG, seq));
                    }
                })
            })
            .collect();
        for sender in senders {
            sender.join().unwrap();
        }

        for (src, got) in [(1, exact_a), (2, exact_b)] {
            let got = got.join().unwrap();
            let lane: Vec<_> = got.iter().map(|e| (e.src_world, e.tag, e.seq)).collect();
            let want: Vec<_> = (0..PER_LANE).map(|seq| (src, 0, seq)).collect();
            assert_eq!(lane, want);
        }
        let got = wildcard.join().unwrap();
        assert!(got.iter().all(|e| e.tag == WILD_TAG));
        for src in 1..=4usize {
            let seqs: Vec<u64> = got
                .iter()
                .filter(|e| e.src_world == src)
                .map(|e| e.seq)
                .collect();
            assert_eq!(seqs, (0..PER_LANE).collect::<Vec<_>>(), "source {src}");
        }
        assert_eq!(router.queued(0), 0);
    }

    /// Failures signalled on the board while an exact and a wildcard receiver
    /// are parked on the same mailbox: the peer's crash ends only the receive
    /// that names it (`ProcessFailed`), the rank's own crash ends the other
    /// (`SelfFailed`).
    #[test]
    fn board_failure_wakes_exact_and_wildcard_receivers_on_one_mailbox() {
        let board = FailureStatusBoard::new(2);
        let router = Arc::new(Router::new(2, board.clone()));
        let park = |selector: MatchSelector| {
            let router = Arc::clone(&router);
            thread::spawn(move || router.recv_blocking(0, &selector))
        };
        let exact = park(sel(Some(1), Some(3)));
        let wildcard = park(sel(None, None));
        thread::sleep(Duration::from_millis(30));

        board.mark_failed(1, SimTime::ZERO);
        assert_eq!(
            exact.join().unwrap().unwrap_err(),
            MpiError::ProcessFailed { rank: 1 }
        );
        thread::sleep(Duration::from_millis(10));
        assert!(!wildcard.is_finished(), "no source named, nothing to fail");

        board.mark_failed(0, SimTime::ZERO);
        assert_eq!(wildcard.join().unwrap().unwrap_err(), MpiError::SelfFailed);
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
                    let got = router.recv_blocking(0, &sel(Some(1), Some(3))).unwrap();
                    assert_eq!(got.seq, round);
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
        assert!(router.try_match(0, &sel(None, None)).is_none());
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
        let cases: [(MatchSelector, Raise, MpiError); 3] = [
            (
                sel(Some(1), Some(3)),
                |_, board| board.mark_failed(1, SimTime::ZERO),
                MpiError::ProcessFailed { rank: 1 },
            ),
            (
                sel(None, None),
                |_, board| board.mark_failed(0, SimTime::ZERO),
                MpiError::SelfFailed,
            ),
            (
                sel(Some(1), Some(3)),
                |router, _| router.abort(),
                MpiError::Aborted,
            ),
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
