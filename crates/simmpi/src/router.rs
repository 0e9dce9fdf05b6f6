//! Message routing between simulated processes (thread-per-rank strategy).
//!
//! The router owns one mailbox per physical rank.  A mailbox is *indexed*:
//! envelopes queue in per-`(communicator, source, tag)` FIFO lanes, and
//! every receive names exactly one lane ([`LaneKey`]) — replication needs
//! send-deterministic programs, whose receives all name their source — so
//! a receive is a single lane lookup plus a pop, O(1) amortized regardless
//! of how many unrelated messages are queued.  Matching is purely
//! receiver-side and per-lane FIFO, which preserves MPI's non-overtaking
//! guarantee.  The matching core lives in the private `mailbox` module; the
//! router adds the blocking layer around it.  (The event-driven engine,
//! [`crate::engine`], keeps flat inboxes of its own and shares none of this.)
//!
//! ## Synchronization
//!
//! A mailbox is one mutex and one condvar around the lane index and the
//! lanes of the receivers currently parked on it.  The lock is contended
//! only by the owning rank's receive and the ranks sending to it at that
//! moment — a handful of halo neighbours and one collective peer in every
//! application here — and the thread world runs at most ~128 ranks; larger
//! runs belong to [`crate::engine`].
//!
//! A receive that finds no match checks, yields, then parks: it gives up its
//! time slice at most `YIELDS_BEFORE_PARK` (4) times (`sched_yield`, the
//! mailbox lock released, failure checks before every yield) and only then
//! sleeps on the condvar.  A run has more rank threads than cores, so the
//! yield usually runs the very thread that is about to deliver; the sender
//! then finds nobody parked and skips the notify, and neither side pays a
//! futex call or an idle-core wake-up.  Once parked, a receiver never
//! polls, and wakeups are *precise*: a delivery notifies the condvar only
//! when the envelope's lane is the lane of a parked receiver, so the
//! unrelated deliveries of a deep-mailbox workload cost a parked receiver
//! nothing.
//!
//! The router also holds the run's failure state: one flag per rank and
//! the failure history.  [`Router::mark_failed`] — called by a rank that
//! fails itself, or by the launcher when a rank's body panics — wakes every
//! blocked receiver immediately; there is no re-check interval to wait out.
//!
//! ## Liveness: quiescence is deadlock
//!
//! Only a rank that is running can send or fail, so once every rank thread
//! of a run is parked in a receive or has returned, nothing can ever wake
//! the parked ones: the application is lost (the paper's crash-stop model,
//! §III-B2, loses it once every replica of a logical process is dead, and
//! the survivors' neighbours end up here).  The router of a [`run_cluster`]
//! run counts the rank threads that are *neither parked nor returned*.
//! A receiver leaves the count when it registers its lane, a rank when its
//! body returns or panics; whoever wakes a parked receiver — a delivery
//! into its lane, [`Router::mark_failed`], [`Router::abort`] — removes the
//! registration and re-enters the receiver in the count *before* notifying,
//! all under the mailbox lock, so the count cannot read zero while a
//! wake-up is in flight.  The thread that takes it to zero with a lane
//! still registered aborts the run and every parked receive returns
//! [`MpiError::Aborted`] — the rule the event engine states as "queue
//! drained with ranks parked".  No wall-clock input is involved, so a stuck
//! run ends the same way every time, microseconds after its last runner
//! stopped.
//!
//! [`run_cluster`]: crate::cluster::run_cluster

use crate::engine::FailureEvent;
use crate::error::{MpiError, MpiResult};
use crate::mailbox::MailboxState;
use crate::message::{Envelope, LaneKey};
use parking_lot::{Condvar, Mutex};
use simcluster::SimTime;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// How often a receive that found no match yields its time slice before it
/// parks on the mailbox condvar.
///
/// A first sweep on a 2-vCPU host, before the section path stopped
/// allocating (mean wall of a pass over the twelve `figs-thread` points, 4–8
/// rank threads each, and of the same pass at the `tiny` scale): 0 yields
/// 86.7 / 28.5 ms, 1: 70.7 / 21.9, 2: 59.3 / 23.7, 4: 64.9 / 23.9,
/// 8: 66.7 / 46.6.  A couple of yields cut the parked share of blocking
/// receives by 50–70 % on every `small` point; many more only burn the
/// slices of the threads the receiver waits for.  {1, 2, 4} re-measured on
/// the final code with the benchmark itself (`scripts/ab-pairs.sh`, six
/// interleaved 25 s pairs against 2, `figs-thread` `runs_per_s`): 1: 248.6
/// against 269.8, 2 ahead in 4 pairs of 6, not resolved; 4: 302.4 against
/// 255.9, 4 ahead in 6 of 6 and on every other timing metric.  4 against 2
/// elsewhere: `sweep-serve` 4 171 against 4 021 (4 of 6) and `faults-ckpt`
/// 270.7 against 275.6 (4 of 6), neither resolved; `figures fig6 full`
/// (64–128 threads) 3.5–4.5 s against 3.8–4.2 s, alike.  Hence 4.
const YIELDS_BEFORE_PARK: u32 = 4;

/// The lock-protected state of one mailbox.
#[derive(Default)]
struct MailboxInner {
    mail: MailboxState,
    /// Ticket and lane of every receiver currently parked on this mailbox.
    /// A waker *removes* the entries it wakes, so a receiver whose ticket
    /// is still here was not the one meant and keeps waiting.  Invariant
    /// (under the lock): no entry names a lane with an envelope queued.
    parked: Vec<(u64, LaneKey)>,
    next_ticket: u64,
}

#[derive(Default)]
struct Mailbox {
    inner: Mutex<MailboxInner>,
    cv: Condvar,
}

/// The message router of one [`run_cluster`](crate::cluster::run_cluster)
/// run, and the run's failure state.
///
/// One atomic flag per rank is the only liveness state, so
/// [`Router::is_failed`] — asked several times per message — is one atomic
/// load; the lock guards the failure history only.
pub(crate) struct Router {
    mailboxes: Vec<Mailbox>,
    /// Rank threads neither parked nor returned (module docs, § Liveness).
    running: AtomicUsize,
    aborted: AtomicBool,
    failed: Box<[AtomicBool]>,
    events: Mutex<Vec<FailureEvent>>,
}

impl Router {
    /// The router of a run of `num_procs` rank threads, all alive: its
    /// receivers are exactly those threads, each of which calls
    /// [`Router::rank_returned`] when its body ends, so the router can tell
    /// a stuck run (see the module docs).
    pub(crate) fn new(num_procs: usize) -> Self {
        Router {
            mailboxes: (0..num_procs).map(|_| Mailbox::default()).collect(),
            running: AtomicUsize::new(num_procs),
            aborted: AtomicBool::new(false),
            failed: (0..num_procs).map(|_| AtomicBool::new(false)).collect(),
            events: Mutex::new(Vec::new()),
        }
    }

    /// Re-enters `n` woken receivers in the count.  Called under the lock
    /// of the mailbox they were parked on, before they are notified.
    fn resumed(&self, n: usize) {
        self.running.fetch_add(n, Ordering::SeqCst);
    }

    /// Takes the calling rank thread out of the count; `true` if it was the
    /// last one running.
    fn stopped(&self) -> bool {
        self.running.fetch_sub(1, Ordering::SeqCst) == 1
    }

    /// Wakes every parked receiver so it can re-check abort/failure status.
    /// Taking each lock first orders the wake-up after the failure checks
    /// of any receiver that is about to park.
    fn wake_all(&self) {
        for mb in &self.mailboxes {
            let mut inner = mb.inner.lock();
            if !inner.parked.is_empty() {
                self.resumed(inner.parked.len());
                inner.parked.clear();
                mb.cv.notify_all();
            }
        }
    }

    /// The calling rank thread's body has returned or panicked (after the
    /// panic was recorded with [`Router::mark_failed`]): it will never send
    /// again.
    pub(crate) fn rank_returned(&self) {
        if self.stopped() {
            self.quiesced();
        }
    }

    /// The caller just took the last running rank thread out of the count,
    /// so the set of parked receivers is final: if there is one, nothing can
    /// ever wake it and the run is aborted.  A parked receiver with an
    /// envelope queued in its lane would be a lost wake-up, not a deadlock
    /// — that must fail loudly.
    fn quiesced(&self) {
        let mut stuck = false;
        for mb in &self.mailboxes {
            let inner = mb.inner.lock();
            debug_assert!(
                inner.parked.iter().all(|(_, key)| !inner.mail.has(key)),
                "receiver parked on a lane with an envelope queued"
            );
            stuck |= !inner.parked.is_empty();
        }
        if stuck {
            self.abort();
        }
    }

    /// Number of ranks served.
    pub(crate) fn num_procs(&self) -> usize {
        self.mailboxes.len()
    }

    /// Marks `rank` as failed at virtual time `time` (its own clock) and
    /// wakes every blocked receiver.  Idempotent: marking an already-failed
    /// rank again records nothing and wakes no one.  One `swap` sets the
    /// flag, so of two racing markers exactly one records the event, and it
    /// sets it *before* the wake-up: the lost-wake-up argument of
    /// [`Router::recv_blocking`] relies on that order.
    pub(crate) fn mark_failed(&self, rank: usize, time: SimTime) {
        if self.failed[rank].swap(true, Ordering::SeqCst) {
            return;
        }
        self.events.lock().push(FailureEvent { rank, time });
        self.wake_all();
    }

    /// True if `rank` has crashed.  Lock-free: one atomic load.
    pub(crate) fn is_failed(&self, rank: usize) -> bool {
        self.failed[rank].load(Ordering::SeqCst)
    }

    /// The failure history, in the order the failures were marked.
    pub(crate) fn events(&self) -> Vec<FailureEvent> {
        self.events.lock().clone()
    }

    /// Delivers an envelope to its destination mailbox.
    ///
    /// Messages addressed to failed processes — or to a rank outside the
    /// router — are dropped silently (the peer will never receive them),
    /// mirroring a crashed destination.
    pub(crate) fn deliver(&self, env: Envelope) {
        let dst = env.dst_world;
        let Some(mb) = self.mailboxes.get(dst) else {
            return;
        };
        if self.is_failed(dst) {
            return;
        }
        let key = env.lane_key();
        let mut inner = mb.inner.lock();
        let parked = inner.parked.len();
        inner.parked.retain(|(_, k)| *k != key);
        let woken = parked - inner.parked.len();
        inner.mail.push(env);
        if woken > 0 {
            self.resumed(woken);
            drop(inner);
            mb.cv.notify_all();
        }
    }

    /// Marks the simulation as aborted and wakes every blocked receiver;
    /// from here on a receive with no queued match returns
    /// [`MpiError::Aborted`] instead of parking.
    pub(crate) fn abort(&self) {
        self.aborted.store(true, Ordering::SeqCst);
        self.wake_all();
    }

    /// True if the simulation has been aborted.
    pub(crate) fn is_aborted(&self) -> bool {
        self.aborted.load(Ordering::SeqCst)
    }

    /// Checks the terminal conditions a blocked receiver must surface, in
    /// documented order.
    fn recv_error(&self, dst: usize, &(_, src, _): &LaneKey) -> Option<MpiError> {
        if self.is_aborted() {
            Some(MpiError::Aborted)
        } else if self.is_failed(dst) {
            Some(MpiError::SelfFailed)
        } else if self.is_failed(src) {
            Some(MpiError::ProcessFailed { rank: src })
        } else {
            None
        }
    }

    /// Blocking receive: waits until an envelope of lane `key` is available
    /// in `dst`'s mailbox and removes it.
    ///
    /// Returns
    /// * `Err(InvalidRank)` if `dst` is not a rank of this router;
    /// * `Err(ProcessFailed)` if the lane's source has crashed and nothing
    ///   is queued in the lane (messages sent before the crash remain
    ///   deliverable);
    /// * `Err(SelfFailed)` if the receiving rank itself has been marked
    ///   failed;
    /// * `Err(Aborted)` if no rank of the run can make progress any more
    ///   (module docs, § Liveness) or [`Router::abort`] was called.
    ///
    /// The receiver looks for an envelope and runs the failure checks under
    /// the mailbox lock; with neither, it first releases the lock and yields
    /// its time slice, `YIELDS_BEFORE_PARK` times at most, then registers
    /// its lane and sleeps on the mailbox condvar until a delivery into the
    /// lane (or a failure/abort broadcast) removes it and notifies it
    /// — unless it was the run's last running rank, in which case it aborts
    /// the run instead of sleeping (module docs, § Liveness).  A yielding
    /// receiver is not parked (it still counts as running) and needs no
    /// wake-up: it re-runs both checks itself.  For a parked one the
    /// wake-up cannot be lost: the failure checks run under the mailbox
    /// lock *before* every wait, and the wakers take that same lock before
    /// notifying, so a crash signaled after the checks finds the receiver
    /// already parked.  That `is_failed` is a lock-free flag does not weaken
    /// this — [`Router::mark_failed`] stores the flag before it wakes, and
    /// the wake-up takes this mailbox's lock after the store, so a receiver
    /// that locks later sees the flag and one that locked earlier is parked
    /// by the time the wake-up gets the lock.
    pub(crate) fn recv_blocking(&self, dst: usize, key: &LaneKey) -> MpiResult<Envelope> {
        let mb = self.mailboxes.get(dst).ok_or(MpiError::InvalidRank {
            rank: dst,
            size: self.mailboxes.len(),
        })?;
        let mut yields_left = YIELDS_BEFORE_PARK;
        let mut inner = mb.inner.lock();
        loop {
            if let Some(env) = inner.mail.take(key) {
                return Ok(env);
            }
            if let Some(err) = self.recv_error(dst, key) {
                return Err(err);
            }
            if yields_left > 0 {
                yields_left -= 1;
                drop(inner);
                std::thread::yield_now();
                inner = mb.inner.lock();
                continue;
            }
            let ticket = inner.next_ticket;
            inner.next_ticket += 1;
            inner.parked.push((ticket, *key));
            if self.stopped() {
                // Every other rank is parked or gone and this one just
                // joined them.  The abort wakes this receiver like any
                // other; the next round of the loop returns `Aborted`.
                drop(inner);
                self.quiesced();
                inner = mb.inner.lock();
                continue;
            }
            // Whoever wakes this receiver removes its entry first; a
            // wake-up that leaves it registered was meant for another
            // receiver of this mailbox, or is spurious.
            while inner.parked.iter().any(|&(t, _)| t == ticket) {
                mb.cv.wait(&mut inner);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use proptest::prelude::*;
    use std::sync::{Arc, Barrier};
    use std::thread;
    use std::time::Duration;

    /// An envelope whose payload is `id`, the identity the tests check.
    fn env(src: usize, dst: usize, comm: u64, tag: u32, id: u64) -> Envelope {
        Envelope {
            src_world: src,
            dst_world: dst,
            comm,
            tag,
            payload: Bytes::copy_from_slice(&id.to_le_bytes()),
            head: None,
            arrival: SimTime::ZERO,
        }
    }

    fn id(env: &Envelope) -> u64 {
        u64::from_le_bytes(env.payload.to_vec().try_into().unwrap())
    }

    /// Non-blocking probe: removes and returns the front envelope of lane
    /// `key` in `dst`'s mailbox, if any (`None` also when `dst` is not a
    /// rank of the router).
    fn try_match(r: &Router, dst: usize, key: &LaneKey) -> Option<Envelope> {
        r.mailboxes.get(dst)?.inner.lock().mail.take(key)
    }

    /// Number of envelopes queued in `dst`'s mailbox (`0` when `dst` is not
    /// a rank of the router).
    fn queued(r: &Router, dst: usize) -> usize {
        r.mailboxes
            .get(dst)
            .map_or(0, |mb| mb.inner.lock().mail.queued())
    }

    #[test]
    fn everyone_starts_alive() {
        let r = Router::new(4);
        assert_eq!(r.num_procs(), 4);
        assert!((0..4).all(|rank| !r.is_failed(rank)));
    }

    #[test]
    fn mark_failed_is_visible_and_idempotent() {
        let r = Router::new(3);
        r.mark_failed(1, SimTime::from_secs(2.0));
        assert!(r.is_failed(1));
        assert!(!r.is_failed(0));
        r.mark_failed(1, SimTime::from_secs(3.0));
        assert_eq!(r.events().len(), 1, "re-marking must not record an event");
        assert_eq!((0..3).filter(|&rank| r.is_failed(rank)).count(), 1);
    }

    /// The lock-free liveness view (`is_failed`) and the event history
    /// agree after every transition.
    #[test]
    fn is_failed_agrees_with_the_locked_views() {
        let r = Router::new(3);
        let check = |failed: &[usize], events: usize| {
            for rank in 0..3 {
                let expect = failed.contains(&rank);
                assert_eq!(r.is_failed(rank), expect);
            }
            assert_eq!(r.events().len(), events);
        };
        check(&[], 0);
        r.mark_failed(2, SimTime::from_secs(1.0));
        check(&[2], 1);
        r.mark_failed(0, SimTime::from_secs(2.0));
        check(&[0, 2], 2);
        r.mark_failed(2, SimTime::from_secs(3.0));
        check(&[0, 2], 2);
    }

    #[test]
    fn events_record_time() {
        let r = Router::new(2);
        r.mark_failed(1, SimTime::from_secs(4.5));
        let ev = r.events();
        assert_eq!(ev.len(), 1);
        assert_eq!(ev[0].rank, 1);
        assert_eq!(ev[0].time.as_secs(), 4.5);
    }

    #[test]
    fn deliver_then_match() {
        let r = Router::new(2);
        r.deliver(env(0, 1, 9, 3, 0));
        assert_eq!(queued(&r, 1), 1);
        let got = try_match(&r, 1, &(9, 0, 3)).unwrap();
        assert_eq!(got.src_world, 0);
        assert_eq!(queued(&r, 1), 0);
        assert!(try_match(&r, 1, &(9, 0, 3)).is_none());
    }

    #[test]
    fn matching_preserves_fifo_per_sender_and_tag() {
        let r = Router::new(2);
        for n in 0..3 {
            r.deliver(env(0, 1, 9, 3, n));
        }
        for expected in 0..3 {
            let got = try_match(&r, 1, &(9, 0, 3)).unwrap();
            assert_eq!(id(&got), expected);
        }
    }

    #[test]
    fn blocking_recv_wakes_on_delivery() {
        let r = Arc::new(Router::new(2));
        let r2 = Arc::clone(&r);
        let h = thread::spawn(move || r2.recv_blocking(1, &(9, 0, 3)));
        thread::sleep(Duration::from_millis(5));
        r.deliver(env(0, 1, 9, 3, 0));
        let got = h.join().unwrap().unwrap();
        assert_eq!(got.tag, 3);
    }

    #[test]
    fn recv_from_failed_source_errors_once_queue_is_empty() {
        let r = Router::new(2);
        // A message sent before the crash is still deliverable.
        r.deliver(env(0, 1, 9, 3, 0));
        r.mark_failed(0, SimTime::ZERO);
        assert!(r.recv_blocking(1, &(9, 0, 3)).is_ok());
        // Nothing queued any more: the failure must surface as an error.
        let err = r.recv_blocking(1, &(9, 0, 3)).unwrap_err();
        assert_eq!(err, MpiError::ProcessFailed { rank: 0 });
    }

    /// Regression: a crash marked while a receiver is blocked
    /// mid-wait must wake it immediately.  Before the indexed-mailbox
    /// rewrite the receiver only noticed on its next 20 ms re-check tick;
    /// now there is no re-check interval at all, so a missed wakeup would
    /// hang this test forever rather than pass slowly.
    #[test]
    fn failure_signaled_mid_wait_wakes_blocked_receiver() {
        let r = Arc::new(Router::new(2));
        let r2 = Arc::clone(&r);
        let h = thread::spawn(move || r2.recv_blocking(1, &(9, 0, 3)));
        thread::sleep(Duration::from_millis(30));
        r.mark_failed(0, SimTime::ZERO);
        let err = h.join().unwrap().unwrap_err();
        assert_eq!(err, MpiError::ProcessFailed { rank: 0 });
    }

    /// Same regression, woken here by the receiving rank's *own* failure
    /// while its source stays alive.
    #[test]
    fn failure_signaled_mid_wait_wakes_receiver_whose_own_rank_failed() {
        let r = Arc::new(Router::new(2));
        let r2 = Arc::clone(&r);
        let h = thread::spawn(move || r2.recv_blocking(1, &(9, 0, 3)));
        thread::sleep(Duration::from_millis(30));
        r.mark_failed(1, SimTime::ZERO);
        let err = h.join().unwrap().unwrap_err();
        assert_eq!(err, MpiError::SelfFailed);
    }

    #[test]
    fn messages_to_failed_destination_are_dropped() {
        let r = Router::new(2);
        r.mark_failed(1, SimTime::ZERO);
        r.deliver(env(0, 1, 9, 3, 0));
        assert_eq!(queued(&r, 1), 0);
    }

    /// A `dst` outside the router is handled the same way by every entry
    /// point instead of indexing out of bounds.
    #[test]
    fn out_of_range_destination_is_rejected_not_indexed() {
        let r = Router::new(2);
        r.deliver(env(0, 2, 9, 3, 0));
        assert_eq!(queued(&r, 2), 0);
        assert!(try_match(&r, 2, &(9, 0, 3)).is_none());
        let err = r.recv_blocking(2, &(9, 0, 3)).unwrap_err();
        assert_eq!(err, MpiError::InvalidRank { rank: 2, size: 2 });
    }

    #[test]
    fn abort_unblocks_receivers() {
        let r = Arc::new(Router::new(2));
        let r2 = Arc::clone(&r);
        let h = thread::spawn(move || r2.recv_blocking(1, &(9, 0, 3)));
        thread::sleep(Duration::from_millis(5));
        r.abort();
        assert_eq!(h.join().unwrap().unwrap_err(), MpiError::Aborted);
    }

    /// Precise wakeups: deliveries into unrelated lanes must not wake an
    /// exact receiver parked on a different lane.  (Functional check — the
    /// receiver must still *only* complete once its own lane is served.)
    #[test]
    fn exact_receiver_ignores_unrelated_deliveries() {
        let r = Arc::new(Router::new(2));
        let r2 = Arc::clone(&r);
        let h = thread::spawn(move || r2.recv_blocking(1, &(9, 0, 42)));
        thread::sleep(Duration::from_millis(5));
        // A burst of deliveries into other lanes of the same mailbox.
        for tag in 0..32 {
            r.deliver(env(0, 1, 9, tag, tag as u64));
        }
        thread::sleep(Duration::from_millis(5));
        assert_eq!(queued(&r, 1), 32);
        r.deliver(env(0, 1, 9, 42, 99));
        let got = h.join().unwrap().unwrap();
        assert_eq!((got.tag, id(&got)), (42, 99));
        // The unrelated envelopes are all still queued.
        assert_eq!(queued(&r, 1), 32);
    }

    /// Long deliver/receive churn leaves nothing behind: lanes are dropped
    /// when drained, so the mailbox holds no per-message state after each
    /// cycle.
    #[test]
    fn exact_receive_churn_leaves_mailbox_empty() {
        let r = Router::new(2);
        for round in 0..2_000u64 {
            r.deliver(env(0, 1, 9, 3, round));
            let got = try_match(&r, 1, &(9, 0, 3)).unwrap();
            assert_eq!(id(&got), round);
        }
        assert_eq!(queued(&r, 1), 0);
        assert!(!r.mailboxes[1].inner.lock().mail.has(&(9, 0, 3)));
    }

    // -----------------------------------------------------------------------
    // Mailbox-lane properties of the indexed router: many lanes of
    // one mailbox (rank 0), receivers on the other ranks' sources.
    // -----------------------------------------------------------------------

    /// The lane of rank 0's mailbox on communicator 1.
    fn lane(src: usize, tag: u32) -> LaneKey {
        (1, src, tag)
    }

    /// An envelope to rank 0 on communicator 1 whose payload is `id`.
    fn to_zero(src: usize, tag: u32, id: u64) -> Envelope {
        env(src, 0, 1, tag, id)
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
            let router = Router::new(4);
            // Shadow model: the delivery indices queued per lane.
            let mut model = std::collections::HashMap::<(usize, u32), Vec<u64>>::new();
            for (i, &code) in delivery_codes.iter().enumerate() {
                let (src, tag) = decode(code);
                router.deliver(to_zero(src, tag, i as u64));
                model.entry((src, tag)).or_default().push(i as u64);
            }

            let mut received = 0usize;
            for &code in &recv_codes {
                let (src, tag) = decode(code);
                let before = queued(&router, 0);
                let expected = model.get_mut(&(src, tag)).filter(|q| !q.is_empty());
                match (try_match(&router, 0, &lane(src, tag)), expected) {
                    (Some(got), Some(queue)) => {
                        received += 1;
                        prop_assert_eq!(queued(&router, 0), before - 1);
                        prop_assert_eq!((got.src_world, got.tag), (src, tag));
                        prop_assert_eq!(id(&got), queue.remove(0));
                    }
                    (None, None) => prop_assert_eq!(queued(&router, 0), before),
                    (got, want) => panic!("lane ({src}, {tag}) gave {got:?}, model {want:?}"),
                }
            }

            // Drain lane by lane: each hands out exactly its remainder, in
            // delivery order.
            for ((src, tag), queue) in model {
                for want in queue {
                    let got = try_match(&router, 0, &lane(src, tag));
                    prop_assert_eq!(got.map(|e| id(&e)), Some(want));
                    received += 1;
                }
                prop_assert!(try_match(&router, 0, &lane(src, tag)).is_none());
            }
            prop_assert_eq!(received, delivery_codes.len());
            prop_assert_eq!(queued(&router, 0), 0);
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
        let router = Arc::new(Router::new(5));

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
                            router.deliver(to_zero(src, 0, n));
                        }
                        router.deliver(to_zero(src, 7, n));
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
        assert_eq!(queued(&router, 0), 2 * PER_LANE as usize);
        for src in 1..=2 {
            for n in 0..PER_LANE {
                assert_eq!(
                    try_match(&router, 0, &lane(src, 7)).map(|e| id(&e)),
                    Some(n)
                );
            }
        }
        assert_eq!(queued(&router, 0), 0);
    }

    /// Failures marked while two receivers naming different sources are
    /// parked on the same mailbox: each crash ends only the receive that
    /// names the crashed rank (`ProcessFailed`), and the other keeps
    /// waiting until its own source crashes.
    #[test]
    fn board_failure_ends_only_the_receives_it_concerns() {
        let router = Arc::new(Router::new(3));
        let park = |key: LaneKey| {
            let router = Arc::clone(&router);
            thread::spawn(move || router.recv_blocking(0, &key))
        };
        let from_one = park(lane(1, 3));
        let from_two = park(lane(2, 3));
        thread::sleep(Duration::from_millis(30));

        router.mark_failed(1, SimTime::ZERO);
        assert_eq!(
            from_one.join().unwrap().unwrap_err(),
            MpiError::ProcessFailed { rank: 1 }
        );
        thread::sleep(Duration::from_millis(10));
        assert!(!from_two.is_finished(), "rank 2 is alive, nothing to fail");

        router.mark_failed(2, SimTime::ZERO);
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
        let router = Arc::new(Router::new(2));
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
            router.deliver(to_zero(1, 3, round));
        }
        receiver.join().unwrap();
        assert_eq!(queued(&router, 0), 0);
        assert!(try_match(&router, 0, &lane(1, 3)).is_none());
    }

    /// The three terminal conditions of a receive, raised while the receiver
    /// may be anywhere between its first check and its park (same barrier
    /// and varying head start as above, a fresh router per round): each
    /// surfaces its documented error — the yield phase re-runs the failure
    /// checks itself, the parked phase is woken by `mark_failed` or by
    /// `abort`.
    #[test]
    fn failure_in_any_receive_phase_surfaces_the_documented_error() {
        const ROUNDS: usize = 150;
        type Raise = fn(&Router);
        let cases: [(LaneKey, Raise, MpiError); 3] = [
            (
                lane(1, 3),
                |router| router.mark_failed(1, SimTime::ZERO),
                MpiError::ProcessFailed { rank: 1 },
            ),
            (
                lane(1, 3),
                |router| router.mark_failed(0, SimTime::ZERO),
                MpiError::SelfFailed,
            ),
            (lane(1, 3), |router| router.abort(), MpiError::Aborted),
        ];
        for (selector, raise, expected) in cases {
            for round in 0..ROUNDS {
                let router = Router::new(2);
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
                    raise(&router);
                    receiver.join().unwrap()
                });
                assert_eq!(got.unwrap_err(), expected, "round {round}");
                assert_eq!(queued(&router, 0), 0);
            }
        }
    }
}
