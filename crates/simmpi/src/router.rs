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
//! The router registers a waker on the shared [`FailureStatusBoard`] at
//! construction time, so a crash signaled on the board — by the failure
//! injector, a panicking process, or a test harness — wakes every blocked
//! receiver immediately; there is no re-check interval to wait out.
//!
//! ## Liveness: quiescence is deadlock
//!
//! Only a rank that is running can send or fail, so once every rank thread
//! of a run is parked in a receive or has returned, nothing can ever wake
//! the parked ones: the application is lost (the paper's crash-stop model,
//! §III-B2, loses it once every replica of a logical process is dead, and
//! the survivors' neighbours end up here).  The router [`run_cluster`]
//! builds counts the rank threads that are *neither parked nor returned*.
//! A receiver leaves the count when it registers its lane, a rank when its
//! body returns or panics; whoever wakes a parked receiver — a delivery
//! into its lane, the failure-board waker, [`Router::abort`] — removes the
//! registration and re-enters the receiver in the count *before* notifying,
//! all under the mailbox lock, so the count cannot read zero while a
//! wake-up is in flight.  The thread that takes it to zero with a lane
//! still registered aborts the run and every parked receive returns
//! [`MpiError::Aborted`] — the rule the event engine states as "queue
//! drained with ranks parked".  No wall-clock input is involved, so a stuck
//! run ends the same way every time, microseconds after its last runner
//! stopped.  A `Router` built with [`Router::new`] keeps no count: whoever
//! drives it from threads of their own decides when it is stuck.
//!
//! [`run_cluster`]: crate::cluster::run_cluster

use crate::error::{MpiError, MpiResult};
use crate::mailbox::MailboxState;
use crate::message::{Envelope, LaneKey};
use parking_lot::{Condvar, Mutex};
use simcluster::FailureStatusBoard;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Weak};

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

/// What the router shares with the waker it registers on the failure board.
struct Fabric {
    mailboxes: Vec<Mailbox>,
    /// Rank threads neither parked nor returned; `None` for a router whose
    /// receivers are not the rank threads of one run.
    running: Option<AtomicUsize>,
}

impl Fabric {
    /// Re-enters `n` woken receivers in the count.  Called under the lock
    /// of the mailbox they were parked on, before they are notified.
    fn resumed(&self, n: usize) {
        if let Some(running) = &self.running {
            running.fetch_add(n, Ordering::SeqCst);
        }
    }

    /// Takes the calling rank thread out of the count; `true` if it was the
    /// last one running.
    fn stopped(&self) -> bool {
        self.running
            .as_ref()
            .is_some_and(|running| running.fetch_sub(1, Ordering::SeqCst) == 1)
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
}

/// The shared message router of a simulated cluster.
pub struct Router {
    fabric: Arc<Fabric>,
    aborted: AtomicBool,
    failures: FailureStatusBoard,
}

impl Router {
    /// Creates a router for `num_procs` ranks sharing the given failure
    /// board.  The router registers a waker on the board so that failures
    /// signaled on it (by whatever path) immediately wake blocked receivers.
    pub fn new(num_procs: usize, failures: FailureStatusBoard) -> Self {
        Self::build(num_procs, failures, None)
    }

    /// The router of one [`run_cluster`](crate::cluster::run_cluster) run:
    /// its receivers are exactly the run's `num_procs` rank threads, each of
    /// which calls [`Router::rank_returned`] when its body ends, so the
    /// router can tell a stuck run (see the module docs).
    pub(crate) fn for_rank_threads(num_procs: usize, failures: FailureStatusBoard) -> Self {
        Self::build(num_procs, failures, Some(AtomicUsize::new(num_procs)))
    }

    fn build(num_procs: usize, failures: FailureStatusBoard, running: Option<AtomicUsize>) -> Self {
        let fabric = Arc::new(Fabric {
            mailboxes: (0..num_procs).map(|_| Mailbox::default()).collect(),
            running,
        });
        let weak: Weak<Fabric> = Arc::downgrade(&fabric);
        failures.register_waker(Arc::new(move || {
            if let Some(fabric) = weak.upgrade() {
                fabric.wake_all();
            }
        }));
        Router {
            fabric,
            aborted: AtomicBool::new(false),
            failures,
        }
    }

    /// The calling rank thread's body has returned or panicked (after the
    /// panic was recorded on the failure board): it will never send again.
    pub(crate) fn rank_returned(&self) {
        if self.fabric.stopped() {
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
        for mb in &self.fabric.mailboxes {
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
    pub fn num_procs(&self) -> usize {
        self.fabric.mailboxes.len()
    }

    /// The failure board shared with this router.
    pub fn failures(&self) -> &FailureStatusBoard {
        &self.failures
    }

    /// Delivers an envelope to its destination mailbox.
    ///
    /// Messages addressed to failed processes — or to a rank outside the
    /// router — are dropped silently (the peer will never receive them),
    /// mirroring a crashed destination.
    pub fn deliver(&self, env: Envelope) {
        let dst = env.dst_world;
        let Some(mb) = self.fabric.mailboxes.get(dst) else {
            return;
        };
        if self.failures.is_failed(dst) {
            return;
        }
        let key = env.lane_key();
        let mut inner = mb.inner.lock();
        let parked = inner.parked.len();
        inner.parked.retain(|(_, k)| *k != key);
        let woken = parked - inner.parked.len();
        inner.mail.push(env);
        if woken > 0 {
            self.fabric.resumed(woken);
            drop(inner);
            mb.cv.notify_all();
        }
    }

    /// Marks the simulation as aborted and wakes every blocked receiver;
    /// from here on a receive with no queued match returns
    /// [`MpiError::Aborted`] instead of parking.
    pub fn abort(&self) {
        self.aborted.store(true, Ordering::SeqCst);
        self.notify_all();
    }

    /// True if the simulation has been aborted.
    pub fn is_aborted(&self) -> bool {
        self.aborted.load(Ordering::SeqCst)
    }

    /// Wakes every receiver so it can re-check failure status.  Failures
    /// signaled through the shared [`FailureStatusBoard`] trigger this
    /// automatically via the registered waker; the method stays public for
    /// callers that change other observable state.
    pub fn notify_all(&self) {
        self.fabric.wake_all();
    }

    /// Non-blocking probe: removes and returns the front envelope of lane
    /// `key` in `dst`'s mailbox, if any (`None` also when `dst` is not a
    /// rank of this router).
    pub fn try_match(&self, dst: usize, key: &LaneKey) -> Option<Envelope> {
        self.fabric.mailboxes.get(dst)?.inner.lock().mail.take(key)
    }

    /// Checks the terminal conditions a blocked receiver must surface, in
    /// documented order.
    fn recv_error(&self, dst: usize, &(_, src, _): &LaneKey) -> Option<MpiError> {
        if self.is_aborted() {
            Some(MpiError::Aborted)
        } else if self.failures.is_failed(dst) {
            Some(MpiError::SelfFailed)
        } else if self.failures.is_failed(src) {
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
    /// already parked.  That the board's `is_failed` is a lock-free flag
    /// does not weaken this — `mark_failed` stores the flag before it calls
    /// the waker, which takes this mailbox's lock after the store, so a
    /// receiver that locks later sees the flag and one that locked earlier
    /// is parked by the time the waker gets the lock.
    pub fn recv_blocking(&self, dst: usize, key: &LaneKey) -> MpiResult<Envelope> {
        let mb = self
            .fabric
            .mailboxes
            .get(dst)
            .ok_or(MpiError::InvalidRank {
                rank: dst,
                size: self.fabric.mailboxes.len(),
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
            if self.fabric.stopped() {
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

    /// Number of queued (unmatched) envelopes currently sitting in `dst`'s
    /// mailbox (`0` when `dst` is not a rank of this router).  Diagnostic
    /// only.
    pub fn queued(&self, dst: usize) -> usize {
        self.fabric
            .mailboxes
            .get(dst)
            .map_or(0, |mb| mb.inner.lock().mail.queued())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use simcluster::SimTime;
    use std::sync::Arc;
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
            modeled_bytes: 8,
            arrival: SimTime::ZERO,
        }
    }

    fn id(env: &Envelope) -> u64 {
        u64::from_le_bytes(env.payload.to_vec().try_into().unwrap())
    }

    #[test]
    fn deliver_then_match() {
        let r = Router::new(2, FailureStatusBoard::new(2));
        r.deliver(env(0, 1, 9, 3, 0));
        assert_eq!(r.queued(1), 1);
        let got = r.try_match(1, &(9, 0, 3)).unwrap();
        assert_eq!(got.src_world, 0);
        assert_eq!(r.queued(1), 0);
        assert!(r.try_match(1, &(9, 0, 3)).is_none());
    }

    #[test]
    fn matching_preserves_fifo_per_sender_and_tag() {
        let r = Router::new(2, FailureStatusBoard::new(2));
        for n in 0..3 {
            r.deliver(env(0, 1, 9, 3, n));
        }
        for expected in 0..3 {
            let got = r.try_match(1, &(9, 0, 3)).unwrap();
            assert_eq!(id(&got), expected);
        }
    }

    #[test]
    fn blocking_recv_wakes_on_delivery() {
        let board = FailureStatusBoard::new(2);
        let r = Arc::new(Router::new(2, board));
        let r2 = Arc::clone(&r);
        let h = thread::spawn(move || r2.recv_blocking(1, &(9, 0, 3)));
        thread::sleep(Duration::from_millis(5));
        r.deliver(env(0, 1, 9, 3, 0));
        let got = h.join().unwrap().unwrap();
        assert_eq!(got.tag, 3);
    }

    #[test]
    fn recv_from_failed_source_errors_once_queue_is_empty() {
        let board = FailureStatusBoard::new(2);
        let r = Router::new(2, board.clone());
        // A message sent before the crash is still deliverable.
        r.deliver(env(0, 1, 9, 3, 0));
        board.mark_failed(0, SimTime::ZERO);
        assert!(r.recv_blocking(1, &(9, 0, 3)).is_ok());
        // Nothing queued any more: the failure must surface as an error.
        let err = r.recv_blocking(1, &(9, 0, 3)).unwrap_err();
        assert_eq!(err, MpiError::ProcessFailed { rank: 0 });
    }

    /// Regression (PR 4): a crash signaled on the shared failure board while
    /// a receiver is blocked mid-wait must wake it immediately through the
    /// registered board waker.  Before the indexed-mailbox rewrite the
    /// receiver only noticed on its next 20 ms re-check tick; now there is no
    /// re-check interval at all, so a missed wakeup would hang this test
    /// forever rather than pass slowly.
    #[test]
    fn failure_signaled_mid_wait_wakes_blocked_receiver() {
        let board = FailureStatusBoard::new(2);
        let r = Arc::new(Router::new(2, board.clone()));
        let r2 = Arc::clone(&r);
        let h = thread::spawn(move || r2.recv_blocking(1, &(9, 0, 3)));
        thread::sleep(Duration::from_millis(30));
        // Signal the crash on the board only — deliberately not calling
        // Router::notify_all, as a failure injector outside the router would.
        board.mark_failed(0, SimTime::ZERO);
        let err = h.join().unwrap().unwrap_err();
        assert_eq!(err, MpiError::ProcessFailed { rank: 0 });
    }

    /// Same regression, woken here by the receiving rank's *own* failure
    /// while its source stays alive.
    #[test]
    fn failure_signaled_mid_wait_wakes_receiver_whose_own_rank_failed() {
        let board = FailureStatusBoard::new(2);
        let r = Arc::new(Router::new(2, board.clone()));
        let r2 = Arc::clone(&r);
        let h = thread::spawn(move || r2.recv_blocking(1, &(9, 0, 3)));
        thread::sleep(Duration::from_millis(30));
        board.mark_failed(1, SimTime::ZERO);
        let err = h.join().unwrap().unwrap_err();
        assert_eq!(err, MpiError::SelfFailed);
    }

    #[test]
    fn messages_to_failed_destination_are_dropped() {
        let board = FailureStatusBoard::new(2);
        let r = Router::new(2, board.clone());
        board.mark_failed(1, SimTime::ZERO);
        r.deliver(env(0, 1, 9, 3, 0));
        assert_eq!(r.queued(1), 0);
    }

    /// A `dst` outside the router is handled the same way by every entry
    /// point instead of indexing out of bounds.
    #[test]
    fn out_of_range_destination_is_rejected_not_indexed() {
        let r = Router::new(2, FailureStatusBoard::new(2));
        r.deliver(env(0, 2, 9, 3, 0));
        assert_eq!(r.queued(2), 0);
        assert!(r.try_match(2, &(9, 0, 3)).is_none());
        let err = r.recv_blocking(2, &(9, 0, 3)).unwrap_err();
        assert_eq!(err, MpiError::InvalidRank { rank: 2, size: 2 });
    }

    #[test]
    fn abort_unblocks_receivers() {
        let board = FailureStatusBoard::new(2);
        let r = Arc::new(Router::new(2, board));
        let r2 = Arc::clone(&r);
        let h = thread::spawn(move || r2.recv_blocking(1, &(9, 0, 3)));
        thread::sleep(Duration::from_millis(5));
        r.abort();
        assert_eq!(h.join().unwrap().unwrap_err(), MpiError::Aborted);
    }

    /// A router built by hand keeps no count of running ranks: with every
    /// receiver parked it waits for the harness, which delivers later.
    #[test]
    fn hand_built_router_with_every_receiver_parked_is_not_aborted() {
        let r = Arc::new(Router::new(3, FailureStatusBoard::new(3)));
        let receivers: Vec<_> = (0..3)
            .map(|dst| {
                let r = Arc::clone(&r);
                thread::spawn(move || r.recv_blocking(dst, &(9, 0, 3)))
            })
            .collect();
        for mb in &r.fabric.mailboxes {
            while mb.inner.lock().parked.is_empty() {
                thread::yield_now();
            }
        }
        assert!(!r.is_aborted());
        for dst in 0..3 {
            r.deliver(env(0, dst, 9, 3, dst as u64));
        }
        for (dst, h) in receivers.into_iter().enumerate() {
            assert_eq!(id(&h.join().unwrap().unwrap()), dst as u64);
        }
        assert!(!r.is_aborted());
    }

    /// Precise wakeups: deliveries into unrelated lanes must not wake an
    /// exact receiver parked on a different lane.  (Functional check — the
    /// receiver must still *only* complete once its own lane is served.)
    #[test]
    fn exact_receiver_ignores_unrelated_deliveries() {
        let board = FailureStatusBoard::new(2);
        let r = Arc::new(Router::new(2, board));
        let r2 = Arc::clone(&r);
        let h = thread::spawn(move || r2.recv_blocking(1, &(9, 0, 42)));
        thread::sleep(Duration::from_millis(5));
        // A burst of deliveries into other lanes of the same mailbox.
        for tag in 0..32 {
            r.deliver(env(0, 1, 9, tag, tag as u64));
        }
        thread::sleep(Duration::from_millis(5));
        assert_eq!(r.queued(1), 32);
        r.deliver(env(0, 1, 9, 42, 99));
        let got = h.join().unwrap().unwrap();
        assert_eq!((got.tag, id(&got)), (42, 99));
        // The unrelated envelopes are all still queued.
        assert_eq!(r.queued(1), 32);
    }

    /// Long deliver/receive churn leaves nothing behind: lanes are dropped
    /// when drained, so the mailbox holds no per-message state after each
    /// cycle.
    #[test]
    fn exact_receive_churn_leaves_mailbox_empty() {
        let r = Router::new(2, FailureStatusBoard::new(2));
        for round in 0..2_000u64 {
            r.deliver(env(0, 1, 9, 3, round));
            let got = r.try_match(1, &(9, 0, 3)).unwrap();
            assert_eq!(id(&got), round);
        }
        assert_eq!(r.queued(1), 0);
        assert!(!r.fabric.mailboxes[1].inner.lock().mail.has(&(9, 0, 3)));
    }
}
