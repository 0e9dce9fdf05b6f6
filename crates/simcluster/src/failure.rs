//! Crash-stop failure injection and detection.
//!
//! The paper assumes crash-stop failures of physical processes (replicas) and
//! assumes a failure detector exists ("Failure detection is outside the scope
//! of this paper").  We implement the part the protocols need: a shared
//! [`FailureStatusBoard`] on which the injector marks processes as dead, and
//! which the runtime layers query when a receive from a dead peer must return
//! an error instead of blocking forever.
//!
//! A crashed process stops executing at the injection point; the messages it
//! sent *before* the crash remain deliverable (they were already handed to
//! the network), while nothing sent after the crash exists — this mirrors the
//! semantics the paper relies on for partially transmitted task updates.

use crate::time::SimTime;
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// A recorded failure.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FailureEvent {
    /// Physical rank that failed.
    pub rank: usize,
    /// Virtual time at which the failure was injected (as observed by the
    /// failing process's own clock).
    pub time: SimTime,
}

/// A callback invoked (outside the board lock) every time the failure state
/// changes.  Registered by blocking subsystems — the message router wires one
/// up so that a crash signaled on the board immediately wakes every blocked
/// receiver, with no polling.
pub type FailureWaker = Arc<dyn Fn() + Send + Sync>;

/// Shared, thread-safe view of which physical processes have crashed.
///
/// Cloning the board is cheap (it is an `Arc`); all clones observe the same
/// state.
///
/// One atomic flag per rank is the only liveness state, so
/// [`Self::is_failed`] — asked several times per message by the fabric — is
/// an atomic load instead of a trip through a mutex every rank of the run
/// shares; the lock guards the event history only.  A writer flips the
/// flag with one `swap`, so of two racing markers exactly one records the
/// event and wakes, and it sets the flag *before* it calls the registered
/// wakers: the message router's lost-wake-up argument relies on that order
/// (a receiver that checks after the waker ran sees the flag).
#[derive(Clone)]
pub struct FailureStatusBoard {
    failed: Arc<[AtomicBool]>,
    events: Arc<Mutex<Vec<FailureEvent>>>,
    wakers: Arc<Mutex<Vec<FailureWaker>>>,
}

impl std::fmt::Debug for FailureStatusBoard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // The event history names every failed rank.
        f.debug_struct("FailureStatusBoard")
            .field("events", &*self.events.lock())
            .finish_non_exhaustive()
    }
}

impl FailureStatusBoard {
    /// Creates a board for `num_procs` processes, all alive.
    pub fn new(num_procs: usize) -> Self {
        FailureStatusBoard {
            failed: (0..num_procs).map(|_| AtomicBool::new(false)).collect(),
            events: Arc::new(Mutex::new(Vec::new())),
            wakers: Arc::new(Mutex::new(Vec::new())),
        }
    }

    /// Registers a waker called after every new failure, outside the board
    /// lock.  Wakers must be cheap and must not block on the board
    /// themselves.
    pub fn register_waker(&self, waker: FailureWaker) {
        self.wakers.lock().push(waker);
    }

    fn wake_all(&self) {
        // Snapshot under the lock, invoke outside it: a waker typically
        // grabs other locks (mailboxes) and must not nest inside ours.
        let wakers: Vec<FailureWaker> = self.wakers.lock().clone();
        for w in &wakers {
            w();
        }
    }

    /// Number of processes tracked.
    pub fn num_procs(&self) -> usize {
        self.failed.len()
    }

    /// Marks `rank` as failed at virtual time `time`.  Idempotent: marking an
    /// already-failed process again is a no-op (no event, no wake-up).
    pub fn mark_failed(&self, rank: usize, time: SimTime) {
        if self.failed[rank].swap(true, Ordering::SeqCst) {
            return;
        }
        self.events.lock().push(FailureEvent { rank, time });
        self.wake_all();
    }

    /// True if `rank` has crashed.  Lock-free: one atomic load.
    pub fn is_failed(&self, rank: usize) -> bool {
        self.failed[rank].load(Ordering::SeqCst)
    }

    /// All ranks currently alive.
    pub fn alive_ranks(&self) -> Vec<usize> {
        (0..self.num_procs())
            .filter(|&r| !self.is_failed(r))
            .collect()
    }

    /// Complete failure history.
    pub fn events(&self) -> Vec<FailureEvent> {
        self.events.lock().clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn everyone_starts_alive() {
        let b = FailureStatusBoard::new(4);
        assert_eq!(b.num_procs(), 4);
        assert_eq!(b.alive_ranks(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn mark_failed_is_visible_and_idempotent() {
        let b = FailureStatusBoard::new(3);
        b.mark_failed(1, SimTime::from_secs(2.0));
        assert!(b.is_failed(1));
        assert!(!b.is_failed(0));
        b.mark_failed(1, SimTime::from_secs(3.0));
        assert_eq!(b.events().len(), 1, "re-marking must not record an event");
        assert_eq!(b.alive_ranks(), vec![0, 2]);
    }

    /// Both views of liveness (`is_failed`, `alive_ranks`) and the event
    /// history agree after every transition, on every clone.
    #[test]
    fn is_failed_agrees_with_the_locked_views() {
        let a = FailureStatusBoard::new(3);
        let b = a.clone();
        let check = |failed: &[usize], events: usize| {
            for board in [&a, &b] {
                for rank in 0..3 {
                    let expect = failed.contains(&rank);
                    assert_eq!(board.is_failed(rank), expect);
                    assert_eq!(board.alive_ranks().contains(&rank), !expect);
                }
                assert_eq!(board.alive_ranks().len(), 3 - failed.len());
                assert_eq!(board.events().len(), events);
            }
        };
        check(&[], 0);
        a.mark_failed(2, SimTime::from_secs(1.0));
        check(&[2], 1);
        b.mark_failed(0, SimTime::from_secs(2.0));
        check(&[0, 2], 2);
        a.mark_failed(2, SimTime::from_secs(3.0));
        check(&[0, 2], 2);
    }

    #[test]
    fn clones_share_state() {
        let a = FailureStatusBoard::new(2);
        let b = a.clone();
        a.mark_failed(1, SimTime::ZERO);
        assert!(b.is_failed(1));
    }

    #[test]
    fn events_record_time() {
        let b = FailureStatusBoard::new(2);
        b.mark_failed(1, SimTime::from_secs(4.5));
        let ev = b.events();
        assert_eq!(ev.len(), 1);
        assert_eq!(ev[0].rank, 1);
        assert_eq!(ev[0].time.as_secs(), 4.5);
    }
}
