//! Discrete-event virtual-time scheduling core.
//!
//! [`VirtualEngine`] is the deterministic heart of the event-driven
//! execution strategy: a queue of *timers* keyed by virtual time (one FIFO
//! bucket per distinct time) plus a FIFO *ready list* of tasks that can run
//! immediately.  It knows
//! nothing about MPI, mailboxes or failure semantics — `simmpi::engine`
//! builds the cooperative rank scheduler on top of it.
//!
//! ## Determinism
//!
//! Dispatch order is a pure function of the calls made against the engine:
//!
//! * ready tasks dispatch strictly FIFO in the order they were made ready;
//! * timers dispatch in virtual-time order, ties broken by insertion order
//!   (each time's bucket is a FIFO), never by container internals;
//! * virtual *now* only moves when a timer fires, and never backwards.
//!
//! The engine is single-threaded by construction, and so is its one caller
//! (`simmpi::engine` drives it from a plain loop); all determinism
//! obligations beyond dispatch order belong to the layer above.

use crate::time::SimTime;
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, VecDeque};

/// Identifier of a task registered with a [`VirtualEngine`].
///
/// The engine does not allocate ids; callers use whatever dense indexing
/// they already have (the rank number, in `simmpi`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TaskId(pub usize);

/// What the engine hands back on [`VirtualEngine::next`]: the task to run
/// and the virtual time at which it resumes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Dispatch {
    /// The task to resume.
    pub task: TaskId,
    /// Virtual time of the resumption (the engine's `now`).
    pub at: SimTime,
}

/// Largest capacity (in tasks) an emptied bucket may have and still be kept
/// for reuse; anything bigger is freed.  Reuse is what spares the
/// all-distinct case an allocation per timer; the cap is what keeps a few
/// million-task buckets from outliving their instant (a 1M-rank run peaked
/// at 665 MB with an uncapped pool, 605 MB with this one).
const POOLED_CAPACITY: usize = 1 << 12;

/// Deterministic discrete-event scheduler: a virtual-time timer queue plus
/// a FIFO ready list.
///
/// ```
/// use simcluster::{SimTime, TaskId, VirtualEngine};
///
/// let mut engine = VirtualEngine::new();
/// engine.schedule_at(TaskId(0), SimTime::from_secs(2.0));
/// engine.schedule_at(TaskId(1), SimTime::from_secs(1.0));
/// engine.make_ready(TaskId(2));
///
/// // Ready tasks dispatch first (virtual now does not move)…
/// assert_eq!(engine.next().unwrap().task, TaskId(2));
/// // …then timers in virtual-time order, advancing now.
/// assert_eq!(engine.next().unwrap().task, TaskId(1));
/// assert_eq!(engine.now(), SimTime::from_secs(1.0));
/// assert_eq!(engine.next().unwrap().task, TaskId(0));
/// assert!(engine.next().is_none());
/// ```
///
/// ## Cost of the timer queue
///
/// Timers are stored as one FIFO bucket per *distinct* time, so
/// [`schedule_at`](Self::schedule_at) and a timer [`next`](Self::next) cost
/// `O(log distinct-times)`, not `O(log pending)`.  That is the right trade
/// for the workloads above it: symmetric collectives make whole rank sets
/// resume at the same instant.  Measured on the `apps` weak-scaling runs: 40
/// distinct times for 1.83 M timer dispatches with up to 199 979 pending at
/// 200 000 ranks, 41 for 9.88 M dispatches at 1 M ranks, 122–155 for the
/// two-iteration 10 000-rank runs.  Against the binary heap this replaced
/// (one `(time, sequence, task)` entry per timer), filling and draining 1 M
/// timers costs 17 ns per timer instead of 300 over 32 distinct times, and
/// 94 instead of 490 over 10 007.
///
/// It is the wrong trade when every time is distinct, and there is
/// deliberately no second structure to switch to: 1 M timers at 1 M distinct
/// times cost 605 ns each instead of 366, and with 10 000 timers pending,
/// all distinct, a pop followed by a push costs 155 ns instead of 88 (same
/// 2-vCPU host, best of seven).
#[derive(Debug, Default)]
pub struct VirtualEngine {
    now: SimTime,
    ready: VecDeque<TaskId>,
    /// The pending timers of each distinct time, in insertion order.  Never
    /// holds an empty bucket.
    buckets: BTreeMap<SimTime, VecDeque<TaskId>>,
    /// Emptied buckets of at most [`POOLED_CAPACITY`], kept for reuse.
    pool: Vec<VecDeque<TaskId>>,
    /// Timers pending across all buckets.
    timed: usize,
    dispatched: u64,
}

impl VirtualEngine {
    /// An empty engine at virtual time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current virtual time: the time of the latest timer dispatched.
    /// Monotonically non-decreasing.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Appends `task` to the ready list: it dispatches (FIFO) before any
    /// timer fires, at the current virtual time.
    pub fn make_ready(&mut self, task: TaskId) {
        self.ready.push_back(task);
    }

    /// Schedules `task` to resume at virtual time `at`.  Scheduling in the
    /// past (`at < now`) is allowed — conservative per-rank clocks can lag
    /// global virtual time — and dispatches at the current `now` without
    /// moving time backwards.
    pub fn schedule_at(&mut self, task: TaskId, at: SimTime) {
        match self.buckets.entry(at) {
            Entry::Occupied(mut bucket) => bucket.get_mut().push_back(task),
            Entry::Vacant(slot) => {
                slot.insert(self.pool.pop().unwrap_or_default())
                    .push_back(task);
            }
        }
        self.timed += 1;
    }

    /// Pops the next task to run: the oldest ready task if any, otherwise
    /// the earliest timer (advancing virtual `now` to its time).  `None`
    /// means the engine is idle — every task is parked or finished.
    ///
    /// Deliberately iterator-shaped, but not an `Iterator` impl: dispatch
    /// consumers interleave `next` with `make_ready`/`schedule_at`, which
    /// iterator adapters would hide behind a borrow.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Option<Dispatch> {
        let task = if let Some(task) = self.ready.pop_front() {
            task
        } else {
            // The earliest bucket stays in the map while it drains, so a
            // same-time `schedule_at` made by a task it dispatched joins its
            // tail — behind the timers already waiting there.
            let mut earliest = self.buckets.first_entry()?;
            let task = earliest.get_mut().pop_front().expect("no empty bucket");
            self.now = self.now.max(*earliest.key());
            if earliest.get().is_empty() {
                let emptied = earliest.remove();
                if emptied.capacity() <= POOLED_CAPACITY {
                    self.pool.push(emptied);
                }
            }
            self.timed -= 1;
            task
        };
        self.dispatched += 1;
        Some(Dispatch { task, at: self.now })
    }

    /// True if neither the ready list nor the timer queue holds a task.
    pub fn is_idle(&self) -> bool {
        self.ready.is_empty() && self.timed == 0
    }

    /// Number of tasks waiting (ready + timed).
    pub fn pending(&self) -> usize {
        self.ready.len() + self.timed
    }

    /// Total dispatches served so far (diagnostic; one per `next`).
    pub fn dispatched(&self) -> u64 {
        self.dispatched
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: f64) -> SimTime {
        SimTime::from_secs(secs)
    }

    #[test]
    fn ready_tasks_dispatch_fifo_before_any_timer() {
        let mut e = VirtualEngine::new();
        e.schedule_at(TaskId(9), t(0.5));
        e.make_ready(TaskId(1));
        e.make_ready(TaskId(2));
        assert_eq!(
            e.next().unwrap(),
            Dispatch {
                task: TaskId(1),
                at: SimTime::ZERO
            }
        );
        assert_eq!(
            e.next().unwrap(),
            Dispatch {
                task: TaskId(2),
                at: SimTime::ZERO
            }
        );
        assert_eq!(e.next().unwrap().task, TaskId(9));
        assert_eq!(e.now(), t(0.5));
    }

    #[test]
    fn timers_fire_in_time_order_with_insertion_tie_break() {
        let mut e = VirtualEngine::new();
        e.schedule_at(TaskId(3), t(2.0));
        e.schedule_at(TaskId(1), t(1.0));
        e.schedule_at(TaskId(2), t(1.0)); // same time, inserted later
        let order: Vec<TaskId> = std::iter::from_fn(|| e.next().map(|d| d.task)).collect();
        assert_eq!(order, vec![TaskId(1), TaskId(2), TaskId(3)]);
        assert_eq!(e.now(), t(2.0));
        assert!(e.is_idle());
    }

    #[test]
    fn now_never_moves_backwards() {
        let mut e = VirtualEngine::new();
        e.schedule_at(TaskId(0), t(5.0));
        assert_eq!(e.next().unwrap().at, t(5.0));
        // A timer in the past dispatches at the current now.
        e.schedule_at(TaskId(1), t(1.0));
        let d = e.next().unwrap();
        assert_eq!(d.task, TaskId(1));
        assert_eq!(d.at, t(5.0));
        assert_eq!(e.now(), t(5.0));
    }

    #[test]
    fn counters_track_pending_and_dispatched() {
        let mut e = VirtualEngine::new();
        assert!(e.is_idle());
        e.make_ready(TaskId(0));
        e.schedule_at(TaskId(1), t(1.0));
        assert_eq!(e.pending(), 2);
        assert!(!e.is_idle());
        e.next();
        e.next();
        assert_eq!(e.pending(), 0);
        assert_eq!(e.dispatched(), 2);
    }

    #[test]
    fn dispatch_order_is_reproducible() {
        let run = || {
            let mut e = VirtualEngine::new();
            for i in 0..100usize {
                if i % 3 == 0 {
                    e.make_ready(TaskId(i));
                } else {
                    e.schedule_at(TaskId(i), t((i % 7) as f64));
                }
            }
            std::iter::from_fn(move || e.next().map(|d| d.task)).collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    /// The specification: the binary heap over `(time, insertion, task)`
    /// this queue used to be, plus the FIFO ready list.
    #[derive(Default)]
    struct HeapModel {
        now: SimTime,
        ready: VecDeque<TaskId>,
        timers: std::collections::BinaryHeap<std::cmp::Reverse<(SimTime, u64, TaskId)>>,
        seq: u64,
        dispatched: u64,
    }

    impl HeapModel {
        fn schedule_at(&mut self, task: TaskId, at: SimTime) {
            self.timers.push(std::cmp::Reverse((at, self.seq, task)));
            self.seq += 1;
        }

        fn next(&mut self) -> Option<Dispatch> {
            let task = match self.ready.pop_front() {
                Some(task) => task,
                None => {
                    let std::cmp::Reverse((at, _, task)) = self.timers.pop()?;
                    self.now = self.now.max(at);
                    task
                }
            };
            self.dispatched += 1;
            Some(Dispatch { task, at: self.now })
        }
    }

    proptest::proptest! {
        /// Random interleavings of `make_ready`, `schedule_at` and `next`
        /// against the heap model: few distinct times and many, times in the
        /// past, one task scheduled twice, and a `schedule_at` for the very
        /// time whose bucket is being drained.  Every dispatch and every
        /// counter must agree.
        #[test]
        fn queue_agrees_with_the_heap_model(
            ops in proptest::collection::vec(0u32..60_000, 1..200),
            few in 0u32..2,
        ) {
            let few = few == 1;
            let mut engine = VirtualEngine::new();
            let mut model = HeapModel::default();
            for op in ops {
                // Mixed-radix digits: action (10), task (6), time (1000).
                // Tasks come from a handful of ids, so the same task is
                // often pending twice.
                let (action, task, raw) = (op % 10, TaskId((op / 10 % 6) as usize), op / 60);
                match action {
                    0 => {
                        engine.make_ready(task);
                        model.ready.push_back(task);
                    }
                    1..=4 => {
                        // Either 4 distinct times (deep buckets) or 1000
                        // (mostly singletons); both reach behind `now`.
                        let at = t(f64::from(if few { raw % 4 } else { raw }));
                        engine.schedule_at(task, at);
                        model.schedule_at(task, at);
                    }
                    5 => {
                        // The time being drained: joins that bucket's tail.
                        engine.schedule_at(task, engine.now());
                        model.schedule_at(task, model.now);
                    }
                    _ => proptest::prop_assert_eq!(engine.next(), model.next()),
                }
                proptest::prop_assert_eq!(engine.now(), model.now);
                proptest::prop_assert_eq!(engine.pending(), model.ready.len() + model.timers.len());
                proptest::prop_assert_eq!(engine.dispatched(), model.dispatched);
                proptest::prop_assert_eq!(engine.is_idle(), engine.pending() == 0);
            }
            // Drain: the tails must agree too.
            loop {
                let (got, want) = (engine.next(), model.next());
                proptest::prop_assert_eq!(got, want);
                if got.is_none() {
                    break;
                }
            }
        }
    }
}
