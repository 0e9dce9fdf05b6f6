//! The host-side executor: a long-running pool over one locked FIFO.
//!
//! The batch runner ([`crate::runner::run_batch`]) and the sweep service
//! ([`mod@crate::serve`]) share it: a fixed set of worker threads popping
//! one queue, oldest job first, behind one mutex — a campaign run is
//! ≥ 0.3 ms of simulation, a push or pop holds the lock for tens of
//! nanoseconds (measurements: ARCHITECTURE.md, § "Host-side executor").
//! Submissions come from any thread at any time.  A job that panics is
//! caught on its worker, which keeps serving, and still counts as finished,
//! so [`ExecutorPool::drain`] and [`ExecutorPool::shutdown`] return.

use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

#[derive(Default)]
struct State {
    queue: VecDeque<Box<dyn FnOnce() + Send>>,
    /// Jobs submitted and not yet finished executing.
    pending: usize,
    /// Set on drop; workers exit once the queue is empty and this is set.
    stopping: bool,
}

#[derive(Default)]
struct Shared {
    state: Mutex<State>,
    /// Workers sleep here while the queue is empty.
    work: Condvar,
    /// Drainers sleep here until `pending` reaches zero.
    idle: Condvar,
}

fn worker_loop(shared: &Shared) {
    let mut state = shared.state.lock();
    loop {
        if let Some(job) = state.queue.pop_front() {
            drop(state);
            // A panic is caught (the hook has reported it): worker and count go on.
            let _ = catch_unwind(AssertUnwindSafe(job));
            state = shared.state.lock();
            state.pending -= 1;
            if state.pending == 0 {
                shared.idle.notify_all();
            }
        } else if state.stopping {
            return;
        } else {
            shared.work.wait(&mut state);
        }
    }
}

/// A fixed-size pool of executor threads over one FIFO (module docs).
pub struct ExecutorPool {
    shared: Arc<Shared>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl ExecutorPool {
    /// Starts a pool of `workers` threads (at least one).
    pub fn new(workers: usize) -> Self {
        let shared = Arc::new(Shared::default());
        let workers = (0..workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("campaign-exec-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn executor worker")
            })
            .collect();
        ExecutorPool { shared, workers }
    }

    /// Enqueues a job; callable from any thread, a running job included.
    pub fn submit(&self, job: impl FnOnce() + Send + 'static) {
        let mut state = self.shared.state.lock();
        state.pending += 1;
        state.queue.push_back(Box::new(job));
        drop(state);
        self.shared.work.notify_one();
    }

    /// Blocks until every submitted job has finished, those submitted
    /// meanwhile included.  The workers stay alive for more.
    pub fn drain(&self) {
        let mut state = self.shared.state.lock();
        while state.pending != 0 {
            self.shared.idle.wait(&mut state);
        }
    }

    /// Finishes outstanding work, then stops and joins every worker (`Drop`).
    pub fn shutdown(self) {}
}

impl Drop for ExecutorPool {
    /// Workers empty the queue before they look at `stopping`, so a pool
    /// dropped without `shutdown` (a test panicking past it) is as graceful.
    fn drop(&mut self) {
        self.shared.state.lock().stopping = true;
        self.shared.work.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::time::Duration;

    #[test]
    fn executes_every_job_exactly_once() {
        let pool = ExecutorPool::new(4);
        let counter = Arc::new(AtomicUsize::new(0));
        for _ in 0..100 {
            let counter = Arc::clone(&counter);
            pool.submit(move || {
                counter.fetch_add(1, Ordering::SeqCst);
            });
        }
        pool.drain();
        assert_eq!(counter.load(Ordering::SeqCst), 100);
        assert_eq!(pool.shared.state.lock().pending, 0);
        pool.shutdown();
    }

    #[test]
    fn accepts_submissions_from_many_threads() {
        let pool = Arc::new(ExecutorPool::new(3));
        let counter = Arc::new(AtomicUsize::new(0));
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let pool = Arc::clone(&pool);
                let counter = Arc::clone(&counter);
                scope.spawn(move || {
                    for _ in 0..25 {
                        let counter = Arc::clone(&counter);
                        pool.submit(move || {
                            counter.fetch_add(1, Ordering::SeqCst);
                        });
                    }
                });
            }
        });
        pool.drain();
        assert_eq!(counter.load(Ordering::SeqCst), 8 * 25);
    }

    #[test]
    fn drain_is_reusable_between_batches() {
        let pool = ExecutorPool::new(2);
        let counter = Arc::new(AtomicUsize::new(0));
        for round in 1..=3 {
            for _ in 0..10 {
                let counter = Arc::clone(&counter);
                pool.submit(move || {
                    counter.fetch_add(1, Ordering::SeqCst);
                });
            }
            pool.drain();
            assert_eq!(counter.load(Ordering::SeqCst), round * 10);
        }
        pool.shutdown();
    }

    #[test]
    fn a_pinned_worker_does_not_hold_up_queued_jobs() {
        // One long job pins a worker; everything submitted behind it must
        // still complete on the other worker.
        let pool = ExecutorPool::new(2);
        let counter = Arc::new(AtomicUsize::new(0));
        let gate = Arc::new(AtomicBool::new(false));
        {
            let gate = Arc::clone(&gate);
            pool.submit(move || {
                while !gate.load(Ordering::SeqCst) {
                    std::thread::sleep(Duration::from_millis(1));
                }
            });
        }
        for _ in 0..40 {
            let counter = Arc::clone(&counter);
            pool.submit(move || {
                counter.fetch_add(1, Ordering::SeqCst);
            });
        }
        // All 40 short jobs must complete while that worker is still pinned.
        let start = std::time::Instant::now();
        while counter.load(Ordering::SeqCst) != 40 {
            assert!(
                start.elapsed() < Duration::from_secs(10),
                "stuck at {} of 40 with one worker pinned",
                counter.load(Ordering::SeqCst)
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        gate.store(true, Ordering::SeqCst);
        pool.shutdown();
    }

    #[test]
    fn shutdown_finishes_queued_work_first() {
        let pool = ExecutorPool::new(2);
        let counter = Arc::new(AtomicUsize::new(0));
        for _ in 0..50 {
            let counter = Arc::clone(&counter);
            pool.submit(move || {
                std::thread::sleep(Duration::from_micros(100));
                counter.fetch_add(1, Ordering::SeqCst);
            });
        }
        pool.shutdown();
        assert_eq!(counter.load(Ordering::SeqCst), 50);
    }

    #[test]
    fn a_panicking_job_leaves_the_pool_usable() {
        // On a helper thread under a deadline: a pool that lost a worker or
        // a `pending` count to the panic would block here forever.
        use std::sync::mpsc::{channel, RecvTimeoutError};
        let (done, finished) = channel();
        let helper = std::thread::spawn(move || {
            const WORKERS: usize = 2;
            let pool = ExecutorPool::new(WORKERS);
            // The barrier makes every worker take one of the panicking jobs.
            let barrier = Arc::new(std::sync::Barrier::new(WORKERS));
            for _ in 0..WORKERS {
                let barrier = Arc::clone(&barrier);
                pool.submit(move || {
                    barrier.wait();
                    panic!("job panic (expected by this test)");
                });
            }
            pool.drain();
            assert_eq!(pool.shared.state.lock().pending, 0);
            // 100 further jobs that only complete in pairs: every worker
            // must still be serving.
            let counter = Arc::new(AtomicUsize::new(0));
            for _ in 0..100 {
                let barrier = Arc::clone(&barrier);
                let counter = Arc::clone(&counter);
                pool.submit(move || {
                    barrier.wait();
                    counter.fetch_add(1, Ordering::SeqCst);
                });
            }
            pool.drain();
            assert_eq!(counter.load(Ordering::SeqCst), 100);
            pool.shutdown();
            done.send(()).unwrap();
        });
        if finished.recv_timeout(Duration::from_secs(10)) == Err(RecvTimeoutError::Timeout) {
            panic!("pool still blocked 10 s after a job panicked");
        }
        // A failed assertion on the helper surfaces here.
        helper.join().unwrap();
    }
}
