//! A small intra-rank fork-join pool for kernel tiles.
//!
//! The paper's intra-parallelization executes a kernel as a set of
//! independent tiles (plane ranges, row ranges) inside one rank.  This pool
//! is the host-side executor for that shape of work: the tiles of one
//! [`KernelPool::run`] call go into one locked queue and scoped workers pop
//! it, first tile first — the queue discipline of the campaign crate's
//! `ExecutorPool`, but scoped: tasks may borrow the caller's data (the
//! grids and vectors being swept), which a long-lived `'static` pool cannot
//! allow without `unsafe`.  The task set is fixed up front and tiles never
//! spawn tiles, so a worker that finds the queue empty is done (no
//! condition variables), and [`std::thread::scope`] joins the workers
//! before `run` returns, which is where the borrows end — the whole pool is
//! safe code (this crate is `#![deny(unsafe_code)]`).
//!
//! Determinism: tiles write disjoint outputs and their arithmetic does not
//! depend on which worker executes them, so pool-driven sweeps are
//! bit-identical to sequential ones for *any* worker count (the property
//! tests pin this down), and the modeled [`crate::KernelCost`] descriptors
//! are untouched: virtual-time reports cannot observe the pool.

use std::sync::Mutex;

/// One unit of kernel work: a closure borrowing the caller's data for the
/// lifetime of a single [`KernelPool::run`] call.
pub type Task<'scope> = Box<dyn FnOnce() + Send + 'scope>;

/// A fork-join executor for kernel tiles.
#[derive(Debug, Clone)]
pub struct KernelPool {
    workers: usize,
}

impl KernelPool {
    /// A pool with `workers` workers (clamped to at least 1).
    pub fn new(workers: usize) -> Self {
        KernelPool {
            workers: workers.max(1),
        }
    }

    /// A pool sized to the host's available parallelism.
    pub fn host_sized() -> Self {
        Self::new(
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        )
    }

    /// Number of workers.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Executes every task, returning when all have finished.
    ///
    /// The calling thread is one of the workers and no more workers start
    /// than there are tasks, so one worker — or an empty or single-task
    /// set — is in-order sequential execution on the calling thread.
    pub fn run(&self, tasks: Vec<Task<'_>>) {
        let workers = self.workers.min(tasks.len());
        let queue = Mutex::new(tasks.into_iter());
        let work = || loop {
            // A statement of its own: the guard must drop before the task runs.
            let next = queue.lock().expect("tasks run outside the lock").next();
            match next {
                Some(task) => task(),
                None => return,
            }
        };
        std::thread::scope(|s| {
            for _ in 1..workers {
                s.spawn(work);
            }
            work();
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn runs_every_task_exactly_once() {
        for workers in [1, 2, 4, 7] {
            let pool = KernelPool::new(workers);
            let counter = AtomicUsize::new(0);
            let tasks: Vec<Task<'_>> = (0..100)
                .map(|_| {
                    let c = &counter;
                    Box::new(move || {
                        c.fetch_add(1, Ordering::SeqCst);
                    }) as Task<'_>
                })
                .collect();
            pool.run(tasks);
            assert_eq!(counter.load(Ordering::SeqCst), 100, "workers={workers}");
        }
    }

    #[test]
    fn tasks_may_borrow_and_mutate_disjoint_data() {
        let mut data = vec![0u64; 64];
        let pool = KernelPool::new(4);
        pool.run(
            data.chunks_mut(8)
                .enumerate()
                .map(|(i, chunk)| {
                    let task: Task<'_> = Box::new(move || {
                        for (j, slot) in chunk.iter_mut().enumerate() {
                            *slot = (i * 8 + j) as u64;
                        }
                    });
                    task
                })
                .collect(),
        );
        for (i, v) in data.iter().enumerate() {
            assert_eq!(*v, i as u64);
        }
    }

    #[test]
    fn zero_workers_clamps_to_one_and_empty_task_set_is_fine() {
        let pool = KernelPool::new(0);
        assert_eq!(pool.workers(), 1);
        pool.run(Vec::new());
        assert!(KernelPool::host_sized().workers() >= 1);
    }
}
