//! A thread-world run none of whose ranks can make progress ends at once:
//! every rank thread is parked in a receive or has returned, so the router
//! aborts the run and each parked receive returns `MpiError::Aborted`
//! (`simmpi::router`, § Liveness).  Before, each of these shapes stalled
//! until a 300 s wall-clock timer fired.
//!
//! Every run executes on a helper thread under a hard wall deadline, so a
//! regression fails here instead of stalling the suite.

use simcluster::SimTime;
use simmpi::{run_cluster, ClusterConfig, MpiError, MpiResult, ProcHandle};
use std::sync::mpsc;
use std::thread;
use std::time::Duration;

const DEADLINE: Duration = Duration::from_secs(10);
const REPEATS: usize = 20;
/// A tag nobody ever sends on.
const NEVER: u32 = 99;

/// What a run left behind: per rank the body's result (`Err(String)` is a
/// panic) and `(final, compute, comm, wait, failed)`.
#[derive(Debug, PartialEq)]
struct Outcome {
    results: Vec<Result<MpiResult<()>, String>>,
    procs: Vec<(SimTime, SimTime, SimTime, SimTime, bool)>,
}

/// Runs `body` on `ranks` ranks [`REPEATS`] times, each run on a helper
/// thread that must finish by [`DEADLINE`], and returns the one outcome all
/// repeats agree on.
fn stuck_run(ranks: usize, body: fn(ProcHandle) -> MpiResult<()>) -> Outcome {
    let run = move || {
        let (tx, rx) = mpsc::channel();
        let helper = thread::spawn(move || {
            let report = run_cluster(&ClusterConfig::new(ranks), body);
            let procs = report
                .procs
                .iter()
                .map(|p| {
                    (
                        p.final_time,
                        p.compute_time,
                        p.comm_time,
                        p.wait_time,
                        p.failed,
                    )
                })
                .collect();
            let _ = tx.send(Outcome {
                results: report.results,
                procs,
            });
        });
        let outcome = rx
            .recv_timeout(DEADLINE)
            .unwrap_or_else(|_| panic!("run still going after {DEADLINE:?}"));
        helper.join().unwrap();
        outcome
    };
    let first = run();
    for repeat in 1..REPEATS {
        assert_eq!(run(), first, "repeat {repeat} differs");
    }
    first
}

/// Rank-dependent work and one real exchange with the next rank, so the
/// clocks the repeats compare are not all zero.
fn warm_up(proc: &ProcHandle) -> MpiResult<()> {
    let world = proc.world();
    let (rank, size) = (world.rank(), world.size());
    proc.charge_compute(1e6 * (rank + 1) as f64, 1e5);
    world.send(&[rank as u64; 64], (rank + 1) % size, 1)?;
    world.recv::<u64>((rank + size - 1) % size, 1)?;
    Ok(())
}

#[test]
fn a_receive_cycle_is_aborted_on_both_ranks() {
    let outcome = stuck_run(2, |proc| {
        warm_up(&proc)?;
        let world = proc.world();
        world.recv::<u64>(1 - world.rank(), NEVER).map(drop)
    });
    assert_eq!(
        outcome.results,
        vec![Ok(Err(MpiError::Aborted)), Ok(Err(MpiError::Aborted))]
    );
    assert!(outcome.procs.iter().all(|p| !p.4 && p.0 > SimTime::ZERO));
}

#[test]
fn a_receive_from_a_rank_that_returned_is_aborted() {
    let outcome = stuck_run(2, |proc| {
        warm_up(&proc)?;
        let world = proc.world();
        if world.rank() == 0 {
            world.recv::<u64>(1, NEVER).map(drop)
        } else {
            Ok(())
        }
    });
    assert_eq!(
        outcome.results,
        vec![Ok(Err(MpiError::Aborted)), Ok(Ok(()))]
    );
    assert!(outcome.procs.iter().all(|p| !p.4));
}

/// The shape that stalled HPCCG: rank 2 crashes, rank 1 learns of it and
/// gives up, and rank 0 is parked on rank 1 — alive, and never sending.
#[test]
fn the_neighbour_of_a_survivor_that_gave_up_is_aborted() {
    let outcome = stuck_run(3, |proc| {
        warm_up(&proc)?;
        let world = proc.world();
        match world.rank() {
            0 => world.recv::<u64>(1, NEVER).map(drop),
            1 => world.recv::<u64>(2, NEVER).map(drop),
            _ => {
                proc.fail_here();
                Ok(())
            }
        }
    });
    assert_eq!(
        outcome.results,
        vec![
            Ok(Err(MpiError::Aborted)),
            Ok(Err(MpiError::ProcessFailed { rank: 2 })),
            Ok(Ok(())),
        ]
    );
    let failed: Vec<bool> = outcome.procs.iter().map(|p| p.4).collect();
    assert_eq!(failed, vec![false, false, true]);
}

#[test]
fn ranks_parked_when_the_last_runner_panics_are_aborted() {
    const RANKS: usize = 5;
    let outcome = stuck_run(RANKS, |proc| {
        warm_up(&proc)?;
        let world = proc.world();
        let rank = world.rank();
        if rank == RANKS - 1 {
            panic!("rank {rank} dies");
        }
        // A receive cycle among the others; nobody names the rank that dies.
        world.recv::<u64>((rank + 1) % (RANKS - 1), NEVER).map(drop)
    });
    for rank in 0..RANKS - 1 {
        assert_eq!(outcome.results[rank], Ok(Err(MpiError::Aborted)));
        assert!(!outcome.procs[rank].4);
    }
    assert_eq!(outcome.results[RANKS - 1], Err("rank 4 dies".to_string()));
    assert!(outcome.procs[RANKS - 1].4);
}
