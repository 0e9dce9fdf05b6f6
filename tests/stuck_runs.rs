//! Crash specs without a checkpoint plan used to end only when a 300 s
//! wall-clock timer fired: a survivor that learns of a dead peer returns,
//! and its own neighbours stay parked on a rank that is neither failed nor
//! ever going to send.  The thread world now ends such a run the moment its
//! last running rank stops (`simmpi::router`, § Liveness), with the same
//! outcome every time.
//!
//! Every run executes on a helper thread under a hard wall deadline, so a
//! regression fails here instead of stalling the suite.

use intra_replication::prelude::*;
use std::sync::mpsc;
use std::thread;
use std::time::Duration;

const DEADLINE: Duration = Duration::from_secs(5);

/// The plan whose Poisson traces kill ranks mid-run at the `small` scale.
const PLAN: &str = "poisson-const-0.2-h5";

fn experiment(app: AppId, mode: Mode, seed: u64) -> Experiment {
    Experiment::builder()
        .app(app)
        .scale(ExperimentScale::Small)
        .mode(mode)
        .failures(PLAN.parse().unwrap())
        .seed(seed)
        .allow_unrecoverable_failures()
        .build()
        .unwrap()
}

/// Runs the experiment on a helper thread; panics if it has not returned by
/// [`DEADLINE`] (the helper is then left behind — the test has failed).
fn run_by_deadline(app: AppId, mode: Mode, seed: u64) -> RunReport {
    let (tx, rx) = mpsc::channel();
    let helper = thread::spawn(move || {
        let _ = tx.send(experiment(app, mode, seed).run());
    });
    let report = rx
        .recv_timeout(DEADLINE)
        .unwrap_or_else(|_| {
            panic!("{app:?} {mode:?} seed {seed}: still running after {DEADLINE:?}")
        })
        .unwrap();
    helper.join().unwrap();
    report
}

fn counts(report: &RunReport) -> (usize, usize, usize) {
    (report.completed(), report.crashed(), report.errored())
}

#[test]
fn crash_specs_without_a_checkpoint_plan_end_at_once_and_repeatably() {
    for app in [AppId::Hpccg, AppId::Gtc, AppId::MiniGhost] {
        for mode in [
            Mode::NoReplication,
            Mode::Replication,
            Mode::IntraReplication,
        ] {
            for seed in 101..=105 {
                let first = run_by_deadline(app, mode, seed);
                let (completed, crashed, errored) = counts(&first);
                assert_eq!(
                    completed + crashed + errored,
                    first.procs,
                    "{app:?} {mode:?} seed {seed}: every rank has an outcome"
                );
                let second = run_by_deadline(app, mode, seed);
                assert_eq!(
                    (first.makespan_s, counts(&first), first.failure_events),
                    (second.makespan_s, counts(&second), second.failure_events),
                    "{app:?} {mode:?} seed {seed}: repeat differs"
                );
            }
        }
    }
}

/// The outcomes the 300 s timer path reported for two stuck specs.
#[test]
fn stuck_hpccg_runs_report_what_the_timer_path_reported() {
    let native = run_by_deadline(AppId::Hpccg, Mode::NoReplication, 101);
    assert_eq!(counts(&native), (0, 1, 3));
    let replicated = run_by_deadline(AppId::Hpccg, Mode::Replication, 103);
    assert_eq!(counts(&replicated), (0, 4, 4));
}
