//! The four workloads.  Each drives the program through its public API
//! only, from one closed-loop client, and checks what comes back.

pub mod faults_ckpt;
pub mod figs_thread;
pub mod sweep_serve;
pub mod weak_engine;

use crate::harness::{Ctx, Workload};
use campaign::{strip_informational, RunResult, RunSpec, WeakReport, WeakRow};
use intra_replication::{Experiment, RunReport};

/// The workload names, in the order every report lists them.
pub const NAMES: [&str; 4] = ["figs-thread", "weak-engine", "sweep-serve", "faults-ckpt"];

/// The workload called `name`.
pub fn by_name(name: &str) -> Option<Box<dyn Workload>> {
    match name {
        "figs-thread" => Some(Box::<figs_thread::FigsThread>::default()),
        "weak-engine" => Some(Box::<weak_engine::WeakEngine>::default()),
        "sweep-serve" => Some(Box::<sweep_serve::SweepServe>::default()),
        "faults-ckpt" => Some(Box::<faults_ckpt::FaultsCkpt>::default()),
        _ => None,
    }
}

/// A thread-world report as the campaign's v1 record with the host-side
/// (informational) fields removed: equal strings mean equal simulated
/// statistics.
fn stripped_record(experiment: &Experiment, report: &RunReport) -> String {
    let spec = RunSpec::from_experiment(0, experiment);
    let crashes = experiment.scheduled_crashes().len();
    let mut doc = RunResult::from_run(&spec, crashes, report).to_json();
    strip_informational(&mut doc);
    doc.render_compact()
}

/// An engine-world row, informational fields removed.
fn stripped_row(row: &WeakRow) -> String {
    let mut doc = WeakReport {
        sweep: String::new(),
        rows: vec![row.clone()],
    }
    .to_json();
    strip_informational(&mut doc);
    doc.render_compact()
}

/// Compares repetition `index`'s stripped reports with repetition 0's
/// (which it stores, and feeds to the digest, when `index` is 0).  Every
/// report that differs fails the op that produced it; an empty string
/// stands for an op that already failed.
fn check_against_first(ctx: &mut Ctx, first: &mut Vec<String>, index: usize, now: Vec<String>) {
    if index == 0 {
        for record in &now {
            ctx.digest.update(record.as_bytes());
        }
        *first = now;
        return;
    }
    for (i, record) in now.iter().enumerate() {
        if !record.is_empty() && first.get(i) != Some(record) {
            ctx.ledger.fail(
                1,
                format!("rep {index} op {i} differs from rep 0: {record}"),
            );
        }
    }
}
