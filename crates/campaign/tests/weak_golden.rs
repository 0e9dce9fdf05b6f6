//! Golden-baseline gate for the event-driven weak-scaling campaign.
//!
//! These tests prove the report is a pure function of the sweep —
//! byte-identical to the checked-in `golden/weak_scaling.json` run after
//! run, whatever the ignored compatibility argument of `run_weak_sweep`
//! says — and that the engine actually delivers the scale the sweep presets
//! promise (10k logical ranks well inside a debug-build test budget).

use campaign::{diff_reports, run_weak_sweep, strip_informational, Json, WeakSweep};

/// The golden baseline, recorded via
/// `campaign weak --sweep weak-smoke --strip-informational`.
const GOLDEN: &str = include_str!("../golden/weak_scaling.json");

/// Renders a sweep execution the way the golden was recorded — the
/// informational fields stripped, so the bytes are comparable — next to its
/// per-row `dispatches`, which the golden does not carry.
fn render_stripped(sweep: &WeakSweep, workers: usize) -> (String, Vec<u64>) {
    let report = run_weak_sweep(sweep, workers);
    let dispatches = report.rows.iter().map(|row| row.dispatches).collect();
    let mut doc = report.to_json();
    strip_informational(&mut doc);
    (doc.render(), dispatches)
}

#[test]
fn weak_smoke_is_byte_identical_to_golden_at_any_worker_count() {
    let sweep = WeakSweep::smoke();
    // The values that used to mean one worker, a real pool and "auto": the
    // argument is ignored, so this is three repeated runs.
    let (first, dispatches) = render_stripped(&sweep, 1);
    assert_eq!(first, GOLDEN, "weak-smoke diverged from golden");
    for workers in [4, 0] {
        assert_eq!(
            render_stripped(&sweep, workers),
            (first.clone(), dispatches.clone()),
            "weak-smoke is not reproducible (argument {workers})"
        );
    }
}

#[test]
fn weak_smoke_passes_the_zero_tolerance_diff_gate() {
    // The diff gate is what CI runs; unlike the byte comparison it must
    // accept an *unstripped* candidate (wall_time_ms and dispatches are
    // informational) while still gating every deterministic field.
    let baseline = Json::parse(GOLDEN).expect("golden parses");
    let candidate = run_weak_sweep(&WeakSweep::smoke(), 0).to_json();
    let violations = diff_reports(&baseline, &candidate, 0.0);
    assert!(violations.is_empty(), "{violations:?}");
}

#[test]
fn ten_thousand_logical_ranks_run_inside_the_test_budget() {
    // The thread-per-rank world tops out around a few thousand OS threads;
    // this is the regression gate proving the event engine holds at 10k
    // logical ranks (20k physical in intra mode).  The sweep takes ~4 s in
    // a debug build; the bound is generous so CI noise cannot flake it,
    // while still catching any return to thread-per-rank scaling (which
    // would abort on thread exhaustion long before the timer).
    let started = std::time::Instant::now();
    let report = run_weak_sweep(&WeakSweep::by_name("weak-10k").unwrap(), 0);
    let elapsed = started.elapsed();
    assert!(
        elapsed.as_secs() < 120,
        "weak-10k took {elapsed:?}, expected well under 120s"
    );
    assert_eq!(report.rows.len(), 2, "native and intra rows");
    for row in &report.rows {
        assert_eq!(
            row.completed, row.procs,
            "{}: every rank must complete",
            row.id
        );
        assert_eq!(row.errored, 0, "{}: no deadlocks or panics", row.id);
        assert!(row.makespan_s > 0.0, "{}: non-trivial makespan", row.id);
    }
    // Weak scaling: the intra row simulates twice the physical ranks.
    assert_eq!(report.rows[0].procs, 10_000);
    assert_eq!(report.rows[1].procs, 20_000);
}
