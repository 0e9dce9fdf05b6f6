//! Command line of the benchmark.
//!
//! ```text
//! ipr-benchmarks [--seed N] [--seconds S]                 every workload, tracing off
//! ipr-benchmarks --trace                                  the traced, per-layer run
//! ipr-benchmarks --selfcheck                              two untraced sets must agree
//! ipr-benchmarks --quick                                  tiny sizes, checks only
//! ipr-benchmarks --workload W --seed N --seconds S --trace 0|1
//! ```
//!
//! The last form is the one `BENCHMARK.json`'s command is run with: it ends
//! with one JSON object on the last line of standard output.  Everything
//! meant for people goes to standard error.

use crate::child::{self, ChildOutcome};
use crate::harness::{run_workload, Budget, Ctx, Fnv64, Ledger, Size};
use crate::host::{self, HostRecord};
use crate::names::{END_TO_END, PER_LAYER};
use crate::report::WorkloadRun;
use crate::trace::{chrome_document, Tracer};
use crate::{layers, workloads};
use campaign::Json;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// The driver allows one run 180 s; the harness keeps every run under this.
const RUN_CAP: Duration = Duration::from_secs(170);

#[derive(Debug, Clone)]
struct Options {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    selfcheck: bool,
    quick: bool,
    out_dir: PathBuf,
    // Internal: what a child process is asked to do.
    child: Option<String>,
    layers: bool,
    alloc_counts: bool,
    spans: bool,
    min_reps: usize,
    setups: usize,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: ipr-benchmarks [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]] \
         [--selfcheck] [--quick] [--out-dir DIR]\n       workloads: {}",
        workloads::NAMES.join(", ")
    );
    ExitCode::from(2)
}

fn parse(args: &[String]) -> Option<Options> {
    let contract = Json::parse(BENCHMARK_JSON).ok()?;
    let mut o = Options {
        workload: None,
        seed: 42,
        seconds: contract.get("run_seconds")?.as_f64()?,
        trace: false,
        selfcheck: false,
        quick: false,
        out_dir: PathBuf::from("benchmarks/out"),
        child: None,
        layers: false,
        alloc_counts: false,
        spans: false,
        min_reps: 3,
        setups: 9,
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--workload" => o.workload = Some(it.next()?.clone()),
            "--seed" => o.seed = it.next()?.parse().ok()?,
            "--seconds" => o.seconds = it.next()?.parse().ok().filter(|s: &f64| *s >= 0.0)?,
            "--trace" => {
                // `--trace` alone, or the contract's `--trace 0|1`.
                o.trace = match it.peek().map(|v| v.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--selfcheck" => o.selfcheck = true,
            "--quick" => o.quick = true,
            "--out-dir" => o.out_dir = PathBuf::from(it.next()?),
            "--child" => o.child = Some(it.next()?.clone()),
            "--layers" => o.layers = true,
            "--alloc-counts" => o.alloc_counts = true,
            "--spans" => o.spans = true,
            "--min-reps" => o.min_reps = it.next()?.parse().ok()?,
            "--setups" => o.setups = it.next()?.parse().ok()?,
            _ => return None,
        }
    }
    let known = |w: &String| workloads::NAMES.contains(&w.as_str());
    if !o.workload.as_ref().is_none_or(known) || !o.child.as_ref().is_none_or(known) {
        return None;
    }
    Some(o)
}

/// Entry point of both binaries.
pub fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(options) = parse(&args) else {
        return usage();
    };
    if let Some(name) = options.child.clone() {
        return child_workload(&name, &options);
    }
    if options.layers || options.alloc_counts {
        return child_layers(&options);
    }
    if let Err(e) = std::fs::create_dir_all(&options.out_dir) {
        eprintln!("cannot create {}: {e}", options.out_dir.display());
        return ExitCode::FAILURE;
    }
    let host = HostRecord::collect();
    eprintln!("{}", host.line());
    if host.noisy() {
        eprintln!(
            "warning: load {:.2} exceeds {} core(s); this set is marked noisy",
            host.load_1m, host.nproc
        );
    }
    match (&options.workload, options.selfcheck) {
        (Some(name), _) => contract_run(name, &options, &host),
        (None, true) => selfcheck(&options, &host),
        (None, false) => full_run(&options, &host),
    }
}

// --- child side ----------------------------------------------------------

fn child_ctx(workload: &str, options: &Options) -> std::io::Result<Ctx> {
    let scratch = options.out_dir.join(format!("tmp-{}", std::process::id()));
    std::fs::create_dir_all(&scratch)?;
    Ok(Ctx {
        seed: options.seed,
        size: if options.quick {
            Size::Quick
        } else {
            Size::Full
        },
        workers: host::bench_workers(),
        scratch,
        tracer: Tracer::new(workload, options.spans),
        ledger: Ledger::default(),
        digest: Fnv64::default(),
        notes: Vec::new(),
    })
}

fn write_trace(ctx: &Ctx, options: &Options, name: &str, pid: usize) {
    let path = options.out_dir.join(format!("trace-{name}.json"));
    let doc = chrome_document(ctx.tracer.chrome_events(pid));
    if let Err(e) = std::fs::write(&path, doc.render_compact()) {
        eprintln!("cannot write {}: {e}", path.display());
    }
}

fn child_workload(name: &str, options: &Options) -> ExitCode {
    let (Some(mut workload), Ok(mut ctx)) = (workloads::by_name(name), child_ctx(name, options))
    else {
        return ExitCode::FAILURE;
    };
    let budget = Budget {
        seconds: options.seconds,
        min_reps: options.min_reps,
        setups: options.setups,
    };
    let mut planned = false;
    let samples = run_workload(
        workload.as_mut(),
        &mut ctx,
        budget,
        |ledger, ops_per_rep| {
            if !planned {
                planned = true;
                child::emit("plan", &(ops_per_rep * budget.min_reps as u64).to_string());
            }
            child::emit(
                "progress",
                &format!("{} {}", ledger.attempted, ledger.failed),
            );
        },
    );
    let run = WorkloadRun::reduce(name, &ctx, &samples);
    if options.spans {
        let pid = workloads::NAMES
            .iter()
            .position(|w| *w == name)
            .unwrap_or(0)
            + 1;
        write_trace(&ctx, options, name, pid);
    }
    let _ = std::fs::remove_dir_all(&ctx.scratch);
    child::emit("result", &run.to_json().render_compact());
    ExitCode::SUCCESS
}

fn child_layers(options: &Options) -> ExitCode {
    let Ok(mut ctx) = child_ctx("layers", options) else {
        return ExitCode::FAILURE;
    };
    let values = if options.alloc_counts {
        layers::alloc_counts(&mut ctx)
    } else {
        let values = layers::run_all(&mut ctx);
        write_trace(&ctx, options, "layers", workloads::NAMES.len() + 1);
        values
    };
    let _ = std::fs::remove_dir_all(&ctx.scratch);
    child::emit(
        "progress",
        &format!("{} {}", ctx.ledger.attempted, ctx.ledger.failed),
    );
    let doc = Json::obj(vec![
        (
            "layers",
            Json::Obj(
                values
                    .into_iter()
                    .map(|(name, value)| (name, Json::Num(value)))
                    .collect(),
            ),
        ),
        (
            "failures",
            Json::Arr(ctx.ledger.failures.iter().cloned().map(Json::Str).collect()),
        ),
    ]);
    child::emit("result", &doc.render_compact());
    ExitCode::SUCCESS
}

// --- parent side ---------------------------------------------------------

/// One child's outcome once parsed: the run, if it reported one, and the op
/// counts that hold either way.
struct Finished {
    run: Option<WorkloadRun>,
    attempted: u64,
    failed: u64,
}

fn binary(traced: bool) -> PathBuf {
    let exe = std::env::current_exe().unwrap_or_else(|_| PathBuf::from("ipr-benchmarks"));
    if traced {
        exe.with_file_name("ipr-benchmarks-traced")
    } else {
        exe.with_file_name("ipr-benchmarks")
    }
}

fn spawn(traced: bool, args: Vec<String>, deadline: Duration, options: &Options) -> ChildOutcome {
    let mut args = args;
    args.extend([
        "--seed".to_string(),
        options.seed.to_string(),
        "--out-dir".to_string(),
        options.out_dir.display().to_string(),
    ]);
    if options.quick {
        args.push("--quick".to_string());
    }
    let outcome = child::run(&binary(traced), &args, deadline);
    match outcome {
        Ok(outcome) => {
            // A killed child cannot clean up after itself.
            let _ = std::fs::remove_dir_all(options.out_dir.join(format!("tmp-{}", outcome.pid)));
            if outcome.timed_out {
                eprintln!("deadline of {deadline:?} expired: child killed");
            }
            outcome
        }
        Err(e) => {
            eprintln!("cannot run {}: {e}", binary(traced).display());
            ChildOutcome::default()
        }
    }
}

/// The hang guard: six times the expected time, within what the cap leaves.
fn deadline(expected_s: f64, started: Instant) -> Duration {
    Duration::from_secs_f64((6.0 * expected_s).max(30.0))
        .min(RUN_CAP.saturating_sub(started.elapsed()))
}

/// Runs one workload in a child of its own.
fn run_one(
    name: &str,
    options: &Options,
    spans: bool,
    seconds: f64,
    min_reps: usize,
    setups: usize,
    started: Instant,
) -> Finished {
    let mut args = vec![
        "--child".to_string(),
        name.to_string(),
        "--seconds".to_string(),
        seconds.to_string(),
        "--min-reps".to_string(),
        min_reps.to_string(),
        "--setups".to_string(),
        setups.to_string(),
    ];
    if spans {
        args.push("--spans".to_string());
    }
    let outcome = spawn(spans, args, deadline(seconds + 8.0, started), options);
    let (attempted, failed) = outcome.accounted();
    Finished {
        run: outcome.result.as_ref().and_then(WorkloadRun::from_json),
        attempted,
        failed,
    }
}

/// Repetitions and set-ups of a measured (untraced) run.
fn measured(options: &Options) -> (f64, usize, usize) {
    if options.quick {
        (0.0, 1, 1)
    } else {
        (options.seconds, 3, 9)
    }
}

fn untraced(name: &str, options: &Options, started: Instant) -> Finished {
    let (seconds, min_reps, setups) = measured(options);
    let finished = run_one(name, options, false, seconds, min_reps, setups, started);
    if let Some(run) = &finished.run {
        eprint!("{}", run.render());
    }
    finished
}

/// The traced pair of one workload: the same repetitions without and with
/// spans (and, in the second, the counting allocator), so that the ratio of
/// their typical repetition walls (ops over `runs_per_s`) is the tracing
/// overhead.  Returns the traced run and the overhead in percent.
fn traced_pair(name: &str, options: &Options, started: Instant) -> (Finished, f64) {
    let seconds = if options.quick {
        0.0
    } else {
        options.seconds / 2.0
    };
    let plain = run_one(name, options, false, seconds, 1, 1, started);
    let mut traced = run_one(name, options, true, seconds, 1, 1, started);
    let rate = |f: &Finished| f.run.as_ref().and_then(|r| r.value("runs_per_s"));
    let overhead_pct = match (rate(&plain), rate(&traced)) {
        (Some(plain), Some(traced)) if traced > 0.0 => (plain / traced - 1.0) * 100.0,
        _ => f64::NAN,
    };
    traced.attempted += plain.attempted;
    traced.failed += plain.failed;
    if let Some(run) = &traced.run {
        eprint!("{}{}", run.render(), run.render_self_times());
        eprintln!("   trace.overhead_pct {overhead_pct:.2} %");
    }
    (traced, overhead_pct)
}

/// The per-layer suite, in two children: everything timed in the plain
/// binary, the allocation counts in the traced one (whose allocator
/// counts).  Values by metric name, ops attempted, ops failed.
fn layer_suite(options: &Options, started: Instant) -> (BTreeMap<String, f64>, u64, u64) {
    let mut values = BTreeMap::new();
    let (mut attempted, mut failed) = (0, 0);
    for (traced, flags, expected_s) in [
        (false, ["--layers", "--spans"], 20.0),
        (true, ["--alloc-counts", "--spans"], 5.0),
    ] {
        let outcome = spawn(
            traced,
            flags.map(str::to_string).to_vec(),
            deadline(expected_s, started),
            options,
        );
        let counts = outcome.accounted();
        attempted += counts.0;
        failed += counts.1;
        if let Some(Json::Obj(fields)) = outcome.result.as_ref().and_then(|r| r.get("layers")) {
            for (name, value) in fields {
                values.insert(name.clone(), value.as_f64().unwrap_or(f64::NAN));
            }
        }
        for failure in outcome
            .result
            .as_ref()
            .and_then(|r| r.get("failures"))
            .and_then(Json::as_arr)
            .unwrap_or(&[])
        {
            eprintln!("   FAILED: {}", failure.as_str().unwrap_or("?"));
        }
    }
    (values, attempted, failed)
}

fn print_layers(values: &BTreeMap<String, f64>) {
    eprintln!("== per-layer metrics (single short runs: they attribute, they do not gate)");
    for def in PER_LAYER {
        match values.get(def.name) {
            Some(v) => eprintln!("   {:<46} {:>8} {:>18.4}", def.name, def.unit, v),
            None => eprintln!("   {:<46} {:>8} {:>18}", def.name, def.unit, "MISSING"),
        }
    }
}

/// The contract's last line: exactly `correct`, `attempted`, `failed` and
/// `metrics`.
fn contract_line(attempted: u64, failed: u64, metrics: Vec<(String, String, f64)>) -> String {
    Json::obj(vec![
        ("correct", Json::Bool(failed == 0)),
        ("attempted", Json::Num(attempted.max(1) as f64)),
        ("failed", Json::Num(failed as f64)),
        (
            "metrics",
            Json::Obj(
                metrics
                    .into_iter()
                    .map(|(name, unit, value)| {
                        (
                            name,
                            Json::obj(vec![("value", Json::Num(value)), ("unit", Json::Str(unit))]),
                        )
                    })
                    .collect(),
            ),
        ),
    ])
    .render_compact()
}

fn save(options: &Options, file: &str, doc: &Json) {
    let path = options.out_dir.join(file);
    if let Err(e) = std::fs::write(&path, doc.render()) {
        eprintln!("cannot write {}: {e}", path.display());
    }
}

/// `--workload W --seed N --seconds S --trace 0|1`.
fn contract_run(name: &str, options: &Options, host: &HostRecord) -> ExitCode {
    let started = Instant::now();
    let (attempted, mut failed, metrics) = if options.trace {
        let (traced, overhead_pct) = traced_pair(name, options, started);
        let (mut values, layer_attempted, layer_failed) = layer_suite(options, started);
        values.insert("trace.overhead_pct".to_string(), overhead_pct);
        if let Some(run) = &traced.run {
            values.insert(
                "trace.harness_self_share".to_string(),
                run.harness_self_share,
            );
        }
        print_layers(&values);
        let missing = PER_LAYER
            .iter()
            .filter(|m| !values.get(m.name).is_some_and(|v| v.is_finite()))
            .count() as u64;
        if missing > 0 {
            eprintln!("{missing} per-layer metric(s) missing");
        }
        let metrics = PER_LAYER
            .iter()
            .map(|m| {
                let value = values.get(m.name).copied().unwrap_or(f64::NAN);
                (m.name.to_string(), m.unit.to_string(), value)
            })
            .collect();
        (
            traced.attempted + layer_attempted,
            traced.failed + layer_failed + missing,
            metrics,
        )
    } else {
        let finished = untraced(name, options, started);
        let metrics = finished.run.as_ref().map_or_else(Vec::new, |run| {
            run.metrics
                .iter()
                .map(|m| (m.name.clone(), m.unit.clone(), m.value))
                .collect()
        });
        save(
            options,
            &format!("last-{name}.json"),
            &Json::obj(vec![
                ("host", host.to_json()),
                (
                    "run",
                    finished
                        .run
                        .as_ref()
                        .map_or(Json::Null, WorkloadRun::to_json),
                ),
            ]),
        );
        (finished.attempted, finished.failed, metrics)
    };
    failed = failed.min(attempted.max(1));
    println!("{}", contract_line(attempted, failed, metrics));
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// One untraced set over every workload.
fn untraced_set(options: &Options) -> Vec<(String, Finished)> {
    workloads::NAMES
        .iter()
        .map(|name| (name.to_string(), untraced(name, options, Instant::now())))
        .collect()
}

fn set_failed(set: &[(String, Finished)]) -> u64 {
    set.iter().map(|(_, f)| f.failed).sum()
}

fn set_json(host: &HostRecord, set: &[(String, Finished)]) -> Json {
    Json::obj(vec![
        ("host", host.to_json()),
        (
            "workloads",
            Json::Arr(
                set.iter()
                    .map(|(_, f)| f.run.as_ref().map_or(Json::Null, WorkloadRun::to_json))
                    .collect(),
            ),
        ),
    ])
}

/// Every workload: untraced by default, the traced per-layer run with
/// `--trace`.  Exits non-zero on any failed op.
fn full_run(options: &Options, host: &HostRecord) -> ExitCode {
    if !options.trace {
        let set = untraced_set(options);
        save(options, "last-run.json", &set_json(host, &set));
        let failed = set_failed(&set);
        eprintln!(
            "{} failed op(s) in this {}set",
            failed,
            if host.noisy() { "NOISY " } else { "" }
        );
        return if failed == 0 {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    let mut failed = 0;
    let mut values = BTreeMap::new();
    let mut events = Vec::new();
    for name in workloads::NAMES {
        let (traced, overhead_pct) = traced_pair(name, options, Instant::now());
        failed += traced.failed;
        values.insert(format!("trace.{name}.overhead_pct"), overhead_pct);
        if let Some(run) = &traced.run {
            values.insert(
                format!("trace.{name}.harness_self_share"),
                run.harness_self_share,
            );
        }
    }
    let (layer_values, _, layer_failed) = layer_suite(options, Instant::now());
    failed += layer_failed;
    print_layers(&layer_values);
    for (name, value) in &values {
        eprintln!("   {name:<46} {value:>27.4}");
    }
    // One Chrome trace for the whole traced run.
    for name in workloads::NAMES.iter().copied().chain(["layers"]) {
        let path = options.out_dir.join(format!("trace-{name}.json"));
        if let Some(Json::Arr(items)) = std::fs::read_to_string(&path)
            .ok()
            .and_then(|text| Json::parse(&text).ok())
            .and_then(|doc| doc.get("traceEvents").cloned())
        {
            events.extend(items);
        }
    }
    let trace = options.out_dir.join("trace.json");
    match std::fs::write(&trace, chrome_document(events).render_compact()) {
        Ok(()) => eprintln!("wrote {}", trace.display()),
        Err(e) => eprintln!("cannot write {}: {e}", trace.display()),
    }
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Bound of every end-to-end metric, from `BENCHMARK.json`.
fn bounds() -> BTreeMap<String, f64> {
    let doc = Json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
    doc.get("end_to_end")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter_map(|m| {
            Some((
                m.get("name")?.as_str()?.to_string(),
                m.get("bound")?.as_f64()?,
            ))
        })
        .collect()
}

/// By how much of `first` the `second` reading is worse (negative: better).
fn worsening(higher_is_better: bool, first: f64, second: f64) -> f64 {
    let change = (second - first) / first.abs().max(1e-12);
    if higher_is_better {
        -change
    } else {
        change
    }
}

/// Two untraced sets on one commit: every end-to-end metric of the second
/// must be within its own bound of the first, every digest and every count
/// must repeat exactly, and no op may fail.
fn selfcheck(options: &Options, host: &HostRecord) -> ExitCode {
    let first = untraced_set(options);
    let second = untraced_set(options);
    save(options, "selfcheck-1.json", &set_json(host, &first));
    save(options, "selfcheck-2.json", &set_json(host, &second));
    let bounds = bounds();
    let mut broken = set_failed(&first) + set_failed(&second);
    eprintln!(
        "== selfcheck: {:<12} {:<14} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "first", "second", "worse by", "bound"
    );
    for ((name, a), (_, b)) in first.iter().zip(&second) {
        let (Some(a), Some(b)) = (&a.run, &b.run) else {
            eprintln!("   {name}: a run is missing");
            broken += 1;
            continue;
        };
        for def in END_TO_END {
            let (x, y) = (
                a.value(def.name).unwrap_or(f64::NAN),
                b.value(def.name).unwrap_or(f64::NAN),
            );
            let bound = bounds.get(def.name).copied().unwrap_or(0.0);
            let worse = worsening(def.higher_is_better, x, y);
            // `--quick` makes no timing assertion; a NaN reading is never ok.
            let ok = options.quick || worse <= bound;
            eprintln!(
                "   {:<24} {:<14} {:>14.4} {:>14.4} {:>8.2}% {:>6.0}% {}",
                name,
                def.name,
                x,
                y,
                worse * 100.0,
                bound * 100.0,
                if ok { "" } else { "OUT OF BOUND" }
            );
            broken += u64::from(!ok);
        }
        if a.sim_digest != b.sim_digest {
            eprintln!("   {name}: sim_digest {} != {}", a.sim_digest, b.sim_digest);
            broken += 1;
        }
        if a.counts != b.counts {
            eprintln!("   {name}: counts {:?} != {:?}", a.counts, b.counts);
            broken += 1;
        }
    }
    if broken == 0 {
        eprintln!("selfcheck passed");
        ExitCode::SUCCESS
    } else {
        eprintln!("selfcheck FAILED: {broken} problem(s)");
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(words: &[&str]) -> Vec<String> {
        words.iter().map(|w| w.to_string()).collect()
    }

    #[test]
    fn the_contract_command_line_parses() {
        let o = parse(&args(&[
            "--workload",
            "weak-engine",
            "--seed",
            "7",
            "--seconds",
            "12",
            "--trace",
            "0",
        ]))
        .unwrap();
        assert_eq!(o.workload.as_deref(), Some("weak-engine"));
        assert_eq!((o.seed, o.seconds, o.trace), (7, 12.0, false));
        let o = parse(&args(&["--trace", "1", "--seed", "9"])).unwrap();
        assert!(o.trace && o.seed == 9);
        let o = parse(&args(&["--trace"])).unwrap();
        assert!(o.trace && o.seed == 42 && o.seconds > 0.0);
        assert!(parse(&args(&["--workload", "nope"])).is_none());
        assert!(parse(&args(&["--bogus"])).is_none());
        assert!(parse(&args(&["--seed"])).is_none());
    }

    #[test]
    fn the_last_line_has_exactly_the_contracts_keys() {
        let line = contract_line(
            10,
            0,
            vec![("setup_s".to_string(), "s".to_string(), 0.8127)],
        );
        assert_eq!(
            line,
            r#"{"correct": true, "attempted": 10, "failed": 0, "metrics": {"setup_s": {"value": 0.8127, "unit": "s"}}}"#
        );
        assert!(
            contract_line(0, 2, Vec::new()).starts_with(r#"{"correct": false, "attempted": 1,"#)
        );
    }

    #[test]
    fn worsening_follows_the_metrics_direction() {
        assert!((worsening(true, 100.0, 90.0) - 0.1).abs() < 1e-12);
        assert!((worsening(false, 100.0, 90.0) + 0.1).abs() < 1e-12);
        assert!(worsening(false, 100.0, f64::NAN).is_nan());
        let bounds = bounds();
        assert_eq!(bounds.len(), END_TO_END.len());
        assert!(END_TO_END.iter().all(|m| bounds.contains_key(m.name)));
    }
}
