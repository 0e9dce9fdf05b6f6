//! Campaign CLI: run sweep grids, list them, diff reports — and serve
//! sweeps as a long-running, cached service.
//!
//! ```text
//! campaign list                        # built-in grids
//! campaign list smoke                  # the runs a grid expands into
//! campaign run --grid smoke --jobs 4 --out smoke.json [--csv smoke.csv]
//! campaign run --grid smoke --cache-dir target/campaign-cache  # reuse cached runs
//! campaign weak list                   # built-in weak-scaling sweeps
//! campaign weak --sweep weak-smoke --out weak.json
//! campaign diff golden/smoke.json smoke.json [--tol 1e-9]
//!
//! campaign serve  --spool DIR [--cache-dir DIR] [--jobs N] [--drain]
//! campaign submit --spool DIR --id ID --grid NAME
//! campaign status --spool DIR
//! campaign results --spool DIR --id ID [--stream]
//! campaign stop   --spool DIR
//! ```
//!
//! Each verb declares its flags once, to [`parse`]: an unknown flag, a
//! valued flag without its value, a number that does not parse (or a
//! `--jobs` of 0) and an unknown grid or sweep are usage errors (exit 2),
//! caught before anything is read, written or created.  A failure after
//! that (I/O, a failed job, a diverging report) exits 1.  Only `serve` and
//! `submit` create a spool; `status`, `results` and `stop` on a path that
//! holds none fail (exit 1) and create nothing.
//!
//! `run` writes a deterministic JSON report (byte-identical for any
//! `--jobs` value); `diff` validates the `ipr-report/1` schema tag on both
//! documents and exits non-zero if the candidate diverges from the
//! baseline beyond the tolerance, which is how CI gates on the golden
//! smoke baseline.  The service verbs speak the file-queue protocol of
//! [`campaign::serve`]: submissions land in `DIR/jobs/`, the server claims
//! and executes them through the content-addressed run cache, streams
//! per-run JSONL into `DIR/results/`, and a re-submitted sweep replays
//! cached runs byte-identically while executing only the delta.

use campaign::{
    diff_documents, run_campaign, run_specs_cached, run_weak_sweep, strip_informational,
    CampaignGrid, CampaignReport, Json, RunCache, ServeOptions, Spool, WeakSweep,
};
use std::fmt::Display;
use std::path::Path;
use std::process::ExitCode;
use std::str::FromStr;
use std::sync::Arc;

/// A verb's outcome; the error (already reported on stderr) is the exit
/// code: 2 for a usage error, 1 for a failure.
type Outcome<T = ()> = Result<T, ExitCode>;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  campaign list [GRID]\n  campaign run --grid NAME [--jobs N] [--out FILE] [--csv FILE] [--cache-dir DIR] [--strip-informational]\n  campaign weak list\n  campaign weak [--sweep NAME] [--out FILE] [--strip-informational]\n  campaign diff BASELINE CANDIDATE [--tol REL]\n  campaign serve --spool DIR [--cache-dir DIR] [--jobs N] [--drain]\n  campaign submit --spool DIR --id ID --grid NAME\n  campaign status --spool DIR\n  campaign results --spool DIR --id ID [--stream]\n  campaign stop --spool DIR\n\n--strip-informational drops the informational fields (host wall clock,\nengine dispatch count) from the JSON report (used when regenerating golden\nbaselines).\n\nbuilt-in grids: {}\nbuilt-in weak sweeps: {}",
        CampaignGrid::builtin_names().join(", "),
        WeakSweep::builtin_names().join(", ")
    );
    ExitCode::from(2)
}

fn usage_error(message: impl Display) -> ExitCode {
    eprintln!("{message}");
    ExitCode::from(2)
}

fn failure(message: impl Display) -> ExitCode {
    eprintln!("{message}");
    ExitCode::FAILURE
}

/// One verb's parsed command line.
struct Flags<'a> {
    values: Vec<(&'static str, &'a str)>,
    switches: Vec<&'static str>,
    positionals: Vec<&'a str>,
}

/// Parses `args` against a verb's declaration: the flags that take a
/// value, the boolean flags, and at most `max_positionals` bare arguments.
fn parse<'a>(
    args: &'a [String],
    valued: &[&'static str],
    switches: &[&'static str],
    max_positionals: usize,
) -> Outcome<Flags<'a>> {
    let mut flags = Flags {
        values: Vec::new(),
        switches: Vec::new(),
        positionals: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if let Some(&flag) = valued.iter().find(|&&f| f == arg) {
            let value = it
                .next()
                .ok_or_else(|| usage_error(format_args!("{flag} needs a value")))?;
            flags.values.push((flag, value));
        } else if let Some(&flag) = switches.iter().find(|&&f| f == arg) {
            flags.switches.push(flag);
        } else if !arg.starts_with("--") && flags.positionals.len() < max_positionals {
            flags.positionals.push(arg);
        } else {
            eprintln!("unknown argument '{arg}'");
            return Err(usage());
        }
    }
    Ok(flags)
}

impl Flags<'_> {
    /// The value of `flag`; the last one wins if it is repeated.
    fn get(&self, flag: &str) -> Option<&str> {
        self.values
            .iter()
            .rev()
            .find(|(f, _)| *f == flag)
            .map(|(_, v)| *v)
    }

    fn required(&self, flag: &str) -> Outcome<&str> {
        self.get(flag)
            .ok_or_else(|| usage_error(format_args!("{flag} is required")))
    }

    fn has(&self, switch: &str) -> bool {
        self.switches.contains(&switch)
    }

    /// The value of `flag` as a number that `valid` accepts (`what` names
    /// the accepted range), or `default` without the flag.
    fn number<T: FromStr>(
        &self,
        flag: &str,
        default: T,
        what: &str,
        valid: impl Fn(&T) -> bool,
    ) -> Outcome<T> {
        match self.get(flag) {
            None => Ok(default),
            Some(v) => match v.parse() {
                Ok(n) if valid(&n) => Ok(n),
                _ => Err(usage_error(format_args!("{flag} needs {what}"))),
            },
        }
    }

    fn jobs(&self, default: usize) -> Outcome<usize> {
        self.number("--jobs", default, "a positive integer", |&n| n > 0)
    }
}

/// The usage error for a name that is not one of the built-in presets.
fn unknown_preset(kind: &str, name: &str, names: &[String]) -> ExitCode {
    usage_error(format_args!(
        "unknown {kind} '{name}'; expected one of: {}",
        names.join(", ")
    ))
}

fn find_grid(name: &str) -> Outcome<CampaignGrid> {
    CampaignGrid::by_name(name)
        .ok_or_else(|| unknown_preset("grid", name, &CampaignGrid::builtin_names()))
}

fn find_sweep(name: &str) -> Outcome<WeakSweep> {
    WeakSweep::by_name(name)
        .ok_or_else(|| unknown_preset("weak sweep", name, &WeakSweep::builtin_names()))
}

/// Opens (creating if needed) the spool at `dir`: `serve` and `submit`.
fn open_spool(dir: &str) -> Outcome<Spool> {
    Spool::open(dir).map_err(|e| failure(format_args!("cannot open spool {dir}: {e}")))
}

/// Opens the spool at `dir` for `status`, `results` and `stop`, which only
/// read it or leave a marker: a path without the spool's four directories
/// is a failure, and nothing is created.
fn open_existing_spool(dir: &str) -> Outcome<Spool> {
    let root = Path::new(dir);
    if !["jobs", "active", "results", "done"]
        .iter()
        .all(|sub| root.join(sub).is_dir())
    {
        return Err(failure(format_args!("no spool at {dir}")));
    }
    open_spool(dir)
}

fn open_cache(dir: &str) -> Outcome<Arc<RunCache>> {
    RunCache::open(dir)
        .map(Arc::new)
        .map_err(|e| failure(format_args!("cannot open cache {dir}: {e}")))
}

fn write_file(path: &str, text: &str) -> Outcome {
    std::fs::write(path, text).map_err(|e| failure(format_args!("cannot write {path}: {e}")))?;
    eprintln!("wrote {path}");
    Ok(())
}

/// Renders a report to `--out`, or to stdout without it;
/// `--strip-informational` first drops the host-dependent fields, so a
/// golden baseline does not bake in wall-clock noise.
fn write_report(mut doc: Json, flags: &Flags) -> Outcome {
    if flags.has("--strip-informational") {
        strip_informational(&mut doc);
    }
    let json = doc.render();
    match flags.get("--out") {
        Some(path) => write_file(path, &json),
        None => {
            print!("{json}");
            Ok(())
        }
    }
}

fn cmd_list(args: &[String]) -> Outcome {
    let flags = parse(args, &[], &[], 1)?;
    match flags.positionals[..] {
        [name] => {
            for spec in find_grid(name)?.expand() {
                println!("{:>4}  {} ({} procs)", spec.index, spec.id(), spec.procs());
            }
        }
        _ => {
            println!("built-in campaign grids:");
            for name in CampaignGrid::builtin_names() {
                let grid = find_grid(&name)?;
                println!(
                    "  {name:<12} {} runs at scale {}",
                    grid.expand().len(),
                    grid.scale.name()
                );
            }
        }
    }
    Ok(())
}

fn cmd_run(args: &[String]) -> Outcome {
    let flags = parse(
        args,
        &["--grid", "--jobs", "--out", "--csv", "--cache-dir"],
        &["--strip-informational"],
        0,
    )?;
    let jobs = flags.jobs(1)?;
    let grid = find_grid(flags.get("--grid").unwrap_or("smoke"))?;
    let name = &grid.name;
    eprintln!(
        "campaign '{name}': {} runs, {jobs} job(s)",
        grid.expand().len()
    );
    let started = std::time::Instant::now();
    let report = match flags.get("--cache-dir") {
        None => run_campaign(&grid, jobs),
        Some(dir) => {
            let batch = run_specs_cached(&grid.expand(), jobs, &open_cache(dir)?)
                .map_err(|e| failure(format_args!("campaign '{name}' failed: {e}")))?;
            eprintln!("cache: {} hit(s), {} executed", batch.hits, batch.executed);
            CampaignReport {
                campaign: name.clone(),
                scale: grid.scale.name().to_string(),
                runs: batch.runs,
            }
        }
    };
    eprintln!(
        "campaign '{name}' finished in {:.2}s wall-clock",
        started.elapsed().as_secs_f64()
    );
    write_report(report.to_json(), &flags)?;
    match flags.get("--csv") {
        Some(path) => write_file(path, &report.to_csv()),
        None => Ok(()),
    }
}

fn cmd_weak_list() -> Outcome {
    println!("built-in weak-scaling sweeps:");
    for name in WeakSweep::builtin_names() {
        let specs = find_sweep(&name)?.expand();
        let max_procs = specs.iter().map(|s| s.procs()).max().unwrap_or(0);
        println!(
            "  {name:<12} {} runs, up to {max_procs} physical ranks",
            specs.len()
        );
    }
    Ok(())
}

fn cmd_weak(args: &[String]) -> Outcome {
    let flags = parse(args, &["--sweep", "--out"], &["--strip-informational"], 0)?;
    let sweep = find_sweep(flags.get("--sweep").unwrap_or("weak-smoke"))?;
    let name = &sweep.name;
    eprintln!("weak sweep '{name}': {} runs", sweep.expand().len());
    let started = std::time::Instant::now();
    let report = run_weak_sweep(&sweep, 0);
    eprintln!(
        "weak sweep '{name}' finished in {:.2}s wall-clock",
        started.elapsed().as_secs_f64()
    );
    write_report(report.to_json(), &flags)
}

fn cmd_diff(args: &[String]) -> Outcome {
    let flags = parse(args, &["--tol"], &[], 2)?;
    let tol = flags.number("--tol", 0.0, "a finite non-negative number", |v: &f64| {
        v.is_finite() && *v >= 0.0
    })?;
    let [baseline_path, candidate_path] = flags.positionals[..] else {
        return Err(usage());
    };
    let load = |path: &str| -> Outcome<Json> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| failure(format_args!("cannot read {path}: {e}")))?;
        Json::parse(&text).map_err(|e| failure(format_args!("{path}: {e}")))
    };
    let (baseline, candidate) = (load(baseline_path)?, load(candidate_path)?);
    // A schema mismatch is a usage error, not a divergence: the two
    // documents are not comparable at all.
    let violations = diff_documents(&baseline, &candidate, tol)
        .map_err(|e| usage_error(format_args!("SCHEMA: {e}")))?;
    if violations.is_empty() {
        println!("OK: {candidate_path} matches {baseline_path} (relative tolerance {tol})");
        return Ok(());
    }
    eprintln!(
        "FAIL: {candidate_path} diverges from {baseline_path} ({} violation(s), relative tolerance {tol}):",
        violations.len()
    );
    for v in &violations {
        eprintln!("  {v}");
    }
    Err(ExitCode::FAILURE)
}

fn cmd_serve(args: &[String]) -> Outcome {
    let flags = parse(args, &["--spool", "--cache-dir", "--jobs"], &["--drain"], 0)?;
    let options = ServeOptions {
        workers: flags.jobs(ServeOptions::default().workers)?,
        drain: flags.has("--drain"),
        ..ServeOptions::default()
    };
    let spool = open_spool(flags.required("--spool")?)?;
    let cache_dir = match flags.get("--cache-dir") {
        Some(dir) => dir.to_string(),
        None => RunCache::default_dir().display().to_string(),
    };
    let cache = open_cache(&cache_dir)?;
    eprintln!(
        "serving spool {} with {} worker(s), cache {} ({})",
        spool.root().display(),
        options.workers,
        cache_dir,
        if options.drain { "drain" } else { "resident" },
    );
    let summaries = campaign::serve(&spool, &cache, &options)
        .map_err(|e| failure(format_args!("serve failed: {e}")))?;
    for s in &summaries {
        match &s.error {
            Some(e) => eprintln!("job {}: FAILED: {e}", s.id),
            None => eprintln!(
                "job {}: {} run(s), {} executed, {} cache hit(s), {:.1}ms",
                s.id, s.runs, s.executed, s.cache_hits, s.wall_ms
            ),
        }
    }
    if summaries.iter().any(|s| s.error.is_some()) {
        return Err(ExitCode::FAILURE);
    }
    Ok(())
}

fn cmd_submit(args: &[String]) -> Outcome {
    let flags = parse(args, &["--spool", "--id", "--grid"], &[], 0)?;
    let dir = flags.required("--spool")?;
    let id = flags.required("--id")?;
    let name = flags.required("--grid")?;
    find_grid(name)?;
    open_spool(dir)?
        .submit_grid(id, name)
        .map_err(|e| failure(format_args!("cannot submit '{id}': {e}")))?;
    eprintln!("submitted job '{id}' (grid {name})");
    Ok(())
}

fn cmd_status(args: &[String]) -> Outcome {
    let flags = parse(args, &["--spool"], &[], 0)?;
    let status = open_existing_spool(flags.required("--spool")?)?
        .status()
        .map_err(|e| failure(format_args!("cannot read spool: {e}")))?;
    println!("queued: {}", status.queued.len());
    for id in &status.queued {
        println!("  {id}");
    }
    println!("active: {}", status.active.len());
    for id in &status.active {
        println!("  {id}");
    }
    println!("done: {}", status.done.len());
    for s in &status.done {
        match &s.error {
            Some(e) => println!("  {} FAILED: {e}", s.id),
            None => println!(
                "  {} {} {} run(s) {} executed {} cache-hit(s)",
                s.id, s.campaign, s.runs, s.executed, s.cache_hits
            ),
        }
    }
    Ok(())
}

fn cmd_results(args: &[String]) -> Outcome {
    let flags = parse(args, &["--spool", "--id"], &["--stream"], 0)?;
    let dir = flags.required("--spool")?;
    let id = flags.required("--id")?;
    let spool = open_existing_spool(dir)?;
    let path = if flags.has("--stream") {
        spool.stream_path(id)
    } else {
        spool.result_path(id)
    };
    let text = std::fs::read_to_string(&path).map_err(|e| {
        failure(format_args!(
            "no results for '{id}' at {}: {e}",
            path.display()
        ))
    })?;
    print!("{text}");
    Ok(())
}

fn cmd_stop(args: &[String]) -> Outcome {
    let flags = parse(args, &["--spool"], &[], 0)?;
    open_existing_spool(flags.required("--spool")?)?
        .request_stop()
        .map_err(|e| failure(format_args!("cannot request stop: {e}")))?;
    eprintln!("stop requested");
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((verb, rest)) = args.split_first() else {
        return usage();
    };
    let outcome = match (verb.as_str(), rest) {
        ("list", _) => cmd_list(rest),
        ("run", _) => cmd_run(rest),
        ("weak", [sub]) if sub == "list" => cmd_weak_list(),
        ("weak", _) => cmd_weak(rest),
        ("diff", _) => cmd_diff(rest),
        ("serve", _) => cmd_serve(rest),
        ("submit", _) => cmd_submit(rest),
        ("status", _) => cmd_status(rest),
        ("results", _) => cmd_results(rest),
        ("stop", _) => cmd_stop(rest),
        _ => Err(usage()),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(code) => code,
    }
}
