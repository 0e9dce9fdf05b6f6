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
use std::process::ExitCode;
use std::sync::Arc;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  campaign list [GRID]\n  campaign run --grid NAME [--jobs N] [--out FILE] [--csv FILE] [--cache-dir DIR] [--strip-informational]\n  campaign weak list\n  campaign weak [--sweep NAME] [--out FILE] [--strip-informational]\n  campaign diff BASELINE CANDIDATE [--tol REL]\n  campaign serve --spool DIR [--cache-dir DIR] [--jobs N] [--drain] [--poll-ms N]\n  campaign submit --spool DIR --id ID --grid NAME\n  campaign status --spool DIR\n  campaign results --spool DIR --id ID [--stream]\n  campaign stop --spool DIR\n\n--strip-informational drops the informational fields (host wall clock,\nengine dispatch count) from the JSON report (used when regenerating golden\nbaselines).\n\nbuilt-in grids: {}\nbuilt-in weak sweeps: {}",
        CampaignGrid::builtin_names().join(", "),
        WeakSweep::builtin_names().join(", ")
    );
    ExitCode::from(2)
}

fn cmd_list(args: &[String]) -> ExitCode {
    match args {
        [] => {
            println!("built-in campaign grids:");
            for name in CampaignGrid::builtin_names() {
                let grid = CampaignGrid::by_name(name).expect("builtin");
                println!(
                    "  {name:<12} {} runs at scale {}",
                    grid.expand().len(),
                    grid.scale.name()
                );
            }
            ExitCode::SUCCESS
        }
        [name] => match CampaignGrid::by_name(name) {
            Some(grid) => {
                for spec in grid.expand() {
                    println!("{:>4}  {} ({} procs)", spec.index, spec.id(), spec.procs());
                }
                ExitCode::SUCCESS
            }
            None => {
                eprintln!(
                    "unknown grid '{name}'; expected one of: {}",
                    CampaignGrid::builtin_names().join(", ")
                );
                ExitCode::from(2)
            }
        },
        _ => usage(),
    }
}

fn cmd_run(args: &[String]) -> ExitCode {
    let mut grid_name = "smoke".to_string();
    let mut jobs = 1usize;
    let mut out: Option<String> = None;
    let mut csv: Option<String> = None;
    let mut cache_dir: Option<String> = None;
    let mut strip = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| -> Option<String> {
            let v = it.next().cloned();
            if v.is_none() {
                eprintln!("{flag} needs a value");
            }
            v
        };
        match arg.as_str() {
            "--grid" => match value("--grid") {
                Some(v) => grid_name = v,
                None => return ExitCode::from(2),
            },
            "--jobs" => match value("--jobs").and_then(|v| v.parse().ok()) {
                Some(v) => jobs = v,
                None => {
                    eprintln!("--jobs needs a positive integer");
                    return ExitCode::from(2);
                }
            },
            "--out" => match value("--out") {
                Some(v) => out = Some(v),
                None => return ExitCode::from(2),
            },
            "--csv" => match value("--csv") {
                Some(v) => csv = Some(v),
                None => return ExitCode::from(2),
            },
            "--cache-dir" => match value("--cache-dir") {
                Some(v) => cache_dir = Some(v),
                None => return ExitCode::from(2),
            },
            "--strip-informational" => strip = true,
            other => {
                eprintln!("unknown argument '{other}'");
                return usage();
            }
        }
    }
    let Some(grid) = CampaignGrid::by_name(&grid_name) else {
        eprintln!(
            "unknown grid '{grid_name}'; expected one of: {}",
            CampaignGrid::builtin_names().join(", ")
        );
        return ExitCode::from(2);
    };
    let num_runs = grid.expand().len();
    eprintln!("campaign '{grid_name}': {num_runs} runs, {jobs} job(s)");
    let started = std::time::Instant::now();
    let report = match &cache_dir {
        None => run_campaign(&grid, jobs),
        Some(dir) => {
            let cache = match RunCache::open(dir) {
                Ok(cache) => Arc::new(cache),
                Err(e) => {
                    eprintln!("cannot open cache {dir}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let specs = grid.expand();
            let batch = match run_specs_cached(&specs, jobs, &cache) {
                Ok(batch) => batch,
                Err(e) => {
                    eprintln!("campaign '{grid_name}' failed: {e}");
                    return ExitCode::FAILURE;
                }
            };
            eprintln!("cache: {} hit(s), {} executed", batch.hits, batch.executed);
            CampaignReport {
                campaign: grid.name.clone(),
                scale: grid.scale.name().to_string(),
                runs: batch.runs,
            }
        }
    };
    eprintln!(
        "campaign '{grid_name}' finished in {:.2}s wall-clock",
        started.elapsed().as_secs_f64()
    );
    let mut doc = report.to_json();
    if strip {
        // Golden baselines must not bake in host wall-clock noise.
        strip_informational(&mut doc);
    }
    let json = doc.render();
    match &out {
        Some(path) => {
            if let Err(e) = std::fs::write(path, &json) {
                eprintln!("cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
            eprintln!("wrote {path}");
        }
        None => print!("{json}"),
    }
    if let Some(path) = &csv {
        if let Err(e) = std::fs::write(path, report.to_csv()) {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("wrote {path}");
    }
    ExitCode::SUCCESS
}

fn cmd_weak(args: &[String]) -> ExitCode {
    if args.len() == 1 && args[0] == "list" {
        println!("built-in weak-scaling sweeps:");
        for name in WeakSweep::builtin_names() {
            let sweep = WeakSweep::by_name(name).expect("builtin");
            let specs = sweep.expand();
            let max_procs = specs.iter().map(|s| s.procs()).max().unwrap_or(0);
            println!(
                "  {name:<12} {} runs, up to {max_procs} physical ranks",
                specs.len()
            );
        }
        return ExitCode::SUCCESS;
    }
    let mut sweep_name = "weak-smoke".to_string();
    let mut out: Option<String> = None;
    let mut strip = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| -> Option<String> {
            let v = it.next().cloned();
            if v.is_none() {
                eprintln!("{flag} needs a value");
            }
            v
        };
        match arg.as_str() {
            "--sweep" => match value("--sweep") {
                Some(v) => sweep_name = v,
                None => return ExitCode::from(2),
            },
            "--out" => match value("--out") {
                Some(v) => out = Some(v),
                None => return ExitCode::from(2),
            },
            "--strip-informational" => strip = true,
            other => {
                eprintln!("unknown argument '{other}'");
                return usage();
            }
        }
    }
    let Some(sweep) = WeakSweep::by_name(&sweep_name) else {
        eprintln!(
            "unknown weak sweep '{sweep_name}'; expected one of: {}",
            WeakSweep::builtin_names().join(", ")
        );
        return ExitCode::from(2);
    };
    let num_runs = sweep.expand().len();
    eprintln!("weak sweep '{sweep_name}': {num_runs} runs");
    let started = std::time::Instant::now();
    let report = run_weak_sweep(&sweep, 0);
    eprintln!(
        "weak sweep '{sweep_name}' finished in {:.2}s wall-clock",
        started.elapsed().as_secs_f64()
    );
    let mut doc = report.to_json();
    if strip {
        // Golden baselines must not bake in host wall-clock noise.
        strip_informational(&mut doc);
    }
    let json = doc.render();
    match &out {
        Some(path) => {
            if let Err(e) = std::fs::write(path, &json) {
                eprintln!("cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
            eprintln!("wrote {path}");
            ExitCode::SUCCESS
        }
        None => {
            print!("{json}");
            ExitCode::SUCCESS
        }
    }
}

fn cmd_diff(args: &[String]) -> ExitCode {
    let mut paths = Vec::new();
    let mut tol = 0.0f64;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--tol" => match it.next().and_then(|v| v.parse::<f64>().ok()) {
                Some(v) if v.is_finite() && v >= 0.0 => tol = v,
                _ => {
                    eprintln!("--tol needs a finite non-negative number");
                    return ExitCode::from(2);
                }
            },
            other => paths.push(other.to_string()),
        }
    }
    let [baseline_path, candidate_path] = paths.as_slice() else {
        return usage();
    };
    let load = |path: &str| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (baseline, candidate) = match (load(baseline_path), load(candidate_path)) {
        (Ok(b), Ok(c)) => (b, c),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let violations = match diff_documents(&baseline, &candidate, tol) {
        Ok(v) => v,
        Err(e) => {
            // A schema mismatch is a usage error, not a divergence: the two
            // documents are not comparable at all.
            eprintln!("SCHEMA: {e}");
            return ExitCode::from(2);
        }
    };
    if violations.is_empty() {
        println!("OK: {candidate_path} matches {baseline_path} (relative tolerance {tol})");
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "FAIL: {candidate_path} diverges from {baseline_path} ({} violation(s), relative tolerance {tol}):",
            violations.len()
        );
        for v in &violations {
            eprintln!("  {v}");
        }
        ExitCode::FAILURE
    }
}

/// Parses `--spool DIR` plus verb-specific flags shared by the service
/// commands; returns the remaining (flag, value-or-empty) pairs untouched.
fn open_spool(spool: &Option<String>) -> Result<Spool, ExitCode> {
    let Some(dir) = spool else {
        eprintln!("--spool DIR is required");
        return Err(ExitCode::from(2));
    };
    Spool::open(dir).map_err(|e| {
        eprintln!("cannot open spool {dir}: {e}");
        ExitCode::FAILURE
    })
}

fn cmd_serve(args: &[String]) -> ExitCode {
    let mut spool_dir: Option<String> = None;
    let mut cache_dir: Option<String> = None;
    let mut options = ServeOptions::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--spool" => spool_dir = it.next().cloned(),
            "--cache-dir" => cache_dir = it.next().cloned(),
            "--jobs" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => options.workers = v,
                None => {
                    eprintln!("--jobs needs a positive integer");
                    return ExitCode::from(2);
                }
            },
            "--poll-ms" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => options.poll = std::time::Duration::from_millis(v),
                None => {
                    eprintln!("--poll-ms needs a non-negative integer");
                    return ExitCode::from(2);
                }
            },
            "--drain" => options.drain = true,
            other => {
                eprintln!("unknown argument '{other}'");
                return usage();
            }
        }
    }
    let spool = match open_spool(&spool_dir) {
        Ok(s) => s,
        Err(code) => return code,
    };
    let cache_dir = cache_dir.unwrap_or_else(|| RunCache::default_dir().display().to_string());
    let cache = match RunCache::open(&cache_dir) {
        Ok(cache) => Arc::new(cache),
        Err(e) => {
            eprintln!("cannot open cache {cache_dir}: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "serving spool {} with {} worker(s), cache {} ({})",
        spool.root().display(),
        options.workers,
        cache_dir,
        if options.drain { "drain" } else { "resident" },
    );
    match campaign::serve(&spool, &cache, &options) {
        Ok(summaries) => {
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
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
        Err(e) => {
            eprintln!("serve failed: {e}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_submit(args: &[String]) -> ExitCode {
    let mut spool_dir: Option<String> = None;
    let mut id: Option<String> = None;
    let mut grid: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--spool" => spool_dir = it.next().cloned(),
            "--id" => id = it.next().cloned(),
            "--grid" => grid = it.next().cloned(),
            other => {
                eprintln!("unknown argument '{other}'");
                return usage();
            }
        }
    }
    let spool = match open_spool(&spool_dir) {
        Ok(s) => s,
        Err(code) => return code,
    };
    let (Some(id), Some(grid)) = (id, grid) else {
        eprintln!("submit needs --id ID and --grid NAME");
        return ExitCode::from(2);
    };
    if CampaignGrid::by_name(&grid).is_none() {
        eprintln!(
            "unknown grid '{grid}'; expected one of: {}",
            CampaignGrid::builtin_names().join(", ")
        );
        return ExitCode::from(2);
    }
    match spool.submit_grid(&id, &grid) {
        Ok(()) => {
            eprintln!("submitted job '{id}' (grid {grid})");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("cannot submit '{id}': {e}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_status(args: &[String]) -> ExitCode {
    let mut spool_dir: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--spool" => spool_dir = it.next().cloned(),
            other => {
                eprintln!("unknown argument '{other}'");
                return usage();
            }
        }
    }
    let spool = match open_spool(&spool_dir) {
        Ok(s) => s,
        Err(code) => return code,
    };
    match spool.status() {
        Ok(status) => {
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
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("cannot read spool: {e}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_results(args: &[String]) -> ExitCode {
    let mut spool_dir: Option<String> = None;
    let mut id: Option<String> = None;
    let mut stream = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--spool" => spool_dir = it.next().cloned(),
            "--id" => id = it.next().cloned(),
            "--stream" => stream = true,
            other => {
                eprintln!("unknown argument '{other}'");
                return usage();
            }
        }
    }
    let spool = match open_spool(&spool_dir) {
        Ok(s) => s,
        Err(code) => return code,
    };
    let Some(id) = id else {
        eprintln!("results needs --id ID");
        return ExitCode::from(2);
    };
    let path = if stream {
        spool.stream_path(&id)
    } else {
        spool.result_path(&id)
    };
    match std::fs::read_to_string(&path) {
        Ok(text) => {
            print!("{text}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("no results for '{id}' at {}: {e}", path.display());
            ExitCode::FAILURE
        }
    }
}

fn cmd_stop(args: &[String]) -> ExitCode {
    let mut spool_dir: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--spool" => spool_dir = it.next().cloned(),
            other => {
                eprintln!("unknown argument '{other}'");
                return usage();
            }
        }
    }
    let spool = match open_spool(&spool_dir) {
        Ok(s) => s,
        Err(code) => return code,
    };
    match spool.request_stop() {
        Ok(()) => {
            eprintln!("stop requested");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("cannot request stop: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.split_first() {
        Some((cmd, rest)) => match cmd.as_str() {
            "list" => cmd_list(rest),
            "run" => cmd_run(rest),
            "weak" => cmd_weak(rest),
            "diff" => cmd_diff(rest),
            "serve" => cmd_serve(rest),
            "submit" => cmd_submit(rest),
            "status" => cmd_status(rest),
            "results" => cmd_results(rest),
            "stop" => cmd_stop(rest),
            _ => usage(),
        },
        None => usage(),
    }
}
