//! The `campaign` binary as its callers see it: exit codes, key output and
//! filesystem effects of every verb.  Each case spawns the built binary;
//! temporary spools, caches and reports live under the target directory.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const GRIDS: &str = "smoke, failures, schedulers, full, ckpt";
const SWEEPS: &str = "weak-smoke, weak-10k, weak-100k, weak-1m, weak-failures";

fn campaign(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_campaign"))
        .args(args)
        .output()
        .expect("spawn the campaign binary")
}

fn code(out: &Output) -> i32 {
    out.status.code().expect("exited, not killed by a signal")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// A fresh, empty directory for one test, removed again on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(test: &str) -> Self {
        let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("cli-{test}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        Scratch(dir)
    }

    /// `name` inside the directory, as a string argument.
    fn path(&self, name: &str) -> String {
        self.0.join(name).display().to_string()
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Asserts exit 2 with `needle` on stderr.
fn assert_usage_error(args: &[&str], needle: &str) -> String {
    let out = campaign(args);
    let err = stderr(&out);
    assert_eq!(code(&out), 2, "{args:?}: stderr {err}");
    assert!(
        err.contains(needle),
        "{args:?}: '{needle}' not in stderr {err}"
    );
    err
}

#[test]
fn no_verb_or_an_unknown_verb_prints_the_usage() {
    for args in [&[][..], &["frobnicate"][..]] {
        let err = assert_usage_error(args, "usage:");
        assert!(err.contains(&format!("built-in grids: {GRIDS}")), "{err}");
        assert!(
            err.contains(&format!("built-in weak sweeps: {SWEEPS}")),
            "{err}"
        );
    }
}

#[test]
fn an_unknown_flag_is_a_usage_error_that_names_it() {
    let tmp = Scratch::new("unknown-flag");
    let spool = tmp.path("spool");
    for args in [
        &["run", "--grid", "smoke", "--bogus"][..],
        &["weak", "--bogus"],
        &["serve", "--spool", &spool, "--drain", "--bogus"],
        &[
            "submit", "--spool", &spool, "--id", "a", "--grid", "smoke", "--bogus",
        ],
        &["status", "--spool", &spool, "--bogus"],
        &["results", "--spool", &spool, "--id", "a", "--bogus"],
        &["stop", "--spool", &spool, "--bogus"],
    ] {
        let err = assert_usage_error(args, "usage:");
        assert!(
            err.contains("unknown argument '--bogus'"),
            "{args:?}: {err}"
        );
    }
    assert!(
        !Path::new(&spool).exists(),
        "a usage error created the spool"
    );
}

#[test]
fn weak_has_no_workers_flag() {
    assert_usage_error(
        &["weak", "--sweep", "weak-smoke", "--workers", "4"],
        "--workers",
    );
}

#[test]
fn serve_has_no_poll_ms_flag() {
    let tmp = Scratch::new("poll-ms");
    let spool = tmp.path("spool");
    let args = ["serve", "--spool", &spool, "--drain", "--poll-ms", "5"];
    assert_usage_error(&args, "unknown argument '--poll-ms'");
    assert!(!Path::new(&spool).exists());
}

#[test]
fn a_valued_flag_without_its_value_is_a_usage_error_naming_it() {
    assert_usage_error(&["run", "--grid"], "--grid");
    assert_usage_error(&["run", "--grid", "smoke", "--out"], "--out");
    assert_usage_error(&["weak", "--sweep"], "--sweep");
    assert_usage_error(&["serve", "--spool"], "--spool");
    assert_usage_error(&["diff", "a.json", "b.json", "--tol"], "--tol");
}

#[test]
fn a_number_that_does_not_parse_is_a_usage_error_naming_its_flag() {
    assert_usage_error(&["run", "--grid", "smoke", "--jobs", "many"], "--jobs");
    assert_usage_error(
        &["serve", "--spool", "never-created", "--jobs", "-1"],
        "--jobs",
    );
    assert_usage_error(&["diff", "a.json", "b.json", "--tol", "x"], "--tol");
    assert_usage_error(&["diff", "a.json", "b.json", "--tol", "-1"], "--tol");
}

#[test]
fn zero_jobs_is_rejected() {
    let tmp = Scratch::new("zero-jobs");
    let out = tmp.path("out.json");
    assert_usage_error(
        &["run", "--grid", "smoke", "--jobs", "0", "--out", &out],
        "--jobs",
    );
    assert!(!Path::new(&out).exists());
    let spool = tmp.path("spool");
    let err = assert_usage_error(
        &["serve", "--spool", &spool, "--jobs", "0", "--drain"],
        "--jobs",
    );
    assert!(!err.contains("0 worker(s)"), "{err}");
    assert!(!Path::new(&spool).exists());
}

#[test]
fn an_unknown_grid_or_sweep_lists_the_built_ins() {
    let expected = format!("unknown grid 'nope'; expected one of: {GRIDS}");
    assert_usage_error(&["list", "nope"], &expected);
    assert_usage_error(&["run", "--grid", "nope"], &expected);
    let tmp = Scratch::new("unknown-grid");
    assert_usage_error(
        &[
            "submit",
            "--spool",
            &tmp.path("spool"),
            "--id",
            "a",
            "--grid",
            "nope",
        ],
        &expected,
    );
    assert_usage_error(
        &["weak", "--sweep", "nope"],
        &format!("unknown weak sweep 'nope'; expected one of: {SWEEPS}"),
    );
}

#[test]
fn a_usage_error_of_a_spool_verb_leaves_no_spool_behind() {
    let tmp = Scratch::new("no-spool");
    let spool = tmp.path("spool");
    assert_usage_error(&["submit", "--spool", &spool, "--id"], "--id");
    assert_usage_error(&["submit", "--spool", &spool, "--id", "a"], "--grid");
    assert_usage_error(
        &["submit", "--spool", &spool, "--id", "a", "--grid", "nope"],
        "unknown grid 'nope'",
    );
    assert_usage_error(&["results", "--spool", &spool], "--id");
    assert!(
        !Path::new(&spool).exists(),
        "a usage error created the spool"
    );
}

#[test]
fn read_only_spool_verbs_fail_on_a_path_without_a_spool() {
    let tmp = Scratch::new("no-such-spool");
    let missing = tmp.path("typo");
    let empty = tmp.path("empty");
    std::fs::create_dir(&empty).unwrap();
    for spool in [&missing, &empty] {
        for args in [
            &["status", "--spool", spool][..],
            &["results", "--spool", spool, "--id", "a"],
            &["stop", "--spool", spool],
        ] {
            let out = campaign(args);
            let err = stderr(&out);
            assert_eq!(code(&out), 1, "{args:?}: stderr {err}");
            assert!(
                err.contains(&format!("no spool at {spool}")),
                "{args:?}: {err}"
            );
            assert_eq!(stdout(&out), "", "{args:?}");
        }
    }
    assert!(
        !Path::new(&missing).exists(),
        "a read-only verb created the spool"
    );
    assert_eq!(
        std::fs::read_dir(&empty).unwrap().count(),
        0,
        "a read-only verb wrote into a directory that holds no spool"
    );
}

#[test]
fn list_prints_the_built_in_grids_and_what_one_expands_into() {
    let out = campaign(&["list"]);
    assert_eq!(code(&out), 0, "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.starts_with("built-in campaign grids:\n"), "{text}");
    for name in GRIDS.split(", ") {
        assert!(
            text.contains(&format!("\n  {name:<12} ")),
            "{name} missing: {text}"
        );
    }
    assert!(
        text.contains("  smoke        12 runs at scale tiny\n"),
        "{text}"
    );

    let out = campaign(&["list", "smoke"]);
    assert_eq!(code(&out), 0, "{}", stderr(&out));
    let text = stdout(&out);
    assert_eq!(text.lines().count(), 12, "{text}");
    assert!(
        text.starts_with("   0  hpccg-tiny-native-static-block-none-s43 (2 procs)\n"),
        "{text}"
    );
}

#[test]
fn weak_list_prints_the_built_in_sweeps() {
    let out = campaign(&["weak", "list"]);
    assert_eq!(code(&out), 0, "{}", stderr(&out));
    let text = stdout(&out);
    assert!(
        text.starts_with("built-in weak-scaling sweeps:\n"),
        "{text}"
    );
    for name in SWEEPS.split(", ") {
        assert!(
            text.contains(&format!("\n  {name:<12} ")),
            "{name} missing: {text}"
        );
    }
    assert!(
        text.contains("  weak-smoke   12 runs, up to 64 physical ranks\n"),
        "{text}"
    );
}

#[test]
fn run_writes_a_report_that_diffs_clean_and_diff_flags_divergence_and_schema() {
    let tmp = Scratch::new("diff");
    let (a, b, c) = (tmp.path("a.json"), tmp.path("b.json"), tmp.path("c.json"));
    let csv = tmp.path("a.csv");
    let out = campaign(&[
        "run", "--grid", "smoke", "--jobs", "2", "--out", &a, "--csv", &csv,
    ]);
    assert_eq!(code(&out), 0, "{}", stderr(&out));
    assert!(stderr(&out).contains(&format!("wrote {a}")));
    assert_eq!(std::fs::read_to_string(&csv).unwrap().lines().count(), 13);

    // Without --out the report goes to stdout; stripped, it is the golden.
    let out = campaign(&["run", "--grid", "smoke", "--strip-informational"]);
    assert_eq!(code(&out), 0, "{}", stderr(&out));
    let golden = concat!(env!("CARGO_MANIFEST_DIR"), "/golden/smoke.json");
    assert_eq!(stdout(&out), std::fs::read_to_string(golden).unwrap());

    let out = campaign(&["diff", golden, &a, "--tol", "0"]);
    assert_eq!(code(&out), 0, "{}", stderr(&out));
    assert!(stdout(&out).starts_with(&format!("OK: {a} matches {golden}")));

    let text = std::fs::read_to_string(&a).unwrap();
    let diverged = text.replacen("\"makespan_s\": ", "\"makespan_s\": 1", 1);
    assert_ne!(diverged, text);
    std::fs::write(&b, diverged).unwrap();
    let out = campaign(&["diff", &a, &b]);
    assert_eq!(code(&out), 1, "{}", stderr(&out));
    assert!(stderr(&out).starts_with(&format!("FAIL: {b} diverges from {a}")));

    std::fs::write(&c, text.replace("ipr-report/1", "ipr-report/99")).unwrap();
    let out = campaign(&["diff", &a, &c]);
    assert_eq!(code(&out), 2, "{}", stderr(&out));
    assert!(stderr(&out).starts_with("SCHEMA: "), "{}", stderr(&out));

    let out = campaign(&["diff", &a, &tmp.path("missing.json")]);
    assert_eq!(code(&out), 1, "{}", stderr(&out));
    assert!(stderr(&out).contains("cannot read"));
    assert_usage_error(&["diff", &a], "usage:");
}

#[test]
fn weak_writes_its_report_to_out_or_stdout() {
    let tmp = Scratch::new("weak");
    let report = tmp.path("weak.json");
    let out = campaign(&[
        "weak",
        "--sweep",
        "weak-smoke",
        "--strip-informational",
        "--out",
        &report,
    ]);
    assert_eq!(code(&out), 0, "{}", stderr(&out));
    assert!(stderr(&out).contains(&format!("wrote {report}")));
    let golden = concat!(env!("CARGO_MANIFEST_DIR"), "/golden/weak_scaling.json");
    assert_eq!(
        std::fs::read_to_string(&report).unwrap(),
        std::fs::read_to_string(golden).unwrap()
    );
    let out = campaign(&["weak", "--strip-informational"]);
    assert_eq!(code(&out), 0, "{}", stderr(&out));
    assert_eq!(stdout(&out), std::fs::read_to_string(golden).unwrap());
}

#[test]
fn submit_status_serve_results_stop_round_trip_the_smoke_grid() {
    let tmp = Scratch::new("serve");
    let spool = tmp.path("spool");
    let cache = tmp.path("cache");
    let spool_args = ["--spool", spool.as_str()];
    let verb = |verb: &str, extra: &[&str]| {
        let mut args = vec![verb];
        args.extend(spool_args);
        args.extend(extra);
        campaign(&args)
    };

    let out = verb("submit", &["--id", "first", "--grid", "smoke"]);
    assert_eq!(code(&out), 0, "{}", stderr(&out));
    assert!(stderr(&out).contains("submitted job 'first' (grid smoke)"));
    let out = verb("submit", &["--id", "first", "--grid", "smoke"]);
    assert_eq!(code(&out), 1, "a duplicate id is refused: {}", stderr(&out));

    let out = verb("status", &[]);
    assert_eq!(code(&out), 0, "{}", stderr(&out));
    assert_eq!(stdout(&out), "queued: 1\n  first\nactive: 0\ndone: 0\n");

    let out = verb("results", &["--id", "first"]);
    assert_eq!(code(&out), 1, "no results before serving: {}", stderr(&out));
    assert!(stderr(&out).contains("no results for 'first'"));

    let out = verb("serve", &["--cache-dir", &cache, "--jobs", "2", "--drain"]);
    assert_eq!(code(&out), 0, "{}", stderr(&out));
    let err = stderr(&out);
    assert!(
        err.contains(&format!(
            "serving spool {spool} with 2 worker(s), cache {cache} (drain)"
        )),
        "{err}"
    );
    assert!(
        err.contains("job first: 12 run(s), 12 executed, 0 cache hit(s)"),
        "{err}"
    );

    let out = verb("status", &[]);
    assert_eq!(code(&out), 0, "{}", stderr(&out));
    assert_eq!(
        stdout(&out),
        "queued: 0\nactive: 0\ndone: 1\n  first smoke 12 run(s) 12 executed 0 cache-hit(s)\n"
    );

    let out = verb("results", &["--id", "first"]);
    assert_eq!(code(&out), 0, "{}", stderr(&out));
    let report = tmp.path("first.json");
    std::fs::write(&report, stdout(&out)).unwrap();
    let golden = concat!(env!("CARGO_MANIFEST_DIR"), "/golden/smoke.json");
    let out = campaign(&["diff", golden, &report, "--tol", "0"]);
    assert_eq!(code(&out), 0, "{}", stderr(&out));

    let out = verb("results", &["--id", "first", "--stream"]);
    assert_eq!(code(&out), 0, "{}", stderr(&out));
    assert_eq!(stdout(&out).lines().count(), 12);

    let out = verb("stop", &[]);
    assert_eq!(code(&out), 0, "{}", stderr(&out));
    assert!(stderr(&out).contains("stop requested"));
    assert!(Path::new(&spool).join("stop").exists());
}
