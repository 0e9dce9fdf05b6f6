//! Every workload runs in a child process of the harness: the child gets a
//! clean peak-RSS reading, and the parent can enforce a wall-clock deadline
//! on a program whose thread world can block (see KNOWN_HAZARDS.md).
//!
//! The child talks to the parent over its standard output, one line each:
//! `@plan <ops>` (ops of the repetitions it will run at least),
//! `@progress <attempted> <failed>` after every step, and finally
//! `@result <json>`.  Everything else the child prints goes to standard
//! error, which the parent passes through.

use campaign::Json;
use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// What became of one child.
#[derive(Debug, Default)]
pub struct ChildOutcome {
    /// Process id the child had.
    pub pid: u32,
    /// The `@result` document, if the child got that far.
    pub result: Option<Json>,
    /// Ops the child planned, from `@plan`.
    pub planned: u64,
    /// Last `@progress`: ops attempted.
    pub attempted: u64,
    /// Last `@progress`: ops failed.
    pub failed: u64,
    /// True if the deadline expired and the child was killed.
    pub timed_out: bool,
    /// True if the child exited with status 0.
    pub exited_ok: bool,
}

impl ChildOutcome {
    /// Attempted and failed ops once a missing result is accounted for: a
    /// child that was killed (or died) fails every op it had planned and
    /// not yet finished — at least one.
    pub fn accounted(&self) -> (u64, u64) {
        if self.result.is_some() && self.exited_ok {
            return (
                self.attempted.max(1),
                self.failed.min(self.attempted.max(1)),
            );
        }
        let attempted = self.planned.max(self.attempted).max(1);
        let unfinished = (attempted - self.attempted).max(1);
        (attempted, (self.failed + unfinished).min(attempted))
    }
}

/// Prints one protocol line (child side).
pub fn emit(tag: &str, body: &str) {
    println!("@{tag} {body}");
}

/// Runs `binary args…` to completion or until `deadline` expires, in which
/// case it is killed; either way the child has ended when this returns.
pub fn run(binary: &Path, args: &[String], deadline: Duration) -> std::io::Result<ChildOutcome> {
    let mut child = Command::new(binary)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()?;
    let stdout = child.stdout.take().expect("the child's stdout is piped");
    let (tx, rx) = mpsc::channel::<String>();
    let reader = std::thread::spawn(move || {
        for line in BufReader::new(stdout).lines().map_while(Result::ok) {
            if tx.send(line).is_err() {
                break;
            }
        }
    });
    let mut outcome = ChildOutcome {
        pid: child.id(),
        ..ChildOutcome::default()
    };
    let started = Instant::now();
    loop {
        let left = deadline.saturating_sub(started.elapsed());
        match rx.recv_timeout(left) {
            Ok(line) => {
                let mut words = line.splitn(2, ' ');
                let (tag, body) = (words.next().unwrap_or(""), words.next().unwrap_or(""));
                match tag {
                    "@plan" => outcome.planned = body.trim().parse().unwrap_or(0),
                    "@progress" => {
                        let mut counts = body.split_whitespace().map(|w| w.parse().unwrap_or(0));
                        outcome.attempted = counts.next().unwrap_or(0);
                        outcome.failed = counts.next().unwrap_or(0);
                    }
                    "@result" => outcome.result = Json::parse(body).ok(),
                    _ => eprintln!("{line}"),
                }
            }
            // The pipe closed: the child is exiting.
            Err(mpsc::RecvTimeoutError::Disconnected) => break,
            Err(mpsc::RecvTimeoutError::Timeout) => {
                outcome.timed_out = true;
                let _ = child.kill();
                break;
            }
        }
    }
    outcome.exited_ok = child.wait()?.success() && !outcome.timed_out;
    // The pipe is closed once the child has ended, so the reader finishes.
    let _ = reader.join();
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sh(script: &str, deadline_ms: u64) -> ChildOutcome {
        run(
            Path::new("sh"),
            &["-c".to_string(), script.to_string()],
            Duration::from_millis(deadline_ms),
        )
        .expect("sh spawns")
    }

    #[test]
    fn a_finished_child_reports_its_result_and_counts() {
        let out = sh(
            r#"echo "@plan 10"; echo "@progress 12 1"; echo '@result {"ok": true}'"#,
            5_000,
        );
        assert!(out.exited_ok && !out.timed_out);
        assert_eq!(
            out.result.as_ref().and_then(|r| r.get("ok")),
            Some(&Json::Bool(true))
        );
        assert_eq!(out.accounted(), (12, 1));
    }

    #[test]
    fn a_hung_child_is_killed_and_its_unfinished_ops_fail() {
        let started = Instant::now();
        // `exec`: the shell becomes the sleeper, so the kill reaches it.
        let out = sh(
            r#"echo "@plan 36"; echo "@progress 12 0"; exec sleep 30"#,
            300,
        );
        assert!(started.elapsed() < Duration::from_secs(10));
        assert!(out.timed_out && !out.exited_ok && out.result.is_none());
        assert_eq!(out.accounted(), (36, 24));
    }

    #[test]
    fn a_crashed_child_fails_at_least_one_op() {
        let out = sh(r#"echo "@progress 5 0"; exit 3"#, 5_000);
        assert!(!out.exited_ok && !out.timed_out);
        assert_eq!(out.accounted(), (5, 1));
    }
}
