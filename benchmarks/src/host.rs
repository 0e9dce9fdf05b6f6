//! The host record attached to every set of numbers: a wall-clock figure
//! without its commit, toolchain, core count and load is not comparable
//! with anything.

use campaign::Json;
use std::process::Command;

/// Where and on what a set of numbers was measured.
#[derive(Debug, Clone, PartialEq)]
pub struct HostRecord {
    /// `git rev-parse HEAD` of the checkout, `unknown` outside a git
    /// repository (the contract's driver runs from an export).
    pub git_sha: String,
    /// True if the work tree had uncommitted changes.
    pub git_dirty: bool,
    /// `rustc -V`.
    pub rustc: String,
    /// Host parallelism (`std::thread::available_parallelism`).
    pub nproc: usize,
    /// First `model name` of `/proc/cpuinfo`.
    pub cpu_model: String,
    /// One-minute load average when the run started.
    pub load_1m: f64,
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    Some(String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Host parallelism, 1 if it cannot be determined.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// The worker count every workload drives the program with: the host's
/// parallelism, capped at four so results stay comparable across hosts.
pub fn bench_workers() -> usize {
    nproc().min(4)
}

impl HostRecord {
    /// Collects the record of this host, now.
    pub fn collect() -> Self {
        let git_sha =
            command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".to_string());
        let git_dirty = command_line("git", &["status", "--porcelain"])
            .is_some_and(|status| !status.is_empty());
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|text| {
                text.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        let load_1m = std::fs::read_to_string("/proc/loadavg")
            .ok()
            .and_then(|text| text.split_whitespace().next()?.parse().ok())
            .unwrap_or(0.0);
        HostRecord {
            git_sha,
            git_dirty,
            rustc: command_line("rustc", &["-V"]).unwrap_or_else(|| "unknown".to_string()),
            nproc: nproc(),
            cpu_model,
            load_1m,
        }
    }

    /// A set measured while other work competed for the cores is marked
    /// noisy: its numbers are printed but should not be compared.
    pub fn noisy(&self) -> bool {
        self.load_1m > self.nproc as f64
    }

    /// The record as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("git_sha", Json::Str(self.git_sha.clone())),
            ("git_dirty", Json::Bool(self.git_dirty)),
            ("rustc", Json::Str(self.rustc.clone())),
            ("nproc", Json::Num(self.nproc as f64)),
            ("cpu_model", Json::Str(self.cpu_model.clone())),
            ("load_1m", Json::Num(self.load_1m)),
            ("noisy", Json::Bool(self.noisy())),
        ])
    }

    /// One line for the human-readable report.
    pub fn line(&self) -> String {
        format!(
            "host: {}{} | {} | {} core(s) | {} | load {:.2}{}",
            &self.git_sha[..self.git_sha.len().min(12)],
            if self.git_dirty { "+dirty" } else { "" },
            self.rustc,
            self.nproc,
            self.cpu_model,
            self.load_1m,
            if self.noisy() { " | NOISY" } else { "" }
        )
    }
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM:") / 1024.0
}

/// Current resident set size of this process (`VmRSS`), in bytes.
pub fn rss_bytes() -> f64 {
    status_kb("VmRSS:") * 1024.0
}

fn status_kb(key: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with(key))
                .and_then(|l| l.split_whitespace().nth(1)?.parse().ok())
        })
        .unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_record_is_complete_and_flags_load() {
        let mut host = HostRecord::collect();
        assert!(host.nproc >= 1 && bench_workers() <= 4);
        assert!(!host.rustc.is_empty() && !host.git_sha.is_empty());
        host.load_1m = host.nproc as f64 + 0.5;
        assert!(host.noisy() && host.line().ends_with("NOISY"));
        host.load_1m = 0.0;
        assert!(!host.noisy());
        assert_eq!(host.to_json().get("noisy"), Some(&Json::Bool(false)));
        assert!(peak_rss_mb() > 0.0 && rss_bytes() > 0.0);
    }
}
