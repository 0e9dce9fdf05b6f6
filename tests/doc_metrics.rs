//! `docs/PAPER_MAP.md` cites benchmark metrics by name in the last column of
//! its tables; every such name must exist in `BENCHMARK.json`, so a typo or
//! a metric rename cannot leave the map pointing at nothing.
//!
//! Two forms count as a citation: a backticked dotted `layer.metric` name,
//! and "`metric` on `workload`" for an end-to-end metric.

use campaign::Json;
use std::collections::BTreeSet;

fn read(path: &str) -> String {
    let full = format!("{}/{path}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&full).unwrap_or_else(|e| panic!("{full}: {e}"))
}

/// The `name` of every entry of the `BENCHMARK.json` array `key`.
fn names(contract: &Json, key: &str) -> BTreeSet<String> {
    contract
        .get(key)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json: no '{key}' array"))
        .iter()
        .map(|e| e.get("name").and_then(Json::as_str).unwrap().to_string())
        .collect()
}

/// A dotted lowercase name (paths carry a `/`, Rust items a `::`):
/// `simmpi.p2p_msgs_per_s`.
fn is_layer_metric(token: &str) -> bool {
    token.contains('.')
        && token.starts_with(|c: char| c.is_ascii_lowercase())
        && token
            .chars()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || "._-".contains(c))
}

#[test]
fn paper_map_cites_only_metrics_the_benchmark_declares() {
    let contract = Json::parse(&read("BENCHMARK.json")).unwrap();
    let per_layer = names(&contract, "per_layer");
    let end_to_end = names(&contract, "end_to_end");
    let workloads = names(&contract, "workloads");

    let map = read("docs/PAPER_MAP.md");
    let mut cited = 0;
    let mut unknown = Vec::new();
    for row in map.lines().filter(|l| l.starts_with('|')) {
        let cell = row.trim_end_matches('|').rsplit('|').next().unwrap();
        // Odd pieces of a split on '`' are the backticked tokens; the even
        // piece between two of them is the prose joining them.
        let pieces: Vec<&str> = cell.split('`').collect();
        for i in (1..pieces.len()).step_by(2) {
            let token = pieces[i];
            if is_layer_metric(token) {
                cited += 1;
                if !per_layer.contains(token) {
                    unknown.push(format!("per-layer metric `{token}`"));
                }
            }
            if pieces.get(i + 1).map(|p| p.trim()) == Some("on") {
                cited += 1;
                let workload = pieces.get(i + 2).copied().unwrap_or("");
                if !end_to_end.contains(token) {
                    unknown.push(format!("end-to-end metric `{token}`"));
                }
                if !workloads.contains(workload) {
                    unknown.push(format!("workload `{workload}`"));
                }
            }
        }
    }
    assert!(
        unknown.is_empty(),
        "docs/PAPER_MAP.md cites names BENCHMARK.json does not declare: {unknown:?}"
    );
    // The scan itself must keep finding the citations it guards.
    assert!(cited >= 15, "only {cited} metric citations found");
}
