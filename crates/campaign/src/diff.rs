//! Tolerance-aware comparison of two campaign reports.
//!
//! The diff is what turns a checked-in golden JSON into a regression gate:
//! it walks baseline and candidate structurally and requires exact
//! agreement on everything discrete — run ids, labels, seeds, task and
//! crash counts.  The relative tolerance applies only to *metric* fields,
//! and *informational* fields (host wall clocks, dispatch counts) are
//! ignored entirely.  A field's class comes from the versioned report
//! schema (`report::v1::FIELDS`); for keys the schema does not
//! declare, the historical spelling heuristic (`*_s` / `verification` ⇒
//! metric, everything else discrete) still applies, and *no* unknown key
//! is ever treated as informational — a new wall-clock-ish field must be
//! declared in the schema before the gate will ignore it.  With the
//! default tolerance of zero the gate is bit-exact, so it also catches any
//! determinism violation.
//!
//! [`diff_documents`] is the schema-checked entry point the CLI uses: it
//! validates the `schema` version tag on both documents and rejects
//! mismatches with a typed [`SchemaError`] instead of silently comparing
//! incompatible reports.  [`diff_reports`] is the raw structural walk.

use crate::json::Json;
use crate::report::v1::{self, FieldClass, SchemaError};

/// One detected divergence, as a human-readable `path: message` line.
pub(crate) type Violation = String;

fn is_informational_key(key: &str) -> bool {
    v1::is_informational(key)
}

/// Removes every informational field (recursively) from a JSON document.
/// Used by determinism checks that want byte-identical renderings of two
/// reports modulo the host wall clock.
pub fn strip_informational(json: &mut Json) {
    match json {
        Json::Obj(fields) => {
            fields.retain(|(k, _)| !is_informational_key(k));
            for (_, v) in fields {
                strip_informational(v);
            }
        }
        Json::Arr(items) => {
            for v in items {
                strip_informational(v);
            }
        }
        _ => {}
    }
}

/// True if the field named `key` is a continuous metric (eligible for the
/// relative tolerance).  The schema declaration wins; keys the schema does
/// not know fall back to the spelling heuristic (virtual-time fields end in
/// `_s`; `verification` is a residual).  Everything else — counts, seeds,
/// ids — is discrete and compared exactly.
fn is_metric_key(key: &str) -> bool {
    match v1::field_class(key) {
        Some(class) => class == FieldClass::Metric,
        None => key.ends_with("_s") || key == "verification",
    }
}

/// Compares two reports; an empty result means the candidate matches the
/// baseline within `tol` — a relative tolerance applied to metric fields
/// only (virtual times, keys ending `_s`, and `verification`); everything
/// discrete is compared exactly.
pub fn diff_reports(baseline: &Json, candidate: &Json, tol: f64) -> Vec<Violation> {
    let mut violations = Vec::new();
    diff_value("$", None, baseline, candidate, tol, &mut violations);
    violations
}

/// The schema-checked diff: validates that both documents carry this
/// build's report-schema version tag ([`v1::SCHEMA`]) before comparing
/// them, and rejects missing, unknown, or mismatched tags with a typed
/// [`SchemaError`].  This is the entry point `campaign diff` uses; tools
/// comparing raw fragments can still call [`diff_reports`] directly.
pub fn diff_documents(
    baseline: &Json,
    candidate: &Json,
    tol: f64,
) -> Result<Vec<Violation>, SchemaError> {
    let base_tag = v1::document_schema(baseline).map(str::to_string);
    let cand_tag = v1::document_schema(candidate).map(str::to_string);
    if let (Some(b), Some(c)) = (&base_tag, &cand_tag) {
        if b != c {
            return Err(SchemaError::Mismatch {
                baseline: b.clone(),
                candidate: c.clone(),
            });
        }
    }
    v1::check_envelope(baseline, "baseline")?;
    v1::check_envelope(candidate, "candidate")?;
    Ok(diff_reports(baseline, candidate, tol))
}

fn type_name(v: &Json) -> &'static str {
    match v {
        Json::Null => "null",
        Json::Bool(_) => "bool",
        Json::Num(_) => "number",
        Json::Str(_) => "string",
        Json::Arr(_) => "array",
        Json::Obj(_) => "object",
    }
}

/// Label used in paths for a run entry, if the element is an object with an
/// `id` field (makes violations readable: `$.runs[hpccg-...]` instead of
/// `$.runs[3]`).
fn element_label(v: &Json, index: usize) -> String {
    v.get("id")
        .and_then(Json::as_str)
        .map_or_else(|| index.to_string(), str::to_string)
}

fn diff_value(
    path: &str,
    key: Option<&str>,
    a: &Json,
    b: &Json,
    tol: f64,
    out: &mut Vec<Violation>,
) {
    match (a, b) {
        (Json::Num(x), Json::Num(y)) => {
            if key.is_some_and(is_metric_key) {
                // Strictly relative: the allowed drift scales with the value
                // itself, so small metrics (sub-second times, residuals) are
                // not silently ungated.  A baseline of exactly 0 therefore
                // requires an exact 0 in the candidate.
                let scale = x.abs().max(y.abs());
                if (x - y).abs() > tol * scale {
                    out.push(format!(
                        "{path}: expected {x}, got {y} (relative tolerance {tol})"
                    ));
                }
            } else if x != y {
                out.push(format!("{path}: expected {x}, got {y}"));
            }
        }
        (Json::Str(x), Json::Str(y)) => {
            if x != y {
                out.push(format!("{path}: expected \"{x}\", got \"{y}\""));
            }
        }
        (Json::Bool(x), Json::Bool(y)) => {
            if x != y {
                out.push(format!("{path}: expected {x}, got {y}"));
            }
        }
        (Json::Null, Json::Null) => {}
        (Json::Arr(xs), Json::Arr(ys)) => {
            if xs.len() != ys.len() {
                out.push(format!(
                    "{path}: expected {} elements, got {}",
                    xs.len(),
                    ys.len()
                ));
            }
            for (i, (x, y)) in xs.iter().zip(ys.iter()).enumerate() {
                let label = element_label(x, i);
                // Elements inherit the array's key, so an array of metric
                // values keeps its tolerance.
                diff_value(&format!("{path}[{label}]"), key, x, y, tol, out);
            }
        }
        (Json::Obj(xs), Json::Obj(ys)) => {
            for (k, x) in xs {
                if is_informational_key(k) {
                    continue;
                }
                match ys.iter().find(|(yk, _)| yk == k) {
                    Some((_, y)) => diff_value(&format!("{path}.{k}"), Some(k), x, y, tol, out),
                    None => out.push(format!("{path}.{k}: missing from candidate")),
                }
            }
            for (k, _) in ys {
                if is_informational_key(k) {
                    continue;
                }
                if !xs.iter().any(|(xk, _)| xk == k) {
                    out.push(format!("{path}.{k}: unexpected field in candidate"));
                }
            }
        }
        _ => out.push(format!(
            "{path}: expected {}, got {}",
            type_name(a),
            type_name(b)
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn j(text: &str) -> Json {
        Json::parse(text).unwrap()
    }

    #[test]
    fn identical_documents_have_no_violations() {
        let doc = j(r#"{"a": 1, "b": [1.5, {"id": "x", "section_s": 0.25}]}"#);
        assert!(diff_reports(&doc, &doc, 0.0).is_empty());
    }

    #[test]
    fn discrete_fields_are_compared_exactly_even_with_tolerance() {
        let a = j(r#"{"tasks_executed": 64}"#);
        let b = j(r#"{"tasks_executed": 65}"#);
        let v = diff_reports(&a, &b, 0.5);
        assert_eq!(v.len(), 1);
        assert!(v[0].contains("$.tasks_executed"), "{v:?}");
    }

    #[test]
    fn metric_fields_respect_the_relative_tolerance() {
        let a = j(r#"{"makespan_s": 1.0004, "verification": 2.0}"#);
        let b = j(r#"{"makespan_s": 1.0006, "verification": 2.001}"#);
        assert!(diff_reports(&a, &b, 1e-3).is_empty());
        assert_eq!(diff_reports(&a, &b, 1e-7).len(), 2);
        // Zero tolerance is an exact gate.
        assert_eq!(diff_reports(&a, &b, 0.0).len(), 2);
        assert!(diff_reports(&a, &a, 0.0).is_empty());
    }

    #[test]
    fn small_metrics_are_not_ungated_by_the_tolerance() {
        // The tolerance is strictly relative: a residual degrading from 1e-8
        // to 9e-4 is five orders of magnitude of drift and must fail even a
        // loose gate, and a zero baseline admits only an exact zero.
        let a = j(r#"{"verification": 1e-8, "update_drain_s": 0}"#);
        let b = j(r#"{"verification": 9e-4, "update_drain_s": 1e-9}"#);
        assert_eq!(diff_reports(&a, &b, 1e-3).len(), 2);
        assert!(diff_reports(&a, &a, 1e-3).is_empty());
    }

    #[test]
    fn metric_fields_get_tolerance_even_on_whole_number_values() {
        // A virtual time that happens to land on an integer must still be
        // compared with the tolerance, not exactly.
        let a = j(r#"{"makespan_s": 10}"#);
        let b = j(r#"{"makespan_s": 11}"#);
        assert!(diff_reports(&a, &b, 0.1).is_empty());
        assert_eq!(diff_reports(&a, &b, 1e-3).len(), 1);
    }

    #[test]
    fn structural_divergences_are_reported_with_paths() {
        let a = j(r#"{"runs": [{"id": "x", "n": 1}, {"id": "y", "n": 2}]}"#);
        let b = j(r#"{"runs": [{"id": "x", "n": 1}]}"#);
        let v = diff_reports(&a, &b, 0.0);
        assert!(v.iter().any(|m| m.contains("$.runs: expected 2 elements")));

        let c = j(r#"{"runs": [{"id": "x", "n": 1}, {"id": "z", "n": 2}]}"#);
        let v = diff_reports(&a, &c, 0.0);
        assert!(v.iter().any(|m| m.contains("$.runs[y].id")), "{v:?}");

        let d = j(r#"{"runs": "oops"}"#);
        let v = diff_reports(&a, &d, 0.0);
        assert!(v.iter().any(|m| m.contains("expected array, got string")));
    }

    #[test]
    fn informational_fields_are_ignored_entirely() {
        // Different values: ignored.
        let a = j(r#"{"makespan_s": 1.0, "wall_time_ms": 12.0}"#);
        let b = j(r#"{"makespan_s": 1.0, "wall_time_ms": 99.0}"#);
        assert!(diff_reports(&a, &b, 0.0).is_empty());
        // Present on one side only (golden predates the field): ignored in
        // both directions.
        let without = j(r#"{"makespan_s": 1.0}"#);
        assert!(diff_reports(&without, &a, 0.0).is_empty());
        assert!(diff_reports(&a, &without, 0.0).is_empty());
        // Nested inside runs too.
        let ra = j(r#"{"runs": [{"id": "x", "n": 1, "wall_time_ms": 3.5}]}"#);
        let rb = j(r#"{"runs": [{"id": "x", "n": 1}]}"#);
        assert!(diff_reports(&ra, &rb, 0.0).is_empty());
        // And stripping produces byte-identical renderings.
        let mut stripped = ra.clone();
        strip_informational(&mut stripped);
        assert_eq!(stripped.render(), rb.render());
        // The non-informational fields are still gated.
        let rc = j(r#"{"runs": [{"id": "x", "n": 2}]}"#);
        assert!(!diff_reports(&ra, &rc, 0.0).is_empty());
    }

    #[test]
    fn missing_and_extra_fields_are_reported() {
        let a = j(r#"{"x": 1, "y": 2}"#);
        let b = j(r#"{"x": 1, "z": 3}"#);
        let v = diff_reports(&a, &b, 0.0);
        assert!(v.iter().any(|m| m.contains("$.y: missing")));
        assert!(v.iter().any(|m| m.contains("$.z: unexpected")));
    }

    #[test]
    fn unknown_keys_are_never_informational() {
        // A wall-clock-ish field that is *not* declared in the schema is
        // still gated: only a schema declaration can make the diff ignore
        // a field.
        let a = j(r#"{"elapsed_wall_ms": 12.0}"#);
        let b = j(r#"{"elapsed_wall_ms": 99.0}"#);
        assert_eq!(diff_reports(&a, &b, 0.0).len(), 1);
    }

    #[test]
    fn schema_checked_diff_rejects_bad_envelopes() {
        let good = j(r#"{"schema": "ipr-report/1", "runs": []}"#);
        let other = j(r#"{"schema": "ipr-report/2", "runs": []}"#);
        let untagged = j(r#"{"runs": []}"#);

        assert_eq!(diff_documents(&good, &good, 0.0), Ok(vec![]));
        assert_eq!(
            diff_documents(&good, &other, 0.0),
            Err(SchemaError::Mismatch {
                baseline: "ipr-report/1".into(),
                candidate: "ipr-report/2".into()
            })
        );
        assert_eq!(
            diff_documents(&untagged, &good, 0.0),
            Err(SchemaError::Missing {
                which: "baseline".into()
            })
        );
        assert_eq!(
            diff_documents(&good, &untagged, 0.0),
            Err(SchemaError::Missing {
                which: "candidate".into()
            })
        );
        // Two documents that agree on a *future* schema are still rejected
        // by this build (unknown version), not silently compared.
        assert_eq!(
            diff_documents(&other, &other, 0.0),
            Err(SchemaError::Unknown {
                which: "baseline".into(),
                found: "ipr-report/2".into()
            })
        );
    }
}
