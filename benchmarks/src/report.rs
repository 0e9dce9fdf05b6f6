//! What one workload run reports: the end-to-end metrics reduced from its
//! samples, its op accounting and its digest — as the child sends them to
//! the parent, and as the parent prints them.

use crate::harness::{Ctx, RunSamples};
use crate::names::{MetricDef, END_TO_END};
use crate::stats::{highest_supported_percentile, median, percentile, Summary};
use crate::trace::SelfTimeRow;
use campaign::Json;

/// One reported number with the samples behind it.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// The headline value.
    pub value: f64,
    /// Median, quartiles and count of the samples behind the value.
    pub summary: Summary,
}

impl Metric {
    fn new(name: &str, unit: &str, value: f64, samples: &[f64]) -> Self {
        Metric {
            name: name.to_string(),
            unit: unit.to_string(),
            value,
            summary: Summary::of(samples),
        }
    }

    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("name", Json::Str(self.name.clone())),
            ("unit", Json::Str(self.unit.clone())),
            ("value", Json::Num(self.value)),
            ("median", Json::Num(self.summary.median)),
            ("q1", Json::Num(self.summary.q1)),
            ("q3", Json::Num(self.summary.q3)),
            ("n", Json::Num(self.summary.n as f64)),
        ])
    }

    fn from_json(doc: &Json) -> Option<Self> {
        let num = |k: &str| doc.get(k).and_then(Json::as_f64);
        Some(Metric {
            name: doc.get("name")?.as_str()?.to_string(),
            unit: doc.get("unit")?.as_str()?.to_string(),
            value: num("value")?,
            summary: Summary {
                n: num("n")? as usize,
                median: num("median")?,
                q1: num("q1")?,
                q3: num("q3")?,
            },
        })
    }
}

/// One finished workload run.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadRun {
    /// Workload name.
    pub workload: String,
    /// `--seed`.
    pub seed: u64,
    /// Ops attempted.
    pub attempted: u64,
    /// Ops failed.
    pub failed: u64,
    /// The first few failure descriptions.
    pub failures: Vec<String>,
    /// FNV-1a-64 of repetition 0's stripped reports: equal digests mean
    /// equal simulated statistics (informational, never pinned here).
    pub sim_digest: String,
    /// The end-to-end metrics, in [`END_TO_END`] order.
    pub metrics: Vec<Metric>,
    /// Workload-specific rates (informational).
    pub extras: Vec<Metric>,
    /// Counts that repeat exactly for one seed.
    pub counts: Vec<(String, u64)>,
    /// Timed wall of every repetition, in seconds.
    pub rep_wall_s: Vec<f64>,
    /// Self-time table of the traced run (empty when untraced).
    pub self_times: Vec<SelfTimeRow>,
    /// Share of the traced workload span that is the harness's own.
    pub harness_self_share: f64,
    /// Wall of the traced workload span, in seconds.
    pub workload_wall_s: f64,
}

fn definition(name: &str) -> &'static MetricDef {
    END_TO_END
        .iter()
        .find(|m| m.name == name)
        .expect("an end-to-end metric of the catalog")
}

impl WorkloadRun {
    /// Reduces a run's samples to its metrics (child side).
    pub fn reduce(workload: &str, ctx: &Ctx, samples: &RunSamples) -> Self {
        // Every timed metric is built from what each op typically takes
        // (its median over the repetitions), not from whole repetitions:
        // see `RunSamples::typical_op_ms`.
        let typical = samples.typical_op_ms();
        let walls: Vec<f64> = samples.reps.iter().map(|r| r.wall_s).collect();
        let first = samples.reps.first();
        let ops = first.map_or(0, |r| r.ops) as f64;
        let ranks = first.map_or(0, |r| r.ranks) as f64;
        let rank_ops = first.map_or(0, |r| r.rank_ops);
        let seconds = |ms: &[f64]| (ms.iter().sum::<f64>() / 1e3).max(1e-9);
        let rss = samples.peak_rss_mb;
        let metric = |name: &str, value: f64, samples: &[f64]| {
            Metric::new(name, definition(name).unit, value, samples)
        };
        let metrics = vec![
            metric("setup_s", median(&samples.setup_s), &samples.setup_s),
            metric("runs_per_s", ops / seconds(&typical), &samples.runs_per_s()),
            metric("run_ms_p50", percentile(&typical, 50.0), &typical),
            metric("run_ms_p75", percentile(&typical, 75.0), &typical),
            metric(
                "ranks_per_s",
                ranks / seconds(&typical[..rank_ops.min(typical.len())]),
                &samples.ranks_per_s(),
            ),
            metric("peak_rss_mb", rss, &[rss]),
        ];
        let mut rates = samples.extras();
        for &(name, value) in &ctx.notes {
            rates.entry(name).or_default().push(value);
        }
        let extras = rates
            .into_iter()
            .map(|(name, values)| Metric::new(name, "1/s", median(&values), &values))
            .collect();
        let traced = ctx.tracer.enabled();
        WorkloadRun {
            workload: workload.to_string(),
            seed: ctx.seed,
            attempted: ctx.ledger.attempted,
            failed: ctx.ledger.failed.min(ctx.ledger.attempted),
            failures: ctx.ledger.failures.clone(),
            sim_digest: ctx.digest.hex(),
            metrics,
            extras,
            counts: samples
                .counts()
                .into_iter()
                .map(|(n, v)| (n.to_string(), v))
                .collect(),
            rep_wall_s: walls,
            self_times: if traced {
                ctx.tracer.self_times()
            } else {
                Vec::new()
            },
            harness_self_share: ctx.tracer.harness_self_share(),
            workload_wall_s: ctx.tracer.root_wall_s(),
        }
    }

    /// The value of the end-to-end metric called `name`.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// Failed ops over attempted ops.
    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The run as JSON (the child's `@result`, and the saved record).
    pub fn to_json(&self) -> Json {
        let metrics = |list: &[Metric]| Json::Arr(list.iter().map(Metric::to_json).collect());
        Json::obj(vec![
            ("workload", Json::Str(self.workload.clone())),
            ("seed", Json::Num(self.seed as f64)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "failures",
                Json::Arr(self.failures.iter().cloned().map(Json::Str).collect()),
            ),
            ("sim_digest", Json::Str(self.sim_digest.clone())),
            ("metrics", metrics(&self.metrics)),
            ("extras", metrics(&self.extras)),
            (
                "counts",
                Json::Obj(
                    self.counts
                        .iter()
                        .map(|(n, v)| (n.clone(), Json::Num(*v as f64)))
                        .collect(),
                ),
            ),
            (
                "rep_wall_s",
                Json::Arr(self.rep_wall_s.iter().map(|&w| Json::Num(w)).collect()),
            ),
            (
                "self_times",
                Json::Arr(
                    self.self_times
                        .iter()
                        .map(|r| {
                            Json::obj(vec![
                                ("layer", Json::Str(r.layer.clone())),
                                ("name", Json::Str(r.name.clone())),
                                ("count", Json::Num(r.count as f64)),
                                ("total_s", Json::Num(r.total_s)),
                                ("self_s", Json::Num(r.self_s)),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("harness_self_share", Json::Num(self.harness_self_share)),
            ("workload_wall_s", Json::Num(self.workload_wall_s)),
        ])
    }

    /// Parses [`WorkloadRun::to_json`].
    pub fn from_json(doc: &Json) -> Option<Self> {
        let num = |k: &str| doc.get(k).and_then(Json::as_f64);
        let metrics = |k: &str| -> Option<Vec<Metric>> {
            doc.get(k)?
                .as_arr()?
                .iter()
                .map(Metric::from_json)
                .collect()
        };
        let counts = match doc.get("counts")? {
            Json::Obj(fields) => fields
                .iter()
                .filter_map(|(n, v)| Some((n.clone(), v.as_f64()? as u64)))
                .collect(),
            _ => return None,
        };
        let self_times = doc
            .get("self_times")?
            .as_arr()?
            .iter()
            .filter_map(|r| {
                Some(SelfTimeRow {
                    layer: r.get("layer")?.as_str()?.to_string(),
                    name: r.get("name")?.as_str()?.to_string(),
                    count: r.get("count")?.as_f64()? as usize,
                    total_s: r.get("total_s")?.as_f64()?,
                    self_s: r.get("self_s")?.as_f64()?,
                })
            })
            .collect();
        Some(WorkloadRun {
            workload: doc.get("workload")?.as_str()?.to_string(),
            seed: num("seed")? as u64,
            attempted: num("attempted")? as u64,
            failed: num("failed")? as u64,
            failures: doc
                .get("failures")?
                .as_arr()?
                .iter()
                .filter_map(|f| f.as_str().map(str::to_string))
                .collect(),
            sim_digest: doc.get("sim_digest")?.as_str()?.to_string(),
            metrics: metrics("metrics")?,
            extras: metrics("extras")?,
            counts,
            rep_wall_s: doc
                .get("rep_wall_s")?
                .as_arr()?
                .iter()
                .filter_map(Json::as_f64)
                .collect(),
            self_times,
            harness_self_share: num("harness_self_share")?,
            workload_wall_s: num("workload_wall_s")?,
        })
    }

    /// The human-readable block of this run.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "== {}  (seed {}, {} rep(s), sim_digest {})",
            self.workload,
            self.seed,
            self.rep_wall_s.len(),
            self.sim_digest
        );
        let _ = writeln!(
            out,
            "   {:<22} {:>6} {:>14} {:>14} {:>14} {:>14} {:>6}",
            "metric", "unit", "value", "median", "q1", "q3", "n"
        );
        for m in self.metrics.iter().chain(&self.extras) {
            let _ = writeln!(
                out,
                "   {:<22} {:>6} {:>14.4} {:>14.4} {:>14.4} {:>14.4} {:>6}",
                m.name, m.unit, m.value, m.summary.median, m.summary.q1, m.summary.q3, m.summary.n
            );
        }
        let inputs = self
            .metrics
            .iter()
            .find(|m| m.name == "run_ms_p50")
            .map_or(0, |m| m.summary.n);
        let reps = self.rep_wall_s.len();
        let _ = writeln!(
            out,
            "   note: timed values rest on what each of the {inputs} ops of a repetition \
             typically takes: the median of its wall over the {reps} repetitions"
        );
        if highest_supported_percentile(reps).is_none() {
            let _ = writeln!(
                out,
                "   note: {reps} repetitions leave fewer than ten samples beyond each median; \
                 read the timed values with care"
            );
        }
        let _ = writeln!(
            out,
            "   {:<22} {:>6} {:>14.6}   ({} failed of {} attempted)",
            "failed_share",
            "ratio",
            self.failed_share(),
            self.failed,
            self.attempted
        );
        for (name, value) in &self.counts {
            let _ = writeln!(out, "   count {name:<16} {value}");
        }
        let summary = Summary::of(&self.rep_wall_s);
        let _ = writeln!(
            out,
            "   rep walls (s)          median {:.4}  q1 {:.4}  q3 {:.4}  n {}",
            summary.median, summary.q1, summary.q3, summary.n
        );
        for failure in &self.failures {
            let _ = writeln!(out, "   FAILED: {failure}");
        }
        out
    }

    /// The self-time table of a traced run, and how much of the workload
    /// span its rows account for.
    pub fn render_self_times(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "-- self time, {} (workload span {:.3} s)",
            self.workload, self.workload_wall_s
        );
        let covered: f64 = self.self_times.iter().map(|r| r.self_s).sum();
        for row in &self.self_times {
            let _ = writeln!(
                out,
                "   {:<16} {:<44} {:>6} {:>10.3} s {:>6.1} %",
                row.layer,
                row.name,
                row.count,
                row.self_s,
                100.0 * row.self_s / self.workload_wall_s.max(1e-9)
            );
        }
        let _ = writeln!(
            out,
            "   rows sum to {:.3} s = {:.1} % of the workload span",
            covered,
            100.0 * covered / self.workload_wall_s.max(1e-9)
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{Fnv64, Ledger, Rep, Size};
    use crate::trace::Tracer;

    fn run() -> WorkloadRun {
        let mut ctx = Ctx {
            seed: 9,
            size: Size::Quick,
            workers: 1,
            scratch: ".".into(),
            tracer: Tracer::new("w", true),
            ledger: Ledger::default(),
            digest: Fnv64::default(),
            notes: Vec::new(),
        };
        ctx.ledger.attempt(30);
        ctx.ledger.fail(3, "three broke");
        ctx.notes.push(("cold_specs_per_s", 2.5));
        ctx.tracer.begin("harness", "workload");
        ctx.tracer.begin("apps", "op");
        ctx.tracer.end();
        ctx.tracer.end();
        // Five ops; op 2 is disturbed in one repetition, op 4 in another.
        let rep = |wall_s: f64, op_ms: [f64; 5]| Rep {
            wall_s,
            ops: 10,
            op_ms: op_ms.to_vec(),
            ranks: 100,
            rank_ops: 2,
            extra: vec![("cold_specs_per_s", 10.0 / wall_s)],
            counts: vec![("messages", 77)],
        };
        let samples = RunSamples {
            setup_s: vec![0.3, 0.1, 0.2],
            reps: vec![
                rep(1.0, [100.0, 150.0, 250.0, 500.0, 1000.0]),
                rep(2.0, [100.0, 150.0, 900.0, 500.0, 1000.0]),
                rep(4.0, [100.0, 150.0, 250.0, 500.0, 3000.0]),
            ],
            peak_rss_mb: 12.5,
        };
        WorkloadRun::reduce("figs-thread", &ctx, &samples)
    }

    #[test]
    fn timed_metrics_rest_on_each_ops_median_over_the_repetitions() {
        let run = run();
        assert_eq!(run.value("setup_s"), Some(0.2));
        // The typical repetition takes 100 + 150 + 250 + 500 + 1000 ms: the
        // two disturbed samples move nothing.
        assert_eq!(run.value("runs_per_s"), Some(5.0));
        assert_eq!(run.value("ranks_per_s"), Some(400.0));
        assert_eq!(run.value("run_ms_p50"), Some(250.0));
        assert_eq!(run.value("run_ms_p75"), Some(500.0));
        assert_eq!(run.value("peak_rss_mb"), Some(12.5));
        assert_eq!(run.metrics.len(), END_TO_END.len());
        assert_eq!(run.metrics[2].summary.n, 5);
        assert_eq!((run.attempted, run.failed), (30, 3));
        assert_eq!(run.failed_share(), 0.1);
        assert_eq!(run.counts, vec![("messages".to_string(), 77)]);
        assert_eq!(run.extras[0].name, "cold_specs_per_s");
        assert_eq!(run.self_times.len(), 2);
    }

    #[test]
    fn a_run_survives_the_trip_through_json() {
        let run = run();
        let text = run.to_json().render_compact();
        let back = WorkloadRun::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, run);
        let shown = run.render();
        assert!(shown.contains("failed_share") && shown.contains("FAILED: three broke"));
        assert!(shown.contains("fewer than ten samples beyond each median"));
        assert!(run.render_self_times().contains("rows sum to"));
    }
}
