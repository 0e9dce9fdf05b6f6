//! In-memory spans around the harness's calls into each layer.
//!
//! The benchmark measures the program from outside: a span is opened right
//! before a call into a layer's public function and closed right after it
//! returns.  Spans nest workload → phase → op (→ microbench in the layer
//! suite); each records its name, the layer it calls into, start, end and
//! the span that caused it.  Nothing is written while the benchmark runs;
//! [`Tracer::chrome_events`] and [`Tracer::self_times`] are read out at the
//! end.  A disabled tracer records nothing, so the untraced run pays one
//! branch per call.

use campaign::Json;
use std::time::Instant;

/// One closed (or still open) span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Span name (`workload`, a phase name, or an op label).
    pub name: String,
    /// The layer (crate) the enclosed call runs in, or `harness`.
    pub layer: &'static str,
    /// Start, in microseconds since the tracer was created.
    pub start_us: f64,
    /// End, in microseconds since the tracer was created (`start_us` while
    /// the span is still open).
    pub end_us: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    fn dur_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// Self time of every span sharing one `(layer, name)` key.
#[derive(Debug, Clone, PartialEq)]
pub struct SelfTimeRow {
    /// Layer of the spans.
    pub layer: String,
    /// Name of the spans.
    pub name: String,
    /// Number of spans aggregated.
    pub count: usize,
    /// Summed duration, in seconds.
    pub total_s: f64,
    /// Summed duration minus the part child spans cover, in seconds.
    pub self_s: f64,
}

/// Span recorder of one benchmark process.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    workload: String,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer for `workload`; a disabled one records nothing.
    pub fn new(workload: &str, enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            workload: workload.to_string(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// True if spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, layer: &'static str, name: &str) {
        if !self.enabled {
            return;
        }
        let now = self.now_us();
        self.spans.push(Span {
            name: name.to_string(),
            layer,
            start_us: now,
            end_us: now,
            parent: self.open.last().copied(),
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn end(&mut self) {
        if !self.enabled {
            return;
        }
        let now = self.now_us();
        if let Some(i) = self.open.pop() {
            self.spans[i].end_us = now;
        }
    }

    /// Summed duration of the root spans, in seconds.
    pub fn root_wall_s(&self) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(Span::dur_us)
            .sum::<f64>()
            / 1e6
    }

    /// Self-time table: one row per `(layer, name)`, a span's self time
    /// being its duration minus the part of it its direct children cover.
    /// The harness opens spans strictly nested and one at a time, so the
    /// rows partition the root spans' wall time.
    pub fn self_times(&self) -> Vec<SelfTimeRow> {
        let mut child_us = vec![0.0f64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_us[p] += s.dur_us();
            }
        }
        let mut rows: Vec<SelfTimeRow> = Vec::new();
        for (i, s) in self.spans.iter().enumerate() {
            let self_s = (s.dur_us() - child_us[i]) / 1e6;
            match rows
                .iter_mut()
                .find(|r| r.layer == s.layer && r.name == s.name)
            {
                Some(row) => {
                    row.count += 1;
                    row.total_s += s.dur_us() / 1e6;
                    row.self_s += self_s;
                }
                None => rows.push(SelfTimeRow {
                    layer: s.layer.to_string(),
                    name: s.name.clone(),
                    count: 1,
                    total_s: s.dur_us() / 1e6,
                    self_s,
                }),
            }
        }
        rows.sort_by(|a, b| b.self_s.total_cmp(&a.self_s));
        rows
    }

    /// Share of the root wall time that is the harness's own (self time of
    /// every span whose layer is `harness`).
    pub fn harness_self_share(&self) -> f64 {
        let wall = self.root_wall_s();
        if wall <= 0.0 {
            return 0.0;
        }
        self.self_times()
            .iter()
            .filter(|r| r.layer == "harness")
            .map(|r| r.self_s)
            .sum::<f64>()
            / wall
    }

    /// The spans as Chrome-trace (`chrome://tracing`, Perfetto) complete
    /// events; `pid` distinguishes workloads when several traces are merged.
    pub fn chrome_events(&self, pid: usize) -> Vec<Json> {
        self.spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                Json::obj(vec![
                    ("name", Json::Str(s.name.clone())),
                    ("cat", Json::Str(s.layer.to_string())),
                    ("ph", Json::Str("X".to_string())),
                    ("ts", Json::Num(s.start_us)),
                    ("dur", Json::Num(s.dur_us())),
                    ("pid", Json::Num(pid as f64)),
                    ("tid", Json::Num(1.0)),
                    (
                        "args",
                        Json::obj(vec![
                            ("workload", Json::Str(self.workload.clone())),
                            ("id", Json::Num(i as f64)),
                            (
                                "parent",
                                s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                            ),
                        ]),
                    ),
                ])
            })
            .collect()
    }
}

/// Wraps Chrome-trace events into a loadable document.
pub fn chrome_document(events: Vec<Json>) -> Json {
    Json::obj(vec![
        ("traceEvents", Json::Arr(events)),
        ("displayTimeUnit", Json::Str("ms".to_string())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_partition_the_root_span() {
        let mut t = Tracer::new("w", true);
        t.begin("harness", "workload");
        t.begin("harness", "run");
        for _ in 0..3 {
            t.begin("simmpi", "op");
            std::thread::sleep(std::time::Duration::from_millis(2));
            t.end();
        }
        t.end();
        t.begin("harness", "verify");
        t.end();
        t.end();
        let rows = t.self_times();
        let total: f64 = rows.iter().map(|r| r.self_s).sum();
        assert!((total - t.root_wall_s()).abs() < 1e-9);
        let op = rows.iter().find(|r| r.name == "op").unwrap();
        assert_eq!((op.count, op.layer.as_str()), (3, "simmpi"));
        assert!(op.self_s >= 0.006);
        let share = t.harness_self_share();
        assert!((0.0..1.0).contains(&share));
        // Parents are recorded by index.
        let events = t.chrome_events(2);
        assert_eq!(events.len(), 6);
        assert_eq!(
            events[2].get("args").and_then(|a| a.get("parent")),
            Some(&Json::Num(1.0))
        );
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new("w", false);
        t.begin("harness", "workload");
        t.begin("simmpi", "op");
        t.end();
        t.end();
        assert!(t.chrome_events(1).is_empty());
        assert_eq!(t.root_wall_s(), 0.0);
    }
}
