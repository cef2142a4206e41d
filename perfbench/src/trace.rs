//! Spans recorded around calls into each layer's public functions.
//!
//! Spans live in memory until the run ends, then render two ways: Chrome
//! trace-event JSON (opens offline in Perfetto or `chrome://tracing`) and
//! a per-layer table of self time — a span's duration minus the part of
//! its interval that its child spans cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span. Times are nanoseconds since the tracer's origin.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `core.optimize`.
    pub name: &'static str,
    /// Unique id within the run.
    pub id: u64,
    /// The span that caused this one.
    pub parent: Option<u64>,
    /// The op (sweep unit or request) the span belongs to.
    pub op: u64,
    /// Recording thread (client or grid worker index).
    pub tid: u32,
    /// Start, since the tracer origin.
    pub start_ns: u64,
    /// Duration.
    pub dur_ns: u64,
}

impl Span {
    fn end_ns(&self) -> u64 {
        self.start_ns + self.dur_ns
    }
}

/// In-memory span recorder shared by every thread of a run.
pub struct Tracer {
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A recorder whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Runs `f` inside a span named `name`; `f` receives the span's id to
    /// parent nested spans on.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: Option<u64>,
        op: u64,
        tid: u32,
        f: impl FnOnce(u64) -> R,
    ) -> R {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let t0 = Instant::now();
        let out = f(id);
        let dur = t0.elapsed();
        let span = Span {
            name,
            id,
            parent,
            op,
            tid,
            start_ns: t0.duration_since(self.origin).as_nanos() as u64,
            dur_ns: dur.as_nanos() as u64,
        };
        self.spans.lock().expect("span buffer lock").push(span);
        out
    }

    /// Every span recorded so far, ordered by start time.
    pub fn finish(self) -> Vec<Span> {
        let mut spans = self.spans.into_inner().expect("span buffer lock");
        spans.sort_by_key(|s| (s.start_ns, s.id));
        spans
    }
}

/// Self time of every span, aligned with `spans`: its duration minus the
/// union of its children's intervals clipped to its own (children may
/// overlap each other, e.g. grid workers under one phase span).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children
                .entry(p)
                .or_default()
                .push((s.start_ns, s.end_ns()));
        }
    }
    spans
        .iter()
        .map(|s| {
            let Some(kids) = children.get_mut(&s.id) else {
                return s.dur_ns;
            };
            kids.sort_unstable();
            let (lo, hi) = (s.start_ns, s.end_ns());
            let mut covered = 0;
            let mut reach = lo;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(hi));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.dur_ns - covered
        })
        .collect()
}

/// Per-name aggregate of a run's spans.
#[derive(Clone, Debug, PartialEq)]
pub struct LayerRow {
    /// Span name.
    pub name: &'static str,
    /// Spans recorded.
    pub count: u64,
    /// Summed inclusive duration (ns).
    pub total_ns: u64,
    /// Summed self time (ns).
    pub self_ns: u64,
}

impl LayerRow {
    /// Mean inclusive duration in milliseconds.
    pub fn mean_ms(&self) -> f64 {
        self.total_ns as f64 / self.count.max(1) as f64 / 1e6
    }
}

/// Aggregates spans by name, in name order.
pub fn layer_table(spans: &[Span]) -> Vec<LayerRow> {
    let mut rows: BTreeMap<&'static str, LayerRow> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(self_times(spans)) {
        let row = rows.entry(s.name).or_insert(LayerRow {
            name: s.name,
            count: 0,
            total_ns: 0,
            self_ns: 0,
        });
        row.count += 1;
        row.total_ns += s.dur_ns;
        row.self_ns += self_ns;
    }
    rows.into_values().collect()
}

/// Renders the per-layer table as aligned text.
pub fn render_table(rows: &[LayerRow]) -> String {
    let mut out = format!(
        "{:<28} {:>8} {:>12} {:>12} {:>10}\n",
        "span", "count", "self_ms", "total_ms", "mean_ms"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:<28} {:>8} {:>12.3} {:>12.3} {:>10.4}",
            r.name,
            r.count,
            r.self_ns as f64 / 1e6,
            r.total_ns as f64 / 1e6,
            r.mean_ms()
        );
    }
    out
}

/// Chrome trace-event JSON (complete `X` events, microsecond times); the
/// layer (the name's first segment) becomes the event category.
pub fn chrome_json(spans: &[Span]) -> String {
    let mut out = String::from("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let cat = s.name.split('.').next().unwrap_or(s.name);
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = write!(
            out,
            "\n{{\"name\": \"{}\", \"cat\": \"{cat}\", \"ph\": \"X\", \"pid\": 1, \"tid\": {}, \
             \"ts\": {:.3}, \"dur\": {:.3}, \"args\": {{\"id\": {}, \"parent\": {parent}, \"op\": {}}}}}",
            s.name,
            s.tid,
            s.start_ns as f64 / 1e3,
            s.dur_ns as f64 / 1e3,
            s.id,
            s.op
        );
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, id: u64, parent: Option<u64>, start: u64, dur: u64) -> Span {
        Span {
            name,
            id,
            parent,
            op: 0,
            tid: 0,
            start_ns: start,
            dur_ns: dur,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        // Parent [0, 100); children [10, 40), [30, 60) overlap on [30, 40)
        // and [90, 120) pokes out of the parent. Covered: [10, 60) + [90,
        // 100) = 60, so self = 40 — not 100 - 30 - 30 - 30 = 10.
        let spans = vec![
            span("phase", 1, None, 0, 100),
            span("a", 2, Some(1), 10, 30),
            span("b", 3, Some(1), 30, 30),
            span("c", 4, Some(1), 90, 30),
            span("leaf", 5, Some(2), 15, 5),
        ];
        assert_eq!(self_times(&spans), vec![40, 25, 30, 30, 5]);
    }

    #[test]
    fn self_time_of_nested_and_contained_children() {
        let spans = vec![
            span("root", 1, None, 0, 50),
            span("x", 2, Some(1), 5, 40),
            span("y", 3, Some(1), 10, 5), // inside x's interval
        ];
        assert_eq!(self_times(&spans), vec![10, 40, 5]);
    }

    #[test]
    fn table_aggregates_by_name() {
        let spans = vec![
            span("op", 1, None, 0, 100),
            span("core.optimize", 2, Some(1), 0, 60),
            span("op", 3, None, 100, 50),
            span("core.optimize", 4, Some(3), 100, 20),
        ];
        let rows = layer_table(&spans);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].name, "core.optimize");
        assert_eq!(
            (rows[0].count, rows[0].total_ns, rows[0].self_ns),
            (2, 80, 80)
        );
        assert_eq!(
            (rows[1].count, rows[1].total_ns, rows[1].self_ns),
            (2, 150, 70)
        );
        assert!((rows[1].mean_ms() - 75e-6).abs() < 1e-15);
    }

    #[test]
    fn tracer_links_children_and_renders_chrome_json() {
        let t = Tracer::new();
        t.span("serve.roundtrip", None, 7, 1, |id| {
            t.span("serve.decode", Some(id), 7, 1, |_| ());
        });
        let spans = t.finish();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(spans[0].id));
        let json = chrome_json(&spans);
        let doc = rtpf_serve::json::Value::parse(&json).expect("valid JSON");
        assert!(doc.get("traceEvents").is_some());
        assert!(json.contains("\"cat\": \"serve\""));
    }
}
