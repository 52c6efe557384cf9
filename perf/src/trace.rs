//! In-memory spans around the harness's calls into each layer.
//!
//! A span is `(name, start, end, parent, request id)`. Spans are recorded
//! only from the benchmark's own files — around calls into the crates'
//! public functions — kept in memory, and written out when the run ends.
//! A layer's *self time* is its span's duration minus the part of that
//! interval its child spans cover.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use xfraud::netserve::json::Json;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    /// Spans of one request (arrival, batch, community) share this.
    pub request: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A started, not yet ended span.
struct Open {
    id: u32,
    name: &'static str,
    start_ns: u64,
    parent: Option<u32>,
    request: u64,
}

/// Thread-safe span recorder. Switched off it costs one atomic load per
/// call, so the same loop body serves the traced and the untraced run.
pub struct Tracer {
    on: AtomicBool,
    t0: Instant,
    next_id: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on: AtomicBool::new(on),
            t0: Instant::now(),
            next_id: AtomicU32::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn set_on(&self, on: bool) {
        self.on.store(on, Ordering::Relaxed);
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    fn start(&self, name: &'static str, parent: Option<u32>, request: u64) -> Option<Open> {
        if !self.on.load(Ordering::Relaxed) {
            return None;
        }
        Some(Open {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            name,
            start_ns: self.now_ns(),
            parent,
            request,
        })
    }

    fn end(&self, open: Option<Open>) {
        let Some(o) = open else { return };
        let span = Span {
            id: o.id,
            name: o.name,
            start_ns: o.start_ns,
            end_ns: self.now_ns(),
            parent: o.parent,
            request: o.request,
        };
        self.spans
            .lock()
            .expect("no thread panics while holding the span list")
            .push(span);
    }

    /// Runs `f` inside a span; `f` gets the span's id to parent its own
    /// children on (`None` while tracing is off).
    pub fn timed<R>(
        &self,
        name: &'static str,
        parent: Option<u32>,
        request: u64,
        f: impl FnOnce(Option<u32>) -> R,
    ) -> R {
        let open = self.start(name, parent, request);
        let out = f(open.as_ref().map(|o| o.id));
        self.end(open);
        out
    }

    /// The recorded spans in start order.
    pub fn into_spans(self) -> Vec<Span> {
        let mut spans = self
            .spans
            .into_inner()
            .expect("no thread panics while holding the span list");
        spans.sort_by_key(|s| s.id);
        spans
    }
}

/// Self time of every span: duration minus the union of its children's
/// intervals clipped to it (children of concurrent threads may overlap one
/// another; an interval is never subtracted twice).
pub fn self_times_ns(spans: &[Span]) -> BTreeMap<u32, u64> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0u64;
            if let Some(kids) = children.get_mut(&s.id) {
                kids.sort_unstable();
                let mut reach = s.start_ns;
                for &(a, b) in kids.iter() {
                    let (a, b) = (a.max(reach), b.min(s.end_ns));
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
            }
            (s.id, s.dur_ns() - covered)
        })
        .collect()
}

/// One row of the layer table.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerRow {
    pub name: &'static str,
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Spans grouped by name, widest self time first.
pub fn layer_table(spans: &[Span]) -> Vec<LayerRow> {
    let selfs = self_times_ns(spans);
    let mut rows: BTreeMap<&'static str, LayerRow> = BTreeMap::new();
    for s in spans {
        let row = rows.entry(s.name).or_insert(LayerRow {
            name: s.name,
            count: 0,
            total_ns: 0,
            self_ns: 0,
        });
        row.count += 1;
        row.total_ns += s.dur_ns();
        row.self_ns += selfs[&s.id];
    }
    let mut rows: Vec<LayerRow> = rows.into_values().collect();
    rows.sort_by(|a, b| b.self_ns.cmp(&a.self_ns).then(a.name.cmp(b.name)));
    rows
}

/// Total duration of the spans named in `part` as a share of that of the
/// spans named in `whole`.
pub fn share(spans: &[Span], part: &[&str], whole: &[&str]) -> f64 {
    let total = |names: &[&str]| -> u64 {
        spans
            .iter()
            .filter(|s| names.contains(&s.name))
            .map(Span::dur_ns)
            .sum()
    };
    total(part) as f64 / total(whole).max(1) as f64
}

pub fn print_layer_table(workload: &str, spans: &[Span]) {
    let rows = layer_table(spans);
    let all_self: u64 = rows.iter().map(|r| r.self_ns).sum();
    println!(
        "layer table — {workload} ({} spans; self = span minus children)",
        spans.len()
    );
    println!(
        "  {:<28} {:>8} {:>12} {:>12} {:>7}",
        "span", "count", "total ms", "self ms", "self %"
    );
    for r in &rows {
        println!(
            "  {:<28} {:>8} {:>12.3} {:>12.3} {:>6.1}%",
            r.name,
            r.count,
            r.total_ns as f64 / 1e6,
            r.self_ns as f64 / 1e6,
            100.0 * r.self_ns as f64 / all_self.max(1) as f64
        );
    }
}

pub fn spans_to_json(workload: &str, seed: u64, spans: &[Span]) -> Json {
    let span_json = |s: &Span| {
        Json::Obj(vec![
            ("id".into(), Json::num_u64(u64::from(s.id))),
            ("name".into(), Json::Str(s.name.to_string())),
            ("start_ns".into(), Json::num_u64(s.start_ns)),
            ("end_ns".into(), Json::num_u64(s.end_ns)),
            (
                "parent".into(),
                s.parent.map_or(Json::Null, |p| Json::num_u64(u64::from(p))),
            ),
            ("request".into(), Json::num_u64(s.request)),
        ])
    };
    Json::Obj(vec![
        ("workload".into(), Json::Str(workload.to_string())),
        ("seed".into(), Json::num_u64(seed)),
        (
            "spans".into(),
            Json::Arr(spans.iter().map(span_json).collect()),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, name: &'static str, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span {
            id,
            name,
            start_ns: start,
            end_ns: end,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_is_parent_minus_children_nested_and_adjacent() {
        let spans = vec![
            span(0, "request", 0, 100, None),
            // Two adjacent children and a gap of 10 at the end.
            span(1, "decode", 0, 30, Some(0)),
            span(2, "score", 30, 90, Some(0)),
            // Nested inside `score`.
            span(3, "sample", 35, 45, Some(2)),
            span(4, "forward", 45, 85, Some(2)),
        ];
        let selfs = self_times_ns(&spans);
        assert_eq!(selfs[&0], 10);
        assert_eq!(selfs[&1], 30);
        assert_eq!(selfs[&2], 10);
        assert_eq!(selfs[&3], 10);
        assert_eq!(selfs[&4], 40);
        // Self times partition the root exactly.
        assert_eq!(selfs.values().sum::<u64>(), 100);
    }

    #[test]
    fn overlapping_children_are_not_subtracted_twice() {
        let spans = vec![
            span(0, "fit", 0, 100, None),
            span(1, "sample", 10, 60, Some(0)),
            span(2, "sample", 40, 80, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans)[&0], 30);
    }

    #[test]
    fn layer_table_groups_by_name() {
        let spans = vec![
            span(0, "request", 0, 50, None),
            span(1, "score", 10, 40, Some(0)),
            span(2, "request", 50, 100, None),
            span(3, "score", 55, 95, Some(2)),
        ];
        let rows = layer_table(&spans);
        assert_eq!(rows[0].name, "score");
        assert_eq!(
            (rows[0].count, rows[0].total_ns, rows[0].self_ns),
            (2, 70, 70)
        );
        assert_eq!(
            (rows[1].count, rows[1].total_ns, rows[1].self_ns),
            (2, 100, 30)
        );
    }

    #[test]
    fn tracer_records_parents_and_is_free_when_off() {
        let tr = Tracer::new(true);
        tr.timed("outer", None, 7, |outer| {
            tr.timed("inner", outer, 7, |_| ());
        });
        tr.set_on(false);
        tr.timed("ignored", None, 8, |id| assert_eq!(id, None));
        let spans = tr.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].name, spans[0].parent), ("outer", None));
        assert_eq!((spans[1].name, spans[1].parent), ("inner", Some(0)));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert!(spans.iter().all(|s| s.request == 7));
    }

    #[test]
    fn span_json_round_trips() {
        let spans = vec![span(0, "a", 1, 9, None), span(1, "b", 2, 5, Some(0))];
        let text = {
            let mut s = String::new();
            spans_to_json("w", 3, &spans).write(&mut s);
            s
        };
        let doc = xfraud::netserve::json::parse(text.as_bytes()).expect("valid JSON");
        let back = doc.get("spans").and_then(Json::as_array).expect("spans");
        assert_eq!(back.len(), 2);
        assert_eq!(back[1].get("parent").and_then(Json::as_u64), Some(0));
        assert_eq!(back[0].get("parent"), Some(&Json::Null));
        assert_eq!(back[1].get("end_ns").and_then(Json::as_u64), Some(5));
        assert_eq!(doc.get("seed").and_then(Json::as_u64), Some(3));
    }
}
