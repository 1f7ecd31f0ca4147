//! Spans recorded from outside the program, around the calls into each
//! layer. They stay in memory for the whole traced pass and are written
//! out once, as Chrome-trace JSON, when the workload ends.

use std::time::{Duration, Instant};

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_us: f64,
    pub end_us: f64,
    /// Index of the span that caused this one; `None` for a root.
    pub parent: Option<usize>,
    /// True when the interval was rebuilt from durations the program
    /// reported instead of being clocked by the harness.
    pub rebuilt: bool,
}

/// Handle of an open span, to be passed back to [`Tracer::end`].
#[derive(Debug, Clone, Copy)]
pub struct SpanId(usize);

pub struct Tracer {
    /// The identifier every span of this pass shares.
    workload: String,
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(workload: &str) -> Tracer {
        Tracer {
            workload: workload.to_string(),
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_us(&self) -> f64 {
        self.t0.elapsed().as_secs_f64() * 1e6
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, name: &str) -> SpanId {
        let now = self.now_us();
        self.spans.push(Span {
            name: name.to_string(),
            start_us: now,
            end_us: now,
            parent: self.open.last().copied(),
            rebuilt: false,
        });
        self.open.push(self.spans.len() - 1);
        SpanId(self.spans.len() - 1)
    }

    /// Closes `id` (and anything left open inside it).
    pub fn end(&mut self, id: SpanId) {
        let now = self.now_us();
        while let Some(top) = self.open.pop() {
            self.spans[top].end_us = now;
            if top == id.0 {
                break;
            }
        }
    }

    /// Clocks `f` as one span.
    pub fn time<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    /// Rebuilds child spans of a closed span from durations the program
    /// reported, laid end to end from the parent's start.
    pub fn add_children(&mut self, parent: SpanId, parts: &[(&str, Duration)]) {
        let mut at = self.spans[parent.0].start_us;
        for (name, d) in parts {
            let end = at + d.as_secs_f64() * 1e6;
            self.spans.push(Span {
                name: name.to_string(),
                start_us: at,
                end_us: end,
                parent: Some(parent.0),
                rebuilt: true,
            });
            at = end;
        }
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total duration of the spans called `name`, in milliseconds (0
    /// when the pass never entered one).
    pub fn ms(&self, name: &str) -> f64 {
        self.spans.iter().filter(|s| s.name == name).map(|s| (s.end_us - s.start_us) / 1e3).sum()
    }

    pub fn chrome_json(&self) -> String {
        chrome_json(&self.workload, &self.spans)
    }
}

/// A span's own time: its duration minus the part of it its direct
/// children cover (overlapping children are not counted twice).
pub fn self_us(spans: &[Span], idx: usize) -> f64 {
    let me = &spans[idx];
    let mut kids: Vec<(f64, f64)> = spans
        .iter()
        .filter(|s| s.parent == Some(idx))
        .map(|s| (s.start_us.max(me.start_us), s.end_us.min(me.end_us)))
        .filter(|(a, b)| b > a)
        .collect();
    kids.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut covered = 0.0;
    let mut reach = me.start_us;
    for (a, b) in kids {
        if b > reach {
            covered += b - a.max(reach);
            reach = b;
        }
    }
    (me.end_us - me.start_us) - covered
}

fn chrome_json(workload: &str, spans: &[Span]) -> String {
    let mut out = String::from("{\"traceEvents\": [\n");
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "  {{\"name\": \"{}\", \"cat\": \"{}\", \"ph\": \"X\", \"ts\": {:.3}, \"dur\": {:.3}, \
             \"pid\": 1, \"tid\": 1, \"args\": {{\"workload\": \"{}\", \"span\": {}, \
             \"parent\": {}, \"self_us\": {:.3}, \"rebuilt\": {}}}}}{}\n",
            s.name,
            s.name.split('.').next().unwrap_or(""),
            s.start_us,
            s.end_us - s.start_us,
            workload,
            i,
            parent,
            self_us(spans, i),
            s.rebuilt,
            if i + 1 < spans.len() { "," } else { "" },
        ));
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Json};

    fn span(name: &str, a: f64, b: f64, parent: Option<usize>) -> Span {
        Span { name: name.to_string(), start_us: a, end_us: b, parent, rebuilt: false }
    }

    #[test]
    fn self_time_is_duration_minus_the_union_of_children() {
        let spans = vec![
            span("root", 0.0, 100.0, None),
            span("a", 10.0, 40.0, Some(0)),
            span("b", 30.0, 60.0, Some(0)),       // overlaps a by 10
            span("c", 90.0, 130.0, Some(0)),      // clipped to the parent's end
            span("a.inner", 12.0, 20.0, Some(1)), // a grandchild is not root's child
        ];
        assert_eq!(self_us(&spans, 0), 100.0 - (50.0 + 10.0));
        assert_eq!(self_us(&spans, 1), 30.0 - 8.0);
        assert_eq!(self_us(&spans, 4), 8.0);
    }

    #[test]
    fn nesting_follows_begin_and_end_and_the_file_is_json() {
        let mut t = Tracer::new("w");
        let outer = t.begin("placement.place");
        t.time("placement.inner", || ());
        t.end(outer);
        t.add_children(
            outer,
            &[
                ("placement.prescore", Duration::from_micros(5)),
                ("placement.thorough", Duration::from_micros(7)),
            ],
        );
        let s = t.spans();
        assert_eq!(s[0].parent, None);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!((s[2].parent, s[3].parent), (Some(0), Some(0)));
        assert_eq!(s[3].start_us, s[2].end_us);
        assert!(s[2].rebuilt && !s[1].rebuilt);
        let doc = json::parse(&t.chrome_json()).unwrap();
        let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        assert_eq!(events.len(), 4);
        assert_eq!(events[1].get("args").unwrap().get("parent").unwrap().as_f64(), Some(0.0));
        assert_eq!(events[0].get("args").unwrap().get("workload").unwrap().as_str(), Some("w"));
    }
}
