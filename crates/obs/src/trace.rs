//! Span tracing with a Chrome-trace exporter.
//!
//! Dapper-style wall-clock spans: a [`span`] guard records one interval
//! per scope, tagged with a category and the recording thread. Nothing
//! is captured until [`start`] flips the collector on, so instrumented
//! code pays one atomic load per span when tracing is idle.
//!
//! [`chrome_json`] renders captured events in the Trace Event Format
//! (`{"traceEvents": [...]}`, `ph: "X"` complete events, microsecond
//! timestamps) understood by `chrome://tracing` and Perfetto.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One completed span. Timestamps are nanoseconds since the tracing
/// epoch (the first [`start`] call).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    pub name: String,
    /// Category, e.g. `"phase"`, `"chunk"`, `"prefetch"`.
    pub cat: &'static str,
    pub ts_ns: u64,
    pub dur_ns: u64,
    /// Stable per-thread id (assigned in first-span order, 1-based).
    pub tid: u64,
}

/// Renders events as Chrome Trace Event Format JSON. No events render
/// an empty (still loadable) trace.
pub fn chrome_json(events: &[TraceEvent]) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    for (i, e) in events.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
             \"pid\":1,\"tid\":{}}}",
            crate::json_escape(&e.name),
            crate::json_escape(e.cat),
            e.ts_ns as f64 / 1000.0,
            e.dur_ns as f64 / 1000.0,
            e.tid
        ));
    }
    out.push_str("\n]}\n");
    out
}

static ACTIVE: AtomicBool = AtomicBool::new(false);
static EPOCH: OnceLock<Instant> = OnceLock::new();
static EVENTS: Mutex<Vec<TraceEvent>> = Mutex::new(Vec::new());
static NEXT_TID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

fn epoch() -> Instant {
    *EPOCH.get_or_init(Instant::now)
}

fn ns_since_epoch(t: Instant) -> u64 {
    u64::try_from(t.duration_since(epoch()).as_nanos()).unwrap_or(u64::MAX)
}

/// Starts capturing spans (idempotent). The first call fixes the
/// trace epoch.
pub fn start() {
    epoch();
    ACTIVE.store(true, Ordering::Release);
}

/// Stops capturing. Already-captured events stay buffered until
/// [`drain`].
pub fn stop() {
    ACTIVE.store(false, Ordering::Release);
}

#[inline]
pub fn is_active() -> bool {
    ACTIVE.load(Ordering::Acquire)
}

/// Takes all buffered events, ordered by start time.
pub fn drain() -> Vec<TraceEvent> {
    let mut ev = std::mem::take(&mut *EVENTS.lock().unwrap_or_else(|e| e.into_inner()));
    ev.sort_by_key(|e| e.ts_ns);
    ev
}

/// RAII span: records `[creation, drop)` under `name` when tracing
/// is active, otherwise does nothing.
#[must_use = "a span records its interval when dropped"]
#[derive(Debug)]
pub struct Span(Option<SpanInner>);

#[derive(Debug)]
struct SpanInner {
    name: String,
    cat: &'static str,
    start: Instant,
}

pub fn span(name: &str, cat: &'static str) -> Span {
    if !is_active() {
        return Span(None);
    }
    Span(Some(SpanInner { name: name.to_string(), cat, start: Instant::now() }))
}

/// Records a zero-duration marker event (heartbeats, transitions).
pub fn mark(name: &str, cat: &'static str) {
    if !is_active() {
        return;
    }
    let now = Instant::now();
    push(TraceEvent {
        name: name.to_string(),
        cat,
        ts_ns: ns_since_epoch(now),
        dur_ns: 0,
        tid: TID.with(|t| *t),
    });
}

fn push(e: TraceEvent) {
    EVENTS.lock().unwrap_or_else(|p| p.into_inner()).push(e);
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(inner) = self.0.take() {
            let dur = inner.start.elapsed();
            push(TraceEvent {
                name: inner.name,
                cat: inner.cat,
                ts_ns: ns_since_epoch(inner.start),
                dur_ns: u64::try_from(dur.as_nanos()).unwrap_or(u64::MAX),
                tid: TID.with(|t| *t),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chrome_json_is_loadable_shape() {
        let events = vec![
            TraceEvent {
                name: "lookup.build".into(),
                cat: "phase",
                ts_ns: 1500,
                dur_ns: 2500,
                tid: 1,
            },
            TraceEvent {
                name: "chunk \"0\"".into(),
                cat: "chunk",
                ts_ns: 5000,
                dur_ns: 100,
                tid: 2,
            },
        ];
        let json = chrome_json(&events);
        assert!(json.starts_with("{\"traceEvents\":["), "{json}");
        assert!(json.contains("\"ph\":\"X\""), "{json}");
        assert!(json.contains("\"ts\":1.500"), "{json}");
        assert!(json.contains("\"dur\":2.500"), "{json}");
        // Quotes in names must be escaped for the JSON to load.
        assert!(json.contains("chunk \\\"0\\\""), "{json}");
        assert_eq!(json.matches('{').count(), json.matches('}').count(), "{json}");
    }

    #[test]
    fn empty_trace_still_valid() {
        assert_eq!(chrome_json(&[]), "{\"traceEvents\":[\n\n]}\n");
    }

    #[test]
    fn spans_record_only_while_active() {
        // Global collector: drain whatever other tests left behind.
        let _ = drain();
        {
            let _s = span("ignored", "test");
        }
        start();
        {
            let _s = span("seen", "test");
            mark("beat", "test");
        }
        stop();
        {
            let _s = span("ignored-too", "test");
        }
        let events = drain();
        assert!(events.iter().any(|e| e.name == "seen" && e.cat == "test"));
        assert!(events.iter().any(|e| e.name == "beat" && e.dur_ns == 0));
        assert!(!events.iter().any(|e| e.name.starts_with("ignored")));
    }
}
