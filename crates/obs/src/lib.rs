//! Zero-dependency observability primitives for the phyloplace stack.
//!
//! Two halves, both behind the `enabled` feature:
//!
//! * a process-global **metrics registry** of named atomic counters,
//!   gauges, and fixed-bucket (power-of-two nanosecond) latency
//!   histograms, interned once and handed out as `&'static` handles so
//!   hot paths never touch the registry lock;
//! * a lightweight **span tracer** (see [`trace`]) that records
//!   wall-clock phase intervals and exports them as Chrome-trace JSON
//!   loadable in `chrome://tracing` / Perfetto.
//!
//! Without the feature every probe type is a zero-sized no-op and the
//! optimizer deletes the call sites outright; [`Snapshot`] and
//! [`TraceEvent`](trace::TraceEvent) stay available as plain data so
//! downstream types (e.g. `RunReport::metrics`) need no feature gates.
//!
//! The registry is process-global and monotonic by design: per-run
//! figures are obtained by snapshotting before and after and taking
//! [`Snapshot::delta`].

pub mod slottrace;
pub mod trace;

use std::collections::BTreeMap;

/// True when the crate was built with the `enabled` feature, i.e. when
/// probes actually record.
pub const fn enabled() -> bool {
    cfg!(feature = "enabled")
}

/// Number of histogram buckets; bucket `i` counts samples in
/// `[2^i, 2^(i+1))` nanoseconds (bucket 0 also absorbs 0), the last
/// bucket absorbs everything above (~2^39 ns ≈ 9 minutes).
pub const HIST_BUCKETS: usize = 40;

#[cfg_attr(not(feature = "enabled"), allow(dead_code))]
pub(crate) fn bucket_of(ns: u64) -> usize {
    if ns < 2 {
        0
    } else {
        (63 - ns.leading_zeros() as usize).min(HIST_BUCKETS - 1)
    }
}

/// JSON-escapes a string body (no surrounding quotes): the workspace's
/// one escaper, shared by the metrics/trace writers here, the daemon's
/// wire protocol and the jplace writer.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Live metric handles + registry (feature = "enabled")
// ---------------------------------------------------------------------------

#[cfg(feature = "enabled")]
mod live {
    use super::{bucket_of, HIST_BUCKETS};
    use std::collections::HashMap;
    use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
    use std::sync::{Mutex, OnceLock};
    use std::time::Instant;

    /// Monotonic event counter.
    #[derive(Debug, Default)]
    pub struct Counter(AtomicU64);

    impl Counter {
        #[inline]
        pub fn inc(&self) {
            self.0.fetch_add(1, Ordering::Relaxed);
        }
        #[inline]
        pub fn add(&self, n: u64) {
            self.0.fetch_add(n, Ordering::Relaxed);
        }
        #[inline]
        pub fn get(&self) -> u64 {
            self.0.load(Ordering::Relaxed)
        }
    }

    /// Last-write-wins signed level (queue depths, current chunk, ...).
    #[derive(Debug, Default)]
    pub struct Gauge(AtomicI64);

    impl Gauge {
        #[inline]
        pub fn set(&self, v: i64) {
            self.0.store(v, Ordering::Relaxed);
        }
        #[inline]
        pub fn add(&self, d: i64) {
            self.0.fetch_add(d, Ordering::Relaxed);
        }
        #[inline]
        pub fn get(&self) -> i64 {
            self.0.load(Ordering::Relaxed)
        }
    }

    /// Fixed power-of-two-nanosecond bucket histogram.
    #[derive(Debug)]
    pub struct Histogram {
        buckets: [AtomicU64; HIST_BUCKETS],
        count: AtomicU64,
        sum_ns: AtomicU64,
    }

    impl Default for Histogram {
        fn default() -> Self {
            Self {
                buckets: [(); HIST_BUCKETS].map(|_| AtomicU64::new(0)),
                count: AtomicU64::new(0),
                sum_ns: AtomicU64::new(0),
            }
        }
    }

    impl Histogram {
        #[inline]
        pub fn record_ns(&self, ns: u64) {
            self.buckets[bucket_of(ns)].fetch_add(1, Ordering::Relaxed);
            self.count.fetch_add(1, Ordering::Relaxed);
            self.sum_ns.fetch_add(ns, Ordering::Relaxed);
        }

        pub fn snapshot(&self) -> super::HistogramSnapshot {
            let mut buckets = Vec::new();
            for (i, b) in self.buckets.iter().enumerate() {
                let n = b.load(Ordering::Relaxed);
                if n > 0 {
                    buckets.push((i as u8, n));
                }
            }
            super::HistogramSnapshot {
                count: self.count.load(Ordering::Relaxed),
                sum_ns: self.sum_ns.load(Ordering::Relaxed),
                buckets,
            }
        }
    }

    /// Wall-clock timer whose cost vanishes when the feature is off.
    #[derive(Debug)]
    pub struct Stopwatch(Instant);

    impl Stopwatch {
        #[inline]
        pub fn elapsed_ns(&self) -> u64 {
            u64::try_from(self.0.elapsed().as_nanos()).unwrap_or(u64::MAX)
        }
        /// Records the elapsed time into `hist`.
        #[inline]
        pub fn record(&self, hist: &Histogram) {
            hist.record_ns(self.elapsed_ns());
        }
    }

    #[inline]
    pub fn stopwatch() -> Stopwatch {
        Stopwatch(Instant::now())
    }

    #[derive(Default)]
    struct Registry {
        counters: HashMap<String, &'static Counter>,
        gauges: HashMap<String, &'static Gauge>,
        histograms: HashMap<String, &'static Histogram>,
    }

    fn registry() -> std::sync::MutexGuard<'static, Registry> {
        static REGISTRY: OnceLock<Mutex<Registry>> = OnceLock::new();
        REGISTRY
            .get_or_init(|| Mutex::new(Registry::default()))
            .lock()
            .unwrap_or_else(|e| e.into_inner())
    }

    /// Interns `name` and returns its counter; the same name always
    /// yields the same handle. Handles are leaked once per name —
    /// metric names are a small static vocabulary.
    pub fn counter(name: &str) -> &'static Counter {
        let mut r = registry();
        if let Some(c) = r.counters.get(name) {
            return c;
        }
        let c: &'static Counter = Box::leak(Box::default());
        r.counters.insert(name.to_string(), c);
        c
    }

    /// Interns `name` and returns its gauge.
    pub fn gauge(name: &str) -> &'static Gauge {
        let mut r = registry();
        if let Some(g) = r.gauges.get(name) {
            return g;
        }
        let g: &'static Gauge = Box::leak(Box::default());
        r.gauges.insert(name.to_string(), g);
        g
    }

    /// Interns `name` and returns its histogram.
    pub fn histogram(name: &str) -> &'static Histogram {
        let mut r = registry();
        if let Some(h) = r.histograms.get(name) {
            return h;
        }
        let h: &'static Histogram = Box::leak(Box::default());
        r.histograms.insert(name.to_string(), h);
        h
    }

    /// Copies the current state of every registered metric.
    pub fn snapshot() -> super::Snapshot {
        let r = registry();
        let mut s = super::Snapshot::default();
        for (name, c) in &r.counters {
            s.counters.insert(name.clone(), c.get());
        }
        for (name, g) in &r.gauges {
            s.gauges.insert(name.clone(), g.get());
        }
        for (name, h) in &r.histograms {
            s.histograms.insert(name.clone(), h.snapshot());
        }
        s
    }
}

#[cfg(feature = "enabled")]
pub use live::{
    counter, gauge, histogram, snapshot, stopwatch, Counter, Gauge, Histogram, Stopwatch,
};

// ---------------------------------------------------------------------------
// No-op handles (feature off): same API, zero size, zero cost
// ---------------------------------------------------------------------------

#[cfg(not(feature = "enabled"))]
mod noop {
    /// No-op counter (observability disabled at compile time).
    #[derive(Debug, Default)]
    pub struct Counter;

    impl Counter {
        #[inline(always)]
        pub fn inc(&self) {}
        #[inline(always)]
        pub fn add(&self, _n: u64) {}
        #[inline(always)]
        pub fn get(&self) -> u64 {
            0
        }
    }

    /// No-op gauge.
    #[derive(Debug, Default)]
    pub struct Gauge;

    impl Gauge {
        #[inline(always)]
        pub fn set(&self, _v: i64) {}
        #[inline(always)]
        pub fn add(&self, _d: i64) {}
        #[inline(always)]
        pub fn get(&self) -> i64 {
            0
        }
    }

    /// No-op histogram.
    #[derive(Debug, Default)]
    pub struct Histogram;

    impl Histogram {
        #[inline(always)]
        pub fn record_ns(&self, _ns: u64) {}
        pub fn snapshot(&self) -> super::HistogramSnapshot {
            super::HistogramSnapshot::default()
        }
    }

    /// No-op stopwatch: takes no timestamp at all.
    #[derive(Debug)]
    pub struct Stopwatch;

    impl Stopwatch {
        #[inline(always)]
        pub fn elapsed_ns(&self) -> u64 {
            0
        }
        #[inline(always)]
        pub fn record(&self, _hist: &Histogram) {}
    }

    #[inline(always)]
    pub fn stopwatch() -> Stopwatch {
        Stopwatch
    }

    static NOOP_COUNTER: Counter = Counter;
    static NOOP_GAUGE: Gauge = Gauge;
    static NOOP_HISTOGRAM: Histogram = Histogram;

    #[inline(always)]
    pub fn counter(_name: &str) -> &'static Counter {
        &NOOP_COUNTER
    }
    #[inline(always)]
    pub fn gauge(_name: &str) -> &'static Gauge {
        &NOOP_GAUGE
    }
    #[inline(always)]
    pub fn histogram(_name: &str) -> &'static Histogram {
        &NOOP_HISTOGRAM
    }
    /// With probes compiled out the registry is always empty.
    pub fn snapshot() -> super::Snapshot {
        super::Snapshot::default()
    }
}

#[cfg(not(feature = "enabled"))]
pub use noop::{
    counter, gauge, histogram, snapshot, stopwatch, Counter, Gauge, Histogram, Stopwatch,
};

// ---------------------------------------------------------------------------
// Snapshot: plain data, always compiled
// ---------------------------------------------------------------------------

/// Frozen copy of one histogram: total count, summed nanoseconds, and
/// the non-empty buckets as `(log2_lower_bound, count)` pairs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    pub count: u64,
    pub sum_ns: u64,
    pub buckets: Vec<(u8, u64)>,
}

impl HistogramSnapshot {
    /// Samples recorded here but not in `earlier`.
    pub fn delta(&self, earlier: &Self) -> Self {
        let mut buckets = Vec::new();
        for &(i, n) in &self.buckets {
            let prev = earlier.buckets.iter().find(|&&(j, _)| j == i).map(|&(_, n)| n).unwrap_or(0);
            if n > prev {
                buckets.push((i, n - prev));
            }
        }
        Self {
            count: self.count.saturating_sub(earlier.count),
            sum_ns: self.sum_ns.saturating_sub(earlier.sum_ns),
            buckets,
        }
    }
}

/// Point-in-time copy of the metrics registry. Sorted maps give the
/// JSON export a deterministic field order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    pub counters: BTreeMap<String, u64>,
    pub gauges: BTreeMap<String, i64>,
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl Snapshot {
    /// Counter value, 0 if absent.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Inserts or overwrites a counter — used to fold per-run values
    /// (e.g. a store's own slot statistics) into an exported snapshot.
    pub fn set_counter(&mut self, name: &str, value: u64) {
        self.counters.insert(name.to_string(), value);
    }

    /// Inserts or overwrites a gauge — used to fold per-run state (the
    /// selected kernel tier, worker-pool occupancy) into an exported
    /// snapshot.
    pub fn set_gauge(&mut self, name: &str, value: i64) {
        self.gauges.insert(name.to_string(), value);
    }

    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// What happened between `earlier` and `self`: counters and
    /// histograms are subtracted (the registry is monotonic), gauges
    /// keep their latest value. Metrics absent from `earlier` pass
    /// through unchanged.
    pub fn delta(&self, earlier: &Snapshot) -> Snapshot {
        let mut out = Snapshot::default();
        for (name, &v) in &self.counters {
            let prev = earlier.counters.get(name).copied().unwrap_or(0);
            out.counters.insert(name.clone(), v.saturating_sub(prev));
        }
        out.gauges = self.gauges.clone();
        for (name, h) in &self.histograms {
            let d = match earlier.histograms.get(name) {
                Some(prev) => h.delta(prev),
                None => h.clone(),
            };
            out.histograms.insert(name.clone(), d);
        }
        out
    }

    /// Serializes to a self-describing JSON object (hand-rolled, like
    /// every other exporter in this workspace — no serde).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"counters\": {");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\n    \"{}\": {}", json_escape(name), v));
        }
        if !self.counters.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("},\n  \"gauges\": {");
        for (i, (name, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\n    \"{}\": {}", json_escape(name), v));
        }
        if !self.gauges.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("},\n  \"histograms\": {");
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let buckets =
                h.buckets.iter().map(|(b, n)| format!("[{b}, {n}]")).collect::<Vec<_>>().join(", ");
            out.push_str(&format!(
                "\n    \"{}\": {{\"count\": {}, \"sum_ns\": {}, \"buckets\": [{}]}}",
                json_escape(name),
                h.count,
                h.sum_ns,
                buckets
            ));
        }
        if !self.histograms.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("}\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 0);
        assert_eq!(bucket_of(2), 1);
        assert_eq!(bucket_of(3), 1);
        assert_eq!(bucket_of(4), 2);
        assert_eq!(bucket_of(u64::MAX), HIST_BUCKETS - 1);
    }

    #[test]
    fn snapshot_json_shape() {
        let mut s = Snapshot::default();
        s.set_counter("slot.misses", 7);
        s.gauges.insert("place.chunk".into(), 3);
        s.histograms.insert(
            "slot.wait_ns".into(),
            HistogramSnapshot { count: 2, sum_ns: 300, buckets: vec![(7, 2)] },
        );
        let json = s.to_json();
        assert!(json.contains("\"slot.misses\": 7"), "{json}");
        assert!(json.contains("\"place.chunk\": 3"), "{json}");
        assert!(json.contains("\"count\": 2"), "{json}");
        assert!(json.contains("[7, 2]"), "{json}");
        // Balanced braces — the exporter is hand-rolled, keep it honest.
        let open = json.matches('{').count();
        let close = json.matches('}').count();
        assert_eq!(open, close, "{json}");
    }

    #[test]
    fn delta_subtracts_counters_and_histograms() {
        let mut earlier = Snapshot::default();
        earlier.set_counter("c", 5);
        earlier
            .histograms
            .insert("h".into(), HistogramSnapshot { count: 3, sum_ns: 30, buckets: vec![(2, 3)] });
        let mut later = earlier.clone();
        later.set_counter("c", 9);
        later.set_counter("new", 1);
        later.histograms.insert(
            "h".into(),
            HistogramSnapshot { count: 5, sum_ns: 80, buckets: vec![(2, 4), (5, 1)] },
        );
        let d = later.delta(&earlier);
        assert_eq!(d.counter("c"), 4);
        assert_eq!(d.counter("new"), 1);
        let h = &d.histograms["h"];
        assert_eq!(h.count, 2);
        assert_eq!(h.sum_ns, 50);
        assert_eq!(h.buckets, vec![(2, 1), (5, 1)]);
    }

    #[cfg(feature = "enabled")]
    #[test]
    fn registry_interns_and_counts() {
        let a = counter("test.obs.interned");
        let b = counter("test.obs.interned");
        assert!(std::ptr::eq(a, b));
        let before = a.get();
        a.inc();
        a.add(2);
        assert_eq!(a.get(), before + 3);
        let snap = snapshot();
        assert!(snap.counter("test.obs.interned") >= 3);

        let h = histogram("test.obs.hist");
        h.record_ns(100);
        let hs = snapshot().histograms["test.obs.hist"].clone();
        assert!(hs.count >= 1);
        assert!(hs.sum_ns >= 100);
    }

    #[cfg(not(feature = "enabled"))]
    #[test]
    fn disabled_probes_record_nothing() {
        let c = counter("test.obs.noop");
        c.inc();
        c.add(10);
        assert_eq!(c.get(), 0);
        assert_eq!(std::mem::size_of::<Counter>(), 0);
        assert_eq!(std::mem::size_of::<Stopwatch>(), 0);
        let sw = stopwatch();
        sw.record(histogram("test.obs.noop_hist"));
        assert!(snapshot().is_empty());
        assert!(!enabled());
    }
}
