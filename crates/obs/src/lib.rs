//! Zero-dependency observability primitives for the phyloplace stack.
//!
//! Two halves, both always compiled in:
//!
//! * a process-global **metrics registry** of named atomic counters,
//!   gauges, and fixed-bucket (power-of-two nanosecond) latency
//!   histograms, interned once and handed out as `&'static` handles so
//!   hot paths never touch the registry lock;
//! * a lightweight **span tracer** (see [`trace`]) that records
//!   wall-clock phase intervals and exports them as Chrome-trace JSON
//!   loadable in `chrome://tracing` / Perfetto.
//!
//! Probes are always live: a counter or gauge update is one relaxed
//! atomic read-modify-write, a timed operation adds two `Instant::now()`
//! calls and three relaxed `fetch_add`s, and an idle span is one atomic
//! load. There is no switch to turn them off — the binary people run is
//! the instrumented one.
//!
//! The registry is process-global and monotonic by design: per-run
//! figures are what [`Baseline::elapsed`] reports against a
//! [`Baseline::now`] taken before the run.
//!
//! Beside them sit the byte-level helpers every crate of the workspace
//! shares: [`json_escape`], its reading half [`Fields`], and [`crc32`].

pub mod slottrace;
pub mod trace;

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Number of histogram buckets; bucket `i` counts samples in
/// `[2^i, 2^(i+1))` nanoseconds (bucket 0 also absorbs 0), the last
/// bucket absorbs everything above (~2^39 ns ≈ 9 minutes).
pub const HIST_BUCKETS: usize = 40;

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

/// A JSON document written one `"key": value` pair per line — the run
/// manifest, the `--metrics-json` file — read one field at a time: the
/// reading half of [`json_escape`]. Every error string names the missing
/// or malformed field.
pub struct Fields<'a>(pub &'a str);

impl<'a> Fields<'a> {
    /// The value text of `key`: the rest of its line, trimmed, without
    /// the separating comma.
    pub fn raw(&self, key: &str) -> Result<&'a str, String> {
        let needle = format!("\"{key}\":");
        let start =
            self.0.find(&needle).ok_or_else(|| format!("missing field `{key}`"))? + needle.len();
        let rest = &self.0[start..];
        let end = rest.find('\n').unwrap_or(rest.len());
        Ok(rest[..end].trim().trim_end_matches(','))
    }

    /// An unquoted number.
    pub fn uint<T: std::str::FromStr>(&self, key: &str) -> Result<T, String> {
        self.raw(key)?.parse().map_err(|_| malformed(key))
    }

    /// A quoted string, without its quotes.
    pub fn string(&self, key: &str) -> Result<&'a str, String> {
        let v = self.raw(key)?;
        v.strip_prefix('"').and_then(|v| v.strip_suffix('"')).ok_or_else(|| malformed(key))
    }

    /// A 64-bit value written as a quoted hex string, so it never passes
    /// through f64.
    pub fn hex(&self, key: &str) -> Result<u64, String> {
        u64::from_str_radix(self.string(key)?, 16).map_err(|_| malformed(key))
    }
}

/// The error for a field that is present but unreadable.
fn malformed(key: &str) -> String {
    format!("malformed field `{key}`")
}

/// Slicing-by-8 tables for [`crc32`]: `CRC_TABLES[0]` is the classic
/// byte-at-a-time table, `CRC_TABLES[k][i]` the CRC of byte `i`
/// followed by `k` zero bytes.
static CRC_TABLES: [[u32; 256]; 8] = {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
};

/// CRC-32 (IEEE 802.3 / zlib, reflected polynomial 0xEDB88320) of
/// `data`: the workspace's one checksum, shared by the journal's chunk
/// frames and the CLV spill file's records. Eight bytes a step
/// (slicing-by-8), so a 100 KiB protein CLV record costs tens of
/// microseconds, not hundreds.
pub fn crc32(data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = 0xFFFF_FFFFu32;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

// ---------------------------------------------------------------------------
// Metric handles + registry
// ---------------------------------------------------------------------------

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

    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = Vec::new();
        for (i, b) in self.buckets.iter().enumerate() {
            let n = b.load(Ordering::Relaxed);
            if n > 0 {
                buckets.push((i as u8, n));
            }
        }
        HistogramSnapshot {
            count: self.count.load(Ordering::Relaxed),
            sum_ns: self.sum_ns.load(Ordering::Relaxed),
            buckets,
        }
    }
}

/// Wall-clock timer: one `Instant::now()` to start, one to read.
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

/// One kind of metric, in registration order: a position is stable for
/// the life of the process, which is what lets a [`Baseline`] drop the
/// names.
type Family<T> = Vec<(&'static str, &'static T)>;

/// The handle of `name`, leaked once per name — metric names are a small
/// static vocabulary. A linear scan: the [`counter!`] family of macros
/// interns once per call site, so this is off every hot path.
fn intern<T: Default>(family: &mut Family<T>, name: &str) -> &'static T {
    if let Some(&(_, h)) = family.iter().find(|(n, _)| *n == name) {
        return h;
    }
    let h: &'static T = Box::leak(Box::default());
    family.push((Box::leak(name.into()), h));
    h
}

struct Registry {
    counters: Family<Counter>,
    gauges: Family<Gauge>,
    histograms: Family<Histogram>,
}

fn registry() -> std::sync::MutexGuard<'static, Registry> {
    static REGISTRY: Mutex<Registry> =
        Mutex::new(Registry { counters: Vec::new(), gauges: Vec::new(), histograms: Vec::new() });
    REGISTRY.lock().unwrap_or_else(|e| e.into_inner())
}

/// Interns `name` and returns its counter; the same name always yields
/// the same handle. Takes the registry lock: instrumented code goes
/// through [`counter!`], which does this once per call site.
pub fn counter(name: &str) -> &'static Counter {
    intern(&mut registry().counters, name)
}

/// Interns `name` and returns its gauge (see [`counter()`]).
pub fn gauge(name: &str) -> &'static Gauge {
    intern(&mut registry().gauges, name)
}

/// Interns `name` and returns its histogram (see [`counter()`]).
pub fn histogram(name: &str) -> &'static Histogram {
    intern(&mut registry().histograms, name)
}

/// The workspace's one spelling of a probe handle:
/// `phylo_obs::counter!("engine.ops").inc()` interns the name on the
/// call site's first pass and is a plain `&'static` load ever after.
#[macro_export]
macro_rules! counter {
    ($name:literal) => {
        $crate::handle!(Counter, counter, $name)
    };
}

/// [`counter!`] for a gauge.
#[macro_export]
macro_rules! gauge {
    ($name:literal) => {
        $crate::handle!(Gauge, gauge, $name)
    };
}

/// [`counter!`] for a histogram.
#[macro_export]
macro_rules! histogram {
    ($name:literal) => {
        $crate::handle!(Histogram, histogram, $name)
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! handle {
    ($ty:ident, $intern:ident, $name:literal) => {{
        static HANDLE: ::std::sync::OnceLock<&'static $crate::$ty> = ::std::sync::OnceLock::new();
        *HANDLE.get_or_init(|| $crate::$intern($name))
    }};
}

/// Every counter and histogram as it stood at [`Baseline::now`], by
/// registration position and without names: the "before" half of a
/// per-run view, cheap enough to take per daemon request. The default
/// is the start of the process: everything recorded so far has elapsed.
#[derive(Debug, Default)]
pub struct Baseline {
    counters: Vec<u64>,
    histograms: Vec<HistogramSnapshot>,
}

impl Baseline {
    pub fn now() -> Self {
        let r = registry();
        Baseline {
            counters: r.counters.iter().map(|(_, c)| c.get()).collect(),
            histograms: r.histograms.iter().map(|(_, h)| h.snapshot()).collect(),
        }
    }

    /// What happened since: counters and histograms are subtracted (the
    /// registry is monotonic), gauges keep their latest value, metrics
    /// registered after the baseline pass through whole.
    pub fn elapsed(&self) -> Snapshot {
        let r = registry();
        let mut s = Snapshot::default();
        for (i, (name, c)) in r.counters.iter().enumerate() {
            let before = self.counters.get(i).copied().unwrap_or(0);
            s.counters.insert(name.to_string(), c.get().saturating_sub(before));
        }
        for (name, g) in &r.gauges {
            s.gauges.insert(name.to_string(), g.get());
        }
        for (i, (name, h)) in r.histograms.iter().enumerate() {
            let now = h.snapshot();
            let d = match self.histograms.get(i) {
                Some(before) => now.delta(before),
                None => now,
            };
            s.histograms.insert(name.to_string(), d);
        }
        s
    }
}

// ---------------------------------------------------------------------------
// Snapshot: plain data
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
    fn fields_read_one_value_per_line() {
        let doc = concat!(
            "{\n  \"counters\": {\n    \"slot.misses\": 42,\n    \"slot.hits\": 7\n  },\n",
            "  \"name\": \"dna\",\n  \"hash\": \"00000000000000ff\"\n}",
        );
        let f = Fields(doc);
        assert_eq!(f.uint::<u64>("slot.misses"), Ok(42));
        assert_eq!(f.uint::<u64>("slot.hits"), Ok(7));
        assert_eq!(f.string("name"), Ok("dna"));
        assert_eq!(f.hex("hash"), Ok(255));
        assert_eq!(f.uint::<u64>("slot.evictions").unwrap_err(), "missing field `slot.evictions`");
        assert_eq!(f.uint::<u64>("name").unwrap_err(), "malformed field `name`");
        assert_eq!(f.string("slot.hits").unwrap_err(), "malformed field `slot.hits`");
    }

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
    fn crc32_matches_known_vectors() {
        // The canonical check value for CRC-32/ISO-HDLC.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_ne!(crc32(b"abc"), crc32(b"abd"));
        // Eight bytes a step must agree with one byte a step at every
        // length and alignment of the tail.
        let bytewise = |data: &[u8]| {
            let mut c = 0xFFFF_FFFFu32;
            for &b in data {
                c = CRC_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
            }
            !c
        };
        let data: Vec<u8> =
            (0..300u32).map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8).collect();
        for len in 0..data.len() {
            assert_eq!(crc32(&data[..len]), bytewise(&data[..len]), "length {len}");
        }
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
        let (c, h) = (counter("test.obs.delta.c"), histogram("test.obs.delta.h"));
        c.add(5);
        (0..3).for_each(|_| h.record_ns(10));
        let base = Baseline::now();
        c.add(4);
        counter("test.obs.delta.new").inc();
        h.record_ns(10);
        h.record_ns(40);
        let d = base.elapsed();
        assert_eq!(d.counter("test.obs.delta.c"), 4);
        assert_eq!(d.counter("test.obs.delta.new"), 1);
        let h = &d.histograms["test.obs.delta.h"];
        assert_eq!(h.count, 2);
        assert_eq!(h.sum_ns, 50);
        assert_eq!(h.buckets, vec![(3, 1), (5, 1)]);
    }

    #[test]
    fn registry_interns_and_counts() {
        let a = counter("test.obs.interned");
        let b = counter("test.obs.interned");
        assert!(std::ptr::eq(a, b));
        let before = a.get();
        a.inc();
        a.add(2);
        assert_eq!(a.get(), before + 3);
        let snap = Baseline::default().elapsed();
        assert!(snap.counter("test.obs.interned") >= 3);

        let h = histogram("test.obs.hist");
        h.record_ns(100);
        let hs = Baseline::default().elapsed().histograms["test.obs.hist"].clone();
        assert!(hs.count >= 1);
        assert!(hs.sum_ns >= 100);

        // The call-site-cached spelling resolves to the same handle.
        assert!(std::ptr::eq(crate::counter!("test.obs.interned"), a));
        assert!(std::ptr::eq(crate::histogram!("test.obs.hist"), h));
    }

    #[test]
    fn histogram_count_is_the_sum_of_its_buckets_after_concurrent_records() {
        let h = histogram("test.obs.concurrent");
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let start = &start;
                s.spawn(move || {
                    start.wait();
                    (0..10_000u64).for_each(|i| h.record_ns((i << t) + t));
                });
            }
        });
        let snap = h.snapshot();
        assert_eq!(snap.count, 40_000);
        assert_eq!(snap.count, snap.buckets.iter().map(|&(_, n)| n).sum::<u64>());
    }
}
