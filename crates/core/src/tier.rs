//! Disk spill for evicted CLVs.
//!
//! The paper's AMC answers every slot miss with recomputation; pplacer
//! instead keeps CLVs in a memory-mapped file. This module makes the
//! second answer a configuration of the first: a computed victim the
//! slot manager evicts can be **spilled** to a fixed-record file, and a
//! later miss on the same CLV answered by one read instead of a kernel
//! traversal.
//!
//! Key property making this sound: within one run a CLV's contents are
//! a pure function of the tree, model, and alignment. A spilled copy
//! can therefore never go stale; the file is a **write-once cache**
//! and a lost, refused, or corrupt record degrades to the recompute
//! path, never to a wrong likelihood. Every record's CRC-32 is taken
//! when it is written and checked when it is read, so disk bit-rot
//! surfaces as a counted miss, not as data.
//!
//! There is no background thread: [`TieredStore::offer`] writes on the
//! eviction path (the caller runs it outside the plan lock, on the
//! thread that took the victim's slot) and [`TieredStore::fetch_into`]
//! reads on the miss path. A cost model picks spill-vs-drop per victim:
//! estimated recompute cost (descendant-op count × measured ns/op EWMA)
//! against the measured reload latency EWMA. Unmeasured sides are
//! optimistic — the first few spills and reloads are how the model
//! learns.

use crate::error::AmcError;
use crate::slots::ClvKey;
use std::os::unix::fs::FileExt;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use phylo_obs::crc32;

// ---------------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------------

/// Where to spill and how much (the `--tier-dir` / `--tier-budget`
/// surface).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TierConfig {
    /// Directory for the spill file. Created if missing — and then
    /// removed with the store once empty.
    pub dir: PathBuf,
    /// Byte cap on stored records; exceeding it turns spills into
    /// drops. `None` is unbounded.
    pub budget_bytes: Option<usize>,
}

impl TierConfig {
    /// Spills into `dir`, unbounded.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        TierConfig { dir: dir.into(), budget_bytes: None }
    }

    /// Sets the byte budget.
    pub fn with_budget(mut self, bytes: usize) -> Self {
        self.budget_bytes = Some(bytes);
        self
    }

    /// Checks internal consistency.
    pub fn validate(&self) -> Result<(), AmcError> {
        let bad = |detail: &str| AmcError::TierIo { tier: "config", detail: detail.to_string() };
        if self.dir.as_os_str().is_empty() {
            return Err(bad("tier directory must be non-empty"));
        }
        if self.budget_bytes == Some(0) {
            return Err(bad("tier budget must be non-zero"));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Traffic statistics
// ---------------------------------------------------------------------------

#[derive(Debug, Default)]
struct TierCounters {
    demotions: AtomicU64,
    writeback_lost: AtomicU64,
    drops_cost: AtomicU64,
    drops_budget: AtomicU64,
    reloads: AtomicU64,
    reload_misses: AtomicU64,
    corrupt: AtomicU64,
}

/// Snapshot of a [`TieredStore`]'s traffic and occupancy. Kept per
/// store (the `phylo-obs` registry is per process) so tests and
/// `RunReport` can assert on one run's spill behavior.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TierStats {
    /// Victims written to the spill file.
    pub demotions: u64,
    /// Spills whose write failed (I/O error or injected crash); they
    /// leave no record behind.
    pub writeback_lost: u64,
    /// Victims dropped because recompute was estimated cheaper.
    pub drops_cost: u64,
    /// Victims dropped because the byte budget was exhausted.
    pub drops_budget: u64,
    /// Misses answered from the file (promotion back to hot).
    pub reloads: u64,
    /// Fetches that found no usable record (recompute follows).
    pub reload_misses: u64,
    /// Records quarantined after a CRC mismatch on reload.
    pub corrupt: u64,
    /// Records currently stored.
    pub entries: u64,
    /// Bytes of records currently stored (`entries × record length`).
    pub bytes: u64,
}

// ---------------------------------------------------------------------------
// EWMA latency cells (f64 bits in an AtomicU64; updates are Relaxed
// read-modify-write — contention loses a sample, not data)
// ---------------------------------------------------------------------------

#[derive(Debug, Default)]
struct Ewma(AtomicU64);

impl Ewma {
    fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }

    fn update(&self, sample: f64) {
        let old = self.get();
        let new = if old == 0.0 { sample } else { old * 0.8 + sample * 0.2 };
        self.0.store(new.to_bits(), Ordering::Relaxed);
    }
}

fn elapsed_ns(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

// ---------------------------------------------------------------------------
// TieredStore
// ---------------------------------------------------------------------------

/// Marks an occupied [`TieredStore`] index entry; the low 32 bits hold
/// the record's CRC.
const STORED: u64 = 1 << 32;

/// The spill file attached to a `SlotArena`: record `k` lives at byte
/// offset `k × record_len`, written with `pwrite` and read with
/// `pread`, so concurrent threads never share a file cursor. All
/// methods are `&self`.
pub struct TieredStore {
    file: std::fs::File,
    path: PathBuf,
    /// The directory this store created (and removes on drop, if empty).
    own_dir: Option<PathBuf>,
    /// Per CLV key: `0` when no record is stored, else `STORED | crc`.
    /// An entry is published (`Release`, in `offer`) only after its
    /// record is fully written; the `Acquire` loads in `offer` and
    /// `fetch_into` pair with it. Clearing a corrupt entry publishes
    /// nothing and is `Relaxed`.
    index: Vec<AtomicU64>,
    clv_len: usize,
    patterns: usize,
    /// Recompute-cost proxy per CLV key (descendant operation count);
    /// empty means "unknown" and the model stays optimistic.
    costs: Vec<f64>,
    budget_bytes: Option<usize>,
    /// Bytes of stored records, plus those of writes in flight (a
    /// write reserves its record's bytes before it starts).
    bytes: AtomicUsize,
    counters: TierCounters,
    /// Measured latency of one record write (serialize + CRC + `pwrite`)
    /// and of one reload (`pread` + CRC + deserialize).
    write_ns: Ewma,
    reload_ns: Ewma,
    /// Measured kernel nanoseconds per unit of recompute cost.
    recompute_ns_per_cost: Ewma,
}

impl TieredStore {
    /// Creates the spill file under `cfg.dir` for a run with `n_keys`
    /// directed edges and slot payloads of `clv_len` doubles +
    /// `patterns` scalers. `costs[key]` is the recompute-cost proxy
    /// (descendant operation count) the spill-vs-drop model uses; pass
    /// an empty vec to keep the model optimistic.
    pub fn new(
        cfg: &TierConfig,
        n_keys: usize,
        clv_len: usize,
        patterns: usize,
        costs: Vec<f64>,
    ) -> Result<Arc<TieredStore>, AmcError> {
        cfg.validate()?;
        let io = |detail: String| AmcError::TierIo { tier: "disk", detail };
        let dir = &cfg.dir;
        let own_dir = if dir.exists() {
            None
        } else {
            std::fs::create_dir_all(dir).map_err(|e| io(format!("{}: {e}", dir.display())))?;
            Some(dir.clone())
        };
        static FILE_SEQ: AtomicUsize = AtomicUsize::new(0);
        let seq = FILE_SEQ.fetch_add(1, Ordering::Relaxed);
        let path = dir.join(format!("clv-tier-{}-{seq}.bin", std::process::id()));
        let file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)
            .map_err(|e| io(format!("{}: {e}", path.display())))?;
        Ok(Arc::new(TieredStore {
            file,
            path,
            own_dir,
            index: (0..n_keys).map(|_| AtomicU64::new(0)).collect(),
            clv_len,
            patterns,
            costs,
            budget_bytes: cfg.budget_bytes,
            bytes: AtomicUsize::new(0),
            counters: TierCounters::default(),
            write_ns: Ewma::default(),
            reload_ns: Ewma::default(),
            recompute_ns_per_cost: Ewma::default(),
        }))
    }

    /// Bytes of one record: the CLV's doubles, then its scalers.
    pub fn record_len(&self) -> usize {
        self.clv_len * 8 + self.patterns * 4
    }

    /// Bytes of RAM the store occupies (its per-key index; the records
    /// themselves live in the file, outside the RAM budget).
    pub fn ram_bytes(&self) -> usize {
        self.index.len() * std::mem::size_of::<AtomicU64>()
    }

    fn offset(&self, key: ClvKey) -> u64 {
        key.0 as u64 * self.record_len() as u64
    }

    /// Reserves one record's bytes against the budget; `false` when
    /// they do not fit.
    fn reserve(&self) -> bool {
        let len = self.record_len();
        match self.budget_bytes {
            None => {
                self.bytes.fetch_add(len, Ordering::Relaxed);
                true
            }
            Some(budget) => self
                .bytes
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |b| {
                    (b + len <= budget).then_some(b + len)
                })
                .is_ok(),
        }
    }

    fn unreserve(&self) {
        self.bytes.fetch_sub(self.record_len(), Ordering::Relaxed);
    }

    /// Offers an evicted, *complete* CLV for spilling, and writes it
    /// when the cost model and byte budget allow. Returns `true` when a
    /// record for `key` is stored afterwards; `false` when it was
    /// dropped or its write failed (both leave no record).
    pub fn offer(&self, key: ClvKey, clv: &[f64], scales: &[u32]) -> bool {
        let Some(cell) = self.index.get(key.0 as usize) else { return false };
        if cell.load(Ordering::Acquire) != 0 {
            return true; // write-once: contents cannot have changed
        }
        // Cost model: spill only when the write now plus a reload later
        // is expected to beat recomputation. Reload or recompute side
        // unmeasured → optimistic spill.
        let reload = self.reload_ns.get();
        let per_cost = self.recompute_ns_per_cost.get();
        let cost = self.costs.get(key.0 as usize).copied().unwrap_or(0.0);
        if reload > 0.0
            && per_cost > 0.0
            && cost > 0.0
            && reload + self.write_ns.get() >= per_cost * cost
        {
            self.counters.drops_cost.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        if !self.reserve() {
            self.counters.drops_budget.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        let t0 = Instant::now();
        let mut raw = vec![0u8; self.record_len()];
        let (clv_raw, scale_raw) = raw.split_at_mut(clv.len() * 8);
        for (b, v) in clv_raw.chunks_exact_mut(8).zip(clv) {
            b.copy_from_slice(&v.to_le_bytes());
        }
        for (b, s) in scale_raw.chunks_exact_mut(4).zip(scales) {
            b.copy_from_slice(&s.to_le_bytes());
        }
        let crc = crc32(&raw);
        // An injected crash fails the write exactly like an I/O error:
        // no record, and a later miss recomputes.
        let written = !phylo_faults::fire("tier::writeback_crash")
            && self.file.write_all_at(&raw, self.offset(key)).is_ok();
        if !written {
            self.unreserve();
            self.counters.writeback_lost.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        // Another evictor of the same CLV may have won the race; it
        // wrote the same bytes, so the record stands and ours is a no-op.
        if cell
            .compare_exchange(0, STORED | crc as u64, Ordering::Release, Ordering::Relaxed)
            .is_ok()
        {
            self.counters.demotions.fetch_add(1, Ordering::Relaxed);
            let ns = elapsed_ns(t0);
            phylo_obs::histogram!("tier.writeback_ns").record_ns(ns);
            self.write_ns.update(ns as f64);
        } else {
            self.unreserve();
        }
        true
    }

    /// Tries to answer a miss from the file, writing the payload into
    /// the caller's (exclusively held) slot buffers. `true` promotes
    /// the CLV back to hot; `false` means recompute (absent, I/O
    /// failure, or CRC mismatch — the latter quarantines the record).
    pub fn fetch_into(&self, key: ClvKey, clv: &mut [f64], scales: &mut [u32]) -> bool {
        let t0 = Instant::now();
        let miss = || {
            self.counters.reload_misses.fetch_add(1, Ordering::Relaxed);
            false
        };
        let Some(cell) = self.index.get(key.0 as usize) else { return miss() };
        let entry = cell.load(Ordering::Acquire);
        if entry == 0 {
            return miss();
        }
        let mut raw = vec![0u8; self.record_len()];
        if self.file.read_exact_at(&mut raw, self.offset(key)).is_err() {
            return miss();
        }
        if phylo_faults::fire("tier::corrupt_reload") {
            // Simulated bit-rot between write and read.
            raw[0] ^= 0xFF;
        }
        if crc32(&raw) != entry as u32 {
            // Never hand corrupt data to the kernels: quarantine the
            // record and fall back to recomputation.
            self.counters.corrupt.fetch_add(1, Ordering::Relaxed);
            if cell.compare_exchange(entry, 0, Ordering::Relaxed, Ordering::Relaxed).is_ok() {
                self.unreserve();
            }
            return miss();
        }
        let (clv_raw, scale_raw) = raw.split_at(clv.len() * 8);
        for (v, b) in clv.iter_mut().zip(clv_raw.chunks_exact(8)) {
            *v = f64::from_le_bytes(b.try_into().expect("8-byte chunk"));
        }
        for (s, b) in scales.iter_mut().zip(scale_raw.chunks_exact(4)) {
            *s = u32::from_le_bytes(b.try_into().expect("4-byte chunk"));
        }
        self.counters.reloads.fetch_add(1, Ordering::Relaxed);
        let ns = elapsed_ns(t0);
        phylo_obs::histogram!("tier.reload_ns").record_ns(ns);
        self.reload_ns.update(ns as f64);
        true
    }

    /// Feeds the cost model one measured recomputation: `key`'s CLV
    /// took `ns` of kernel time.
    pub fn note_recompute(&self, key: ClvKey, ns: u64) {
        let cost = self.costs.get(key.0 as usize).copied().unwrap_or(0.0);
        if cost > 0.0 {
            self.recompute_ns_per_cost.update(ns as f64 / cost);
        }
    }

    /// Current traffic counters and occupancy.
    pub fn stats(&self) -> TierStats {
        let c = &self.counters;
        let bytes = self.bytes.load(Ordering::Relaxed) as u64;
        TierStats {
            demotions: c.demotions.load(Ordering::Relaxed),
            writeback_lost: c.writeback_lost.load(Ordering::Relaxed),
            drops_cost: c.drops_cost.load(Ordering::Relaxed),
            drops_budget: c.drops_budget.load(Ordering::Relaxed),
            reloads: c.reloads.load(Ordering::Relaxed),
            reload_misses: c.reload_misses.load(Ordering::Relaxed),
            corrupt: c.corrupt.load(Ordering::Relaxed),
            entries: bytes / self.record_len().max(1) as u64,
            bytes,
        }
    }

    /// Measured write-latency EWMA, ns (`0.0` = unmeasured).
    pub fn write_ns(&self) -> f64 {
        self.write_ns.get()
    }

    /// Measured reload-latency EWMA, ns (`0.0` = unmeasured).
    pub fn reload_ns(&self) -> f64 {
        self.reload_ns.get()
    }

    /// Measured recompute ns per unit cost (`0.0` = unmeasured).
    pub fn recompute_ns_per_cost(&self) -> f64 {
        self.recompute_ns_per_cost.get()
    }
}

impl Drop for TieredStore {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
        if let Some(dir) = &self.own_dir {
            // Only succeeds when nothing else moved in; best-effort.
            let _ = std::fs::remove_dir(dir);
        }
    }
}

impl std::fmt::Debug for TieredStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TieredStore")
            .field("path", &self.path)
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CLV_LEN: usize = 8;
    const PATTERNS: usize = 4;
    /// 8 doubles + 4 scalers.
    const RECORD: usize = 80;

    fn store_with(budget: Option<usize>) -> Arc<TieredStore> {
        static SEQ: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "tierstore-test-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let cfg = TierConfig { dir, budget_bytes: budget };
        TieredStore::new(&cfg, 16, CLV_LEN, PATTERNS, vec![2.0; 16]).unwrap()
    }

    fn payload(seed: f64) -> (Vec<f64>, Vec<u32>) {
        ((0..CLV_LEN).map(|i| i as f64 * 0.5 - seed).collect(), vec![0, 1, 2, 3])
    }

    fn fetch(store: &TieredStore, key: u32) -> Option<(Vec<f64>, Vec<u32>)> {
        let (mut clv, mut scales) = (vec![0.0; CLV_LEN], vec![0u32; PATTERNS]);
        store.fetch_into(ClvKey(key), &mut clv, &mut scales).then_some((clv, scales))
    }

    #[test]
    fn tier_config_validates() {
        TierConfig::new("/tmp/x").validate().unwrap();
        assert!(TierConfig::new("/tmp/x").with_budget(0).validate().is_err());
        assert!(TierConfig::new("").validate().is_err());
    }

    #[test]
    fn spills_and_reloads_byte_for_byte() {
        let store = store_with(None);
        let (clv, scales) = payload(1.0);
        assert!(store.offer(ClvKey(5), &clv, &scales));
        assert_eq!(fetch(&store, 5), Some((clv, scales)));
        assert_eq!(fetch(&store, 6), None);
        let s = store.stats();
        assert_eq!((s.demotions, s.reloads, s.reload_misses), (1, 1, 1));
        assert_eq!((s.entries, s.bytes), (1, RECORD as u64));
        assert!(store.reload_ns() > 0.0, "a reload feeds the latency EWMA");
    }

    #[test]
    fn offer_is_write_once() {
        let store = store_with(None);
        let (clv, scales) = payload(2.0);
        assert!(store.offer(ClvKey(3), &clv, &scales));
        assert!(store.offer(ClvKey(3), &clv, &scales));
        let s = store.stats();
        assert_eq!(s.demotions, 1, "second offer is a no-op");
        assert_eq!(s.bytes, RECORD as u64);
    }

    #[test]
    fn budget_turns_spills_into_drops() {
        // A budget of 100 bytes holds exactly one 80-byte record.
        let store = store_with(Some(100));
        let (clv, scales) = payload(1.0);
        assert!(store.offer(ClvKey(0), &clv, &scales));
        assert!(!store.offer(ClvKey(1), &clv, &scales));
        let s = store.stats();
        assert_eq!((s.demotions, s.drops_budget, s.entries), (1, 1, 1));
        assert_eq!(fetch(&store, 1), None);
    }

    #[test]
    fn cost_model_drops_cheap_victims_once_measured() {
        let store = store_with(None);
        let (clv, scales) = payload(1.0);
        // Teach the model: reloads are very slow, recomputes are fast.
        store.reload_ns.update(1e9);
        store.note_recompute(ClvKey(2), 2); // 2 cost units → 1 ns/cost
        assert!(!store.offer(ClvKey(2), &clv, &scales));
        assert_eq!(store.stats().drops_cost, 1);
        assert_eq!(store.stats().entries, 0);
        // Flip it: recompute astronomically slow → spill again.
        let store = store_with(None);
        store.reload_ns.update(10.0);
        store.note_recompute(ClvKey(2), 2_000_000_000);
        assert!(store.offer(ClvKey(2), &clv, &scales));
        // The write is paid on the eviction path, so it is priced too:
        // a cheap reload behind a slow write still loses to a 2 µs
        // recompute.
        let store = store_with(None);
        store.reload_ns.update(10.0);
        store.write_ns.update(1e9);
        store.note_recompute(ClvKey(2), 2_000);
        assert!(!store.offer(ClvKey(2), &clv, &scales));
        assert_eq!(store.stats().drops_cost, 1);
    }

    #[test]
    fn failed_write_leaves_no_record_and_is_counted() {
        let mut store = store_with(None);
        // A read-only handle on the same file: every `pwrite` fails.
        let path = store.path.clone();
        Arc::get_mut(&mut store).unwrap().file = std::fs::File::open(&path).unwrap();
        let (clv, scales) = payload(3.0);
        assert!(!store.offer(ClvKey(1), &clv, &scales));
        let s = store.stats();
        assert_eq!((s.writeback_lost, s.demotions, s.entries, s.bytes), (1, 0, 0, 0));
        assert_eq!(fetch(&store, 1), None, "a failed write is a miss, never garbage");
    }

    #[test]
    fn corrupt_record_is_quarantined() {
        let store = store_with(None);
        let (clv, scales) = payload(0.125);
        assert!(store.offer(ClvKey(4), &clv, &scales));
        // Bit-rot on disk: flip one byte of the stored record.
        let f = std::fs::OpenOptions::new().write(true).open(&store.path).unwrap();
        f.write_all_at(&[0xFF], 4 * RECORD as u64 + 3).unwrap();
        assert_eq!(fetch(&store, 4), None);
        let s = store.stats();
        assert_eq!((s.corrupt, s.entries, s.bytes), (1, 0, 0));
        // The record was quarantined: a retry is a plain miss, and the
        // CLV can be spilled afresh.
        assert_eq!(fetch(&store, 4), None);
        assert_eq!(store.stats().corrupt, 1, "no second CRC failure");
        assert!(store.offer(ClvKey(4), &clv, &scales));
        assert_eq!(fetch(&store, 4), Some((clv, scales)));
    }

    #[cfg(feature = "faults")]
    mod fault_tests {
        use super::*;
        use std::sync::Mutex as StdMutex;

        static LOCK: StdMutex<()> = StdMutex::new(());

        #[test]
        fn writeback_crash_loses_the_payload_cleanly() {
            let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
            phylo_faults::reset();
            phylo_faults::arm("tier::writeback_crash", phylo_faults::Trigger::Always);
            let store = store_with(None);
            let (clv, scales) = payload(3.0);
            assert!(!store.offer(ClvKey(1), &clv, &scales));
            phylo_faults::reset();
            // The payload died in the write: a miss, never garbage.
            assert_eq!(fetch(&store, 1), None);
            let s = store.stats();
            assert_eq!((s.writeback_lost, s.demotions, s.entries), (1, 0, 0));
        }

        #[test]
        fn corrupt_reload_is_caught_by_crc() {
            let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
            phylo_faults::reset();
            let store = store_with(None);
            let (clv, scales) = payload(0.125);
            assert!(store.offer(ClvKey(4), &clv, &scales));
            phylo_faults::arm("tier::corrupt_reload", phylo_faults::Trigger::Always);
            assert_eq!(fetch(&store, 4), None);
            phylo_faults::reset();
            assert_eq!(store.stats().corrupt, 1);
            // The record was quarantined: a clean retry is a plain miss.
            assert_eq!(fetch(&store, 4), None);
            assert_eq!(store.stats().corrupt, 1, "no second CRC failure");
        }
    }
}
