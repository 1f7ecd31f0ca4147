//! Tiered CLV storage: RAM → compressed RAM → disk.
//!
//! The paper's AMC answers every slot miss with recomputation. This
//! module generalizes eviction into **demotion**: a published victim's
//! payload can be copied into a cheaper storage tier and a later miss
//! answered by a **reload** instead of a kernel traversal — which turns
//! pplacer's mmap/disk-backed strategy into just another configuration
//! of the same slot manager, benchmarkable against pure recompute.
//!
//! Key property making this sound: within one run a CLV's contents are
//! a pure function of the tree, model, and alignment. A demoted copy
//! can therefore never go stale; every tier is a **write-once cache**
//! and a lost or corrupt entry degrades to the recompute path, never to
//! a wrong likelihood. Demoted payloads are CRC-checked end-to-end
//! (serialize → tier → deserialize), so disk bit-rot and codec bugs
//! both surface as a counted miss, not as data.
//!
//! Three [`StorageTier`] implementations:
//!
//! * [`RamTier`] — raw payload copies in a hash map (the hot tier's
//!   storage discipline without slot semantics);
//! * [`CompressedTier`] — byte-shuffled ([`shuffle`]) + RLE-packed
//!   ([`rle_compress`]) payloads in RAM. CLV doubles share exponent
//!   and sign structure, so transposing byte planes makes runs the RLE
//!   can fold;
//! * [`DiskTier`] — a fixed-record file arena addressed by CLV key
//!   (`pwrite`/`pread`, no seeks shared between threads).
//!
//! [`TieredStore`] orchestrates them: demotion is **asynchronous**
//! (payloads are staged in RAM and written back by a dedicated thread,
//! so the eviction path never blocks on I/O), reloads are synchronous
//! and promote the CLV back to the hot slot, and a cost model picks
//! demote-vs-drop per victim: estimated recompute cost (descendant-op
//! count × measured ns/op EWMA) against the target tier's measured
//! reload latency EWMA. Unmeasured sides are optimistic — the first
//! few demotions and reloads are how the model learns.

use crate::budget::{MemCategory, MemoryTracker};
use crate::error::AmcError;
use crate::slots::ClvKey;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};

// ---------------------------------------------------------------------------
// CRC32 (IEEE, reflected) — hand-rolled, no dependencies
// ---------------------------------------------------------------------------

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC32_TABLE: [u32; 256] = crc32_table();

/// CRC-32 (IEEE 802.3, reflected) of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in data {
        c = CRC32_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

// ---------------------------------------------------------------------------
// Codec: byte-shuffle + PackBits-style RLE
// ---------------------------------------------------------------------------

/// Transposes `src` (a sequence of `stride`-byte values) into byte
/// planes: all 0th bytes, then all 1st bytes, … CLV doubles in one
/// vector share sign/exponent structure, so the planes are runnier
/// than the interleaved original.
pub fn shuffle(src: &[u8], stride: usize) -> Vec<u8> {
    debug_assert_eq!(src.len() % stride.max(1), 0);
    let n = src.len() / stride.max(1);
    let mut out = Vec::with_capacity(src.len());
    for b in 0..stride {
        for i in 0..n {
            out.push(src[i * stride + b]);
        }
    }
    out
}

/// Inverse of [`shuffle`].
pub fn unshuffle(src: &[u8], stride: usize) -> Vec<u8> {
    debug_assert_eq!(src.len() % stride.max(1), 0);
    let n = src.len() / stride.max(1);
    let mut out = vec![0u8; src.len()];
    for b in 0..stride {
        for i in 0..n {
            out[i * stride + b] = src[b * n + i];
        }
    }
    out
}

/// PackBits-style run-length encoding. Control byte `c < 128` copies
/// the next `c + 1` literal bytes; `c >= 128` repeats the next byte
/// `c - 128 + 3` times (runs shorter than 3 are never worth a control
/// pair). Worst case grows the input by 1/128 + 1 byte.
pub fn rle_compress(data: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(data.len() / 4 + 16);
    let mut i = 0;
    let mut lit_start = 0;
    let flush_literals = |out: &mut Vec<u8>, from: usize, to: usize, data: &[u8]| {
        let mut s = from;
        while s < to {
            let n = (to - s).min(128);
            out.push((n - 1) as u8);
            out.extend_from_slice(&data[s..s + n]);
            s += n;
        }
    };
    while i < data.len() {
        let b = data[i];
        let mut run = 1;
        while i + run < data.len() && data[i + run] == b && run < 130 {
            run += 1;
        }
        if run >= 3 {
            flush_literals(&mut out, lit_start, i, data);
            out.push((128 + run - 3) as u8);
            out.push(b);
            i += run;
            lit_start = i;
        } else {
            i += run;
        }
    }
    flush_literals(&mut out, lit_start, data.len(), data);
    out
}

/// Inverse of [`rle_compress`]; `expect_len` guards against truncated
/// or corrupt input (the CRC upstream makes this a debug aid, not the
/// integrity mechanism).
pub fn rle_decompress(data: &[u8], expect_len: usize) -> Result<Vec<u8>, AmcError> {
    let bad = |why: &str| AmcError::TierIo { tier: "compressed", detail: why.to_string() };
    let mut out = Vec::with_capacity(expect_len);
    let mut i = 0;
    while i < data.len() {
        let c = data[i] as usize;
        i += 1;
        if c < 128 {
            let n = c + 1;
            if i + n > data.len() {
                return Err(bad("truncated literal block"));
            }
            out.extend_from_slice(&data[i..i + n]);
            i += n;
        } else {
            if i >= data.len() {
                return Err(bad("truncated run block"));
            }
            let n = c - 128 + 3;
            let b = data[i];
            i += 1;
            out.resize(out.len() + n, b);
        }
        if out.len() > expect_len {
            return Err(bad("decompressed past the expected length"));
        }
    }
    if out.len() != expect_len {
        return Err(bad("decompressed to the wrong length"));
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// The StorageTier trait and its three implementations
// ---------------------------------------------------------------------------

/// Which tier implementation a config entry names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TierKind {
    /// Raw in-RAM copies.
    Ram,
    /// Byte-shuffle + RLE compressed in-RAM copies.
    Compressed,
    /// Fixed-record file arena.
    Disk,
}

impl TierKind {
    /// The tier's configuration / metrics name.
    pub fn name(self) -> &'static str {
        match self {
            TierKind::Ram => "ram",
            TierKind::Compressed => "compressed",
            TierKind::Disk => "disk",
        }
    }

    /// Parses one `--storage-tiers` element.
    pub fn parse(s: &str) -> Option<TierKind> {
        match s {
            "ram" => Some(TierKind::Ram),
            "compressed" => Some(TierKind::Compressed),
            "disk" => Some(TierKind::Disk),
            _ => None,
        }
    }
}

/// One demotion tier: a write-once key→payload store. Implementations
/// are internally synchronized (`&self`); payloads are the raw
/// serialized CLV bytes — any encoding is the tier's own business.
pub trait StorageTier: Send + Sync {
    /// The tier's metrics name.
    fn name(&self) -> &'static str;
    /// Stores `raw` under `key`, replacing any previous payload.
    fn store(&self, key: u32, raw: &[u8]) -> Result<(), AmcError>;
    /// Loads the raw payload for `key`, `None` when absent.
    fn load(&self, key: u32) -> Result<Option<Vec<u8>>, AmcError>;
    /// Forgets `key` (budget pressure or corruption quarantine).
    fn remove(&self, key: u32);
    /// Bytes of payload currently stored (RAM or disk).
    fn stored_bytes(&self) -> usize;
    /// Bytes of *RAM* this tier occupies (0 for the disk arena's
    /// payload; its index is accounted by the store).
    fn ram_bytes(&self) -> usize;
    /// Number of stored entries.
    fn entries(&self) -> usize;
}

/// Raw in-RAM payload copies.
#[derive(Default)]
pub struct RamTier {
    map: Mutex<HashMap<u32, Vec<u8>>>,
    bytes: AtomicUsize,
}

impl RamTier {
    /// An empty RAM tier.
    pub fn new() -> Self {
        Self::default()
    }
}

impl StorageTier for RamTier {
    fn name(&self) -> &'static str {
        "ram"
    }

    fn store(&self, key: u32, raw: &[u8]) -> Result<(), AmcError> {
        let mut m = self.map.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(old) = m.insert(key, raw.to_vec()) {
            self.bytes.fetch_sub(old.len(), Ordering::Relaxed);
        }
        self.bytes.fetch_add(raw.len(), Ordering::Relaxed);
        Ok(())
    }

    fn load(&self, key: u32) -> Result<Option<Vec<u8>>, AmcError> {
        Ok(self.map.lock().unwrap_or_else(|e| e.into_inner()).get(&key).cloned())
    }

    fn remove(&self, key: u32) {
        let mut m = self.map.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(old) = m.remove(&key) {
            self.bytes.fetch_sub(old.len(), Ordering::Relaxed);
        }
    }

    fn stored_bytes(&self) -> usize {
        self.bytes.load(Ordering::Relaxed)
    }

    fn ram_bytes(&self) -> usize {
        self.stored_bytes()
    }

    fn entries(&self) -> usize {
        self.map.lock().unwrap_or_else(|e| e.into_inner()).len()
    }
}

/// Byte-shuffled, RLE-compressed in-RAM copies. The shuffle stride
/// boundary (`f64` CLV bytes, then `u32` scaler bytes) comes from the
/// run's fixed payload geometry.
pub struct CompressedTier {
    map: Mutex<HashMap<u32, Vec<u8>>>,
    bytes: AtomicUsize,
    /// Byte length of the f64 (stride-8) prefix of every payload.
    clv_bytes: usize,
    /// Full raw payload length (fixed per run).
    raw_len: usize,
}

impl CompressedTier {
    /// A tier for payloads of `raw_len` bytes whose first `clv_bytes`
    /// are `f64`s (the rest are `u32` scalers).
    pub fn new(clv_bytes: usize, raw_len: usize) -> Self {
        assert!(clv_bytes <= raw_len);
        Self { map: Mutex::new(HashMap::new()), bytes: AtomicUsize::new(0), clv_bytes, raw_len }
    }

    fn encode(&self, raw: &[u8]) -> Vec<u8> {
        let mut planes = shuffle(&raw[..self.clv_bytes], 8);
        planes.extend(shuffle(&raw[self.clv_bytes..], 4));
        rle_compress(&planes)
    }

    fn decode(&self, packed: &[u8]) -> Result<Vec<u8>, AmcError> {
        let planes = rle_decompress(packed, self.raw_len)?;
        let mut raw = unshuffle(&planes[..self.clv_bytes], 8);
        raw.extend(unshuffle(&planes[self.clv_bytes..], 4));
        Ok(raw)
    }
}

impl StorageTier for CompressedTier {
    fn name(&self) -> &'static str {
        "compressed"
    }

    fn store(&self, key: u32, raw: &[u8]) -> Result<(), AmcError> {
        debug_assert_eq!(raw.len(), self.raw_len);
        let packed = self.encode(raw);
        let mut m = self.map.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(old) = m.insert(key, packed) {
            self.bytes.fetch_sub(old.len(), Ordering::Relaxed);
        }
        let new_len = m.get(&key).map_or(0, Vec::len);
        self.bytes.fetch_add(new_len, Ordering::Relaxed);
        Ok(())
    }

    fn load(&self, key: u32) -> Result<Option<Vec<u8>>, AmcError> {
        let packed = self.map.lock().unwrap_or_else(|e| e.into_inner()).get(&key).cloned();
        match packed {
            None => Ok(None),
            Some(p) => self.decode(&p).map(Some),
        }
    }

    fn remove(&self, key: u32) {
        let mut m = self.map.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(old) = m.remove(&key) {
            self.bytes.fetch_sub(old.len(), Ordering::Relaxed);
        }
    }

    fn stored_bytes(&self) -> usize {
        self.bytes.load(Ordering::Relaxed)
    }

    fn ram_bytes(&self) -> usize {
        self.stored_bytes()
    }

    fn entries(&self) -> usize {
        self.map.lock().unwrap_or_else(|e| e.into_inner()).len()
    }
}

/// Fixed-record file arena: payload for key `k` lives at byte offset
/// `k × record_len`. Records are written with `pwrite` and read with
/// `pread`, so concurrent readers never share a file cursor; presence
/// is an in-RAM bitset (the file is sparse until written).
pub struct DiskTier {
    file: std::fs::File,
    path: PathBuf,
    /// True when this tier created `path`'s parent and should try to
    /// clean it up on drop.
    own_dir: Option<PathBuf>,
    present: Mutex<Vec<bool>>,
    record_len: usize,
    entries: AtomicUsize,
}

impl DiskTier {
    /// Creates (truncating) the record file under `dir` for `n_keys`
    /// payloads of exactly `record_len` bytes.
    pub fn create(dir: &Path, n_keys: usize, record_len: usize) -> Result<Self, AmcError> {
        let io = |detail: String| AmcError::TierIo { tier: "disk", detail };
        let own_dir = if dir.exists() {
            None
        } else {
            std::fs::create_dir_all(dir).map_err(|e| io(format!("{}: {e}", dir.display())))?;
            Some(dir.to_path_buf())
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
        Ok(Self {
            file,
            path,
            own_dir,
            present: Mutex::new(vec![false; n_keys]),
            record_len,
            entries: AtomicUsize::new(0),
        })
    }
}

impl Drop for DiskTier {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
        if let Some(dir) = &self.own_dir {
            // Only succeeds when nothing else moved in; best-effort.
            let _ = std::fs::remove_dir(dir);
        }
    }
}

impl StorageTier for DiskTier {
    fn name(&self) -> &'static str {
        "disk"
    }

    fn store(&self, key: u32, raw: &[u8]) -> Result<(), AmcError> {
        use std::os::unix::fs::FileExt;
        debug_assert_eq!(raw.len(), self.record_len);
        let off = key as u64 * self.record_len as u64;
        self.file
            .write_all_at(raw, off)
            .map_err(|e| AmcError::TierIo { tier: "disk", detail: format!("write: {e}") })?;
        let mut p = self.present.lock().unwrap_or_else(|e| e.into_inner());
        if key as usize >= p.len() {
            p.resize(key as usize + 1, false);
        }
        if !p[key as usize] {
            p[key as usize] = true;
            self.entries.fetch_add(1, Ordering::Relaxed);
        }
        Ok(())
    }

    fn load(&self, key: u32) -> Result<Option<Vec<u8>>, AmcError> {
        use std::os::unix::fs::FileExt;
        {
            let p = self.present.lock().unwrap_or_else(|e| e.into_inner());
            if !p.get(key as usize).copied().unwrap_or(false) {
                return Ok(None);
            }
        }
        let mut raw = vec![0u8; self.record_len];
        let off = key as u64 * self.record_len as u64;
        self.file
            .read_exact_at(&mut raw, off)
            .map_err(|e| AmcError::TierIo { tier: "disk", detail: format!("read: {e}") })?;
        Ok(Some(raw))
    }

    fn remove(&self, key: u32) {
        let mut p = self.present.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(slot) = p.get_mut(key as usize) {
            if *slot {
                *slot = false;
                self.entries.fetch_sub(1, Ordering::Relaxed);
            }
        }
    }

    fn stored_bytes(&self) -> usize {
        self.entries.load(Ordering::Relaxed) * self.record_len
    }

    fn ram_bytes(&self) -> usize {
        self.present.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    fn entries(&self) -> usize {
        self.entries.load(Ordering::Relaxed)
    }
}

// ---------------------------------------------------------------------------
// Tier configuration
// ---------------------------------------------------------------------------

/// Which tiers to run and under what constraints (the `--storage-tiers`
/// / `--tier-dir` / `--tier-budget` surface).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TierConfig {
    /// Demotion preference order; a victim lands in the first tier
    /// with room.
    pub kinds: Vec<TierKind>,
    /// Directory for the disk arena; `None` uses a per-process temp
    /// directory that is removed with the store.
    pub dir: Option<PathBuf>,
    /// Byte cap across all tier payloads; exceeding it turns demotions
    /// into drops. `None` is unbounded.
    pub budget_bytes: Option<usize>,
}

impl TierConfig {
    /// Parses a `--storage-tiers` spec: comma-separated tier names in
    /// demotion-preference order, e.g. `compressed,disk`.
    pub fn parse(spec: &str) -> Result<TierConfig, AmcError> {
        let bad = |detail: String| AmcError::TierIo { tier: "config", detail };
        let mut kinds = Vec::new();
        for part in spec.split(',').map(str::trim) {
            if part.is_empty() {
                return Err(bad(format!("empty tier name in {spec:?}")));
            }
            let kind = TierKind::parse(part).ok_or_else(|| {
                bad(format!("unknown tier {part:?} (expected ram, compressed, or disk)"))
            })?;
            if kinds.contains(&kind) {
                return Err(bad(format!("tier {part:?} listed twice in {spec:?}")));
            }
            kinds.push(kind);
        }
        if kinds.is_empty() {
            return Err(bad("no tiers named".to_string()));
        }
        Ok(TierConfig { kinds, dir: None, budget_bytes: None })
    }

    /// Sets the disk-arena directory.
    pub fn with_dir(mut self, dir: PathBuf) -> Self {
        self.dir = Some(dir);
        self
    }

    /// Sets the tier byte budget.
    pub fn with_budget(mut self, bytes: usize) -> Self {
        self.budget_bytes = Some(bytes);
        self
    }

    /// Checks internal consistency.
    pub fn validate(&self) -> Result<(), AmcError> {
        let bad = |detail: &str| AmcError::TierIo { tier: "config", detail: detail.to_string() };
        if self.kinds.is_empty() {
            return Err(bad("at least one tier is required"));
        }
        if self.budget_bytes == Some(0) {
            return Err(bad("tier budget must be non-zero"));
        }
        if self.dir.is_some() && !self.kinds.contains(&TierKind::Disk) {
            return Err(bad("--tier-dir given but no disk tier configured"));
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
    writebacks: AtomicU64,
    writeback_lost: AtomicU64,
    drops_cost: AtomicU64,
    drops_budget: AtomicU64,
    reloads: AtomicU64,
    reload_misses: AtomicU64,
    corrupt: AtomicU64,
    prefetches: AtomicU64,
}

/// Snapshot of a [`TieredStore`]'s traffic counters. Kept per store
/// (the `phylo-obs` registry is per process) so tests and `RunReport`
/// can assert on one run's tier behavior.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TierStats {
    /// Victims accepted for demotion (payload staged for writeback).
    pub demotions: u64,
    /// Writebacks that reached a tier.
    pub writebacks: u64,
    /// Writebacks lost before landing (crash-during-writeback).
    pub writeback_lost: u64,
    /// Victims dropped because recompute was estimated cheaper.
    pub drops_cost: u64,
    /// Victims dropped because the tier budget was exhausted.
    pub drops_budget: u64,
    /// Misses answered from a tier (promotion back to hot).
    pub reloads: u64,
    /// Fetches that found no usable entry (recompute follows).
    pub reload_misses: u64,
    /// Entries quarantined after a CRC mismatch on reload.
    pub corrupt: u64,
    /// Keys promoted to staging ahead of predicted reuse.
    pub prefetches: u64,
}

impl TierCounters {
    fn snapshot(&self) -> TierStats {
        TierStats {
            demotions: self.demotions.load(Ordering::Relaxed),
            writebacks: self.writebacks.load(Ordering::Relaxed),
            writeback_lost: self.writeback_lost.load(Ordering::Relaxed),
            drops_cost: self.drops_cost.load(Ordering::Relaxed),
            drops_budget: self.drops_budget.load(Ordering::Relaxed),
            reloads: self.reloads.load(Ordering::Relaxed),
            reload_misses: self.reload_misses.load(Ordering::Relaxed),
            corrupt: self.corrupt.load(Ordering::Relaxed),
            prefetches: self.prefetches.load(Ordering::Relaxed),
        }
    }
}

/// Reload latency histogram, shared by the fetch and prefetch paths.
fn obs_reload_ns() -> &'static phylo_obs::Histogram {
    phylo_obs::histogram!("tier.reload_ns")
}

// ---------------------------------------------------------------------------
// EWMA latency cells (f64 bits in an AtomicU64; single-writer updates
// are Relaxed read-modify-write — contention loses a sample, not data)
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

// ---------------------------------------------------------------------------
// TieredStore
// ---------------------------------------------------------------------------

enum Job {
    Writeback { key: u32 },
    Prefetch { keys: Vec<u32> },
    Shutdown,
}

struct Inner {
    tiers: Vec<Box<dyn StorageTier>>,
    /// key → (tier index, CRC of the raw payload at store time).
    index: Mutex<HashMap<u32, (usize, u32)>>,
    /// Raw payloads awaiting writeback (also served to readers).
    staging: Mutex<HashMap<u32, Arc<Vec<u8>>>>,
    /// One-shot RAM copies pulled ahead of predicted reuse. Unlike
    /// `staging` these have no pending writeback (the tier keeps the
    /// authoritative copy), so a fetch consumes the entry and `drain`
    /// does not wait on them.
    prefetched: Mutex<HashMap<u32, Arc<Vec<u8>>>>,
    clv_len: usize,
    patterns: usize,
    /// Recompute-cost proxy per CLV key (descendant operation count);
    /// empty means "unknown" and the model stays optimistic.
    costs: Vec<f64>,
    budget_bytes: Option<usize>,
    counters: TierCounters,
    /// Measured reload latency per tier (index-aligned with `tiers`).
    reload_ns: Vec<Ewma>,
    /// Measured kernel nanoseconds per unit of recompute cost.
    recompute_ns_per_cost: Ewma,
    tracker: Option<Arc<Mutex<MemoryTracker>>>,
}

impl Inner {
    fn raw_len(&self) -> usize {
        self.clv_len * 8 + self.patterns * 4
    }

    fn serialize(&self, clv: &[f64], scales: &[u32]) -> Vec<u8> {
        let mut raw = Vec::with_capacity(self.raw_len());
        for v in clv {
            raw.extend_from_slice(&v.to_le_bytes());
        }
        for s in scales {
            raw.extend_from_slice(&s.to_le_bytes());
        }
        raw
    }

    fn deserialize(&self, raw: &[u8], clv: &mut [f64], scales: &mut [u32]) {
        debug_assert_eq!(raw.len(), self.raw_len());
        for (i, v) in clv.iter_mut().enumerate() {
            let mut b = [0u8; 8];
            b.copy_from_slice(&raw[i * 8..i * 8 + 8]);
            *v = f64::from_le_bytes(b);
        }
        let base = self.clv_len * 8;
        for (i, s) in scales.iter_mut().enumerate() {
            let mut b = [0u8; 4];
            b.copy_from_slice(&raw[base + i * 4..base + i * 4 + 4]);
            *s = u32::from_le_bytes(b);
        }
    }

    fn payload_bytes(&self) -> usize {
        let staged: usize =
            self.staging.lock().unwrap_or_else(|e| e.into_inner()).values().map(|p| p.len()).sum();
        staged + self.tiers.iter().map(|t| t.stored_bytes()).sum::<usize>()
    }

    /// Re-derives the tracker's tier categories from the tiers' own
    /// byte counts (called after every mutation on the worker thread
    /// and after synchronous drops).
    fn sync_tracker(&self) {
        let Some(tracker) = &self.tracker else { return };
        let mut ram = 0usize;
        let mut disk = 0usize;
        for t in &self.tiers {
            if t.name() == "disk" {
                disk += t.ram_bytes();
            } else {
                ram += t.ram_bytes();
            }
        }
        ram += self
            .staging
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .values()
            .map(|p| p.len())
            .sum::<usize>();
        ram += self
            .prefetched
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .values()
            .map(|p| p.len())
            .sum::<usize>();
        let mut tr = tracker.lock().unwrap_or_else(|e| e.into_inner());
        let cur_ram = tr.current(MemCategory::CompressedTier);
        let cur_disk = tr.current(MemCategory::DiskTier);
        tr.release(MemCategory::CompressedTier, cur_ram);
        tr.allocate(MemCategory::CompressedTier, ram);
        tr.release(MemCategory::DiskTier, cur_disk);
        tr.allocate(MemCategory::DiskTier, disk);
    }

    /// The writeback worker body: compress/write one staged payload
    /// into the first accepting tier.
    fn write_back(&self, key: u32) {
        let Some(raw) = self.staging.lock().unwrap_or_else(|e| e.into_inner()).get(&key).cloned()
        else {
            return; // dropped in the meantime
        };
        if phylo_faults::fire("tier::writeback_crash") {
            // The demoted payload dies before reaching any tier: the
            // entry simply never exists and a later miss recomputes.
            self.counters.writeback_lost.fetch_add(1, Ordering::Relaxed);
            self.staging.lock().unwrap_or_else(|e| e.into_inner()).remove(&key);
            self.sync_tracker();
            return;
        }
        let crc = crc32(&raw);
        let t0 = std::time::Instant::now();
        let mut landed = None;
        for (ti, tier) in self.tiers.iter().enumerate() {
            match tier.store(key, &raw) {
                Ok(()) => {
                    landed = Some(ti);
                    break;
                }
                Err(_) => continue,
            }
        }
        match landed {
            Some(ti) => {
                let ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
                phylo_obs::histogram!("tier.writeback_ns").record_ns(ns);
                self.index.lock().unwrap_or_else(|e| e.into_inner()).insert(key, (ti, crc));
                self.counters.writebacks.fetch_add(1, Ordering::Relaxed);
            }
            None => {
                self.counters.writeback_lost.fetch_add(1, Ordering::Relaxed);
            }
        }
        self.staging.lock().unwrap_or_else(|e| e.into_inner()).remove(&key);
        self.sync_tracker();
    }

    /// Prefetch: pull keys from their tier into the prefetch cache so
    /// the predicted reload is a RAM copy, not an I/O.
    fn prefetch(&self, keys: &[u32]) {
        for &key in keys {
            if self.staging.lock().unwrap_or_else(|e| e.into_inner()).contains_key(&key) {
                continue;
            }
            if self.prefetched.lock().unwrap_or_else(|e| e.into_inner()).contains_key(&key) {
                continue;
            }
            let Some((ti, crc)) =
                self.index.lock().unwrap_or_else(|e| e.into_inner()).get(&key).copied()
            else {
                continue;
            };
            // Only worth staging for tiers slower than a RAM copy.
            if self.tiers[ti].name() != "disk" {
                continue;
            }
            let Ok(Some(raw)) = self.tiers[ti].load(key) else { continue };
            if crc32(&raw) != crc {
                continue; // the demand path will quarantine it
            }
            self.counters.prefetches.fetch_add(1, Ordering::Relaxed);
            self.prefetched.lock().unwrap_or_else(|e| e.into_inner()).insert(key, Arc::new(raw));
        }
        self.sync_tracker();
    }
}

/// The demotion/reload orchestrator attached to a `SlotArena`. All
/// methods are `&self`; demotion copies are synchronous (RAM memcpy)
/// but encode/write-back happens on a dedicated worker thread.
pub struct TieredStore {
    inner: Arc<Inner>,
    tx: mpsc::Sender<Job>,
    worker: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl TieredStore {
    /// Builds the configured tiers for a run with `n_keys` directed
    /// edges and slot payloads of `clv_len` doubles + `patterns`
    /// scalers. `costs[key]` is the recompute-cost proxy (descendant
    /// operation count) the demote-vs-drop model uses; pass an empty
    /// vec to keep the model optimistic. `tracker`, when given, keeps
    /// the [`MemoryTracker`]'s `compressed-tier`/`disk-tier` rows in
    /// sync with live tier occupancy.
    pub fn new(
        cfg: &TierConfig,
        n_keys: usize,
        clv_len: usize,
        patterns: usize,
        costs: Vec<f64>,
        tracker: Option<Arc<Mutex<MemoryTracker>>>,
    ) -> Result<Arc<TieredStore>, AmcError> {
        cfg.validate()?;
        let raw_len = clv_len * 8 + patterns * 4;
        let mut tiers: Vec<Box<dyn StorageTier>> = Vec::new();
        for kind in &cfg.kinds {
            match kind {
                TierKind::Ram => tiers.push(Box::new(RamTier::new())),
                TierKind::Compressed => {
                    tiers.push(Box::new(CompressedTier::new(clv_len * 8, raw_len)))
                }
                TierKind::Disk => {
                    let dir = cfg.dir.clone().unwrap_or_else(|| {
                        std::env::temp_dir()
                            .join(format!("phyloplace-tiers-{}", std::process::id()))
                    });
                    tiers.push(Box::new(DiskTier::create(&dir, n_keys, raw_len)?));
                }
            }
        }
        let reload_ns = (0..tiers.len()).map(|_| Ewma::default()).collect();
        let inner = Arc::new(Inner {
            tiers,
            index: Mutex::new(HashMap::new()),
            staging: Mutex::new(HashMap::new()),
            prefetched: Mutex::new(HashMap::new()),
            clv_len,
            patterns,
            costs,
            budget_bytes: cfg.budget_bytes,
            counters: TierCounters::default(),
            reload_ns,
            recompute_ns_per_cost: Ewma::default(),
            tracker,
        });
        let (tx, rx) = mpsc::channel::<Job>();
        let worker_inner = Arc::clone(&inner);
        let worker = std::thread::Builder::new()
            .name("tier-writeback".to_string())
            .spawn(move || {
                while let Ok(job) = rx.recv() {
                    match job {
                        Job::Writeback { key } => worker_inner.write_back(key),
                        Job::Prefetch { keys } => worker_inner.prefetch(&keys),
                        Job::Shutdown => break,
                    }
                }
            })
            .map_err(|e| AmcError::TierIo { tier: "config", detail: format!("spawn: {e}") })?;
        Ok(Arc::new(TieredStore { inner, tx, worker: Mutex::new(Some(worker)) }))
    }

    /// Offers an evicted, *published* CLV for demotion. Returns `true`
    /// when the payload was staged (the common case); `false` when the
    /// cost model or tier budget said to drop it. Never blocks on I/O:
    /// the copy is a memcpy, the encode/write happens on the worker.
    pub fn offer(&self, key: ClvKey, clv: &[f64], scales: &[u32]) -> bool {
        let inner = &self.inner;
        {
            let idx = inner.index.lock().unwrap_or_else(|e| e.into_inner());
            if idx.contains_key(&key.0) {
                return true; // write-once: contents cannot have changed
            }
        }
        if inner.staging.lock().unwrap_or_else(|e| e.into_inner()).contains_key(&key.0) {
            return true;
        }
        // Cost model: demote only when a reload is expected to beat
        // recomputation. Either side unmeasured → optimistic demote.
        let reload = inner.reload_ns.first().map_or(0.0, Ewma::get);
        let per_cost = inner.recompute_ns_per_cost.get();
        let cost = inner.costs.get(key.0 as usize).copied().unwrap_or(0.0);
        if reload > 0.0 && per_cost > 0.0 && cost > 0.0 && reload >= per_cost * cost {
            inner.counters.drops_cost.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        let raw_len = inner.raw_len();
        if let Some(budget) = inner.budget_bytes {
            if inner.payload_bytes() + raw_len > budget {
                inner.counters.drops_budget.fetch_add(1, Ordering::Relaxed);
                return false;
            }
        }
        let raw = Arc::new(inner.serialize(clv, scales));
        inner.staging.lock().unwrap_or_else(|e| e.into_inner()).insert(key.0, raw);
        inner.counters.demotions.fetch_add(1, Ordering::Relaxed);
        inner.sync_tracker();
        let _ = self.tx.send(Job::Writeback { key: key.0 });
        true
    }

    /// Tries to answer a miss from the tiers, writing the payload into
    /// the caller's (exclusively held) slot buffers. `true` promotes
    /// the CLV back to hot; `false` means recompute (absent, I/O
    /// failure, or CRC mismatch — the latter quarantines the entry).
    pub fn fetch_into(&self, key: ClvKey, clv: &mut [f64], scales: &mut [u32]) -> bool {
        let inner = &self.inner;
        let t0 = std::time::Instant::now();
        // Staging holds the raw payload — serve it directly.
        let staged = inner.staging.lock().unwrap_or_else(|e| e.into_inner()).get(&key.0).cloned();
        if let Some(raw) = staged {
            inner.deserialize(&raw, clv, scales);
            inner.counters.reloads.fetch_add(1, Ordering::Relaxed);
            let ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
            obs_reload_ns().record_ns(ns);
            if let Some(cell) = inner.reload_ns.first() {
                cell.update(ns as f64);
            }
            return true;
        }
        // A prefetched copy is one-shot: consume it (the tier still
        // holds the authoritative bytes for any later miss).
        let pre = inner.prefetched.lock().unwrap_or_else(|e| e.into_inner()).remove(&key.0);
        if let Some(raw) = pre {
            inner.deserialize(&raw, clv, scales);
            inner.counters.reloads.fetch_add(1, Ordering::Relaxed);
            let ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
            obs_reload_ns().record_ns(ns);
            if let Some(cell) = inner.reload_ns.first() {
                cell.update(ns as f64);
            }
            inner.sync_tracker();
            return true;
        }
        let Some((ti, crc)) =
            inner.index.lock().unwrap_or_else(|e| e.into_inner()).get(&key.0).copied()
        else {
            inner.counters.reload_misses.fetch_add(1, Ordering::Relaxed);
            return false;
        };
        let mut raw = match inner.tiers[ti].load(key.0) {
            Ok(Some(raw)) => raw,
            Ok(None) | Err(_) => {
                inner.counters.reload_misses.fetch_add(1, Ordering::Relaxed);
                return false;
            }
        };
        if phylo_faults::fire("tier::corrupt_reload") {
            // Simulated bit-rot between store and load.
            if let Some(b) = raw.first_mut() {
                *b ^= 0xFF;
            }
        }
        if crc32(&raw) != crc {
            // Never hand corrupt data to the kernels: quarantine the
            // entry and fall back to recomputation.
            inner.counters.corrupt.fetch_add(1, Ordering::Relaxed);
            inner.counters.reload_misses.fetch_add(1, Ordering::Relaxed);
            inner.tiers[ti].remove(key.0);
            inner.index.lock().unwrap_or_else(|e| e.into_inner()).remove(&key.0);
            inner.sync_tracker();
            return false;
        }
        inner.deserialize(&raw, clv, scales);
        inner.counters.reloads.fetch_add(1, Ordering::Relaxed);
        let ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
        obs_reload_ns().record_ns(ns);
        inner.reload_ns[ti].update(ns as f64);
        true
    }

    /// Requests background promotion of `keys` toward RAM ahead of
    /// their predicted reuse (driven by the traversal schedule).
    pub fn prefetch(&self, keys: &[ClvKey]) {
        if keys.is_empty() {
            return;
        }
        let _ = self.tx.send(Job::Prefetch { keys: keys.iter().map(|k| k.0).collect() });
    }

    /// Feeds the cost model one measured recomputation: `key`'s CLV
    /// took `ns` of kernel time.
    pub fn note_recompute(&self, key: ClvKey, ns: u64) {
        let cost = self.inner.costs.get(key.0 as usize).copied().unwrap_or(0.0);
        if cost > 0.0 {
            self.inner.recompute_ns_per_cost.update(ns as f64 / cost);
        }
    }

    /// Blocks until every queued writeback has been processed (tests
    /// and orderly shutdown). The worker drains jobs in order and every
    /// staged payload has a queued job, so an empty staging map means
    /// all prior writebacks landed (or were dropped by a fault).
    pub fn drain(&self) {
        loop {
            let empty = self.inner.staging.lock().unwrap_or_else(|e| e.into_inner()).is_empty();
            if empty {
                return;
            }
            std::thread::yield_now();
            std::thread::sleep(std::time::Duration::from_micros(50));
        }
    }

    /// Current traffic counters.
    pub fn stats(&self) -> TierStats {
        self.inner.counters.snapshot()
    }

    /// Per-tier occupancy: `(name, entries, stored bytes)`.
    pub fn occupancy(&self) -> Vec<(&'static str, usize, usize)> {
        self.inner.tiers.iter().map(|t| (t.name(), t.entries(), t.stored_bytes())).collect()
    }

    /// Measured reload-latency EWMA per tier, ns (`0.0` = unmeasured).
    pub fn reload_latency_ns(&self) -> Vec<(&'static str, f64)> {
        self.inner
            .tiers
            .iter()
            .zip(&self.inner.reload_ns)
            .map(|(t, e)| (t.name(), e.get()))
            .collect()
    }

    /// Measured recompute ns per unit cost (`0.0` = unmeasured).
    pub fn recompute_ns_per_cost(&self) -> f64 {
        self.inner.recompute_ns_per_cost.get()
    }
}

impl Drop for TieredStore {
    fn drop(&mut self) {
        let _ = self.tx.send(Job::Shutdown);
        if let Some(worker) = self.worker.lock().unwrap_or_else(|e| e.into_inner()).take() {
            let _ = worker.join();
        }
    }
}

impl std::fmt::Debug for TieredStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TieredStore")
            .field("tiers", &self.occupancy())
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vectors() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_ne!(crc32(b"abc"), crc32(b"abd"));
    }

    #[test]
    fn shuffle_round_trips() {
        let data: Vec<u8> = (0..64u8).collect();
        for stride in [1, 2, 4, 8] {
            assert_eq!(unshuffle(&shuffle(&data, stride), stride), data, "stride {stride}");
        }
    }

    #[test]
    fn rle_round_trips() {
        let cases: Vec<Vec<u8>> = vec![
            vec![],
            vec![7],
            vec![0; 1000],
            (0..=255u8).collect(),
            (0..=255u8).chain(std::iter::repeat(9).take(300)).chain(0..=255u8).collect(),
            vec![1, 1, 2, 2, 3, 3], // runs too short to encode
        ];
        for case in cases {
            let packed = rle_compress(&case);
            assert_eq!(rle_decompress(&packed, case.len()).unwrap(), case);
        }
    }

    #[test]
    fn rle_compresses_runs() {
        let data = vec![0u8; 4096];
        let packed = rle_compress(&data);
        assert!(packed.len() < 100, "4096 zeros packed to {}", packed.len());
    }

    #[test]
    fn rle_rejects_corrupt_lengths() {
        let packed = rle_compress(&[1, 2, 3, 4]);
        assert!(rle_decompress(&packed, 3).is_err());
        assert!(rle_decompress(&packed, 5).is_err());
        assert!(rle_decompress(&[200], 4).is_err(), "truncated run block");
        assert!(rle_decompress(&[5, 1, 2], 4).is_err(), "truncated literal block");
    }

    fn payload(n: usize) -> (Vec<f64>, Vec<u32>) {
        let clv: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin() + 1.0).collect();
        let scales: Vec<u32> = (0..n / 4).map(|i| (i % 3) as u32).collect();
        (clv, scales)
    }

    #[test]
    fn compressed_tier_round_trips() {
        let (clv, scales) = payload(64);
        let raw_len = clv.len() * 8 + scales.len() * 4;
        let tier = CompressedTier::new(clv.len() * 8, raw_len);
        let mut raw = Vec::new();
        for v in &clv {
            raw.extend_from_slice(&v.to_le_bytes());
        }
        for s in &scales {
            raw.extend_from_slice(&s.to_le_bytes());
        }
        tier.store(3, &raw).unwrap();
        assert_eq!(tier.entries(), 1);
        assert!(tier.stored_bytes() > 0);
        assert_eq!(tier.load(3).unwrap().unwrap(), raw);
        assert_eq!(tier.load(4).unwrap(), None);
        tier.remove(3);
        assert_eq!(tier.entries(), 0);
        assert_eq!(tier.stored_bytes(), 0);
    }

    #[test]
    fn disk_tier_round_trips() {
        let dir = std::env::temp_dir().join(format!("tier-test-{}", std::process::id()));
        let tier = DiskTier::create(&dir, 8, 32).unwrap();
        let a = [0xABu8; 32];
        let b = [0x11u8; 32];
        tier.store(0, &a).unwrap();
        tier.store(7, &b).unwrap();
        assert_eq!(tier.load(0).unwrap().unwrap(), a);
        assert_eq!(tier.load(7).unwrap().unwrap(), b);
        assert_eq!(tier.load(3).unwrap(), None);
        assert_eq!(tier.entries(), 2);
        assert_eq!(tier.stored_bytes(), 64);
        tier.remove(0);
        assert_eq!(tier.load(0).unwrap(), None);
        assert_eq!(tier.entries(), 1);
    }

    #[test]
    fn tier_config_parses_and_validates() {
        let cfg = TierConfig::parse("compressed,disk").unwrap();
        assert_eq!(cfg.kinds, vec![TierKind::Compressed, TierKind::Disk]);
        cfg.validate().unwrap();
        assert_eq!(TierConfig::parse("ram").unwrap().kinds, vec![TierKind::Ram]);
        assert!(TierConfig::parse("").is_err());
        assert!(TierConfig::parse("ssd").is_err());
        assert!(TierConfig::parse("ram,ram").is_err());
        assert!(TierConfig::parse("ram,").is_err());
        let bad = TierConfig::parse("ram").unwrap().with_budget(0);
        assert!(bad.validate().is_err());
        let bad = TierConfig::parse("ram").unwrap().with_dir(PathBuf::from("/tmp/x"));
        assert!(bad.validate().is_err(), "--tier-dir without a disk tier");
    }

    fn store_with(spec: &str, budget: Option<usize>) -> Arc<TieredStore> {
        let mut cfg = TierConfig::parse(spec).unwrap();
        if cfg.kinds.contains(&TierKind::Disk) {
            cfg = cfg.with_dir(
                std::env::temp_dir().join(format!("tierstore-test-{}", std::process::id())),
            );
        }
        cfg.budget_bytes = budget;
        TieredStore::new(&cfg, 16, 8, 4, vec![2.0; 16], None).unwrap()
    }

    #[test]
    fn store_demotes_and_reloads_for_every_tier_kind() {
        for spec in ["ram", "compressed", "disk", "compressed,disk"] {
            let store = store_with(spec, None);
            let clv: Vec<f64> = (0..8).map(|i| i as f64 * 0.5 - 1.0).collect();
            let scales: Vec<u32> = vec![0, 1, 2, 3];
            assert!(store.offer(ClvKey(5), &clv, &scales), "{spec}");
            store.drain();
            let mut got_clv = vec![0.0; 8];
            let mut got_scales = vec![0u32; 4];
            assert!(store.fetch_into(ClvKey(5), &mut got_clv, &mut got_scales), "{spec}");
            assert_eq!(got_clv, clv, "{spec}");
            assert_eq!(got_scales, scales, "{spec}");
            assert!(!store.fetch_into(ClvKey(6), &mut got_clv, &mut got_scales), "{spec}");
            let s = store.stats();
            assert_eq!(s.demotions, 1, "{spec}");
            assert_eq!(s.writebacks, 1, "{spec}");
            assert_eq!(s.reloads, 1, "{spec}");
            assert_eq!(s.reload_misses, 1, "{spec}");
        }
    }

    #[test]
    fn staged_payloads_serve_reads_before_writeback_lands() {
        let store = store_with("ram", None);
        let clv = vec![1.5; 8];
        let scales = vec![7u32; 4];
        store.offer(ClvKey(0), &clv, &scales);
        // Whether or not the worker has landed it yet, the read works.
        let mut got_clv = vec![0.0; 8];
        let mut got_scales = vec![0u32; 4];
        assert!(store.fetch_into(ClvKey(0), &mut got_clv, &mut got_scales));
        assert_eq!(got_clv, clv);
    }

    #[test]
    fn budget_turns_demotions_into_drops() {
        // raw_len = 8*8 + 4*4 = 80; budget of 100 holds exactly one.
        let store = store_with("ram", Some(100));
        let clv = vec![1.0; 8];
        let scales = vec![0u32; 4];
        assert!(store.offer(ClvKey(0), &clv, &scales));
        store.drain();
        assert!(!store.offer(ClvKey(1), &clv, &scales));
        let s = store.stats();
        assert_eq!(s.demotions, 1);
        assert_eq!(s.drops_budget, 1);
    }

    #[test]
    fn offer_is_write_once() {
        let store = store_with("ram", None);
        let clv = vec![2.0; 8];
        let scales = vec![0u32; 4];
        assert!(store.offer(ClvKey(3), &clv, &scales));
        store.drain();
        assert!(store.offer(ClvKey(3), &clv, &scales));
        assert_eq!(store.stats().demotions, 1, "second offer is a no-op");
    }

    #[test]
    fn cost_model_drops_cheap_victims_once_measured() {
        let store = store_with("ram", None);
        let clv = vec![1.0; 8];
        let scales = vec![0u32; 4];
        // Teach the model: reloads are very slow, recomputes are fast.
        store.inner.reload_ns[0].update(1e9);
        store.inner.recompute_ns_per_cost.update(1.0); // 2 cost units → 2 ns
        assert!(!store.offer(ClvKey(2), &clv, &scales));
        assert_eq!(store.stats().drops_cost, 1);
        // Flip it: recompute astronomically slow → demote again.
        let store = store_with("ram", None);
        store.inner.reload_ns[0].update(10.0);
        store.inner.recompute_ns_per_cost.update(1e9);
        assert!(store.offer(ClvKey(2), &clv, &scales));
    }

    #[test]
    fn prefetch_stages_disk_entries() {
        let store = store_with("disk", None);
        let clv = vec![4.25; 8];
        let scales = vec![1u32; 4];
        store.offer(ClvKey(9), &clv, &scales);
        store.drain();
        store.prefetch(&[ClvKey(9), ClvKey(10)]);
        // Wait for the prefetch job to process.
        for _ in 0..1000 {
            if store.stats().prefetches > 0 {
                break;
            }
            std::thread::sleep(std::time::Duration::from_micros(100));
        }
        assert_eq!(store.stats().prefetches, 1);
        let mut got_clv = vec![0.0; 8];
        let mut got_scales = vec![0u32; 4];
        assert!(store.fetch_into(ClvKey(9), &mut got_clv, &mut got_scales));
        assert_eq!(got_clv, clv);
    }

    #[test]
    fn tracker_reflects_tier_occupancy() {
        let tracker = Arc::new(Mutex::new(MemoryTracker::new()));
        let cfg = TierConfig::parse("ram").unwrap();
        let store = TieredStore::new(&cfg, 16, 8, 4, vec![], Some(Arc::clone(&tracker))).unwrap();
        let clv = vec![1.0; 8];
        let scales = vec![0u32; 4];
        store.offer(ClvKey(0), &clv, &scales);
        store.drain();
        // One 80-byte payload resident in an in-RAM tier.
        let t = tracker.lock().unwrap();
        assert_eq!(t.current(MemCategory::CompressedTier), 80);
        assert_eq!(t.current(MemCategory::DiskTier), 0);
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
            let store = store_with("ram", None);
            let clv = vec![3.0; 8];
            let scales = vec![0u32; 4];
            assert!(store.offer(ClvKey(1), &clv, &scales));
            store.drain();
            phylo_faults::reset();
            let mut got_clv = vec![0.0; 8];
            let mut got_scales = vec![0u32; 4];
            // The payload died in writeback: a miss, never garbage.
            assert!(!store.fetch_into(ClvKey(1), &mut got_clv, &mut got_scales));
            let s = store.stats();
            assert_eq!(s.writeback_lost, 1);
            assert_eq!(s.writebacks, 0);
        }

        #[test]
        fn corrupt_reload_is_caught_by_crc() {
            let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
            phylo_faults::reset();
            let store = store_with("disk", None);
            let clv = vec![0.125; 8];
            let scales = vec![2u32; 4];
            store.offer(ClvKey(4), &clv, &scales);
            store.drain();
            phylo_faults::arm("tier::corrupt_reload", phylo_faults::Trigger::Always);
            let mut got_clv = vec![0.0; 8];
            let mut got_scales = vec![0u32; 4];
            assert!(!store.fetch_into(ClvKey(4), &mut got_clv, &mut got_scales));
            phylo_faults::reset();
            let s = store.stats();
            assert_eq!(s.corrupt, 1);
            // The entry was quarantined: a clean retry is a plain miss.
            assert!(!store.fetch_into(ClvKey(4), &mut got_clv, &mut got_scales));
            assert_eq!(store.stats().corrupt, 1, "no second CRC failure");
        }
    }
}
