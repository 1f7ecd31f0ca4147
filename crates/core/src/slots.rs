//! The slot manager: mapping many logical CLVs onto few physical slots.
//!
//! This is the first of the paper's two AMC components (§IV): two arrays
//! map a CLV's *global index* to the *slot* currently holding it and vice
//! versa, with dedicated sentinel values for "not slotted" and "free".
//! Pinning is a per-slot counter so nested traversal phases compose.
//!
//! # Concurrency model
//!
//! The manager is internally synchronized and its whole API takes
//! `&self`. Three layers of state, with a strict lock order (DESIGN.md
//! §6):
//!
//! 1. **`plan_lock`** — serializes *planning*: every code path that may
//!    remap slots (FPA planning, which calls [`SlotManager::acquire`],
//!    and cache flushes) runs under this mutex. Planning is short —
//!    table surgery only, never kernel work — so planners queue briefly
//!    while *execution* (CLV recomputation) proceeds concurrently.
//! 2. **the eviction table** (`inner`) — one mutex over the
//!    `slot↔clv` maps, pin counts, free list and replacement strategy.
//!    Held for O(1)/O(slots) table operations only.
//! 3. **per-slot publish latches** (`phases`) — a tiny mutex + condvar
//!    per slot flagging whether the slot's *data* is ready to read.
//!    A freshly (re)assigned slot is `Computing` until the schedule op
//!    that computes it publishes with [`SlotManager::mark_ready_at`];
//!    readers of *other* slots never touch this latch and never block.
//!
//! Locks are always taken in that order (`plan_lock` → table → latch)
//! and a thread never *blocks* on a latch while holding the table lock,
//! which makes the design deadlock-free; the full argument lives in
//! DESIGN.md §6.
//!
//! `clv → slot` lookups are lock-free (`AtomicU32` loads): the
//! steady-state scoring path resolves residency and reads CLV data
//! without acquiring any lock. Traffic counters are atomics, so stats
//! from concurrent planners aggregate without lost updates.
//!
//! Single-owner users (benches, the model-based test harness) drive
//! `acquire`/`pin`/`unpin` directly. The one concurrent user is
//! `phylo_engine`'s `ManagedStore`: it plans and pins with
//! [`crate::fpa::ensure_resident`] under `plan_lock`, executes the
//! schedule lock-free (`wait_ready_at` / `mark_ready_at`), waits for its
//! targets (`wait_ready`) and unpins on release.

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use phylo_obs::slottrace::{SlotEvent, SlotTrace, NO_CLV};
use phylo_tree::traversal::NextUse;

use crate::cancel::CancelToken;
use crate::error::AmcError;
use crate::strategy::{ReplacementStrategy, VictimView};

/// Default publish-latch watchdog (see [`SlotManager::set_wait_timeout`]).
/// Generous: legitimate waits are bounded by one CLV recomputation, which
/// is milliseconds; the deadline only trips when the computing thread died
/// or its publish was lost, turning a deadlock into a typed error.
pub const DEFAULT_WAIT_TIMEOUT: Duration = Duration::from_secs(60);

/// How finely publish-latch waits are sliced so a blocked waiter notices
/// cancellation ([`SlotManager::set_cancel_token`]) promptly even when
/// the publish it waits for will never arrive.
const CANCEL_POLL_INTERVAL: Duration = Duration::from_millis(25);

/// Index of a physical CLV slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SlotId(pub u32);

/// Global logical CLV index (in the placement engine: the directed-edge
/// index of the CLV).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ClvKey(pub u32);

impl SlotId {
    /// Raw index for table lookups.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl ClvKey {
    /// Raw index for table lookups.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

/// Sentinel: CLV is not resident in any slot.
const UNSLOTTED: u32 = u32::MAX;
/// Sentinel: slot holds no CLV.
const FREE: u32 = u32::MAX;

/// Outcome of [`SlotManager::acquire`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Acquire {
    /// The CLV was already resident.
    Hit(SlotId),
    /// A free slot was assigned.
    Fresh(SlotId),
    /// A victim was evicted to make room.
    Evicted {
        /// The slot now assigned to the requested CLV.
        slot: SlotId,
        /// The CLV whose data was discarded.
        victim: ClvKey,
        /// Whether the victim's publish latch was up at eviction time.
        /// Only a ready victim holds a complete CLV worth demoting to a
        /// storage tier; an in-flight one never published. Probed
        /// *before* the latch resets for the new occupant. The bytes
        /// stay intact in the slot until the caller overwrites them, so
        /// a `true` here licenses a synchronous demotion copy.
        victim_ready: bool,
    },
}

impl Acquire {
    /// The slot assigned to the requested CLV, whatever the path taken.
    #[inline]
    pub fn slot(self) -> SlotId {
        match self {
            Acquire::Hit(s) | Acquire::Fresh(s) | Acquire::Evicted { slot: s, .. } => s,
        }
    }

    /// True if the CLV was already resident (no recomputation needed).
    #[inline]
    pub fn is_hit(self) -> bool {
        matches!(self, Acquire::Hit(_))
    }
}

/// Counters describing slot-manager traffic; the experimental harness reads
/// these to report recomputation overhead.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SlotStats {
    /// Reuses of a resident CLV: `acquire` hits and the planner's
    /// `touch` of cached CLVs.
    pub hits: u64,
    /// `acquire` calls that had to (re)assign a slot.
    pub misses: u64,
    /// Data discarded to make room: misses that took a victim's slot.
    pub evictions: u64,
    /// Slot (re)assignments, i.e. recomputations scheduled. Invariant:
    /// `installs == misses` — a failed acquire installs nothing.
    pub installs: u64,
    /// Successful CLV acquisitions of any kind: `acquire` hits and
    /// misses, `touch` reuses. Invariant: `acquires == hits + misses`.
    pub acquires: u64,
}

impl SlotStats {
    /// Counters accumulated since `baseline` was snapshotted. Every
    /// field is monotonic, so this is how a caller that shares one
    /// arena across many runs (the placement daemon's warm store)
    /// attributes slot traffic to a single run: snapshot before,
    /// subtract after.
    pub fn delta(&self, baseline: &SlotStats) -> SlotStats {
        SlotStats {
            hits: self.hits - baseline.hits,
            misses: self.misses - baseline.misses,
            evictions: self.evictions - baseline.evictions,
            installs: self.installs - baseline.installs,
            acquires: self.acquires - baseline.acquires,
        }
    }
}

/// The eviction table: everything the replacement decision reads or
/// writes, under one mutex (lock level 2).
struct TableInner {
    slot_to_clv: Vec<u32>,
    pin_counts: Vec<u32>,
    free: Vec<u32>,
    n_pinned_slots: usize,
    strategy: Box<dyn ReplacementStrategy>,
}

/// Per-slot publish latch (lock level 3): `ready == false` while the
/// schedule that (re)assigned the slot is still computing its CLV.
/// Version counts reassignments ([`SlotManager::version`]).
struct SlotPhase {
    ready: Mutex<bool>,
    cv: Condvar,
    version: AtomicU64,
}

/// Maps a large logical CLV index space onto a small set of physical slots.
///
/// Internally synchronized; see the module docs for the lock order.
pub struct SlotManager {
    /// Lock-free residency index. Written only under `inner`; readers may
    /// race with remapping and must revalidate under `inner` before
    /// trusting the mapping for anything but a hint.
    clv_to_slot: Vec<AtomicU32>,
    inner: Mutex<TableInner>,
    phases: Vec<SlotPhase>,
    plan_lock: Mutex<()>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    installs: AtomicU64,
    acquires: AtomicU64,
    /// Publish-latch watchdog deadline in milliseconds.
    wait_timeout_ms: AtomicU64,
    /// Cooperative shutdown flag threaded in from the run owner (see
    /// [`SlotManager::set_cancel_token`]). Latch waits poll it so
    /// cancellation can never hang behind a publish that got cancelled
    /// itself; the engine polls it per compute step.
    cancel: Mutex<CancelToken>,
    /// Fast guard for the trace recorder: one relaxed load on every hot
    /// path when tracing is off ([`SlotManager::set_slot_trace`]).
    trace_on: AtomicBool,
    /// The installed slot-access trace recorder, if any. Events are
    /// pushed *inside* the table-lock critical section of the operation
    /// they describe, so the trace is the true serialization order of
    /// table mutations — what makes offline replay bit-exact
    /// (DESIGN.md §10).
    trace: Mutex<Option<Arc<SlotTrace>>>,
}

/// Latch-wait latency histogram, shared by both wait paths.
fn wait_hist() -> &'static phylo_obs::Histogram {
    phylo_obs::histogram!("slot.wait_ns")
}

impl SlotManager {
    /// Creates a manager for `n_clvs` logical CLVs over `n_slots` physical
    /// slots with the given replacement strategy.
    pub fn new(n_clvs: usize, n_slots: usize, strategy: Box<dyn ReplacementStrategy>) -> Self {
        assert!(n_slots > 0, "at least one slot required");
        SlotManager {
            clv_to_slot: (0..n_clvs).map(|_| AtomicU32::new(UNSLOTTED)).collect(),
            inner: Mutex::new(TableInner {
                slot_to_clv: vec![FREE; n_slots],
                pin_counts: vec![0; n_slots],
                free: (0..n_slots as u32).rev().collect(),
                n_pinned_slots: 0,
                strategy,
            }),
            phases: (0..n_slots)
                .map(|_| SlotPhase {
                    ready: Mutex::new(false),
                    cv: Condvar::new(),
                    version: AtomicU64::new(0),
                })
                .collect(),
            plan_lock: Mutex::new(()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            installs: AtomicU64::new(0),
            acquires: AtomicU64::new(0),
            wait_timeout_ms: AtomicU64::new(DEFAULT_WAIT_TIMEOUT.as_millis() as u64),
            cancel: Mutex::new(CancelToken::new()),
            trace_on: AtomicBool::new(false),
            trace: Mutex::new(None),
        }
    }

    /// Installs (or removes) a slot-access trace recorder. While a
    /// recorder is installed every table mutation appends one
    /// [`SlotEvent`] in serialization order; `None` disarms recording.
    pub fn set_slot_trace(&self, trace: Option<Arc<SlotTrace>>) {
        let armed = trace.is_some();
        *self.trace.lock().unwrap_or_else(|e| e.into_inner()) = trace;
        self.trace_on.store(armed, Ordering::Release);
    }

    /// Appends `ev` to the installed trace, if any. Called with the
    /// table lock held so events land in true serialization order; the
    /// trace mutex is strictly innermost and never held across any
    /// other lock acquisition.
    #[inline]
    fn record(&self, ev: SlotEvent) {
        if !self.trace_on.load(Ordering::Relaxed) {
            return;
        }
        if let Some(t) = self.trace.lock().unwrap_or_else(|e| e.into_inner()).as_ref() {
            t.push(ev);
        }
    }

    /// Installs the run's shutdown token. Every publish-latch wait and
    /// (via [`SlotManager::cancel_token`]) every engine compute step
    /// polls it; once cancelled they return [`AmcError::Cancelled`]
    /// instead of blocking or computing further. The default token is
    /// never cancelled.
    pub fn set_cancel_token(&self, token: &CancelToken) {
        *self.cancel.lock().unwrap_or_else(|e| e.into_inner()) = token.clone();
    }

    /// A clone of the installed shutdown token (the default, inert token
    /// when none was installed).
    pub fn cancel_token(&self) -> CancelToken {
        self.cancel.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }

    /// Sets the publish-latch watchdog: [`SlotManager::wait_ready`] and
    /// [`SlotManager::wait_ready_at`] give up with
    /// [`AmcError::SlotWaitTimeout`] after this long. Tests exercising
    /// lost-publish faults lower it to keep the suite fast.
    pub fn set_wait_timeout(&self, timeout: Duration) {
        self.wait_timeout_ms.store(timeout.as_millis().max(1) as u64, Ordering::Relaxed);
    }

    /// The current watchdog deadline.
    pub fn wait_timeout(&self) -> Duration {
        Duration::from_millis(self.wait_timeout_ms.load(Ordering::Relaxed))
    }

    fn table(&self) -> MutexGuard<'_, TableInner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Number of physical slots.
    #[inline]
    pub fn n_slots(&self) -> usize {
        self.phases.len()
    }

    /// Number of logical CLVs.
    #[inline]
    pub fn n_clvs(&self) -> usize {
        self.clv_to_slot.len()
    }

    /// Number of slots with a non-zero pin count.
    #[inline]
    pub fn n_pinned(&self) -> usize {
        self.table().n_pinned_slots
    }

    /// Traffic counters so far. Each counter is read atomically; a
    /// snapshot racing a concurrent `acquire` may be mid-operation
    /// (e.g. miss counted, eviction not yet), which quiescent callers
    /// (end of phase, end of run) never observe.
    #[inline]
    pub fn stats(&self) -> SlotStats {
        SlotStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            installs: self.installs.load(Ordering::Relaxed),
            acquires: self.acquires.load(Ordering::Relaxed),
        }
    }

    /// The slot currently holding `clv`, if resident. Lock-free.
    ///
    /// The answer is a consistent snapshot: residency can only change
    /// under `plan_lock`, so callers that hold the plan guard — or that
    /// hold a pin on the slot (pinned slots are never remapped) — may
    /// rely on it; anyone else should treat it as a hint.
    #[inline]
    pub fn lookup(&self, clv: ClvKey) -> Option<SlotId> {
        let s = self.clv_to_slot[clv.idx()].load(Ordering::Acquire);
        (s != UNSLOTTED).then_some(SlotId(s))
    }

    /// The CLV currently held by `slot`, if any.
    #[inline]
    pub fn occupant(&self, slot: SlotId) -> Option<ClvKey> {
        let c = self.table().slot_to_clv[slot.idx()];
        (c != FREE).then_some(ClvKey(c))
    }

    /// Current pin count of a slot.
    #[inline]
    pub fn pin_count(&self, slot: SlotId) -> u32 {
        self.table().pin_counts[slot.idx()]
    }

    /// Records a reuse of a resident CLV that did not go through
    /// `acquire` — the FPA planner reads cached CLVs this way. Counted as
    /// one hit (and one acquisition), and the strategy sees the access
    /// (LRU bookkeeping et al.). No-op if `clv` is not resident.
    pub fn touch(&self, clv: ClvKey) {
        let mut t = self.table();
        let s = self.clv_to_slot[clv.idx()].load(Ordering::Acquire);
        if s != UNSLOTTED {
            self.record(SlotEvent::Touch { clv: clv.0 });
            self.hits.fetch_add(1, Ordering::Relaxed);
            self.acquires.fetch_add(1, Ordering::Relaxed);
            t.strategy.on_access(clv, SlotId(s));
        }
    }

    /// Tells the replacement strategy which sweep is about to run on this
    /// store — when its walk will want which CLV — or, with `None`, that
    /// the sweep is over ([`ReplacementStrategy::on_schedule`]).
    ///
    /// There is one announcement per store, not one per caller: it
    /// describes *the* sweep in progress, and one sweep per store at a
    /// time is the rule everywhere (one walker per `run_sweep`, inline
    /// or on its one prefetch thread; one executor thread in the daemon).
    /// Whoever announces must withdraw, or later plans are judged by a
    /// walk that is no longer happening.
    pub fn announce_schedule(&self, next_use: Option<Arc<NextUse>>) {
        let mut t = self.table();
        if self.trace_on.load(Ordering::Relaxed) {
            if let Some(trace) = self.trace.lock().unwrap_or_else(|e| e.into_inner()).as_ref() {
                trace.push_schedule(next_use.as_ref().map(|table| table.uses().collect()));
            }
        }
        t.strategy.on_schedule(next_use);
    }

    /// Moves the announced sweep's cursor: it is about to ask for the
    /// steps before `pos` ([`ReplacementStrategy::on_cursor`]). Same
    /// single-sweep rule as [`SlotManager::announce_schedule`].
    pub fn advance_cursor(&self, pos: u32) {
        let mut t = self.table();
        self.record(SlotEvent::Cursor { pos });
        t.strategy.on_cursor(pos);
    }

    /// Assigns a slot to `clv`: a hit if resident, otherwise a free slot,
    /// otherwise the strategy's victim among unpinned slots. On a miss the
    /// slot's previous contents are forgotten, the slot's publish latch
    /// drops to *Computing*, and the caller must recompute the CLV into it
    /// and [`SlotManager::mark_ready`] it.
    ///
    /// This is a *planning* operation: concurrent callers must hold
    /// [`SlotManager::plan_guard`] (single-owner callers may skip it).
    pub fn acquire(&self, clv: ClvKey) -> Result<Acquire, AmcError> {
        if clv.idx() >= self.clv_to_slot.len() {
            return Err(AmcError::UnknownClv(clv.0));
        }
        if phylo_faults::fire("amc::spurious_all_slots_pinned") {
            let t = self.table();
            return Err(AmcError::AllSlotsPinned {
                slots: self.n_slots(),
                pinned: t.n_pinned_slots,
            });
        }
        let mut t = self.table();
        let s = self.clv_to_slot[clv.idx()].load(Ordering::Acquire);
        if s != UNSLOTTED {
            let slot = SlotId(s);
            self.record(SlotEvent::Acquire { clv: clv.0 });
            self.hits.fetch_add(1, Ordering::Relaxed);
            self.acquires.fetch_add(1, Ordering::Relaxed);
            t.strategy.on_access(clv, slot);
            return Ok(Acquire::Hit(slot));
        }
        let mut t = &mut *t; // plain &mut TableInner, so field borrows split
        if let Some(raw) = t.free.pop() {
            let slot = SlotId(raw);
            self.record(SlotEvent::Acquire { clv: clv.0 });
            self.misses.fetch_add(1, Ordering::Relaxed);
            self.acquires.fetch_add(1, Ordering::Relaxed);
            self.install(&mut t, clv, slot);
            return Ok(Acquire::Fresh(slot));
        }
        let view = VictimView { slot_to_clv: &t.slot_to_clv, pin_counts: &t.pin_counts };
        let Some(victim_slot) = t.strategy.choose_victim(&view) else {
            // A failed acquire is not a miss: `misses` counts installs
            // (i.e. recomputations), and nothing was installed — and it
            // is not traced: the replay simulator only sees acquires
            // that went through.
            return Err(AmcError::AllSlotsPinned {
                slots: self.n_slots(),
                pinned: t.n_pinned_slots,
            });
        };
        self.record(SlotEvent::Acquire { clv: clv.0 });
        self.misses.fetch_add(1, Ordering::Relaxed);
        self.acquires.fetch_add(1, Ordering::Relaxed);
        debug_assert_eq!(t.pin_counts[victim_slot.idx()], 0, "strategy evicted a pinned slot");
        let victim = ClvKey(t.slot_to_clv[victim_slot.idx()]);
        self.evictions.fetch_add(1, Ordering::Relaxed);
        t.strategy.on_evict(victim, victim_slot);
        // Probe the victim's latch before `install` resets it: only a
        // published victim carries a demotable payload. `try_lock`
        // because a held latch means a publish is mid-flight — treat
        // that as not ready rather than block the planning path.
        let victim_ready = match self.phases[victim_slot.idx()].ready.try_lock() {
            Ok(r) => *r,
            Err(_) => false,
        };
        self.clv_to_slot[victim.idx()].store(UNSLOTTED, Ordering::Release);
        self.install(&mut t, clv, victim_slot);
        Ok(Acquire::Evicted { slot: victim_slot, victim, victim_ready })
    }

    /// Installs a mapping; the table lock is held by the caller. The
    /// latch drops to Computing *before* the new mapping is published so
    /// no reader can pin the slot and read stale data.
    fn install(&self, t: &mut TableInner, clv: ClvKey, slot: SlotId) {
        self.installs.fetch_add(1, Ordering::Relaxed);
        let ph = &self.phases[slot.idx()];
        {
            let mut r = ph.ready.lock().unwrap_or_else(|e| e.into_inner());
            *r = false;
            ph.version.fetch_add(1, Ordering::AcqRel);
        }
        // Wake version-snapshot waiters (`wait_ready_at`): a bumped
        // version releases them even though the latch stays down.
        ph.cv.notify_all();
        self.clv_to_slot[clv.idx()].store(slot.0, Ordering::Release);
        t.slot_to_clv[slot.idx()] = clv.0;
        t.strategy.on_insert(clv, slot);
    }

    /// Increments a slot's pin count; pinned slots are never chosen as
    /// eviction victims.
    pub fn pin(&self, slot: SlotId) {
        self.pin_n(slot, 1);
    }

    /// Adds `count` pins at once (refcounted use across a plan).
    pub fn pin_n(&self, slot: SlotId, count: u32) {
        if count == 0 {
            return;
        }
        let mut t = self.table();
        // Trace the pin in CLV terms (the slot numbering is an
        // implementation detail the simulator re-derives). A pin on an
        // unmapped slot — the engine never takes one — is traced with
        // `NO_CLV` and skipped by the replay.
        let occ = t.slot_to_clv[slot.idx()];
        self.record(SlotEvent::Pin { clv: if occ == FREE { NO_CLV } else { occ }, n: count });
        t.pin_n(slot, count);
    }

    /// Decrements a slot's pin count; [`AmcError::NotPinned`] if it has
    /// none.
    pub fn unpin(&self, slot: SlotId) -> Result<(), AmcError> {
        let mut t = self.table();
        let occ = t.slot_to_clv[slot.idx()];
        let c = &mut t.pin_counts[slot.idx()];
        if *c == 0 {
            // Not traced: a rejected unpin changes nothing.
            return Err(AmcError::NotPinned(slot.0));
        }
        self.record(SlotEvent::Unpin { clv: if occ == FREE { NO_CLV } else { occ } });
        *c -= 1;
        if *c == 0 {
            t.n_pinned_slots -= 1;
        }
        Ok(())
    }

    /// Drops `clv` from its slot, returning the slot to the free list.
    /// No-op if not resident. The slot must not be pinned. Planning
    /// operation: concurrent callers hold [`SlotManager::plan_guard`].
    pub fn invalidate(&self, clv: ClvKey) {
        let mut t = self.table();
        let s = self.clv_to_slot[clv.idx()].load(Ordering::Acquire);
        if s != UNSLOTTED {
            let slot = SlotId(s);
            assert_eq!(t.pin_counts[slot.idx()], 0, "cannot invalidate a pinned slot");
            self.record(SlotEvent::Invalidate { clv: clv.0 });
            t.strategy.on_evict(clv, slot);
            let ph = &self.phases[slot.idx()];
            {
                let mut r = ph.ready.lock().unwrap_or_else(|e| e.into_inner());
                *r = false;
                ph.version.fetch_add(1, Ordering::AcqRel);
            }
            ph.cv.notify_all();
            self.clv_to_slot[clv.idx()].store(UNSLOTTED, Ordering::Release);
            t.slot_to_clv[slot.idx()] = FREE;
            t.free.push(slot.0);
        }
    }

    /// Snapshot of the `(clv, slot)` pairs currently resident.
    pub fn resident(&self) -> Vec<(ClvKey, SlotId)> {
        self.table()
            .slot_to_clv
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c != FREE)
            .map(|(s, &c)| (ClvKey(c), SlotId(s as u32)))
            .collect()
    }

    // ---- concurrency primitives -------------------------------------

    /// Serializes planning phases. Everything that may remap a slot runs
    /// under this guard; execution (kernel work, CLV reads) does not.
    /// Lock level 1 — acquired before the table lock, never after.
    pub fn plan_guard(&self) -> MutexGuard<'_, ()> {
        self.plan_lock.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Publishes a slot's data: wakes every thread blocked in
    /// [`SlotManager::wait_ready`] on it.
    pub fn mark_ready(&self, slot: SlotId) {
        if phylo_faults::fire("amc::lost_publish") {
            return; // the watchdog in the waiters turns this into an error
        }
        if phylo_faults::fire("amc::delayed_publish") {
            std::thread::sleep(Duration::from_millis(20));
        }
        let ph = &self.phases[slot.idx()];
        *ph.ready.lock().unwrap_or_else(|e| e.into_inner()) = true;
        ph.cv.notify_all();
    }

    /// Publishes a slot's data **only if** the slot still carries
    /// `version` — i.e. the caller's install is the slot's latest
    /// generation. The schedule executor must use this rather than
    /// [`SlotManager::mark_ready`]: when a later op of the same schedule
    /// has already remapped the slot (see [`SlotManager::wait_ready_at`]),
    /// an unconditional publish would announce the *new* mapping as ready
    /// while the slot still holds the old generation's bytes, and a
    /// concurrent plan would read the wrong CLV. The superseded op stays
    /// silent; the final-generation op (whose version matches) publishes.
    pub fn mark_ready_at(&self, slot: SlotId, version: u64) {
        if phylo_faults::fire("amc::lost_publish") {
            return;
        }
        if phylo_faults::fire("amc::delayed_publish") {
            std::thread::sleep(Duration::from_millis(20));
        }
        let ph = &self.phases[slot.idx()];
        let mut r = ph.ready.lock().unwrap_or_else(|e| e.into_inner());
        if ph.version.load(Ordering::Acquire) == version {
            *r = true;
            drop(r);
            ph.cv.notify_all();
        }
    }

    /// Blocks until `slot`'s data is published, up to the watchdog
    /// deadline ([`SlotManager::set_wait_timeout`]). Callers must hold a
    /// pin on the slot (so it cannot be remapped underneath the wait) and
    /// must not hold the table lock (lock order: latches are innermost).
    ///
    /// `Err(SlotWaitTimeout)` means the publish never came — the
    /// computing thread died or its publish was dropped. The slot's data
    /// must then be treated as garbage.
    pub fn wait_ready(&self, slot: SlotId) -> Result<(), AmcError> {
        let ph = &self.phases[slot.idx()];
        let deadline = self.wait_timeout();
        let cancel = self.cancel_token();
        let start = Instant::now();
        let mut waited_any = false;
        let mut r = ph.ready.lock().unwrap_or_else(|e| e.into_inner());
        while !*r {
            waited_any = true;
            // A cancelled run must not sit out the full watchdog window:
            // the thread that would publish this latch may itself have
            // exited on the same token, so the wait is sliced and the
            // token re-checked at every wake.
            if cancel.is_cancelled() {
                wait_hist().record_ns(start.elapsed().as_nanos() as u64);
                return Err(AmcError::Cancelled);
            }
            let waited = start.elapsed();
            let Some(left) = deadline.checked_sub(waited) else {
                wait_hist().record_ns(waited.as_nanos() as u64);
                return Err(AmcError::SlotWaitTimeout {
                    slot: slot.0,
                    waited_ms: waited.as_millis() as u64,
                });
            };
            let slice = left.min(CANCEL_POLL_INTERVAL);
            (r, _) = ph.cv.wait_timeout(r, slice).unwrap_or_else(|e| e.into_inner());
        }
        if waited_any {
            wait_hist().record_ns(start.elapsed().as_nanos() as u64);
        }
        Ok(())
    }

    /// Blocks until `slot`'s data is published **or** the slot has been
    /// reassigned since `version` was snapshotted (its version counter no
    /// longer matches).
    ///
    /// This is the dependency wait for schedule execution. A schedule may
    /// reuse a slot: a later op can evict a CLV that an earlier op reads
    /// as a dependency, and the eviction's `install` drops the latch at
    /// *planning* time. The earlier op must not wait for that latch — it
    /// would be published only by the later op — and does not need to:
    /// installs never touch slot data, so the dependency bytes remain
    /// valid until the remapping op (which executes after the reader)
    /// overwrites them. A version mismatch is therefore proof that the
    /// recorded dependency is readable right now. While the version still
    /// matches, an unpublished slot means the CLV is being computed by
    /// the plan that installed it, whose lock-free execution always
    /// publishes — so the wait terminates, unless that plan's thread died
    /// or its publish was lost, in which case the watchdog deadline trips
    /// with [`AmcError::SlotWaitTimeout`].
    pub fn wait_ready_at(&self, slot: SlotId, version: u64) -> Result<(), AmcError> {
        let ph = &self.phases[slot.idx()];
        let deadline = self.wait_timeout();
        let cancel = self.cancel_token();
        let start = Instant::now();
        let mut waited_any = false;
        let mut r = ph.ready.lock().unwrap_or_else(|e| e.into_inner());
        while !*r && ph.version.load(Ordering::Acquire) == version {
            waited_any = true;
            if cancel.is_cancelled() {
                wait_hist().record_ns(start.elapsed().as_nanos() as u64);
                return Err(AmcError::Cancelled);
            }
            let waited = start.elapsed();
            let Some(left) = deadline.checked_sub(waited) else {
                wait_hist().record_ns(waited.as_nanos() as u64);
                return Err(AmcError::SlotWaitTimeout {
                    slot: slot.0,
                    waited_ms: waited.as_millis() as u64,
                });
            };
            let slice = left.min(CANCEL_POLL_INTERVAL);
            (r, _) = ph.cv.wait_timeout(r, slice).unwrap_or_else(|e| e.into_inner());
        }
        if waited_any {
            wait_hist().record_ns(start.elapsed().as_nanos() as u64);
        }
        Ok(())
    }

    /// Whether `slot`'s data is published (non-blocking).
    pub fn is_ready(&self, slot: SlotId) -> bool {
        *self.phases[slot.idx()].ready.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Reassignment counter for `slot` (bumps on every install and
    /// invalidate). The planner snapshots it per op for
    /// [`SlotManager::wait_ready_at`] and [`SlotManager::mark_ready_at`].
    pub fn version(&self, slot: SlotId) -> u64 {
        self.phases[slot.idx()].version.load(Ordering::Acquire)
    }

    /// Checks the bijection invariant between the two maps (tests/debug).
    pub fn check_invariants(&self) -> Result<(), String> {
        let t = self.table();
        for (c, s) in self.clv_to_slot.iter().enumerate() {
            let s = s.load(Ordering::Acquire);
            if s != UNSLOTTED {
                if s as usize >= t.slot_to_clv.len() {
                    return Err(format!("clv {c} maps to out-of-range slot {s}"));
                }
                if t.slot_to_clv[s as usize] != c as u32 {
                    return Err(format!(
                        "clv {c} -> slot {s}, but slot {s} -> clv {}",
                        t.slot_to_clv[s as usize]
                    ));
                }
            }
        }
        let mut seen = vec![false; self.clv_to_slot.len()];
        for (s, &c) in t.slot_to_clv.iter().enumerate() {
            if c != FREE {
                if c as usize >= seen.len() {
                    return Err(format!("slot {s} holds out-of-range clv {c}"));
                }
                if seen[c as usize] {
                    return Err(format!("clv {c} resident in two slots"));
                }
                seen[c as usize] = true;
                if self.clv_to_slot[c as usize].load(Ordering::Acquire) != s as u32 {
                    return Err(format!(
                        "slot {s} -> clv {c}, but clv {c} -> {}",
                        self.clv_to_slot[c as usize].load(Ordering::Acquire)
                    ));
                }
            }
        }
        let st = self.stats();
        if st.installs != st.misses {
            return Err(format!(
                "counter invariant broken: installs {} != misses {}",
                st.installs, st.misses
            ));
        }
        if st.acquires != st.hits + st.misses {
            return Err(format!(
                "counter invariant broken: acquires {} != hits {} + misses {}",
                st.acquires, st.hits, st.misses
            ));
        }
        let pinned = t.pin_counts.iter().filter(|&&p| p > 0).count();
        if pinned != t.n_pinned_slots {
            return Err(format!("pin cache {} != actual {}", t.n_pinned_slots, pinned));
        }
        for &raw in &t.free {
            if t.slot_to_clv[raw as usize] != FREE {
                return Err(format!("slot {raw} is on the free list but occupied"));
            }
        }
        Ok(())
    }
}

impl TableInner {
    fn pin_n(&mut self, slot: SlotId, count: u32) {
        if count == 0 {
            return;
        }
        let c = &mut self.pin_counts[slot.idx()];
        if *c == 0 {
            self.n_pinned_slots += 1;
        }
        *c += count;
    }
}

impl std::fmt::Debug for SlotManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (n_pinned, strategy) = {
            let t = self.table();
            (t.n_pinned_slots, t.strategy.name())
        };
        f.debug_struct("SlotManager")
            .field("n_clvs", &self.n_clvs())
            .field("n_slots", &self.n_slots())
            .field("n_pinned", &n_pinned)
            .field("stats", &self.stats())
            .field("strategy", &strategy)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::{CostBased, Fifo};

    fn mgr(n_clvs: usize, n_slots: usize) -> SlotManager {
        SlotManager::new(n_clvs, n_slots, Box::new(Fifo::new()))
    }

    #[test]
    fn fresh_then_hit() {
        let m = mgr(10, 4);
        let a = m.acquire(ClvKey(3)).unwrap();
        assert!(matches!(a, Acquire::Fresh(_)));
        let b = m.acquire(ClvKey(3)).unwrap();
        assert_eq!(b, Acquire::Hit(a.slot()));
        assert_eq!(m.stats().hits, 1);
        assert_eq!(m.stats().misses, 1);
        m.check_invariants().unwrap();
    }

    #[test]
    fn eviction_when_full() {
        let m = mgr(10, 2);
        m.acquire(ClvKey(0)).unwrap();
        m.acquire(ClvKey(1)).unwrap();
        let a = m.acquire(ClvKey(2)).unwrap();
        match a {
            Acquire::Evicted { victim, .. } => assert_eq!(victim, ClvKey(0)), // FIFO
            other => panic!("expected eviction, got {other:?}"),
        }
        assert_eq!(m.lookup(ClvKey(0)), None);
        assert!(m.lookup(ClvKey(2)).is_some());
        assert_eq!(m.stats().evictions, 1);
        m.check_invariants().unwrap();
    }

    #[test]
    fn pinned_slots_survive() {
        let m = mgr(10, 2);
        let s0 = m.acquire(ClvKey(0)).unwrap().slot();
        m.acquire(ClvKey(1)).unwrap();
        m.pin(s0);
        // Next eviction must take clv 1's slot, not the pinned one.
        let a = m.acquire(ClvKey(2)).unwrap();
        assert!(matches!(a, Acquire::Evicted { victim: ClvKey(1), .. }));
        assert!(m.lookup(ClvKey(0)).is_some());
        m.check_invariants().unwrap();
    }

    #[test]
    fn all_pinned_errors() {
        let m = mgr(10, 2);
        let s0 = m.acquire(ClvKey(0)).unwrap().slot();
        let s1 = m.acquire(ClvKey(1)).unwrap().slot();
        m.pin(s0);
        m.pin(s1);
        let err = m.acquire(ClvKey(2)).unwrap_err();
        assert!(matches!(err, AmcError::AllSlotsPinned { slots: 2, pinned: 2 }));
    }

    #[test]
    fn pin_counts_nest() {
        let m = mgr(4, 2);
        let s = m.acquire(ClvKey(0)).unwrap().slot();
        m.pin(s);
        m.pin(s);
        assert_eq!(m.n_pinned(), 1);
        m.unpin(s).unwrap();
        assert_eq!(m.pin_count(s), 1);
        assert_eq!(m.n_pinned(), 1);
        m.unpin(s).unwrap();
        assert_eq!(m.n_pinned(), 0);
        assert!(m.unpin(s).is_err());
    }

    #[test]
    fn pin_n_counts() {
        let m = mgr(4, 2);
        let s = m.acquire(ClvKey(0)).unwrap().slot();
        m.pin_n(s, 3);
        assert_eq!(m.pin_count(s), 3);
        m.pin_n(s, 0);
        assert_eq!(m.pin_count(s), 3);
        for _ in 0..3 {
            m.unpin(s).unwrap();
        }
        assert_eq!(m.n_pinned(), 0);
    }

    #[test]
    fn invalidate_releases() {
        let m = mgr(4, 1);
        m.acquire(ClvKey(0)).unwrap();
        m.invalidate(ClvKey(0));
        assert_eq!(m.lookup(ClvKey(0)), None);
        // Slot is free again: next acquire is Fresh, not Evicted.
        assert!(matches!(m.acquire(ClvKey(1)).unwrap(), Acquire::Fresh(_)));
        m.check_invariants().unwrap();
    }

    #[test]
    fn unknown_clv_rejected() {
        let m = mgr(3, 2);
        assert!(matches!(m.acquire(ClvKey(7)), Err(AmcError::UnknownClv(7))));
    }

    #[test]
    fn cost_based_evicts_cheapest() {
        let costs = vec![5.0, 1.0, 3.0, 4.0];
        let m = SlotManager::new(4, 2, Box::new(CostBased::new(costs)));
        m.acquire(ClvKey(0)).unwrap(); // cost 5
        m.acquire(ClvKey(1)).unwrap(); // cost 1
                                       // clv 2 arrives: evict the cheapest-to-recompute resident (clv 1).
        let a = m.acquire(ClvKey(2)).unwrap();
        assert!(matches!(a, Acquire::Evicted { victim: ClvKey(1), .. }), "{a:?}");
        // clv 3 (cost 4) arrives: residents are 0 (5) and 2 (3) -> evict 2.
        let a = m.acquire(ClvKey(3)).unwrap();
        assert!(matches!(a, Acquire::Evicted { victim: ClvKey(2), .. }), "{a:?}");
        m.check_invariants().unwrap();
    }

    #[test]
    fn resident_iterates_current() {
        let m = mgr(5, 3);
        m.acquire(ClvKey(1)).unwrap();
        m.acquire(ClvKey(4)).unwrap();
        let mut r: Vec<u32> = m.resident().into_iter().map(|(c, _)| c.0).collect();
        r.sort_unstable();
        assert_eq!(r, vec![1, 4]);
    }

    #[test]
    fn install_drops_publish_latch() {
        let m = mgr(8, 2);
        let s = m.acquire(ClvKey(0)).unwrap().slot();
        assert!(!m.is_ready(s), "fresh slot must be Computing");
        let v0 = m.version(s);
        m.mark_ready(s);
        assert!(m.is_ready(s));
        // Re-acquiring the same CLV is a hit: no latch drop, no version bump.
        m.acquire(ClvKey(0)).unwrap();
        assert!(m.is_ready(s));
        assert_eq!(m.version(s), v0);
        // Evicting it for another CLV drops the latch and bumps the version.
        m.acquire(ClvKey(1)).unwrap();
        let a = m.acquire(ClvKey(2)).unwrap();
        assert_eq!(a.slot(), s, "FIFO evicts the oldest");
        assert!(!m.is_ready(s));
        assert!(m.version(s) > v0);
    }

    #[test]
    fn wait_ready_blocks_until_publish() {
        use std::sync::Arc;
        let m = Arc::new(mgr(4, 2));
        let s = m.acquire(ClvKey(0)).unwrap().slot();
        m.pin(s);
        let m2 = Arc::clone(&m);
        let waiter = std::thread::spawn(move || {
            m2.wait_ready(s).unwrap();
            m2.version(s)
        });
        std::thread::sleep(std::time::Duration::from_millis(20));
        let v = m.version(s);
        m.mark_ready(s);
        assert_eq!(waiter.join().unwrap(), v);
    }

    #[test]
    fn wait_ready_times_out_on_lost_publish() {
        let m = mgr(4, 2);
        m.set_wait_timeout(Duration::from_millis(30));
        let s = m.acquire(ClvKey(0)).unwrap().slot();
        m.pin(s);
        let waits_before = wait_hist().snapshot();
        let err = m.wait_ready(s).unwrap_err();
        assert!(matches!(err, AmcError::SlotWaitTimeout { .. }), "{err:?}");
        // A snapshot wait on the live version also times out rather than
        // spinning forever.
        let err = m.wait_ready_at(s, m.version(s)).unwrap_err();
        assert!(matches!(err, AmcError::SlotWaitTimeout { .. }), "{err:?}");
        m.unpin(s).unwrap();
        // Both waits are in `slot.wait_ns`, at their full length (the
        // histogram is process-global: other tests may add, never take).
        let waits = wait_hist().snapshot().delta(&waits_before);
        assert!(waits.count >= 2 && waits.sum_ns >= 60_000_000, "{waits:?}");
    }

    #[test]
    fn cancellation_breaks_latch_waits_promptly() {
        use std::sync::Arc;
        let m = Arc::new(mgr(4, 2));
        // Long watchdog: only the cancel token may break the wait.
        m.set_wait_timeout(Duration::from_secs(30));
        let token = CancelToken::new();
        m.set_cancel_token(&token);
        let s = m.acquire(ClvKey(0)).unwrap().slot();
        m.pin(s);
        let m2 = Arc::clone(&m);
        let waiter = std::thread::spawn(move || m2.wait_ready(s));
        std::thread::sleep(Duration::from_millis(10));
        let t = Instant::now();
        token.cancel();
        let err = waiter.join().unwrap().unwrap_err();
        assert!(matches!(err, AmcError::Cancelled), "{err:?}");
        assert!(t.elapsed() < Duration::from_secs(5), "cancel took {:?}", t.elapsed());
        // The snapshot wait honors the token too.
        let err = m.wait_ready_at(s, m.version(s)).unwrap_err();
        assert!(matches!(err, AmcError::Cancelled), "{err:?}");
        m.unpin(s).unwrap();
    }

    #[test]
    fn acquisition_counters_balance() {
        let m = mgr(10, 2);
        m.acquire(ClvKey(0)).unwrap(); // miss
        m.acquire(ClvKey(0)).unwrap(); // hit
        m.touch(ClvKey(0)); // planner reuse: hit
        m.touch(ClvKey(7)); // not resident: counts nothing
        m.acquire(ClvKey(1)).unwrap(); // miss
        m.acquire(ClvKey(2)).unwrap(); // miss + eviction
        let st = m.stats();
        assert_eq!(st.hits, 2);
        assert_eq!(st.misses, 3);
        assert_eq!(st.acquires, 5);
        assert_eq!(st.installs, 3);
        m.check_invariants().unwrap();
    }

    #[test]
    fn stats_delta_isolates_one_runs_traffic() {
        let m = mgr(8, 2);
        m.acquire(ClvKey(0)).unwrap(); // miss
        m.acquire(ClvKey(0)).unwrap(); // hit
        let baseline = m.stats();
        m.acquire(ClvKey(1)).unwrap(); // miss
        m.acquire(ClvKey(0)).unwrap(); // hit
        m.acquire(ClvKey(1)).unwrap(); // hit
        let d = m.stats().delta(&baseline);
        assert_eq!((d.hits, d.misses, d.acquires), (2, 1, 3));
        assert_eq!(d.installs, d.misses);
        // A delta against itself is all-zero.
        assert_eq!(m.stats().delta(&m.stats()), SlotStats::default());
    }

    #[test]
    fn trace_records_table_ops_in_order() {
        let m = mgr(8, 2);
        let trace = Arc::new(SlotTrace::new());
        m.set_slot_trace(Some(Arc::clone(&trace)));
        let s0 = m.acquire(ClvKey(0)).unwrap().slot(); // fresh
        m.acquire(ClvKey(0)).unwrap(); // hit
        m.acquire(ClvKey(1)).unwrap(); // fresh
        m.pin(s0);
        m.touch(ClvKey(1));
        m.acquire(ClvKey(2)).unwrap(); // evicts 1 (FIFO; 0 is pinned)
        m.unpin(s0).unwrap();
        m.invalidate(ClvKey(2));
        m.touch(ClvKey(1)); // not resident: must NOT trace
        assert!(m.unpin(s0).is_err()); // rejected: must NOT trace
        use SlotEvent::*;
        assert_eq!(
            trace.snapshot().events,
            vec![
                Acquire { clv: 0 },
                Acquire { clv: 0 },
                Acquire { clv: 1 },
                Pin { clv: 0, n: 1 },
                Touch { clv: 1 },
                Acquire { clv: 2 },
                Unpin { clv: 0 },
                Invalidate { clv: 2 },
            ]
        );
        // Disarming stops recording.
        m.set_slot_trace(None);
        m.acquire(ClvKey(3)).unwrap();
        assert_eq!(trace.len(), 8);
        m.check_invariants().unwrap();
    }

    #[test]
    fn remapped_slot_wakes_snapshot_waiters() {
        // A schedule op waiting on a dependency slot that a later op of
        // the same schedule remaps (DESIGN.md §6) is released by the
        // eviction's install — the version bump plus its wake-up — not by
        // the watchdog, and not by a publish that will never come.
        use std::sync::Arc;
        let m = Arc::new(mgr(4, 2));
        m.set_wait_timeout(Duration::from_secs(30));
        let s = m.acquire(ClvKey(0)).unwrap().slot(); // unpublished
        m.acquire(ClvKey(1)).unwrap();
        let v = m.version(s);
        let m2 = Arc::clone(&m);
        let waiter = std::thread::spawn(move || m2.wait_ready_at(s, v));
        std::thread::sleep(Duration::from_millis(20));
        assert!(!waiter.is_finished(), "an unpublished, unmoved slot must block the waiter");
        let t = Instant::now();
        let a = m.acquire(ClvKey(2)).unwrap(); // evicts clv 0 (FIFO)
        assert_eq!(a, Acquire::Evicted { slot: s, victim: ClvKey(0), victim_ready: false });
        waiter.join().unwrap().unwrap();
        assert!(t.elapsed() < Duration::from_secs(5), "wake took {:?}", t.elapsed());
        assert!(!m.is_ready(s), "the waiter was released by the remap, not a publish");
        m.check_invariants().unwrap();
    }
}
