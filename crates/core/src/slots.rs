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
//! `&self`. Two locks, always taken in this order (DESIGN.md §6):
//!
//! 1. **`plan_lock`** — serializes *computing plans*: every code path
//!    that may remap slots (FPA planning, which calls
//!    [`SlotManager::acquire`], the execution of the schedule it
//!    returns, and cache flushes) runs under this mutex, so a store has
//!    at most one plan computing CLVs at any time.
//! 2. **the eviction table** (`inner`) — one mutex over the
//!    `slot↔clv` maps, pin counts, free list and replacement strategy.
//!    Held for O(1)/O(slots) table operations only.
//!
//! Each slot also carries a *complete* bit ([`SlotManager::mark_ready`]):
//! set once the slot's bytes hold the CLV it was installed for, cleared
//! by every install and invalidate. Nothing waits on it; `acquire` reads
//! it to tell whether an eviction victim is worth demoting to a storage
//! tier.
//!
//! `clv → slot` lookups are lock-free (`AtomicU32` loads): the
//! steady-state scoring path resolves residency and reads the CLV data
//! of slots it holds pinned without acquiring any lock. Traffic counters
//! are atomics, so stats from concurrent users aggregate without lost
//! updates.
//!
//! Single-owner users (benches, the model-based test harness, the
//! replay lab) drive `acquire`/`pin`/`unpin` directly. The one
//! concurrent user is `phylo_engine`'s `ManagedStore`: under `plan_lock`
//! it plans and pins with [`crate::fpa::ensure_resident`] and executes
//! the schedule; readers unpin on release.

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use phylo_obs::slottrace::{SlotEvent, SlotTrace, NO_CLV};
use phylo_tree::traversal::NextUse;

use crate::cancel::CancelToken;
use crate::error::AmcError;
use crate::strategy::{ReplacementStrategy, VictimView};

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
        /// Whether the victim's slot held a complete CLV at eviction time
        /// ([`SlotManager::mark_ready`]). Only such a victim is worth
        /// demoting to a storage tier; one installed earlier in the same
        /// plan was never computed. Read *before* the bit clears for the
        /// new occupant. The bytes stay intact in the slot until the
        /// caller overwrites them, so a `true` here licenses a
        /// synchronous demotion copy.
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

/// Maps a large logical CLV index space onto a small set of physical slots.
///
/// Internally synchronized; see the module docs for the lock order.
pub struct SlotManager {
    /// Lock-free residency index. Written only under `inner`; readers may
    /// race with remapping and must revalidate under `inner` before
    /// trusting the mapping for anything but a hint.
    clv_to_slot: Vec<AtomicU32>,
    inner: Mutex<TableInner>,
    /// Per slot: holds a complete CLV ([`SlotManager::mark_ready`]).
    complete: Vec<AtomicBool>,
    plan_lock: Mutex<()>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    installs: AtomicU64,
    acquires: AtomicU64,
    /// Cooperative shutdown flag threaded in from the run owner (see
    /// [`SlotManager::set_cancel_token`]); the engine polls it between
    /// compute steps.
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
            complete: (0..n_slots).map(|_| AtomicBool::new(false)).collect(),
            plan_lock: Mutex::new(()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            installs: AtomicU64::new(0),
            acquires: AtomicU64::new(0),
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

    /// Installs the run's shutdown token. The engine reads it (via
    /// [`SlotManager::cancel_token`]) once per schedule and polls it
    /// before every compute step; once cancelled the schedule stops with
    /// [`AmcError::Cancelled`]. The default token is never cancelled.
    pub fn set_cancel_token(&self, token: &CancelToken) {
        *self.cancel.lock().unwrap_or_else(|e| e.into_inner()) = token.clone();
    }

    /// A clone of the installed shutdown token (the default, inert token
    /// when none was installed).
    pub fn cancel_token(&self) -> CancelToken {
        self.cancel.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }

    fn table(&self) -> MutexGuard<'_, TableInner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Number of physical slots.
    #[inline]
    pub fn n_slots(&self) -> usize {
        self.complete.len()
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
    /// time is the rule everywhere (one walker per `run_sweep`, whose
    /// prepares run one at a time on whichever of its threads claims
    /// them; one executor thread in the daemon).
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
    /// slot's previous contents are forgotten, its complete bit clears,
    /// and the caller must recompute the CLV into it and
    /// [`SlotManager::mark_ready`] it.
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
        let view = VictimView::new(&t.slot_to_clv, &t.pin_counts);
        let Some(victim_slot) = t.strategy.choose_victim(&view) else {
            // A failed acquire is not a miss: `misses` counts installs
            // (i.e. recomputations), and nothing was installed — and it
            // is not traced: the replay only sees acquires that went
            // through.
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
        // Read the victim's complete bit before `install` clears it:
        // only a computed victim carries a demotable payload.
        let victim_ready = self.complete[victim_slot.idx()].load(Ordering::Acquire);
        self.clv_to_slot[victim.idx()].store(UNSLOTTED, Ordering::Release);
        self.install(&mut t, clv, victim_slot);
        Ok(Acquire::Evicted { slot: victim_slot, victim, victim_ready })
    }

    /// Installs a mapping; the table lock is held by the caller. The
    /// slot's complete bit clears: its bytes belong to the old occupant
    /// until the new CLV is computed into them.
    fn install(&self, t: &mut TableInner, clv: ClvKey, slot: SlotId) {
        self.installs.fetch_add(1, Ordering::Relaxed);
        self.complete[slot.idx()].store(false, Ordering::Relaxed);
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
        // Trace the pin in CLV terms: the replay's manager assigns its
        // own slot numbers. A pin on an unmapped slot — the engine never
        // takes one — is traced with `NO_CLV` and skipped by the replay.
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
            self.complete[slot.idx()].store(false, Ordering::Relaxed);
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

    /// Serializes computing plans. Everything that may remap a slot, and
    /// the execution of the schedule a plan returns, runs under this
    /// guard; readers of pinned slots do not take it. Lock level 1 —
    /// acquired before the table lock, never after, and never twice by
    /// one thread (`std::sync::Mutex` is not reentrant).
    pub fn plan_guard(&self) -> MutexGuard<'_, ()> {
        self.plan_lock.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Records that `slot` now holds the complete CLV it was installed
    /// for. The next install or invalidate of the slot clears the bit.
    pub fn mark_ready(&self, slot: SlotId) {
        self.complete[slot.idx()].store(true, Ordering::Release);
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
    fn only_a_complete_victim_is_reported_ready() {
        let m = mgr(8, 2);
        let s0 = m.acquire(ClvKey(0)).unwrap().slot();
        m.mark_ready(s0);
        m.acquire(ClvKey(1)).unwrap(); // installed, never computed
                                       // Re-acquiring a resident CLV is a hit and leaves its bit alone.
        m.acquire(ClvKey(0)).unwrap();
        let a = m.acquire(ClvKey(2)).unwrap(); // FIFO evicts clv 0
        assert_eq!(a, Acquire::Evicted { slot: s0, victim: ClvKey(0), victim_ready: true });
        // Clv 1 never held a complete CLV, and the install of clv 2 cleared
        // the bit clv 0 had set, so neither is worth a demotion: a slot
        // installed earlier in the same plan is never offered to a tier.
        let a = m.acquire(ClvKey(3)).unwrap();
        assert!(matches!(a, Acquire::Evicted { victim: ClvKey(1), victim_ready: false, .. }));
        let a = m.acquire(ClvKey(4)).unwrap();
        assert!(matches!(a, Acquire::Evicted { victim: ClvKey(2), victim_ready: false, .. }));
        m.check_invariants().unwrap();
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
}
