//! Slot-backed CLV storage.
//!
//! The arena owns one flat `f64` buffer holding `n_slots` CLVs plus the
//! matching per-pattern scaler vectors, and couples them with a
//! [`SlotManager`]. A Felsenstein step needs simultaneous access to the
//! (mutable) target slot and the (shared) child slots; [`SlotArena::
//! compute_view`] hands these out as disjoint slices with a runtime
//! distinctness check.
//!
//! # Shared-access protocol
//!
//! The buffers live in `UnsafeCell`s so the arena can be shared across
//! threads (`&SlotArena` is `Sync`); slot disjointness plus the manager's
//! pin/publish discipline replace the borrow checker:
//!
//! * a slot's data may be **read** ([`SlotArena::clv`]/[`SlotArena::
//!   scale`]) only while the reader holds a pin on the slot *and* the
//!   slot is published ([`SlotManager::is_ready`]) — exactly what a
//!   [`ReadLease`] certifies;
//! * a slot's data may be **written** ([`SlotArena::compute_view`]) only
//!   by the single thread that installed the mapping and has not yet
//!   published it — exactly what a [`ComputeLease`] (or an executing FPA
//!   plan) certifies.
//!
//! Because an unpublished slot cannot be leased for reading and a
//! published, pinned slot cannot be remapped, writers are exclusive and
//! readers race only with other readers. The lease API below packages
//! this protocol; `phylo_engine` composes the same primitives for
//! whole-traversal plans.

use std::cell::UnsafeCell;
use std::sync::{Arc, OnceLock};

use crate::error::AmcError;
use crate::slots::{Acquire, ClvKey, SlotId, SlotManager, SlotStats};
use crate::strategy::ReplacementStrategy;
use crate::tier::TieredStore;

/// Interior-mutable storage shared across threads; all access goes
/// through raw pointers under the protocol above.
struct SyncBuf<T>(UnsafeCell<Vec<T>>);

// SAFETY: `SyncBuf` is a plain buffer; synchronization of access is the
// arena protocol's responsibility (pins + publish latches), not the
// type's. `T` is `Send + Sync` plain-old-data here (f64/u32).
unsafe impl<T: Send + Sync> Sync for SyncBuf<T> {}

impl<T> SyncBuf<T> {
    fn new(v: Vec<T>) -> Self {
        SyncBuf(UnsafeCell::new(v))
    }

    #[inline]
    fn ptr(&self) -> *mut T {
        // SAFETY: only derives a pointer; no reference to the Vec escapes.
        unsafe { (*self.0.get()).as_mut_ptr() }
    }

    #[inline]
    fn len(&self) -> usize {
        // SAFETY: the Vec is never resized after construction.
        unsafe { (*self.0.get()).len() }
    }
}

/// Slot storage + slot manager for one CLV shape.
pub struct SlotArena {
    mgr: SlotManager,
    clv_len: usize,
    patterns: usize,
    data: SyncBuf<f64>,
    scales: SyncBuf<u32>,
    /// Optional CLV spill file ([`SlotArena::set_tiers`]). When set,
    /// eviction in the lease path spills published victims and misses
    /// try a reload before falling back to recomputation.
    tiers: OnceLock<Arc<TieredStore>>,
}

/// Disjoint access to a compute target and its resident children.
pub struct ComputeView<'a> {
    /// The target CLV buffer to fill.
    pub target_clv: &'a mut [f64],
    /// The target's per-pattern scaler counts to fill.
    pub target_scale: &'a mut [u32],
    /// `(clv, scale)` of each requested child slot, in request order.
    pub children: Vec<(&'a [f64], &'a [u32])>,
}

impl SlotArena {
    /// Allocates an arena of `n_slots` CLVs of `clv_len` entries
    /// (`patterns` scaler counts each) over `n_clvs` logical keys.
    /// Panics if the buffers cannot be allocated; fallible callers use
    /// [`SlotArena::try_new`].
    pub fn new(
        n_clvs: usize,
        n_slots: usize,
        clv_len: usize,
        patterns: usize,
        strategy: Box<dyn ReplacementStrategy>,
    ) -> Self {
        Self::try_new(n_clvs, n_slots, clv_len, patterns, strategy)
            .expect("CLV slot arena allocation failed")
    }

    /// As [`SlotArena::new`], but reports an allocation failure as
    /// [`AmcError::AllocationFailed`] instead of aborting — slot storage
    /// is by far the largest allocation in a placement run (the whole
    /// point of the `--maxmem` budget), so it is the one worth failing
    /// gracefully on.
    pub fn try_new(
        n_clvs: usize,
        n_slots: usize,
        clv_len: usize,
        patterns: usize,
        strategy: Box<dyn ReplacementStrategy>,
    ) -> Result<Self, AmcError> {
        let bytes = Self::bytes_per_slot(clv_len, patterns).saturating_mul(n_slots);
        if phylo_faults::fire("amc::arena_alloc") {
            return Err(AmcError::AllocationFailed { bytes });
        }
        let mut data: Vec<f64> = Vec::new();
        data.try_reserve_exact(n_slots * clv_len)
            .map_err(|_| AmcError::AllocationFailed { bytes })?;
        data.resize(n_slots * clv_len, 0.0);
        let mut scales: Vec<u32> = Vec::new();
        scales
            .try_reserve_exact(n_slots * patterns)
            .map_err(|_| AmcError::AllocationFailed { bytes })?;
        scales.resize(n_slots * patterns, 0);
        Ok(SlotArena {
            mgr: SlotManager::new(n_clvs, n_slots, strategy),
            clv_len,
            patterns,
            data: SyncBuf::new(data),
            scales: SyncBuf::new(scales),
            tiers: OnceLock::new(),
        })
    }

    /// Attaches a CLV spill file (at most once; later calls are
    /// ignored). From then on, evictions through the lease path offer
    /// published victims to the store and misses try [`TieredStore::
    /// fetch_into`] before recomputing.
    pub fn set_tiers(&self, tiers: Arc<TieredStore>) {
        let _ = self.tiers.set(tiers);
    }

    /// The attached spill file, if any.
    pub fn tiers(&self) -> Option<&Arc<TieredStore>> {
        self.tiers.get()
    }

    /// The slot manager (for pinning, stats, lookups).
    #[inline]
    pub fn manager(&self) -> &SlotManager {
        &self.mgr
    }

    /// The slot manager, from exclusive arena access (kept for API
    /// symmetry; the manager's whole API takes `&self`).
    #[inline]
    pub fn manager_mut(&mut self) -> &SlotManager {
        &self.mgr
    }

    /// Number of physical slots.
    #[inline]
    pub fn n_slots(&self) -> usize {
        self.mgr.n_slots()
    }

    /// Entries per CLV.
    #[inline]
    pub fn clv_len(&self) -> usize {
        self.clv_len
    }

    /// Traffic statistics.
    #[inline]
    pub fn stats(&self) -> SlotStats {
        self.mgr.stats()
    }

    /// Shorthand for [`SlotManager::acquire`].
    pub fn acquire(&self, clv: ClvKey) -> Result<Acquire, AmcError> {
        self.mgr.acquire(clv)
    }

    /// The CLV data of a slot.
    ///
    /// Protocol: the caller must hold a pin on `slot` and the slot must
    /// be published (a [`ReadLease`] certifies both), or the caller must
    /// otherwise be the slot's exclusive owner.
    #[inline]
    pub fn clv(&self, slot: SlotId) -> &[f64] {
        debug_assert!(slot.idx() * self.clv_len < self.data.len());
        // SAFETY: in-bounds fixed-size range; the protocol above rules
        // out a concurrent writer to this slot.
        unsafe {
            std::slice::from_raw_parts(self.data.ptr().add(slot.idx() * self.clv_len), self.clv_len)
        }
    }

    /// The scaler counts of a slot (same protocol as [`SlotArena::clv`]).
    #[inline]
    pub fn scale(&self, slot: SlotId) -> &[u32] {
        debug_assert!(slot.idx() * self.patterns < self.scales.len());
        // SAFETY: as in `clv`.
        unsafe {
            std::slice::from_raw_parts(
                self.scales.ptr().add(slot.idx() * self.patterns),
                self.patterns,
            )
        }
    }

    /// Mutable CLV data of a slot (single-slot writes, e.g. copying in a
    /// precomputed vector). Exclusive arena access makes this safe
    /// unconditionally.
    #[inline]
    pub fn clv_mut(&mut self, slot: SlotId) -> (&mut [f64], &mut [u32]) {
        // SAFETY: `&mut self` rules out any other access.
        unsafe { self.slot_raw_mut(slot) }
    }

    /// Raw mutable slices for one slot.
    ///
    /// SAFETY: the caller must be the slot's exclusive writer (own its
    /// unpublished Computing phase, or hold `&mut` arena access).
    // `&self -> &mut` is the point, not an oversight: slots are disjoint
    // ranges behind raw pointers, the arena is shared between the compute
    // and prefetch threads, and exclusivity per slot comes from the phase
    // protocol above (which is why this is an `unsafe fn`), not from a
    // borrow of the whole arena.
    #[allow(clippy::mut_from_ref)]
    #[inline]
    unsafe fn slot_raw_mut(&self, slot: SlotId) -> (&mut [f64], &mut [u32]) {
        let clv = std::slice::from_raw_parts_mut(
            self.data.ptr().add(slot.idx() * self.clv_len),
            self.clv_len,
        );
        let scale = std::slice::from_raw_parts_mut(
            self.scales.ptr().add(slot.idx() * self.patterns),
            self.patterns,
        );
        (clv, scale)
    }

    /// Simultaneous mutable access to `target` and shared access to
    /// `children`. Panics if `target` appears among `children` (a compute
    /// step never reads its own output).
    ///
    /// Protocol: the caller must be `target`'s exclusive writer (its
    /// unpublished Computing phase) and must hold pins on every child,
    /// each published — the shape an executing FPA plan guarantees.
    pub fn compute_view(&self, target: SlotId, children: &[SlotId]) -> ComputeView<'_> {
        assert!(
            children.iter().all(|&c| c != target),
            "compute target {target:?} aliases a child slot"
        );
        // SAFETY: slots are disjoint, fixed-size ranges of `data` and
        // `scales`; `target` is distinct from every child (asserted above),
        // so one mutable and many shared borrows never alias; the protocol
        // above rules out concurrent writers to any of them.
        unsafe {
            let (target_clv, target_scale) = self.slot_raw_mut(target);
            let children = children.iter().map(|&c| (self.clv(c), self.scale(c))).collect();
            ComputeView { target_clv, target_scale, children }
        }
    }

    // ---- lease API ---------------------------------------------------

    /// Non-blocking read lease on a resident, published CLV. Pins the
    /// slot for the lease's lifetime; `None` if the CLV is absent or
    /// still being computed (use [`SlotArena::acquire_compute`]).
    pub fn acquire_read(&self, clv: ClvKey) -> Option<ReadLease<'_>> {
        let slot = self.mgr.pin_if_ready(clv)?;
        Some(ReadLease { arena: self, clv, slot })
    }

    /// Lease for a CLV that may need computing. Takes the plan lock for
    /// the table operation only, then either:
    ///
    /// * the CLV is resident → pins it, waits (off-lock) for its data to
    ///   be published, returns [`Lease::Ready`];
    /// * the CLV misses → assigns a slot (evicting per strategy), pins
    ///   it, returns [`Lease::Compute`] — the caller fills the buffers
    ///   and calls [`ComputeLease::finish`].
    ///
    /// A thread must not re-acquire a CLV whose unfinished
    /// [`ComputeLease`] it already holds (it would wait on itself).
    ///
    /// If the thread computing a hit's data dies before publishing (its
    /// [`ComputeLease`] poisons the slot on drop), the waiter does not
    /// hang: the poison's version bump wakes it, the acquire retries, and
    /// the retry misses — this thread then recomputes the CLV itself.
    pub fn acquire_compute(&self, clv: ClvKey) -> Result<Lease<'_>, AmcError> {
        loop {
            let guard = self.mgr.plan_guard();
            let acq = self.mgr.acquire(clv)?;
            let slot = acq.slot();
            self.mgr.pin(slot);
            // Snapshot under the plan guard: poisoning also takes the
            // guard, so the version cannot move between the acquire and
            // this read.
            let version = self.mgr.version(slot);
            drop(guard);
            if !acq.is_hit() {
                if let Some(tiers) = self.tiers.get() {
                    // Spill: the victim's bytes are still in the slot
                    // (nothing writes until this lease does) and the pin
                    // plus unpublished phase make us its exclusive owner.
                    if let Acquire::Evicted { victim, victim_ready: true, .. } = acq {
                        tiers.offer(victim, self.clv(slot), self.scale(slot));
                    }
                    // Promotion: answer the miss from the file if possible.
                    // SAFETY: same exclusivity a ComputeLease certifies —
                    // the slot is mapped to `clv`, pinned, unpublished.
                    let (clv_buf, scale_buf) = unsafe { self.slot_raw_mut(slot) };
                    if tiers.fetch_into(clv, clv_buf, scale_buf) {
                        self.mgr.mark_ready(slot);
                        return Ok(Lease::Ready(ReadLease { arena: self, clv, slot }));
                    }
                }
                return Ok(Lease::Compute(ComputeLease { arena: self, clv, slot }));
            }
            // Resident but possibly still computing in another thread —
            // the pin forbids remapping, so the wait is on this CLV's own
            // data. It returns when the planner publishes, when the slot
            // is poisoned (version bump), or on watchdog timeout.
            match self.mgr.wait_ready_at(slot, version) {
                Ok(()) if self.mgr.is_ready(slot) => {
                    // Published while we hold a pin: the mapping is
                    // stable (only unpublished slots can be poisoned,
                    // and pinned slots are never remapped).
                    return Ok(Lease::Ready(ReadLease { arena: self, clv, slot }));
                }
                Ok(()) => {
                    // Woken by a poison: the mapping is gone. Drop the
                    // pin (freeing the slot once every waiter drains)
                    // and retry from the top.
                    let _ = self.mgr.unpin(slot);
                }
                Err(e) => {
                    let _ = self.mgr.unpin(slot);
                    return Err(e);
                }
            }
        }
    }

    /// Bytes held by the CLV and scaler buffers — the quantity the paper's
    /// `--maxmem` budget controls.
    pub fn bytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<f64>()
            + self.scales.len() * std::mem::size_of::<u32>()
    }

    /// Bytes one slot costs, for budget planning.
    pub fn bytes_per_slot(clv_len: usize, patterns: usize) -> usize {
        clv_len * std::mem::size_of::<f64>() + patterns * std::mem::size_of::<u32>()
    }
}

/// Outcome of [`SlotArena::acquire_compute`].
pub enum Lease<'a> {
    /// The CLV was resident and published; read away.
    Ready(ReadLease<'a>),
    /// The CLV needs computing; the holder owns the slot's write phase.
    Compute(ComputeLease<'a>),
}

impl<'a> Lease<'a> {
    /// The leased slot.
    pub fn slot(&self) -> SlotId {
        match self {
            Lease::Ready(l) => l.slot(),
            Lease::Compute(l) => l.slot(),
        }
    }
}

/// Shared lease on one published CLV: holds a pin, so the slot can be
/// neither evicted nor rewritten while the lease lives. Many read leases
/// on the same slot coexist.
pub struct ReadLease<'a> {
    arena: &'a SlotArena,
    clv: ClvKey,
    slot: SlotId,
}

impl<'a> ReadLease<'a> {
    /// The leased logical CLV.
    pub fn key(&self) -> ClvKey {
        self.clv
    }

    /// The physical slot holding it.
    pub fn slot(&self) -> SlotId {
        self.slot
    }

    /// The CLV data.
    pub fn clv(&self) -> &[f64] {
        self.arena.clv(self.slot)
    }

    /// The scaler counts.
    pub fn scale(&self) -> &[u32] {
        self.arena.scale(self.slot)
    }
}

impl Drop for ReadLease<'_> {
    fn drop(&mut self) {
        let _ = self.arena.mgr.unpin(self.slot);
    }
}

/// Exclusive write lease on one slot whose CLV is being (re)computed.
/// The holder fills the buffers via [`ComputeLease::target`], then
/// publishes with [`ComputeLease::finish`]. Dropping without finishing —
/// which happens when the computing thread panics mid-closure — **poisons
/// the slot** ([`SlotManager::poison`]): the mapping is torn down so the
/// half-written data can never be read, waiters blocked on the publish
/// latch wake and recompute the CLV themselves, and the slot returns to
/// the free list once their pins drain.
pub struct ComputeLease<'a> {
    arena: &'a SlotArena,
    clv: ClvKey,
    slot: SlotId,
}

impl<'a> ComputeLease<'a> {
    /// The leased logical CLV.
    pub fn key(&self) -> ClvKey {
        self.clv
    }

    /// The physical slot assigned to it.
    pub fn slot(&self) -> SlotId {
        self.slot
    }

    /// The buffers to fill.
    pub fn target(&mut self) -> (&mut [f64], &mut [u32]) {
        // SAFETY: the lease owns the slot's unpublished Computing phase:
        // no reader can lease it (pin_if_ready refuses) and no other
        // writer can claim it (it is mapped and pinned).
        unsafe { self.arena.slot_raw_mut(self.slot) }
    }

    /// Publishes the computed data, downgrading to a read lease (the pin
    /// carries over).
    pub fn finish(self) -> ReadLease<'a> {
        let lease = ReadLease { arena: self.arena, clv: self.clv, slot: self.slot };
        self.arena.mgr.mark_ready(self.slot);
        std::mem::forget(self); // pin ownership moved into `lease`
        lease
    }
}

impl Drop for ComputeLease<'_> {
    fn drop(&mut self) {
        // Abandoned mid-compute (typically a panic unwind): the buffers
        // hold garbage, so the slot must NOT be published. Poisoning
        // consumes this lease's pin.
        self.arena.mgr.poison(self.slot);
    }
}

impl std::fmt::Debug for SlotArena {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SlotArena")
            .field("manager", &self.mgr)
            .field("clv_len", &self.clv_len)
            .field("bytes", &self.bytes())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::Fifo;

    fn arena(n_clvs: usize, n_slots: usize) -> SlotArena {
        SlotArena::new(n_clvs, n_slots, 8, 2, Box::new(Fifo::new()))
    }

    #[test]
    fn write_then_read() {
        let mut a = arena(4, 2);
        let s = a.acquire(ClvKey(0)).unwrap().slot();
        {
            let (clv, scale) = a.clv_mut(s);
            clv.fill(1.5);
            scale.fill(3);
        }
        assert!(a.clv(s).iter().all(|&v| v == 1.5));
        assert!(a.scale(s).iter().all(|&v| v == 3));
    }

    #[test]
    fn compute_view_disjoint() {
        let mut a = arena(4, 3);
        let s0 = a.acquire(ClvKey(0)).unwrap().slot();
        let s1 = a.acquire(ClvKey(1)).unwrap().slot();
        let s2 = a.acquire(ClvKey(2)).unwrap().slot();
        {
            let (clv, _) = a.clv_mut(s0);
            clv.fill(2.0);
        }
        {
            let (clv, _) = a.clv_mut(s1);
            clv.fill(3.0);
        }
        let view = a.compute_view(s2, &[s0, s1]);
        for i in 0..8 {
            view.target_clv[i] = view.children[0].0[i] * view.children[1].0[i];
        }
        assert!(a.clv(s2).iter().all(|&v| v == 6.0));
    }

    #[test]
    #[should_panic(expected = "aliases")]
    fn compute_view_rejects_aliasing() {
        let a = arena(4, 2);
        let s = a.acquire(ClvKey(0)).unwrap().slot();
        let _ = a.compute_view(s, &[s]);
    }

    #[test]
    fn bytes_accounting() {
        let a = SlotArena::new(10, 5, 100, 25, Box::new(Fifo::new()));
        assert_eq!(a.bytes(), 5 * 100 * 8 + 5 * 25 * 4);
        assert_eq!(SlotArena::bytes_per_slot(100, 25), 900);
    }

    #[test]
    fn lease_roundtrip() {
        let a = arena(6, 2);
        // Miss → compute lease; fill and publish.
        let lease = a.acquire_compute(ClvKey(2)).unwrap();
        let Lease::Compute(mut c) = lease else { panic!("expected compute lease") };
        assert!(a.acquire_read(ClvKey(2)).is_none(), "unpublished CLV must not read-lease");
        let (clv, scale) = c.target();
        clv.fill(7.0);
        scale.fill(1);
        let r = c.finish();
        assert!(r.clv().iter().all(|&v| v == 7.0));
        drop(r);
        // Now resident + published → read lease; pin blocks eviction.
        let r = a.acquire_read(ClvKey(2)).expect("published CLV read-leases");
        assert_eq!(a.manager().pin_count(r.slot()), 1);
        assert!(r.scale().iter().all(|&v| v == 1));
        drop(r);
        assert_eq!(a.manager().n_pinned(), 0);
        a.manager().check_invariants().unwrap();
    }

    #[test]
    fn acquire_compute_hit_returns_ready() {
        let a = arena(6, 2);
        let Lease::Compute(c) = a.acquire_compute(ClvKey(1)).unwrap() else {
            panic!("first acquire must miss")
        };
        drop(c.finish());
        let lease = a.acquire_compute(ClvKey(1)).unwrap();
        match &lease {
            Lease::Ready(r) => assert_eq!(r.key(), ClvKey(1)),
            Lease::Compute(_) => panic!("resident CLV must not re-compute"),
        }
        drop(lease);
    }

    #[test]
    fn dropped_compute_lease_poisons_the_slot() {
        let a = arena(6, 2);
        let Lease::Compute(c) = a.acquire_compute(ClvKey(3)).unwrap() else { panic!() };
        let slot = c.slot();
        drop(c); // abandoned: mapping torn down, garbage never published
        assert!(!a.manager().is_ready(slot), "garbage must not be published");
        assert_eq!(a.manager().lookup(ClvKey(3)), None, "mapping must be gone");
        assert_eq!(a.manager().pin_count(slot), 0);
        a.manager().check_invariants().unwrap();
        // The slot is reclaimable: the same CLV can be acquired afresh.
        let Lease::Compute(mut c) = a.acquire_compute(ClvKey(3)).unwrap() else {
            panic!("poisoned CLV must miss, not hit")
        };
        c.target().0.fill(2.0);
        let r = c.finish();
        assert!(r.clv().iter().all(|&v| v == 2.0));
    }

    #[test]
    fn panicking_compute_closure_leaves_arena_usable() {
        // The lease-poisoning regression: a worker panics mid-compute; the
        // slot must be reclaimed and a later acquire_compute on the SAME
        // CLV must succeed with freshly computed data.
        let a = arena(6, 2);
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let Lease::Compute(mut c) = a.acquire_compute(ClvKey(1)).unwrap() else { panic!() };
            c.target().0.fill(666.0); // half-written garbage
            panic!("injected compute failure");
        }));
        assert!(panicked.is_err());
        a.manager().check_invariants().unwrap();
        assert_eq!(a.manager().n_pinned(), 0, "the panicked lease's pin must drain");
        let Lease::Compute(mut c) = a.acquire_compute(ClvKey(1)).unwrap() else {
            panic!("CLV 1 must need recomputing after the poison")
        };
        c.target().0.fill(9.0);
        let r = c.finish();
        assert!(r.clv().iter().all(|&v| v == 9.0), "reader must see the recomputed data");
    }

    #[test]
    fn waiter_on_poisoned_slot_recomputes() {
        // A concurrent acquire_compute blocked on a computing slot must
        // wake on the poison and transparently recompute rather than hang
        // or read garbage.
        use std::sync::Arc;
        let a = Arc::new(arena(6, 2));
        let Lease::Compute(c) = a.acquire_compute(ClvKey(2)).unwrap() else { panic!() };
        let a2 = Arc::clone(&a);
        let waiter = std::thread::spawn(move || {
            let lease = a2.acquire_compute(ClvKey(2)).unwrap();
            match lease {
                Lease::Ready(_) => panic!("waiter must not read the poisoned data"),
                Lease::Compute(mut c2) => {
                    c2.target().0.fill(5.0);
                    let r = c2.finish();
                    assert!(r.clv().iter().all(|&v| v == 5.0));
                }
            }
        });
        std::thread::sleep(std::time::Duration::from_millis(20));
        drop(c); // poison while the waiter is blocked
        waiter.join().unwrap();
        a.manager().check_invariants().unwrap();
        assert_eq!(a.manager().n_pinned(), 0);
    }

    #[test]
    fn concurrent_compute_and_read_distinct_slots() {
        use std::sync::Arc;
        let a = Arc::new(arena(8, 3));
        let Lease::Compute(mut c) = a.acquire_compute(ClvKey(0)).unwrap() else { panic!() };
        c.target().0.fill(4.0);
        drop(c.finish());
        // Hold an unfinished compute lease on CLV 1...
        let Lease::Compute(c1) = a.acquire_compute(ClvKey(1)).unwrap() else { panic!() };
        // ...while another thread freely read-leases CLV 0.
        let a2 = Arc::clone(&a);
        std::thread::spawn(move || {
            let r = a2.acquire_read(ClvKey(0)).expect("reader of another slot never blocks");
            assert!(r.clv().iter().all(|&v| v == 4.0));
        })
        .join()
        .unwrap();
        drop(c1);
        a.manager().check_invariants().unwrap();
    }
}
