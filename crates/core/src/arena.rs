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
//! plan lock and pins replace the borrow checker:
//!
//! * a slot's data may be **written** ([`SlotArena::compute_view`]) only
//!   by the executing plan whose schedule installed the mapping, under
//!   [`SlotManager::plan_guard`] — so there is one writer per store at a
//!   time;
//! * a slot's data may be **read** ([`SlotArena::clv`]/[`SlotArena::
//!   scale`]) by the executing plan, or by anyone holding a pin on a
//!   slot whose plan has finished.
//!
//! Pins are taken only while planning, under the plan guard, and a
//! pinned slot is never remapped, so a pinned reader never meets a
//! writer. `phylo_engine`'s `ManagedStore` is the one user: under the
//! plan guard `ensure_resident` plans and pins and `exec::execute_ops`
//! writes; `release` unpins (DESIGN.md §6).

use std::cell::UnsafeCell;
use std::sync::{Arc, OnceLock};

use crate::error::AmcError;
use crate::slots::{SlotId, SlotManager, SlotStats};
use crate::strategy::ReplacementStrategy;
use crate::tier::TieredStore;

/// Interior-mutable storage shared across threads; all access goes
/// through raw pointers under the protocol above.
struct SyncBuf<T>(UnsafeCell<Vec<T>>);

// SAFETY: `SyncBuf` is a plain buffer; synchronization of access is the
// arena protocol's responsibility (plan lock + pins), not the type's. `T` is `Send + Sync` plain-old-data here (f64/u32).
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
    /// Optional CLV spill file ([`SlotArena::set_tiers`]).
    tiers: OnceLock<Arc<TieredStore>>,
}

/// Disjoint access to a compute target and its resident children.
pub struct ComputeView<'a> {
    /// The target CLV buffer to fill.
    pub target_clv: &'a mut [f64],
    /// The target's per-pattern scaler counts to fill.
    pub target_scale: &'a mut [u32],
    /// `(clv, scale)` of each requested child slot, by position (`None`
    /// where none was requested: a compute step has at most two).
    pub children: [Option<(&'a [f64], &'a [u32])>; 2],
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
    /// ignored). The arena only carries it: the engine offers a plan's
    /// complete victims to it and tries [`TieredStore::fetch_into`]
    /// before recomputing a target.
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

    /// The CLV data of a slot.
    ///
    /// Protocol: the caller must hold a pin on `slot` and the slot must
    /// be readable (see the module docs), or the caller must otherwise be
    /// the slot's exclusive owner.
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

    /// Raw mutable slices for one slot.
    ///
    /// SAFETY: the caller must be the slot's exclusive writer (the
    /// executing plan that installed it).
    // `&self -> &mut` is the point, not an oversight: slots are disjoint
    // ranges behind raw pointers, the arena is shared between the threads
    // that prepare blocks and those that score them, and exclusivity per
    // slot comes from the protocol above (which is why this is an
    // `unsafe fn`), not from a borrow of the whole arena.
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
    /// `children`, without allocating. Panics if `target` appears among
    /// `children` (a compute step never reads its own output).
    ///
    /// Protocol: the caller must be `target`'s exclusive writer and every
    /// child must hold its complete CLV — the shape an FPA plan executing
    /// its ops in order guarantees.
    pub fn compute_view(&self, target: SlotId, children: [Option<SlotId>; 2]) -> ComputeView<'_> {
        assert!(
            children.iter().all(|&c| c != Some(target)),
            "compute target {target:?} aliases a child slot"
        );
        // SAFETY: slots are disjoint, fixed-size ranges of `data` and
        // `scales`; `target` is distinct from every child (asserted above),
        // so one mutable and many shared borrows never alias; the protocol
        // above rules out concurrent writers to any of them.
        unsafe {
            let (target_clv, target_scale) = self.slot_raw_mut(target);
            let children = children.map(|c| c.map(|c| (self.clv(c), self.scale(c))));
            ComputeView { target_clv, target_scale, children }
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
    use crate::slots::ClvKey;
    use crate::strategy::Fifo;

    fn arena(n_clvs: usize, n_slots: usize) -> SlotArena {
        SlotArena::new(n_clvs, n_slots, 8, 2, Box::new(Fifo::new()))
    }

    /// Acquires `clv` and returns its slot.
    fn slot(a: &SlotArena, clv: u32) -> SlotId {
        a.manager().acquire(ClvKey(clv)).unwrap().slot()
    }

    #[test]
    fn write_then_read() {
        let a = arena(4, 2);
        let s = slot(&a, 0);
        {
            let view = a.compute_view(s, [None, None]);
            view.target_clv.fill(1.5);
            view.target_scale.fill(3);
        }
        assert!(a.clv(s).iter().all(|&v| v == 1.5));
        assert!(a.scale(s).iter().all(|&v| v == 3));
    }

    #[test]
    fn compute_view_disjoint() {
        let a = arena(4, 3);
        let s0 = slot(&a, 0);
        let s1 = slot(&a, 1);
        let s2 = slot(&a, 2);
        a.compute_view(s0, [None, None]).target_clv.fill(2.0);
        a.compute_view(s1, [None, None]).target_clv.fill(3.0);
        let view = a.compute_view(s2, [Some(s0), Some(s1)]);
        let [Some((c0, _)), Some((c1, _))] = view.children else { panic!("two children") };
        for i in 0..8 {
            view.target_clv[i] = c0[i] * c1[i];
        }
        assert!(a.clv(s2).iter().all(|&v| v == 6.0));
    }

    #[test]
    #[should_panic(expected = "aliases")]
    fn compute_view_rejects_aliasing() {
        let a = arena(4, 2);
        let s = slot(&a, 0);
        let _ = a.compute_view(s, [None, Some(s)]);
    }

    #[test]
    fn bytes_accounting() {
        let a = SlotArena::new(10, 5, 100, 25, Box::new(Fifo::new()));
        assert_eq!(a.bytes(), 5 * 100 * 8 + 5 * 25 * 4);
        assert_eq!(SlotArena::bytes_per_slot(100, 25), 900);
    }
}
