//! CLV storage policies.
//!
//! A [`ManagedStore`] holds the reference tree's directional CLVs in an AMC
//! slot arena. The two operating points of the paper fall out of the slot
//! count:
//!
//! * `ManagedStore::full` — one slot per CLV (`3(n−2)`), EPA-NG's default
//!   memory layout: after a warm-up sweep nothing is ever recomputed;
//! * `ManagedStore::with_slots` — any budget down to `⌈log₂ n⌉ + 2`,
//!   where CLVs are recomputed on demand under the chosen replacement
//!   strategy.
//!
//! The protocol is *prepare → read → release*: `prepare` makes a set of
//! directed edges resident and pins them, `side` hands out kernel-ready
//! views, `release` unpins.
//!
//! The store is internally synchronized (`&self` API, `Sync`): planning
//! is serialized by the slot manager's plan lock, execution runs
//! lock-free under execution pins, and readers of a prepared block's
//! pinned CLVs touch no lock at all (residency lookups are atomic
//! loads). Distinct blocks can therefore be prepared and read by
//! different threads concurrently; kernel scratch buffers come from an
//! internal pool so concurrent recomputations do not contend on them.

use std::sync::Mutex;

use crate::ctx::ReferenceContext;
use crate::error::EngineError;
use crate::exec;
use phylo_amc::{ensure_resident, ClvKey, ResidentSet, SlotArena, SlotId, SlotStats, StrategyKind};
use phylo_kernel::kernels::Side;
use phylo_kernel::sitepar::{PoolStats, SiteParPool};
use phylo_kernel::{KernelScratch, TipTable};
use phylo_tree::{DirEdgeId, NodeId};

/// One side of a branch, as stored: either a leaf (tips are not slotted)
/// or a resident CLV.
#[derive(Debug, Clone, Copy)]
pub enum EdgeSide {
    /// The side is a single leaf.
    Tip(NodeId),
    /// The side's CLV is resident in this slot.
    Resident(SlotId),
}

/// Reusable kernel working buffers, checked out per preparation so
/// concurrent recomputations each get their own set. Steady state
/// allocates nothing: buffers return to the pool and their capacity is
/// retained.
struct ScratchPool {
    pool: Mutex<Vec<KernelScratch>>,
}

impl ScratchPool {
    fn new() -> Self {
        ScratchPool { pool: Mutex::new(vec![KernelScratch::new()]) }
    }

    fn checkout(&self) -> KernelScratch {
        phylo_obs::counter!("engine.scratch.checkouts").inc();
        match self.pool.lock().unwrap_or_else(|e| e.into_inner()).pop() {
            Some(s) => s,
            None => {
                // Pool churn: a fresh allocation means a buffer was lost
                // or more preparations run concurrently than ever before.
                phylo_obs::counter!("engine.scratch.allocs").inc();
                KernelScratch::new()
            }
        }
    }

    fn checkin(&self, scratch: KernelScratch) {
        if phylo_faults::fire("engine::scratch_lost") {
            // Simulates scratch-pool exhaustion: the buffer is dropped
            // instead of returned. Recovery is built in — the next
            // checkout simply allocates a fresh one.
            phylo_obs::counter!("engine.scratch.lost").inc();
            drop(scratch);
            return;
        }
        self.pool.lock().unwrap_or_else(|e| e.into_inner()).push(scratch);
    }
}

/// Slot-managed directional CLV store for a reference tree.
pub struct ManagedStore {
    arena: SlotArena,
    /// Across-site chunks used when recomputing CLVs (1 = serial).
    compute_threads: usize,
    /// Persistent site-parallel worker pool: created (once) by
    /// [`ManagedStore::set_compute_threads`], parked between kernel
    /// calls, so per-op parallelism never spawns threads.
    sitepar: Option<SiteParPool>,
    /// Kernel working buffers, reused across every recomputation this
    /// store performs (only the generic kernel fallback touches them).
    scratch: ScratchPool,
}

/// A pinned, resident set of directed edges returned by
/// [`ManagedStore::prepare`]. Multiple blocks may be outstanding at once
/// (current + prefetched); each must be returned via
/// [`ManagedStore::release`].
#[derive(Debug)]
pub struct PreparedBlock {
    rs: ResidentSet,
}

impl PreparedBlock {
    /// Number of compute steps this preparation needed (0 = fully cached).
    pub fn ops(&self) -> usize {
        self.rs.ops.len()
    }
}

/// Alias kept for API clarity where "any storage policy" is meant.
pub type ClvStore = ManagedStore;

/// Full-memory store: a managed store with one slot per CLV.
pub type FullStore = ManagedStore;

impl std::fmt::Debug for ManagedStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ManagedStore")
            .field("arena", &self.arena)
            .field("compute_threads", &self.compute_threads)
            .finish()
    }
}

impl ManagedStore {
    /// A store with an explicit slot budget and replacement strategy.
    pub fn with_slots(
        ctx: &ReferenceContext,
        n_slots: usize,
        strategy: StrategyKind,
    ) -> Result<Self, EngineError> {
        let min = ctx.min_slots();
        if n_slots < min {
            return Err(EngineError::Amc(phylo_amc::AmcError::TooFewSlots {
                requested: n_slots,
                minimum: min,
            }));
        }
        let n_slots = n_slots.min(ctx.max_slots().max(min));
        let costs = strategy.needs_costs().then(|| ctx.cost_table());
        let arena = SlotArena::try_new(
            ctx.tree().n_dir_edges(),
            n_slots,
            ctx.layout().clv_len(),
            ctx.layout().patterns,
            strategy.build(costs),
        )?;
        Ok(ManagedStore { arena, compute_threads: 1, sitepar: None, scratch: ScratchPool::new() })
    }

    /// A store with a caller-supplied replacement strategy — the paper's
    /// customization point ("a generic replacement strategy interface via
    /// a set of callback functions", §IV).
    pub fn with_strategy(
        ctx: &ReferenceContext,
        n_slots: usize,
        strategy: Box<dyn phylo_amc::ReplacementStrategy>,
    ) -> Result<Self, EngineError> {
        let min = ctx.min_slots();
        if n_slots < min {
            return Err(EngineError::Amc(phylo_amc::AmcError::TooFewSlots {
                requested: n_slots,
                minimum: min,
            }));
        }
        let n_slots = n_slots.min(ctx.max_slots().max(min));
        let arena = SlotArena::try_new(
            ctx.tree().n_dir_edges(),
            n_slots,
            ctx.layout().clv_len(),
            ctx.layout().patterns,
            strategy,
        )?;
        Ok(ManagedStore { arena, compute_threads: 1, sitepar: None, scratch: ScratchPool::new() })
    }

    /// The full-memory store (`3(n−2)` slots, EPA-NG default mode).
    pub fn full(ctx: &ReferenceContext) -> Self {
        Self::with_slots(ctx, ctx.max_slots().max(ctx.min_slots()), StrategyKind::CostBased)
            .expect("full slot count is always above the minimum")
    }

    /// Sets the number of chunks used for across-site parallel CLV
    /// recomputation (the paper's Fig. 7 mode). 1 = serial. For `n > 1`
    /// this creates the store's persistent [`SiteParPool`] once; workers
    /// park between kernel calls, so changing the count mid-run is the
    /// only operation that (re)spawns threads.
    pub fn set_compute_threads(&mut self, n: usize) {
        let n = n.max(1);
        if n != self.compute_threads || (n > 1) != self.sitepar.is_some() {
            self.sitepar = (n > 1).then(|| SiteParPool::new(n));
        }
        self.compute_threads = n;
    }

    /// Counters of the store's site-parallel pool (zeros when the store
    /// computes serially and owns no pool).
    pub fn sitepar_stats(&self) -> PoolStats {
        self.sitepar.as_ref().map(|p| p.stats()).unwrap_or_default()
    }

    /// Number of physical slots.
    pub fn n_slots(&self) -> usize {
        self.arena.n_slots()
    }

    /// Sets the watchdog deadline for publish-latch waits (see
    /// [`phylo_amc::SlotManager::set_wait_timeout`]).
    pub fn set_wait_timeout(&self, timeout: std::time::Duration) {
        self.arena.manager().set_wait_timeout(timeout);
    }

    /// Installs the run's cooperative shutdown token (see
    /// [`phylo_amc::CancelToken`]): once cancelled, publish-latch waits
    /// unblock and schedule execution stops between Felsenstein steps
    /// with [`phylo_amc::AmcError::Cancelled`]. In-flight schedules are
    /// aborted through the normal failure path, so the store remains
    /// consistent and reusable.
    pub fn set_cancel_token(&self, token: &phylo_amc::CancelToken) {
        self.arena.manager().set_cancel_token(token);
    }

    /// Arms a slot-access trace recorder on the slot manager: every
    /// subsequent table operation appends one event in serialization
    /// order (see `phylo_obs::slottrace`). Install it before traffic
    /// starts so the offline replay sees the whole run.
    pub fn set_slot_trace(&self, trace: std::sync::Arc<phylo_obs::slottrace::SlotTrace>) {
        self.arena.manager().set_slot_trace(Some(trace));
    }

    /// Slot traffic counters (hits/misses/evictions).
    pub fn stats(&self) -> SlotStats {
        self.arena.stats()
    }

    /// Bytes held by the slot storage (the `--maxmem`-controlled term).
    pub fn bytes(&self) -> usize {
        self.arena.bytes()
    }

    /// Makes every directed edge in `dirs` resident and pinned, computing
    /// whatever the slot state requires. The returned block keeps the CLVs
    /// pinned; hand it back to [`Self::release`] when done reading.
    /// Multiple blocks may be outstanding (e.g. current + prefetched),
    /// provided enough slots stay unpinned for further traversals.
    ///
    /// Safe to call from several threads at once: planners serialize on
    /// the slot manager's plan lock, executions overlap. Under a tight
    /// slot budget a concurrent caller may get `AllSlotsPinned` while
    /// another plan's working set is pinned — that is a retryable
    /// condition, not a deadlock (the other plan always completes).
    pub fn prepare(
        &self,
        ctx: &ReferenceContext,
        dirs: &[DirEdgeId],
    ) -> Result<PreparedBlock, EngineError> {
        let mut rs = ensure_resident(ctx.tree(), dirs, self.arena.manager(), ctx.register_need())?;
        self.demote_evicted(&mut rs);
        let mut scratch = self.scratch.checkout();
        let par = self.sitepar.as_ref().map(|pool| (pool, self.compute_threads));
        let run = exec::execute_ops(ctx, &self.arena, &rs.ops, par, &mut scratch);
        self.scratch.checkin(scratch);
        if let Err(e) = run {
            self.abort_schedule(rs);
            return Err(e);
        }
        rs.release_exec(self.arena.manager());
        self.sync_targets(&rs)?;
        Ok(PreparedBlock { rs })
    }

    /// Tears down a schedule that will never finish executing: releases
    /// every pin it holds and, under the plan guard, invalidates its
    /// installed-but-unpublished targets so a later plan does not treat
    /// them as resident and wait on a publish that will never come.
    /// Slots another plan has meanwhile pinned are left alone — that
    /// plan's own bounded wait surfaces the failure.
    fn abort_schedule(&self, mut rs: phylo_amc::ResidentSet) {
        let mgr = self.arena.manager();
        rs.release(mgr);
        let _plan = mgr.plan_guard();
        for op in &rs.ops {
            let clv = ClvKey(op.target.0);
            if mgr.lookup(clv) == Some(op.slot)
                && !mgr.is_ready(op.slot)
                && mgr.pin_count(op.slot) == 0
            {
                mgr.invalidate(clv);
            }
        }
    }

    /// Blocks until every target of `rs` is published. Targets this plan
    /// computed itself already are; a hit target still being computed by
    /// an earlier, concurrent plan is pinned (so it cannot be remapped)
    /// and that plan's lock-free execution always publishes it.
    fn sync_targets(&self, rs: &ResidentSet) -> Result<(), EngineError> {
        for &(_, slot) in &rs.targets {
            self.arena.manager().wait_ready(slot)?;
        }
        Ok(())
    }

    /// Releases the pins held by a prepared block.
    pub fn release(&self, mut block: PreparedBlock) {
        block.rs.release(self.arena.manager());
    }

    /// Offers the published CLVs a freshly planned schedule evicted to
    /// the spill file, outside the plan lock. Must run before any of the
    /// plan's ops execute: the victims' bytes sit untouched in their
    /// (execution-pinned, unpublished) slots exactly until the ops
    /// overwrite them.
    fn demote_evicted(&self, rs: &mut phylo_amc::ResidentSet) {
        if rs.evicted.is_empty() {
            return;
        }
        let Some(tiers) = self.arena.tiers() else {
            rs.evicted.clear();
            return;
        };
        for (victim, slot) in rs.evicted.drain(..) {
            tiers.offer(victim, self.arena.clv(slot), self.arena.scale(slot));
        }
    }

    /// The stored side for a directed edge. The CLV variant requires the
    /// edge to be resident — i.e. inside a `prepare`/`release` window that
    /// included it. Lock-free.
    pub fn side(&self, ctx: &ReferenceContext, d: DirEdgeId) -> EdgeSide {
        let node = ctx.tree().src(d);
        if ctx.tree().is_leaf(node) {
            return EdgeSide::Tip(node);
        }
        let slot = self
            .arena
            .manager()
            .lookup(ClvKey(d.0))
            .expect("side() requires the directed edge to be prepared");
        EdgeSide::Resident(slot)
    }

    /// A kernel-ready [`Side`] view of a directed edge `d = x → y`,
    /// propagated across its own branch: the transition matrices of
    /// `d.edge()`, built into the caller's `pmatrix` (`rates × states²`),
    /// and for a leaf its tip rows, built from them into the caller's
    /// `tip`. This is the "everything beyond the branch" term of an edge
    /// likelihood. Lock-free: the caller must hold the edge in a prepared
    /// (hence pinned and published) block.
    pub fn kernel_side<'a>(
        &'a self,
        ctx: &'a ReferenceContext,
        d: DirEdgeId,
        pmatrix: &'a mut [f64],
        tip: &'a mut TipTable,
    ) -> Side<'a> {
        ctx.model().transition_matrices(ctx.tree().edge_length(d.edge()), pmatrix);
        match self.side(ctx, d) {
            EdgeSide::Tip(node) => {
                let (masks, codes) = (ctx.alphabet().state_masks(), ctx.tip_code_set(node));
                tip.rebuild(ctx.layout(), pmatrix, masks, codes);
                Side::Tip { table: tip, codes: ctx.tip_codes(node) }
            }
            EdgeSide::Resident(slot) => Side::Clv {
                clv: self.arena.clv(slot),
                scale: Some(self.arena.scale(slot)),
                pmatrix,
            },
        }
    }

    /// Raw CLV and scaler slices of a resident directed edge (unpropagated;
    /// the `u` term of an edge likelihood). Returns `None` for tips.
    pub fn clv_of(&self, ctx: &ReferenceContext, d: DirEdgeId) -> Option<(&[f64], &[u32])> {
        match self.side(ctx, d) {
            EdgeSide::Tip(_) => None,
            EdgeSide::Resident(slot) => Some((self.arena.clv(slot), self.arena.scale(slot))),
        }
    }

    /// Drops every resident, unpinned CLV from the cache. Used as a
    /// fallback when a traversal cannot proceed because too many *cached*
    /// dependencies would need pinning at once: a fresh plan over an empty
    /// cache pins at most the Sethi–Ullman need plus the targets, which the
    /// `⌈log₂ n⌉ + 2` floor covers.
    pub fn flush_cache(&self) {
        let mgr = self.arena.manager();
        // A planning operation: the flush must not race another planner's
        // table surgery. In-flight plans' slots are execution-pinned, so
        // they survive the flush.
        let _plan = mgr.plan_guard();
        let keys: Vec<ClvKey> = mgr
            .resident()
            .into_iter()
            .filter(|&(_, slot)| mgr.pin_count(slot) == 0)
            .map(|(clv, _)| clv)
            .collect();
        for k in keys {
            mgr.invalidate(k);
        }
    }

    /// Direct access to the arena (tests, instrumentation).
    pub fn arena(&self) -> &SlotArena {
        &self.arena
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phylo_models::{dna, DiscreteGamma, SubstModel};
    use phylo_seq::alphabet::AlphabetKind;
    use phylo_seq::{compress, Msa, Sequence};
    use phylo_tree::generate;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_ctx(n: usize, sites: usize, seed: u64) -> ReferenceContext {
        let mut rng = StdRng::seed_from_u64(seed);
        let tree = generate::yule(n, 0.1, &mut rng).unwrap();
        let rows: Vec<Sequence> = (0..n)
            .map(|i| {
                let text: String = (0..sites)
                    .map(|_| "ACGT".as_bytes()[rng.gen_range(0..4usize)] as char)
                    .collect();
                Sequence::from_text(
                    tree.taxon(phylo_tree::NodeId(i as u32)),
                    AlphabetKind::Dna,
                    &text,
                )
                .unwrap()
            })
            .collect();
        let patterns = compress(&Msa::new(rows).unwrap()).unwrap();
        let model = SubstModel::new(&dna::jc69(), DiscreteGamma::none()).unwrap();
        ReferenceContext::new(tree, model, AlphabetKind::Dna.alphabet(), &patterns).unwrap()
    }

    #[test]
    fn prepare_and_read() {
        let ctx = random_ctx(12, 30, 1);
        let store = ManagedStore::full(&ctx);
        let e = phylo_tree::EdgeId(3);
        let dirs = [DirEdgeId::new(e, 0), DirEdgeId::new(e, 1)];
        let block = store.prepare(&ctx, &dirs).unwrap();
        for d in dirs {
            if !ctx.tree().is_leaf(ctx.tree().src(d)) {
                let (clv, _) = store.clv_of(&ctx, d).unwrap();
                assert!(clv.iter().any(|&v| v > 0.0));
            }
        }
        store.release(block);
    }

    #[test]
    fn min_slots_equals_full_values() {
        let ctx = random_ctx(16, 25, 2);
        let full = ManagedStore::full(&ctx);
        let tight =
            ManagedStore::with_slots(&ctx, ctx.min_slots(), StrategyKind::CostBased).unwrap();
        for e in ctx.tree().all_edges() {
            let dirs = [DirEdgeId::new(e, 0), DirEdgeId::new(e, 1)];
            let bf = full.prepare(&ctx, &dirs).unwrap();
            let bt = tight.prepare(&ctx, &dirs).unwrap();
            for d in dirs {
                if ctx.tree().is_leaf(ctx.tree().src(d)) {
                    continue;
                }
                let (a, sa) = full.clv_of(&ctx, d).unwrap();
                let (b, sb) = tight.clv_of(&ctx, d).unwrap();
                assert_eq!(a, b, "CLV mismatch at {d:?}");
                assert_eq!(sa, sb);
            }
            full.release(bf);
            tight.release(bt);
        }
        // Full store never evicts; tight store must have.
        assert_eq!(full.stats().evictions, 0);
        assert!(tight.stats().evictions > 0);
    }

    #[test]
    fn too_few_slots_rejected() {
        let ctx = random_ctx(16, 10, 3);
        let err = ManagedStore::with_slots(&ctx, 2, StrategyKind::CostBased).unwrap_err();
        assert!(matches!(err, EngineError::Amc(phylo_amc::AmcError::TooFewSlots { .. })));
    }

    #[test]
    fn full_store_caches_across_prepares() {
        let ctx = random_ctx(10, 20, 4);
        let store = ManagedStore::full(&ctx);
        let mut total_ops = 0;
        for e in ctx.tree().all_edges() {
            let block = store.prepare(&ctx, &[DirEdgeId::new(e, 0), DirEdgeId::new(e, 1)]).unwrap();
            total_ops += block.ops();
            store.release(block);
        }
        assert_eq!(total_ops, ctx.tree().n_inner_dir_edges());
        // Second sweep: all hits.
        for e in ctx.tree().all_edges() {
            let block = store.prepare(&ctx, &[DirEdgeId::new(e, 0), DirEdgeId::new(e, 1)]).unwrap();
            assert_eq!(block.ops(), 0);
            store.release(block);
        }
    }

    #[test]
    fn sitepar_compute_matches_serial() {
        let ctx = random_ctx(14, 64, 5);
        let serial =
            ManagedStore::with_slots(&ctx, ctx.min_slots(), StrategyKind::CostBased).unwrap();
        let mut par =
            ManagedStore::with_slots(&ctx, ctx.min_slots(), StrategyKind::CostBased).unwrap();
        par.set_compute_threads(4);
        for e in ctx.tree().all_edges().take(6) {
            let dirs = [DirEdgeId::new(e, 0), DirEdgeId::new(e, 1)];
            let bs = serial.prepare(&ctx, &dirs).unwrap();
            let bp = par.prepare(&ctx, &dirs).unwrap();
            for d in dirs {
                if ctx.tree().is_leaf(ctx.tree().src(d)) {
                    continue;
                }
                assert_eq!(serial.clv_of(&ctx, d).unwrap().0, par.clv_of(&ctx, d).unwrap().0);
            }
            serial.release(bs);
            par.release(bp);
        }
    }

    #[test]
    fn concurrent_prepares_agree_with_serial() {
        let ctx = random_ctx(18, 24, 7);
        let reference = ManagedStore::full(&ctx);
        let shared =
            ManagedStore::with_slots(&ctx, ctx.min_slots() + 4, StrategyKind::CostBased).unwrap();
        let edges: Vec<phylo_tree::EdgeId> = ctx.tree().all_edges().collect();
        std::thread::scope(|scope| {
            for t in 0..4usize {
                let shared = &shared;
                let reference = &reference;
                let ctx = &ctx;
                let edges = &edges;
                scope.spawn(move || {
                    for e in edges.iter().skip(t).step_by(4) {
                        let dirs = [DirEdgeId::new(*e, 0), DirEdgeId::new(*e, 1)];
                        let block = loop {
                            match shared.prepare(ctx, &dirs) {
                                Ok(b) => break b,
                                Err(EngineError::Amc(phylo_amc::AmcError::AllSlotsPinned {
                                    ..
                                })) => std::thread::yield_now(),
                                Err(e) => panic!("unexpected prepare error: {e}"),
                            }
                        };
                        let expected = reference.prepare(ctx, &dirs).unwrap();
                        for d in dirs {
                            if ctx.tree().is_leaf(ctx.tree().src(d)) {
                                continue;
                            }
                            assert_eq!(
                                shared.clv_of(ctx, d).unwrap().0,
                                reference.clv_of(ctx, d).unwrap().0,
                                "CLV mismatch at {d:?}"
                            );
                        }
                        reference.release(expected);
                        shared.release(block);
                    }
                });
            }
        });
        assert_eq!(shared.arena().manager().n_pinned(), 0);
        shared.arena().manager().check_invariants().unwrap();
    }
}
