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
//! The store is internally synchronized (`&self` API, `Sync`): a
//! `prepare` plans and executes its schedule under the slot manager's
//! plan lock, so the store has at most one computing plan at a time,
//! while readers of a prepared block's pinned CLVs touch no lock at all
//! (residency lookups are atomic loads). One thread can therefore
//! prepare a block while others read the blocks already prepared.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Mutex;

use crate::ctx::ReferenceContext;
use crate::error::EngineError;
use crate::exec;
use phylo_amc::{ensure_resident, ClvKey, ResidentSet, SlotArena, SlotId, SlotStats, StrategyKind};
use phylo_kernel::kernels::Side;
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

/// Reusable kernel working buffers, checked out per preparation. Steady
/// state allocates nothing: buffers return to the pool and their
/// capacity is retained.
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
                // Pool churn: a fresh allocation means a buffer was lost.
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
        f.debug_struct("ManagedStore").field("arena", &self.arena).finish()
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
        Ok(ManagedStore { arena, scratch: ScratchPool::new() })
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
        Ok(ManagedStore { arena, scratch: ScratchPool::new() })
    }

    /// The full-memory store (`3(n−2)` slots, EPA-NG default mode).
    pub fn full(ctx: &ReferenceContext) -> Self {
        Self::with_slots(ctx, ctx.max_slots().max(ctx.min_slots()), StrategyKind::CostBased)
            .expect("full slot count is always above the minimum")
    }

    /// Number of physical slots.
    pub fn n_slots(&self) -> usize {
        self.arena.n_slots()
    }

    /// Installs the run's cooperative shutdown token (see
    /// [`phylo_amc::CancelToken`]): once cancelled, schedule execution
    /// stops between Felsenstein steps with
    /// [`phylo_amc::AmcError::Cancelled`]. In-flight schedules are
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
    /// Safe to call from several threads at once: each call holds the
    /// slot manager's plan lock from planning through execution, so
    /// prepares of one store run one at a time, and a block's CLVs are
    /// complete when it is returned. A prepare whose schedule fails or
    /// panics is rolled back before the error or the panic leaves.
    pub fn prepare(
        &self,
        ctx: &ReferenceContext,
        dirs: &[DirEdgeId],
    ) -> Result<PreparedBlock, EngineError> {
        let mgr = self.arena.manager();
        let _plan = mgr.plan_guard();
        let mut rs = ensure_resident(ctx.tree(), dirs, mgr, ctx.register_need())?;
        if rs.ops.is_empty() {
            // Every target was resident: the plan only pinned them.
            return Ok(PreparedBlock { rs });
        }
        self.demote_evicted(&mut rs);
        let mut scratch = self.scratch.checkout();
        let run = catch_unwind(AssertUnwindSafe(|| {
            exec::execute_ops(ctx, &self.arena, &rs.ops, &mut scratch)
        }));
        self.scratch.checkin(scratch);
        match run {
            Ok(Ok(())) => {}
            Ok(Err(stopped)) => {
                self.abort_schedule(rs, stopped.at);
                return Err(stopped.error);
            }
            Err(panic) => {
                // Which op panicked is unknown: drop every target.
                self.abort_schedule(rs, 0);
                resume_unwind(panic);
            }
        }
        Ok(PreparedBlock { rs })
    }

    /// Tears down a schedule whose ops from position `ran` on never ran:
    /// releases every pin it holds and invalidates each of those ops'
    /// targets whose mapping still points at the op's slot, so that no
    /// later plan takes the slot's bytes for that CLV. The caller holds
    /// the plan guard. Not the slots' complete bits, but positions decide:
    /// an op whose slot a later op of the schedule reuses has set the bit
    /// for the later op's mapping before that op ran.
    fn abort_schedule(&self, mut rs: ResidentSet, ran: usize) {
        let mgr = self.arena.manager();
        rs.release(mgr);
        for op in &rs.ops[ran..] {
            let clv = ClvKey(op.target.0);
            if mgr.lookup(clv) == Some(op.slot) && mgr.pin_count(op.slot) == 0 {
                mgr.invalidate(clv);
            }
        }
    }

    /// Releases the pins held by a prepared block.
    pub fn release(&self, mut block: PreparedBlock) {
        block.rs.release(self.arena.manager());
    }

    /// Offers the complete CLVs a freshly planned schedule evicted to the
    /// spill file. Must run before any of the plan's ops execute: under
    /// the plan lock the victims' bytes sit untouched in their slots
    /// exactly until the ops overwrite them.
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
    /// (hence pinned and complete) block.
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
        // A planning operation: the flush must not race a computing
        // plan's table surgery or its writes. Prepared blocks' slots are
        // pinned, so they survive the flush.
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

    /// The bits of a directed edge's CLV and scalers in `store`.
    fn bits(store: &ManagedStore, ctx: &ReferenceContext, d: DirEdgeId) -> (Vec<u64>, Vec<u32>) {
        let (clv, scale) = store.clv_of(ctx, d).unwrap();
        (clv.iter().map(|v| v.to_bits()).collect(), scale.to_vec())
    }

    #[test]
    fn a_schedule_stopped_after_its_first_op_leaves_no_stale_mapping() {
        let ctx = random_ctx(32, 30, 11);
        let uncapped = ManagedStore::full(&ctx);
        // A cold store at the floor whose first schedule writes op 0's
        // slot again in a later op: op 0 marks the slot complete although
        // its mapping already names the later op's target.
        let (store, dirs) = ctx
            .tree()
            .all_edges()
            .find_map(|e| {
                let store =
                    ManagedStore::with_slots(&ctx, ctx.min_slots(), StrategyKind::CostBased)
                        .unwrap();
                let dirs = [DirEdgeId::new(e, 0), DirEdgeId::new(e, 1)];
                let mgr = store.arena().manager();
                let mut rs = ensure_resident(ctx.tree(), &dirs, mgr, ctx.register_need()).unwrap();
                let reused = rs.ops.iter().skip(1).any(|op| op.slot == rs.ops[0].slot);
                rs.release(mgr);
                for op in &rs.ops {
                    mgr.invalidate(ClvKey(op.target.0));
                }
                reused.then_some((store, dirs))
            })
            .expect("some floor schedule reuses its first op's slot");
        let mgr = store.arena().manager();
        {
            // What `prepare` does when `execute_ops` reports a stop at 1.
            let _plan = mgr.plan_guard();
            let rs = ensure_resident(ctx.tree(), &dirs, mgr, ctx.register_need()).unwrap();
            let mut scratch = KernelScratch::new();
            exec::execute_ops(&ctx, store.arena(), &rs.ops[..1], &mut scratch).unwrap();
            let unexecuted: Vec<_> = rs.ops[1..].iter().map(|op| op.target).collect();
            store.abort_schedule(rs, 1);
            for d in unexecuted {
                assert_eq!(mgr.lookup(ClvKey(d.0)), None, "{d:?} never ran but is mapped");
            }
        }
        assert_eq!(mgr.n_pinned(), 0);
        mgr.check_invariants().unwrap();
        let block = store.prepare(&ctx, &dirs).unwrap();
        let expected = uncapped.prepare(&ctx, &dirs).unwrap();
        for d in dirs {
            if !ctx.tree().is_leaf(ctx.tree().src(d)) {
                assert_eq!(bits(&store, &ctx, d), bits(&uncapped, &ctx, d), "{d:?}");
            }
        }
        store.release(block);
        uncapped.release(expected);
    }

    #[test]
    fn a_cancelled_prepare_leaves_the_store_reusable() {
        let ctx = random_ctx(16, 20, 12);
        let uncapped = ManagedStore::full(&ctx);
        let store =
            ManagedStore::with_slots(&ctx, ctx.min_slots(), StrategyKind::CostBased).unwrap();
        let token = phylo_amc::CancelToken::new();
        store.set_cancel_token(&token);
        token.cancel();
        let e = phylo_tree::EdgeId(5);
        let dirs = [DirEdgeId::new(e, 0), DirEdgeId::new(e, 1)];
        let err = store.prepare(&ctx, &dirs).unwrap_err();
        assert!(matches!(err, EngineError::Amc(phylo_amc::AmcError::Cancelled)), "{err:?}");
        let mgr = store.arena().manager();
        assert!(mgr.resident().is_empty(), "no op ran, so nothing stays mapped");
        assert_eq!(mgr.n_pinned(), 0);
        store.set_cancel_token(&phylo_amc::CancelToken::new());
        let block = store.prepare(&ctx, &dirs).unwrap();
        let expected = uncapped.prepare(&ctx, &dirs).unwrap();
        for d in dirs {
            if !ctx.tree().is_leaf(ctx.tree().src(d)) {
                assert_eq!(bits(&store, &ctx, d), bits(&uncapped, &ctx, d), "{d:?}");
            }
        }
        store.release(block);
        uncapped.release(expected);
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
