//! The slot-constrained Felsenstein traversal planner.
//!
//! Given a set of target CLVs (directed edges of the reference tree), this
//! module produces a **compute schedule** that makes every target resident
//! in a slot, recomputing whatever intermediate CLVs were evicted, while
//! never exceeding the configured slot count. Pinning guarantees that a
//! CLV survives from the step that computes it to the last step that reads
//! it; the paper's invariant — the traversal always succeeds while at
//! least `⌈log₂ n⌉ + 2` slots remain unpinned — is upheld by scheduling
//! dependencies in Sethi–Ullman (heavier-subtree-first) order.
//!
//! Planning is separated from execution: [`ensure_resident`] mutates only
//! the slot *maps* and emits [`FpaOp`]s; the caller then runs the ops
//! against the [`SlotArena`](crate::SlotArena) storage with its kernels.
//! Because planning and execution process ops in the same order, the slot
//! assignments recorded in the ops are exactly the slots that hold the
//! right data at execution time.
//!
//! A manager shared between threads (DESIGN.md §6) is planned and
//! executed under its plan lock, held by the caller across both, so a
//! store has one computing plan at a time and each plan sees the
//! sequential algorithm's exact pin dance — the `⌈log₂ n⌉ + 2`
//! unpinned-slot guarantee holds per plan. The slots a schedule reads or
//! writes need no pins while its ops run: nothing else plans, evicts or
//! installs on the manager until the caller drops the lock.

use crate::error::AmcError;
use crate::slots::{Acquire, ClvKey, SlotId, SlotManager};
use phylo_tree::traversal::{extend_plan_for, OrderPolicy};
use phylo_tree::{DirEdgeId, NodeId, Tree};
use std::collections::BTreeMap;

/// Where a compute step reads one of its two inputs from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DepSource {
    /// A resident CLV in the given slot.
    Slot(SlotId),
    /// A tip: the engine supplies the leaf's encoded characters.
    Tip(NodeId),
}

/// One Felsenstein step: compute the CLV of `target` into `slot` from two
/// dependency sources.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FpaOp {
    /// The directed edge whose CLV is produced.
    pub target: DirEdgeId,
    /// The slot to write.
    pub slot: SlotId,
    /// The two inputs (orientations into the target's source node).
    pub deps: [DepSource; 2],
    /// The directed edges corresponding to `deps` (the engine needs them to
    /// select branch lengths / transition matrices).
    pub dep_edges: [DirEdgeId; 2],
}

/// Result of [`ensure_resident`]: the schedule plus where each requested
/// target lives.
#[derive(Debug, Clone, Default)]
pub struct ResidentSet {
    /// Compute steps, in execution order. Empty if everything was cached.
    pub ops: Vec<FpaOp>,
    /// Slot of every *inner-origin* requested target (tip-origin targets
    /// need no slot and are omitted), in request order.
    pub targets: Vec<(DirEdgeId, SlotId)>,
    /// Published CLVs this plan evicted, with the slot still holding
    /// their bytes. The executor may demote these to a storage tier
    /// *before* running the ops (which overwrite the slots); the list
    /// is advisory — ignoring it just means the CLVs recompute later.
    pub evicted: Vec<(ClvKey, SlotId)>,
}

impl ResidentSet {
    /// The slot holding a given target, if it was part of the request.
    pub fn slot_of(&self, d: DirEdgeId) -> Option<SlotId> {
        self.targets.iter().find(|&&(t, _)| t == d).map(|&(_, s)| s)
    }

    /// Releases the per-target pins taken by `ensure_resident` (call
    /// when done reading the targets).
    pub fn release(&mut self, mgr: &SlotManager) {
        for &(_, slot) in &self.targets {
            // A slot may appear for several targets; each got its own pin.
            let _ = mgr.unpin(slot);
        }
    }
}

/// How one schedule references a CLV (see [`ensure_resident`]).
#[derive(Debug, Clone, Copy, Default)]
struct PlanRefs {
    /// Plan entries that read it as a dependency.
    reads: u32,
    /// Request occurrences that return it as a target.
    returns: u32,
    /// Whether the plan (re)computes it.
    planned: bool,
}

impl PlanRefs {
    /// Pins it must carry from residency until its last reference.
    fn pins(&self) -> u32 {
        self.reads + self.returns
    }
}

/// Makes every CLV in `targets` resident, evicting/recomputing as needed.
///
/// * `register_need` — the table from
///   [`phylo_tree::stats::register_need`]; used to schedule the heavier
///   dependency first so the log-bound holds.
/// * Targets are pinned once each on success; release with
///   [`ResidentSet::release`].
///
/// Fails with [`AmcError::AllSlotsPinned`] when the slot budget (minus
/// prior pins) is genuinely insufficient for this tree.
///
/// A caller that shares `mgr` between threads must hold
/// [`SlotManager::plan_guard`] from this call until the returned ops
/// have run; this function does not take it.
pub fn ensure_resident(
    tree: &Tree,
    targets: &[DirEdgeId],
    mgr: &SlotManager,
    register_need: &[u8],
) -> Result<ResidentSet, AmcError> {
    // Pins this call has added (+) or consumed (−), for precise rollback
    // on error: pins other prepared blocks hold on the same slots must
    // survive it.
    let mut pin_log: Vec<(SlotId, i64)> = Vec::new();
    // Per CLV the schedule touches — plan entries, their dependencies,
    // the targets — how often it is read or returned. Ordered, so the
    // pin/touch sequence below is deterministic; sized by the plan, not
    // by the tree.
    let mut refs: BTreeMap<DirEdgeId, PlanRefs> = BTreeMap::new();
    // ---- Phase 1: static plan against the current residency. ----
    let mut plan: Vec<DirEdgeId> = Vec::new();
    for &t in targets {
        if tree.is_leaf(tree.src(t)) {
            continue;
        }
        // One pin per request occurrence.
        refs.entry(t).or_default().returns += 1;
        let before = plan.len();
        extend_plan_for(
            tree,
            t,
            OrderPolicy::MinRegisters,
            Some(register_need),
            &|d| refs.get(&d).is_some_and(|r| r.planned) || mgr.lookup(ClvKey(d.0)).is_some(),
            &mut plan,
        );
        for &p in &plan[before..] {
            refs.entry(p).or_default().planned = true;
        }
    }

    // ---- Phase 2: pin accounting. ----
    for &d in &plan {
        for dep in tree.deps(d).expect("plan entries are inner-origin") {
            if !tree.is_leaf(tree.src(dep)) {
                refs.entry(dep).or_default().reads += 1;
            }
        }
    }
    // Pin CLVs that are already resident and will be read (as deps) or
    // returned (as targets), so evictions during planning cannot corrupt
    // the schedule. The dep share of these pins is consumed one read at a
    // time during phase 3.
    for (&d, r) in &refs {
        if r.planned {
            continue; // will be (re)computed; pinned at its compute step
        }
        let slot =
            mgr.lookup(ClvKey(d.0)).expect("un-planned CLV required by the plan must be resident");
        mgr.pin_n(slot, r.pins());
        pin_log.push((slot, r.pins() as i64));
        mgr.touch(ClvKey(d.0));
    }

    // ---- Phase 3: schedule, assigning slots in execution order. ----
    let mut ops = Vec::with_capacity(plan.len());
    let mut installed: Vec<ClvKey> = Vec::with_capacity(plan.len());
    let mut evicted: Vec<(ClvKey, SlotId)> = Vec::new();
    let result: Result<(), AmcError> = (|| {
        for &d in &plan {
            let deps = tree.deps(d).expect("plan entries are inner-origin");
            let acq = mgr.acquire(ClvKey(d.0))?;
            debug_assert!(!acq.is_hit(), "plan entries are not resident");
            if let Acquire::Evicted { slot, victim, victim_ready: true } = acq {
                // The victim's bytes stay in `slot` until this plan's
                // ops execute; record it so the executor can demote the
                // payload to a storage tier first.
                evicted.push((victim, slot));
            }
            let slot = acq.slot();
            installed.push(ClvKey(d.0));
            let sources = deps.map(|dep| {
                let src_node = tree.src(dep);
                if tree.is_leaf(src_node) {
                    DepSource::Tip(src_node)
                } else {
                    let dep_slot = mgr
                        .lookup(ClvKey(dep.0))
                        .expect("dependency must be resident when scheduled");
                    DepSource::Slot(dep_slot)
                }
            });
            ops.push(FpaOp { target: d, slot, deps: sources, dep_edges: deps });
            // Pin the fresh CLV for its future reads and target pins.
            let pins = refs[&d].pins();
            mgr.pin_n(slot, pins);
            pin_log.push((slot, pins as i64));
            // Consume one read-pin from each inner dependency.
            for &dep in &deps {
                if !tree.is_leaf(tree.src(dep)) {
                    let dep_slot = mgr.lookup(ClvKey(dep.0)).expect("still resident");
                    mgr.unpin(dep_slot)?;
                    pin_log.push((dep_slot, -1));
                }
            }
        }
        Ok(())
    })();

    if let Err(e) = result {
        // The schedule will never execute, so the CLVs installed during
        // this call hold uncomputed garbage. Roll back exactly the pins
        // this call added (other blocks' pins stay intact), then drop
        // the installed mappings. No foreign pins can exist on those
        // slots: every pin is taken while planning, and plans are
        // serialized by the plan lock, so the invalidate's pin-free
        // precondition holds.
        let mut net: BTreeMap<SlotId, i64> = BTreeMap::new();
        for (slot, delta) in pin_log {
            *net.entry(slot).or_default() += delta;
        }
        for (slot, delta) in net {
            debug_assert!(delta >= 0, "rollback found pins this call never took");
            for _ in 0..delta.max(0) {
                let _ = mgr.unpin(slot);
            }
        }
        for k in installed {
            mgr.invalidate(k);
        }
        return Err(e);
    }

    let mut out_targets = Vec::with_capacity(targets.len());
    for &t in targets {
        if tree.is_leaf(tree.src(t)) {
            continue;
        }
        let slot = mgr.lookup(ClvKey(t.0)).expect("target resident after planning");
        out_targets.push((t, slot));
    }
    Ok(ResidentSet { ops, targets: out_targets, evicted })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::{CostBased, StrategyKind};
    use phylo_tree::generate;
    use phylo_tree::stats::{min_slots_bound, register_need, subtree_leaf_counts};
    use phylo_tree::traversal::{NextUse, SweepSchedule, SweepStep};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::Arc;

    /// Executes a schedule over a "hash arena": each slot holds a u64; the
    /// value of a CLV is a deterministic hash of its dependency values.
    /// Comparing against the unconstrained bottom-up DP proves the
    /// schedule reads the right data at the right time.
    fn hash_combine(a: u64, b: u64) -> u64 {
        let mut x = a.wrapping_mul(0x9E3779B97F4A7C15) ^ b.rotate_left(31);
        x ^= x >> 29;
        x = x.wrapping_mul(0xBF58476D1CE4E5B9);
        x ^ (x >> 32)
    }

    fn tip_value(n: NodeId) -> u64 {
        (n.0 as u64 + 1).wrapping_mul(0x2545F4914F6CDD1D)
    }

    fn execute(ops: &[FpaOp], tree: &Tree, slots: &mut [u64]) {
        for op in ops {
            let mut vals = [0u64; 2];
            for (k, dep) in op.deps.iter().enumerate() {
                vals[k] = match dep {
                    DepSource::Tip(n) => tip_value(*n),
                    DepSource::Slot(s) => slots[s.idx()],
                };
            }
            // deps order is fixed by dep_edges; combine must be symmetric
            // with respect to the true computation, so sort by dep edge for
            // stability.
            let (a, b) = if op.dep_edges[0].0 <= op.dep_edges[1].0 {
                (vals[0], vals[1])
            } else {
                (vals[1], vals[0])
            };
            slots[op.slot.idx()] = hash_combine(a, b);
            let _ = tree;
        }
    }

    /// Reference DP with the same dep-edge ordering convention.
    fn reference_values_ordered(tree: &Tree) -> Vec<u64> {
        let mut vals = vec![0u64; tree.n_dir_edges()];
        let plan = phylo_tree::traversal::plan_all(tree, OrderPolicy::AsIs, None);
        for d in tree.all_dir_edges() {
            if tree.is_leaf(tree.src(d)) {
                vals[d.idx()] = tip_value(tree.src(d));
            }
        }
        for d in plan {
            let deps = tree.deps(d).unwrap();
            let (a, b) = if deps[0].0 <= deps[1].0 {
                (vals[deps[0].idx()], vals[deps[1].idx()])
            } else {
                (vals[deps[1].idx()], vals[deps[0].idx()])
            };
            vals[d.idx()] = hash_combine(a, b);
        }
        vals
    }

    fn mgr_for(tree: &Tree, n_slots: usize) -> SlotManager {
        let costs: Vec<f64> = subtree_leaf_counts(tree).iter().map(|&c| c as f64).collect();
        SlotManager::new(tree.n_dir_edges(), n_slots, Box::new(CostBased::new(costs)))
    }

    #[test]
    fn min_slots_suffice_on_balanced_tree() {
        let mut rng = StdRng::seed_from_u64(21);
        for k in [3usize, 5, 7] {
            let n = 1 << k;
            let tree = generate::balanced(n, 0.1, &mut rng).unwrap();
            let need = register_need(&tree);
            let mut mgr = mgr_for(&tree, min_slots_bound(n));
            let mut slots = vec![0u64; mgr.n_slots()];
            let reference = reference_values_ordered(&tree);
            // Sweep every edge: both orientations resident, verify values.
            for e in tree.all_edges() {
                let targets = [DirEdgeId::new(e, 0), DirEdgeId::new(e, 1)];
                let mut rs = ensure_resident(&tree, &targets, &mut mgr, &need).unwrap();
                execute(&rs.ops, &tree, &mut slots);
                for &(d, slot) in &rs.targets {
                    assert_eq!(slots[slot.idx()], reference[d.idx()], "n={n} edge={e:?} dir={d:?}");
                }
                rs.release(&mut mgr);
                mgr.check_invariants().unwrap();
            }
            assert_eq!(mgr.n_pinned(), 0);
        }
    }

    #[test]
    fn various_topologies_and_slot_counts() {
        let mut rng = StdRng::seed_from_u64(22);
        for gen in [generate::yule, generate::caterpillar, generate::uniform_topology] {
            let tree = gen(33, 0.1, &mut rng).unwrap();
            let need = register_need(&tree);
            let reference = reference_values_ordered(&tree);
            let bound = min_slots_bound(33);
            for n_slots in [bound, bound + 3, tree.n_inner_dir_edges()] {
                let mut mgr = mgr_for(&tree, n_slots);
                let mut slots = vec![0u64; n_slots];
                for e in tree.all_edges() {
                    let targets = [DirEdgeId::new(e, 0), DirEdgeId::new(e, 1)];
                    let mut rs = ensure_resident(&tree, &targets, &mut mgr, &need).unwrap();
                    execute(&rs.ops, &tree, &mut slots);
                    for &(d, slot) in &rs.targets {
                        assert_eq!(slots[slot.idx()], reference[d.idx()]);
                    }
                    rs.release(&mut mgr);
                }
                mgr.check_invariants().unwrap();
            }
        }
    }

    #[test]
    fn full_slots_never_evict() {
        let mut rng = StdRng::seed_from_u64(23);
        let tree = generate::yule(20, 0.1, &mut rng).unwrap();
        let need = register_need(&tree);
        let mut mgr = mgr_for(&tree, tree.n_inner_dir_edges());
        for e in tree.all_edges() {
            let targets = [DirEdgeId::new(e, 0), DirEdgeId::new(e, 1)];
            let mut rs = ensure_resident(&tree, &targets, &mut mgr, &need).unwrap();
            rs.release(&mut mgr);
        }
        assert_eq!(mgr.stats().evictions, 0);
        // Second sweep: everything is cached, zero ops.
        let mut total_ops = 0;
        for e in tree.all_edges() {
            let targets = [DirEdgeId::new(e, 0), DirEdgeId::new(e, 1)];
            let mut rs = ensure_resident(&tree, &targets, &mut mgr, &need).unwrap();
            total_ops += rs.ops.len();
            rs.release(&mut mgr);
        }
        assert_eq!(total_ops, 0);
    }

    #[test]
    fn fewer_slots_mean_more_recomputation() {
        let mut rng = StdRng::seed_from_u64(24);
        let tree = generate::yule(64, 0.1, &mut rng).unwrap();
        let need = register_need(&tree);
        let mut ops_by_slots = Vec::new();
        for n_slots in [min_slots_bound(64), 24, 64, tree.n_inner_dir_edges()] {
            let mut mgr = mgr_for(&tree, n_slots);
            let mut total = 0usize;
            for e in tree.all_edges() {
                let targets = [DirEdgeId::new(e, 0), DirEdgeId::new(e, 1)];
                let mut rs = ensure_resident(&tree, &targets, &mut mgr, &need).unwrap();
                total += rs.ops.len();
                rs.release(&mut mgr);
            }
            ops_by_slots.push(total);
        }
        // Monotone non-increasing work with more slots.
        for w in ops_by_slots.windows(2) {
            assert!(w[0] >= w[1], "{ops_by_slots:?}");
        }
        // Full memory does each CLV exactly once.
        assert_eq!(*ops_by_slots.last().unwrap(), tree.n_inner_dir_edges());
    }

    #[test]
    fn insufficient_slots_error_and_recovery() {
        let mut rng = StdRng::seed_from_u64(25);
        let tree = generate::balanced(64, 0.1, &mut rng).unwrap();
        let need = register_need(&tree);
        // 2 slots cannot satisfy a 64-leaf balanced tree.
        let mut mgr = mgr_for(&tree, 2);
        let central = tree
            .all_edges()
            .find(|&e| !tree.is_leaf(tree.edge(e).a) && !tree.is_leaf(tree.edge(e).b))
            .unwrap();
        let targets = [DirEdgeId::new(central, 0)];
        let err = ensure_resident(&tree, &targets, &mut mgr, &need).unwrap_err();
        assert!(matches!(err, AmcError::AllSlotsPinned { .. }));
        // The manager must remain usable afterwards.
        assert_eq!(mgr.n_pinned(), 0);
        mgr.check_invariants().unwrap();
    }

    #[test]
    fn tip_targets_are_skipped() {
        let mut rng = StdRng::seed_from_u64(26);
        let tree = generate::yule(8, 0.1, &mut rng).unwrap();
        let need = register_need(&tree);
        let mut mgr = mgr_for(&tree, 8);
        // A tip-origin directed edge as target: no slot, no ops.
        let tip_dir = tree.dirs_from(NodeId(0)).next().unwrap();
        let rs = ensure_resident(&tree, &[tip_dir], &mut mgr, &need).unwrap();
        assert!(rs.ops.is_empty());
        assert!(rs.targets.is_empty());
    }

    /// What one walk of a sweep schedule cost the planner.
    #[derive(Debug, Default)]
    struct Walk {
        ops: usize,
        visited: Vec<phylo_tree::EdgeId>,
        max_holds: usize,
        pin_failures: usize,
    }

    /// Walks `steps` the way the placement executor does — the walk
    /// announced to the policy unless the store holds every CLV, one
    /// branch per batch with the cursor moved past it first, both
    /// orientations resident and checked against the reference values,
    /// `up(c)` held by an ordinary single-target request — over the
    /// planner and a hash arena only. With `overlap` the previous batch
    /// stays pinned while the next one is planned, as under async
    /// prefetch.
    fn walk_sweep(
        tree: &Tree,
        steps: &[SweepStep],
        n_slots: usize,
        holds: bool,
        overlap: bool,
    ) -> Walk {
        let need = register_need(tree);
        let reference = reference_values_ordered(tree);
        let mgr = mgr_for(tree, n_slots);
        let mut slots = vec![0u64; n_slots];
        let mut walk = Walk::default();
        let mut held: Vec<(DirEdgeId, ResidentSet)> = Vec::new();
        let mut previous: Option<ResidentSet> = None;
        if n_slots < tree.n_inner_dir_edges() {
            mgr.announce_schedule(Some(Arc::new(NextUse::new(tree, steps))));
        }
        for (i, step) in steps.iter().enumerate() {
            if step.visit {
                // Hold-only steps ride with the batch before them.
                let rest = &steps[i + 1..];
                let end = i + 1 + rest.iter().position(|s| s.visit).unwrap_or(rest.len());
                mgr.advance_cursor(end as u32);
                let targets = [DirEdgeId::new(step.edge, 0), DirEdgeId::new(step.edge, 1)];
                let rs = match ensure_resident(tree, &targets, &mgr, &need) {
                    Ok(rs) => rs,
                    Err(AmcError::AllSlotsPinned { .. }) => {
                        // The executor's last rung: holds are optional.
                        walk.pin_failures += 1;
                        for (_, mut h) in held.drain(..) {
                            h.release(&mgr);
                        }
                        ensure_resident(tree, &targets, &mgr, &need).unwrap()
                    }
                    Err(e) => panic!("{e}"),
                };
                execute(&rs.ops, tree, &mut slots);
                walk.ops += rs.ops.len();
                for &(d, slot) in &rs.targets {
                    assert_eq!(slots[slot.idx()], reference[d.idx()], "{d:?}");
                }
                walk.visited.push(step.edge);
                if let Some(mut p) = previous.replace(rs) {
                    p.release(&mgr);
                }
                if !overlap {
                    previous.take().unwrap().release(&mgr);
                }
            }
            if !holds {
                continue;
            }
            if let Some(h) = step.hold {
                match ensure_resident(tree, &[h], &mgr, &need) {
                    Ok(rs) => {
                        execute(&rs.ops, tree, &mut slots);
                        walk.ops += rs.ops.len();
                        assert_eq!(slots[rs.targets[0].1.idx()], reference[h.idx()]);
                        held.push((h, rs));
                        walk.max_holds = walk.max_holds.max(held.len());
                    }
                    Err(AmcError::AllSlotsPinned { .. }) => walk.pin_failures += 1,
                    Err(e) => panic!("{e}"),
                }
            }
            if let Some(r) = step.release {
                if let Some(i) = held.iter().position(|&(d, _)| d == r) {
                    held.swap_remove(i).1.release(&mgr);
                }
            }
        }
        if let Some(mut p) = previous {
            p.release(&mgr);
        }
        mgr.announce_schedule(None);
        assert!(held.is_empty(), "every hold has its release");
        assert_eq!(mgr.n_pinned(), 0);
        mgr.check_invariants().unwrap();
        walk
    }

    type TreeGen = fn(usize, f64, &mut StdRng) -> Result<Tree, phylo_tree::TreeError>;

    /// The sweep schedule against the planner, at the slot count the
    /// memory plan grants at the floor (`⌈log₂ n⌉ + 2` plus the pin
    /// headroom `epa_place::memplan::pin_headroom` reserves).
    #[test]
    fn sweep_schedule_holds_the_spine_within_the_floor() {
        let mut rng = StdRng::seed_from_u64(31);
        let shapes: [(&str, TreeGen); 4] = [
            ("yule", generate::yule),
            ("balanced", generate::balanced),
            ("uniform", generate::uniform_topology),
            ("caterpillar", generate::caterpillar),
        ];
        for (shape, gen) in shapes {
            for n in [16usize, 64, 256, 1024] {
                let tree = gen(n, 0.1, &mut rng).unwrap();
                let steps = SweepSchedule::new(&tree).steps(|_| true);
                let floor = min_slots_bound(n) + if n > 1000 { 8 } else { 4 };
                let mut every_edge: Vec<_> = tree.all_edges().collect();
                for overlap in [false, true] {
                    let mut w = walk_sweep(&tree, &steps, floor, true, overlap);
                    let what = format!("{shape} n={n} overlap={overlap}: {} ops", w.ops);
                    w.visited.sort_unstable();
                    every_edge.sort_unstable();
                    assert_eq!(w.visited, every_edge, "{what}: every edge exactly once");
                    assert_eq!(w.pin_failures, 0, "{what}: holds must fit the headroom");
                    let log2n = (usize::BITS - (n - 1).leading_zeros()) as usize;
                    assert!(w.max_holds <= log2n + 1, "{what}: {} holds", w.max_holds);
                    // Recomputes per CLV of the tree (1.0 = full memory):
                    // ~15 % above what next-use eviction measures
                    // (EXPERIMENTS.md, planning-only table).
                    let bound = match (shape, n) {
                        ("caterpillar", 1024) => 7.5,
                        ("caterpillar", _) => 3.5,
                        (_, 1024) => 2.6,
                        _ => 2.1,
                    };
                    let ratio = w.ops as f64 / tree.n_inner_dir_edges() as f64;
                    assert!(ratio <= bound, "{what}: {ratio:.2}× > {bound}×");
                }
                // A store that holds every CLV computes each exactly once
                // (the executor takes no holds there).
                let full = walk_sweep(&tree, &steps, tree.n_inner_dir_edges(), false, true);
                assert_eq!(full.ops, tree.n_inner_dir_edges(), "{shape} n={n} at full slots");
            }
        }
    }

    #[test]
    fn pruned_sweep_visits_exactly_the_requested_branches() {
        let mut rng = StdRng::seed_from_u64(32);
        let tree = generate::yule(256, 0.1, &mut rng).unwrap();
        let schedule = SweepSchedule::new(&tree);
        let floor = min_slots_bound(256) + 4;
        let full = walk_sweep(&tree, &schedule.steps(|_| true), floor, true, true);
        for stride in [1u32, 7, 60, 1000] {
            let wanted = |e: phylo_tree::EdgeId| e.0 % stride == 3 % stride;
            let mut w = walk_sweep(&tree, &schedule.steps(wanted), floor, true, true);
            w.visited.sort_unstable();
            let expect: Vec<_> = tree.all_edges().filter(|&e| wanted(e)).collect();
            assert_eq!(w.visited, expect, "stride {stride}");
            assert_eq!(w.pin_failures, 0, "stride {stride}");
            assert!(w.ops <= full.ops, "stride {stride}: {} > {}", w.ops, full.ops);
        }
        assert!(schedule.steps(|_| false).is_empty());
    }

    #[test]
    fn all_strategies_produce_correct_values() {
        let mut rng = StdRng::seed_from_u64(28);
        let tree = generate::yule(24, 0.1, &mut rng).unwrap();
        let need = register_need(&tree);
        let reference = reference_values_ordered(&tree);
        let costs: Vec<f64> = subtree_leaf_counts(&tree).iter().map(|&c| c as f64).collect();
        for kind in StrategyKind::all() {
            let strat = kind.build(Some(costs.clone()));
            let n_slots = min_slots_bound(24) + 2;
            let mut mgr = SlotManager::new(tree.n_dir_edges(), n_slots, strat);
            let mut slots = vec![0u64; n_slots];
            for e in tree.all_edges() {
                let targets = [DirEdgeId::new(e, 0), DirEdgeId::new(e, 1)];
                let mut rs = ensure_resident(&tree, &targets, &mut mgr, &need).unwrap();
                execute(&rs.ops, &tree, &mut slots);
                for &(d, slot) in &rs.targets {
                    assert_eq!(slots[slot.idx()], reference[d.idx()], "strategy {kind}");
                }
                rs.release(&mut mgr);
            }
        }
    }
}
