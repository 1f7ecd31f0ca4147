//! Traversal planning for the Felsenstein pruning algorithm.
//!
//! A *plan* is a post-order list of inner-origin directed edges: computing
//! the CLVs in list order guarantees that both dependencies of each entry
//! are available (either computed earlier in the list, already cached, or
//! tips). Plans are consumed by the likelihood engine and by the
//! slot-constrained FPA of the AMC crate.

use crate::ids::{DirEdgeId, EdgeId, NodeId};
use crate::tree::Tree;

/// Controls the order in which the two dependencies of a CLV are scheduled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OrderPolicy {
    /// Dependencies in adjacency order. Fine when memory is unconstrained.
    #[default]
    AsIs,
    /// Descend into the dependency with the larger Sethi–Ullman register
    /// need first. This is the order under which the `⌈log₂ n⌉ + 2` slot
    /// bound holds; always use it when slots are scarce.
    MinRegisters,
}

/// Builds the post-order plan to compute the CLV of `target`, skipping any
/// directed edge for which `cached` returns true (its CLV is assumed
/// available and pinned by the caller).
///
/// The returned list contains only inner-origin directed edges (tips need no
/// computation) and ends with `target` itself unless `target` is cached or
/// tip-origin. Iterative, so arbitrarily deep trees are safe.
pub fn plan_for(
    tree: &Tree,
    target: DirEdgeId,
    policy: OrderPolicy,
    register_need: Option<&[u8]>,
    cached: impl Fn(DirEdgeId) -> bool,
) -> Vec<DirEdgeId> {
    let mut plan = Vec::new();
    extend_plan_for(tree, target, policy, register_need, &cached, &mut plan);
    plan
}

/// Like [`plan_for`], but appends to an existing plan and treats edges
/// already in the plan as cached is the *caller's* responsibility (pass an
/// appropriate `cached` closure).
pub fn extend_plan_for(
    tree: &Tree,
    target: DirEdgeId,
    policy: OrderPolicy,
    register_need: Option<&[u8]>,
    cached: &impl Fn(DirEdgeId) -> bool,
    plan: &mut Vec<DirEdgeId>,
) {
    if tree.is_leaf(tree.src(target)) || cached(target) {
        return;
    }
    debug_assert!(
        !(policy == OrderPolicy::MinRegisters && register_need.is_none()),
        "MinRegisters ordering requires the register_need table"
    );
    // Iterative post-order: (dir_edge, expanded?) entries.
    let mut stack: Vec<(DirEdgeId, bool)> = vec![(target, false)];
    while let Some((d, expanded)) = stack.pop() {
        if expanded {
            plan.push(d);
            continue;
        }
        stack.push((d, true));
        let Some(mut deps) = tree.deps(d) else { continue };
        if let (OrderPolicy::MinRegisters, Some(need)) = (policy, register_need) {
            // Heavier dependency first means it is *popped* first, so push
            // it last.
            if need[deps[0].idx()] > need[deps[1].idx()] {
                deps.swap(0, 1);
            }
        }
        for dep in deps {
            if !tree.is_leaf(tree.src(dep)) && !cached(dep) {
                stack.push((dep, false));
            }
        }
    }
    // The DFS may visit a directed edge twice if the two dependency
    // subtrees overlap; in a tree they never do, so the plan has no
    // duplicates by construction.
}

/// Builds the plan that makes *both* orientations of `edge` available —
/// everything needed to evaluate the tree likelihood at that branch
/// (virtual root placement).
pub fn plan_for_edge(
    tree: &Tree,
    edge: EdgeId,
    policy: OrderPolicy,
    register_need: Option<&[u8]>,
    cached: impl Fn(DirEdgeId) -> bool,
) -> Vec<DirEdgeId> {
    let fwd = DirEdgeId::new(edge, 0);
    let bwd = DirEdgeId::new(edge, 1);
    let mut plan = Vec::new();
    extend_plan_for(tree, fwd, policy, register_need, &cached, &mut plan);
    extend_plan_for(tree, bwd, policy, register_need, &cached, &mut plan);
    plan
}

/// A full sweep: the plan computing every inner-origin directed edge of the
/// tree (all `3(n−2)` CLVs), as used by the full-memory placement engine.
///
/// The sweep is organized as `plan_for_edge` over every branch with a
/// shared "already planned" set, so each CLV appears exactly once and in a
/// valid order.
pub fn plan_all(tree: &Tree, policy: OrderPolicy, register_need: Option<&[u8]>) -> Vec<DirEdgeId> {
    let mut planned = vec![false; tree.n_dir_edges()];
    let mut plan = Vec::with_capacity(tree.n_inner_dir_edges());
    for edge in tree.all_edges() {
        for side in 0..2 {
            let d = DirEdgeId::new(edge, side);
            let before = plan.len();
            extend_plan_for(tree, d, policy, register_need, &|x| planned[x.idx()], &mut plan);
            for &p in &plan[before..] {
                planned[p.idx()] = true;
            }
        }
    }
    plan
}

/// One step of a [`SweepSchedule`] walk: the child edge `{u, c}`, met at
/// the stop of its parent node `u`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepStep {
    /// The branch `{u, c}`.
    pub edge: EdgeId,
    /// Whether the branch itself was asked for (always, in a full sweep);
    /// a step that is not visited only carries its `hold`.
    pub visit: bool,
    /// `up(c) = u → c`, to keep resident from this step until `c`'s own
    /// stop has read it — set exactly when the walk descends into `c`.
    pub hold: Option<DirEdgeId>,
    /// The hold to drop once this step's own hold is taken: `up(u)`, on
    /// the last step of `u`'s stop.
    pub release: Option<DirEdgeId>,
    /// The steps of `c`'s own stop, as an index range `[from, to)` into
    /// the step list this step is part of — where a held `up(c)` gets
    /// spent. Empty unless the step has a `hold`.
    pub below: (u32, u32),
}

/// `SweepSchedule` child entry: the edge `{u, c}` below a stop `u`.
#[derive(Debug, Clone, Copy)]
struct SweepKid {
    edge: EdgeId,
    /// `up(c) = u → c`.
    up: DirEdgeId,
    /// Index of `c`'s own stop; `u32::MAX` when `c` is a leaf.
    stop: u32,
}

/// The order in which slot-managed sweeps walk the branches: the tree is
/// rooted at its centroid inner node and walked top-down, one *stop* per
/// inner node `u`. A stop meets `u`'s child edges `{u, c}` — whose two
/// orientations are `down(c) = c → u` and `up(c) = u → c`, the latter one
/// Felsenstein step away from `up(u)` — then descends into the children,
/// **lightest subtree first, heaviest last**.
///
/// A walker that keeps `up(c)` resident ([`SweepStep::hold`]) until `c`'s
/// stop is over never recomputes an `up(·)`, and recomputes `down(·)` of
/// a subtree only at its ancestors' stops. A hold outlives its own stop's
/// subtree walk only while a *lighter* sibling is being walked, and every
/// such level at least halves the subtree, so at most `⌈log₂ n⌉ + 1`
/// holds are ever outstanding — and the deeper the stack of holds, the
/// smaller the subtree whose `down(·)` CLVs are being computed.
#[derive(Debug, Clone)]
pub struct SweepSchedule {
    /// Per stop, in walk order: the hold it consumes (`up(u)`, `None` at
    /// the root) and its range of `kids`, lightest first.
    stops: Vec<(Option<DirEdgeId>, std::ops::Range<u32>)>,
    kids: Vec<SweepKid>,
}

impl SweepSchedule {
    /// Roots `tree` at its centroid and lays out the walk. O(n).
    pub fn new(tree: &Tree) -> Self {
        let below = crate::stats::subtree_leaf_counts(tree);
        // Centroid: the inner node whose heaviest neighbouring subtree
        // is lightest (ties to the lower id).
        let heaviest =
            |u: NodeId| tree.dirs_from(u).map(|d| below[d.reversed().idx()]).max().unwrap_or(0);
        let root = (tree.n_leaves()..tree.n_nodes())
            .map(|i| NodeId(i as u32))
            .min_by_key(|&u| heaviest(u))
            .expect("a tree has at least one inner node");
        let mut stops = Vec::with_capacity(tree.n_inner());
        let mut kids: Vec<SweepKid> = Vec::with_capacity(tree.n_edges());
        // (node, hold it arrives with, index of its entry in `kids`).
        let mut stack: Vec<(NodeId, Option<DirEdgeId>, usize)> = vec![(root, None, usize::MAX)];
        while let Some((u, up_u, kid_slot)) = stack.pop() {
            if let Some(kid) = kids.get_mut(kid_slot) {
                kid.stop = stops.len() as u32;
            }
            let first = kids.len();
            let mut children: Vec<(NodeId, EdgeId)> = tree
                .neighbors(u)
                .iter()
                .copied()
                .filter(|&(_, e)| up_u.is_none_or(|p| p.edge() != e))
                .collect();
            children.sort_by_key(|&(c, e)| (below[tree.dir_from(e, c).idx()], e));
            for &(_, e) in &children {
                kids.push(SweepKid { edge: e, up: tree.dir_from(e, u), stop: u32::MAX });
            }
            stops.push((up_u, first as u32..kids.len() as u32));
            // Lightest child on top of the stack: it is walked first.
            for (k, &(c, _)) in children.iter().enumerate().rev() {
                if !tree.is_leaf(c) {
                    stack.push((c, Some(kids[first + k].up), first + k));
                }
            }
        }
        SweepSchedule { stops, kids }
    }

    /// The walk restricted to the branches `wanted` accepts: subtrees
    /// without a wanted branch are neither entered nor held for. With
    /// `|_| true` this is the full sweep — every branch exactly once.
    pub fn steps(&self, wanted: impl Fn(EdgeId) -> bool) -> Vec<SweepStep> {
        // live[s]: some wanted branch hangs at or below stop `s`. Stops
        // are in pre-order, so a reverse pass sees children first.
        let mut live = vec![false; self.stops.len()];
        let enters =
            |kid: &SweepKid, live: &[bool]| kid.stop != u32::MAX && live[kid.stop as usize];
        for (s, (_, range)) in self.stops.iter().enumerate().rev() {
            let kids = &self.kids[range.start as usize..range.end as usize];
            live[s] = kids.iter().any(|k| wanted(k.edge) || enters(k, &live));
        }
        let emits = |kid: &SweepKid, live: &[bool]| wanted(kid.edge) || enters(kid, live);
        // first[s]: the position of stop `s`'s first step in the list.
        let mut first = Vec::with_capacity(self.stops.len() + 1);
        first.push(0u32);
        for (s, (_, range)) in self.stops.iter().enumerate() {
            let kids = &self.kids[range.start as usize..range.end as usize];
            let emitted = if live[s] { kids.iter().filter(|k| emits(k, &live)).count() } else { 0 };
            first.push(first[s] + emitted as u32);
        }
        let mut steps = Vec::with_capacity(first[self.stops.len()] as usize);
        for (s, (up_u, range)) in self.stops.iter().enumerate() {
            if !live[s] {
                continue;
            }
            for kid in &self.kids[range.start as usize..range.end as usize] {
                let (visit, enter) = (wanted(kid.edge), enters(kid, &live));
                if visit || enter {
                    let stop = kid.stop as usize;
                    steps.push(SweepStep {
                        edge: kid.edge,
                        visit,
                        hold: enter.then_some(kid.up),
                        release: None,
                        below: if enter { (first[stop], first[stop + 1]) } else { (0, 0) },
                    });
                }
            }
            steps.last_mut().expect("a live stop emits a step").release = *up_u;
        }
        steps
    }
}

/// When a walk of a step list will next ask for each directed CLV: per CLV
/// the ascending positions of the steps that want it **directly or one
/// Felsenstein step away** — both orientations of a visited branch, a
/// step's `hold`, and the inner-origin `deps(·)` of each. One step further
/// out the planner's own choices (what is still cached when the step is
/// reached) decide whether a CLV is read at all, and counting those
/// maybe-uses as demand measured worse than ignoring them (DESIGN.md §4).
///
/// Flat: one offset per directed edge plus at most six positions per step.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct NextUse {
    /// `positions[offsets[d]..offsets[d + 1]]` are the uses of CLV `d`.
    offsets: Vec<u32>,
    positions: Vec<u32>,
}

impl NextUse {
    /// The table for one walk of `steps` over `tree`. O(steps).
    pub fn new(tree: &Tree, steps: &[SweepStep]) -> Self {
        let mut uses = Vec::with_capacity(6 * steps.len());
        for (pos, step) in steps.iter().enumerate() {
            let asked = if step.visit {
                [Some(DirEdgeId::new(step.edge, 0)), Some(DirEdgeId::new(step.edge, 1))]
            } else {
                [step.hold, None]
            };
            // Tip-origin orientations are never slotted; the deps of two
            // opposite orientations point into different nodes, so no CLV
            // is named twice by one step.
            let named = asked
                .into_iter()
                .flatten()
                .filter_map(|d| tree.deps(d).map(|deps| [d, deps[0], deps[1]]))
                .flatten()
                .filter(|&d| !tree.is_leaf(tree.src(d)));
            uses.extend(named.map(|d| (d.0, pos as u32)));
        }
        Self::from_uses(tree.n_dir_edges(), &uses)
    }

    /// The table over CLV keys `0..n_clvs` holding exactly the `(clv,
    /// position)` pairs of `uses`, which must list each CLV's positions in
    /// ascending order (CLVs may interleave) and name no key beyond
    /// `n_clvs`.
    pub fn from_uses(n_clvs: usize, uses: &[(u32, u32)]) -> Self {
        let mut offsets = vec![0u32; n_clvs + 1];
        for &(clv, _) in uses {
            offsets[clv as usize + 1] += 1;
        }
        for d in 0..n_clvs {
            offsets[d + 1] += offsets[d];
        }
        let mut fill = offsets.clone();
        let mut positions = vec![0u32; uses.len()];
        for &(clv, pos) in uses {
            positions[fill[clv as usize] as usize] = pos;
            fill[clv as usize] += 1;
        }
        NextUse { offsets, positions }
    }

    /// Every `(clv, position)` pair, by CLV and then by position.
    pub fn uses(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        (0..self.offsets.len().saturating_sub(1))
            .flat_map(move |clv| self.of(clv).iter().map(move |&pos| (clv as u32, pos)))
    }

    /// The positions at which CLV `clv` is wanted, ascending (empty for a
    /// key the table does not cover).
    pub fn of(&self, clv: usize) -> &[u32] {
        match (self.offsets.get(clv), self.offsets.get(clv + 1)) {
            (Some(&from), Some(&to)) => &self.positions[from as usize..to as usize],
            _ => &[],
        }
    }

    /// The first position at or after `cursor` that wants `clv`; `None`
    /// when the rest of the walk never does.
    pub fn next_from(&self, clv: usize, cursor: u32) -> Option<u32> {
        let uses = self.of(clv);
        uses.get(uses.partition_point(|&pos| pos < cursor)).copied()
    }
}

/// Checks that `plan` is dependency-valid: each entry's dependencies are
/// tips, cached, or appear earlier in the plan. Returns the first violating
/// entry, if any. Used by tests and debug assertions.
pub fn first_violation(
    tree: &Tree,
    plan: &[DirEdgeId],
    cached: impl Fn(DirEdgeId) -> bool,
) -> Option<DirEdgeId> {
    let mut done = vec![false; tree.n_dir_edges()];
    for &d in plan {
        if let Some(deps) = tree.deps(d) {
            for dep in deps {
                if !tree.is_leaf(tree.src(dep)) && !done[dep.idx()] && !cached(dep) {
                    return Some(d);
                }
            }
        }
        done[d.idx()] = true;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate;
    use crate::stats;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn never(_: DirEdgeId) -> bool {
        false
    }

    #[test]
    fn plan_for_tip_is_empty() {
        let t = crate::tree::tripod(["A", "B", "C"], [0.1; 3]).unwrap();
        let tip_dir = t.dir_between(crate::NodeId(0), crate::NodeId(3)).unwrap();
        assert!(plan_for(&t, tip_dir, OrderPolicy::AsIs, None, never).is_empty());
    }

    #[test]
    fn plan_covers_dependencies() {
        let mut rng = StdRng::seed_from_u64(11);
        let t = generate::yule(40, 0.1, &mut rng).unwrap();
        for d in t.inner_dir_edges() {
            let plan = plan_for(&t, d, OrderPolicy::AsIs, None, never);
            assert_eq!(*plan.last().unwrap(), d);
            assert!(first_violation(&t, &plan, never).is_none());
        }
    }

    #[test]
    fn plan_respects_cache() {
        let mut rng = StdRng::seed_from_u64(12);
        let t = generate::yule(30, 0.1, &mut rng).unwrap();
        let d = t.inner_dir_edges().last().unwrap();
        let full = plan_for(&t, d, OrderPolicy::AsIs, None, never);
        // Cache everything except the target: plan shrinks to just the
        // target.
        let cached = |x: DirEdgeId| x != d;
        let small = plan_for(&t, d, OrderPolicy::AsIs, None, cached);
        assert_eq!(small, vec![d]);
        assert!(full.len() > 1);
        assert!(first_violation(&t, &small, cached).is_none());
    }

    #[test]
    fn plan_all_is_complete_and_unique() {
        let mut rng = StdRng::seed_from_u64(13);
        for gen in [generate::yule, generate::caterpillar, generate::uniform_topology] {
            let t = gen(25, 0.1, &mut rng).unwrap();
            let plan = plan_all(&t, OrderPolicy::AsIs, None);
            assert_eq!(plan.len(), t.n_inner_dir_edges());
            let mut seen = vec![false; t.n_dir_edges()];
            for &d in &plan {
                assert!(!seen[d.idx()], "duplicate {d:?}");
                seen[d.idx()] = true;
            }
            assert!(first_violation(&t, &plan, never).is_none());
        }
    }

    #[test]
    fn min_register_order_is_valid() {
        let mut rng = StdRng::seed_from_u64(14);
        let t = generate::balanced(64, 0.1, &mut rng).unwrap();
        let need = stats::register_need(&t);
        for d in t.inner_dir_edges().take(20) {
            let plan = plan_for(&t, d, OrderPolicy::MinRegisters, Some(&need), never);
            assert!(first_violation(&t, &plan, never).is_none());
        }
    }

    #[test]
    fn sweep_meets_every_edge_once_under_a_logarithmic_spine() {
        let mut rng = StdRng::seed_from_u64(16);
        for gen in
            [generate::yule, generate::balanced, generate::caterpillar, generate::uniform_topology]
        {
            for n in [4usize, 8, 32, 256] {
                let t = gen(n, 0.1, &mut rng).unwrap();
                let steps = SweepSchedule::new(&t).steps(|_| true);
                let mut met: Vec<EdgeId> = steps.iter().map(|s| s.edge).collect();
                met.sort_unstable();
                assert_eq!(met, t.all_edges().collect::<Vec<_>>(), "n={n}");
                let mut held: Vec<DirEdgeId> = Vec::new();
                let mut deepest = 0;
                for (i, step) in steps.iter().enumerate() {
                    assert!(step.visit);
                    if let Some(up) = step.hold {
                        assert_eq!(up.edge(), step.edge);
                        // Below the root's stop, up(c) is one step away
                        // from a CLV that is held right now: up(u).
                        let deps = t.deps(up).unwrap();
                        assert!(i < 3 || deps.iter().any(|d| held.contains(d)), "n={n} step {i}");
                        held.push(up);
                        deepest = deepest.max(held.len());
                    }
                    if let Some(done) = step.release {
                        let at = held.iter().position(|&h| h == done).expect("released while held");
                        held.swap_remove(at);
                    }
                }
                assert!(held.is_empty(), "n={n}: every hold is released");
                let log2n = (usize::BITS - (n - 1).leading_zeros()) as usize;
                assert!(deepest <= log2n + 1, "n={n}: {deepest} holds");
            }
        }
    }

    #[test]
    fn pruned_sweep_keeps_only_wanted_branches_and_the_paths_to_them() {
        let mut rng = StdRng::seed_from_u64(17);
        let t = generate::yule(60, 0.1, &mut rng).unwrap();
        let schedule = SweepSchedule::new(&t);
        let wanted = |e: EdgeId| e.0 % 9 == 4;
        let steps = schedule.steps(wanted);
        let visited: Vec<EdgeId> = steps.iter().filter(|s| s.visit).map(|s| s.edge).collect();
        assert_eq!(visited.len(), t.all_edges().filter(|&e| wanted(e)).count());
        assert!(visited.iter().all(|&e| wanted(e)));
        // A step survives pruning only if it is wanted or leads somewhere.
        assert!(steps.iter().all(|s| s.visit || s.hold.is_some()));
        assert!(steps.len() < schedule.steps(|_| true).len());
        // The order is the full walk's, filtered.
        let full: Vec<EdgeId> = schedule.steps(|_| true).iter().map(|s| s.edge).collect();
        let mut cursor = full.iter();
        assert!(steps.iter().all(|s| cursor.any(|&e| e == s.edge)));
        let holds = steps.iter().filter(|s| s.hold.is_some()).count();
        assert_eq!(holds, steps.iter().filter(|s| s.release.is_some()).count());
        assert!(schedule.steps(|_| false).is_empty());
    }

    /// The CLVs step `step` asks for directly or one Felsenstein step
    /// away, spelled out the slow way.
    fn asked_at(t: &Tree, step: &SweepStep) -> Vec<DirEdgeId> {
        let mut asked: Vec<DirEdgeId> = step.hold.into_iter().collect();
        if step.visit {
            asked.extend([DirEdgeId::new(step.edge, 0), DirEdgeId::new(step.edge, 1)]);
        }
        for d in asked.clone() {
            asked.extend(t.deps(d).into_iter().flatten());
        }
        asked.retain(|&d| !t.is_leaf(t.src(d)));
        asked.sort_unstable();
        asked.dedup();
        asked
    }

    #[test]
    fn next_use_lists_each_steps_clvs_and_their_deps_and_nothing_else() {
        let mut rng = StdRng::seed_from_u64(18);
        for gen in [generate::yule, generate::caterpillar, generate::uniform_topology] {
            let t = gen(60, 0.1, &mut rng).unwrap();
            let schedule = SweepSchedule::new(&t);
            // The pruned list's positions are its own, not the full walk's.
            for steps in [schedule.steps(|_| true), schedule.steps(|e| e.0 % 7 == 2)] {
                let table = NextUse::new(&t, &steps);
                let mut expect: Vec<Vec<u32>> = vec![Vec::new(); t.n_dir_edges()];
                for (pos, step) in steps.iter().enumerate() {
                    let asked = asked_at(&t, step);
                    assert!(asked.len() <= 6);
                    for d in asked {
                        expect[d.idx()].push(pos as u32);
                    }
                }
                for d in t.all_dir_edges() {
                    assert_eq!(table.of(d.idx()), expect[d.idx()], "{d:?}");
                    assert!(table.of(d.idx()).windows(2).all(|w| w[0] < w[1]), "{d:?}");
                    for cursor in 0..=steps.len() as u32 {
                        let next = expect[d.idx()].iter().copied().find(|&p| p >= cursor);
                        assert_eq!(table.next_from(d.idx(), cursor), next, "{d:?} from {cursor}");
                    }
                }
                // The flat pairs rebuild the same table (the trace's way).
                let pairs: Vec<(u32, u32)> = table.uses().collect();
                assert_eq!(NextUse::from_uses(t.n_dir_edges(), &pairs), table);
                assert!(table.of(t.n_dir_edges() + 5).is_empty());
            }
        }
    }

    #[test]
    fn steps_know_where_their_childs_stop_is() {
        let mut rng = StdRng::seed_from_u64(19);
        let t = generate::yule(60, 0.1, &mut rng).unwrap();
        let schedule = SweepSchedule::new(&t);
        for steps in [schedule.steps(|_| true), schedule.steps(|e| e.0 % 9 == 4)] {
            for step in &steps {
                let below = &steps[step.below.0 as usize..step.below.1 as usize];
                match step.hold {
                    None => assert!(below.is_empty()),
                    Some(up) => {
                        // `c`'s stop: its child edges, ending in the step
                        // that releases `up(c)`.
                        let c = t.dst(up);
                        assert!(!below.is_empty());
                        for kid in below {
                            let e = t.edge(kid.edge);
                            assert!(e.a == c || e.b == c, "{kid:?} is not at {c:?}");
                            assert_ne!(kid.edge, step.edge);
                        }
                        assert_eq!(below.last().unwrap().release, Some(up));
                        assert!(below[..below.len() - 1].iter().all(|k| k.release.is_none()));
                    }
                }
            }
        }
    }

    #[test]
    fn plan_for_edge_covers_both_sides() {
        let mut rng = StdRng::seed_from_u64(15);
        let t = generate::yule(20, 0.1, &mut rng).unwrap();
        for e in t.all_edges() {
            let plan = plan_for_edge(&t, e, OrderPolicy::AsIs, None, never);
            assert!(first_violation(&t, &plan, never).is_none());
            for side in 0..2 {
                let d = DirEdgeId::new(e, side);
                if !t.is_leaf(t.src(d)) {
                    assert!(plan.contains(&d));
                }
            }
        }
    }
}
