//! Per-directed-edge subtree statistics.
//!
//! Two quantities drive the Active Management of CLVs:
//!
//! * **subtree leaf counts** — the number of leaves a CLV summarizes, used
//!   by the default replacement strategy as an approximation of the cost of
//!   recomputing that CLV from scratch (the paper, §IV);
//! * **register need** — the Sethi–Ullman number of a CLV: how many slots
//!   must be live at once to compute it with *no* caching, when the
//!   traversal always descends into the more demanding child first. Its
//!   maximum over the tree certifies that the paper's `⌈log₂ n⌉ + 2` slot
//!   bound suffices for a full Felsenstein traversal.

use crate::ids::DirEdgeId;
use crate::tree::Tree;

/// Computes, for every directed edge `x → y`, the number of leaves in the
/// subtree containing `x` when the branch `{x, y}` is cut.
///
/// Indexed by [`DirEdgeId::idx`]. Tip orientations count 1; the two
/// orientations of any edge always sum to `n`.
pub fn subtree_leaf_counts(tree: &Tree) -> Vec<u32> {
    dp_over_dir_edges(tree, |_| 1, |a, b| a + b)
}

/// Computes the Sethi–Ullman register need for every directed edge.
///
/// `need(d)` is the minimum number of CLV slots that must be concurrently
/// held to compute the CLV of `d` when no intermediate result is cached and
/// the more demanding dependency is always evaluated first. Tip orientations
/// need 0 slots (tip states are stored compactly, not in CLV slots); an
/// inner CLV over two tips needs 1 (its own slot). A need is at most
/// `⌈log₂ n⌉ + 2`, so a byte holds it.
pub fn register_need(tree: &Tree) -> Vec<u8> {
    dp_over_dir_edges(
        tree,
        |_| 0,
        |a, b| {
            let combined = if a == b { a + 1 } else { a.max(b) };
            combined.max(1)
        },
    )
}

/// Generic bottom-up DP over directed edges: `tip` seeds tip orientations,
/// `combine` merges the two dependency values of an inner orientation.
///
/// Runs in O(n) using a Kahn-style topological sweep (no recursion, so
/// 100 000-leaf caterpillars are fine).
pub fn dp_over_dir_edges<T: Copy + Default>(
    tree: &Tree,
    tip: impl Fn(DirEdgeId) -> T,
    combine: impl Fn(T, T) -> T,
) -> Vec<T> {
    let m = tree.n_dir_edges();
    let mut value = vec![T::default(); m];
    let mut missing = vec![0u8; m];
    let mut queue: Vec<DirEdgeId> = Vec::with_capacity(m);
    for d in tree.all_dir_edges() {
        if tree.is_leaf(tree.src(d)) {
            value[d.idx()] = tip(d);
            queue.push(d);
        } else {
            missing[d.idx()] = 2;
        }
    }
    // dependents[d] = directed edges whose dependency list contains d.
    // d = (x → y) feeds every (y → z) with z ≠ x, i.e. the other two
    // orientations out of y (when y is inner).
    let mut head = 0;
    while head < queue.len() {
        let d = queue[head];
        head += 1;
        let y = tree.dst(d);
        if tree.is_leaf(y) {
            continue;
        }
        for &(w, e) in tree.neighbors(y) {
            if e == d.edge() {
                continue;
            }
            let _ = w;
            let dep = tree.dir_from(e, y); // y → w
            let i = dep.idx();
            missing[i] -= 1;
            if missing[i] == 0 {
                let [c1, c2] = tree.deps(dep).expect("inner orientation has deps");
                value[i] = combine(value[c1.idx()], value[c2.idx()]);
                queue.push(dep);
            }
        }
    }
    debug_assert_eq!(queue.len(), m, "DP did not reach every directed edge");
    value
}

/// The paper's safe upper bound on the number of CLV slots required to
/// evaluate a tree of `n` leaves with the Felsenstein pruning algorithm:
/// `⌈log₂ n⌉ + 2`.
pub fn min_slots_bound(n_leaves: usize) -> usize {
    assert!(n_leaves >= 3, "unrooted binary trees need ≥ 3 leaves");
    (usize::BITS - (n_leaves - 1).leading_zeros()) as usize + 2
}

/// The maximum register need over all directed edges — the true minimum slot
/// count for a single-CLV evaluation on this specific topology.
pub fn max_register_need(tree: &Tree) -> u32 {
    register_need(tree).into_iter().max().map_or(0, u32::from)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate;
    use crate::tree::{quartet, tripod};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn leaf_counts_tripod() {
        let t = tripod(["A", "B", "C"], [0.1; 3]).unwrap();
        let counts = subtree_leaf_counts(&t);
        for d in t.all_dir_edges() {
            let c = counts[d.idx()];
            if t.is_leaf(t.src(d)) {
                assert_eq!(c, 1);
            } else {
                assert_eq!(c, 2);
            }
            // Complementary orientations partition the leaves.
            assert_eq!(c + counts[d.reversed().idx()], 3);
        }
    }

    #[test]
    fn leaf_counts_partition_property() {
        let mut rng = StdRng::seed_from_u64(7);
        for n in [4usize, 9, 33, 128] {
            let t = generate::yule(n, 0.1, &mut rng).unwrap();
            let counts = subtree_leaf_counts(&t);
            for d in t.all_dir_edges() {
                assert_eq!(counts[d.idx()] + counts[d.reversed().idx()], n as u32);
            }
        }
    }

    #[test]
    fn register_need_quartet() {
        let t = quartet(["a", "b", "c", "d"], [0.1; 5]).unwrap();
        let need = register_need(&t);
        for d in t.all_dir_edges() {
            let r = need[d.idx()];
            if t.is_leaf(t.src(d)) {
                assert_eq!(r, 0);
            } else {
                // Every inner CLV in a quartet depends on a tip and at most
                // one inner CLV over two tips.
                assert!((1..=2).contains(&r), "need {r}");
            }
        }
    }

    #[test]
    fn balanced_tree_respects_log_bound() {
        let mut rng = StdRng::seed_from_u64(3);
        for k in 2..9u32 {
            let n = 1usize << k;
            let t = generate::balanced(n, 0.05, &mut rng).unwrap();
            let max_need = max_register_need(&t) as usize;
            let bound = min_slots_bound(n);
            assert!(max_need < bound, "balanced n={n}: need {max_need} + root > bound {bound}");
        }
    }

    #[test]
    fn caterpillar_needs_constant_registers() {
        let mut rng = StdRng::seed_from_u64(4);
        let t = generate::caterpillar(64, 0.05, &mut rng).unwrap();
        // A caterpillar evaluated heavy-child-first needs O(1) slots.
        assert!(max_register_need(&t) <= 3);
    }

    #[test]
    fn min_slots_bound_values() {
        assert_eq!(min_slots_bound(4), 4); // log2(4)=2, +2
        assert_eq!(min_slots_bound(8), 5);
        assert_eq!(min_slots_bound(9), 6); // ceil(log2 9) = 4
        assert_eq!(min_slots_bound(512), 11);
        assert_eq!(min_slots_bound(20_000), 17); // ceil(log2 20000) = 15
    }
}
