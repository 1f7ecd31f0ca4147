//! Candidate selection between the prescore and thorough phases.

use phylo_tree::EdgeId;

/// Selects the branches each query is thoroughly re-scored on: the top
/// `max(min_candidates, ceil(fraction · branches))` by prescore.
///
/// `prescores` is the per-branch prescore row of one query.
pub fn select_candidates(prescores: &[f64], fraction: f64, min_candidates: usize) -> Vec<EdgeId> {
    let n = prescores.len();
    let k = ((n as f64 * fraction).ceil() as usize).max(min_candidates).min(n);
    let mut order: Vec<u32> = (0..n as u32).collect();
    // Descending prescore, ties broken by ascending branch id — the
    // tie-break keeps the result deterministic regardless of how the
    // selection partitions equal keys.
    let by_score_then_id = |&a: &u32, &b: &u32| {
        prescores[b as usize]
            .partial_cmp(&prescores[a as usize])
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    };
    // Partial selection: O(n) to isolate the top k, then sort only that
    // prefix. With per-query candidate fractions of a few percent this
    // beats the full O(n log n) sort the prescore phase used to pay.
    if k < n {
        order.select_nth_unstable_by(k, by_score_then_id);
        order.truncate(k);
    }
    order.sort_unstable_by(by_score_then_id);
    order.into_iter().map(EdgeId).collect()
}

/// Inverts the per-query candidate lists: for every branch (indexed by
/// edge id), the queries to score thoroughly on it — so thorough scoring
/// touches each branch's CLVs once per chunk.
pub fn group_by_branch(per_query: &[Vec<EdgeId>], n_branches: usize) -> Vec<Vec<usize>> {
    let mut by_branch = vec![Vec::new(); n_branches];
    for (q, edges) in per_query.iter().enumerate() {
        for &e in edges {
            by_branch[e.idx()].push(q);
        }
    }
    by_branch
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn selects_top_fraction() {
        let scores = vec![-10.0, -1.0, -5.0, -2.0, -20.0, -3.0, -7.0, -4.0, -6.0, -8.0];
        let picked = select_candidates(&scores, 0.2, 1);
        assert_eq!(picked, vec![EdgeId(1), EdgeId(3)]);
    }

    #[test]
    fn respects_minimum() {
        let scores = vec![-1.0, -2.0, -3.0];
        let picked = select_candidates(&scores, 0.0, 2);
        assert_eq!(picked.len(), 2);
        assert_eq!(picked[0], EdgeId(0));
    }

    #[test]
    fn min_clamped_to_branch_count() {
        let scores = vec![-1.0, -2.0];
        let picked = select_candidates(&scores, 0.0, 10);
        assert_eq!(picked.len(), 2);
    }

    #[test]
    fn ties_break_by_id() {
        let scores = vec![-1.0, -1.0, -1.0];
        let picked = select_candidates(&scores, 0.0, 2);
        assert_eq!(picked, vec![EdgeId(0), EdgeId(1)]);
    }

    #[test]
    fn partial_selection_matches_full_sort() {
        // The select-then-sort fast path must agree with a plain full sort
        // for every k, including heavy ties.
        let scores: Vec<f64> = (0..97).map(|i| -(((i * 31 + 7) % 13) as f64)).collect();
        let full = |k: usize| -> Vec<EdgeId> {
            let mut order: Vec<u32> = (0..scores.len() as u32).collect();
            order.sort_by(|&a, &b| {
                scores[b as usize].partial_cmp(&scores[a as usize]).unwrap().then(a.cmp(&b))
            });
            order.truncate(k);
            order.into_iter().map(EdgeId).collect()
        };
        for min in [0usize, 1, 5, 13, 96, 97, 200] {
            let got = select_candidates(&scores, 0.0, min);
            assert_eq!(got, full(min.min(scores.len())), "min={min}");
        }
    }

    #[test]
    fn grouping_inverts_candidates() {
        let per_query =
            vec![vec![EdgeId(3), EdgeId(1)], vec![EdgeId(1)], vec![EdgeId(2), EdgeId(3)]];
        let grouped = group_by_branch(&per_query, 5);
        assert_eq!(grouped, vec![vec![], vec![0, 1], vec![2], vec![0, 2], vec![]]);
    }
}
