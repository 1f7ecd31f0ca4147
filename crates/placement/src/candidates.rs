//! Candidate selection between the prescore and thorough phases.

use phylo_tree::EdgeId;
use std::cmp::Ordering;

/// Fraction of a reference's branches each query is thoroughly re-scored
/// on (EPA-NG's best-candidate re-scoring at 1 %).
pub const THOROUGH_FRACTION: f64 = 0.01;

/// Fewest branches each query is thoroughly re-scored on.
pub const THOROUGH_MIN: usize = 2;

/// How many branches each query is thoroughly re-scored on:
/// `max(min_candidates, ⌈fraction · branches⌉)`, at most `branches`.
pub fn candidate_count(branches: usize, fraction: f64, min_candidates: usize) -> usize {
    ((branches as f64 * fraction).ceil() as usize).max(min_candidates).min(branches)
}

/// One query's candidate branches, selected while its prescores stream
/// in: the best `k` `(score, branch)` pairs seen so far, best first, in
/// the order a sort of the query's full prescore row would give — score
/// descending, ties (and `-0.0` against `+0.0`, which `partial_cmp` calls
/// equal) broken by ascending branch id. The order is total on non-NaN
/// scores, so the kept list does not depend on the order the scores
/// arrive in.
///
/// A NaN score never ranks (every comparison is false); the selector
/// keeps it out of the list and remembers the lowest branch that
/// produced one, for the caller to surface as a typed error.
#[derive(Debug)]
pub struct TopCandidates {
    k: usize,
    /// Never longer than `k`, so it never reallocates.
    kept: Vec<(f64, EdgeId)>,
    nan_edge: Option<EdgeId>,
}

/// Whether `a` ranks strictly before `b`.
#[inline]
fn ranks_before(a: (f64, EdgeId), b: (f64, EdgeId)) -> bool {
    b.0.partial_cmp(&a.0).unwrap_or(Ordering::Equal).then(a.1.cmp(&b.1)) == Ordering::Less
}

impl TopCandidates {
    /// Heap bytes one kept entry occupies.
    pub const ENTRY_BYTES: usize = std::mem::size_of::<(f64, EdgeId)>();

    /// An empty selector keeping at most `k` branches.
    pub fn new(k: usize) -> Self {
        TopCandidates { k, kept: Vec::with_capacity(k), nan_edge: None }
    }

    /// Offers the prescore of branch `edge`.
    #[inline]
    pub fn push(&mut self, edge: EdgeId, score: f64) {
        if score.is_nan() {
            self.nan_edge = Some(self.nan_edge.map_or(edge, |e| e.min(edge)));
            return;
        }
        let entry = (score, edge);
        if self.kept.len() == self.k {
            if !self.kept.last().is_some_and(|&worst| ranks_before(entry, worst)) {
                return;
            }
            self.kept.pop();
        }
        let at = self.kept.partition_point(|&e| ranks_before(e, entry));
        self.kept.insert(at, entry);
    }

    /// The lowest branch that scored NaN, if any did.
    pub fn nan_edge(&self) -> Option<EdgeId> {
        self.nan_edge
    }

    /// The kept branches, best first, leaving the selector empty for the
    /// next query.
    pub fn take(&mut self) -> Vec<EdgeId> {
        self.nan_edge = None;
        self.kept.drain(..).map(|(_, e)| e).collect()
    }
}

/// The top [`candidate_count`] branches of one query's full prescore
/// row, by select-then-sort: the oracle [`TopCandidates`] must equal.
#[cfg(test)]
pub fn select_candidates(prescores: &[f64], fraction: f64, min_candidates: usize) -> Vec<EdgeId> {
    let n = prescores.len();
    let k = candidate_count(n, fraction, min_candidates);
    let mut order: Vec<u32> = (0..n as u32).collect();
    // Descending prescore, ties broken by ascending branch id — the
    // tie-break keeps the result deterministic regardless of how the
    // selection partitions equal keys.
    let by_score_then_id = |&a: &u32, &b: &u32| {
        prescores[b as usize]
            .partial_cmp(&prescores[a as usize])
            .unwrap_or(Ordering::Equal)
            .then(a.cmp(&b))
    };
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
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

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
    fn candidate_count_is_the_fraction_floored_by_the_minimum() {
        assert_eq!(candidate_count(509, 0.01, 2), 6);
        assert_eq!(candidate_count(39_997, 0.01, 2), 400);
        assert_eq!(candidate_count(21, 0.01, 2), 2);
        assert_eq!(candidate_count(3, 0.0, 10), 3);
    }

    #[test]
    fn signed_zeros_tie_and_nan_never_ranks() {
        let mut top = TopCandidates::new(3);
        for (e, s) in [(4, 0.0), (2, f64::NAN), (1, -0.0), (7, f64::NAN), (0, f64::NEG_INFINITY)] {
            top.push(EdgeId(e), s);
        }
        assert_eq!(top.nan_edge(), Some(EdgeId(2)));
        assert_eq!(top.take(), vec![EdgeId(1), EdgeId(4), EdgeId(0)]);
        assert_eq!(top.nan_edge(), None, "take resets the selector");
        assert!(top.take().is_empty());
    }

    /// Scores with heavy ties: a few distinct values, both zeros and −∞.
    fn tied_scores(rng: &mut StdRng, n: usize) -> Vec<f64> {
        const PALETTE: [f64; 6] = [0.0, -0.0, f64::NEG_INFINITY, -1.0, -2.5, -1e300];
        (0..n)
            .map(|_| match rng.gen_range(0..3) {
                0 => PALETTE[rng.gen_range(0..PALETTE.len())],
                1 => -(rng.gen_range(0..8) as f64),
                _ => -rng.gen_range(0.0f64..4.0),
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Streaming selection equals the full-row oracle, whatever order
        /// the branches arrive in and however the queries are split
        /// across workers; a reused selector starts clean.
        #[test]
        fn streamed_selection_equals_the_oracle(
            seed in 0u64..u64::MAX,
            n in 1usize..=600,
            k in 1usize..=700,
            n_queries in 1usize..=6,
            workers in 1usize..=4,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let rows: Vec<Vec<f64>> = (0..n_queries).map(|_| tied_scores(&mut rng, n)).collect();
            let orders: Vec<Vec<u32>> = (0..2 * n_queries)
                .map(|_| {
                    let mut order: Vec<u32> = (0..n as u32).collect();
                    for i in (1..n).rev() {
                        order.swap(i, rng.gen_range(0..=i));
                    }
                    order
                })
                .collect();
            let mut selectors: Vec<_> = (0..n_queries).map(|_| TopCandidates::new(k)).collect();
            let per_worker = n_queries.div_ceil(workers);
            for pass in 0..2 {
                let mut got = vec![Vec::new(); n_queries];
                std::thread::scope(|s| {
                    for ((sels, out), start) in selectors
                        .chunks_mut(per_worker)
                        .zip(got.chunks_mut(per_worker))
                        .zip((0..).step_by(per_worker))
                    {
                        let (rows, orders) = (&rows, &orders);
                        s.spawn(move || {
                            for (i, (top, out)) in sels.iter_mut().zip(out).enumerate() {
                                let q = start + i;
                                for &e in &orders[pass * n_queries + q] {
                                    top.push(EdgeId(e), rows[q][e as usize]);
                                }
                                *out = top.take();
                            }
                        });
                    }
                });
                for (q, row) in rows.iter().enumerate() {
                    prop_assert_eq!(
                        &got[q],
                        &select_candidates(row, 0.0, k),
                        "pass {} query {} of {} (n {}, k {}, {} workers)",
                        pass, q, n_queries, n, k, workers
                    );
                }
            }
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
