//! Whole-tree log-likelihood evaluation.
//!
//! The correctness anchor of the workspace: the likelihood of a fixed tree
//! is a property of the tree alone, so it must come out identical
//! (bit-for-bit, modulo the deterministic scaling) no matter which branch
//! hosts the virtual root and which CLV storage policy is in force. The
//! tests here pin both invariances plus analytic hand-computed values.

use crate::ctx::ReferenceContext;
use crate::error::EngineError;
use crate::store::{EdgeSide, ManagedStore};
use phylo_kernel::likelihood::edge_log_likelihood;
use phylo_kernel::TipTable;
use phylo_tree::{DirEdgeId, EdgeId};

/// Computes the tree log-likelihood with the virtual root on `edge`.
///
/// Prepares both orientations of the edge in the store (recomputing under
/// slot constraints as needed), evaluates, and releases the pins.
pub fn tree_log_likelihood(
    ctx: &ReferenceContext,
    store: &mut ManagedStore,
    edge: EdgeId,
) -> Result<f64, EngineError> {
    let d0 = DirEdgeId::new(edge, 0);
    let d1 = DirEdgeId::new(edge, 1);
    let block = store.prepare(ctx, &[d0, d1])?;
    let mut pmatrix = vec![0.0; ctx.layout().pmatrix_len()];
    let ll = evaluate_prepared_edge(ctx, store, edge, &mut pmatrix, &mut TipTable::empty());
    store.release(block);
    Ok(ll)
}

/// Evaluates the likelihood at `edge` assuming both orientations are
/// already prepared (inside a `prepare`/`release` window). The edge's
/// transition matrices are built into `pmatrix` (`rates × states²`), and
/// a pendant edge's tip rows into `tip`.
pub fn evaluate_prepared_edge(
    ctx: &ReferenceContext,
    store: &ManagedStore,
    edge: EdgeId,
    pmatrix: &mut [f64],
    tip: &mut TipTable,
) -> f64 {
    let mut d_u = DirEdgeId::new(edge, 0);
    let mut d_v = DirEdgeId::new(edge, 1);
    // The unpropagated `u` term must be an inner CLV; at least one side of
    // any branch is inner (leaves never share an edge when n ≥ 3).
    if matches!(store.side(ctx, d_u), EdgeSide::Tip(_)) {
        std::mem::swap(&mut d_u, &mut d_v);
    }
    let (u_clv, u_scale) =
        store.clv_of(ctx, d_u).expect("at least one side of a branch is an inner node");
    let v_side = store.kernel_side(ctx, d_v, pmatrix, tip);
    let layout = ctx.layout();
    edge_log_likelihood(
        layout,
        u_clv,
        Some(u_scale),
        v_side,
        ctx.model().freqs(),
        ctx.model().gamma().weights(),
        ctx.pattern_weights(),
        0..layout.patterns,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use phylo_amc::StrategyKind;
    use phylo_models::gamma::GammaMode;
    use phylo_models::{dna, DiscreteGamma, SubstModel};
    use phylo_seq::alphabet::AlphabetKind;
    use phylo_seq::{compress, Msa, Sequence};
    use phylo_tree::tree::{quartet, tripod};
    use phylo_tree::{generate, NodeId};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn ctx_from(
        tree: phylo_tree::Tree,
        rows: Vec<(&str, &str)>,
        gamma: DiscreteGamma,
    ) -> ReferenceContext {
        let msa = Msa::new(
            rows.into_iter()
                .map(|(n, t)| Sequence::from_text(n, AlphabetKind::Dna, t).unwrap())
                .collect(),
        )
        .unwrap();
        let patterns = compress(&msa).unwrap();
        let model = SubstModel::new(&dna::jc69(), gamma).unwrap();
        ReferenceContext::new(tree, model, AlphabetKind::Dna.alphabet(), &patterns).unwrap()
    }

    /// Brute-force tripod likelihood: L = Σ_i π_i Π_k P(t_k)[i][obs_k].
    fn tripod_reference(lengths: [f64; 3], obs: [usize; 3]) -> f64 {
        let mut total = 0.0;
        for i in 0..4 {
            let mut term = 0.25;
            for (t, &o) in lengths.iter().zip(&obs) {
                let (same, diff) = dna::jc69_analytic(*t);
                term *= if i == o { same } else { diff };
            }
            total += term;
        }
        total.ln()
    }

    #[test]
    fn tripod_matches_brute_force() {
        let lengths = [0.1, 0.25, 0.4];
        let tree = tripod(["A", "B", "C"], lengths).unwrap();
        // Single site: A observes A, B observes C, C observes G.
        let ctx = ctx_from(tree, vec![("A", "A"), ("B", "C"), ("C", "G")], DiscreteGamma::none());
        let mut store = ManagedStore::full(&ctx);
        // The tripod's leaf edges: lengths[k] belongs to the edge of leaf k.
        let expect = tripod_reference(lengths, [0, 1, 2]);
        for e in ctx.tree().all_edges() {
            let ll = tree_log_likelihood(&ctx, &mut store, e).unwrap();
            assert!((ll - expect).abs() < 1e-12, "edge {e:?}: {ll} vs {expect}");
        }
    }

    /// Brute-force quartet likelihood summing over both internal nodes.
    fn quartet_reference(lengths: [f64; 5], obs: [usize; 4]) -> f64 {
        let p = |t: f64, i: usize, j: usize| {
            let (same, diff) = dna::jc69_analytic(t);
            if i == j {
                same
            } else {
                diff
            }
        };
        let mut total = 0.0;
        for u in 0..4 {
            for v in 0..4 {
                total += 0.25
                    * p(lengths[0], u, obs[0])
                    * p(lengths[1], u, obs[1])
                    * p(lengths[2], u, v)
                    * p(lengths[3], v, obs[2])
                    * p(lengths[4], v, obs[3]);
            }
        }
        total.ln()
    }

    #[test]
    fn quartet_matches_brute_force() {
        let lengths = [0.05, 0.2, 0.35, 0.15, 0.6];
        let tree = quartet(["a", "b", "c", "d"], lengths).unwrap();
        let ctx = ctx_from(
            tree,
            vec![("a", "AT"), ("b", "CT"), ("c", "GA"), ("d", "GC")],
            DiscreteGamma::none(),
        );
        let mut store = ManagedStore::full(&ctx);
        let expect =
            quartet_reference(lengths, [0, 1, 2, 2]) + quartet_reference(lengths, [3, 3, 0, 1]);
        for e in ctx.tree().all_edges() {
            let ll = tree_log_likelihood(&ctx, &mut store, e).unwrap();
            assert!((ll - expect).abs() < 1e-11, "edge {e:?}: {ll} vs {expect}");
        }
    }

    #[test]
    fn likelihood_invariant_across_edges_and_stores() {
        let mut rng = StdRng::seed_from_u64(11);
        let n = 24;
        let tree = generate::yule(n, 0.12, &mut rng).unwrap();
        let rows: Vec<Sequence> = (0..n)
            .map(|i| {
                let text: String =
                    (0..40).map(|_| "ACGT".as_bytes()[rng.gen_range(0..4usize)] as char).collect();
                Sequence::from_text(tree.taxon(NodeId(i as u32)), AlphabetKind::Dna, &text).unwrap()
            })
            .collect();
        let patterns = compress(&Msa::new(rows).unwrap()).unwrap();
        let gamma = DiscreteGamma::new(0.7, 4, GammaMode::Mean).unwrap();
        let model = SubstModel::new(&dna::jc69(), gamma).unwrap();
        let ctx =
            ReferenceContext::new(tree, model, AlphabetKind::Dna.alphabet(), &patterns).unwrap();

        let mut full = ManagedStore::full(&ctx);
        let reference = tree_log_likelihood(&ctx, &mut full, EdgeId(0)).unwrap();
        assert!(reference.is_finite());

        for strategy in [StrategyKind::CostBased, StrategyKind::Lru] {
            let mut tight = ManagedStore::with_slots(&ctx, ctx.min_slots(), strategy).unwrap();
            for e in ctx.tree().all_edges() {
                let ll_full = tree_log_likelihood(&ctx, &mut full, e).unwrap();
                let ll_tight = tree_log_likelihood(&ctx, &mut tight, e).unwrap();
                assert_eq!(ll_full.to_bits(), ll_tight.to_bits(), "policy diff at edge {e:?}");
                assert!(
                    (ll_full - reference).abs() < 1e-9,
                    "root-position dependence at {e:?}: {ll_full} vs {reference}"
                );
            }
        }
    }

    #[test]
    fn deep_tree_needs_and_survives_scaling() {
        // A 300-leaf caterpillar: raw partial likelihoods underflow without
        // scaling; with scaling the result must be finite and
        // virtual-root invariant.
        let mut rng = StdRng::seed_from_u64(12);
        let n = 300;
        let tree = generate::caterpillar(n, 0.3, &mut rng).unwrap();
        let rows: Vec<Sequence> = (0..n)
            .map(|i| {
                let text: String =
                    (0..8).map(|_| "ACGT".as_bytes()[rng.gen_range(0..4usize)] as char).collect();
                Sequence::from_text(tree.taxon(NodeId(i as u32)), AlphabetKind::Dna, &text).unwrap()
            })
            .collect();
        let patterns = compress(&Msa::new(rows).unwrap()).unwrap();
        let model = SubstModel::new(&dna::jc69(), DiscreteGamma::none()).unwrap();
        let ctx =
            ReferenceContext::new(tree, model, AlphabetKind::Dna.alphabet(), &patterns).unwrap();
        let mut store = ManagedStore::full(&ctx);
        let ll0 = tree_log_likelihood(&ctx, &mut store, EdgeId(0)).unwrap();
        assert!(ll0.is_finite() && ll0 < 0.0);
        // Scaling must actually have fired somewhere on a tree this deep.
        let central = ctx
            .tree()
            .all_edges()
            .find(|&e| {
                let rec = ctx.tree().edge(e);
                !ctx.tree().is_leaf(rec.a) && !ctx.tree().is_leaf(rec.b)
            })
            .unwrap();
        let block =
            store.prepare(&ctx, &[DirEdgeId::new(central, 0), DirEdgeId::new(central, 1)]).unwrap();
        let any_scaled = ctx.tree().all_dir_edges().any(|d| {
            store.clv_of(&ctx, d).map(|(_, scale)| scale.iter().any(|&s| s > 0)).unwrap_or(false)
        });
        store.release(block);
        assert!(any_scaled, "expected scaler activity on a 300-leaf caterpillar");
        let ll_mid = tree_log_likelihood(&ctx, &mut store, central).unwrap();
        assert!((ll0 - ll_mid).abs() < 1e-8, "{ll0} vs {ll_mid}");
    }
}
