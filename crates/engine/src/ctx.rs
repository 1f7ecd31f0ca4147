//! The static reference context shared by every CLV computation.

use crate::error::EngineError;
use phylo_kernel::{Layout, TipTable};
use phylo_models::SubstModel;
use phylo_seq::alphabet::Alphabet;
use phylo_seq::PatternMsa;
use phylo_tree::stats::{min_slots_bound, register_need, subtree_leaf_counts};
use phylo_tree::{EdgeId, NodeId, Tree};

/// Everything immutable a likelihood computation over the reference tree
/// needs: the tree, the compiled model, per-leaf encoded patterns, and the
/// per-edge transition machinery.
pub struct ReferenceContext {
    tree: Tree,
    model: SubstModel,
    alphabet: &'static Alphabet,
    layout: Layout,
    pattern_weights: Vec<u32>,
    /// Per leaf: encoded characters over patterns.
    tip_codes: Vec<Vec<u8>>,
    /// Per edge: per-rate transition matrices, `pmatrix_len` each.
    pmatrices: Vec<f64>,
    /// Per edge: tip lookup table if one endpoint is a leaf.
    tip_tables: Vec<Option<TipTable>>,
    /// Per directed edge: subtree leaf count (recomputation-cost proxy).
    costs: Vec<u32>,
    /// Per directed edge: Sethi–Ullman register need.
    register_need: Vec<u32>,
    /// `total_length / n_edges`, kept in step with the tree.
    mean_branch_length: f64,
}

impl std::fmt::Debug for ReferenceContext {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReferenceContext")
            .field("n_leaves", &self.tree.n_leaves())
            .field("patterns", &self.layout.patterns)
            .field("rates", &self.layout.rates)
            .field("states", &self.layout.states)
            .finish()
    }
}

impl ReferenceContext {
    /// Assembles a context from a tree, a compiled model, and the
    /// pattern-compressed reference alignment. Every tree taxon must have
    /// an alignment row; the model's state count must match the alphabet.
    pub fn new(
        tree: Tree,
        model: SubstModel,
        alphabet: &'static Alphabet,
        patterns: &PatternMsa,
    ) -> Result<Self, EngineError> {
        if model.n_states() != alphabet.states() {
            return Err(EngineError::AlphabetMismatch {
                model_states: model.n_states(),
                alphabet_states: alphabet.states(),
            });
        }
        let layout = Layout::new(patterns.n_patterns(), model.n_rates(), model.n_states());
        // Map tree leaves to alignment rows by name.
        let mut tip_codes = Vec::with_capacity(tree.n_leaves());
        for leaf in 0..tree.n_leaves() {
            let name = tree.taxon(NodeId(leaf as u32));
            let row = patterns
                .row_by_name(name)
                .ok_or_else(|| EngineError::MissingSequence(name.to_string()))?;
            tip_codes.push(patterns.row(row).to_vec());
        }
        // Per-edge transition matrices and (for pendant edges) tip tables.
        let pm_len = layout.pmatrix_len();
        let mut pmatrices = vec![0.0; tree.n_edges() * pm_len];
        let mut tip_tables = Vec::with_capacity(tree.n_edges());
        let masks: Vec<u32> =
            (0..alphabet.n_codes()).map(|c| alphabet.state_mask(c as u8)).collect();
        for e in 0..tree.n_edges() {
            let edge = EdgeId(e as u32);
            let len = tree.edge_length(edge);
            let block = &mut pmatrices[e * pm_len..(e + 1) * pm_len];
            model.transition_matrices(len, block);
            let rec = tree.edge(edge);
            let has_leaf = tree.is_leaf(rec.a) || tree.is_leaf(rec.b);
            tip_tables.push(has_leaf.then(|| TipTable::build(&layout, block, &masks)));
        }
        let costs = subtree_leaf_counts(&tree);
        let need = register_need(&tree);
        let mean_branch_length = mean_branch_length(&tree);
        Ok(ReferenceContext {
            tree,
            model,
            alphabet,
            layout,
            pattern_weights: patterns.weights().to_vec(),
            tip_codes,
            pmatrices,
            tip_tables,
            costs,
            register_need: need,
            mean_branch_length,
        })
    }

    /// Overrides the kernel tier every computation over this context
    /// dispatches to (default: auto-resolved from `PHYLO_KERNEL_TIER` at
    /// layout construction). Call before any
    /// store is built from this context so the whole run uses one tier.
    pub fn set_kernel_tier(&mut self, choice: phylo_kernel::TierChoice) {
        self.layout = self.layout.with_tier(choice);
    }

    /// The reference tree.
    #[inline]
    pub fn tree(&self) -> &Tree {
        &self.tree
    }

    /// The tree's mean branch length: the scale of the pendant-length
    /// search lattice.
    #[inline]
    pub fn mean_branch_length(&self) -> f64 {
        self.mean_branch_length
    }

    /// The pendant length placement starts from — the mean branch length
    /// (EPA-NG's default heuristic), kept off zero. The lookup table, the
    /// prescore sweep and thorough scoring's first evaluation all run at
    /// it, which is what lets a prescore stand in for that evaluation.
    #[inline]
    pub fn starting_pendant(&self) -> f64 {
        self.mean_branch_length.max(1e-6)
    }

    /// The compiled substitution model.
    #[inline]
    pub fn model(&self) -> &SubstModel {
        &self.model
    }

    /// The character alphabet.
    #[inline]
    pub fn alphabet(&self) -> &'static Alphabet {
        self.alphabet
    }

    /// The CLV layout (patterns × rates × states).
    #[inline]
    pub fn layout(&self) -> &Layout {
        &self.layout
    }

    /// Site-pattern multiplicities.
    #[inline]
    pub fn pattern_weights(&self) -> &[u32] {
        &self.pattern_weights
    }

    /// Encoded characters of a leaf over patterns.
    #[inline]
    pub fn tip_codes(&self, leaf: NodeId) -> &[u8] {
        &self.tip_codes[leaf.idx()]
    }

    /// The per-rate transition matrices of an edge.
    #[inline]
    pub fn pmatrix(&self, e: EdgeId) -> &[f64] {
        let len = self.layout.pmatrix_len();
        &self.pmatrices[e.idx() * len..(e.idx() + 1) * len]
    }

    /// The tip lookup table of a pendant edge (`None` for inner edges).
    #[inline]
    pub fn tip_table(&self, e: EdgeId) -> Option<&TipTable> {
        self.tip_tables[e.idx()].as_ref()
    }

    /// Per-directed-edge recomputation-cost proxies (subtree leaf counts),
    /// as `f64` for the cost-based strategy.
    pub fn cost_table(&self) -> Vec<f64> {
        self.costs.iter().map(|&c| c as f64).collect()
    }

    /// Per-directed-edge register need (for the constrained FPA).
    #[inline]
    pub fn register_need(&self) -> &[u32] {
        &self.register_need
    }

    /// The minimum slot count for this tree, `⌈log₂ n⌉ + 2`.
    pub fn min_slots(&self) -> usize {
        min_slots_bound(self.tree.n_leaves())
    }

    /// The full-memory slot count, `3(n − 2)`.
    pub fn max_slots(&self) -> usize {
        self.tree.n_inner_dir_edges()
    }

    /// Bytes of the static tables this context holds (for accounting).
    pub fn approx_bytes(&self) -> usize {
        self.pmatrices.len() * 8
            + self.tip_tables.iter().flatten().map(|t| t.approx_bytes()).sum::<usize>()
            + self.tip_codes.iter().map(|c| c.len()).sum::<usize>()
            + self.pattern_weights.len() * 4
            + (self.costs.len() + self.register_need.len()) * 4
    }

    /// Rebuilds the transition matrices and tip table of one edge after a
    /// branch-length change (used by branch-length optimization).
    pub fn refresh_edge(&mut self, e: EdgeId, new_length: f64) {
        self.tree
            .set_edge_length(e, new_length)
            .expect("branch-length optimizer produced an invalid length");
        self.mean_branch_length = mean_branch_length(&self.tree);
        let pm_len = self.layout.pmatrix_len();
        // Work around borrowck: compute into a scratch block first.
        let mut block = vec![0.0; pm_len];
        self.model.transition_matrices(new_length, &mut block);
        self.pmatrices[e.idx() * pm_len..(e.idx() + 1) * pm_len].copy_from_slice(&block);
        if self.tip_tables[e.idx()].is_some() {
            let masks: Vec<u32> =
                (0..self.alphabet.n_codes()).map(|c| self.alphabet.state_mask(c as u8)).collect();
            self.tip_tables[e.idx()] = Some(TipTable::build(&self.layout, &block, &masks));
        }
    }
}

/// `total_length / n_edges`: the expression every consumer of the mean
/// used to spell out for itself.
fn mean_branch_length(tree: &Tree) -> f64 {
    tree.total_length() / tree.n_edges() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use phylo_models::{dna, DiscreteGamma, SubstModel};
    use phylo_seq::alphabet::AlphabetKind;
    use phylo_seq::{compress, Msa, Sequence};
    use phylo_tree::tree::tripod;

    fn small_ctx() -> ReferenceContext {
        let tree = tripod(["A", "B", "C"], [0.1, 0.2, 0.3]).unwrap();
        let msa = Msa::new(vec![
            Sequence::from_text("A", AlphabetKind::Dna, "ACGT").unwrap(),
            Sequence::from_text("B", AlphabetKind::Dna, "ACGA").unwrap(),
            Sequence::from_text("C", AlphabetKind::Dna, "ACTT").unwrap(),
        ])
        .unwrap();
        let patterns = compress(&msa).unwrap();
        let model = SubstModel::new(&dna::jc69(), DiscreteGamma::none()).unwrap();
        ReferenceContext::new(tree, model, AlphabetKind::Dna.alphabet(), &patterns).unwrap()
    }

    #[test]
    fn context_builds() {
        let ctx = small_ctx();
        assert_eq!(ctx.layout().states, 4);
        assert_eq!(ctx.layout().patterns, 4);
        assert_eq!(ctx.min_slots(), 4); // ceil(log2 3) = 2, +2
        assert_eq!(ctx.max_slots(), 3);
        assert!(ctx.approx_bytes() > 0);
    }

    #[test]
    fn tip_codes_match_alignment() {
        let ctx = small_ctx();
        let a = ctx.tip_codes(NodeId(0));
        assert_eq!(a.len(), 4);
        // Leaf A's sequence is ACGT.
        assert_eq!(a, &[0, 1, 2, 3]);
    }

    #[test]
    fn pmatrices_are_stochastic() {
        let ctx = small_ctx();
        for e in ctx.tree().all_edges() {
            let pm = ctx.pmatrix(e);
            for i in 0..4 {
                let s: f64 = pm[i * 4..(i + 1) * 4].iter().sum();
                assert!((s - 1.0).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn missing_taxon_rejected() {
        let tree = tripod(["A", "B", "Z"], [0.1, 0.2, 0.3]).unwrap();
        let msa = Msa::new(vec![
            Sequence::from_text("A", AlphabetKind::Dna, "AC").unwrap(),
            Sequence::from_text("B", AlphabetKind::Dna, "AC").unwrap(),
            Sequence::from_text("C", AlphabetKind::Dna, "AC").unwrap(),
        ])
        .unwrap();
        let patterns = compress(&msa).unwrap();
        let model = SubstModel::new(&dna::jc69(), DiscreteGamma::none()).unwrap();
        let err = ReferenceContext::new(tree, model, AlphabetKind::Dna.alphabet(), &patterns)
            .unwrap_err();
        assert!(matches!(err, EngineError::MissingSequence(name) if name == "Z"));
    }

    #[test]
    fn alphabet_mismatch_rejected() {
        let tree = tripod(["A", "B", "C"], [0.1, 0.2, 0.3]).unwrap();
        let msa = Msa::new(vec![
            Sequence::from_text("A", AlphabetKind::Protein, "MK").unwrap(),
            Sequence::from_text("B", AlphabetKind::Protein, "MK").unwrap(),
            Sequence::from_text("C", AlphabetKind::Protein, "MR").unwrap(),
        ])
        .unwrap();
        let patterns = compress(&msa).unwrap();
        let model = SubstModel::new(&dna::jc69(), DiscreteGamma::none()).unwrap();
        let err = ReferenceContext::new(tree, model, AlphabetKind::Protein.alphabet(), &patterns)
            .unwrap_err();
        assert!(matches!(err, EngineError::AlphabetMismatch { .. }));
    }

    #[test]
    fn refresh_edge_updates_pmatrix() {
        let mut ctx = small_ctx();
        let e = EdgeId(0);
        let before = ctx.pmatrix(e).to_vec();
        ctx.refresh_edge(e, 1.5);
        let after = ctx.pmatrix(e);
        assert_ne!(before.as_slice(), after);
        assert_eq!(ctx.tree().edge_length(e), 1.5);
        // The cached mean follows the tree: (1.5 + 0.2 + 0.3) / 3.
        let mean = ctx.tree().total_length() / ctx.tree().n_edges() as f64;
        assert_eq!(ctx.mean_branch_length().to_bits(), mean.to_bits());
        assert_eq!(ctx.starting_pendant(), mean);
        for i in 0..4 {
            let s: f64 = after[i * 4..(i + 1) * 4].iter().sum();
            assert!((s - 1.0).abs() < 1e-10);
        }
    }
}
