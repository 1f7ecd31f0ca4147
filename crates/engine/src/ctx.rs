//! The static reference context shared by every CLV computation.

use crate::error::EngineError;
use phylo_kernel::tips::code_set;
use phylo_kernel::Layout;
use phylo_models::SubstModel;
use phylo_seq::alphabet::Alphabet;
use phylo_seq::PatternMsa;
use phylo_tree::stats::{min_slots_bound, register_need, subtree_leaf_counts};
use phylo_tree::{EdgeId, NodeId, Tree};
use std::sync::OnceLock;

/// Everything immutable a likelihood computation over the reference tree
/// needs: the tree, the compiled model and per-leaf encoded patterns. It
/// holds no transition matrices and no tip rows: an operation builds its
/// child edges' matrices from their lengths
/// ([`SubstModel::transition_matrices`]), and a tip child's rows from
/// those ([`phylo_kernel::tips`]) for the codes in [`tip_code_set`].
///
/// [`tip_code_set`]: ReferenceContext::tip_code_set
pub struct ReferenceContext {
    tree: Tree,
    model: SubstModel,
    alphabet: &'static Alphabet,
    layout: Layout,
    pattern_weights: Vec<u32>,
    /// Per leaf: encoded characters over patterns.
    tip_codes: Vec<Vec<u8>>,
    /// Per leaf: the set of codes its row uses ([`code_set`]).
    tip_code_sets: Vec<u64>,
    /// Per edge: its transition matrices once [`pmatrix`] has been asked
    /// for them, `pmatrix_len` each; empty otherwise.
    ///
    /// [`pmatrix`]: ReferenceContext::pmatrix
    pmatrix_cells: Vec<OnceLock<Box<[f64]>>>,
    /// Per directed edge: subtree leaf count (recomputation-cost proxy).
    costs: Vec<u32>,
    /// Per directed edge: Sethi–Ullman register need.
    register_need: Vec<u32>,
    /// `total_length / n_edges`.
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
        let tip_code_sets = tip_codes.iter().map(|codes| code_set(codes)).collect();
        let pmatrix_cells = (0..tree.n_edges()).map(|_| OnceLock::new()).collect();
        let costs = subtree_leaf_counts(&tree);
        let need = register_need(&tree);
        let mean_branch_length = mean_branch_length(&tree);
        let mut ctx = ReferenceContext {
            tree,
            model,
            alphabet,
            layout,
            pattern_weights: patterns.weights().to_vec(),
            tip_codes,
            tip_code_sets,
            pmatrix_cells,
            costs,
            register_need: need,
            mean_branch_length,
        };
        ctx.select_model_fill();
        Ok(ctx)
    }

    /// Lets the model's `P(t)` build run its AVX2 instance exactly when the
    /// kernels dispatched for this context's layout do
    /// ([`phylo_kernel::simd::runs_avx2`]). Bits do not depend on it.
    fn select_model_fill(&mut self) {
        let on = phylo_kernel::simd::runs_avx2(&self.layout);
        // SAFETY: `runs_avx2` holds only if the SIMD backend verified AVX2
        // at runtime.
        unsafe { self.model.set_avx2_fill(on) };
    }

    /// Overrides the kernel tier every computation over this context
    /// dispatches to (default: auto-resolved from `PHYLO_KERNEL_TIER` at
    /// layout construction). Call before any
    /// store is built from this context so the whole run uses one tier.
    pub fn set_kernel_tier(&mut self, choice: phylo_kernel::TierChoice) {
        self.layout = self.layout.with_tier(choice);
        self.select_model_fill();
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

    /// The set of codes a leaf's row uses: bit `c` set when code `c`
    /// occurs in [`tip_codes`](ReferenceContext::tip_codes). The codes
    /// whose tip rows an operation over the leaf's pendant edge builds.
    #[inline]
    pub fn tip_code_set(&self, leaf: NodeId) -> u64 {
        self.tip_code_sets[leaf.idx()]
    }

    /// The per-rate transition matrices of an edge, built on the first
    /// call for that edge and kept (and counted in [`static_split`]) from
    /// then on. The bits of the per-operation build: the same
    /// [`SubstModel::transition_matrices`] call on the same length.
    ///
    /// Kept for the benchmark harness's kernel probe only; the engine and
    /// placement build matrices per use and never call it.
    ///
    /// [`static_split`]: ReferenceContext::static_split
    pub fn pmatrix(&self, e: EdgeId) -> &[f64] {
        self.pmatrix_cells[e.idx()].get_or_init(|| {
            let mut pm = vec![0.0; self.layout.pmatrix_len()];
            self.model.transition_matrices(self.tree.edge_length(e), &mut pm);
            pm.into_boxed_slice()
        })
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

    /// Bytes of the static tables this context holds, by table: the
    /// `StaticData` term of a memory plan, split for reporting.
    /// `pmatrices` is the [`pmatrix`] cells: one empty cell per edge, and
    /// the matrices of the edges asked for.
    ///
    /// [`pmatrix`]: ReferenceContext::pmatrix
    pub fn static_split(&self) -> [(&'static str, usize); 5] {
        let built = self.pmatrix_cells.iter().filter(|c| c.get().is_some()).count();
        let cells = self.pmatrix_cells.len() * std::mem::size_of::<OnceLock<Box<[f64]>>>();
        [
            ("pmatrices", cells + built * self.layout.pmatrix_len() * 8),
            ("tip_codes", self.tip_codes.iter().map(|c| c.len()).sum()),
            ("tip_code_sets", self.tip_code_sets.len() * 8),
            ("pattern_weights", self.pattern_weights.len() * 4),
            ("costs", (self.costs.len() + self.register_need.len()) * 4),
        ]
    }

    /// Bytes of the static tables this context holds (for accounting).
    pub fn approx_bytes(&self) -> usize {
        self.static_split().iter().map(|&(_, bytes)| bytes).sum()
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
    fn static_split_sums_to_approx_bytes_and_code_sets_follow_the_rows() {
        let ctx = small_ctx();
        let split = ctx.static_split();
        assert_eq!(split.iter().map(|&(_, b)| b).sum::<usize>(), ctx.approx_bytes());
        assert_eq!(split[2], ("tip_code_sets", 3 * 8));
        // Leaf C reads ACTT: codes 0, 1 and 3.
        assert_eq!(ctx.tip_code_set(NodeId(2)), 0b1011);
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
}
