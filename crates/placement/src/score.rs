//! Placement scoring: attachment partials, per-branch score tables, the
//! single-query evaluator, and thorough (branch-length-optimizing) query
//! scoring.
//!
//! Inserting a query into branch `e = {a, b}` splits it at an attachment
//! point ρ: proximal part `x·t`, distal part `(1−x)·t`, plus a pendant
//! branch to the query tip. The placement likelihood is the three-way
//! product at ρ:
//!
//! `L_s = Σ_r w_r Σ_i π_i · A[i] · B[i] · C[i]`
//!
//! where `A`/`B` are the branch-side CLVs propagated to ρ and `C` is the
//! query tip propagated through the pendant branch. The `A·B` product
//! ([`AttachmentPartials`]) depends only on `(e, x)`.
//!
//! Two consumers turn it into a score, and they agree bit for bit:
//!
//! * [`BranchScoreTable`] tabulates `L` for *every* query residue at every
//!   pattern — one row of the lookup table, built once per branch and
//!   walked by every query ([`BranchScoreTable::prescore`]). It serves the
//!   lookup table and the no-lookup prescore sweep, where one table
//!   amortizes over a whole chunk. It is filled from an evaluator's
//!   `w_r·π_i` weights and pendant matrices, so a sweep builds those once,
//!   not once per branch.
//! * [`QueryEvaluator`] scores *one* query: per site it accumulates only
//!   the column the query's residue selects (the whole row only for
//!   ambiguity and gap codes), never materializing a table.
//!   [`score_thorough`] evaluates each (query, branch) pair dozens of
//!   times at different `(x, pendant)`, so it goes through the evaluator.
//!
//! The evaluator's sums run in the table's order — rates outer, states
//! inner, `(w_r·π_i)·AB[i]·P_ij` associated left to right — which is what
//! makes the table its test oracle and keeps the jplace bytes independent
//! of which of the two produced a number.

use crate::error::PlaceError;
use phylo_engine::{ManagedStore, ReferenceContext};
use phylo_kernel::kernels::{propagate_scratch, Side};
use phylo_kernel::simd::{self, SimdBackend};
use phylo_kernel::{KernelKind, KernelScratch, KernelTier, TipTable, LN_SCALE};

/// The `A·B` product at an attachment point, over patterns × rates ×
/// states, with combined scaler counts.
#[derive(Debug, Clone, Default)]
pub struct AttachmentPartials {
    /// `[pattern][rate][state]` product of the two propagated sides.
    pub ab: Vec<f64>,
    /// Per-pattern scaler counts (sum of both sides).
    pub scale: Vec<u32>,
}

impl AttachmentPartials {
    /// An empty buffer for reuse through [`attachment_partials_into`].
    pub const fn empty() -> Self {
        AttachmentPartials { ab: Vec::new(), scale: Vec::new() }
    }
}

/// Scratch buffers reused across scoring calls to keep the hot path
/// allocation-free: once warm, a `(query × branch)` thorough scoring pass
/// performs zero heap allocations.
#[derive(Debug, Default)]
pub struct ScoreScratch {
    prox: Vec<f64>,
    prox_scale: Vec<u32>,
    dist: Vec<f64>,
    dist_scale: Vec<u32>,
    pmatrix: Vec<f64>,
    /// Kernel working buffers (only touched by the generic fallback).
    kernel: KernelScratch,
    /// Per-code state masks of the context's alphabet, computed once.
    masks: Vec<u32>,
    /// Reusable per-edge tip lookup (rebuilt, never reallocated).
    tip_table: TipTable,
    /// Reusable attachment-partials buffer for the fixed-`x` partials.
    partials_a: AttachmentPartials,
    /// Second partials buffer for attachment-position refinement evals.
    partials_b: AttachmentPartials,
    /// The evaluator behind every refinement eval of [`score_thorough`].
    evaluator: QueryEvaluator,
}

impl ScoreScratch {
    /// Scratch sized for a context.
    pub fn new(ctx: &ReferenceContext) -> Self {
        let layout = ctx.layout();
        let a = ctx.alphabet();
        ScoreScratch {
            prox: vec![0.0; layout.clv_len()],
            prox_scale: vec![0; layout.patterns],
            dist: vec![0.0; layout.clv_len()],
            dist_scale: vec![0; layout.patterns],
            pmatrix: vec![0.0; layout.pmatrix_len()],
            kernel: KernelScratch::for_layout(layout),
            masks: (0..a.n_codes()).map(|c| a.state_mask(c as u8)).collect(),
            tip_table: TipTable::empty(),
            partials_a: AttachmentPartials::empty(),
            partials_b: AttachmentPartials::empty(),
            evaluator: QueryEvaluator::new(ctx),
        }
    }
}

/// Propagates one side of `edge` (the orientation `d`) through the
/// per-rate transition matrices `pm` of a branch segment into `out`. All
/// working storage (`tip_table`, `kernel`) is caller-owned and reused.
#[allow(clippy::too_many_arguments)]
fn propagate_partial(
    ctx: &ReferenceContext,
    store: &ManagedStore,
    d: phylo_tree::DirEdgeId,
    pm: &[f64],
    tip_table: &mut TipTable,
    masks: &[u32],
    kernel: &mut KernelScratch,
    out: &mut [f64],
    out_scale: &mut [u32],
) {
    let layout = ctx.layout();
    match store.side(ctx, d) {
        phylo_engine::EdgeSide::Tip(node) => {
            tip_table.rebuild(layout, pm, masks);
            let side = Side::Tip { table: tip_table, codes: ctx.tip_codes(node) };
            propagate_scratch(layout, side, out, out_scale, 0..layout.patterns, kernel);
        }
        phylo_engine::EdgeSide::Resident(_) => {
            let (clv, scale) = store.clv_of(ctx, d).expect("resident side");
            let side = Side::Clv { clv, scale: Some(scale), pmatrix: pm };
            propagate_scratch(layout, side, out, out_scale, 0..layout.patterns, kernel);
        }
    }
}

/// Computes the `A·B` product for `edge` at proximal fraction `x`
/// (`0 < x < 1`) into a caller-owned buffer, reusing its allocation. Both
/// orientations of the edge must be prepared in the store.
pub fn attachment_partials_into(
    ctx: &ReferenceContext,
    store: &ManagedStore,
    edge: phylo_tree::EdgeId,
    x: f64,
    scratch: &mut ScoreScratch,
    out: &mut AttachmentPartials,
) {
    let layout = ctx.layout();
    let t = ctx.tree().edge_length(edge);
    let (t_prox, t_dist) = (x * t, (1.0 - x) * t);
    let d_prox = phylo_tree::DirEdgeId::new(edge, 0);
    let d_dist = phylo_tree::DirEdgeId::new(edge, 1);
    // Disjoint field borrows: the propagation reads/writes different
    // scratch buffers at once.
    let ScoreScratch {
        prox, prox_scale, dist, dist_scale, pmatrix, kernel, masks, tip_table, ..
    } = scratch;
    pmatrix.resize(layout.pmatrix_len(), 0.0);
    ctx.model().transition_matrices(t_prox, pmatrix);
    propagate_partial(ctx, store, d_prox, pmatrix, tip_table, masks, kernel, prox, prox_scale);
    // At the midpoint — every lookup-table row, every prescore-sweep
    // branch, the first evaluation of every thorough pair — both halves
    // have the same length, hence the same matrices.
    if t_dist != t_prox {
        ctx.model().transition_matrices(t_dist, pmatrix);
    }
    propagate_partial(ctx, store, d_dist, pmatrix, tip_table, masks, kernel, dist, dist_scale);
    // Every element is overwritten: resizing without a clear costs
    // nothing once the buffer is warm.
    out.ab.resize(layout.clv_len(), 0.0);
    for ((o, &p), &d) in out.ab.iter_mut().zip(&*prox).zip(&*dist) {
        *o = p * d;
    }
    out.scale.clear();
    out.scale.extend(prox_scale.iter().zip(&*dist_scale).map(|(&a, &b)| a + b));
}

/// As [`attachment_partials_into`], returning a freshly allocated buffer.
pub fn attachment_partials(
    ctx: &ReferenceContext,
    store: &ManagedStore,
    edge: phylo_tree::EdgeId,
    x: f64,
    scratch: &mut ScoreScratch,
) -> AttachmentPartials {
    let mut out = AttachmentPartials::empty();
    attachment_partials_into(ctx, store, edge, x, scratch, &mut out);
    out
}

/// A per-branch prescore table: for each pattern, the linear likelihood of
/// attaching a query residue of each concrete state (columns `0..states`),
/// plus the fully-ambiguous column (`states`). This is one row of the
/// paper's preplacement lookup table.
#[derive(Debug, Clone)]
pub struct BranchScoreTable {
    /// `[pattern][state+1]` linear likelihoods.
    pub table: Vec<f64>,
    /// Per-pattern scaler counts.
    pub scale: Vec<u32>,
    states: usize,
}

impl Default for BranchScoreTable {
    fn default() -> Self {
        BranchScoreTable::empty()
    }
}

impl BranchScoreTable {
    /// An empty table for reuse through [`BranchScoreTable::rebuild`].
    pub const fn empty() -> BranchScoreTable {
        BranchScoreTable { table: Vec::new(), scale: Vec::new(), states: 0 }
    }

    /// Builds a one-off table from attachment partials and a pendant
    /// branch length (through the scratch's evaluator). Sweeps set the
    /// pendant once and [`rebuild`] per branch instead.
    ///
    /// [`rebuild`]: BranchScoreTable::rebuild
    pub fn build(
        ctx: &ReferenceContext,
        partials: &AttachmentPartials,
        pendant: f64,
        scratch: &mut ScoreScratch,
    ) -> BranchScoreTable {
        scratch.evaluator.set_pendant(ctx, pendant);
        let mut t = BranchScoreTable::empty();
        t.rebuild(ctx, partials, &scratch.evaluator);
        t
    }

    /// Rebuilds the table in place for new partials, reusing the existing
    /// allocations, at the pendant length last set on `eval`: the `w_r·π_i`
    /// weights and the pendant transition matrices are the evaluator's, so
    /// a sweep over many branches at one pendant length builds them once
    /// and this function builds none. Thorough scoring does not come
    /// through here — it runs on [`QueryEvaluator::score`], for which this
    /// table is the oracle.
    pub fn rebuild(
        &mut self,
        ctx: &ReferenceContext,
        partials: &AttachmentPartials,
        eval: &QueryEvaluator,
    ) {
        let layout = ctx.layout();
        let fill = self.start_rebuild(ctx, partials, eval);
        match (layout.kind(), layout.tier()) {
            (KernelKind::Generic, _) | (_, KernelTier::Reference) => fill.generic(ctx),
            (KernelKind::Dna4, tier) => fill.fixed_for_tier::<4>(tier),
            (KernelKind::Protein20, tier) => fill.fixed_for_tier::<20>(tier),
        }
    }

    /// [`rebuild`] through the generic loop whatever the state count and
    /// tier: the oracle the fixed-size fills are tested against.
    ///
    /// [`rebuild`]: BranchScoreTable::rebuild
    pub fn rebuild_reference(
        &mut self,
        ctx: &ReferenceContext,
        partials: &AttachmentPartials,
        eval: &QueryEvaluator,
    ) {
        self.start_rebuild(ctx, partials, eval).generic(ctx)
    }

    /// Sizes the table, takes over the partials' scaler counts, and hands
    /// back what a fill loop works on.
    fn start_rebuild<'a>(
        &'a mut self,
        ctx: &ReferenceContext,
        partials: &'a AttachmentPartials,
        eval: &'a QueryEvaluator,
    ) -> TableFill<'a> {
        let layout = ctx.layout();
        debug_assert_eq!(partials.ab.len(), layout.clv_len());
        self.states = layout.states;
        self.scale.clear();
        self.scale.extend_from_slice(&partials.scale);
        // Every fill writes every entry: no clear.
        self.table.resize(layout.patterns * (layout.states + 1), 0.0);
        TableFill { ab: &partials.ab, weights: &eval.weights, pm: &eval.pm, table: &mut self.table }
    }

    /// Bytes this table occupies.
    pub fn bytes(&self) -> usize {
        self.table.len() * 8 + self.scale.len() * 4
    }

    /// Prescoring: the log-likelihood of this query at this branch, walking
    /// the per-site table. Ambiguity codes sum the matching concrete
    /// columns; the fully-ambiguous (gap/unknown) code uses the
    /// precomputed sum column.
    pub fn prescore(&self, ctx: &ReferenceContext, site_to_pattern: &[u32], codes: &[u8]) -> f64 {
        let states = self.states;
        let alphabet = ctx.alphabet();
        let unknown = alphabet.unknown_code();
        let mut total = 0.0f64;
        for (s, &code) in codes.iter().enumerate() {
            let p = site_to_pattern[s] as usize;
            let row = &self.table[p * (states + 1)..(p + 1) * (states + 1)];
            let lik = if (code as usize) < states {
                row[code as usize]
            } else if code == unknown {
                row[states]
            } else {
                let mask = alphabet.state_mask(code);
                let mut sum = 0.0;
                for (j, &v) in row[..states].iter().enumerate() {
                    if (mask >> j) & 1 == 1 {
                        sum += v;
                    }
                }
                sum
            };
            total += lik.ln() - self.scale[p] as f64 * LN_SCALE;
        }
        total
    }
}

/// One table fill: `table[p][j] = Σ_r Σ_i (w_r·π_i)·AB[p][r][i]·P_r[i][j]`
/// for `j < states`, and their sum in column `states`. Rates outer, states
/// inner, exact-zero weights skipped, `(w_r·π_i)·AB[i]` formed before the
/// multiplication by `P_ij` — the order [`QueryEvaluator::score`]
/// reproduces.
struct TableFill<'a> {
    /// `[pattern][rate][state]` attachment partials.
    ab: &'a [f64],
    /// `[rate][state]`: `w_r·π_i`.
    weights: &'a [f64],
    /// `[rate][i][j]`: the pendant branch's transition matrices.
    pm: &'a [f64],
    /// `[pattern][state + 1]`, fully overwritten.
    table: &'a mut [f64],
}

impl TableFill<'_> {
    /// Compile-time `S`: the row accumulates in a stack array and the `j`
    /// loop is a contiguous `S`-wide axpy.
    #[inline(always)]
    fn fixed<const S: usize>(self) {
        let stride = self.weights.len();
        for (out, ab) in self.table.chunks_exact_mut(S + 1).zip(self.ab.chunks_exact(stride)) {
            let mut row = [0.0f64; S];
            let per_rate = self
                .weights
                .chunks_exact(S)
                .zip(ab.chunks_exact(S))
                .zip(self.pm.chunks_exact(S * S));
            for ((wf, ab), pmr) in per_rate {
                for i in 0..S {
                    let w = wf[i] * ab[i];
                    if w == 0.0 {
                        continue;
                    }
                    let prow: &[f64; S] = pmr[i * S..(i + 1) * S].try_into().unwrap();
                    for j in 0..S {
                        row[j] += w * prow[j];
                    }
                }
            }
            out[..S].copy_from_slice(&row);
            out[S] = row.iter().sum();
        }
    }

    /// [`fixed`] under the code generation of the layout's kernel tier:
    /// the simd tier's AVX2 backend re-instantiates the portable body
    /// behind a `target_feature` shim, as `phylo_kernel::simd::propagate`
    /// does — wider lanes over the `j` loop, the same operations in the
    /// same order, and without the `fma` feature nothing contracts.
    ///
    /// [`fixed`]: TableFill::fixed
    fn fixed_for_tier<const S: usize>(self, tier: KernelTier) {
        if tier == KernelTier::Simd && simd::backend() == SimdBackend::Avx2 {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `simd::backend()` verified avx2 at runtime.
            return unsafe { self.fixed_avx2::<S>() };
        }
        self.fixed::<S>()
    }

    /// SAFETY: caller guarantees avx2 is available.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn fixed_avx2<const S: usize>(self) {
        self.fixed::<S>()
    }

    /// Any state count, accumulating in place in the table row, with the
    /// weights taken from the model rather than from the evaluator's table:
    /// the Generic kind's and the reference tier's loop, and the oracle of
    /// the fixed-size ones.
    fn generic(self, ctx: &ReferenceContext) {
        let layout = ctx.layout();
        let states = layout.states;
        let (freqs, rw) = (ctx.model().freqs(), ctx.model().gamma().weights());
        self.table.fill(0.0);
        for p in 0..layout.patterns {
            let row = &mut self.table[p * (states + 1)..(p + 1) * (states + 1)];
            for r in 0..layout.rates {
                let base = p * layout.pattern_stride() + r * states;
                let ab = &self.ab[base..base + states];
                let pmr = &self.pm[r * states * states..(r + 1) * states * states];
                for i in 0..states {
                    let w = rw[r] * freqs[i] * ab[i];
                    if w == 0.0 {
                        continue;
                    }
                    let prow = &pmr[i * states..(i + 1) * states];
                    for (j, &pij) in prow.iter().enumerate() {
                        row[j] += w * pij;
                    }
                }
            }
            row[states] = row[..states].iter().sum();
        }
    }
}

/// Scores one query against one branch's attachment partials without a
/// [`BranchScoreTable`]: for each site only what the query's code selects
/// is accumulated — one column for a concrete residue, the whole row for
/// an ambiguity or gap code (their likelihood is a sum over columns, and a
/// sum of per-column sums is the only association that reproduces the
/// table's bits).
///
/// Every number equals [`BranchScoreTable::prescore`] of a table built
/// from the same partials and pendant length, bit for bit: each column sum
/// runs over rates, then states, skips exact-zero weights, and multiplies
/// `(w_r·π_i)·AB[i]` before `P_ij`, exactly as [`BranchScoreTable::rebuild`]
/// does.
///
/// The pendant branch's transition matrices are state of the evaluator
/// ([`QueryEvaluator::set_pendant`]), so a search that holds the pendant
/// length fixed builds them once.
#[derive(Debug, Default)]
pub struct QueryEvaluator {
    /// `[rate][state]`: `w_r·π_i`, fixed per context.
    weights: Vec<f64>,
    /// `[rate][i][j]`: `P(pendant)` as the model writes it (row reads).
    pm: Vec<f64>,
    /// `[rate][j][i]`: the per-rate transpose (contiguous column reads).
    pm_t: Vec<f64>,
}

impl QueryEvaluator {
    /// An evaluator for a context; no pendant length is set yet.
    pub fn new(ctx: &ReferenceContext) -> Self {
        let (freqs, rw) = (ctx.model().freqs(), ctx.model().gamma().weights());
        let len = ctx.layout().pmatrix_len();
        QueryEvaluator {
            weights: rw.iter().flat_map(|&w| freqs.iter().map(move |&f| w * f)).collect(),
            pm: vec![0.0; len],
            pm_t: vec![0.0; len],
        }
    }

    /// Sets the pendant branch length every following [`score`] call
    /// evaluates at.
    ///
    /// [`score`]: QueryEvaluator::score
    pub fn set_pendant(&mut self, ctx: &ReferenceContext, pendant: f64) {
        let states = ctx.layout().states;
        ctx.model().transition_matrices(pendant, &mut self.pm);
        for (p, t) in self.pm.chunks(states * states).zip(self.pm_t.chunks_mut(states * states)) {
            for (i, prow) in p.chunks(states).enumerate() {
                for (j, &pij) in prow.iter().enumerate() {
                    t[j * states + i] = pij;
                }
            }
        }
    }

    /// The log-likelihood of the query `codes` (one per alignment site)
    /// attached at `partials` through the pendant length last set.
    pub fn score(
        &self,
        ctx: &ReferenceContext,
        partials: &AttachmentPartials,
        site_to_pattern: &[u32],
        codes: &[u8],
    ) -> f64 {
        let sites = Sites { ctx, partials, site_to_pattern, codes };
        match ctx.layout().states {
            4 => self.score_fixed::<4>(&sites),
            20 => self.score_fixed::<20>(&sites),
            // An alphabet's state masks are `u32`: 32 states at most.
            states => self.score_sites(states, &mut [0.0; 32][..states], &sites),
        }
    }

    /// [`score_sites`] with the state count a compile-time constant and
    /// the row accumulator on the stack.
    ///
    /// [`score_sites`]: QueryEvaluator::score_sites
    fn score_fixed<const S: usize>(&self, sites: &Sites) -> f64 {
        self.score_sites(S, &mut [0.0; S], sites)
    }

    /// The site loop; inlined into each caller so that a constant `states`
    /// unrolls the state loops.
    #[inline(always)]
    fn score_sites(&self, states: usize, row: &mut [f64], sites: &Sites) -> f64 {
        let mut total = 0.0f64;
        for (&p, &code) in sites.site_to_pattern.iter().zip(sites.codes) {
            let p = p as usize;
            let lik = self.site_likelihood(states, row, sites, p, code);
            total += lik.ln() - sites.partials.scale[p] as f64 * LN_SCALE;
        }
        total
    }

    /// The linear likelihood of residue `code` at pattern `p`: the entry
    /// (or sum of entries) of the table row a [`BranchScoreTable`] would
    /// hold for `p`, to the bit.
    #[inline(always)]
    fn site_likelihood(
        &self,
        states: usize,
        row: &mut [f64],
        sites: &Sites,
        p: usize,
        code: u8,
    ) -> f64 {
        let alphabet = sites.ctx.alphabet();
        let stride = sites.ctx.layout().pattern_stride();
        // `(rate, w_r·π, AB)` slices of the pattern, rates ascending.
        let ab = &sites.partials.ab[p * stride..(p + 1) * stride];
        let per_rate = self.weights.chunks_exact(states).zip(ab.chunks_exact(states)).enumerate();
        if (code as usize) < states {
            // One column of the table row, read from the transpose.
            let mut acc = 0.0;
            for (r, (wf, ab)) in per_rate {
                let col = &self.pm_t[(r * states + code as usize) * states..][..states];
                for i in 0..states {
                    let w = wf[i] * ab[i];
                    if w == 0.0 {
                        continue;
                    }
                    acc += w * col[i];
                }
            }
            return acc;
        }
        // The whole table row, then the sum the code selects.
        row.fill(0.0);
        for (r, (wf, ab)) in per_rate {
            for i in 0..states {
                let w = wf[i] * ab[i];
                if w == 0.0 {
                    continue;
                }
                let prow = &self.pm[(r * states + i) * states..][..states];
                for (acc, &pij) in row.iter_mut().zip(prow) {
                    *acc += w * pij;
                }
            }
        }
        if code == alphabet.unknown_code() {
            return row.iter().sum();
        }
        let mask = alphabet.state_mask(code);
        let mut sum = 0.0;
        for (j, &v) in row.iter().enumerate() {
            if (mask >> j) & 1 == 1 {
                sum += v;
            }
        }
        sum
    }
}

/// What [`QueryEvaluator::score`] walks: the query and the branch.
#[derive(Clone, Copy)]
struct Sites<'a> {
    ctx: &'a ReferenceContext,
    partials: &'a AttachmentPartials,
    site_to_pattern: &'a [u32],
    codes: &'a [u8],
}

/// A fully scored placement of one query into one branch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScoredPlacement {
    /// Log-likelihood of the extended tree.
    pub log_likelihood: f64,
    /// Optimized pendant branch length.
    pub pendant: f64,
    /// Optimized proximal fraction of the insertion point (`0..1`).
    pub proximal_fraction: f64,
}

/// Thoroughly scores one query at one branch: three-way likelihood with
/// golden-section refinement of the pendant length and attachment
/// position. Both orientations of the branch must be prepared.
#[allow(clippy::too_many_arguments)]
pub fn score_thorough(
    ctx: &ReferenceContext,
    store: &ManagedStore,
    edge: phylo_tree::EdgeId,
    site_to_pattern: &[u32],
    codes: &[u8],
    blo_iterations: usize,
    scratch: &mut ScoreScratch,
) -> Result<ScoredPlacement, PlaceError> {
    let mean_len = ctx.tree().total_length() / ctx.tree().n_edges() as f64;
    let mut x = 0.5f64;
    let mut pendant = mean_len.max(1e-6);
    // Detach the reusable buffers from the scratch so the scratch can be
    // borrowed mutably alongside them; restored before returning.
    let mut partials = std::mem::take(&mut scratch.partials_a);
    let mut partials_b = std::mem::take(&mut scratch.partials_b);
    let mut eval = std::mem::take(&mut scratch.evaluator);
    attachment_partials_into(ctx, store, edge, x, scratch, &mut partials);
    eval.set_pendant(ctx, pendant);
    let mut best = eval.score(ctx, &partials, site_to_pattern, codes);
    for _ in 0..blo_iterations.max(1) {
        // Refine the pendant length with the attachment fixed.
        let (p_opt, p_ll) = golden_section(1e-6, (4.0 * mean_len).max(0.5), 8, |pend| {
            eval.set_pendant(ctx, pend);
            eval.score(ctx, &partials, site_to_pattern, codes)
        });
        if p_ll > best {
            best = p_ll;
            pendant = p_opt;
        }
        // Refine the attachment position with the pendant — and so its
        // transition matrices — fixed.
        eval.set_pendant(ctx, pendant);
        let (x_opt, x_ll) = golden_section(0.01, 0.99, 8, |xx| {
            attachment_partials_into(ctx, store, edge, xx, scratch, &mut partials_b);
            eval.score(ctx, &partials_b, site_to_pattern, codes)
        });
        if x_ll > best {
            best = x_ll;
            x = x_opt;
            attachment_partials_into(ctx, store, edge, x, scratch, &mut partials);
        }
    }
    scratch.partials_a = partials;
    scratch.partials_b = partials_b;
    scratch.evaluator = eval;
    Ok(ScoredPlacement { log_likelihood: best, pendant, proximal_fraction: x })
}

/// Golden-section search for the maximum of a unimodal-ish function.
/// Returns `(argmax, max)`. Few iterations suffice: placement surfaces are
/// smooth and we only need ranking-stable optima.
fn golden_section(
    lo: f64,
    hi: f64,
    iterations: usize,
    mut f: impl FnMut(f64) -> f64,
) -> (f64, f64) {
    const INV_PHI: f64 = 0.618_033_988_749_894_8;
    let (mut a, mut b) = (lo, hi);
    let mut c = b - (b - a) * INV_PHI;
    let mut d = a + (b - a) * INV_PHI;
    let mut fc = f(c);
    let mut fd = f(d);
    for _ in 0..iterations {
        if fc > fd {
            b = d;
            d = c;
            fd = fc;
            c = b - (b - a) * INV_PHI;
            fc = f(c);
        } else {
            a = c;
            c = d;
            fc = fd;
            d = a + (b - a) * INV_PHI;
            fd = f(d);
        }
    }
    if fc > fd {
        (c, fc)
    } else {
        (d, fd)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phylo_models::{dna, DiscreteGamma, SubstModel};
    use phylo_seq::alphabet::AlphabetKind;
    use phylo_seq::{compress, Msa, Sequence};
    use phylo_tree::{generate, DirEdgeId, EdgeId, NodeId};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn setup(n: usize, sites: usize, seed: u64) -> (ReferenceContext, Vec<u32>) {
        let model = SubstModel::new(&dna::jc69(), DiscreteGamma::none()).unwrap();
        setup_with(n, sites, seed, model)
    }

    fn setup_with(
        n: usize,
        sites: usize,
        seed: u64,
        model: SubstModel,
    ) -> (ReferenceContext, Vec<u32>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let tree = generate::yule(n, 0.1, &mut rng).unwrap();
        let rows: Vec<Sequence> = (0..n)
            .map(|i| {
                let text: String = (0..sites)
                    .map(|_| "ACGT".as_bytes()[rng.gen_range(0..4usize)] as char)
                    .collect();
                Sequence::from_text(tree.taxon(NodeId(i as u32)), AlphabetKind::Dna, &text).unwrap()
            })
            .collect();
        let patterns = compress(&Msa::new(rows).unwrap()).unwrap();
        let s2p = patterns.site_to_pattern().to_vec();
        let ctx =
            ReferenceContext::new(tree, model, AlphabetKind::Dna.alphabet(), &patterns).unwrap();
        (ctx, s2p)
    }

    /// GTR with unequal frequencies and four Γ rates: no weight is a power
    /// of two, so a reassociated product shows in the last bit.
    fn gtr_gamma() -> SubstModel {
        let rm = dna::gtr(&[1.0, 2.5, 1.2, 0.8, 3.1, 1.0], &[0.30, 0.21, 0.27, 0.22]).unwrap();
        let gamma = DiscreteGamma::new(0.5, 4, phylo_models::gamma::GammaMode::Mean).unwrap();
        SubstModel::new(&rm, gamma).unwrap()
    }

    #[test]
    fn golden_section_finds_peak() {
        let (x, v) = golden_section(0.0, 10.0, 30, |x| -(x - 3.7f64).powi(2));
        assert!((x - 3.7).abs() < 1e-3);
        assert!(v > -1e-5);
    }

    #[test]
    fn prescore_matches_thorough_at_same_parameters() {
        // The lookup-table prescore and the evaluator thorough scoring
        // runs on must agree exactly at identical (x=0.5, pendant).
        let (ctx, s2p) = setup(10, 30, 1);
        let store = ManagedStore::full(&ctx);
        let e = EdgeId(2);
        let block = store.prepare(&ctx, &[DirEdgeId::new(e, 0), DirEdgeId::new(e, 1)]).unwrap();
        let mut scratch = ScoreScratch::new(&ctx);
        let partials = attachment_partials(&ctx, &store, e, 0.5, &mut scratch);
        let table = BranchScoreTable::build(&ctx, &partials, 0.1, &mut scratch);
        let codes: Vec<u8> = (0..30).map(|i| (i % 4) as u8).collect();
        let pre = table.prescore(&ctx, &s2p, &codes);
        assert!(pre.is_finite() && pre < 0.0);
        let mut evaluator = QueryEvaluator::new(&ctx);
        evaluator.set_pendant(&ctx, 0.1);
        let direct = evaluator.score(&ctx, &partials, &s2p, &codes);
        assert_eq!(direct.to_bits(), pre.to_bits(), "evaluator {direct} vs table {pre}");
        store.release(block);
    }

    #[test]
    fn evaluator_reproduces_every_table_entry() {
        // Sharper than comparing log-likelihoods (`ln` swallows a last-bit
        // difference): every linear site likelihood, for every code, is
        // the table's entry — through the fixed-size loop and the generic
        // one alike.
        let (ctx, _) = setup_with(9, 50, 5, gtr_gamma());
        let store = ManagedStore::full(&ctx);
        let alphabet = ctx.alphabet();
        let states = ctx.layout().states;
        let mut scratch = ScoreScratch::new(&ctx);
        let mut evaluator = QueryEvaluator::new(&ctx);
        for e in ctx.tree().all_edges().take(6) {
            let block = store.prepare(&ctx, &[DirEdgeId::new(e, 0), DirEdgeId::new(e, 1)]).unwrap();
            let mut partials = attachment_partials(&ctx, &store, e, 0.31, &mut scratch);
            // An exact zero exercises the `w == 0.0` skip.
            partials.ab[3] = 0.0;
            let table = BranchScoreTable::build(&ctx, &partials, 0.07, &mut scratch);
            evaluator.set_pendant(&ctx, 0.07);
            let sites = Sites { ctx: &ctx, partials: &partials, site_to_pattern: &[], codes: &[] };
            for p in 0..ctx.layout().patterns {
                let row = &table.table[p * (states + 1)..(p + 1) * (states + 1)];
                for code in 0..alphabet.n_codes() as u8 {
                    let want = if code == alphabet.unknown_code() {
                        row[states]
                    } else {
                        let mask = alphabet.state_mask(code);
                        (0..states).filter(|j| (mask >> j) & 1 == 1).fold(0.0, |s, j| s + row[j])
                    };
                    let fixed = evaluator.site_likelihood(4, &mut [0.0; 4], &sites, p, code);
                    let generic = evaluator.site_likelihood(
                        std::hint::black_box(states),
                        &mut vec![0.0; states],
                        &sites,
                        p,
                        code,
                    );
                    assert_eq!(fixed.to_bits(), want.to_bits(), "{e:?} p={p} code={code}");
                    assert_eq!(generic.to_bits(), want.to_bits(), "{e:?} p={p} code={code}");
                }
            }
            store.release(block);
        }
    }

    #[test]
    fn prescore_cross_validates_against_point_likelihood() {
        // For a query that is constant within each reference pattern
        // (constructed by expanding per-pattern codes through the site
        // map), the table prescore must equal the independent three-way
        // point likelihood from the kernel crate, bit for bit.
        use phylo_kernel::kernels::Side;
        use phylo_kernel::likelihood::point_log_likelihood;
        use phylo_kernel::TipTable;
        let (ctx, s2p) = setup(11, 40, 7);
        let store = ManagedStore::full(&ctx);
        let layout = *ctx.layout();
        let pendant = 0.17;
        let masks: Vec<u32> =
            (0..ctx.alphabet().n_codes()).map(|c| ctx.alphabet().state_mask(c as u8)).collect();
        // Per-pattern query codes; expand to per-site for the prescore.
        let per_pattern: Vec<u8> = (0..layout.patterns).map(|p| ((p * 5 + 1) % 4) as u8).collect();
        let per_site: Vec<u8> = s2p.iter().map(|&p| per_pattern[p as usize]).collect();
        let mut scratch = ScoreScratch::new(&ctx);
        for e in ctx.tree().all_edges().take(8) {
            let block = store.prepare(&ctx, &[DirEdgeId::new(e, 0), DirEdgeId::new(e, 1)]).unwrap();
            let partials = attachment_partials(&ctx, &store, e, 0.5, &mut scratch);
            let table = BranchScoreTable::build(&ctx, &partials, pendant, &mut scratch);
            let pre = table.prescore(&ctx, &s2p, &per_site);

            // Independent path: three-way point likelihood over patterns.
            let t = ctx.tree().edge_length(e);
            let mut pm_half = vec![0.0; layout.pmatrix_len()];
            ctx.model().transition_matrices(0.5 * t, &mut pm_half);
            let mut pm_pend = vec![0.0; layout.pmatrix_len()];
            ctx.model().transition_matrices(pendant, &mut pm_pend);
            let tip_table = TipTable::build(&layout, &pm_pend, &masks);
            // Skip pendant-edge branches (one side is a tip) — the CLV
            // construction differs there and is covered by other tests.
            let rec = *ctx.tree().edge(e);
            if ctx.tree().is_leaf(rec.a) || ctx.tree().is_leaf(rec.b) {
                store.release(block);
                continue;
            }
            let (clv0, scale0) = store.clv_of(&ctx, DirEdgeId::new(e, 0)).unwrap();
            let (clv1, scale1) = store.clv_of(&ctx, DirEdgeId::new(e, 1)).unwrap();
            let sides = [
                Side::Clv { clv: clv0, scale: Some(scale0), pmatrix: &pm_half },
                Side::Clv { clv: clv1, scale: Some(scale1), pmatrix: &pm_half },
                Side::Tip { table: &tip_table, codes: &per_pattern },
            ];
            let direct = point_log_likelihood(
                &layout,
                &sides,
                ctx.model().freqs(),
                ctx.model().gamma().weights(),
                ctx.pattern_weights(),
                0..layout.patterns,
            );
            // Pattern weights multiply repeated sites; since the query is
            // pattern-constant, the weighted point likelihood equals the
            // per-site prescore sum.
            assert!((pre - direct).abs() < 1e-9, "edge {e:?}: prescore {pre} vs point {direct}");
            store.release(block);
        }
    }

    #[test]
    fn prescore_handles_gaps_and_ambiguity() {
        let (ctx, s2p) = setup(8, 20, 2);
        let store = ManagedStore::full(&ctx);
        let e = EdgeId(0);
        let block = store.prepare(&ctx, &[DirEdgeId::new(e, 0), DirEdgeId::new(e, 1)]).unwrap();
        let mut scratch = ScoreScratch::new(&ctx);
        let partials = attachment_partials(&ctx, &store, e, 0.5, &mut scratch);
        let table = BranchScoreTable::build(&ctx, &partials, 0.1, &mut scratch);
        let alphabet = ctx.alphabet();
        let n = alphabet.unknown_code();
        let r = alphabet.encode(b'R').unwrap();
        // All-gap query: finite score (each site contributes the summed column).
        let gaps = vec![n; 20];
        let s_gap = table.prescore(&ctx, &s2p, &gaps);
        assert!(s_gap.is_finite());
        // Ambiguity R = A|G must equal ln(col_A + col_G) summed.
        let ambig = vec![r; 20];
        let s_ambig = table.prescore(&ctx, &s2p, &ambig);
        assert!(s_ambig.is_finite());
        assert!(s_ambig < s_gap, "R carries more information than a gap");
        store.release(block);
    }

    #[test]
    fn identical_sequence_places_on_pendant_branch() {
        // A query identical to taxon T00000 must score best on (or next
        // to) that taxon's pendant branch.
        let (ctx, s2p) = setup(12, 60, 3);
        let store = ManagedStore::full(&ctx);
        let query: Vec<u8> = ctx.tip_codes(NodeId(0)).to_vec();
        // tip_codes are per-pattern; expand to per-site.
        let codes: Vec<u8> = s2p.iter().map(|&p| query[p as usize]).collect();
        let mut scratch = ScoreScratch::new(&ctx);
        let mut best_edge = EdgeId(0);
        let mut best_ll = f64::NEG_INFINITY;
        for e in ctx.tree().all_edges() {
            let block = store.prepare(&ctx, &[DirEdgeId::new(e, 0), DirEdgeId::new(e, 1)]).unwrap();
            let sp = score_thorough(&ctx, &store, e, &s2p, &codes, 1, &mut scratch).unwrap();
            if sp.log_likelihood > best_ll {
                best_ll = sp.log_likelihood;
                best_edge = e;
            }
            store.release(block);
        }
        // The winning branch must be the pendant branch of leaf 0.
        let pendant_edge = ctx.tree().neighbors(NodeId(0))[0].1;
        assert_eq!(best_edge, pendant_edge, "query identical to taxon 0");
    }

    #[test]
    fn thorough_beats_or_matches_fixed_parameters() {
        let (ctx, s2p) = setup(10, 40, 4);
        let store = ManagedStore::full(&ctx);
        let e = EdgeId(1);
        let block = store.prepare(&ctx, &[DirEdgeId::new(e, 0), DirEdgeId::new(e, 1)]).unwrap();
        let codes: Vec<u8> = (0..40).map(|i| ((i * 7) % 4) as u8).collect();
        let mut scratch = ScoreScratch::new(&ctx);
        let partials = attachment_partials(&ctx, &store, e, 0.5, &mut scratch);
        let mean_len = ctx.tree().total_length() / ctx.tree().n_edges() as f64;
        let fixed = BranchScoreTable::build(&ctx, &partials, mean_len, &mut scratch)
            .prescore(&ctx, &s2p, &codes);
        let opt = score_thorough(&ctx, &store, e, &s2p, &codes, 2, &mut scratch).unwrap();
        assert!(
            opt.log_likelihood >= fixed - 1e-9,
            "optimization regressed: {} < {fixed}",
            opt.log_likelihood
        );
        assert!(opt.pendant > 0.0);
        assert!(opt.proximal_fraction > 0.0 && opt.proximal_fraction < 1.0);
        store.release(block);
    }
}
