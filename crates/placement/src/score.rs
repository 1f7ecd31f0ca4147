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
//!   amortizes over a whole chunk ([`BranchScoreTable::prescore_chunk`]
//!   takes each entry's logarithm once for all of it). It is filled from
//!   an evaluator's pendant matrices, so a sweep builds those once, not
//!   once per branch.
//! * [`QueryEvaluator`] scores *one* query: per site it accumulates only
//!   the column the query's residue selects (the whole row only for
//!   ambiguity and gap codes), never materializing a table.
//!   [`score_thorough`] evaluates each (query, branch) pair dozens of
//!   times at different `(x, pendant)`, so it goes through the evaluator.
//!
//! The evaluator's sums run in the table's order — rates outer, states
//! inner, `(w_r·π_i)·AB[i]·P_ij` associated left to right — which is what
//! makes the table its test oracle and keeps the jplace bytes independent
//! of which of the two produced a number. The `(w_r·π_i)·AB[i]` factor is
//! formed once, where the partials are written
//! ([`AttachmentPartials::assign`]); both consumers read it.
//!
//! What the order binds is each site's *own* sum and the final sum over
//! sites. Sites are independent of each other, so the evaluator runs
//! [`SITE_BLOCK`] of them abreast — interleaved add chains, each in its
//! own order — and only then adds their logarithms in site order.

use crate::error::PlaceError;
use phylo_engine::{ManagedStore, ReferenceContext};
use phylo_kernel::kernels::{propagate_scratch, Side};
use phylo_kernel::simd;
use phylo_kernel::{KernelKind, KernelScratch, KernelTier, TipTable, LN_SCALE};

/// The weighted `A·B` product at an attachment point, over patterns ×
/// rates × states, with combined scaler counts.
#[derive(Debug, Clone, Default)]
pub struct AttachmentPartials {
    /// `[pattern][rate][state]`: `(w_r·π_i)·(A[i]·B[i])`, the two
    /// propagated sides times the weight every consumer would apply.
    wab: Vec<f64>,
    /// Per-pattern scaler counts (sum of both sides).
    scale: Vec<u32>,
}

impl AttachmentPartials {
    /// An empty buffer for reuse through [`attachment_partials_into`].
    pub const fn empty() -> Self {
        AttachmentPartials { wab: Vec::new(), scale: Vec::new() }
    }

    /// A buffer already at a context's size, so that no
    /// [`attachment_partials_into`] call allocates.
    pub(crate) fn sized(ctx: &ReferenceContext) -> Self {
        let layout = ctx.layout();
        AttachmentPartials { wab: vec![0.0; layout.clv_len()], scale: vec![0; layout.patterns] }
    }

    /// Overwrites the buffer with the product of two sides propagated to
    /// the attachment point (`[pattern][rate][state]` each, plus their
    /// per-pattern scaler counts), weighted by `weights`
    /// ([`rate_state_weights`]): `(w_r·π_i)·(prox·dist)`, in that
    /// association. The one place partials are written.
    pub fn assign(
        &mut self,
        weights: &[f64],
        prox: &[f64],
        prox_scale: &[u32],
        dist: &[f64],
        dist_scale: &[u32],
    ) {
        let stride = weights.len();
        assert_eq!(prox.len(), dist.len());
        assert_eq!(prox_scale.len(), dist_scale.len());
        assert_eq!(prox.len(), prox_scale.len() * stride);
        // Every element is overwritten: resizing without a clear costs
        // nothing once the buffer is warm.
        self.wab.resize(prox.len(), 0.0);
        let sides = prox.chunks_exact(stride).zip(dist.chunks_exact(stride));
        for (out, (prox, dist)) in self.wab.chunks_exact_mut(stride).zip(sides) {
            for (((o, &w), &p), &d) in out.iter_mut().zip(weights).zip(prox).zip(dist) {
                *o = w * (p * d);
            }
        }
        self.scale.clear();
        self.scale.extend(prox_scale.iter().zip(dist_scale).map(|(&a, &b)| a + b));
    }

    /// Per-pattern scaler counts.
    pub fn scale(&self) -> &[u32] {
        &self.scale
    }
}

/// `[rate][state]`: `w_r·π_i`, the weight of a model's rate category times
/// the stationary frequency of a state — what [`AttachmentPartials::assign`]
/// folds into the partials.
pub fn rate_state_weights(ctx: &ReferenceContext) -> Vec<f64> {
    let (freqs, rw) = (ctx.model().freqs(), ctx.model().gamma().weights());
    rw.iter().flat_map(|&w| freqs.iter().map(move |&f| w * f)).collect()
}

/// Scratch buffers reused across scoring calls to keep the hot path
/// allocation-free: every buffer is allocated at its final size by
/// [`ScoreScratch::new`], so a thread handed a fresh scratch performs no
/// heap allocation in a `(query × branch)` thorough scoring pass.
#[derive(Debug, Default)]
pub struct ScoreScratch {
    prox: Vec<f64>,
    prox_scale: Vec<u32>,
    dist: Vec<f64>,
    dist_scale: Vec<u32>,
    pmatrix: Vec<f64>,
    /// Kernel working buffers (only touched by the generic fallback).
    kernel: KernelScratch,
    /// [`rate_state_weights`] of the context, computed once.
    weights: Vec<f64>,
    /// Reusable tip rows of a pendant branch's leaf (rebuilt, never
    /// reallocated).
    tip_table: TipTable,
    /// The partials at the attachment position [`score_thorough`] holds.
    partials: AttachmentPartials,
    /// The two live points of its attachment-position search.
    search: [AttachmentPartials; 2],
    /// The evaluator behind every refinement eval of [`score_thorough`].
    evaluator: QueryEvaluator,
    /// Searches of the pairs scored since [`ScoreScratch::publish_searches`].
    searches: SearchCounts,
}

impl ScoreScratch {
    /// Scratch sized for a context.
    pub fn new(ctx: &ReferenceContext) -> Self {
        let mut s = ScoreScratch::for_tables(ctx);
        s.search = [AttachmentPartials::sized(ctx), AttachmentPartials::sized(ctx)];
        s
    }

    /// Scratch for building score tables ([`ScoreScratch::midpoint_partials`])
    /// only: as [`ScoreScratch::new`] without the two buffers that only
    /// [`score_thorough`]'s attachment-position search uses.
    pub(crate) fn for_tables(ctx: &ReferenceContext) -> Self {
        let layout = ctx.layout();
        let pmatrix = vec![0.0; layout.pmatrix_len()];
        ScoreScratch {
            prox: vec![0.0; layout.clv_len()],
            prox_scale: vec![0; layout.patterns],
            dist: vec![0.0; layout.clv_len()],
            dist_scale: vec![0; layout.patterns],
            kernel: KernelScratch::for_layout(layout),
            // Built once at its final size: every rebuild reuses it.
            tip_table: TipTable::build(layout, &pmatrix, ctx.alphabet().state_masks()),
            pmatrix,
            weights: rate_state_weights(ctx),
            partials: AttachmentPartials::sized(ctx),
            search: Default::default(),
            evaluator: QueryEvaluator::new(ctx),
            searches: SearchCounts::default(),
        }
    }

    /// The partials of `edge` at its midpoint, built into this scratch's
    /// own buffer: what a branch's score table is built from.
    pub(crate) fn midpoint_partials(
        &mut self,
        ctx: &ReferenceContext,
        store: &ManagedStore,
        edge: phylo_tree::EdgeId,
    ) -> &AttachmentPartials {
        let mut out = std::mem::take(&mut self.partials);
        attachment_partials_into(ctx, store, edge, 0.5, self, &mut out);
        self.partials = out;
        &self.partials
    }

    /// Adds the searches tallied since the last call to the
    /// `place.thorough.searches_*` counters: once per batch of pairs, so
    /// scorer threads do not meet on the shared counters pair by pair.
    pub fn publish_searches(&mut self) {
        let SearchCounts { run, skipped } = std::mem::take(&mut self.searches);
        phylo_obs::counter!("place.thorough.searches_run").add(run);
        phylo_obs::counter!("place.thorough.searches_skipped").add(skipped);
    }
}

/// Propagates one side of `edge` (the orientation `d`) through the
/// per-rate transition matrices `pm` of a branch segment into `out`; a
/// leaf's side builds the tip rows of its own codes from `pm`. All
/// working storage (`tip_table`, `kernel`) is caller-owned and reused.
#[allow(clippy::too_many_arguments)]
fn propagate_partial(
    ctx: &ReferenceContext,
    store: &ManagedStore,
    d: phylo_tree::DirEdgeId,
    pm: &[f64],
    tip_table: &mut TipTable,
    kernel: &mut KernelScratch,
    out: &mut [f64],
    out_scale: &mut [u32],
) {
    let layout = ctx.layout();
    match store.side(ctx, d) {
        phylo_engine::EdgeSide::Tip(node) => {
            let masks = ctx.alphabet().state_masks();
            tip_table.rebuild(layout, pm, masks, ctx.tip_code_set(node));
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

/// Computes the weighted `A·B` product for `edge` at proximal fraction `x`
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
        prox,
        prox_scale,
        dist,
        dist_scale,
        pmatrix,
        kernel,
        weights,
        tip_table,
        ..
    } = scratch;
    pmatrix.resize(layout.pmatrix_len(), 0.0);
    ctx.model().transition_matrices(t_prox, pmatrix);
    propagate_partial(ctx, store, d_prox, pmatrix, tip_table, kernel, prox, prox_scale);
    // At the midpoint — every lookup-table row, every prescore-sweep
    // branch, the first evaluation of every thorough pair — both halves
    // have the same length, hence the same matrices.
    if t_dist != t_prox {
        ctx.model().transition_matrices(t_dist, pmatrix);
    }
    propagate_partial(ctx, store, d_dist, pmatrix, tip_table, kernel, dist, dist_scale);
    out.assign(weights, prox, prox_scale, dist, dist_scale);
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
/// plus the fully-ambiguous column (`states`), which holds its site term
/// (`log_term` of the columns' sum) because a gap or unknown residue is
/// only ever read through the logarithm. This is one row of the paper's
/// preplacement lookup table.
#[derive(Debug, Clone)]
pub struct BranchScoreTable {
    /// `[pattern][state+1]`: linear likelihoods, then the fully-ambiguous
    /// site term.
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

    /// A table already at a context's size, so that no
    /// [`BranchScoreTable::rebuild`] allocates.
    pub(crate) fn sized(ctx: &ReferenceContext) -> BranchScoreTable {
        let layout = ctx.layout();
        BranchScoreTable {
            table: vec![0.0; layout.patterns * (layout.states + 1)],
            scale: vec![0; layout.patterns],
            states: layout.states,
        }
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
    /// allocations, at the pendant length last set on `eval`: the pendant
    /// transition matrices are the evaluator's, so a sweep over many
    /// branches at one pendant length builds them once and this function
    /// builds none. Thorough scoring does not come
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
        let avx2 = simd::runs_avx2(layout);
        match (layout.kind(), layout.tier()) {
            (KernelKind::Generic, _) | (_, KernelTier::Reference) => fill.generic(ctx),
            (KernelKind::Dna4, KernelTier::Simd) => fill.fixed_for::<4>(avx2),
            (KernelKind::Protein20, KernelTier::Simd) => fill.fixed_for::<20>(avx2),
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
        debug_assert_eq!(partials.wab.len(), layout.clv_len());
        self.states = layout.states;
        self.scale.clear();
        self.scale.extend_from_slice(&partials.scale);
        // Every fill writes every entry: no clear.
        self.table.resize(layout.patterns * (layout.states + 1), 0.0);
        TableFill {
            wab: &partials.wab,
            scale: &partials.scale,
            pm: &eval.pm,
            table: &mut self.table,
        }
    }

    /// Bytes this table occupies.
    pub fn bytes(&self) -> usize {
        self.table.len() * 8 + self.scale.len() * 4
    }

    /// Prescoring: the log-likelihood of this query at this branch, walking
    /// the per-site table. Ambiguity codes sum the matching concrete
    /// columns; the fully-ambiguous (gap/unknown) code reads its
    /// precomputed site term.
    pub fn prescore(&self, ctx: &ReferenceContext, site_to_pattern: &[u32], codes: &[u8]) -> f64 {
        self.walk(ctx, site_to_pattern, codes, |idx, p| self.log_entry(self.table[idx], p))
    }

    /// [`prescore`] of every query of `queries` at this branch, handed to
    /// `out(query index, score)`. A query reads `sites` table entries and
    /// takes the logarithm of each, and the table has only
    /// `patterns × (states + 1)` distinct ones: when the queries together
    /// read more entries than the table holds, every concrete entry's
    /// logarithm is taken once into `log_row` (a scratch row the caller
    /// reuses across branches; the fully-ambiguous column is copied, being
    /// a site term already) and the queries add from it — the same terms
    /// in the same order, so the same bits.
    ///
    /// [`prescore`]: BranchScoreTable::prescore
    pub fn prescore_chunk<'q>(
        &self,
        ctx: &ReferenceContext,
        site_to_pattern: &[u32],
        queries: impl ExactSizeIterator<Item = &'q [u8]>,
        log_row: &mut Vec<f64>,
        mut out: impl FnMut(usize, f64),
    ) {
        if queries.len() * site_to_pattern.len() <= self.table.len() {
            for (q, codes) in queries.enumerate() {
                out(q, self.prescore(ctx, site_to_pattern, codes));
            }
            return;
        }
        let width = self.states + 1;
        log_row.clear();
        for (p, row) in self.table.chunks_exact(width).enumerate() {
            let (concrete, unknown) = row.split_at(self.states);
            log_row.extend(concrete.iter().map(|&lik| self.log_entry(lik, p)));
            log_row.extend_from_slice(unknown);
        }
        for (q, codes) in queries.enumerate() {
            out(q, self.walk(ctx, site_to_pattern, codes, |idx, _| log_row[idx]));
        }
    }

    /// The [`log_term`] of the linear likelihood `lik` at pattern `p`.
    #[inline(always)]
    fn log_entry(&self, lik: f64, p: usize) -> f64 {
        log_term(lik, self.scale[p])
    }

    /// The site walk behind every prescore: `log_of(index into the table,
    /// pattern)` supplies the term of a concrete residue, the fully-ambiguous
    /// column holds its own, and a partial-ambiguity code sums its columns
    /// linearly first.
    #[inline(always)]
    fn walk(
        &self,
        ctx: &ReferenceContext,
        site_to_pattern: &[u32],
        codes: &[u8],
        log_of: impl Fn(usize, usize) -> f64,
    ) -> f64 {
        let states = self.states;
        let alphabet = ctx.alphabet();
        let unknown = alphabet.unknown_code();
        let mut total = 0.0f64;
        for (&p, &code) in site_to_pattern.iter().zip(codes) {
            let p = p as usize;
            let base = p * (states + 1);
            total += if (code as usize) < states {
                log_of(base + code as usize, p)
            } else if code == unknown {
                self.table[base + states]
            } else {
                let mask = alphabet.state_mask(code);
                let mut sum = 0.0;
                for (j, &v) in self.table[base..base + states].iter().enumerate() {
                    if (mask >> j) & 1 == 1 {
                        sum += v;
                    }
                }
                self.log_entry(sum, p)
            };
        }
        total
    }
}

/// A site's term of a log-likelihood sum: the logarithm of its linear
/// likelihood, the pattern's `scalers` scaling events undone. The one
/// spelling of it — table walk, log row and evaluator add the same bits.
#[inline(always)]
fn log_term(lik: f64, scalers: u32) -> f64 {
    lik.ln() - scalers as f64 * LN_SCALE
}

/// One table fill: `table[p][j] = Σ_r Σ_i WAB[p][r][i]·P_r[i][j]` for
/// `j < states`, and the [`log_term`] of their sum in column `states`,
/// with `WAB = (w_r·π_i)·AB[i]` as the partials hold it. Rates outer,
/// states inner, exact-zero weights skipped — the order
/// [`QueryEvaluator::score`] reproduces.
struct TableFill<'a> {
    /// `[pattern][rate][state]` weighted attachment partials.
    wab: &'a [f64],
    /// Per-pattern scaler counts of the partials.
    scale: &'a [u32],
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
        let stride = self.pm.len() / S;
        let rows = self.table.chunks_exact_mut(S + 1).zip(self.wab.chunks_exact(stride));
        for ((out, wab), &scalers) in rows.zip(self.scale) {
            let mut row = [0.0f64; S];
            for (wab, pmr) in wab.chunks_exact(S).zip(self.pm.chunks_exact(S * S)) {
                for i in 0..S {
                    let w = wab[i];
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
            out[S] = log_term(row.iter().sum(), scalers);
        }
    }

    /// [`fixed`] under the code generation of the layout's backend: when
    /// `avx2` ([`simd::runs_avx2`]) the portable body is re-instantiated
    /// behind a `target_feature` shim, as `phylo_kernel::simd::propagate`
    /// does — wider lanes over the `j` loop, the same operations in the
    /// same order, and without the `fma` feature nothing contracts.
    ///
    /// [`fixed`]: TableFill::fixed
    fn fixed_for<const S: usize>(self, avx2: bool) {
        if avx2 {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `simd::runs_avx2` verified avx2 at runtime.
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

    /// Any state count, accumulating in place in the table row: the
    /// Generic kind's and the reference tier's loop, and the oracle of the
    /// fixed-size ones.
    fn generic(self, ctx: &ReferenceContext) {
        let layout = ctx.layout();
        let states = layout.states;
        self.table.fill(0.0);
        for p in 0..layout.patterns {
            let row = &mut self.table[p * (states + 1)..(p + 1) * (states + 1)];
            for r in 0..layout.rates {
                let base = p * layout.pattern_stride() + r * states;
                let wab = &self.wab[base..base + states];
                let pmr = &self.pm[r * states * states..(r + 1) * states * states];
                for i in 0..states {
                    let w = wab[i];
                    if w == 0.0 {
                        continue;
                    }
                    let prow = &pmr[i * states..(i + 1) * states];
                    for (j, &pij) in prow.iter().enumerate() {
                        row[j] += w * pij;
                    }
                }
            }
            row[states] = log_term(row[..states].iter().sum(), self.scale[p]);
        }
    }
}

/// How many sites the evaluator scores abreast. One site's likelihood is a
/// single `rates × states`-long chain of dependent adds, bound by the add
/// latency; sites do not depend on each other, so this many chains are
/// interleaved and the core's add ports fill.
pub const SITE_BLOCK: usize = 4;

/// How many columns of a block's whole rows are accumulated at a time: one
/// AVX2 vector of `f64`.
const ROW_LANES: usize = 4;

/// Scores one query against one branch's attachment partials without a
/// [`BranchScoreTable`]: for each site only what the query's code selects
/// is accumulated — one column for a concrete residue, the whole row for
/// an ambiguity or gap code (their likelihood is a sum over columns, and a
/// sum of per-column sums is the only association that reproduces the
/// table's bits).
///
/// Every number equals [`BranchScoreTable::prescore`] of a table built
/// from the same partials and pendant length, bit for bit: each column sum
/// runs over rates, then states, and adds `WAB[i]·P_ij`, exactly as
/// [`BranchScoreTable::rebuild`] does. The table skips exact-zero `WAB`
/// entries; adding them changes nothing — the term is `±0.0` (`P` is
/// finite), and neither a non-zero accumulator nor the `+0.0` the sum
/// starts from moves when `±0.0` is added — so the blocked loops below
/// run without the branch.
///
/// The pendant branch's transition matrices are state of the evaluator
/// ([`QueryEvaluator::set_pendant`]), so a search that holds the pendant
/// length fixed builds them once.
#[derive(Debug, Default)]
pub struct QueryEvaluator {
    /// `[rate][i][j]`: `P(pendant)` as the model writes it (row reads).
    pm: Vec<f64>,
    /// `[rate][j][i]`: the per-rate transpose (contiguous column reads).
    pm_t: Vec<f64>,
}

impl QueryEvaluator {
    /// An evaluator for a context; no pendant length is set yet.
    pub fn new(ctx: &ReferenceContext) -> Self {
        let len = ctx.layout().pmatrix_len();
        QueryEvaluator { pm: vec![0.0; len], pm_t: vec![0.0; len] }
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
        let layout = ctx.layout();
        // As `TableFill::fixed_for`: the simd tier's AVX2 backend gets the
        // wider lanes.
        let avx2 = simd::runs_avx2(layout);
        match layout.states {
            4 => self.score_blocked::<4>(&sites, avx2),
            20 => self.score_blocked::<20>(&sites, avx2),
            // An alphabet's state masks are `u32`: 32 states at most.
            states => self.score_site_by_site(states, &mut [0.0; 32][..states], &sites),
        }
    }

    /// One site after the other: the loop of alphabets without a
    /// compile-time state count, and the oracle [`score_blocked`] is
    /// tested against.
    ///
    /// [`score_blocked`]: QueryEvaluator::score_blocked
    fn score_site_by_site(&self, states: usize, row: &mut [f64], sites: &Sites) -> f64 {
        let mut total = 0.0f64;
        for (&p, &code) in sites.site_to_pattern.iter().zip(sites.codes) {
            let p = p as usize;
            let lik = self.site_likelihood(states, row, sites, p, code);
            total += log_term(lik, sites.partials.scale[p]);
        }
        total
    }

    /// [`SITE_BLOCK`] sites at a time: a likelihood pass over the block —
    /// columns abreast if every code is a concrete residue, whole rows
    /// abreast if none is, one site after the other in a mixed block and
    /// in the tail — then the logarithms, added in site order. `avx2`
    /// (the caller has verified it at runtime) sends the whole-row blocks
    /// through the four-lane instantiation.
    fn score_blocked<const S: usize>(&self, sites: &Sites, avx2: bool) -> f64 {
        const B: usize = SITE_BLOCK;
        let scale = &sites.partials.scale;
        let mut row = [0.0f64; S];
        let mut total = 0.0f64;
        let n = sites.site_to_pattern.len().min(sites.codes.len());
        let mut patterns = sites.site_to_pattern[..n].chunks_exact(B);
        let mut codes = sites.codes[..n].chunks_exact(B);
        for (block_ps, block_cs) in (&mut patterns).zip(&mut codes) {
            let (mut ps, mut cs, mut concrete) = ([0usize; B], [0u8; B], 0);
            for k in 0..B {
                (ps[k], cs[k]) = (block_ps[k] as usize, block_cs[k]);
                concrete += usize::from((cs[k] as usize) < S);
            }
            let liks = if concrete == B {
                self.block_columns::<S>(sites, ps, cs)
            } else if concrete == 0 {
                self.block_rows_for::<S>(avx2, sites, ps, cs)
            } else {
                let mut liks = [0.0f64; B];
                for k in 0..B {
                    liks[k] = self.site_likelihood(S, &mut row, sites, ps[k], cs[k]);
                }
                liks
            };
            for k in 0..B {
                total += log_term(liks[k], scale[ps[k]]);
            }
        }
        for (&p, &code) in patterns.remainder().iter().zip(codes.remainder()) {
            let p = p as usize;
            let lik = self.site_likelihood(S, &mut row, sites, p, code);
            total += log_term(lik, scale[p]);
        }
        total
    }

    /// The linear likelihoods of a block of concrete residues: each
    /// site's column sum in [`site_likelihood`]'s order, the sites' add
    /// chains interleaved.
    ///
    /// [`site_likelihood`]: QueryEvaluator::site_likelihood
    #[inline(always)]
    fn block_columns<const S: usize>(
        &self,
        sites: &Sites,
        ps: [usize; SITE_BLOCK],
        cs: [u8; SITE_BLOCK],
    ) -> [f64; SITE_BLOCK] {
        let stride = self.pm.len() / S;
        let wab = &sites.partials.wab;
        let mut acc = [0.0f64; SITE_BLOCK];
        for r in 0..stride / S {
            let (mut w, mut col) = ([&[0.0f64; S]; SITE_BLOCK], [&[0.0f64; S]; SITE_BLOCK]);
            for k in 0..SITE_BLOCK {
                w[k] = wab[ps[k] * stride + r * S..][..S].try_into().expect("S-long slice");
                col[k] = self.pm_t[(r * S + cs[k] as usize) * S..][..S]
                    .try_into()
                    .expect("S-long slice");
            }
            for i in 0..S {
                for k in 0..SITE_BLOCK {
                    acc[k] += w[k][i] * col[k][i];
                }
            }
        }
        acc
    }

    /// [`block_rows`] with the lane update left to the compiler, or — under
    /// the simd tier's AVX2 backend — spelled as one vector multiply and
    /// one vector add: the same operations in the same order.
    ///
    /// [`block_rows`]: QueryEvaluator::block_rows
    #[inline(always)]
    fn block_rows_for<const S: usize>(
        &self,
        avx2: bool,
        sites: &Sites,
        ps: [usize; SITE_BLOCK],
        cs: [u8; SITE_BLOCK],
    ) -> [f64; SITE_BLOCK] {
        if avx2 {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `avx2` is set only after `simd::runs_avx2` verified
            // avx2 at runtime.
            return unsafe { self.block_rows_avx2::<S>(sites, ps, cs) };
        }
        self.block_rows::<S>(sites, ps, cs, |acc, w, p| {
            for j in 0..ROW_LANES {
                acc[j] += w * p[j];
            }
        })
    }

    /// [`block_rows`] with `acc += w·p` as a four-lane multiply and add.
    /// Left to itself the compiler keeps the block's accumulators as
    /// `SITE_BLOCK × 4` scalar chains, which is no faster than one site's
    /// vector chain; no `fma` — one rounding per operation, as in the
    /// scalar loop.
    ///
    /// # Safety
    /// avx2 must be available.
    ///
    /// [`block_rows`]: QueryEvaluator::block_rows
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn block_rows_avx2<const S: usize>(
        &self,
        sites: &Sites,
        ps: [usize; SITE_BLOCK],
        cs: [u8; SITE_BLOCK],
    ) -> [f64; SITE_BLOCK] {
        use core::arch::x86_64::{
            _mm256_add_pd, _mm256_loadu_pd, _mm256_mul_pd, _mm256_set1_pd, _mm256_storeu_pd,
        };
        self.block_rows::<S>(sites, ps, cs, |acc, w, p| {
            // SAFETY: both arrays are `ROW_LANES = 4` doubles, one vector,
            // and the unaligned forms ask for no alignment; avx2 is this
            // function's contract.
            unsafe {
                let prod = _mm256_mul_pd(_mm256_set1_pd(w), _mm256_loadu_pd(p.as_ptr()));
                let sum = _mm256_add_pd(_mm256_loadu_pd(acc.as_ptr()), prod);
                _mm256_storeu_pd(acc.as_mut_ptr(), sum);
            }
        })
    }

    /// The linear likelihoods of a block of gap and ambiguity codes: each
    /// site's whole table row in [`site_likelihood`]'s order, the sites'
    /// rows accumulated abreast, then the sum each code selects.
    ///
    /// The rows are built [`ROW_LANES`] columns at a time — every column's
    /// sum still runs over rates, then states — so the block's
    /// accumulators fit the registers whatever `S` is.
    /// `axpy(acc, w, p)` is `acc += w·p`, lane by lane. `axpy` aside, no
    /// closures in here: one handed to a combinator of `core` is not
    /// inlined into the avx2 instantiation.
    ///
    /// [`site_likelihood`]: QueryEvaluator::site_likelihood
    #[inline(always)]
    fn block_rows<const S: usize>(
        &self,
        sites: &Sites,
        ps: [usize; SITE_BLOCK],
        cs: [u8; SITE_BLOCK],
        axpy: impl Fn(&mut [f64; ROW_LANES], f64, &[f64; ROW_LANES]),
    ) -> [f64; SITE_BLOCK] {
        const { assert!(S.is_multiple_of(ROW_LANES)) };
        let stride = self.pm.len() / S;
        // Each site's `stride` weights, sliced once: inside the loop
        // `ri < stride` is all a bounds check has to know.
        let mut wab = [&sites.partials.wab[..0]; SITE_BLOCK];
        for k in 0..SITE_BLOCK {
            wab[k] = &sites.partials.wab[ps[k] * stride..][..stride];
        }
        let mut rows = [[0.0f64; S]; SITE_BLOCK];
        for j in (0..S).step_by(ROW_LANES) {
            let mut acc = [[0.0f64; ROW_LANES]; SITE_BLOCK];
            for (prow, ri) in self.pm.chunks_exact(S).zip(0..stride) {
                let p: &[f64; ROW_LANES] =
                    prow[j..j + ROW_LANES].try_into().expect("ROW_LANES-long slice");
                for k in 0..SITE_BLOCK {
                    axpy(&mut acc[k], wab[k][ri], p);
                }
            }
            for k in 0..SITE_BLOCK {
                rows[k][j..j + ROW_LANES].copy_from_slice(&acc[k]);
            }
        }
        let mut liks = [0.0f64; SITE_BLOCK];
        for k in 0..SITE_BLOCK {
            liks[k] = selected_sum(sites.ctx.alphabet(), &rows[k], cs[k]);
        }
        liks
    }

    /// The linear likelihood of residue `code` at pattern `p`: the entry
    /// (or sum of entries) of the table row a [`BranchScoreTable`] would
    /// hold for `p`, to the bit — zero skip included.
    #[inline(always)]
    fn site_likelihood(
        &self,
        states: usize,
        row: &mut [f64],
        sites: &Sites,
        p: usize,
        code: u8,
    ) -> f64 {
        let stride = sites.ctx.layout().pattern_stride();
        // `(rate, WAB)` slices of the pattern, rates ascending.
        let per_rate = sites.partials.wab[p * stride..(p + 1) * stride].chunks_exact(states);
        if (code as usize) < states {
            // One column of the table row, read from the transpose.
            let mut acc = 0.0;
            for (r, wab) in per_rate.enumerate() {
                let col = &self.pm_t[(r * states + code as usize) * states..][..states];
                for i in 0..states {
                    let w = wab[i];
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
        for (r, wab) in per_rate.enumerate() {
            for i in 0..states {
                let w = wab[i];
                if w == 0.0 {
                    continue;
                }
                let prow = &self.pm[(r * states + i) * states..][..states];
                for (acc, &pij) in row.iter_mut().zip(prow) {
                    *acc += w * pij;
                }
            }
        }
        selected_sum(sites.ctx.alphabet(), row, code)
    }
}

/// The likelihood a gap or ambiguity `code` selects from a table row:
/// the sum of all columns, or of the columns in the code's state mask.
#[inline(always)]
fn selected_sum(alphabet: &phylo_seq::alphabet::Alphabet, row: &[f64], code: u8) -> f64 {
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
/// position, alternated until neither search has anything new to look at
/// or `blo_iterations` rounds have run. Both orientations of the branch
/// must be prepared.
///
/// A pendant search is a pure function of the partials at `x` (its
/// lattice is fixed), an attachment search of the pendant length: a search
/// whose input is what it was the last time would return what is already
/// absorbed in `best`, so it is skipped, and a round that skips both ends
/// the alternation — coordinate ascent to its fixpoint, not to a count.
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
    let (placement, searches) =
        thorough_search(ctx, site_to_pattern, codes, blo_iterations, scratch, |x, scratch, out| {
            attachment_partials_into(ctx, store, edge, x, scratch, out)
        });
    scratch.searches.run += searches.run;
    scratch.searches.skipped += searches.skipped;
    Ok(placement)
}

/// How many of a pair's pendant and attachment searches ran, and how many
/// the fixpoint rule skipped.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct SearchCounts {
    run: u64,
    skipped: u64,
}

/// The search behind [`score_thorough`], over whatever branch
/// `partials_at(x, scratch, out)` builds the partials of.
fn thorough_search(
    ctx: &ReferenceContext,
    site_to_pattern: &[u32],
    codes: &[u8],
    blo_iterations: usize,
    scratch: &mut ScoreScratch,
    mut partials_at: impl FnMut(f64, &mut ScoreScratch, &mut AttachmentPartials),
) -> (ScoredPlacement, SearchCounts) {
    let mut x = 0.5f64;
    let mut pendant = ctx.starting_pendant();
    let pendant_hi = (4.0 * ctx.mean_branch_length()).max(0.5);
    // Detach the reusable buffers from the scratch so the scratch can be
    // borrowed mutably alongside them; restored before returning.
    let mut partials = std::mem::take(&mut scratch.partials);
    let mut search = std::mem::take(&mut scratch.search);
    let mut eval = std::mem::take(&mut scratch.evaluator);
    partials_at(x, scratch, &mut partials);
    eval.set_pendant(ctx, pendant);
    let mut best = eval.score(ctx, &partials, site_to_pattern, codes);
    // The `x` the last pendant search and the pendant length the last
    // attachment search ran at, by bits (NaN: none has run).
    let (mut pendant_searched_at, mut attachment_searched_at) = (f64::NAN, f64::NAN);
    let mut searches = SearchCounts::default();
    for _ in 0..blo_iterations {
        let run_before = searches.run;
        // Refine the pendant length with the attachment fixed.
        if pendant_searched_at.to_bits() != x.to_bits() {
            pendant_searched_at = x;
            searches.run += 1;
            let (p_opt, p_ll, _) = golden_section(1e-6, pendant_hi, 8, |pend, _| {
                eval.set_pendant(ctx, pend);
                eval.score(ctx, &partials, site_to_pattern, codes)
            });
            if p_ll > best {
                best = p_ll;
                pendant = p_opt;
            }
        }
        // Refine the attachment position with the pendant — and so its
        // transition matrices — fixed.
        if attachment_searched_at.to_bits() != pendant.to_bits() {
            attachment_searched_at = pendant;
            searches.run += 1;
            eval.set_pendant(ctx, pendant);
            let (x_opt, x_ll, winner) = golden_section(0.01, 0.99, 8, |xx, slot| {
                partials_at(xx, scratch, &mut search[slot]);
                eval.score(ctx, &search[slot], site_to_pattern, codes)
            });
            if x_ll > best {
                best = x_ll;
                x = x_opt;
                // The winner's partials were built a moment ago: keep them.
                std::mem::swap(&mut partials, &mut search[winner]);
            }
        }
        searches.skipped += 2 - (searches.run - run_before);
        if searches.run == run_before {
            break;
        }
    }
    scratch.partials = partials;
    scratch.search = search;
    scratch.evaluator = eval;
    (ScoredPlacement { log_likelihood: best, pendant, proximal_fraction: x }, searches)
}

/// Golden-section search for the maximum of a unimodal-ish function.
/// Returns `(argmax, max, slot)`. Few iterations suffice: placement
/// surfaces are smooth and we only need ranking-stable optima.
///
/// The search keeps two live points. `f(x, slot)` is told which of two
/// slots (`0` or `1`) its evaluation at `x` may overwrite — always the one
/// of the point just dropped — and the returned slot is the one the
/// argmax was evaluated into, so a caller whose evaluations leave
/// something behind (the partials at `x`) finds the winner's still there.
fn golden_section(
    lo: f64,
    hi: f64,
    iterations: usize,
    mut f: impl FnMut(f64, usize) -> f64,
) -> (f64, f64, usize) {
    const INV_PHI: f64 = 0.618_033_988_749_894_8;
    let (mut a, mut b) = (lo, hi);
    let mut c = b - (b - a) * INV_PHI;
    let mut d = a + (b - a) * INV_PHI;
    let (mut slot_c, mut slot_d) = (0, 1);
    let mut fc = f(c, slot_c);
    let mut fd = f(d, slot_d);
    for _ in 0..iterations {
        // The surviving point changes name and keeps its slot; the new
        // point takes the slot of the one dropped.
        std::mem::swap(&mut slot_c, &mut slot_d);
        if fc > fd {
            b = d;
            d = c;
            fd = fc;
            c = b - (b - a) * INV_PHI;
            fc = f(c, slot_c);
        } else {
            a = c;
            c = d;
            fc = fd;
            d = a + (b - a) * INV_PHI;
            fd = f(d, slot_d);
        }
    }
    if fc > fd {
        (c, fc, slot_c)
    } else {
        (d, fd, slot_d)
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
        let (x, v, _) = golden_section(0.0, 10.0, 30, |x, _| -(x - 3.7f64).powi(2));
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
        // one alike. The fully-ambiguous column holds a site term, so
        // there the evaluator's likelihood goes through the same
        // `log_term` before the bits are compared.
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
            partials.wab[3] = 0.0;
            let table = BranchScoreTable::build(&ctx, &partials, 0.07, &mut scratch);
            evaluator.set_pendant(&ctx, 0.07);
            let sites = Sites { ctx: &ctx, partials: &partials, site_to_pattern: &[], codes: &[] };
            for p in 0..ctx.layout().patterns {
                let row = &table.table[p * (states + 1)..(p + 1) * (states + 1)];
                for code in 0..alphabet.n_codes() as u8 {
                    let unknown = code == alphabet.unknown_code();
                    let want = if unknown {
                        row[states]
                    } else {
                        let mask = alphabet.state_mask(code);
                        (0..states).filter(|j| (mask >> j) & 1 == 1).fold(0.0, |s, j| s + row[j])
                    };
                    let as_stored =
                        |lik: f64| if unknown { log_term(lik, table.scale[p]) } else { lik };
                    let fixed = evaluator.site_likelihood(4, &mut [0.0; 4], &sites, p, code);
                    let generic = evaluator.site_likelihood(
                        std::hint::black_box(states),
                        &mut vec![0.0; states],
                        &sites,
                        p,
                        code,
                    );
                    let (fixed, generic) = (as_stored(fixed), as_stored(generic));
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
        let mean_len = ctx.mean_branch_length();
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

    // ---- The search and the blocked evaluator against their oracles ----

    use phylo_datasets::DatasetSpec;
    use proptest::prelude::*;
    use std::sync::OnceLock;

    /// A reference with a full store, for the oracle grids.
    struct Fixture {
        ctx: ReferenceContext,
        store: ManagedStore,
        s2p: Vec<u32>,
    }

    /// DNA and protein, one and four rate categories, on two trees: an
    /// everyday one, and a deep one of saturated branches whose CLVs carry
    /// scalers. 43 sites: ten blocks and a three-site tail.
    fn fixtures() -> &'static [Fixture] {
        static FIXTURES: OnceLock<Vec<Fixture>> = OnceLock::new();
        FIXTURES.get_or_init(|| {
            let mut out = Vec::new();
            for alphabet in [AlphabetKind::Dna, AlphabetKind::Protein] {
                let deep = if alphabet == AlphabetKind::Dna { 224 } else { 96 };
                for (leaves, mean_branch_length) in [(24, 0.1), (deep, 1.0)] {
                    let spec = DatasetSpec {
                        name: "search-oracle",
                        leaves,
                        sites: 43,
                        n_queries: 1,
                        alphabet,
                        gamma_alpha: 0.6,
                        mean_branch_length,
                        query_fragment: 0.0,
                        seed: 0x0dd5,
                    };
                    let ds = phylo_datasets::generate(&spec);
                    let patterns = compress(&ds.reference).unwrap();
                    let rate_matrix = match alphabet {
                        AlphabetKind::Dna => {
                            dna::gtr(&[1.0, 2.5, 1.2, 0.8, 3.1, 1.0], &[0.30, 0.21, 0.27, 0.22])
                                .unwrap()
                        }
                        AlphabetKind::Protein => phylo_models::aa::synthetic_aa(spec.seed).unwrap(),
                    };
                    let gamma4 =
                        DiscreteGamma::new(0.6, 4, phylo_models::gamma::GammaMode::Mean).unwrap();
                    for gamma in [DiscreteGamma::none(), gamma4] {
                        let model = SubstModel::new(&rate_matrix, gamma).unwrap();
                        let ctx = ReferenceContext::new(
                            ds.tree.clone(),
                            model,
                            alphabet.alphabet(),
                            &patterns,
                        )
                        .unwrap();
                        let store = ManagedStore::full(&ctx);
                        out.push(Fixture { ctx, store, s2p: patterns.site_to_pattern().to_vec() });
                    }
                }
            }
            out
        })
    }

    impl Fixture {
        /// Runs `f` with both orientations of `e` prepared.
        fn with_edge<T>(&self, e: EdgeId, f: impl FnOnce() -> T) -> T {
            let dirs = [DirEdgeId::new(e, 0), DirEdgeId::new(e, 1)];
            let block = self.store.prepare(&self.ctx, &dirs).unwrap();
            let out = f();
            self.store.release(block);
            out
        }
    }

    /// A branch that exists only as partials: two random end points the
    /// proximal side is interpolated between, a random distal side, exact
    /// zeros (shared by both end points, so they survive every `x`) and
    /// scalers on both — what no store on a real tree delivers on demand.
    struct SyntheticBranch {
        prox: [Vec<f64>; 2],
        prox_scale: Vec<u32>,
        dist: Vec<f64>,
        dist_scale: Vec<u32>,
    }

    impl SyntheticBranch {
        fn random(ctx: &ReferenceContext, rng: &mut StdRng) -> Self {
            let layout = ctx.layout();
            let zero_share = [0.05, 0.3][rng.gen_range(0..2usize)];
            let mut side = |zeros: Option<&[f64]>| -> Vec<f64> {
                (0..layout.clv_len())
                    .map(|k| match zeros {
                        Some(other) if other[k] == 0.0 => 0.0,
                        None if rng.gen_bool(zero_share) => 0.0,
                        _ => rng.gen_range(0.01..1.0) * 10f64.powi(-rng.gen_range(0..40i32)),
                    })
                    .collect()
            };
            let prox0 = side(None);
            let prox1 = side(Some(&prox0));
            let dist = side(None);
            let mut scale = || (0..layout.patterns).map(|_| rng.gen_range(0..3u32)).collect();
            let (prox_scale, dist_scale) = (scale(), scale());
            SyntheticBranch { prox: [prox0, prox1], prox_scale, dist, dist_scale }
        }

        fn partials_at(&self, x: f64, scratch: &mut ScoreScratch, out: &mut AttachmentPartials) {
            let prox: Vec<f64> = self.prox[0]
                .iter()
                .zip(&self.prox[1])
                .map(|(&a, &b)| a * (1.0 - x) + b * x)
                .collect();
            out.assign(&scratch.weights, &prox, &self.prox_scale, &self.dist, &self.dist_scale);
        }
    }

    #[test]
    fn deep_fixtures_carry_scalers() {
        // What the deep trees are in the grid for.
        for f in fixtures().iter().filter(|f| f.ctx.mean_branch_length() > 0.5) {
            let mut scratch = ScoreScratch::new(&f.ctx);
            let scaled = f.ctx.tree().all_edges().any(|e| {
                let partials =
                    f.with_edge(e, || attachment_partials(&f.ctx, &f.store, e, 0.5, &mut scratch));
                partials.scale.iter().any(|&s| s > 0)
            });
            assert!(scaled, "{:?}: no branch with a scaler", f.ctx);
        }
    }

    /// A query whose concrete / gap / ambiguity codes come in runs of 0–9
    /// sites: pure blocks of each kind, mixed blocks, and whatever lands
    /// in the tail.
    fn run_coded_query(ctx: &ReferenceContext, n_sites: usize, rng: &mut StdRng) -> Vec<u8> {
        let (states, n_codes) = (ctx.layout().states, ctx.alphabet().n_codes());
        let mut codes = Vec::with_capacity(n_sites + 9);
        while codes.len() < n_sites {
            let kind = rng.gen_range(0..3u8);
            for _ in 0..rng.gen_range(0..10usize) {
                codes.push(match kind {
                    0 => rng.gen_range(0..states) as u8,
                    1 => ctx.alphabet().unknown_code(),
                    _ => rng.gen_range(states..n_codes) as u8,
                });
            }
        }
        codes.truncate(n_sites);
        codes
    }

    /// The search as it was before the fixpoint rule, the kept winner and
    /// the blocked evaluator: every round runs both searches, the winning
    /// attachment position's partials are rebuilt, every score is taken
    /// one site after the other.
    fn score_thorough_reference(
        ctx: &ReferenceContext,
        s2p: &[u32],
        codes: &[u8],
        blo_iterations: usize,
        scratch: &mut ScoreScratch,
        mut partials_at: impl FnMut(f64, &mut ScoreScratch, &mut AttachmentPartials),
    ) -> ScoredPlacement {
        let states = ctx.layout().states;
        let score = |eval: &QueryEvaluator, partials: &AttachmentPartials| {
            let sites = Sites { ctx, partials, site_to_pattern: s2p, codes };
            eval.score_site_by_site(states, &mut vec![0.0; states], &sites)
        };
        let mean_len = ctx.tree().total_length() / ctx.tree().n_edges() as f64;
        let mut x = 0.5f64;
        let mut pendant = mean_len.max(1e-6);
        let mut partials = AttachmentPartials::empty();
        let mut partials_b = AttachmentPartials::empty();
        let mut eval = QueryEvaluator::new(ctx);
        partials_at(x, scratch, &mut partials);
        eval.set_pendant(ctx, pendant);
        let mut best = score(&eval, &partials);
        for _ in 0..blo_iterations {
            let (p_opt, p_ll, _) = golden_section(1e-6, (4.0 * mean_len).max(0.5), 8, |pend, _| {
                eval.set_pendant(ctx, pend);
                score(&eval, &partials)
            });
            if p_ll > best {
                best = p_ll;
                pendant = p_opt;
            }
            eval.set_pendant(ctx, pendant);
            let (x_opt, x_ll, _) = golden_section(0.01, 0.99, 8, |xx, _| {
                partials_at(xx, scratch, &mut partials_b);
                score(&eval, &partials_b)
            });
            if x_ll > best {
                best = x_ll;
                x = x_opt;
                partials_at(x, scratch, &mut partials);
            }
        }
        ScoredPlacement { log_likelihood: best, pendant, proximal_fraction: x }
    }

    fn placement_bits(sp: ScoredPlacement) -> [u64; 3] {
        [sp.log_likelihood.to_bits(), sp.pendant.to_bits(), sp.proximal_fraction.to_bits()]
    }

    /// Oracle and search on one pair, the search through a scratch a
    /// different query has just been through: whatever that left in the
    /// three buffers must not reach this one.
    fn oracle_and_search(
        f: &Fixture,
        codes: &[u8],
        blo_iterations: usize,
        rng: &mut StdRng,
        mut partials_at: impl FnMut(f64, &mut ScoreScratch, &mut AttachmentPartials),
    ) -> (ScoredPlacement, (ScoredPlacement, SearchCounts)) {
        let (ctx, s2p) = (&f.ctx, &f.s2p[..]);
        let mut scratch = ScoreScratch::new(ctx);
        let want = score_thorough_reference(
            ctx,
            s2p,
            codes,
            blo_iterations,
            &mut scratch,
            &mut partials_at,
        );
        let other = run_coded_query(ctx, s2p.len(), rng);
        thorough_search(ctx, s2p, &other, 2, &mut scratch, &mut partials_at);
        (want, thorough_search(ctx, s2p, codes, blo_iterations, &mut scratch, &mut partials_at))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(192))]

        #[test]
        fn thorough_search_equals_the_exhaustive_rounds_bit_for_bit(
            seed in 0u64..u64::MAX,
            which in 0usize..8,
            blo_iterations in 1usize..=4,
            synthetic in 0u8..3,
        ) {
            let f = &fixtures()[which];
            let mut rng = StdRng::seed_from_u64(seed);
            let codes = run_coded_query(&f.ctx, f.s2p.len(), &mut rng);
            let (want, (got, searches)) = if synthetic == 0 {
                let branch = SyntheticBranch::random(&f.ctx, &mut rng);
                oracle_and_search(f, &codes, blo_iterations, &mut rng, |x, scratch, out| {
                    branch.partials_at(x, scratch, out)
                })
            } else {
                // Inner and pendant edges alike.
                let e = EdgeId(rng.gen_range(0..f.ctx.tree().n_edges()) as u32);
                f.with_edge(e, || {
                    oracle_and_search(f, &codes, blo_iterations, &mut rng, |x, scratch, out| {
                        attachment_partials_into(&f.ctx, &f.store, e, x, scratch, out)
                    })
                })
            };
            prop_assert_eq!(
                placement_bits(got), placement_bits(want),
                "fixture {} blo {} synthetic {}: {:?} vs {:?}",
                which, blo_iterations, synthetic == 0, got, want
            );
            // Whole rounds, and no more of them than asked for.
            prop_assert_eq!((searches.run + searches.skipped) % 2, 0);
            prop_assert!(searches.run + searches.skipped <= 2 * blo_iterations as u64);
        }
    }

    #[test]
    fn fixpoint_rule_fires_exactly_when_a_search_has_nothing_new() {
        // One round tells what the second has to look at: if its
        // attachment search left `x` at the midpoint, round two's pendant
        // search has round one's input — and then so has its attachment
        // search — and both must be skipped; if it moved `x`, the pendant
        // search must run again.
        let (mut fired, mut held) = (0, 0);
        for f in &fixtures()[..4] {
            let mut rng = StdRng::seed_from_u64(0xf1);
            let mut scratch = ScoreScratch::new(&f.ctx);
            for e in f.ctx.tree().all_edges().step_by(5) {
                let codes = run_coded_query(&f.ctx, f.s2p.len(), &mut rng);
                let search = |blo, scratch: &mut ScoreScratch| {
                    thorough_search(&f.ctx, &f.s2p, &codes, blo, scratch, |x, scratch, out| {
                        attachment_partials_into(&f.ctx, &f.store, e, x, scratch, out)
                    })
                };
                f.with_edge(e, || {
                    let (one, first) = search(1, &mut scratch);
                    assert_eq!(first, SearchCounts { run: 2, skipped: 0 });
                    let (two, second) = search(2, &mut scratch);
                    if one.proximal_fraction == 0.5 {
                        assert_eq!(second, SearchCounts { run: 2, skipped: 2 }, "{e:?}");
                        assert_eq!(placement_bits(two), placement_bits(one));
                        // Nothing is left to find, however many rounds.
                        assert_eq!(search(4, &mut scratch), (one, second));
                        fired += 1;
                    } else {
                        assert!(second.run >= 3, "{e:?}: {second:?}");
                        assert_eq!(second.run + second.skipped, 4);
                        held += 1;
                    }
                });
            }
        }
        assert!(fired > 0 && held > 0, "vacuous: the rule fired {fired} times, held {held}");
    }

    /// Every block of patterns × every rotation of codes of one kind:
    /// the blocked kernels' linear likelihoods are the site-at-a-time
    /// body's, zero skip and all.
    fn check_blocked_kernels<const S: usize>(f: &Fixture) {
        let (ctx, alphabet) = (&f.ctx, f.ctx.alphabet());
        let patterns = ctx.layout().patterns;
        let mut scratch = ScoreScratch::new(ctx);
        let mut eval = QueryEvaluator::new(ctx);
        eval.set_pendant(ctx, 0.07);
        let concrete: Vec<u8> = (0..S as u8).collect();
        let other: Vec<u8> = (S as u8..alphabet.n_codes() as u8).collect();
        for e in ctx.tree().all_edges().step_by(7) {
            let partials =
                f.with_edge(e, || attachment_partials(ctx, &f.store, e, 0.31, &mut scratch));
            let sites = Sites { ctx, partials: &partials, site_to_pattern: &[], codes: &[] };
            let mut row = [0.0; S];
            for p0 in 0..patterns {
                let ps: [usize; SITE_BLOCK] = std::array::from_fn(|k| (p0 + 3 * k) % patterns);
                for (codes, columns) in [(&concrete, true), (&other, false)] {
                    for c0 in 0..codes.len() {
                        let cs: [u8; SITE_BLOCK] =
                            std::array::from_fn(|k| codes[(c0 + 5 * k) % codes.len()]);
                        let want: [u64; SITE_BLOCK] = std::array::from_fn(|k| {
                            eval.site_likelihood(S, &mut row, &sites, ps[k], cs[k]).to_bits()
                        });
                        let got = if columns {
                            eval.block_columns::<S>(&sites, ps, cs)
                        } else {
                            eval.block_rows_for::<S>(false, &sites, ps, cs)
                        };
                        assert_eq!(got.map(f64::to_bits), want, "{e:?} {ps:?} {cs:?}");
                        #[cfg(target_arch = "x86_64")]
                        if !columns && simd::backend() == simd::SimdBackend::Avx2 {
                            // SAFETY: the backend verified avx2 at runtime.
                            let got = unsafe { eval.block_rows_avx2::<S>(&sites, ps, cs) };
                            assert_eq!(got.map(f64::to_bits), want, "avx2 {e:?} {ps:?} {cs:?}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn blocked_kernels_reproduce_the_site_at_a_time_likelihoods() {
        for f in fixtures() {
            match f.ctx.layout().states {
                4 => check_blocked_kernels::<4>(f),
                _ => check_blocked_kernels::<20>(f),
            }
        }
    }
}
