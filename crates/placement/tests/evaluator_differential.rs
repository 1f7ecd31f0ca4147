//! The single-query evaluator against the oracle that stays: for any
//! partials, pendant length and query, [`QueryEvaluator::score`] — sites
//! four abreast — must equal [`BranchScoreTable::prescore`] of the table
//! built from the same inputs, bit for bit. Thorough scoring runs on the
//! former, the lookup table and the prescore sweep on the latter, and the
//! jplace bytes must not depend on which of the two produced a likelihood.
//!
//! And the table against *its* oracles: the compile-time-`S` fills
//! (`S = 4`, `S = 20`, under the simd tier: portable, or the
//! `target_feature` re-instantiation on an AVX2 host) must reproduce the
//! generic loop entry for entry, the generic loop a triple loop over the
//! raw, unweighted `A·B` spelled out here, and the once-per-branch log row of
//! [`BranchScoreTable::prescore_chunk`] the per-query walk.

use epa_place::score::{
    rate_state_weights, AttachmentPartials, BranchScoreTable, QueryEvaluator, ScoreScratch,
};
use phylo_datasets::{generate, DatasetSpec};
use phylo_engine::ReferenceContext;
use phylo_kernel::{TierChoice, LN_SCALE};
use phylo_models::gamma::GammaMode;
use phylo_models::{aa, dna, DiscreteGamma, SubstModel};
use phylo_seq::alphabet::AlphabetKind;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::OnceLock;

/// DNA and protein contexts, each with one and with four rate categories:
/// pinned to the `reference` tier (the generic table fill, the portable
/// evaluator), then to the `simd` tier (the compile-time-`S` fills and the
/// evaluator's AVX2 re-instantiation where the host has one; portable
/// under `PHYLO_SIMD_PORTABLE=1`).
fn contexts() -> &'static [ReferenceContext] {
    static CTX: OnceLock<Vec<ReferenceContext>> = OnceLock::new();
    CTX.get_or_init(|| {
        [TierChoice::Reference, TierChoice::Simd].into_iter().flat_map(build_contexts).collect()
    })
}

fn build_contexts(tier: TierChoice) -> Vec<ReferenceContext> {
    let mut out = Vec::new();
    for alphabet in [AlphabetKind::Dna, AlphabetKind::Protein] {
        let spec = DatasetSpec {
            name: "differential",
            leaves: 8,
            sites: 24,
            n_queries: 1,
            alphabet,
            gamma_alpha: 0.6,
            mean_branch_length: 0.1,
            query_fragment: 0.0,
            seed: 0x5eed,
        };
        let ds = generate(&spec);
        let patterns = phylo_seq::compress(&ds.reference).unwrap();
        let rate_matrix = match alphabet {
            AlphabetKind::Dna => {
                dna::gtr(&[1.0, 2.5, 1.2, 0.8, 3.1, 1.0], &[0.30, 0.21, 0.27, 0.22]).unwrap()
            }
            AlphabetKind::Protein => aa::synthetic_aa(spec.seed).unwrap(),
        };
        for gamma in [DiscreteGamma::none(), DiscreteGamma::new(0.6, 4, GammaMode::Mean).unwrap()] {
            let model = SubstModel::new(&rate_matrix, gamma).unwrap();
            let mut ctx =
                ReferenceContext::new(ds.tree.clone(), model, alphabet.alphabet(), &patterns)
                    .unwrap();
            ctx.set_kernel_tier(tier);
            out.push(ctx);
        }
    }
    out
}

/// A random raw `A·B` product: magnitudes from the scaling threshold up to
/// one, a share of exact zeros (whole patterns too), non-zero scalers.
fn random_ab(ctx: &ReferenceContext, rng: &mut StdRng) -> (Vec<f64>, Vec<u32>) {
    let layout = ctx.layout();
    let zero_share = [0.0, 0.1, 0.6][rng.gen_range(0..3usize)];
    let mut ab: Vec<f64> = (0..layout.clv_len())
        .map(|_| {
            if rng.gen_bool(zero_share) {
                0.0
            } else {
                rng.gen_range(0.0..1.0) * 10f64.powi(-rng.gen_range(0..80i32))
            }
        })
        .collect();
    if rng.gen_bool(0.3) {
        let p = rng.gen_range(0..layout.patterns);
        ab[p * layout.pattern_stride()..(p + 1) * layout.pattern_stride()].fill(0.0);
    }
    let scale = (0..layout.patterns).map(|_| rng.gen_range(0..4u32)).collect();
    (ab, scale)
}

/// Partials holding `ab`, through the constructor every partials goes
/// through: `ab` as one side, ones as the other (`ab · 1.0` is `ab`).
fn partials_of(ctx: &ReferenceContext, ab: &[f64], scale: &[u32]) -> AttachmentPartials {
    let mut partials = AttachmentPartials::empty();
    let (ones, zeros) = (vec![1.0; ab.len()], vec![0; scale.len()]);
    partials.assign(&rate_state_weights(ctx), ab, scale, &ones, &zeros);
    partials
}

fn random_partials(ctx: &ReferenceContext, rng: &mut StdRng) -> AttachmentPartials {
    let (ab, scale) = random_ab(ctx, rng);
    partials_of(ctx, &ab, &scale)
}

/// A query whose concrete / gap / any-code sites come in runs of 0–9:
/// blocks of four of one kind, mixed blocks, and a tail of any length.
fn run_coded_query(ctx: &ReferenceContext, sites: usize, rng: &mut StdRng) -> Vec<u8> {
    let (states, n_codes) = (ctx.layout().states, ctx.alphabet().n_codes());
    let mut codes = Vec::with_capacity(sites + 9);
    while codes.len() < sites {
        let kind = rng.gen_range(0..3u8);
        for _ in 0..rng.gen_range(0..10usize) {
            codes.push(match kind {
                0 => rng.gen_range(0..states) as u8,
                1 => ctx.alphabet().unknown_code(),
                // Ambiguity codes included.
                _ => rng.gen_range(0..n_codes) as u8,
            });
        }
    }
    codes.truncate(sites);
    codes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn evaluator_equals_table_prescore_bit_for_bit(
        seed in 0u64..u64::MAX,
        which in 0usize..8,
        // Up to ~20 sites per pattern: the evaluator pays per site, the
        // table per pattern, and neither may notice.
        sites in 1usize..400,
        pendant_exp in -6.0f64..0.5,
    ) {
        let ctx = &contexts()[which];
        let mut rng = StdRng::seed_from_u64(seed);
        let partials = random_partials(ctx, &mut rng);
        let pendant = 10f64.powf(pendant_exp);
        let patterns = ctx.layout().patterns as u32;
        let s2p: Vec<u32> = (0..sites).map(|_| rng.gen_range(0..patterns)).collect();
        let codes = run_coded_query(ctx, sites, &mut rng);

        let mut scratch = ScoreScratch::new(ctx);
        let want = BranchScoreTable::build(ctx, &partials, pendant, &mut scratch)
            .prescore(ctx, &s2p, &codes);
        let mut evaluator = QueryEvaluator::new(ctx);
        evaluator.set_pendant(ctx, pendant);
        let got = evaluator.score(ctx, &partials, &s2p, &codes);
        prop_assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "evaluator {} vs table {} ({} states, {} rates, {:?}, {} sites over {} patterns)",
            got, want, ctx.layout().states, ctx.layout().rates, ctx.layout().tier(), sites, patterns
        );
        // A second pendant length through the same evaluator: nothing of
        // the first may linger.
        let want = BranchScoreTable::build(ctx, &partials, 2.0 * pendant, &mut scratch)
            .prescore(ctx, &s2p, &codes);
        evaluator.set_pendant(ctx, 2.0 * pendant);
        let got = evaluator.score(ctx, &partials, &s2p, &codes);
        prop_assert_eq!(got.to_bits(), want.to_bits());
    }

    #[test]
    fn table_fills_equal_the_generic_loop_and_the_raw_sum_bit_for_bit(
        seed in 0u64..u64::MAX,
        which in 0usize..8,
        pendant_exp in -6.0f64..0.5,
    ) {
        let ctx = &contexts()[which];
        let layout = ctx.layout();
        let mut rng = StdRng::seed_from_u64(seed);
        let (ab, scale) = random_ab(ctx, &mut rng);
        let partials = partials_of(ctx, &ab, &scale);
        let pendant = 10f64.powf(pendant_exp);
        let mut evaluator = QueryEvaluator::new(ctx);
        evaluator.set_pendant(ctx, pendant);
        // Stale contents from another branch must not survive a rebuild.
        let mut fast = BranchScoreTable::empty();
        fast.rebuild(ctx, &random_partials(ctx, &mut rng), &evaluator);
        fast.rebuild(ctx, &partials, &evaluator);
        let mut oracle = BranchScoreTable::empty();
        oracle.rebuild_reference(ctx, &partials, &evaluator);
        // The sum as it was written before the weights moved into the
        // partials: `w_r·π_i·AB[i]·P_ij`, left to right, from the model.
        let (states, width) = (layout.states, layout.states + 1);
        let (freqs, rw) = (ctx.model().freqs(), ctx.model().gamma().weights());
        let mut pm = vec![0.0; layout.pmatrix_len()];
        ctx.model().transition_matrices(pendant, &mut pm);
        let mut raw = vec![0.0; layout.patterns * width];
        for (p, row) in raw.chunks_mut(width).enumerate() {
            for r in 0..layout.rates {
                for i in 0..states {
                    let w = rw[r] * freqs[i] * ab[p * layout.pattern_stride() + r * states + i];
                    if w == 0.0 {
                        continue;
                    }
                    for j in 0..states {
                        row[j] += w * pm[(r * states + i) * states + j];
                    }
                }
            }
            row[states] = row[..states].iter().sum();
        }
        prop_assert_eq!(fast.table.len(), layout.patterns * width);
        prop_assert_eq!(fast.table.len(), oracle.table.len());
        for (i, ((a, b), c)) in fast.table.iter().zip(&oracle.table).zip(&raw).enumerate() {
            prop_assert_eq!(
                (a.to_bits(), b.to_bits()),
                (c.to_bits(), c.to_bits()),
                "pattern {} column {} of {}: {} / {} vs {} ({:?}, {} rates)",
                i / width, i % width, width, a, b, c, layout.tier(), layout.rates
            );
        }
        prop_assert_eq!(&fast.scale, &scale);
        prop_assert_eq!(&oracle.scale, &scale);
        prop_assert_eq!(partials.scale(), &scale[..]);
    }

    #[test]
    fn chunk_prescore_equals_the_per_query_walk_bit_for_bit(
        seed in 0u64..u64::MAX,
        // The simd-tier contexts: the table fill a default run uses.
        which in 4usize..8,
        sites in 1usize..120,
        n_queries in 0usize..12,
    ) {
        let ctx = &contexts()[which];
        let mut rng = StdRng::seed_from_u64(seed);
        let partials = random_partials(ctx, &mut rng);
        let mut scratch = ScoreScratch::new(ctx);
        let table = BranchScoreTable::build(ctx, &partials, 0.1, &mut scratch);
        let patterns = ctx.layout().patterns as u32;
        let s2p: Vec<u32> = (0..sites).map(|_| rng.gen_range(0..patterns)).collect();
        let queries: Vec<Vec<u8>> =
            (0..n_queries).map(|_| run_coded_query(ctx, sites, &mut rng)).collect();
        // A row left over from another branch must not show through.
        let mut log_row = vec![f64::NAN; rng.gen_range(0..2 * table.table.len())];
        let mut got = vec![f64::NAN; n_queries];
        table.prescore_chunk(
            ctx, &s2p, queries.iter().map(|q| q.as_slice()), &mut log_row, |q, v| got[q] = v,
        );
        for (q, codes) in queries.iter().enumerate() {
            let want = table.prescore(ctx, &s2p, codes);
            prop_assert_eq!(got[q].to_bits(), want.to_bits(), "query {} of {}", q, n_queries);
        }
        // Both sides of the cost rule come up; past it, the row holds
        // every entry's term of the sum.
        if n_queries * sites > table.table.len() {
            let width = ctx.layout().states + 1;
            prop_assert_eq!(log_row.len(), table.table.len());
            for (i, (&log, &lik)) in log_row.iter().zip(&table.table).enumerate() {
                let want = lik.ln() - table.scale[i / width] as f64 * LN_SCALE;
                prop_assert_eq!(log.to_bits(), want.to_bits(), "entry {}", i);
            }
        }
    }
}
