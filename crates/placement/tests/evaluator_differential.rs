//! The single-query evaluator against the oracle that stays: for any
//! partials, pendant length and query, [`QueryEvaluator::score`] must equal
//! [`BranchScoreTable::prescore`] of the table built from the same inputs,
//! bit for bit. Thorough scoring runs on the former, the lookup table and
//! the prescore sweep on the latter, and the jplace bytes must not depend
//! on which of the two produced a likelihood.
//!
//! And the table against *its* oracle: the compile-time-`S` fills
//! (`S = 4`, `S = 20`; portable and, under the simd tier on an AVX2 host,
//! the `target_feature` re-instantiation) must reproduce the generic loop
//! entry for entry.

use epa_place::score::{AttachmentPartials, BranchScoreTable, QueryEvaluator, ScoreScratch};
use phylo_datasets::{generate, DatasetSpec};
use phylo_engine::ReferenceContext;
use phylo_kernel::TierChoice;
use phylo_models::gamma::GammaMode;
use phylo_models::{aa, dna, DiscreteGamma, SubstModel};
use phylo_seq::alphabet::AlphabetKind;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::OnceLock;

/// DNA and protein contexts, each with one and with four rate categories,
/// on the kernel tier the environment selects.
fn contexts() -> &'static [ReferenceContext] {
    static CTX: OnceLock<Vec<ReferenceContext>> = OnceLock::new();
    CTX.get_or_init(|| build_contexts(TierChoice::Auto))
}

/// The same four contexts pinned to the `fixed` tier (the portable
/// compile-time-`S` table fill), then to the `simd` tier (its AVX2
/// re-instantiation where the host has one).
fn fixed_fill_contexts() -> &'static [ReferenceContext] {
    static CTX: OnceLock<Vec<ReferenceContext>> = OnceLock::new();
    CTX.get_or_init(|| {
        let mut out = build_contexts(TierChoice::Fixed);
        out.extend(build_contexts(TierChoice::Simd));
        out
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

/// Random attachment partials: magnitudes from the scaling threshold up to
/// one, a share of exact zeros (whole patterns too), non-zero scalers.
fn random_partials(ctx: &ReferenceContext, rng: &mut StdRng) -> AttachmentPartials {
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
    AttachmentPartials { ab, scale }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn evaluator_equals_table_prescore_bit_for_bit(
        seed in 0u64..u64::MAX,
        which in 0usize..4,
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
        let states = ctx.layout().states;
        let n_codes = ctx.alphabet().n_codes();
        let s2p: Vec<u32> = (0..sites).map(|_| rng.gen_range(0..patterns)).collect();
        // A third each: concrete residues, gaps, any code (ambiguity
        // codes included).
        let codes: Vec<u8> = (0..sites)
            .map(|_| match rng.gen_range(0..3u8) {
                0 => rng.gen_range(0..states) as u8,
                1 => ctx.alphabet().unknown_code(),
                _ => rng.gen_range(0..n_codes) as u8,
            })
            .collect();

        let mut scratch = ScoreScratch::new(ctx);
        let want = BranchScoreTable::build(ctx, &partials, pendant, &mut scratch)
            .prescore(ctx, &s2p, &codes);
        let mut evaluator = QueryEvaluator::new(ctx);
        evaluator.set_pendant(ctx, pendant);
        let got = evaluator.score(ctx, &partials, &s2p, &codes);
        prop_assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "evaluator {} vs table {} ({} states, {} rates, {} sites over {} patterns)",
            got, want, states, ctx.layout().rates, sites, patterns
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
    fn fixed_table_fills_equal_the_generic_loop_bit_for_bit(
        seed in 0u64..u64::MAX,
        which in 0usize..8,
        pendant_exp in -6.0f64..0.5,
    ) {
        let ctx = &fixed_fill_contexts()[which];
        let mut rng = StdRng::seed_from_u64(seed);
        let partials = random_partials(ctx, &mut rng);
        let mut evaluator = QueryEvaluator::new(ctx);
        evaluator.set_pendant(ctx, 10f64.powf(pendant_exp));
        // Stale contents from another branch must not survive a rebuild.
        let mut fast = BranchScoreTable::empty();
        fast.rebuild(ctx, &random_partials(ctx, &mut rng), &evaluator);
        fast.rebuild(ctx, &partials, &evaluator);
        let mut oracle = BranchScoreTable::empty();
        oracle.rebuild_reference(ctx, &partials, &evaluator);
        let width = ctx.layout().states + 1;
        prop_assert_eq!(fast.table.len(), ctx.layout().patterns * width);
        prop_assert_eq!(fast.table.len(), oracle.table.len());
        for (i, (a, b)) in fast.table.iter().zip(&oracle.table).enumerate() {
            prop_assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "pattern {} column {} of {}: {} vs {} ({:?}, {} rates)",
                i / width, i % width, width, a, b, ctx.layout().tier(), ctx.layout().rates
            );
        }
        prop_assert_eq!(&fast.scale, &partials.scale);
        prop_assert_eq!(&oracle.scale, &partials.scale);
    }
}
