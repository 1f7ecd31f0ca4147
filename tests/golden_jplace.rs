//! Golden jplace bytes: the FNV-1a (`phylo_journal::fnv1a64`) of three
//! ci-scale runs, recorded from the commit *before* PR 21 replaced the
//! thorough-scoring evaluator. Every other byte-identity check in the
//! tree compares two runs of the same build (budgeted == unlimited,
//! served == cold); this one also catches a drift common to both.
//!
//! The hashes are a contract, not a snapshot to refresh: a change that
//! moves them moves every user's output, and is allowed only behind the
//! accuracy gate (ROADMAP house rule 4).

use phyloplace::datasets::{self, DatasetSpec};
use phyloplace::journal::fnv1a64;
use phyloplace::kernel::TierChoice;
use phyloplace::place::result::to_jplace;
use phyloplace::place::{memplan, EpaConfig, Placer, QueryBatch};
use phyloplace::prelude::*;

/// The memory operating point of a golden run (the paper's off /
/// intermediate / floor columns).
#[derive(Clone, Copy)]
enum Budget {
    Off,
    LookupFloor,
    Floor,
}

/// Hash of the jplace of `spec` placed at `budget` by the `tier` kernels.
fn jplace_hash(spec: &DatasetSpec, budget: Budget, tier: TierChoice) -> u64 {
    let ds = datasets::generate(spec);
    let patterns = phyloplace::seq::compress(&ds.reference).unwrap();
    let ctx = || {
        ReferenceContext::new(
            ds.tree.clone(),
            ds.model.clone(),
            ds.spec.alphabet.alphabet(),
            &patterns,
        )
        .unwrap()
    };
    let batch = QueryBatch::new(&ds.queries, ds.reference.n_sites()).unwrap();
    let mut cfg = EpaConfig { kernel_tier: tier, ..Default::default() };
    cfg.max_memory = match budget {
        Budget::Off => None,
        Budget::LookupFloor => {
            Some(memplan::lookup_floor_budget(&ctx(), &cfg, batch.len(), batch.n_sites()))
        }
        Budget::Floor => Some(memplan::floor_budget(&ctx(), &cfg, batch.len(), batch.n_sites())),
    };
    let placer = Placer::new(ctx(), patterns.site_to_pattern().to_vec(), cfg).unwrap();
    let (results, report) = placer.place(&batch).unwrap();
    assert_eq!(report.used_lookup, !matches!(budget, Budget::Floor), "{}", spec.name);
    fnv1a64(to_jplace(&ds.tree, &results).as_bytes())
}

/// Asserts one run under each kernel tier. Only the simd tier's AVX2
/// `update_partials` is not bit-identical to reference (DESIGN.md §5c),
/// and its sub-tolerance differences do not reach the printed digits of
/// these three runs, so one hash serves both tiers.
fn assert_golden(spec: DatasetSpec, budget: Budget, want: u64) {
    for tier in [TierChoice::Reference, TierChoice::Simd] {
        let got = jplace_hash(&spec, budget, tier);
        assert_eq!(
            got, want,
            "{} under {tier:?}: jplace hash {got:#018x}, golden {want:#018x}",
            spec.name
        );
    }
}

#[test]
fn neotrop_off() {
    assert_golden(datasets::neotrop(Scale::Ci), Budget::Off, 0x8723_3fea_a9bf_f43f);
}

#[test]
fn pro_ref_floor() {
    assert_golden(datasets::pro_ref(Scale::Ci), Budget::Floor, 0xc1ab_d96e_1a37_5600);
}

#[test]
fn serratus_lookup_floor() {
    assert_golden(datasets::serratus(Scale::Ci), Budget::LookupFloor, 0x2d2d_71ce_5670_40a7);
}
