//! Integration tests for the paper's memory/runtime claims: budget →
//! slot-count mapping, the lookup-table cliff, the chunk-size floor, and
//! recomputation monotonicity.

use phyloplace::place::candidates::candidate_count;
use phyloplace::place::{memplan, AmcMode, EpaConfig, Placer, QueryBatch};
use phyloplace::prelude::*;

fn setup() -> (phyloplace::datasets::Dataset, Vec<u32>, QueryBatch) {
    // pro_ref (largest tree) for plan-level checks.
    let spec = phyloplace::datasets::pro_ref(Scale::Ci);
    let ds = phyloplace::datasets::generate(&spec);
    let patterns = phyloplace::seq::compress(&ds.reference).unwrap();
    let s2p = patterns.site_to_pattern().to_vec();
    let batch = QueryBatch::new(&ds.queries, ds.reference.n_sites()).unwrap();
    (ds, s2p, batch)
}

fn ctx_of(ds: &phyloplace::datasets::Dataset) -> ReferenceContext {
    let patterns = phyloplace::seq::compress(&ds.reference).unwrap();
    ReferenceContext::new(ds.tree.clone(), ds.model.clone(), ds.spec.alphabet.alphabet(), &patterns)
        .unwrap()
}

#[test]
fn plans_improve_monotonically_with_budget() {
    let (ds, _, batch) = setup();
    let ctx = ctx_of(&ds);
    let base = EpaConfig::default();
    let floor = memplan::floor_budget(&ctx, &base, batch.len(), batch.n_sites());
    // A plan's "capability" is (lookup on?, slots): the planner prefers
    // the lookup table over extra slots (the paper's recommendation), so
    // slot counts may legitimately dip exactly where lookup switches on —
    // but capability must never regress as the budget grows.
    let mut last: (bool, usize) = (false, 0);
    for factor in [1.0, 1.5, 2.5, 5.0, 20.0] {
        let cfg = EpaConfig { max_memory: Some((floor as f64 * factor) as usize), ..base.clone() };
        let plan = memplan::plan(&ctx, &cfg, batch.len(), batch.n_sites()).unwrap();
        assert_eq!(plan.mode, AmcMode::Amc);
        let cap = (plan.use_lookup, plan.slots);
        assert!(
            cap >= last || (plan.use_lookup && !last.0),
            "capability regressed: {last:?} -> {cap:?}"
        );
        if plan.use_lookup == last.0 {
            assert!(plan.slots >= last.1, "slots shrank within the same lookup regime");
        }
        last = cap;
    }
    assert!(last.1 >= ctx.min_slots());
    // Unlimited → full layout.
    let plan = memplan::plan(&ctx, &base, batch.len(), batch.n_sites()).unwrap();
    assert_eq!(plan.mode, AmcMode::Off);
    assert_eq!(plan.slots, ctx.max_slots());
}

#[test]
fn lookup_cliff_exists_in_the_plan() {
    let (ds, _, batch) = setup();
    let ctx = ctx_of(&ds);
    let base = EpaConfig::default();
    let lookup_floor = memplan::lookup_floor_budget(&ctx, &base, batch.len(), batch.n_sites());
    let just_above = EpaConfig { max_memory: Some(lookup_floor), ..base.clone() };
    let just_below = EpaConfig { max_memory: Some(lookup_floor - 1), ..base.clone() };
    let above = memplan::plan(&ctx, &just_above, batch.len(), batch.n_sites()).unwrap();
    let below = memplan::plan(&ctx, &just_below, batch.len(), batch.n_sites()).unwrap();
    assert!(above.use_lookup, "at the lookup floor the table must fit");
    assert!(!below.use_lookup, "one byte below it must not");
}

#[test]
fn recomputation_decreases_with_budget() {
    // Runtime-heavy: use the small neotrop instance.
    let spec = phyloplace::datasets::neotrop(Scale::Ci);
    let ds = phyloplace::datasets::generate(&spec);
    let patterns = phyloplace::seq::compress(&ds.reference).unwrap();
    let s2p = patterns.site_to_pattern().to_vec();
    let batch = QueryBatch::new(&ds.queries, ds.reference.n_sites()).unwrap();
    let base = EpaConfig { chunk_size: 3, ..Default::default() };
    let probe = ctx_of(&ds);
    let floor = memplan::floor_budget(&probe, &base, batch.len(), batch.n_sites());
    drop(probe);
    let mut last_misses = u64::MAX;
    for factor in [1.0f64, 3.0, 10.0] {
        let cfg = EpaConfig { max_memory: Some((floor as f64 * factor) as usize), ..base.clone() };
        let placer = Placer::new(ctx_of(&ds), s2p.clone(), cfg).unwrap();
        let (_, report) = placer.place(&batch).unwrap();
        assert!(
            report.slot_stats.misses <= last_misses,
            "more budget must not recompute more: {} > {last_misses}",
            report.slot_stats.misses
        );
        last_misses = report.slot_stats.misses;
    }
}

#[test]
fn smaller_chunks_lower_the_floor_but_cost_time() {
    let (ds, _, batch) = setup();
    let ctx = ctx_of(&ds);
    let floor_big = memplan::floor_budget(
        &ctx,
        &EpaConfig { chunk_size: batch.len(), ..Default::default() },
        batch.len(),
        batch.n_sites(),
    );
    let floor_small = memplan::floor_budget(
        &ctx,
        &EpaConfig { chunk_size: 1, ..Default::default() },
        batch.len(),
        batch.n_sites(),
    );
    assert!(
        floor_small < floor_big,
        "chunk 1 floor {floor_small} must be below chunk-all floor {floor_big}"
    );
    // What a query of the chunk costs is its sequence and its kept
    // candidate list, 16 B an entry — nothing per branch.
    let k = candidate_count(ctx.tree().n_edges(), 0.01, 2);
    assert_eq!(k, 13, "pro_ref at ci scale has 1 247 branches");
    let per_query = batch.n_sites() + k * 16;
    assert_eq!(floor_big - floor_small, (batch.len() - 1) * per_query);
    assert_eq!(memplan::chunk_bytes(&ctx, 7, batch.n_sites()), 7 * per_query);
}

#[test]
fn peak_memory_accounting_tracks_budget() {
    let spec = phyloplace::datasets::neotrop(Scale::Ci);
    let ds = phyloplace::datasets::generate(&spec);
    let patterns = phyloplace::seq::compress(&ds.reference).unwrap();
    let s2p = patterns.site_to_pattern().to_vec();
    let batch = QueryBatch::new(&ds.queries, ds.reference.n_sites()).unwrap();
    let base = EpaConfig { chunk_size: 3, ..Default::default() };
    let probe = ctx_of(&ds);
    let floor = memplan::floor_budget(&probe, &base, batch.len(), batch.n_sites());
    drop(probe);
    for factor in [1.0f64, 2.0, 8.0] {
        let budget = (floor as f64 * factor) as usize;
        let cfg = EpaConfig { max_memory: Some(budget), ..base.clone() };
        let placer = Placer::new(ctx_of(&ds), s2p.clone(), cfg).unwrap();
        let (_, report) = placer.place(&batch).unwrap();
        assert!(
            report.peak_memory <= budget,
            "accounted peak {} exceeds budget {budget}",
            report.peak_memory
        );
    }
}

#[test]
fn amc_store_stays_consistent_across_many_sweeps() {
    // Hammer the slot manager: repeated full-tree likelihood sweeps at
    // the minimum slot count must keep producing the identical value.
    let spec = phyloplace::datasets::neotrop(Scale::Ci);
    let ds = phyloplace::datasets::generate(&spec);
    let ctx = ctx_of(&ds);
    let mut store =
        ManagedStore::with_slots(&ctx, ctx.min_slots(), StrategyKind::CostBased).unwrap();
    let e0 = phyloplace::tree::EdgeId(0);
    let reference = phyloplace::engine::loglik::tree_log_likelihood(&ctx, &mut store, e0).unwrap();
    for round in 0..3 {
        let ll = phyloplace::engine::loglik::tree_log_likelihood(&ctx, &mut store, e0).unwrap();
        assert_eq!(ll.to_bits(), reference.to_bits(), "round {round}");
    }
    assert!(store.stats().evictions > 0, "min slots must evict on this tree");
}

#[test]
fn static_data_has_no_leaves_by_codes_term() {
    // The reference's static footprint is what the floor budget charges
    // before a single CLV slot. Transition matrices and tip rows are
    // built per operation and the traversal costs per store open, so it
    // holds the leaves' codes at the alphabet's width (`⌈log₂ n_codes⌉`
    // bits, whole codes per 64-bit word, one word-aligned row per leaf),
    // the pattern weights and one register-need byte per directed edge —
    // nothing that grows with leaves × alphabet codes, and no matrix
    // cells while nothing asked for a matrix.
    let (ds, _, _) = setup();
    let ctx = ctx_of(&ds);
    let tree = ctx.tree();
    let n_leaves = tree.n_leaves();
    let patterns = ctx.layout().patterns;
    let bits = (usize::BITS - (ctx.alphabet().n_codes() - 1).leading_zeros()) as usize;
    let tip_codes = n_leaves * patterns.div_ceil(64 / bits) * 8;
    let weights = patterns * 4;
    let register_need = tree.n_dir_edges();
    let expected = tip_codes + weights + register_need;
    assert_eq!(
        ctx.static_split(),
        [
            ("pmatrices", 0),
            ("tip_codes", tip_codes),
            ("pattern_weights", weights),
            ("register_need", register_need)
        ],
        "{n_leaves} leaves × {patterns} patterns at {bits} bits"
    );
    assert_eq!(ctx.approx_bytes(), expected);
    // A table of every code per leaf would be far outside the bound.
    let per_leaf_table =
        ctx.alphabet().n_codes() * ctx.layout().pmatrix_len() / ctx.layout().states;
    assert!(n_leaves * per_leaf_table * 8 > expected);
}
