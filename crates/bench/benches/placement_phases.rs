//! Phase-level benchmarks of the placement pipeline: lookup-table build,
//! per-query prescore against the table, and one thorough re-score —
//! the three cost centers whose balance the paper's memory modes shift —
//! and the calls a thorough pair is made of (partials, `set_pendant`, one
//! evaluator score of a concrete and of an all-gap query), on references
//! of the end-to-end benchmark's three shapes.

use bench::fixture;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use epa_place::lookup::LookupTable;
use epa_place::score::{
    attachment_partials, attachment_partials_into, score_thorough, AttachmentPartials,
    BranchScoreTable, QueryEvaluator, ScoreScratch,
};
use epa_place::EpaConfig;
use phylo_datasets::{neotrop, serratus, DatasetSpec, Scale};
use phylo_engine::ManagedStore;
use phylo_seq::alphabet::AlphabetKind;
use phylo_tree::{DirEdgeId, EdgeId};

/// References shaped like the three of `bench/` (leaves × sites, alphabet,
/// Γ shape, branch lengths, fragment share), a handful of queries each.
fn gate_references() -> [DatasetSpec; 3] {
    let spec = |name, leaves, sites, alphabet, gamma_alpha, mean_branch_length, query_fragment| {
        DatasetSpec {
            name,
            leaves,
            sites,
            n_queries: 4,
            alphabet,
            gamma_alpha,
            mean_branch_length,
            query_fragment,
            seed: 0x9a7e,
        }
    };
    [
        spec("neotrop", 64, 585, AlphabetKind::Dna, 0.5, 0.08, 0.5),
        spec("pro_ref", 256, 100, AlphabetKind::Dna, 0.6, 0.05, 0.3),
        spec("serratus", 68, 200, AlphabetKind::Protein, 0.8, 0.12, 0.0),
    ]
}

fn bench_lookup_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("lookup_build");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(3));
    group.warm_up_time(std::time::Duration::from_millis(500));
    for spec in [neotrop(Scale::Ci), serratus(Scale::Ci)] {
        let f = fixture(spec);
        group.bench_function(f.spec.name, |b| {
            b.iter(|| {
                let mut store = ManagedStore::full(&f.ctx);
                criterion::black_box(
                    LookupTable::build(&f.ctx, &mut store, &EpaConfig::default()).unwrap(),
                )
            })
        });
    }
    group.finish();
}

fn bench_prescore(c: &mut Criterion) {
    let mut group = c.benchmark_group("prescore_per_query");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(3));
    group.warm_up_time(std::time::Duration::from_millis(500));
    for spec in [neotrop(Scale::Ci), serratus(Scale::Ci)] {
        let f = fixture(spec);
        let mut store = ManagedStore::full(&f.ctx);
        let table = LookupTable::build(&f.ctx, &mut store, &EpaConfig::default()).unwrap();
        let q = &f.batch.queries()[0];
        let branches = f.ctx.tree().n_edges();
        group.throughput(Throughput::Elements(branches as u64));
        group.bench_function(BenchmarkId::new("all_branches", f.spec.name), |b| {
            b.iter(|| {
                let mut acc = 0.0;
                for e in f.ctx.tree().all_edges() {
                    acc += table.prescore(&f.ctx, e, &f.s2p, &q.codes);
                }
                criterion::black_box(acc)
            })
        });
    }
    group.finish();
}

fn bench_thorough(c: &mut Criterion) {
    let mut group = c.benchmark_group("thorough_score");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(3));
    group.warm_up_time(std::time::Duration::from_millis(500));
    let f = fixture(neotrop(Scale::Ci));
    let mut store = ManagedStore::full(&f.ctx);
    let e = EdgeId(0);
    let block = store.prepare(&f.ctx, &[DirEdgeId::new(e, 0), DirEdgeId::new(e, 1)]).unwrap();
    let q = &f.batch.queries()[0];
    let mut scratch = ScoreScratch::new(&f.ctx);
    group.bench_function("one_pair_2blo", |b| {
        b.iter(|| {
            criterion::black_box(
                score_thorough(&f.ctx, &store, e, &f.s2p, &q.codes, 2, &mut scratch).unwrap(),
            )
        })
    });
    // Table build alone, for comparison (the transient no-lookup path).
    group.bench_function("branch_table_build", |b| {
        b.iter(|| {
            let partials = attachment_partials(&f.ctx, &store, e, 0.5, &mut scratch);
            criterion::black_box(BranchScoreTable::build(&f.ctx, &partials, 0.1, &mut scratch))
        })
    });
    store.release(block);
    group.finish();
}

/// What one thorough pair is made of, call by call.
fn bench_pair_calls(c: &mut Criterion) {
    let mut group = c.benchmark_group("thorough_pair_calls");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(300));
    for spec in gate_references() {
        let f = fixture(spec);
        let name = f.spec.name;
        let store = ManagedStore::full(&f.ctx);
        // An inner edge: both sides are CLVs.
        let e = f
            .ctx
            .tree()
            .all_edges()
            .find(|&e| {
                let rec = f.ctx.tree().edge(e);
                !f.ctx.tree().is_leaf(rec.a) && !f.ctx.tree().is_leaf(rec.b)
            })
            .expect("an inner edge");
        let block = store.prepare(&f.ctx, &[DirEdgeId::new(e, 0), DirEdgeId::new(e, 1)]).unwrap();
        let mut scratch = ScoreScratch::new(&f.ctx);
        let mut partials = AttachmentPartials::empty();
        group.bench_function(BenchmarkId::new("attachment_partials", name), |b| {
            b.iter(|| {
                let x = criterion::black_box(0.37);
                attachment_partials_into(&f.ctx, &store, e, x, &mut scratch, &mut partials);
            })
        });
        let mut evaluator = QueryEvaluator::new(&f.ctx);
        group.bench_function(BenchmarkId::new("set_pendant", name), |b| {
            b.iter(|| evaluator.set_pendant(&f.ctx, criterion::black_box(0.05)))
        });
        // A query of concrete residues only (a taxon's own row, gaps
        // replaced) and one of gaps only: the evaluator's column path and
        // its whole-row path.
        let states = f.ctx.layout().states as u8;
        let concrete: Vec<u8> = f.batch.queries()[0]
            .codes
            .iter()
            .enumerate()
            .map(|(i, &c)| if c < states { c } else { i as u8 % states })
            .collect();
        let all_gap = vec![f.ctx.alphabet().unknown_code(); concrete.len()];
        for (case, codes) in [("concrete", &concrete), ("all_gap", &all_gap)] {
            group.throughput(Throughput::Elements(codes.len() as u64));
            let id = BenchmarkId::new(format!("evaluator_score/{case}"), name);
            group.bench_function(id, |b| {
                b.iter(|| criterion::black_box(evaluator.score(&f.ctx, &partials, &f.s2p, codes)))
            });
        }
        let q = &f.batch.queries()[0];
        group.bench_function(BenchmarkId::new("score_thorough", name), |b| {
            b.iter(|| {
                criterion::black_box(
                    score_thorough(&f.ctx, &store, e, &f.s2p, &q.codes, 2, &mut scratch).unwrap(),
                )
            })
        });
        store.release(block);
    }
    group.finish();
}

criterion_group!(benches, bench_lookup_build, bench_prescore, bench_thorough, bench_pair_calls);
criterion_main!(benches);
