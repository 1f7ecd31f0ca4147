//! Microbenchmarks of the AMC slot-manager maps: the paper argues the two
//! index arrays make slot lookup "efficient" — this quantifies it.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use phylo_amc::{ClvKey, SlotManager, StrategyKind};
use phylo_tree::stats::{register_need, subtree_leaf_counts};
use phylo_tree::{generate, DirEdgeId};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_acquire_hit(c: &mut Criterion) {
    let mut group = c.benchmark_group("slot_manager");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(3));
    group.warm_up_time(std::time::Duration::from_millis(500));
    for n_clvs in [1_000usize, 100_000] {
        let mut mgr = SlotManager::new(n_clvs, 64, StrategyKind::Fifo.build(None));
        for k in 0..64u32 {
            mgr.acquire(ClvKey(k)).unwrap();
        }
        group.throughput(Throughput::Elements(64));
        group.bench_function(BenchmarkId::new("acquire_hit", n_clvs), |b| {
            b.iter(|| {
                for k in 0..64u32 {
                    criterion::black_box(mgr.acquire(ClvKey(k)).unwrap());
                }
            })
        });
    }
    // Miss + eviction path.
    let costs: Vec<f64> = (0..100_000).map(|i| (i % 97) as f64).collect();
    let mut mgr = SlotManager::new(100_000, 64, StrategyKind::CostBased.build(Some(costs)));
    let mut next = 0u32;
    group.bench_function("acquire_evict_cost_based", |b| {
        b.iter(|| {
            next = (next + 1) % 100_000;
            criterion::black_box(mgr.acquire(ClvKey(next)).unwrap());
        })
    });
    group.finish();
}

fn bench_ensure_resident(c: &mut Criterion) {
    let mut group = c.benchmark_group("ensure_resident_planning");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(3));
    group.warm_up_time(std::time::Duration::from_millis(500));
    for n in [64usize, 512, 4096] {
        let mut rng = StdRng::seed_from_u64(7);
        let tree = generate::yule(n, 0.1, &mut rng).unwrap();
        let need = register_need(&tree);
        let costs: Vec<f64> = subtree_leaf_counts(&tree).iter().map(|&c| c as f64).collect();
        let bound = phylo_tree::stats::min_slots_bound(n);
        group.bench_function(BenchmarkId::new("min_slots_sweep", n), |b| {
            b.iter(|| {
                let mut mgr = SlotManager::new(
                    tree.n_dir_edges(),
                    bound,
                    StrategyKind::CostBased.build(Some(costs.clone())),
                );
                let mut total_ops = 0usize;
                for e in tree.all_edges().take(16) {
                    let targets = [DirEdgeId::new(e, 0), DirEdgeId::new(e, 1)];
                    let mut rs =
                        phylo_amc::ensure_resident(&tree, &targets, &mut mgr, &need).unwrap();
                    total_ops += rs.ops.len();
                    rs.release(&mut mgr);
                }
                criterion::black_box(total_ops)
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_acquire_hit, bench_ensure_resident);
criterion_main!(benches);
