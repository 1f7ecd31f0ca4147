//! End-to-end integration: datasets → engine → placement → jplace, across
//! all three synthetic datasets and every major configuration axis.

use phyloplace::place::result::{to_jplace, to_jplace_with};
use phyloplace::place::{memplan, EpaConfig, Placer, PreplacementMode, QueryBatch};
use phyloplace::prelude::*;

fn setup(
    spec: &phyloplace::datasets::DatasetSpec,
) -> (phyloplace::datasets::Dataset, Vec<u32>, QueryBatch) {
    let ds = phyloplace::datasets::generate(spec);
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
fn all_datasets_place_end_to_end() {
    for spec in phyloplace::datasets::spec::all(Scale::Ci) {
        let (ds, s2p, batch) = setup(&spec);
        let placer = Placer::new(ctx_of(&ds), s2p, EpaConfig::default()).unwrap();
        let (results, report) = placer.place(&batch).unwrap();
        assert_eq!(results.len(), batch.len(), "{}", spec.name);
        assert_eq!(report.n_queries, batch.len());
        for r in &results {
            assert!(!r.placements.is_empty(), "{}: {} has no placements", spec.name, r.name);
            assert!(r.best().unwrap().log_likelihood.is_finite());
            let lwr: f64 = r.placements.iter().map(|p| p.like_weight_ratio).sum();
            assert!((lwr - 1.0).abs() < 1e-9);
            // Entries must be sorted by likelihood, best first.
            for w in r.placements.windows(2) {
                assert!(w[0].log_likelihood >= w[1].log_likelihood);
            }
        }
        // jplace output parses as structurally sound (spot checks).
        let j = to_jplace(&ds.tree, &results);
        assert!(j.contains("\"version\": 3"));
        assert!(j.contains(&format!("{{{}}}", ds.tree.n_edges() - 1)));
    }
}

#[test]
fn results_invariant_across_memory_configs() {
    let spec = phyloplace::datasets::neotrop(Scale::Ci);
    let (ds, s2p, batch) = setup(&spec);
    let base = EpaConfig { chunk_size: 7, ..Default::default() };
    let reference = {
        let placer = Placer::new(ctx_of(&ds), s2p.clone(), base.clone()).unwrap();
        placer.place(&batch).unwrap().0
    };
    let probe = ctx_of(&ds);
    let floor = memplan::floor_budget(&probe, &base, batch.len(), batch.n_sites());
    let lookup_floor = memplan::lookup_floor_budget(&probe, &base, batch.len(), batch.n_sites());
    drop(probe);
    for (label, cfg) in [
        ("floor", EpaConfig { max_memory: Some(floor), ..base.clone() }),
        ("lookup-floor", EpaConfig { max_memory: Some(lookup_floor), ..base.clone() }),
        ("no-lookup", EpaConfig { preplacement: PreplacementMode::Off, ..base.clone() }),
        ("threads-4", EpaConfig { threads: 4, ..base.clone() }),
        ("sitepar", EpaConfig { sitepar_threads: 3, ..base.clone() }),
        ("lru", EpaConfig { max_memory: Some(floor), strategy: StrategyKind::Lru, ..base.clone() }),
        ("tiny-chunks", EpaConfig { chunk_size: 2, ..base.clone() }),
    ] {
        let placer = Placer::new(ctx_of(&ds), s2p.clone(), cfg).unwrap();
        let (results, _) = placer.place(&batch).unwrap();
        for (a, b) in reference.iter().zip(&results) {
            assert_eq!(
                a.best().unwrap().edge,
                b.best().unwrap().edge,
                "config {label} changed best placement of {}",
                a.name
            );
        }
    }
}

#[test]
fn swept_budgets_are_byte_identical_to_unlimited_memory() {
    // The sweep schedule decides how often kernels run, never what they
    // compute: at the floor (no lookup: prescore and thorough sweeps) and
    // at the lookup floor (lookup-build and thorough sweeps) the jplace
    // must equal the unlimited run's, with one batch pinned at a time or
    // two, prepared and scored by one thread or four, over several
    // chunks.
    let spec = phyloplace::datasets::neotrop(Scale::Ci);
    let (ds, s2p, batch) = setup(&spec);
    let base = EpaConfig { chunk_size: 7, ..Default::default() };
    assert!(batch.len() > 2 * base.chunk_size, "need a multi-chunk batch");
    let unlimited = {
        let placer = Placer::new(ctx_of(&ds), s2p.clone(), base.clone()).unwrap();
        to_jplace(&ds.tree, &placer.place(&batch).unwrap().0)
    };
    let probe = ctx_of(&ds);
    let floor = memplan::floor_budget(&probe, &base, batch.len(), batch.n_sites());
    let lookup_floor = memplan::lookup_floor_budget(&probe, &base, batch.len(), batch.n_sites());
    drop(probe);
    for (label, budget) in [("floor", floor), ("lookup-floor", lookup_floor)] {
        for threads in [1usize, 4] {
            for async_prefetch in [true, false] {
                let cfg =
                    EpaConfig { max_memory: Some(budget), threads, async_prefetch, ..base.clone() };
                let placer = Placer::new(ctx_of(&ds), s2p.clone(), cfg).unwrap();
                let (results, report) = placer.place(&batch).unwrap();
                let what = format!("{label}, {threads} threads, async_prefetch={async_prefetch}");
                assert_eq!(unlimited, to_jplace(&ds.tree, &results), "{what}");
                assert_eq!(report.used_lookup, label == "lookup-floor", "{what}");
                // The plan's pin headroom carries the holds: no rung of
                // the ladder below the block clamp fires on its own.
                assert_eq!(report.degradation.flush_retries, 0, "{what}");
                assert!(report.slot_stats.hits > 0, "{what}: held and cached CLVs are reused");
            }
        }
    }
}

#[test]
fn jplace_byte_identical_across_thread_counts() {
    // Determinism is part of the concurrency contract (DESIGN.md §6):
    // worker count must never change the output, bit for bit — neither
    // with the full CLV store nor under a floor AMC budget where worker
    // threads contend for the same few slots.
    let spec = phyloplace::datasets::neotrop(Scale::Ci);
    let (ds, s2p, batch) = setup(&spec);
    let base = EpaConfig { chunk_size: 7, ..Default::default() };
    let probe = ctx_of(&ds);
    let floor = memplan::floor_budget(&probe, &base, batch.len(), batch.n_sites());
    drop(probe);
    // Nor the work: the same CLVs are recomputed, hit and evicted, and
    // the same pairs scored, whatever the number of scorers.
    for (label, cfg) in [
        ("unmanaged", base.clone()),
        ("amc-floor", EpaConfig { max_memory: Some(floor), async_prefetch: true, ..base.clone() }),
    ] {
        let mut seen: Option<(String, [u64; 5])> = None;
        for threads in [1usize, 2, 8] {
            let cfg = EpaConfig { threads, ..cfg.clone() };
            let placer = Placer::new(ctx_of(&ds), s2p.clone(), cfg).unwrap();
            let (results, report) = placer.place(&batch).unwrap();
            let j = to_jplace(&ds.tree, &results);
            let s = &report.slot_stats;
            let work = [s.hits, s.misses, s.evictions, report.n_prescored, report.n_thorough];
            match &seen {
                None => seen = Some((j, work)),
                Some((reference, reference_work)) => {
                    assert_eq!(reference, &j, "{label}: jplace differs at {threads} threads");
                    assert_eq!(
                        reference_work, &work,
                        "{label}: [hits, misses, evictions, prescored, thorough] differ at \
                         {threads} threads"
                    );
                }
            }
        }
    }
}

#[test]
fn sweeps_start_threads_once_per_sweep() {
    // The sweeps' work board starts `threads − 1` threads per sweep and
    // keeps them for every block: at the floor, where the ladder leaves
    // hundreds of one-branch blocks per sweep, a thread start per block
    // would cost more than the blocks' scoring.
    let spec = phyloplace::datasets::pro_ref(Scale::Ci);
    let (ds, s2p, batch) = setup(&spec);
    let base = EpaConfig { preplacement: PreplacementMode::Off, ..Default::default() };
    let probe = ctx_of(&ds);
    let floor = memplan::floor_budget(&probe, &base, batch.len(), batch.n_sites());
    drop(probe);
    for (threads, budget) in [(8, Some(floor)), (2, None)] {
        let cfg = EpaConfig { max_memory: budget, threads, async_prefetch: true, ..base.clone() };
        let placer = Placer::new(ctx_of(&ds), s2p.clone(), cfg).unwrap();
        let chunks = batch.len().div_ceil(placer.memory_plan(&batch).unwrap().chunk_size) as u64;
        let (_, report) = placer.place(&batch).unwrap();
        // A prescore sweep and a thorough sweep per chunk.
        let sweeps = 2 * chunks;
        let sc = &report.scoring;
        assert_eq!(sc.sweep.threads_started, sweeps * (threads as u64 - 1), "{sc:?}");
        assert_eq!(sc.workers, threads);
        assert!(sc.sweep.prepare_ns > 0 && sc.sweep.score_ns > 0, "{sc:?}");
        let m = &report.metrics;
        assert_eq!(m.counter("place.sweep.threads_started"), sc.sweep.threads_started);
        assert_eq!(m.counter("place.sweep.prepare_ns"), sc.sweep.prepare_ns);
        assert_eq!(m.counter("place.sweep.score_ns"), sc.sweep.score_ns);
        assert_eq!(m.counter("place.sweep.idle_ns"), sc.sweep.idle_ns);
        assert_eq!(m.gauges.get("place.scoring.workers"), Some(&(threads as i64)));
    }
}

#[test]
fn jplace_schema_is_structurally_valid() {
    // The jplace consumers downstream (gappa, guppy) are strict about
    // the envelope: version 3, the exact field ordering we advertise,
    // and exactly one "p" entry per query. Run metadata distinguishes
    // complete from interrupted runs.
    let spec = phyloplace::datasets::neotrop(Scale::Ci);
    let (ds, s2p, batch) = setup(&spec);
    let placer = Placer::new(ctx_of(&ds), s2p, EpaConfig::default()).unwrap();
    let (results, _) = placer.place(&batch).unwrap();
    let j = to_jplace(&ds.tree, &results);

    assert!(j.contains("\"version\": 3"), "jplace version field missing");
    assert!(
        j.contains(
            "\"fields\": [\"edge_num\", \"likelihood\", \"like_weight_ratio\", \
             \"distal_length\", \"pendant_length\"]"
        ),
        "fields ordering changed: {j}"
    );
    // One placement record per query, keyed by name.
    assert_eq!(j.matches("\"p\":").count(), batch.len());
    for q in batch.queries() {
        assert!(j.contains(&format!("\"n\": [\"{}\"]", q.name)), "query {} missing", q.name);
    }
    // Every edge referenced by a placement exists in the annotated tree.
    let n_edges = ds.tree.n_edges();
    for r in &results {
        for p in &r.placements {
            assert!(p.edge.idx() < n_edges);
        }
    }
    // Completed runs are marked so; partial (interrupted) runs are not.
    assert!(j.contains("\"completed\": true"));
    let partial = to_jplace_with(&ds.tree, &results, false);
    assert!(partial.contains("\"completed\": false"));
    assert!(partial.contains("\"version\": 3"));
}

#[test]
fn jplace_equivalent_across_kernel_tiers() {
    // The tier contract (DESIGN.md §5c): forcing `--kernel-tier
    // reference` must produce the same placements as the simd tier. Only
    // the simd tier's AVX2 `update_partials` is not bit-identical to
    // reference, so on the portable backend the jplace is byte-equal; on
    // AVX2, if the jplace differs in bytes, every query must still pick
    // the same best edge with the log-likelihood within 1e-6.
    use phyloplace::kernel::simd::{self, SimdBackend};
    use phyloplace::kernel::TierChoice;
    for protein in [false, true] {
        let spec = if protein {
            phyloplace::datasets::serratus(Scale::Ci)
        } else {
            phyloplace::datasets::neotrop(Scale::Ci)
        };
        let (ds, s2p, batch) = setup(&spec);
        let base = EpaConfig { chunk_size: 7, ..Default::default() };

        let run = |choice: TierChoice| {
            let cfg = EpaConfig { kernel_tier: choice, ..base.clone() };
            let placer = Placer::new(ctx_of(&ds), s2p.clone(), cfg).unwrap();
            let (results, _) = placer.place(&batch).unwrap();
            let j = to_jplace(&ds.tree, &results);
            (results, j)
        };
        let (ref_results, ref_j) = run(TierChoice::Reference);

        // Simd (and Auto, which resolves to simd unless the environment
        // pins reference) may differ within the documented tolerance only.
        for choice in [TierChoice::Simd, TierChoice::Auto] {
            let (results, j) = run(choice);
            if j == ref_j {
                continue;
            }
            assert_ne!(
                simd::backend(),
                SimdBackend::Portable,
                "{}: the portable backend is bit-exact, yet tier {choice:?} moved jplace bytes",
                spec.name
            );
            for (a, b) in ref_results.iter().zip(&results) {
                let (ba, bb) = (a.best().unwrap(), b.best().unwrap());
                assert_eq!(
                    ba.edge, bb.edge,
                    "{}: tier {:?} moved best placement of {}",
                    spec.name, choice, a.name
                );
                assert!(
                    (ba.log_likelihood - bb.log_likelihood).abs() <= 1e-6,
                    "{}: tier {:?} shifted lnL of {} by {:e}",
                    spec.name,
                    choice,
                    a.name,
                    (ba.log_likelihood - bb.log_likelihood).abs()
                );
            }
        }
    }
}

#[test]
fn metrics_report_exactly_one_kernel_tier() {
    // Observability invariant: every run exports exactly one
    // `kernel.tier.<name>` gauge (value 1) naming the tier it actually
    // dispatched, plus the site-parallel pool occupancy gauges.
    use phyloplace::kernel::TierChoice;
    let spec = phyloplace::datasets::neotrop(Scale::Ci);
    let (ds, s2p, batch) = setup(&spec);
    for (choice, expect) in [
        (TierChoice::Reference, Some("kernel.tier.reference")),
        (TierChoice::Simd, Some("kernel.tier.simd")),
        (TierChoice::Auto, None), // host-dependent, but still exactly one
    ] {
        let cfg = EpaConfig { kernel_tier: choice, ..Default::default() };
        let placer = Placer::new(ctx_of(&ds), s2p.clone(), cfg).unwrap();
        let (_, report) = placer.place(&batch).unwrap();
        let tiers: Vec<&str> = report
            .metrics
            .gauges
            .iter()
            .filter(|(k, _)| k.starts_with("kernel.tier."))
            .map(|(k, v)| {
                assert_eq!(*v, 1, "tier gauge {k} must be 1");
                k.as_str()
            })
            .collect();
        assert_eq!(tiers.len(), 1, "expected exactly one tier gauge, got {tiers:?}");
        if let Some(name) = expect {
            assert_eq!(tiers[0], name, "tier {choice:?} exported the wrong gauge");
        }
        for g in ["sitepar.pool.workers", "sitepar.pool.parked", "sitepar.pool.queue_depth"] {
            assert!(report.metrics.gauges.contains_key(g), "missing pool gauge {g}");
        }
    }
}

#[test]
fn protein_dataset_places() {
    let spec = phyloplace::datasets::serratus(Scale::Ci);
    let (ds, s2p, batch) = setup(&spec);
    assert_eq!(ds.model.n_states(), 20);
    let placer = Placer::new(ctx_of(&ds), s2p, EpaConfig::default()).unwrap();
    let (results, report) = placer.place(&batch).unwrap();
    assert!(report.used_lookup);
    assert!(results.iter().all(|r| r.best().unwrap().log_likelihood.is_finite()));
}

#[test]
fn budget_too_small_is_reported_not_panicked() {
    let spec = phyloplace::datasets::neotrop(Scale::Ci);
    let (ds, s2p, batch) = setup(&spec);
    let cfg = EpaConfig { max_memory: Some(1), ..Default::default() };
    let placer = Placer::new(ctx_of(&ds), s2p, cfg).unwrap();
    let err = placer.place(&batch).unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("maxmem"), "unhelpful message: {msg}");
    assert!(msg.contains("chunk"), "should suggest lowering the chunk size: {msg}");
}

#[test]
fn fragments_place_like_their_full_queries() {
    // A fragment (50% masked) of a sequence identical to a taxon should
    // still place on that taxon's pendant branch.
    let spec = phyloplace::datasets::neotrop(Scale::Ci);
    let (ds, s2p, _) = setup(&spec);
    let ctx = ctx_of(&ds);
    let sites = ds.reference.n_sites();
    let unknown = spec.alphabet.alphabet().unknown_code();
    let taxon = phyloplace::tree::NodeId(3);
    let per_pattern = ctx.tip_codes(taxon).to_vec();
    let full: Vec<u8> = s2p.iter().map(|&p| per_pattern[p as usize]).collect();
    let mut fragment = full.clone();
    for c in fragment.iter_mut().take(sites / 2) {
        *c = unknown;
    }
    let queries = vec![
        Sequence::from_codes("full", spec.alphabet, full).unwrap(),
        Sequence::from_codes("frag", spec.alphabet, fragment).unwrap(),
    ];
    let batch = QueryBatch::new(&queries, sites).unwrap();
    let placer = Placer::new(ctx, s2p, EpaConfig::default()).unwrap();
    let (results, _) = placer.place(&batch).unwrap();
    let pendant_edge = ds.tree.neighbors(taxon)[0].1;
    assert_eq!(results[0].best().unwrap().edge, pendant_edge);
    assert_eq!(results[1].best().unwrap().edge, pendant_edge);
}
