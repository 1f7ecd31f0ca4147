//! The fault matrix: every injection site in the pipeline is armed and
//! the run must either absorb the fault with byte-identical output
//! (recoverable faults) or surface a clean typed error — no hang, no
//! panic escaping `place()` — and leave the pipeline reusable.
//!
//! Build with `cargo test --features faults --test faults`; without the
//! feature this file compiles to nothing, matching release binaries
//! where every probe site folds away.
#![cfg(feature = "faults")]

use phylo_faults::Trigger;
use phyloplace::place::result::to_jplace;
use phyloplace::place::{memplan, EpaConfig, PlaceError, Placer, PreplacementMode, QueryBatch};
use phyloplace::prelude::*;
use std::sync::Mutex;

// The fault registry is process-global; tests that arm sites must not
// overlap in time.
static LOCK: Mutex<()> = Mutex::new(());

fn setup() -> (phyloplace::datasets::Dataset, Vec<u32>, QueryBatch) {
    let spec = phyloplace::datasets::neotrop(Scale::Ci);
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

/// A config that exercises the full AMC machinery: no lookup shortcut,
/// floor slot budget, async prefetch, several worker threads.
fn amc_config(ds: &phyloplace::datasets::Dataset, batch: &QueryBatch) -> EpaConfig {
    let base = EpaConfig {
        preplacement: PreplacementMode::Off,
        chunk_size: 7,
        threads: 2,
        block_size: 4,
        async_prefetch: true,
        ..Default::default()
    };
    let probe = ctx_of(ds);
    let floor = memplan::floor_budget(&probe, &base, batch.len(), batch.n_sites());
    EpaConfig { max_memory: Some(floor), ..base }
}

fn run_jplace(
    ds: &phyloplace::datasets::Dataset,
    s2p: &[u32],
    batch: &QueryBatch,
    cfg: &EpaConfig,
) -> String {
    let placer = Placer::new(ctx_of(ds), s2p.to_vec(), cfg.clone()).unwrap();
    let (results, _) = placer.place(batch).unwrap();
    to_jplace(&ds.tree, &results)
}

#[test]
fn recoverable_faults_preserve_output_bytes() {
    let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    phylo_faults::reset();
    let (ds, s2p, batch) = setup();
    let cfg = amc_config(&ds, &batch);
    let baseline = run_jplace(&ds, &s2p, &batch, &cfg);

    for (site, trigger) in [
        // A spurious pin-exhaustion report: the degradation ladder must
        // split / flush-and-retry, not abort.
        ("amc::spurious_all_slots_pinned", Trigger::Once { after: 3 }),
        // A kernel scratch buffer that never returns to the pool: the
        // next checkout simply allocates a fresh one.
        ("engine::scratch_lost", Trigger::Every { period: 2 }),
    ] {
        phylo_faults::arm(site, trigger);
        let faulted = run_jplace(&ds, &s2p, &batch, &cfg);
        assert!(phylo_faults::hits(site) > 0, "{site} never fired — dead probe?");
        assert_eq!(baseline, faulted, "{site}: output changed under a recoverable fault");
        phylo_faults::disarm(site);
    }
    phylo_faults::reset();
}

/// Spill faults are recoverable by construction: CLVs are pure functions
/// of the run inputs, so a record lost in its write or corrupted at
/// rest degrades to recomputation — the jplace bytes must not move.
#[test]
fn tier_faults_degrade_to_recompute_with_identical_output() {
    let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    phylo_faults::reset();
    let (ds, s2p, batch) = setup();
    let base_cfg = amc_config(&ds, &batch);
    let baseline = run_jplace(&ds, &s2p, &batch, &base_cfg);
    let dir = std::env::temp_dir().join(format!("phyloplace-faults-tier-{}", std::process::id()));
    let tiered = EpaConfig { tiers: Some(phylo_amc::TierConfig::new(dir)), ..base_cfg };

    // Crash during the spill write: the record never exists; later
    // misses find nothing and transparently recompute.
    phylo_faults::arm("tier::writeback_crash", Trigger::Every { period: 2 });
    let placer = Placer::new(ctx_of(&ds), s2p.clone(), tiered.clone()).unwrap();
    let (results, report) = placer.place(&batch).unwrap();
    assert!(
        phylo_faults::hits("tier::writeback_crash") > 0,
        "writeback_crash never fired — dead probe?"
    );
    assert_eq!(baseline, to_jplace(&ds.tree, &results), "writeback crash changed the output");
    let stats = report.tier_stats.unwrap();
    assert!(stats.writeback_lost > 0, "lost writes must be counted: {stats:?}");
    assert!(stats.demotions > 0, "every other spill still lands: {stats:?}");
    phylo_faults::disarm("tier::writeback_crash");

    // Bit-rot between store and load: the CRC check quarantines the
    // entry and the miss recomputes — corrupt bytes never reach a
    // kernel or the output.
    phylo_faults::arm("tier::corrupt_reload", Trigger::Every { period: 2 });
    let placer = Placer::new(ctx_of(&ds), s2p.clone(), tiered).unwrap();
    let (results, report) = placer.place(&batch).unwrap();
    assert!(
        phylo_faults::hits("tier::corrupt_reload") > 0,
        "corrupt_reload never fired — dead probe?"
    );
    assert_eq!(baseline, to_jplace(&ds.tree, &results), "corrupt reload changed the output");
    let stats = report.tier_stats.unwrap();
    assert!(stats.corrupt > 0, "CRC quarantines must be counted: {stats:?}");
    phylo_faults::disarm("tier::corrupt_reload");
    phylo_faults::reset();
}

#[test]
fn degradation_stats_accumulate_across_chunks() {
    let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    phylo_faults::reset();
    let (ds, s2p, batch) = setup();

    // Under the floor budget a block size of 64 is clamped by every
    // plan_block call — once in the prescore phase and once in the
    // thorough phase of every chunk. The report must count them all; a
    // regression to last-chunk-only reporting would read exactly 2.
    let base = EpaConfig {
        preplacement: PreplacementMode::Off,
        chunk_size: 7,
        threads: 2,
        block_size: 64,
        async_prefetch: false,
        ..Default::default()
    };
    let probe = ctx_of(&ds);
    let floor = memplan::floor_budget(&probe, &base, batch.len(), batch.n_sites());
    let cfg = EpaConfig { max_memory: Some(floor), ..base };
    let placer = Placer::new(ctx_of(&ds), s2p.clone(), cfg.clone()).unwrap();
    let n_chunks = batch.len().div_ceil(placer.memory_plan(&batch).unwrap().chunk_size) as u64;
    assert!(n_chunks >= 2, "need a multi-chunk batch, got {n_chunks} chunk(s)");
    let (_, report) = placer.place(&batch).unwrap();
    assert_eq!(
        report.degradation.block_clamped,
        2 * n_chunks,
        "block clamps must accumulate across all {n_chunks} chunks: {:?}",
        report.degradation
    );
    // The injected metrics counters mirror the authoritative stats.
    assert_eq!(
        report.metrics.counter("place.degrade.block_clamped"),
        report.degradation.block_clamped
    );

    // Spurious pin exhaustion on single-branch blocks forces the ladder's
    // flush-and-retry rung in many different chunks; every retry must
    // reach the final report, and the fault is recoverable so the output
    // bytes must not change.
    let cfg1 = EpaConfig { block_size: 1, ..cfg };
    let baseline = run_jplace(&ds, &s2p, &batch, &cfg1);
    phylo_faults::arm("amc::spurious_all_slots_pinned", Trigger::Every { period: 40 });
    let placer = Placer::new(ctx_of(&ds), s2p.clone(), cfg1.clone()).unwrap();
    let (results, rep) = placer.place(&batch).unwrap();
    assert!(phylo_faults::hits("amc::spurious_all_slots_pinned") >= 2, "fault barely fired");
    assert!(
        rep.degradation.flush_retries >= 2,
        "flush retries from every chunk must accumulate: {:?}",
        rep.degradation
    );
    assert_eq!(rep.metrics.counter("place.degrade.flush_retries"), rep.degradation.flush_retries);
    assert_eq!(baseline, to_jplace(&ds.tree, &results), "recoverable fault changed output");
    phylo_faults::disarm("amc::spurious_all_slots_pinned");
    phylo_faults::reset();
}

#[test]
fn pin_exhaustion_mid_sweep_drops_the_holds_not_the_output() {
    let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    phylo_faults::reset();
    let (ds, s2p, batch) = setup();
    let cfg = amc_config(&ds, &batch);
    let placer = Placer::new(ctx_of(&ds), s2p.clone(), cfg.clone()).unwrap();
    let (clean, clean_report) = placer.place(&batch).unwrap();
    assert_eq!(clean_report.degradation.flush_retries, 0, "the floor plan carries the holds");

    // Every 25th slot assignment reports pin exhaustion, i.e. again and
    // again deep inside the sweeps, where the spine is held. Holds are an
    // optimisation only: the sweep must drop them, flush, retry, and pay
    // in recomputation — never in output.
    phylo_faults::arm("amc::spurious_all_slots_pinned", Trigger::Every { period: 25 });
    let placer = Placer::new(ctx_of(&ds), s2p, cfg).unwrap();
    let (faulted, report) = placer.place(&batch).unwrap();
    assert!(phylo_faults::hits("amc::spurious_all_slots_pinned") > 4, "fault barely fired");
    phylo_faults::disarm("amc::spurious_all_slots_pinned");
    assert_eq!(to_jplace(&ds.tree, &clean), to_jplace(&ds.tree, &faulted));
    assert!(report.degradation.flush_retries > 0, "{:?}", report.degradation);
    assert!(
        report.slot_stats.misses > clean_report.slot_stats.misses,
        "dropped holds and a flushed cache are recomputed: {} vs {}",
        report.slot_stats.misses,
        clean_report.slot_stats.misses
    );
    phylo_faults::reset();
}

#[test]
fn worker_panic_is_contained_and_store_recovers() {
    let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    phylo_faults::reset();
    let (ds, s2p, batch) = setup();
    let cfg = EpaConfig { chunk_size: 7, threads: 2, ..Default::default() };
    let placer = Placer::new(ctx_of(&ds), s2p.clone(), cfg.clone()).unwrap();

    phylo_faults::arm("place::worker_panic", Trigger::Once { after: 0 });
    match placer.place(&batch) {
        Err(PlaceError::WorkerPanicked { context }) => {
            assert!(context.contains("thorough"), "{context}");
        }
        other => panic!("expected WorkerPanicked, got {other:?}"),
    }
    phylo_faults::disarm("place::worker_panic");

    // The panic drained cleanly: the same placer must place the same
    // batch successfully afterwards.
    let baseline = run_jplace(&ds, &s2p, &batch, &cfg);
    let (results, _) = placer.place(&batch).unwrap();
    assert_eq!(baseline, to_jplace(&ds.tree, &results));
    phylo_faults::reset();
}

#[test]
fn prefetch_panic_is_contained_and_store_recovers() {
    let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    phylo_faults::reset();
    let (ds, s2p, batch) = setup();
    // Small blocks + no lookup so the async prefetch thread actually runs.
    let cfg = EpaConfig {
        preplacement: PreplacementMode::Off,
        chunk_size: 7,
        block_size: 4,
        async_prefetch: true,
        ..Default::default()
    };
    let placer = Placer::new(ctx_of(&ds), s2p.clone(), cfg.clone()).unwrap();

    phylo_faults::arm("place::prefetch_panic", Trigger::Once { after: 0 });
    match placer.place(&batch) {
        Err(PlaceError::WorkerPanicked { context }) => {
            assert!(context.contains("prefetch"), "{context}");
        }
        other => panic!("expected WorkerPanicked, got {other:?}"),
    }
    phylo_faults::disarm("place::prefetch_panic");

    let baseline = run_jplace(&ds, &s2p, &batch, &cfg);
    let (results, _) = placer.place(&batch).unwrap();
    assert_eq!(baseline, to_jplace(&ds.tree, &results));
    phylo_faults::reset();
}

#[test]
fn kernel_nan_is_a_typed_error_not_a_wrong_answer() {
    let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    phylo_faults::reset();
    let (ds, s2p, batch) = setup();
    let cfg =
        EpaConfig { preplacement: PreplacementMode::Off, chunk_size: 7, ..Default::default() };
    let placer = Placer::new(ctx_of(&ds), s2p, cfg).unwrap();

    // The error names the first NaN of the chunk in (query, edge) order:
    // exactly what a scan of the full (query × branch) prescore matrix
    // reported, before candidates were selected as the scores stream in.
    for (after, want_edge) in [(2, 0), (20, 15), (40, 25)] {
        phylo_faults::reset();
        phylo_faults::arm("engine::kernel_nan", Trigger::Once { after });
        match placer.place(&batch) {
            Err(PlaceError::NonFiniteLikelihood { query, edge }) => {
                assert_eq!((query.as_str(), edge), ("Q000000", want_edge), "after {after}");
            }
            other => panic!("after {after}: expected NonFiniteLikelihood, got {other:?}"),
        }
        assert_eq!(phylo_faults::hits("engine::kernel_nan"), 1);
    }
    phylo_faults::reset();
}

#[test]
fn arena_allocation_failure_is_typed() {
    let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    phylo_faults::reset();
    let (ds, s2p, batch) = setup();
    let placer = Placer::new(ctx_of(&ds), s2p, EpaConfig::default()).unwrap();

    phylo_faults::arm("amc::arena_alloc", Trigger::Once { after: 0 });
    match placer.place(&batch) {
        Err(PlaceError::Engine(phyloplace::engine::EngineError::Amc(
            phyloplace::amc::AmcError::AllocationFailed { bytes },
        ))) => assert!(bytes > 0),
        other => panic!("expected AllocationFailed, got {other:?}"),
    }
    phylo_faults::reset();
}

#[test]
fn jplace_write_failure_leaves_no_partial_file() {
    let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    phylo_faults::reset();
    let dir = std::env::temp_dir();
    let path = dir.join(format!("phyloplace-faults-{}.jplace", std::process::id()));
    let tmp = dir.join(format!("phyloplace-faults-{}.jplace.tmp", std::process::id()));
    std::fs::write(&path, "previous run").unwrap();

    phylo_faults::arm("place::jplace_io", Trigger::Once { after: 0 });
    let err = phyloplace::place::result::write_jplace_atomic(&path, "half-written").unwrap_err();
    assert!(err.to_string().contains("injected"));
    // The previous output survives untouched and no temp file lingers.
    assert_eq!(std::fs::read_to_string(&path).unwrap(), "previous run");
    assert!(!tmp.exists());
    phylo_faults::disarm("place::jplace_io");

    phyloplace::place::result::write_jplace_atomic(&path, "new output").unwrap();
    assert_eq!(std::fs::read_to_string(&path).unwrap(), "new output");
    assert!(!tmp.exists());
    let _ = std::fs::remove_file(&path);
    phylo_faults::reset();
}
