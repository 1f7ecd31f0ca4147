//! End-to-end observability: a placement run under a tight memory budget
//! must produce a metrics snapshot whose slot counters balance exactly
//! (`hits + misses == acquires`, the acceptance invariant for slot
//! traffic) and a Chrome trace that names the orchestrator's phases.
//!
//! Probes are always compiled in, so this runs with the rest of Tier-1
//! (`cargo test -q`) against the same library code the release binary
//! ships.

use phyloplace::place::score::BLO_ITERATIONS;
use phyloplace::place::{memplan, EpaConfig, Placer, PreplacementMode, QueryBatch};
use phyloplace::prelude::*;
use std::sync::Mutex;

// The trace recorder and metrics registry are process-global; tests that
// read them must not overlap in time.
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

/// No lookup shortcut and a floor slot budget, so CLVs are recomputed
/// (misses) rather than all cached.
fn tight_config(ds: &phyloplace::datasets::Dataset, batch: &QueryBatch) -> EpaConfig {
    let base = EpaConfig {
        preplacement: PreplacementMode::Off,
        chunk_size: 7,
        threads: 2,
        block_size: 4,
        async_prefetch: false,
        ..Default::default()
    };
    let probe = ctx_of(ds);
    let floor = memplan::floor_budget(&probe, &base, batch.len(), batch.n_sites());
    EpaConfig { max_memory: Some(floor), ..base }
}

#[test]
fn metrics_account_for_every_clv_acquisition() {
    let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (ds, s2p, batch) = setup();
    let cfg = tight_config(&ds, &batch);
    let placer = Placer::new(ctx_of(&ds), s2p, cfg).unwrap();
    let (_, report) = placer.place(&batch).unwrap();
    let m = &report.metrics;

    // The acceptance invariant: every acquisition is either a hit or a
    // miss, and every miss installed a CLV.
    assert!(m.counter("slot.misses") > 0, "a floor-budget run must recompute CLVs");
    assert_eq!(
        m.counter("slot.hits") + m.counter("slot.misses"),
        m.counter("slot.acquires"),
        "hits + misses must equal total CLV acquisitions: {m:?}"
    );
    assert_eq!(m.counter("slot.installs"), m.counter("slot.misses"));
    // The injected counters agree with the report's own slot stats.
    assert_eq!(m.counter("slot.hits"), report.slot_stats.hits);
    assert_eq!(m.counter("slot.misses"), report.slot_stats.misses);
    // Live probes recorded during the run.
    assert!(m.counter("engine.ops") > 0, "kernel op counter never fired: {m:?}");
    // Thorough scoring's searches: every pair runs its first round's two,
    // and rounds are whole, so run + skipped is even and bounded by
    // `2 · BLO_ITERATIONS` a pair.
    let (run, skipped) =
        (m.counter("place.thorough.searches_run"), m.counter("place.thorough.searches_skipped"));
    assert!(run >= 2 * report.n_thorough, "{run} searches for {} pairs", report.n_thorough);
    assert_eq!((run + skipped) % 2, 0);
    assert!(run + skipped <= 2 * BLO_ITERATIONS as u64 * report.n_thorough);

    // The snapshot exports as JSON with the counters present and the
    // braces balanced (the file must load in any JSON reader).
    let json = m.to_json();
    assert!(json.contains("\"slot.misses\""), "{json}");
    assert!(json.contains("\"counters\""), "{json}");
    let depth = json.chars().fold(0i64, |d, c| d + (c == '{') as i64 - (c == '}') as i64);
    assert_eq!(depth, 0, "unbalanced JSON: {json}");
}

#[test]
fn trace_records_phase_spans() {
    let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (ds, s2p, batch) = setup();
    let cfg = tight_config(&ds, &batch);
    let placer = Placer::new(ctx_of(&ds), s2p, cfg).unwrap();

    phylo_obs::trace::start();
    placer.place(&batch).unwrap();
    phylo_obs::trace::stop();
    let events = phylo_obs::trace::drain();

    for phase in ["prescore", "thorough", "chunk 0", "chunk.heartbeat"] {
        assert!(
            events.iter().any(|e| e.name == phase),
            "no {phase:?} event among {} trace events",
            events.len()
        );
    }
    // Span durations are plausible: a prescore phase takes time.
    assert!(events.iter().any(|e| e.name == "prescore" && e.dur_ns > 0));

    let json = phylo_obs::trace::chrome_json(&events);
    assert!(json.starts_with("{\"traceEvents\":["), "{}", &json[..60.min(json.len())]);
    let depth = json.chars().fold(0i64, |d, c| d + (c == '{') as i64 - (c == '}') as i64);
    assert_eq!(depth, 0, "unbalanced trace JSON");
}
