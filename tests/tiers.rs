//! Integration tests for the CLV spill file: under a slot budget below
//! the working set, writing evicted CLVs to disk must change
//! performance characteristics only — the jplace output stays
//! byte-identical to the recompute-only run, the spill traffic shows
//! up in the run report, and a byte budget turns spills into drops
//! instead of overflowing.

use phyloplace::place::result::to_jplace;
use phyloplace::place::{memplan, EpaConfig, Placer, PreplacementMode, QueryBatch, RunReport};
use phyloplace::prelude::*;

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

/// Floor slot budget, no lookup shortcut: every thorough score walks the
/// AMC machinery, so evictions — and with a spill file attached,
/// spills — are guaranteed traffic, not a lucky accident.
fn tight_config(ds: &phyloplace::datasets::Dataset, batch: &QueryBatch) -> EpaConfig {
    let base = EpaConfig {
        preplacement: PreplacementMode::Off,
        chunk_size: 7,
        block_size: 4,
        async_prefetch: true,
        ..Default::default()
    };
    let probe = ctx_of(ds);
    let floor = memplan::floor_budget(&probe, &base, batch.len(), batch.n_sites());
    EpaConfig { max_memory: Some(floor), ..base }
}

/// A fresh spill directory per call (the tests of this file run in
/// parallel within one process).
fn spill_dir(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("phyloplace-tiertest-{tag}-{}", std::process::id()))
}

fn run(
    ds: &phyloplace::datasets::Dataset,
    s2p: &[u32],
    batch: &QueryBatch,
    cfg: &EpaConfig,
) -> (String, RunReport) {
    let placer = Placer::new(ctx_of(ds), s2p.to_vec(), cfg.clone()).unwrap();
    let (results, report) = placer.place(batch).unwrap();
    (to_jplace(&ds.tree, &results), report)
}

#[test]
fn tiered_runs_match_ram_only_byte_for_byte() {
    let (ds, s2p, batch) = setup();
    let cfg = tight_config(&ds, &batch);
    let (baseline, base_report) = run(&ds, &s2p, &batch, &cfg);
    assert!(base_report.tier_stats.is_none(), "an unspilled run must not report spill traffic");
    assert!(base_report.slot_stats.evictions > 0, "floor budget must force evictions");

    let dir = spill_dir("identity");
    let tiered = EpaConfig { tiers: Some(phylo_amc::TierConfig::new(&dir)), ..cfg.clone() };
    let (out, report) = run(&ds, &s2p, &batch, &tiered);
    assert_eq!(baseline, out, "spilled jplace differs from the recompute-only run");
    let stats = report.tier_stats.expect("a spilled run must report spill stats");
    assert!(stats.demotions > 0, "floor budget produced no spills");
    assert!(stats.reloads > 0, "no miss was answered from the file");
    assert_eq!(stats.writeback_lost, 0);
    // The gauges `--metrics-json` exports describe the file: its bytes
    // are whole records, one per stored entry.
    let gauge = |name: &str| report.metrics.gauges.get(name).copied();
    let layout = *ctx_of(&ds).layout();
    let record_len = (layout.clv_len() * 8 + layout.patterns * 4) as i64;
    let entries = gauge("tier.disk.entries").expect("metrics missing tier.disk.entries");
    assert_eq!(entries, stats.entries as i64);
    assert!(entries > 0);
    assert_eq!(gauge("tier.disk.bytes"), Some(entries * record_len));
    assert_eq!(report.metrics.counter("tier.demotions"), stats.demotions);
    // The file's per-key index is tracked RAM in the `disk-tier` row.
    let index_bytes = ds.tree.n_dir_edges() * std::mem::size_of::<u64>();
    assert_eq!(report.peak_memory, base_report.peak_memory + index_bytes);
    assert!(!dir.exists(), "the directory the store created goes with it");
}

#[test]
fn tier_byte_budget_drops_instead_of_overflowing() {
    let (ds, s2p, batch) = setup();
    let cfg = tight_config(&ds, &batch);
    let (baseline, _) = run(&ds, &s2p, &batch, &cfg);
    // One byte of budget: every offer must be refused (a record never
    // fits), and the run degrades to plain recomputation with identical
    // output.
    let tiers = phylo_amc::TierConfig::new(spill_dir("budget")).with_budget(1);
    let tiered = EpaConfig { tiers: Some(tiers), ..cfg.clone() };
    let (out, report) = run(&ds, &s2p, &batch, &tiered);
    assert_eq!(baseline, out, "budget-starved spilled run changed the output");
    let stats = report.tier_stats.unwrap();
    assert!(stats.drops_budget > 0, "budget of 1 byte must drop spills");
    assert_eq!(stats.demotions, 0, "nothing can be written under a 1-byte budget");
    assert_eq!(stats.reloads, 0, "nothing was written, so nothing can reload");
    assert_eq!((stats.entries, stats.bytes), (0, 0));
}

#[test]
fn disk_tier_honors_an_explicit_directory() {
    let (ds, s2p, batch) = setup();
    let cfg = tight_config(&ds, &batch);
    let (baseline, _) = run(&ds, &s2p, &batch, &cfg);
    let dir = spill_dir("explicit");
    // Pre-existing directory: the store must use it without claiming
    // ownership, so it survives the run (only the spill file goes).
    std::fs::create_dir_all(&dir).unwrap();
    let tiered = EpaConfig { tiers: Some(phylo_amc::TierConfig::new(&dir)), ..cfg.clone() };
    let (out, report) = run(&ds, &s2p, &batch, &tiered);
    assert_eq!(baseline, out, "disk-tier run changed the output");
    let stats = report.tier_stats.unwrap();
    assert!(stats.demotions > 0);
    // The store removes its spill file on drop but leaves the caller's
    // directory in place.
    assert!(dir.is_dir(), "explicit tier dir must survive the run");
    let leftovers = std::fs::read_dir(&dir).unwrap().count();
    assert_eq!(leftovers, 0, "spill file must be cleaned up on drop");
    std::fs::remove_dir_all(&dir).ok();
}
