//! Crash-and-resume determinism matrix: for every fault-injected crash
//! point, run → crash → resume must produce a jplace byte-identical to
//! the uninterrupted run, and cancellation (signal/deadline) must yield
//! a valid partial result plus a journal from which resume completes.
//!
//! Build with `cargo test --features faults --test crash_resume`;
//! without the feature this file compiles to nothing. A shell-level
//! kill-and-resume pass (real process death, real exit codes) lives in
//! `scripts/ci.sh`; this in-process matrix is the thorough per-chunk
//! coverage.
#![cfg(feature = "faults")]

use phylo_faults::Trigger;
use phyloplace::journal::{JournalError, Manifest, RunJournal, MANIFEST_FORMAT};
use phyloplace::place::candidates::{THOROUGH_FRACTION, THOROUGH_MIN};
use phyloplace::place::result::{to_jplace, to_jplace_with};
use phyloplace::place::score::BLO_ITERATIONS;
use phyloplace::place::{EpaConfig, PlaceError, Placer, QueryBatch};
use phyloplace::prelude::*;
use std::path::PathBuf;
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

fn config() -> EpaConfig {
    EpaConfig { chunk_size: 7, threads: 2, ..Default::default() }
}

fn make_placer(ds: &phyloplace::datasets::Dataset, s2p: &[u32]) -> Placer {
    Placer::new(ctx_of(ds), s2p.to_vec(), config()).unwrap()
}

/// The manifest the CLI would build for this run (input hashes fixed
/// per test process; what matters here is the chunk geometry).
fn manifest_of(placer: &Placer, batch: &QueryBatch) -> Manifest {
    let plan = placer.memory_plan(batch).unwrap();
    Manifest {
        format: MANIFEST_FORMAT,
        tree_hash: 1,
        ref_msa_hash: 2,
        query_hash: 3,
        alphabet: "dna".into(),
        gamma_alpha_bits: None,
        chunk_size: plan.chunk_size,
        n_queries: batch.len(),
        thorough_fraction_bits: THOROUGH_FRACTION.to_bits(),
        thorough_min: THOROUGH_MIN,
        blo_iterations: BLO_ITERATIONS,
    }
}

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("phyloplace-crash-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

#[test]
fn crash_after_every_chunk_resumes_byte_identical() {
    let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    phylo_faults::reset();
    let (ds, s2p, batch) = setup();
    let placer = make_placer(&ds, &s2p);
    let manifest = manifest_of(&placer, &batch);
    let n_chunks = batch.len().div_ceil(placer.memory_plan(&batch).unwrap().chunk_size);
    assert!(n_chunks >= 2, "need a multi-chunk batch, got {n_chunks}");
    let baseline = {
        let (results, _) = placer.place(&batch).unwrap();
        to_jplace(&ds.tree, &results)
    };

    // Crash points: "process dies right after chunk k became durable",
    // for every k. Resume must replay exactly k+1 chunks and finish
    // with output byte-identical to the uninterrupted run.
    for k in 0..n_chunks {
        let dir = tmpdir(&format!("after-{k}"));
        let journal = RunJournal::create(&dir, &manifest).unwrap();
        phylo_faults::arm("journal::crash_after_chunk", Trigger::Once { after: k as u64 });
        let err = placer
            .place_run(&batch, RunControl { journal: Some(journal), ..Default::default() })
            .err()
            .unwrap_or_else(|| panic!("crash point {k} did not fire"));
        assert!(
            matches!(err, PlaceError::Journal(JournalError::InjectedCrash)),
            "crash point {k}: {err:?}"
        );
        phylo_faults::disarm("journal::crash_after_chunk");

        let journal = RunJournal::resume(&dir, &manifest).unwrap();
        assert_eq!(journal.replayed().len(), k + 1, "crash point {k}");
        assert!(!journal.had_torn_tail());
        let outcome = placer
            .place_run(&batch, RunControl { journal: Some(journal), ..Default::default() })
            .unwrap();
        assert!(outcome.completed);
        assert_eq!(outcome.report.resumed_chunks, k + 1);
        assert_eq!(outcome.queries_done, batch.len());
        assert_eq!(
            baseline,
            to_jplace(&ds.tree, &outcome.results),
            "crash point {k}: resumed output differs from uninterrupted run"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
    phylo_faults::reset();
}

#[test]
fn torn_write_is_discarded_and_chunk_recomputed_on_resume() {
    let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    phylo_faults::reset();
    let (ds, s2p, batch) = setup();
    let placer = make_placer(&ds, &s2p);
    let manifest = manifest_of(&placer, &batch);
    let baseline = {
        let (results, _) = placer.place(&batch).unwrap();
        to_jplace(&ds.tree, &results)
    };

    // The second append tears mid-frame (half the bytes, no fsync):
    // the run dies with an I/O error; chunk 0 is durable, chunk 1 is
    // a torn tail the resume must shed and recompute.
    let dir = tmpdir("torn");
    let journal = RunJournal::create(&dir, &manifest).unwrap();
    phylo_faults::arm("journal::torn_write", Trigger::Once { after: 1 });
    let err = placer
        .place_run(&batch, RunControl { journal: Some(journal), ..Default::default() })
        .unwrap_err();
    assert!(matches!(&err, PlaceError::Journal(JournalError::Io { .. })), "{err:?}");
    assert_eq!(phylo_faults::hits("journal::torn_write"), 1);
    phylo_faults::disarm("journal::torn_write");

    let journal = RunJournal::resume(&dir, &manifest).unwrap();
    assert!(journal.had_torn_tail(), "the torn tail went undetected");
    assert_eq!(journal.replayed().len(), 1);
    let outcome = placer
        .place_run(&batch, RunControl { journal: Some(journal), ..Default::default() })
        .unwrap();
    assert!(outcome.completed);
    assert_eq!(outcome.report.resumed_chunks, 1);
    assert_eq!(baseline, to_jplace(&ds.tree, &outcome.results));
    std::fs::remove_dir_all(&dir).unwrap();
    phylo_faults::reset();
}

#[test]
fn resume_with_complete_journal_skips_recomputation() {
    let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    phylo_faults::reset();
    let (ds, s2p, batch) = setup();
    let placer = make_placer(&ds, &s2p);
    let manifest = manifest_of(&placer, &batch);
    let n_chunks = batch.len().div_ceil(placer.memory_plan(&batch).unwrap().chunk_size);

    // A run that crashed *after* its last chunk was journaled but before
    // the output was written: resume has nothing to compute and must not
    // even build the lookup table.
    let dir = tmpdir("full");
    let journal = RunJournal::create(&dir, &manifest).unwrap();
    let outcome = placer
        .place_run(&batch, RunControl { journal: Some(journal), ..Default::default() })
        .unwrap();
    let baseline = to_jplace(&ds.tree, &outcome.results);

    let journal = RunJournal::resume(&dir, &manifest).unwrap();
    assert_eq!(journal.replayed().len(), n_chunks);
    let resumed = placer
        .place_run(&batch, RunControl { journal: Some(journal), ..Default::default() })
        .unwrap();
    assert!(resumed.completed);
    assert_eq!(resumed.report.resumed_chunks, n_chunks);
    assert_eq!(
        resumed.report.lookup_time.as_nanos(),
        0,
        "a fully-replayed run must skip the lookup build"
    );
    assert_eq!(baseline, to_jplace(&ds.tree, &resumed.results));
    std::fs::remove_dir_all(&dir).unwrap();
    phylo_faults::reset();
}

#[test]
fn mid_run_cancel_yields_valid_partial_then_resume_completes() {
    let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    phylo_faults::reset();
    let (ds, s2p, batch) = setup();
    let placer = make_placer(&ds, &s2p);
    let manifest = manifest_of(&placer, &batch);
    let chunk_size = placer.memory_plan(&batch).unwrap().chunk_size;
    let baseline = {
        let (results, _) = placer.place(&batch).unwrap();
        to_jplace(&ds.tree, &results)
    };

    // Deterministic "SIGINT during the run": the probe cancels the token
    // right after chunk 0 becomes durable — like a deadline firing at
    // that boundary. The run must come back Ok (not Err), partial.
    let dir = tmpdir("cancel");
    let journal = RunJournal::create(&dir, &manifest).unwrap();
    phylo_faults::arm("place::cancel_after_chunk", Trigger::Once { after: 0 });
    let outcome = placer
        .place_run(&batch, RunControl { journal: Some(journal), ..Default::default() })
        .unwrap();
    phylo_faults::disarm("place::cancel_after_chunk");
    assert!(!outcome.completed);
    assert_eq!(outcome.queries_done, chunk_size.min(batch.len()));
    assert_eq!(outcome.results.len(), outcome.queries_done);

    // The partial jplace is valid and marked incomplete; its entries are
    // finalized (LWR sums to 1 per query).
    let partial = to_jplace_with(&ds.tree, &outcome.results, outcome.completed);
    assert!(partial.contains("\"completed\": false"));
    for r in &outcome.results {
        let lwr: f64 = r.placements.iter().map(|p| p.like_weight_ratio).sum();
        assert!((lwr - 1.0).abs() < 1e-9, "{}: partial result not finalized", r.name);
    }

    // Resume completes the remaining chunks; output is byte-identical.
    let journal = RunJournal::resume(&dir, &manifest).unwrap();
    assert_eq!(journal.replayed().len(), 1);
    let resumed = placer
        .place_run(&batch, RunControl { journal: Some(journal), ..Default::default() })
        .unwrap();
    assert!(resumed.completed);
    assert_eq!(resumed.report.resumed_chunks, 1);
    assert_eq!(baseline, to_jplace(&ds.tree, &resumed.results));
    std::fs::remove_dir_all(&dir).unwrap();
    phylo_faults::reset();
}

#[test]
fn pre_armed_cancellation_places_nothing_but_does_not_error() {
    let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    phylo_faults::reset();
    let (ds, s2p, batch) = setup();
    let placer = make_placer(&ds, &s2p);

    // A deadline of zero: the token is cancelled before the first chunk.
    let control = RunControl::default();
    control.cancel.cancel();
    let outcome = placer.place_run(&batch, control).unwrap();
    assert!(!outcome.completed);
    assert_eq!(outcome.queries_done, 0);
    assert!(outcome.results.is_empty());
    let partial = to_jplace_with(&ds.tree, &outcome.results, false);
    assert!(partial.contains("\"completed\": false"));
    assert!(partial.contains("\"placements\": ["));
    phylo_faults::reset();
}

#[test]
fn resume_refuses_a_mismatched_run() {
    let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    phylo_faults::reset();
    let (ds, s2p, batch) = setup();
    let placer = make_placer(&ds, &s2p);
    let manifest = manifest_of(&placer, &batch);

    let dir = tmpdir("mismatch");
    let journal = RunJournal::create(&dir, &manifest).unwrap();
    drop(journal);

    // Different query file → typed mismatch naming the field.
    let other = Manifest { query_hash: manifest.query_hash ^ 1, ..manifest.clone() };
    match RunJournal::resume(&dir, &other) {
        Err(JournalError::ManifestMismatch { field, .. }) => assert_eq!(field, "query_hash"),
        r => panic!("expected ManifestMismatch, got {:?}", r.err()),
    }
    // Different effective chunk size (e.g. another --maxmem) → refused,
    // because frame indices would attribute results to the wrong queries.
    let other = Manifest { chunk_size: manifest.chunk_size + 1, ..manifest.clone() };
    match RunJournal::resume(&dir, &other) {
        Err(JournalError::ManifestMismatch { field, .. }) => assert_eq!(field, "chunk_size"),
        r => panic!("expected ManifestMismatch, got {:?}", r.err()),
    }
    // Not a checkpoint directory at all.
    match RunJournal::resume(&dir.join("nothing-here"), &manifest) {
        Err(JournalError::ManifestMissing { .. }) => {}
        r => panic!("expected ManifestMissing, got {:?}", r.err()),
    }
    std::fs::remove_dir_all(&dir).unwrap();
    phylo_faults::reset();
}
