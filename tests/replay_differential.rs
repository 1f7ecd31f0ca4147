//! The replay lab's differential contract, end to end: a placement run
//! under a tight memory budget, captured with `--slot-trace`, must be
//! reproduced **bit-exactly** by the offline simulator — same policy,
//! same slot count, identical hit/miss/eviction/install/acquire
//! counters. One run per replacement policy, plus the Belady oracle
//! bound: the clairvoyant replay never misses more than any live
//! policy on the trace it captured.
//!
//! This is the guarantee that makes offline `phyloplace replay` sweeps
//! trustworthy for `--maxmem` planning: if the simulator agrees with
//! the live slot manager at the captured configuration, its miss
//! curves at *other* slot counts are the real machine's, not a model's.

use phylo_obs::slottrace::{SlotEvent, NO_TABLE};
use phyloplace::place::{memplan, EpaConfig, Placer, PreplacementMode, QueryBatch, RunControl};
use phyloplace::prelude::*;
use phyloplace::replay::{simulate, Policy, SimStats, Trace};
use std::sync::Arc;

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

/// Floor slot budget + no lookup shortcut, so the run evicts and the
/// trace exercises the policy under pressure (not just compulsory
/// misses). Single worker thread keeps per-policy runs cheap; the
/// trace's exactness holds at any thread count because events are
/// recorded inside the table-lock critical sections.
fn tight_config(
    ds: &phyloplace::datasets::Dataset,
    batch: &QueryBatch,
    strategy: StrategyKind,
) -> EpaConfig {
    let base = EpaConfig {
        preplacement: PreplacementMode::Off,
        chunk_size: 7,
        threads: 2,
        block_size: 4,
        async_prefetch: false,
        strategy,
        ..Default::default()
    };
    let probe = ctx_of(ds);
    let floor = memplan::floor_budget(&probe, &base, batch.len(), batch.n_sites());
    EpaConfig { max_memory: Some(floor), ..base }
}

/// Captures one traced run and returns `(trace, live counters, slots)`.
fn traced_run(strategy: StrategyKind) -> (Trace, SimStats, usize) {
    let (ds, s2p, batch) = setup();
    let cfg = tight_config(&ds, &batch, strategy);
    let placer = Placer::new(ctx_of(&ds), s2p, cfg).unwrap();
    let recorder = Arc::new(phylo_obs::slottrace::SlotTrace::new());
    let outcome = placer
        .place_run(
            &batch,
            RunControl { slot_trace: Some(Arc::clone(&recorder)), ..Default::default() },
        )
        .unwrap();
    assert!(outcome.completed);
    let s = &outcome.report.slot_stats;
    let live = SimStats {
        hits: s.hits,
        misses: s.misses,
        evictions: s.evictions,
        installs: s.installs,
        acquires: s.acquires,
    };
    (recorder.snapshot(), live, outcome.report.slots)
}

/// The `Acquire` events are the demand every configuration replays. The
/// planner's reuses (`Touch`, a hit in the live run) count only where the
/// replayed configuration still holds the CLV — where it does not, the
/// live planner would have recomputed instead, at a cost no trace records.
fn assert_demand_replayed(trace: &Trace, sim: &SimStats, live: &SimStats, what: &str) {
    let demand =
        trace.events.iter().filter(|e| matches!(e, SlotEvent::Acquire { .. })).count() as u64;
    assert!(demand < live.acquires, "{what}: the live planner reused cached CLVs");
    assert!(
        (demand..=live.acquires).contains(&sim.acquires),
        "{what}: {} accesses replayed, {demand} demanded, {} live",
        sim.acquires,
        live.acquires
    );
}

#[test]
fn simulator_matches_every_live_policy_bit_exactly() {
    for strategy in StrategyKind::all() {
        let (trace, live, slots) = traced_run(strategy);
        assert!(live.misses > 0, "{strategy}: a floor-budget run must miss");
        assert!(live.evictions > 0, "{strategy}: a floor-budget run must evict");
        assert!(live.hits > 0, "{strategy}: the planner's reuses are hits");
        assert_eq!(trace.meta.strategy, strategy.to_string());
        assert_eq!(trace.meta.n_slots as usize, slots);

        // The trace must survive its own text round trip first — the CLI
        // path goes through a file.
        let round = Trace::parse(&trace.to_text()).unwrap();
        assert_eq!(round.events, trace.events, "{strategy}: trace text round trip");
        assert_eq!(round.schedules, trace.schedules, "{strategy}: trace text round trip");
        // Every policy is told about the sweeps (only the default
        // listens), so every trace carries them: the no-lookup prescore
        // and thorough walks of each chunk, announced and withdrawn.
        let told = |table_is: fn(u32) -> bool| {
            let is =
                |e: &&SlotEvent| matches!(e, SlotEvent::Schedule { table } if table_is(*table));
            trace.events.iter().filter(is).count()
        };
        assert!(!trace.schedules.is_empty(), "{strategy}: no sweep was announced");
        assert_eq!(told(|t| t != NO_TABLE), trace.schedules.len(), "{strategy}");
        assert_eq!(told(|t| t == NO_TABLE), trace.schedules.len(), "{strategy}");
        assert!(trace.events.iter().any(|e| matches!(e, SlotEvent::Cursor { .. })));

        let sim = simulate(&round, slots, Policy::Kind(strategy))
            .unwrap_or_else(|e| panic!("{strategy}: replay failed: {e}"));
        assert_eq!(
            sim, live,
            "{strategy}: simulated counters diverge from the live run at {slots} slots"
        );

        // The clairvoyant bound on the same trace and slot count.
        let oracle = simulate(&round, slots, Policy::Belady).unwrap();
        assert!(
            oracle.misses <= live.misses,
            "{strategy}: belady simulated {} misses > live {}",
            oracle.misses,
            live.misses
        );
        assert_demand_replayed(&round, &oracle, &live, &format!("{strategy}: oracle"));
    }
}

#[test]
fn cross_policy_replay_stays_feasible_on_a_real_trace() {
    // A trace captured under one policy replays under every other (and
    // the oracle) without jamming: the skipped-pin bookkeeping absorbs
    // residency divergence, and the sweep announcements the default
    // policy acted on mean nothing to the rest.
    let (trace, live, slots) = traced_run(StrategyKind::CostBased);
    assert!(trace.events.iter().any(|e| matches!(e, SlotEvent::Schedule { .. })));
    let mut best_live = u64::MAX;
    for policy in Policy::all() {
        let s = simulate(&trace, slots, policy)
            .unwrap_or_else(|e| panic!("{policy}: cross-policy replay failed: {e}"));
        assert_demand_replayed(&trace, &s, &live, &policy.to_string());
        assert_eq!(s.hits + s.misses, s.acquires, "{policy}: traffic balance");
        assert_eq!(s.installs, s.misses, "{policy}: installs == misses");
        if policy != Policy::Belady {
            best_live = best_live.min(s.misses);
        }
    }
    let oracle = simulate(&trace, slots, Policy::Belady).unwrap();
    assert!(
        oracle.misses <= best_live,
        "belady ({}) must lower-bound every live policy (best {best_live})",
        oracle.misses
    );
}
