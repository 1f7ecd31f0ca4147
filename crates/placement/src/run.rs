//! The placement orchestrator: chunks × branch sweeps × worker threads.

use crate::candidates::{
    candidate_count, group_by_branch, TopCandidates, THOROUGH_FRACTION, THOROUGH_MIN,
};
use crate::config::EpaConfig;
use crate::error::PlaceError;
use crate::lookup::LookupTable;
use crate::memplan::{self, BlockPlan, MemoryPlan};
use crate::queries::{EncodedQuery, QueryBatch};
use crate::result::{
    DegradationStats, PlacementEntry, PlacementResult, RunReport, ScoringStats, SweepStats,
};
use crate::score::{score_thorough, BranchScoreTable, QueryEvaluator, ScoreScratch};
use crate::sweep::{fan_out, run_sweep, DegradationCounters, Walk};
use phylo_amc::CancelToken;
use phylo_engine::{ManagedStore, ReferenceContext};
use phylo_journal::{ChunkFrame, ChunkStats, PlacementRecord, QueryRecord, RunJournal};
use phylo_tree::traversal::SweepSchedule;
use phylo_tree::EdgeId;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Run-lifecycle hooks for [`Placer::place_run`]: cooperative
/// cancellation plus optional chunk-journal checkpointing. The default
/// is inert (never cancelled, no journal), which is exactly what
/// [`Placer::place`] runs under.
#[derive(Default)]
pub struct RunControl {
    /// Cooperative shutdown flag, polled at chunk boundaries and per
    /// Felsenstein op inside the engine. Arm it from a signal handler
    /// watchdog or a deadline timer; the run breaks with bounded
    /// latency, flushes nothing mid-chunk, and reports a partial
    /// outcome instead of an error.
    pub cancel: CancelToken,
    /// Durable chunk journal. Frames replayed by
    /// [`phylo_journal::RunJournal::resume`] are restored instead of
    /// recomputed; every freshly completed chunk is appended (durably)
    /// before the orchestrator advances to the next one.
    pub journal: Option<RunJournal>,
    /// Slot-access trace recorder (`--slot-trace`): armed on the slot
    /// manager before any CLV traffic, with the run's metadata (slot
    /// count, strategy, slot size, cost table) filled in. The caller
    /// snapshots it after the run for the offline replay lab
    /// (`phylo-replay`).
    pub slot_trace: Option<std::sync::Arc<phylo_obs::slottrace::SlotTrace>>,
}

/// What a crash-safe run produced: the placements for every finished
/// query, the run report, and how far the run got.
#[derive(Debug)]
pub struct PlaceOutcome {
    /// Per-query results in batch order, truncated to the completed
    /// chunk prefix when the run was cancelled.
    pub results: Vec<PlacementResult>,
    /// The run report ([`RunReport::resumed_chunks`] counts replayed
    /// frames; timings cover only the work this process did).
    pub report: RunReport,
    /// False when the run was cancelled before placing every query.
    pub completed: bool,
    /// Queries with final, durable results (`== n_queries` iff
    /// `completed`).
    pub queries_done: usize,
}

/// Reference-side engine state, opened once and then walked chunk by
/// chunk: the CLV slot arena (internally synchronized — `&self` end to
/// end), the preplacement lookup table and the sweep schedule. A cold
/// [`Placer::place_run`] opens one for its batch and drops it with the
/// run; [`Placer::warm_up`] opens one for a long-lived service, which
/// then pays the arena allocation and the lookup build exactly once
/// instead of per request — the paper's "expensive to build, cheap to
/// reuse" state made explicit.
pub struct WarmStore {
    store: ManagedStore,
    lookup: Option<LookupTable>,
    sweep: SweepSchedule,
    plan: MemoryPlan,
    lookup_time: Duration,
    /// The lookup build's sweep: its prepares, units, waits and threads.
    lookup_sweep: SweepStats,
    /// The CLV spill file (cold runs only; [`Placer::warm_up`] refuses
    /// it).
    tiers: Option<Arc<phylo_amc::TieredStore>>,
}

impl WarmStore {
    /// Slots the warm arena holds.
    pub fn slots(&self) -> usize {
        self.plan.slots
    }

    /// Whether the preplacement lookup table was built.
    pub fn use_lookup(&self) -> bool {
        self.plan.use_lookup
    }

    /// Whether [`Placer::place_warm`] runs against this store may
    /// overlap: it was planned without a memory cap, so once
    /// [`Placer::warm_up`] returns it holds every CLV and runs only read
    /// it.
    pub fn runs_may_overlap(&self) -> bool {
        self.plan.mode == memplan::AmcMode::Off
    }

    /// Cumulative slot traffic over every run served so far.
    pub fn slot_stats(&self) -> phylo_amc::SlotStats {
        self.store.stats()
    }

    /// The plan's tracked bytes by category, with the spill file's RAM
    /// index as it stands now.
    fn tracked(&self) -> phylo_amc::MemoryTracker {
        let mut tracker = self.plan.tracker.clone();
        if let Some(tiers) = &self.tiers {
            tracker.allocate(phylo_amc::MemCategory::DiskTier, tiers.ram_bytes());
        }
        tracker
    }
}

/// A configured placement engine over one reference.
pub struct Placer {
    ctx: ReferenceContext,
    site_to_pattern: Vec<u32>,
    cfg: EpaConfig,
}

impl Placer {
    /// Builds a placer. `site_to_pattern` is the site→pattern map of the
    /// compressed reference alignment
    /// ([`phylo_seq::PatternMsa::site_to_pattern`]).
    pub fn new(
        mut ctx: ReferenceContext,
        site_to_pattern: Vec<u32>,
        cfg: EpaConfig,
    ) -> Result<Self, PlaceError> {
        cfg.validate()?;
        // Pin the kernel tier before any store is built from the context
        // so every CLV and likelihood of the run uses one implementation
        // (`Auto` re-resolves env + CPU detection, a no-op override).
        ctx.set_kernel_tier(cfg.kernel_tier);
        Ok(Placer { ctx, site_to_pattern, cfg })
    }

    /// The reference context.
    pub fn ctx(&self) -> &ReferenceContext {
        &self.ctx
    }

    /// The active configuration.
    pub fn config(&self) -> &EpaConfig {
        &self.cfg
    }

    /// The memory plan this placer would run under for a given batch.
    pub fn memory_plan(&self, batch: &QueryBatch) -> Result<MemoryPlan, PlaceError> {
        memplan::plan(&self.ctx, &self.cfg, batch.len(), batch.n_sites())
    }

    /// The degradation ladder ([`memplan::effective_block_size`]) with
    /// each rung that fired tallied into `deg` and marked on the trace.
    fn plan_block(&self, slots: usize, deg: &DegradationCounters) -> Result<BlockPlan, PlaceError> {
        let plan = memplan::effective_block_size(&self.ctx, &self.cfg, slots)?;
        if plan.prefetch_disabled {
            deg.prefetch_disabled.fetch_add(1, Ordering::Relaxed);
            phylo_obs::trace::mark("degrade.prefetch_disabled", "degrade");
        }
        if plan.block_clamped {
            deg.block_clamped.fetch_add(1, Ordering::Relaxed);
            phylo_obs::trace::mark("degrade.block_clamped", "degrade");
        }
        Ok(plan)
    }

    /// Places every query of the batch; returns per-query results (in
    /// batch order) and the run report. Equivalent to [`Placer::place_run`]
    /// under inert [`RunControl`] (never cancelled, no journal).
    pub fn place(
        &self,
        batch: &QueryBatch,
    ) -> Result<(Vec<PlacementResult>, RunReport), PlaceError> {
        let outcome = self.place_run(batch, RunControl::default())?;
        debug_assert!(outcome.completed, "an inert token can never cancel the run");
        Ok((outcome.results, outcome.report))
    }

    /// Places the batch under run-lifecycle control: chunks replayed from
    /// a resumed journal are restored instead of recomputed, every fresh
    /// chunk is journaled durably before the run advances, and a cancelled
    /// token turns into a clean partial [`PlaceOutcome`] (never an error)
    /// at the next chunk boundary — mid-chunk work is abandoned, so the
    /// journal only ever holds complete chunks.
    ///
    /// Determinism contract: finalization (candidate sorting + LWR) is a
    /// pure function of the per-chunk scores, the journal round-trips
    /// floats as exact bit patterns, and chunk boundaries are pinned by
    /// the manifest — so crash → resume produces output byte-identical to
    /// the uninterrupted run.
    pub fn place_run(
        &self,
        batch: &QueryBatch,
        mut control: RunControl,
    ) -> Result<PlaceOutcome, PlaceError> {
        let clock = RunClock::start();
        // Frames recovered by `RunJournal::resume`: a contiguous,
        // CRC-validated prefix of the run's chunks.
        let replayed = control.journal.as_mut().map(|j| j.take_replayed()).unwrap_or_default();
        let warm = self.open_store(batch.len(), &control, replayed.len())?;
        let mut outcome =
            self.run_chunks(&warm, batch, &mut control, &replayed, self.cfg.threads)?;
        // The store lived for this run only, so the report covers the
        // open as well: its slot traffic, its lookup build, its tiers.
        let report = &mut outcome.report;
        report.slot_stats = warm.slot_stats();
        report.lookup_time = warm.lookup_time;
        report.scoring.sweep.merge(warm.lookup_sweep);
        if let Some(tiers) = &warm.tiers {
            report.tier_stats = Some(tiers.stats());
            // The spill file's index sits in RAM next to the plan's rows.
            report.peak_memory = report.peak_memory.max(warm.tracked().peak());
        }
        clock.seal(report, &self.ctx, &warm);
        Ok(outcome)
    }

    /// Builds the reusable warm state for service mode: the slot arena
    /// sized by the memory plan for a full chunk of queries (the
    /// per-request batches a service runs are at most one chunk's worth
    /// each) and the preplacement lookup table. One call amortizes over
    /// arbitrarily many [`Placer::place_warm`] runs.
    ///
    /// Without a memory cap the store holds every CLV, and `warm_up`
    /// computes them all: the lookup build does so anyway, and without
    /// the lookup one walk over every branch does. Runs against such a
    /// store then only read it, so they may overlap
    /// ([`WarmStore::runs_may_overlap`]).
    ///
    /// The CLV spill file is a batch-mode feature (it is scoped to one
    /// run); a config that asks for both is refused rather than
    /// silently ignored.
    pub fn warm_up(&self) -> Result<WarmStore, PlaceError> {
        if self.cfg.tiers.is_some() {
            return Err(PlaceError::BadConfig(
                "tiered CLV storage is not supported for warm (service-mode) stores".into(),
            ));
        }
        let warm = self.open_store(self.cfg.chunk_size, &RunControl::default(), 0)?;
        if warm.runs_may_overlap() && warm.lookup.is_none() {
            // Every batch is prepared and released with no units: the
            // prepares compute both orientations of every branch.
            let deg = DegradationCounters::default();
            let plan = self.plan_block(warm.store.n_slots(), &deg)?;
            let steps = warm.sweep.steps(|_| true);
            let walk = Walk { ctx: &self.ctx, store: &warm.store, steps: &steps, plan, deg: &deg };
            let mut stats = SweepStats::default();
            run_sweep(walk, "warm-up walk", &mut [()], &mut stats, |_| Vec::new(), |(), _| Ok(()))?;
        }
        Ok(warm)
    }

    /// Places one request's batch against a shared [`WarmStore`]: the
    /// chunk loop of [`Placer::place_run`] without the open and without
    /// a journal. Per-query results are bit-identical to a cold
    /// [`Placer::place_run`] of the same queries (results are
    /// independent of chunking and of what other requests the arena
    /// served before; the chunking/threading equivalence tests pin that
    /// contract). The report covers this request only.
    ///
    /// `cancel` is request-scoped: a deadline or client cancellation
    /// unwinds at the next cancellation point and yields a clean
    /// partial outcome (`completed == false`), exactly like batch mode.
    /// The run scores on `threads` threads, the caller included.
    ///
    /// Runs against an uncapped store ([`WarmStore::runs_may_overlap`])
    /// may overlap: they only read the store, so each is cancelled at
    /// its chunk boundaries, and the store's token is left alone. Runs
    /// against a capped store must be issued one at a time, because
    /// they compute CLVs and the cancel token the engine polls is
    /// store-wide: each run installs its own. While runs overlap, a
    /// report's slot traffic includes the other runs' hits.
    pub fn place_warm(
        &self,
        warm: &WarmStore,
        batch: &QueryBatch,
        cancel: &CancelToken,
        threads: usize,
    ) -> Result<PlaceOutcome, PlaceError> {
        let clock = RunClock::start();
        if !warm.runs_may_overlap() {
            warm.store.set_cancel_token(cancel);
        }
        let mut control = RunControl { cancel: cancel.clone(), ..Default::default() };
        let mut outcome = self.run_chunks(warm, batch, &mut control, &[], threads.max(1))?;
        clock.seal(&mut outcome.report, &self.ctx, warm);
        Ok(outcome)
    }

    /// Opens the reference-side state for runs of up to `n_queries`
    /// queries: memory plan → slot arena → cancel token → spill file → slot trace → lookup build.
    /// `replayed_chunks` is how many leading chunks a resumed journal
    /// already holds.
    fn open_store(
        &self,
        n_queries: usize,
        control: &RunControl,
        replayed_chunks: usize,
    ) -> Result<WarmStore, PlaceError> {
        let ctx = &self.ctx;
        let cfg = &self.cfg;
        let plan = memplan::plan(ctx, cfg, n_queries, self.site_to_pattern.len())?;
        let store = ManagedStore::with_slots(ctx, plan.slots, cfg.strategy)?;
        // Cancellation reaches every layer from here on: the engine
        // polls per Felsenstein op and the chunk loop at chunk
        // boundaries.
        store.set_cancel_token(&control.cancel);
        // CLV spill file: evicted slot payloads are written to it
        // instead of being dropped, and slot misses read it before
        // falling back to recomputation.
        let tiers = match &cfg.tiers {
            None => None,
            Some(tcfg) => {
                let tiers = phylo_amc::TieredStore::new(
                    tcfg,
                    ctx.tree().n_dir_edges(),
                    ctx.layout().clv_len(),
                    ctx.layout().patterns,
                    ctx.cost_table(),
                )
                .map_err(phylo_engine::EngineError::Amc)?;
                store.arena().set_tiers(Arc::clone(&tiers));
                Some(tiers)
            }
        };
        // Arm the slot-access trace before the lookup build below — the
        // build already drives slot traffic that the run report counts,
        // and the replay contract is "trace == everything the counters
        // saw".
        if let Some(trace) = &control.slot_trace {
            trace.set_meta(phylo_obs::slottrace::TraceMeta {
                n_clvs: ctx.tree().n_dir_edges() as u32,
                n_slots: store.n_slots() as u32,
                strategy: cfg.strategy.to_string(),
                bytes_per_slot: phylo_amc::SlotArena::bytes_per_slot(
                    ctx.layout().clv_len(),
                    ctx.layout().patterns,
                ) as u64,
                // Always embedded (not only for cost-aware runs) so a
                // trace captured under any policy can replay the
                // cost-aware ones too.
                costs: ctx.cost_table(),
            });
            store.set_slot_trace(Arc::clone(trace));
        }

        // A fully replayed run has nothing left to compute — skip the
        // expensive lookup build so resuming after a crash between the
        // final chunk and the output write is near-instant. Cancellation
        // before or during the build (a pre-armed token, a signal landing
        // this early) is a graceful empty run, not a failure: open with
        // no table — the chunk loop sees the cancelled token immediately
        // and emits the partial outcome.
        let n_chunks = n_queries.div_ceil(plan.chunk_size.max(1));
        let mut lookup_time = Duration::ZERO;
        let mut lookup_sweep = SweepStats::default();
        let lookup =
            if plan.use_lookup && replayed_chunks < n_chunks && !control.cancel.is_cancelled() {
                let t = Instant::now();
                let _span = phylo_obs::trace::span("preplacement.build", "phase");
                match LookupTable::build(ctx, &store, cfg) {
                    Ok(table) => {
                        lookup_time = t.elapsed();
                        lookup_sweep = table.build_stats();
                        Some(table)
                    }
                    Err(e) if e.is_cancellation() => None,
                    Err(e) => return Err(e),
                }
            } else {
                None
            };
        Ok(WarmStore {
            store,
            lookup,
            sweep: SweepSchedule::new(ctx.tree()),
            plan,
            lookup_time,
            lookup_sweep,
            tiers,
        })
    }

    /// The chunk loop every run goes through: restore what the journal
    /// replayed, compute the rest chunk by chunk (each journaled before
    /// the next starts), stop cleanly at a cancelled token, then
    /// finalize the results on `threads` threads. The report's slot
    /// traffic is the store's over this call.
    fn run_chunks(
        &self,
        warm: &WarmStore,
        batch: &QueryBatch,
        control: &mut RunControl,
        replayed: &[ChunkFrame],
        threads: usize,
    ) -> Result<PlaceOutcome, PlaceError> {
        let slot_base = warm.store.stats();
        let branches = self.ctx.tree().n_edges();
        let chunk_size = warm.plan.chunk_size.min(batch.len().max(1));
        let n_chunks = batch.len().div_ceil(chunk_size);
        let replayed_chunks = replayed.len().min(n_chunks);
        let mut report = RunReport {
            n_queries: batch.len(),
            scoring: ScoringStats { workers: threads, ..Default::default() },
            used_lookup: warm.plan.use_lookup,
            slots: warm.plan.slots,
            peak_memory: warm.plan.tracker.peak(),
            resumed_chunks: replayed_chunks,
            ..Default::default()
        };
        let mut results: Vec<PlacementResult> = batch
            .queries()
            .iter()
            .map(|q| PlacementResult { name: q.name.clone(), placements: Vec::new() })
            .collect();
        // One candidate selector per query of a chunk, reused chunk after
        // chunk: the prescores stream into them and are never stored.
        let k = candidate_count(branches, THOROUGH_FRACTION, THOROUGH_MIN);
        let mut selectors: Vec<TopCandidates> =
            (0..chunk_size).map(|_| TopCandidates::new(k)).collect();
        let mut completed = true;
        let mut chunks_done = 0usize;

        for (chunk_idx, chunk) in batch.chunks(chunk_size).enumerate() {
            let qoff = chunk_idx * chunk_size;
            if chunk_idx < replayed_chunks {
                restore_chunk(&replayed[chunk_idx], chunk, qoff, &mut results, &mut report)?;
                chunks_done = chunk_idx + 1;
                continue;
            }
            if control.cancel.is_cancelled() {
                completed = false;
                break;
            }
            match self.compute_chunk(
                warm,
                chunk,
                chunk_idx,
                qoff,
                &mut selectors[..chunk.len()],
                &mut results,
                &mut report,
            ) {
                Ok(stats) => {
                    if let Some(journal) = control.journal.as_mut() {
                        // Durable before advancing: once append returns,
                        // this chunk survives process death.
                        let _span = phylo_obs::trace::span("checkpoint", "phase");
                        let frame = frame_of(chunk_idx, stats, &results[qoff..qoff + chunk.len()]);
                        journal.append(&frame)?;
                    }
                    chunks_done = chunk_idx + 1;
                }
                // Cancellation surfacing through a worker/prefetch/slot
                // wait is a graceful break, not a failure: the chunk is
                // abandoned (not journaled, not counted) and the partial
                // prefix below is still valid.
                Err(e) if e.is_cancellation() => {
                    completed = false;
                    break;
                }
                Err(e) => return Err(e),
            }
            // Deterministic mid-run shutdown for the crash/resume test
            // matrix: cancels the token after chunk `chunk_idx` is
            // durable, exactly like a deadline firing at this boundary.
            if phylo_faults::fire("place::cancel_after_chunk") {
                control.cancel.cancel();
            }
        }

        let queries_done =
            if completed { batch.len() } else { (chunks_done * chunk_size).min(batch.len()) };
        if !completed {
            // Queries past the last completed chunk may hold partial
            // placements from the abandoned chunk; drop them so the
            // outcome is exactly the durable prefix.
            results.truncate(queries_done);
            phylo_obs::counter!("place.cancelled_runs").inc();
        }
        for r in &mut results {
            r.finalize();
        }
        report.slot_stats = warm.store.stats().delta(&slot_base);
        Ok(PlaceOutcome { results, report, completed, queries_done })
    }

    /// One chunk of the run: prescore, candidate selection, thorough
    /// scoring, on the report's `scoring.workers` threads. Returns the
    /// chunk's journal-frame stats.
    #[allow(clippy::too_many_arguments)]
    fn compute_chunk(
        &self,
        warm: &WarmStore,
        chunk: &[EncodedQuery],
        chunk_idx: usize,
        qoff: usize,
        selectors: &mut [TopCandidates],
        results: &mut [PlacementResult],
        report: &mut RunReport,
    ) -> Result<ChunkStats, PlaceError> {
        let ctx = &self.ctx;
        let branches = ctx.tree().n_edges();
        let WarmStore { store, lookup, sweep, .. } = warm;
        // Ladder counters are per chunk and merged into the report at
        // the end of each chunk, so a run that degrades on every chunk
        // reports every step — not just the final chunk's. They also
        // ride in the chunk's journal frame, which is how a resumed
        // run's report still covers the pre-crash chunks.
        let deg = DegradationCounters::default();
        let chunk_span = phylo_obs::trace::span(&format!("chunk {chunk_idx}"), "chunk");
        phylo_obs::counter!("place.chunks").inc();
        phylo_obs::gauge!("place.chunk.current").set(chunk_idx as i64);
        phylo_obs::trace::mark("chunk.heartbeat", "chunk");

        // ---- Phase 1: prescore every (query, branch) pair, selecting
        // each query's candidates as its scores arrive. ----
        let t = Instant::now();
        let phase_span = phylo_obs::trace::span("prescore", "phase");
        match lookup {
            Some(table) => {
                prescore_with_lookup(
                    ctx,
                    table,
                    &self.site_to_pattern,
                    chunk,
                    selectors,
                    &mut report.scoring,
                )?;
            }
            None => {
                self.prescore_swept(
                    ctx,
                    store,
                    sweep,
                    chunk,
                    selectors,
                    &deg,
                    &mut report.scoring,
                )?;
            }
        }
        drop(phase_span);
        let n_prescored = (chunk.len() * branches) as u64;
        report.n_prescored += n_prescored;
        report.prescore_time += t.elapsed();
        check_nan_prescores(chunk, selectors)?;
        let cand: Vec<Vec<EdgeId>> = selectors.iter_mut().map(TopCandidates::take).collect();

        // ---- Phase 2: thorough scoring, grouped by branch. ----
        let t = Instant::now();
        let phase_span = phylo_obs::trace::span("thorough", "phase");
        let grouped = group_by_branch(&cand, branches);
        let n_thorough = grouped.iter().map(|qs| qs.len() as u64).sum::<u64>();
        report.n_thorough += n_thorough;
        self.thorough_swept(
            ctx,
            store,
            sweep,
            chunk,
            &grouped,
            qoff,
            results,
            &deg,
            &mut report.scoring,
        )?;
        drop(phase_span);
        report.thorough_time += t.elapsed();
        let snap = deg.snapshot();
        report.degradation.merge(snap);
        drop(chunk_span);
        Ok(ChunkStats {
            prefetch_disabled: snap.prefetch_disabled,
            block_clamped: snap.block_clamped,
            flush_retries: snap.flush_retries,
            n_prescored,
            n_thorough,
        })
    }

    /// Prescoring without the lookup table: one sweep over every branch
    /// under the slot budget, a transient score table built per branch —
    /// the paper's expensive path. A unit is one branch: its table, then
    /// [`PrescoreRow::prescore`].
    #[allow(clippy::too_many_arguments)]
    fn prescore_swept(
        &self,
        ctx: &ReferenceContext,
        store: &ManagedStore,
        sweep: &SweepSchedule,
        chunk: &[EncodedQuery],
        selectors: &mut [TopCandidates],
        deg: &DegradationCounters,
        scoring: &mut ScoringStats,
    ) -> Result<(), PlaceError> {
        let plan = self.plan_block(store.n_slots(), deg)?;
        let s2p = &self.site_to_pattern;
        // One evaluator holding the pendant branch's matrices, shared;
        // every thread's buffers are allocated here, on the caller.
        let mut pendant_eval = QueryEvaluator::new(ctx);
        pendant_eval.set_pendant(ctx, ctx.starting_pendant());
        let mut scratch: Vec<PrescoreScratch> =
            (0..scoring.workers).map(|_| PrescoreScratch::new(ctx, chunk.len())).collect();
        let selectors = Mutex::new(selectors);
        let steps = sweep.steps(|_| true);
        let walk = Walk { ctx, store, steps: &steps, plan, deg };
        run_sweep(
            walk,
            "prescore worker",
            &mut scratch,
            &mut scoring.sweep,
            <[EdgeId]>::to_vec,
            |e, s| {
                // The branch's CLVs are pinned and complete, so reads need
                // no lock.
                let PrescoreScratch { scratch, table, row } = s;
                table.rebuild(ctx, scratch.midpoint_partials(ctx, store, e), &pendant_eval);
                row.prescore(ctx, s2p, table, e, chunk, &selectors);
                Ok(())
            },
        )?;
        Ok(())
    }

    /// Thorough scoring of the candidate (query, branch) pairs: the sweep
    /// pruned to the branches some query picked; `grouped[e]` lists the
    /// queries of branch `e`.
    #[allow(clippy::too_many_arguments)]
    fn thorough_swept(
        &self,
        ctx: &ReferenceContext,
        store: &ManagedStore,
        sweep: &SweepSchedule,
        chunk: &[EncodedQuery],
        grouped: &[Vec<usize>],
        qoff: usize,
        results: &mut [PlacementResult],
        deg: &DegradationCounters,
        scoring: &mut ScoringStats,
    ) -> Result<(), PlaceError> {
        let s2p = &self.site_to_pattern;
        let plan = self.plan_block(store.n_slots(), deg)?;
        let steps = sweep.steps(|e| !grouped[e.idx()].is_empty());
        // One scratch per thread for the whole chunk, allocated here.
        let mut scratches: Vec<ScoreScratch> =
            (0..scoring.workers).map(|_| ScoreScratch::new(ctx)).collect();
        let walk = Walk { ctx, store, steps: &steps, plan, deg };
        let swept = run_sweep(
            walk,
            "thorough scoring worker",
            &mut scratches,
            &mut scoring.sweep,
            |block| {
                block.iter().flat_map(|&e| grouped[e.idx()].iter().map(move |&q| (e, q))).collect()
            },
            |(e, q), scratch| {
                if phylo_faults::fire("place::worker_panic") {
                    panic!("injected thorough-worker panic");
                }
                let sp = score_thorough(ctx, store, e, s2p, &chunk[q].codes, scratch)?;
                if !sp.log_likelihood.is_finite() {
                    return Err(PlaceError::NonFiniteLikelihood {
                        query: chunk[q].name.clone(),
                        edge: e.0,
                    });
                }
                Ok((
                    q,
                    PlacementEntry {
                        edge: e,
                        log_likelihood: sp.log_likelihood,
                        like_weight_ratio: 0.0,
                        pendant_length: sp.pendant,
                        distal_length: sp.proximal_fraction * ctx.tree().edge_length(e),
                    },
                ))
            },
        );
        scratches.iter_mut().for_each(ScoreScratch::publish_searches);
        for (q, entry) in swept? {
            results[qoff + q].placements.push(entry);
        }
        Ok(())
    }
}

/// One thread's buffers for the swept prescore, all at their final size.
struct PrescoreScratch {
    scratch: ScoreScratch,
    table: BranchScoreTable,
    row: PrescoreRow,
}

impl PrescoreScratch {
    fn new(ctx: &ReferenceContext, queries: usize) -> Self {
        PrescoreScratch {
            scratch: ScoreScratch::for_tables(ctx),
            table: BranchScoreTable::sized(ctx),
            row: PrescoreRow::new(ctx, queries),
        }
    }
}

/// One thread's buffers for prescoring a chunk from a branch's table,
/// at their final size.
struct PrescoreRow {
    /// The logarithm of every table entry.
    log_row: Vec<f64>,
    /// One score per query of the chunk.
    scores: Vec<f64>,
}

impl PrescoreRow {
    fn new(ctx: &ReferenceContext, queries: usize) -> Self {
        let layout = ctx.layout();
        PrescoreRow {
            log_row: Vec::with_capacity(layout.patterns * (layout.states + 1)),
            scores: Vec::with_capacity(queries),
        }
    }

    /// The unit of both prescore paths: scores every query of `chunk` at
    /// branch `e` from its table, taking the logarithm of each table
    /// entry once, and hands the scores to the shared selectors under one
    /// lock. The selectors' total order makes the kept lists independent
    /// of the order the branches finish in.
    fn prescore(
        &mut self,
        ctx: &ReferenceContext,
        s2p: &[u32],
        table: &BranchScoreTable,
        e: EdgeId,
        chunk: &[EncodedQuery],
        selectors: &Mutex<&mut [TopCandidates]>,
    ) {
        let PrescoreRow { log_row, scores } = self;
        scores.clear();
        let codes = chunk.iter().map(|q| q.codes.as_slice());
        table.prescore_chunk(ctx, s2p, codes, log_row, |_, score| scores.push(score));
        let mut tops = selectors.lock().expect("no selector lock is held across a panic");
        for (top, &score) in tops.iter_mut().zip(scores.iter()) {
            top.push(e, score);
        }
    }
}

/// Restores one replayed journal frame into the results vector and the
/// report. The manifest already pinned the inputs and chunk geometry,
/// so a mismatch here means a corrupted-but-CRC-valid journal or a bug
/// — surfaced as a typed error, never merged silently.
fn restore_chunk(
    frame: &ChunkFrame,
    chunk: &[EncodedQuery],
    qoff: usize,
    results: &mut [PlacementResult],
    report: &mut RunReport,
) -> Result<(), PlaceError> {
    if frame.queries.len() != chunk.len() {
        return Err(phylo_journal::JournalError::FrameMismatch {
            chunk: frame.chunk_index,
            detail: format!(
                "frame holds {} queries, this run's chunk holds {}",
                frame.queries.len(),
                chunk.len()
            ),
        }
        .into());
    }
    for (local, q) in frame.queries.iter().enumerate() {
        if q.name != chunk[local].name {
            return Err(phylo_journal::JournalError::FrameMismatch {
                chunk: frame.chunk_index,
                detail: format!(
                    "query {} is {:?} in the frame but {:?} in this run",
                    qoff + local,
                    q.name,
                    chunk[local].name
                ),
            }
            .into());
        }
        // LWR is left 0.0: finalization recomputes it from the exact
        // log-likelihood bits, identically to the uninterrupted run.
        results[qoff + local].placements = q
            .placements
            .iter()
            .map(|p| PlacementEntry {
                edge: EdgeId(p.edge),
                log_likelihood: p.log_likelihood,
                like_weight_ratio: 0.0,
                pendant_length: p.pendant_length,
                distal_length: p.distal_length,
            })
            .collect();
    }
    report.n_prescored += frame.stats.n_prescored;
    report.n_thorough += frame.stats.n_thorough;
    report.degradation.merge(DegradationStats {
        prefetch_disabled: frame.stats.prefetch_disabled,
        block_clamped: frame.stats.block_clamped,
        flush_retries: frame.stats.flush_retries,
    });
    phylo_obs::counter!("journal.chunks_restored").inc();
    Ok(())
}

/// Serializes one completed chunk's results into a journal frame.
fn frame_of(chunk_idx: usize, stats: ChunkStats, slice: &[PlacementResult]) -> ChunkFrame {
    ChunkFrame {
        chunk_index: chunk_idx as u32,
        stats,
        queries: slice
            .iter()
            .map(|r| QueryRecord {
                name: r.name.clone(),
                placements: r
                    .placements
                    .iter()
                    .map(|p| PlacementRecord {
                        edge: p.edge.0,
                        log_likelihood: p.log_likelihood,
                        pendant_length: p.pendant_length,
                        distal_length: p.distal_length,
                    })
                    .collect(),
            })
            .collect(),
    }
}

/// Wall clock and live-probe baseline of one run, taken before any of
/// its work. Live probes are process-global and monotonic; the per-run
/// view in [`RunReport::metrics`] is the delta against this baseline.
struct RunClock {
    started: Instant,
    obs_base: phylo_obs::Baseline,
}

impl RunClock {
    fn start() -> Self {
        RunClock { started: Instant::now(), obs_base: phylo_obs::Baseline::now() }
    }

    /// Stamps the finished report with the run's wall time and metrics.
    fn seal(self, report: &mut RunReport, ctx: &ReferenceContext, warm: &WarmStore) {
        report.total_time = self.started.elapsed();
        report.metrics = run_metrics(report, &self.obs_base, ctx, warm);
    }
}

/// Builds the per-run metrics snapshot: the delta of the live registry
/// against the run's baseline, with the slot-traffic and degradation
/// counters injected from their authoritative per-run sources
/// ([`RunReport::slot_stats`] and [`RunReport::degradation`]). The
/// registry is per process and the report per run: the injected
/// counters stay exact when concurrent runs share the registry, while
/// the live probes' deltas then include the other runs' traffic. So do
/// the scoring threads, the sweeps' board tallies and the lookup
/// prescore's fan-outs ([`ScoringStats`]). The
/// selected kernel tier is exported as exactly one `kernel.tier.<name>`
/// gauge (the invariant the observability suite checks), alongside the
/// site-parallel pool counters. Where the memory went is exported as
/// gauges too: the plan's tracked bytes per category
/// (`mem.tracked.<category>`, their sum `mem.tracked.total` and the peak
/// `mem.tracked.peak`) and the reference's static data per table
/// (`mem.static.<table>`).
fn run_metrics(
    report: &RunReport,
    base: &phylo_obs::Baseline,
    ctx: &ReferenceContext,
    warm: &WarmStore,
) -> phylo_obs::Snapshot {
    let mut m = base.elapsed();
    m.set_gauge(&format!("kernel.tier.{}", ctx.layout().tier().name()), 1);
    let tracked = warm.tracked();
    for cat in phylo_amc::MemCategory::all() {
        let name = cat.to_string().replace('-', "_");
        m.set_gauge(&format!("mem.tracked.{name}"), tracked.current(cat) as i64);
    }
    m.set_gauge("mem.tracked.total", tracked.total() as i64);
    m.set_gauge("mem.tracked.peak", tracked.peak() as i64);
    for (table, bytes) in ctx.static_split() {
        m.set_gauge(&format!("mem.static.{table}"), bytes as i64);
    }
    let s = &report.slot_stats;
    m.set_counter("slot.hits", s.hits);
    m.set_counter("slot.misses", s.misses);
    m.set_counter("slot.evictions", s.evictions);
    m.set_counter("slot.installs", s.installs);
    m.set_counter("slot.acquires", s.acquires);
    let sc = &report.scoring;
    m.set_gauge("place.scoring.workers", sc.workers as i64);
    m.set_counter("place.fanout.lookup_prescore", sc.lookup_prescore_fanouts);
    m.set_counter("place.sweep.prepare_ns", sc.sweep.prepare_ns);
    m.set_counter("place.sweep.score_ns", sc.sweep.score_ns);
    m.set_counter("place.sweep.idle_ns", sc.sweep.idle_ns);
    m.set_counter("place.sweep.threads_started", sc.sweep.threads_started);
    let d = &report.degradation;
    m.set_counter("place.degrade.prefetch_disabled", d.prefetch_disabled);
    m.set_counter("place.degrade.block_clamped", d.block_clamped);
    m.set_counter("place.degrade.flush_retries", d.flush_retries);
    if let Some(t) = &report.tier_stats {
        m.set_counter("tier.demotions", t.demotions);
        m.set_counter("tier.writeback_lost", t.writeback_lost);
        m.set_counter("tier.drops_cost", t.drops_cost);
        m.set_counter("tier.drops_budget", t.drops_budget);
        m.set_counter("tier.reloads", t.reloads);
        m.set_counter("tier.reload_misses", t.reload_misses);
        m.set_counter("tier.corrupt", t.corrupt);
        m.set_gauge("tier.disk.bytes", t.bytes as i64);
        m.set_gauge("tier.disk.entries", t.entries as i64);
    }
    m
}

/// NaN never ranks in candidate selection (every comparison is false),
/// so a kernel numeric failure in the prescore phase would otherwise
/// silently drop branches from consideration. Names the lowest query
/// that saw one, and its lowest such branch.
fn check_nan_prescores(
    chunk: &[EncodedQuery],
    selectors: &[TopCandidates],
) -> Result<(), PlaceError> {
    match selectors.iter().zip(chunk).find_map(|(top, q)| Some((q, top.nan_edge()?))) {
        Some((q, edge)) => {
            Err(PlaceError::NonFiniteLikelihood { query: q.name.clone(), edge: edge.0 })
        }
        None => Ok(()),
    }
}

/// Phase-1 prescoring against the lookup table, on the work board with
/// no walk (one fan-out per chunk): a unit is one branch,
/// [`PrescoreRow::prescore`] from its table row.
fn prescore_with_lookup(
    ctx: &ReferenceContext,
    table: &LookupTable,
    s2p: &[u32],
    chunk: &[EncodedQuery],
    selectors: &mut [TopCandidates],
    scoring: &mut ScoringStats,
) -> Result<(), PlaceError> {
    let mut rows: Vec<PrescoreRow> =
        (0..scoring.workers).map(|_| PrescoreRow::new(ctx, chunk.len())).collect();
    let selectors = Mutex::new(selectors);
    let branches: Vec<EdgeId> = ctx.tree().all_edges().collect();
    let mut board = SweepStats::default();
    fan_out("prescore worker", branches, &mut rows, &mut board, |e, row| {
        row.prescore(ctx, s2p, table.table(e), e, chunk, &selectors);
        Ok(())
    })?;
    scoring.lookup_prescore_fanouts += (board.threads_started > 0) as u64;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PreplacementMode;
    use phylo_models::{dna, DiscreteGamma, SubstModel};
    use phylo_seq::alphabet::AlphabetKind;
    use phylo_seq::{compress, Msa, Sequence};
    use phylo_tree::{generate, NodeId};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::sync::atomic::AtomicUsize;

    fn setup(
        n: usize,
        sites: usize,
        n_queries: usize,
        seed: u64,
    ) -> (ReferenceContext, Vec<u32>, QueryBatch) {
        let mut rng = StdRng::seed_from_u64(seed);
        let tree = generate::yule(n, 0.1, &mut rng).unwrap();
        let rows: Vec<Sequence> = (0..n)
            .map(|i| {
                let text: String = (0..sites)
                    .map(|_| "ACGT".as_bytes()[rng.gen_range(0..4usize)] as char)
                    .collect();
                Sequence::from_text(tree.taxon(NodeId(i as u32)), AlphabetKind::Dna, &text).unwrap()
            })
            .collect();
        let msa = Msa::new(rows).unwrap();
        let patterns = compress(&msa).unwrap();
        let s2p = patterns.site_to_pattern().to_vec();
        // Queries: mutated copies of random reference rows.
        let queries: Vec<Sequence> = (0..n_queries)
            .map(|i| {
                let src = msa.row(rng.gen_range(0..n)).codes().to_vec();
                let mutated: Vec<u8> = src
                    .iter()
                    .map(|&c| if rng.gen_bool(0.05) { rng.gen_range(0..4) } else { c })
                    .collect();
                Sequence::from_codes(format!("q{i}"), AlphabetKind::Dna, mutated).unwrap()
            })
            .collect();
        let batch = QueryBatch::new(&queries, sites).unwrap();
        let model = SubstModel::new(&dna::jc69(), DiscreteGamma::none()).unwrap();
        let ctx =
            ReferenceContext::new(tree, model, AlphabetKind::Dna.alphabet(), &patterns).unwrap();
        (ctx, s2p, batch)
    }

    fn best_edges(results: &[PlacementResult]) -> Vec<u32> {
        results.iter().map(|r| r.best().unwrap().edge.0).collect()
    }

    #[test]
    fn default_run_places_everything() {
        let (ctx, s2p, batch) = setup(12, 60, 8, 1);
        let placer = Placer::new(ctx, s2p, EpaConfig::default()).unwrap();
        let (results, report) = placer.place(&batch).unwrap();
        assert_eq!(results.len(), 8);
        for r in &results {
            assert!(!r.placements.is_empty());
            let lwr: f64 = r.placements.iter().map(|p| p.like_weight_ratio).sum();
            assert!((lwr - 1.0).abs() < 1e-9);
        }
        assert!(report.used_lookup);
        assert!(report.n_prescored >= (8 * 21) as u64);
        assert!(report.total_time.as_nanos() > 0);
    }

    #[test]
    fn amc_and_full_agree_on_best_placements() {
        let (ctx, s2p, batch) = setup(16, 80, 10, 2);
        let full = Placer::new(ctx, s2p.clone(), EpaConfig::default()).unwrap();
        let (r_full, rep_full) = full.place(&batch).unwrap();

        let (ctx2, _, _) = setup(16, 80, 10, 2);
        let tight_cfg = EpaConfig {
            max_memory: Some(rep_full.peak_memory), // plenty: same layout
            ..Default::default()
        };
        let tight = Placer::new(ctx2, s2p, tight_cfg).unwrap();
        let (r_tight, _) = tight.place(&batch).unwrap();
        assert_eq!(best_edges(&r_full), best_edges(&r_tight));
        for (a, b) in r_full.iter().zip(&r_tight) {
            assert!(
                (a.best().unwrap().log_likelihood - b.best().unwrap().log_likelihood).abs() < 1e-9
            );
        }
    }

    #[test]
    fn no_lookup_path_matches_lookup_path() {
        let (ctx, s2p, batch) = setup(12, 50, 6, 3);
        let with = Placer::new(ctx, s2p.clone(), EpaConfig::default()).unwrap();
        let (r_with, rep_with) = with.place(&batch).unwrap();
        assert!(rep_with.used_lookup);

        let (ctx2, _, _) = setup(12, 50, 6, 3);
        let cfg = EpaConfig { preplacement: PreplacementMode::Off, ..Default::default() };
        let without = Placer::new(ctx2, s2p, cfg).unwrap();
        let (r_without, rep_without) = without.place(&batch).unwrap();
        assert!(!rep_without.used_lookup);
        assert_eq!(best_edges(&r_with), best_edges(&r_without));
    }

    #[test]
    fn parallel_matches_serial() {
        let (ctx, s2p, batch) = setup(14, 60, 9, 4);
        let serial =
            Placer::new(ctx, s2p.clone(), EpaConfig { threads: 1, ..Default::default() }).unwrap();
        let (r1, _) = serial.place(&batch).unwrap();
        let (ctx2, _, _) = setup(14, 60, 9, 4);
        let par = Placer::new(ctx2, s2p, EpaConfig { threads: 4, ..Default::default() }).unwrap();
        let (r2, _) = par.place(&batch).unwrap();
        assert_eq!(best_edges(&r1), best_edges(&r2));
        for (a, b) in r1.iter().zip(&r2) {
            assert_eq!(a.placements.len(), b.placements.len());
            for (x, y) in a.placements.iter().zip(&b.placements) {
                assert_eq!(x.edge, y.edge);
                assert_eq!(x.log_likelihood.to_bits(), y.log_likelihood.to_bits());
            }
        }
    }

    #[test]
    fn async_prefetch_matches_sync() {
        let (ctx, s2p, batch) = setup(14, 50, 6, 5);
        let cfg_sync = EpaConfig {
            preplacement: PreplacementMode::Off,
            async_prefetch: false,
            block_size: 4,
            ..Default::default()
        };
        let sync = Placer::new(ctx, s2p.clone(), cfg_sync).unwrap();
        let (r1, _) = sync.place(&batch).unwrap();
        let (ctx2, _, _) = setup(14, 50, 6, 5);
        let cfg_async = EpaConfig {
            preplacement: PreplacementMode::Off,
            async_prefetch: true,
            block_size: 4,
            threads: 2,
            ..Default::default()
        };
        let asy = Placer::new(ctx2, s2p, cfg_async).unwrap();
        let (r2, _) = asy.place(&batch).unwrap();
        assert_eq!(best_edges(&r1), best_edges(&r2));
    }

    #[test]
    fn prefetched_sweeps_repeat_their_slot_traffic_exactly() {
        // Blocks are prepared while others are scored, on whichever
        // thread is free; the board's prepare/release order must keep
        // every plan's view of the pins independent of the threads'
        // number and timing, or recompute counts would drift.
        let mut seen: Option<phylo_amc::SlotStats> = None;
        for threads in [1, 2, 8, 1, 2, 8] {
            let (ctx, s2p, batch) = setup(40, 30, 4, 15);
            let probe = EpaConfig {
                preplacement: PreplacementMode::Off,
                async_prefetch: true,
                chunk_size: 2,
                threads,
                ..Default::default()
            };
            let floor = memplan::floor_budget(&ctx, &probe, batch.len(), batch.n_sites());
            let cfg = EpaConfig { max_memory: Some(floor), ..probe };
            let (_, report) = Placer::new(ctx, s2p, cfg).unwrap().place(&batch).unwrap();
            assert!(report.slot_stats.evictions > 0 && report.slot_stats.hits > 0);
            assert_eq!(*seen.get_or_insert(report.slot_stats), report.slot_stats, "{threads}");
        }
    }

    /// Walks `steps` with one unit per branch and nothing to score.
    fn walk_only(
        ctx: &ReferenceContext,
        store: &ManagedStore,
        steps: &[phylo_tree::traversal::SweepStep],
        plan: BlockPlan,
        deg: &DegradationCounters,
    ) {
        let walk = Walk { ctx, store, steps, plan, deg };
        let mut stats = SweepStats::default();
        run_sweep(walk, "walk", &mut [()], &mut stats, <[EdgeId]>::to_vec, |_, _| Ok(())).unwrap();
    }

    /// The rule that decides whether a pruned walk builds the root path
    /// to its branches (`Walker::spine_wanted`) has no slot-count
    /// constant in it, so there is no slot count at which it flips.
    #[test]
    fn pruned_walks_never_pay_for_more_slots() {
        let (ctx, _, _) = setup(256, 8, 1, 16);
        let schedule = SweepSchedule::new(ctx.tree());
        let plan = BlockPlan {
            block_size: 1,
            async_prefetch: false,
            prefetch_disabled: false,
            block_clamped: false,
        };
        // Recomputes of one pruned walk over a store a full sweep warmed.
        let misses = |slots: usize, stride: u32| {
            let store =
                ManagedStore::with_slots(&ctx, slots, phylo_amc::StrategyKind::CostBased).unwrap();
            let deg = DegradationCounters::default();
            walk_only(&ctx, &store, &schedule.steps(|_| true), plan, &deg);
            let warm = store.stats();
            let pruned = schedule.steps(|e| e.0 % stride == 3);
            walk_only(&ctx, &store, &pruned, plan, &deg);
            assert_eq!(deg.snapshot().flush_retries, 0);
            assert_eq!(store.arena().manager().n_pinned(), 0, "every hold is released");
            store.stats().delta(&warm).misses
        };
        let floor = ctx.min_slots() + memplan::pin_headroom(&ctx);
        let full = ctx.max_slots();
        assert_eq!((floor, full), (14, 762));
        // What the same walks cost when the spine was built up to a fixed
        // `2 · min_slots` (= 20 here) and never beyond, under pure cost
        // eviction: one slot more meant 3.7× the work.
        let before = [
            (5u32, [1700, 1699, 6249, 6244, 4718, 2537]),
            (23, [1155, 1155, 2435, 2435, 2158, 1388]),
        ];
        for (stride, before) in before {
            let ladder: Vec<u64> = [floor, 20, 21, 30, full / 4, full / 2]
                .into_iter()
                .map(|slots| misses(slots, stride))
                .collect();
            for (rung, (&now, &then)) in ladder.iter().zip(&before).enumerate() {
                assert!(now <= then, "stride {stride} rung {rung}: {ladder:?} vs {before:?}");
            }
            for pair in ladder.windows(2) {
                assert!(pair[1] * 100 <= pair[0] * 105, "stride {stride}: {ladder:?}");
            }
        }
    }

    #[test]
    fn a_failed_sweep_leaves_no_announcement_and_no_pins_behind() {
        let (ctx, _, _) = setup(40, 8, 1, 17);
        let steps = SweepSchedule::new(ctx.tree()).steps(|_| true);
        let floor = ctx.min_slots() + memplan::pin_headroom(&ctx);
        let costs = ctx.cost_table();
        // The third unit fails, or cancels the run so that a later
        // prepare fails.
        for (async_prefetch, threads, in_prepare) in [false, true]
            .into_iter()
            .flat_map(|a| [1, 2, 8].map(|t| (a, t)))
            .flat_map(|(a, t)| [false, true].map(move |p| (a, t, p)))
        {
            let label = format!("prefetch {async_prefetch}, {threads} threads, {in_prepare}");
            let store =
                ManagedStore::with_slots(&ctx, floor, phylo_amc::StrategyKind::CostBased).unwrap();
            let cancel = CancelToken::new();
            store.set_cancel_token(&cancel);
            let recorder = Arc::new(phylo_obs::slottrace::SlotTrace::new());
            store.set_slot_trace(Arc::clone(&recorder));
            let plan = BlockPlan {
                block_size: 1,
                async_prefetch,
                prefetch_disabled: false,
                block_clamped: false,
            };
            let deg = DegradationCounters::default();
            let walk = Walk { ctx: &ctx, store: &store, steps: &steps, plan, deg: &deg };
            let units = AtomicUsize::new(0);
            let mut scratch = vec![(); threads];
            let mut stats = SweepStats::default();
            let failed =
                run_sweep(walk, "test", &mut scratch, &mut stats, <[EdgeId]>::to_vec, |_, _| {
                    if units.fetch_add(1, Ordering::Relaxed) == 2 {
                        if in_prepare {
                            cancel.cancel();
                        } else {
                            return Err(PlaceError::BadConfig("scorer gave up".into()));
                        }
                    }
                    Ok(())
                });
            match failed {
                Err(e) if in_prepare => assert!(e.is_cancellation(), "{label}: {e:?}"),
                Err(PlaceError::BadConfig(_)) => {}
                other => panic!("{label}: {other:?}"),
            }
            store.set_cancel_token(&CancelToken::new());
            let mgr = store.arena().manager();
            assert_eq!(mgr.n_pinned(), 0, "{label}");
            // The policy heard about the walk, and then that it was over.
            use phylo_obs::slottrace::{SlotEvent, NO_TABLE};
            let told: Vec<SlotEvent> = recorder
                .snapshot()
                .events
                .into_iter()
                .filter(|e| matches!(e, SlotEvent::Schedule { .. }))
                .collect();
            assert_eq!(
                told,
                [SlotEvent::Schedule { table: 0 }, SlotEvent::Schedule { table: NO_TABLE }],
                "{label}"
            );
            // So a hand-driven request evicts in cost order again, not by
            // what the dead walk would have wanted next. (A cancelled
            // prepare drops the targets of its unrun ops: no full store.)
            if in_prepare {
                continue;
            }
            let resident = mgr.resident();
            assert_eq!(resident.len(), floor, "{label}");
            let cheapest = resident
                .iter()
                .map(|&(clv, _)| clv)
                .min_by(|a, b| costs[a.idx()].total_cmp(&costs[b.idx()]).then(a.cmp(b)))
                .unwrap();
            let absent = (0..ctx.tree().n_dir_edges() as u32)
                .map(phylo_amc::ClvKey)
                .find(|&k| mgr.lookup(k).is_none())
                .unwrap();
            match mgr.acquire(absent).unwrap() {
                phylo_amc::Acquire::Evicted { victim, .. } => assert_eq!(victim, cheapest),
                other => panic!("{label}: expected an eviction, got {other:?}"),
            }
        }
    }

    #[test]
    fn small_chunks_match_large_chunks() {
        let (ctx, s2p, batch) = setup(12, 40, 10, 6);
        let big = Placer::new(ctx, s2p.clone(), EpaConfig::default()).unwrap();
        let (r1, _) = big.place(&batch).unwrap();
        let (ctx2, _, _) = setup(12, 40, 10, 6);
        let small =
            Placer::new(ctx2, s2p, EpaConfig { chunk_size: 3, ..Default::default() }).unwrap();
        let (r2, _) = small.place(&batch).unwrap();
        assert_eq!(best_edges(&r1), best_edges(&r2));
    }

    #[test]
    fn tight_memory_recomputes_more() {
        let (ctx, s2p, batch) = setup(24, 60, 6, 7);
        // Baseline: unlimited.
        let off = Placer::new(ctx, s2p.clone(), EpaConfig::default()).unwrap();
        let (_, rep_off) = off.place(&batch).unwrap();
        // Tight: minimum feasible slots (floor budget), no lookup.
        let (ctx2, _, _) = setup(24, 60, 6, 7);
        let slot_bytes =
            phylo_amc::SlotArena::bytes_per_slot(ctx2.layout().clv_len(), ctx2.layout().patterns);
        let probe = EpaConfig {
            preplacement: PreplacementMode::Off,
            chunk_size: 2,
            block_size: 8,
            async_prefetch: false,
            ..Default::default()
        };
        // Per query of the chunk: its 60 sites and two kept candidates
        // (45 branches, so k = THOROUGH_MIN).
        assert_eq!(memplan::chunk_bytes(&ctx2, 2, batch.n_sites()), 2 * (60 + 2 * 16));
        let floor = ctx2.approx_bytes()
            + memplan::chunk_bytes(&ctx2, 2, batch.n_sites())
            + (ctx2.min_slots() + 4) * slot_bytes;
        let cfg = EpaConfig { max_memory: Some(floor), ..probe };
        let tight = Placer::new(ctx2, s2p, cfg).unwrap();
        let (_, rep_tight) = tight.place(&batch).unwrap();
        assert!(
            rep_tight.slot_stats.misses > rep_off.slot_stats.misses,
            "no-lookup chunked runs must recompute more CLVs: {:?} vs {:?}",
            rep_tight.slot_stats,
            rep_off.slot_stats
        );
    }

    #[test]
    fn nan_prescores_name_the_lowest_query_then_its_lowest_edge() {
        let chunk: Vec<EncodedQuery> =
            (0..4).map(|i| EncodedQuery { name: format!("q{i}"), codes: Vec::new() }).collect();
        let mut selectors: Vec<TopCandidates> = (0..4).map(|_| TopCandidates::new(2)).collect();
        // Query 0 is clean; queries 2 and 1 (in that order) see NaNs on
        // several branches, out of id order, between finite scores.
        for e in 0..9 {
            selectors[0].push(EdgeId(e), -(e as f64));
        }
        for (q, edges) in [(2, [6, 1, 4]), (1, [8, 3, 5])] {
            for e in edges {
                selectors[q].push(EdgeId(e + 1), -1.0);
                selectors[q].push(EdgeId(e), f64::NAN);
            }
        }
        match check_nan_prescores(&chunk, &selectors) {
            Err(PlaceError::NonFiniteLikelihood { query, edge }) => {
                assert_eq!((query.as_str(), edge), ("q1", 3));
            }
            other => panic!("expected NonFiniteLikelihood, got {other:?}"),
        }
        // A NaN never enters a candidate list, and taking the lists
        // clears the record for the next chunk.
        assert_eq!(selectors[1].take(), [EdgeId(4), EdgeId(6)]);
        assert_eq!(selectors[2].take(), [EdgeId(2), EdgeId(5)]);
        assert!(check_nan_prescores(&chunk, &selectors).is_ok());
    }

    #[test]
    fn block_plan_walks_the_degradation_ladder() {
        let (ctx, s2p, _) = setup(12, 40, 1, 9);
        let floor = ctx.min_slots();
        let sync_cfg = EpaConfig { async_prefetch: false, ..Default::default() };
        let placer = Placer::new(ctx, s2p.clone(), sync_cfg).unwrap();
        let deg = DegradationCounters::default();
        // Bottom rung: a sync block pins 2 slots; one spare slot cannot
        // carry even a one-branch block and must be rejected, not silently
        // deadlocked at prepare time.
        assert!(matches!(
            placer.plan_block(floor + 1, &deg),
            Err(PlaceError::SlotHeadroomTooSmall { needed: 2, .. })
        ));
        let plan = placer.plan_block(floor + 2, &deg).unwrap();
        assert_eq!(plan.block_size, 1);
        assert!(!plan.async_prefetch);
        assert!(plan.block_clamped && !plan.prefetch_disabled);
        assert_eq!(deg.snapshot().block_clamped, 1);

        // Async prefetch keeps two blocks pinned (4 slots per branch);
        // with less spare than that the ladder falls back to synchronous
        // preparation instead of erroring out.
        let (ctx2, _, _) = setup(12, 40, 1, 9);
        let async_cfg = EpaConfig { async_prefetch: true, ..Default::default() };
        let async_placer = Placer::new(ctx2, s2p, async_cfg).unwrap();
        let deg = DegradationCounters::default();
        let plan = async_placer.plan_block(floor + 3, &deg).unwrap();
        assert_eq!(plan.block_size, 1);
        assert!(!plan.async_prefetch && plan.prefetch_disabled);
        assert_eq!(deg.snapshot().prefetch_disabled, 1);
        let plan = async_placer.plan_block(floor + 4, &deg).unwrap();
        assert_eq!(plan.block_size, 1);
        assert!(plan.async_prefetch && !plan.prefetch_disabled);
        // Only one spare slot is fatal even after dropping prefetch.
        assert!(matches!(
            async_placer.plan_block(floor + 1, &deg),
            Err(PlaceError::SlotHeadroomTooSmall { needed: 2, .. })
        ));
    }

    #[test]
    fn identical_queries_place_at_their_taxon() {
        let (ctx, s2p, _) = setup(10, 100, 1, 8);
        // Build queries identical to the first three taxa.
        let queries: Vec<Sequence> = (0..3)
            .map(|i| {
                let mut per_pattern = Vec::new();
                ctx.tip_codes_into(NodeId(i as u32), &mut per_pattern);
                let codes: Vec<u8> = s2p.iter().map(|&p| per_pattern[p as usize]).collect();
                Sequence::from_codes(format!("taxon-copy-{i}"), AlphabetKind::Dna, codes).unwrap()
            })
            .collect();
        let batch = QueryBatch::new(&queries, 100).unwrap();
        let pendant_edges: Vec<u32> =
            (0..3).map(|i| ctx.tree().neighbors(NodeId(i as u32))[0].1 .0).collect();
        let placer = Placer::new(ctx, s2p, EpaConfig::default()).unwrap();
        let (results, _) = placer.place(&batch).unwrap();
        for (r, expect) in results.iter().zip(pendant_edges) {
            assert_eq!(r.best().unwrap().edge.0, expect, "query {}", r.name);
        }
    }

    /// Bit-exact equality of full placement lists — the service-mode
    /// byte-identity contract at the results layer.
    fn assert_bit_identical(a: &[PlacementResult], b: &[PlacementResult]) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.placements.len(), y.placements.len());
            for (p, q) in x.placements.iter().zip(&y.placements) {
                assert_eq!(p.edge, q.edge);
                assert_eq!(p.log_likelihood.to_bits(), q.log_likelihood.to_bits());
                assert_eq!(p.like_weight_ratio.to_bits(), q.like_weight_ratio.to_bits());
                assert_eq!(p.pendant_length.to_bits(), q.pendant_length.to_bits());
                assert_eq!(p.distal_length.to_bits(), q.distal_length.to_bits());
            }
        }
    }

    #[test]
    fn warm_runs_match_cold_runs_bit_exactly_and_reuse_the_arena() {
        let (ctx, s2p, batch) = setup(14, 60, 9, 11);
        let placer = Placer::new(ctx, s2p, EpaConfig::default()).unwrap();
        let (cold, _) = placer.place(&batch).unwrap();
        let warm = placer.warm_up().unwrap();
        assert!(warm.use_lookup());
        let token = CancelToken::new();
        // Two consecutive runs over the same store: both must match the
        // cold run bit-exactly — the second proves that residue from
        // the first (resident CLVs, strategy state) cannot change
        // results, only hit rates.
        let one = placer.place_warm(&warm, &batch, &token, placer.config().threads).unwrap();
        assert!(one.completed);
        assert_bit_identical(&cold, &one.results);
        let base = warm.slot_stats();
        let two = placer.place_warm(&warm, &batch, &token, placer.config().threads).unwrap();
        assert_bit_identical(&cold, &two.results);
        let delta = warm.slot_stats().delta(&base);
        assert_eq!(two.report.slot_stats, delta, "report must cover only its own run");
        assert!(
            delta.misses < base.misses,
            "a warm rerun must recompute fewer CLVs than the first run ({} vs {})",
            delta.misses,
            base.misses,
        );
    }

    #[test]
    fn warm_run_subsets_match_their_own_cold_runs() {
        // The daemon serves per-request subsets against one shared
        // store; each subset's results must equal a dedicated cold run
        // of just that subset.
        let (ctx, s2p, batch) = setup(14, 60, 8, 12);
        let placer = Placer::new(ctx, s2p, EpaConfig::default()).unwrap();
        let warm = placer.warm_up().unwrap();
        let token = CancelToken::new();
        let queries = batch.queries();
        for range in [0..3usize, 3..8usize] {
            let subset: Vec<Sequence> = queries[range.clone()]
                .iter()
                .map(|q| {
                    Sequence::from_codes(q.name.clone(), AlphabetKind::Dna, q.codes.clone())
                        .unwrap()
                })
                .collect();
            let sub_batch = QueryBatch::new(&subset, 60).unwrap();
            let cold = self::setup(14, 60, 8, 12);
            let cold_placer = Placer::new(cold.0, cold.1, EpaConfig::default()).unwrap();
            let (cold_results, _) = cold_placer.place(&sub_batch).unwrap();
            let out =
                placer.place_warm(&warm, &sub_batch, &token, placer.config().threads).unwrap();
            assert_bit_identical(&cold_results, &out.results);
        }
    }

    #[test]
    fn cancelled_warm_run_is_clean_and_store_stays_usable() {
        let (ctx, s2p, batch) = setup(12, 50, 6, 13);
        let placer =
            Placer::new(ctx, s2p, EpaConfig { chunk_size: 2, ..Default::default() }).unwrap();
        let warm = placer.warm_up().unwrap();
        let armed = CancelToken::new();
        armed.cancel();
        let out = placer.place_warm(&warm, &batch, &armed, placer.config().threads).unwrap();
        assert!(!out.completed);
        assert_eq!(out.queries_done, 0);
        assert!(out.results.is_empty());
        // The pre-armed token must not poison the store for the next
        // request: a fresh token serves normally.
        let fresh = CancelToken::new();
        let ok = placer.place_warm(&warm, &batch, &fresh, placer.config().threads).unwrap();
        assert!(ok.completed);
        assert_eq!(ok.results.len(), 6);
    }

    #[test]
    fn overlapping_warm_runs_on_an_uncapped_store_match_solo_runs() {
        for preplacement in [PreplacementMode::Auto, PreplacementMode::Off] {
            let (ctx, s2p, batch) = setup(14, 60, 8, 15);
            let cfg = EpaConfig { preplacement, chunk_size: 3, ..Default::default() };
            let placer = Placer::new(ctx, s2p, cfg).unwrap();
            let warm = placer.warm_up().unwrap();
            assert!(warm.runs_may_overlap());
            assert_eq!(warm.use_lookup(), preplacement == PreplacementMode::Auto);
            let base = warm.slot_stats();
            let solo = placer.place_warm(&warm, &batch, &CancelToken::new(), 1).unwrap();
            assert!(solo.completed);
            // Two live runs and a pre-armed one, released at once.
            let armed = CancelToken::new();
            armed.cancel();
            let tokens = [CancelToken::new(), armed, CancelToken::new()];
            let start = std::sync::Barrier::new(tokens.len());
            let outs: Vec<PlaceOutcome> = std::thread::scope(|s| {
                let runs: Vec<_> = tokens
                    .iter()
                    .map(|token| {
                        let (placer, warm, batch, start) = (&placer, &warm, &batch, &start);
                        s.spawn(move || {
                            start.wait();
                            placer.place_warm(warm, batch, token, 1).unwrap()
                        })
                    })
                    .collect();
                runs.into_iter().map(|r| r.join().unwrap()).collect()
            });
            let label = format!("{preplacement:?}");
            assert!(!outs[1].completed, "{label}: the pre-armed run must stop");
            assert!(outs[1].results.is_empty(), "{label}");
            for out in [&outs[0], &outs[2]] {
                assert!(out.completed, "{label}: another run's token cancelled this one");
                assert_bit_identical(&solo.results, &out.results);
                assert_eq!(out.report.slot_stats.misses, 0, "{label}");
            }
            assert_eq!(solo.report.slot_stats.misses, 0, "{label}");
            assert_eq!(warm.slot_stats().delta(&base).misses, 0, "{label}: a warm run computed");
        }
    }

    #[test]
    fn warm_up_refuses_tiered_storage() {
        let (ctx, s2p, _) = setup(10, 40, 2, 14);
        let cfg = EpaConfig {
            tiers: Some(phylo_amc::TierConfig::new(std::env::temp_dir())),
            ..Default::default()
        };
        let placer = Placer::new(ctx, s2p, cfg).unwrap();
        assert!(matches!(placer.warm_up(), Err(PlaceError::BadConfig(_))));
    }
}
