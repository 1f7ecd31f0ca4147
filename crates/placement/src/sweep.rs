//! The sweep executor: one walk of a [`SweepSchedule`] under the slot
//! budget, shared by the lookup build, blocked prescoring and thorough
//! scoring.
//!
//! The schedule ([`phylo_tree::traversal::SweepSchedule`]) says in which
//! order the branches are met and which `up(·)` CLV to keep resident
//! between a node's stop and its children's. The executor turns that into
//! store traffic: batches of `block_size` branches are prepared (both
//! orientations pinned) and handed to the scorer, a *hold* is an ordinary
//! single-target [`ManagedStore::prepare`] kept until the schedule
//! releases it, and with `async_prefetch` the next batch is prepared on
//! one dedicated thread while the current one is scored.
//!
//! Because the step list exists before the first CLV is touched, the
//! executor also tells the store's replacement policy when the walk will
//! want which CLV ([`NextUse`], announced once per walk that can evict at
//! all) and where the walk currently is; the announcement is withdrawn
//! when the walker is dropped.
//!
//! Holds are an optimisation, never a correctness requirement: whatever
//! is not resident the planner recomputes. So the degradation ladder's
//! last rung is unchanged — on pin exhaustion halve the batch, and on a
//! single branch drop every hold, flush the cache and retry over a clean
//! slate, where the pin demand is bounded by the traversal floor.
//!
//! [`SweepSchedule`]: phylo_tree::traversal::SweepSchedule

use crate::error::PlaceError;
use crate::memplan::BlockPlan;
use crate::result::DegradationStats;
use phylo_engine::{EngineError, ManagedStore, PreparedBlock, ReferenceContext};
use phylo_tree::traversal::{NextUse, SweepStep};
use phylo_tree::{DirEdgeId, EdgeId};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, sync_channel, SendError};
use std::sync::Arc;
use std::time::Duration;

/// Atomic tallies for the degradation ladder; the sweep (on whichever
/// thread prepares batches) bumps them, the orchestrator snapshots them
/// into the run report.
#[derive(Default)]
pub(crate) struct DegradationCounters {
    pub(crate) prefetch_disabled: AtomicU64,
    pub(crate) block_clamped: AtomicU64,
    pub(crate) flush_retries: AtomicU64,
}

impl DegradationCounters {
    pub(crate) fn snapshot(&self) -> DegradationStats {
        DegradationStats {
            prefetch_disabled: self.prefetch_disabled.load(Ordering::Relaxed),
            block_clamped: self.block_clamped.load(Ordering::Relaxed),
            flush_retries: self.flush_retries.load(Ordering::Relaxed),
        }
    }
}

/// Renders a caught panic payload for [`PlaceError::WorkerPanicked`].
/// `panic!` payloads are `&str` or `String` in practice; anything else is
/// reported opaquely rather than re-thrown.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

fn dirs_of(edges: &[EdgeId]) -> Vec<DirEdgeId> {
    edges.iter().flat_map(|&e| [DirEdgeId::new(e, 0), DirEdgeId::new(e, 1)]).collect()
}

fn is_pin_exhaustion(e: &EngineError) -> bool {
    matches!(e, EngineError::Amc(phylo_amc::AmcError::AllSlotsPinned { .. }))
}

/// A batch of visited branches with both orientations pinned.
type Batch = (Vec<EdgeId>, PreparedBlock);

/// The preparing half of a sweep: walks the steps, prepares batches and
/// keeps the holds. Dropping it (normally, on error, or on unwind)
/// releases whatever is still held and withdraws the announcement, so no
/// later plan is judged by this walk.
struct Walker<'a> {
    ctx: &'a ReferenceContext,
    store: &'a ManagedStore,
    steps: &'a [SweepStep],
    next: usize,
    block_size: usize,
    /// Whether holds are taken at all.
    holds: bool,
    /// Whether the store's replacement policy was told about this walk.
    announced: bool,
    held: Vec<(DirEdgeId, PreparedBlock)>,
    deg: &'a DegradationCounters,
}

impl Drop for Walker<'_> {
    fn drop(&mut self) {
        self.release_holds();
        if self.announced {
            self.store.arena().manager().announce_schedule(None);
        }
    }
}

impl<'a> Walker<'a> {
    fn new(
        ctx: &'a ReferenceContext,
        store: &'a ManagedStore,
        steps: &'a [SweepStep],
        block_size: usize,
        deg: &'a DegradationCounters,
    ) -> Self {
        // A full store never evicts: nothing to hold, nobody to tell.
        // Below two spare slots (hand-built stores only: `memplan::plan`
        // reserves `pin_headroom`) a hold would eat into the traversal
        // floor itself.
        let evicts = store.n_slots() < ctx.max_slots();
        let spare = store.n_slots().saturating_sub(ctx.min_slots());
        if evicts {
            let table = Arc::new(NextUse::new(ctx.tree(), steps));
            store.arena().manager().announce_schedule(Some(table));
        }
        Walker {
            ctx,
            store,
            steps,
            next: 0,
            block_size,
            holds: evicts && spare >= 2,
            announced: evicts,
            held: Vec::new(),
            deg,
        }
    }

    fn release_holds(&mut self) {
        for (_, block) in self.held.drain(..) {
            self.store.release(block);
        }
    }

    fn resident(&self, d: DirEdgeId) -> bool {
        self.store.arena().manager().lookup(phylo_amc::ClvKey(d.0)).is_some()
    }

    /// Whether the walk below a step that is not visited needs its hold
    /// `up(c)` built: some step of `c`'s own stop wants an `up(kid)` that
    /// is not resident — a visited one will compute it one Felsenstein
    /// step from `up(c)`, a hold-only one if the same holds below it. A
    /// subtree whose `up(·)` CLVs are all cached already has no use for
    /// the path down to it.
    fn spine_wanted(&self, step: &SweepStep, up: DirEdgeId) -> bool {
        let tree = self.ctx.tree();
        let mut stops = vec![(tree.dst(up), step.below)];
        while let Some((c, (from, to))) = stops.pop() {
            for kid in &self.steps[from as usize..to as usize] {
                let up_kid = tree.dir_from(kid.edge, c);
                if self.resident(up_kid) {
                    continue;
                }
                if kid.visit {
                    return true;
                }
                stops.push((tree.dst(up_kid), kid.below));
            }
        }
        false
    }

    /// The steps from `from` that make up one batch of at most `limit`
    /// visited branches (hold-only steps ride with the batch before
    /// them): the index past its last step, and its branches.
    fn batch_from(&self, from: usize, limit: usize) -> (usize, Vec<EdgeId>) {
        let mut edges = Vec::new();
        let mut end = from;
        while let Some(step) = self.steps.get(end) {
            if step.visit {
                if edges.len() == limit {
                    break;
                }
                edges.push(step.edge);
            }
            end += 1;
        }
        (end, edges)
    }

    /// Prepares the next batch and plays its steps' holds and releases;
    /// `None` once the walk is over.
    fn next_batch(&mut self) -> Result<Option<Batch>, PlaceError> {
        let (ctx, store) = (self.ctx, self.store);
        let mut limit = self.block_size;
        let mut retries = 0;
        let mut backoff =
            phylo_amc::Backoff::new(Duration::from_millis(1), Duration::from_millis(8));
        let (end, edges, prepared) = loop {
            let (end, edges) = self.batch_from(self.next, limit);
            if end == self.next {
                return Ok(None);
            }
            if self.announced {
                store.arena().manager().advance_cursor(end as u32);
            }
            match store.prepare(ctx, &dirs_of(&edges)) {
                Ok(prepared) => break (end, edges, prepared),
                Err(e) if is_pin_exhaustion(&e) && edges.len() > 1 => limit = edges.len() / 2,
                // Even a single branch can exhaust the pins: the plan
                // pins every *cached* dependency it reads for the whole
                // pass, on top of the holds. Drop both and retry over a
                // clean slate. Concurrent planners can race us to the
                // freed slots, so back off (capped, jittered so racing
                // threads desynchronize) between a few attempts before
                // giving up.
                Err(e) if is_pin_exhaustion(&e) && retries < 4 => {
                    if retries > 0 {
                        std::thread::sleep(backoff.next_delay());
                    }
                    retries += 1;
                    self.deg.flush_retries.fetch_add(1, Ordering::Relaxed);
                    self.release_holds();
                    store.flush_cache();
                }
                Err(e) => return Err(e.into()),
            }
        };
        let first = std::mem::replace(&mut self.next, end);
        if self.holds {
            for step in &self.steps[first..end] {
                let wanted = |&up: &DirEdgeId| self.resident(up) || self.spine_wanted(step, up);
                if let Some(up) = step.hold.filter(wanted) {
                    match store.prepare(ctx, &[up]) {
                        Ok(block) => self.held.push((up, block)),
                        // Not held, then: it is recomputed when needed.
                        Err(e) if is_pin_exhaustion(&e) => {}
                        Err(e) => {
                            store.release(prepared);
                            return Err(e.into());
                        }
                    }
                }
                if let Some(done) = step.release {
                    if let Some(i) = self.held.iter().position(|&(d, _)| d == done) {
                        store.release(self.held.swap_remove(i).1);
                    }
                }
            }
        }
        Ok(Some((edges, prepared)))
    }
}

/// Walks `steps`, calling `scorer` on each batch of visited branches
/// while both orientations of every branch in it are resident and
/// pinned. `plan` is the ladder's verdict for this store
/// ([`crate::memplan::effective_block_size`]): branches per scorer call,
/// and whether the next batch is prepared on a prefetch thread meanwhile
/// — the paper's adapted parallelization. There is no store-wide lock:
/// the prefetch thread plans under the store's internal plan lock (held
/// only during planning) and executes lock-free under its execution
/// pins, so scoring readers of the current batch's pinned, published
/// slots never block on it (see DESIGN.md §6).
pub(crate) fn run_sweep(
    ctx: &ReferenceContext,
    store: &ManagedStore,
    steps: &[SweepStep],
    plan: BlockPlan,
    deg: &DegradationCounters,
    mut scorer: impl FnMut(&[EdgeId]) -> Result<(), PlaceError>,
) -> Result<(), PlaceError> {
    let mut walker = Walker::new(ctx, store, steps, plan.block_size.max(1), deg);
    if !plan.async_prefetch {
        while let Some((edges, prepared)) = walker.next_batch()? {
            let scored = scorer(&edges);
            store.release(prepared);
            scored?;
        }
        return Ok(());
    }
    // Batch k+1 is prepared while batch k is scored, and batch k is
    // released only once k+1 has arrived: never more than two batches are
    // pinned. The prefetch thread in turn waits for that release before
    // it plans batch k+2, so every plan meets the same pins whatever the
    // threads' timing — eviction decisions, and with them the recompute
    // counts, are reproducible.
    let (tx, rx) = sync_channel::<Result<Batch, PlaceError>>(0);
    let (released_tx, released_rx) = channel::<()>();
    std::thread::scope(|s| {
        let prefetch = s.spawn(move || {
            for k in 0.. {
                let span = phylo_obs::trace::span("prefetch", "prefetch");
                if phylo_faults::fire("place::prefetch_panic") {
                    panic!("injected prefetch panic");
                }
                let Some(msg) = walker.next_batch().transpose() else { break };
                drop(span);
                let last = msg.is_err();
                if let Err(SendError(unsent)) = tx.send(msg) {
                    // The scorer gave up; nobody else releases this batch.
                    if let Ok((_, prepared)) = unsent {
                        store.release(prepared);
                    }
                    break;
                }
                if last || (k > 0 && released_rx.recv().is_err()) {
                    break;
                }
            }
        });
        let mut current: Option<PreparedBlock> = None;
        let mut scored = Ok(());
        for msg in rx {
            scored = msg.and_then(|(edges, prepared)| {
                if let Some(done) = current.replace(prepared) {
                    store.release(done);
                    let _ = released_tx.send(());
                }
                scorer(&edges)
            });
            if scored.is_err() {
                break;
            }
        }
        if let Some(last) = current {
            store.release(last);
        }
        // Both channel ends are gone now, so a prefetch thread blocked on
        // either wakes up and winds down.
        drop(released_tx);
        match prefetch.join() {
            Ok(()) => scored,
            Err(payload) => Err(PlaceError::WorkerPanicked {
                context: format!("prefetch thread: {}", panic_message(payload.as_ref())),
            }),
        }
    })
}
