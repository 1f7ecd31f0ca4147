//! The sweep executor: one walk of a [`SweepSchedule`] under the slot
//! budget, shared by the lookup build, blocked prescoring, thorough
//! scoring and the warm-up walk of an uncapped store without the lookup,
//! and the work board every scoring fan-out runs on.
//!
//! The schedule ([`phylo_tree::traversal::SweepSchedule`]) says in which
//! order the branches are met and which `up(·)` CLV to keep resident
//! between a node's stop and its children's. The executor turns that into
//! store traffic: batches of `block_size` branches are prepared (both
//! orientations pinned) and split into scoring units, and a *hold* is an
//! ordinary single-target [`ManagedStore::prepare`] kept until the
//! schedule releases it. With `async_prefetch` the next batch is prepared
//! while the current one is scored, so two batches are pinned at once and
//! the units of both are scored by whichever thread is free (see
//! [`run_sweep`]).
//!
//! A board thread that finds nothing to claim while another job still
//! runs first spins on the board's generation counter, for at most
//! [`SPIN`] (50 µs), and only then parks on the board's condvar. Every
//! change a waiter could act on bumps the counter under the board lock
//! and wakes the parked threads, if any; a waiter parks only if the
//! counter has not moved once it holds the lock again, so no wake-up is
//! lost (see [`Board::wait`]). At the floor a hand-off is a ≈ 15 µs
//! prepare against ≈ 13 µs of scoring, and most hand-offs then cost
//! neither a park nor a wake-up.
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
use crate::result::{DegradationStats, SweepStats};
use phylo_engine::{EngineError, ManagedStore, PreparedBlock, ReferenceContext};
use phylo_tree::traversal::{NextUse, SweepStep};
use phylo_tree::{DirEdgeId, EdgeId};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// The longest a board thread with nothing to claim watches the board's
/// generation counter before it parks on the condvar (the spin window's
/// bound, see [`Board::wait`]). At the floor a one-branch block is
/// prepared in ≈ 15 µs and scored in ≈ 13 µs, so most hand-offs between
/// the preparing and the scoring thread land inside it and cost neither
/// a park nor a wake-up; a longer wait (a walk's first prepare, the
/// tail of a fan-out) parks after spinning no longer than this.
const SPIN: Duration = Duration::from_micros(50);

/// Atomic tallies for the degradation ladder; the sweep (on whichever
/// thread prepares a batch) bumps them, the orchestrator snapshots them
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
                // clean slate, a few times before giving up. The walker
                // is its store's only planner (a walk's prepares run one
                // at a time, and walks on a capped store never overlap),
                // so nothing races it to the freed slots and a retry
                // need not wait.
                Err(e) if is_pin_exhaustion(&e) && retries < 4 => {
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

/// One walk for [`run_sweep`]: the store it runs against, its steps, and
/// the ladder's verdict for this store
/// ([`crate::memplan::effective_block_size`]): branches per batch, and
/// whether the next batch is prepared while the current one is scored —
/// the paper's adapted parallelization.
pub(crate) struct Walk<'a> {
    pub(crate) ctx: &'a ReferenceContext,
    pub(crate) store: &'a ManagedStore,
    pub(crate) steps: &'a [SweepStep],
    pub(crate) plan: BlockPlan,
    pub(crate) deg: &'a DegradationCounters,
}

/// Walks `walk.steps` on a work board of `scratch.len()` threads (the
/// caller is thread 0), each with its own `scratch` element, and returns
/// the outputs of every unit in (batch, unit) order. A prepared batch of
/// visited branches, both orientations of each pinned, is split into
/// `units_of(batch)`, and `work` runs each unit while the batch is
/// pinned. Scoring reads take no lock: the batch's slots are pinned and
/// complete, and prepares serialize on the store's own plan lock (see
/// DESIGN.md §6).
///
/// The board holds two kinds of job: preparing the next batch, and the
/// units of every pinned batch. A free thread claims the prepare if it
/// is allowed, else the oldest unclaimed unit, else waits (spinning
/// briefly before it parks, see [`Board::wait`]). Prepares and
/// releases keep one global order, whatever the threads' timing, so
/// every plan meets the same pins and the eviction decisions, and with
/// them the recompute counts, are reproducible:
///
/// - under async prefetch batch k+1 is prepared before batch k is
///   released, batch k is released once its units are done and batch k+1
///   is prepared (or the walk is over), and batch k+2 is prepared only
///   after batch k is released — `P0 P1 R0 P2 R1 P3 …`, never more than
///   two batches pinned;
/// - without it, one batch is pinned at a time: `P0 R0 P1 R1 …`.
///
/// Prepares run one at a time, on whichever thread claimed them, and the
/// walker stays the only planner. Units are claimed in (batch, unit)
/// order and every claimed unit runs to its end; after a failure nothing
/// past it is claimed, so the lowest failing position — a unit, or the
/// prepare of a later batch — is the error a serial run meets first, and
/// that is the one returned. Every job runs under `catch_unwind`: a
/// panicking unit becomes [`PlaceError::WorkerPanicked`] naming `what`,
/// a panicking prepare one naming the prefetch, and the panic wins over
/// any error.
pub(crate) fn run_sweep<U: Send, S: Send, R: Send>(
    walk: Walk<'_>,
    what: &str,
    scratch: &mut [S],
    stats: &mut SweepStats,
    units_of: impl Fn(&[EdgeId]) -> Vec<U> + Sync,
    work: impl Fn(U, &mut S) -> Result<R, PlaceError> + Sync,
) -> Result<Vec<R>, PlaceError> {
    let Walk { ctx, store, steps, plan, deg } = walk;
    assert!(!scratch.is_empty(), "a sweep runs on at least the calling thread");
    let walker = Walker::new(ctx, store, steps, plan.block_size.max(1), deg);
    let depth = if plan.async_prefetch { 2 } else { 1 };
    // A walk that visits nothing is not worth a thread.
    let threads = if steps.is_empty() { 1 } else { scratch.len() };
    let board = Board::new(Some(store), Some(walker), depth, None);
    board.run(what, &mut scratch[..threads], stats, &units_of, &work)
}

/// Runs `work` on every unit of `units` on the work board with no walk:
/// one block of units and nothing to prepare, on
/// `min(scratch.len(), units.len())` threads. The contract is
/// [`run_sweep`]'s: outputs in unit order, the lowest failing unit's
/// error, a panic as [`PlaceError::WorkerPanicked`] naming `what`.
pub(crate) fn fan_out<U: Send, S: Send, R: Send>(
    what: &str,
    units: Vec<U>,
    scratch: &mut [S],
    stats: &mut SweepStats,
    work: impl Fn(U, &mut S) -> Result<R, PlaceError> + Sync,
) -> Result<Vec<R>, PlaceError> {
    let threads = scratch.len().min(units.len());
    if threads == 0 {
        return Ok(Vec::new());
    }
    let board = Board::new(None, None, 1, Some(units));
    board.run(what, &mut scratch[..threads], stats, &|_: &[EdgeId]| Vec::new(), &work)
}

/// A position in a board's serial order: the block, then 0 for its
/// prepare and `i + 1` for its unit `i`.
type Pos = (usize, usize);

/// A job claimed from the board.
enum Job<'a, U> {
    /// Prepare the next block; the walker is the claimant's until it
    /// hands it back.
    Prepare(Walker<'a>),
    /// Run one unit of a pinned block.
    Unit(Pos, U),
}

/// A pinned block and its units.
struct Block<U, R> {
    /// The pins (none for a board with no walk).
    pinned: Option<PreparedBlock>,
    /// Units not yet claimed, in order.
    units: std::vec::IntoIter<U>,
    /// Units claimed so far.
    claimed: usize,
    /// Claimed units still running.
    running: usize,
    /// One output per unit, filled as units finish.
    outputs: Vec<Option<R>>,
}

impl<U, R> Block<U, R> {
    fn new(pinned: Option<PreparedBlock>, units: Vec<U>) -> Self {
        let outputs = units.iter().map(|_| None).collect();
        Block { pinned, units: units.into_iter(), claimed: 0, running: 0, outputs }
    }

    fn done(&self) -> bool {
        self.claimed == self.outputs.len() && self.running == 0
    }
}

struct BoardState<'a, U, R> {
    /// The walk; taken by the thread that prepares, `None` once over.
    walker: Option<Walker<'a>>,
    /// No block is left to prepare: the walk ended or failed.
    walk_done: bool,
    preparing: bool,
    /// Blocks pinned at once at most: 2 under async prefetch, else 1.
    depth: usize,
    /// Pinned blocks, oldest first: `blocks[i]` is block `released + i`.
    blocks: VecDeque<Block<U, R>>,
    released: usize,
    /// The outputs of the released blocks, in order.
    outputs: Vec<R>,
    /// The lowest failing position and its error.
    failed: Option<(Pos, PlaceError)>,
    panicked: Option<PlaceError>,
    /// Threads parked on the board's condvar.
    parked: usize,
    /// How long the next thread with nothing to claim spins before it
    /// parks (see [`Board::wait`]).
    spin: Duration,
}

impl<'a, U, R> BoardState<'a, U, R> {
    /// The next job in claim order: the prepare if it is allowed, else the
    /// oldest unclaimed unit. Nothing at or past a failure is claimed,
    /// and nothing at all after a panic.
    fn claim(&mut self) -> Option<Job<'a, U>> {
        if self.panicked.is_some() {
            return None;
        }
        let failed_at = self.failed.as_ref().map(|&(at, _)| at);
        let before_failure = |at: Pos| failed_at.is_none_or(|f| at < f);
        // The walker is here only while no prepare runs and the walk goes on.
        let next_block = self.released + self.blocks.len();
        if self.blocks.len() < self.depth && before_failure((next_block, 0)) {
            if let Some(walker) = self.walker.take() {
                self.preparing = true;
                return Some(Job::Prepare(walker));
            }
        }
        let released = self.released;
        let (i, block) = self.blocks.iter_mut().enumerate().find(|(_, b)| b.units.len() > 0)?;
        let at = (released + i, block.claimed + 1);
        if !before_failure(at) {
            return None;
        }
        let unit = block.units.next()?;
        block.claimed += 1;
        block.running += 1;
        Some(Job::Unit(at, unit))
    }

    /// Nothing runs, so nothing can change: a thread that found nothing
    /// to claim may leave.
    fn quiet(&self) -> bool {
        !self.preparing && self.blocks.iter().all(|b| b.running == 0)
    }

    fn fail(&mut self, at: Pos, e: PlaceError) {
        if self.failed.as_ref().is_none_or(|&(f, _)| at < f) {
            self.failed = Some((at, e));
        }
    }

    /// Releases, oldest first, every block whose units are done, once the
    /// block after it is prepared (or the walk is over) under async
    /// prefetch. Returns whether any was released.
    fn release_done(&mut self, store: Option<&ManagedStore>) -> bool {
        let mut any = false;
        while let Some(front) = self.blocks.front() {
            let next_ready = self.depth == 1 || self.blocks.len() > 1 || self.walk_done;
            if !(front.done() && next_ready) {
                break;
            }
            let block = self.blocks.pop_front().expect("front exists");
            if let (Some(store), Some(pinned)) = (store, block.pinned) {
                store.release(pinned);
            }
            // A failed unit left no output; the run returns its error.
            self.outputs.extend(block.outputs.into_iter().flatten());
            self.released += 1;
            any = true;
        }
        any
    }
}

/// The work board: the state every thread claims from, and what a
/// thread with nothing to claim waits on — the generation counter it
/// spins on first, then the condvar it parks on (see [`Board::wait`]).
struct Board<'a, U, R> {
    store: Option<&'a ManagedStore>,
    state: Mutex<BoardState<'a, U, R>>,
    /// Bumped by every notifier, always under the lock; read without it
    /// by spinning threads. It publishes no data — a thread that sees it
    /// move takes the lock before it reads the board — so its accesses
    /// are `Relaxed`.
    generation: AtomicU64,
    wake: Condvar,
}

impl<'a, U: Send, R: Send> Board<'a, U, R> {
    fn new(
        store: Option<&'a ManagedStore>,
        walker: Option<Walker<'a>>,
        depth: usize,
        units: Option<Vec<U>>,
    ) -> Self {
        let walk_done = walker.is_none();
        let blocks = units.map(|units| Block::new(None, units)).into_iter().collect();
        let state = BoardState {
            walker,
            walk_done,
            preparing: false,
            depth,
            blocks,
            released: 0,
            outputs: Vec::new(),
            failed: None,
            panicked: None,
            parked: 0,
            spin: SPIN,
        };
        Board {
            store,
            state: Mutex::new(state),
            generation: AtomicU64::new(0),
            wake: Condvar::new(),
        }
    }

    /// The board's own code holds the lock only for bookkeeping that does
    /// not panic; should it ever, the thread marks the board panicked
    /// ([`Board::worker`]) and the state is only released from then on,
    /// so a poisoned lock is taken as it is.
    fn lock(&self) -> MutexGuard<'_, BoardState<'a, U, R>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Tells the waiting threads that the board changed (something to
    /// claim, or nothing left running): bumps the generation the
    /// spinning ones watch, and wakes the parked ones if there are any.
    /// The caller holds the lock, so the bump cannot fall between a
    /// waiter's last look at the counter and its park.
    fn notify(&self, state: &BoardState<'a, U, R>) {
        self.generation.fetch_add(1, Ordering::Relaxed);
        if state.parked > 0 {
            self.wake.notify_all();
        }
    }

    /// Waits for the next [`Board::notify`] after the caller's failed
    /// claim, and hands the lock back. The thread spins on the
    /// generation counter without the lock for up to the board's spin
    /// window, then, if the counter has not moved by the time it holds
    /// the lock again, parks on the condvar. Every notifier bumps the
    /// counter under the lock and wakes whoever is parked then, so a
    /// notify either comes before the re-check (the thread sees the new
    /// generation and does not park) or after the park (the thread is
    /// counted and woken): no wake-up is lost. A spurious wake-up only
    /// sends the thread back to claiming.
    ///
    /// The window starts at [`SPIN`]. A spin that runs out halves it for
    /// the next wait, down to `SPIN / 32`; one that ends in a notify
    /// doubles it, up to `SPIN`. When the two threads of a hand-off do
    /// not run at once (a host that time-slices the two vCPUs on one
    /// core), every spin runs out and only delays the thread that would
    /// notify, so the board stops spinning there within a few waits.
    fn wait<'g>(
        &'g self,
        state: MutexGuard<'g, BoardState<'a, U, R>>,
    ) -> MutexGuard<'g, BoardState<'a, U, R>> {
        let seen = self.generation.load(Ordering::Relaxed);
        let window = state.spin;
        drop(state);
        let spun = Instant::now();
        while self.generation.load(Ordering::Relaxed) == seen && spun.elapsed() < window {
            std::hint::spin_loop();
        }
        let mut state = self.lock();
        if self.generation.load(Ordering::Relaxed) == seen {
            state.spin = (state.spin / 2).max(SPIN / 32);
            state.parked += 1;
            state = self.wake.wait(state).unwrap_or_else(PoisonError::into_inner);
            state.parked -= 1;
        } else {
            state.spin = (state.spin * 2).min(SPIN);
        }
        state
    }

    /// Runs the board on one thread per `scratch` element (the caller
    /// is the first) until no job is left, then releases whatever a
    /// failure left pinned and hands back the outputs or the error.
    fn run<S: Send>(
        self,
        what: &str,
        scratch: &mut [S],
        stats: &mut SweepStats,
        units_of: &(impl Fn(&[EdgeId]) -> Vec<U> + Sync),
        work: &(impl Fn(U, &mut S) -> Result<R, PlaceError> + Sync),
    ) -> Result<Vec<R>, PlaceError> {
        let tallies: Vec<SweepStats> = match scratch {
            [] => Vec::new(),
            [own] => vec![self.worker(what, own, units_of, work)],
            [own, rest @ ..] => std::thread::scope(|s| {
                let board = &self;
                let handles: Vec<_> = rest
                    .iter_mut()
                    .map(|sc| s.spawn(move || board.worker(what, sc, units_of, work)))
                    .collect();
                let mut tallies = vec![self.worker(what, own, units_of, work)];
                // `worker` catches every panic, so every join succeeds.
                tallies.extend(handles.into_iter().map(|h| h.join().unwrap_or_default()));
                tallies
            }),
        };
        stats.threads_started += scratch.len().saturating_sub(1) as u64;
        for t in tallies {
            stats.merge(t);
        }
        let mut state = self.state.into_inner().unwrap_or_else(PoisonError::into_inner);
        for block in state.blocks.drain(..) {
            if let (Some(store), Some(pinned)) = (self.store, block.pinned) {
                store.release(pinned);
            }
        }
        drop(state.walker.take());
        if let Some(panicked) = state.panicked {
            return Err(panicked);
        }
        match state.failed {
            Some((_, e)) => Err(e),
            None => Ok(state.outputs),
        }
    }

    /// One thread's loop: claim, run, report, until the board is quiet
    /// with nothing to claim. Returns where the thread's time went. Jobs
    /// run under their own `catch_unwind`; should the board's own code
    /// ever panic, the board is marked panicked so no thread waits for
    /// this one.
    fn worker<S>(
        &self,
        what: &str,
        scratch: &mut S,
        units_of: &impl Fn(&[EdgeId]) -> Vec<U>,
        work: &impl Fn(U, &mut S) -> Result<R, PlaceError>,
    ) -> SweepStats {
        let looped =
            catch_unwind(AssertUnwindSafe(|| self.work_loop(what, scratch, units_of, work)));
        looped.unwrap_or_else(|payload| {
            let mut state = self.lock();
            state.panicked.get_or_insert(PlaceError::WorkerPanicked {
                context: format!("{what}: {}", panic_message(payload.as_ref())),
            });
            self.notify(&state);
            SweepStats::default()
        })
    }

    fn work_loop<S>(
        &self,
        what: &str,
        scratch: &mut S,
        units_of: &impl Fn(&[EdgeId]) -> Vec<U>,
        work: &impl Fn(U, &mut S) -> Result<R, PlaceError>,
    ) -> SweepStats {
        let mut tally = SweepStats::default();
        let mut state = self.lock();
        loop {
            let job = match state.claim() {
                Some(job) => job,
                None if state.panicked.is_some() || state.quiet() => break,
                None => {
                    let t = Instant::now();
                    state = self.wait(state);
                    tally.idle_ns += t.elapsed().as_nanos() as u64;
                    continue;
                }
            };
            drop(state);
            let t = Instant::now();
            let wake = match job {
                Job::Prepare(mut walker) => {
                    let prepared = catch_unwind(AssertUnwindSafe(|| {
                        let _span = phylo_obs::trace::span("prefetch", "prefetch");
                        if phylo_faults::fire("place::prefetch_panic") {
                            panic!("injected prefetch panic");
                        }
                        let batch = walker.next_batch()?;
                        Ok(batch.map(|(edges, pinned)| Block::new(Some(pinned), units_of(&edges))))
                    }));
                    tally.prepare_ns += t.elapsed().as_nanos() as u64;
                    state = self.lock();
                    state.preparing = false;
                    match prepared {
                        Ok(Ok(Some(block))) => {
                            state.walker = Some(walker);
                            state.blocks.push_back(block);
                        }
                        outcome => {
                            // The walk is over: its holds go and its
                            // announcement is withdrawn now, in order.
                            drop(walker);
                            state.walk_done = true;
                            match outcome {
                                Ok(Err(e)) => {
                                    let at = (state.released + state.blocks.len(), 0);
                                    state.fail(at, e);
                                }
                                Err(payload) => {
                                    state.panicked.get_or_insert(PlaceError::WorkerPanicked {
                                        context: format!(
                                            "prefetch: {}",
                                            panic_message(payload.as_ref())
                                        ),
                                    });
                                }
                                _ => {}
                            }
                        }
                    }
                    state.release_done(self.store);
                    true
                }
                Job::Unit(at, unit) => {
                    let out = catch_unwind(AssertUnwindSafe(|| work(unit, scratch)));
                    tally.score_ns += t.elapsed().as_nanos() as u64;
                    state = self.lock();
                    let i = at.0 - state.released;
                    state.blocks[i].running -= 1;
                    let trouble = match out {
                        Ok(Ok(r)) => {
                            state.blocks[i].outputs[at.1 - 1] = Some(r);
                            false
                        }
                        Ok(Err(e)) => {
                            state.fail(at, e);
                            true
                        }
                        Err(payload) => {
                            state.panicked.get_or_insert(PlaceError::WorkerPanicked {
                                context: format!("{what}: {}", panic_message(payload.as_ref())),
                            });
                            true
                        }
                    };
                    state.release_done(self.store) || trouble || state.quiet()
                }
            };
            if wake {
                self.notify(&state);
            }
        }
        tally
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phylo_amc::StrategyKind;
    use phylo_models::{dna, DiscreteGamma, SubstModel};
    use phylo_obs::slottrace::{SlotEvent, SlotTrace};
    use phylo_seq::alphabet::AlphabetKind;
    use phylo_seq::{compress, Msa, Sequence};
    use phylo_tree::traversal::SweepSchedule;
    use phylo_tree::{generate, NodeId};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::sync::atomic::AtomicUsize;
    use std::sync::mpsc::RecvTimeoutError;

    fn ctx(n: usize, sites: usize, seed: u64) -> ReferenceContext {
        let mut rng = StdRng::seed_from_u64(seed);
        let tree = generate::yule(n, 0.1, &mut rng).unwrap();
        let rows: Vec<Sequence> = (0..n)
            .map(|i| {
                let text: String =
                    (0..sites).map(|_| b"ACGT"[rng.gen_range(0..4usize)] as char).collect();
                Sequence::from_text(tree.taxon(NodeId(i as u32)), AlphabetKind::Dna, &text).unwrap()
            })
            .collect();
        let patterns = compress(&Msa::new(rows).unwrap()).unwrap();
        let model = SubstModel::new(&dna::jc69(), DiscreteGamma::none()).unwrap();
        ReferenceContext::new(tree, model, AlphabetKind::Dna.alphabet(), &patterns).unwrap()
    }

    fn floor_store(ctx: &ReferenceContext) -> ManagedStore {
        let floor = ctx.min_slots() + crate::memplan::pin_headroom(ctx);
        ManagedStore::with_slots(ctx, floor, StrategyKind::CostBased).unwrap()
    }

    fn one_branch(async_prefetch: bool) -> BlockPlan {
        BlockPlan { block_size: 1, async_prefetch, prefetch_disabled: false, block_clamped: false }
    }

    #[test]
    fn two_pinned_blocks_are_scored_at_once() {
        // Block 0's unit runs until block 1's unit has started: a board
        // that scored one block at a time would wait here for good.
        let ctx = ctx(24, 20, 1);
        let store = floor_store(&ctx);
        let steps = SweepSchedule::new(ctx.tree()).steps(|_| true);
        let deg = DegradationCounters::default();
        let walk =
            Walk { ctx: &ctx, store: &store, steps: &steps, plan: one_branch(true), deg: &deg };
        let blocks = AtomicUsize::new(0);
        let second_started = (Mutex::new(false), Condvar::new());
        let mut stats = SweepStats::default();
        let overlapped = run_sweep(
            walk,
            "test",
            &mut [(), ()],
            &mut stats,
            |batch| vec![(blocks.fetch_add(1, Ordering::Relaxed), batch[0])],
            |(block, _), _| {
                let (started, cv) = &second_started;
                match block {
                    0 => {
                        let started = started.lock().unwrap();
                        let (started, _) = cv
                            .wait_timeout_while(started, Duration::from_secs(5), |s| !*s)
                            .unwrap();
                        Ok(*started)
                    }
                    1 => {
                        *started.lock().unwrap() = true;
                        cv.notify_all();
                        Ok(true)
                    }
                    _ => Ok(true),
                }
            },
        )
        .unwrap();
        assert_eq!(overlapped.len(), ctx.tree().n_edges());
        assert!(overlapped[0], "block 0 was scored alone: block 1's unit never started");
        assert_eq!(stats.threads_started, 1);
        assert_eq!(store.arena().manager().n_pinned(), 0);
    }

    #[test]
    fn the_slot_trace_of_a_floor_walk_is_the_same_at_any_thread_count() {
        // Prepares and releases keep one global order, so the store sees
        // the same requests, pins, unpins and cursor moves whatever the
        // number of threads and however long the units take.
        let ctx = ctx(48, 16, 2);
        let steps = SweepSchedule::new(ctx.tree()).steps(|_| true);
        for async_prefetch in [false, true] {
            let mut seen: Option<Vec<SlotEvent>> = None;
            for threads in [1, 2, 8] {
                let store = floor_store(&ctx);
                let recorder = Arc::new(SlotTrace::new());
                store.set_slot_trace(Arc::clone(&recorder));
                let deg = DegradationCounters::default();
                let plan = BlockPlan { block_size: 2, ..one_branch(async_prefetch) };
                let walk = Walk { ctx: &ctx, store: &store, steps: &steps, plan, deg: &deg };
                let mut scratch = vec![(); threads];
                let mut stats = SweepStats::default();
                let scored = run_sweep(
                    walk,
                    "test",
                    &mut scratch,
                    &mut stats,
                    <[EdgeId]>::to_vec,
                    |e, _| {
                        // Uneven units, so the threads' timing varies.
                        std::thread::sleep(Duration::from_micros(u64::from(e.0 % 5) * 40));
                        Ok(e)
                    },
                )
                .unwrap();
                let visited: Vec<EdgeId> =
                    steps.iter().filter(|s| s.visit).map(|s| s.edge).collect();
                assert_eq!(scored, visited, "outputs come back in walk order");
                assert_eq!(stats.threads_started, threads as u64 - 1);
                let events = recorder.snapshot().events;
                assert!(events.iter().any(|e| matches!(e, SlotEvent::Cursor { .. })));
                match &seen {
                    None => seen = Some(events),
                    Some(reference) => assert!(
                        reference == &events,
                        "prefetch {async_prefetch}: the slot trace differs at {threads} threads"
                    ),
                }
            }
        }
    }

    #[test]
    fn thousands_of_one_branch_hand_offs_lose_no_wake_up() {
        // One-branch blocks of near-empty units make nearly every claim a
        // hand-off between a preparing and a scoring thread. A lost
        // wake-up leaves a thread parked for good and the board never
        // returns, so the walks run on a thread of their own and the
        // watchdog below fails the test instead of hanging it.
        let (done, watchdog) = std::sync::mpsc::channel();
        let walks = std::thread::spawn(move || {
            let ctx = ctx(1024, 4, 3);
            let steps = SweepSchedule::new(ctx.tree()).steps(|_| true);
            let mut runs = Vec::new();
            for async_prefetch in [true, false] {
                for threads in [1, 4, 4] {
                    let store = floor_store(&ctx);
                    let deg = DegradationCounters::default();
                    let plan = one_branch(async_prefetch);
                    let walk = Walk { ctx: &ctx, store: &store, steps: &steps, plan, deg: &deg };
                    let blocks = AtomicUsize::new(0);
                    let mut stats = SweepStats::default();
                    let scored = run_sweep(
                        walk,
                        "test",
                        &mut vec![(); threads],
                        &mut stats,
                        |batch| {
                            let block = blocks.fetch_add(1, Ordering::Relaxed);
                            (0..3).map(|unit| (block, batch[0], unit)).collect()
                        },
                        |unit, _| Ok(unit),
                    )
                    .unwrap();
                    assert_eq!(store.arena().manager().n_pinned(), 0);
                    runs.push((async_prefetch, threads, scored));
                }
            }
            let visited: Vec<EdgeId> = steps.iter().filter(|s| s.visit).map(|s| s.edge).collect();
            done.send((visited, runs)).unwrap();
        });
        // Every run, the 1-thread ones included, must come back in the
        // walk's (batch, unit) order, so each equals the 1-thread run.
        let (visited, runs) = match watchdog.recv_timeout(Duration::from_secs(120)) {
            Ok(outcome) => {
                walks.join().unwrap();
                outcome
            }
            Err(RecvTimeoutError::Timeout) => {
                panic!("the board did not return in 120 s: a parked thread missed its wake-up")
            }
            Err(RecvTimeoutError::Disconnected) => {
                std::panic::resume_unwind(walks.join().unwrap_err())
            }
        };
        assert!(visited.len() > 2000, "{} blocks", visited.len());
        let in_order: Vec<(usize, EdgeId, usize)> = visited
            .iter()
            .enumerate()
            .flat_map(|(block, &edge)| (0..3).map(move |unit| (block, edge, unit)))
            .collect();
        for (async_prefetch, threads, scored) in &runs {
            assert!(
                scored == &in_order,
                "prefetch {async_prefetch}, {threads} threads: outputs out of (batch, unit) order"
            );
        }
    }

    #[test]
    fn the_lowest_failing_unit_wins_and_a_panic_names_its_job() {
        for threads in [1, 2, 8] {
            let mut scratch = vec![(); threads];
            let mut stats = SweepStats::default();
            let failed = fan_out("test", (0..64).collect(), &mut scratch, &mut stats, |u, _| {
                if u % 20 == 19 {
                    return Err(PlaceError::BadConfig(format!("unit {u}")));
                }
                Ok(u)
            });
            match failed {
                Err(PlaceError::BadConfig(m)) => assert_eq!(m, "unit 19", "{threads} threads"),
                other => panic!("{threads} threads: {other:?}"),
            }
            let all = fan_out("test", (0..64).collect(), &mut scratch, &mut stats, |u, _| Ok(u));
            assert_eq!(all.unwrap(), (0..64).collect::<Vec<_>>());
            let panicked = fan_out("scorer", (0..8).collect(), &mut scratch, &mut stats, |u, _| {
                if u == 5 {
                    panic!("unit five");
                }
                Ok(u)
            });
            match panicked {
                Err(PlaceError::WorkerPanicked { context }) => {
                    assert_eq!(context, "scorer: unit five")
                }
                other => panic!("{threads} threads: {other:?}"),
            }
        }
    }
}
