//! Across-site parallel CLV updates over a persistent worker pool.
//!
//! The paper's Fig. 7 "experimental" mode parallelizes CLV recomputation
//! over alignment sites instead of (only) overlapping it with placement
//! work. Because the CLV layout keeps patterns outermost, splitting the
//! pattern range splits every buffer into disjoint contiguous slices.
//!
//! Earlier revisions spawned (and joined) fresh OS threads on *every*
//! kernel call, which made site-parallel scoring scale negatively: the
//! per-call spawn cost dwarfed the per-chunk kernel work. Updates now
//! run on a [`SiteParPool`] — workers are spawned once, park on a
//! condvar between calls, and a call is just "publish a job, wake the
//! pool, help drain it". The caller thread always participates in the
//! drain, so a pool sized `n` uses `n - 1` parked workers plus the
//! caller, and on a single-core host (zero workers) every call runs
//! inline with no synchronization beyond two atomic bumps.
//!
//! Each chunk calls the dispatching serial kernel on its sub-range, so
//! the range split composes with kernel specialization *and* the tier
//! layer: DNA/protein chunks run the SIMD tier's kernels allocation-free,
//! and only the generic fallback touches a transient scratch.
//!
//! As the paper observes (§V-C), site parallelism still only pays off
//! for wide alignments — each chunk must amortize its share of the
//! wake/park handshake over `patterns / chunks` sites — but the
//! handshake is now hundreds of nanoseconds, not a thread spawn.

use crate::kernels::{update_partials, Side};
use crate::layout::Layout;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// Splits `patterns` into at most `n_chunks` near-equal contiguous ranges.
pub fn split_ranges(patterns: usize, n_chunks: usize) -> Vec<std::ops::Range<usize>> {
    let n_chunks = n_chunks.max(1).min(patterns.max(1));
    let base = patterns / n_chunks;
    let extra = patterns % n_chunks;
    let mut out = Vec::with_capacity(n_chunks);
    let mut start = 0;
    for i in 0..n_chunks {
        let len = base + usize::from(i < extra);
        if len == 0 {
            break;
        }
        out.push(start..start + len);
        start += len;
    }
    out
}

/// Restricts a [`Side`] to a pattern range, producing a side whose pattern
/// indices are range-local.
fn slice_side<'a>(side: &Side<'a>, layout: &Layout, range: &std::ops::Range<usize>) -> Side<'a> {
    match *side {
        Side::Clv { clv, scale, pmatrix } => Side::Clv {
            clv: &clv[layout.clv_range(range)],
            scale: scale.map(|s| &s[range.clone()]),
            pmatrix,
        },
        Side::Tip { table, codes } => Side::Tip { table, codes: &codes[range.clone()] },
    }
}

/// A raw pointer that may cross threads. Used to hand each pool task its
/// own disjoint chunk of an output buffer; every dereference site states
/// the disjointness argument.
#[derive(Clone, Copy)]
struct SendPtr<T>(*mut T);
unsafe impl<T> Send for SendPtr<T> {}
unsafe impl<T> Sync for SendPtr<T> {}

impl<T> SendPtr<T> {
    #[inline]
    fn get(self) -> *mut T {
        self.0
    }
}

/// One published batch of index-addressed tasks (`0..n_tasks`).
struct Job {
    /// Type-erased `&(dyn Fn(usize) + Sync)` borrowed from the caller's
    /// stack. Valid until `pending` reaches zero, which [`SiteParPool::run`]
    /// waits for before returning; the pointer is only ever dereferenced
    /// for a claimed index, strictly before that index's `pending`
    /// decrement, so no dereference can happen after `run` returns.
    task: *const (dyn Fn(usize) + Sync),
    /// Next unclaimed task index.
    cursor: AtomicUsize,
    n_tasks: usize,
    /// Tasks not yet *finished* (claimed-and-executed).
    pending: AtomicUsize,
    done_m: Mutex<()>,
    done_cv: Condvar,
}

// SAFETY: the raw `task` pointer is the only non-auto-Send/Sync field;
// its validity window is enforced by the `pending` protocol above.
unsafe impl Send for Job {}
unsafe impl Sync for Job {}

impl Job {
    /// Claims and executes tasks until the cursor is exhausted.
    fn drain(&self) {
        loop {
            let i = self.cursor.fetch_add(1, Ordering::Relaxed);
            if i >= self.n_tasks {
                return;
            }
            // SAFETY: see the `task` field contract.
            unsafe { (*self.task)(i) };
            if self.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
                // Lock-then-notify so a caller between its `pending`
                // check and `wait` cannot miss the wakeup.
                let _g = self.done_m.lock().unwrap();
                self.done_cv.notify_all();
            }
        }
    }

    /// Blocks until every task has finished.
    fn wait(&self) {
        let mut g = self.done_m.lock().unwrap();
        while self.pending.load(Ordering::Acquire) > 0 {
            g = self.done_cv.wait(g).unwrap();
        }
    }
}

struct PoolState {
    /// The most recently published job (workers help the latest; older
    /// jobs are finished by their own publishing callers).
    job: Option<Arc<Job>>,
    /// Bumped on every publish so workers can tell "new job" from "the
    /// job I just drained".
    epoch: u64,
    shutdown: bool,
}

struct PoolInner {
    state: Mutex<PoolState>,
    work_cv: Condvar,
    /// Workers currently parked on `work_cv`.
    parked: AtomicUsize,
    /// Pool-routed batches since creation.
    jobs: AtomicU64,
    /// Tasks executed (by workers and callers) since creation.
    tasks: AtomicU64,
}

/// Point-in-time pool counters, exported through the observability
/// registry by `placement::run`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolStats {
    /// Worker threads owned by the pool (excludes participating callers).
    pub workers: usize,
    /// Workers currently parked waiting for work.
    pub parked: usize,
    /// Unclaimed tasks in the most recent job.
    pub queue_depth: usize,
    /// Batches routed through the pool.
    pub jobs: u64,
    /// Tasks executed across all batches.
    pub tasks: u64,
}

/// A persistent site-parallel worker pool: `requested - 1` worker threads
/// (clamped to the host's available parallelism) that park between calls.
///
/// Created once per run (the engine's store owns one) so thread startup
/// is amortized across every kernel call of the run.
pub struct SiteParPool {
    inner: Arc<PoolInner>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for SiteParPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SiteParPool").field("workers", &self.handles.len()).finish()
    }
}

impl SiteParPool {
    /// A pool sized for `requested` concurrent chunk executors: the
    /// caller plus `min(requested, available_parallelism) - 1` parked
    /// workers. `requested <= 1` (or a single-core host) yields a pool
    /// with zero threads whose `run` executes inline.
    pub fn new(requested: usize) -> SiteParPool {
        let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        SiteParPool::spawn(requested.clamp(1, cores) - 1)
    }

    /// A pool with exactly `n_workers` threads, bypassing the host-core
    /// clamp — lets tests exercise the chunked paths on any host.
    #[cfg(test)]
    fn with_workers(n_workers: usize) -> SiteParPool {
        SiteParPool::spawn(n_workers)
    }

    fn spawn(n_workers: usize) -> SiteParPool {
        let inner = Arc::new(PoolInner {
            state: Mutex::new(PoolState { job: None, epoch: 0, shutdown: false }),
            work_cv: Condvar::new(),
            parked: AtomicUsize::new(0),
            jobs: AtomicU64::new(0),
            tasks: AtomicU64::new(0),
        });
        let handles = (0..n_workers)
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("sitepar-{}", i + 1))
                    .spawn(move || worker_loop(inner))
                    .expect("spawn sitepar worker")
            })
            .collect();
        SiteParPool { inner, handles }
    }

    /// Current pool counters.
    pub fn stats(&self) -> PoolStats {
        let queue_depth = {
            let st = self.inner.state.lock().unwrap();
            st.job
                .as_ref()
                .map(|j| j.n_tasks.saturating_sub(j.cursor.load(Ordering::Relaxed)))
                .unwrap_or(0)
        };
        PoolStats {
            workers: self.handles.len(),
            parked: self.inner.parked.load(Ordering::Relaxed),
            queue_depth,
            jobs: self.inner.jobs.load(Ordering::Relaxed),
            tasks: self.inner.tasks.load(Ordering::Relaxed),
        }
    }

    /// Executes `task(0..n_tasks)` across the pool; the calling thread
    /// participates and the call returns only when every task finished.
    /// Tasks must be independent (they run concurrently in any order).
    pub fn run(&self, n_tasks: usize, task: &(dyn Fn(usize) + Sync)) {
        if n_tasks == 0 {
            return;
        }
        self.inner.jobs.fetch_add(1, Ordering::Relaxed);
        if self.handles.is_empty() || n_tasks == 1 {
            for i in 0..n_tasks {
                task(i);
            }
            self.inner.tasks.fetch_add(n_tasks as u64, Ordering::Relaxed);
            return;
        }
        // SAFETY: erase the borrow lifetime of `task`. The pointer is
        // dereferenced only for claimed indices, all of which complete
        // before `job.wait()` returns below, i.e. within the borrow.
        let task_ptr: *const (dyn Fn(usize) + Sync) =
            unsafe { std::mem::transmute(task as *const (dyn Fn(usize) + Sync)) };
        let job = Arc::new(Job {
            task: task_ptr,
            cursor: AtomicUsize::new(0),
            n_tasks,
            pending: AtomicUsize::new(n_tasks),
            done_m: Mutex::new(()),
            done_cv: Condvar::new(),
        });
        {
            let mut st = self.inner.state.lock().unwrap();
            st.epoch += 1;
            st.job = Some(Arc::clone(&job));
        }
        self.inner.work_cv.notify_all();
        job.drain();
        self.inner.tasks.fetch_add(job.n_tasks as u64, Ordering::Relaxed);
        job.wait();
        // Unpublish so `task`'s borrow cannot outlive this call through
        // the pool state (workers holding stale Arcs see an exhausted
        // cursor and never touch the pointer again).
        let mut st = self.inner.state.lock().unwrap();
        if st.job.as_ref().is_some_and(|j| Arc::ptr_eq(j, &job)) {
            st.job = None;
        }
    }

    /// Parallel [`update_partials`] over `n_chunks` contiguous pattern
    /// ranges. Falls back to one serial kernel call for a single chunk or
    /// tiny pattern counts.
    pub fn update_partials(
        &self,
        layout: &Layout,
        left: Side<'_>,
        right: Side<'_>,
        out: &mut [f64],
        out_scale: &mut [u32],
        n_chunks: usize,
    ) {
        // Chunking with no workers is pure overhead (the caller would
        // execute every chunk itself, paying the per-chunk slicing and
        // SIMD block-remainder cost with zero concurrency), so a
        // worker-less pool always runs the one-call serial kernel.
        if n_chunks <= 1 || layout.patterns < 2 * n_chunks || self.handles.is_empty() {
            update_partials(layout, left, right, out, out_scale, 0..layout.patterns);
            return;
        }
        let ranges = split_ranges(layout.patterns, n_chunks);
        let stride = layout.pattern_stride();
        debug_assert!(out.len() >= layout.clv_len() && out_scale.len() >= layout.patterns);
        let out_ptr = SendPtr(out.as_mut_ptr());
        let scale_ptr = SendPtr(out_scale.as_mut_ptr());
        self.run(ranges.len(), &|i| {
            let range = ranges[i].clone();
            let sub = layout.slice(range.clone());
            // SAFETY: the ranges are disjoint and contiguous, so each
            // task writes a private slice of `out` / `out_scale`, all
            // within the caller's exclusive borrows.
            let (out_chunk, scale_chunk) = unsafe {
                (
                    std::slice::from_raw_parts_mut(
                        out_ptr.get().add(range.start * stride),
                        range.len() * stride,
                    ),
                    std::slice::from_raw_parts_mut(scale_ptr.get().add(range.start), range.len()),
                )
            };
            let l = slice_side(&left, layout, &range);
            let r = slice_side(&right, layout, &range);
            update_partials(&sub, l, r, out_chunk, scale_chunk, 0..sub.patterns);
        });
    }
}

impl Drop for SiteParPool {
    fn drop(&mut self) {
        {
            let mut st = self.inner.state.lock().unwrap();
            st.shutdown = true;
        }
        self.inner.work_cv.notify_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(inner: Arc<PoolInner>) {
    let mut seen_epoch = 0u64;
    loop {
        let job = {
            let mut st = inner.state.lock().unwrap();
            loop {
                if st.shutdown {
                    return;
                }
                if st.epoch != seen_epoch {
                    seen_epoch = st.epoch;
                    if let Some(job) = st.job.clone() {
                        break job;
                    }
                    // Job already unpublished (finished): nothing to help.
                    continue;
                }
                inner.parked.fetch_add(1, Ordering::Relaxed);
                st = inner.work_cv.wait(st).unwrap();
                inner.parked.fetch_sub(1, Ordering::Relaxed);
            }
        };
        job.drain();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tips::TipTable;

    const DNA_MASKS: [u32; 5] = [0b0001, 0b0010, 0b0100, 0b1000, 0b1111];

    fn jc_pmatrix(t: f64) -> Vec<f64> {
        let e = (-4.0 * t / 3.0f64).exp();
        let same = 0.25 + 0.75 * e;
        let diff = 0.25 - 0.25 * e;
        let mut p = vec![diff; 16];
        for i in 0..4 {
            p[i * 4 + i] = same;
        }
        p
    }

    #[test]
    fn split_ranges_cover() {
        for patterns in [1usize, 7, 100, 101] {
            for chunks in [1usize, 2, 3, 8, 200] {
                let rs = split_ranges(patterns, chunks);
                assert_eq!(rs[0].start, 0);
                assert_eq!(rs.last().unwrap().end, patterns);
                for w in rs.windows(2) {
                    assert_eq!(w[0].end, w[1].start);
                }
            }
        }
    }

    #[test]
    fn parallel_matches_serial_update() {
        let patterns = 101;
        let layout = Layout::new(patterns, 2, 4);
        let mut pm = jc_pmatrix(0.2);
        pm.extend(jc_pmatrix(0.6));
        let table = TipTable::build(&layout, &pm, &DNA_MASKS);
        let codes1: Vec<u8> = (0..patterns).map(|i| (i % 5) as u8).collect();
        let codes2: Vec<u8> = (0..patterns).map(|i| ((i * 3 + 1) % 5) as u8).collect();
        let left = Side::Tip { table: &table, codes: &codes1 };
        let right = Side::Tip { table: &table, codes: &codes2 };
        let mut serial = vec![0.0; layout.clv_len()];
        let mut serial_scale = vec![0u32; patterns];
        update_partials(&layout, left, right, &mut serial, &mut serial_scale, 0..patterns);
        // Unclamped pool: the chunked path runs even on a one-core host.
        let pool = SiteParPool::with_workers(2);
        for threads in [2usize, 3, 7] {
            let mut par = vec![0.0; layout.clv_len()];
            let mut par_scale = vec![0u32; patterns];
            pool.update_partials(&layout, left, right, &mut par, &mut par_scale, threads);
            assert_eq!(serial, par, "threads={threads}");
            assert_eq!(serial_scale, par_scale);
        }
        // A host-clamped pool agrees too.
        let mut par = vec![0.0; layout.clv_len()];
        let mut par_scale = vec![0u32; patterns];
        SiteParPool::new(4).update_partials(&layout, left, right, &mut par, &mut par_scale, 4);
        assert_eq!(serial, par);
        assert_eq!(serial_scale, par_scale);
    }

    #[test]
    fn tiny_inputs_fall_back_to_serial() {
        let layout = Layout::new(3, 1, 4);
        let pm = jc_pmatrix(0.2);
        let table = TipTable::build(&layout, &pm, &DNA_MASKS);
        let codes = [0u8, 1, 2];
        let mut out = vec![0.0; layout.clv_len()];
        let mut scale = vec![0u32; 3];
        SiteParPool::with_workers(2).update_partials(
            &layout,
            Side::Tip { table: &table, codes: &codes },
            Side::Tip { table: &table, codes: &codes },
            &mut out,
            &mut scale,
            8,
        );
        assert!(out.iter().any(|&v| v > 0.0));
    }

    /// The pool is the whole point: repeated calls must reuse it (no
    /// spawn per call) and its counters must reflect the traffic.
    #[test]
    fn pool_reuses_workers_and_counts_jobs() {
        let pool = SiteParPool::new(4);
        let stats0 = pool.stats();
        assert_eq!(stats0.jobs, 0);
        let hits = AtomicUsize::new(0);
        for _ in 0..10 {
            pool.run(8, &|_i| {
                hits.fetch_add(1, Ordering::Relaxed);
            });
        }
        assert_eq!(hits.load(Ordering::Relaxed), 80);
        let stats = pool.stats();
        assert_eq!(stats.jobs, 10);
        assert_eq!(stats.tasks, 80);
        assert_eq!(stats.queue_depth, 0, "all jobs drained");
        // Worker count is host-dependent but bounded by the request.
        assert!(stats.workers < 4);
    }

    /// Every task index is executed exactly once even when tasks outnumber
    /// pool threads many times over.
    #[test]
    fn pool_executes_each_task_exactly_once() {
        let pool = SiteParPool::new(3);
        let marks: Vec<AtomicUsize> = (0..97).map(|_| AtomicUsize::new(0)).collect();
        pool.run(marks.len(), &|i| {
            marks[i].fetch_add(1, Ordering::Relaxed);
        });
        for (i, m) in marks.iter().enumerate() {
            assert_eq!(m.load(Ordering::Relaxed), 1, "task {i}");
        }
    }

    /// Dropping a pool must join its workers promptly (no deadlock).
    #[test]
    fn pool_shutdown_joins_workers() {
        let pool = SiteParPool::new(4);
        pool.run(4, &|_| {});
        drop(pool);
    }

    /// Concurrent `run` calls from independent threads may overlap; each
    /// caller must still see all of its own tasks complete.
    #[test]
    fn pool_survives_concurrent_callers() {
        let pool = SiteParPool::new(4);
        let total = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..25 {
                        pool.run(7, &|_| {
                            total.fetch_add(1, Ordering::Relaxed);
                        });
                    }
                });
            }
        });
        assert_eq!(total.load(Ordering::Relaxed), 4 * 25 * 7);
    }
}
