//! The shard supervision engine.
//!
//! [`supervise`] drives a fleet of shard workers to completion through
//! an abstract [`Worker`] handle, so the full failure matrix — crash,
//! hang, straggler, launch failure, retry exhaustion, graceful drain,
//! hard abort — is unit-testable with scripted fakes; the real
//! subprocess implementation lives in [`crate::process`].
//!
//! The loop is a plain poll-based state machine (one slot per shard:
//! pending → running → done). Failure handling:
//!
//! * **crash** — the worker exits nonzero: re-queue with capped
//!   exponential backoff + deterministic jitter ([`phylo_amc::Backoff`],
//!   per-shard seed). A worker that exits 2 rejected its *inputs*; that
//!   is a work-directory inconsistency a retry cannot fix, so it fails
//!   the whole run immediately instead of burning retries.
//! * **hang** — no heartbeat within the timeout: SIGKILL and re-queue.
//! * **straggler** — a worker whose progress rate falls below the fleet
//!   median by `straggler_factor`: kill and re-queue (its journal keeps
//!   every durable chunk, so the retry starts from where it stalled).
//! * **retries exhausted** — a shard that failed `max_retries + 1`
//!   times fails the run with a typed [`ShardError::RetriesExhausted`].
//!
//! Because every worker checkpoint-journals its chunks, a re-queued
//! shard resumes instead of recomputing; the supervisor never loses
//! durable work, only the in-flight chunk of the killed attempt.

use crate::shutdown::{Phase, Shutdown};
use std::io;
use std::time::{Duration, Instant};

/// Supervision policy knobs.
#[derive(Debug, Clone)]
pub struct ShardConfig {
    /// Shards to run (the coordinator clamps this to the query count).
    pub n_shards: usize,
    /// Concurrent workers; 0 means one per shard.
    pub max_workers: usize,
    /// A worker silent for longer than this is presumed hung.
    pub heartbeat_timeout: Duration,
    /// Kill a worker whose rate is below fleet-median / this factor.
    pub straggler_factor: f64,
    /// Workers younger than this are exempt from straggler detection.
    pub straggler_grace: Duration,
    /// Re-queues allowed per shard before the run fails.
    pub max_retries: u32,
    /// First re-queue delay (doubles per attempt).
    pub backoff_base: Duration,
    /// Re-queue delay ceiling.
    pub backoff_cap: Duration,
    /// Supervision loop poll interval.
    pub poll_interval: Duration,
    /// How long a draining run waits for SIGTERMed workers before
    /// SIGKILLing them.
    pub term_grace: Duration,
    /// Seed for the per-shard backoff jitter streams.
    pub seed: u64,
}

impl Default for ShardConfig {
    fn default() -> Self {
        ShardConfig {
            n_shards: 1,
            max_workers: 0,
            heartbeat_timeout: Duration::from_secs(30),
            straggler_factor: 8.0,
            straggler_grace: Duration::from_secs(5),
            max_retries: 3,
            backoff_base: Duration::from_millis(200),
            backoff_cap: Duration::from_secs(5),
            poll_interval: Duration::from_millis(15),
            term_grace: Duration::from_secs(5),
            seed: 0x5eed_1e55,
        }
    }
}

/// A snapshot of one worker's heartbeat state.
#[derive(Debug, Clone, Copy, Default)]
pub struct WorkerProgress {
    /// Heartbeats received.
    pub beats: u64,
    /// From the latest heartbeat.
    pub chunks_done: usize,
    /// From the latest heartbeat.
    pub n_chunks: usize,
    /// From the latest heartbeat.
    pub queries_done: usize,
    /// From the latest heartbeat.
    pub n_queries: usize,
    /// When the latest heartbeat arrived.
    pub last_beat: Option<Instant>,
}

/// One supervised worker attempt. `try_wait` must be non-blocking.
pub trait Worker: Send {
    /// `Some(exit_code)` once the worker has exited (`-1` for
    /// killed-by-signal), `None` while running.
    fn try_wait(&mut self) -> io::Result<Option<i32>>;
    /// Polite stop request (SIGTERM); the worker drains and exits 3.
    fn terminate(&mut self);
    /// Hard stop (SIGKILL) and reap.
    fn kill(&mut self);
    /// Current heartbeat snapshot.
    fn progress(&self) -> WorkerProgress;
}

/// What the fleet did, for metrics and assertions.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardReport {
    /// Worker processes launched (first attempts + retries).
    pub launched: u64,
    /// Shard re-queues, of any cause.
    pub requeues: u64,
    /// Re-queues caused by nonzero exits or launch failures.
    pub crashes: u64,
    /// Re-queues caused by heartbeat-timeout kills.
    pub hangs: u64,
    /// Re-queues caused by straggler kills.
    pub stragglers: u64,
    /// Final attempt index per shard (0 = succeeded first try).
    pub attempts: Vec<u32>,
}

/// Why a sharded run failed. The variants map onto the binary's exit
/// contract: `BadInput` → 2, `Interrupted` → 3, `Aborted` → 130, the
/// rest → 1.
#[derive(Debug)]
pub enum ShardError {
    /// Malformed input or an inconsistent/mismatched work directory.
    BadInput(String),
    /// A shard failed `max_retries + 1` attempts; `last` is the final
    /// failure's description.
    RetriesExhausted { shard: usize, attempts: u32, last: String },
    /// Any other runtime failure (I/O, merge, worker output).
    Runtime(String),
    /// Graceful cancellation (signal or deadline) drained the fleet.
    Interrupted,
    /// A second signal hard-aborted the fleet.
    Aborted,
}

impl ShardError {
    /// Process exit status under the CLI contract: `2` usage/input
    /// error, `3` interrupted, `130` aborted, `1` everything else.
    pub fn exit_code(&self) -> i32 {
        match self {
            ShardError::BadInput(_) => 2,
            ShardError::Interrupted => crate::shutdown::EXIT_INTERRUPTED,
            ShardError::Aborted => crate::shutdown::EXIT_ABORTED,
            ShardError::RetriesExhausted { .. } | ShardError::Runtime(_) => 1,
        }
    }
}

impl std::fmt::Display for ShardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardError::BadInput(msg) => write!(f, "{msg}"),
            ShardError::RetriesExhausted { shard, attempts, last } => write!(
                f,
                "shard {shard} failed {attempts} attempts (last: {last}); \
                 giving up — the shard's journal keeps its durable chunks for a future rerun"
            ),
            ShardError::Runtime(msg) => write!(f, "{msg}"),
            ShardError::Interrupted => write!(
                f,
                "interrupted: workers drained; every finished chunk is durable — \
                 rerun with the same --workdir to complete"
            ),
            ShardError::Aborted => write!(f, "aborted on second signal; workers killed"),
        }
    }
}

impl std::error::Error for ShardError {}

/// Indices whose rate is below `median / factor`. Requires at least
/// three samples (no meaningful median below that) and `factor > 1`.
/// A zero median (nobody has progressed) never marks stragglers.
pub fn stragglers(rates: &[f64], factor: f64) -> Vec<usize> {
    if rates.len() < 3 || !(factor > 1.0) {
        return Vec::new();
    }
    let mut sorted: Vec<f64> = rates.iter().copied().filter(|r| r.is_finite()).collect();
    if sorted.len() != rates.len() {
        return Vec::new();
    }
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let mid = sorted.len() / 2;
    let median =
        if sorted.len() % 2 == 1 { sorted[mid] } else { (sorted[mid - 1] + sorted[mid]) / 2.0 };
    if median <= 0.0 {
        return Vec::new();
    }
    (0..rates.len()).filter(|&i| rates[i] * factor < median).collect()
}

enum Slot {
    Pending { attempt: u32, not_before: Instant },
    Running { worker: Box<dyn Worker>, attempt: u32, started: Instant },
    Done,
}

impl Slot {
    fn is_running(&self) -> bool {
        matches!(self, Slot::Running { .. })
    }
}

/// Drives all `cfg.n_shards` shards to completion. `launch(shard,
/// attempt)` starts one worker attempt; the supervisor owns the rest.
pub fn supervise<L>(
    cfg: &ShardConfig,
    shutdown: &Shutdown,
    mut launch: L,
) -> Result<ShardReport, ShardError>
where
    L: FnMut(usize, u32) -> io::Result<Box<dyn Worker>>,
{
    let n = cfg.n_shards;
    if n == 0 {
        return Err(ShardError::BadInput("need at least one shard".to_string()));
    }
    let now = Instant::now();
    let mut slots: Vec<Slot> =
        (0..n).map(|_| Slot::Pending { attempt: 0, not_before: now }).collect();
    let mut report = ShardReport { attempts: vec![0; n], ..ShardReport::default() };
    let result = run_loop(cfg, shutdown, &mut launch, &mut slots, &mut report);
    match result {
        Ok(()) => Ok(report),
        Err(ShardError::Interrupted) => {
            drain(cfg, &mut slots);
            Err(ShardError::Interrupted)
        }
        Err(e) => {
            for slot in &mut slots {
                if let Slot::Running { worker, .. } = slot {
                    worker.kill();
                }
            }
            Err(e)
        }
    }
}

fn run_loop<L>(
    cfg: &ShardConfig,
    shutdown: &Shutdown,
    launch: &mut L,
    slots: &mut Vec<Slot>,
    report: &mut ShardReport,
) -> Result<(), ShardError>
where
    L: FnMut(usize, u32) -> io::Result<Box<dyn Worker>>,
{
    let n = cfg.n_shards;
    let max_workers = if cfg.max_workers == 0 { n } else { cfg.max_workers.max(1) };
    let mut backoffs: Vec<phylo_amc::Backoff> = (0..n)
        .map(|shard| {
            phylo_amc::Backoff::with_seed(
                cfg.backoff_base,
                cfg.backoff_cap,
                cfg.seed ^ (shard as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15),
            )
        })
        .collect();
    let mut requeue = |slots: &mut Vec<Slot>,
                       report: &mut ShardReport,
                       shard: usize,
                       attempt: u32,
                       why: String|
     -> Result<(), ShardError> {
        let next = attempt + 1;
        if next > cfg.max_retries {
            return Err(ShardError::RetriesExhausted { shard, attempts: next, last: why });
        }
        report.requeues += 1;
        phylo_obs::counter!("shard.requeues").inc();
        slots[shard] = Slot::Pending {
            attempt: next,
            not_before: Instant::now() + backoffs[shard].next_delay(),
        };
        Ok(())
    };

    loop {
        match shutdown.phase() {
            Phase::Aborting => {
                for slot in slots.iter_mut() {
                    if let Slot::Running { worker, .. } = slot {
                        worker.kill();
                    }
                }
                return Err(ShardError::Aborted);
            }
            Phase::Draining => return Err(ShardError::Interrupted),
            Phase::Running => {}
        }

        let now = Instant::now();
        // Launch due pending shards, capped by the worker budget.
        let mut running = slots.iter().filter(|s| s.is_running()).count();
        for shard in 0..n {
            if running >= max_workers {
                break;
            }
            let Slot::Pending { attempt, not_before } = slots[shard] else { continue };
            if not_before > now {
                continue;
            }
            match launch(shard, attempt) {
                Ok(worker) => {
                    report.launched += 1;
                    report.attempts[shard] = attempt;
                    phylo_obs::counter!("shard.launched").inc();
                    slots[shard] = Slot::Running { worker, attempt, started: now };
                    running += 1;
                }
                Err(e) => {
                    report.crashes += 1;
                    requeue(slots, report, shard, attempt, format!("launch failed: {e}"))?;
                }
            }
        }

        // Poll running workers: exits, then hangs.
        for shard in 0..n {
            if !slots[shard].is_running() {
                continue;
            }
            let Slot::Running { mut worker, attempt, started } =
                std::mem::replace(&mut slots[shard], Slot::Done)
            else {
                unreachable!()
            };
            match worker.try_wait() {
                Ok(Some(0)) => {} // Done (already in place).
                Ok(Some(2)) => {
                    return Err(ShardError::BadInput(format!(
                        "shard {shard}: worker rejected its inputs (exit 2); the work \
                         directory no longer matches this invocation — remove it or rerun \
                         with the original inputs"
                    )));
                }
                Ok(Some(code)) => {
                    report.crashes += 1;
                    phylo_obs::counter!("shard.crashes").inc();
                    let why = if code < 0 {
                        "killed by signal".to_string()
                    } else {
                        format!("exit status {code}")
                    };
                    requeue(slots, report, shard, attempt, why)?;
                }
                Ok(None) => {
                    let p = worker.progress();
                    let quiet_since = p.last_beat.unwrap_or(started);
                    if now.saturating_duration_since(quiet_since) > cfg.heartbeat_timeout {
                        worker.kill();
                        report.hangs += 1;
                        phylo_obs::counter!("shard.hangs").inc();
                        requeue(
                            slots,
                            report,
                            shard,
                            attempt,
                            format!("no heartbeat for {:.1}s", cfg.heartbeat_timeout.as_secs_f64()),
                        )?;
                    } else {
                        slots[shard] = Slot::Running { worker, attempt, started };
                    }
                }
                Err(e) => {
                    worker.kill();
                    report.crashes += 1;
                    requeue(slots, report, shard, attempt, format!("wait failed: {e}"))?;
                }
            }
        }

        // Straggler pass over the still-running fleet.
        let samples: Vec<(usize, f64)> = slots
            .iter()
            .enumerate()
            .filter_map(|(shard, slot)| {
                let Slot::Running { worker, started, .. } = slot else { return None };
                let elapsed = now.saturating_duration_since(*started);
                if elapsed < cfg.straggler_grace {
                    return None;
                }
                let p = worker.progress();
                if p.beats == 0 {
                    return None;
                }
                Some((shard, p.queries_done as f64 / elapsed.as_secs_f64().max(1e-9)))
            })
            .collect();
        let rates: Vec<f64> = samples.iter().map(|&(_, r)| r).collect();
        for idx in stragglers(&rates, cfg.straggler_factor) {
            let shard = samples[idx].0;
            let Slot::Running { mut worker, attempt, .. } =
                std::mem::replace(&mut slots[shard], Slot::Done)
            else {
                continue;
            };
            worker.kill();
            report.stragglers += 1;
            phylo_obs::counter!("shard.stragglers").inc();
            requeue(
                slots,
                report,
                shard,
                attempt,
                format!("straggler: {:.2} queries/s vs fleet median", samples[idx].1),
            )?;
        }

        if slots.iter().all(|s| matches!(s, Slot::Done)) {
            return Ok(());
        }
        std::thread::sleep(cfg.poll_interval);
    }
}

/// Graceful drain: SIGTERM every running worker, give them `term_grace`
/// to write their durable prefix and exit, then SIGKILL holdouts.
fn drain(cfg: &ShardConfig, slots: &mut [Slot]) {
    for slot in slots.iter_mut() {
        if let Slot::Running { worker, .. } = slot {
            worker.terminate();
        }
    }
    let deadline = Instant::now() + cfg.term_grace;
    loop {
        let mut alive = 0usize;
        for slot in slots.iter_mut() {
            if let Slot::Running { worker, .. } = slot {
                match worker.try_wait() {
                    Ok(Some(_)) => *slot = Slot::Done,
                    _ => alive += 1,
                }
            }
        }
        if alive == 0 {
            return;
        }
        if Instant::now() >= deadline {
            break;
        }
        std::thread::sleep(cfg.poll_interval);
    }
    for slot in slots.iter_mut() {
        if let Slot::Running { worker, .. } = slot {
            worker.kill();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    /// Scripted worker: exits with `exit` after `polls` try_waits; beats
    /// on every progress() call when `beating`.
    struct Fake {
        polls: u32,
        exit: i32,
        beating: bool,
        kills: Arc<AtomicU64>,
        killed: bool,
    }

    impl Worker for Fake {
        fn try_wait(&mut self) -> io::Result<Option<i32>> {
            if self.killed {
                return Ok(Some(-1));
            }
            if self.polls == 0 {
                Ok(Some(self.exit))
            } else {
                self.polls -= 1;
                Ok(None)
            }
        }
        fn terminate(&mut self) {
            self.polls = 0;
            self.exit = 3;
        }
        fn kill(&mut self) {
            self.killed = true;
            self.kills.fetch_add(1, Ordering::SeqCst);
        }
        fn progress(&self) -> WorkerProgress {
            WorkerProgress {
                beats: u64::from(self.beating),
                last_beat: self.beating.then(Instant::now),
                ..WorkerProgress::default()
            }
        }
    }

    fn quick_cfg(n: usize) -> ShardConfig {
        ShardConfig {
            n_shards: n,
            heartbeat_timeout: Duration::from_millis(40),
            straggler_grace: Duration::from_secs(600),
            backoff_base: Duration::from_millis(1),
            backoff_cap: Duration::from_millis(2),
            poll_interval: Duration::from_millis(1),
            term_grace: Duration::from_millis(50),
            ..ShardConfig::default()
        }
    }

    fn fake(polls: u32, exit: i32, kills: &Arc<AtomicU64>) -> Box<dyn Worker> {
        Box::new(Fake { polls, exit, beating: true, kills: kills.clone(), killed: false })
    }

    #[test]
    fn clean_fleet_finishes_without_requeues() {
        let kills = Arc::new(AtomicU64::new(0));
        let report =
            supervise(&quick_cfg(3), &Shutdown::new(), |_, _| Ok(fake(2, 0, &kills))).unwrap();
        assert_eq!(report.launched, 3);
        assert_eq!(report.requeues, 0);
        assert_eq!(report.attempts, vec![0, 0, 0]);
        assert_eq!(kills.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn crashed_worker_is_requeued_and_recovers() {
        let kills = Arc::new(AtomicU64::new(0));
        let report = supervise(&quick_cfg(2), &Shutdown::new(), |shard, attempt| {
            // Shard 1 crashes on its first attempt only.
            let exit = if shard == 1 && attempt == 0 { 1 } else { 0 };
            Ok(fake(1, exit, &kills))
        })
        .unwrap();
        assert_eq!(report.crashes, 1);
        assert_eq!(report.requeues, 1);
        assert_eq!(report.launched, 3);
        assert_eq!(report.attempts, vec![0, 1]);
    }

    #[test]
    fn hung_worker_is_killed_and_requeued() {
        let kills = Arc::new(AtomicU64::new(0));
        let report = supervise(&quick_cfg(1), &Shutdown::new(), |_, attempt| {
            Ok(if attempt == 0 {
                // Never exits, never beats: a hang.
                Box::new(Fake {
                    polls: u32::MAX,
                    exit: 0,
                    beating: false,
                    kills: kills.clone(),
                    killed: false,
                })
            } else {
                fake(1, 0, &kills)
            })
        })
        .unwrap();
        assert_eq!(report.hangs, 1);
        assert_eq!(report.requeues, 1);
        assert!(kills.load(Ordering::SeqCst) >= 1, "the hung worker was killed");
    }

    #[test]
    fn retries_exhaust_into_a_typed_error() {
        let kills = Arc::new(AtomicU64::new(0));
        let cfg = ShardConfig { max_retries: 2, ..quick_cfg(1) };
        let err = supervise(&cfg, &Shutdown::new(), |_, _| Ok(fake(0, 1, &kills))).unwrap_err();
        match err {
            ShardError::RetriesExhausted { shard: 0, attempts: 3, .. } => {}
            other => panic!("expected RetriesExhausted, got {other}"),
        }
    }

    #[test]
    fn worker_exit_2_fails_fast_as_bad_input() {
        let kills = Arc::new(AtomicU64::new(0));
        let launches = Arc::new(AtomicU64::new(0));
        let l2 = launches.clone();
        let err = supervise(&quick_cfg(1), &Shutdown::new(), move |_, _| {
            l2.fetch_add(1, Ordering::SeqCst);
            Ok(fake(0, 2, &kills))
        })
        .unwrap_err();
        assert!(matches!(err, ShardError::BadInput(_)), "{err}");
        assert_eq!(launches.load(Ordering::SeqCst), 1, "no retries for rejected inputs");
    }

    #[test]
    fn launch_failure_counts_as_crash_and_retries() {
        let kills = Arc::new(AtomicU64::new(0));
        let report = supervise(&quick_cfg(1), &Shutdown::new(), |_, attempt| {
            if attempt == 0 {
                Err(io::Error::other("spawn failed"))
            } else {
                Ok(fake(1, 0, &kills))
            }
        })
        .unwrap();
        assert_eq!(report.crashes, 1);
        assert_eq!(report.requeues, 1);
        assert_eq!(report.launched, 1, "only the successful attempt launched");
    }

    #[test]
    fn drain_on_first_signal_aborts_on_second() {
        let kills = Arc::new(AtomicU64::new(0));
        let shutdown = Shutdown::new();
        shutdown.on_signal();
        let err =
            supervise(&quick_cfg(2), &shutdown, |_, _| Ok(fake(1000, 0, &kills))).unwrap_err();
        assert!(matches!(err, ShardError::Interrupted), "{err}");

        let shutdown = Shutdown::new();
        shutdown.on_signal();
        shutdown.on_signal();
        let err =
            supervise(&quick_cfg(2), &shutdown, |_, _| Ok(fake(1000, 0, &kills))).unwrap_err();
        assert!(matches!(err, ShardError::Aborted), "{err}");
    }

    #[test]
    fn straggler_median_math() {
        assert!(stragglers(&[1.0, 2.0], 8.0).is_empty(), "needs three samples");
        assert!(stragglers(&[0.0, 0.0, 0.0], 8.0).is_empty(), "zero median never fires");
        assert_eq!(stragglers(&[10.0, 9.0, 1.0], 8.0), vec![2]);
        assert!(stragglers(&[10.0, 9.0, 2.0], 8.0).is_empty(), "2.0 * 8 > 9.5 median");
        assert_eq!(stragglers(&[10.0, 12.0, 11.0, 0.5], 8.0), vec![3]);
        assert!(stragglers(&[10.0, 9.0, 1.0], 1.0).is_empty(), "factor must exceed 1");
        assert!(stragglers(&[f64::NAN, 9.0, 1.0], 8.0).is_empty(), "non-finite rates bail");
    }

    #[test]
    fn slow_worker_is_killed_as_a_straggler() {
        let kills = Arc::new(AtomicU64::new(0));
        // Stragglers need real rates: fake progress via a custom worker.
        struct Paced {
            queries_done: usize,
            kills: Arc<AtomicU64>,
            done_after: Instant,
        }
        impl Worker for Paced {
            fn try_wait(&mut self) -> io::Result<Option<i32>> {
                Ok((Instant::now() >= self.done_after).then_some(0))
            }
            fn terminate(&mut self) {}
            fn kill(&mut self) {
                self.kills.fetch_add(1, Ordering::SeqCst);
                self.done_after = Instant::now();
            }
            fn progress(&self) -> WorkerProgress {
                WorkerProgress {
                    beats: 1,
                    queries_done: self.queries_done,
                    last_beat: Some(Instant::now()),
                    ..WorkerProgress::default()
                }
            }
        }
        let cfg = ShardConfig {
            straggler_grace: Duration::from_millis(10),
            heartbeat_timeout: Duration::from_secs(60),
            ..quick_cfg(3)
        };
        let report = supervise(&cfg, &Shutdown::new(), |shard, attempt| {
            let healthy = shard != 2 || attempt > 0;
            Ok(Box::new(Paced {
                queries_done: if healthy { 1000 } else { 0 },
                kills: kills.clone(),
                done_after: Instant::now()
                    + if healthy { Duration::from_millis(60) } else { Duration::from_secs(600) },
            }) as Box<dyn Worker>)
        })
        .unwrap();
        assert_eq!(report.stragglers, 1);
        assert_eq!(report.requeues, 1);
        assert_eq!(report.attempts, vec![0, 0, 1]);
    }
}
