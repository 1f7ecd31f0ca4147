//! The daemon loop: transports, per-connection readers/writers, the
//! admission queue, the micro-batching executor, and the drain state
//! machine.
//!
//! Threading model (all isolation is structural):
//!
//! * one **reader** thread per connection — parses lines, answers
//!   `status`/`cancel` inline, admits `place` jobs (or rejects them
//!   with a typed code, never blocking);
//! * one **writer** thread per connection, fed over a channel — a slow
//!   or stalled client delays only its own responses, never the engine
//!   or other connections;
//! * one **executor** thread per run the warm engine admits at once
//!   ([`WarmEngine::runs`]: one per core without `--maxmem`, else one)
//!   — each pops micro-batches from the one admission queue, runs them
//!   under the one shared pressure ladder, and routes each response to
//!   its connection;
//! * one **deadline sweeper**, which arms expired requests' tokens.
//!
//! Shutdown: the first SIGTERM/SIGINT (via [`phylo_shard::Shutdown`])
//! moves to Draining — readers stop admitting (typed `Draining`
//! rejections), the executors finish everything already admitted
//! (each request ends in a valid response), the sweeper stops, and
//! `run` returns so the binary exits 0. A second SIGINT is handled by
//! the binary's watchdog (exit 130). On stdio, EOF on stdin is an
//! implicit drain: finish the backlog, then return.

use crate::engine::WarmEngine;
use crate::proto::{self, Code, Field, Request};
use crate::queue::{AdmissionQueue, PressureLadder};
use phylo_amc::CancelToken;
use phylo_seq::Sequence;
use phylo_shard::{Phase, Shutdown};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// Server knobs (the transport is picked separately).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Admission queue capacity; 0 sheds every request (drill mode).
    pub queue_cap: usize,
    /// Max requests merged into one warm engine run.
    pub batch_max: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig { queue_cap: 64, batch_max: 8 }
    }
}

/// Where requests come from.
#[derive(Debug, Clone)]
pub enum Transport {
    /// Requests on stdin, responses on stdout (single connection).
    Stdio,
    /// A Unix-domain socket listener.
    Unix(std::path::PathBuf),
    /// A TCP listener, e.g. `127.0.0.1:7717`.
    Tcp(String),
}

/// One admitted placement job.
struct PlaceJob {
    id: String,
    rows: Vec<Sequence>,
    cancel: CancelToken,
    deadline: Option<Instant>,
    conn: ConnHandle,
}

/// The write side of a connection plus its in-flight request registry
/// (cancellation targets requests on the *same* connection).
#[derive(Clone)]
struct ConnHandle {
    tx: mpsc::Sender<String>,
    registry: Arc<Mutex<HashMap<String, CancelToken>>>,
    /// Server-wide count of responses accepted but not yet flushed:
    /// the drain path waits for it to hit zero before exiting, so a
    /// SIGTERM never races a response out of existence.
    pending: Arc<AtomicUsize>,
}

impl ConnHandle {
    fn send(&self, line: String) {
        self.pending.fetch_add(1, Ordering::SeqCst);
        // A dead writer (client went away) drops responses on the
        // floor; the engine result is already computed and the daemon
        // must not care.
        if self.tx.send(line).is_err() {
            self.pending.fetch_sub(1, Ordering::SeqCst);
        }
    }
}

/// Counters surfaced by the `status` op. These are per daemon; each is
/// mirrored into a `serve.*` probe, which is per process.
#[derive(Default)]
struct Tally {
    requests: AtomicU64,
    served: AtomicU64,
    shed: AtomicU64,
    bad: AtomicU64,
    deadline: AtomicU64,
    cancelled: AtomicU64,
    internal: AtomicU64,
}

struct ServerState {
    engine: WarmEngine,
    queue: AdmissionQueue<PlaceJob>,
    shutdown: Shutdown,
    cfg: ServeConfig,
    tally: Tally,
    /// Requests in the runs of every executor.
    in_flight: AtomicUsize,
    /// The executors' one ladder: every run's verdict moves it.
    ladder: Mutex<PressureLadder>,
    batch_budget: AtomicUsize,
    /// Set when the (stdio) input stream hit EOF: drain and return.
    admission_closed: AtomicBool,
    /// Responses handed to writer threads but not yet flushed.
    pending_writes: Arc<AtomicUsize>,
    started: Instant,
    deadlines: Mutex<Vec<(Instant, CancelToken)>>,
}

impl ServerState {
    fn new(engine: WarmEngine, cfg: ServeConfig, shutdown: Shutdown) -> Arc<ServerState> {
        Arc::new(ServerState {
            queue: AdmissionQueue::new(cfg.queue_cap),
            ladder: Mutex::new(PressureLadder::new(cfg.batch_max)),
            batch_budget: AtomicUsize::new(cfg.batch_max.max(1)),
            engine,
            shutdown,
            cfg,
            tally: Tally::default(),
            in_flight: AtomicUsize::new(0),
            admission_closed: AtomicBool::new(false),
            pending_writes: Arc::new(AtomicUsize::new(0)),
            started: Instant::now(),
            deadlines: Mutex::new(Vec::new()),
        })
    }

    fn phase(&self) -> Phase {
        self.shutdown.phase()
    }

    fn status_line(&self, id: &str) -> String {
        let phase = match self.phase() {
            Phase::Running => "running",
            Phase::Draining => "draining",
            Phase::Aborting => "aborting",
        };
        let fp = self.engine.fingerprint();
        proto::render(&[
            Field::Str("id", id),
            Field::Bool("ok", true),
            Field::Str("code", Code::Ok.as_str()),
            Field::Str("phase", phase),
            Field::Int("queue_depth", self.queue.depth() as i64),
            Field::Int("queue_cap", self.queue.capacity() as i64),
            Field::Int("in_flight", self.in_flight.load(Ordering::SeqCst) as i64),
            Field::Int("runs", self.engine.runs() as i64),
            Field::Int("batch_budget", self.batch_budget.load(Ordering::SeqCst) as i64),
            Field::Str("fingerprint", &fp),
            Field::Int("slots", self.engine.slots() as i64),
            Field::Bool("lookup", self.engine.use_lookup()),
            Field::Int("requests", self.tally.requests.load(Ordering::Relaxed) as i64),
            Field::Int("served", self.tally.served.load(Ordering::Relaxed) as i64),
            Field::Int("shed", self.tally.shed.load(Ordering::Relaxed) as i64),
            Field::Int("bad_request", self.tally.bad.load(Ordering::Relaxed) as i64),
            Field::Int("deadline_expired", self.tally.deadline.load(Ordering::Relaxed) as i64),
            Field::Int("cancelled", self.tally.cancelled.load(Ordering::Relaxed) as i64),
            Field::Int("internal_errors", self.tally.internal.load(Ordering::Relaxed) as i64),
            Field::Int("uptime_ms", self.started.elapsed().as_millis() as i64),
        ])
    }

    /// Arms `token` to fire at `at`; the deadline thread sweeps.
    fn arm_deadline(&self, at: Instant, token: CancelToken) {
        self.deadlines.lock().unwrap_or_else(|e| e.into_inner()).push((at, token));
    }

    fn sweep_deadlines(&self) {
        let now = Instant::now();
        let mut v = self.deadlines.lock().unwrap_or_else(|e| e.into_inner());
        v.retain(|(at, token)| {
            if token.is_cancelled() {
                return false;
            }
            if now >= *at {
                token.cancel();
                return false;
            }
            true
        });
    }
}

/// The threads that outlive every connection: the deadline sweeper
/// and the executors. [`Workers::drain`] joins them all.
struct Workers {
    executors: Vec<std::thread::JoinHandle<()>>,
    sweeper: std::thread::JoinHandle<()>,
    /// Dropping it stops the sweeper.
    stop_sweeper: mpsc::Sender<()>,
}

impl Workers {
    fn start(state: &Arc<ServerState>) -> Workers {
        // One sweeper for every request (not one thread per deadline).
        let (stop_sweeper, stopped) = mpsc::channel::<()>();
        let sweeper = {
            let state = Arc::clone(state);
            std::thread::spawn(move || {
                while stopped.recv_timeout(Duration::from_millis(10))
                    == Err(mpsc::RecvTimeoutError::Timeout)
                {
                    state.sweep_deadlines();
                }
            })
        };
        let executors = (0..state.engine.runs())
            .map(|_| {
                let state = Arc::clone(state);
                std::thread::spawn(move || executor_loop(&state))
            })
            .collect();
        Workers { executors, sweeper, stop_sweeper }
    }

    /// Waits for the executors to finish the backlog, stops the sweeper
    /// and waits for the flush, so that no thread of the daemon keeps
    /// its state alive once `run` has returned.
    fn drain(self, state: &ServerState) -> Result<(), String> {
        let panicked = self.executors.into_iter().map(|e| e.join()).filter(Result::is_err).count();
        drop(self.stop_sweeper);
        let sweeper = self.sweeper.join();
        await_flush(state);
        match (panicked, sweeper) {
            (0, Ok(())) => Ok(()),
            (0, Err(_)) => Err("deadline sweeper panicked".to_string()),
            (n, _) => Err(format!("{n} executor thread(s) panicked")),
        }
    }
}

/// Runs the daemon until drained. `Ok(())` means a clean drain (the
/// binary exits 0); `Err` is a startup/transport failure (exit 1).
pub fn run(
    engine: WarmEngine,
    cfg: ServeConfig,
    transport: Transport,
    shutdown: Shutdown,
) -> Result<(), String> {
    let state = ServerState::new(engine, cfg, shutdown);
    let workers = Workers::start(&state);

    eprintln!(
        "phyloplaced: ready (fingerprint={}, slots={}, lookup={}, threads={}, runs={}, \
         queue_cap={}, batch_max={})",
        state.engine.fingerprint(),
        state.engine.slots(),
        state.engine.use_lookup(),
        state.engine.threads(),
        state.engine.runs(),
        state.cfg.queue_cap,
        state.cfg.batch_max,
    );
    let listened = listen(&state, transport);
    if listened.is_err() {
        // Nothing can be admitted any more: let the executors return.
        state.admission_closed.store(true, Ordering::SeqCst);
    }
    workers.drain(&state)?;
    listened?;
    eprintln!(
        "phyloplaced: drained ({} served, {} shed, {} bad, {} expired, {} cancelled, {} internal)",
        state.tally.served.load(Ordering::Relaxed),
        state.tally.shed.load(Ordering::Relaxed),
        state.tally.bad.load(Ordering::Relaxed),
        state.tally.deadline.load(Ordering::Relaxed),
        state.tally.cancelled.load(Ordering::Relaxed),
        state.tally.internal.load(Ordering::Relaxed),
    );
    Ok(())
}

/// Serves `transport` until admission ends: EOF on stdio, the drain
/// phase on a listener.
fn listen(state: &Arc<ServerState>, transport: Transport) -> Result<(), String> {
    match transport {
        Transport::Stdio => {
            // The reader gets its own thread so a SIGTERM drain can
            // finish even while stdin is open and idle: the executors
            // observe the phase change, drain, and `run` returns —
            // the process exits without waiting for client EOF.
            let conn = spawn_writer(Arc::clone(&state.pending_writes), Box::new(std::io::stdout()));
            let rstate = Arc::clone(state);
            std::thread::spawn(move || {
                reader_loop(&rstate, BufReader::new(std::io::stdin()), conn);
                // EOF: no more admissions; the executors drain what is
                // queued and return.
                rstate.admission_closed.store(true, Ordering::SeqCst);
            });
        }
        Transport::Unix(path) => {
            let _ = std::fs::remove_file(&path);
            let listener = std::os::unix::net::UnixListener::bind(&path)
                .map_err(|e| format!("bind {}: {e}", path.display()))?;
            listener.set_nonblocking(true).map_err(|e| format!("listener: {e}"))?;
            accept_loop(state, || match listener.accept() {
                Ok((sock, _)) => {
                    let r = sock.try_clone().map_err(|e| e.to_string())?;
                    Ok(Some((
                        Box::new(BufReader::new(r)) as Box<dyn BufRead + Send>,
                        Box::new(sock) as Box<dyn Write + Send>,
                    )))
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => Ok(None),
                Err(e) => Err(e.to_string()),
            });
            let _ = std::fs::remove_file(&path);
        }
        Transport::Tcp(addr) => {
            let listener =
                std::net::TcpListener::bind(&addr).map_err(|e| format!("bind {addr}: {e}"))?;
            listener.set_nonblocking(true).map_err(|e| format!("listener: {e}"))?;
            eprintln!(
                "phyloplaced: listening on {}",
                listener.local_addr().map_err(|e| e.to_string())?
            );
            accept_loop(state, || match listener.accept() {
                Ok((sock, _)) => {
                    let r = sock.try_clone().map_err(|e| e.to_string())?;
                    Ok(Some((
                        Box::new(BufReader::new(r)) as Box<dyn BufRead + Send>,
                        Box::new(sock) as Box<dyn Write + Send>,
                    )))
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => Ok(None),
                Err(e) => Err(e.to_string()),
            });
        }
    }
    Ok(())
}

/// Polls `accept` until the daemon drains. Transient accept failures
/// (including the injected `serve::accept_error`) are counted, backed
/// off, and survived — a listener hiccup must not take the daemon down.
fn accept_loop(
    state: &Arc<ServerState>,
    mut accept: impl FnMut() -> Result<Option<(Box<dyn BufRead + Send>, Box<dyn Write + Send>)>, String>,
) {
    let mut backoff_ms = 5u64;
    loop {
        match state.phase() {
            Phase::Running => {}
            // Draining or aborting: stop accepting; the executors
            // finish the backlog and `run` returns after the join.
            _ => return,
        }
        let injected = phylo_faults::fire("serve::accept_error");
        match if injected { Err("injected accept error".to_string()) } else { accept() } {
            Ok(Some((r, w))) => {
                backoff_ms = 5;
                let conn = spawn_writer(Arc::clone(&state.pending_writes), w);
                let state = Arc::clone(state);
                std::thread::spawn(move || reader_loop(&state, r, conn));
            }
            Ok(None) => std::thread::sleep(Duration::from_millis(10)),
            Err(e) => {
                phylo_obs::counter!("serve.accept_errors").inc();
                eprintln!("phyloplaced: accept error (retrying in {backoff_ms}ms): {e}");
                std::thread::sleep(Duration::from_millis(backoff_ms));
                backoff_ms = (backoff_ms * 2).min(500);
            }
        }
    }
}

/// Starts the per-connection writer thread; returns its handle. Every
/// response line for the connection funnels through here, so a slow
/// client (see the `serve::slow_client` fault) stalls only this thread.
fn spawn_writer(pending: Arc<AtomicUsize>, mut w: Box<dyn Write + Send>) -> ConnHandle {
    let (tx, rx) = mpsc::channel::<String>();
    let pending2 = Arc::clone(&pending);
    std::thread::spawn(move || {
        let mut dead = false;
        for line in rx {
            if phylo_faults::fire("serve::slow_client") {
                // A client that stops reading: the kernel buffer backs
                // up and writes stall. Simulated with a sleep so the
                // chaos test can assert other connections stay live.
                phylo_obs::counter!("serve.slow_writes").inc();
                std::thread::sleep(Duration::from_millis(1500));
            }
            if !dead && writeln!(w, "{line}").and_then(|_| w.flush()).is_err() {
                // Keep draining the channel so pending accounting
                // stays exact even after the client disappears.
                dead = true;
            }
            pending2.fetch_sub(1, Ordering::SeqCst);
        }
    });
    ConnHandle { tx, registry: Arc::new(Mutex::new(HashMap::new())), pending }
}

/// Bounded wait for every accepted response to reach its socket (a
/// stuck client's writer thread should not wedge the drain forever).
fn await_flush(state: &ServerState) {
    let t0 = Instant::now();
    while state.pending_writes.load(Ordering::SeqCst) != 0 && t0.elapsed() < Duration::from_secs(10)
    {
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Reads newline-delimited requests until EOF. Admission policy lives
/// here: every outcome is a typed response, and nothing on this path
/// ever blocks on the engine.
fn reader_loop(state: &Arc<ServerState>, mut r: impl BufRead, conn: ConnHandle) {
    let mut line = String::new();
    loop {
        line.clear();
        match r.read_line(&mut line) {
            Ok(0) | Err(_) => return,
            Ok(_) => {}
        }
        let trimmed = line.trim_end_matches(['\n', '\r']);
        if trimmed.trim().is_empty() {
            continue;
        }
        state.tally.requests.fetch_add(1, Ordering::Relaxed);
        phylo_obs::counter!("serve.requests").inc();
        let parsed = if phylo_faults::fire("serve::request_parse") {
            Err((None, "injected parse failure".to_string()))
        } else {
            proto::parse_request(trimmed)
        };
        match parsed {
            Err((id, detail)) => {
                state.tally.bad.fetch_add(1, Ordering::Relaxed);
                phylo_obs::counter!("serve.bad_request").inc();
                conn.send(proto::error_line(
                    id.as_deref().unwrap_or(""),
                    Code::BadRequest,
                    &detail,
                ));
            }
            Ok(Request::Status { id }) => {
                // Liveness must answer even under total overload or
                // drain: handled inline, never queued.
                conn.send(state.status_line(&id));
            }
            Ok(Request::Cancel { id, target }) => {
                let token =
                    conn.registry.lock().unwrap_or_else(|e| e.into_inner()).get(&target).cloned();
                match token {
                    Some(t) => {
                        t.cancel();
                        conn.send(proto::render(&[
                            Field::Str("id", &id),
                            Field::Bool("ok", true),
                            Field::Str("code", Code::Ok.as_str()),
                            Field::Str("cancelled", &target),
                        ]));
                    }
                    None => conn.send(proto::error_line(
                        &id,
                        Code::BadRequest,
                        &format!("cancel: no in-flight request {target:?} on this connection"),
                    )),
                }
            }
            Ok(Request::Place { id, queries, deadline_ms }) => {
                admit_place(state, &conn, id, &queries, deadline_ms);
            }
        }
    }
}

fn admit_place(
    state: &Arc<ServerState>,
    conn: &ConnHandle,
    id: String,
    queries: &str,
    deadline_ms: Option<f64>,
) {
    if state.phase() != Phase::Running {
        conn.send(proto::error_line(&id, Code::Draining, "daemon is draining; not admitting"));
        return;
    }
    {
        let reg = conn.registry.lock().unwrap_or_else(|e| e.into_inner());
        if reg.contains_key(&id) {
            drop(reg);
            state.tally.bad.fetch_add(1, Ordering::Relaxed);
            conn.send(proto::error_line(&id, Code::BadRequest, "duplicate in-flight request id"));
            return;
        }
    }
    let rows = match state.engine.parse_queries(queries) {
        Ok(rows) => rows,
        Err(fail) => {
            state.tally.bad.fetch_add(1, Ordering::Relaxed);
            phylo_obs::counter!("serve.bad_request").inc();
            conn.send(proto::error_line(&id, fail.code, &fail.detail));
            return;
        }
    };
    // A deadline that has already passed never touches the queue: the
    // typed rejection is immediate (and free).
    let deadline = match deadline_ms {
        None => None,
        Some(ms) if ms <= 0.0 => {
            state.tally.deadline.fetch_add(1, Ordering::Relaxed);
            phylo_obs::counter!("serve.deadline_expired").inc();
            conn.send(proto::error_line(&id, Code::Deadline, "deadline already expired"));
            return;
        }
        Some(ms) => Some(Instant::now() + Duration::from_millis(ms as u64)),
    };
    let cancel = CancelToken::new();
    conn.registry.lock().unwrap_or_else(|e| e.into_inner()).insert(id.clone(), cancel.clone());
    if let Some(at) = deadline {
        state.arm_deadline(at, cancel.clone());
    }
    let job = PlaceJob { id, rows, cancel, deadline, conn: conn.clone() };
    if let Err(job) = state.queue.try_push(job) {
        // The overload contract: a full queue answers *now*, with a
        // typed code, and sheds the youngest request. Never a hang.
        job.conn.registry.lock().unwrap_or_else(|e| e.into_inner()).remove(&job.id);
        state.tally.shed.fetch_add(1, Ordering::Relaxed);
        phylo_obs::counter!("serve.shed").inc();
        job.conn.send(proto::error_line(
            &job.id,
            Code::Overloaded,
            &format!("admission queue full (cap {})", state.queue.capacity()),
        ));
    }
    phylo_obs::gauge!("serve.queue_depth").set(state.queue.depth() as i64);
}

/// One engine executor: micro-batches admitted jobs into warm runs.
fn executor_loop(state: &Arc<ServerState>) {
    loop {
        let phase = state.phase();
        if phase == Phase::Aborting {
            // The binary's signal watchdog exits 130; this break is the
            // in-process (test) path.
            return;
        }
        let budget = state.ladder.lock().unwrap_or_else(|e| e.into_inner()).budget();
        state.batch_budget.store(budget, Ordering::SeqCst);
        phylo_obs::gauge!("serve.batch_budget").set(budget as i64);
        let batch = state.queue.pop_batch(budget, Duration::from_millis(25));
        if batch.is_empty() {
            let done = state.admission_closed.load(Ordering::SeqCst) || phase != Phase::Running;
            // Drain exit: no new admissions are possible and the backlog
            // is empty; `run` joins the executors still mid-run.
            if done && state.queue.depth() == 0 {
                return;
            }
            continue;
        }
        let n = batch.len();
        state.in_flight.fetch_add(n, Ordering::SeqCst);
        run_batch(state, batch);
        state.in_flight.fetch_sub(n, Ordering::SeqCst);
    }
}

fn run_batch(state: &Arc<ServerState>, batch: Vec<PlaceJob>) {
    // Jobs whose token fired while queued (deadline, client cancel)
    // are answered without touching the engine.
    let mut live: Vec<PlaceJob> = Vec::with_capacity(batch.len());
    for job in batch {
        if job.cancel.is_cancelled() {
            finish(state, &job, Err(expired_code(&job)));
        } else {
            live.push(job);
        }
    }
    if live.is_empty() {
        return;
    }
    // A singleton run is cancellable mid-run by its own token. A merged
    // run commits: per-request deadlines were checked at admission and
    // again at dequeue; once scoring starts the batch finishes (its
    // latency is bounded by the batch budget the pressure ladder set).
    let run_token = if live.len() == 1 { live[0].cancel.clone() } else { CancelToken::new() };
    let rows: Vec<Vec<Sequence>> = live.iter().map(|j| j.rows.clone()).collect();
    let t0 = Instant::now();
    let results = state.engine.place_merged(&rows, &run_token);
    phylo_obs::counter!("serve.batches").inc();
    phylo_obs::histogram!("serve.batch_ns").record_ns(t0.elapsed().as_nanos() as u64);
    let mut degraded = false;
    for (job, res) in live.iter().zip(results) {
        match res {
            Ok(served) => {
                degraded |= served.degraded;
                finish(state, job, Ok((served.jplace, served.n_queries, t0)));
            }
            Err(fail) => {
                let code = if fail.code == Code::Cancelled { expired_code(job) } else { fail.code };
                finish_err(state, job, code, &fail.detail);
            }
        }
    }
    state.ladder.lock().unwrap_or_else(|e| e.into_inner()).on_run(degraded);
}

/// Deadline-vs-cancel refinement: both arrive as an armed token; the
/// response distinguishes them by whether the job carried a deadline
/// that has passed.
fn expired_code(job: &PlaceJob) -> Code {
    match job.deadline {
        Some(at) if Instant::now() >= at => Code::Deadline,
        _ => Code::Cancelled,
    }
}

fn finish(
    state: &Arc<ServerState>,
    job: &PlaceJob,
    outcome: Result<(String, usize, Instant), Code>,
) {
    match outcome {
        Ok((jplace, n, t0)) => {
            state.tally.served.fetch_add(1, Ordering::Relaxed);
            phylo_obs::counter!("serve.served").inc();
            phylo_obs::histogram!("serve.request_ns").record_ns(t0.elapsed().as_nanos() as u64);
            job.conn.registry.lock().unwrap_or_else(|e| e.into_inner()).remove(&job.id);
            job.conn.send(proto::render(&[
                Field::Str("id", &job.id),
                Field::Bool("ok", true),
                Field::Str("code", Code::Ok.as_str()),
                Field::Int("queries", n as i64),
                Field::Int("latency_us", t0.elapsed().as_micros() as i64),
                Field::Str("jplace", &jplace),
            ]));
        }
        Err(code) => finish_err(
            state,
            job,
            code,
            match code {
                Code::Deadline => "deadline expired",
                _ => "cancelled by client",
            },
        ),
    }
}

fn finish_err(state: &Arc<ServerState>, job: &PlaceJob, code: Code, detail: &str) {
    match code {
        Code::Deadline => {
            state.tally.deadline.fetch_add(1, Ordering::Relaxed);
            phylo_obs::counter!("serve.deadline_expired").inc();
        }
        Code::Cancelled => {
            state.tally.cancelled.fetch_add(1, Ordering::Relaxed);
            phylo_obs::counter!("serve.cancelled").inc();
        }
        Code::Internal => {
            state.tally.internal.fetch_add(1, Ordering::Relaxed);
        }
        _ => {}
    }
    job.conn.registry.lock().unwrap_or_else(|e| e.into_inner()).remove(&job.id);
    job.conn.send(proto::error_line(&job.id, code, detail));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineSettings;
    use phylo_datasets::{generate, neotrop, Scale};
    use std::os::unix::net::UnixStream;

    fn engine() -> WarmEngine {
        let ds = generate(&neotrop(Scale::Ci));
        let tree = phylo_tree::newick::write(&ds.tree);
        let mut ref_fa = String::new();
        for row in ds.reference.rows() {
            ref_fa.push_str(&format!(">{}\n{}\n", row.name(), row.to_text()));
        }
        WarmEngine::build(&tree, &ref_fa, &EngineSettings::default()).unwrap()
    }

    fn query_payload(i: usize) -> String {
        let ds = generate(&neotrop(Scale::Ci));
        format!(">{}\n{}\n", ds.queries[i].name(), ds.queries[i].to_text())
    }

    fn place_line(id: &str, fasta: &str, deadline_ms: Option<f64>) -> String {
        let dl = deadline_ms.map(|d| format!(",\"deadline_ms\":{d}")).unwrap_or_default();
        format!(
            "{{\"id\":\"{id}\",\"op\":\"place\",\"queries\":\"{}\"{dl}}}",
            phylo_obs::json_escape(fasta)
        )
    }

    /// In-process server over a socketpair: the unit-level harness for
    /// the daemon loop (the binary-level one lives in tests/).
    struct Harness {
        sock: UnixStream,
        reader: BufReader<UnixStream>,
        shutdown: Shutdown,
        thread: Option<std::thread::JoinHandle<Result<(), String>>>,
    }

    impl Harness {
        fn start(cfg: ServeConfig) -> Harness {
            let (client, server) = UnixStream::pair().unwrap();
            let shutdown = Shutdown::new();
            let sd = shutdown.clone();
            let thread = std::thread::spawn(move || {
                let eng = engine();
                let state_r = server.try_clone().unwrap();
                // Reuse the stdio path shape: single connection.
                run_single_conn(eng, cfg, sd, state_r, server)
            });
            let reader = BufReader::new(client.try_clone().unwrap());
            Harness { sock: client, reader, shutdown, thread: Some(thread) }
        }

        fn send(&mut self, line: &str) {
            writeln!(self.sock, "{line}").unwrap();
        }

        fn recv(&mut self) -> std::collections::BTreeMap<String, proto::Value> {
            let mut line = String::new();
            self.reader.read_line(&mut line).unwrap();
            proto::parse_object(line.trim_end()).unwrap()
        }

        fn finish(mut self) -> Result<(), String> {
            self.sock.shutdown(std::net::Shutdown::Write).unwrap();
            self.thread.take().unwrap().join().unwrap()
        }
    }

    /// `run` specialized to one pre-connected stream (what the stdio
    /// transport does, minus process stdin/stdout).
    fn run_single_conn(
        engine: WarmEngine,
        cfg: ServeConfig,
        shutdown: Shutdown,
        r: UnixStream,
        w: UnixStream,
    ) -> Result<(), String> {
        let state = ServerState::new(engine, cfg, shutdown);
        let workers = Workers::start(&state);
        let conn = spawn_writer(Arc::clone(&state.pending_writes), Box::new(w));
        reader_loop(&state, BufReader::new(r), conn);
        state.admission_closed.store(true, Ordering::SeqCst);
        workers.drain(&state)
    }

    fn expect_str<'a>(
        obj: &'a std::collections::BTreeMap<String, proto::Value>,
        key: &str,
    ) -> &'a str {
        obj[key].as_str().unwrap_or_else(|| panic!("{key} missing in {obj:?}"))
    }

    #[test]
    fn round_trip_status_place_cancel_and_draining() {
        let mut h = Harness::start(ServeConfig { queue_cap: 4, batch_max: 2 });
        h.send(r#"{"id":"s1","op":"status"}"#);
        let st = h.recv();
        assert_eq!(expect_str(&st, "phase"), "running");
        assert_eq!(st["lookup"], proto::Value::Bool(true));
        assert!(!expect_str(&st, "fingerprint").is_empty());

        h.send(&place_line("r1", &query_payload(0), None));
        let r1 = h.recv();
        assert_eq!(expect_str(&r1, "code"), "Ok");
        assert!(expect_str(&r1, "jplace").contains("\"placements\""));

        // Cancel of an unknown id is a typed error, not a hang.
        h.send(r#"{"id":"c1","op":"cancel","target":"nope"}"#);
        assert_eq!(expect_str(&h.recv(), "code"), "BadRequest");

        // Past deadline: typed immediate rejection.
        h.send(&place_line("r2", &query_payload(1), Some(-5.0)));
        assert_eq!(expect_str(&h.recv(), "code"), "Deadline");

        // Malformed line: typed, daemon keeps serving.
        h.send("this is not json");
        assert_eq!(expect_str(&h.recv(), "code"), "BadRequest");
        h.send(&place_line("r3", &query_payload(1), None));
        assert_eq!(expect_str(&h.recv(), "code"), "Ok");

        // Drain: new placements refused, EOF finishes the run cleanly.
        h.shutdown.on_signal();
        h.send(&place_line("r4", &query_payload(0), None));
        assert_eq!(expect_str(&h.recv(), "code"), "Draining");
        h.finish().unwrap();
    }

    #[test]
    fn zero_cap_queue_sheds_with_typed_overloaded() {
        let mut h = Harness::start(ServeConfig { queue_cap: 0, batch_max: 2 });
        let t0 = Instant::now();
        h.send(&place_line("r1", &query_payload(0), None));
        let r = h.recv();
        assert_eq!(expect_str(&r, "code"), "Overloaded");
        assert!(t0.elapsed() < Duration::from_secs(5), "overload must answer immediately");
        // Status still answers under total overload.
        h.send(r#"{"id":"s","op":"status"}"#);
        let st = h.recv();
        assert_eq!(st["shed"], proto::Value::Num(1.0));
        h.finish().unwrap();
    }

    #[test]
    fn duplicate_in_flight_id_is_rejected() {
        let mut h = Harness::start(ServeConfig { queue_cap: 8, batch_max: 1 });
        // Queue two with the same id quickly; the second must be a
        // typed BadRequest whichever order the executor gets to them.
        h.send(&place_line("dup", &query_payload(0), Some(60_000.0)));
        h.send(&place_line("dup", &query_payload(1), Some(60_000.0)));
        let a = h.recv();
        let b = h.recv();
        let codes: Vec<&str> = vec![expect_str(&a, "code"), expect_str(&b, "code")];
        assert!(codes.contains(&"Ok") || codes.contains(&"BadRequest"), "got {codes:?}");
        h.finish().unwrap();
    }
}
