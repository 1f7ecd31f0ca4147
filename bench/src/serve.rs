//! `serve_closed`: `phylo_serve::run` in-process on a Unix socket, a
//! warm engine, and closed-loop clients — callers that each wait for
//! their reply before sending the next request — cycling a pool of
//! single-query `place` requests.

use crate::emit::{Outcome, Values};
use crate::stats::{self, Sample};
use crate::workload::{Inputs, Workload};
use crate::{jplace, layers, pipeline, Plan};
use phyloplace::amc::CancelToken;
use phyloplace::cli::run_placement;
use phyloplace::serve::proto::{self, Field, Value};
use phyloplace::serve::{EngineSettings, ServeConfig, Transport, WarmEngine};
use phyloplace::shard::Shutdown;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::time::{Duration, Instant};

/// One per vCPU of the sandbox; more would only measure the scheduler.
const CLIENTS: usize = 2;
const WINDOW_S: f64 = 2.0;
/// Windows overlap: a new one starts every half second.
const WINDOW_STEP_S: f64 = 0.5;
/// A standard window holds ~300 completions; below 200 its p95 would
/// have fewer than ten samples beyond it.
const MIN_WINDOW_SAMPLES: usize = 200;
/// Served responses compared byte for byte with a cold `run_placement`.
const COLD_CHECKS: usize = 16;
/// One more timed `WarmEngine::build` after every so many cold runs.
const COLD_RUNS_PER_BUILD: usize = 4;
const MIB: f64 = 1024.0 * 1024.0;

/// One `place` request line per drawn query, ids `r0`, `r1`, ….
fn request_lines(inputs: &Inputs) -> Vec<String> {
    let line = |(i, record): (usize, &String)| {
        proto::render(&[
            Field::Str("id", &format!("r{i}")),
            Field::Str("op", "place"),
            Field::Str("queries", record),
        ])
    };
    inputs.query_records.iter().enumerate().map(line).collect()
}

/// The daemon's defaults for the workload's alphabet.
fn engine_settings(inputs: &Inputs) -> EngineSettings {
    EngineSettings { alphabet: inputs.alphabet, ..EngineSettings::default() }
}

struct ClientLog {
    /// `done_s` is relative to the start of the measured interval;
    /// warm-up completions are negative.
    samples: Vec<Sample>,
    not_ok: u64,
    shed: u64,
    /// `(pool index, served jplace)` of the first answer to each request
    /// this client was asked to keep.
    kept: Vec<(usize, String)>,
}

/// One closed-loop caller: send, wait for the reply, repeat until
/// `until`, over the pool indices `mine`.
fn client(
    sock: &Path,
    lines: &[String],
    mine: &[usize],
    keep: &[usize],
    measured_from: Instant,
    until: Instant,
) -> Result<ClientLog, String> {
    let stream = connect(sock)?;
    let mut reader = BufReader::new(stream.try_clone().map_err(|e| format!("socket: {e}"))?);
    let mut writer = stream;
    let mut log = ClientLog { samples: Vec::new(), not_ok: 0, shed: 0, kept: Vec::new() };
    let mut reply = String::new();
    for &i in mine.iter().cycle() {
        let sent = Instant::now();
        if sent >= until {
            break;
        }
        writer
            .write_all(lines[i].as_bytes())
            .and_then(|_| writer.write_all(b"\n"))
            .map_err(|e| format!("request r{i}: {e}"))?;
        reply.clear();
        let n = reader.read_line(&mut reply).map_err(|e| format!("reply to r{i}: {e}"))?;
        let done = Instant::now();
        if n == 0 {
            return Err(format!("the daemon closed the connection before answering r{i}"));
        }
        let done_s = if done >= measured_from {
            (done - measured_from).as_secs_f64()
        } else {
            -(measured_from - done).as_secs_f64()
        };
        log.samples.push(Sample { done_s, latency_ms: (done - sent).as_secs_f64() * 1e3 });
        let obj =
            proto::parse_object(reply.trim_end()).map_err(|e| format!("reply to r{i}: {e}"))?;
        let code = obj.get("code").and_then(Value::as_str).unwrap_or("");
        let id_ok = obj.get("id").and_then(Value::as_str) == Some(&format!("r{i}"));
        if code != "Ok" || !id_ok {
            log.not_ok += 1;
            log.shed += (code == "Overloaded") as u64;
        } else if keep.contains(&i) && log.kept.iter().all(|(k, _)| *k != i) {
            let doc = obj.get("jplace").and_then(Value::as_str).unwrap_or("");
            log.kept.push((i, doc.to_string()));
        }
    }
    Ok(log)
}

/// The listener binds on the server thread; retry until it is there.
fn connect(sock: &Path) -> Result<UnixStream, String> {
    let give_up = Instant::now() + Duration::from_secs(10);
    loop {
        match UnixStream::connect(sock) {
            Ok(s) => return Ok(s),
            Err(e) if Instant::now() >= give_up => {
                return Err(format!("connect {}: {e}", sock.display()))
            }
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
}

/// Runs the daemon on its own thread, the clients through `warm_up` and
/// the measured `span_s`, then drains it. Returns the clients' logs and
/// how long the drain took.
fn serve_clients(
    engine: WarmEngine,
    lines: &[String],
    warm_up: Duration,
    span_s: f64,
) -> Result<(Vec<ClientLog>, f64), String> {
    let sock = layers::out_dir()?.join(format!("serve-{}.sock", std::process::id()));
    let shutdown = Shutdown::new();
    // The pool is already a random draw, so its head is as good a sample
    // as any — and the first requests to be answered, however short the run.
    let keep: Vec<usize> = (0..COLD_CHECKS.min(lines.len())).collect();
    std::thread::scope(|scope| {
        let server = {
            let (sock, shutdown) = (sock.clone(), shutdown.clone());
            scope.spawn(move || {
                phyloplace::serve::run(
                    engine,
                    ServeConfig::default(),
                    Transport::Unix(sock),
                    shutdown,
                )
            })
        };
        let measured_from = Instant::now() + warm_up;
        let until = measured_from + Duration::from_secs_f64(span_s);
        let clients: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let mine: Vec<usize> = (c..lines.len()).step_by(CLIENTS).collect();
                let (sock, keep) = (&sock, &keep);
                scope.spawn(move || client(sock, lines, &mine, keep, measured_from, until))
            })
            .collect();
        let logs: Vec<Result<ClientLog, String>> = clients
            .into_iter()
            .map(|c| c.join().unwrap_or_else(|_| Err("a client thread panicked".to_string())))
            .collect();
        // Drain even if a client failed, so the server thread ends.
        let t = Instant::now();
        shutdown.on_signal();
        let served = server.join().map_err(|_| "the server thread panicked".to_string())?;
        let drain_ms = t.elapsed().as_secs_f64() * 1e3;
        served.map_err(|e| format!("phylo_serve::run: {e}"))?;
        Ok((logs.into_iter().collect::<Result<Vec<_>, _>>()?, drain_ms))
    })
}

pub fn run(w: &Workload, seed: u64, plan: &Plan) -> Result<Outcome, String> {
    let inputs = w.pool().draw(seed);
    let (settings, lines) = (engine_settings(&inputs), request_lines(&inputs));
    let mut problems: Vec<String> = Vec::new();

    // setup_s: until the daemon could take its first request. Some builds
    // are timed here and more between the cold runs below: samples taken
    // back to back would all see the same moment of the host.
    let mut setup_s = Vec::new();
    let mut timed_build = || -> Result<WarmEngine, String> {
        let t = Instant::now();
        let built = WarmEngine::build(&inputs.tree_text, &inputs.ref_fasta, &settings)?;
        setup_s.push(t.elapsed().as_secs_f64());
        Ok(built)
    };
    let mut engine = timed_build()?;
    for _ in 1..plan.serve_builds() {
        engine = timed_build()?;
    }

    let (warm_up, span_s) = plan.serve_schedule(WINDOW_S);
    let (logs, drain_ms) = serve_clients(engine, &lines, warm_up, span_s)?;
    let peak_rss_mib = layers::peak_rss_mib()?;

    let measured: Vec<Sample> =
        logs.iter().flat_map(|l| &l.samples).filter(|s| s.done_s >= 0.0).copied().collect();
    let not_ok: u64 = logs.iter().map(|l| l.not_ok).sum();
    if not_ok > 0 {
        problems.push(format!("{not_ok} responses were not Ok"));
    }
    let windows =
        stats::split_windows(&measured, WINDOW_S, WINDOW_STEP_S, span_s, MIN_WINDOW_SAMPLES);
    let best = stats::best_window(&windows)?;

    // The same requests through the cold CLI path: the check that the
    // daemon's bytes are the CLI's bytes, and what the daemon saves.
    let mut kept: Vec<&(usize, String)> = logs.iter().flat_map(|l| &l.kept).collect();
    kept.sort_by_key(|(i, _)| *i);
    if kept.len() != COLD_CHECKS {
        problems
            .push(format!("only {} of {COLD_CHECKS} sampled requests were answered", kept.len()));
    }
    let cold_opts: Vec<_> = kept
        .iter()
        .map(|(i, _)| inputs.cli_options(inputs.query_records[*i].clone(), None))
        .collect();
    // cold_s[request][pass]: each request is its own best-of-N, so one
    // slow moment of the host spoils one sample, not a whole pass.
    let mut cold_s: Vec<Vec<f64>> = vec![Vec::new(); cold_opts.len()];
    for pass in 0..plan.cold_passes() {
        for (k, (opts, (i, served))) in cold_opts.iter().zip(&kept).enumerate() {
            let t = Instant::now();
            let cold = run_placement(opts).map_err(|e| format!("cold r{i}: {e}"))?;
            cold_s[k].push(t.elapsed().as_secs_f64());
            if k % COLD_RUNS_PER_BUILD == 0 {
                timed_build()?;
            }
            if pass == 0 {
                if cold.jplace != *served {
                    problems.push(format!("r{i}: the served jplace differs from a cold run's"));
                }
                problems.extend(
                    jplace::validate(served, std::slice::from_ref(&inputs.query_names[*i])).err(),
                );
            }
        }
    }
    let mean_of = |pick: fn(&[f64]) -> Option<f64>| -> Result<f64, String> {
        let per_request: Option<Vec<f64>> = cold_s.iter().map(|s| pick(s)).collect();
        let per_request =
            per_request.filter(|v| !v.is_empty()).ok_or("no cold run was measured")?;
        Ok(per_request.iter().sum::<f64>() / per_request.len() as f64)
    };
    let (cold_best_s, cold_med_s) = (mean_of(stats::min)?, mean_of(stats::median)?);
    let probe_opts = cold_opts.first().ok_or("no sampled request to run cold")?;
    let t = Instant::now();
    let staged = pipeline::run(probe_opts, None)?;
    let staged_s = t.elapsed().as_secs_f64();
    if staged.jplace != kept[0].1 {
        problems.push("the staged pipeline's jplace differs from the served one".to_string());
    }

    let mut v = Values::default();
    v.set("setup_s", stats::min(&setup_s).expect("at least one build"));
    v.set("place_s", cold_best_s);
    v.set("clv_recomputes", staged.report.slot_stats.misses as f64);
    v.set("tracked_peak_mib", staged.report.peak_memory as f64 / MIB);
    v.set("peak_rss_mib", peak_rss_mib);
    v.set("req_p50_ms", best.p50_ms);
    v.set("req_p95_ms", best.p95_ms);
    v.set("req_per_s", best.per_s);

    let latencies: Vec<f64> = measured.iter().map(|s| s.latency_ms).collect();
    let p50s: Vec<f64> = windows.iter().map(|w| w.p50_ms).collect();
    v.set("harness.reps", windows.len() as f64);
    v.set("harness.place_med_s", cold_med_s);
    v.set("harness.noise_ratio", stats::median(&p50s).expect("non-empty") / best.p50_ms);
    if plan.trace {
        v.set("serve.run_p99_ms", stats::percentile(&latencies, 99.0).expect("non-empty"));
        v.set("serve.shed", logs.iter().map(|l| l.shed).sum::<u64>() as f64);
        v.set("serve.drain_ms", drain_ms);
        let check = (kept[0].0, kept[0].1.as_str());
        traced_pass(w, plan, &inputs, check, staged_s, &mut v, &mut problems)?;
        v.set("serve.overhead_ms", best.p50_ms - v.get("serve.engine_ms").expect("just set"));
    }
    for p in &problems {
        eprintln!("bench: {}: INCORRECT: {p}", w.name);
    }
    Ok(Outcome {
        correct: problems.is_empty(),
        attempted: measured.len() as u64,
        failed: not_ok.min(measured.len() as u64),
        values: v,
    })
}

/// The cold pipeline's layers for the request `check_idx`, the daemon's
/// layers one call at a time, and the micro-probes.
fn traced_pass(
    w: &Workload,
    plan: &Plan,
    inputs: &Inputs,
    (check_idx, check_jplace): (usize, &str),
    untraced_s: f64,
    v: &mut Values,
    problems: &mut Vec<String>,
) -> Result<(), String> {
    let (settings, lines) = (engine_settings(inputs), request_lines(inputs));
    let cold_opts = inputs.cli_options(inputs.query_records[check_idx].clone(), None);
    // First, while the untraced staged run it is compared with is still
    // a neighbour in time.
    let (mut tr, cold) = pipeline::best_traced_run(
        &cold_opts,
        w.name,
        plan.traced_passes(),
        check_jplace,
        problems,
    )?;
    v.set("harness.trace_overhead_frac", tr.ms("run") / 1e3 / untraced_s - 1.0);
    let root = tr.begin("serve");
    let engine = tr.time("serve.build", || {
        WarmEngine::build(&inputs.tree_text, &inputs.ref_fasta, &settings)
    })?;
    tr.time("serve.proto_parse", || {
        for line in &lines {
            std::hint::black_box(proto::parse_request(line).is_ok());
        }
    });
    let parsed = tr.time("serve.parse_queries", || {
        inputs.query_records.iter().map(|q| engine.parse_queries(q)).collect::<Result<Vec<_>, _>>()
    });
    let parsed = parsed.map_err(|f| format!("parse_queries: {}", f.detail))?;
    let token = CancelToken::new();
    let mut engine_ms = Vec::new();
    let id = tr.begin("serve.engine");
    for (i, rows) in parsed.iter().enumerate().take(64) {
        let t = Instant::now();
        let served = engine.place_merged(std::slice::from_ref(rows), &token);
        engine_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let doc = served[0].as_ref().map_err(|f| format!("place_merged r{i}: {}", f.detail))?;
        if i == check_idx && doc.jplace != check_jplace {
            problems.push("the traced pass's jplace differs from the served one".to_string());
        }
    }
    tr.end(id);
    tr.end(root);
    v.set("serve.build_ms", tr.ms("serve.build"));
    v.set("serve.proto_parse_us", tr.ms("serve.proto_parse") * 1e3 / lines.len() as f64);
    v.set("serve.parse_queries_us", tr.ms("serve.parse_queries") * 1e3 / lines.len() as f64);
    v.set("serve.engine_ms", stats::median(&engine_ms).expect("non-empty pool"));

    layers::set_pipeline_layers(v, &tr, &cold);
    layers::set_probe_layers(v, cold.ready.placer.ctx(), cold.report.slots, &mut tr)?;
    layers::write_trace(w.name, &tr)
}
