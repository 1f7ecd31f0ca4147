//! The batch workloads: best-of-N over short, identical
//! `cli::run_placement` calls (text in, jplace text out), then the
//! checks and, when asked, the traced pass.

use crate::emit::{Outcome, Values};
use crate::workload::{bytes_to_maxmem_mib, Budget, Inputs, Workload};
use crate::{jplace, layers, pipeline, stats, Plan};
use phyloplace::cli::{run_placement, CliOptions};
use phyloplace::place::memplan;
use std::time::Instant;

const MIB: f64 = 1024.0 * 1024.0;
const SETUPS_PER_REP: usize = 3;

/// Resolves the workload's `--maxmem` from the program's own budget
/// arithmetic, on an untimed set-up.
fn options(w: &Workload, inputs: &Inputs) -> Result<CliOptions, String> {
    let unlimited = inputs.cli_options(inputs.query_fasta(), None);
    let budget_of = match w.budget {
        Budget::Off => return Ok(unlimited),
        Budget::Intermediate => memplan::lookup_floor_budget,
        Budget::Floor => memplan::floor_budget,
    };
    let probe = pipeline::setup(&unlimited, None)?;
    let bytes = budget_of(
        probe.placer.ctx(),
        probe.placer.config(),
        probe.batch.len(),
        probe.batch.n_sites(),
    );
    Ok(CliOptions { maxmem_mib: Some(bytes_to_maxmem_mib(bytes)), ..unlimited })
}

fn check_operating_point(w: &Workload, ready: &pipeline::Ready) -> Result<(), String> {
    let ctx = ready.placer.ctx();
    let plan = ready.placer.memory_plan(&ready.batch).map_err(|e| format!("memory plan: {e}"))?;
    w.check_plan(
        &plan,
        ctx.min_slots() + memplan::pin_headroom(ctx),
        ctx.max_slots().max(ctx.min_slots()),
    )
}

pub fn run(w: &Workload, seed: u64, plan: &Plan) -> Result<Outcome, String> {
    // The pool is dropped before anything is measured: it is the
    // harness's memory, not the program's, and `VmHWM` must not see it.
    let (inputs, canonical_fasta) = {
        let pool = w.pool();
        (pool.draw(seed), pool.canonical().query_fasta())
    };
    let opts = options(w, &inputs)?;
    let n_queries = inputs.query_names.len() as u64;
    let mut problems: Vec<String> = Vec::new();

    // One discarded warm-up repetition; its jplace is the reference every
    // later repetition must reproduce byte for byte.
    let first = run_placement(&opts).map_err(|e| format!("{}: {e}", w.name))?;
    if !first.completed {
        return Err(format!("{}: warm-up run did not complete", w.name));
    }
    let invalid = jplace::validate(&first.jplace, &inputs.query_names).err();
    problems.extend(invalid.clone());

    let mut setup_s: Vec<f64> = Vec::new();
    let mut place_s: Vec<f64> = Vec::new();
    let mut bad_reps = 0u64;
    let started = Instant::now();
    while plan.more_reps(place_s.len(), started) {
        // Set-up is milliseconds against a repetition's hundreds; a few
        // per iteration triple the sample at no cost.
        for _ in 0..SETUPS_PER_REP {
            let t = Instant::now();
            let ready = pipeline::setup(&opts, None)?;
            setup_s.push(t.elapsed().as_secs_f64());
            drop(ready);
        }
        let t = Instant::now();
        let out = run_placement(&opts).map_err(|e| format!("{}: {e}", w.name))?;
        place_s.push(t.elapsed().as_secs_f64());
        if !out.completed || out.jplace != first.jplace {
            bad_reps += 1;
        }
    }
    if bad_reps > 0 {
        problems.push(format!("{bad_reps} repetitions produced a different jplace"));
    }
    // Read before the passes below allocate anything of their own.
    let peak_rss_mib = layers::peak_rss_mib()?;

    // The two counters are taken on the workload's canonical queries, not
    // the seed's, so they read the same in every run of the same code
    // (the drawn queries move the miss count by a few per cent).
    // `run_placement` keeps its RunReport to itself, so they come from a
    // staged run; its jplace and the miss count `run_placement` prints in
    // its summary tie the two together.
    let canon_opts = CliOptions { query_fasta: canonical_fasta, ..opts.clone() };
    let t = Instant::now();
    let staged = pipeline::run(&canon_opts, None)?;
    let staged_s = t.elapsed().as_secs_f64();
    check_operating_point(w, &staged.ready)?;
    let canon = run_placement(&canon_opts).map_err(|e| format!("{}: {e}", w.name))?;
    if staged.jplace != canon.jplace {
        problems.push("the staged pipeline's jplace differs from run_placement's".to_string());
    }
    let misses = staged.report.slot_stats.misses;
    if !canon.summary.contains(&format!(" {misses} CLV computations")) {
        problems.push(format!("run_placement did not report {misses} CLV computations"));
    }
    if w.budget != Budget::Off {
        let unlimited = run_placement(&CliOptions { maxmem_mib: None, ..opts.clone() })
            .map_err(|e| format!("{}: unlimited-memory reference: {e}", w.name))?;
        if unlimited.jplace != first.jplace {
            problems.push("the budgeted jplace differs from the unlimited-memory one".to_string());
        }
    }

    let best = stats::min(&place_s).ok_or("no repetition was measured")?;
    let mut v = Values::default();
    v.set("setup_s", stats::min(&setup_s).ok_or("no set-up was measured")?);
    v.set("place_s", best);
    v.set("clv_recomputes", misses as f64);
    v.set("tracked_peak_mib", staged.report.peak_memory as f64 / MIB);
    v.set("peak_rss_mib", peak_rss_mib);
    // Every query's answer arrives when the run ends, so both latency
    // percentiles of a batch are its wall time.
    v.set("req_p50_ms", best * 1e3);
    v.set("req_p95_ms", best * 1e3);
    v.set("req_per_s", n_queries as f64 / best);

    let median = stats::median(&place_s).expect("non-empty");
    v.set("harness.reps", place_s.len() as f64);
    v.set("harness.place_med_s", median);
    v.set("harness.noise_ratio", median / best);
    if plan.trace {
        traced_pass(w, plan, &canon_opts, &canon.jplace, staged_s, &mut v, &mut problems)?;
    }
    for p in &problems {
        eprintln!("bench: {}: INCORRECT: {p}", w.name);
    }
    let attempted = place_s.len() as u64 * n_queries;
    let failed = bad_reps * n_queries + if invalid.is_some() { attempted } else { 0 };
    Ok(Outcome {
        correct: problems.is_empty(),
        attempted,
        failed: failed.min(attempted),
        values: v,
    })
}

/// A few more runs (on the canonical queries, like the untraced staged
/// run they are compared with) with a span around every layer's call,
/// then the micro-probes, then the trace file. Nothing timed here feeds
/// an end-to-end metric.
fn traced_pass(
    w: &Workload,
    plan: &Plan,
    opts: &CliOptions,
    expect_jplace: &str,
    untraced_s: f64,
    v: &mut Values,
    problems: &mut Vec<String>,
) -> Result<(), String> {
    let (mut tr, run) =
        pipeline::best_traced_run(opts, w.name, plan.traced_passes(), expect_jplace, problems)?;
    v.set("harness.trace_overhead_frac", tr.ms("run") / 1e3 / untraced_s - 1.0);
    layers::set_pipeline_layers(v, &tr, &run);
    layers::set_probe_layers(v, run.ready.placer.ctx(), run.report.slots, &mut tr)?;
    for name in crate::emit::PER_LAYER.iter().map(|d| d.name).filter(|n| n.starts_with("serve.")) {
        v.set(name, 0.0);
    }
    layers::write_trace(w.name, &tr)
}
