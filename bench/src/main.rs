//! The end-to-end benchmark behind `BENCHMARK.json`: four workloads,
//! best-of-N timings, correctness checks and a traced pass, all through
//! the program's public functions. See `bench/README.md`.

mod batch;
mod emit;
mod jplace;
mod json;
mod layers;
mod pipeline;
mod probes;
mod serve;
mod stats;
mod trace;
mod workload;

use emit::{Outcome, END_TO_END, PER_LAYER};
use json::Json;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};
use workload::{Kind, Workload, WORKLOADS};

const USAGE: &str =
    "usage: bench [--workload NAME] [--seed N] [--seconds N] [--trace 0|1] [--quick]
       bench --aa-check [--seed N] [--seconds N] [--quick]

Without --workload, runs every workload (traced) in a child process of its own.
  --workload NAME  one of: neotrop_off proref_floor serratus_inter serve_closed
  --seed N         draws the queries (default 1); the same seed gives the same inputs
  --seconds N      how long one workload measures (default: run_seconds of BENCHMARK.json)
  --trace 0|1      0: end-to-end metrics only; 1: also the traced pass and per-layer metrics
  --quick          3 repetitions, 3 s of serve, same checks; numbers are not comparable
  --aa-check       runs every workload twice in alternation and compares each end-to-end
                   metric of the two runs against its bound";

/// How much one workload run measures.
pub struct Plan {
    pub seconds: f64,
    pub trace: bool,
    pub quick: bool,
}

impl Plan {
    /// Batch workloads repeat until the time is spent, not for a fixed
    /// count: a slow host then cuts repetitions, never their size.
    pub fn more_reps(&self, done: usize, started: Instant) -> bool {
        if self.quick {
            done < 3
        } else {
            started.elapsed().as_secs_f64() < self.seconds
        }
    }

    /// `WarmEngine::build` repetitions before the daemon starts (more
    /// follow between the cold runs).
    pub fn serve_builds(&self) -> usize {
        if self.quick {
            2
        } else {
            10
        }
    }

    /// Passes over the sampled requests through the cold CLI path.
    pub fn cold_passes(&self) -> usize {
        if self.quick {
            1
        } else {
            8
        }
    }

    /// Traced runs the per-layer numbers are the best of.
    pub fn traced_passes(&self) -> usize {
        if self.quick {
            1
        } else {
            5
        }
    }

    /// Warm-up and measured interval of the serve workload, the latter a
    /// whole number of windows; 3 s of the budget stay with the engine
    /// builds and cold runs.
    pub fn serve_schedule(&self, window_s: f64) -> (Duration, f64) {
        if self.quick {
            return (Duration::from_secs(1), window_s);
        }
        let warm_up = 2.0;
        let windows = ((self.seconds - warm_up - 3.0) / window_s).floor().max(1.0);
        (Duration::from_secs_f64(warm_up), windows * window_s)
    }
}

struct Args {
    workload: Option<&'static Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    aa_check: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: emit::run_seconds(),
        trace: true,
        quick: false,
        aa_check: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                a.workload =
                    Some(workload::find(name).ok_or_else(|| format!("unknown workload {name:?}"))?);
            }
            "--seed" => a.seed = value()?.parse().map_err(|_| "bad --seed".to_string())?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|_| "bad --seconds".to_string())?;
                if !(a.seconds.is_finite() && a.seconds > 0.0) {
                    return Err("--seconds must be positive".to_string());
                }
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("bad --trace {other:?}")),
                }
            }
            "--quick" => a.quick = true,
            "--aa-check" => a.aa_check = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if a.aa_check && a.workload.is_some() {
        return Err("--aa-check runs every workload; drop --workload".to_string());
    }
    Ok(a)
}

/// One workload in this process: tables for people, then the result
/// line (the last line of stdout) for the driver.
fn run_one(w: &Workload, a: &Args) -> Result<(), String> {
    let plan = Plan { seconds: a.seconds, trace: a.trace, quick: a.quick };
    println!(
        "# workload {} seed {} seconds {} trace {} kernel_tier {} nproc {}",
        w.name,
        a.seed,
        a.seconds,
        a.trace as u8,
        phyloplace::kernel::TierChoice::Auto.resolve().name(),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    println!("# why: {}", w.why);
    if a.quick {
        println!("# quick mode: these numbers are not comparable with a full run");
    }
    let out: Outcome = match w.kind {
        Kind::Batch => batch::run(w, a.seed, &plan)?,
        Kind::Serve => serve::run(w, a.seed, &plan)?,
    };
    println!("# ops attempted {} failed {} correct {}", out.attempted, out.failed, out.correct);
    emit::print_table(&END_TO_END, &out.values);
    if a.trace {
        emit::print_table(&PER_LAYER, &out.values);
    }
    println!(
        "{}",
        emit::result_line(if a.trace { &PER_LAYER[..] } else { &END_TO_END[..] }, &out)?
    );
    Ok(())
}

/// Runs one workload in a child process of its own (so `VmHWM` is the
/// workload's) and returns the parsed result line. The child's report
/// is passed through to our stdout.
fn run_child(w: &Workload, a: &Args, trace: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", w.name, "--seed", &a.seed.to_string()])
        .args(["--seconds", &a.seconds.to_string(), "--trace", if trace { "1" } else { "0" }])
        .stderr(Stdio::inherit());
    if a.quick {
        cmd.arg("--quick");
    }
    let out = cmd.output().map_err(|e| format!("spawn {}: {e}", w.name))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    print!("{stdout}");
    if !out.status.success() {
        return Err(format!("{}: child exited with {}", w.name, out.status));
    }
    let last = stdout.lines().last().ok_or_else(|| format!("{}: child printed nothing", w.name))?;
    let doc = json::parse(last).map_err(|e| format!("{}: result line: {e}", w.name))?;
    if doc.get("correct") != Some(&Json::Bool(true))
        || doc.get("failed").and_then(Json::as_f64) != Some(0.0)
    {
        return Err(format!("{}: the run was not correct (see above)", w.name));
    }
    Ok(doc)
}

fn run_all(a: &Args) -> Result<(), String> {
    let mut failures = Vec::new();
    for w in &WORKLOADS {
        if let Err(e) = run_child(w, a, true) {
            eprintln!("bench: {e}");
            failures.push(w.name);
        }
    }
    if failures.is_empty() {
        Ok(())
    } else {
        Err(format!("failed workloads: {}", failures.join(" ")))
    }
}

/// A/A: the same code measured twice, workloads alternating, every
/// end-to-end metric's relative difference next to its bound.
fn aa_check(a: &Args) -> Result<(), String> {
    let mut rounds: Vec<Vec<Json>> = Vec::new();
    for _ in 0..2 {
        rounds.push(WORKLOADS.iter().map(|w| run_child(w, a, false)).collect::<Result<_, _>>()?);
    }
    let bounds = emit::bounds();
    let mut exceeded = 0;
    println!("# A/A check: |second - first| / first, per end-to-end metric and workload");
    println!(
        "{:<16} {:<18} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "first", "second", "diff", "bound"
    );
    for (wi, w) in WORKLOADS.iter().enumerate() {
        for (name, bound) in &bounds {
            let value = |round: &Vec<Json>| {
                round[wi]
                    .get("metrics")
                    .and_then(|m| m.get(name))
                    .and_then(|m| m.get("value"))
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("{}: no {name} in the result line", w.name))
            };
            let (first, second) = (value(&rounds[0])?, value(&rounds[1])?);
            let diff = (second - first).abs() / first.abs();
            let over = diff > *bound;
            exceeded += over as usize;
            println!(
                "{:<16} {:<18} {:>14.6} {:>14.6} {:>8.2}% {:>6.0}%{}",
                w.name,
                name,
                first,
                second,
                diff * 100.0,
                bound * 100.0,
                if over { "  EXCEEDED" } else { "" }
            );
        }
    }
    if exceeded > 0 {
        return Err(format!("{exceeded} metric × workload pairs differ by more than their bound"));
    }
    println!("# A/A check passed: every pair agrees within its bound");
    Ok(())
}

fn main() -> ExitCode {
    // The kernel tier must come from CPU detection, not from whoever
    // launched the benchmark. Nothing else runs yet, so this is safe.
    std::env::remove_var("PHYLO_KERNEL_TIER");
    std::env::remove_var("PHYLO_SIMD_PORTABLE");
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("bench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let done = match (args.aa_check, args.workload) {
        (true, _) => aa_check(&args),
        (false, Some(w)) => run_one(w, &args),
        (false, None) => run_all(&args),
    };
    match done {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("bench: {e}");
            ExitCode::FAILURE
        }
    }
}
