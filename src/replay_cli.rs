//! The `phyloplace replay` subcommand: the offline replacement-policy
//! lab over a captured slot-access trace (`place --slot-trace FILE`).
//!
//! Two modes:
//!
//! * **Sweep** (default): replay the trace for every requested policy ×
//!   slot count, print the miss-curve table with the Belady oracle
//!   floor (and a note that the columns of the policies that did not
//!   capture the trace replay a foreign demand stream and do not rank
//!   policies), and recommend the smallest slot count (and the arena bytes
//!   it costs) where the captured policy is within `--threshold` of the
//!   oracle.
//! * **Verify** (`--verify METRICS.json`): replay the trace at the
//!   captured policy and slot count, compare the simulated counters
//!   against the live run's `slot.*` metrics **exactly**, and check the
//!   oracle bound — the differential contract every eviction change is
//!   tested against (`scripts/ci.sh`).

use phylo_obs::Fields;
use phylo_replay::{
    min_feasible_slots, recommend, simulate, slot_count_ladder, sweep, Policy, SlotStats, Trace,
};

/// Parsed `phyloplace replay` options.
#[derive(Debug, Clone)]
pub struct ReplayOptions {
    /// The captured trace file.
    pub trace_path: String,
    /// Slot counts to sweep (`None` = the automatic ladder).
    pub slots: Option<Vec<usize>>,
    /// Policies to replay (`None` = all, including the oracle).
    pub policies: Option<Vec<Policy>>,
    /// Oracle-proximity threshold for the recommendation, percent.
    pub threshold_pct: f64,
    /// Metrics JSON of the captured run: switches to verify mode.
    pub verify_metrics: Option<String>,
}

const USAGE: &str = "usage: phyloplace replay --trace TRACE.txt \
  [--slots N[,M,...]] [--policies cost,lru,...,belady|all] \
  [--threshold PCT] [--verify METRICS.json]";

/// Parses `phyloplace replay` arguments (the leading `replay` token
/// included). Returns `Err(usage)` on any problem.
pub fn parse_replay(args: &[String]) -> Result<ReplayOptions, String> {
    let mut it = args.iter();
    match it.next().map(|s| s.as_str()) {
        Some("replay") => {}
        _ => return Err(USAGE.to_string()),
    }
    let mut trace_path = None;
    let mut opts = ReplayOptions {
        trace_path: String::new(),
        slots: None,
        policies: None,
        threshold_pct: 10.0,
        verify_metrics: None,
    };
    while let Some(flag) = it.next() {
        let mut value =
            || it.next().cloned().ok_or_else(|| format!("{flag} needs a value\n{USAGE}"));
        match flag.as_str() {
            "--trace" => trace_path = Some(value()?),
            "--slots" => {
                let v = value()?;
                let counts = v
                    .split(',')
                    .map(|t| {
                        t.trim()
                            .parse::<usize>()
                            .ok()
                            .filter(|&n| n > 0)
                            .ok_or_else(|| format!("bad --slots entry {t:?}\n{USAGE}"))
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                opts.slots = Some(counts);
            }
            "--policies" => {
                let v = value()?;
                if v == "all" {
                    opts.policies = None;
                } else {
                    let ps = v
                        .split(',')
                        .map(|t| {
                            Policy::parse(t.trim()).ok_or_else(|| {
                                format!(
                                    "bad --policies entry {t:?} (expected cost, lru, mru, \
                                     fifo, random, cost-lru, or belady)\n{USAGE}"
                                )
                            })
                        })
                        .collect::<Result<Vec<_>, _>>()?;
                    opts.policies = Some(ps);
                }
            }
            "--threshold" => {
                let v = value()?;
                let pct: f64 = v.parse().map_err(|_| format!("bad --threshold {v:?}\n{USAGE}"))?;
                if !pct.is_finite() || pct < 0.0 {
                    return Err(format!("bad --threshold {v:?}: must be >= 0\n{USAGE}"));
                }
                opts.threshold_pct = pct;
            }
            "--verify" => opts.verify_metrics = Some(value()?),
            other => return Err(format!("unknown flag {other:?}\n{USAGE}")),
        }
    }
    opts.trace_path = trace_path.ok_or_else(|| format!("--trace is required\n{USAGE}"))?;
    Ok(opts)
}

/// The live counters a verify pass compares against.
fn live_stats(doc: &str) -> Result<SlotStats, String> {
    let f = Fields(doc);
    let get = |key: &str| f.uint(key).map_err(|e| format!("metrics JSON: {e}"));
    Ok(SlotStats {
        hits: get("slot.hits")?,
        misses: get("slot.misses")?,
        evictions: get("slot.evictions")?,
        installs: get("slot.installs")?,
        acquires: get("slot.acquires")?,
    })
}

fn fmt_stats(s: &SlotStats) -> String {
    format!(
        "hits={} misses={} evictions={} installs={} acquires={}",
        s.hits, s.misses, s.evictions, s.installs, s.acquires
    )
}

/// Runs the replay lab; returns the report text to print.
pub fn run_replay(opts: &ReplayOptions) -> Result<String, String> {
    let text = std::fs::read_to_string(&opts.trace_path)
        .map_err(|e| format!("{}: {e}", opts.trace_path))?;
    let trace = Trace::parse(&text).map_err(|e| format!("{}: {e}", opts.trace_path))?;
    if trace.events.is_empty() {
        return Err(format!("{}: trace has no events", opts.trace_path));
    }
    let mut out = String::new();
    let meta = &trace.meta;
    out.push_str(&format!(
        "trace: {} events, {} distinct CLVs demanded, captured with strategy={} n_slots={}\n",
        trace.events.len(),
        trace.distinct_acquired(),
        if meta.strategy.is_empty() { "?" } else { &meta.strategy },
        meta.n_slots,
    ));

    if let Some(metrics_path) = &opts.verify_metrics {
        return verify(&trace, opts, metrics_path, out);
    }

    let policies = opts.policies.clone().unwrap_or_else(Policy::all);
    let slot_counts = opts.slots.clone().unwrap_or_else(|| slot_count_ladder(&trace));
    out.push_str(&format!(
        "feasibility floor: {} slots (peak pinned set + 1)\n\n",
        min_feasible_slots(&trace)
    ));
    let rows = sweep(&trace, &slot_counts, &policies);

    // Miss-curve table: one line per slot count, one column per policy.
    out.push_str(&format!("{:>8} ", "slots"));
    for p in &policies {
        out.push_str(&format!("{:>10} ", p.to_string()));
    }
    out.push('\n');
    for &n in &slot_counts {
        out.push_str(&format!("{n:>8} "));
        for p in &policies {
            let cell = rows
                .iter()
                .find(|r| r.n_slots == n && r.policy == *p)
                .map(|r| match &r.outcome {
                    Ok(s) => s.misses.to_string(),
                    Err(_) => "stuck".to_string(),
                })
                .unwrap_or_default();
            out.push_str(&format!("{cell:>10} "));
        }
        out.push('\n');
    }
    // Which CLVs the planner asks for depends on what the capturing
    // policy kept resident, so the other columns replay a foreign
    // demand stream: on it the policy that did not produce it tends to
    // win, whichever that is.
    let capturer = if meta.strategy.is_empty() { "the capturing policy" } else { &meta.strategy };
    out.push_str(&format!(
        "note: every column but {capturer}'s replays {capturer}'s demand stream and does not \
         rank policies; compare policies by one live run (or trace) each\n"
    ));

    // Recommendation for the captured policy (or the first requested
    // live policy when the trace carries no strategy name).
    let captured = Policy::parse(&meta.strategy)
        .or_else(|| policies.iter().find(|p| **p != Policy::Belady).copied());
    if let Some(policy) = captured {
        // The oracle cells may not have been swept explicitly; make sure
        // they exist for the recommendation.
        let rows = if policies.contains(&Policy::Belady) {
            rows
        } else {
            let mut all = rows;
            all.extend(sweep(&trace, &slot_counts, &[Policy::Belady]));
            all
        };
        match recommend(&rows, policy, opts.threshold_pct, meta.bytes_per_slot) {
            Some(rec) => {
                out.push_str(&format!(
                    "\nrecommendation: {} slots brings {} within {}% of the oracle \
                     ({} vs {} misses)",
                    rec.n_slots,
                    rec.policy,
                    opts.threshold_pct,
                    rec.policy_misses,
                    rec.oracle_misses,
                ));
                if rec.arena_bytes > 0 {
                    out.push_str(&format!(
                        " — slot arena ≈ {:.1} MiB (--maxmem floor)",
                        rec.arena_bytes as f64 / (1024.0 * 1024.0)
                    ));
                }
                out.push('\n');
            }
            None => out.push_str(&format!(
                "\nno swept slot count brings {policy} within {}% of the oracle; \
                 widen --slots or raise --threshold\n",
                opts.threshold_pct
            )),
        }
    }
    Ok(out)
}

/// Misses over all demand accesses (0 when there were none).
fn miss_rate(s: &SlotStats) -> f64 {
    if s.acquires == 0 {
        0.0
    } else {
        s.misses as f64 / s.acquires as f64
    }
}

/// The differential pass: exact counter equality at the captured
/// configuration, plus the oracle bound over every live policy.
fn verify(
    trace: &Trace,
    opts: &ReplayOptions,
    metrics_path: &str,
    mut out: String,
) -> Result<String, String> {
    let meta = &trace.meta;
    let doc = std::fs::read_to_string(metrics_path).map_err(|e| format!("{metrics_path}: {e}"))?;
    let live = live_stats(&doc)?;
    let policy = Policy::parse(&meta.strategy)
        .ok_or_else(|| format!("trace names unknown strategy {:?}", meta.strategy))?;
    let n_slots = meta.n_slots as usize;
    if n_slots == 0 {
        return Err("trace meta has no slot count".to_string());
    }
    let sim = simulate(trace, n_slots, policy).map_err(|e| e.to_string())?;
    if sim != live {
        return Err(format!(
            "differential MISMATCH for {policy} at {n_slots} slots:\n  simulated: {}\n  live:      {}",
            fmt_stats(&sim),
            fmt_stats(&live)
        ));
    }
    out.push_str(&format!(
        "verified: simulated counters match the live run exactly ({policy}, {n_slots} slots: {})\n",
        fmt_stats(&sim)
    ));

    // Per-policy miss line at the captured slot count, oracle last.
    let policies = opts.policies.clone().unwrap_or_else(Policy::all);
    let mut oracle_misses = None;
    for p in &policies {
        match simulate(trace, n_slots, *p) {
            Ok(s) => {
                let tag = if *p == Policy::Belady { "  (oracle floor)" } else { "" };
                out.push_str(&format!(
                    "  {:<10} misses={:<8} miss-rate={:.4}{tag}\n",
                    p.to_string(),
                    s.misses,
                    miss_rate(&s)
                ));
                if *p == Policy::Belady {
                    oracle_misses = Some(s.misses);
                }
            }
            Err(e) => out.push_str(&format!("  {:<10} {e}\n", p.to_string())),
        }
    }
    let oracle = match oracle_misses {
        Some(m) => m,
        None => simulate(trace, n_slots, Policy::Belady).map_err(|e| e.to_string())?.misses,
    };
    if oracle > live.misses {
        return Err(format!(
            "oracle bound VIOLATED: belady simulated {oracle} misses > live {} — \
             the oracle must never lose",
            live.misses
        ));
    }
    out.push_str(&format!("oracle bound holds: belady {oracle} <= live {} misses\n", live.misses));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_requires_trace() {
        let args: Vec<String> = vec!["replay".into()];
        assert!(parse_replay(&args).unwrap_err().contains("--trace is required"));
        let args: Vec<String> = vec!["place".into()];
        assert!(parse_replay(&args).is_err());
    }

    #[test]
    fn parse_accepts_the_full_surface() {
        let args: Vec<String> = [
            "replay",
            "--trace",
            "t.txt",
            "--slots",
            "2,4,8",
            "--policies",
            "lru,belady",
            "--threshold",
            "5",
            "--verify",
            "m.json",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let o = parse_replay(&args).unwrap();
        assert_eq!(o.trace_path, "t.txt");
        assert_eq!(o.slots, Some(vec![2, 4, 8]));
        assert_eq!(o.policies, Some(vec![Policy::parse("lru").unwrap(), Policy::Belady]));
        assert_eq!(o.threshold_pct, 5.0);
        assert_eq!(o.verify_metrics.as_deref(), Some("m.json"));
    }

    #[test]
    fn parse_rejects_bad_values() {
        let base = |extra: &[&str]| -> Vec<String> {
            ["replay", "--trace", "t.txt"].iter().chain(extra).map(|s| s.to_string()).collect()
        };
        assert!(parse_replay(&base(&["--slots", "0"])).is_err());
        assert!(parse_replay(&base(&["--slots", "2,x"])).is_err());
        assert!(parse_replay(&base(&["--policies", "optimal-ish"])).is_err());
        assert!(parse_replay(&base(&["--threshold", "-1"])).is_err());
        assert!(parse_replay(&base(&["--bogus"])).is_err());
        // The retired tier what-if flags are unknown flags now.
        assert!(parse_replay(&base(&["--tier-reload", "5000"])).is_err());
    }

    #[test]
    fn retired_event_kinds_are_a_typed_error() {
        let dir = std::env::temp_dir().join(format!("phyloplace-retired-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.txt");
        std::fs::write(&path, "#phylo-slot-trace v1\na 0\nx 3\n").unwrap();
        let opts = ReplayOptions {
            trace_path: path.to_str().unwrap().into(),
            slots: None,
            policies: None,
            threshold_pct: 10.0,
            verify_metrics: None,
        };
        let err = run_replay(&opts).unwrap_err();
        assert!(err.ends_with("line 3: unknown event kind \"x\""), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn live_stats_reads_the_metrics_format() {
        let doc = concat!(
            "{\n  \"counters\": {\n    \"slot.acquires\": 49,\n    \"slot.evictions\": 3,\n",
            "    \"slot.hits\": 7,\n    \"slot.installs\": 42,\n    \"slot.misses\": 42\n  }\n}",
        );
        let s = live_stats(doc).unwrap();
        assert_eq!((s.hits, s.misses, s.evictions, s.installs, s.acquires), (7, 42, 3, 42, 49));
        let err = live_stats(&doc.replace("slot.evictions", "slot.evicted")).unwrap_err();
        assert_eq!(err, "metrics JSON: missing field `slot.evictions`");
    }

    #[test]
    fn sweep_mode_renders_a_table_and_recommendation() {
        let dir = std::env::temp_dir().join(format!("phyloplace-replay-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.txt");
        let mut text = String::from(
            "#phylo-slot-trace v1\n#meta n_clvs=6 n_slots=2 strategy=lru bytes_per_slot=1000\n",
        );
        for _ in 0..5 {
            for clv in 0..6 {
                text.push_str(&format!("a {clv}\n"));
            }
        }
        std::fs::write(&path, &text).unwrap();
        let opts = ReplayOptions {
            trace_path: path.to_str().unwrap().into(),
            slots: None,
            policies: Some(vec![Policy::parse("lru").unwrap(), Policy::Belady]),
            threshold_pct: 10.0,
            verify_metrics: None,
        };
        let out = run_replay(&opts).unwrap();
        assert!(out.contains("belady"), "{out}");
        assert!(out.contains("recommendation"), "{out}");
        assert!(
            out.contains(
                "\nnote: every column but lru's replays lru's demand stream and does not rank \
                 policies; compare policies by one live run (or trace) each\n"
            ),
            "{out}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn verify_mode_matches_a_hand_built_run() {
        // Trace: 0 1 2 0 over 2 slots, lru -> misses 0,1,2 then 0 misses
        // again (evicted by 2). hits=0 misses=4 evictions=2.
        let dir = std::env::temp_dir().join(format!("phyloplace-verify-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let tpath = dir.join("t.txt");
        std::fs::write(
            &tpath,
            "#phylo-slot-trace v1\n#meta n_clvs=3 n_slots=2 strategy=lru bytes_per_slot=0\na 0\na 1\na 2\na 0\n",
        )
        .unwrap();
        let mpath = dir.join("m.json");
        std::fs::write(
            &mpath,
            "{\n  \"counters\": {\n    \"slot.hits\": 0,\n    \"slot.misses\": 4,\n    \"slot.evictions\": 2,\n    \"slot.installs\": 4,\n    \"slot.acquires\": 4\n  }\n}",
        )
        .unwrap();
        let opts = ReplayOptions {
            trace_path: tpath.to_str().unwrap().into(),
            slots: None,
            policies: None,
            threshold_pct: 10.0,
            verify_metrics: Some(mpath.to_str().unwrap().into()),
        };
        let out = run_replay(&opts).unwrap();
        assert!(out.contains("verified"), "{out}");
        assert!(out.contains("oracle bound holds"), "{out}");
        // A doctored metrics file must fail loudly.
        std::fs::write(
            &mpath,
            "{\n  \"counters\": {\n    \"slot.hits\": 1,\n    \"slot.misses\": 3,\n    \"slot.evictions\": 2,\n    \"slot.installs\": 4,\n    \"slot.acquires\": 4\n  }\n}",
        )
        .unwrap();
        let err = run_replay(&opts).unwrap_err();
        assert!(err.contains("MISMATCH"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
