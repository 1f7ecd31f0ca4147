//! The `phyloplace replay` subcommand: the offline replacement-policy
//! lab over a captured slot-access trace (`place --slot-trace FILE`).
//!
//! Two modes:
//!
//! * **Sweep** (default): replay the trace for every requested policy ×
//!   slot count, print the miss-curve table with the Belady oracle
//!   floor, and recommend the smallest slot count (and the arena bytes
//!   it costs) where the captured policy is within `--threshold` of the
//!   oracle.
//! * **Verify** (`--verify METRICS.json`): replay the trace at the
//!   captured policy and slot count, compare the simulated counters
//!   against the live run's `slot.*` metrics **exactly**, and check the
//!   oracle bound — the differential contract every eviction change is
//!   tested against (`scripts/ci.sh`).

use phylo_replay::{
    crossover_cost, min_feasible_slots, recommend, simulate, simulate_tiers, slot_count_ladder,
    sweep, Policy, SimStats, TierModel, Trace,
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
    /// Tier what-if model (`--tier-reload` enables it).
    pub tier: Option<TierModel>,
}

const USAGE: &str = "usage: phyloplace replay --trace TRACE.txt \
  [--slots N[,M,...]] [--policies cost,lru,...,belady|all] \
  [--threshold PCT] [--verify METRICS.json] \
  [--tier-reload NS [--tier-rate NS_PER_COST] [--tier-cap BYTES]]";

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
        tier: None,
    };
    let mut tier_reload: Option<f64> = None;
    let mut tier_rate: f64 = 0.0;
    let mut tier_cap: Option<u64> = None;
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
            "--tier-reload" | "--tier-rate" => {
                let v = value()?;
                let ns: f64 = v.parse().map_err(|_| format!("bad {flag} {v:?}\n{USAGE}"))?;
                if !ns.is_finite() || ns < 0.0 {
                    return Err(format!("bad {flag} {v:?}: must be >= 0\n{USAGE}"));
                }
                if flag == "--tier-reload" {
                    tier_reload = Some(ns);
                } else {
                    tier_rate = ns;
                }
            }
            "--tier-cap" => {
                let v = value()?;
                let cap: u64 = v.parse().map_err(|_| format!("bad --tier-cap {v:?}\n{USAGE}"))?;
                if cap == 0 {
                    return Err(format!("bad --tier-cap {v:?}: must be positive\n{USAGE}"));
                }
                tier_cap = Some(cap);
            }
            other => return Err(format!("unknown flag {other:?}\n{USAGE}")),
        }
    }
    opts.trace_path = trace_path.ok_or_else(|| format!("--trace is required\n{USAGE}"))?;
    match tier_reload {
        Some(reload_ns) => {
            opts.tier = Some(TierModel {
                reload_ns,
                recompute_ns_per_cost: tier_rate,
                capacity_bytes: tier_cap,
                entry_bytes: None,
            });
        }
        None if tier_rate != 0.0 || tier_cap.is_some() => {
            return Err(format!("--tier-rate/--tier-cap need --tier-reload\n{USAGE}"));
        }
        None => {}
    }
    Ok(opts)
}

/// Pulls one integer counter out of a `--metrics-json` document without
/// a JSON parser: finds the quoted key, then `: <digits>`.
fn json_counter(doc: &str, key: &str) -> Option<u64> {
    let needle = format!("\"{key}\"");
    let at = doc.find(&needle)? + needle.len();
    let rest = doc[at..].trim_start();
    let rest = rest.strip_prefix(':')?.trim_start();
    let digits: String = rest.chars().take_while(|c| c.is_ascii_digit()).collect();
    digits.parse().ok()
}

/// The live counters a verify pass compares against.
fn live_stats(doc: &str) -> Result<SimStats, String> {
    let get = |key: &str| {
        json_counter(doc, key).ok_or_else(|| format!("metrics JSON has no {key:?} counter"))
    };
    Ok(SimStats {
        hits: get("slot.hits")?,
        misses: get("slot.misses")?,
        evictions: get("slot.evictions")?,
        installs: get("slot.installs")?,
        acquires: get("slot.acquires")?,
    })
}

fn fmt_stats(s: &SimStats) -> String {
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

    if let Some(model) = &opts.tier {
        out.push_str(&tier_what_if(&trace, opts, model)?);
    }

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

/// The tier what-if block: model a tiered store against the captured
/// (or first requested) policy and slot count, and report how the
/// misses would have split into reloads vs recomputations.
fn tier_what_if(trace: &Trace, opts: &ReplayOptions, model: &TierModel) -> Result<String, String> {
    let meta = &trace.meta;
    let policy = Policy::parse(&meta.strategy)
        .or_else(|| {
            opts.policies.as_ref().and_then(|ps| ps.iter().find(|p| **p != Policy::Belady).copied())
        })
        .ok_or_else(|| "tier what-if needs a live policy (trace meta or --policies)".to_string())?;
    let n_slots =
        match meta.n_slots as usize {
            0 => *opts.slots.as_ref().and_then(|s| s.first()).ok_or_else(|| {
                "tier what-if needs a slot count (trace meta or --slots)".to_string()
            })?,
            n => n,
        };
    let s = simulate_tiers(trace, n_slots, policy, model).map_err(|e| e.to_string())?;
    let mut out = format!(
        "tier what-if ({policy}, {n_slots} slots, reload={:.0}ns):\n  \
         demotions={} drops_cost={} drops_budget={} reloads={} recomputes={}\n",
        model.reload_ns, s.demotions, s.drops_cost, s.drops_budget, s.reloads, s.recomputes,
    );
    if model.recompute_ns_per_cost > 0.0 {
        out.push_str(&format!(
            "  modeled miss time: {:.3}ms tiered vs {:.3}ms untiered (saved {:.3}ms)\n",
            (s.reload_ns_total + s.recompute_ns_total) as f64 / 1e6,
            s.untiered_ns_total as f64 / 1e6,
            s.saved_ns() as f64 / 1e6,
        ));
    }
    if let Some(c) = crossover_cost(model) {
        out.push_str(&format!(
            "  crossover: demotion pays above recompute cost {c:.2} (trace cost units)\n"
        ));
    }
    out.push('\n');
    Ok(out)
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
                    s.miss_rate()
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
    }

    #[test]
    fn parse_tier_flags_build_a_model() {
        let base = |extra: &[&str]| -> Vec<String> {
            ["replay", "--trace", "t.txt"].iter().chain(extra).map(|s| s.to_string()).collect()
        };
        let o = parse_replay(&base(&[
            "--tier-reload",
            "5000",
            "--tier-rate",
            "12.5",
            "--tier-cap",
            "1000000",
        ]))
        .unwrap();
        let m = o.tier.unwrap();
        assert_eq!(m.reload_ns, 5000.0);
        assert_eq!(m.recompute_ns_per_cost, 12.5);
        assert_eq!(m.capacity_bytes, Some(1_000_000));
        // Dependent flags without the enabler must be rejected.
        assert!(parse_replay(&base(&["--tier-rate", "1"])).is_err());
        assert!(parse_replay(&base(&["--tier-cap", "0", "--tier-reload", "1"])).is_err());
        assert!(parse_replay(&base(&["--tier-reload", "-3"])).is_err());
    }

    #[test]
    fn tier_what_if_renders_in_sweep_mode() {
        let dir = std::env::temp_dir().join(format!("phyloplace-tiersim-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.txt");
        let mut text = String::from(
            "#phylo-slot-trace v1\n#meta n_clvs=6 n_slots=2 strategy=lru bytes_per_slot=1000\n#costs 4.0 4.0 4.0 4.0 4.0 4.0\n",
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
            tier: Some(TierModel {
                reload_ns: 100.0,
                recompute_ns_per_cost: 1000.0,
                capacity_bytes: None,
                entry_bytes: None,
            }),
        };
        let out = run_replay(&opts).unwrap();
        assert!(out.contains("tier what-if"), "{out}");
        assert!(out.contains("crossover"), "{out}");
        assert!(out.contains("saved"), "{out}");
        std::fs::remove_dir_all(&dir).unwrap();
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
            tier: None,
        };
        let err = run_replay(&opts).unwrap_err();
        assert!(err.ends_with("line 3: unknown event kind \"x\""), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn json_counter_handles_the_metrics_format() {
        let doc = "{\n  \"counters\": {\n    \"slot.misses\": 42,\n    \"slot.hits\": 7\n  }\n}";
        assert_eq!(json_counter(doc, "slot.misses"), Some(42));
        assert_eq!(json_counter(doc, "slot.hits"), Some(7));
        assert_eq!(json_counter(doc, "slot.evictions"), None);
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
            tier: None,
        };
        let out = run_replay(&opts).unwrap();
        assert!(out.contains("belady"), "{out}");
        assert!(out.contains("recommendation"), "{out}");
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
            tier: None,
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
