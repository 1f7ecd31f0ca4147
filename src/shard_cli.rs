//! The `phyloplace shard` coordinator CLI: sharded, supervised,
//! fault-tolerant placement in one command.
//!
//! ```text
//! phyloplace shard --tree REF.nwk --ref-msa REF.fasta --queries Q.fasta \
//!     --out OUT.jplace --workdir DIR --shards N [placement flags...] \
//!     [--workers N] [--heartbeat-timeout SECS] [--straggler-factor F] \
//!     [--max-shard-retries N] [--deadline SECS] [--metrics-json M.json]
//! ```
//!
//! The coordinator splits the queries, launches one checkpoint-enabled
//! worker per shard, supervises them (crash/hang/straggler detection,
//! backoff re-queue with journal resume), and merges the per-shard
//! jplace outputs into `--out` — byte-identical to a single-process
//! run. Rerunning with the same `--workdir` resumes after a
//! coordinator crash; a workdir whose inputs no longer match is
//! refused (exit 2).

use crate::cli::{
    engine_settings, parse_deadline, parse_scoring_flag, parse_value, with_deadline, CliOptions,
};
use phylo_shard::{run_coordinator, CoordinatorConfig, ShardConfig, ShardError, Shutdown};
use std::time::Duration;

/// Parsed `phyloplace shard` options.
#[derive(Debug, Clone)]
pub struct ShardCliOptions {
    /// Reference tree path.
    pub tree_path: String,
    /// Reference MSA path.
    pub ref_path: String,
    /// Unsplit query FASTA path.
    pub query_path: String,
    /// Merged jplace destination (required: stdout belongs to nobody in
    /// a multi-process run).
    pub out_path: String,
    /// Coordinator state directory.
    pub workdir: String,
    /// Requested shard count (clamped to the query count).
    pub n_shards: usize,
    /// Placement flags forwarded verbatim to every worker (the
    /// coordinator adds a `--threads` share when they carry none).
    pub passthrough: Vec<String>,
    /// Concurrent workers (0 = one per shard).
    pub max_workers: usize,
    /// Seconds of worker silence before a hang kill.
    pub heartbeat_timeout_secs: f64,
    /// Fleet-median rate divisor for straggler kills.
    pub straggler_factor: f64,
    /// Re-queues allowed per shard.
    pub max_retries: u32,
    /// Wall-clock budget for the whole sharded run.
    pub deadline_secs: Option<f64>,
    /// Write fleet metrics as JSON here.
    pub metrics_json: Option<String>,
}

/// Parses `phyloplace shard` arguments (`args[0]` must be `"shard"`).
pub fn parse_shard(args: &[String]) -> Result<ShardCliOptions, String> {
    const USAGE: &str =
        "usage: phyloplace shard --tree REF.nwk --ref-msa REF.fasta --queries Q.fasta \
  --out OUT.jplace --workdir DIR --shards N \
  [--aa] [--maxmem SIZE[K|M|G|T] | --maxmem auto] [--gamma ALPHA | --no-gamma] \
  [--chunk N] [--threads N (default: the machine's cores, split over the workers)] \
  [--kernel-tier auto|reference|simd] \
  [--strategy cost|lru|mru|fifo|random|cost-lru] [--no-lookup] \
  [--workers N] [--heartbeat-timeout SECS] [--straggler-factor F] \
  [--max-shard-retries N] [--deadline SECS] [--metrics-json METRICS.json]";
    if args.first().map(String::as_str) != Some("shard") {
        return Err(USAGE.to_string());
    }
    let mut tree_path = None;
    let mut ref_path = None;
    let mut query_path = None;
    let mut out_path = None;
    let mut workdir = None;
    let mut n_shards = None;
    let mut passthrough: Vec<String> = Vec::new();
    let mut scoring = CliOptions::default();
    let mut max_workers = 0usize;
    let mut heartbeat_timeout_secs = 30.0f64;
    let mut straggler_factor = 8.0f64;
    let mut max_retries = 3u32;
    let mut deadline_secs = None;
    let mut metrics_json = None;
    let usage = |e: String| format!("{e}\n{USAGE}");
    let mut it = args[1..].iter();
    while let Some(flag) = it.next() {
        let mut value =
            || it.next().cloned().ok_or_else(|| format!("{flag} needs a value\n{USAGE}"));
        match flag.as_str() {
            "--tree" => tree_path = Some(value()?),
            "--ref-msa" => ref_path = Some(value()?),
            "--queries" => query_path = Some(value()?),
            "--out" => out_path = Some(value()?),
            "--workdir" => workdir = Some(value()?),
            "--shards" => {
                let v = value()?;
                let n: usize = parse_value(flag, &v).map_err(usage)?;
                if n == 0 {
                    return Err(format!("bad --shards {v:?}: need at least one\n{USAGE}"));
                }
                n_shards = Some(n);
            }
            "--kernel-tier" => {
                let v = value()?;
                phylo_kernel::TierChoice::parse(&v)
                    .ok_or_else(|| format!("bad --kernel-tier {v:?}\n{USAGE}"))?;
                passthrough.extend(["--kernel-tier".to_string(), v]);
            }
            "--workers" => max_workers = parse_value(flag, &value()?).map_err(usage)?,
            "--heartbeat-timeout" => {
                let v = value()?;
                let secs: f64 = parse_value(flag, &v).map_err(usage)?;
                if !secs.is_finite() || secs <= 0.0 {
                    return Err(format!("bad --heartbeat-timeout {v:?}: must be > 0\n{USAGE}"));
                }
                heartbeat_timeout_secs = secs;
            }
            "--straggler-factor" => {
                let v = value()?;
                let f: f64 = parse_value(flag, &v).map_err(usage)?;
                if !f.is_finite() || f <= 1.0 {
                    return Err(format!(
                        "bad --straggler-factor {v:?}: must be > 1 (smaller is more \
                         trigger-happy)\n{USAGE}"
                    ));
                }
                straggler_factor = f;
            }
            "--max-shard-retries" => max_retries = parse_value(flag, &value()?).map_err(usage)?,
            "--deadline" => deadline_secs = Some(parse_deadline(&value()?).map_err(usage)?),
            "--metrics-json" => metrics_json = Some(value()?),
            // Worker passthrough: the scoring flags are checked here by
            // the table the workers parse them with, so a typo fails the
            // coordinator (exit 2), not every worker (N failures), and
            // forwarded verbatim.
            other => {
                let rest = it.as_slice();
                if !parse_scoring_flag(&mut scoring, other, &mut it).map_err(usage)? {
                    return Err(format!("unknown flag {other:?}\n{USAGE}"));
                }
                passthrough.push(flag.clone());
                passthrough.extend_from_slice(&rest[..rest.len() - it.as_slice().len()]);
            }
        }
    }
    // Resolved as every worker will resolve it, so a setting the workers
    // would refuse (a bad `PHYLO_KERNEL_TIER` among them) fails here once.
    engine_settings(&scoring).map_err(usage)?;
    let require = |v: Option<String>, what: &str| -> Result<String, String> {
        v.ok_or_else(|| format!("{what} is required\n{USAGE}"))
    };
    Ok(ShardCliOptions {
        tree_path: require(tree_path, "--tree")?,
        ref_path: require(ref_path, "--ref-msa")?,
        query_path: require(query_path, "--queries")?,
        out_path: require(out_path, "--out")?,
        workdir: require(workdir, "--workdir")?,
        n_shards: n_shards.ok_or_else(|| format!("--shards is required\n{USAGE}"))?,
        passthrough,
        max_workers,
        heartbeat_timeout_secs,
        straggler_factor,
        max_retries,
        deadline_secs,
        metrics_json,
    })
}

/// Runs a sharded placement and writes the merged jplace (and metrics).
/// Returns a one-line human-readable summary.
pub fn run_shard(opts: &ShardCliOptions, shutdown: &Shutdown) -> Result<String, ShardError> {
    let cfg = CoordinatorConfig {
        workdir: std::path::PathBuf::from(&opts.workdir),
        tree_path: opts.tree_path.clone(),
        ref_path: opts.ref_path.clone(),
        query_path: opts.query_path.clone(),
        worker_exe: std::env::current_exe()
            .map_err(|e| ShardError::Runtime(format!("cannot locate own binary: {e}")))?,
        passthrough: opts.passthrough.clone(),
        shard: ShardConfig {
            n_shards: opts.n_shards,
            max_workers: opts.max_workers,
            heartbeat_timeout: Duration::from_secs_f64(opts.heartbeat_timeout_secs),
            straggler_factor: opts.straggler_factor,
            max_retries: opts.max_retries,
            ..ShardConfig::default()
        },
    };
    // An expired `--deadline` arms the shutdown token, which moves the
    // supervisor to the Draining phase: workers are SIGTERMed and each
    // writes its durable prefix.
    let outcome = with_deadline(opts.deadline_secs, &shutdown.cancel_token(), || {
        run_coordinator(&cfg, shutdown)
    })?;
    crate::place::result::write_jplace_atomic(
        std::path::Path::new(&opts.out_path),
        &outcome.jplace,
    )
    .map_err(|e| ShardError::Runtime(format!("{}: {e}", opts.out_path)))?;
    if let Some(path) = &opts.metrics_json {
        // The fleet counters come from this run's report, not from the
        // live `shard.*` probes: the registry is process-global, the
        // file is per run (same pattern as `run_metrics`).
        let mut snap = phylo_obs::Snapshot::default();
        snap.set_counter("shard.launched", outcome.report.launched);
        snap.set_counter("shard.requeues", outcome.report.requeues);
        snap.set_counter("shard.crashes", outcome.report.crashes);
        snap.set_counter("shard.hangs", outcome.report.hangs);
        snap.set_counter("shard.stragglers", outcome.report.stragglers);
        snap.set_gauge("shard.n_shards", outcome.n_shards as i64);
        snap.set_gauge("shard.n_queries", outcome.n_queries as i64);
        std::fs::write(path, snap.to_json())
            .map_err(|e| ShardError::Runtime(format!("{path}: {e}")))?;
    }
    let trouble = if outcome.report.requeues > 0 {
        format!(
            " ({} re-queues: {} crashes, {} hangs, {} stragglers)",
            outcome.report.requeues,
            outcome.report.crashes,
            outcome.report.hangs,
            outcome.report.stragglers
        )
    } else {
        String::new()
    };
    Ok(format!(
        "placed {} queries across {} shards with {} worker launches{}",
        outcome.n_queries, outcome.n_shards, outcome.report.launched, trouble
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base(extra: &[&str]) -> Vec<String> {
        let mut v: Vec<String> = [
            "shard",
            "--tree",
            "t.nwk",
            "--ref-msa",
            "r.fasta",
            "--queries",
            "q.fasta",
            "--out",
            "o.jplace",
            "--workdir",
            "wd",
            "--shards",
            "4",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        v.extend(extra.iter().map(|s| s.to_string()));
        v
    }

    #[test]
    fn parses_and_validates() {
        let opts = parse_shard(&base(&[])).unwrap();
        assert_eq!(opts.n_shards, 4);
        assert_eq!(opts.max_retries, 3);
        assert!(opts.passthrough.is_empty());

        let opts = parse_shard(&base(&[
            "--maxmem",
            "2G",
            "--chunk",
            "16",
            "--aa",
            "--heartbeat-timeout",
            "2.5",
            "--max-shard-retries",
            "7",
            "--workers",
            "2",
        ]))
        .unwrap();
        assert_eq!(opts.passthrough, vec!["--maxmem", "2G", "--chunk", "16", "--aa"]);
        assert_eq!(opts.heartbeat_timeout_secs, 2.5);
        assert_eq!(opts.max_retries, 7);
        assert_eq!(opts.max_workers, 2);
    }

    #[test]
    fn rejects_garbage() {
        for (drop_flag, _) in [("--tree", 1)] {
            let args: Vec<String> = base(&[])
                .into_iter()
                .scan(false, |skip, a| {
                    Some(if *skip {
                        *skip = false;
                        None
                    } else if a == drop_flag {
                        *skip = true;
                        None
                    } else {
                        Some(a)
                    })
                })
                .flatten()
                .collect();
            assert!(parse_shard(&args).unwrap_err().contains("--tree is required"));
        }
        assert!(parse_shard(&base(&["--shards", "0"])).is_err());
        assert!(parse_shard(&base(&["--heartbeat-timeout", "0"])).is_err());
        assert!(parse_shard(&base(&["--straggler-factor", "1.0"])).is_err());
        assert!(parse_shard(&base(&["--maxmem", "-2G"])).is_err());
        assert!(parse_shard(&base(&["--bogus"])).is_err());
        assert!(parse_shard(&base(&["--kernel-tier", "fixed"])).is_err());
        assert!(parse_shard(&["place".to_string()]).is_err());
    }
}
