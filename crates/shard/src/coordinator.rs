//! The sharded-run coordinator.
//!
//! [`run_coordinator`] is the whole `phyloplace shard` story:
//!
//! 1. split the query FASTA into contiguous shards
//!    ([`crate::split::split_fasta`]) and fingerprint the run in a
//!    [`ShardSetManifest`] at `workdir/shards.json` — a reused work
//!    directory whose inputs or split differ is refused (exit 2), never
//!    silently resumed into wrong answers;
//! 2. launch one checkpoint-enabled `phyloplace place --heartbeat`
//!    worker per shard — each with its share of the machine's cores
//!    unless the user passed `--threads` — and supervise the fleet
//!    ([`crate::supervisor::supervise`]): re-launches of a shard resume
//!    from its journal (`--resume`) so completed chunks are never
//!    recomputed;
//! 3. merge the per-shard jplace outputs ([`crate::merge`]) into one
//!    document byte-identical to a single-process run.
//!
//! Coordinator-crash recovery falls out of the same pieces: rerunning
//! with the same `--workdir` revalidates `shards.json`, finds each
//! shard's journal, and resumes every shard from its durable prefix.
//!
//! Fault injection crosses the process boundary via the environment:
//! `PHYLO_FAULTS_SHARD_<k>` on the coordinator becomes `PHYLO_FAULTS`
//! in shard `k`'s **first** attempt only — retries run clean, which is
//! exactly the crash-recovery scenario the chaos tests exercise.

use crate::merge::{merge_jplace, parse_jplace, JplaceDoc};
use crate::process::ProcessWorker;
use crate::shutdown::Shutdown;
use crate::split::split_fasta;
use crate::supervisor::{supervise, ShardConfig, ShardError, ShardReport, Worker};
use phylo_journal::{
    fnv1a64, write_text_atomic, ShardSetManifest, MANIFEST_FILE, SHARD_MANIFEST_FILE,
    SHARD_MANIFEST_FORMAT,
};
use std::path::{Path, PathBuf};
use std::process::Command;

/// Everything a sharded run needs.
#[derive(Debug, Clone)]
pub struct CoordinatorConfig {
    /// Scratch/state directory: `shards.json`, per-shard query files,
    /// journals, and outputs live here.
    pub workdir: PathBuf,
    /// Reference tree path (passed through to workers).
    pub tree_path: String,
    /// Reference MSA path (passed through to workers).
    pub ref_path: String,
    /// The unsplit query FASTA path.
    pub query_path: String,
    /// The worker binary (normally `std::env::current_exe()`).
    pub worker_exe: PathBuf,
    /// Placement flags forwarded verbatim to every worker (alphabet,
    /// budget, chunk size, threads, …). Without `--threads` among them,
    /// the coordinator adds each worker's share of the machine's cores.
    pub passthrough: Vec<String>,
    /// Supervision policy.
    pub shard: ShardConfig,
}

/// A finished sharded run.
#[derive(Debug)]
pub struct CoordinatorOutcome {
    /// The merged jplace document.
    pub jplace: String,
    /// Fleet statistics.
    pub report: ShardReport,
    /// Shards actually run (after clamping to the query count).
    pub n_shards: usize,
    /// Total queries placed.
    pub n_queries: usize,
}

/// The per-shard subdirectory of a work directory.
pub fn shard_dir(workdir: &Path, shard: usize) -> PathBuf {
    workdir.join(format!("shard-{shard:03}"))
}

fn runtime(context: &str, e: impl std::fmt::Display) -> ShardError {
    ShardError::Runtime(format!("{context}: {e}"))
}

/// The `--threads` each worker gets when the passthrough has none:
/// `cores` split evenly over the workers that run at once (`max_workers`,
/// 0 meaning one per shard, never more than `n_shards`), at least one
/// each. A worker left to its default would start `cores` scorers of its
/// own, and N of them would oversubscribe the machine N-fold. `None`
/// when the user's own `--threads` is forwarded.
fn worker_threads(cfg: &CoordinatorConfig, n_shards: usize, cores: usize) -> Option<usize> {
    if cfg.passthrough.iter().any(|a| a == "--threads") {
        return None;
    }
    let concurrent = match cfg.shard.max_workers {
        0 => n_shards,
        m => m.min(n_shards),
    };
    Some((cores / concurrent.max(1)).max(1))
}

/// The command line of shard `shard`'s worker: `place` on its query
/// file with the passthrough flags, `threads` (see [`worker_threads`]),
/// its output and heartbeat, and a fresh or resumed checkpoint journal.
fn worker_command(cfg: &CoordinatorConfig, shard: usize, threads: Option<usize>) -> Command {
    let dir = shard_dir(&cfg.workdir, shard);
    let journal = dir.join("journal");
    let mut cmd = Command::new(&cfg.worker_exe);
    cmd.arg("place")
        .arg("--tree")
        .arg(&cfg.tree_path)
        .arg("--ref-msa")
        .arg(&cfg.ref_path)
        .arg("--queries")
        .arg(dir.join("queries.fasta"))
        .args(&cfg.passthrough);
    if let Some(threads) = threads {
        cmd.arg("--threads").arg(threads.to_string());
    }
    cmd.arg("--out").arg(dir.join("out.jplace")).arg("--heartbeat");
    // First attempt of a fresh shard starts a journal; any journal
    // with a manifest (earlier attempt or earlier coordinator run)
    // is resumed so durable chunks are never recomputed.
    if journal.join(MANIFEST_FILE).exists() {
        cmd.arg("--resume").arg(&journal);
    } else {
        cmd.arg("--checkpoint").arg(&journal);
    }
    cmd
}

/// Runs a sharded placement to completion (or typed failure).
pub fn run_coordinator(
    cfg: &CoordinatorConfig,
    shutdown: &Shutdown,
) -> Result<CoordinatorOutcome, ShardError> {
    let read = |path: &str| {
        std::fs::read_to_string(path).map_err(|e| ShardError::BadInput(format!("{path}: {e}")))
    };
    let tree_text = read(&cfg.tree_path)?;
    let ref_text = read(&cfg.ref_path)?;
    let query_text = read(&cfg.query_path)?;
    let split = split_fasta(&query_text, cfg.shard.n_shards).map_err(ShardError::BadInput)?;
    let n_shards = split.shards.len();
    let n_queries: usize = split.sizes.iter().sum();

    let manifest = ShardSetManifest {
        format: SHARD_MANIFEST_FORMAT,
        tree_hash: fnv1a64(tree_text.as_bytes()),
        ref_msa_hash: fnv1a64(ref_text.as_bytes()),
        query_hash: fnv1a64(query_text.as_bytes()),
        shard_sizes: split.sizes.clone(),
    };
    std::fs::create_dir_all(&cfg.workdir)
        .map_err(|e| runtime(&format!("create {}", cfg.workdir.display()), e))?;
    let man_path = cfg.workdir.join(SHARD_MANIFEST_FILE);
    match std::fs::read_to_string(&man_path) {
        Ok(text) => {
            let on_disk = ShardSetManifest::parse(&text)
                .map_err(|e| ShardError::BadInput(format!("{}: {e}", man_path.display())))?;
            manifest.check_matches(&on_disk).map_err(|e| {
                ShardError::BadInput(format!(
                    "cannot reuse work directory {}: {e}",
                    cfg.workdir.display()
                ))
            })?;
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            write_text_atomic(&man_path, &manifest.to_json())
                .map_err(|e| runtime(&format!("write {}", man_path.display()), e))?;
        }
        Err(e) => return Err(runtime(&format!("read {}", man_path.display()), e)),
    }

    // Materialize per-shard query files (idempotent: a matching file
    // from a previous coordinator run is left untouched so worker
    // resume manifests keep validating).
    for (shard, text) in split.shards.iter().enumerate() {
        let dir = shard_dir(&cfg.workdir, shard);
        std::fs::create_dir_all(&dir)
            .map_err(|e| runtime(&format!("create {}", dir.display()), e))?;
        let qpath = dir.join("queries.fasta");
        let stale = match std::fs::read_to_string(&qpath) {
            Ok(existing) => existing != *text,
            Err(_) => true,
        };
        if stale {
            write_text_atomic(&qpath, text)
                .map_err(|e| runtime(&format!("write {}", qpath.display()), e))?;
        }
    }

    let shard_cfg = ShardConfig { n_shards, ..cfg.shard.clone() };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = worker_threads(cfg, n_shards, cores);
    let report = supervise(&shard_cfg, shutdown, |shard, attempt| {
        let mut cmd = worker_command(cfg, shard, threads);
        // Workers never inherit the coordinator's own fault arming; a
        // shard-addressed spec is delivered to the first attempt only,
        // so the re-queued attempt recovers clean.
        cmd.env_remove("PHYLO_FAULTS");
        if attempt == 0 {
            if let Ok(spec) = std::env::var(format!("PHYLO_FAULTS_SHARD_{shard}")) {
                cmd.env("PHYLO_FAULTS", spec);
            }
        }
        Ok(Box::new(ProcessWorker::spawn(cmd, shard)?) as Box<dyn Worker>)
    })?;

    let mut docs: Vec<JplaceDoc> = Vec::with_capacity(n_shards);
    for shard in 0..n_shards {
        let path = shard_dir(&cfg.workdir, shard).join("out.jplace");
        let text = std::fs::read_to_string(&path)
            .map_err(|e| runtime(&format!("read {}", path.display()), e))?;
        docs.push(parse_jplace(&text, shard).map_err(|e| ShardError::Runtime(e.to_string()))?);
    }
    let jplace = merge_jplace(&docs).map_err(|e| ShardError::Runtime(e.to_string()))?;
    phylo_obs::gauge!("shard.n_shards").set(n_shards as i64);
    Ok(CoordinatorOutcome { jplace, report, n_shards, n_queries })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(passthrough: &[&str], max_workers: usize) -> CoordinatorConfig {
        CoordinatorConfig {
            workdir: PathBuf::from("wd"),
            tree_path: "t.nwk".into(),
            ref_path: "r.fasta".into(),
            query_path: "q.fasta".into(),
            worker_exe: PathBuf::from("phyloplace"),
            passthrough: passthrough.iter().map(|s| s.to_string()).collect(),
            shard: ShardConfig { max_workers, ..ShardConfig::default() },
        }
    }

    /// The values that follow `--threads` on shard 0's command line.
    fn threads_on_command_line(
        cfg: &CoordinatorConfig,
        n_shards: usize,
        cores: usize,
    ) -> Vec<String> {
        let cmd = worker_command(cfg, 0, worker_threads(cfg, n_shards, cores));
        let args: Vec<String> = cmd.get_args().map(|a| a.to_string_lossy().into_owned()).collect();
        args.windows(2).filter(|w| w[0] == "--threads").map(|w| w[1].clone()).collect()
    }

    #[test]
    fn workers_split_the_cores_unless_the_user_sets_threads() {
        // One worker per shard: 8 cores over 4 shards.
        assert_eq!(threads_on_command_line(&config(&["--chunk", "16"], 0), 4, 8), ["2"]);
        // Two at a time: each gets half the machine.
        assert_eq!(threads_on_command_line(&config(&[], 2), 4, 8), ["4"]);
        // More workers than cores, or a budget above the shard count.
        assert_eq!(threads_on_command_line(&config(&[], 0), 3, 2), ["1"]);
        assert_eq!(threads_on_command_line(&config(&[], 16), 2, 8), ["4"]);
        // The user's own count is forwarded, and nothing is added.
        let user = config(&["--threads", "3", "--no-lookup"], 0);
        assert_eq!(threads_on_command_line(&user, 4, 8), ["3"]);
    }
}
