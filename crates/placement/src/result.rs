//! Placement results and `jplace` export.

use phylo_amc::SlotStats;
use phylo_obs::json_escape;
use phylo_tree::{EdgeId, Tree};
use std::time::Duration;

/// One scored insertion of a query into a branch.
#[derive(Debug, Clone, PartialEq)]
pub struct PlacementEntry {
    /// The reference branch.
    pub edge: EdgeId,
    /// Log-likelihood of the extended tree.
    pub log_likelihood: f64,
    /// Likelihood weight ratio across this query's scored candidates.
    pub like_weight_ratio: f64,
    /// Optimized pendant branch length.
    pub pendant_length: f64,
    /// Optimized distal (from the edge's `a` endpoint) attachment length.
    pub distal_length: f64,
}

/// All scored placements of one query, best first.
#[derive(Debug, Clone)]
pub struct PlacementResult {
    /// Query name.
    pub name: String,
    /// Scored candidate branches, sorted by descending log-likelihood.
    pub placements: Vec<PlacementEntry>,
}

impl PlacementResult {
    /// The best placement (highest likelihood), if any candidate scored.
    pub fn best(&self) -> Option<&PlacementEntry> {
        self.placements.first()
    }

    /// Sorts candidates and fills in likelihood weight ratios:
    /// `lwr_i = exp(ll_i − ll_max) / Σ_j exp(ll_j − ll_max)`.
    pub fn finalize(&mut self) {
        self.placements.sort_by(|a, b| {
            b.log_likelihood
                .partial_cmp(&a.log_likelihood)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.edge.0.cmp(&b.edge.0))
        });
        let Some(max) = self.placements.first().map(|p| p.log_likelihood) else { return };
        let mut total = 0.0;
        for p in &mut self.placements {
            p.like_weight_ratio = (p.log_likelihood - max).exp();
            total += p.like_weight_ratio;
        }
        if total > 0.0 {
            for p in &mut self.placements {
                p.like_weight_ratio /= total;
            }
        }
    }
}

/// Counters and timings of a full placement run (the measurements every
/// experiment harness reads).
#[derive(Debug, Clone, Default)]
pub struct RunReport {
    /// Wall-clock time of the whole run.
    pub total_time: Duration,
    /// Time building the lookup table (zero when disabled).
    pub lookup_time: Duration,
    /// Time in the prescore phase.
    pub prescore_time: Duration,
    /// Time in the thorough phase.
    pub thorough_time: Duration,
    /// Queries placed.
    pub n_queries: usize,
    /// (query, branch) pairs prescored.
    pub n_prescored: u64,
    /// (query, branch) pairs thoroughly scored.
    pub n_thorough: u64,
    /// CLV slot traffic accumulated over the run.
    pub slot_stats: SlotStats,
    /// Accounted peak memory (bytes).
    pub peak_memory: usize,
    /// Whether the lookup table was used.
    pub used_lookup: bool,
    /// Slots allocated.
    pub slots: usize,
    /// How often the run had to step down the degradation ladder.
    pub degradation: DegradationStats,
    /// How the run's scoring spread over threads.
    pub scoring: ScoringStats,
    /// Chunks restored from a resumed checkpoint journal instead of
    /// recomputed (zero on a fresh run). Their stats are folded into
    /// the counters above; the timings cover only this process's work.
    pub resumed_chunks: usize,
    /// CLV spill-file traffic and occupancy (`None` unless the run was
    /// configured with a spill file via `EpaConfig::tiers`).
    pub tier_stats: Option<phylo_amc::TierStats>,
    /// Per-run observability snapshot: every live probe recorded during
    /// the run (kernel timings, wait-latency histograms, scratch-pool
    /// churn) as a delta of the process-global registry, with the
    /// slot-traffic and degradation counters folded in from this run's
    /// own tallies.
    /// Export with [`phylo_obs::Snapshot::to_json`].
    pub metrics: phylo_obs::Snapshot,
}

/// Counters for the graceful-degradation ladder the orchestrator walks
/// under slot pressure instead of aborting (see DESIGN.md §7): disable
/// async prefetch, shrink the branch block, flush the CLV cache and
/// retry with backoff. All zeros on an unpressured run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DegradationStats {
    /// Times async prefetch was disabled because the spare slots could
    /// only carry one pinned block.
    pub prefetch_disabled: u64,
    /// Times the branch block size was clamped below the configured one.
    pub block_clamped: u64,
    /// Cache flush-and-retry attempts after pin exhaustion on a
    /// single-branch block.
    pub flush_retries: u64,
}

impl DegradationStats {
    /// Folds one chunk's counters into a running total. The orchestrator
    /// accumulates per-chunk stats through this, so the final
    /// [`RunReport::degradation`] covers every chunk of the run, not just
    /// the last one.
    pub fn merge(&mut self, other: DegradationStats) {
        self.prefetch_disabled += other.prefetch_disabled;
        self.block_clamped += other.block_clamped;
        self.flush_retries += other.flush_retries;
    }
}

/// How a run's scoring spread over threads: the thread count every
/// scoring phase runs on, how often the lookup prescore fanned out
/// (started threads besides the caller), and where the sweeps' threads
/// spent their time ([`SweepStats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScoringStats {
    /// Threads of every sweep and of the lookup prescore: the run's
    /// `threads`, the caller included.
    pub workers: usize,
    /// Fan-outs of the lookup prescore (at most one per chunk).
    pub lookup_prescore_fanouts: u64,
    /// The sweeps' work board: prepares, scoring units, waits, threads.
    pub sweep: SweepStats,
}

/// Where the threads of the sweeps' work board spent their time, summed
/// over the threads, and how many threads the sweeps started. The times
/// depend on timing; `threads_started` only on the thread count and the
/// number of sweeps.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SweepStats {
    /// Nanoseconds in prepare jobs: CLV recomputation and holds.
    pub prepare_ns: u64,
    /// Nanoseconds in scoring units.
    pub score_ns: u64,
    /// Nanoseconds threads waited on the board for a job.
    pub idle_ns: u64,
    /// Threads started besides the callers: `threads − 1` per sweep.
    pub threads_started: u64,
}

impl SweepStats {
    /// Adds another board's tallies to these.
    pub fn merge(&mut self, other: SweepStats) {
        self.prepare_ns += other.prepare_ns;
        self.score_ns += other.score_ns;
        self.idle_ns += other.idle_ns;
        self.threads_started += other.threads_started;
    }
}

/// Serializes results in the `jplace` (v3) format. The tree string carries
/// `{edge}` numbers matching [`PlacementEntry::edge`].
pub fn to_jplace(tree: &Tree, results: &[PlacementResult]) -> String {
    to_jplace_with(tree, results, true)
}

/// As [`to_jplace`], marking the run's completion state in the metadata:
/// a cancelled (deadline/SIGINT) run emits its durable prefix with
/// `"completed": false` so downstream tooling can distinguish a partial
/// result from a finished one.
pub fn to_jplace_with(tree: &Tree, results: &[PlacementResult], completed: bool) -> String {
    let mut out = String::with_capacity(4096);
    out.push_str("{\n  \"version\": 3,\n  \"tree\": \"");
    out.push_str(&json_escape(&newick_with_edge_numbers(tree)));
    out.push_str("\",\n  \"fields\": [\"edge_num\", \"likelihood\", \"like_weight_ratio\", \"distal_length\", \"pendant_length\"],\n  \"placements\": [\n");
    for (qi, r) in results.iter().enumerate() {
        out.push_str("    {\"p\": [");
        for (i, p) in r.placements.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!(
                "[{}, {:.6}, {:.6}, {:.6}, {:.6}]",
                p.edge.0, p.log_likelihood, p.like_weight_ratio, p.distal_length, p.pendant_length
            ));
        }
        out.push_str(&format!("], \"n\": [\"{}\"]}}", json_escape(&r.name)));
        out.push_str(if qi + 1 < results.len() { ",\n" } else { "\n" });
    }
    out.push_str(&format!(
        "  ],\n  \"metadata\": {{\"software\": \"phyloplace\", \"completed\": {completed}}}\n}}\n"
    ));
    out
}

/// Writes jplace output crash-atomically *and durably*: the contents go
/// to `<path>.tmp` first, are fsynced, renamed into place, and the
/// parent directory is fsynced so the rename itself survives power
/// loss. An interrupted run leaves either the previous output or none —
/// never a truncated file a downstream parser would choke on, and never
/// a rename that evaporates with the directory's dirty page.
pub fn write_jplace_atomic(path: &std::path::Path, contents: &str) -> std::io::Result<()> {
    phylo_journal::write_text_atomic_probed(path, contents, "place::jplace_io")
}

/// Newick with `{edge_id}` annotations after each branch length (the
/// jplace convention).
fn newick_with_edge_numbers(tree: &Tree) -> String {
    fn write_subtree(
        tree: &Tree,
        node: phylo_tree::NodeId,
        from: phylo_tree::NodeId,
        out: &mut String,
    ) {
        if tree.is_leaf(node) {
            out.push_str(tree.taxon(node));
            return;
        }
        out.push('(');
        let mut first = true;
        for &(w, e) in tree.neighbors(node) {
            if w == from {
                continue;
            }
            if !first {
                out.push(',');
            }
            first = false;
            write_subtree(tree, w, node, out);
            out.push_str(&format!(":{}{{{}}}", tree.edge_length(e), e.0));
        }
        out.push(')');
    }
    let leaf0 = phylo_tree::NodeId(0);
    let (anchor, e0) = tree.neighbors(leaf0)[0];
    let mut out = String::new();
    out.push('(');
    out.push_str(tree.taxon(leaf0));
    out.push_str(&format!(":{}{{{}}}", tree.edge_length(e0), e0.0));
    for &(w, e) in tree.neighbors(anchor) {
        if w == leaf0 {
            continue;
        }
        out.push(',');
        write_subtree(tree, w, anchor, &mut out);
        out.push_str(&format!(":{}{{{}}}", tree.edge_length(e), e.0));
    }
    out.push_str(");");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use phylo_tree::tree::tripod;

    fn entry(edge: u32, ll: f64) -> PlacementEntry {
        PlacementEntry {
            edge: EdgeId(edge),
            log_likelihood: ll,
            like_weight_ratio: 0.0,
            pendant_length: 0.1,
            distal_length: 0.05,
        }
    }

    #[test]
    fn finalize_sorts_and_normalizes() {
        let mut r = PlacementResult {
            name: "q".into(),
            placements: vec![entry(0, -10.0), entry(1, -8.0), entry(2, -12.0)],
        };
        r.finalize();
        assert_eq!(r.best().unwrap().edge, EdgeId(1));
        let total: f64 = r.placements.iter().map(|p| p.like_weight_ratio).sum();
        assert!((total - 1.0).abs() < 1e-12);
        assert!(r.placements[0].like_weight_ratio > r.placements[1].like_weight_ratio);
    }

    #[test]
    fn lwr_reflects_likelihood_gaps() {
        let mut r = PlacementResult {
            name: "q".into(),
            placements: vec![entry(0, -5.0), entry(1, -5.0 + (0.25f64).ln())],
        };
        r.finalize();
        // Second entry has likelihood ratio 1/4 of the first.
        let ratio = r.placements[1].like_weight_ratio / r.placements[0].like_weight_ratio;
        assert!((ratio - 0.25).abs() < 1e-12);
    }

    #[test]
    fn jplace_is_wellformed() {
        let tree = tripod(["A", "B", "C"], [0.1, 0.2, 0.3]).unwrap();
        let mut r = PlacementResult { name: "query1".into(), placements: vec![entry(0, -3.0)] };
        r.finalize();
        let j = to_jplace(&tree, &[r]);
        assert!(j.contains("\"version\": 3"));
        assert!(j.contains("{0}"));
        assert!(j.contains("query1"));
        assert!(j.contains("edge_num"));
        // Every edge id annotated exactly once in the tree string.
        for e in tree.all_edges() {
            assert!(j.contains(&format!("{{{}}}", e.0)));
        }
    }
}
