//! The placement pipeline driven stage by stage through the public
//! constructors `cli::run_placement_with` uses, in its order and with
//! its configuration, so each layer's call can be clocked from outside.
//!
//! The timed repetitions call `cli::run_placement` itself; every run of
//! this copy is checked against that call's jplace, so the two cannot
//! drift apart unnoticed.

use crate::trace::Tracer;
use phyloplace::amc::budget::mib_to_bytes;
use phyloplace::cli::CliOptions;
use phyloplace::engine::ReferenceContext;
use phyloplace::models::gamma::GammaMode;
use phyloplace::models::{aa, dna, DiscreteGamma, SubstModel};
use phyloplace::place::result::to_jplace_with;
use phyloplace::place::{EpaConfig, Placer, PreplacementMode, QueryBatch, RunReport};
use phyloplace::seq::alphabet::AlphabetKind;
use phyloplace::seq::{compress, fasta, Msa};
use phyloplace::tree::Tree;

/// Clocks `f` as a span when a traced pass is under way.
fn stage<T>(tr: &mut Option<&mut Tracer>, name: &str, f: impl FnOnce() -> T) -> T {
    match tr {
        Some(t) => t.time(name, f),
        None => f(),
    }
}

/// Everything up to the point where the engine can take its first
/// query: what `setup_s` times on the batch workloads.
pub struct Ready {
    pub tree: Tree,
    pub placer: Placer,
    pub batch: QueryBatch,
    pub n_patterns: usize,
}

pub fn setup(opts: &CliOptions, mut tr: Option<&mut Tracer>) -> Result<Ready, String> {
    let tr = &mut tr;
    let tree = stage(tr, "tree.parse", || phyloplace::tree::newick::parse(&opts.tree_text))
        .map_err(|e| format!("reference tree: {e}"))?;
    let ref_rows = stage(tr, "seq.fasta_parse", || fasta::parse(&opts.ref_fasta, opts.alphabet))
        .map_err(|e| format!("reference alignment: {e}"))?;
    let msa = stage(tr, "seq.msa", || Msa::new(ref_rows))
        .map_err(|e| format!("reference alignment: {e}"))?;
    let queries = stage(tr, "seq.fasta_parse", || fasta::parse(&opts.query_fasta, opts.alphabet))
        .map_err(|e| format!("queries: {e}"))?;
    let patterns =
        stage(tr, "seq.compress", || compress(&msa)).map_err(|e| format!("compression: {e}"))?;
    let alphabet = opts.alphabet.alphabet();
    let model = stage(tr, "models.build", || -> Result<SubstModel, String> {
        let gamma = match opts.gamma_alpha {
            Some(alpha) => {
                DiscreteGamma::new(alpha, 4, GammaMode::Mean).map_err(|e| format!("gamma: {e}"))?
            }
            None => DiscreteGamma::none(),
        };
        match opts.alphabet {
            AlphabetKind::Dna => {
                let f = dna::empirical_freqs(alphabet, msa.rows().iter().map(|r| r.codes()));
                let gtr = dna::gtr(&[1.0; 6], &[f[0], f[1], f[2], f[3]])
                    .map_err(|e| format!("model: {e}"))?;
                SubstModel::new(&gtr, gamma).map_err(|e| format!("model: {e}"))
            }
            AlphabetKind::Protein => {
                let m = aa::synthetic_aa(0).map_err(|e| format!("model: {e}"))?;
                SubstModel::new(&m, gamma).map_err(|e| format!("model: {e}"))
            }
        }
    })?;
    let ctx = stage(tr, "engine.ctx_build", || {
        ReferenceContext::new(tree.clone(), model, alphabet, &patterns)
    })
    .map_err(|e| format!("engine: {e}"))?;
    let max_memory = match opts.maxmem_mib {
        None => None,
        Some(mib) => Some(mib_to_bytes(mib).map_err(|e| format!("--maxmem: {e}"))?),
    };
    let cfg = EpaConfig {
        max_memory,
        chunk_size: opts.chunk_size,
        threads: opts.threads,
        kernel_tier: opts.kernel_tier,
        strategy: opts.strategy,
        preplacement: if opts.no_lookup { PreplacementMode::Off } else { PreplacementMode::Auto },
        tiers: opts.tiers.clone(),
        ..Default::default()
    };
    let placer = stage(tr, "placement.placer_new", || {
        Placer::new(ctx, patterns.site_to_pattern().to_vec(), cfg)
    })
    .map_err(|e| format!("config: {e}"))?;
    let batch = stage(tr, "placement.batch_encode", || QueryBatch::new(&queries, msa.n_sites()))
        .map_err(|e| format!("queries: {e}"))?;
    Ok(Ready { tree, placer, batch, n_patterns: patterns.n_patterns() })
}

/// One full staged run: set-up, `Placer::place`, jplace rendering.
pub struct StagedRun {
    pub ready: Ready,
    pub report: RunReport,
    pub jplace: String,
}

pub fn run(opts: &CliOptions, mut tr: Option<&mut Tracer>) -> Result<StagedRun, String> {
    let root = tr.as_deref_mut().map(|t| t.begin("run"));
    let ready = setup(opts, tr.as_deref_mut())?;
    let place = tr.as_deref_mut().map(|t| t.begin("placement.place"));
    let (results, report) =
        ready.placer.place(&ready.batch).map_err(|e| format!("placement: {e}"))?;
    if let (Some(t), Some(id)) = (tr.as_deref_mut(), place) {
        t.end(id);
        // The phases run inside one call; their spans are rebuilt from
        // the durations the call reports.
        t.add_children(
            id,
            &[
                ("placement.lookup_build", report.lookup_time),
                ("placement.prescore", report.prescore_time),
                ("placement.thorough", report.thorough_time),
            ],
        );
    }
    let jplace = stage(&mut tr, "placement.jplace", || to_jplace_with(&ready.tree, &results, true));
    if let (Some(t), Some(id)) = (tr, root) {
        t.end(id);
    }
    Ok(StagedRun { ready, report, jplace })
}

/// The fastest of `passes` traced runs, with its spans: per-layer
/// numbers are best-of-N like everything else, so that one slow moment
/// of the host does not pose as a slow layer. A pass that does not
/// reproduce `expect_jplace` is reported in `problems`.
pub fn best_traced_run(
    opts: &CliOptions,
    workload: &str,
    passes: usize,
    expect_jplace: &str,
    problems: &mut Vec<String>,
) -> Result<(Tracer, StagedRun), String> {
    let mut best: Option<(Tracer, StagedRun)> = None;
    for _ in 0..passes.max(1) {
        let mut tr = Tracer::new(workload);
        let run = run(opts, Some(&mut tr))?;
        if run.jplace != expect_jplace {
            problems.push("a traced pass's jplace differs from the untraced one".to_string());
        }
        if best.as_ref().is_none_or(|(b, _)| tr.ms("run") < b.ms("run")) {
            best = Some((tr, run));
        }
    }
    Ok(best.expect("at least one pass"))
}
