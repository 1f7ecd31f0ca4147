//! The one reference builder: tree text + reference alignment text in,
//! a configured [`Placer`] out.
//!
//! `phyloplace place` and the daemon's warm engine assemble their
//! reference here, so a query scores against the same model whichever
//! front end it came through: +F empirical frequencies over the
//! reference with unit GTR rates for DNA, the synthetic exchangeability
//! matrix for protein, four mean-Γ categories when a shape is given.

use crate::config::EpaConfig;
use crate::run::Placer;
use phylo_engine::ReferenceContext;
use phylo_models::gamma::GammaMode;
use phylo_models::{aa, dna, DiscreteGamma, SubstModel};
use phylo_seq::alphabet::AlphabetKind;
use phylo_seq::{compress, fasta, Msa};
use phylo_tree::Tree;

/// Γ shape every front end starts from (`--gamma` / `--no-gamma`
/// override it).
pub const DEFAULT_GAMMA_ALPHA: Option<f64> = Some(1.0);

/// A reference ready to take queries.
pub struct Reference {
    /// The placement engine over the reference.
    pub placer: Placer,
    /// The parsed reference tree (the jplace writer numbers its edges).
    pub tree: Tree,
    /// Width of the reference alignment; queries must match it.
    pub n_sites: usize,
}

/// Why a reference could not be built, split by who has to act.
#[derive(Debug)]
pub enum ReferenceError {
    /// The tree, alignment, Γ shape or configuration is wrong; the same
    /// inputs will fail again.
    Input(String),
    /// The engine failed on inputs that parsed.
    Runtime(String),
}

impl std::fmt::Display for ReferenceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReferenceError::Input(msg) | ReferenceError::Runtime(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for ReferenceError {}

/// Parses the reference, compresses it, fits the model and hands the
/// context to a [`Placer`] under `cfg`.
pub fn build_reference(
    tree_text: &str,
    ref_fasta: &str,
    alphabet: AlphabetKind,
    gamma_alpha: Option<f64>,
    cfg: EpaConfig,
) -> Result<Reference, ReferenceError> {
    use ReferenceError::{Input, Runtime};
    let tree =
        phylo_tree::newick::parse(tree_text).map_err(|e| Input(format!("reference tree: {e}")))?;
    let ref_rows = fasta::parse(ref_fasta, alphabet)
        .map_err(|e| Input(format!("reference alignment: {e}")))?;
    let msa = Msa::new(ref_rows).map_err(|e| Input(format!("reference alignment: {e}")))?;
    let patterns = compress(&msa).map_err(|e| Input(format!("compression: {e}")))?;
    let gamma = match gamma_alpha {
        Some(alpha) => DiscreteGamma::new(alpha, 4, GammaMode::Mean)
            .map_err(|e| Input(format!("gamma: {e}")))?,
        None => DiscreteGamma::none(),
    };
    let bad_model = |e: phylo_models::ModelError| Input(format!("model: {e}"));
    let rates = match alphabet {
        AlphabetKind::Dna => {
            let f = dna::empirical_freqs(alphabet.alphabet(), msa.rows().iter().map(|r| r.codes()));
            dna::gtr(&[1.0; 6], &[f[0], f[1], f[2], f[3]]).map_err(bad_model)?
        }
        AlphabetKind::Protein => aa::synthetic_aa(0).map_err(bad_model)?,
    };
    let model = SubstModel::new(&rates, gamma).map_err(bad_model)?;
    let ctx = ReferenceContext::new(tree.clone(), model, alphabet.alphabet(), &patterns)
        .map_err(|e| Runtime(format!("engine: {e}")))?;
    let placer = Placer::new(ctx, patterns.site_to_pattern().to_vec(), cfg)
        .map_err(|e| Input(format!("config: {e}")))?;
    Ok(Reference { placer, tree, n_sites: msa.n_sites() })
}
