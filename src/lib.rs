//! # phyloplace
//!
//! Memory-managed maximum-likelihood phylogenetic placement — a complete
//! Rust reproduction of *Barbera & Stamatakis, "Efficient Memory
//! Management in Likelihood-based Phylogenetic Placement" (IPPS 2021)*.
//!
//! The crate re-exports the workspace's public API in one namespace:
//!
//! * [`tree`] — unrooted binary phylogenies, Newick I/O, traversal
//!   planning, random tree generators;
//! * [`seq`] — alphabets, sequences, alignments, FASTA, site-pattern
//!   compression;
//! * [`models`] — substitution models (GTR family, amino acid),
//!   eigendecomposition, discrete-Γ rates;
//! * [`kernel`] — CLV compute kernels with numerical scaling;
//! * [`amc`] — **the paper's contribution**: the Active Management of
//!   CLVs (slot manager, replacement strategies, pinning, the
//!   `⌈log₂ n⌉ + 2` constrained Felsenstein traversal, memory budgeting);
//! * [`engine`] — the likelihood engine tying the above together;
//! * [`place`] — the EPA-NG-style placement pipeline (preplacement
//!   lookup, chunks, branch blocks, `--maxmem`);
//! * [`baseline`] — the pplacer-style comparator with file-backed CLVs;
//! * [`datasets`] — synthetic analogues of the paper's evaluation data.
//!
//! ## Quickstart
//!
//! ```
//! use phyloplace::prelude::*;
//!
//! // A tiny synthetic dataset (reference tree + alignment + queries).
//! let spec = phyloplace::datasets::neotrop(Scale::Ci);
//! let ds = phyloplace::datasets::generate(&spec);
//!
//! // Compress the reference and assemble the likelihood engine.
//! let patterns = phyloplace::seq::compress(&ds.reference).unwrap();
//! let ctx = ReferenceContext::new(
//!     ds.tree.clone(),
//!     ds.model.clone(),
//!     ds.spec.alphabet.alphabet(),
//!     &patterns,
//! )
//! .unwrap();
//!
//! // Place all queries under a memory budget of 8 MiB.
//! let cfg = EpaConfig::default().with_maxmem_mib(8.0);
//! let placer = Placer::new(ctx, patterns.site_to_pattern().to_vec(), cfg).unwrap();
//! let batch = QueryBatch::new(&ds.queries, ds.reference.n_sites()).unwrap();
//! let (results, report) = placer.place(&batch).unwrap();
//!
//! assert_eq!(results.len(), ds.queries.len());
//! println!("peak memory: {} B, slots: {}", report.peak_memory, report.slots);
//! ```

pub mod cli;
pub mod replay_cli;
pub mod serve_cli;
pub mod signals;

pub use epa_place as place;
pub use phylo_amc as amc;
pub use phylo_datasets as datasets;
pub use phylo_engine as engine;
pub use phylo_journal as journal;
pub use phylo_kernel as kernel;
pub use phylo_models as models;
pub use phylo_replay as replay;
pub use phylo_seq as seq;
pub use phylo_serve as serve;
pub use phylo_shard as shard;
pub use phylo_tree as tree;
pub use pplacer_mmap as baseline;

/// The most commonly used types, in one import.
pub mod prelude {
    pub use epa_place::{
        EpaConfig, PlaceOutcome, PlacementResult, Placer, QueryBatch, RunControl, RunReport,
    };
    pub use phylo_amc::{CancelToken, SlotManager, StrategyKind};
    pub use phylo_datasets::{generate as generate_dataset, Scale};
    pub use phylo_engine::{ManagedStore, ReferenceContext};
    pub use phylo_models::{DiscreteGamma, SubstModel};
    pub use phylo_seq::{Msa, Sequence};
    pub use phylo_tree::{Tree, TreeBuilder};
}
