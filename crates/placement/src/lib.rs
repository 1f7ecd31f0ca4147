//! EPA-NG-style maximum-likelihood phylogenetic placement with Active
//! Management of CLVs.
//!
//! Given a fixed reference tree, a reference alignment, and a stream of
//! aligned query sequences (QS), the placer finds, for every query, the
//! reference branches where inserting the query maximizes the tree
//! likelihood. The pipeline mirrors EPA-NG as described in the paper:
//!
//! 1. **Memory planning** ([`memplan`]) — the `--maxmem` budget is turned
//!    into a concrete plan: how many CLV slots, whether the preplacement
//!    lookup table fits, and what a chunk of queries costs (their bytes
//!    and their kept candidate lists — [`candidates`]).
//! 2. **Preplacement** ([`lookup`]) — a per-branch, per-pattern, per-state
//!    table of insertion likelihoods lets every (QS × branch) pair be
//!    *prescored* without touching a single CLV. When the budget cannot
//!    hold the table, prescoring falls back to recomputing branch CLVs
//!    block by block — the paper's ~23× cliff.
//! 3. **Thorough placement** ([`score`]) — each query's best candidate
//!    branches, selected while its prescores stream in, are re-scored with full three-way likelihoods and
//!    branch-length optimization of the pendant and insertion position.
//! 4. **Chunked, swept, parallel execution** ([`run`]) — queries stream
//!    through in chunks; branches are walked in one traversal-ordered
//!    sweep whose CLVs are prepared batch by batch under the slot budget
//!    (optionally prefetched asynchronously, optionally with across-site
//!    parallel kernels); the sweep's threads claim both the next batch's
//!    prepare and the (QS × branch) scoring units from one work board.
//!
//! Every front end gets its reference (tree + alignment text → model →
//! [`Placer`]) from [`mod@reference`]; results are exported in the
//! `jplace`-compatible format ([`result`]).

pub mod candidates;
pub mod config;
pub mod error;
pub mod lookup;
pub mod memplan;
pub mod queries;
pub mod reference;
pub mod result;
pub mod run;
pub mod score;
mod sweep;

pub use config::{EpaConfig, PreplacementMode};
pub use error::PlaceError;
pub use memplan::{AmcMode, MemoryPlan};
pub use queries::QueryBatch;
pub use reference::{build_reference, Reference, ReferenceError, DEFAULT_GAMMA_ALPHA};
pub use result::{PlacementEntry, PlacementResult, RunReport};
pub use run::{PlaceOutcome, Placer, RunControl, WarmStore};
