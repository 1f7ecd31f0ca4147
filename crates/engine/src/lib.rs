//! The likelihood engine: trees × models × kernels × slot management.
//!
//! This crate assembles the substrates into a usable whole:
//!
//! * [`ctx::ReferenceContext`] — everything static about a reference
//!   analysis: the tree, the compiled substitution model, compressed site
//!   patterns, per-leaf tip encodings and code sets, subtree-cost and
//!   register-need tables (transition matrices and tip rows are built
//!   per operation, not stored);
//! * [`store`] — the two CLV storage policies behind one interface:
//!   [`store::FullStore`] materializes all `3(n−2)` directional CLVs
//!   (EPA-NG's default layout), while [`store::ManagedStore`] runs them
//!   through the AMC slot arena with any slot budget down to
//!   `⌈log₂ n⌉ + 2`;
//! * [`exec`] — executes the slot-constrained FPA schedules emitted by
//!   `phylo-amc` using the kernels;
//! * [`loglik`] — whole-tree log-likelihood evaluated at any branch
//!   (the correctness anchor: the value must be identical from every
//!   branch and for every storage policy).

pub mod ctx;
pub mod error;
pub mod exec;
pub mod loglik;
pub mod store;

pub use ctx::ReferenceContext;
pub use error::EngineError;
pub use store::{ClvStore, EdgeSide, FullStore, ManagedStore, PreparedBlock};
