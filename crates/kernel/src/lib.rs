//! Likelihood compute kernels — the numerical heart of the workspace.
//!
//! This crate is the Rust analogue of libpll-2's compute layer: it knows
//! nothing about trees or placement, only about **conditional likelihood
//! vectors** (CLVs) laid out as `[pattern][rate][state]` and the operations
//! the Felsenstein pruning algorithm performs on them:
//!
//! * [`kernels::update_partials`] — combine two child CLVs (or compact tip
//!   encodings) through per-rate transition matrices into a parent CLV,
//!   with per-pattern numerical scaling to survive trees with tens of
//!   thousands of taxa;
//! * [`likelihood::edge_log_likelihood`] — evaluate the tree likelihood at
//!   a branch from the two CLVs facing each other across it;
//! * [`likelihood::point_log_likelihood`] — the multi-way combination
//!   that scores a query-sequence insertion into a branch;
//! * [`tips::TipTable`] — per-character tip rows, built per operation for
//!   the codes a leaf uses, that make tip children (and ambiguity codes)
//!   free in the inner loop.
//!
//! CLV memory itself is owned by callers (the engine's stores or the AMC
//! slot arena); kernels only ever see slices, which is what lets one kernel
//! implementation serve full-memory, slot-managed, and file-backed modes.
//!
//! # Kernel dispatch
//!
//! Every public entry point is a dispatcher selected once per call from
//! [`layout::KernelKind`] (itself fixed at [`Layout`] construction from
//! the state count) and [`layout::KernelTier`], of which there are two.
//! Under `simd`, DNA (`states == 4`) and protein (`states == 20`) run the
//! fused fixed-state kernels in [`fixed`], except that `update_partials`
//! runs AVX2/FMA intrinsics in [`simd`] when the host has them (and
//! `propagate` runs `fixed`'s body compiled for AVX2); under `reference`,
//! and for every other state count, the generic scalar kernels in
//! [`mod@reference`] run — they double as the bit-for-bit
//! differential-test oracle for the fast paths. The tier is resolved once
//! per layout from `--kernel-tier` / `PHYLO_KERNEL_TIER` (see
//! [`layout::TierChoice`]); every kernel is bit-identical across the two
//! tiers except the AVX2 `update_partials`, which is tolerance-checked
//! (FMA reassociation).

pub mod fixed;
pub mod kernels;
pub mod layout;
pub mod likelihood;
pub mod reference;
pub mod scaling;
pub mod scratch;
pub mod simd;
pub mod tips;

pub use layout::{KernelKind, KernelTier, Layout, TierChoice};
pub use scaling::{LN_SCALE, SCALE_FACTOR, SCALE_THRESHOLD};
pub use scratch::KernelScratch;
pub use tips::TipTable;
