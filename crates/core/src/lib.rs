//! Active Management of CLVs (AMC) — the paper's core contribution.
//!
//! Likelihood-based placement wants `3·(n − 2)` conditional likelihood
//! vectors resident at once; this crate lets an engine run with any number
//! of physical **slots** from `⌈log₂ n⌉ + 2` up to the full set, trading
//! recomputation time for memory exactly as described in Barbera &
//! Stamatakis (IPPS 2021):
//!
//! * [`slots::SlotManager`] — the two index maps (`clv → slot`,
//!   `slot → clv`) with sentinel states, pin counts, and hit/miss/eviction
//!   statistics;
//! * [`strategy`] — the replacement-strategy interface (the paper's
//!   callback customization point) with the default
//!   recomputation-cost-based policy — weighted by the wait until the
//!   next use while a sweep has announced its order — plus
//!   LRU/MRU/FIFO/random for ablation;
//! * [`arena::SlotArena`] — slot-backed CLV + scaler storage with safe
//!   disjoint target/children access for the kernels, plus the
//!   concurrent lease API ([`arena::ReadLease`]/[`arena::ComputeLease`]):
//!   the manager and arena are internally synchronized (`&self` API,
//!   lock-free residency lookups, per-slot publish latches), so distinct
//!   CLVs can be recomputed concurrently while readers of other slots
//!   never block — see the module docs and DESIGN.md §6 for the lock
//!   order and deadlock-freedom argument;
//! * [`fpa`] — the slot-constrained Felsenstein traversal planner: given a
//!   set of target CLVs it emits a pin-correct compute schedule,
//!   guaranteed to succeed whenever `⌈log₂ n⌉ + 2` slots are unpinned;
//! * [`budget`] — deterministic memory accounting and the `--maxmem`-style
//!   budget planner that decides slot counts and optional structures.

pub mod arena;
pub mod budget;
pub mod cancel;
pub mod error;
pub mod fpa;
pub mod retry;
pub mod slots;
pub mod strategy;
pub mod tier;

pub use arena::{ComputeLease, Lease, ReadLease, SlotArena};
pub use budget::{MemCategory, MemoryTracker};
pub use cancel::CancelToken;
pub use error::AmcError;
pub use fpa::{ensure_resident, DepSource, FpaOp, ResidentSet};
pub use retry::Backoff;
pub use slots::{Acquire, ClvKey, SlotId, SlotManager, SlotStats};
pub use strategy::{
    CostBased, Fifo, Lru, Mru, RandomEvict, ReplacementStrategy, StrategyKind, VictimView,
};
pub use tier::{TierConfig, TierStats, TieredStore};

/// The table a sweep announces through [`SlotManager::announce_schedule`].
pub use phylo_tree::traversal::NextUse;
