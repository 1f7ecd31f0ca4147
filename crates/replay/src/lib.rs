//! Offline replay of AMC slot-access traces: the replacement-policy lab.
//!
//! A captured trace (`--slot-trace FILE`, see `phylo_obs::slottrace`)
//! names the run's demand stream in *logical* CLV terms. This crate
//! replays that stream through a pure in-memory model of the slot
//! manager's eviction table ([`simulate`]), for **any** policy and
//! **any** slot count — without touching alignments, trees or kernels.
//! Two properties make it useful:
//!
//! 1. **Differential exactness.** Replaying a trace with the *same*
//!    policy and slot count as the captured run reproduces the live
//!    manager's `hits`/`misses`/`evictions`/`installs`/`acquires`
//!    bit-exactly: events are recorded inside the table-lock critical
//!    sections (so the trace is the true serialization order), the
//!    simulator reuses the very same [`ReplacementStrategy`]
//!    implementations and tells them what the trace says the live ones
//!    were told about the sweep in progress ([`SlotEvent::Schedule`],
//!    [`SlotEvent::Cursor`]), and both sides start from the same
//!    free-list order. Every future eviction change is testable against this
//!    contract (`phyloplace replay --verify`).
//! 2. **The oracle floor.** [`Policy::Belady`] is the clairvoyant MIN
//!    policy — evict the resident CLV whose next use (a demand access or
//!    a reuse by the planner) lies furthest in the future — which is
//!    optimal among demand-fill policies. Its miss count is the lower bound every implementable
//!    policy is judged against, exactly like pplacer's mmap baseline
//!    bounds memory from the other side.

pub mod sim;
pub mod sweep;
pub mod tiersim;

pub use sim::{simulate, simulate_observed, Policy, SimError, SimEvent, SimStats};
pub use sweep::{
    min_feasible_slots, recommend, slot_count_ladder, sweep, Recommendation, SweepRow,
};
pub use tiersim::{crossover_cost, simulate_tiers, TierModel, TierSimStats};

pub use phylo_amc::{ReplacementStrategy, StrategyKind};
pub use phylo_obs::slottrace::{SlotEvent, Trace, TraceMeta, NO_CLV};
