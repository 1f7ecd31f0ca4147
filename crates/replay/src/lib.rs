//! Offline replay of AMC slot-access traces: the replacement-policy lab.
//!
//! A captured trace (`--slot-trace FILE`, see `phylo_obs::slottrace`)
//! names the run's demand stream in *logical* CLV terms. This crate
//! feeds that stream to a fresh [`phylo_amc::SlotManager`] — the one the
//! placement engine runs, with no arena and no kernels behind it
//! ([`simulate`]) — for **any** policy and **any** slot count, without
//! touching alignments or trees. Two properties make it useful:
//!
//! 1. **Differential exactness.** Replaying a trace with the *same*
//!    policy and slot count as the captured run reproduces the live
//!    manager's `hits`/`misses`/`evictions`/`installs`/`acquires`
//!    bit-exactly: events are recorded inside the table-lock critical
//!    sections (so the trace is the true serialization order), and the
//!    replay tells a manager of the same size and strategy the same
//!    operations in that order, sweep announcements
//!    ([`SlotEvent::Schedule`], [`SlotEvent::Cursor`]) included. A
//!    mismatch therefore means the trace missed a table mutation —
//!    every future eviction change is testable against this contract
//!    (`phyloplace replay --verify`).
//! 2. **The oracle floor.** [`Policy::Belady`] is the clairvoyant MIN
//!    policy — evict the resident CLV whose next use (a demand access or
//!    a reuse by the planner) lies furthest in the future — which is
//!    optimal among demand-fill policies. It runs as one more
//!    [`ReplacementStrategy`] behind the same manager. Its miss count is
//!    the lower bound every implementable policy is judged against,
//!    exactly like pplacer's mmap baseline bounds memory from the other
//!    side.

pub mod sim;
pub mod sweep;

pub use sim::{simulate, Policy, SimError};
pub use sweep::{
    min_feasible_slots, recommend, slot_count_ladder, sweep, Recommendation, SweepRow,
};

pub use phylo_amc::{ReplacementStrategy, SlotStats, StrategyKind};
pub use phylo_obs::slottrace::{SlotEvent, Trace, TraceMeta, NO_CLV};
