//! Error type for the AMC machinery.

use std::fmt;

/// Errors from slot management and constrained traversals.
#[derive(Debug, Clone, PartialEq)]
pub enum AmcError {
    /// Every slot is pinned; the traversal cannot make progress. The paper's
    /// invariant — keep at least `⌈log₂ n⌉ + 2` slots unpinned — was
    /// violated by the caller.
    AllSlotsPinned {
        /// Total slots.
        slots: usize,
        /// Slots with a non-zero pin count.
        pinned: usize,
    },
    /// A slot count below the hard minimum was requested.
    TooFewSlots {
        /// Requested slot count.
        requested: usize,
        /// The tree's minimum.
        minimum: usize,
    },
    /// A CLV key outside the registered key space.
    UnknownClv(u32),
    /// Unpin called on a slot that was not pinned.
    NotPinned(u32),
    /// The memory budget cannot fit even the mandatory structures.
    BudgetTooSmall {
        /// The requested budget.
        budget_bytes: usize,
        /// The smallest feasible budget.
        required_bytes: usize,
    },
    /// The slot arena's backing buffers could not be allocated.
    AllocationFailed {
        /// Bytes requested.
        bytes: usize,
    },
    /// A cooperative shutdown request ([`crate::CancelToken`]) was
    /// observed mid-operation. Not a failure: the caller should unwind
    /// cleanly, flush whatever durable state it holds, and report a
    /// partial result.
    Cancelled,
    /// A memory-budget figure is not representable as a byte count:
    /// NaN, negative, or beyond the address space. Raised by the checked
    /// MiB→bytes conversion instead of silently saturating.
    BadBudget {
        /// Why the figure was rejected.
        why: String,
    },
    /// A CLV spill-file operation failed (I/O, bad configuration). The
    /// cause is carried pre-rendered so this enum stays `Clone + Eq`.
    /// Spill failures on the write and read paths are never fatal to a
    /// run — the caller falls back to recomputing the CLV — but setup
    /// failures (unwritable `--tier-dir`) surface through here.
    TierIo {
        /// What failed (`"disk"` or `"config"`).
        tier: &'static str,
        /// The rendered cause.
        detail: String,
    },
}

impl fmt::Display for AmcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AmcError::AllSlotsPinned { slots, pinned } => write!(
                f,
                "cannot evict: all {pinned} of {slots} slots are pinned; keep at least ⌈log₂ n⌉ + 2 slots unpinned"
            ),
            AmcError::TooFewSlots { requested, minimum } => {
                write!(f, "{requested} slots requested but the tree requires at least {minimum}")
            }
            AmcError::UnknownClv(k) => write!(f, "CLV key {k} is outside the registered key space"),
            AmcError::NotPinned(s) => write!(f, "slot {s} is not pinned"),
            AmcError::BudgetTooSmall { budget_bytes, required_bytes } => write!(
                f,
                "memory budget of {budget_bytes} bytes cannot fit mandatory structures ({required_bytes} bytes)"
            ),
            AmcError::AllocationFailed { bytes } => {
                write!(f, "could not allocate {bytes} bytes of CLV slot storage")
            }
            AmcError::Cancelled => {
                write!(f, "cancelled by shutdown request or deadline")
            }
            AmcError::BadBudget { why } => {
                write!(f, "memory budget is not representable: {why}")
            }
            AmcError::TierIo { tier, detail } => {
                write!(f, "storage tier {tier:?}: {detail}")
            }
        }
    }
}

impl std::error::Error for AmcError {}
