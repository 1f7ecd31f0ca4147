//! Deterministic memory accounting and budget planning.
//!
//! The paper's `--maxmem` option is backed by an accounting scheme: every
//! major allocation is registered against a category, the running total is
//! compared to the budget, and the *plan* (slot count, lookup table on/off,
//! chunk buffers) is derived from what fits. The paper explicitly notes
//! (§V-A) that imperfect accounting produced one anomalous datapoint —
//! making the accounting a first-class, testable component here.

use crate::error::AmcError;
use std::fmt;

/// What a tracked allocation is for. Categories mirror the paper's
/// breakdown of EPA-NG's footprint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemCategory {
    /// CLV slot storage + scalers (the dominant term).
    ClvSlots,
    /// The preplacement lookup table memoization.
    LookupTable,
    /// Per-chunk buffers: each query's sequence and its kept candidate
    /// list (∝ chunk size × (sites + k · 16 B)), nothing per branch.
    ChunkBuffers,
    /// The reference context's static tables: tip codes and per-leaf
    /// code sets, pattern weights and traversal costs
    /// (`ReferenceContext::approx_bytes`).
    StaticData,
    /// The per-key index of the CLV spill file (the records themselves
    /// live on disk, outside the RAM budget).
    DiskTier,
}

/// Number of [`MemCategory`] variants (array-backed accounting, indexed
/// by discriminant).
const N_CATEGORIES: usize = 5;

impl MemCategory {
    /// All categories, for report ordering.
    pub fn all() -> [MemCategory; N_CATEGORIES] {
        [
            MemCategory::ClvSlots,
            MemCategory::LookupTable,
            MemCategory::ChunkBuffers,
            MemCategory::StaticData,
            MemCategory::DiskTier,
        ]
    }
}

impl fmt::Display for MemCategory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            MemCategory::ClvSlots => "clv-slots",
            MemCategory::LookupTable => "lookup-table",
            MemCategory::ChunkBuffers => "chunk-buffers",
            MemCategory::StaticData => "static-data",
            MemCategory::DiskTier => "disk-tier",
        };
        write!(f, "{s}")
    }
}

/// Tracks current and peak bytes per category.
#[derive(Debug, Clone, Default)]
pub struct MemoryTracker {
    current: [usize; N_CATEGORIES],
    peak_total: usize,
}

impl MemoryTracker {
    /// An empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers an allocation.
    pub fn allocate(&mut self, category: MemCategory, bytes: usize) {
        self.current[category as usize] += bytes;
        self.peak_total = self.peak_total.max(self.total());
    }

    /// Registers a release.
    pub fn release(&mut self, category: MemCategory, bytes: usize) {
        let slot = &mut self.current[category as usize];
        *slot = slot.saturating_sub(bytes);
    }

    /// Current bytes in one category.
    pub fn current(&self, category: MemCategory) -> usize {
        self.current[category as usize]
    }

    /// Current total bytes across categories.
    pub fn total(&self) -> usize {
        self.current.iter().sum()
    }

    /// The high-water mark of the total.
    pub fn peak(&self) -> usize {
        self.peak_total
    }

    /// A compact multi-line report of the current breakdown.
    pub fn report(&self) -> String {
        let mut out = String::new();
        for cat in MemCategory::all() {
            let bytes = self.current(cat);
            if bytes > 0 {
                out.push_str(&format!("{cat:>14}: {:>12} B ({:.1} MiB)\n", bytes, mib(bytes)));
            }
        }
        out.push_str(&format!(
            "{:>14}: {:>12} B ({:.1} MiB), peak {:.1} MiB\n",
            "total",
            self.total(),
            mib(self.total()),
            mib(self.peak())
        ));
        out
    }
}

/// Bytes → MiB.
pub fn mib(bytes: usize) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}

/// MiB → bytes, checked. An `as usize` cast here would turn NaN and
/// negative budgets into 0 (a budget that rejects every plan) and
/// silently saturate oversized ones; instead each failure mode is a
/// typed [`AmcError::BadBudget`] the CLI can surface verbatim.
pub fn mib_to_bytes(mib: f64) -> Result<usize, AmcError> {
    let bad = |why: &str| AmcError::BadBudget { why: format!("{mib} MiB {why}") };
    if mib.is_nan() {
        return Err(bad("is NaN"));
    }
    if mib < 0.0 {
        return Err(bad("is negative"));
    }
    let bytes = mib * 1024.0 * 1024.0;
    // `>=` because usize::MAX rounds up when cast to f64: a value that
    // compares equal may still exceed the integer maximum.
    if !bytes.is_finite() || bytes >= usize::MAX as f64 {
        return Err(bad("exceeds the address space"));
    }
    Ok(bytes as usize)
}

/// Computes how many CLV slots a byte budget affords.
///
/// * `budget_bytes` — bytes available for slot storage (after mandatory
///   structures);
/// * `bytes_per_slot` — CLV + scaler bytes per slot;
/// * `min_slots` — the `⌈log₂ n⌉ + 2` floor (plus any standing pins);
/// * `max_slots` — `3(n − 2)`, beyond which more slots are pointless.
///
/// Errors when even `min_slots` do not fit — the paper's "budget too
/// small" condition.
pub fn slots_for_budget(
    budget_bytes: usize,
    bytes_per_slot: usize,
    min_slots: usize,
    max_slots: usize,
) -> Result<usize, AmcError> {
    assert!(bytes_per_slot > 0);
    let affordable = budget_bytes / bytes_per_slot;
    if affordable < min_slots {
        // The requirement itself can overflow (a pathological
        // min_slots × bytes_per_slot); saturate rather than panic in
        // the error path — the message stays honest either way.
        return Err(AmcError::BudgetTooSmall {
            budget_bytes,
            required_bytes: min_slots.checked_mul(bytes_per_slot).unwrap_or(usize::MAX),
        });
    }
    Ok(affordable.min(max_slots))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracker_tracks_peak() {
        let mut t = MemoryTracker::new();
        t.allocate(MemCategory::ClvSlots, 1000);
        t.allocate(MemCategory::LookupTable, 500);
        assert_eq!(t.total(), 1500);
        assert_eq!(t.peak(), 1500);
        t.release(MemCategory::LookupTable, 500);
        assert_eq!(t.total(), 1000);
        assert_eq!(t.peak(), 1500);
        t.allocate(MemCategory::ChunkBuffers, 200);
        assert_eq!(t.peak(), 1500);
        t.allocate(MemCategory::ChunkBuffers, 1000);
        assert_eq!(t.peak(), 2200);
    }

    #[test]
    fn release_saturates() {
        let mut t = MemoryTracker::new();
        t.allocate(MemCategory::DiskTier, 10);
        t.release(MemCategory::DiskTier, 100);
        assert_eq!(t.total(), 0);
    }

    #[test]
    fn slots_for_budget_clamps() {
        // 1000 B budget, 100 B/slot => 10 affordable.
        assert_eq!(slots_for_budget(1000, 100, 4, 50).unwrap(), 10);
        // Clamp to max.
        assert_eq!(slots_for_budget(100_000, 100, 4, 50).unwrap(), 50);
        // Exactly min.
        assert_eq!(slots_for_budget(400, 100, 4, 50).unwrap(), 4);
    }

    #[test]
    fn slots_for_budget_errors_below_min() {
        let err = slots_for_budget(399, 100, 4, 50).unwrap_err();
        assert!(matches!(err, AmcError::BudgetTooSmall { required_bytes: 400, .. }));
    }

    #[test]
    fn slots_for_budget_error_path_survives_overflow() {
        // min_slots × bytes_per_slot overflows usize; the error must
        // saturate instead of panicking (the old unchecked multiply).
        let err = slots_for_budget(1000, usize::MAX / 2, 3, 50).unwrap_err();
        assert!(
            matches!(err, AmcError::BudgetTooSmall { required_bytes: usize::MAX, .. }),
            "{err:?}"
        );
    }

    #[test]
    fn unit_conversions() {
        assert_eq!(mib_to_bytes(1.0), Ok(1024 * 1024));
        assert_eq!(mib_to_bytes(0.0), Ok(0));
        assert!((mib(1024 * 1024) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn mib_to_bytes_rejects_unrepresentable_budgets() {
        for bad in [f64::NAN, -1.0, -0.0001, f64::INFINITY, f64::NEG_INFINITY, 1e300] {
            assert!(matches!(mib_to_bytes(bad), Err(AmcError::BadBudget { .. })), "{bad}");
        }
        // Right at the address-space boundary: usize::MAX as f64 rounds
        // up, so the equal-compare case must also be rejected.
        let boundary = usize::MAX as f64 / (1024.0 * 1024.0);
        assert!(mib_to_bytes(boundary).is_err());
        assert!(mib_to_bytes(boundary / 2.0).is_ok());
    }

    #[test]
    fn report_mentions_categories() {
        let mut t = MemoryTracker::new();
        t.allocate(MemCategory::ClvSlots, 2048);
        let r = t.report();
        assert!(r.contains("clv-slots"));
        assert!(r.contains("total"));
    }
}
