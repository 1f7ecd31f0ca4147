//! Turning a `--maxmem` budget into a concrete memory plan.
//!
//! Priority order (mirroring EPA-NG's behavior in the paper):
//!
//! 1. mandatory structures: static reference data and, per query of a
//!    chunk, its sequence bytes and its kept candidate list
//!    ([`chunk_bytes`]). EPA-NG also holds a (QS × branch) result matrix
//!    here, which makes its floor grow with `chunk_size × branches`
//!    (paper §V-A and Fig. 4); this planner has none to charge, because
//!    candidates are selected while the prescores stream in;
//! 2. the preplacement lookup table, if it fits alongside the minimum slot
//!    count — losing it is the paper's sharp execution-time cliff;
//! 3. every remaining byte goes to CLV slots, clamped to
//!    `[⌈log₂ n⌉ + 2 + pin headroom, 3(n−2)]`.

use crate::candidates::{candidate_count, TopCandidates};
use crate::config::{EpaConfig, PreplacementMode};
use crate::error::PlaceError;
use phylo_amc::budget::{slots_for_budget, MemCategory, MemoryTracker};
use phylo_amc::SlotArena;
use phylo_engine::ReferenceContext;

/// Whether active CLV management is in force.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AmcMode {
    /// No memory limit: full CLV layout, lookup table on (paper "off").
    Off,
    /// Slot-managed CLVs under a byte budget.
    Amc,
}

impl std::fmt::Display for AmcMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AmcMode::Off => write!(f, "off"),
            AmcMode::Amc => write!(f, "amc"),
        }
    }
}

/// The resolved memory plan for a run.
#[derive(Debug, Clone)]
pub struct MemoryPlan {
    /// AMC on or off.
    pub mode: AmcMode,
    /// CLV slots to allocate.
    pub slots: usize,
    /// Whether the preplacement lookup table is built.
    pub use_lookup: bool,
    /// Effective chunk size.
    pub chunk_size: usize,
    /// Accounted bytes at plan time (peak estimate).
    pub tracker: MemoryTracker,
}

impl MemoryPlan {
    /// Total planned bytes.
    pub fn planned_bytes(&self) -> usize {
        self.tracker.total()
    }
}

/// Bytes of the lookup table for this reference: per branch, per pattern,
/// `states + 1` linear-likelihood columns plus a scaler count.
pub fn lookup_bytes(ctx: &ReferenceContext) -> usize {
    let branches = ctx.tree().n_edges();
    let patterns = ctx.layout().patterns;
    let states = ctx.layout().states;
    branches * patterns * ((states + 1) * 8 + 4)
}

/// Bytes a chunk of `chunk_size` queries holds: each query's sequence
/// and its [`TopCandidates`] list of `k` ([`candidate_count`]) entries.
pub fn chunk_bytes(
    ctx: &ReferenceContext,
    cfg: &EpaConfig,
    chunk_size: usize,
    n_sites: usize,
) -> usize {
    let k = candidate_count(ctx.tree().n_edges(), cfg.thorough_fraction, cfg.thorough_min);
    chunk_size * (n_sites + k * TopCandidates::ENTRY_BYTES)
}

/// Derives the plan from the configuration and reference shape.
pub fn plan(
    ctx: &ReferenceContext,
    cfg: &EpaConfig,
    n_queries: usize,
    n_sites: usize,
) -> Result<MemoryPlan, PlaceError> {
    cfg.validate()?;
    let layout = ctx.layout();
    let slot_bytes = SlotArena::bytes_per_slot(layout.clv_len(), layout.patterns);
    let chunk_size = cfg.chunk_size.min(n_queries.max(1));
    let static_bytes = ctx.approx_bytes();
    let chunk_buf = chunk_bytes(ctx, cfg, chunk_size, n_sites);
    let lookup = lookup_bytes(ctx);
    let min_slots = ctx.min_slots() + pin_headroom(ctx);
    let max_slots = ctx.max_slots().max(ctx.min_slots());
    let want_lookup = cfg.preplacement == PreplacementMode::Auto;

    let mut tracker = MemoryTracker::new();
    tracker.allocate(MemCategory::StaticData, static_bytes);
    tracker.allocate(MemCategory::ChunkBuffers, chunk_buf);

    let Some(budget) = cfg.max_memory else {
        // Unlimited: EPA-NG default mode.
        tracker.allocate(MemCategory::ClvSlots, max_slots * slot_bytes);
        if want_lookup {
            tracker.allocate(MemCategory::LookupTable, lookup);
        }
        return Ok(MemoryPlan {
            mode: AmcMode::Off,
            slots: max_slots,
            use_lookup: want_lookup,
            chunk_size,
            tracker,
        });
    };

    let fixed = static_bytes + chunk_buf;
    if budget < fixed + min_slots * slot_bytes {
        return Err(PlaceError::BudgetTooSmall {
            budget_bytes: budget,
            required_bytes: fixed + min_slots * slot_bytes,
            chunk_size,
        });
    }
    let remaining = budget - fixed;
    let (use_lookup, slots) = if want_lookup && remaining >= lookup + min_slots * slot_bytes {
        let slots = slots_for_budget(remaining - lookup, slot_bytes, min_slots, max_slots)
            .expect("budget checked above");
        (true, slots)
    } else {
        let slots = slots_for_budget(remaining, slot_bytes, min_slots, max_slots)
            .expect("budget checked above");
        (false, slots)
    };
    tracker.allocate(MemCategory::ClvSlots, slots * slot_bytes);
    if use_lookup {
        tracker.allocate(MemCategory::LookupTable, lookup);
    }
    Ok(MemoryPlan { mode: AmcMode::Amc, slots, use_lookup, chunk_size, tracker })
}

/// How one scoring pass runs branch blocks after the degradation ladder
/// ([`effective_block_size`]) has fitted the configured block size and
/// prefetch mode to a slot budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockPlan {
    /// Branches per block, ≥ 1 whenever planning succeeds.
    pub block_size: usize,
    /// Whether the next block is prepared while the current one is
    /// scored, so that two blocks are pinned at once.
    pub async_prefetch: bool,
    /// Ladder rung 1 fired: async prefetch was requested but the spare
    /// slots can only carry one pinned block.
    pub prefetch_disabled: bool,
    /// Ladder rung 2 fired: the block size was clamped below the
    /// configured one.
    pub block_clamped: bool,
}

/// The degradation ladder: fits the configured block size and prefetch
/// mode to `slots` instead of aborting. Each block pins two CLVs per
/// branch (both orientations), async prefetch keeps two blocks pinned at
/// once, and `⌈log₂ n⌉ + 2` slots must stay unpinned for the traversal
/// itself.
///
/// Rungs, in order: (1) disable async prefetch when the spare slots can
/// only carry one pinned block; (2) clamp the block size to what the
/// remaining spare supports — never below one branch. The bottom rung —
/// not even a one-branch synchronous block fits — is a hard
/// [`PlaceError::SlotHeadroomTooSmall`], never a degenerate zero-size
/// block: blocks of zero branches would spin forever and blocks of one
/// branch without headroom would still exhaust the pins at prepare time,
/// only later and less explicably. [`plan`] always reserves this headroom
/// ([`pin_headroom`]), so the error only fires for hand-built slot counts.
pub fn effective_block_size(
    ctx: &ReferenceContext,
    cfg: &EpaConfig,
    slots: usize,
) -> Result<BlockPlan, PlaceError> {
    // A full store holds every CLV: nothing is ever evicted, block pins
    // cost no headroom, and blocks can be as large as requested. (Tiny
    // trees can have fewer total slots than floor + headroom.)
    if slots >= ctx.max_slots() {
        return Ok(BlockPlan {
            block_size: cfg.block_size,
            async_prefetch: cfg.async_prefetch,
            prefetch_disabled: false,
            block_clamped: false,
        });
    }
    let spare = slots.saturating_sub(ctx.min_slots());
    let mut async_prefetch = cfg.async_prefetch;
    let prefetch_disabled = async_prefetch && spare < 4;
    if prefetch_disabled {
        async_prefetch = false;
    }
    let per_block = if async_prefetch { 4 } else { 2 };
    if spare < per_block {
        return Err(PlaceError::SlotHeadroomTooSmall {
            slots,
            min_slots: ctx.min_slots(),
            needed: per_block,
        });
    }
    let block_size = (spare / per_block).min(cfg.block_size);
    Ok(BlockPlan {
        block_size,
        async_prefetch,
        prefetch_disabled,
        block_clamped: block_size < cfg.block_size,
    })
}

/// Parses the `MemAvailable` line of `/proc/meminfo`-formatted text into
/// bytes. Exposed for testing; use [`detect_available_memory`] at runtime.
pub fn parse_meminfo_available(text: &str) -> Option<usize> {
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("MemAvailable:") {
            let mut parts = rest.split_whitespace();
            let value: usize = parts.next()?.parse().ok()?;
            return match parts.next() {
                Some("kB") | None => Some(value * 1024),
                Some(unit) => {
                    debug_assert!(false, "unexpected meminfo unit {unit}");
                    Some(value * 1024)
                }
            };
        }
    }
    None
}

/// Detects the memory currently available on this machine (Linux:
/// `/proc/meminfo` `MemAvailable`). The paper's EPA-NG determines its
/// default memory limit automatically this way; pair with
/// `EpaConfig { max_memory: detect_available_memory(), .. }`.
pub fn detect_available_memory() -> Option<usize> {
    let text = std::fs::read_to_string("/proc/meminfo").ok()?;
    parse_meminfo_available(&text)
}

/// The smallest feasible `--maxmem` for this configuration: mandatory
/// structures plus the minimum slot count, **without** the lookup table —
/// the paper's "fullest memory saving" (F) operating point.
pub fn floor_budget(
    ctx: &ReferenceContext,
    cfg: &EpaConfig,
    n_queries: usize,
    n_sites: usize,
) -> usize {
    let layout = ctx.layout();
    let slot_bytes = SlotArena::bytes_per_slot(layout.clv_len(), layout.patterns);
    let chunk_size = cfg.chunk_size.min(n_queries.max(1));
    ctx.approx_bytes()
        + chunk_bytes(ctx, cfg, chunk_size, n_sites)
        + (ctx.min_slots() + pin_headroom(ctx)) * slot_bytes
}

/// The smallest `--maxmem` at which the lookup table still fits (with the
/// minimum slot count) — the paper's "intermediate" (I) operating point,
/// just above the execution-time cliff.
pub fn lookup_floor_budget(
    ctx: &ReferenceContext,
    cfg: &EpaConfig,
    n_queries: usize,
    n_sites: usize,
) -> usize {
    floor_budget(ctx, cfg, n_queries, n_sites) + lookup_bytes(ctx)
}

/// Extra slots reserved so cross-block pinning and the prefetched block
/// never push the unpinned count below the FPA floor.
pub fn pin_headroom(ctx: &ReferenceContext) -> usize {
    // Two resident block targets (current + prefetch) of two dirs each.
    4 + (ctx.tree().n_leaves() > 1000) as usize * 4
}

#[cfg(test)]
mod tests {
    use super::*;
    use phylo_models::{dna, DiscreteGamma, SubstModel};
    use phylo_seq::alphabet::AlphabetKind;
    use phylo_seq::{compress, Msa, Sequence};
    use phylo_tree::generate;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn ctx(n: usize, sites: usize) -> ReferenceContext {
        let mut rng = StdRng::seed_from_u64(5);
        let tree = generate::yule(n, 0.1, &mut rng).unwrap();
        let rows: Vec<Sequence> = (0..n)
            .map(|i| {
                let text: String = (0..sites)
                    .map(|_| "ACGT".as_bytes()[rng.gen_range(0..4usize)] as char)
                    .collect();
                Sequence::from_text(
                    tree.taxon(phylo_tree::NodeId(i as u32)),
                    AlphabetKind::Dna,
                    &text,
                )
                .unwrap()
            })
            .collect();
        let patterns = compress(&Msa::new(rows).unwrap()).unwrap();
        let model = SubstModel::new(&dna::jc69(), DiscreteGamma::none()).unwrap();
        ReferenceContext::new(tree, model, AlphabetKind::Dna.alphabet(), &patterns).unwrap()
    }

    #[test]
    fn unlimited_is_off_mode() {
        let ctx = ctx(16, 40);
        let plan = plan(&ctx, &EpaConfig::default(), 100, 40).unwrap();
        assert_eq!(plan.mode, AmcMode::Off);
        assert_eq!(plan.slots, ctx.max_slots());
        assert!(plan.use_lookup);
    }

    #[test]
    fn generous_budget_keeps_lookup() {
        let c = ctx(16, 40);
        let cfg = EpaConfig { max_memory: Some(64 * 1024 * 1024), ..Default::default() };
        let plan = plan(&c, &cfg, 100, 40).unwrap();
        assert_eq!(plan.mode, AmcMode::Amc);
        assert!(plan.use_lookup);
        assert_eq!(plan.slots, c.max_slots());
    }

    #[test]
    fn tight_budget_drops_lookup_then_slots() {
        let c = ctx(64, 200);
        let slot_bytes = SlotArena::bytes_per_slot(c.layout().clv_len(), c.layout().patterns);
        let fixed = c.approx_bytes() + chunk_bytes(&c, &EpaConfig::default(), 10, 200);
        // Budget: fixed + min slots + lookup - 1 → lookup cannot fit.
        let min_slots = c.min_slots() + 4;
        let budget = fixed + min_slots * slot_bytes + lookup_bytes(&c) - 1;
        let cfg = EpaConfig { max_memory: Some(budget), chunk_size: 10, ..Default::default() };
        let p = plan(&c, &cfg, 10, 200).unwrap();
        assert!(!p.use_lookup, "lookup must be dropped at this budget");
        assert!(p.slots >= min_slots);
        // One byte above the full requirement → lookup fits with min slots.
        let budget2 = fixed + min_slots * slot_bytes + lookup_bytes(&c);
        let cfg2 = EpaConfig { max_memory: Some(budget2), chunk_size: 10, ..Default::default() };
        let p2 = plan(&c, &cfg2, 10, 200).unwrap();
        assert!(p2.use_lookup);
        assert_eq!(p2.slots, min_slots);
    }

    #[test]
    fn impossible_budget_errors() {
        let c = ctx(32, 100);
        let cfg = EpaConfig { max_memory: Some(1000), ..Default::default() };
        let err = plan(&c, &cfg, 100, 100).unwrap_err();
        assert!(matches!(err, PlaceError::BudgetTooSmall { .. }));
    }

    #[test]
    fn smaller_chunk_lowers_floor() {
        let c = ctx(64, 200);
        let cfg = EpaConfig::default();
        // The chunk term is the queries' bytes plus their kept candidate
        // lists (16 B an entry), and nothing proportional to the branches.
        let k = |c: &ReferenceContext| candidate_count(c.tree().n_edges(), 0.01, 2);
        assert_eq!(k(&c), 2);
        assert_eq!(chunk_bytes(&c, &cfg, 500, 200), 500 * (200 + 2 * 16));
        // A 4× larger tree at the same chunk moves the term only through k.
        let big = ctx(256, 200);
        assert_eq!(k(&big), 6);
        assert_eq!(
            chunk_bytes(&big, &cfg, 500, 200) - chunk_bytes(&c, &cfg, 500, 200),
            500 * (6 - 2) * 16
        );
        // Find the minimal feasible budget for two chunk sizes.
        let floor = |chunk: usize| {
            let slot_bytes = SlotArena::bytes_per_slot(c.layout().clv_len(), c.layout().patterns);
            c.approx_bytes() + chunk_bytes(&c, &cfg, chunk, 200) + (c.min_slots() + 4) * slot_bytes
        };
        assert_eq!(floor(5000) - floor(500), 4500 * (200 + 2 * 16));
        // And the planner agrees: the chunk-500 floor budget fails at 5000.
        let cfg =
            EpaConfig { max_memory: Some(floor(500)), chunk_size: 5000, ..Default::default() };
        assert!(plan(&c, &cfg, 10_000, 200).is_err());
        let cfg = EpaConfig { max_memory: Some(floor(500)), chunk_size: 500, ..Default::default() };
        assert!(plan(&c, &cfg, 10_000, 200).is_ok());
    }

    #[test]
    fn chunk_clamped_to_query_count() {
        let c = ctx(16, 40);
        let p = plan(&c, &EpaConfig::default(), 7, 40).unwrap();
        assert_eq!(p.chunk_size, 7);
    }

    #[test]
    fn meminfo_parsing() {
        let text = "MemTotal:       16280456 kB\nMemFree:         1304028 kB\nMemAvailable:    8123456 kB\n";
        assert_eq!(parse_meminfo_available(text), Some(8_123_456 * 1024));
        assert_eq!(parse_meminfo_available("MemTotal: 1 kB\n"), None);
        assert_eq!(parse_meminfo_available(""), None);
    }

    #[test]
    fn detect_available_memory_on_linux() {
        // On Linux this must return a sane positive value.
        if std::path::Path::new("/proc/meminfo").exists() {
            let mem = detect_available_memory().expect("MemAvailable present");
            assert!(mem > 1024 * 1024, "unreasonably small: {mem}");
        }
    }

    #[test]
    fn effective_block_size_boundary_never_degenerates() {
        let c = ctx(24, 60);
        let cfg = EpaConfig { async_prefetch: false, block_size: 64, ..Default::default() };
        // Exactly ⌈log₂ n⌉ + 2 traversal slots plus one block of pin
        // headroom: must plan, with a non-degenerate block.
        let floor_slots = c.min_slots() + pin_headroom(&c);
        assert!(floor_slots < c.max_slots(), "boundary must exercise the AMC path");
        let p = effective_block_size(&c, &cfg, floor_slots).unwrap();
        assert!(p.block_size >= 1, "zero-size blocks would spin forever: {p:?}");
        assert!(p.block_clamped, "64-branch blocks cannot fit the floor");
        assert!(!p.async_prefetch);
        // One slot of spare below a synchronous block's demand: a typed
        // headroom error, not a zero-size block.
        let err = effective_block_size(&c, &cfg, c.min_slots() + 1).unwrap_err();
        assert!(matches!(err, PlaceError::SlotHeadroomTooSmall { needed: 2, .. }), "{err:?}");
        // Async demands four spare slots; three spare falls back to sync.
        let acfg = EpaConfig { async_prefetch: true, block_size: 64, ..Default::default() };
        let p = effective_block_size(&c, &acfg, c.min_slots() + 3).unwrap();
        assert!(p.prefetch_disabled && !p.async_prefetch && p.block_size == 1, "{p:?}");
    }

    #[test]
    fn floor_budget_is_an_exact_boundary() {
        let c = ctx(24, 60);
        let cfg = EpaConfig {
            preplacement: PreplacementMode::Off,
            async_prefetch: false,
            block_size: 64,
            ..Default::default()
        };
        let floor = floor_budget(&c, &cfg, 10, 60);
        // At exactly the floor the plan succeeds with the minimum slot
        // count, and that count supports a real (≥ 1 branch) block.
        let cfg_at = EpaConfig { max_memory: Some(floor), ..cfg.clone() };
        let p = plan(&c, &cfg_at, 10, 60).unwrap();
        assert_eq!(p.slots, c.min_slots() + pin_headroom(&c));
        let bp = effective_block_size(&c, &cfg_at, p.slots).unwrap();
        assert!(bp.block_size >= 1);
        // One byte under the floor must be rejected outright.
        let cfg_under = EpaConfig { max_memory: Some(floor - 1), ..cfg };
        let err = plan(&c, &cfg_under, 10, 60).unwrap_err();
        assert!(matches!(err, PlaceError::BudgetTooSmall { .. }), "{err:?}");
    }

    #[test]
    fn preplacement_off_never_builds_lookup() {
        let c = ctx(16, 40);
        let cfg = EpaConfig { preplacement: PreplacementMode::Off, ..Default::default() };
        let p = plan(&c, &cfg, 100, 40).unwrap();
        assert!(!p.use_lookup);
    }
}
