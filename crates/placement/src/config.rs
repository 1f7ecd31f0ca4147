//! Placement run configuration (the `EPA-NG` command line surface).

use phylo_amc::StrategyKind;

/// Whether to build the preplacement lookup table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PreplacementMode {
    /// Build it when the memory plan says it fits (paper recommendation:
    /// "this lookup table should be used whenever the memory constraints
    /// allow for it").
    #[default]
    Auto,
    /// Never build it (exposes the slow path for ablation).
    Off,
}

/// Tunables of a placement run. `Default` mirrors EPA-NG's defaults as
/// described in the paper (chunk size 5 000, automatic memory limit off).
/// The thorough phase's settings are constants, not tunables:
/// [`crate::candidates::THOROUGH_FRACTION`] and
/// [`crate::candidates::THOROUGH_MIN`] size each query's candidate list,
/// and [`crate::score::BLO_ITERATIONS`] caps a pair's refinement rounds.
#[derive(Debug, Clone)]
pub struct EpaConfig {
    /// Memory budget in bytes (`--maxmem`); `None` disables AMC entirely
    /// (full CLV layout + lookup table).
    pub max_memory: Option<usize>,
    /// Queries per chunk (`5 000` default; the paper's Fig. 4 uses `500`).
    pub chunk_size: usize,
    /// Threads of every scoring phase, the paper's P(r): a sweep's
    /// threads both prepare the next block and score the pinned ones, with
    /// no prefetch thread on top. `1` = serial; defaults to the machine's
    /// cores.
    pub threads: usize,
    /// Branches per block when CLVs must be recomputed under AMC.
    pub block_size: usize,
    /// Replacement strategy for the slot manager.
    pub strategy: StrategyKind,
    /// Preplacement lookup-table mode.
    pub preplacement: PreplacementMode,
    /// Overlap next-block CLV precomputation with current-block placement
    /// (the paper's adapted parallelization): two blocks are pinned at
    /// once, and any free sweep thread prepares the next or scores either.
    pub async_prefetch: bool,
    /// Kernel tier request (`--kernel-tier`): `Auto` resolves from
    /// `PHYLO_KERNEL_TIER`, else to the SIMD tier; explicit choices pin
    /// the reference or SIMD implementations.
    pub kernel_tier: phylo_kernel::TierChoice,
    /// CLV spill file for evicted CLVs (`--tier-dir`): eviction writes
    /// complete victims to it and misses try a reload before
    /// recomputing. `None` keeps the paper's pure recompute-on-miss AMC.
    pub tiers: Option<phylo_amc::tier::TierConfig>,
}

impl Default for EpaConfig {
    fn default() -> Self {
        EpaConfig {
            max_memory: None,
            chunk_size: 5000,
            threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
            block_size: 64,
            strategy: StrategyKind::CostBased,
            preplacement: PreplacementMode::Auto,
            async_prefetch: true,
            kernel_tier: phylo_kernel::TierChoice::Auto,
            tiers: None,
        }
    }
}

impl EpaConfig {
    /// Validates field ranges.
    pub fn validate(&self) -> Result<(), crate::error::PlaceError> {
        use crate::error::PlaceError::BadConfig;
        if self.chunk_size == 0 {
            return Err(BadConfig("chunk_size must be at least 1".into()));
        }
        if self.block_size == 0 {
            return Err(BadConfig("block_size must be at least 1".into()));
        }
        if self.threads == 0 {
            return Err(BadConfig("threads must be at least 1".into()));
        }
        if let Some(tiers) = &self.tiers {
            tiers.validate().map_err(|e| BadConfig(e.to_string()))?;
        }
        Ok(())
    }

    /// Convenience: a budget expressed in MiB.
    ///
    /// # Panics
    /// On a budget the checked conversion rejects (NaN, negative, or
    /// beyond the address space) — programmatic callers should pass a
    /// sane constant; the CLI path surfaces the typed error instead.
    pub fn with_maxmem_mib(mut self, mib: f64) -> Self {
        self.max_memory =
            Some(phylo_amc::budget::mib_to_bytes(mib).expect("invalid MiB budget in config"));
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_valid() {
        EpaConfig::default().validate().unwrap();
    }

    #[test]
    fn bad_values_rejected() {
        let mut c = EpaConfig::default();
        c.chunk_size = 0;
        assert!(c.validate().is_err());
        let mut c = EpaConfig::default();
        c.threads = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn maxmem_mib_helper() {
        let c = EpaConfig::default().with_maxmem_mib(2.0);
        assert_eq!(c.max_memory, Some(2 * 1024 * 1024));
    }
}
