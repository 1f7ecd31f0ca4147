//! CLV memory layout.

/// Which kernel *tier* a [`Layout`] dispatches to, orthogonal to the
/// state-count [`KernelKind`]. Resolved once at layout construction:
///
/// * [`KernelTier::Reference`] — the generic scalar oracle kernels, for
///   every state count. Bit-for-bit the definition of correctness.
/// * [`KernelTier::Simd`] — the fast kernels for S = 4 / 20
///   (`crate::simd`): AVX2/FMA intrinsics for `update_partials`, which
///   FMA makes *tolerance-checked* against the oracle; every other entry
///   point runs the order-preserving `crate::fixed` bodies and is
///   bit-identical to it. On a host without AVX2+FMA (or under
///   `PHYLO_SIMD_PORTABLE=1`) the portable backend runs `fixed` for
///   `update_partials` too.
///
/// Layouts with [`KernelKind::Generic`] always run the reference
/// implementation regardless of tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelTier {
    /// Generic scalar kernels (the differential-test oracle).
    Reference,
    /// AVX2/FMA `update_partials` (tolerance contract); everything else,
    /// and the portable backend, bit-identical to `Reference`.
    Simd,
}

impl KernelTier {
    /// Stable lowercase name (CLI/env/metrics vocabulary).
    pub fn name(&self) -> &'static str {
        match self {
            KernelTier::Reference => "reference",
            KernelTier::Simd => "simd",
        }
    }
}

/// The name of the environment variable that overrides `Auto`.
const TIER_ENV: &str = "PHYLO_KERNEL_TIER";

/// A tier *request*: what the user (CLI flag, `PHYLO_KERNEL_TIER` env
/// var) asked for, before `Auto` is resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TierChoice {
    /// The env var if set, else [`KernelTier::Simd`].
    #[default]
    Auto,
    /// Force the generic scalar oracle.
    Reference,
    /// Force the SIMD module (which itself falls back to portable code
    /// on hosts without AVX2+FMA, so this is always safe to request).
    Simd,
}

impl TierChoice {
    /// Parses the CLI/env vocabulary (`auto|reference|simd`).
    pub fn parse(s: &str) -> Option<TierChoice> {
        match s.trim().to_ascii_lowercase().as_str() {
            "auto" => Some(TierChoice::Auto),
            "reference" => Some(TierChoice::Reference),
            "simd" => Some(TierChoice::Simd),
            _ => None,
        }
    }

    /// Checks the `PHYLO_KERNEL_TIER` override, which [`from_env`] reads
    /// as `Auto` when it is not a tier name: the front doors call this
    /// first, so a bad value is a usage error rather than a silent
    /// default.
    ///
    /// [`from_env`]: TierChoice::from_env
    pub fn check_env() -> Result<(), String> {
        match std::env::var(TIER_ENV) {
            Ok(v) if TierChoice::parse(&v).is_none() => {
                Err(format!("bad {TIER_ENV} {v:?} (expected auto|reference|simd)"))
            }
            _ => Ok(()),
        }
    }

    /// The `PHYLO_KERNEL_TIER` override, read once per process (invalid
    /// values fall back to `Auto` rather than aborting mid-run; see
    /// [`TierChoice::check_env`]).
    pub fn from_env() -> TierChoice {
        static ENV: std::sync::OnceLock<TierChoice> = std::sync::OnceLock::new();
        *ENV.get_or_init(|| {
            std::env::var(TIER_ENV)
                .ok()
                .and_then(|v| TierChoice::parse(&v))
                .unwrap_or(TierChoice::Auto)
        })
    }

    /// Resolves the request into a concrete tier. Priority: an explicit
    /// choice wins outright; `Auto` defers to the env var, then to `Simd`
    /// (whose backend does the CPU detection).
    pub fn resolve(self) -> KernelTier {
        match self {
            TierChoice::Reference => KernelTier::Reference,
            TierChoice::Simd => KernelTier::Simd,
            TierChoice::Auto => match TierChoice::from_env() {
                TierChoice::Reference => KernelTier::Reference,
                TierChoice::Auto | TierChoice::Simd => KernelTier::Simd,
            },
        }
    }
}

/// Which kernel implementation a [`Layout`] dispatches to. Selected once
/// at layout construction from the state count; every kernel entry point
/// branches on it exactly once per call, outside the pattern loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelKind {
    /// `states == 4`: fused DNA kernels with fixed-size inner loops.
    Dna4,
    /// `states == 20`: fused protein kernels with pattern-blocked
    /// (cache-friendly) transition-matrix access.
    Protein20,
    /// Any other state count: the generic scalar kernels.
    Generic,
}

impl KernelKind {
    /// The kind serving a given state count.
    pub fn for_states(states: usize) -> KernelKind {
        match states {
            4 => KernelKind::Dna4,
            20 => KernelKind::Protein20,
            _ => KernelKind::Generic,
        }
    }
}

/// Describes the shape of every CLV in a partitioned analysis:
/// `[pattern][rate][state]`, patterns outermost so that site ranges are
/// contiguous (which is what makes across-site parallelism a simple slice
/// split).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Layout {
    /// Number of (compressed) site patterns.
    pub patterns: usize,
    /// Number of Γ rate categories.
    pub rates: usize,
    /// Number of character states (4 for DNA, 20 for protein).
    pub states: usize,
    /// Kernel implementation selected for this layout.
    kind: KernelKind,
    /// Kernel tier selected for this layout (see [`KernelTier`]).
    tier: KernelTier,
}

impl Layout {
    /// Creates a layout; all dimensions must be non-zero. The kernel
    /// tier resolves from `PHYLO_KERNEL_TIER` (see
    /// [`TierChoice::resolve`]); use [`Layout::with_tier`] for an
    /// explicit override.
    pub fn new(patterns: usize, rates: usize, states: usize) -> Self {
        assert!(patterns > 0 && rates > 0 && states > 0, "layout dimensions must be non-zero");
        Layout {
            patterns,
            rates,
            states,
            kind: KernelKind::for_states(states),
            tier: TierChoice::Auto.resolve(),
        }
    }

    /// This layout with its tier re-resolved from an explicit request
    /// (`Auto` re-reads the env override, so it is priority-neutral).
    #[inline]
    pub fn with_tier(mut self, choice: TierChoice) -> Self {
        self.tier = choice.resolve();
        self
    }

    /// The kernel implementation this layout dispatches to.
    #[inline]
    pub fn kind(&self) -> KernelKind {
        self.kind
    }

    /// The kernel tier this layout dispatches to. [`KernelKind::Generic`]
    /// layouts run the reference kernels regardless of this value.
    #[inline]
    pub fn tier(&self) -> KernelTier {
        self.tier
    }

    /// Number of `f64` entries in one CLV.
    #[inline]
    pub fn clv_len(&self) -> usize {
        self.patterns * self.rates * self.states
    }

    /// Entries per pattern (`rates × states`).
    #[inline]
    pub fn pattern_stride(&self) -> usize {
        self.rates * self.states
    }

    /// Entries in one per-rate transition matrix block (`states²`).
    #[inline]
    pub fn pmatrix_block(&self) -> usize {
        self.states * self.states
    }

    /// Total entries in a per-edge probability matrix set
    /// (`rates × states²`).
    #[inline]
    pub fn pmatrix_len(&self) -> usize {
        self.rates * self.states * self.states
    }

    /// Bytes of one CLV (the unit of the paper's memory accounting).
    #[inline]
    pub fn clv_bytes(&self) -> usize {
        self.clv_len() * std::mem::size_of::<f64>()
    }

    /// Bytes of one per-pattern scaler vector.
    #[inline]
    pub fn scaler_bytes(&self) -> usize {
        self.patterns * std::mem::size_of::<u32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lengths() {
        let l = Layout::new(100, 4, 4);
        assert_eq!(l.clv_len(), 1600);
        assert_eq!(l.pattern_stride(), 16);
        assert_eq!(l.pmatrix_len(), 64);
        assert_eq!(l.clv_bytes(), 12800);
        assert_eq!(l.scaler_bytes(), 400);
    }

    #[test]
    fn protein_layout() {
        let l = Layout::new(10, 4, 20);
        assert_eq!(l.clv_len(), 800);
        assert_eq!(l.pmatrix_block(), 400);
    }

    #[test]
    fn kind_follows_state_count() {
        assert_eq!(Layout::new(1, 1, 4).kind(), KernelKind::Dna4);
        assert_eq!(Layout::new(1, 1, 20).kind(), KernelKind::Protein20);
        assert_eq!(Layout::new(1, 1, 2).kind(), KernelKind::Generic);
        assert_eq!(Layout::new(1, 1, 61).kind(), KernelKind::Generic);
    }

    #[test]
    #[should_panic]
    fn zero_dims_rejected() {
        Layout::new(0, 4, 4);
    }

    #[test]
    fn tier_choice_parse_vocabulary() {
        assert_eq!(TierChoice::parse("auto"), Some(TierChoice::Auto));
        assert_eq!(TierChoice::parse("Reference"), Some(TierChoice::Reference));
        assert_eq!(TierChoice::parse(" SIMD "), Some(TierChoice::Simd));
        // The retired middle tier is not a tier name any more.
        assert_eq!(TierChoice::parse("fixed"), None);
        assert_eq!(TierChoice::parse("avx512"), None);
        assert_eq!(TierChoice::parse(""), None);
    }

    #[test]
    fn explicit_tier_overrides_resolution() {
        let l = Layout::new(8, 2, 4);
        assert_eq!(l.with_tier(TierChoice::Reference).tier(), KernelTier::Reference);
        assert_eq!(l.with_tier(TierChoice::Simd).tier(), KernelTier::Simd);
        // Auto lands on a concrete tier. Which tier depends on the
        // environment: PHYLO_KERNEL_TIER pins it (ci.sh runs this suite
        // once per value); unpinned, auto picks the SIMD tier on every
        // host.
        let auto = l.with_tier(TierChoice::Auto);
        match std::env::var(TIER_ENV).ok().as_deref().and_then(TierChoice::parse) {
            Some(TierChoice::Reference) => assert_eq!(auto.tier(), KernelTier::Reference),
            _ => assert_eq!(auto.tier(), KernelTier::Simd),
        }
    }

    #[test]
    fn tier_names_are_stable() {
        assert_eq!(KernelTier::Reference.name(), "reference");
        assert_eq!(KernelTier::Simd.name(), "simd");
    }
}
