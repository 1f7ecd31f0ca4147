//! Differential tests: every kernel the tiers dispatch to must reproduce
//! the generic reference kernels, under the equivalence contract
//! documented in DESIGN.md §5c:
//!
//! * The `fixed` bodies — the SIMD tier's portable backend, the only code
//!   a non-AVX2 host runs — are **bit-for-bit** identical to `reference`:
//!   same CLV bits, same scaler counts, same log-likelihood bits, across
//!   random dimensions, side combinations, partial pattern ranges, and
//!   scaling-heavy tiny-likelihood inputs. They are called directly, so
//!   this holds on every host and under every `PHYLO_KERNEL_TIER`.
//! * Through the dispatchers, `propagate`, `edge_log_likelihood` and
//!   `point_log_likelihood` are bit-exact on **both** tiers (`propagate`
//!   is the fixed body compiled for AVX2, without FMA; the other two run
//!   the fixed bodies outright).
//! * `update_partials` on the `simd` tier is **tolerance-checked**: FMA
//!   contraction and the vectorized horizontal reductions reassociate
//!   sums, so CLV elements are compared in the effective log domain
//!   (`ln v − scale·LN_SCALE`, absorbing legitimate ±1 scaler-count
//!   differences at the rescale threshold) within `1e-10`, and exact
//!   zeroes must match exactly.
//!
//! Tiers are pinned explicitly via `Layout::with_tier`, never inherited
//! from the environment (on non-AVX2 hosts the simd tier runs the
//! portable backend, which is bit-exact, and the tolerance check passes
//! trivially).

use phylo_kernel::kernels::{self, Side};
use phylo_kernel::{fixed, likelihood, reference};
use phylo_kernel::{
    KernelKind, KernelScratch, KernelTier, Layout, TierChoice, TipTable, LN_SCALE, SCALE_THRESHOLD,
};
use proptest::prelude::*;
use proptest::test_runner::TestRng;

/// Per-element tolerance for simd-tier CLVs in the effective log domain.
const CLV_LOG_TOL: f64 = 1e-10;

/// Every tier, for the entry points that are bit-exact on all of them.
const ALL_TIERS: [TierChoice; 2] = [TierChoice::Reference, TierChoice::Simd];

/// Calls a `phylo_kernel::fixed` body at the compile-time state count
/// matching `states` (4 or 20).
macro_rules! fixed_body {
    ($states:expr, $f:ident($($arg:expr),* $(,)?)) => {
        match $states {
            4 => fixed::$f::<4>($($arg),*),
            20 => fixed::$f::<20>($($arg),*),
            s => unreachable!("no fixed body for {s} states"),
        }
    };
}

/// Deterministic input builder driven by the proptest shim's RNG.
struct Gen {
    rng: TestRng,
}

impl Gen {
    fn new(seed: u64) -> Gen {
        Gen { rng: TestRng::from_seed(seed) }
    }

    /// A value in `(lo, hi)`; never exactly zero so products stay nonzero.
    fn val(&mut self, lo: f64, hi: f64) -> f64 {
        lo + self.rng.unit_f64() * (hi - lo) + 1e-12
    }

    /// A roughly stochastic per-rate transition matrix set.
    fn pmatrix(&mut self, layout: &Layout) -> Vec<f64> {
        let s = layout.states;
        let mut pm = vec![0.0; layout.pmatrix_len()];
        for r in 0..layout.rates {
            for i in 0..s {
                let row = &mut pm[r * s * s + i * s..r * s * s + (i + 1) * s];
                let mut sum = 0.0;
                for v in row.iter_mut() {
                    *v = self.val(0.0, 1.0);
                    sum += *v;
                }
                for v in row.iter_mut() {
                    *v /= sum;
                }
            }
        }
        pm
    }

    /// A CLV; `tiny` scales whole patterns down near/below the scaling
    /// threshold so rescaling triggers.
    fn clv(&mut self, layout: &Layout, tiny: bool) -> Vec<f64> {
        let stride = layout.pattern_stride();
        let mut out = vec![0.0; layout.clv_len()];
        for p in 0..layout.patterns {
            let mag = if tiny && self.rng.below(2) == 0 {
                // Anywhere from "just above threshold" to "two rescales".
                SCALE_THRESHOLD.powf(self.val(0.5, 2.2))
            } else {
                1.0
            };
            for v in &mut out[p * stride..(p + 1) * stride] {
                *v = self.val(0.0, 1.0) * mag;
            }
        }
        out
    }

    /// Per-pattern inherited scaler counts.
    fn scales(&mut self, patterns: usize) -> Vec<u32> {
        (0..patterns).map(|_| self.rng.below(4) as u32).collect()
    }

    /// Per-pattern tip character codes over `n_codes` codes.
    fn codes(&mut self, patterns: usize, n_codes: usize) -> Vec<u8> {
        (0..patterns).map(|_| self.rng.below(n_codes as u64) as u8).collect()
    }

    /// A sub-range of the pattern space (sometimes partial, sometimes
    /// full).
    fn range(&mut self, patterns: usize) -> std::ops::Range<usize> {
        if self.rng.below(3) == 0 {
            0..patterns
        } else {
            let a = self.rng.below(patterns as u64) as usize;
            let b = self.rng.below(patterns as u64) as usize;
            a.min(b)..a.max(b) + 1
        }
    }
}

/// Concrete one-state masks plus a fully ambiguous code.
fn masks(states: usize) -> Vec<u32> {
    let mut m: Vec<u32> = (0..states).map(|j| 1u32 << j).collect();
    m.push((1u64 << states) as u32 - 1);
    m
}

/// Builds one side (tip or CLV) from the generator. Returned as owned
/// parts; `as_side` borrows them.
struct OwnedSide {
    tip: Option<(TipTable, Vec<u8>)>,
    clv: Option<(Vec<f64>, Vec<u32>, Vec<f64>)>,
}

impl OwnedSide {
    fn generate(g: &mut Gen, layout: &Layout, force_clv: bool, tiny: bool) -> OwnedSide {
        let pm = g.pmatrix(layout);
        if !force_clv && g.rng.below(2) == 0 {
            let m = masks(layout.states);
            let table = TipTable::build(layout, &pm, &m);
            let codes = g.codes(layout.patterns, m.len());
            OwnedSide { tip: Some((table, codes)), clv: None }
        } else {
            let clv = g.clv(layout, tiny);
            let scale = g.scales(layout.patterns);
            OwnedSide { tip: None, clv: Some((clv, scale, pm)) }
        }
    }

    fn as_side(&self) -> Side<'_> {
        match (&self.tip, &self.clv) {
            (Some((table, codes)), None) => Side::Tip { table, codes },
            (None, Some((clv, scale, pm))) => Side::Clv { clv, scale: Some(scale), pmatrix: pm },
            _ => unreachable!(),
        }
    }
}

/// Dispatched `update_partials` under one pinned tier.
fn run_update(
    layout: &Layout,
    left: Side<'_>,
    right: Side<'_>,
    range: std::ops::Range<usize>,
) -> (Vec<f64>, Vec<u32>) {
    let mut clv = vec![0.0; layout.clv_len()];
    let mut scale = vec![0u32; layout.patterns];
    kernels::update_partials(layout, left, right, &mut clv, &mut scale, range);
    (clv, scale)
}

/// Asserts two CLV buffers agree in the effective log domain within
/// `CLV_LOG_TOL` per element over `range`. Scale counts may legitimately
/// differ by rescale-threshold straddling, which the `scale·LN_SCALE`
/// subtraction absorbs exactly (the scale factor is a power of two, so a
/// shifted element's `ln` moves by exactly `LN_SCALE` up to f64 `ln`
/// accuracy). Exact zeroes must match exactly.
fn assert_clv_close(
    layout: &Layout,
    got: &[f64],
    got_scale: &[u32],
    want: &[f64],
    want_scale: &[u32],
    range: std::ops::Range<usize>,
    tier: KernelTier,
) {
    let stride = layout.pattern_stride();
    for p in range {
        let (cg, cw) = (got_scale[p] as f64, want_scale[p] as f64);
        for i in p * stride..(p + 1) * stride {
            let (a, b) = (got[i], want[i]);
            if a == 0.0 || b == 0.0 {
                assert!(
                    a == b,
                    "tier {tier:?}: zero/nonzero mismatch at f64 index {i}: {a} vs {b}"
                );
                continue;
            }
            let la = a.ln() - cg * LN_SCALE;
            let lb = b.ln() - cw * LN_SCALE;
            assert!(
                (la - lb).abs() <= CLV_LOG_TOL,
                "tier {tier:?}: CLV log mismatch at f64 index {i} (pattern {p}): \
                 {a} (scale {}) vs {b} (scale {}), log delta {:e}",
                got_scale[p],
                want_scale[p],
                (la - lb).abs()
            );
        }
    }
}

/// `update_partials` against the reference oracle: the fixed body and the
/// reference tier bit-for-bit, the simd tier under the documented
/// log-domain tolerance.
fn check_update(base: &Layout, left: Side<'_>, right: Side<'_>, range: std::ops::Range<usize>) {
    let mut oracle = vec![0.0; base.clv_len()];
    let mut oracle_scale = vec![0u32; base.patterns];
    let mut scratch = KernelScratch::new();
    reference::update_partials(
        base,
        left,
        right,
        &mut oracle,
        &mut oracle_scale,
        range.clone(),
        &mut scratch,
    );

    let mut body = vec![0.0; base.clv_len()];
    let mut body_scale = vec![0u32; base.patterns];
    fixed_body!(
        base.states,
        update_partials(base, left, right, &mut body, &mut body_scale, range.clone())
    );
    let reference_tier =
        run_update(&base.with_tier(TierChoice::Reference), left, right, range.clone());
    for (name, (clv, scale)) in
        [("fixed body", (body, body_scale)), ("reference tier", reference_tier)]
    {
        for (i, (a, b)) in clv.iter().zip(&oracle).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{name}: CLV bit mismatch at f64 index {i} (range {range:?})"
            );
        }
        assert_eq!(scale, oracle_scale, "{name}: scaler mismatch (range {range:?})");
    }

    let simd = (*base).with_tier(TierChoice::Simd);
    let (clv, scale) = run_update(&simd, left, right, range.clone());
    assert_clv_close(base, &clv, &scale, &oracle, &oracle_scale, range, simd.tier());
}

/// `edge_log_likelihood` against the reference oracle, bit-for-bit: the
/// fixed body, and the dispatcher on every tier.
#[allow(clippy::too_many_arguments)]
fn check_edge_ll(
    base: &Layout,
    u_clv: &[f64],
    u_scale: &[u32],
    v: Side<'_>,
    freqs: &[f64],
    rw: &[f64],
    pw: &[u32],
    range: std::ops::Range<usize>,
) {
    let mut scratch = KernelScratch::new();
    let oracle = reference::edge_log_likelihood(
        base,
        u_clv,
        Some(u_scale),
        v,
        freqs,
        rw,
        pw,
        range.clone(),
        &mut scratch,
    );
    let body = fixed_body!(
        base.states,
        edge_log_likelihood(base, u_clv, Some(u_scale), v, freqs, rw, pw, range.clone())
    );
    assert_eq!(body.to_bits(), oracle.to_bits(), "fixed body: {body} vs {oracle}");
    for choice in ALL_TIERS {
        let layout = (*base).with_tier(choice);
        let fast = likelihood::edge_log_likelihood(
            &layout,
            u_clv,
            Some(u_scale),
            v,
            freqs,
            rw,
            pw,
            range.clone(),
        );
        assert_eq!(fast.to_bits(), oracle.to_bits(), "tier {choice:?}: {fast} vs {oracle}");
    }
}

fn dims_to_layout(patterns: usize, rates: usize, states: usize) -> Layout {
    let layout = Layout::new(patterns, rates, states);
    assert_ne!(layout.kind(), KernelKind::Generic, "test must exercise a specialized path");
    layout
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// DNA update_partials over random side combinations and ranges.
    #[test]
    fn dna_update_partials_matches_reference(
        seed in 0u64..u64::MAX,
        patterns in 1usize..40,
        rates in 1usize..5,
    ) {
        let layout = dims_to_layout(patterns, rates, 4);
        let mut g = Gen::new(seed);
        let left = OwnedSide::generate(&mut g, &layout, false, false);
        let right = OwnedSide::generate(&mut g, &layout, false, false);
        let range = g.range(patterns);
        check_update(&layout, left.as_side(), right.as_side(), range);
    }

    /// Protein (states = 20) update_partials, multi-rate.
    #[test]
    fn protein_update_partials_matches_reference(
        seed in 0u64..u64::MAX,
        patterns in 1usize..24,
        rates in 1usize..5,
    ) {
        let layout = dims_to_layout(patterns, rates, 20);
        let mut g = Gen::new(seed);
        let left = OwnedSide::generate(&mut g, &layout, false, false);
        let right = OwnedSide::generate(&mut g, &layout, false, false);
        let range = g.range(patterns);
        check_update(&layout, left.as_side(), right.as_side(), range);
    }

    /// Scaling-heavy inputs: tiny CLVs on both sides force the rescale
    /// paths (one-shot cold rescale vs iterative loop) to agree — bit for
    /// bit for the fixed body, within the log-domain tolerance on simd,
    /// including multi-level rescales.
    #[test]
    fn scaling_heavy_update_matches_reference(
        seed in 0u64..u64::MAX,
        patterns in 1usize..32,
        rates in 1usize..4,
        protein in 0usize..2,
    ) {
        let states = if protein == 1 { 20 } else { 4 };
        let layout = dims_to_layout(patterns, rates, states);
        let mut g = Gen::new(seed);
        let left = OwnedSide::generate(&mut g, &layout, true, true);
        let right = OwnedSide::generate(&mut g, &layout, true, true);
        let range = g.range(patterns);
        check_update(&layout, left.as_side(), right.as_side(), range);
    }

    /// One-side propagation — the placement layer's inner loop (lookup
    /// build, prescore sweep, every attachment-position evaluation).
    /// Bit-exact on every tier: both sum each output state's products in
    /// ascending state order, and the simd tier only re-instantiates the
    /// fixed body under AVX2 code generation. The
    /// fixed body runs rate-outer over the whole range, so ranges that do
    /// not start at 0 and pattern counts well past one cache block are
    /// where an indexing slip would show; entries outside the range must
    /// stay untouched.
    #[test]
    fn propagate_matches_reference(
        seed in 0u64..u64::MAX,
        patterns in 1usize..=300,
        rates in 1usize..5,
        protein in 0usize..2,
    ) {
        let states = if protein == 1 { 20 } else { 4 };
        let base = dims_to_layout(patterns, rates, states);
        let mut g = Gen::new(seed);
        let side = OwnedSide::generate(&mut g, &base, false, false);
        // A random range, and one that is guaranteed not to start at 0.
        let start = 1 + g.rng.below(patterns as u64) as usize;
        let offset = start.min(patterns - 1)..patterns;
        for range in [g.range(patterns), offset] {
            let mut oracle = vec![-1.0; base.clv_len()];
            let mut oracle_scale = vec![u32::MAX; base.patterns];
            let mut scratch = KernelScratch::new();
            reference::propagate(
                &base,
                side.as_side(),
                &mut oracle,
                &mut oracle_scale,
                range.clone(),
                &mut scratch,
            );

            let mut body = vec![-1.0; base.clv_len()];
            let mut body_scale = vec![u32::MAX; base.patterns];
            fixed_body!(
                states,
                propagate(&base, side.as_side(), &mut body, &mut body_scale, range.clone())
            );
            let mut runs = vec![("fixed body".to_string(), body, body_scale)];
            for choice in ALL_TIERS {
                let layout = base.with_tier(choice);
                let mut fast = vec![-1.0; layout.clv_len()];
                let mut fast_scale = vec![u32::MAX; layout.patterns];
                kernels::propagate(
                    &layout,
                    side.as_side(),
                    &mut fast,
                    &mut fast_scale,
                    range.clone(),
                );
                runs.push((format!("tier {choice:?}"), fast, fast_scale));
            }
            for (name, fast, fast_scale) in runs {
                for (a, b) in fast.iter().zip(&oracle) {
                    prop_assert_eq!(a.to_bits(), b.to_bits(), "{}, range {:?}", name, range);
                }
                prop_assert_eq!(&fast_scale, &oracle_scale, "{}", name);
            }
        }
    }

    /// Edge log-likelihood totals: bit-exact on every tier (the simd tier
    /// runs the fixed body, in the oracle's accumulation order).
    #[test]
    fn edge_log_likelihood_matches_reference(
        seed in 0u64..u64::MAX,
        patterns in 1usize..40,
        rates in 1usize..5,
        protein in 0usize..2,
    ) {
        let states = if protein == 1 { 20 } else { 4 };
        let layout = dims_to_layout(patterns, rates, states);
        let mut g = Gen::new(seed);
        let u_tiny = g.rng.below(2) == 0;
        let u_clv = g.clv(&layout, u_tiny);
        let u_scale = g.scales(patterns);
        let v = OwnedSide::generate(&mut g, &layout, false, false);
        let mut freqs: Vec<f64> = (0..states).map(|_| g.val(0.0, 1.0)).collect();
        let fsum: f64 = freqs.iter().sum();
        freqs.iter_mut().for_each(|f| *f /= fsum);
        let rw: Vec<f64> = (0..rates).map(|_| 1.0 / rates as f64).collect();
        let pw: Vec<u32> = (0..patterns).map(|_| 1 + g.rng.below(4) as u32).collect();
        let range = g.range(patterns);

        check_edge_ll(&layout, &u_clv, &u_scale, v.as_side(), &freqs, &rw, &pw, range);
    }

    /// Three-way point log-likelihood. Bit-exact on every tier: the simd
    /// tier dispatches this entry point to the fixed body.
    #[test]
    fn point_log_likelihood_matches_reference(
        seed in 0u64..u64::MAX,
        patterns in 1usize..32,
        rates in 1usize..4,
        protein in 0usize..2,
    ) {
        let states = if protein == 1 { 20 } else { 4 };
        let base = dims_to_layout(patterns, rates, states);
        let mut g = Gen::new(seed);
        let owned: Vec<OwnedSide> = (0..3)
            .map(|_| OwnedSide::generate(&mut g, &base, false, false))
            .collect();
        let sides: Vec<Side<'_>> = owned.iter().map(|o| o.as_side()).collect();
        let mut freqs: Vec<f64> = (0..states).map(|_| g.val(0.0, 1.0)).collect();
        let fsum: f64 = freqs.iter().sum();
        freqs.iter_mut().for_each(|f| *f /= fsum);
        let rw: Vec<f64> = (0..rates).map(|_| 1.0 / rates as f64).collect();
        let pw: Vec<u32> = (0..patterns).map(|_| 1 + g.rng.below(4) as u32).collect();
        let range = g.range(patterns);

        let mut scratch = KernelScratch::new();
        let oracle = reference::point_log_likelihood(
            &base, &sides, &freqs, &rw, &pw, range.clone(), &mut scratch,
        );
        let body = fixed_body!(
            states,
            point_log_likelihood(&base, &sides, &freqs, &rw, &pw, range.clone())
        );
        prop_assert_eq!(body.to_bits(), oracle.to_bits(), "fixed body: {} vs {}", body, oracle);
        for choice in ALL_TIERS {
            let layout = base.with_tier(choice);
            let fast = likelihood::point_log_likelihood(
                &layout, &sides, &freqs, &rw, &pw, range.clone(),
            );
            prop_assert_eq!(fast.to_bits(), oracle.to_bits(), "{:?}: {} vs {}", choice, fast, oracle);
        }
    }
}

/// A deterministic worst case: every pattern underflows several scaling
/// levels at once, on both the DNA and the protein path, on every tier.
#[test]
fn deep_rescale_bit_exact() {
    for states in [4usize, 20] {
        let base = Layout::new(8, 3, states);
        let mut g = Gen::new(0xDEADBEEF);
        let pm_l = g.pmatrix(&base);
        let pm_r = g.pmatrix(&base);
        let stride = base.pattern_stride();
        let mut clv_l = vec![0.0; base.clv_len()];
        let mut clv_r = vec![0.0; base.clv_len()];
        for p in 0..base.patterns {
            // Left ~ 2^-300·u, right ~ 2^-280·u: the product sits around
            // 2^-580, needing two+ rescale levels.
            for v in &mut clv_l[p * stride..(p + 1) * stride] {
                *v = g.val(0.0, 1.0) * 2.0f64.powi(-300);
            }
            for v in &mut clv_r[p * stride..(p + 1) * stride] {
                *v = g.val(0.0, 1.0) * 2.0f64.powi(-280);
            }
        }
        let ls = g.scales(base.patterns);
        let rs = g.scales(base.patterns);
        let left = Side::Clv { clv: &clv_l, scale: Some(&ls), pmatrix: &pm_l };
        let right = Side::Clv { clv: &clv_r, scale: Some(&rs), pmatrix: &pm_r };
        // Every tier must actually deep-rescale ≥ 2 levels beyond the
        // inherited counts, or the test is vacuous for that tier.
        for choice in ALL_TIERS {
            let layout = base.with_tier(choice);
            let (_, scale) = run_update(&layout, left, right, 0..8);
            for p in 0..8 {
                assert!(
                    scale[p] >= ls[p] + rs[p] + 2,
                    "tier {choice:?}: pattern {p} did not deep-rescale"
                );
            }
        }
        check_update(&base, left, right, 0..8);
    }
}
