//! The fast tier's kernels for the compile-time state counts `S = 4`
//! (DNA) and `S = 20` (protein).
//!
//! The backend is picked **once per process** ([`backend`]):
//!
//! * **AVX2** — requires both `avx2` and `fma` at runtime
//!   (`is_x86_feature_detected!`). `update_partials`, the one kernel a
//!   workload is bound by, has explicit intrinsics: the `S×S`
//!   matrix–vector propagation runs four output states per step with
//!   FMA-accumulated dot products, and the fused multiply + running-maximum
//!   pass is vectorized four lanes wide. FMA contracts `a*b+c` and the dot
//!   products reduce in tree order, so its results are **not**
//!   bit-identical to the [`crate::reference`] oracle — the differential
//!   suite checks it under the log-domain tolerance contract documented
//!   in `DESIGN.md` §5c (per-element effective log within `1e-10`; scaler
//!   counts may legitimately differ when the compared implementations
//!   land on opposite sides of the rescale threshold, which the log-domain
//!   comparison absorbs because `SCALE_FACTOR` is an exact power of 2).
//! * **Portable** — any other host, or `PHYLO_SIMD_PORTABLE=1` (the
//!   forced-fallback switch `scripts/ci.sh` tests). Runs the
//!   order-preserving [`crate::fixed`] kernels, bit-for-bit identical to
//!   the oracle.
//!
//! Every other entry point is bit-exact on either backend. [`propagate`]
//! — the placement layer's inner loop — must stay **order-preserving**
//! (lookup-table prescores and thorough scores are compared and printed
//! side by side), so the AVX2 backend runs the very body of
//! [`crate::fixed::propagate`], instantiated a second time behind a
//! `#[target_feature(enable = "avx2")]` shim: the column-streaming axpy
//! widens to four lanes, while without intrinsics and without the `fma`
//! feature nothing contracts or reassociates. `edge_log_likelihood` and
//! `point_log_likelihood` run the `fixed` implementations (see
//! [`crate::likelihood`]).

use crate::fixed;
use crate::kernels::Side;
use crate::layout::{KernelKind, KernelTier, Layout};
use crate::scaling::SCALE_THRESHOLD;

/// Which implementation the SIMD tier runs on this process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimdBackend {
    /// AVX2 + FMA intrinsics (tolerance contract vs the oracle).
    Avx2,
    /// Delegation to [`crate::fixed`] (bit-identical to the oracle).
    Portable,
}

/// True when `PHYLO_SIMD_PORTABLE=1` forces the portable fallback
/// (read once per process).
fn portable_forced() -> bool {
    static FORCED: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *FORCED.get_or_init(|| {
        std::env::var("PHYLO_SIMD_PORTABLE").map(|v| v == "1" || v == "true").unwrap_or(false)
    })
}

#[cfg(target_arch = "x86_64")]
fn host_has_avx2_fma() -> bool {
    std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
}

#[cfg(not(target_arch = "x86_64"))]
fn host_has_avx2_fma() -> bool {
    false
}

/// The backend the SIMD tier uses, decided once per process.
pub fn backend() -> SimdBackend {
    static BACKEND: std::sync::OnceLock<SimdBackend> = std::sync::OnceLock::new();
    *BACKEND.get_or_init(|| {
        if !portable_forced() && host_has_avx2_fma() {
            SimdBackend::Avx2
        } else {
            SimdBackend::Portable
        }
    })
}

/// Whether kernels dispatched for `layout` run the AVX2 backend: a DNA or
/// protein layout on the SIMD tier, in a process that selected AVX2. The
/// one place that question is answered — the dispatchers here and the
/// placement layer's `target_feature` re-instantiations all ask it.
pub fn runs_avx2(layout: &Layout) -> bool {
    layout.tier() == KernelTier::Simd
        && layout.kind() != KernelKind::Generic
        && backend() == SimdBackend::Avx2
}

/// Fused parent-CLV computation, SIMD tier. Same contract as
/// [`crate::fixed::update_partials`].
pub fn update_partials<const S: usize>(
    layout: &Layout,
    left: Side<'_>,
    right: Side<'_>,
    out: &mut [f64],
    out_scale: &mut [u32],
    range: std::ops::Range<usize>,
) {
    #[cfg(target_arch = "x86_64")]
    if runs_avx2(layout) {
        // SAFETY: `runs_avx2` holds only if backend() verified avx2+fma
        // at runtime.
        unsafe { avx2::update_partials::<S>(layout, left, right, out, out_scale, range) };
        return;
    }
    fixed::update_partials::<S>(layout, left, right, out, out_scale, range)
}

/// One-side propagation, SIMD tier: [`crate::fixed::propagate`]'s body
/// under the backend's code generation. Bit-identical to it on either
/// backend.
pub fn propagate<const S: usize>(
    layout: &Layout,
    side: Side<'_>,
    out: &mut [f64],
    out_scale: &mut [u32],
    range: std::ops::Range<usize>,
) {
    #[cfg(target_arch = "x86_64")]
    if runs_avx2(layout) {
        // SAFETY: `runs_avx2` holds only if backend() verified avx2 at
        // runtime.
        unsafe { avx2::propagate::<S>(layout, side, out, out_scale, range) };
        return;
    }
    fixed::propagate::<S>(layout, side, out, out_scale, range)
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::*;
    use core::arch::x86_64::*;

    /// Patterns per cache block (matches [`crate::fixed`]).
    const PATTERN_BLOCK: usize = 16;

    /// `out[i..i+4] = Σ_j pm[(i..i+4)·S + j] · child[j]` for all `i`,
    /// four FMA-accumulated dot products at a time, combined with the
    /// hadd/permute butterfly. Requires `S % 4 == 0` (holds for 4, 20).
    ///
    /// SAFETY: caller guarantees avx2+fma, `pm` points at `S·S` f64s and
    /// `child`/`out` at `S` f64s.
    #[inline(always)]
    unsafe fn matvec<const S: usize>(pm: *const f64, child: *const f64, out: *mut f64) {
        debug_assert_eq!(S % 4, 0);
        let mut i = 0;
        while i < S {
            let mut a0 = _mm256_setzero_pd();
            let mut a1 = _mm256_setzero_pd();
            let mut a2 = _mm256_setzero_pd();
            let mut a3 = _mm256_setzero_pd();
            let mut j = 0;
            while j < S {
                let c = _mm256_loadu_pd(child.add(j));
                a0 = _mm256_fmadd_pd(_mm256_loadu_pd(pm.add(i * S + j)), c, a0);
                a1 = _mm256_fmadd_pd(_mm256_loadu_pd(pm.add((i + 1) * S + j)), c, a1);
                a2 = _mm256_fmadd_pd(_mm256_loadu_pd(pm.add((i + 2) * S + j)), c, a2);
                a3 = _mm256_fmadd_pd(_mm256_loadu_pd(pm.add((i + 3) * S + j)), c, a3);
                j += 4;
            }
            // hadd pairs lanes within 128-bit halves; the permute swaps
            // halves so the final add yields [Σa0, Σa1, Σa2, Σa3].
            let h01 = _mm256_hadd_pd(a0, a1);
            let h23 = _mm256_hadd_pd(a2, a3);
            let lo = _mm256_permute2f128_pd(h01, h23, 0x20);
            let hi = _mm256_permute2f128_pd(h01, h23, 0x31);
            _mm256_storeu_pd(out.add(i), _mm256_add_pd(lo, hi));
            i += 4;
        }
    }

    /// One side's propagated likelihoods for a `(pattern, rate)` pair.
    /// Mirrors `fixed::SideProp`, with the CLV side vectorized.
    trait SidePropV<const S: usize>: Copy {
        /// SAFETY: caller guarantees avx2+fma are available.
        unsafe fn prop(&self, pattern: usize, rate: usize, out: &mut [f64; S]);
    }

    #[derive(Clone, Copy)]
    struct TipPropV<'a> {
        table: &'a crate::tips::TipTable,
        codes: &'a [u8],
    }

    impl<const S: usize> SidePropV<S> for TipPropV<'_> {
        #[inline(always)]
        unsafe fn prop(&self, pattern: usize, rate: usize, out: &mut [f64; S]) {
            out.copy_from_slice(self.table.code_rate(self.codes[pattern], rate));
        }
    }

    #[derive(Clone, Copy)]
    struct ClvPropV<'a> {
        clv: &'a [f64],
        pmatrix: &'a [f64],
        stride: usize,
    }

    impl<const S: usize> SidePropV<S> for ClvPropV<'_> {
        #[inline(always)]
        unsafe fn prop(&self, pattern: usize, rate: usize, out: &mut [f64; S]) {
            let base = pattern * self.stride + rate * S;
            debug_assert!(base + S <= self.clv.len());
            debug_assert!((rate + 1) * S * S <= self.pmatrix.len());
            matvec::<S>(
                self.pmatrix.as_ptr().add(rate * S * S),
                self.clv.as_ptr().add(base),
                out.as_mut_ptr(),
            );
        }
    }

    #[inline(always)]
    fn side_scale<'a>(side: &Side<'a>) -> Option<&'a [u32]> {
        match side {
            Side::Clv { scale, .. } => *scale,
            Side::Tip { .. } => None,
        }
    }

    /// Horizontal maximum of a 4-lane vector.
    ///
    /// SAFETY: caller guarantees avx2.
    #[inline(always)]
    unsafe fn hmax(v: __m256d) -> f64 {
        let hi = _mm256_extractf128_pd(v, 1);
        let lo = _mm256_castpd256_pd128(v);
        let m = _mm_max_pd(lo, hi);
        let s = _mm_max_sd(m, _mm_unpackhi_pd(m, m));
        _mm_cvtsd_f64(s)
    }

    /// AVX2 fused parent-CLV computation. Structure mirrors
    /// `fixed::update_partials` (four monomorphized side combinations,
    /// rate-outer blocks of 16 patterns, block-level scaling check).
    ///
    /// SAFETY: caller guarantees avx2+fma are available.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn update_partials<const S: usize>(
        layout: &Layout,
        left: Side<'_>,
        right: Side<'_>,
        out: &mut [f64],
        out_scale: &mut [u32],
        range: std::ops::Range<usize>,
    ) {
        debug_assert_eq!(layout.states, S);
        debug_assert_eq!(out.len(), layout.clv_len());
        debug_assert_eq!(out_scale.len(), layout.patterns);
        debug_assert!(range.end <= layout.patterns);
        let rates = layout.rates;
        let stride = layout.pattern_stride();
        let (lscale, rscale) = (side_scale(&left), side_scale(&right));
        match (left, right) {
            (Side::Tip { table: lt, codes: lc }, Side::Tip { table: rt, codes: rc }) => {
                update_fused::<S, _, _>(
                    rates,
                    stride,
                    TipPropV { table: lt, codes: lc },
                    TipPropV { table: rt, codes: rc },
                    lscale,
                    rscale,
                    out,
                    out_scale,
                    range,
                )
            }
            (Side::Tip { table: lt, codes: lc }, Side::Clv { clv, pmatrix, .. }) => {
                update_fused::<S, _, _>(
                    rates,
                    stride,
                    TipPropV { table: lt, codes: lc },
                    ClvPropV { clv, pmatrix, stride },
                    lscale,
                    rscale,
                    out,
                    out_scale,
                    range,
                )
            }
            (Side::Clv { clv, pmatrix, .. }, Side::Tip { table: rt, codes: rc }) => {
                update_fused::<S, _, _>(
                    rates,
                    stride,
                    ClvPropV { clv, pmatrix, stride },
                    TipPropV { table: rt, codes: rc },
                    lscale,
                    rscale,
                    out,
                    out_scale,
                    range,
                )
            }
            (
                Side::Clv { clv: lclv, pmatrix: lpm, .. },
                Side::Clv { clv: rclv, pmatrix: rpm, .. },
            ) => update_fused::<S, _, _>(
                rates,
                stride,
                ClvPropV { clv: lclv, pmatrix: lpm, stride },
                ClvPropV { clv: rclv, pmatrix: rpm, stride },
                lscale,
                rscale,
                out,
                out_scale,
                range,
            ),
        }
    }

    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn update_fused<const S: usize, L: SidePropV<S>, R: SidePropV<S>>(
        rates: usize,
        stride: usize,
        left: L,
        right: R,
        lscale: Option<&[u32]>,
        rscale: Option<&[u32]>,
        out: &mut [f64],
        out_scale: &mut [u32],
        range: std::ops::Range<usize>,
    ) {
        let mut p = range.start;
        while p < range.end {
            let block_end = (p + PATTERN_BLOCK).min(range.end);
            let mut maxs = [0.0f64; PATTERN_BLOCK];
            for r in 0..rates {
                for (k, pp) in (p..block_end).enumerate() {
                    let mut lv = [0.0f64; S];
                    let mut rv = [0.0f64; S];
                    left.prop(pp, r, &mut lv);
                    right.prop(pp, r, &mut rv);
                    let dst = out.as_mut_ptr().add(pp * stride + r * S);
                    let mut mv = _mm256_setzero_pd();
                    let mut i = 0;
                    while i < S {
                        let v = _mm256_mul_pd(
                            _mm256_loadu_pd(lv.as_ptr().add(i)),
                            _mm256_loadu_pd(rv.as_ptr().add(i)),
                        );
                        _mm256_storeu_pd(dst.add(i), v);
                        mv = _mm256_max_pd(mv, v);
                        i += 4;
                    }
                    maxs[k] = maxs[k].max(hmax(mv));
                }
            }
            for (k, pp) in (p..block_end).enumerate() {
                let mut scale = lscale.map_or(0, |s| s[pp]) + rscale.map_or(0, |s| s[pp]);
                let max = maxs[k];
                if max > 0.0 && max < SCALE_THRESHOLD {
                    scale += crate::fixed::rescale_pattern(
                        &mut out[pp * stride..(pp + 1) * stride],
                        max,
                    );
                }
                out_scale[pp] = scale;
            }
            p = block_end;
        }
    }

    /// [`crate::fixed::propagate`] compiled for AVX2: the shim only changes
    /// which instructions the (inlined) portable body is lowered to. `fma`
    /// is deliberately not enabled here.
    ///
    /// SAFETY: caller guarantees avx2 is available.
    #[target_feature(enable = "avx2")]
    pub unsafe fn propagate<const S: usize>(
        layout: &Layout,
        side: Side<'_>,
        out: &mut [f64],
        out_scale: &mut [u32],
        range: std::ops::Range<usize>,
    ) {
        fixed::propagate::<S>(layout, side, out, out_scale, range)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_is_stable_and_consistent() {
        let b = backend();
        assert_eq!(b, backend(), "backend must be decided once");
        // Only a DNA or protein layout on the SIMD tier runs what the
        // backend selected.
        let simd = Layout::new(8, 2, 20).with_tier(crate::TierChoice::Simd);
        assert_eq!(runs_avx2(&simd), b == SimdBackend::Avx2);
        assert!(!runs_avx2(&simd.with_tier(crate::TierChoice::Reference)));
        assert!(!runs_avx2(&Layout::new(8, 2, 2).with_tier(crate::TierChoice::Simd)));
    }

    #[test]
    fn forced_portable_switch_turns_the_avx2_backend_off() {
        if portable_forced() {
            assert_eq!(backend(), SimdBackend::Portable);
        }
    }

    /// `propagate` is the one SIMD-tier entry point with a bit-exactness
    /// contract: whichever backend this process selected, and the AVX2
    /// shim itself wherever the host can run it (also under
    /// `PHYLO_SIMD_PORTABLE=1`, which only changes what `backend()`
    /// picks), must reproduce the portable body and the reference kernel
    /// to the bit.
    #[test]
    fn propagate_bits_do_not_depend_on_the_backend() {
        fn run<const S: usize>() {
            let (patterns, rates) = (37usize, 4usize);
            let layout = Layout::new(patterns, rates, S).with_tier(crate::TierChoice::Simd);
            // No power-of-two structure: a reassociated or contracted sum
            // shows in the last bit.
            let pm: Vec<f64> = (0..layout.pmatrix_len())
                .map(|i| ((i * 7919 + 13) % 1009) as f64 / 1009.0 / S as f64 + 1e-3)
                .collect();
            let clv: Vec<f64> = (0..layout.clv_len())
                .map(|i| ((i * 104_729 + 7) % 997) as f64 / 997.0 * 10f64.powi(-((i % 5) as i32)))
                .collect();
            let scale: Vec<u32> = (0..patterns).map(|p| (p % 3) as u32).collect();
            let side = Side::Clv { clv: &clv, scale: Some(&scale), pmatrix: &pm };
            let range = 5..31;

            // The oracle: a row dot product per output state.
            let mut want = vec![-1.0; layout.clv_len()];
            let mut want_scale = vec![99u32; patterns];
            crate::reference::propagate(
                &layout,
                side,
                &mut want,
                &mut want_scale,
                range.clone(),
                &mut crate::KernelScratch::new(),
            );
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            type Propagate = fn(&Layout, Side<'_>, &mut [f64], &mut [u32], std::ops::Range<usize>);
            let mut impls: Vec<(&str, Propagate)> = vec![
                ("portable body", fixed::propagate::<S>),
                ("selected backend", propagate::<S>),
            ];
            #[cfg(target_arch = "x86_64")]
            if host_has_avx2_fma() {
                impls.push(("avx2 shim", |l, s, o, os, r| {
                    // SAFETY: avx2 was detected on this host just above.
                    unsafe { avx2::propagate::<S>(l, s, o, os, r) }
                }));
            }
            for (name, f) in impls {
                let mut out = vec![-1.0; layout.clv_len()];
                let mut out_scale = vec![99u32; patterns];
                f(&layout, side, &mut out, &mut out_scale, range.clone());
                assert_eq!(bits(&out), bits(&want), "{name}, S = {S}");
                assert_eq!(out_scale, want_scale, "{name}, S = {S}");
            }
        }
        run::<4>();
        run::<20>();
    }

    /// `update_partials` must run (and produce finite values) on whatever
    /// backend this host selects — the cross-tier numerical comparison
    /// lives in `tests/differential.rs`.
    #[test]
    fn update_partials_runs_on_selected_backend() {
        for states in [4usize, 20] {
            let layout = Layout::new(17, 3, states).with_tier(crate::TierChoice::Simd);
            let mut pm = vec![0.0; layout.pmatrix_len()];
            for r in 0..layout.rates {
                for i in 0..states {
                    for j in 0..states {
                        pm[r * states * states + i * states + j] =
                            if i == j { 0.7 } else { 0.3 / (states as f64 - 1.0) };
                    }
                }
            }
            let clv: Vec<f64> =
                (0..layout.clv_len()).map(|i| 0.05 + (i % 11) as f64 * 0.07).collect();
            let mut out = vec![0.0; layout.clv_len()];
            let mut scale = vec![0u32; layout.patterns];
            let side = Side::Clv { clv: &clv, scale: None, pmatrix: &pm };
            match states {
                4 => update_partials::<4>(&layout, side, side, &mut out, &mut scale, 0..17),
                _ => update_partials::<20>(&layout, side, side, &mut out, &mut scale, 0..17),
            }
            assert!(out.iter().all(|v| v.is_finite() && *v > 0.0));
        }
    }
}
