//! Specialized likelihood kernels for compile-time state counts.
//!
//! Monomorphized over `const S: usize` (instantiated for DNA `S = 4` and
//! protein `S = 20` by the dispatchers in [`crate::kernels`] /
//! [`crate::likelihood`]), these kernels keep every working value in
//! fixed-size stack arrays: the inner state loops have compile-time trip
//! counts, so the autovectorizer unrolls them into SIMD and no heap
//! scratch is ever needed.
//!
//! Differences from the [`crate::reference`] kernels — all arithmetic
//! order-preserving, so results stay bit-for-bit identical:
//!
//! * **Fusion.** `update_partials` propagates both sides and multiplies
//!   them in one pass per `(pattern, rate)` through `[f64; S]` stack
//!   arrays instead of filling `states`-long heap buffers side by side.
//! * **Pattern blocking.** Patterns are processed in blocks of
//!   [`PATTERN_BLOCK`], with the rate loop outside the in-block pattern
//!   loop. Each per-rate transition matrix (3.2 KiB for protein × one
//!   rate) is therefore reused across the whole block while hot in L1 —
//!   the cache-blocked pmatrix access that matters for `S = 20`, where
//!   the matrices no longer fit alongside the CLV stream.
//! * **Block-level scaling check.** Per-pattern maxima are accumulated
//!   during the fused write, and the underflow check runs once per block
//!   after it, outside the rate loop. The rescale itself is a `#[cold]`
//!   one-shot: the scaler count is derived from the maximum first, then
//!   applied per element — the same multiplication sequence the
//!   reference's iterative whole-stride loop performs, without rescanning
//!   the pattern per scaling level.

use crate::kernels::Side;
use crate::layout::Layout;
use crate::scaling::{LN_SCALE, SCALE_FACTOR, SCALE_THRESHOLD};
use crate::tips::TipTable;

/// Patterns per cache block of the fused update loop.
const PATTERN_BLOCK: usize = 16;

/// One side's propagated likelihood values for a `(pattern, rate)` pair,
/// written into a fixed-size stack array.
trait SideProp<const S: usize>: Copy {
    fn prop(&self, pattern: usize, rate: usize, out: &mut [f64; S]);
}

/// Tip side: a `S`-wide row copy out of the edge's tip rows.
#[derive(Clone, Copy)]
struct TipProp<'a> {
    table: &'a TipTable,
    codes: &'a [u8],
}

impl<const S: usize> SideProp<S> for TipProp<'_> {
    #[inline(always)]
    fn prop(&self, pattern: usize, rate: usize, out: &mut [f64; S]) {
        out.copy_from_slice(self.table.code_rate(self.codes[pattern], rate));
    }
}

/// Inner-CLV side: an `S × S` matrix–vector product against the child CLV.
#[derive(Clone, Copy)]
struct ClvProp<'a> {
    clv: &'a [f64],
    pmatrix: &'a [f64],
    stride: usize,
}

impl<const S: usize> SideProp<S> for ClvProp<'_> {
    #[inline(always)]
    fn prop(&self, pattern: usize, rate: usize, out: &mut [f64; S]) {
        let base = pattern * self.stride + rate * S;
        let child: &[f64; S] = self.clv[base..base + S].try_into().unwrap();
        let pm = &self.pmatrix[rate * S * S..(rate + 1) * S * S];
        for (i, o) in out.iter_mut().enumerate() {
            let row: &[f64; S] = pm[i * S..(i + 1) * S].try_into().unwrap();
            let mut sum = 0.0;
            for j in 0..S {
                sum += row[j] * child[j];
            }
            *o = sum;
        }
    }
}

/// The per-pattern scaler counts a side contributes (`None` for tips and
/// unscaled CLVs).
#[inline(always)]
fn side_scale<'a>(side: &Side<'a>) -> Option<&'a [u32]> {
    match side {
        Side::Clv { scale, .. } => *scale,
        Side::Tip { .. } => None,
    }
}

/// One-shot rescale of a fully written pattern whose maximum underflowed
/// [`SCALE_THRESHOLD`]. Derives the scaling count from the maximum exactly
/// as the reference's iterative loop does (power-of-two multiplies are
/// exact), then applies that many [`SCALE_FACTOR`] multiplications per
/// element — the same per-element operation sequence, one pass.
#[cold]
#[inline(never)]
pub(crate) fn rescale_pattern(dst: &mut [f64], mut max: f64) -> u32 {
    let mut count = 0u32;
    while max > 0.0 && max < SCALE_THRESHOLD {
        max *= SCALE_FACTOR;
        count += 1;
    }
    for v in dst.iter_mut() {
        for _ in 0..count {
            *v *= SCALE_FACTOR;
        }
    }
    count
}

/// Fused, blocked parent-CLV computation for compile-time `S`.
pub fn update_partials<const S: usize>(
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
    // Monomorphize the four side combinations (libpll's tip-tip /
    // tip-inner / inner-inner split) so the pattern loop carries no
    // per-pattern dispatch.
    match (left, right) {
        (Side::Tip { table: lt, codes: lc }, Side::Tip { table: rt, codes: rc }) => {
            update_fused::<S, _, _>(
                rates,
                stride,
                TipProp { table: lt, codes: lc },
                TipProp { table: rt, codes: rc },
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
                TipProp { table: lt, codes: lc },
                ClvProp { clv, pmatrix, stride },
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
                ClvProp { clv, pmatrix, stride },
                TipProp { table: rt, codes: rc },
                lscale,
                rscale,
                out,
                out_scale,
                range,
            )
        }
        (Side::Clv { clv: lclv, pmatrix: lpm, .. }, Side::Clv { clv: rclv, pmatrix: rpm, .. }) => {
            update_fused::<S, _, _>(
                rates,
                stride,
                ClvProp { clv: lclv, pmatrix: lpm, stride },
                ClvProp { clv: rclv, pmatrix: rpm, stride },
                lscale,
                rscale,
                out,
                out_scale,
                range,
            )
        }
    }
}

#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn update_fused<const S: usize, L: SideProp<S>, R: SideProp<S>>(
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
        // Rate-outer over the block keeps each per-rate transition matrix
        // hot across PATTERN_BLOCK patterns. The per-pattern maximum is
        // order-independent (max commutes), so this reordering preserves
        // bit-identical results and scaler counts.
        for r in 0..rates {
            for (k, pp) in (p..block_end).enumerate() {
                let mut lv = [0.0f64; S];
                let mut rv = [0.0f64; S];
                left.prop(pp, r, &mut lv);
                right.prop(pp, r, &mut rv);
                let dst: &mut [f64; S] =
                    (&mut out[pp * stride + r * S..pp * stride + (r + 1) * S]).try_into().unwrap();
                let mut max = maxs[k];
                for i in 0..S {
                    let v = lv[i] * rv[i];
                    dst[i] = v;
                    max = max.max(v);
                }
                maxs[k] = max;
            }
        }
        // Block-level scaling check: one rarely-taken branch per pattern,
        // after all rates are written; the rescale itself is cold.
        for (k, pp) in (p..block_end).enumerate() {
            let mut scale = lscale.map_or(0, |s| s[pp]) + rscale.map_or(0, |s| s[pp]);
            let max = maxs[k];
            if max > 0.0 && max < SCALE_THRESHOLD {
                scale += rescale_pattern(&mut out[pp * stride..(pp + 1) * stride], max);
            }
            out_scale[pp] = scale;
        }
        p = block_end;
    }
}

/// One-side propagation for compile-time `S`: the two half-branch products
/// behind every attachment partial, so the placement layer's inner loop
/// (lookup build, prescore sweep, each attachment-position evaluation of
/// thorough scoring). Tip sides degenerate to straight row copies.
///
/// The CLV side streams **columns** of `P`: per rate, `P` is transposed
/// onto the stack once and every pattern of the range accumulates
/// `acc[i] += Pᵀ[j][i]·child[j]` over ascending `j`. Each output state
/// thereby sums exactly the products `ClvProp::prop`'s row dot product
/// sums, in the same order — the same bits — but the inner loop is a
/// contiguous `S`-wide axpy with `S` independent accumulators instead of
/// `S` serial reductions.
///
/// `#[inline(always)]` so that [`crate::simd`] can instantiate this body a
/// second time under AVX2 code generation (wider lanes, same operations,
/// no contraction: still the same bits).
#[inline(always)]
pub fn propagate<const S: usize>(
    layout: &Layout,
    side: Side<'_>,
    out: &mut [f64],
    out_scale: &mut [u32],
    range: std::ops::Range<usize>,
) {
    debug_assert_eq!(layout.states, S);
    debug_assert_eq!(out.len(), layout.clv_len());
    debug_assert_eq!(out_scale.len(), layout.patterns);
    let rates = layout.rates;
    let stride = layout.pattern_stride();
    let scale = side_scale(&side);
    match side {
        Side::Tip { table, codes } => {
            for p in range {
                for r in 0..rates {
                    out[p * stride + r * S..p * stride + (r + 1) * S]
                        .copy_from_slice(table.code_rate(codes[p], r));
                }
                out_scale[p] = 0;
            }
        }
        Side::Clv { clv, pmatrix, .. } => {
            // Rate-outer over the whole range: one transpose per rate.
            for r in 0..rates {
                let mut pt = [[0.0f64; S]; S];
                for (i, row) in pmatrix[r * S * S..(r + 1) * S * S].chunks_exact(S).enumerate() {
                    for (j, &pij) in row.iter().enumerate() {
                        pt[j][i] = pij;
                    }
                }
                for p in range.clone() {
                    let base = p * stride + r * S;
                    let child: &[f64; S] = clv[base..base + S].try_into().unwrap();
                    let mut acc = [0.0f64; S];
                    for (col, &c) in pt.iter().zip(child) {
                        for i in 0..S {
                            acc[i] += col[i] * c;
                        }
                    }
                    out[base..base + S].copy_from_slice(&acc);
                }
            }
            for p in range {
                out_scale[p] = scale.map_or(0, |s| s[p]);
            }
        }
    }
}

/// Edge log-likelihood for compile-time `S`.
#[allow(clippy::too_many_arguments)]
pub fn edge_log_likelihood<const S: usize>(
    layout: &Layout,
    u_clv: &[f64],
    u_scale: Option<&[u32]>,
    v: Side<'_>,
    freqs: &[f64],
    rate_weights: &[f64],
    pattern_weights: &[u32],
    range: std::ops::Range<usize>,
) -> f64 {
    debug_assert_eq!(layout.states, S);
    debug_assert_eq!(u_clv.len(), layout.clv_len());
    debug_assert_eq!(freqs.len(), S);
    debug_assert_eq!(rate_weights.len(), layout.rates);
    debug_assert_eq!(pattern_weights.len(), layout.patterns);
    let stride = layout.pattern_stride();
    let vscale = side_scale(&v);
    let freqs: &[f64; S] = freqs.try_into().unwrap();
    match v {
        Side::Tip { table, codes } => edge_fused::<S, _>(
            layout.rates,
            stride,
            u_clv,
            u_scale,
            TipProp { table, codes },
            vscale,
            freqs,
            rate_weights,
            pattern_weights,
            range,
        ),
        Side::Clv { clv, pmatrix, .. } => edge_fused::<S, _>(
            layout.rates,
            stride,
            u_clv,
            u_scale,
            ClvProp { clv, pmatrix, stride },
            vscale,
            freqs,
            rate_weights,
            pattern_weights,
            range,
        ),
    }
}

#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn edge_fused<const S: usize, V: SideProp<S>>(
    rates: usize,
    stride: usize,
    u_clv: &[f64],
    u_scale: Option<&[u32]>,
    v: V,
    vscale: Option<&[u32]>,
    freqs: &[f64; S],
    rate_weights: &[f64],
    pattern_weights: &[u32],
    range: std::ops::Range<usize>,
) -> f64 {
    let mut total = 0.0f64;
    for p in range {
        let mut site = 0.0f64;
        for r in 0..rates {
            let mut buf = [0.0f64; S];
            v.prop(p, r, &mut buf);
            let u: &[f64; S] =
                u_clv[p * stride + r * S..p * stride + (r + 1) * S].try_into().unwrap();
            let mut cat = 0.0;
            for i in 0..S {
                cat += freqs[i] * u[i] * buf[i];
            }
            site += rate_weights[r] * cat;
        }
        let scale = u_scale.map_or(0, |s| s[p]) + vscale.map_or(0, |s| s[p]);
        total += pattern_weights[p] as f64 * (site.ln() - scale as f64 * LN_SCALE);
    }
    total
}

/// Multi-side point log-likelihood for compile-time `S`. The side list is
/// dynamic (three sides in placement), so each side resolves through one
/// match per `(pattern, rate, side)` — still allocation-free, with the
/// state loops fixed-size.
pub fn point_log_likelihood<const S: usize>(
    layout: &Layout,
    sides: &[Side<'_>],
    freqs: &[f64],
    rate_weights: &[f64],
    pattern_weights: &[u32],
    range: std::ops::Range<usize>,
) -> f64 {
    debug_assert!(!sides.is_empty());
    debug_assert_eq!(layout.states, S);
    let stride = layout.pattern_stride();
    let freqs: &[f64; S] = freqs.try_into().unwrap();
    let mut total = 0.0f64;
    for p in range {
        let mut site = 0.0f64;
        for r in 0..layout.rates {
            let mut acc = [0.0f64; S];
            prop_side::<S>(&sides[0], stride, p, r, &mut acc);
            let mut buf = [0.0f64; S];
            for side in &sides[1..] {
                prop_side::<S>(side, stride, p, r, &mut buf);
                for i in 0..S {
                    acc[i] *= buf[i];
                }
            }
            let mut cat = 0.0;
            for i in 0..S {
                cat += freqs[i] * acc[i];
            }
            site += rate_weights[r] * cat;
        }
        let scale: u32 = sides.iter().map(|s| s.scale_at(p)).sum();
        total += pattern_weights[p] as f64 * (site.ln() - scale as f64 * LN_SCALE);
    }
    total
}

#[inline(always)]
fn prop_side<const S: usize>(
    side: &Side<'_>,
    stride: usize,
    p: usize,
    r: usize,
    out: &mut [f64; S],
) {
    match *side {
        Side::Tip { table, codes } => SideProp::<S>::prop(&TipProp { table, codes }, p, r, out),
        Side::Clv { clv, pmatrix, .. } => {
            SideProp::<S>::prop(&ClvProp { clv, pmatrix, stride }, p, r, out)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rescale_matches_iterative_semantics() {
        // One level: values in (2^-512, 2^-256) need exactly one factor.
        let mut one = vec![SCALE_THRESHOLD * 0.5, SCALE_THRESHOLD * 0.25];
        assert_eq!(rescale_pattern(&mut one, SCALE_THRESHOLD * 0.5), 1);
        assert!(one.iter().all(|&v| v >= SCALE_THRESHOLD));
        // Multiple levels: a 2^-513 maximum needs two factors.
        let tiny = SCALE_THRESHOLD * SCALE_THRESHOLD * 0.5;
        let mut two = vec![tiny, tiny * 0.5];
        assert_eq!(rescale_pattern(&mut two, tiny), 2);
        assert!(two.iter().all(|&v| v > 0.0 && v.is_finite()));
        // All-zero patterns are untouched.
        let mut zero = vec![0.0; 4];
        assert_eq!(rescale_pattern(&mut zero, 0.0), 0);
        assert_eq!(zero, vec![0.0; 4]);
    }
}
