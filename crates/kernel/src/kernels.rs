//! CLV update kernels (the Felsenstein pruning step).
//!
//! The public functions here are thin **dispatchers**: each branches once
//! per call on [`Layout::kind`] and [`Layout::tier`] (both selected at
//! layout construction) to one of the implementations —
//!
//! * [`crate::simd`] for DNA (`states == 4`) and protein
//!   (`states == 20`) under the SIMD tier: AVX2/FMA intrinsics for
//!   `update_partials`, and `propagate` as [`crate::fixed`]'s
//!   order-preserving body under AVX2 code generation (bit-exact on every
//!   tier); on the portable backend both are the `fixed` kernels — fused,
//!   pattern-blocked, compile-time state counts, no heap scratch;
//! * [`crate::reference`] for every other state count — and for any
//!   layout whose tier is [`KernelTier::Reference`]: the generic scalar
//!   kernels, which double as the differential-test oracle.
//!
//! Every entry point has a `_scratch` variant taking a caller-owned
//! [`KernelScratch`]; the plain variants construct a transient empty
//! scratch, which allocates only when the generic path actually runs.

use crate::layout::{KernelKind, KernelTier, Layout};
use crate::scratch::KernelScratch;
use crate::tips::TipTable;
use crate::{reference, simd};

/// One side of a likelihood combination: the data flowing toward a node
/// across one of its edges.
#[derive(Clone, Copy)]
pub enum Side<'a> {
    /// An inner-node CLV propagated through the edge's per-rate transition
    /// matrices.
    Clv {
        /// Child CLV, `[pattern][rate][state]`.
        clv: &'a [f64],
        /// Child per-pattern scaler counts (`None` = all zero).
        scale: Option<&'a [u32]>,
        /// Per-rate transition matrices for the connecting edge.
        pmatrix: &'a [f64],
    },
    /// A tip: per-pattern character codes resolved through a precomputed
    /// [`TipTable`] (which already encodes the edge's transition
    /// matrices).
    Tip {
        /// Lookup built for the connecting edge.
        table: &'a TipTable,
        /// Per-pattern character codes.
        codes: &'a [u8],
    },
}

impl<'a> Side<'a> {
    /// The scaler count this side contributes at `pattern`.
    #[inline]
    pub fn scale_at(&self, pattern: usize) -> u32 {
        match self {
            Side::Clv { scale: Some(s), .. } => s[pattern],
            _ => 0,
        }
    }

    /// Writes this side's propagated likelihood for (`pattern`, `rate`)
    /// into `out` (`states` entries). The dynamic-dispatch primitive the
    /// generic kernels are built from.
    #[inline]
    pub(crate) fn propagate_pattern_rate(
        &self,
        layout: &Layout,
        pattern: usize,
        rate: usize,
        out: &mut [f64],
    ) {
        let states = layout.states;
        match *self {
            Side::Clv { clv, pmatrix, .. } => {
                let base = pattern * layout.pattern_stride() + rate * states;
                let child = &clv[base..base + states];
                let pm = &pmatrix[rate * states * states..(rate + 1) * states * states];
                for (i, o) in out.iter_mut().enumerate() {
                    let row = &pm[i * states..(i + 1) * states];
                    let mut sum = 0.0;
                    for (p, c) in row.iter().zip(child) {
                        sum += p * c;
                    }
                    *o = sum;
                }
            }
            Side::Tip { table, codes } => {
                out.copy_from_slice(table.code_rate(codes[pattern], rate));
            }
        }
    }
}

/// Computes a parent CLV over `range` of the patterns:
/// `out[p][r][i] = left_prop[i] · right_prop[i]`, with per-pattern scaler
/// propagation and rescaling.
///
/// `out`/`out_scale` are full-length buffers; only the entries covered by
/// `range` are written.
#[inline]
pub fn update_partials(
    layout: &Layout,
    left: Side<'_>,
    right: Side<'_>,
    out: &mut [f64],
    out_scale: &mut [u32],
    range: std::ops::Range<usize>,
) {
    update_partials_scratch(layout, left, right, out, out_scale, range, &mut KernelScratch::new())
}

/// [`update_partials`] with a caller-owned scratch, guaranteeing zero heap
/// allocation per call on every dispatch path once the scratch is warm.
pub fn update_partials_scratch(
    layout: &Layout,
    left: Side<'_>,
    right: Side<'_>,
    out: &mut [f64],
    out_scale: &mut [u32],
    range: std::ops::Range<usize>,
    scratch: &mut KernelScratch,
) {
    match (layout.kind(), layout.tier()) {
        (KernelKind::Generic, _) | (_, KernelTier::Reference) => {
            reference::update_partials(layout, left, right, out, out_scale, range, scratch)
        }
        (KernelKind::Dna4, KernelTier::Simd) => {
            simd::update_partials::<4>(layout, left, right, out, out_scale, range)
        }
        (KernelKind::Protein20, KernelTier::Simd) => {
            simd::update_partials::<20>(layout, left, right, out, out_scale, range)
        }
    }
}

/// Writes the propagated likelihoods of one side into `out`
/// (`[pattern][rate][state]` over `range`), accumulating that side's scaler
/// counts into `out_scale`. Used to build placement lookup tables and the
/// attachment-point partials.
#[inline]
pub fn propagate(
    layout: &Layout,
    side: Side<'_>,
    out: &mut [f64],
    out_scale: &mut [u32],
    range: std::ops::Range<usize>,
) {
    propagate_scratch(layout, side, out, out_scale, range, &mut KernelScratch::new())
}

/// [`propagate`] with a caller-owned scratch.
pub fn propagate_scratch(
    layout: &Layout,
    side: Side<'_>,
    out: &mut [f64],
    out_scale: &mut [u32],
    range: std::ops::Range<usize>,
    scratch: &mut KernelScratch,
) {
    // The placement layer's inner loop (two calls per attachment
    // partial). Every arm sums each output state's products in ascending
    // state order: bit-exact across tiers and SIMD backends.
    match (layout.kind(), layout.tier()) {
        (KernelKind::Generic, _) | (_, KernelTier::Reference) => {
            reference::propagate(layout, side, out, out_scale, range, scratch)
        }
        (KernelKind::Dna4, KernelTier::Simd) => {
            simd::propagate::<4>(layout, side, out, out_scale, range)
        }
        (KernelKind::Protein20, KernelTier::Simd) => {
            simd::propagate::<20>(layout, side, out, out_scale, range)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scaling::{SCALE_FACTOR, SCALE_THRESHOLD};

    fn identity_pmatrix(states: usize, rates: usize) -> Vec<f64> {
        let mut p = vec![0.0; rates * states * states];
        for r in 0..rates {
            for i in 0..states {
                p[r * states * states + i * states + i] = 1.0;
            }
        }
        p
    }

    const DNA_MASKS: [u32; 5] = [0b0001, 0b0010, 0b0100, 0b1000, 0b1111];

    #[test]
    fn tip_tip_identity() {
        // With identity P-matrices, the parent CLV is the product of the
        // two tip indicator vectors.
        let layout = Layout::new(3, 1, 4);
        let pm = identity_pmatrix(4, 1);
        let table = TipTable::build(&layout, &pm, &DNA_MASKS);
        let codes1 = [0u8, 1, 4]; // A, C, N
        let codes2 = [0u8, 2, 1]; // A, G, C
        let mut out = vec![0.0; layout.clv_len()];
        let mut scale = vec![0u32; 3];
        update_partials(
            &layout,
            Side::Tip { table: &table, codes: &codes1 },
            Side::Tip { table: &table, codes: &codes2 },
            &mut out,
            &mut scale,
            0..3,
        );
        // Pattern 0: A & A -> only state A survives.
        assert_eq!(&out[0..4], &[1.0, 0.0, 0.0, 0.0]);
        // Pattern 1: C & G -> contradiction, all zero.
        assert_eq!(&out[4..8], &[0.0; 4]);
        // Pattern 2: N & C -> state C.
        assert_eq!(&out[8..12], &[0.0, 1.0, 0.0, 0.0]);
        assert_eq!(scale, vec![0; 3]);
    }

    #[test]
    fn inner_child_propagation() {
        // Child CLV [0.5, 0.5, 0, 0] through a known P-matrix.
        let layout = Layout::new(1, 1, 4);
        #[rustfmt::skip]
        let pm = vec![
            0.7, 0.1, 0.1, 0.1,
            0.1, 0.7, 0.1, 0.1,
            0.1, 0.1, 0.7, 0.1,
            0.1, 0.1, 0.1, 0.7,
        ];
        let child = vec![0.5, 0.5, 0.0, 0.0];
        let cscale = vec![0u32];
        let idt = identity_pmatrix(4, 1);
        let table = TipTable::build(&layout, &idt, &DNA_MASKS);
        let codes = [4u8]; // N: right side contributes 1 everywhere
        let mut out = vec![0.0; 4];
        let mut scale = vec![0u32; 1];
        update_partials(
            &layout,
            Side::Clv { clv: &child, scale: Some(&cscale), pmatrix: &pm },
            Side::Tip { table: &table, codes: &codes },
            &mut out,
            &mut scale,
            0..1,
        );
        // left[i] = 0.5·(P[i][0] + P[i][1])
        let expect = [0.4, 0.4, 0.1, 0.1];
        for (o, e) in out.iter().zip(expect) {
            assert!((o - e).abs() < 1e-15);
        }
    }

    #[test]
    fn scaling_triggers_and_counts() {
        let layout = Layout::new(1, 1, 4);
        // A child CLV so tiny the product underflows the threshold.
        let tiny = SCALE_THRESHOLD * 1e-3;
        let child1 = vec![tiny; 4];
        let child2 = vec![1.0; 4];
        let s1 = vec![2u32];
        let s2 = vec![3u32];
        let pm = identity_pmatrix(4, 1);
        let mut out = vec![0.0; 4];
        let mut scale = vec![0u32; 1];
        update_partials(
            &layout,
            Side::Clv { clv: &child1, scale: Some(&s1), pmatrix: &pm },
            Side::Clv { clv: &child2, scale: Some(&s2), pmatrix: &pm },
            &mut out,
            &mut scale,
            0..1,
        );
        // Parent inherits 2 + 3 and adds one rescale.
        assert_eq!(scale[0], 6);
        for &v in &out {
            assert!(v >= SCALE_THRESHOLD && v.is_finite());
            assert!((v - tiny * SCALE_FACTOR).abs() / v < 1e-12);
        }
    }

    #[test]
    fn zero_pattern_does_not_loop() {
        let layout = Layout::new(1, 1, 4);
        let pm = identity_pmatrix(4, 1);
        let table = TipTable::build(&layout, &pm, &DNA_MASKS);
        let mut out = vec![0.0; 4];
        let mut scale = vec![0u32; 1];
        // C & G through identity: impossible, all zeros; must terminate.
        update_partials(
            &layout,
            Side::Tip { table: &table, codes: &[1] },
            Side::Tip { table: &table, codes: &[2] },
            &mut out,
            &mut scale,
            0..1,
        );
        assert_eq!(out, vec![0.0; 4]);
        assert_eq!(scale[0], 0);
    }

    #[test]
    fn range_limits_writes() {
        let layout = Layout::new(4, 1, 4);
        let pm = identity_pmatrix(4, 1);
        let table = TipTable::build(&layout, &pm, &DNA_MASKS);
        let codes = [0u8, 1, 2, 3];
        let mut out = vec![-1.0; layout.clv_len()];
        let mut scale = vec![99u32; 4];
        update_partials(
            &layout,
            Side::Tip { table: &table, codes: &codes },
            Side::Tip { table: &table, codes: &codes },
            &mut out,
            &mut scale,
            1..3,
        );
        // Patterns 0 and 3 untouched.
        assert!(out[0..4].iter().all(|&v| v == -1.0));
        assert!(out[12..16].iter().all(|&v| v == -1.0));
        assert_eq!(scale[0], 99);
        assert_eq!(scale[3], 99);
        assert_eq!(scale[1], 0);
        // Pattern 1: C&C -> state C = 1.
        assert_eq!(out[4 + 1], 1.0);
    }

    #[test]
    fn propagate_matches_side_semantics() {
        let layout = Layout::new(2, 1, 4);
        #[rustfmt::skip]
        let pm = vec![
            0.7, 0.1, 0.1, 0.1,
            0.1, 0.7, 0.1, 0.1,
            0.1, 0.1, 0.7, 0.1,
            0.1, 0.1, 0.1, 0.7,
        ];
        let table = TipTable::build(&layout, &pm, &DNA_MASKS);
        let codes = [0u8, 3];
        let mut out = vec![0.0; layout.clv_len()];
        let mut scale = vec![0u32; 2];
        propagate(&layout, Side::Tip { table: &table, codes: &codes }, &mut out, &mut scale, 0..2);
        // Pattern 0 (A): column A of P.
        assert_eq!(&out[0..4], &[0.7, 0.1, 0.1, 0.1]);
        // Pattern 1 (T): column T of P.
        assert_eq!(&out[4..8], &[0.1, 0.1, 0.1, 0.7]);
    }

    #[test]
    fn generic_state_count_dispatches_to_reference() {
        // A binary alphabet exercises the Generic arm through the public
        // entry point; results must match a hand-computed product.
        let layout = Layout::new(2, 1, 2);
        assert_eq!(layout.kind(), KernelKind::Generic);
        let pm = identity_pmatrix(2, 1);
        let a = vec![0.5, 0.25, 1.0, 0.0];
        let b = vec![0.5, 2.0, 0.5, 1.0];
        let mut out = vec![0.0; layout.clv_len()];
        let mut scale = vec![0u32; 2];
        update_partials(
            &layout,
            Side::Clv { clv: &a, scale: None, pmatrix: &pm },
            Side::Clv { clv: &b, scale: None, pmatrix: &pm },
            &mut out,
            &mut scale,
            0..2,
        );
        assert_eq!(out, vec![0.25, 0.5, 0.5, 0.0]);
        assert_eq!(scale, vec![0, 0]);
    }
}
