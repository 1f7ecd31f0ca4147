//! Log-likelihood evaluation from CLVs.
//!
//! Like [`crate::kernels`], the functions here dispatch once per call on
//! [`Layout::kind`] and [`Layout::tier`]: the generic oracle in
//! [`crate::reference`] for the reference tier and odd state counts, the
//! fixed-state implementations in [`crate::fixed`] for DNA and protein on
//! the SIMD tier, whatever its backend. Both keep the pattern-outer /
//! rate-inner accumulation order, so their totals are bit-identical on
//! every tier. Neither is on a placement path — thorough scoring and the
//! lookup table score through `epa_place::score` — so neither has
//! intrinsics.

use crate::kernels::Side;
use crate::layout::{KernelKind, KernelTier, Layout};
use crate::scratch::KernelScratch;
use crate::{fixed, reference};

/// Evaluates the tree log-likelihood at a branch: one side is the CLV
/// *at* node `u` (unpropagated), the other is everything beyond the branch,
/// propagated through the branch's transition matrices.
///
/// `L_p = Σ_r w_r Σ_i π_i · u[p,r,i] · v_prop[p,r,i]`, summed over patterns
/// with their multiplicities and corrected for scaler counts.
#[allow(clippy::too_many_arguments)]
#[inline]
pub fn edge_log_likelihood(
    layout: &Layout,
    u_clv: &[f64],
    u_scale: Option<&[u32]>,
    v: Side<'_>,
    freqs: &[f64],
    rate_weights: &[f64],
    pattern_weights: &[u32],
    range: std::ops::Range<usize>,
) -> f64 {
    edge_log_likelihood_scratch(
        layout,
        u_clv,
        u_scale,
        v,
        freqs,
        rate_weights,
        pattern_weights,
        range,
        &mut KernelScratch::new(),
    )
}

/// [`edge_log_likelihood`] with a caller-owned scratch (zero allocation
/// per call on every dispatch path once the scratch is warm).
#[allow(clippy::too_many_arguments)]
pub fn edge_log_likelihood_scratch(
    layout: &Layout,
    u_clv: &[f64],
    u_scale: Option<&[u32]>,
    v: Side<'_>,
    freqs: &[f64],
    rate_weights: &[f64],
    pattern_weights: &[u32],
    range: std::ops::Range<usize>,
    scratch: &mut KernelScratch,
) -> f64 {
    match (layout.kind(), layout.tier()) {
        (KernelKind::Generic, _) | (_, KernelTier::Reference) => reference::edge_log_likelihood(
            layout,
            u_clv,
            u_scale,
            v,
            freqs,
            rate_weights,
            pattern_weights,
            range,
            scratch,
        ),
        (KernelKind::Dna4, KernelTier::Simd) => fixed::edge_log_likelihood::<4>(
            layout,
            u_clv,
            u_scale,
            v,
            freqs,
            rate_weights,
            pattern_weights,
            range,
        ),
        (KernelKind::Protein20, KernelTier::Simd) => fixed::edge_log_likelihood::<20>(
            layout,
            u_clv,
            u_scale,
            v,
            freqs,
            rate_weights,
            pattern_weights,
            range,
        ),
    }
}

/// Evaluates the log-likelihood at a *point* where several sides meet —
/// the placement case: proximal subtree, distal subtree, and the pendant
/// query tip all propagated to the attachment node.
///
/// `L_p = Σ_r w_r Σ_i π_i · Π_s side_s_prop[p,r,i]`.
#[inline]
pub fn point_log_likelihood(
    layout: &Layout,
    sides: &[Side<'_>],
    freqs: &[f64],
    rate_weights: &[f64],
    pattern_weights: &[u32],
    range: std::ops::Range<usize>,
) -> f64 {
    point_log_likelihood_scratch(
        layout,
        sides,
        freqs,
        rate_weights,
        pattern_weights,
        range,
        &mut KernelScratch::new(),
    )
}

/// [`point_log_likelihood`] with a caller-owned scratch.
pub fn point_log_likelihood_scratch(
    layout: &Layout,
    sides: &[Side<'_>],
    freqs: &[f64],
    rate_weights: &[f64],
    pattern_weights: &[u32],
    range: std::ops::Range<usize>,
    scratch: &mut KernelScratch,
) -> f64 {
    match (layout.kind(), layout.tier()) {
        (KernelKind::Generic, _) | (_, KernelTier::Reference) => reference::point_log_likelihood(
            layout,
            sides,
            freqs,
            rate_weights,
            pattern_weights,
            range,
            scratch,
        ),
        (KernelKind::Dna4, KernelTier::Simd) => fixed::point_log_likelihood::<4>(
            layout,
            sides,
            freqs,
            rate_weights,
            pattern_weights,
            range,
        ),
        (KernelKind::Protein20, KernelTier::Simd) => fixed::point_log_likelihood::<20>(
            layout,
            sides,
            freqs,
            rate_weights,
            pattern_weights,
            range,
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scaling::LN_SCALE;
    use crate::tips::TipTable;

    const DNA_MASKS: [u32; 5] = [0b0001, 0b0010, 0b0100, 0b1000, 0b1111];

    /// JC69 P(t) as an explicit matrix.
    fn jc_pmatrix(t: f64) -> Vec<f64> {
        let e = (-4.0 * t / 3.0f64).exp();
        let same = 0.25 + 0.75 * e;
        let diff = 0.25 - 0.25 * e;
        let mut p = vec![diff; 16];
        for i in 0..4 {
            p[i * 4 + i] = same;
        }
        p
    }

    /// Two-taxon likelihood under JC computed by hand:
    /// L = π_a P_ab(t) for concrete observed states a, b at distance t.
    #[test]
    fn two_taxon_edge_likelihood() {
        let layout = Layout::new(2, 1, 4);
        let t = 0.3;
        let pm = jc_pmatrix(t);
        let table = TipTable::build(&layout, &pm, &DNA_MASKS);
        // "u" is tip A's CLV *at* the node: indicator vectors.
        // patterns: (A,A) and (A,C)
        let mut u_clv = vec![0.0; layout.clv_len()];
        u_clv[0] = 1.0; // pattern 0: state A
        u_clv[4] = 1.0; // pattern 1: state A
        let codes_v = [0u8, 1]; // A, C
        let freqs = [0.25; 4];
        let rw = [1.0];
        let pw = [1u32, 1];
        let ll = edge_log_likelihood(
            &layout,
            &u_clv,
            None,
            Side::Tip { table: &table, codes: &codes_v },
            &freqs,
            &rw,
            &pw,
            0..2,
        );
        let e = (-4.0 * t / 3.0f64).exp();
        let same = 0.25 * (0.25 + 0.75 * e);
        let diff = 0.25 * (0.25 - 0.25 * e);
        let expect = same.ln() + diff.ln();
        assert!((ll - expect).abs() < 1e-12, "{ll} vs {expect}");
    }

    #[test]
    fn pattern_weights_multiply() {
        let layout = Layout::new(1, 1, 4);
        let pm = jc_pmatrix(0.2);
        let table = TipTable::build(&layout, &pm, &DNA_MASKS);
        let mut u_clv = vec![0.0; 4];
        u_clv[2] = 1.0; // G
        let codes = [2u8]; // G
        let freqs = [0.25; 4];
        let ll1 = edge_log_likelihood(
            &layout,
            &u_clv,
            None,
            Side::Tip { table: &table, codes: &codes },
            &freqs,
            &[1.0],
            &[1],
            0..1,
        );
        let ll5 = edge_log_likelihood(
            &layout,
            &u_clv,
            None,
            Side::Tip { table: &table, codes: &codes },
            &freqs,
            &[1.0],
            &[5],
            0..1,
        );
        assert!((ll5 - 5.0 * ll1).abs() < 1e-12);
    }

    #[test]
    fn scaler_counts_shift_loglik() {
        let layout = Layout::new(1, 1, 4);
        let pm = jc_pmatrix(0.1);
        let mut u_clv = vec![0.0; 4];
        u_clv[0] = 1.0;
        let v_clv = vec![0.25; 4];
        let freqs = [0.25; 4];
        let no_scale = edge_log_likelihood(
            &layout,
            &u_clv,
            None,
            Side::Clv { clv: &v_clv, scale: None, pmatrix: &pm },
            &freqs,
            &[1.0],
            &[1],
            0..1,
        );
        let scales = vec![2u32];
        let with_scale = edge_log_likelihood(
            &layout,
            &u_clv,
            None,
            Side::Clv { clv: &v_clv, scale: Some(&scales), pmatrix: &pm },
            &freqs,
            &[1.0],
            &[1],
            0..1,
        );
        assert!((no_scale - with_scale - 2.0 * LN_SCALE).abs() < 1e-10);
    }

    #[test]
    fn point_likelihood_three_tips() {
        // Tripod with all tips at distance t from the center, observing
        // A, A, A: L = Σ_i π_i P_iA(t)³.
        let layout = Layout::new(1, 1, 4);
        let t = 0.25;
        let pm = jc_pmatrix(t);
        let table = TipTable::build(&layout, &pm, &DNA_MASKS);
        let codes = [0u8];
        let freqs = [0.25; 4];
        let sides = [
            Side::Tip { table: &table, codes: &codes },
            Side::Tip { table: &table, codes: &codes },
            Side::Tip { table: &table, codes: &codes },
        ];
        let ll = point_log_likelihood(&layout, &sides, &freqs, &[1.0], &[1], 0..1);
        let e = (-4.0 * t / 3.0f64).exp();
        let same = 0.25 + 0.75 * e;
        let diff = 0.25 - 0.25 * e;
        let expect = (0.25 * (same.powi(3) + 3.0 * diff.powi(3))).ln();
        assert!((ll - expect).abs() < 1e-12, "{ll} vs {expect}");
    }

    #[test]
    fn impossible_data_gives_neg_infinity() {
        // Zero CLV (contradictory subtree) yields -inf log-likelihood.
        let layout = Layout::new(1, 1, 4);
        let pm = jc_pmatrix(0.0); // identity
        let table = TipTable::build(&layout, &pm, &DNA_MASKS);
        let u_clv = vec![0.0; 4];
        let codes = [0u8];
        let ll = edge_log_likelihood(
            &layout,
            &u_clv,
            None,
            Side::Tip { table: &table, codes: &codes },
            &[0.25; 4],
            &[1.0],
            &[1],
            0..1,
        );
        assert!(ll.is_infinite() && ll < 0.0);
    }

    #[test]
    fn rate_mixture_averages() {
        // Two rate categories with weights 0.5/0.5; mixture likelihood is
        // the average of per-category likelihoods.
        let layout = Layout::new(1, 2, 4);
        let mut pm = jc_pmatrix(0.1);
        pm.extend(jc_pmatrix(0.9));
        let table = TipTable::build(&layout, &pm, &DNA_MASKS);
        let mut u_clv = vec![0.0; 8];
        u_clv[0] = 1.0; // rate 0, state A
        u_clv[4] = 1.0; // rate 1, state A
        let codes = [0u8];
        let freqs = [0.25; 4];
        let ll = edge_log_likelihood(
            &layout,
            &u_clv,
            None,
            Side::Tip { table: &table, codes: &codes },
            &freqs,
            &[0.5, 0.5],
            &[1],
            0..1,
        );
        let lik = |t: f64| {
            let e = (-4.0 * t / 3.0f64).exp();
            0.25 * (0.25 + 0.75 * e)
        };
        let expect = (0.5 * lik(0.1) + 0.5 * lik(0.9)).ln();
        assert!((ll - expect).abs() < 1e-12);
    }
}
