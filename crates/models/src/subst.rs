//! Compiled substitution models: from rate matrix to `P(t)`.
//!
//! All standard models of sequence evolution are time-reversible: the rate
//! matrix factors as `Q = S · diag(π)` with a symmetric exchangeability
//! matrix `S` and stationary frequencies `π`. Reversibility lets us
//! symmetrize `Q` with `B = D Q D⁻¹`, `D = diag(√π)`, eigendecompose `B`
//! with the rock-solid Jacobi solver, and evaluate
//! `P(t) = D⁻¹ U e^{Λt} Uᵀ D` for any branch length — the workhorse of
//! every CLV update.

use crate::error::ModelError;
use crate::gamma::DiscreteGamma;
use crate::linalg::{symmetric_eigen, SquareMatrix};

/// A time-reversible rate matrix in exchangeability/frequency form.
#[derive(Debug, Clone, PartialEq)]
pub struct RateMatrix {
    n: usize,
    /// Symmetric exchangeabilities, row-major `n × n`, zero diagonal.
    exch: Vec<f64>,
    /// Stationary state frequencies (positive, summing to one).
    freqs: Vec<f64>,
}

impl RateMatrix {
    /// Builds a rate matrix from the upper-triangle exchangeabilities
    /// (`n(n−1)/2` values, row by row) and the stationary frequencies.
    pub fn new(n: usize, upper_exch: &[f64], freqs: &[f64]) -> Result<Self, ModelError> {
        let expected = n * (n - 1) / 2;
        if upper_exch.len() != expected {
            return Err(ModelError::Dimension { expected, found: upper_exch.len() });
        }
        if freqs.len() != n {
            return Err(ModelError::Dimension { expected: n, found: freqs.len() });
        }
        for &s in upper_exch {
            if !(s.is_finite() && s >= 0.0) {
                return Err(ModelError::BadParameter(format!("exchangeability {s} out of range")));
            }
        }
        let sum: f64 = freqs.iter().sum();
        if freqs.iter().any(|&f| !(f.is_finite() && f > 0.0)) || (sum - 1.0).abs() > 1e-6 {
            return Err(ModelError::BadFrequencies(format!(
                "frequencies must be positive and sum to 1 (sum = {sum})"
            )));
        }
        // Renormalize exactly.
        let freqs: Vec<f64> = freqs.iter().map(|&f| f / sum).collect();
        let mut exch = vec![0.0; n * n];
        let mut k = 0;
        for i in 0..n {
            for j in (i + 1)..n {
                exch[i * n + j] = upper_exch[k];
                exch[j * n + i] = upper_exch[k];
                k += 1;
            }
        }
        Ok(RateMatrix { n, exch, freqs })
    }

    /// Number of states.
    #[inline]
    pub fn n_states(&self) -> usize {
        self.n
    }

    /// Stationary frequencies.
    #[inline]
    pub fn freqs(&self) -> &[f64] {
        &self.freqs
    }

    /// The normalized instantaneous rate matrix `Q` (rows sum to zero,
    /// expected rate `−Σ πᵢ qᵢᵢ = 1`).
    pub fn q_matrix(&self) -> SquareMatrix {
        let n = self.n;
        let mut q = SquareMatrix::zeros(n);
        for i in 0..n {
            let mut row_sum = 0.0;
            for j in 0..n {
                if i != j {
                    let v = self.exch[i * n + j] * self.freqs[j];
                    q[(i, j)] = v;
                    row_sum += v;
                }
            }
            q[(i, i)] = -row_sum;
        }
        // Normalize to one expected substitution per unit branch length.
        let mu: f64 = (0..n).map(|i| -self.freqs[i] * q[(i, i)]).sum();
        if mu > 0.0 {
            for v in q.as_mut_slice() {
                *v /= mu;
            }
        }
        q
    }
}

/// A substitution model compiled for fast `P(t)` evaluation, together with
/// its Γ rate mixture.
#[derive(Debug, Clone)]
pub struct SubstModel {
    n: usize,
    freqs: Vec<f64>,
    /// Eigenvalues of the normalized `Q` (all ≤ 0; one is exactly 0).
    eigenvalues: Vec<f64>,
    /// `V = D⁻¹ U`, row-major.
    v: SquareMatrix,
    /// `W = Uᵀ D`, row-major.
    w: SquareMatrix,
    gamma: DiscreteGamma,
    /// The protein `P(t)` build runs its AVX2 instance
    /// ([`SubstModel::set_avx2_fill`]). Never set on a host without AVX2.
    avx2_fill: bool,
}

impl SubstModel {
    /// Compiles a rate matrix with the given rate mixture.
    pub fn new(rate_matrix: &RateMatrix, gamma: DiscreteGamma) -> Result<Self, ModelError> {
        let n = rate_matrix.n_states();
        let q = rate_matrix.q_matrix();
        let freqs = rate_matrix.freqs().to_vec();
        // Symmetrize: B = D Q D⁻¹ with D = diag(√π).
        let sqrt: Vec<f64> = freqs.iter().map(|&f| f.sqrt()).collect();
        let mut b = SquareMatrix::zeros(n);
        for i in 0..n {
            for j in 0..n {
                b[(i, j)] = q[(i, j)] * sqrt[i] / sqrt[j];
            }
        }
        // Numerical symmetrization guards against rounding.
        for i in 0..n {
            for j in (i + 1)..n {
                let avg = 0.5 * (b[(i, j)] + b[(j, i)]);
                b[(i, j)] = avg;
                b[(j, i)] = avg;
            }
        }
        let eig = symmetric_eigen(&b)?;
        let mut v = SquareMatrix::zeros(n);
        let mut w = SquareMatrix::zeros(n);
        for i in 0..n {
            for k in 0..n {
                v[(i, k)] = eig.vectors[(i, k)] / sqrt[i];
                w[(k, i)] = eig.vectors[(i, k)] * sqrt[i];
            }
        }
        Ok(SubstModel { n, freqs, eigenvalues: eig.values, v, w, gamma, avx2_fill: false })
    }

    /// Selects the code generation of the protein `P(t)` build: with `on`,
    /// its `n = 20` loop runs a second instance compiled for AVX2 — the
    /// same operations in the same order, four entries abreast and never
    /// contracted, so the same bits. Off by default. This crate does not
    /// probe the CPU: the caller passes the decision of the one detection
    /// site, the kernel crate's SIMD backend.
    ///
    /// # Safety
    ///
    /// With `on`, the caller must have verified at runtime that the CPU
    /// supports AVX2.
    pub unsafe fn set_avx2_fill(&mut self, on: bool) {
        self.avx2_fill = on;
    }

    /// Number of states.
    #[inline]
    pub fn n_states(&self) -> usize {
        self.n
    }

    /// Stationary frequencies.
    #[inline]
    pub fn freqs(&self) -> &[f64] {
        &self.freqs
    }

    /// The Γ rate mixture.
    #[inline]
    pub fn gamma(&self) -> &DiscreteGamma {
        &self.gamma
    }

    /// Number of rate categories.
    #[inline]
    pub fn n_rates(&self) -> usize {
        self.gamma.n_categories()
    }

    /// Writes the transition probability matrix `P(t)` into `out`
    /// (row-major `n × n`). Negative rounding residue is clamped to zero.
    ///
    /// Every entry is `Σ_k (V_ik·e^{λ_k t})·W_kj`, summed over ascending
    /// `k` — the loop orders below produce the same bits and differ only
    /// in speed.
    #[inline]
    pub fn transition_matrix(&self, t: f64, out: &mut [f64]) {
        let n = self.n;
        debug_assert_eq!(out.len(), n * n);
        debug_assert!(t >= 0.0 && t.is_finite(), "bad branch length {t}");
        // Measured: streaming W's rows halves the S = 20 build but costs
        // the S = 4 one (0.37 → 0.55 µs). The DNA path stays this small so
        // that it keeps inlining into `transition_matrices`; everything
        // larger is one call away.
        if n <= 4 {
            let mut expl = [0.0f64; 4];
            for (e, &l) in expl.iter_mut().zip(&self.eigenvalues) {
                *e = (l * t).exp();
            }
            self.fill_by_entry(&expl[..n], out);
        } else {
            self.fill_wide(t, out);
        }
    }

    /// [`transition_matrix`] for `n > 4`.
    ///
    /// [`transition_matrix`]: SubstModel::transition_matrix
    #[inline(never)]
    fn fill_wide(&self, t: f64, out: &mut [f64]) {
        let n = self.n;
        // exp(λ_k t), on the stack for every real alphabet.
        let mut stack = [0.0f64; 32];
        let heap: Vec<f64>;
        let expl: &[f64] = if n <= 32 {
            for (e, &l) in stack.iter_mut().zip(&self.eigenvalues) {
                *e = (l * t).exp();
            }
            &stack[..n]
        } else {
            heap = self.eigenvalues.iter().map(|&l| (l * t).exp()).collect();
            &heap
        };
        match n {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `avx2_fill` is set only through `set_avx2_fill`, whose
            // caller verified AVX2 at runtime.
            20 if self.avx2_fill => unsafe { self.fill_rows_of_20_avx2(expl, out) },
            20 => self.fill_rows_of_20(expl, out),
            _ => self.fill_by_rows_of_w(n, expl, out),
        }
    }

    /// Protein: [`fill_row_pairs`] with `N = 20`. A function of its own,
    /// or the optimizer folds the `n == 20` arm back into the runtime-`n`
    /// one.
    ///
    /// [`fill_row_pairs`]: SubstModel::fill_row_pairs
    #[inline(never)]
    fn fill_rows_of_20(&self, expl: &[f64], out: &mut [f64]) {
        self.fill_row_pairs::<20>(expl, out)
    }

    /// [`fill_rows_of_20`]'s body instantiated a second time for AVX2: the
    /// row updates widen to four lanes. Without the `fma` feature and
    /// without intrinsics nothing contracts or reassociates, so the bits
    /// are [`fill_rows_of_20`]'s.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2.
    ///
    /// [`fill_rows_of_20`]: SubstModel::fill_rows_of_20
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    #[inline(never)]
    unsafe fn fill_rows_of_20_avx2(&self, expl: &[f64], out: &mut [f64]) {
        self.fill_row_pairs::<20>(expl, out)
    }

    /// `P(t)` one entry at a time: a dot product down a column of `W`.
    #[inline]
    fn fill_by_entry(&self, expl: &[f64], out: &mut [f64]) {
        let n = self.n;
        for i in 0..n {
            let vrow = self.v.row(i);
            for j in 0..n {
                let mut p = 0.0;
                for k in 0..n {
                    p += vrow[k] * expl[k] * self.w[(k, j)];
                }
                out[i * n + j] = p.max(0.0);
            }
        }
    }

    /// [`fill_by_rows_of_w`] two rows at a time, with the row length `N` a
    /// constant (even): each entry is still summed from `0.0` over
    /// ascending `k`, but in two local rows, which stay in registers, and
    /// each row of `W` is read once per pair. A protein Γ4 build (four
    /// blocks and their exponentials) took 11.1 → 8.0 µs, and 7.7 → 4.7 µs
    /// in the AVX2 instance (2-vCPU host).
    ///
    /// [`fill_by_rows_of_w`]: SubstModel::fill_by_rows_of_w
    #[inline(always)]
    fn fill_row_pairs<const N: usize>(&self, expl: &[f64], out: &mut [f64]) {
        debug_assert!(N == self.n && N.is_multiple_of(2));
        for (pair, rows) in out.chunks_exact_mut(2 * N).enumerate() {
            let v0 = &self.v.row(2 * pair)[..N];
            let v1 = &self.v.row(2 * pair + 1)[..N];
            let (mut p0, mut p1) = ([0.0f64; N], [0.0f64; N]);
            for k in 0..N {
                let (ve0, ve1) = (v0[k] * expl[k], v1[k] * expl[k]);
                let w = &self.w.row(k)[..N];
                for j in 0..N {
                    p0[j] += ve0 * w[j];
                    p1[j] += ve1 * w[j];
                }
            }
            let (r0, r1) = rows.split_at_mut(N);
            for (r, p) in r0.iter_mut().zip(p0).chain(r1.iter_mut().zip(p1)) {
                *r = p.max(0.0);
            }
        }
    }

    /// `P(t)` one row at a time: `k` outermost, so each `V_ik·e^{λ_k t}` is
    /// formed once and `W` is read along its contiguous rows. `n` is
    /// `self.n`; inlined into each caller so that a constant `n` fixes the
    /// row length and unrolls the inner loops (26.8 µs entry-wise → 13.3 µs
    /// → 5.7 µs with `n = 20` a constant).
    #[inline(always)]
    fn fill_by_rows_of_w(&self, n: usize, expl: &[f64], out: &mut [f64]) {
        debug_assert_eq!(n, self.n);
        for (i, prow) in out.chunks_exact_mut(n).enumerate() {
            let vrow = &self.v.row(i)[..n];
            prow.fill(0.0);
            for k in 0..n {
                let ve = vrow[k] * expl[k];
                for (p, &w) in prow.iter_mut().zip(&self.w.row(k)[..n]) {
                    *p += ve * w;
                }
            }
            for p in prow {
                *p = p.max(0.0);
            }
        }
    }

    /// Writes one `P(len · rate_c)` block per rate category into `out`
    /// (layout `[category][i][j]`, total `n_rates · n · n`).
    pub fn transition_matrices(&self, branch_len: f64, out: &mut [f64]) {
        let n2 = self.n * self.n;
        debug_assert_eq!(out.len(), self.n_rates() * n2);
        for (c, &rate) in self.gamma.rates().iter().enumerate() {
            self.transition_matrix(branch_len * rate, &mut out[c * n2..(c + 1) * n2]);
        }
    }

    /// Bytes needed for the per-edge probability matrix block.
    pub fn pmatrix_bytes(&self) -> usize {
        self.n_rates() * self.n * self.n * std::mem::size_of::<f64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dna;
    use crate::gamma::GammaMode;

    fn jc() -> SubstModel {
        SubstModel::new(&dna::jc69(), DiscreteGamma::none()).unwrap()
    }

    #[test]
    fn p_zero_is_identity() {
        let m = jc();
        let mut p = vec![0.0; 16];
        m.transition_matrix(0.0, &mut p);
        for i in 0..4 {
            for j in 0..4 {
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!((p[i * 4 + j] - expect).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn rows_sum_to_one() {
        let m = jc();
        let mut p = vec![0.0; 16];
        for &t in &[0.01, 0.1, 1.0, 5.0] {
            m.transition_matrix(t, &mut p);
            for i in 0..4 {
                let s: f64 = p[i * 4..(i + 1) * 4].iter().sum();
                assert!((s - 1.0).abs() < 1e-10, "t={t} row={i} sum={s}");
            }
        }
    }

    #[test]
    fn jc69_matches_analytic() {
        let m = jc();
        let mut p = vec![0.0; 16];
        for &t in &[0.0, 0.05, 0.3, 1.0, 2.5] {
            m.transition_matrix(t, &mut p);
            let same = 0.25 + 0.75 * (-4.0 * t / 3.0f64).exp();
            let diff = 0.25 - 0.25 * (-4.0 * t / 3.0f64).exp();
            for i in 0..4 {
                for j in 0..4 {
                    let expect = if i == j { same } else { diff };
                    assert!(
                        (p[i * 4 + j] - expect).abs() < 1e-10,
                        "t={t} P[{i},{j}]={} expect {expect}",
                        p[i * 4 + j]
                    );
                }
            }
        }
    }

    #[test]
    fn long_branch_reaches_stationarity() {
        let freqs = [0.4, 0.3, 0.2, 0.1];
        let m = SubstModel::new(
            &dna::gtr(&[1.0, 2.0, 1.5, 0.8, 3.0, 1.0], &freqs).unwrap(),
            DiscreteGamma::none(),
        )
        .unwrap();
        let mut p = vec![0.0; 16];
        m.transition_matrix(100.0, &mut p);
        for i in 0..4 {
            for j in 0..4 {
                assert!((p[i * 4 + j] - freqs[j]).abs() < 1e-8);
            }
        }
    }

    #[test]
    fn detailed_balance() {
        // Reversibility: π_i P_ij(t) = π_j P_ji(t).
        let freqs = [0.35, 0.15, 0.25, 0.25];
        let m = SubstModel::new(
            &dna::gtr(&[0.5, 2.0, 1.0, 1.3, 4.0, 1.0], &freqs).unwrap(),
            DiscreteGamma::none(),
        )
        .unwrap();
        let mut p = vec![0.0; 16];
        m.transition_matrix(0.7, &mut p);
        for i in 0..4 {
            for j in 0..4 {
                let lhs = freqs[i] * p[i * 4 + j];
                let rhs = freqs[j] * p[j * 4 + i];
                assert!((lhs - rhs).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn chapman_kolmogorov() {
        // P(s+t) = P(s) · P(t).
        let m = jc();
        let (s, t) = (0.3, 0.5);
        let mut ps = vec![0.0; 16];
        let mut pt = vec![0.0; 16];
        let mut pst = vec![0.0; 16];
        m.transition_matrix(s, &mut ps);
        m.transition_matrix(t, &mut pt);
        m.transition_matrix(s + t, &mut pst);
        for i in 0..4 {
            for j in 0..4 {
                let mut prod = 0.0;
                for k in 0..4 {
                    prod += ps[i * 4 + k] * pt[k * 4 + j];
                }
                assert!((prod - pst[i * 4 + j]).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn gamma_categories_scale_time() {
        let gamma = DiscreteGamma::new(0.5, 4, GammaMode::Mean).unwrap();
        let rates = gamma.rates().to_vec();
        let m = SubstModel::new(&dna::jc69(), gamma).unwrap();
        let len = 0.4;
        let mut all = vec![0.0; 4 * 16];
        m.transition_matrices(len, &mut all);
        let mut single = vec![0.0; 16];
        for (c, &r) in rates.iter().enumerate() {
            m.transition_matrix(len * r, &mut single);
            assert_eq!(&all[c * 16..(c + 1) * 16], single.as_slice());
        }
    }

    #[test]
    fn rate_matrix_validation() {
        assert!(RateMatrix::new(4, &[1.0; 5], &[0.25; 4]).is_err()); // wrong exch count
        assert!(RateMatrix::new(4, &[1.0; 6], &[0.3; 4]).is_err()); // freqs don't sum to 1
        assert!(RateMatrix::new(4, &[1.0; 6], &[0.5, 0.5, 0.1, -0.1]).is_err());
        assert!(RateMatrix::new(4, &[1.0, -1.0, 1.0, 1.0, 1.0, 1.0], &[0.25; 4]).is_err());
    }

    #[test]
    fn q_matrix_properties() {
        let rm = dna::gtr(&[1.0, 2.0, 1.5, 0.8, 3.0, 1.0], &[0.4, 0.3, 0.2, 0.1]).unwrap();
        let q = rm.q_matrix();
        // Rows sum to zero.
        for i in 0..4 {
            let s: f64 = q.row(i).iter().sum();
            assert!(s.abs() < 1e-12);
        }
        // Expected rate is one.
        let mu: f64 = (0..4).map(|i| -rm.freqs()[i] * q[(i, i)]).sum();
        assert!((mu - 1.0).abs() < 1e-12);
    }

    #[test]
    fn protein_model_p_matrix_valid() {
        let rm = crate::aa::synthetic_aa(42).unwrap();
        let m = SubstModel::new(&rm, DiscreteGamma::none()).unwrap();
        let mut p = vec![0.0; 400];
        m.transition_matrix(0.5, &mut p);
        for i in 0..20 {
            let s: f64 = p[i * 20..(i + 1) * 20].iter().sum();
            assert!((s - 1.0).abs() < 1e-9, "row {i} sums to {s}");
            for j in 0..20 {
                assert!(p[i * 20 + j] >= 0.0);
            }
        }
    }

    #[test]
    fn both_loop_orders_give_the_same_bits() {
        // `transition_matrix` picks a loop order — and for protein a
        // compile-time row length — by state count; the choice must never
        // show in the output. `fill_by_entry` is the reference.
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(21);
        let gtr = dna::gtr(&[1.0, 2.5, 1.2, 0.8, 3.1, 1.0], &[0.30, 0.21, 0.27, 0.22]).unwrap();
        // The optimizer's whole range and beyond, ends included.
        let fixed_ts = [0.0, 1e-8, 1e-6, 1e-4, 1e-2, 0.1, 1.0, 10.0, 50.0];
        for rm in [gtr, crate::aa::synthetic_aa(7).unwrap(), crate::aa::poisson_aa()] {
            let m = SubstModel::new(&rm, DiscreteGamma::none()).unwrap();
            let n = m.n_states();
            let (mut by_entry, mut by_rows) = (vec![0.0; n * n], vec![0.0; n * n]);
            let random_ts = (0..200).map(|_| 10f64.powf(rng.gen_range(-8.0..1.7)));
            for t in fixed_ts.into_iter().chain(random_ts) {
                let expl: Vec<f64> = m.eigenvalues.iter().map(|&l| (l * t).exp()).collect();
                let bits = |p: &[f64]| p.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                m.fill_by_entry(&expl, &mut by_entry);
                // The `k`-outer loop with a runtime row length …
                m.fill_by_rows_of_w(std::hint::black_box(n), &expl, &mut by_rows);
                assert_eq!(bits(&by_entry), bits(&by_rows), "runtime n = {n}, t = {t}");
                // … with `N = 20` a constant …
                if n == 20 {
                    by_rows.fill(-1.0);
                    m.fill_rows_of_20(&expl, &mut by_rows);
                    assert_eq!(bits(&by_entry), bits(&by_rows), "N = 20, t = {t}");
                }
                // … and whatever the public entry point dispatches to.
                by_rows.fill(-1.0);
                m.transition_matrix(t, &mut by_rows);
                assert_eq!(bits(&by_entry), bits(&by_rows), "n = {n}, t = {t}");
            }
        }
    }
}
