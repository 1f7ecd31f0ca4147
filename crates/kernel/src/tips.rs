//! Tip rows, built per use.
//!
//! For a tip child with character code `c`, the propagated value at parent
//! state `i` is `Σ_{j ∈ mask(c)} P[i][j]` — it depends only on `(code,
//! rate, i)`, not on the pattern. Tabulating it for the codes a leaf
//! actually uses turns every tip-child contribution into a single indexed
//! load, and makes IUPAC ambiguity codes exactly as cheap as concrete
//! states: the libpll-2 tip-inner trick.
//!
//! Nothing keeps these rows per edge. A caller builds them from the edge's
//! transition matrices when an operation needs them, into a [`TipTable`]
//! it reuses ([`KernelScratch::tips`] for CLV updates): only the rows of
//! the leaf's own codes ([`code_set`]), each a sum over its mask's set
//! bits. A protein leaf's rows cost a few microseconds, and the reference
//! holds no `leaves × codes` term.
//!
//! [`KernelScratch::tips`]: crate::KernelScratch::tips

use crate::layout::Layout;

/// Tip rows for one edge: `data[code][rate][state]` = propagated
/// likelihood of observing `code` at the far end of the edge, given
/// parent state. Only the rows of the codes last built are meaningful;
/// the others hold whatever an earlier build left.
#[derive(Debug, Clone)]
pub struct TipTable {
    rates: usize,
    states: usize,
    data: Vec<f64>,
}

impl Default for TipTable {
    fn default() -> Self {
        TipTable::empty()
    }
}

/// The set of codes in `codes` as a bitmask: bit `c` set when code `c`
/// occurs. Alphabets have at most 64 codes.
pub fn code_set(codes: &[u8]) -> u64 {
    codes.iter().fold(0u64, |set, &c| set | 1u64 << c)
}

impl TipTable {
    /// An empty table holding no rows; a reusable seed for
    /// [`TipTable::rebuild`] on hot per-edge paths.
    pub const fn empty() -> TipTable {
        TipTable { rates: 0, states: 0, data: Vec::new() }
    }

    /// Builds the rows of every code from a per-rate transition matrix set
    /// (`pmatrix[rate · states² + i · states + j]`) and the alphabet's
    /// per-code state masks.
    pub fn build(layout: &Layout, pmatrix: &[f64], masks: &[u32]) -> TipTable {
        let mut t = TipTable::empty();
        let all = if masks.len() == 64 { u64::MAX } else { (1u64 << masks.len()) - 1 };
        t.rebuild(layout, pmatrix, masks, all);
        t
    }

    /// Rebuilds, in place, the rows of the codes in `codes` (a
    /// [`code_set`]) for a new edge. The allocation is reused whenever
    /// the dimensions allow, so callers that sweep many edges keep one
    /// table and allocate nothing per edge.
    ///
    /// Each entry sums `P[i][j]` over the set bits of the code's mask,
    /// `j` ascending from `0.0`: the additions, and so the bits, of a
    /// loop over every `j` that adds where the mask's bit is set.
    pub fn rebuild(&mut self, layout: &Layout, pmatrix: &[f64], masks: &[u32], codes: u64) {
        let (rates, states) = (layout.rates, layout.states);
        debug_assert_eq!(pmatrix.len(), layout.pmatrix_len());
        self.rates = rates;
        self.states = states;
        let len = masks.len() * rates * states;
        if self.data.len() != len {
            self.data.clear();
            self.data.resize(len, 0.0);
        }
        let mut left = codes;
        while left != 0 {
            let code = left.trailing_zeros() as usize;
            left &= left - 1;
            let mask = masks[code];
            let block = &mut self.data[code * rates * states..(code + 1) * rates * states];
            for (out, pm) in
                block.chunks_exact_mut(states).zip(pmatrix.chunks_exact(states * states))
            {
                for (o, row) in out.iter_mut().zip(pm.chunks_exact(states)) {
                    let mut sum = 0.0;
                    let mut bits = mask;
                    while bits != 0 {
                        sum += row[bits.trailing_zeros() as usize];
                        bits &= bits - 1;
                    }
                    *o = sum;
                }
            }
        }
    }

    /// The `[rate][state]` block for one character code.
    #[inline]
    pub fn code_block(&self, code: u8) -> &[f64] {
        let stride = self.rates * self.states;
        &self.data[code as usize * stride..(code as usize + 1) * stride]
    }

    /// The `states`-long vector for one (code, rate) pair.
    #[inline]
    pub fn code_rate(&self, code: u8, rate: usize) -> &[f64] {
        let base = code as usize * self.rates * self.states + rate * self.states;
        &self.data[base..base + self.states]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Identity P-matrix over 4 states, 1 rate.
    fn identity_pmatrix() -> Vec<f64> {
        let mut p = vec![0.0; 16];
        for i in 0..4 {
            p[i * 4 + i] = 1.0;
        }
        p
    }

    #[test]
    fn identity_concrete_codes() {
        let layout = Layout::new(1, 1, 4);
        let masks = [0b0001, 0b0010, 0b0100, 0b1000, 0b1111];
        let t = TipTable::build(&layout, &identity_pmatrix(), &masks);
        // Concrete code j: lookup[i] = P[i][j] = δ_ij.
        for code in 0..4u8 {
            let v = t.code_rate(code, 0);
            for i in 0..4 {
                assert_eq!(v[i], if i == code as usize { 1.0 } else { 0.0 });
            }
        }
        // Fully ambiguous: row sums of identity = 1 everywhere.
        assert_eq!(t.code_rate(4, 0), &[1.0; 4]);
    }

    #[test]
    fn ambiguity_is_sum_of_columns() {
        let layout = Layout::new(1, 1, 4);
        // An arbitrary stochastic matrix.
        let p = vec![
            0.7, 0.1, 0.1, 0.1, //
            0.2, 0.5, 0.2, 0.1, //
            0.1, 0.2, 0.6, 0.1, //
            0.05, 0.05, 0.1, 0.8,
        ];
        let masks = [0b0001, 0b0010, 0b0100, 0b1000, 0b0101 /* A|G */];
        let t = TipTable::build(&layout, &p, &masks);
        for i in 0..4 {
            let expect = p[i * 4] + p[i * 4 + 2];
            assert!((t.code_rate(4, 0)[i] - expect).abs() < 1e-15);
        }
    }

    #[test]
    fn multi_rate_blocks() {
        let layout = Layout::new(1, 2, 4);
        let mut p = identity_pmatrix();
        // Second rate category: uniform 0.25 matrix.
        p.extend(std::iter::repeat_n(0.25, 16));
        let masks = [0b0001, 0b0010, 0b0100, 0b1000];
        let t = TipTable::build(&layout, &p, &masks);
        assert_eq!(t.code_rate(0, 0), &[1.0, 0.0, 0.0, 0.0]);
        assert_eq!(t.code_rate(0, 1), &[0.25; 4]);
        assert_eq!(t.code_block(0).len(), 8);
    }

    #[test]
    fn rebuild_reuses_allocation_and_builds_only_the_codes_asked_for() {
        let layout = Layout::new(1, 2, 4);
        let mut p1 = identity_pmatrix();
        p1.extend(std::iter::repeat_n(0.25, 16));
        let mut p2 = vec![0.1; 32];
        for i in 0..4 {
            p2[i * 4 + i] = 0.7;
            p2[16 + i * 4 + i] = 0.4;
        }
        let masks = [0b0001, 0b0010, 0b0100, 0b1000, 0b1111];
        let mut t = TipTable::build(&layout, &p1, &masks);
        let ptr = t.data.as_ptr();
        let codes = code_set(&[4, 1, 4]);
        assert_eq!(codes, 0b10010);
        t.rebuild(&layout, &p2, &masks, codes);
        assert_eq!(t.data.as_ptr(), ptr, "same-shape rebuild must not reallocate");
        let fresh = TipTable::build(&layout, &p2, &masks);
        for code in [1u8, 4] {
            assert_eq!(t.code_block(code), fresh.code_block(code));
        }
        // Codes outside the set keep the earlier edge's rows.
        let old = TipTable::build(&layout, &p1, &masks);
        assert_eq!(t.code_block(0), old.code_block(0));
    }
}
