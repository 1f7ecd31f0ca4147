//! Tip rows built per operation, for the codes a leaf uses, are the rows
//! of the all-code table the reference once held per pendant edge, bit
//! for bit — signed zeros included. The oracle is that table's loop:
//! every code, every `j`, adding `P[i][j]` where the code's mask has bit
//! `j` set.

use phylo_kernel::tips::code_set;
use phylo_kernel::{Layout, TipTable};
use phylo_seq::alphabet::AlphabetKind;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The all-code table, `[code][rate][state]`, by the bit-test loop.
fn all_code_table(layout: &Layout, pmatrix: &[f64], masks: &[u32]) -> Vec<f64> {
    let (rates, states) = (layout.rates, layout.states);
    let mut data = vec![0.0; masks.len() * rates * states];
    for (code, &mask) in masks.iter().enumerate() {
        for r in 0..rates {
            let pm = &pmatrix[r * states * states..(r + 1) * states * states];
            for i in 0..states {
                let mut sum = 0.0;
                let row = &pm[i * states..(i + 1) * states];
                for (j, &p) in row.iter().enumerate() {
                    if (mask >> j) & 1 == 1 {
                        sum += p;
                    }
                }
                data[(code * rates + r) * states + i] = sum;
            }
        }
    }
    data
}

/// Transition matrices with arbitrary magnitudes and exact zeros of both
/// signs, so that every rounding and every signed-zero sum shows.
fn random_pmatrix(layout: &Layout, rng: &mut StdRng) -> Vec<f64> {
    (0..layout.pmatrix_len())
        .map(|_| match rng.gen_range(0..8) {
            0 => 0.0,
            1 => -0.0,
            2 => rng.gen_range(1e-300..1e-280),
            _ => rng.gen_range(0.0..1.0) * 10f64.powi(rng.gen_range(-12..2)),
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn per_op_rows_equal_the_all_code_table_bit_for_bit(
        seed in 0u64..u64::MAX,
        protein in 0usize..2,
        rates in 1usize..5,
        n_codes in 1usize..40,
    ) {
        let kind = if protein == 1 { AlphabetKind::Protein } else { AlphabetKind::Dna };
        let alphabet = kind.alphabet();
        let masks = alphabet.state_masks();
        let layout = Layout::new(1, rates, alphabet.states());
        let mut rng = StdRng::seed_from_u64(seed);
        // A leaf's codes: any of the alphabet's, ambiguity, gap and `X`
        // included; the unknown code on some leaves, every code on others.
        let mut leaf: Vec<u8> =
            (0..n_codes).map(|_| rng.gen_range(0..alphabet.n_codes()) as u8).collect();
        if rng.gen_bool(0.3) {
            leaf.push(alphabet.unknown_code());
        }
        if rng.gen_bool(0.2) {
            leaf.extend(0..alphabet.n_codes() as u8);
        }
        let codes = code_set(&leaf);
        let pmatrix = random_pmatrix(&layout, &mut rng);
        let want = all_code_table(&layout, &pmatrix, masks);
        // Built over an earlier edge's rows, as a scratch table is.
        let mut rows = TipTable::build(&layout, &random_pmatrix(&layout, &mut rng), masks);
        rows.rebuild(&layout, &pmatrix, masks, codes);
        let block = rates * alphabet.states();
        for code in 0..alphabet.n_codes() as u8 {
            if (codes >> code) & 1 == 0 {
                prop_assert!(!leaf.contains(&code));
                continue;
            }
            let got = rows.code_block(code);
            let want = &want[code as usize * block..(code as usize + 1) * block];
            for (k, (a, b)) in got.iter().zip(want).enumerate() {
                prop_assert_eq!(
                    a.to_bits(), b.to_bits(),
                    "{:?} code {} rate {} state {}: {} vs {}",
                    kind, code, k / alphabet.states(), k % alphabet.states(), a, b
                );
            }
        }
        // The all-code build is the oracle's table outright.
        let full = TipTable::build(&layout, &pmatrix, masks);
        for code in 0..alphabet.n_codes() as u8 {
            let want = &want[code as usize * block..(code as usize + 1) * block];
            let bits = |s: &[f64]| s.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(full.code_block(code)), bits(want));
        }
    }
}
