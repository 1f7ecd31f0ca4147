//! Transition matrices are built per use, not held per edge. The
//! reference's static data has no `edges × rates × states²` term; the
//! matrices an edge-likelihood side builds from the edge's length are the
//! bits of the benchmark probe's lazy `pmatrix(e)`; and the protein
//! `P(t)` build has the same bits under AVX2 code generation as without.

use phylo_engine::{ManagedStore, ReferenceContext};
use phylo_kernel::simd::{backend, SimdBackend};
use phylo_kernel::TipTable;
use phylo_models::gamma::GammaMode;
use phylo_models::{aa, dna, DiscreteGamma, SubstModel};
use phylo_seq::alphabet::AlphabetKind;
use phylo_seq::{compress, Msa, Sequence};
use phylo_tree::{generate, DirEdgeId, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn gamma(categories: usize) -> DiscreteGamma {
    if categories == 1 {
        DiscreteGamma::none()
    } else {
        DiscreteGamma::new(0.5, categories, GammaMode::Mean).unwrap()
    }
}

/// A 40-leaf Yule reference over 60 random sites, the same tree and
/// alignment for a given seed whatever the model.
fn context(kind: AlphabetKind, categories: usize, seed: u64) -> ReferenceContext {
    let (n, sites) = (40, 60);
    let chars: &[u8] = match kind {
        AlphabetKind::Dna => b"ACGTRYN-",
        AlphabetKind::Protein => b"ARNDCQEGHILKMFPSTWYVX-",
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let tree = generate::yule(n, 0.1, &mut rng).unwrap();
    let rows: Vec<Sequence> = (0..n)
        .map(|i| {
            let text: String =
                (0..sites).map(|_| chars[rng.gen_range(0..chars.len())] as char).collect();
            Sequence::from_text(tree.taxon(NodeId(i as u32)), kind, &text).unwrap()
        })
        .collect();
    let patterns = compress(&Msa::new(rows).unwrap()).unwrap();
    let model = match kind {
        AlphabetKind::Dna => SubstModel::new(&dna::jc69(), gamma(categories)),
        AlphabetKind::Protein => SubstModel::new(&aa::synthetic_aa(7).unwrap(), gamma(categories)),
    }
    .unwrap();
    ReferenceContext::new(tree, model, kind.alphabet(), &patterns).unwrap()
}

#[test]
fn static_data_has_no_edges_by_rates_by_states_squared_term() {
    for kind in [AlphabetKind::Dna, AlphabetKind::Protein] {
        let one = context(kind, 1, 5);
        let four = context(kind, 4, 5);
        // Three more rate categories hold three more matrices per edge
        // wherever matrices are held per edge.
        assert_eq!(
            four.approx_bytes(),
            one.approx_bytes(),
            "{kind:?}: static data grows with rates × states²: {:?} vs {:?}",
            four.static_split(),
            one.static_split()
        );
        let table = four.tree().n_edges() * four.layout().pmatrix_len() * 8;
        assert!(four.approx_bytes() < table, "{kind:?}: {} B", four.approx_bytes());
    }
}

#[test]
fn matrices_built_per_use_are_the_lazy_pmatrix_bit_for_bit() {
    for kind in [AlphabetKind::Dna, AlphabetKind::Protein] {
        let ctx = context(kind, 4, 6);
        let store = ManagedStore::full(&ctx);
        let bits = |p: &[f64]| p.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let (mut pmatrix, mut tip) = (vec![0.0; ctx.layout().pmatrix_len()], TipTable::empty());
        let unbuilt = ctx.approx_bytes();
        for e in ctx.tree().all_edges() {
            let dirs = [DirEdgeId::new(e, 0), DirEdgeId::new(e, 1)];
            let block = store.prepare(&ctx, &dirs).unwrap();
            for d in dirs {
                pmatrix.fill(f64::NAN);
                let _ = store.kernel_side(&ctx, d, &mut pmatrix, &mut tip);
                assert_eq!(bits(&pmatrix), bits(ctx.pmatrix(e)), "{kind:?}, {d:?}");
            }
            store.release(block);
        }
        // Each edge asked for is built once and counted from then on.
        let built = ctx.tree().n_edges() * ctx.layout().pmatrix_len() * 8;
        assert_eq!(ctx.approx_bytes(), unbuilt + built, "{kind:?}");
    }
}

#[test]
fn protein_p_matrices_have_the_same_bits_under_avx2() {
    if backend() != SimdBackend::Avx2 {
        eprintln!("skipped: the SIMD backend did not select AVX2 on this host");
        return;
    }
    let mut rng = StdRng::seed_from_u64(37);
    let portable = SubstModel::new(&aa::synthetic_aa(7).unwrap(), gamma(4)).unwrap();
    let mut avx2 = portable.clone();
    // SAFETY: the SIMD backend verified AVX2 at runtime.
    unsafe { avx2.set_avx2_fill(true) };
    let len = portable.n_rates() * 20 * 20;
    let (mut want, mut got) = (vec![0.0; len], vec![0.0; len]);
    let fixed = [0.0, 1e-8, 1e-6, 1e-4, 1e-2, 0.1, 1.0, 10.0, 50.0];
    let random = (0..1000).map(|_| 10f64.powf(rng.gen_range(-8.0..1.7)));
    for t in fixed.into_iter().chain(random) {
        portable.transition_matrices(t, &mut want);
        got.fill(-1.0);
        avx2.transition_matrices(t, &mut got);
        let bits = |p: &[f64]| p.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&got), bits(&want), "t = {t}");
    }
}
