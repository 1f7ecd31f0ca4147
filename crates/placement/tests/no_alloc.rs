//! Steady-state scoring must not touch the heap. A counting global
//! allocator wraps the system allocator; after one warm-up pass fills the
//! reusable scratch buffers, further partials / single-query evaluator /
//! thorough-score evaluations — and what the lookup build and the
//! prescore sweep run per branch: partials, an in-place table rebuild at
//! the sweep's hoisted pendant length, a table prescore, a chunk prescore
//! through the once-per-branch log row — must perform **zero**
//! allocations, for DNA and for protein (`S = 20`, Γ4). Thorough scoring
//! includes its three partials buffers: the held position's and the two
//! live points of the attachment search, swapped, never reallocated.
//!
//! This binary holds exactly one test so no concurrent test thread can
//! pollute the counters.

use std::alloc::{GlobalAlloc, Layout as AllocLayout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct CountingAlloc;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: AllocLayout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: AllocLayout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: AllocLayout, new_size: usize) -> *mut u8 {
        // A realloc may move: count it as an allocation event too.
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

use epa_place::score::{
    attachment_partials_into, score_thorough, AttachmentPartials, BranchScoreTable, QueryEvaluator,
    ScoreScratch,
};
use phylo_engine::{ManagedStore, ReferenceContext};
use phylo_models::gamma::GammaMode;
use phylo_models::{aa, dna, DiscreteGamma, SubstModel};
use phylo_seq::alphabet::AlphabetKind;
use phylo_seq::{compress, Msa, Sequence};
use phylo_tree::{generate, DirEdgeId, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const AA: &[u8] = b"ARNDCQEGHILKMFPSTWYV";

fn setup(kind: AlphabetKind, n: usize, sites: usize, seed: u64) -> (ReferenceContext, Vec<u32>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let tree = generate::yule(n, 0.1, &mut rng).unwrap();
    let (letters, rate_matrix) = match kind {
        AlphabetKind::Dna => (&b"ACGT"[..], dna::jc69()),
        AlphabetKind::Protein => (AA, aa::synthetic_aa(seed).unwrap()),
    };
    let rows: Vec<Sequence> = (0..n)
        .map(|i| {
            let text: String =
                (0..sites).map(|_| letters[rng.gen_range(0..letters.len())] as char).collect();
            Sequence::from_text(tree.taxon(NodeId(i as u32)), kind, &text).unwrap()
        })
        .collect();
    let patterns = compress(&Msa::new(rows).unwrap()).unwrap();
    let s2p = patterns.site_to_pattern().to_vec();
    let gamma = DiscreteGamma::new(0.7, 4, GammaMode::Mean).unwrap();
    let model = SubstModel::new(&rate_matrix, gamma).unwrap();
    let ctx = ReferenceContext::new(tree, model, kind.alphabet(), &patterns).unwrap();
    (ctx, s2p)
}

#[test]
fn steady_state_scoring_is_allocation_free() {
    // One test, both alphabets in turn: the counter is process-wide.
    for kind in [AlphabetKind::Dna, AlphabetKind::Protein] {
        steady_state(kind);
    }
}

fn steady_state(kind: AlphabetKind) {
    let (ctx, s2p) = setup(kind, 12, 60, 7);
    let states = ctx.layout().states;
    let store = ManagedStore::full(&ctx);
    let mut scratch = ScoreScratch::new(&ctx);
    let mut partials = AttachmentPartials::empty();
    let n_sites = s2p.len();
    // Concrete residues, gaps and an ambiguity code: the evaluator's
    // column path and both of its whole-row paths.
    let ambiguity = match kind {
        AlphabetKind::Dna => b'R',
        AlphabetKind::Protein => b'B',
    };
    let (gap, ambig) = (ctx.alphabet().unknown_code(), ctx.alphabet().encode(ambiguity).unwrap());
    assert!(ambig as usize >= states && ambig != gap, "not an ambiguity code");
    let codes: Vec<u8> = (0..n_sites)
        .map(|i| match i % 7 {
            5 => gap,
            6 => ambig,
            _ => ((i * 5 + 1) % states) as u8,
        })
        .collect();
    let mut evaluator = QueryEvaluator::new(&ctx);
    // What a sweep holds: the pendant matrices, built once, and a table
    // rebuilt in place branch after branch.
    let mut pendant_eval = QueryEvaluator::new(&ctx);
    pendant_eval.set_pendant(&ctx, 0.1);
    let mut table = BranchScoreTable::empty();
    // Enough queries that together they read more entries than a table
    // holds: the chunk prescore goes through the log row.
    let chunk: Vec<&[u8]> = vec![&codes; 2 + ctx.layout().patterns * (states + 1) / n_sites];
    let mut log_row = Vec::new();
    let mut chunk_scores = vec![0.0; chunk.len()];
    let edges: Vec<_> = ctx.tree().all_edges().take(4).collect();

    // Pin every tested orientation once, then warm up all code paths so
    // the reusable buffers reach their steady-state capacity.
    let dirs: Vec<DirEdgeId> =
        edges.iter().flat_map(|&e| [DirEdgeId::new(e, 0), DirEdgeId::new(e, 1)]).collect();
    let prepared = store.prepare(&ctx, &dirs).unwrap();
    for &e in &edges {
        attachment_partials_into(&ctx, &store, e, 0.37, &mut scratch, &mut partials);
        evaluator.set_pendant(&ctx, 0.2);
        evaluator.score(&ctx, &partials, &s2p, &codes);
        table.rebuild(&ctx, &partials, &pendant_eval);
        table.prescore(&ctx, &s2p, &codes);
        table.prescore_chunk(&ctx, &s2p, chunk.iter().copied(), &mut log_row, |_, _| ());
        score_thorough(&ctx, &store, e, &s2p, &codes, &mut scratch).unwrap();
    }
    assert!(!log_row.is_empty(), "{kind:?}: the chunk prescore took the direct walk");

    // Steady state: the same evaluations must not allocate at all.
    let mut lls = Vec::with_capacity(4 * edges.len());
    let before = ALLOCS.load(Ordering::SeqCst);
    for &e in &edges {
        attachment_partials_into(&ctx, &store, e, 0.62, &mut scratch, &mut partials);
        evaluator.set_pendant(&ctx, 0.05);
        lls.push(evaluator.score(&ctx, &partials, &s2p, &codes));
        // The sweep round, at the midpoint as the sweeps run it (one set
        // of half-branch matrices for both sides).
        attachment_partials_into(&ctx, &store, e, 0.5, &mut scratch, &mut partials);
        table.rebuild(&ctx, &partials, &pendant_eval);
        lls.push(table.prescore(&ctx, &s2p, &codes));
        table.prescore_chunk(&ctx, &s2p, chunk.iter().copied(), &mut log_row, |q, v| {
            chunk_scores[q] = v
        });
        lls.push(chunk_scores[chunk.len() - 1]);
        let sp = score_thorough(&ctx, &store, e, &s2p, &codes, &mut scratch).unwrap();
        lls.push(sp.log_likelihood);
    }
    let after = ALLOCS.load(Ordering::SeqCst);
    assert_eq!(
        after - before,
        0,
        "{kind:?}: steady-state scoring allocated {} times",
        after - before
    );
    // Sanity: the scores are real likelihoods, not garbage.
    for ll in lls {
        assert!(ll.is_finite() && ll < 0.0, "{kind:?}: implausible log-likelihood {ll}");
    }
    store.release(prepared);
}
