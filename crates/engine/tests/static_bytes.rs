//! The reference's static accounting tells the truth. `static_split()` —
//! the `StaticData` term of every memory plan and the `mem.static.*`
//! gauges — equals the heap bytes a context's tables hold, measured by a
//! counting allocator around the context's construction and around the
//! benchmark probe's `pmatrix(e)`: a table that is added or grows without
//! being counted fails here. The split also follows from the tables'
//! lengths: codes bit-packed at `⌈log₂ n_codes⌉` bits, one word-aligned
//! row per leaf; four bytes per pattern weight; one register-need byte
//! per directed edge; no `pmatrix` cells until the first call. And the
//! packed codes round-trip every code of both alphabets.

use std::alloc::{GlobalAlloc, Layout as AllocLayout, System};
use std::cell::Cell;

/// Heap bytes live on this thread: allocated here minus freed here.
/// Per thread, so that the harness's concurrent tests do not mix.
struct LiveBytes;

thread_local! {
    static LIVE: Cell<isize> = const { Cell::new(0) };
}

fn add_live(bytes: isize) {
    let _ = LIVE.try_with(|live| live.set(live.get() + bytes));
}

fn live() -> isize {
    LIVE.with(Cell::get)
}

unsafe impl GlobalAlloc for LiveBytes {
    unsafe fn alloc(&self, layout: AllocLayout) -> *mut u8 {
        add_live(layout.size() as isize);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: AllocLayout) {
        add_live(-(layout.size() as isize));
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: AllocLayout, new_size: usize) -> *mut u8 {
        add_live(new_size as isize - layout.size() as isize);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: LiveBytes = LiveBytes;

use phylo_engine::ReferenceContext;
use phylo_kernel::tips::code_set;
use phylo_models::gamma::GammaMode;
use phylo_models::{aa, dna, DiscreteGamma, SubstModel};
use phylo_seq::alphabet::AlphabetKind;
use phylo_seq::{compress, Msa, PatternMsa, Sequence};
use phylo_tree::{generate, EdgeId, NodeId, Tree};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A Yule tree over `n` leaves and an alignment of `sites` columns drawn
/// from every code of the alphabet (ambiguities and `N` / `X` included),
/// with gap characters mixed in.
fn inputs(kind: AlphabetKind, n: usize, sites: usize, seed: u64) -> (Tree, PatternMsa) {
    let mut rng = StdRng::seed_from_u64(seed);
    let tree = generate::yule(n, 0.1, &mut rng).unwrap();
    let n_codes = kind.alphabet().n_codes() as u8;
    let rows: Vec<Sequence> = (0..n)
        .map(|i| {
            let codes = (0..sites).map(|_| rng.gen_range(0..n_codes)).collect();
            let mut row = Sequence::from_codes(tree.taxon(NodeId(i as u32)), kind, codes).unwrap();
            if i % 3 == 0 {
                // Gaps, read through the text encoder.
                let text: String = kind
                    .alphabet()
                    .decode_str(row.codes())
                    .chars()
                    .enumerate()
                    .map(|(s, c)| if s % 4 == 1 { '-' } else { c })
                    .collect();
                row = Sequence::from_text(row.name(), kind, &text).unwrap();
            }
            row
        })
        .collect();
    (tree, compress(&Msa::new(rows).unwrap()).unwrap())
}

fn model(kind: AlphabetKind) -> SubstModel {
    let gamma = DiscreteGamma::new(0.5, 4, GammaMode::Mean).unwrap();
    match kind {
        AlphabetKind::Dna => SubstModel::new(&dna::jc69(), gamma),
        AlphabetKind::Protein => SubstModel::new(&aa::synthetic_aa(7).unwrap(), gamma),
    }
    .unwrap()
}

/// Builds a context and returns it with the heap bytes its construction
/// left live on this thread.
fn measured(kind: AlphabetKind, tree: Tree, patterns: &PatternMsa) -> (ReferenceContext, isize) {
    let model = model(kind);
    let before = live();
    let ctx = ReferenceContext::new(tree, model, kind.alphabet(), patterns).unwrap();
    (ctx, live() - before)
}

/// Bits per packed code.
fn code_bits(kind: AlphabetKind) -> usize {
    (usize::BITS - (kind.alphabet().n_codes() - 1).leading_zeros()) as usize
}

#[test]
fn the_split_is_the_heap_the_tables_hold() {
    for kind in [AlphabetKind::Dna, AlphabetKind::Protein] {
        // One context first, so that what a process builds once (the
        // alphabet, the kernel-tier and SIMD-backend choices) is not
        // counted against the next.
        let (tree, patterns) = inputs(kind, 5, 7, 1);
        let _ = measured(kind, tree, &patterns);
        for (n, sites, seed) in [(3, 1, 2), (37, 61, 3), (120, 233, 4)] {
            let (tree, patterns) = inputs(kind, n, sites, seed);
            let n_dir_edges = tree.n_dir_edges();
            let (ctx, held) = measured(kind, tree, &patterns);
            let split = ctx.static_split();
            assert_eq!(
                held,
                ctx.approx_bytes() as isize,
                "{kind:?}, {n} leaves: construction left {held} B live, the split counts {split:?}"
            );
            let p = ctx.layout().patterns;
            let per_word = 64 / code_bits(kind);
            assert_eq!(
                split,
                [
                    ("pmatrices", 0),
                    ("tip_codes", n * p.div_ceil(per_word) * 8),
                    ("pattern_weights", p * 4),
                    ("register_need", n_dir_edges),
                ],
                "{kind:?}, {n} leaves × {p} patterns"
            );
        }
    }
}

#[test]
fn pmatrix_cells_exist_only_once_asked_for() {
    for kind in [AlphabetKind::Dna, AlphabetKind::Protein] {
        let (tree, patterns) = inputs(kind, 24, 40, 5);
        let ctx = ReferenceContext::new(tree, model(kind), kind.alphabet(), &patterns).unwrap();
        let pmatrices = |ctx: &ReferenceContext| ctx.static_split()[0];
        assert_eq!(pmatrices(&ctx), ("pmatrices", 0), "{kind:?}");
        let matrix = ctx.layout().pmatrix_len() * 8;
        let cells = ctx.tree().n_edges() * std::mem::size_of::<std::sync::OnceLock<Box<[f64]>>>();
        let mut built = 0;
        for e in [3, 3, 0, 17].map(EdgeId) {
            let (before, counted) = (live(), ctx.approx_bytes());
            let _ = ctx.pmatrix(e);
            let grew = live() - before;
            assert_eq!(grew, (ctx.approx_bytes() - counted) as isize, "{kind:?}, {e:?}");
            if grew > 0 {
                built += 1;
            }
            assert_eq!(pmatrices(&ctx), ("pmatrices", cells + built * matrix), "{kind:?}, {e:?}");
        }
        // Edge 3's second call found its matrices.
        assert_eq!(built, 3, "{kind:?}");
    }
}

#[test]
fn packed_codes_round_trip_every_code() {
    for kind in [AlphabetKind::Dna, AlphabetKind::Protein] {
        let per_word = 64 / code_bits(kind);
        let mut partial_words = 0;
        for (i, sites) in [1, 11, 12, 16, 17, 25, 31, 48, 97].into_iter().enumerate() {
            let (tree, patterns) = inputs(kind, 9, sites, 10 + i as u64);
            let ctx = ReferenceContext::new(tree, model(kind), kind.alphabet(), &patterns).unwrap();
            let p = ctx.layout().patterns;
            if !p.is_multiple_of(per_word) {
                partial_words += 1;
            }
            // Written over a longer row of junk, as a warm scratch row is.
            let mut row = vec![0xEE; p + 5];
            let mut seen = 0u64;
            for leaf in 0..ctx.tree().n_leaves() {
                let leaf = NodeId(leaf as u32);
                let want = patterns.row(patterns.row_by_name(ctx.tree().taxon(leaf)).unwrap());
                let set = ctx.tip_codes_into(leaf, &mut row);
                assert_eq!(row, want, "{kind:?}, {p} patterns, {leaf:?}");
                assert_eq!(set, code_set(want), "{kind:?}, {p} patterns, {leaf:?}");
                seen |= set;
            }
            if sites >= 97 {
                // Every code occurs somewhere at this width: the largest
                // code survives the round trip too.
                assert_eq!(seen, (1u64 << kind.alphabet().n_codes()) - 1, "{kind:?}");
            }
        }
        assert!(partial_words > 0, "{kind:?}: no pattern count left a word partly filled");
    }
}
