//! The heap a run really uses follows the memory planner: a chunk costs
//! its queries' bytes and their kept candidate lists, and nothing per
//! (query × branch) pair. A counting global allocator records the peak
//! of live heap bytes while the same queries are placed at the floor
//! budget twice — in chunks of 8 and in one chunk. On this reference a
//! (query × branch) f64 matrix would make the two peaks differ by more
//! than 1 MiB; the planner's chunk term (`memplan::chunk_bytes`) says
//! they differ by a few KiB, and the allocator must agree.
//!
//! This binary holds exactly one test so no concurrent test thread can
//! pollute the counters.

use std::alloc::{GlobalAlloc, Layout as AllocLayout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct PeakAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: AllocLayout) -> *mut u8 {
        grow(layout.size());
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: AllocLayout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: AllocLayout, new_size: usize) -> *mut u8 {
        grow(new_size);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: PeakAlloc = PeakAlloc;

use epa_place::candidates::{candidate_count, TopCandidates};
use epa_place::{memplan, EpaConfig, Placer, QueryBatch};
use phylo_engine::ReferenceContext;
use phylo_models::{dna, DiscreteGamma, SubstModel};
use phylo_seq::alphabet::AlphabetKind;
use phylo_seq::{compress, Msa, Sequence};
use phylo_tree::{generate, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const LEAVES: usize = 700;
const SITES: usize = 24;
const QUERIES: usize = 104;

fn setup() -> (ReferenceContext, Vec<u32>, QueryBatch) {
    let mut rng = StdRng::seed_from_u64(28);
    let tree = generate::yule(LEAVES, 0.1, &mut rng).unwrap();
    let rows: Vec<Sequence> = (0..LEAVES)
        .map(|i| {
            let text: String =
                (0..SITES).map(|_| b"ACGT"[rng.gen_range(0..4usize)] as char).collect();
            Sequence::from_text(tree.taxon(NodeId(i as u32)), AlphabetKind::Dna, &text).unwrap()
        })
        .collect();
    let msa = Msa::new(rows).unwrap();
    let patterns = compress(&msa).unwrap();
    let s2p = patterns.site_to_pattern().to_vec();
    let queries: Vec<Sequence> = (0..QUERIES)
        .map(|i| {
            let codes: Vec<u8> = msa
                .row(rng.gen_range(0..LEAVES))
                .codes()
                .iter()
                .map(|&c| if rng.gen_bool(0.1) { rng.gen_range(0..4) } else { c })
                .collect();
            Sequence::from_codes(format!("q{i}"), AlphabetKind::Dna, codes).unwrap()
        })
        .collect();
    let batch = QueryBatch::new(&queries, SITES).unwrap();
    let model = SubstModel::new(&dna::jc69(), DiscreteGamma::none()).unwrap();
    let ctx = ReferenceContext::new(tree, model, AlphabetKind::Dna.alphabet(), &patterns).unwrap();
    (ctx, s2p, batch)
}

/// Peak live heap bytes of placing `batch` at the floor budget of
/// `chunk_size`, above what was live before the run, and the budget.
fn floor_run_peak(chunk_size: usize) -> (usize, usize) {
    let (ctx, s2p, batch) = setup();
    let probe = EpaConfig { chunk_size, ..Default::default() };
    let floor = memplan::floor_budget(&ctx, &probe, batch.len(), batch.n_sites());
    let placer = Placer::new(ctx, s2p, EpaConfig { max_memory: Some(floor), ..probe }).unwrap();
    let base = LIVE.load(Ordering::SeqCst);
    PEAK.store(base, Ordering::SeqCst);
    let (results, report) = placer.place(&batch).unwrap();
    let peak = PEAK.load(Ordering::SeqCst) - base;
    assert_eq!(results.len(), QUERIES);
    assert!(!report.used_lookup, "the floor holds no lookup table");
    (peak, floor)
}

#[test]
fn chunk_heap_grows_with_the_kept_lists_not_the_branches() {
    let branches = 2 * LEAVES - 3;
    let k = candidate_count(branches, 0.01, 2);
    assert_eq!((k, TopCandidates::ENTRY_BYTES), (14, 16));
    let delta_chunk = QUERIES - 8;
    let matrix_delta = delta_chunk * branches * 8;
    assert!(matrix_delta >= 1 << 20, "the reference must make a matrix cost ≥ 1 MiB");

    let (small_peak, small_floor) = floor_run_peak(8);
    let (big_peak, big_floor) = floor_run_peak(QUERIES);
    // The planner's view: the floors differ by exactly the chunk term.
    let planned = delta_chunk * (SITES + k * TopCandidates::ENTRY_BYTES);
    assert_eq!(big_floor - small_floor, planned);
    // The allocator's view may exceed the plan only by the per-query
    // bookkeeping around the kept lists, which the plan leaves out: a
    // selector's own 40 B, the candidate list it is taken into
    // (24 B + k × 4 B) and its share of the by-branch grouping (k × 8 B,
    // doubled for `Vec` growth) — plus 16 KiB for the thorough phase's
    // per-block work lists, whose size follows which branches were picked.
    let slack = delta_chunk * (64 + k * (4 + 2 * 8)) + (16 << 10);
    let grew = big_peak.saturating_sub(small_peak);
    assert!(
        grew <= planned + slack,
        "one chunk of {QUERIES} peaked {grew} B above chunks of 8 \
         (planned {planned} B + slack {slack} B; a matrix would be {matrix_delta} B)"
    );
    assert!((planned + slack) * 8 < matrix_delta, "the bound must be far below a matrix");
}
