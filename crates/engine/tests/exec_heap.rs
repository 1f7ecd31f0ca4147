//! Executing a CLV schedule allocates nothing once the kernel scratch is
//! warm. Every prepare at the floor runs one, and a step with a tip child
//! builds that leaf's tip rows into the scratch: neither the step's view
//! of its child slots nor the rows may reach the heap. A counting global
//! allocator counts the allocations made inside `execute_ops` alone,
//! over a second sweep of every branch of a DNA reference with IUPAC
//! codes and gaps, and of a protein one.
//!
//! This binary holds exactly one test so no concurrent test thread can
//! pollute the counter.

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
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

use phylo_amc::{ensure_resident, StrategyKind};
use phylo_engine::{exec, ManagedStore, ReferenceContext};
use phylo_kernel::KernelScratch;
use phylo_models::{aa, dna, DiscreteGamma, SubstModel};
use phylo_seq::alphabet::AlphabetKind;
use phylo_seq::{compress, Msa, Sequence};
use phylo_tree::{generate, DirEdgeId, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn context(kind: AlphabetKind, chars: &[u8], seed: u64) -> ReferenceContext {
    let (n, sites) = (40, 60);
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
    let gamma = DiscreteGamma::new(0.5, 4, phylo_models::gamma::GammaMode::Mean).unwrap();
    let model = match kind {
        AlphabetKind::Dna => SubstModel::new(&dna::jc69(), gamma),
        AlphabetKind::Protein => SubstModel::new(&aa::synthetic_aa(7).unwrap(), gamma),
    }
    .unwrap();
    ReferenceContext::new(tree, model, kind.alphabet(), &patterns).unwrap()
}

/// Prepares both orientations of every branch at the slot floor, running
/// each schedule through `execute_ops`; returns the allocations made
/// inside those calls and the number of ops with a tip child.
fn sweep(
    ctx: &ReferenceContext,
    store: &ManagedStore,
    scratch: &mut KernelScratch,
) -> (usize, usize) {
    let mgr = store.arena().manager();
    let (mut allocs, mut tip_ops) = (0, 0);
    for e in ctx.tree().all_edges() {
        let dirs = [DirEdgeId::new(e, 0), DirEdgeId::new(e, 1)];
        let mut rs = ensure_resident(ctx.tree(), &dirs, mgr, ctx.register_need()).unwrap();
        tip_ops += rs
            .ops
            .iter()
            .filter(|op| op.deps.iter().any(|d| matches!(d, phylo_amc::DepSource::Tip(_))))
            .count();
        let before = ALLOCS.load(Ordering::SeqCst);
        exec::execute_ops(ctx, store.arena(), &rs.ops, scratch).unwrap();
        allocs += ALLOCS.load(Ordering::SeqCst) - before;
        rs.release_exec(mgr);
        rs.release(mgr);
    }
    (allocs, tip_ops)
}

#[test]
fn warm_schedule_execution_allocates_nothing() {
    let dna = context(AlphabetKind::Dna, b"ACGTACGTACGTRYN-", 3);
    let protein = context(AlphabetKind::Protein, b"ARNDCQEGHILKMFPSTWYVBZX-", 4);
    for ctx in [&dna, &protein] {
        let store =
            ManagedStore::with_slots(ctx, ctx.min_slots() + 4, StrategyKind::CostBased).unwrap();
        let mut scratch = KernelScratch::for_layout(ctx.layout());
        // The first sweep warms the scratch (tip rows at full size) and
        // registers the engine's probes.
        sweep(ctx, &store, &mut scratch);
        let (allocs, tip_ops) = sweep(ctx, &store, &mut scratch);
        assert!(tip_ops > 0, "the floor must recompute CLVs with tip children");
        assert_eq!(allocs, 0, "{} states: warm execute_ops allocated", ctx.layout().states);
        assert!(store.stats().evictions > 0, "the sweep must run at the floor");
    }
}
