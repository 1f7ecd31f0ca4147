//! The sweeps' extra threads allocate nothing large. Every thread's
//! scratch and the lookup table's storage are allocated on the calling
//! thread before a sweep starts; a thread the sweep starts only prepares
//! blocks and scores units into buffers it was handed. Memory a second
//! thread allocates lands in a second malloc arena, which the process
//! keeps at its peak, so a per-thread scratch sized lazily on first use
//! shows up in the resident set although the planner never charged it.
//!
//! A tagging global allocator records the peak of live heap bytes that
//! threads other than the caller allocated while the bench-scale
//! `serratus` reference — few, wide protein CLVs — is placed on two
//! threads at the floor budget (swept prescore) and at the lookup-floor
//! budget (lookup build, lookup prescore). It must stay below the size of
//! one CLV, and indeed of one branch's score table, the smallest buffer a
//! scoring thread uses (a quarter of a CLV here). What a thread that prepares a block does allocate is the
//! slot planner's own bookkeeping, which grows with the plan, not with a
//! CLV; at ci scale, where a `pro_ref` CLV is 5 KiB, that bookkeeping
//! alone is larger than a CLV, so the bound is checked where CLVs are the
//! memory that matters.
//!
//! This binary holds exactly one test so no concurrent test thread can
//! pollute the counters.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// Prefixes every block with its size and whether a thread other than
/// the caller allocated it, so a free on any thread settles the account.
struct TaggingAlloc;

/// Header bytes before a block of alignment `align`: room for the size
/// and the tag, rounded to the alignment.
fn header(align: usize) -> usize {
    align.max(16)
}

static ARMED: AtomicBool = AtomicBool::new(false);
static OTHER_LIVE: AtomicUsize = AtomicUsize::new(0);
static OTHER_PEAK: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static CALLER: Cell<bool> = const { Cell::new(false) };
}

unsafe impl GlobalAlloc for TaggingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let h = header(layout.align());
        let full = Layout::from_size_align_unchecked(layout.size() + h, h);
        let base = System.alloc(full);
        if base.is_null() {
            return base;
        }
        let other = ARMED.load(Ordering::Relaxed) && !CALLER.try_with(Cell::get).unwrap_or(false);
        if other {
            let live = OTHER_LIVE.fetch_add(layout.size(), Ordering::Relaxed) + layout.size();
            OTHER_PEAK.fetch_max(live, Ordering::Relaxed);
        }
        let ptr = base.add(h);
        (ptr as *mut usize).sub(1).write(other as usize);
        (ptr as *mut usize).sub(2).write(layout.size());
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        let h = header(layout.align());
        if (ptr as *const usize).sub(1).read() == 1 {
            OTHER_LIVE.fetch_sub((ptr as *const usize).sub(2).read(), Ordering::Relaxed);
        }
        System.dealloc(ptr.sub(h), Layout::from_size_align_unchecked(layout.size() + h, h));
    }
}

#[global_allocator]
static GLOBAL: TaggingAlloc = TaggingAlloc;

use epa_place::{memplan, EpaConfig, Placer, QueryBatch};
use phylo_datasets::{generate, serratus, Scale};
use phylo_engine::ReferenceContext;

#[test]
fn sweep_threads_allocate_less_than_one_clv() {
    let ds = generate(&serratus(Scale::Bench));
    let patterns = phylo_seq::compress(&ds.reference).unwrap();
    let s2p = patterns.site_to_pattern().to_vec();
    let batch = QueryBatch::new(&ds.queries, ds.reference.n_sites()).unwrap();
    let ctx = || {
        let alphabet = ds.spec.alphabet.alphabet();
        ReferenceContext::new(ds.tree.clone(), ds.model.clone(), alphabet, &patterns).unwrap()
    };
    let probe = EpaConfig { threads: 2, async_prefetch: true, ..Default::default() };
    let probe_ctx = ctx();
    let (n, sites) = (batch.len(), batch.n_sites());
    let floor = memplan::floor_budget(&probe_ctx, &probe, n, sites);
    let lookup_floor = memplan::lookup_floor_budget(&probe_ctx, &probe, n, sites);
    let layout = probe_ctx.layout();
    let clv_bytes = layout.clv_len() * std::mem::size_of::<f64>();
    let table_bytes = layout.patterns * (layout.states + 1) * std::mem::size_of::<f64>();
    assert!(table_bytes < clv_bytes);
    drop(probe_ctx);
    CALLER.with(|c| c.set(true));
    for (budget, lookup) in [(floor, false), (lookup_floor, true)] {
        let cfg = EpaConfig { max_memory: Some(budget), ..probe.clone() };
        let placer = Placer::new(ctx(), s2p.clone(), cfg).unwrap();
        OTHER_PEAK.store(OTHER_LIVE.load(Ordering::SeqCst), Ordering::SeqCst);
        ARMED.store(true, Ordering::SeqCst);
        let (results, report) = placer.place(&batch).unwrap();
        ARMED.store(false, Ordering::SeqCst);

        assert_eq!(results.len(), batch.len());
        assert_eq!(report.used_lookup, lookup);
        assert!(report.scoring.sweep.threads_started > 0, "no sweep started a thread");
        assert!(report.slot_stats.evictions > 0, "the budget must evict");
        let peak = OTHER_PEAK.load(Ordering::SeqCst);
        assert!(
            peak < table_bytes,
            "lookup {lookup}: threads besides the caller held {peak} B of heap at once; \
             one score table is {table_bytes} B, one CLV {clv_bytes} B"
        );
    }
}
