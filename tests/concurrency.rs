//! Concurrency stress for the slot protocol: eight threads prepare
//! overlapping blocks of one CLV store whose slot count is the memory
//! plan's floor (`⌈log₂ n⌉ + 2` plus the pin headroom), each reading
//! its pinned CLVs while the others plan and compute. The run must
//! terminate (no deadlock), every CLV a prepare returns must equal, bit
//! for bit, the one an uncapped store computes, and the final tables
//! must be mutually consistent.

use phyloplace::amc::{AmcError, StrategyKind};
use phyloplace::engine::{EngineError, ManagedStore, ReferenceContext};
use phyloplace::models::{dna, DiscreteGamma, SubstModel};
use phyloplace::place::memplan::pin_headroom;
use phyloplace::seq::alphabet::AlphabetKind;
use phyloplace::seq::{compress, Msa, Sequence};
use phyloplace::tree::{generate, DirEdgeId, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::mpsc;
use std::time::Duration;

const WORKERS: usize = 8;
const ROUNDS: usize = 40;

#[test]
fn workers_at_the_slot_floor_never_deadlock() {
    // A hang here *is* one failure mode under test, so run the stress on
    // a watchdog: if it does not finish in time, fail loudly instead of
    // letting the harness sit on a deadlock forever.
    let (tx, rx) = mpsc::channel();
    let stress = std::thread::spawn(move || {
        stress();
        let _ = tx.send(());
    });
    match rx.recv_timeout(Duration::from_secs(300)) {
        Ok(()) => stress.join().unwrap(),
        // The stress thread panicked: re-raise its assertion.
        Err(mpsc::RecvTimeoutError::Disconnected) => std::panic::resume_unwind(
            stress.join().expect_err("the stress thread ended without reporting"),
        ),
        Err(mpsc::RecvTimeoutError::Timeout) => {
            panic!("stress run did not finish: deadlock or livelock suspected")
        }
    }
}

/// A 48-leaf Yule tree with a random DNA alignment under JC69 + Γ4.
fn context() -> ReferenceContext {
    let n = 48usize;
    let mut rng = StdRng::seed_from_u64(2021);
    let tree = generate::yule(n, 0.1, &mut rng).unwrap();
    let rows: Vec<Sequence> = (0..n)
        .map(|i| {
            let text: String = (0..60).map(|_| b"ACGT"[rng.gen_range(0..4usize)] as char).collect();
            Sequence::from_text(tree.taxon(NodeId(i as u32)), AlphabetKind::Dna, &text).unwrap()
        })
        .collect();
    let patterns = compress(&Msa::new(rows).unwrap()).unwrap();
    let gamma = DiscreteGamma::new(0.5, 4, Default::default()).unwrap();
    let model = SubstModel::new(&dna::jc69(), gamma).unwrap();
    ReferenceContext::new(tree, model, AlphabetKind::Dna.alphabet(), &patterns).unwrap()
}

/// A CLV and its scalers, as bits.
type Bits = (Vec<u64>, Vec<u32>);

fn bits_of(store: &ManagedStore, ctx: &ReferenceContext, d: DirEdgeId) -> Option<Bits> {
    store
        .clv_of(ctx, d)
        .map(|(clv, scale)| (clv.iter().map(|v| v.to_bits()).collect(), scale.to_vec()))
}

fn stress() {
    let ctx = context();
    let tree = ctx.tree();
    let edges: Vec<_> = tree.all_edges().collect();
    let dirs = |e| [DirEdgeId::new(e, 0), DirEdgeId::new(e, 1)];
    // What every prepare must return: each directed edge's CLV from a
    // store that holds them all.
    let uncapped = ManagedStore::full(&ctx);
    let mut expected: Vec<Option<Bits>> = vec![None; tree.n_dir_edges()];
    for &e in &edges {
        let block = uncapped.prepare(&ctx, &dirs(e)).unwrap();
        for d in dirs(e) {
            expected[d.idx()] = bits_of(&uncapped, &ctx, d);
        }
        uncapped.release(block);
    }
    // The floor the memory plan grants: every single plan fits, but
    // eight threads' pinned blocks together can exceed the headroom, so
    // a prepare may meet the other threads' pins and retry.
    let store = ManagedStore::with_slots(
        &ctx,
        ctx.min_slots() + pin_headroom(&ctx),
        StrategyKind::CostBased,
    )
    .unwrap();
    std::thread::scope(|s| {
        for w in 0..WORKERS {
            let (ctx, store, edges, expected) = (&ctx, &store, &edges, &expected);
            s.spawn(move || {
                let mut rng = StdRng::seed_from_u64(7 + w as u64);
                for _ in 0..ROUNDS {
                    // Overlapping work: every worker draws from the same
                    // tree, biased toward a shared hot region so hits,
                    // misses and evictions all interleave.
                    let e = if rng.gen_bool(0.5) {
                        edges[rng.gen_range(0..edges.len() / 4 + 1)]
                    } else {
                        edges[rng.gen_range(0..edges.len())]
                    };
                    let block = loop {
                        match store.prepare(ctx, &dirs(e)) {
                            Ok(block) => break block,
                            // Other threads' blocks may hold too many
                            // slots for this plan; they are released
                            // after a read, so this is a retry.
                            Err(EngineError::Amc(AmcError::AllSlotsPinned { .. })) => {
                                std::thread::yield_now()
                            }
                            Err(e) => panic!("prepare failed: {e}"),
                        }
                    };
                    for d in dirs(e) {
                        assert!(
                            bits_of(store, ctx, d) == expected[d.idx()],
                            "{d:?}: the prepared CLV differs from the uncapped store's"
                        );
                    }
                    store.release(block);
                }
            });
        }
    });
    let mgr = store.arena().manager();
    assert_eq!(mgr.n_pinned(), 0, "every pin must be released after the stress");
    mgr.check_invariants().expect("slot tables consistent after the stress");
    // The final resident set agrees with both index maps.
    for (clv, slot) in mgr.resident() {
        assert_eq!(mgr.lookup(clv), Some(slot));
        assert_eq!(mgr.occupant(slot), Some(clv));
    }
    let stats = store.stats();
    assert!(stats.evictions > 0, "the floor budget must force recomputation");
    assert!(
        stats.hits + stats.misses >= (WORKERS * ROUNDS) as u64,
        "every round touches at least one CLV"
    );
}
