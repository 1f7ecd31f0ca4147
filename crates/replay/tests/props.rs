//! Property-based tests over the trace replay: the classical
//! paging-theory facts the Belady oracle and the stack policies must
//! satisfy on *every* trace, not just hand-picked ones.
//!
//! FIFO is deliberately absent from the monotonicity property: it is
//! not a stack algorithm and exhibits Belady's anomaly (more slots can
//! mean *more* misses — the 1/2/3/4/1/2/5/1/2/3/4/5 sequence at 3 vs 4
//! frames is the textbook case), so only Belady and LRU are required
//! to improve monotonically with memory.

use phylo_replay::{simulate, Policy, SlotEvent, StrategyKind, Trace, TraceMeta};
use proptest::prelude::*;

const N_CLVS: u32 = 12;

/// Builds an acquire-only trace (with a cost table so the cost-aware
/// policies replay too) from a list of CLV indices.
fn acquire_trace(clvs: &[u32]) -> Trace {
    Trace {
        meta: TraceMeta {
            n_clvs: N_CLVS,
            costs: (0..N_CLVS).map(|c| 1.0 + c as f64).collect(),
            ..Default::default()
        },
        events: clvs.iter().map(|&clv| SlotEvent::Acquire { clv }).collect(),
        schedules: Vec::new(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The clairvoyant oracle never misses more than any implementable
    /// policy, at any slot count.
    #[test]
    fn belady_lower_bounds_every_policy(
        clvs in proptest::collection::vec(0u32..N_CLVS, 1..300),
        n_slots in 1usize..16,
    ) {
        let t = acquire_trace(&clvs);
        let oracle = simulate(&t, n_slots, Policy::Belady).unwrap();
        for kind in StrategyKind::all() {
            let s = simulate(&t, n_slots, Policy::Kind(kind)).unwrap();
            prop_assert!(
                oracle.misses <= s.misses,
                "belady {} > {kind} {} at {n_slots} slots",
                oracle.misses, s.misses
            );
            // Both replay the same demand stream.
            prop_assert_eq!(s.acquires, oracle.acquires);
            prop_assert_eq!(s.hits + s.misses, s.acquires);
            prop_assert_eq!(s.installs, s.misses);
        }
    }

    /// Stack algorithms (Belady, LRU) miss monotonically less as the
    /// slot count grows.
    #[test]
    fn stack_policies_improve_with_memory(
        clvs in proptest::collection::vec(0u32..N_CLVS, 1..300),
    ) {
        let t = acquire_trace(&clvs);
        for policy in [Policy::Belady, Policy::Kind(StrategyKind::Lru)] {
            let mut prev = u64::MAX;
            for n_slots in 1..=(N_CLVS as usize + 1) {
                let s = simulate(&t, n_slots, policy).unwrap();
                prop_assert!(
                    s.misses <= prev,
                    "{policy}: {} misses at {n_slots} slots, {prev} at {}",
                    s.misses, n_slots - 1
                );
                prev = s.misses;
            }
        }
    }

    /// With at least as many slots as distinct CLVs, every policy —
    /// oracle included — degenerates to compulsory misses only: one
    /// miss per distinct CLV, zero evictions, identical counters.
    #[test]
    fn ample_memory_makes_every_policy_identical(
        clvs in proptest::collection::vec(0u32..N_CLVS, 1..300),
        headroom in 0usize..4,
    ) {
        let t = acquire_trace(&clvs);
        let distinct = t.distinct_acquired() as u64;
        let n_slots = distinct as usize + headroom;
        for policy in Policy::all() {
            let s = simulate(&t, n_slots, policy).unwrap();
            prop_assert_eq!(s.misses, distinct, "{}", policy);
            prop_assert_eq!(s.evictions, 0, "{}", policy);
            prop_assert_eq!(s.hits, clvs.len() as u64 - distinct, "{}", policy);
        }
    }
}
