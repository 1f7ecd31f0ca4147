//! Model-based test of the slot manager: random operation sequences are
//! replayed against a naive `HashMap` oracle, and after every single
//! operation the manager's observable state must agree with the model.
//!
//! The oracle does not try to predict replacement decisions (those belong
//! to the strategy under test elsewhere); it *mirrors* them and checks
//! their legality: a miss may only land in a slot the oracle knows to be
//! unpinned, a hit must land exactly where the oracle says the CLV lives,
//! and `AllSlotsPinned` may only surface when the oracle agrees that every
//! slot is pinned. On top of that it tracks pin counts and the
//! hit/miss/eviction counters, so any drift between the manager's atomics
//! and the event log the oracle accumulates is caught immediately.

use phylo_amc::{AmcError, ClvKey, SlotId, SlotManager, StrategyKind};
use proptest::prelude::*;
use std::collections::HashMap;

const N_CLVS: usize = 32;

/// The naive model: two hash maps (which must stay mutual inverses), pin
/// counts, and the traffic counters implied by the op log.
#[derive(Default)]
struct Oracle {
    slot_of: HashMap<u32, u32>,
    clv_of: HashMap<u32, u32>,
    pins: HashMap<u32, u32>,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl Oracle {
    fn pin_count(&self, slot: u32) -> u32 {
        self.pins.get(&slot).copied().unwrap_or(0)
    }

    fn all_pinned(&self, n_slots: usize) -> bool {
        (0..n_slots as u32).all(|s| self.pin_count(s) > 0)
    }

    /// Installs `clv` into `slot`, displacing the previous occupant.
    fn map(&mut self, clv: u32, slot: u32) {
        if let Some(old) = self.clv_of.insert(slot, clv) {
            self.slot_of.remove(&old);
        }
        self.slot_of.insert(clv, slot);
    }

    fn unmap(&mut self, clv: u32) {
        if let Some(slot) = self.slot_of.remove(&clv) {
            self.clv_of.remove(&slot);
        }
    }
}

/// Full-state comparison after every op. The sentinel checks are implicit
/// in the equalities: a CLV the oracle holds nowhere must `lookup` to
/// `None` (the `UNSLOTTED` sentinel) and an empty slot must report no
/// occupant (the `FREE` sentinel).
fn check(mgr: &SlotManager, o: &Oracle) {
    mgr.check_invariants().unwrap();
    for clv in 0..N_CLVS as u32 {
        assert_eq!(
            mgr.lookup(ClvKey(clv)).map(|s| s.0),
            o.slot_of.get(&clv).copied(),
            "clv→slot mismatch for clv {clv}"
        );
    }
    for slot in 0..mgr.n_slots() as u32 {
        assert_eq!(
            mgr.occupant(SlotId(slot)).map(|c| c.0),
            o.clv_of.get(&slot).copied(),
            "slot→clv mismatch for slot {slot}"
        );
        assert_eq!(mgr.pin_count(SlotId(slot)), o.pin_count(slot), "pin count of slot {slot}");
    }
    let mut resident: Vec<(u32, u32)> =
        mgr.resident().into_iter().map(|(c, s)| (c.0, s.0)).collect();
    resident.sort_unstable();
    let mut expected: Vec<(u32, u32)> = o.slot_of.iter().map(|(&c, &s)| (c, s)).collect();
    expected.sort_unstable();
    assert_eq!(resident, expected, "resident set");
    let stats = mgr.stats();
    assert_eq!(
        (stats.hits, stats.misses, stats.evictions),
        (o.hits, o.misses, o.evictions),
        "stats must reconcile with the oracle's event log"
    );
    // Counter invariants: every miss is exactly one install (a failed
    // acquire installs nothing), and every
    // successful acquisition is a hit or a miss, never both.
    assert_eq!(stats.installs, stats.misses, "installs == misses invariant");
    assert_eq!(stats.acquires, stats.hits + stats.misses, "acquires == hits + misses invariant");
    assert_eq!(mgr.n_pinned(), o.pins.values().filter(|&&p| p > 0).count());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn random_op_sequences_match_the_oracle(
        ops in proptest::collection::vec((0u8..4, 0u32..N_CLVS as u32), 1..300),
        n_slots in 2usize..12,
        strat_idx in 0usize..4,
    ) {
        let strategies =
            [StrategyKind::Fifo, StrategyKind::Lru, StrategyKind::Mru, StrategyKind::Random];
        let mgr = SlotManager::new(N_CLVS, n_slots, strategies[strat_idx].build(None));
        let mut o = Oracle::default();
        // Stack of pins this test owns (op 1 pushes, op 2 pops).
        let mut pinned: Vec<u32> = Vec::new();
        for (op, key) in ops {
            match op {
                // slot: acquire, mark complete immediately (the model's
                // "computation" is instantaneous).
                0 => match mgr.acquire(ClvKey(key)) {
                    Ok(acq) => {
                        let slot = acq.slot().0;
                        if let Some(&expect) = o.slot_of.get(&key) {
                            assert!(acq.is_hit(), "resident CLV must hit");
                            assert_eq!(slot, expect, "hit must land where the CLV lives");
                            o.hits += 1;
                        } else {
                            assert!(!acq.is_hit(), "non-resident CLV cannot hit");
                            assert_eq!(o.pin_count(slot), 0, "pinned slots are never victims");
                            o.misses += 1;
                            if o.clv_of.contains_key(&slot) {
                                o.evictions += 1;
                            }
                            o.map(key, slot);
                            mgr.mark_ready(acq.slot());
                        }
                    }
                    Err(AmcError::AllSlotsPinned { .. }) => {
                        assert!(o.all_pinned(n_slots), "spurious AllSlotsPinned");
                        assert!(!o.slot_of.contains_key(&key), "resident CLVs always acquire");
                    }
                    Err(e) => panic!("unexpected acquire error: {e:?}"),
                },
                // pin a resident CLV.
                1 => {
                    if let Some(slot) = mgr.lookup(ClvKey(key)) {
                        mgr.pin(slot);
                        *o.pins.entry(slot.0).or_insert(0) += 1;
                        pinned.push(slot.0);
                    } else {
                        assert!(!o.slot_of.contains_key(&key));
                    }
                }
                // unpin one of ours; with none left, unpinning an
                // unpinned slot must be rejected, not underflow.
                2 => {
                    if let Some(slot) = pinned.pop() {
                        mgr.unpin(SlotId(slot)).unwrap();
                        *o.pins.get_mut(&slot).unwrap() -= 1;
                    } else {
                        let probe = SlotId(key % n_slots as u32);
                        if o.pin_count(probe.0) == 0 {
                            assert!(mgr.unpin(probe).is_err());
                        }
                    }
                }
                // unslot: invalidate an unpinned resident (no-op
                // otherwise, on both sides).
                _ => {
                    if let Some(&slot) = o.slot_of.get(&key) {
                        if o.pin_count(slot) == 0 {
                            mgr.invalidate(ClvKey(key));
                            o.unmap(key);
                        }
                    } else {
                        mgr.invalidate(ClvKey(key));
                    }
                }
            }
            check(&mgr, &o);
        }
        // Drain our pins; the manager must end fully unpinned.
        for slot in pinned.drain(..) {
            mgr.unpin(SlotId(slot)).unwrap();
            *o.pins.get_mut(&slot).unwrap() -= 1;
        }
        check(&mgr, &o);
        prop_assert_eq!(mgr.n_pinned(), 0);
    }
}
