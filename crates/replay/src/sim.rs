//! The trace replayer: drives a fresh [`SlotManager`] — the one the
//! placement engine runs, with no arena and no kernels behind it — one
//! [`SlotEvent`] at a time.
//!
//! Replay is the live manager plus three rules for configurations other
//! than the captured one, where a CLV the trace names may not be
//! resident: pins on a non-resident CLV are counted per CLV and balanced
//! by its later unpins first; a `Touch` of a non-resident CLV counts
//! nothing; an `Invalidate` of a pinned CLV is skipped. Events naming
//! [`NO_CLV`] never reach the manager. Live policies are the *same*
//! trait objects the manager runs ([`StrategyKind::build`]); the oracle
//! is one more [`ReplacementStrategy`] that reads the trace's future.

use std::cmp::Reverse;
use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use phylo_amc::{
    AmcError, ClvKey, NextUse, ReplacementStrategy, SlotId, SlotManager, SlotStats, StrategyKind,
    VictimView,
};
use phylo_obs::slottrace::{SlotEvent, Trace, NO_CLV, NO_TABLE};

/// A replayable policy: any live [`StrategyKind`], or the clairvoyant
/// Belady oracle (not implementable live — it reads the future).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Policy {
    /// One of the live replacement strategies, replayed through the
    /// exact same implementation the manager runs.
    Kind(StrategyKind),
    /// Belady's MIN: evict the resident CLV whose next use — a demand
    /// access, or a reuse by the planner (`Touch`) — is furthest in the
    /// future (never again > latest; ties broken toward the lower CLV
    /// key). Optimal among demand-fill policies, hence the oracle miss
    /// floor.
    Belady,
}

impl Policy {
    /// Parses a policy name: every live strategy name plus `belady`
    /// (alias `oracle`).
    pub fn parse(s: &str) -> Option<Policy> {
        match s {
            "belady" | "oracle" => Some(Policy::Belady),
            _ => StrategyKind::parse(s).map(Policy::Kind),
        }
    }

    /// Every live policy followed by the oracle.
    pub fn all() -> Vec<Policy> {
        let mut v: Vec<Policy> = StrategyKind::all().into_iter().map(Policy::Kind).collect();
        v.push(Policy::Belady);
        v
    }
}

impl fmt::Display for Policy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Policy::Kind(k) => write!(f, "{k}"),
            Policy::Belady => write!(f, "belady"),
        }
    }
}

/// Why a replay could not complete.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// Every slot was pinned when a miss needed a victim: the requested
    /// slot count cannot serve the trace's pinned working set. The live
    /// run would have degraded or failed the same way.
    Stuck {
        /// Index of the offending event in the trace.
        index: usize,
        /// The CLV whose demand access could not be served.
        clv: u32,
    },
    /// The policy needs a recomputation-cost table but the trace's
    /// `#costs` line is empty/absent.
    MissingCosts(StrategyKind),
    /// The trace is structurally unusable (e.g. a demand access on the
    /// `NO_CLV` sentinel).
    BadTrace(String),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Stuck { index, clv } => write!(
                f,
                "replay stuck at event {index}: all slots pinned while acquiring clv {clv} \
                 (slot count too small for the trace's pinned set)"
            ),
            SimError::MissingCosts(k) => {
                write!(f, "policy {k} needs a cost table but the trace has no #costs line")
            }
            SimError::BadTrace(why) => write!(f, "bad trace: {why}"),
        }
    }
}

impl std::error::Error for SimError {}

/// The oracle as a replacement strategy. The driver publishes the index
/// of the event being replayed in `now`; every use at or before it is
/// past.
struct Belady {
    /// Per CLV, the event positions of its demand accesses and planner
    /// reuses, ascending — a CLV the planner is about to reuse is not
    /// dead. Past positions are dropped lazily.
    uses: Vec<VecDeque<usize>>,
    now: Arc<AtomicUsize>,
}

impl Belady {
    fn new(trace: &Trace, n_clvs: usize, now: Arc<AtomicUsize>) -> Self {
        let mut uses = vec![VecDeque::new(); n_clvs];
        for (i, ev) in trace.events.iter().enumerate() {
            if let SlotEvent::Acquire { clv } | SlotEvent::Touch { clv } = *ev {
                if clv != NO_CLV {
                    uses[clv as usize].push_back(i);
                }
            }
        }
        Belady { uses, now }
    }
}

impl ReplacementStrategy for Belady {
    fn name(&self) -> &'static str {
        "belady"
    }
    fn on_insert(&mut self, _clv: ClvKey, _slot: SlotId) {}
    fn on_access(&mut self, _clv: ClvKey, _slot: SlotId) {}
    fn on_evict(&mut self, _clv: ClvKey, _slot: SlotId) {}
    fn choose_victim(&mut self, view: &VictimView<'_>) -> Option<SlotId> {
        let now = self.now.load(Ordering::Relaxed);
        // Furthest next use wins; "never used again" sorts above every
        // position; ties fall to the lower CLV key.
        let mut next_use = |clv: ClvKey| {
            let q = &mut self.uses[clv.idx()];
            while q.front().is_some_and(|&p| p <= now) {
                q.pop_front();
            }
            q.front().copied().unwrap_or(usize::MAX)
        };
        view.candidates()
            .max_by_key(|&(_, clv)| (next_use(clv), Reverse(clv.0)))
            .map(|(slot, _)| slot)
    }
}

/// The CLV key space a replay needs: the meta's, stretched to cover
/// every key the events and schedule tables name (synthetic traces may
/// omit the meta, and a trace file is outside input).
fn key_space(trace: &Trace) -> usize {
    let mut n_clvs = trace.meta.n_clvs as usize;
    for ev in &trace.events {
        let clv = match *ev {
            SlotEvent::Acquire { clv }
            | SlotEvent::Touch { clv }
            | SlotEvent::Pin { clv, .. }
            | SlotEvent::Unpin { clv }
            | SlotEvent::Invalidate { clv } => clv,
            SlotEvent::Schedule { .. } | SlotEvent::Cursor { .. } => NO_CLV,
        };
        if clv != NO_CLV {
            n_clvs = n_clvs.max(clv as usize + 1);
        }
    }
    for &(clv, _) in trace.schedules.iter().flatten() {
        n_clvs = n_clvs.max(clv as usize + 1);
    }
    n_clvs
}

/// Replays `trace` against `policy` with `n_slots` physical slots and
/// returns the resulting traffic counters.
///
/// Each call builds its own [`SlotManager`]. For the captured policy and
/// slot count the manager is told exactly what the live one was, in the
/// same order, so the counters are the live run's (DESIGN.md §10); for
/// any other configuration they answer "what would the traffic have
/// been". [`SimError::Stuck`] means `n_slots` cannot serve the trace's
/// pinned set — use [`crate::min_feasible_slots`] for the floor.
pub fn simulate(trace: &Trace, n_slots: usize, policy: Policy) -> Result<SlotStats, SimError> {
    if n_slots == 0 {
        return Err(SimError::BadTrace("n_slots must be positive".into()));
    }
    let n_clvs = key_space(trace);
    let now = Arc::new(AtomicUsize::new(0));
    let strategy = match policy {
        Policy::Kind(kind) => {
            let costs = if kind.needs_costs() {
                let costs = &trace.meta.costs;
                if costs.is_empty() {
                    return Err(SimError::MissingCosts(kind));
                }
                if costs.iter().any(|c| c.is_nan()) {
                    return Err(SimError::BadTrace("a #costs entry is NaN".into()));
                }
                Some(costs.clone())
            } else {
                None
            };
            kind.build(costs)
        }
        Policy::Belady => Box::new(Belady::new(trace, n_clvs, Arc::clone(&now))),
    };
    let live = policy != Policy::Belady;
    let slots = SlotManager::new(n_clvs, n_slots, strategy);
    // Pins the trace records on a CLV that is not resident in *this*
    // configuration; the CLV's next unpins balance them first, so the
    // pinned set never leaks onto a stranger's slot.
    let mut skipped_pins = vec![0u64; n_clvs];

    for (index, ev) in trace.events.iter().enumerate() {
        now.store(index, Ordering::Relaxed);
        match *ev {
            SlotEvent::Acquire { clv: NO_CLV } => {
                return Err(SimError::BadTrace(format!(
                    "event {index}: demand access on the NO_CLV sentinel"
                )));
            }
            SlotEvent::Acquire { clv } => {
                slots.acquire(ClvKey(clv)).map_err(|e| match e {
                    AmcError::AllSlotsPinned { .. } => SimError::Stuck { index, clv },
                    e => SimError::BadTrace(format!("event {index}: {e}")),
                })?;
            }
            // A planner reuse is a hit where the CLV is resident. Where
            // this configuration evicted it the live planner would have
            // recomputed instead, at a cost no trace records: the
            // manager counts nothing.
            SlotEvent::Touch { clv } if clv != NO_CLV => slots.touch(ClvKey(clv)),
            SlotEvent::Pin { clv, n } if clv != NO_CLV => match slots.lookup(ClvKey(clv)) {
                Some(slot) => {
                    if slots.pin_count(slot).checked_add(n).is_none() {
                        return Err(SimError::BadTrace(format!(
                            "event {index}: pin count of clv {clv} overflows"
                        )));
                    }
                    slots.pin_n(slot, n);
                }
                None => skipped_pins[clv as usize] += u64::from(n),
            },
            SlotEvent::Unpin { clv } if clv != NO_CLV => {
                if skipped_pins[clv as usize] > 0 {
                    skipped_pins[clv as usize] -= 1;
                } else if let Some(slot) = slots.lookup(ClvKey(clv)) {
                    // An unpin with no pin to remove changes nothing.
                    let _ = slots.unpin(slot);
                }
            }
            SlotEvent::Invalidate { clv } if clv != NO_CLV => {
                if let Some(slot) = slots.lookup(ClvKey(clv)) {
                    if slots.pin_count(slot) == 0 {
                        slots.invalidate(ClvKey(clv));
                    }
                }
            }
            // What the live policy was told, the replayed one is told at
            // the same point of the stream. The oracle reads the trace's
            // own future and has no use for the sweep's.
            SlotEvent::Schedule { table } => {
                let uses = match table {
                    NO_TABLE => None,
                    _ => Some(trace.schedules.get(table as usize).ok_or_else(|| {
                        SimError::BadTrace(format!("event {index}: no schedule table {table}"))
                    })?),
                };
                if live {
                    slots.announce_schedule(uses.map(|u| Arc::new(NextUse::from_uses(n_clvs, u))));
                }
            }
            SlotEvent::Cursor { pos } if live => slots.advance_cursor(pos),
            // A touch, pin, unpin or invalidate of an empty slot
            // constrains no CLV; the oracle ignores the cursor.
            _ => {}
        }
    }
    Ok(slots.stats())
}

#[cfg(test)]
mod tests {
    use super::*;
    use phylo_obs::slottrace::TraceMeta;

    fn acq(clv: u32) -> SlotEvent {
        SlotEvent::Acquire { clv }
    }

    fn trace(events: Vec<SlotEvent>) -> Trace {
        Trace { meta: TraceMeta::default(), events, schedules: Vec::new() }
    }

    #[test]
    fn policy_parse_round_trip() {
        for p in Policy::all() {
            assert_eq!(Policy::parse(&p.to_string()), Some(p));
        }
        assert_eq!(Policy::parse("oracle"), Some(Policy::Belady));
        assert_eq!(Policy::parse("nope"), None);
    }

    #[test]
    fn fifo_counts_match_hand_replay() {
        // 0 1 2 fill; 3 evicts 0; 0 evicts 1; 1 evicts 2 (FIFO order).
        let t = trace(vec![acq(0), acq(1), acq(2), acq(3), acq(0), acq(1)]);
        let s = simulate(&t, 3, Policy::Kind(StrategyKind::Fifo)).unwrap();
        assert_eq!(s, SlotStats { hits: 0, misses: 6, evictions: 3, installs: 6, acquires: 6 });
    }

    #[test]
    fn lru_hits_differ_from_fifo() {
        // 0 1 0 2 0: LRU keeps 0 hot (2 hits); plenty of slots = no evict.
        let t = trace(vec![acq(0), acq(1), acq(0), acq(2), acq(0)]);
        let s = simulate(&t, 2, Policy::Kind(StrategyKind::Lru)).unwrap();
        assert_eq!(s.hits, 2);
        assert_eq!(s.misses, 3);
        assert_eq!(s.evictions, 1); // 2 evicts 1 (LRU), 0 stays resident
    }

    #[test]
    fn belady_is_optimal_on_the_classic_example() {
        // The textbook sequence where LRU pays and MIN does not.
        let t = trace(vec![acq(0), acq(1), acq(2), acq(0), acq(3), acq(0), acq(1)]);
        let lru = simulate(&t, 2, Policy::Kind(StrategyKind::Lru)).unwrap();
        let min = simulate(&t, 2, Policy::Belady).unwrap();
        assert!(min.misses <= lru.misses, "oracle {min:?} vs lru {lru:?}");
        assert_eq!(min.misses, 5);
    }

    #[test]
    fn belady_never_again_beats_far_future() {
        // With 2 slots: after 0,1 the access 2 must evict. 1 is used
        // again, 0 never — the oracle must evict 0.
        let t = trace(vec![acq(0), acq(1), acq(2), acq(1)]);
        let s = simulate(&t, 2, Policy::Belady).unwrap();
        assert_eq!(s.hits, 1, "evicting 0 keeps 1's future hit");
    }

    #[test]
    fn pinned_slots_are_not_victims() {
        // Pin 0, then stream 1..4 over the other slot: 0 survives.
        let mut t = trace(vec![
            acq(0),
            SlotEvent::Pin { clv: 0, n: 1 },
            acq(1),
            acq(2),
            acq(3),
            acq(0), // hit: still resident
            SlotEvent::Unpin { clv: 0 },
        ]);
        t.meta.costs = vec![4.0, 1.0, 2.0, 3.0]; // for the cost-aware policies
        for p in Policy::all() {
            let s = simulate(&t, 2, p).unwrap();
            assert_eq!(s.hits, 1, "{p}: pinned clv 0 must survive");
            assert_eq!(s.misses, 4, "{p}");
        }
    }

    #[test]
    fn stuck_when_pins_fill_every_slot() {
        let t = trace(vec![
            acq(0),
            SlotEvent::Pin { clv: 0, n: 1 },
            acq(1),
            SlotEvent::Pin { clv: 1, n: 1 },
            acq(2),
        ]);
        let err = simulate(&t, 2, Policy::Kind(StrategyKind::Lru)).unwrap_err();
        assert_eq!(err, SimError::Stuck { index: 4, clv: 2 });
        // One more slot clears it.
        assert!(simulate(&t, 3, Policy::Kind(StrategyKind::Lru)).is_ok());
    }

    #[test]
    fn skipped_pins_balance_across_eviction_divergence() {
        // clv 0 pinned while absent (possible under cross-policy
        // replay): the pin must be remembered and consumed by the unpin
        // without ever protecting a stranger's slot.
        let t = trace(vec![
            SlotEvent::Pin { clv: 0, n: 2 },
            acq(1),
            SlotEvent::Unpin { clv: 0 },
            SlotEvent::Unpin { clv: 0 },
            acq(2),
            acq(1),
        ]);
        let s = simulate(&t, 1, Policy::Kind(StrategyKind::Lru)).unwrap();
        // One slot: 1 miss, 2 evicts 1, 1 evicts 2 -> 3 misses.
        assert_eq!(s.misses, 3);
        assert_eq!(s.evictions, 2);
    }

    #[test]
    fn invalidate_frees_without_counting_eviction() {
        let t = trace(vec![acq(0), SlotEvent::Invalidate { clv: 0 }, acq(1)]);
        let s = simulate(&t, 1, Policy::Kind(StrategyKind::Fifo)).unwrap();
        assert_eq!(s.evictions, 0, "invalidate is not an eviction");
        assert_eq!(s.misses, 2);
    }

    #[test]
    fn missing_costs_is_a_typed_error() {
        let t = trace(vec![acq(0)]);
        let err = simulate(&t, 1, Policy::Kind(StrategyKind::CostBased)).unwrap_err();
        assert_eq!(err, SimError::MissingCosts(StrategyKind::CostBased));
        let mut t = t;
        t.meta.costs = vec![1.0];
        assert!(simulate(&t, 1, Policy::Kind(StrategyKind::CostBased)).is_ok());
    }

    #[test]
    fn live_policies_are_told_what_the_trace_says_they_were_told() {
        // Equal costs; the sweep wants 0 again at step 3 and 1 never.
        let mut t = trace(vec![
            SlotEvent::Schedule { table: 0 },
            SlotEvent::Cursor { pos: 1 },
            acq(0),
            acq(1),
            acq(2), // cost order would evict 0 (lower key); the walk says 1
            acq(0),
            SlotEvent::Schedule { table: NO_TABLE },
            acq(3), // back to cost order: 0 goes
            acq(2),
        ]);
        t.meta.costs = vec![1.0; 4];
        t.schedules = vec![vec![(0, 0), (0, 3), (1, 0), (2, 2)]];
        let s = simulate(&t, 2, Policy::Kind(StrategyKind::CostBased)).unwrap();
        assert_eq!((s.hits, s.misses), (2, 4), "{s:?}");
        // The same stream without the announcement: 0 is evicted early.
        let blind = Trace {
            events: t
                .events
                .iter()
                .copied()
                .filter(|e| matches!(e, SlotEvent::Acquire { .. }))
                .collect(),
            ..t.clone()
        };
        let b = simulate(&blind, 2, Policy::Kind(StrategyKind::CostBased)).unwrap();
        assert_eq!((b.hits, b.misses), (1, 5), "{b:?}");
        // Every other policy, and the oracle, replays the stream unmoved.
        for p in Policy::all() {
            let with = simulate(&t, 2, p).unwrap();
            if p != Policy::Kind(StrategyKind::CostBased) {
                assert_eq!(with, simulate(&blind, 2, p).unwrap(), "{p}");
            }
        }
        // An announcement the trace has no table for is a broken trace.
        t.schedules.clear();
        let err = simulate(&t, 2, Policy::Kind(StrategyKind::Lru)).unwrap_err();
        assert!(matches!(err, SimError::BadTrace(_)), "{err:?}");
    }

    #[test]
    fn the_oracle_keeps_what_the_planner_is_about_to_reuse() {
        // 2 slots. After 0, 1 the access to 2 must evict: 0 is touched
        // next and then demanded, 1 is demanded only later.
        let t = trace(vec![acq(0), acq(1), acq(2), SlotEvent::Touch { clv: 0 }, acq(0), acq(1)]);
        let s = simulate(&t, 2, Policy::Belady).unwrap();
        assert_eq!((s.hits, s.misses), (2, 4), "{s:?}");
        // A reuse of something this configuration evicted counts nothing.
        let t = trace(vec![
            acq(0),
            acq(1),
            SlotEvent::Touch { clv: 5 },
            SlotEvent::Touch { clv: NO_CLV },
        ]);
        let s = simulate(&t, 1, Policy::Belady).unwrap();
        assert_eq!((s.hits, s.misses, s.acquires), (0, 2, 2));
    }

    #[test]
    fn cost_based_uses_trace_costs() {
        let mut t = trace(vec![acq(0), acq(1), acq(2)]);
        t.meta.costs = vec![5.0, 1.0, 3.0];
        let s = simulate(&t, 2, Policy::Kind(StrategyKind::CostBased)).unwrap();
        assert_eq!(s.evictions, 1); // clv 1 (cheapest) was the victim…
        let t2 = Trace { events: vec![acq(0), acq(1), acq(2), acq(0)], ..t.clone() };
        let s2 = simulate(&t2, 2, Policy::Kind(StrategyKind::CostBased)).unwrap();
        assert_eq!(s2.hits, 1, "…so the expensive clv 0 must still be resident");
    }
}
