//! The trace simulator: a faithful in-memory model of the slot
//! manager's eviction table, replaying one [`SlotEvent`] at a time.
//!
//! The model mirrors `phylo_amc::slots::TableInner` exactly where it
//! matters for replacement decisions: the `slot↔clv` maps, per-slot pin
//! counts, the free list in its initial `(0..n).rev()` order (so fresh
//! slots are handed out 0, 1, 2, … just like the live manager), and the
//! strategy callbacks in the live call order (`choose_victim` →
//! `on_evict` → unmap → map → `on_insert`). Live policies are the
//! *same* trait objects the manager runs ([`StrategyKind::build`]), so
//! same-policy replay cannot drift from the live implementation.

use std::collections::VecDeque;
use std::fmt;

use std::sync::Arc;

use phylo_amc::{ClvKey, NextUse, ReplacementStrategy, SlotId, StrategyKind, VictimView};
use phylo_obs::slottrace::{SlotEvent, Trace, NO_CLV, NO_TABLE};

/// Sentinel in the simulator's `slot_to_clv` column (mirrors the live
/// manager's `FREE`).
const FREE: u32 = u32::MAX;

/// The simulated traffic counters; field-for-field comparable with the
/// live manager's `SlotStats`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Demand accesses that found the CLV resident.
    pub hits: u64,
    /// Demand accesses that had to (re)assign a slot.
    pub misses: u64,
    /// Victims discarded to make room.
    pub evictions: u64,
    /// Slot (re)assignments; invariant `installs == misses`.
    pub installs: u64,
    /// All demand accesses; invariant `acquires == hits + misses`.
    pub acquires: u64,
}

impl SimStats {
    /// Miss rate over all demand accesses (0 when the trace is empty).
    pub fn miss_rate(&self) -> f64 {
        if self.acquires == 0 {
            0.0
        } else {
            self.misses as f64 / self.acquires as f64
        }
    }
}

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

/// The victim chooser: a live strategy or the oracle's future index.
enum PolicyState {
    Live(Box<dyn ReplacementStrategy>),
    Belady {
        /// Per-CLV queue of *future* use positions (indices into the
        /// event stream): demand accesses and planner reuses alike — a
        /// CLV the live planner is about to reuse is not dead. The front
        /// is the next use; a CLV's own position is popped when its
        /// event is replayed.
        next_use: Vec<VecDeque<usize>>,
    },
}

struct Sim {
    slot_to_clv: Vec<u32>,
    clv_to_slot: Vec<u32>,
    pin_counts: Vec<u32>,
    free: Vec<u32>,
    /// Pins recorded for CLVs that are not resident *in this replay
    /// configuration* (cross-policy replay evicts differently than the
    /// captured run). Balanced by later Unpin events so the pinned set
    /// never leaks.
    skipped_pins: Vec<u64>,
    policy: PolicyState,
    stats: SimStats,
}

impl Sim {
    fn resident(&self, clv: u32) -> Option<usize> {
        let s = self.clv_to_slot[clv as usize];
        (s != FREE).then_some(s as usize)
    }

    /// The oracle consumes the position being replayed, leaving the
    /// queue front pointing at the *next* future use.
    fn consume_use(&mut self, clv: u32, index: usize) {
        if let PolicyState::Belady { next_use } = &mut self.policy {
            let q = &mut next_use[clv as usize];
            while q.front().is_some_and(|&p| p <= index) {
                q.pop_front();
            }
        }
    }

    fn on_access(&mut self, clv: u32, slot: usize) {
        if let PolicyState::Live(s) = &mut self.policy {
            s.on_access(ClvKey(clv), SlotId(slot as u32));
        }
    }

    fn on_evict(&mut self, clv: u32, slot: usize) {
        if let PolicyState::Live(s) = &mut self.policy {
            s.on_evict(ClvKey(clv), SlotId(slot as u32));
        }
    }

    fn on_insert(&mut self, clv: u32, slot: usize) {
        if let PolicyState::Live(s) = &mut self.policy {
            s.on_insert(ClvKey(clv), SlotId(slot as u32));
        }
    }

    fn choose_victim(&mut self) -> Option<usize> {
        match &mut self.policy {
            PolicyState::Live(s) => {
                let view = VictimView::new(&self.slot_to_clv, &self.pin_counts);
                s.choose_victim(&view).map(|s| s.idx())
            }
            PolicyState::Belady { next_use } => {
                // Furthest next use wins; "never used again" sorts above
                // every finite position; ties fall to the lower CLV key.
                let mut best: Option<(usize, u64, u32)> = None; // (slot, key, clv)
                for (slot, &clv) in self.slot_to_clv.iter().enumerate() {
                    if clv == FREE || self.pin_counts[slot] > 0 {
                        continue;
                    }
                    let key = next_use[clv as usize].front().map(|&p| p as u64).unwrap_or(u64::MAX);
                    let better = match best {
                        None => true,
                        Some((_, bk, bc)) => key > bk || (key == bk && clv < bc),
                    };
                    if better {
                        best = Some((slot, key, clv));
                    }
                }
                best.map(|(slot, _, _)| slot)
            }
        }
    }

    fn unmap(&mut self, clv: u32, slot: usize) {
        self.clv_to_slot[clv as usize] = FREE;
        self.slot_to_clv[slot] = FREE;
    }

    fn map(&mut self, clv: u32, slot: usize) {
        self.clv_to_slot[clv as usize] = slot as u32;
        self.slot_to_clv[slot] = clv;
    }
}

/// A replacement decision surfaced to [`simulate_observed`] observers.
/// The tier simulator ([`crate::tiersim`]) builds on these: an `Evict`
/// is the moment a live tiered store would be offered the payload, a
/// `Miss` the moment it would be probed for a reload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimEvent {
    /// A demand access missed; a (re)computation — or a tier reload —
    /// follows.
    Miss { clv: u32 },
    /// A resident CLV was discarded to make room. Invalidations are not
    /// evictions and are not reported: they never reach the live spill
    /// file either.
    Evict { clv: u32 },
}

/// Replays `trace` against `policy` with `n_slots` physical slots and
/// returns the resulting traffic counters.
///
/// For the captured policy and slot count this reproduces the live
/// run's counters bit-exactly (see the crate docs for the argument);
/// for any other configuration it answers "what would the traffic have
/// been". [`SimError::Stuck`] means `n_slots` cannot serve the trace's
/// pinned set — use [`crate::min_feasible_slots`] for the floor.
pub fn simulate(trace: &Trace, n_slots: usize, policy: Policy) -> Result<SimStats, SimError> {
    simulate_observed(trace, n_slots, policy, &mut |_| {})
}

/// As [`simulate`], additionally reporting each miss and demand-path
/// eviction to `obs` in trace order.
pub fn simulate_observed(
    trace: &Trace,
    n_slots: usize,
    policy: Policy,
    obs: &mut dyn FnMut(SimEvent),
) -> Result<SimStats, SimError> {
    if n_slots == 0 {
        return Err(SimError::BadTrace("n_slots must be positive".into()));
    }
    // Size the CLV key space from the meta, stretched to cover every key
    // the event stream actually names (synthetic traces may omit meta).
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

    let policy_state = match policy {
        Policy::Kind(kind) => {
            let costs = if kind.needs_costs() {
                if trace.meta.costs.is_empty() {
                    return Err(SimError::MissingCosts(kind));
                }
                Some(trace.meta.costs.clone())
            } else {
                None
            };
            PolicyState::Live(kind.build(costs))
        }
        Policy::Belady => {
            let mut next_use = vec![VecDeque::new(); n_clvs];
            for (i, ev) in trace.events.iter().enumerate() {
                if let SlotEvent::Acquire { clv } | SlotEvent::Touch { clv } = *ev {
                    if clv != NO_CLV {
                        next_use[clv as usize].push_back(i);
                    }
                }
            }
            PolicyState::Belady { next_use }
        }
    };

    let mut sim = Sim {
        slot_to_clv: vec![FREE; n_slots],
        clv_to_slot: vec![FREE; n_clvs],
        pin_counts: vec![0; n_slots],
        free: (0..n_slots as u32).rev().collect(),
        skipped_pins: vec![0; n_clvs],
        policy: policy_state,
        stats: SimStats::default(),
    };

    for (index, ev) in trace.events.iter().enumerate() {
        match *ev {
            SlotEvent::Acquire { clv } => {
                if clv == NO_CLV {
                    return Err(SimError::BadTrace(format!(
                        "event {index}: demand access on the NO_CLV sentinel"
                    )));
                }
                sim.consume_use(clv, index);
                sim.stats.acquires += 1;
                if let Some(slot) = sim.resident(clv) {
                    sim.stats.hits += 1;
                    sim.on_access(clv, slot);
                    continue;
                }
                sim.stats.misses += 1;
                obs(SimEvent::Miss { clv });
                let slot = if let Some(raw) = sim.free.pop() {
                    raw as usize
                } else {
                    let Some(victim_slot) = sim.choose_victim() else {
                        return Err(SimError::Stuck { index, clv });
                    };
                    let victim = sim.slot_to_clv[victim_slot];
                    sim.stats.evictions += 1;
                    obs(SimEvent::Evict { clv: victim });
                    sim.on_evict(victim, victim_slot);
                    sim.unmap(victim, victim_slot);
                    victim_slot
                };
                sim.stats.installs += 1;
                sim.map(clv, slot);
                sim.on_insert(clv, slot);
            }
            SlotEvent::Touch { clv } => {
                // A planner reuse: a hit where the CLV is resident, as in
                // the live accounting. Where this configuration evicted
                // it, the live planner would have recomputed it instead;
                // the trace cannot say at what cost, so it counts nothing.
                if clv == NO_CLV {
                    continue;
                }
                sim.consume_use(clv, index);
                if let Some(slot) = sim.resident(clv) {
                    sim.stats.hits += 1;
                    sim.stats.acquires += 1;
                    sim.on_access(clv, slot);
                }
            }
            SlotEvent::Pin { clv, n } => {
                if clv == NO_CLV {
                    // A pin on an empty slot constrains no CLV.
                    continue;
                }
                if let Some(slot) = sim.resident(clv) {
                    sim.pin_counts[slot] += n;
                } else {
                    // Not resident under *this* replay configuration:
                    // remember the pins so the matching unpins balance.
                    sim.skipped_pins[clv as usize] += n as u64;
                }
            }
            SlotEvent::Unpin { clv } => {
                if clv == NO_CLV {
                    continue;
                }
                if sim.skipped_pins[clv as usize] > 0 {
                    sim.skipped_pins[clv as usize] -= 1;
                } else if let Some(slot) = sim.resident(clv) {
                    let c = &mut sim.pin_counts[slot];
                    *c = c.saturating_sub(1);
                }
            }
            SlotEvent::Invalidate { clv } => {
                if clv == NO_CLV {
                    continue;
                }
                if let Some(slot) = sim.resident(clv) {
                    if sim.pin_counts[slot] == 0 {
                        // Not an eviction in the live accounting either.
                        sim.on_evict(clv, slot);
                        sim.unmap(clv, slot);
                        sim.free.push(slot as u32);
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
                if let PolicyState::Live(s) = &mut sim.policy {
                    s.on_schedule(uses.map(|u| Arc::new(NextUse::from_uses(n_clvs, u))));
                }
            }
            SlotEvent::Cursor { pos } => {
                if let PolicyState::Live(s) = &mut sim.policy {
                    s.on_cursor(pos);
                }
            }
        }
    }
    debug_assert_eq!(sim.stats.installs, sim.stats.misses);
    debug_assert_eq!(sim.stats.acquires, sim.stats.hits + sim.stats.misses);
    Ok(sim.stats)
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
        assert_eq!(s, SimStats { hits: 0, misses: 6, evictions: 3, installs: 6, acquires: 6 });
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
