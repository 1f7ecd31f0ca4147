//! Slot-count × policy sweeps over a captured trace, and the
//! `--maxmem` recommendation derived from them.
//!
//! The interesting slot counts span from the *feasibility floor* (one
//! more than the trace's peak concurrent pinned set — below that, any
//! policy jams on an all-pinned table) up to the *working set* (the
//! number of distinct CLVs demanded — at or above it every policy pays
//! only compulsory misses). The ladder is geometric between those ends,
//! because miss curves bend on ratios, not differences.

use std::collections::BTreeSet;

use phylo_amc::SlotStats;
use phylo_obs::slottrace::{SlotEvent, Trace, NO_CLV};

use crate::sim::{simulate, Policy, SimError};

/// The smallest slot count that can serve `trace` under any policy: the
/// peak number of concurrently pinned CLVs, plus one slot to evict
/// through. (With that headroom a demand access always has at least one
/// unpinned slot — free or victim — so the replay can never jam.)
pub fn min_feasible_slots(trace: &Trace) -> usize {
    let mut n_clvs = trace.meta.n_clvs as usize;
    for ev in &trace.events {
        if let SlotEvent::Pin { clv, .. } = *ev {
            if clv != NO_CLV {
                n_clvs = n_clvs.max(clv as usize + 1);
            }
        }
    }
    let mut pins = vec![0u64; n_clvs];
    let mut pinned_now = 0usize;
    let mut peak = 0usize;
    for ev in &trace.events {
        match *ev {
            SlotEvent::Pin { clv, n } if clv != NO_CLV && n > 0 => {
                if pins[clv as usize] == 0 {
                    pinned_now += 1;
                    peak = peak.max(pinned_now);
                }
                pins[clv as usize] += n as u64;
            }
            // An unpin with no pin before it (any key) releases nothing.
            SlotEvent::Unpin { clv } => {
                if let Some(c) = pins.get_mut(clv as usize).filter(|c| **c > 0) {
                    *c -= 1;
                    if *c == 0 {
                        pinned_now -= 1;
                    }
                }
            }
            _ => {}
        }
    }
    peak + 1
}

/// The default slot counts a sweep visits: the feasibility floor, the
/// working set, the captured run's own slot count, and geometric rungs
/// in between (≈ √2 apart), deduplicated and sorted.
pub fn slot_count_ladder(trace: &Trace) -> Vec<usize> {
    let lo = min_feasible_slots(trace);
    let hi = trace.distinct_acquired().max(lo);
    let mut rungs = BTreeSet::new();
    rungs.insert(lo);
    rungs.insert(hi);
    if trace.meta.n_slots > 0 {
        rungs.insert((trace.meta.n_slots as usize).clamp(lo, hi));
    }
    let mut x = lo as f64;
    while (x * 1.5) < hi as f64 {
        x *= 1.5;
        rungs.insert(x.round() as usize);
    }
    rungs.into_iter().collect()
}

/// One sweep cell: a policy replayed at one slot count.
#[derive(Debug, Clone)]
pub struct SweepRow {
    /// The replayed policy.
    pub policy: Policy,
    /// The simulated slot count.
    pub n_slots: usize,
    /// Counters, or why the replay could not complete.
    pub outcome: Result<SlotStats, SimError>,
}

/// Replays every `(slot count, policy)` combination.
pub fn sweep(trace: &Trace, slot_counts: &[usize], policies: &[Policy]) -> Vec<SweepRow> {
    let mut rows = Vec::with_capacity(slot_counts.len() * policies.len());
    for &n_slots in slot_counts {
        for &policy in policies {
            rows.push(SweepRow { policy, n_slots, outcome: simulate(trace, n_slots, policy) });
        }
    }
    rows
}

/// A memory recommendation: the smallest swept slot count at which the
/// chosen policy's misses come within `threshold_pct` of the oracle's.
#[derive(Debug, Clone, PartialEq)]
pub struct Recommendation {
    /// The policy the recommendation is for.
    pub policy: Policy,
    /// Smallest slot count meeting the threshold.
    pub n_slots: usize,
    /// That policy's misses there.
    pub policy_misses: u64,
    /// The oracle's misses there.
    pub oracle_misses: u64,
    /// Arena bytes this slot count costs (`n_slots × bytes_per_slot`;
    /// 0 when the trace carries no slot size).
    pub arena_bytes: u64,
}

/// Scans `rows` (as produced by [`sweep`], including [`Policy::Belady`]
/// cells) for the smallest slot count where `policy` is within
/// `threshold_pct` percent of the oracle's miss count **and** the
/// oracle there is within the same threshold of its best swept point.
///
/// The second condition matters: at the feasibility floor every policy
/// trivially ties the oracle (nothing can do better with no headroom),
/// which would "recommend" the most thrashing configuration. Requiring
/// the oracle curve itself to have flattened pins the recommendation to
/// where extra memory stops paying.
pub fn recommend(
    rows: &[SweepRow],
    policy: Policy,
    threshold_pct: f64,
    bytes_per_slot: u64,
) -> Option<Recommendation> {
    let slack = 1.0 + threshold_pct / 100.0;
    let best_oracle = rows
        .iter()
        .filter(|r| r.policy == Policy::Belady)
        .filter_map(|r| r.outcome.as_ref().ok())
        .map(|s| s.misses)
        .min()?;
    let mut counts: Vec<usize> = rows.iter().map(|r| r.n_slots).collect();
    counts.sort_unstable();
    counts.dedup();
    for n_slots in counts {
        let at = |p: Policy| {
            rows.iter()
                .find(|r| r.n_slots == n_slots && r.policy == p)
                .and_then(|r| r.outcome.as_ref().ok())
                .copied()
        };
        let (Some(live), Some(oracle)) = (at(policy), at(Policy::Belady)) else { continue };
        if live.misses as f64 <= oracle.misses as f64 * slack
            && oracle.misses as f64 <= best_oracle as f64 * slack
        {
            return Some(Recommendation {
                policy,
                n_slots,
                policy_misses: live.misses,
                oracle_misses: oracle.misses,
                arena_bytes: n_slots as u64 * bytes_per_slot,
            });
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use phylo_amc::StrategyKind;
    use phylo_obs::slottrace::TraceMeta;

    fn acq(clv: u32) -> SlotEvent {
        SlotEvent::Acquire { clv }
    }

    #[test]
    fn feasibility_floor_tracks_peak_pinned_set() {
        let t = Trace {
            meta: TraceMeta::default(),
            events: vec![
                acq(0),
                SlotEvent::Pin { clv: 0, n: 2 },
                acq(1),
                SlotEvent::Pin { clv: 1, n: 1 },
                SlotEvent::Unpin { clv: 0 },
                SlotEvent::Unpin { clv: 0 }, // peak was {0,1} = 2
                SlotEvent::Unpin { clv: 1 },
                acq(2),
                SlotEvent::Pin { clv: 2, n: 1 },
                SlotEvent::Unpin { clv: 2 },
            ],
            schedules: Vec::new(),
        };
        assert_eq!(min_feasible_slots(&t), 3);
        // And the floor really is feasible while one less jams.
        assert!(simulate(&t, 3, Policy::Kind(StrategyKind::Lru)).is_ok());
        let t_jam = Trace {
            events: t.events[..4].to_vec().into_iter().chain([acq(2)]).collect(),
            ..t.clone()
        };
        assert!(simulate(&t_jam, 2, Policy::Kind(StrategyKind::Lru)).is_err());
    }

    #[test]
    fn ladder_spans_floor_to_working_set() {
        let mut events = Vec::new();
        for clv in 0..40u32 {
            events.push(acq(clv));
        }
        let t = Trace {
            meta: TraceMeta { n_slots: 7, ..Default::default() },
            events,
            schedules: Vec::new(),
        };
        let ladder = slot_count_ladder(&t);
        assert_eq!(*ladder.first().unwrap(), 1);
        assert_eq!(*ladder.last().unwrap(), 40);
        assert!(ladder.contains(&7), "captured slot count is a rung: {ladder:?}");
        assert!(ladder.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn recommendation_picks_smallest_count_within_threshold() {
        // Cyclic scan over 6 CLVs: LRU pays full misses below the
        // working set; at 6 slots it matches the oracle exactly.
        let mut events = Vec::new();
        for _ in 0..10 {
            for clv in 0..6u32 {
                events.push(acq(clv));
            }
        }
        let t = Trace { meta: TraceMeta::default(), events, schedules: Vec::new() };
        let policies = [Policy::Kind(StrategyKind::Lru), Policy::Belady];
        let rows = sweep(&t, &slot_count_ladder(&t), &policies);
        let rec = recommend(&rows, Policy::Kind(StrategyKind::Lru), 10.0, 100).unwrap();
        assert_eq!(rec.n_slots, 6);
        assert_eq!(rec.policy_misses, rec.oracle_misses);
        assert_eq!(rec.arena_bytes, 600);
    }
}
