//! A trace file is outside input: whatever a hand-written trace says,
//! replaying it ends in counters or a typed [`SimError`], never a panic.
//! The slot manager the replay drives indexes its tables without bounds
//! checks and refuses to invalidate a pinned slot, so every key and
//! every event has to be vetted before it reaches the manager.

use phylo_replay::{simulate, slot_count_ladder, Policy, SimError, SlotEvent, Trace};

const HEAD: &str = concat!(
    "#phylo-slot-trace v1\n",
    "#meta n_clvs=3 n_slots=2 strategy=cost bytes_per_slot=8\n",
    "#costs 1.0 2.0 3.0\n",
);

fn parse(events: &str) -> Trace {
    Trace::parse(&format!("{HEAD}{events}")).unwrap()
}

/// Replays `trace` under every policy at slot counts 0 to 3 and at every
/// rung of its ladder; returns the outcomes at `n_slots`.
fn replay_everywhere(trace: &Trace, n_slots: usize) -> Vec<Result<u64, SimError>> {
    let mut counts = vec![0, 1, 2, 3];
    counts.extend(slot_count_ladder(trace));
    let mut at = Vec::new();
    for &n in &counts {
        for policy in Policy::all() {
            let outcome = simulate(trace, n, policy);
            if let Ok(s) = &outcome {
                assert_eq!(s.hits + s.misses, s.acquires, "{policy} at {n}");
                assert_eq!(s.installs, s.misses, "{policy} at {n}");
            }
            if n == n_slots {
                at.push(outcome.map(|s| s.misses));
            }
        }
    }
    at
}

#[test]
fn the_empty_slot_sentinel_on_every_event_kind() {
    // `-` names no CLV: a touch, pin, unpin or invalidate of it changes
    // nothing, and only a demand access on it is a broken trace.
    let t = parse("a 0\nt -\np - 2\nu -\ni -\ns -\na 1\nt 0\n");
    for outcome in replay_everywhere(&t, 1) {
        assert_eq!(outcome, Ok(2));
    }
    let t = parse("a 0\na -\n");
    for outcome in replay_everywhere(&t, 2) {
        assert!(matches!(outcome, Err(SimError::BadTrace(_))), "{outcome:?}");
    }
}

#[test]
fn keys_above_the_declared_key_space() {
    // The meta declares 3 CLVs and costs for 3; the events name more.
    let t = parse("a 0\na 7\nt 9\np 8 1\nu 8\nu 12\ni 11\nt 7\ns 14:0,1 2:3\nc 1\na 14\na 0\n");
    for outcome in replay_everywhere(&t, 3) {
        assert!(outcome.is_ok(), "{outcome:?}");
    }
}

#[test]
fn a_schedule_event_without_its_table() {
    // An empty announcement is a table that wants nothing.
    let t = parse("s\nc 4\na 0\na 1\na 2\ns -\n");
    for outcome in replay_everywhere(&t, 2) {
        assert_eq!(outcome, Ok(3));
    }
    // An index past the trace's tables is a broken trace.
    let t = Trace { events: vec![SlotEvent::Schedule { table: 5 }], ..parse("a 0\n") };
    for outcome in replay_everywhere(&t, 2) {
        assert!(matches!(outcome, Err(SimError::BadTrace(_))), "{outcome:?}");
    }
}

#[test]
fn an_unpin_with_no_pin() {
    let t = parse("u 0\na 0\nu 0\nu 0\na 1\na 0\n");
    for outcome in replay_everywhere(&t, 1) {
        assert_eq!(outcome, Ok(3));
    }
}

#[test]
fn an_invalidate_of_a_pinned_clv() {
    // The invalidate is skipped, so 0 keeps its slot pinned: one slot
    // jams on the next miss, two slots serve it.
    let t = parse("a 0\np 0 1\ni 0\na 1\nu 0\n");
    for outcome in replay_everywhere(&t, 1) {
        assert_eq!(outcome, Err(SimError::Stuck { index: 3, clv: 1 }));
    }
    for outcome in replay_everywhere(&t, 2) {
        assert_eq!(outcome, Ok(2));
    }
}

#[test]
fn zero_slots_and_unreadable_pins_and_costs() {
    let t = parse("a 0\n");
    for outcome in replay_everywhere(&t, 0) {
        assert!(matches!(outcome, Err(SimError::BadTrace(_))), "{outcome:?}");
    }
    // A pin count past u32 on one slot.
    let t = parse("a 0\np 0 4294967295\np 0 1\n");
    for outcome in replay_everywhere(&t, 1) {
        assert!(matches!(outcome, Err(SimError::BadTrace(_))), "{outcome:?}");
    }
    // A NaN cost cannot be ordered; the cost-aware policies refuse it.
    let t = Trace::parse(&HEAD.replace("2.0", "NaN")).unwrap();
    let t = Trace { events: parse("a 0\na 1\na 2\n").events, ..t };
    for policy in Policy::all() {
        let outcome = simulate(&t, 2, policy);
        match policy {
            Policy::Kind(k) if k.needs_costs() => {
                assert!(matches!(outcome, Err(SimError::BadTrace(_))), "{policy}: {outcome:?}")
            }
            _ => assert!(outcome.is_ok(), "{policy}: {outcome:?}"),
        }
    }
}
