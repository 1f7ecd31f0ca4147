//! Slot-access trace capture: the ordered event stream of the AMC slot
//! manager, in logical (CLV-denominated) form.
//!
//! The slot manager records one [`SlotEvent`] per state-changing table
//! operation, *inside* the table-lock critical section — so the captured
//! order is the true serialization order of the run, even under
//! concurrent planners. Events name logical CLV keys, never physical
//! slots, which is what lets the offline simulator (`phylo-replay`)
//! replay the same demand stream against *any* policy and *any* slot
//! count: physical placement is derived, not recorded.
//!
//! Like the span tracer ([`crate::trace`]), capture is runtime-armed:
//! the manager holds an `Arc<SlotTrace>` only when a run asked for one
//! (`--slot-trace FILE`), and a disarmed manager pays a single relaxed
//! atomic load per operation. Unlike the tracer, this module carries no
//! feature gate — the recorder is plain data and the differential tests
//! must work in every build.
//!
//! # Text format (version 1)
//!
//! Line-based, writable with a shell and diffable in a terminal:
//!
//! ```text
//! #phylo-slot-trace v1
//! #meta n_clvs=96 n_slots=9 strategy=cost bytes_per_slot=4640
//! #costs 1.0 1.0 2.0 5.0 ...
//! a 17        # Acquire: demand access (hit or miss decided on replay)
//! t 17        # Touch: planner reuse of a resident CLV (a hit)
//! p 17 2      # Pin: 2 pins on the slot holding CLV 17 ("-" = empty slot)
//! u 17        # Unpin one pin ("-" = an empty slot)
//! i 17        # Invalidate: resident CLV dropped, slot freed
//! s 17:3,4 20:1  # Schedule: a sweep told the policy when it will want
//!                # which CLV (clv:step,step …); "s -" withdraws it
//! c 5         # Cursor: the sweep is about to ask for the steps before 5
//! ```
//!
//! The `(clv, access-kind)` pair is explicit per line; the *pinned set*
//! at any position is implicit — fold `p`/`u` up to that position.
//! `s`/`c` lines are not table operations: they record what the
//! replacement policy was told, at the point in table-lock order where it
//! was told, because a policy that plans ahead decides differently for it.
//! `#costs` embeds the per-CLV recomputation-cost table (printed with
//! Rust's shortest round-trip float formatting), so cost-aware policies
//! replay with bit-identical tie-breaking.

use std::sync::Mutex;

/// Sentinel CLV value for events on slots with no occupant (pins and
/// unpins of a free slot). The engine never records one; the parser
/// accepts `-` because trace files are outside input.
pub const NO_CLV: u32 = u32::MAX;

/// Sentinel table index of a [`SlotEvent::Schedule`] that withdraws the
/// announcement.
pub const NO_TABLE: u32 = u32::MAX;

/// One recorded slot-manager operation. `clv` fields hold raw CLV keys
/// ([`NO_CLV`] when the affected slot had no occupant).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlotEvent {
    /// A demand access (`acquire`): the CLV was needed; whether it was a
    /// hit is a property of the policy and slot count, so the replayer
    /// decides.
    Acquire { clv: u32 },
    /// A reuse (`touch`) of a resident CLV by the traversal planner:
    /// a hit in the live run, which never installs.
    Touch { clv: u32 },
    /// `n` pins added to the slot holding `clv`.
    Pin { clv: u32, n: u32 },
    /// One pin removed from the slot holding `clv`.
    Unpin { clv: u32 },
    /// A resident, unpinned CLV dropped from its slot (`invalidate`,
    /// including cache flushes). Not counted as an eviction by the live
    /// manager, and therefore not by the replayer either.
    Invalidate { clv: u32 },
    /// A sweep announced its future accesses to the replacement policy:
    /// [`Trace::schedules`]`[table]`, or [`NO_TABLE`] when it withdrew
    /// them.
    Schedule { table: u32 },
    /// The announced sweep moved on: steps before `pos` are past.
    Cursor { pos: u32 },
}

/// What one sweep announced: `(clv, step)` pairs — the sweep wants `clv`
/// at position `step` of its walk — sorted by CLV, then by step.
pub type ScheduleTable = Vec<(u32, u32)>;

/// Run-level context captured alongside the event stream — everything
/// the offline simulator needs to reconstruct the live configuration.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceMeta {
    /// Logical CLV key space (`n_dir_edges` in the placement engine).
    pub n_clvs: u32,
    /// Physical slot count of the captured run.
    pub n_slots: u32,
    /// Replacement strategy of the captured run (its `Display` name).
    pub strategy: String,
    /// Bytes one slot costs (CLV + scale row), for `--maxmem`
    /// recommendations; 0 when unknown.
    pub bytes_per_slot: u64,
    /// Per-CLV recomputation-cost table (empty when the captured policy
    /// did not need one).
    pub costs: Vec<f64>,
}

/// A parsed (or snapshotted) trace: metadata plus the ordered events.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trace {
    /// Captured run context.
    pub meta: TraceMeta,
    /// The serialized operation stream, in table-lock order.
    pub events: Vec<SlotEvent>,
    /// The tables [`SlotEvent::Schedule`] events refer to, in the order
    /// they were announced.
    pub schedules: Vec<ScheduleTable>,
}

/// The shared recorder a run arms on its slot manager. Internally
/// synchronized: the manager pushes from whatever thread holds the
/// table lock; the run owner snapshots after the run quiesces.
#[derive(Debug, Default)]
pub struct SlotTrace {
    meta: Mutex<TraceMeta>,
    events: Mutex<Vec<SlotEvent>>,
    schedules: Mutex<Vec<ScheduleTable>>,
}

impl SlotTrace {
    /// An empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Installs the run context (the run owner calls this once the slot
    /// count and strategy are known, before traffic starts).
    pub fn set_meta(&self, meta: TraceMeta) {
        *self.meta.lock().unwrap_or_else(|e| e.into_inner()) = meta;
    }

    /// Appends one event (called by the slot manager under its table
    /// lock, which is what makes the order authoritative).
    pub fn push(&self, ev: SlotEvent) {
        self.events.lock().unwrap_or_else(|e| e.into_inner()).push(ev);
    }

    /// Appends a [`SlotEvent::Schedule`] announcing `table` (`None`
    /// withdraws). Same calling rule as [`SlotTrace::push`].
    pub fn push_schedule(&self, table: Option<ScheduleTable>) {
        let index = match table {
            None => NO_TABLE,
            Some(table) => {
                let mut all = self.schedules.lock().unwrap_or_else(|e| e.into_inner());
                all.push(table);
                (all.len() - 1) as u32
            }
        };
        self.push(SlotEvent::Schedule { table: index });
    }

    /// Number of events recorded so far.
    pub fn len(&self) -> usize {
        self.events.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Copies the current contents out as a [`Trace`].
    pub fn snapshot(&self) -> Trace {
        Trace {
            meta: self.meta.lock().unwrap_or_else(|e| e.into_inner()).clone(),
            events: self.events.lock().unwrap_or_else(|e| e.into_inner()).clone(),
            schedules: self.schedules.lock().unwrap_or_else(|e| e.into_inner()).clone(),
        }
    }
}

fn fmt_clv(clv: u32) -> String {
    if clv == NO_CLV {
        "-".to_string()
    } else {
        clv.to_string()
    }
}

fn parse_clv(tok: &str) -> Result<u32, String> {
    if tok == "-" {
        return Ok(NO_CLV);
    }
    tok.parse().map_err(|_| format!("bad CLV key {tok:?}"))
}

impl Trace {
    /// Serializes to the version-1 text format.
    pub fn to_text(&self) -> String {
        let m = &self.meta;
        let mut out = String::from("#phylo-slot-trace v1\n");
        out.push_str(&format!(
            "#meta n_clvs={} n_slots={} strategy={} bytes_per_slot={}\n",
            m.n_clvs, m.n_slots, m.strategy, m.bytes_per_slot
        ));
        if !m.costs.is_empty() {
            out.push_str("#costs");
            for c in &m.costs {
                // `{:?}` prints the shortest representation that parses
                // back to the same f64 — cost ties replay bit-exactly.
                out.push_str(&format!(" {c:?}"));
            }
            out.push('\n');
        }
        for ev in &self.events {
            match *ev {
                SlotEvent::Acquire { clv } => out.push_str(&format!("a {}\n", fmt_clv(clv))),
                SlotEvent::Touch { clv } => out.push_str(&format!("t {}\n", fmt_clv(clv))),
                SlotEvent::Pin { clv, n } => out.push_str(&format!("p {} {n}\n", fmt_clv(clv))),
                SlotEvent::Unpin { clv } => out.push_str(&format!("u {}\n", fmt_clv(clv))),
                SlotEvent::Invalidate { clv } => out.push_str(&format!("i {}\n", fmt_clv(clv))),
                SlotEvent::Schedule { table: NO_TABLE } => out.push_str("s -\n"),
                SlotEvent::Schedule { table } => {
                    // An index the trace has no table for prints as an
                    // empty announcement.
                    let uses = self.schedules.get(table as usize).map_or(&[][..], |t| t);
                    out.push('s');
                    let mut last = None;
                    for &(clv, pos) in uses {
                        if last == Some(clv) {
                            out.push_str(&format!(",{pos}"));
                        } else {
                            out.push_str(&format!(" {clv}:{pos}"));
                        }
                        last = Some(clv);
                    }
                    out.push('\n');
                }
                SlotEvent::Cursor { pos } => out.push_str(&format!("c {pos}\n")),
            }
        }
        out
    }

    /// Parses the version-1 text format. Unknown `#`-comment lines are
    /// skipped (forward compatibility); unknown event lines are errors.
    pub fn parse(text: &str) -> Result<Trace, String> {
        let mut lines = text.lines().enumerate();
        match lines.next() {
            Some((_, l)) if l.trim() == "#phylo-slot-trace v1" => {}
            other => {
                return Err(format!(
                    "not a phylo-slot-trace v1 file (first line: {:?})",
                    other.map(|(_, l)| l).unwrap_or("")
                ))
            }
        }
        let mut trace = Trace::default();
        for (ln, line) in lines {
            let line = line.trim();
            let err = |why: String| format!("line {}: {why}", ln + 1);
            if line.is_empty() {
                continue;
            }
            if let Some(meta) = line.strip_prefix("#meta ") {
                for kv in meta.split_whitespace() {
                    let (k, v) = kv.split_once('=').ok_or_else(|| err(format!("bad {kv:?}")))?;
                    match k {
                        "n_clvs" => {
                            trace.meta.n_clvs = v.parse().map_err(|_| err(format!("{kv:?}")))?
                        }
                        "n_slots" => {
                            trace.meta.n_slots = v.parse().map_err(|_| err(format!("{kv:?}")))?
                        }
                        "strategy" => trace.meta.strategy = v.to_string(),
                        "bytes_per_slot" => {
                            trace.meta.bytes_per_slot =
                                v.parse().map_err(|_| err(format!("{kv:?}")))?
                        }
                        _ => {} // unknown meta keys are fine
                    }
                }
                continue;
            }
            if let Some(costs) = line.strip_prefix("#costs") {
                trace.meta.costs = costs
                    .split_whitespace()
                    .map(|t| t.parse().map_err(|_| err(format!("bad cost {t:?}"))))
                    .collect::<Result<_, _>>()?;
                continue;
            }
            if line.starts_with('#') {
                continue;
            }
            let mut tok = line.split_whitespace();
            let kind = tok.next().unwrap_or("");
            let mut clv = || -> Result<u32, String> {
                parse_clv(tok.next().ok_or_else(|| err(format!("{kind:?} needs a CLV")))?)
                    .map_err(err)
            };
            let ev = match kind {
                "a" => SlotEvent::Acquire { clv: clv()? },
                "t" => SlotEvent::Touch { clv: clv()? },
                "p" => {
                    let c = clv()?;
                    let n = tok
                        .next()
                        .ok_or_else(|| err("p needs a pin count".into()))?
                        .parse()
                        .map_err(|_| err("bad pin count".into()))?;
                    SlotEvent::Pin { clv: c, n }
                }
                "u" => SlotEvent::Unpin { clv: clv()? },
                "i" => SlotEvent::Invalidate { clv: clv()? },
                "s" => {
                    let rest: Vec<&str> = tok.collect();
                    if rest == ["-"] {
                        SlotEvent::Schedule { table: NO_TABLE }
                    } else {
                        let mut table = ScheduleTable::new();
                        for group in rest {
                            let bad = || err(format!("bad schedule entry {group:?}"));
                            let (clv, steps) = group.split_once(':').ok_or_else(bad)?;
                            let clv: u32 = clv.parse().map_err(|_| bad())?;
                            for step in steps.split(',') {
                                table.push((clv, step.parse().map_err(|_| bad())?));
                            }
                        }
                        trace.schedules.push(table);
                        SlotEvent::Schedule { table: (trace.schedules.len() - 1) as u32 }
                    }
                }
                "c" => SlotEvent::Cursor {
                    pos: tok
                        .next()
                        .ok_or_else(|| err("c needs a position".into()))?
                        .parse()
                        .map_err(|_| err("bad cursor position".into()))?,
                },
                other => return Err(err(format!("unknown event kind {other:?}"))),
            };
            trace.events.push(ev);
        }
        Ok(trace)
    }

    /// Number of distinct CLVs that appear in demand ([`SlotEvent::Acquire`])
    /// events — the working set; with at least this many slots every
    /// policy incurs only compulsory misses.
    pub fn distinct_acquired(&self) -> usize {
        let mut seen = std::collections::BTreeSet::new();
        for ev in &self.events {
            if let SlotEvent::Acquire { clv } = *ev {
                if clv != NO_CLV {
                    seen.insert(clv);
                }
            }
        }
        seen.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Trace {
        Trace {
            meta: TraceMeta {
                n_clvs: 12,
                n_slots: 4,
                strategy: "cost-lru".into(),
                bytes_per_slot: 4640,
                costs: vec![1.0, 2.5, 0.1, 7.0],
            },
            events: vec![
                SlotEvent::Acquire { clv: 3 },
                SlotEvent::Pin { clv: 3, n: 2 },
                SlotEvent::Touch { clv: 3 },
                SlotEvent::Unpin { clv: 3 },
                SlotEvent::Unpin { clv: NO_CLV },
                SlotEvent::Invalidate { clv: 3 },
                SlotEvent::Schedule { table: 0 },
                SlotEvent::Cursor { pos: 2 },
                SlotEvent::Schedule { table: NO_TABLE },
                SlotEvent::Schedule { table: 1 },
            ],
            schedules: vec![vec![(3, 0), (3, 4), (3, 9), (7, 1), (11, 0)], vec![]],
        }
    }

    #[test]
    fn text_round_trip() {
        let t = sample();
        let parsed = Trace::parse(&t.to_text()).unwrap();
        assert_eq!(parsed, t);
    }

    #[test]
    fn recorder_snapshot_round_trip() {
        let rec = SlotTrace::new();
        let t = sample();
        rec.set_meta(t.meta.clone());
        for &ev in &t.events {
            match ev {
                SlotEvent::Schedule { table } => {
                    rec.push_schedule(t.schedules.get(table as usize).cloned())
                }
                _ => rec.push(ev),
            }
        }
        assert_eq!(rec.len(), t.events.len());
        assert_eq!(rec.snapshot(), t);
    }

    #[test]
    fn rejects_garbage() {
        assert!(Trace::parse("not a trace\n").is_err());
        assert!(Trace::parse("#phylo-slot-trace v1\nz 3\n").is_err());
        assert!(Trace::parse("#phylo-slot-trace v1\na\n").is_err());
        assert!(Trace::parse("#phylo-slot-trace v1\np 3\n").is_err());
        assert!(Trace::parse("#phylo-slot-trace v1\ns 3\n").is_err());
        assert!(Trace::parse("#phylo-slot-trace v1\ns 3:1,x\n").is_err());
        assert!(Trace::parse("#phylo-slot-trace v1\nc\n").is_err());
        // Retired kinds (the old poison and unpin-all events) are unknown,
        // not misread, and the error names the line.
        for (text, kind) in [("a 1\nx 3\n", "\"x\""), ("a 1\nU\n", "\"U\"")] {
            let err = Trace::parse(&format!("#phylo-slot-trace v1\n{text}")).unwrap_err();
            assert_eq!(err, format!("line 3: unknown event kind {kind}"));
        }
        // Unknown comments and meta keys pass through.
        let t =
            Trace::parse("#phylo-slot-trace v1\n# a comment\n#meta n_clvs=3 future=9\n").unwrap();
        assert_eq!(t.meta.n_clvs, 3);
    }

    #[test]
    fn distinct_acquired_counts_demand_only() {
        let t = Trace {
            meta: TraceMeta::default(),
            events: vec![
                SlotEvent::Acquire { clv: 1 },
                SlotEvent::Acquire { clv: 1 },
                SlotEvent::Acquire { clv: 4 },
                SlotEvent::Touch { clv: 9 },
            ],
            schedules: Vec::new(),
        };
        assert_eq!(t.distinct_acquired(), 2);
    }

    #[test]
    fn costs_round_trip_bit_exactly() {
        let costs = vec![0.1, 1.0 / 3.0, f64::MIN_POSITIVE, 12345.6789];
        let t = Trace {
            meta: TraceMeta { costs: costs.clone(), ..Default::default() },
            ..Default::default()
        };
        let parsed = Trace::parse(&t.to_text()).unwrap();
        for (a, b) in parsed.meta.costs.iter().zip(&costs) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }
}
