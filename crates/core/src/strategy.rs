//! Replacement strategies: which slotted CLV to overwrite.
//!
//! The paper implements "a generic replacement strategy interface via a set
//! of callback functions" (§IV) with a default that evicts the CLV that is
//! *cheapest to recompute*, approximating recomputation cost by the number
//! of descendant leaves the CLV summarizes. The same interface is exposed
//! here as a trait; LRU, MRU, FIFO, and random policies are provided for
//! the ablation benchmarks (the paper's future-work "different replacement
//! strategies").
//!
//! The paper's slot manager cannot see the order in which EPA-NG visits
//! branches, so its default has to guess what is needed next. Here a sweep
//! knows its whole walk before it starts and says so through two extra
//! callbacks ([`ReplacementStrategy::on_schedule`] and
//! [`ReplacementStrategy::on_cursor`]); the default, [`CostBased`], then
//! weighs the paper's cost by the wait until the next use.

use std::sync::Arc;

use phylo_tree::traversal::NextUse;

use crate::slots::{ClvKey, SlotId};

/// Read-only view of the eviction candidates, handed to
/// [`ReplacementStrategy::choose_victim`].
pub struct VictimView<'a> {
    /// Per slot: the resident CLV's raw key, or `u32::MAX` if free.
    pub(crate) slot_to_clv: &'a [u32],
    /// Per slot: pin count; only zero-pin slots may be chosen.
    pub(crate) pin_counts: &'a [u32],
}

impl<'a> VictimView<'a> {
    /// Builds a view over raw table state: `slot_to_clv[s]` is the CLV
    /// key resident in slot `s` (`u32::MAX` = free) and `pin_counts[s]`
    /// its pin count. Public so out-of-process simulators (the
    /// `phylo-replay` trace replayer) can drive the exact same strategy
    /// objects the live slot manager uses.
    pub fn new(slot_to_clv: &'a [u32], pin_counts: &'a [u32]) -> Self {
        assert_eq!(slot_to_clv.len(), pin_counts.len(), "mismatched table columns");
        VictimView { slot_to_clv, pin_counts }
    }

    /// Iterates evictable `(slot, clv)` pairs: occupied and unpinned.
    pub fn candidates(&self) -> impl Iterator<Item = (SlotId, ClvKey)> + '_ {
        self.slot_to_clv
            .iter()
            .zip(self.pin_counts)
            .enumerate()
            .filter(|&(_, (&clv, &pins))| clv != u32::MAX && pins == 0)
            .map(|(s, (&clv, _))| (SlotId(s as u32), ClvKey(clv)))
    }
}

/// The paper's callback interface for slot replacement.
///
/// `on_insert` / `on_access` / `on_evict` let a policy maintain recency or
/// order bookkeeping; `choose_victim` picks an unpinned occupied slot to
/// overwrite, or `None` if it finds none (which the manager reports as
/// [`crate::AmcError::AllSlotsPinned`]).
pub trait ReplacementStrategy: Send + Sync {
    /// Human-readable policy name (for reports and benches).
    fn name(&self) -> &'static str;
    /// A CLV was installed into a slot.
    fn on_insert(&mut self, clv: ClvKey, slot: SlotId);
    /// A resident CLV was read.
    fn on_access(&mut self, clv: ClvKey, slot: SlotId);
    /// A CLV was removed from its slot.
    fn on_evict(&mut self, clv: ClvKey, slot: SlotId);
    /// Picks the victim among the view's candidates.
    fn choose_victim(&mut self, view: &VictimView<'_>) -> Option<SlotId>;
    /// A sweep announced the table of its future accesses (`Some`), or
    /// withdrew it (`None`). A policy that does not plan ahead ignores it.
    fn on_schedule(&mut self, _next_use: Option<Arc<NextUse>>) {}
    /// The announced sweep is about to ask for the steps before `_pos`:
    /// uses at earlier positions are past, the rest are still to come.
    fn on_cursor(&mut self, _pos: u32) {}
}

/// Convenient tag for constructing strategies by name (CLI/bench plumbing).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StrategyKind {
    /// Evict the CLV with the longest wait until its next use per unit
    /// of recomputation cost; outside an announced sweep, the one
    /// cheapest to recompute (the paper's default).
    #[default]
    CostBased,
    /// Least recently used.
    Lru,
    /// Most recently used.
    Mru,
    /// First in, first out.
    Fifo,
    /// Uniformly random unpinned slot.
    Random,
    /// Adaptive cost × recency hybrid (the paper's §VI outlook): evict the
    /// slot with the lowest recency-discounted recomputation cost.
    CostLru,
}

impl StrategyKind {
    /// Instantiates the strategy. `costs` is required by
    /// [`StrategyKind::CostBased`] (one recomputation-cost value per CLV
    /// key) and ignored by the others.
    pub fn build(self, costs: Option<Vec<f64>>) -> Box<dyn ReplacementStrategy> {
        match self {
            StrategyKind::CostBased => Box::new(CostBased::new(
                costs.expect("CostBased strategy requires a recomputation-cost table"),
            )),
            StrategyKind::Lru => Box::new(Lru::new()),
            StrategyKind::Mru => Box::new(Mru::new()),
            StrategyKind::Fifo => Box::new(Fifo::new()),
            StrategyKind::Random => Box::new(RandomEvict::new(0x5eed)),
            StrategyKind::CostLru => Box::new(CostLru::new(
                costs.expect("CostLru strategy requires a recomputation-cost table"),
            )),
        }
    }

    /// All kinds, for ablation sweeps.
    pub fn all() -> [StrategyKind; 6] {
        [
            StrategyKind::CostBased,
            StrategyKind::Lru,
            StrategyKind::Mru,
            StrategyKind::Fifo,
            StrategyKind::Random,
            StrategyKind::CostLru,
        ]
    }

    /// True for kinds whose constructor requires a cost table.
    pub fn needs_costs(self) -> bool {
        matches!(self, StrategyKind::CostBased | StrategyKind::CostLru)
    }

    /// Parses a kind from its `Display` name (the CLI's `--strategy`
    /// vocabulary); `"cost-based"` is accepted as an alias for `"cost"`.
    pub fn parse(s: &str) -> Option<StrategyKind> {
        Some(match s {
            "cost" | "cost-based" => StrategyKind::CostBased,
            "lru" => StrategyKind::Lru,
            "mru" => StrategyKind::Mru,
            "fifo" => StrategyKind::Fifo,
            "random" => StrategyKind::Random,
            "cost-lru" => StrategyKind::CostLru,
            _ => return None,
        })
    }
}

impl std::fmt::Display for StrategyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            StrategyKind::CostBased => "cost",
            StrategyKind::Lru => "lru",
            StrategyKind::Mru => "mru",
            StrategyKind::Fifo => "fifo",
            StrategyKind::Random => "random",
            StrategyKind::CostLru => "cost-lru",
        };
        write!(f, "{s}")
    }
}

/// The default policy. The paper evicts the unpinned CLV cheapest to
/// recompute because it cannot see EPA-NG's branch order; a sweep here can
/// announce its order ([`ReplacementStrategy::on_schedule`]), and then the
/// victim is the CLV with the longest wait until its next use per unit of
/// recomputation cost — Belady's MIN weighted by the paper's cost proxy.
/// A CLV the sweep never asks for again waits forever. Ties go to the
/// lower cost, then the lower CLV key.
///
/// With no sweep announced every wait is the same, which leaves the
/// paper's rule: lowest cost first, ties to the lower key.
pub struct CostBased {
    costs: Vec<f64>,
    next_use: Option<Arc<NextUse>>,
    cursor: u32,
}

impl CostBased {
    /// `costs[k]` = approximate cost of recomputing CLV `k` (the engine
    /// passes subtree leaf counts).
    pub fn new(costs: Vec<f64>) -> Self {
        CostBased { costs, next_use: None, cursor: 0 }
    }

    /// Access to the cost table (e.g. for pin-priority decisions).
    pub fn costs(&self) -> &[f64] {
        &self.costs
    }
}

impl ReplacementStrategy for CostBased {
    fn name(&self) -> &'static str {
        "cost-based"
    }
    fn on_insert(&mut self, _clv: ClvKey, _slot: SlotId) {}
    fn on_access(&mut self, _clv: ClvKey, _slot: SlotId) {}
    fn on_evict(&mut self, _clv: ClvKey, _slot: SlotId) {}
    fn choose_victim(&mut self, view: &VictimView<'_>) -> Option<SlotId> {
        let cost = |clv: ClvKey| self.costs.get(clv.idx()).copied().unwrap_or(f64::INFINITY);
        let Some(table) = &self.next_use else {
            // Every wait is the same: the paper's rule, at the paper's price
            // (one compare per candidate; `bench/` times this path).
            return view
                .candidates()
                .min_by(|&(_, a), &(_, b)| {
                    cost(a).partial_cmp(&cost(b)).unwrap().then(a.0.cmp(&b.0))
                })
                .map(|(s, _)| s);
        };
        let cursor = self.cursor;
        let wait = |clv: ClvKey| match table.next_from(clv.idx(), cursor) {
            Some(pos) => f64::from(pos - cursor) + 1.0,
            None => f64::INFINITY,
        };
        // wait_a / cost_a against wait_b / cost_b, cross-multiplied: exact
        // for step counts and leaf counts.
        view.candidates()
            .map(|(slot, clv)| (wait(clv), cost(clv), clv.0, slot))
            .max_by(|a, b| {
                (a.0 * b.1)
                    .total_cmp(&(b.0 * a.1))
                    .then_with(|| b.1.total_cmp(&a.1))
                    .then_with(|| b.2.cmp(&a.2))
            })
            .map(|best| best.3)
    }
    fn on_schedule(&mut self, next_use: Option<Arc<NextUse>>) {
        self.next_use = next_use;
        self.cursor = 0;
    }
    fn on_cursor(&mut self, pos: u32) {
        self.cursor = pos;
    }
}

/// Adaptive policy (the paper's "different (e.g. adaptive …) replacement
/// strategies" outlook): combines the default cost heuristic with
/// recency. Each candidate's recomputation cost is discounted by how long
/// ago it was touched — `effective = cost / (1 + age)` — so a big subtree
/// that has gone cold can still be evicted, while recently used cheap
/// CLVs survive short reuse windows.
pub struct CostLru {
    costs: Vec<f64>,
    clock: u64,
    last_access: Vec<u64>,
}

impl CostLru {
    /// `costs[k]` = approximate recomputation cost of CLV `k`.
    pub fn new(costs: Vec<f64>) -> Self {
        CostLru { costs, clock: 0, last_access: Vec::new() }
    }

    fn stamp(&mut self, slot: SlotId) {
        self.clock += 1;
        if slot.idx() >= self.last_access.len() {
            self.last_access.resize(slot.idx() + 1, 0);
        }
        self.last_access[slot.idx()] = self.clock;
    }
}

impl ReplacementStrategy for CostLru {
    fn name(&self) -> &'static str {
        "cost-lru"
    }
    fn on_insert(&mut self, _clv: ClvKey, slot: SlotId) {
        self.stamp(slot);
    }
    fn on_access(&mut self, _clv: ClvKey, slot: SlotId) {
        self.stamp(slot);
    }
    fn on_evict(&mut self, _clv: ClvKey, _slot: SlotId) {}
    fn choose_victim(&mut self, view: &VictimView<'_>) -> Option<SlotId> {
        let now = self.clock;
        view.candidates()
            .min_by(|&(sa, a), &(sb, b)| {
                let eff = |slot: SlotId, clv: ClvKey| {
                    let cost = self.costs.get(clv.idx()).copied().unwrap_or(f64::INFINITY);
                    let age =
                        now.saturating_sub(self.last_access.get(slot.idx()).copied().unwrap_or(0));
                    cost / (1.0 + age as f64)
                };
                eff(sa, a).partial_cmp(&eff(sb, b)).unwrap().then(a.0.cmp(&b.0))
            })
            .map(|(s, _)| s)
    }
}

/// Least-recently-used eviction (classic cache baseline).
pub struct Lru {
    clock: u64,
    last_access: Vec<u64>,
}

impl Lru {
    /// An empty LRU policy.
    pub fn new() -> Self {
        Lru { clock: 0, last_access: Vec::new() }
    }

    fn stamp(&mut self, slot: SlotId) {
        self.clock += 1;
        if slot.idx() >= self.last_access.len() {
            self.last_access.resize(slot.idx() + 1, 0);
        }
        self.last_access[slot.idx()] = self.clock;
    }
}

impl Default for Lru {
    fn default() -> Self {
        Self::new()
    }
}

impl ReplacementStrategy for Lru {
    fn name(&self) -> &'static str {
        "lru"
    }
    fn on_insert(&mut self, _clv: ClvKey, slot: SlotId) {
        self.stamp(slot);
    }
    fn on_access(&mut self, _clv: ClvKey, slot: SlotId) {
        self.stamp(slot);
    }
    fn on_evict(&mut self, _clv: ClvKey, _slot: SlotId) {}
    fn choose_victim(&mut self, view: &VictimView<'_>) -> Option<SlotId> {
        view.candidates()
            .min_by_key(|&(s, _)| self.last_access.get(s.idx()).copied().unwrap_or(0))
            .map(|(s, _)| s)
    }
}

/// Most-recently-used eviction — the pathological counterpoint for loops
/// that sweep more CLVs than there are slots.
pub struct Mru {
    inner: Lru,
}

impl Mru {
    /// An empty MRU policy.
    pub fn new() -> Self {
        Mru { inner: Lru::new() }
    }
}

impl Default for Mru {
    fn default() -> Self {
        Self::new()
    }
}

impl ReplacementStrategy for Mru {
    fn name(&self) -> &'static str {
        "mru"
    }
    fn on_insert(&mut self, clv: ClvKey, slot: SlotId) {
        self.inner.on_insert(clv, slot);
    }
    fn on_access(&mut self, clv: ClvKey, slot: SlotId) {
        self.inner.on_access(clv, slot);
    }
    fn on_evict(&mut self, _clv: ClvKey, _slot: SlotId) {}
    fn choose_victim(&mut self, view: &VictimView<'_>) -> Option<SlotId> {
        view.candidates()
            .max_by_key(|&(s, _)| self.inner.last_access.get(s.idx()).copied().unwrap_or(0))
            .map(|(s, _)| s)
    }
}

/// First-in-first-out eviction.
pub struct Fifo {
    clock: u64,
    inserted: Vec<u64>,
}

impl Fifo {
    /// An empty FIFO policy.
    pub fn new() -> Self {
        Fifo { clock: 0, inserted: Vec::new() }
    }
}

impl Default for Fifo {
    fn default() -> Self {
        Self::new()
    }
}

impl ReplacementStrategy for Fifo {
    fn name(&self) -> &'static str {
        "fifo"
    }
    fn on_insert(&mut self, _clv: ClvKey, slot: SlotId) {
        self.clock += 1;
        if slot.idx() >= self.inserted.len() {
            self.inserted.resize(slot.idx() + 1, 0);
        }
        self.inserted[slot.idx()] = self.clock;
    }
    fn on_access(&mut self, _clv: ClvKey, _slot: SlotId) {}
    fn on_evict(&mut self, _clv: ClvKey, _slot: SlotId) {}
    fn choose_victim(&mut self, view: &VictimView<'_>) -> Option<SlotId> {
        view.candidates()
            .min_by_key(|&(s, _)| self.inserted.get(s.idx()).copied().unwrap_or(0))
            .map(|(s, _)| s)
    }
}

/// Uniformly random eviction (deterministic xorshift, seedable).
pub struct RandomEvict {
    state: u64,
}

impl RandomEvict {
    /// A random policy with the given seed.
    pub fn new(seed: u64) -> Self {
        RandomEvict { state: seed.max(1) }
    }

    fn next(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x
    }
}

impl ReplacementStrategy for RandomEvict {
    fn name(&self) -> &'static str {
        "random"
    }
    fn on_insert(&mut self, _clv: ClvKey, _slot: SlotId) {}
    fn on_access(&mut self, _clv: ClvKey, _slot: SlotId) {}
    fn on_evict(&mut self, _clv: ClvKey, _slot: SlotId) {}
    fn choose_victim(&mut self, view: &VictimView<'_>) -> Option<SlotId> {
        let candidates: Vec<SlotId> = view.candidates().map(|(s, _)| s).collect();
        if candidates.is_empty() {
            return None;
        }
        let i = (self.next() % candidates.len() as u64) as usize;
        Some(candidates[i])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::slots::{Acquire, ClvKey, SlotManager};

    #[test]
    fn lru_evicts_least_recent() {
        let m = SlotManager::new(10, 2, Box::new(Lru::new()));
        m.acquire(ClvKey(0)).unwrap();
        m.acquire(ClvKey(1)).unwrap();
        m.acquire(ClvKey(0)).unwrap(); // touch 0
        let a = m.acquire(ClvKey(2)).unwrap();
        assert!(matches!(a, Acquire::Evicted { victim: ClvKey(1), .. }), "{a:?}");
    }

    #[test]
    fn mru_evicts_most_recent() {
        let m = SlotManager::new(10, 2, Box::new(Mru::new()));
        m.acquire(ClvKey(0)).unwrap();
        m.acquire(ClvKey(1)).unwrap();
        let a = m.acquire(ClvKey(2)).unwrap();
        assert!(matches!(a, Acquire::Evicted { victim: ClvKey(1), .. }), "{a:?}");
    }

    #[test]
    fn random_is_deterministic_per_seed() {
        let run = |seed| {
            let m = SlotManager::new(20, 3, Box::new(RandomEvict::new(seed)));
            let mut victims = Vec::new();
            for k in 0..12 {
                if let Acquire::Evicted { victim, .. } = m.acquire(ClvKey(k)).unwrap() {
                    victims.push(victim.0);
                }
            }
            victims
        };
        assert_eq!(run(1), run(1));
        assert_ne!(run(1), run(99));
    }

    #[test]
    fn kind_round_trip() {
        for kind in StrategyKind::all() {
            let costs = kind.needs_costs().then(|| vec![1.0; 8]);
            let s = kind.build(costs);
            assert!(!s.name().is_empty());
        }
    }

    #[test]
    fn cost_based_ignores_pinned() {
        let m = SlotManager::new(10, 2, Box::new(CostBased::new(vec![1.0, 2.0, 3.0, 4.0])));
        let s0 = m.acquire(ClvKey(0)).unwrap().slot(); // cheapest
        m.acquire(ClvKey(1)).unwrap();
        m.pin(s0);
        // 0 is cheapest but pinned; must evict 1.
        let a = m.acquire(ClvKey(2)).unwrap();
        assert!(matches!(a, Acquire::Evicted { victim: ClvKey(1), .. }));
    }

    /// The paper's rule, as the default read before sweeps announced
    /// themselves: cheapest first, ties to the lower key.
    fn cheapest(view: &VictimView<'_>, costs: &[f64]) -> Option<SlotId> {
        view.candidates()
            .min_by(|&(_, a), &(_, b)| {
                costs[a.idx()].partial_cmp(&costs[b.idx()]).unwrap().then(a.0.cmp(&b.0))
            })
            .map(|(s, _)| s)
    }

    /// Drains a table through `policy`, returning the CLVs in the order
    /// they were chosen.
    fn victim_order(policy: &mut CostBased, slot_to_clv: &[u32], pin_counts: &[u32]) -> Vec<u32> {
        let mut slot_to_clv = slot_to_clv.to_vec();
        let mut order = Vec::new();
        while let Some(slot) = policy.choose_victim(&VictimView::new(&slot_to_clv, pin_counts)) {
            assert_eq!(pin_counts[slot.idx()], 0, "a pinned slot is no candidate");
            order.push(std::mem::replace(&mut slot_to_clv[slot.idx()], u32::MAX));
        }
        order
    }

    #[test]
    fn cost_based_without_a_sweep_is_the_papers_cost_order() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(41);
        for _ in 0..50 {
            // Few distinct costs, so ties are common; some slots free,
            // some pinned.
            let costs: Vec<f64> = (0..40).map(|_| rng.gen_range(1..6u32) as f64 / 3.0).collect();
            let mut keys: Vec<u32> = (0..40).collect();
            let slot_to_clv: Vec<u32> = (0..24)
                .map(|_| {
                    let k = keys.swap_remove(rng.gen_range(0..keys.len()));
                    if rng.gen_bool(0.15) {
                        u32::MAX
                    } else {
                        k
                    }
                })
                .collect();
            let pin_counts: Vec<u32> = (0..24).map(|_| rng.gen_range(0..4u32) / 3).collect();
            let mut expect = Vec::new();
            let mut left = slot_to_clv.clone();
            while let Some(s) = cheapest(&VictimView::new(&left, &pin_counts), &costs) {
                expect.push(std::mem::replace(&mut left[s.idx()], u32::MAX));
            }
            let mut policy = CostBased::new(costs.clone());
            assert_eq!(victim_order(&mut policy, &slot_to_clv, &pin_counts), expect);
            // An announced and withdrawn sweep leaves nothing behind.
            let uses = [(3u32, 2u32), (7, 9), (11, 4)];
            policy.on_schedule(Some(Arc::new(NextUse::from_uses(40, &uses))));
            policy.on_cursor(3);
            policy.on_schedule(None);
            assert_eq!(victim_order(&mut policy, &slot_to_clv, &pin_counts), expect);
        }
    }

    #[test]
    fn cost_based_evicts_the_longest_wait_per_unit_cost() {
        // CLV k costs k + 1. The sweep wants 0 at step 4, 1 at steps 2
        // and 40, 2 at step 6, 3 and 4 never, 5 at step 5.
        let uses = [(0u32, 4u32), (1, 2), (1, 40), (2, 6), (5, 5)];
        let mut policy = CostBased::new((1..=6).map(f64::from).collect());
        policy.on_schedule(Some(Arc::new(NextUse::from_uses(6, &uses))));
        let slots = [0, 1, 2, 3, 4, 5];
        // Never again goes before any finite wait, cheapest first; then
        // (wait + 1) / cost: 5/1, 3/2, 7/3, 6/6 from the start.
        assert_eq!(victim_order(&mut policy, &slots, &[0; 6]), [3, 4, 0, 2, 1, 5]);
        // Past step 2, CLV 1 waits for step 40: (40 − 3 + 1) / 2 = 19.
        policy.on_cursor(3);
        assert_eq!(victim_order(&mut policy, &slots, &[0; 6]), [3, 4, 1, 0, 2, 5]);
        // A pinned CLV is skipped however long it waits.
        assert_eq!(victim_order(&mut policy, &slots, &[0, 1, 0, 1, 0, 0]), [4, 0, 2, 5]);
        // Past the last use of everything, and with the sweep withdrawn,
        // cost order is all that is left.
        policy.on_cursor(41);
        assert_eq!(victim_order(&mut policy, &slots, &[0; 6]), [0, 1, 2, 3, 4, 5]);
        policy.on_cursor(3);
        policy.on_schedule(None);
        assert_eq!(victim_order(&mut policy, &slots, &[0; 6]), [0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn kind_display_parse_round_trip() {
        for kind in StrategyKind::all() {
            let name = kind.to_string();
            assert_eq!(StrategyKind::parse(&name), Some(kind), "{name}");
        }
        // The alias and the rejection path.
        assert_eq!(StrategyKind::parse("cost-based"), Some(StrategyKind::CostBased));
        assert_eq!(StrategyKind::parse("belady"), None, "the oracle is not a live strategy");
        assert_eq!(StrategyKind::parse("LRU"), None, "names are case-sensitive");
        assert_eq!(StrategyKind::parse(""), None);
    }

    #[test]
    fn victim_view_candidates_skip_pinned_and_free() {
        // slots: 0 holds clv 7 unpinned, 1 free, 2 holds clv 9 pinned,
        // 3 holds clv 4 unpinned.
        let slot_to_clv = [7, u32::MAX, 9, 4];
        let pin_counts = [0, 0, 2, 0];
        let view = VictimView::new(&slot_to_clv, &pin_counts);
        let cand: Vec<(u32, u32)> = view.candidates().map(|(s, c)| (s.0, c.0)).collect();
        assert_eq!(cand, vec![(0, 7), (3, 4)]);
    }

    #[test]
    #[should_panic(expected = "mismatched table columns")]
    fn victim_view_rejects_ragged_columns() {
        let _ = VictimView::new(&[1, 2], &[0]);
    }

    /// LRU recency must be maintained by accesses — and *only* accesses.
    /// Pins and unpins interleaved with the accesses must not disturb the
    /// recency order (they protect slots, they do not "use" them).
    #[test]
    fn lru_recency_survives_interleaved_pin_unpin() {
        let m = SlotManager::new(10, 3, Box::new(Lru::new()));
        let s0 = m.acquire(ClvKey(0)).unwrap().slot();
        let s1 = m.acquire(ClvKey(1)).unwrap().slot();
        let s2 = m.acquire(ClvKey(2)).unwrap().slot();
        // Recency now 0 < 1 < 2. Touch 0 (making 1 the LRU), with pin
        // churn around the touch that must not count as accesses.
        m.pin(s1);
        m.pin_n(s2, 3);
        m.touch(ClvKey(0));
        m.unpin(s1).unwrap();
        for _ in 0..3 {
            m.unpin(s2).unwrap();
        }
        let a = m.acquire(ClvKey(3)).unwrap();
        assert!(matches!(a, Acquire::Evicted { victim: ClvKey(1), .. }), "{a:?}");
        // After evicting 1, the order is 2 < 0 < 3 — but 2 is pinned now,
        // so the next eviction must fall through to 0.
        let s2b = m.lookup(ClvKey(2)).unwrap();
        assert_eq!(s2b, s2, "pinned-free slot churn must not remap resident CLVs");
        m.pin(s2b);
        let a = m.acquire(ClvKey(4)).unwrap();
        assert!(matches!(a, Acquire::Evicted { victim: ClvKey(0), .. }), "{a:?}");
        m.unpin(s2b).unwrap();
        let _ = s0;
        m.check_invariants().unwrap();
    }

    /// After an eviction the freed slot's recency stamp must be refreshed
    /// by the incoming CLV's insert — the new occupant is the *most*
    /// recent, not the heir of the victim's staleness.
    #[test]
    fn lru_reinserted_slot_gets_fresh_recency() {
        let m = SlotManager::new(10, 2, Box::new(Lru::new()));
        m.acquire(ClvKey(0)).unwrap();
        m.acquire(ClvKey(1)).unwrap();
        // Evicts 0 (oldest); the slot is re-stamped for clv 2's insert.
        m.acquire(ClvKey(2)).unwrap();
        // If on_insert failed to stamp, clv 2's slot would still look
        // ancient and get evicted here; the correct victim is clv 1.
        let a = m.acquire(ClvKey(3)).unwrap();
        assert!(matches!(a, Acquire::Evicted { victim: ClvKey(1), .. }), "{a:?}");
        m.check_invariants().unwrap();
    }

    #[test]
    fn mru_recency_survives_interleaved_pin_unpin() {
        let m = SlotManager::new(10, 3, Box::new(Mru::new()));
        m.acquire(ClvKey(0)).unwrap();
        let s1 = m.acquire(ClvKey(1)).unwrap().slot();
        m.acquire(ClvKey(2)).unwrap();
        // 2 is most recent, but pin churn on 1 must not promote it.
        m.pin(s1);
        m.unpin(s1).unwrap();
        let a = m.acquire(ClvKey(3)).unwrap();
        assert!(matches!(a, Acquire::Evicted { victim: ClvKey(2), .. }), "{a:?}");
        // Touch 0: now 0 is most recent among residents {0, 1, 3}... but
        // pin it, and MRU must fall back to the next most recent (3).
        let s0 = m.lookup(ClvKey(0)).unwrap();
        m.touch(ClvKey(0));
        m.pin(s0);
        let a = m.acquire(ClvKey(4)).unwrap();
        assert!(matches!(a, Acquire::Evicted { victim: ClvKey(3), .. }), "{a:?}");
        m.unpin(s0).unwrap();
        m.check_invariants().unwrap();
    }

    /// FIFO order is set at insert time: accesses and pin churn between
    /// insert and eviction must not reorder the queue.
    #[test]
    fn fifo_order_ignores_touches_and_pins() {
        let m = SlotManager::new(10, 3, Box::new(Fifo::new()));
        let s0 = m.acquire(ClvKey(0)).unwrap().slot();
        m.acquire(ClvKey(1)).unwrap();
        m.acquire(ClvKey(2)).unwrap();
        // Heavy use of the oldest entry; FIFO must still evict it first.
        m.touch(ClvKey(0));
        m.acquire(ClvKey(0)).unwrap(); // a hit, not a reinsert
        m.pin(s0);
        m.unpin(s0).unwrap();
        let a = m.acquire(ClvKey(3)).unwrap();
        assert!(matches!(a, Acquire::Evicted { victim: ClvKey(0), .. }), "{a:?}");
        // 3 went into 0's old slot; insertion order is now 1 < 2 < 3.
        let a = m.acquire(ClvKey(4)).unwrap();
        assert!(matches!(a, Acquire::Evicted { victim: ClvKey(1), .. }), "{a:?}");
        m.check_invariants().unwrap();
    }

    /// A pinned slot is invisible to `choose_victim` even when the
    /// policy's own bookkeeping ranks it first, and becomes evictable
    /// again the moment its last pin drains.
    #[test]
    fn unpin_restores_evictability() {
        let m = SlotManager::new(10, 2, Box::new(Lru::new()));
        let s0 = m.acquire(ClvKey(0)).unwrap().slot();
        m.acquire(ClvKey(1)).unwrap();
        m.pin_n(s0, 2);
        // 0 is LRU but pinned twice: evictions take 1's slot.
        let a = m.acquire(ClvKey(2)).unwrap();
        assert!(matches!(a, Acquire::Evicted { victim: ClvKey(1), .. }), "{a:?}");
        m.unpin(s0).unwrap();
        // Still one pin left: 0 remains protected.
        let a = m.acquire(ClvKey(3)).unwrap();
        assert!(matches!(a, Acquire::Evicted { victim: ClvKey(2), .. }), "{a:?}");
        m.unpin(s0).unwrap();
        // Pin fully drained: 0 is finally evictable (and is the LRU).
        let a = m.acquire(ClvKey(4)).unwrap();
        assert!(matches!(a, Acquire::Evicted { victim: ClvKey(0), .. }), "{a:?}");
        m.check_invariants().unwrap();
    }
}
