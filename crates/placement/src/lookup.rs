//! The preplacement lookup table.
//!
//! "EPA-NG utilizes additional memoization techniques […] a lookup table
//! that contains constant, precomputed placement results for every branch
//! that allow to rapidly pre-score putative placements" (paper, §II). The
//! table holds, for every reference branch, a [`BranchScoreTable`]: the
//! linear likelihood of attaching each possible query residue at the
//! branch midpoint, per site pattern. Prescoring a query against a branch
//! is then a table walk over its sites — no CLV access at all.
//!
//! The table's footprint (`branches × patterns × (states+1) × 8 B`, the
//! `states` concrete columns plus the fully-ambiguous site term) is the
//! single allocation whose fit decides between the fast path and the
//! paper's ~23× slowdown cliff.

use crate::config::EpaConfig;
use crate::error::PlaceError;
use crate::memplan::{self, BlockPlan};
use crate::result::SweepStats;
use crate::score::{BranchScoreTable, QueryEvaluator, ScoreScratch};
use crate::sweep::{run_sweep, DegradationCounters, Walk};
use phylo_engine::{ManagedStore, ReferenceContext};
use phylo_tree::traversal::SweepSchedule;
use phylo_tree::EdgeId;
use std::sync::Mutex;

/// Per-branch prescore tables for the whole reference tree.
pub struct LookupTable {
    tables: Vec<BranchScoreTable>,
    pendant: f64,
    built: SweepStats,
}

impl LookupTable {
    /// Builds the table with one sweep over all branches
    /// ([`SweepSchedule`] order) under whatever slot budget the store
    /// enforces, on `cfg.threads` threads: a unit is one branch's row.
    ///
    /// The pendant length used for prescoring is the tree's mean branch
    /// length (EPA-NG's default heuristic).
    pub fn build(
        ctx: &ReferenceContext,
        store: &ManagedStore,
        cfg: &EpaConfig,
    ) -> Result<LookupTable, PlaceError> {
        let pendant = ctx.starting_pendant();
        // Every row is built at the one pendant length: its transition
        // matrices are built here, once, not once per branch.
        let mut pendant_eval = QueryEvaluator::new(ctx);
        pendant_eval.set_pendant(ctx, pendant);
        // The table's storage and every thread's buffers are allocated
        // here, on the calling thread; the sweep only fills them.
        let tables: Vec<Mutex<BranchScoreTable>> =
            ctx.tree().all_edges().map(|_| Mutex::new(BranchScoreTable::sized(ctx))).collect();
        let mut scratch: Vec<ScoreScratch> =
            (0..cfg.threads.max(1)).map(|_| ScoreScratch::for_tables(ctx)).collect();
        // A hand-built store without block headroom still builds, one
        // branch at a time.
        let plan = memplan::effective_block_size(ctx, cfg, store.n_slots()).unwrap_or(BlockPlan {
            block_size: 1,
            async_prefetch: false,
            prefetch_disabled: false,
            block_clamped: false,
        });
        let steps = SweepSchedule::new(ctx.tree()).steps(|_| true);
        let deg = DegradationCounters::default();
        let walk = Walk { ctx, store, steps: &steps, plan, deg: &deg };
        let mut built = SweepStats::default();
        let rows = run_sweep(
            walk,
            "lookup build worker",
            &mut scratch,
            &mut built,
            <[EdgeId]>::to_vec,
            |e, scratch| {
                let partials = scratch.midpoint_partials(ctx, store, e);
                let mut table =
                    tables[e.idx()].lock().expect("no table lock is held across a panic");
                table.rebuild(ctx, partials, &pendant_eval);
                Ok(())
            },
        )?;
        assert_eq!(rows.len(), tables.len(), "the sweep covers every edge");
        let tables = tables
            .into_iter()
            .map(|t| t.into_inner().expect("no table lock is held across a panic"))
            .collect();
        Ok(LookupTable { tables, pendant, built })
    }

    /// Where the build's sweep spent its threads' time.
    pub(crate) fn build_stats(&self) -> SweepStats {
        self.built
    }

    /// The score table of one branch.
    pub fn table(&self, edge: EdgeId) -> &BranchScoreTable {
        &self.tables[edge.idx()]
    }

    /// The prescore of one query at one branch.
    pub fn prescore(
        &self,
        ctx: &ReferenceContext,
        edge: EdgeId,
        site_to_pattern: &[u32],
        codes: &[u8],
    ) -> f64 {
        self.table(edge).prescore(ctx, site_to_pattern, codes)
    }

    /// The pendant length the table was built with.
    pub fn pendant(&self) -> f64 {
        self.pendant
    }

    /// Number of branch tables.
    pub fn n_branches(&self) -> usize {
        self.tables.len()
    }

    /// Total bytes (must agree with [`crate::memplan::lookup_bytes`] up to
    /// rounding).
    pub fn bytes(&self) -> usize {
        self.tables.iter().map(|t| t.bytes()).sum()
    }
}

impl std::fmt::Debug for LookupTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LookupTable")
            .field("branches", &self.n_branches())
            .field("pendant", &self.pendant)
            .field("bytes", &self.bytes())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phylo_amc::StrategyKind;
    use phylo_models::{dna, DiscreteGamma, SubstModel};
    use phylo_seq::alphabet::AlphabetKind;
    use phylo_seq::{compress, Msa, Sequence};
    use phylo_tree::{generate, NodeId};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn setup(n: usize, sites: usize, seed: u64) -> (ReferenceContext, Vec<u32>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let tree = generate::yule(n, 0.1, &mut rng).unwrap();
        let rows: Vec<Sequence> = (0..n)
            .map(|i| {
                let text: String = (0..sites)
                    .map(|_| "ACGT".as_bytes()[rng.gen_range(0..4usize)] as char)
                    .collect();
                Sequence::from_text(tree.taxon(NodeId(i as u32)), AlphabetKind::Dna, &text).unwrap()
            })
            .collect();
        let patterns = compress(&Msa::new(rows).unwrap()).unwrap();
        let s2p = patterns.site_to_pattern().to_vec();
        let model = SubstModel::new(&dna::jc69(), DiscreteGamma::none()).unwrap();
        let ctx =
            ReferenceContext::new(tree, model, AlphabetKind::Dna.alphabet(), &patterns).unwrap();
        (ctx, s2p)
    }

    #[test]
    fn builds_one_table_per_branch() {
        let (ctx, _) = setup(10, 25, 1);
        let store = ManagedStore::full(&ctx);
        let table = LookupTable::build(&ctx, &store, &EpaConfig::default()).unwrap();
        assert_eq!(table.n_branches(), ctx.tree().n_edges());
        assert!(table.bytes() > 0);
    }

    #[test]
    fn full_and_tight_stores_build_identical_tables() {
        let (ctx, s2p) = setup(14, 30, 2);
        let full = ManagedStore::full(&ctx);
        let tight =
            ManagedStore::with_slots(&ctx, ctx.min_slots(), StrategyKind::CostBased).unwrap();
        let cfg = EpaConfig::default();
        let t_full = LookupTable::build(&ctx, &full, &cfg).unwrap();
        let t_tight = LookupTable::build(&ctx, &tight, &cfg).unwrap();
        let codes: Vec<u8> = (0..30).map(|i| ((i * 3) % 4) as u8).collect();
        for e in ctx.tree().all_edges() {
            let a = t_full.prescore(&ctx, e, &s2p, &codes);
            let b = t_tight.prescore(&ctx, e, &s2p, &codes);
            assert_eq!(a.to_bits(), b.to_bits(), "edge {e:?}");
        }
    }

    #[test]
    fn bytes_match_plan_estimate() {
        let (ctx, _) = setup(12, 40, 3);
        let store = ManagedStore::full(&ctx);
        let table = LookupTable::build(&ctx, &store, &EpaConfig::default()).unwrap();
        assert_eq!(table.bytes(), memplan::lookup_bytes(&ctx));
    }

    #[test]
    fn prescore_ranks_identical_query_highest() {
        let (ctx, s2p) = setup(12, 50, 4);
        let store = ManagedStore::full(&ctx);
        let table = LookupTable::build(&ctx, &store, &EpaConfig::default()).unwrap();
        let per_pattern = ctx.tip_codes(NodeId(0)).to_vec();
        let codes: Vec<u8> = s2p.iter().map(|&p| per_pattern[p as usize]).collect();
        let mut scored: Vec<(EdgeId, f64)> =
            ctx.tree().all_edges().map(|e| (e, table.prescore(&ctx, e, &s2p, &codes))).collect();
        scored.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
        let pendant_edge = ctx.tree().neighbors(NodeId(0))[0].1;
        // The true branch must be among the top 2 prescored candidates.
        let rank = scored.iter().position(|&(e, _)| e == pendant_edge).unwrap();
        assert!(rank < 2, "true branch ranked {rank}");
    }
}
