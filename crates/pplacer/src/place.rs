//! The baseline placement procedure.

use crate::backing::{Backing, ClvStoreBacking};
use epa_place::result::{PlacementEntry, PlacementResult};
use epa_place::score::{rate_state_weights, AttachmentPartials, QueryEvaluator};
use epa_place::{PlaceError, QueryBatch};
use phylo_amc::StrategyKind;
use phylo_engine::{ManagedStore, ReferenceContext};
use phylo_kernel::kernels::{propagate_scratch, Side};
use phylo_kernel::{KernelScratch, TipTable};
use phylo_tree::{DirEdgeId, EdgeId};
use std::time::{Duration, Instant};

/// Baseline configuration.
#[derive(Debug, Clone)]
pub struct PplacerConfig {
    /// RAM or file-backed CLV storage.
    pub backing: Backing,
    /// Queries per pass over the branch set (controls file traffic in
    /// file mode, like pplacer's working set).
    pub chunk_size: usize,
    /// Golden-section iterations for the pendant length.
    pub pendant_iterations: usize,
    /// Footprint calibration: real pplacer's resident memory is a
    /// multiple of the raw CLV bytes (OCaml boxing, per-node posterior
    /// structures); the paper's Fig. 5 shows ≈2–3× relative to the
    /// analogous EPA-NG layout. Applied to RAM-mode accounting only.
    pub overhead_factor: f64,
    /// Fraction of the on-disk CLV database assumed page-cache-resident
    /// in file (mmap) mode — pplacer's memory saving is large but not
    /// total.
    pub mmap_resident_fraction: f64,
}

impl Default for PplacerConfig {
    fn default() -> Self {
        PplacerConfig {
            backing: Backing::Ram,
            chunk_size: 100,
            pendant_iterations: 6,
            overhead_factor: 2.5,
            mmap_resident_fraction: 0.3,
        }
    }
}

/// Run metrics of the baseline.
#[derive(Debug, Clone, Default)]
pub struct PplacerReport {
    /// Wall-clock time of CLV database construction.
    pub build_time: Duration,
    /// Wall-clock time of placement proper.
    pub place_time: Duration,
    /// Peak resident bytes (CLVs in RAM mode; scratch only in file mode).
    pub peak_memory: usize,
    /// (query, branch) pairs scored (always the full product — no
    /// prescoring heuristic).
    pub n_scored: u64,
}

/// The baseline placer: full CLV set, no prescoring, optional file backing.
pub struct PplacerLike {
    ctx: ReferenceContext,
    site_to_pattern: Vec<u32>,
    cfg: PplacerConfig,
    store: ClvStoreBacking,
    /// Dense record index per directed edge (`u32::MAX` for tip origins).
    record_of: Vec<u32>,
    build_time: Duration,
    static_bytes: usize,
}

impl PplacerLike {
    /// Builds the CLV database: every inner-origin directional CLV is
    /// computed once and stored in the chosen backing.
    pub fn build(
        ctx: ReferenceContext,
        site_to_pattern: Vec<u32>,
        cfg: PplacerConfig,
    ) -> Result<Self, PlaceError> {
        let t0 = Instant::now();
        let layout = *ctx.layout();
        let mut record_of = vec![u32::MAX; ctx.tree().n_dir_edges()];
        let mut n_records = 0u32;
        for d in ctx.tree().inner_dir_edges() {
            record_of[d.idx()] = n_records;
            n_records += 1;
        }
        let mut store = ClvStoreBacking::new(
            cfg.backing,
            n_records as usize,
            layout.clv_len(),
            layout.patterns,
        )
        .map_err(|e| PlaceError::BadConfig(format!("CLV backing: {e}")))?;
        // Compute with a modest slot budget and stream records out.
        let work_slots = (ctx.min_slots() + 32).min(ctx.max_slots().max(ctx.min_slots()));
        let engine = ManagedStore::with_slots(&ctx, work_slots, StrategyKind::CostBased)?;
        for step in phylo_tree::traversal::SweepSchedule::new(ctx.tree()).steps(|_| true) {
            let dirs = [DirEdgeId::new(step.edge, 0), DirEdgeId::new(step.edge, 1)];
            let block = engine.prepare(&ctx, &dirs)?;
            for d in dirs {
                if let Some((clv, scale)) = engine.clv_of(&ctx, d) {
                    store
                        .write_record(record_of[d.idx()] as usize, clv, scale)
                        .map_err(|io| PlaceError::BadConfig(format!("CLV backing: {io}")))?;
                }
            }
            engine.release(block);
        }
        let static_bytes = ctx.approx_bytes();
        Ok(PplacerLike {
            ctx,
            site_to_pattern,
            cfg,
            store,
            record_of,
            build_time: t0.elapsed(),
            static_bytes,
        })
    }

    /// The reference context.
    pub fn ctx(&self) -> &ReferenceContext {
        &self.ctx
    }

    /// Places every query against every branch (no candidate heuristic).
    pub fn place(
        &mut self,
        batch: &QueryBatch,
    ) -> Result<(Vec<PlacementResult>, PplacerReport), PlaceError> {
        let t0 = Instant::now();
        let layout = *self.ctx.layout();
        let mut report = PplacerReport { build_time: self.build_time, ..Default::default() };
        let mut results: Vec<PlacementResult> = batch
            .queries()
            .iter()
            .map(|q| PlacementResult { name: q.name.clone(), placements: Vec::new() })
            .collect();
        let mean_len = self.ctx.mean_branch_length();
        // Scratch: two record buffers plus kernel scratch.
        let mut clv_u = vec![0.0; layout.clv_len()];
        let mut scale_u = vec![0u32; layout.patterns];
        let mut clv_v = vec![0.0; layout.clv_len()];
        let mut scale_v = vec![0u32; layout.patterns];
        let mut prox = vec![0.0; layout.clv_len()];
        let mut prox_scale = vec![0u32; layout.patterns];
        let mut dist = vec![0.0; layout.clv_len()];
        let mut dist_scale = vec![0u32; layout.patterns];
        let mut pm = vec![0.0; layout.pmatrix_len()];
        let mut evaluator = QueryEvaluator::new(&self.ctx);
        let mut kernel = KernelScratch::for_layout(&layout);
        let mut tip_table = TipTable::empty();
        let mut tip_codes = Vec::with_capacity(layout.patterns);
        let mut partials = AttachmentPartials::empty();
        let weights = rate_state_weights(&self.ctx);
        let masks = self.ctx.alphabet().state_masks();

        let scratch_bytes =
            4 * layout.clv_len() * 8 + 4 * layout.patterns * 4 + layout.pmatrix_len() * 8;
        let clv_resident = match self.cfg.backing {
            crate::backing::Backing::Ram => {
                (self.store.ram_bytes() as f64 * self.cfg.overhead_factor) as usize
            }
            crate::backing::Backing::File => {
                (self.store.db_bytes() as f64 * self.cfg.mmap_resident_fraction) as usize
            }
        };
        report.peak_memory = self.static_bytes
            + clv_resident
            + scratch_bytes
            + batch.chunk_bytes(self.cfg.chunk_size);

        let edges: Vec<EdgeId> = self.ctx.tree().all_edges().collect();
        let mut qoff = 0usize;
        for chunk in batch.chunks(self.cfg.chunk_size) {
            for &e in &edges {
                // Fetch both sides of the branch from the backing.
                let t = self.ctx.tree().edge_length(e);
                for (side_idx, (clv, scale)) in
                    [(&mut clv_u, &mut scale_u), (&mut clv_v, &mut scale_v)].into_iter().enumerate()
                {
                    let d = DirEdgeId::new(e, side_idx as u8);
                    let rec = self.record_of[d.idx()];
                    if rec != u32::MAX {
                        self.store
                            .read_record(rec as usize, clv, scale)
                            .map_err(|io| PlaceError::BadConfig(format!("CLV backing: {io}")))?;
                    }
                }
                // Propagate both halves to the midpoint: the same length,
                // so one set of transition matrices serves both.
                pm.resize(layout.pmatrix_len(), 0.0);
                self.ctx.model().transition_matrices(0.5 * t, &mut pm);
                for (side_idx, (out, out_scale)) in
                    [(&mut prox, &mut prox_scale), (&mut dist, &mut dist_scale)]
                        .into_iter()
                        .enumerate()
                {
                    let d = DirEdgeId::new(e, side_idx as u8);
                    let node = self.ctx.tree().src(d);
                    if self.ctx.tree().is_leaf(node) {
                        let set = self.ctx.tip_codes_into(node, &mut tip_codes);
                        tip_table.rebuild(&layout, &pm, masks, set);
                        let side = Side::Tip { table: &tip_table, codes: &tip_codes };
                        propagate_scratch(
                            &layout,
                            side,
                            out,
                            out_scale,
                            0..layout.patterns,
                            &mut kernel,
                        );
                    } else {
                        let (clv, scale) =
                            if side_idx == 0 { (&clv_u, &scale_u) } else { (&clv_v, &scale_v) };
                        let side = Side::Clv { clv, scale: Some(scale), pmatrix: &pm };
                        propagate_scratch(
                            &layout,
                            side,
                            out,
                            out_scale,
                            0..layout.patterns,
                            &mut kernel,
                        );
                    }
                }
                partials.assign(&weights, &prox, &prox_scale, &dist, &dist_scale);
                // Score every query of the chunk at this branch, with a
                // short pendant-length refinement.
                for (local, q) in chunk.iter().enumerate() {
                    let (best_pendant, best_ll) = golden_pendant(
                        1e-6,
                        (4.0 * mean_len).max(0.5),
                        self.cfg.pendant_iterations,
                        |pend| {
                            evaluator.set_pendant(&self.ctx, pend);
                            evaluator.score(&self.ctx, &partials, &self.site_to_pattern, &q.codes)
                        },
                    );
                    report.n_scored += 1;
                    results[qoff + local].placements.push(PlacementEntry {
                        edge: e,
                        log_likelihood: best_ll,
                        like_weight_ratio: 0.0,
                        pendant_length: best_pendant,
                        distal_length: 0.5 * t,
                    });
                }
            }
            qoff += chunk.len();
        }
        for r in &mut results {
            r.finalize();
            // Keep only a pplacer-like shortlist to bound output size.
            r.placements.truncate(8);
        }
        report.place_time = t0.elapsed();
        Ok((results, report))
    }
}

/// Golden-section maximization used for the pendant refinement.
fn golden_pendant(
    lo: f64,
    hi: f64,
    iterations: usize,
    mut f: impl FnMut(f64) -> f64,
) -> (f64, f64) {
    const INV_PHI: f64 = 0.618_033_988_749_894_8;
    let (mut a, mut b) = (lo, hi);
    let mut c = b - (b - a) * INV_PHI;
    let mut d = a + (b - a) * INV_PHI;
    let mut fc = f(c);
    let mut fd = f(d);
    for _ in 0..iterations {
        if fc > fd {
            b = d;
            d = c;
            fd = fc;
            c = b - (b - a) * INV_PHI;
            fc = f(c);
        } else {
            a = c;
            c = d;
            fc = fd;
            d = a + (b - a) * INV_PHI;
            fd = f(d);
        }
    }
    if fc > fd {
        (c, fc)
    } else {
        (d, fd)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phylo_models::{dna, DiscreteGamma, SubstModel};
    use phylo_seq::alphabet::AlphabetKind;
    use phylo_seq::{compress, Msa, Sequence};
    use phylo_tree::{generate, NodeId};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn setup(n: usize, sites: usize, seed: u64) -> (ReferenceContext, Vec<u32>, QueryBatch) {
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
        let msa = Msa::new(rows).unwrap();
        let patterns = compress(&msa).unwrap();
        let s2p = patterns.site_to_pattern().to_vec();
        let queries: Vec<Sequence> = (0..4)
            .map(|i| {
                let src = msa.row(i % n).codes().to_vec();
                Sequence::from_codes(format!("q{i}"), AlphabetKind::Dna, src).unwrap()
            })
            .collect();
        let batch = QueryBatch::new(&queries, sites).unwrap();
        let model = SubstModel::new(&dna::jc69(), DiscreteGamma::none()).unwrap();
        let ctx =
            ReferenceContext::new(tree, model, AlphabetKind::Dna.alphabet(), &patterns).unwrap();
        (ctx, s2p, batch)
    }

    #[test]
    fn ram_mode_places_identical_queries_correctly() {
        let (ctx, s2p, batch) = setup(10, 60, 1);
        let expected: Vec<u32> =
            (0..4).map(|i| ctx.tree().neighbors(NodeId((i % 10) as u32))[0].1 .0).collect();
        let mut placer = PplacerLike::build(ctx, s2p, PplacerConfig::default()).unwrap();
        let (results, report) = placer.place(&batch).unwrap();
        assert_eq!(report.n_scored, 4 * 17); // 4 queries × (2·10−3) branches
        for (r, want) in results.iter().zip(expected) {
            assert_eq!(r.best().unwrap().edge.0, want, "query {}", r.name);
        }
    }

    #[test]
    fn file_mode_matches_ram_mode() {
        let (ctx, s2p, batch) = setup(10, 40, 2);
        let mut ram = PplacerLike::build(ctx, s2p.clone(), PplacerConfig::default()).unwrap();
        let (r_ram, rep_ram) = ram.place(&batch).unwrap();
        let (ctx2, _, _) = setup(10, 40, 2);
        let cfg = PplacerConfig { backing: Backing::File, ..Default::default() };
        let mut file = PplacerLike::build(ctx2, s2p, cfg).unwrap();
        let (r_file, rep_file) = file.place(&batch).unwrap();
        for (a, b) in r_ram.iter().zip(&r_file) {
            assert_eq!(a.best().unwrap().edge, b.best().unwrap().edge);
            assert_eq!(
                a.best().unwrap().log_likelihood.to_bits(),
                b.best().unwrap().log_likelihood.to_bits()
            );
        }
        // The file mode must report (much) less resident memory.
        assert!(rep_file.peak_memory < rep_ram.peak_memory);
    }

    #[test]
    fn agrees_with_epa_best_edges() {
        let (ctx, s2p, batch) = setup(12, 60, 3);
        let epa =
            epa_place::Placer::new(ctx, s2p.clone(), epa_place::EpaConfig::default()).unwrap();
        let (r_epa, _) = epa.place(&batch).unwrap();
        let (ctx2, _, _) = setup(12, 60, 3);
        let mut pp = PplacerLike::build(ctx2, s2p, PplacerConfig::default()).unwrap();
        let (r_pp, _) = pp.place(&batch).unwrap();
        for (a, b) in r_epa.iter().zip(&r_pp) {
            assert_eq!(
                a.best().unwrap().edge,
                b.best().unwrap().edge,
                "tools disagree on query {}",
                a.name
            );
        }
    }
}
