//! Micro-probes of single layers, run once per workload in the traced
//! pass, on the workload's own layout, P-matrices and slot count. Each
//! is a root span beside the pipeline's.

use crate::stats;
use crate::trace::Tracer;
use phyloplace::amc::{ClvKey, SlotManager, StrategyKind};
use phyloplace::engine::{loglik::tree_log_likelihood, ManagedStore, ReferenceContext};
use phyloplace::kernel::kernels::{update_partials_scratch, Side};
use phyloplace::kernel::likelihood::edge_log_likelihood_scratch;
use phyloplace::kernel::{KernelScratch, Layout};
use phyloplace::tree::EdgeId;
use std::hint::black_box;
use std::time::Instant;

pub struct KernelProbe {
    pub update_partials_ns: f64,
    pub edge_loglik_ns: f64,
    /// Floating-point operations of one `update_partials` call, computed
    /// from the layout (not counted by hardware).
    pub update_flops: f64,
    /// Bytes one call reads and writes, computed from the layout; cache
    /// misses are not in it.
    pub update_bytes: f64,
}

/// Best-of-15 time of one call of `f`, in ns, over batches sized to
/// about 2 ms.
fn best_call_ns(mut f: impl FnMut()) -> f64 {
    let t = Instant::now();
    f();
    let once = t.elapsed().as_secs_f64().max(1e-9);
    let iters = ((2e-3 / once) as usize).clamp(1, 10_000);
    let batches: Vec<f64> = (0..15)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..iters {
                f();
            }
            t.elapsed().as_secs_f64() * 1e9 / iters as f64
        })
        .collect();
    stats::min(&batches).expect("15 batches")
}

/// Computed from the layout: per pattern and rate, two S×S
/// matrix–vector products (2S² − S flops each) and S products.
fn update_flops(l: &Layout) -> f64 {
    let s = l.states as f64;
    l.patterns as f64 * l.rates as f64 * (2.0 * (2.0 * s * s - s) + s)
}

/// Two child CLVs, scalers and P-matrix sets read; one CLV and scaler
/// vector written.
fn update_bytes(l: &Layout) -> f64 {
    (3 * l.clv_bytes() + 3 * l.scaler_bytes() + 2 * l.pmatrix_len() * 8) as f64
}

pub fn kernel(ctx: &ReferenceContext, tr: &mut Tracer) -> KernelProbe {
    let layout = ctx.layout();
    // Strictly positive, non-uniform CLV entries; the kernels' cost does
    // not depend on the values beyond staying clear of rescaling.
    let fill = |salt: usize| -> Vec<f64> {
        (0..layout.clv_len()).map(|i| 0.05 + ((i * 31 + salt * 17) % 97) as f64 / 100.0).collect()
    };
    let (left, right) = (fill(1), fill(2));
    let scale = vec![0u32; layout.patterns];
    let (pm_l, pm_r) = (ctx.pmatrix(EdgeId(0)), ctx.pmatrix(EdgeId(1)));
    let mut out = vec![0.0; layout.clv_len()];
    let mut out_scale = vec![0u32; layout.patterns];
    let mut scratch = KernelScratch::for_layout(layout);
    let side = |clv, pmatrix| Side::Clv { clv, scale: Some(&scale[..]), pmatrix };

    let id = tr.begin("kernel.update_partials");
    let update_partials_ns = best_call_ns(|| {
        update_partials_scratch(
            layout,
            side(&left, pm_l),
            side(&right, pm_r),
            &mut out,
            &mut out_scale,
            0..layout.patterns,
            &mut scratch,
        );
        black_box(&out);
    });
    tr.end(id);

    let id = tr.begin("kernel.edge_loglik");
    let edge_loglik_ns = best_call_ns(|| {
        black_box(edge_log_likelihood_scratch(
            layout,
            &left,
            Some(&scale),
            side(&right, pm_r),
            ctx.model().freqs(),
            ctx.model().gamma().weights(),
            ctx.pattern_weights(),
            0..layout.patterns,
            &mut scratch,
        ));
    });
    tr.end(id);
    KernelProbe {
        update_partials_ns,
        edge_loglik_ns,
        update_flops: update_flops(layout),
        update_bytes: update_bytes(layout),
    }
}

/// ns per `SlotManager::acquire` that misses (and, once the free list
/// is spent, evicts) plus the `mark_ready` that publishes the slot, at
/// the workload's CLV and slot counts under the default strategy.
pub fn acquire_miss_ns(ctx: &ReferenceContext, n_slots: usize, tr: &mut Tracer) -> f64 {
    let n_clvs = ctx.tree().n_dir_edges();
    let mgr =
        SlotManager::new(n_clvs, n_slots, StrategyKind::CostBased.build(Some(ctx.cost_table())));
    let id = tr.begin("core.acquire_miss");
    let rounds: Vec<f64> = (0..15)
        .map(|_| {
            let before = mgr.stats().misses;
            let t = Instant::now();
            for k in 0..n_clvs {
                let key = ClvKey(k as u32);
                // Cost-based eviction keeps expensive CLVs resident; those
                // would hit, so they are stepped over.
                if mgr.lookup(key).is_none() {
                    let got = mgr.acquire(key).expect("no slot is pinned");
                    mgr.mark_ready(got.slot());
                }
            }
            let misses = (mgr.stats().misses - before).max(1);
            t.elapsed().as_secs_f64() * 1e9 / misses as f64
        })
        .collect();
    tr.end(id);
    stats::min(&rounds).expect("15 rounds")
}

pub struct SweepProbe {
    pub ms: f64,
    /// CLV updates the sweep executed (slot misses).
    pub updates: u64,
}

/// `tree_log_likelihood` at every edge, in edge-id order, over a fresh
/// store with the workload's slot count.
pub fn sweep(
    ctx: &ReferenceContext,
    n_slots: usize,
    tr: &mut Tracer,
) -> Result<SweepProbe, String> {
    let mut store = ManagedStore::with_slots(ctx, n_slots, StrategyKind::CostBased)
        .map_err(|e| format!("sweep store: {e}"))?;
    let id = tr.begin("engine.sweep");
    let t = Instant::now();
    for e in ctx.tree().all_edges() {
        black_box(tree_log_likelihood(ctx, &mut store, e).map_err(|e| format!("sweep: {e}"))?);
    }
    let ms = t.elapsed().as_secs_f64() * 1e3;
    tr.end(id);
    Ok(SweepProbe { ms, updates: store.stats().misses })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn computed_kernel_work_matches_a_hand_count() {
        // DNA Γ4, 10 patterns: 40 (pattern, rate) cells of two 4×4
        // mat-vecs (28 flops each) and 4 products.
        let l = Layout::new(10, 4, 4);
        assert_eq!(update_flops(&l), 40.0 * (2.0 * 28.0 + 4.0));
        // 3 CLVs of 160 doubles, 3 scaler vectors of 10 u32, 2 × 4 P-matrices.
        assert_eq!(update_bytes(&l), (3 * 160 * 8 + 3 * 10 * 4 + 2 * 64 * 8) as f64);
    }
}
