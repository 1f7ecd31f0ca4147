//! Executing AMC compute schedules with the likelihood kernels.
//!
//! Execution is lock-free with respect to the slot tables: the plan that
//! produced the ops holds execution pins on every slot touched, so the
//! mappings cannot change. The only synchronization is the per-slot
//! publish latch — each step waits until its dependency slots' data is
//! published (instant unless a concurrent plan is still computing that
//! very CLV) and publishes its own target when done, which is what lets
//! distinct CLVs be recomputed concurrently by different threads.

use crate::ctx::ReferenceContext;
use crate::error::EngineError;
use phylo_amc::{DepSource, FpaOp, SlotArena, SlotId};
use phylo_kernel::kernels::{update_partials_scratch, Side};
use phylo_kernel::sitepar::SiteParPool;
use phylo_kernel::KernelScratch;

/// Executes a whole schedule in order. Each step reads the dependency
/// slots / tip encodings named by its op and writes the target slot;
/// with `par = Some((pool, n_chunks))` the step's pattern range is split
/// into `n_chunks` ranges run on the store's persistent [`SiteParPool`]
/// (the paper's across-site experimental parallelization, Fig. 7 — the
/// pool outlives the run, so no threads are spawned per op). `scratch`
/// is only touched by the generic kernel fallback; the store owns a pool
/// of them so repeated recomputation allocates nothing.
///
/// The caller must hold the plan's execution pins (see
/// `phylo_amc::ensure_resident`), which make the ops' slot assignments
/// stable; each target slot is published when its step completes.
pub fn execute_ops(
    ctx: &ReferenceContext,
    arena: &SlotArena,
    ops: &[FpaOp],
    par: Option<(&SiteParPool, usize)>,
    scratch: &mut KernelScratch,
) -> Result<(), EngineError> {
    for op in ops {
        execute_op(ctx, arena, op, par, scratch)?;
    }
    Ok(())
}

fn execute_op(
    ctx: &ReferenceContext,
    arena: &SlotArena,
    op: &FpaOp,
    par: Option<(&SiteParPool, usize)>,
    scratch: &mut KernelScratch,
) -> Result<(), EngineError> {
    // Cooperative shutdown: a cancelled run stops between Felsenstein
    // steps, so even a deep recomputation schedule exits with bounded
    // latency. The caller (`ManagedStore`) aborts the schedule, which
    // releases pins and invalidates unpublished targets — the store
    // stays consistent for the partial-result flush.
    if arena.manager().cancel_token().is_cancelled() {
        return Err(EngineError::Amc(phylo_amc::AmcError::Cancelled));
    }
    if let Some(tiers) = arena.tiers() {
        // A spilled copy of this exact CLV answers the step without the
        // kernels or the dependency slots: the op owns its unpublished
        // target exclusively (execution pins + latch down), so the
        // single-slot view is the same exclusive write access the
        // kernel path uses below.
        let view = arena.compute_view(op.slot, &[]);
        if tiers.fetch_into(phylo_amc::ClvKey(op.target.0), view.target_clv, view.target_scale) {
            arena.manager().mark_ready_at(op.slot, op.slot_version);
            return Ok(());
        }
    }
    let sw = phylo_obs::stopwatch();
    let layout = *ctx.layout();
    let child_slots: Vec<SlotId> = op
        .deps
        .iter()
        .filter_map(|d| match d {
            DepSource::Slot(s) => Some(*s),
            DepSource::Tip(_) => None,
        })
        .collect();
    // Dependencies computed earlier in this schedule are already
    // published by their own step; a wait only ever blocks on a CLV a
    // *concurrent* plan is still computing, and that plan's execution is
    // lock-free and infallible, so the wait terminates. The wait is
    // version-snapshotted: if a *later* op of this same schedule remapped
    // the dep's slot (dropping its latch at planning time), the recorded
    // bytes are still valid until that op executes, so the reader must
    // not — and does not — block on a latch only the later op would
    // publish.
    for (k, d) in op.deps.iter().enumerate() {
        if let DepSource::Slot(s) = d {
            arena.manager().wait_ready_at(*s, op.dep_versions[k])?;
        }
    }
    let view = arena.compute_view(op.slot, &child_slots);
    let mut next_child = 0usize;
    let mut sides: [Option<Side<'_>>; 2] = [None, None];
    for k in 0..2 {
        let edge = op.dep_edges[k].edge();
        sides[k] = Some(match op.deps[k] {
            DepSource::Tip(node) => Side::Tip {
                table: ctx.tip_table(edge).expect("tip dependency edge must have a tip table"),
                codes: ctx.tip_codes(node),
            },
            DepSource::Slot(_) => {
                let (clv, scale) = view.children[next_child];
                next_child += 1;
                Side::Clv { clv, scale: Some(scale), pmatrix: ctx.pmatrix(edge) }
            }
        });
    }
    let (left, right) = (sides[0].take().unwrap(), sides[1].take().unwrap());
    // Kernel wall time feeds the spill file's spill-vs-drop cost model
    // (ns per unit of recompute cost) — only measured when one exists.
    let tier_t0 = arena.tiers().map(|_| std::time::Instant::now());
    match par {
        None | Some((_, 0..=1)) => update_partials_scratch(
            &layout,
            left,
            right,
            view.target_clv,
            view.target_scale,
            0..layout.patterns,
            scratch,
        ),
        Some((pool, n_chunks)) => {
            pool.update_partials(&layout, left, right, view.target_clv, view.target_scale, n_chunks)
        }
    }
    if let (Some(tiers), Some(t0)) = (arena.tiers(), tier_t0) {
        let ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
        tiers.note_recompute(phylo_amc::ClvKey(op.target.0), ns);
    }
    if phylo_faults::fire("engine::kernel_nan") {
        // Simulates a kernel numeric failure (underflow past the scaler
        // thresholds). The op is still this slot's exclusive writer: the
        // slot is unpublished, so a fresh single-slot view is safe.
        arena.compute_view(op.slot, &[]).target_clv[0] = f64::NAN;
    }
    // Generation-aware publish: if a later op of this same schedule
    // already remapped the target slot, this op's bytes are a superseded
    // generation — announcing them as the new mapping's data would hand
    // concurrent plans the wrong CLV. The final-generation op publishes.
    arena.manager().mark_ready_at(op.slot, op.slot_version);
    phylo_obs::counter!("engine.ops").inc();
    sw.record(phylo_obs::histogram!("engine.op_ns"));
    Ok(())
}
