//! Executing AMC compute schedules with the likelihood kernels.
//!
//! The caller holds the slot manager's plan lock across planning and
//! execution (`ManagedStore::prepare`), so the schedule is the store's
//! only computing plan: its ops run in order, each reading dependency
//! slots that an earlier op of the schedule (or an earlier plan) filled,
//! and writing its own target slot.

use crate::ctx::ReferenceContext;
use crate::error::EngineError;
use phylo_amc::{CancelToken, DepSource, FpaOp, SlotArena};
use phylo_kernel::kernels::{update_partials_scratch, Side};
use phylo_kernel::KernelScratch;

/// A schedule that stopped before its end.
#[derive(Debug)]
pub struct ScheduleError {
    /// Position of the first op that did not run; the ops before it did.
    pub at: usize,
    /// Why the op at `at` did not run.
    pub error: EngineError,
}

/// Executes a whole schedule in order. Each step reads the dependency
/// slots / tip encodings named by its op and writes the target slot. Each
/// step builds its two child edges' transition matrices from their lengths
/// into `scratch`'s [`KernelScratch::pmatrices`], and a tip child's rows
/// from them into [`KernelScratch::tips`], for the leaf's codes only;
/// the reference holds neither. The store owns a pool of scratches, so
/// once a scratch is warm an op allocates nothing.
///
/// The caller must hold the plan guard the ops were planned under (see
/// `phylo_amc::ensure_resident`); each target slot is marked complete
/// when its step finishes. The run's cancel token is read once and
/// polled before every op, so a cancel stops the schedule before its
/// next op.
pub fn execute_ops(
    ctx: &ReferenceContext,
    arena: &SlotArena,
    ops: &[FpaOp],
    scratch: &mut KernelScratch,
) -> Result<(), ScheduleError> {
    let cancel = arena.manager().cancel_token();
    for (at, op) in ops.iter().enumerate() {
        execute_op(ctx, arena, op, scratch, &cancel)
            .map_err(|error| ScheduleError { at, error })?;
    }
    Ok(())
}

fn execute_op(
    ctx: &ReferenceContext,
    arena: &SlotArena,
    op: &FpaOp,
    scratch: &mut KernelScratch,
    cancel: &CancelToken,
) -> Result<(), EngineError> {
    // Cooperative shutdown: a cancelled run stops between Felsenstein
    // steps, so even a deep recomputation schedule exits with bounded
    // latency. The caller (`ManagedStore`) aborts the schedule, which
    // releases pins and drops the targets of the ops that did not run —
    // the store stays consistent for the partial-result flush.
    if cancel.is_cancelled() {
        return Err(EngineError::Amc(phylo_amc::AmcError::Cancelled));
    }
    if let Some(tiers) = arena.tiers() {
        // A spilled copy of this exact CLV answers the step without the
        // kernels or the dependency slots: the op is its target's only
        // writer, so the single-slot view is the same exclusive write
        // access the kernel path uses below.
        let view = arena.compute_view(op.slot, [None, None]);
        if tiers.fetch_into(phylo_amc::ClvKey(op.target.0), view.target_clv, view.target_scale) {
            arena.manager().mark_ready(op.slot);
            return Ok(());
        }
    }
    let sw = phylo_obs::stopwatch();
    let layout = *ctx.layout();
    let child_slots = op.deps.map(|d| match d {
        DepSource::Slot(s) => Some(s),
        DepSource::Tip(_) => None,
    });
    let view = arena.compute_view(op.slot, child_slots);
    // The child edges' matrices and the tip rows leave the scratch for the
    // op, so that the sides can borrow them while the kernel borrows the
    // rest of it; moving a buffer moves its allocation, it does not copy
    // it. Each child's matrices are built from its edge's length, and a
    // tip child's rows from those matrices.
    let mut pmatrices = std::mem::take(&mut scratch.pmatrices);
    let mut tips = std::mem::take(&mut scratch.tips);
    for (k, (pm, tip)) in pmatrices.iter_mut().zip(&mut tips).enumerate() {
        pm.resize(layout.pmatrix_len(), 0.0);
        ctx.model().transition_matrices(ctx.tree().edge_length(op.dep_edges[k].edge()), pm);
        if let DepSource::Tip(node) = op.deps[k] {
            tip.rebuild(&layout, pm, ctx.alphabet().state_masks(), ctx.tip_code_set(node));
        }
    }
    let side = |k: usize| match (op.deps[k], view.children[k]) {
        (DepSource::Tip(node), _) => Side::Tip { table: &tips[k], codes: ctx.tip_codes(node) },
        (DepSource::Slot(_), Some((clv, scale))) => {
            Side::Clv { clv, scale: Some(scale), pmatrix: &pmatrices[k] }
        }
        (DepSource::Slot(_), None) => unreachable!("every slot dependency is in the view"),
    };
    let (left, right) = (side(0), side(1));
    // Kernel wall time feeds the spill file's spill-vs-drop cost model
    // (ns per unit of recompute cost) — only measured when one exists.
    let tier_t0 = arena.tiers().map(|_| std::time::Instant::now());
    update_partials_scratch(
        &layout,
        left,
        right,
        view.target_clv,
        view.target_scale,
        0..layout.patterns,
        scratch,
    );
    scratch.pmatrices = pmatrices;
    scratch.tips = tips;
    if let (Some(tiers), Some(t0)) = (arena.tiers(), tier_t0) {
        let ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
        tiers.note_recompute(phylo_amc::ClvKey(op.target.0), ns);
    }
    if phylo_faults::fire("engine::kernel_nan") {
        // Simulates a kernel numeric failure (underflow past the scaler
        // thresholds). The op is still this slot's only writer, so a
        // fresh single-slot view is safe.
        arena.compute_view(op.slot, [None, None]).target_clv[0] = f64::NAN;
    }
    // When a later op of this schedule reuses the slot, its mapping
    // already names that op's target and this bit is premature; the
    // later op overwrites the bytes, and a schedule stopped before it is
    // cleaned up by op position, not by this bit (`abort_schedule`).
    arena.manager().mark_ready(op.slot);
    phylo_obs::counter!("engine.ops").inc();
    sw.record(phylo_obs::histogram!("engine.op_ns"));
    Ok(())
}
