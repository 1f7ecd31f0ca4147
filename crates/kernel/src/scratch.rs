//! Reusable kernel scratch buffers.
//!
//! The generic (dynamic state count) kernels need per-call `states`-long
//! working buffers. Allocating them inside the kernels would put a heap
//! allocation on every CLV recomputation — exactly the cost the AMC slot
//! budget trades runtime for. A [`KernelScratch`] owns those buffers so a
//! caller that evaluates many (query × branch) pairs allocates at most
//! once, on first use.
//!
//! The specialized DNA/protein kernels keep their working state in
//! fixed-size stack arrays and never touch the scratch, so passing
//! [`KernelScratch::new`] (which allocates nothing) is free on those
//! paths.
//!
//! A CLV update also needs its two child edges' transition matrices, and
//! for tip children those leaves' tip rows. The reference keeps neither
//! ([`crate::tips`]); the caller builds them per operation into
//! [`KernelScratch::pmatrices`] and [`KernelScratch::tips`], which a warm
//! scratch holds at full size, so that costs no allocation either.

use crate::layout::Layout;
use crate::tips::TipTable;

/// Working buffers for the generic kernels. Cheap to construct (empty);
/// buffers grow on first use and are reused afterwards.
#[derive(Debug, Default)]
pub struct KernelScratch {
    /// Left-side propagation buffer (`states` entries once used).
    pub(crate) lbuf: Vec<f64>,
    /// Right-side propagation buffer.
    pub(crate) rbuf: Vec<f64>,
    /// Accumulator for multi-side products ([`crate::likelihood::point_log_likelihood`]).
    pub(crate) acc: Vec<f64>,
    /// Transition matrices of an operation's two child edges, by child
    /// position, `rates × states²` each: built by the caller before the
    /// kernel call, never touched by kernels.
    pub pmatrices: [Vec<f64>; 2],
    /// Tip rows of an operation's two children, by child position: built
    /// by the caller before the kernel call, never touched by kernels.
    pub tips: [TipTable; 2],
}

impl KernelScratch {
    /// An empty scratch; performs no allocation.
    pub const fn new() -> Self {
        KernelScratch {
            lbuf: Vec::new(),
            rbuf: Vec::new(),
            acc: Vec::new(),
            pmatrices: [Vec::new(), Vec::new()],
            tips: [TipTable::empty(), TipTable::empty()],
        }
    }

    /// A scratch pre-sized for a layout, so even the first kernel call
    /// does not allocate, nor the first transition-matrix build.
    pub fn for_layout(layout: &Layout) -> Self {
        let mut s = Self::new();
        s.ensure(layout.states);
        s.pmatrices = [vec![0.0; layout.pmatrix_len()], vec![0.0; layout.pmatrix_len()]];
        s
    }

    /// Grows the buffers to hold `states` entries (no-op when already
    /// large enough).
    #[inline]
    pub(crate) fn ensure(&mut self, states: usize) {
        if self.lbuf.len() < states {
            self.lbuf.resize(states, 0.0);
            self.rbuf.resize(states, 0.0);
            self.acc.resize(states, 0.0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_is_empty_and_ensure_grows_once() {
        let mut s = KernelScratch::new();
        assert_eq!(s.lbuf.capacity(), 0);
        s.ensure(20);
        assert_eq!(s.lbuf.len(), 20);
        let ptr = s.lbuf.as_ptr();
        s.ensure(4);
        assert_eq!(s.lbuf.as_ptr(), ptr, "smaller request must not reallocate");
    }

    #[test]
    fn for_layout_presizes() {
        let s = KernelScratch::for_layout(&Layout::new(10, 2, 7));
        assert_eq!(s.lbuf.len(), 7);
        assert_eq!(s.rbuf.len(), 7);
        assert_eq!(s.acc.len(), 7);
        assert_eq!(s.pmatrices.each_ref().map(Vec::len), [2 * 7 * 7; 2]);
    }
}
