//! Cooperative cancellation for long-running placement work.
//!
//! A [`CancelToken`] is a cheaply cloneable flag shared between whoever
//! *requests* shutdown (a SIGINT handler, a wall-clock deadline watchdog,
//! a test harness) and the compute layers that must *honor* it. The
//! contract is cooperative and purely advisory: arming the token never
//! interrupts a thread; instead every layer that can block or loop for a
//! long time polls it at its natural safe points —
//!
//! * the engine's schedule executor, which reads the token from the
//!   slot manager ([`crate::SlotManager::cancel_token`]) once per
//!   schedule, checks it before every Felsenstein step,
//!   turning a multi-second CLV recomputation into a bounded-latency
//!   exit;
//! * the placement orchestrator checks at chunk and phase boundaries,
//!   where stopping is *clean*: every finished chunk is journaled, the
//!   partial results are flushable, and nothing is torn mid-write.
//!
//! Once cancelled, a token stays cancelled; there is deliberately no
//! reset — a run observes at most one shutdown request, and a fresh run
//! gets a fresh token.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// A shared, monotonic "stop now" flag. Clones observe the same flag.
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation. Idempotent; never blocks.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::SeqCst);
    }

    /// Whether cancellation has been requested. A single atomic load —
    /// cheap enough for per-kernel-step polling.
    #[inline]
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_token_is_not_cancelled() {
        assert!(!CancelToken::new().is_cancelled());
    }

    #[test]
    fn cancel_is_shared_across_clones_and_sticky() {
        let t = CancelToken::new();
        let c = t.clone();
        c.cancel();
        assert!(t.is_cancelled());
        c.cancel(); // idempotent
        assert!(t.is_cancelled() && c.is_cancelled());
    }

    #[test]
    fn independent_tokens_do_not_interfere() {
        let a = CancelToken::new();
        let b = CancelToken::new();
        a.cancel();
        assert!(!b.is_cancelled());
    }
}
