//! The shutdown state machine every front door shares.
//!
//! Three phases, strictly monotonic:
//!
//! * **Running** — no signal, no deadline; work proceeds.
//! * **Draining** — one SIGINT/SIGTERM, or the cancel token armed (the
//!   `--deadline` watchdog): stop gracefully. The run finishes its
//!   durable prefix and the process exits [`EXIT_INTERRUPTED`].
//! * **Aborting** — a *second* signal while draining is the operator
//!   saying "now": the process exits [`EXIT_ABORTED`] immediately.
//!   Every finished chunk is already durable, so even the hard path
//!   loses no completed work.
//!
//! The struct is plain shared state (an atomic signal count plus the
//! cooperative [`CancelToken`]) so the phase logic is unit-testable
//! without delivering real signals.

use phylo_amc::CancelToken;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

/// Run cancelled cooperatively (signal or `--deadline`); durable prefix
/// written.
pub const EXIT_INTERRUPTED: i32 = 3;
/// Hard abort on the second signal (conventional 128 + SIGINT).
pub const EXIT_ABORTED: i32 = 130;

/// Where the shutdown state machine stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// No shutdown requested.
    Running,
    /// Graceful stop in progress: finish the durable prefix and exit 3.
    Draining,
    /// Immediate stop: exit 130.
    Aborting,
}

/// Shared shutdown state: a signal count and the cancel token the rest
/// of the pipeline polls. Clones share the same state.
#[derive(Debug, Clone)]
pub struct Shutdown {
    cancel: CancelToken,
    signals: Arc<AtomicU32>,
}

impl Default for Shutdown {
    fn default() -> Self {
        Self::new()
    }
}

impl Shutdown {
    /// Fresh state with its own cancel token.
    pub fn new() -> Self {
        Self::with_cancel(CancelToken::new())
    }

    /// Fresh state wrapping an existing cancel token (so a deadline
    /// watchdog arming that token moves the phase to Draining).
    pub fn with_cancel(cancel: CancelToken) -> Self {
        Shutdown { cancel, signals: Arc::new(AtomicU32::new(0)) }
    }

    /// The cooperative token; arming it (deadline, etc.) drains the run.
    pub fn cancel_token(&self) -> CancelToken {
        self.cancel.clone()
    }

    /// Records one delivered signal and returns the resulting phase.
    /// Not called from signal handlers directly — the handler bumps an
    /// async-signal-safe counter and a watchdog thread mirrors it here
    /// via [`Shutdown::record_signals`].
    pub fn on_signal(&self) -> Phase {
        self.signals.fetch_add(1, Ordering::SeqCst);
        self.cancel.cancel();
        self.phase()
    }

    /// Mirrors an absolute signal count observed elsewhere (the binary's
    /// static handler counter). The count is monotonic; a stale smaller
    /// value never rolls the phase back.
    pub fn record_signals(&self, count: u32) -> Phase {
        self.signals.fetch_max(count, Ordering::SeqCst);
        if count >= 1 {
            self.cancel.cancel();
        }
        self.phase()
    }

    /// Current phase.
    pub fn phase(&self) -> Phase {
        let n = self.signals.load(Ordering::SeqCst);
        if n >= 2 {
            Phase::Aborting
        } else if n == 1 || self.cancel.is_cancelled() {
            Phase::Draining
        } else {
            Phase::Running
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phases_escalate_and_stick() {
        let s = Shutdown::new();
        assert_eq!(s.phase(), Phase::Running);
        assert_eq!(s.on_signal(), Phase::Draining);
        assert!(s.cancel_token().is_cancelled(), "first signal arms the token");
        assert_eq!(s.phase(), Phase::Draining);
        assert_eq!(s.on_signal(), Phase::Aborting);
        assert_eq!(s.phase(), Phase::Aborting, "aborting is sticky");
        assert_eq!(s.on_signal(), Phase::Aborting);
    }

    #[test]
    fn deadline_cancel_drains_without_a_signal() {
        let s = Shutdown::new();
        s.cancel_token().cancel();
        assert_eq!(s.phase(), Phase::Draining);
        // One signal on top of a deadline does not abort — only a second
        // *signal* does; the operator must ask twice.
        assert_eq!(s.on_signal(), Phase::Draining);
        assert_eq!(s.on_signal(), Phase::Aborting);
    }

    #[test]
    fn mirrored_counts_are_monotonic() {
        let s = Shutdown::new();
        assert_eq!(s.record_signals(0), Phase::Running);
        assert_eq!(s.record_signals(1), Phase::Draining);
        assert_eq!(s.record_signals(0), Phase::Draining, "stale mirror cannot roll back");
        assert_eq!(s.record_signals(2), Phase::Aborting);
    }

    #[test]
    fn clones_share_state() {
        let a = Shutdown::new();
        let b = a.clone();
        a.on_signal();
        assert_eq!(b.phase(), Phase::Draining);
    }

    #[test]
    fn running_never_arms_the_token() {
        let s = Shutdown::new();
        assert_eq!(s.phase(), Phase::Running);
        assert!(!s.cancel_token().is_cancelled());
        // Mirroring a zero count (the watchdog's idle tick) is a no-op.
        assert_eq!(s.record_signals(0), Phase::Running);
        assert!(!s.cancel_token().is_cancelled());
    }

    #[test]
    fn external_token_feeds_the_machine_both_ways() {
        // The binary wires one token through both the run and the
        // machine: arming it from *either* side must be visible on the
        // other, which is what lets a deadline watchdog and a signal
        // handler share the drain path.
        let token = CancelToken::new();
        let s = Shutdown::with_cancel(token.clone());
        token.cancel();
        assert_eq!(s.phase(), Phase::Draining, "externally armed token drains");
        let s2 = Shutdown::new();
        let t2 = s2.cancel_token();
        s2.on_signal();
        assert!(t2.is_cancelled(), "signal arms previously handed-out tokens");
    }

    #[test]
    fn mirrored_count_can_jump_straight_to_abort() {
        // Two signals can land between watchdog polls; the first mirror
        // the watchdog sees is then already 2 and must abort without an
        // intermediate Draining observation.
        let s = Shutdown::new();
        assert_eq!(s.record_signals(2), Phase::Aborting);
        assert!(s.cancel_token().is_cancelled());
        assert_eq!(s.record_signals(1), Phase::Aborting, "stale mirror cannot de-escalate");
    }

    #[test]
    fn deadline_then_mirrored_signal_is_still_one_escalation_step() {
        // Double-signal ordering with a deadline in between: deadline
        // drains, the first *mirrored* signal keeps draining, the second
        // aborts — identical to the `on_signal` path.
        let s = Shutdown::new();
        s.cancel_token().cancel();
        assert_eq!(s.record_signals(1), Phase::Draining);
        assert_eq!(s.record_signals(2), Phase::Aborting);
    }

    #[test]
    fn concurrent_mirrors_and_signals_never_de_escalate() {
        // Hammer the machine from racing threads (watchdog mirrors and
        // direct signals interleaved); every observer must see a
        // monotonic Running -> Draining -> Aborting progression.
        let s = Shutdown::new();
        let rank = |p: Phase| match p {
            Phase::Running => 0,
            Phase::Draining => 1,
            Phase::Aborting => 2,
        };
        let handles: Vec<_> = (0..4)
            .map(|i| {
                let s = s.clone();
                std::thread::spawn(move || {
                    let mut last = 0;
                    for k in 0..100 {
                        let p = if i % 2 == 0 { s.record_signals((k / 50) + 1) } else { s.phase() };
                        let r = rank(p);
                        assert!(r >= last, "phase rolled back from {last} to {r}");
                        last = r;
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(s.phase(), Phase::Aborting);
    }
}
