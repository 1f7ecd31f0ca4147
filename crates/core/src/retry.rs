//! Capped exponential backoff with deterministic jitter.
//!
//! The sweep's flush-and-retry rung (pin exhaustion on a single-branch
//! block, milliseconds) retries on the classic schedule: the delay
//! doubles per attempt up to a cap, a bounded jitter de-synchronizes
//! competing retriers, and a success resets the ladder. The schedule
//! lives here, with unit tests, rather than inline at the retry site.
//!
//! Jitter is *deterministic*: a fixed SplitMix64 stream. Retry timing
//! then never depends on ambient entropy, which keeps the fault matrices
//! reproducible.

use std::time::Duration;

/// Capped exponential backoff schedule with bounded deterministic jitter.
///
/// Attempt `k` (0-based) sleeps `min(base·2ᵏ, cap) + jitter`, where the
/// jitter is uniform in `[0, delay/2]`. The pre-jitter delay is what the
/// cap bounds, so the total sleep never exceeds `1.5 × cap`.
#[derive(Debug, Clone)]
pub struct Backoff {
    base: Duration,
    cap: Duration,
    attempt: u32,
    rng: u64,
}

impl Backoff {
    /// A schedule starting at `base` and capping (pre-jitter) at `cap`.
    /// A zero `base` degenerates to all-zero delays (useful to disable
    /// backoff in tests).
    pub fn new(base: Duration, cap: Duration) -> Self {
        Backoff { base, cap, attempt: 0, rng: 0x9e37_79b9_7f4a_7c15 }
    }

    /// Attempts taken since construction or the last [`Backoff::reset`].
    pub fn attempt(&self) -> u32 {
        self.attempt
    }

    /// The next delay in the schedule: `min(base·2ᵏ, cap)` plus jitter in
    /// `[0, delay/2]`, advancing the attempt counter.
    pub fn next_delay(&mut self) -> Duration {
        let delay = self.peek_delay();
        let jitter_max = delay.as_nanos() as u64 / 2;
        let jitter = if jitter_max == 0 { 0 } else { self.next_u64() % (jitter_max + 1) };
        self.attempt = self.attempt.saturating_add(1);
        delay + Duration::from_nanos(jitter)
    }

    /// The pre-jitter delay the next [`Backoff::next_delay`] call will
    /// use, without advancing the schedule.
    pub fn peek_delay(&self) -> Duration {
        let doubled = self.base.saturating_mul(1u32.checked_shl(self.attempt).unwrap_or(u32::MAX));
        doubled.min(self.cap)
    }

    /// Reset-on-success: the next failure starts the ladder from `base`
    /// again instead of carrying a stale, maxed-out delay.
    pub fn reset(&mut self) {
        self.attempt = 0;
    }

    /// SplitMix64 step — tiny, dependency-free, and plenty for jitter.
    fn next_u64(&mut self) -> u64 {
        self.rng = self.rng.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.rng;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_doubles_then_caps() {
        let mut b = Backoff::new(Duration::from_millis(10), Duration::from_millis(45));
        let expected = [10, 20, 40, 45, 45, 45];
        for (k, &ms) in expected.iter().enumerate() {
            let pre = b.peek_delay();
            assert_eq!(pre, Duration::from_millis(ms), "attempt {k}");
            let d = b.next_delay();
            assert!(d >= pre, "jitter must not shrink the delay (attempt {k})");
            assert!(d <= pre + pre / 2, "jitter bounded by half the delay (attempt {k})");
        }
        assert_eq!(b.attempt(), 6);
    }

    #[test]
    fn reset_restarts_the_ladder() {
        let mut b = Backoff::new(Duration::from_millis(8), Duration::from_secs(1));
        b.next_delay();
        b.next_delay();
        assert_eq!(b.peek_delay(), Duration::from_millis(32));
        b.reset();
        assert_eq!(b.attempt(), 0);
        assert_eq!(b.peek_delay(), Duration::from_millis(8));
    }

    #[test]
    fn jitter_is_deterministic() {
        let take = || -> Vec<Duration> {
            let mut b = Backoff::new(Duration::from_millis(100), Duration::from_secs(2));
            (0..5).map(|_| b.next_delay()).collect()
        };
        assert_eq!(take(), take(), "same schedule every time");
    }

    #[test]
    fn zero_base_disables_backoff() {
        let mut b = Backoff::new(Duration::ZERO, Duration::from_secs(1));
        for _ in 0..4 {
            assert_eq!(b.next_delay(), Duration::ZERO);
        }
    }

    #[test]
    fn huge_attempt_counts_saturate_at_the_cap() {
        let mut b = Backoff::new(Duration::from_millis(1), Duration::from_millis(64));
        for _ in 0..100 {
            b.next_delay();
        }
        assert_eq!(b.peek_delay(), Duration::from_millis(64));
    }
}
