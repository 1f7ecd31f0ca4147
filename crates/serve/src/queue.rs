//! The bounded admission queue in front of the warm engine.
//!
//! The overload contract: admission never blocks. A full queue rejects
//! *immediately* with the rejected item handed back (the caller turns
//! it into a typed `Overloaded` response), so a client under overload
//! learns in one round-trip instead of hanging in an invisible backlog.
//! The executor side blocks (with a timeout, so drain/abort phases are
//! polled) and drains up to a batch budget at a time — that is where
//! micro-batching happens.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};
use std::time::Duration;

/// A bounded MPMC queue with non-blocking admission and batched,
/// timeout-polled removal.
pub struct AdmissionQueue<T> {
    inner: Mutex<VecDeque<T>>,
    cv: Condvar,
    cap: usize,
}

impl<T> AdmissionQueue<T> {
    /// `cap` is the maximum backlog; 0 means "always shed" (useful to
    /// make overload deterministic in tests and drills).
    pub fn new(cap: usize) -> Self {
        AdmissionQueue { inner: Mutex::new(VecDeque::new()), cv: Condvar::new(), cap }
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Current backlog depth.
    pub fn depth(&self) -> usize {
        self.inner.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// Non-blocking admission: `Err(item)` the instant the queue is
    /// full. Never parks, never spins.
    pub fn try_push(&self, item: T) -> Result<(), T> {
        let mut q = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        if q.len() >= self.cap {
            return Err(item);
        }
        q.push_back(item);
        drop(q);
        self.cv.notify_one();
        Ok(())
    }

    /// Removes up to `max` items in FIFO order, waiting at most
    /// `timeout` for the first one. Empty result means the timeout
    /// elapsed — an executor uses that to poll the shutdown phase.
    pub fn pop_batch(&self, max: usize, timeout: Duration) -> Vec<T> {
        let mut q = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        if q.is_empty() {
            let (guard, _) = self.cv.wait_timeout(q, timeout).unwrap_or_else(|e| e.into_inner());
            q = guard;
        }
        let n = q.len().min(max.max(1));
        q.drain(..n).collect()
    }
}

/// The memory-pressure ladder: shrinks the micro-batch budget when the
/// engine reports degradation (the PR 3 ladder — prefetch disabled,
/// block clamped, flush retries) and grows it back after a streak of
/// clean runs. Shrinking the batch is the step *before* shedding load:
/// smaller batches need smaller chunk buffers and fewer concurrent
/// pins, so the daemon first trades throughput for headroom and only
/// rejects once the queue itself overflows.
pub struct PressureLadder {
    max: usize,
    budget: usize,
    clean_streak: u32,
    promote_after: u32,
}

impl PressureLadder {
    pub fn new(max_batch: usize) -> Self {
        let max = max_batch.max(1);
        PressureLadder { max, budget: max, clean_streak: 0, promote_after: 3 }
    }

    /// The current micro-batch budget (requests merged per engine run).
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// Feeds one engine run's degradation verdict; returns the budget
    /// for the next batch.
    pub fn on_run(&mut self, degraded: bool) -> usize {
        if degraded {
            self.budget = (self.budget / 2).max(1);
            self.clean_streak = 0;
        } else {
            self.clean_streak += 1;
            if self.clean_streak >= self.promote_after && self.budget < self.max {
                self.budget += 1;
                self.clean_streak = 0;
            }
        }
        self.budget
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Instant;

    #[test]
    fn full_queue_rejects_immediately_and_hands_the_item_back() {
        let q = AdmissionQueue::new(2);
        assert!(q.try_push(1).is_ok());
        assert!(q.try_push(2).is_ok());
        let t0 = Instant::now();
        assert_eq!(q.try_push(3), Err(3), "the shed item comes back for the typed response");
        assert!(t0.elapsed() < Duration::from_millis(50), "admission must never block");
        assert_eq!(q.depth(), 2);
    }

    #[test]
    fn zero_capacity_always_sheds() {
        let q = AdmissionQueue::new(0);
        assert_eq!(q.try_push("r"), Err("r"));
    }

    #[test]
    fn pop_batch_is_fifo_and_bounded() {
        let q = AdmissionQueue::new(8);
        for i in 0..5 {
            q.try_push(i).unwrap();
        }
        assert_eq!(q.pop_batch(3, Duration::from_millis(1)), vec![0, 1, 2]);
        assert_eq!(q.pop_batch(9, Duration::from_millis(1)), vec![3, 4]);
        let t0 = Instant::now();
        assert!(q.pop_batch(3, Duration::from_millis(10)).is_empty());
        assert!(t0.elapsed() >= Duration::from_millis(10), "empty pop waits out the timeout");
    }

    #[test]
    fn pop_batch_wakes_on_push() {
        let q = Arc::new(AdmissionQueue::new(4));
        let q2 = Arc::clone(&q);
        let h = std::thread::spawn(move || q2.pop_batch(4, Duration::from_secs(10)));
        std::thread::sleep(Duration::from_millis(20));
        q.try_push(42).unwrap();
        assert_eq!(h.join().unwrap(), vec![42]);
    }

    #[test]
    fn ladder_halves_under_pressure_and_climbs_back_slowly() {
        let mut l = PressureLadder::new(8);
        assert_eq!(l.budget(), 8);
        assert_eq!(l.on_run(true), 4);
        assert_eq!(l.on_run(true), 2);
        assert_eq!(l.on_run(true), 1);
        assert_eq!(l.on_run(true), 1, "floor is one request per batch");
        // Three clean runs per step back up: recovery is deliberately
        // slower than degradation.
        assert_eq!(l.on_run(false), 1);
        assert_eq!(l.on_run(false), 1);
        assert_eq!(l.on_run(false), 2);
        for _ in 0..30 {
            l.on_run(false);
        }
        assert_eq!(l.budget(), 8, "budget is capped at the configured max");
    }
}
