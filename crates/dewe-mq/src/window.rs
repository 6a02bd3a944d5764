//! Bounded send windows: per-consumer dispatch backpressure.
//!
//! A networked master must not fire-hose dispatches at a worker faster
//! than it executes them — unbounded socket buffers turn one slow worker
//! into queued work no other worker can steal. The transport instead
//! grants each worker connection a fixed *window* of in-flight
//! dispatches; a credit is spent per send and returned when the job
//! settles (terminal ack) or the worker hands the dispatch back.
//! Dispatches that find every eligible window full wait in the master's
//! pending queue, where any worker's freed credit can claim them — the
//! wire analogue of RabbitMQ's per-consumer prefetch limit.

use std::sync::atomic::{AtomicU32, Ordering};

/// A fixed-size credit counter, shared between the send path (acquire)
/// and the ack path (release). Thread-safe and lock-free.
#[derive(Debug)]
pub struct SendWindow {
    limit: u32,
    in_flight: AtomicU32,
}

impl SendWindow {
    /// Window with `limit` credits. A zero limit is promoted to 1 — a
    /// window that can never send is a configuration footgun, not a
    /// useful mode.
    pub fn new(limit: u32) -> Self {
        Self { limit: limit.max(1), in_flight: AtomicU32::new(0) }
    }

    /// Spend up to `want` credits atomically, returning how many were
    /// granted (0 when the window is full). One CAS settles the whole
    /// batch, so a coalesced dispatch run debits the window in a single
    /// step instead of `want` contended acquires — and concurrent
    /// batchers can never jointly overshoot the limit.
    pub fn try_acquire_n(&self, want: u32) -> u32 {
        if want == 0 {
            return 0;
        }
        let mut cur = self.in_flight.load(Ordering::Relaxed);
        loop {
            let free = self.limit.saturating_sub(cur);
            if free == 0 {
                return 0;
            }
            let take = want.min(free);
            match self.in_flight.compare_exchange_weak(
                cur,
                cur + take,
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => return take,
                Err(actual) => cur = actual,
            }
        }
    }

    /// Return one credit. Saturates at zero: a terminal ack for a
    /// dispatch sent on a *previous* connection of the same worker (or a
    /// duplicate completion after recovery) must not underflow the new
    /// connection's accounting.
    pub fn release(&self) {
        let mut cur = self.in_flight.load(Ordering::Relaxed);
        loop {
            if cur == 0 {
                return;
            }
            match self.in_flight.compare_exchange_weak(
                cur,
                cur - 1,
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(actual) => cur = actual,
            }
        }
    }

    /// Credits currently spent.
    pub fn in_flight(&self) -> u32 {
        self.in_flight.load(Ordering::Acquire)
    }

    /// Total credits.
    pub fn limit(&self) -> u32 {
        self.limit
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acquire_until_full_then_release_reopens() {
        let w = SendWindow::new(2);
        assert_eq!(w.try_acquire_n(1), 1);
        assert_eq!(w.try_acquire_n(1), 1);
        assert_eq!(w.try_acquire_n(1), 0, "window full");
        assert_eq!(w.in_flight(), 2);
        w.release();
        assert_eq!(w.try_acquire_n(1), 1);
        assert_eq!(w.try_acquire_n(1), 0);
    }

    #[test]
    fn release_saturates_at_zero() {
        let w = SendWindow::new(4);
        w.release();
        w.release();
        assert_eq!(w.in_flight(), 0);
        assert_eq!(w.try_acquire_n(1), 1);
        assert_eq!(w.in_flight(), 1);
    }

    #[test]
    fn zero_limit_is_promoted() {
        let w = SendWindow::new(0);
        assert_eq!(w.limit(), 1);
        assert_eq!(w.try_acquire_n(1), 1);
        assert_eq!(w.try_acquire_n(1), 0);
    }

    #[test]
    fn batch_acquire_grants_partial_and_zero() {
        let w = SendWindow::new(4);
        assert_eq!(w.try_acquire_n(3), 3);
        assert_eq!(w.try_acquire_n(3), 1, "partial grant up to the limit");
        assert_eq!(w.try_acquire_n(3), 0, "full window grants nothing");
        assert_eq!(w.try_acquire_n(0), 0);
        assert_eq!(w.in_flight(), 4);
        w.release();
        assert_eq!(w.try_acquire_n(9), 1);
    }

    #[test]
    fn concurrent_batch_acquirers_never_exceed_limit() {
        use std::sync::Arc;
        let w = Arc::new(SendWindow::new(16));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let w = Arc::clone(&w);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        let got = w.try_acquire_n(5);
                        assert!(w.in_flight() <= w.limit());
                        for _ in 0..got {
                            w.release();
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(w.in_flight(), 0);
    }
}
