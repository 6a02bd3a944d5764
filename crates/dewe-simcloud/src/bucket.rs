//! Leaky-bucket page-cache model for disk writes.
//!
//! The paper observes (§IV.A, Fig. 4b) that Montage's stage 1 is CPU-bound
//! on *every* instance type despite massive logical write traffic, because
//! "the operating system caches the disk writes and flushes them to the
//! disk in batches". [`WriteBucket`] reproduces that: logical writes land
//! in a dirty-byte budget at memory speed and drain to the device at its
//! sequential-write rate; once the budget is exhausted, writers stall until
//! enough bytes have drained — the Linux `dirty_ratio` throttling behaviour.
//!
//! The model is analytic: each `submit` returns the completion time in O(1),
//! with no events needed for the background drain.

use crate::time::SimTime;

/// A shared write path: page cache in front of a draining device.
#[derive(Debug, Clone)]
pub struct WriteBucket {
    /// Device sequential-write rate, bytes/second.
    drain_rate: f64,
    /// Memory-copy rate for cache-absorbed writes, bytes/second.
    cache_rate: f64,
    /// Dirty-byte budget (cache capacity for unflushed data).
    dirty_limit: f64,
    /// Dirty bytes at `last`.
    dirty: f64,
    last: SimTime,
}

impl WriteBucket {
    /// New bucket. `drain_rate` is the device's sequential-write bandwidth;
    /// `dirty_limit` the unflushed-byte budget (≈ Linux `dirty_ratio` × RAM);
    /// `cache_rate` the in-memory absorption speed.
    pub fn new(drain_rate: f64, dirty_limit: f64, cache_rate: f64) -> Self {
        assert!(drain_rate > 0.0 && cache_rate > 0.0 && dirty_limit >= 0.0);
        Self { drain_rate, cache_rate, dirty_limit, dirty: 0.0, last: SimTime::ZERO }
    }

    fn advance(&mut self, now: SimTime) {
        let dt = now.secs_since(self.last);
        if dt > 0.0 {
            self.dirty = (self.dirty - self.drain_rate * dt).max(0.0);
            self.last = now;
        }
    }

    /// Submit a logical write of `bytes`; returns its completion time.
    ///
    /// While the dirty budget has room the write completes at memory speed;
    /// otherwise it stalls until the backlog has drained enough to admit it.
    /// Oversized writes (`bytes > dirty_limit`) degrade gracefully to device
    /// speed. Thin wrapper over [`Self::submit_batch`].
    pub fn submit(&mut self, now: SimTime, bytes: f64) -> SimTime {
        self.submit_batch(now, std::iter::once(bytes))
    }

    /// Submit a set of writes (a job's output files) as **one** bucket
    /// update; returns the completion time of the whole batch.
    ///
    /// The files are summed and charged together: one `advance` and one
    /// budget decision per job instead of one per file, and the returned
    /// completion covers the total byte count (a job that emits ten files
    /// is done when all ten have landed, not when the largest one has).
    /// Negative sizes are clamped to zero.
    pub fn submit_batch(&mut self, now: SimTime, files: impl IntoIterator<Item = f64>) -> SimTime {
        let bytes: f64 = files.into_iter().map(|b| b.max(0.0)).sum();
        self.advance(now);
        let copy_secs = bytes / self.cache_rate;
        let completion = if self.dirty + bytes <= self.dirty_limit {
            // Fits: absorbed at memory speed.
            self.dirty += bytes;
            now.plus_secs_f64(copy_secs)
        } else if bytes <= self.dirty_limit {
            // Stall until the backlog drains enough to admit `bytes`.
            let need = self.dirty + bytes - self.dirty_limit;
            let stall = need / self.drain_rate;
            self.dirty = self.dirty_limit;
            now.plus_secs_f64(stall + copy_secs)
        } else {
            // Larger than the whole budget: effectively write-through. The
            // excess is charged at device rate on top of any backlog stall.
            let backlog_stall = self.dirty / self.drain_rate;
            let through = bytes / self.drain_rate;
            self.dirty = self.dirty_limit;
            now.plus_secs_f64(backlog_stall + through)
        };
        // The drain clock restarts from `now`; completion timestamps are
        // derived, not state.
        completion
    }

    /// Dirty (unflushed) bytes at `now`.
    pub fn dirty(&mut self, now: SimTime) -> f64 {
        self.advance(now);
        self.dirty
    }

    /// Earliest time the bucket will be fully drained (for makespan
    /// accounting that includes final flushes).
    pub fn drained_at(&mut self, now: SimTime) -> SimTime {
        self.advance(now);
        now.plus_secs_f64(self.dirty / self.drain_rate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs_f64(s)
    }

    fn bucket() -> WriteBucket {
        // 100 B/s drain, 1000 B budget, 10_000 B/s memory.
        WriteBucket::new(100.0, 1000.0, 10_000.0)
    }

    #[test]
    fn small_write_completes_at_memory_speed() {
        let mut b = bucket();
        let done = b.submit(t(0.0), 500.0);
        assert!((done.as_secs_f64() - 0.05).abs() < 1e-6);
    }

    #[test]
    fn backlog_drains_over_time() {
        let mut b = bucket();
        b.submit(t(0.0), 500.0);
        assert!((b.dirty(t(2.0)) - 300.0).abs() < 1e-6); // 200 drained
        assert_eq!(b.dirty(t(100.0)), 0.0);
    }

    #[test]
    fn full_budget_stalls_writer() {
        let mut b = bucket();
        b.submit(t(0.0), 1000.0); // fills the budget
                                  // Immediately write 300 more: must wait for 300 to drain (3 s).
        let done = b.submit(t(0.0), 300.0);
        assert!((done.as_secs_f64() - (3.0 + 0.03)).abs() < 1e-3, "{done:?}");
    }

    #[test]
    fn partially_drained_budget_stalls_less() {
        let mut b = bucket();
        b.submit(t(0.0), 1000.0);
        // At t=5, 500 drained, dirty=500. A 700-byte write needs 200 drained.
        let done = b.submit(t(5.0), 700.0);
        assert!((done.as_secs_f64() - (5.0 + 2.0 + 0.07)).abs() < 1e-3, "{done:?}");
    }

    #[test]
    fn oversized_write_goes_through_at_device_rate() {
        let mut b = bucket();
        let done = b.submit(t(0.0), 5000.0); // 5x the budget
        assert!((done.as_secs_f64() - 50.0).abs() < 1e-3, "{done:?}");
    }

    #[test]
    fn oversized_write_pays_existing_backlog_first() {
        let mut b = bucket();
        b.submit(t(0.0), 1000.0);
        let done = b.submit(t(0.0), 5000.0);
        // 10 s backlog + 50 s write-through.
        assert!((done.as_secs_f64() - 60.0).abs() < 1e-3, "{done:?}");
    }

    #[test]
    fn drained_at_projects_flush_completion() {
        let mut b = bucket();
        b.submit(t(0.0), 800.0);
        let at = b.drained_at(t(0.0));
        assert!((at.as_secs_f64() - 8.0).abs() < 1e-3);
    }

    #[test]
    fn zero_byte_write_is_free() {
        let mut b = bucket();
        let done = b.submit(t(3.0), 0.0);
        assert_eq!(done, t(3.0));
    }

    #[test]
    fn throughput_shape_is_bursty_then_throttled() {
        // Writes beyond the budget proceed at exactly the device rate: the
        // "intermittent disk writes at full capacity" of paper Fig. 4b.
        let mut b = bucket();
        let mut now = t(0.0);
        let mut completions = Vec::new();
        for _ in 0..30 {
            let done = b.submit(now, 200.0);
            completions.push(done);
            now = done;
        }
        // First 5 writes (1000 B) absorbed at memory speed; afterwards the
        // inter-completion gap approaches bytes/drain_rate = 2 s.
        let early = completions[1].secs_since(completions[0]);
        let late = completions[29].secs_since(completions[28]);
        assert!(early < 0.05);
        assert!((late - 2.0).abs() < 0.1, "late gap {late}");
    }

    #[test]
    fn batch_charges_the_total_in_one_update() {
        let mut a = bucket();
        let mut b = bucket();
        let batched = a.submit_batch(t(0.0), [300.0, 500.0, 200.0]);
        let single = b.submit(t(0.0), 1000.0);
        assert_eq!(batched, single);
        assert_eq!(a.dirty(t(0.0)), b.dirty(t(0.0)));
    }

    #[test]
    fn saturating_batch_stalls_on_the_sum_not_the_largest_file() {
        let mut b = bucket();
        b.submit(t(0.0), 1000.0); // fill the budget
                                  // Three 200-byte files: 600 bytes must drain (6 s), not 200 (2 s).
        let done = b.submit_batch(t(0.0), [200.0, 200.0, 200.0]);
        assert!((done.as_secs_f64() - (6.0 + 0.06)).abs() < 1e-3, "{done:?}");
    }

    #[test]
    fn batch_clamps_negative_sizes_and_tolerates_empty() {
        let mut b = bucket();
        assert_eq!(b.submit_batch(t(1.0), [-5.0]), t(1.0));
        assert_eq!(b.submit_batch(t(1.0), std::iter::empty()), t(1.0));
        assert_eq!(b.dirty(t(1.0)), 0.0);
    }
}
