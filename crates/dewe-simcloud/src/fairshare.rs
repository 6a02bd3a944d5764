//! Fluid processor-sharing resource (disk/FS read bandwidth).
//!
//! Models `n` concurrent flows sharing a fixed capacity `C` equally: each
//! flow progresses at `C / n` bytes per second, with `n` changing as flows
//! join and complete. Implemented with the classic *virtual time* technique:
//! virtual time `V` advances at `C / n` per real second, a flow of `w` bytes
//! arriving at virtual time `V0` finishes when `V = V0 + w`, and the next
//! completion is always the minimum virtual finish — an `O(log n)` heap
//! operation per membership change instead of an `O(n)` rescan.
//!
//! DEWE v2's worker nodes read their inputs from a shared POSIX file system
//! and the paper treats that bandwidth as statistically identical across
//! workers (§III.A); equal-share fluid flow is the canonical model of that
//! assumption.

use crate::hash::TokenMap;
use crate::time::SimTime;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Identifies an in-flight flow on one [`FairShare`] resource.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FlowId(u64);

/// Total-ordered f64 wrapper for the completion heap (virtual finish times
/// are always finite).
#[derive(PartialEq, PartialOrd)]
struct Vf(f64);
impl Eq for Vf {}
#[allow(clippy::derive_ord_xor_partial_ord)]
impl Ord for Vf {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.partial_cmp(&other.0).expect("virtual finish times are finite")
    }
}

struct Flow {
    vfinish: f64,
    bytes: f64,
    tag: u64,
}

/// An equal-share fluid resource.
pub struct FairShare {
    /// Capacity in bytes per second.
    capacity: f64,
    /// Current virtual time (bytes of service delivered per flow).
    vnow: f64,
    /// Wall-clock moment `vnow` was last advanced to.
    last: SimTime,
    flows: TokenMap<Flow>,
    heap: BinaryHeap<Reverse<(Vf, u64)>>,
    next_id: u64,
    /// Total bytes delivered to completed flows (for throughput accounting).
    completed_bytes: f64,
    /// Wall seconds during which at least one flow was active.
    busy_secs: f64,
}

impl FairShare {
    /// New resource with the given capacity in bytes/second.
    pub fn new(capacity_bytes_per_sec: f64) -> Self {
        assert!(
            capacity_bytes_per_sec.is_finite() && capacity_bytes_per_sec > 0.0,
            "capacity must be positive"
        );
        Self {
            capacity: capacity_bytes_per_sec,
            vnow: 0.0,
            last: SimTime::ZERO,
            flows: TokenMap::default(),
            heap: BinaryHeap::new(),
            next_id: 0,
            completed_bytes: 0.0,
            busy_secs: 0.0,
        }
    }

    /// Capacity in bytes/second.
    pub fn capacity(&self) -> f64 {
        self.capacity
    }

    /// Bytes delivered to flows that have been harvested as complete.
    pub fn completed_bytes(&self) -> f64 {
        self.completed_bytes
    }

    /// Seconds with ≥1 active flow, up to the last advance.
    pub fn busy_secs(&self) -> f64 {
        self.busy_secs
    }

    /// Advance virtual time to `now`.
    fn advance(&mut self, now: SimTime) {
        let dt = now.secs_since(self.last);
        if dt > 0.0 {
            let n = self.flows.len();
            if n > 0 {
                self.vnow += self.capacity * dt / n as f64;
                self.busy_secs += dt;
            }
            self.last = now;
        } else {
            self.last = self.last.max(now);
        }
    }

    /// Start a flow of `bytes` at `now`, carrying an opaque `tag`.
    pub fn start(&mut self, now: SimTime, bytes: f64, tag: u64) -> FlowId {
        debug_assert!(bytes >= 0.0);
        self.advance(now);
        let id = self.next_id;
        self.next_id += 1;
        let vfinish = self.vnow + bytes;
        self.flows.insert(id, Flow { vfinish, bytes, tag });
        self.heap.push(Reverse((Vf(vfinish), id)));
        FlowId(id)
    }

    /// Abort a flow (worker failure). Bytes already delivered count toward
    /// throughput; the remainder is discarded. Returns the tag if the flow
    /// was still active.
    pub fn cancel(&mut self, now: SimTime, flow: FlowId) -> Option<u64> {
        self.advance(now);
        self.flows.remove(&flow.0).map(|f| {
            let delivered = (f.bytes - (f.vfinish - self.vnow)).max(0.0);
            self.completed_bytes += delivered;
            f.tag
        })
    }

    /// Absolute time of the next flow completion, if any flows are active.
    pub fn next_completion(&mut self, now: SimTime) -> Option<SimTime> {
        self.advance(now);
        let n = self.flows.len();
        if n == 0 {
            return None;
        }
        // Skip tombstones (cancelled flows).
        while let Some(Reverse((Vf(vf), id))) = self.heap.peek() {
            if let Some(f) = self.flows.get(id) {
                if (f.vfinish - vf).abs() < f64::EPSILON {
                    let remaining_v = (f.vfinish - self.vnow).max(0.0);
                    let dt = remaining_v * n as f64 / self.capacity;
                    // Round up a microsecond so the completion event never
                    // fires before the fluid model agrees the flow is done.
                    let at = now.plus_secs_f64(dt) + SimTime(1);
                    return Some(at);
                }
            }
            self.heap.pop();
        }
        None
    }

    /// Harvest all flows that have completed by `now`, returning their tags.
    pub fn pop_completed(&mut self, now: SimTime) -> Vec<u64> {
        let mut done = Vec::new();
        self.pop_completed_into(now, &mut done);
        done
    }

    /// Like [`Self::pop_completed`], appending the tags to `done` so a
    /// caller-owned buffer can be reused across harvests.
    pub fn pop_completed_into(&mut self, now: SimTime, done: &mut Vec<u64>) {
        self.advance(now);
        let eps = 1e-6 * self.vnow.abs().max(1.0);
        while let Some(Reverse((Vf(vf), id))) = self.heap.peek() {
            let id = *id;
            match self.flows.get(&id) {
                None => {
                    self.heap.pop(); // cancelled
                }
                Some(f) if f.vfinish <= self.vnow + eps => {
                    let f = self.flows.remove(&id).unwrap();
                    debug_assert!((f.vfinish - vf).abs() < f64::EPSILON);
                    self.completed_bytes += f.bytes;
                    done.push(f.tag);
                    self.heap.pop();
                }
                Some(_) => break,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs_f64(s)
    }

    #[test]
    fn single_flow_runs_at_full_capacity() {
        let mut r = FairShare::new(100.0); // 100 B/s
        r.start(t(0.0), 500.0, 1);
        let done_at = r.next_completion(t(0.0)).unwrap();
        assert!((done_at.as_secs_f64() - 5.0).abs() < 1e-3);
        assert_eq!(r.pop_completed(done_at), vec![1]);
        assert!((r.completed_bytes() - 500.0).abs() < 1e-6);
    }

    #[test]
    fn two_equal_flows_share_evenly() {
        let mut r = FairShare::new(100.0);
        r.start(t(0.0), 500.0, 1);
        r.start(t(0.0), 500.0, 2);
        // Each gets 50 B/s -> both done at 10 s.
        let at = r.next_completion(t(0.0)).unwrap();
        assert!((at.as_secs_f64() - 10.0).abs() < 1e-3);
        let mut done = r.pop_completed(at);
        done.sort_unstable();
        assert_eq!(done, vec![1, 2]);
    }

    #[test]
    fn late_joiner_slows_first_flow() {
        let mut r = FairShare::new(100.0);
        r.start(t(0.0), 500.0, 1);
        // At t=2, 200 bytes done; 300 remain. Second flow joins.
        r.start(t(2.0), 1000.0, 2);
        // Flow 1: 300 bytes at 50 B/s -> completes at t=8.
        let at = r.next_completion(t(2.0)).unwrap();
        assert!((at.as_secs_f64() - 8.0).abs() < 1e-3, "got {at:?}");
        assert_eq!(r.pop_completed(at), vec![1]);
        // Flow 2: had 1000 - 300 = 700 left at t=8, now alone at 100 B/s -> t=15.
        let at2 = r.next_completion(at).unwrap();
        assert!((at2.as_secs_f64() - 15.0).abs() < 1e-3, "got {at2:?}");
        assert_eq!(r.pop_completed(at2), vec![2]);
    }

    #[test]
    fn cancellation_speeds_up_survivor() {
        let mut r = FairShare::new(100.0);
        let f1 = r.start(t(0.0), 1000.0, 1);
        r.start(t(0.0), 1000.0, 2);
        // At t=5 each has 250 done. Cancel flow 1.
        assert_eq!(r.cancel(t(5.0), f1), Some(1));
        // Flow 2: 750 left at full 100 B/s -> t=12.5.
        let at = r.next_completion(t(5.0)).unwrap();
        assert!((at.as_secs_f64() - 12.5).abs() < 1e-3);
        assert_eq!(r.pop_completed(at), vec![2]);
        // Cancelled flow's partial service (250) still counted.
        assert!((r.completed_bytes() - 1250.0).abs() < 1e-3);
    }

    #[test]
    fn cancel_twice_returns_none() {
        let mut r = FairShare::new(10.0);
        let f = r.start(t(0.0), 10.0, 9);
        assert_eq!(r.cancel(t(0.1), f), Some(9));
        assert_eq!(r.cancel(t(0.2), f), None);
    }

    #[test]
    fn zero_byte_flow_completes_immediately() {
        let mut r = FairShare::new(100.0);
        r.start(t(1.0), 0.0, 7);
        let at = r.next_completion(t(1.0)).unwrap();
        assert!(at.as_secs_f64() - 1.0 < 1e-3);
        assert_eq!(r.pop_completed(at), vec![7]);
    }

    #[test]
    fn busy_time_tracks_active_periods() {
        let mut r = FairShare::new(100.0);
        r.start(t(0.0), 100.0, 1); // busy 0..1
        let at = r.next_completion(t(0.0)).unwrap();
        r.pop_completed(at);
        // idle 1..5
        r.start(t(5.0), 200.0, 2); // busy 5..7
        let at2 = r.next_completion(t(5.0)).unwrap();
        r.pop_completed(at2);
        assert!((r.busy_secs() - 3.0).abs() < 1e-3, "busy {}", r.busy_secs());
    }

    #[test]
    fn throughput_conservation_many_flows() {
        // Total delivered bytes equals capacity x busy time, regardless of
        // how flows interleave.
        let mut r = FairShare::new(1000.0);
        let mut clock = t(0.0);
        for i in 0..50 {
            r.start(clock, 100.0 + 13.0 * (i % 7) as f64, i);
            clock = clock.plus_secs_f64(0.01);
        }
        let mut harvested = 0;
        while let Some(at) = r.next_completion(clock) {
            clock = at;
            harvested += r.pop_completed(clock).len();
        }
        assert_eq!(harvested, 50);
        let expected: f64 = (0..50).map(|i| 100.0 + 13.0 * (i % 7) as f64).sum();
        assert!((r.completed_bytes() - expected).abs() / expected < 1e-6);
        assert!((r.capacity() * r.busy_secs() - expected).abs() / expected < 1e-3);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = FairShare::new(0.0);
    }
}
