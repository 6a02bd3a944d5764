//! Discrete-event kernel: a cancelable future-event list.

use crate::time::SimTime;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Handle to a scheduled event, usable for cancellation.
///
/// Encodes `(generation << 32) | slot`; the generation is bumped every
/// time a slot is vacated, so a stale handle (fired or cancelled event,
/// possibly with the slot since reused) can never cancel a newer event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventId(u64);

impl EventId {
    #[inline]
    fn pack(gen: u32, slot: u32) -> Self {
        EventId(((gen as u64) << 32) | slot as u64)
    }

    #[inline]
    fn unpack(self) -> (u32, u32) {
        ((self.0 >> 32) as u32, self.0 as u32)
    }
}

struct Slot<E> {
    gen: u32,
    payload: Option<E>,
}

/// A deterministic future-event list.
///
/// Events fire in `(time, insertion sequence)` order, so simultaneous
/// events resolve in schedule order — a fixed tie-break that keeps the
/// whole simulation reproducible. Cancellation is O(1) via tombstones that
/// are skipped (and freed) on pop. An event that is moved far more often
/// than it fires — a fair-share resource's predicted completion, moved
/// whenever a flow joins or leaves — stays out of the heap altogether: its
/// owner [reserves](Self::reserve) the key it would have been filed under
/// and compares it with [`Self::peek_key`].
///
/// Payloads live in a slab of generation-checked slots rather than a map:
/// schedule and pop — paid by every event in the simulation — touch only a
/// vector index and the heap, never a hash table.
pub struct EventQueue<E> {
    /// `Reverse<(time, schedule seq, packed slot id)>`. The sequence number
    /// is globally monotonic and gives simultaneous events their
    /// schedule-order tie-break; the packed id locates the payload.
    heap: BinaryHeap<Reverse<(SimTime, u64, u64)>>,
    slots: Vec<Slot<E>>,
    free: Vec<u32>,
    live: usize,
    seq: u64,
    now: SimTime,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Empty queue at time zero.
    pub fn new() -> Self {
        Self {
            heap: BinaryHeap::new(),
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
            seq: 0,
            now: SimTime::ZERO,
        }
    }

    /// Current simulation time (the timestamp of the last popped event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedule `event` at absolute time `at`.
    ///
    /// Scheduling in the past is clamped to `now` (it will fire next), which
    /// absorbs float round-off in duration computations.
    pub fn schedule(&mut self, at: SimTime, event: E) -> EventId {
        let at = at.max(self.now);
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize].payload = Some(event);
                slot
            }
            None => {
                self.slots.push(Slot { gen: 0, payload: Some(event) });
                (self.slots.len() - 1) as u32
            }
        };
        let id = EventId::pack(self.slots[slot as usize].gen, slot);
        self.heap.push(Reverse((at, self.seq, id.0)));
        self.seq += 1;
        self.live += 1;
        id
    }

    /// Schedule `event` after `delay_secs` seconds of simulated time.
    pub fn schedule_in(&mut self, delay_secs: f64, event: E) -> EventId {
        let at = self.now.plus_secs_f64(delay_secs);
        self.schedule(at, event)
    }

    /// Take the payload if `id` still names a live event, vacating its slot.
    #[inline]
    fn extract(&mut self, id: EventId) -> Option<E> {
        let (gen, slot) = id.unpack();
        let entry = self.slots.get_mut(slot as usize)?;
        if entry.gen != gen {
            return None; // already fired or cancelled; slot may be reused
        }
        let payload = entry.payload.take()?;
        entry.gen = entry.gen.wrapping_add(1);
        self.free.push(slot);
        self.live -= 1;
        Some(payload)
    }

    /// Cancel a scheduled event. Idempotent; cancelling an already-fired
    /// event is a no-op.
    pub fn cancel(&mut self, id: EventId) {
        let _ = self.extract(id);
    }

    /// Pop the next live event, advancing `now` to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        while let Some(Reverse((at, _, id))) = self.heap.pop() {
            if let Some(payload) = self.extract(EventId(id)) {
                debug_assert!(at >= self.now, "time must be monotonic");
                self.now = at;
                return Some((at, payload));
            }
            // tombstone: skip
        }
        None
    }

    /// `(time, sequence)` key of the next live event without popping it;
    /// tombstones on the way are dropped.
    pub fn peek_key(&mut self) -> Option<(SimTime, u64)> {
        while let Some(&Reverse((at, seq, id))) = self.heap.peek() {
            let (gen, slot) = EventId(id).unpack();
            if self.slots[slot as usize].gen == gen {
                return Some((at, seq));
            }
            self.heap.pop();
        }
        None
    }

    /// The key [`Self::schedule`] would file an event at `at` under — `at`
    /// clamped to `now`, and the next sequence number, which is consumed —
    /// for an event its owner holds outside the queue. The owner fires it
    /// when the key is below [`Self::peek_key`], calling
    /// [`Self::advance_to`]; it then fires exactly where a scheduled event
    /// would have, and every other event's sequence number is unchanged.
    /// Dropping the key cancels it.
    pub fn reserve(&mut self, at: SimTime) -> (SimTime, u64) {
        let key = (at.max(self.now), self.seq);
        self.seq += 1;
        key
    }

    /// Advance `now` to the time of a [reserved](Self::reserve) event that
    /// fires ahead of everything queued.
    pub fn advance_to(&mut self, at: SimTime) {
        debug_assert!(at >= self.now, "time must be monotonic");
        self.now = at;
    }

    /// Number of live (non-cancelled) events.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when no live events remain.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fires_in_time_order() {
        let mut q: EventQueue<&str> = EventQueue::new();
        q.schedule(SimTime::from_secs(3), "c");
        q.schedule(SimTime::from_secs(1), "a");
        q.schedule(SimTime::from_secs(2), "b");
        assert_eq!(q.pop().unwrap(), (SimTime::from_secs(1), "a"));
        assert_eq!(q.pop().unwrap(), (SimTime::from_secs(2), "b"));
        assert_eq!(q.pop().unwrap(), (SimTime::from_secs(3), "c"));
        assert!(q.pop().is_none());
    }

    #[test]
    fn simultaneous_events_fire_in_schedule_order() {
        let mut q: EventQueue<u32> = EventQueue::new();
        for i in 0..10 {
            q.schedule(SimTime::from_secs(5), i);
        }
        let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn now_advances_with_pops() {
        let mut q: EventQueue<()> = EventQueue::new();
        q.schedule(SimTime::from_secs(7), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_secs(7));
    }

    #[test]
    fn cancellation_skips_event() {
        let mut q: EventQueue<&str> = EventQueue::new();
        let id = q.schedule(SimTime::from_secs(1), "dead");
        q.schedule(SimTime::from_secs(2), "alive");
        q.cancel(id);
        assert_eq!(q.pop().unwrap().1, "alive");
    }

    #[test]
    fn cancel_is_idempotent_and_safe_after_fire() {
        let mut q: EventQueue<&str> = EventQueue::new();
        let id = q.schedule(SimTime::from_secs(1), "x");
        q.pop();
        q.cancel(id); // no panic
        q.cancel(id);
    }

    #[test]
    fn stale_id_does_not_cancel_reused_slot() {
        let mut q: EventQueue<&str> = EventQueue::new();
        let dead = q.schedule(SimTime::from_secs(1), "first");
        q.pop();
        // The freed slot is reused by the next schedule; the stale handle
        // must not be able to cancel the new occupant.
        let live = q.schedule(SimTime::from_secs(2), "second");
        assert_ne!(dead, live);
        q.cancel(dead);
        assert_eq!(q.pop().unwrap().1, "second");
    }

    #[test]
    fn schedule_in_past_clamps_to_now() {
        let mut q: EventQueue<&str> = EventQueue::new();
        q.schedule(SimTime::from_secs(10), "later");
        q.pop();
        q.schedule(SimTime::from_secs(1), "clamped");
        let (at, e) = q.pop().unwrap();
        assert_eq!(e, "clamped");
        assert_eq!(at, SimTime::from_secs(10));
    }

    #[test]
    fn peek_key_skips_tombstones() {
        let mut q: EventQueue<&str> = EventQueue::new();
        let id = q.schedule(SimTime::from_secs(1), "dead");
        q.schedule(SimTime::from_secs(4), "alive");
        q.cancel(id);
        assert_eq!(q.peek_key(), Some((SimTime::from_secs(4), 1)));
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn a_reserved_key_orders_like_a_scheduled_event() {
        let mut q: EventQueue<&str> = EventQueue::new();
        q.schedule(SimTime::from_secs(5), "before");
        let held = q.reserve(SimTime::from_secs(5));
        q.schedule(SimTime::from_secs(5), "after");
        assert_eq!(held, (SimTime::from_secs(5), 1));
        assert!(q.peek_key().unwrap() < held);
        assert_eq!(q.pop().unwrap().1, "before");
        assert!(held < q.peek_key().unwrap(), "the sequence number breaks the tie");
        q.advance_to(held.0);
        assert_eq!(q.now(), SimTime::from_secs(5));
        // In the past: clamped to now, as `schedule` clamps.
        q.pop();
        q.advance_to(SimTime::from_secs(9));
        assert_eq!(q.reserve(SimTime::from_secs(1)), (SimTime::from_secs(9), 3));
    }

    #[test]
    fn schedule_in_uses_now() {
        let mut q: EventQueue<&str> = EventQueue::new();
        q.schedule(SimTime::from_secs(5), "first");
        q.pop();
        q.schedule_in(2.0, "second");
        assert_eq!(q.pop().unwrap().0, SimTime::from_secs(7));
    }

    #[test]
    fn empty_checks() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert!(q.is_empty());
        let id = q.schedule(SimTime::from_secs(1), ());
        assert!(!q.is_empty());
        q.cancel(id);
        assert!(q.is_empty());
        assert!(q.pop().is_none());
    }
}
