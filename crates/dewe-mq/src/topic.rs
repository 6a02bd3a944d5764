//! A single FIFO work-queue topic.
//!
//! Consumers that find the queue empty sleep on a condition variable, and
//! the topic counts them under its mutex, so a publisher pays for a
//! wake-up only when somebody is asleep: publishing into an empty room
//! costs the lock and nothing else, and a batch of `m` messages wakes
//! `min(sleepers, m)` consumers. A consumer checks the queue and joins
//! the count under the same lock the publisher holds while it reads the
//! count, so no wake-up can be lost.

use parking_lot::{Condvar, Mutex, MutexGuard};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Counters exposed for observability and tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TopicStats {
    /// Messages ever published.
    pub published: u64,
    /// Messages ever delivered to a consumer.
    pub delivered: u64,
    /// Messages currently queued.
    pub depth: usize,
    /// Consumers asleep in a blocking pull right now.
    pub sleepers: usize,
    /// Wake-ups ever issued to sleeping consumers by publishes (a
    /// publish that finds nobody asleep issues none).
    pub wakeups: u64,
}

struct Inner<T> {
    queue: Mutex<State<T>>,
    available: Condvar,
}

struct State<T> {
    messages: VecDeque<T>,
    closed: bool,
    /// A [`Topic::kick`] nobody has answered yet.
    kicked: bool,
    published: u64,
    delivered: u64,
    sleepers: usize,
    wakeups: u64,
}

impl<T> State<T> {
    fn pop(&mut self) -> Option<T> {
        let msg = self.messages.pop_front();
        if msg.is_some() {
            self.delivered += 1;
        }
        msg
    }

    /// How many sleepers `added` new messages should wake, counted.
    fn wake_for(&mut self, added: usize) -> usize {
        let wake = added.min(self.sleepers);
        self.wakeups += wake as u64;
        wake
    }
}

/// One FIFO topic with work-queue semantics: every message is delivered to
/// exactly one consumer, in publish order, first-come-first-served across
/// competing consumers.
///
/// Cloning a `Topic` produces another handle to the same queue.
pub struct Topic<T> {
    inner: Arc<Inner<T>>,
}

impl<T> Clone for Topic<T> {
    fn clone(&self) -> Self {
        Self { inner: Arc::clone(&self.inner) }
    }
}

impl<T> Default for Topic<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Topic<T> {
    /// Create a new, open, empty topic.
    pub fn new() -> Self {
        Self {
            inner: Arc::new(Inner {
                queue: Mutex::new(State {
                    messages: VecDeque::new(),
                    closed: false,
                    kicked: false,
                    published: 0,
                    delivered: 0,
                    sleepers: 0,
                    wakeups: 0,
                }),
                available: Condvar::new(),
            }),
        }
    }

    /// Publish a message. Publishing to a closed topic is permitted and the
    /// message remains drainable — DEWE v2 masters may flush final
    /// acknowledgments while the system shuts down.
    pub fn publish(&self, message: T) {
        let mut state = self.inner.queue.lock();
        state.messages.push_back(message);
        state.published += 1;
        let wake = state.wake_for(1);
        drop(state);
        if wake > 0 {
            self.inner.available.notify_one();
        }
    }

    /// Publish a batch, waking as many sleeping consumers as it has
    /// messages for.
    pub fn publish_all(&self, messages: impl IntoIterator<Item = T>) {
        let mut state = self.inner.queue.lock();
        let before = state.messages.len();
        state.messages.extend(messages);
        let added = state.messages.len() - before;
        state.published += added as u64;
        let wake = state.wake_for(added);
        drop(state);
        for _ in 0..wake {
            self.inner.available.notify_one();
        }
    }

    /// Non-blocking pull: `Some(message)` if one is queued, else `None`.
    pub fn try_pull(&self) -> Option<T> {
        self.inner.queue.lock().pop()
    }

    /// Non-blocking batch pull: move up to `max` queued messages into
    /// `out` under a single lock acquisition, returning how many were
    /// taken. A consumer draining a burst this way pays one lock per
    /// burst instead of one per message.
    pub fn try_pull_batch(&self, out: &mut Vec<T>, max: usize) -> usize {
        if max == 0 {
            return 0;
        }
        let mut state = self.inner.queue.lock();
        let take = max.min(state.messages.len());
        out.extend(state.messages.drain(..take));
        state.delivered += take as u64;
        take
    }

    /// Sleep until notified or until `deadline` (`None` = no deadline),
    /// counted among the sleepers for as long. True when the deadline
    /// passed.
    fn sleep(&self, state: &mut MutexGuard<'_, State<T>>, deadline: Option<Instant>) -> bool {
        state.sleepers += 1;
        let timed_out = match deadline {
            Some(deadline) => self.inner.available.wait_until(state, deadline).timed_out(),
            None => {
                self.inner.available.wait(state);
                false
            }
        };
        state.sleepers -= 1;
        timed_out
    }

    /// Blocking pull: waits until a message arrives or the topic is closed.
    /// Returns `None` only when the topic is closed *and* drained.
    pub fn pull(&self) -> Option<T> {
        let mut state = self.inner.queue.lock();
        loop {
            if let Some(msg) = state.pop() {
                return Some(msg);
            }
            if state.closed {
                return None;
            }
            self.sleep(&mut state, None);
        }
    }

    /// Pull with a deadline: returns `None` on timeout, on closed+drained,
    /// or when [`kick`](Self::kick)ed while the queue is empty. A timeout
    /// too long to be a point in time (`Duration::MAX`) waits without one.
    pub fn pull_timeout(&self, timeout: Duration) -> Option<T> {
        let deadline = Instant::now().checked_add(timeout);
        let mut state = self.inner.queue.lock();
        let pulled = loop {
            if let Some(msg) = state.pop() {
                break Some(msg);
            }
            if state.closed || state.kicked {
                break None;
            }
            if self.sleep(&mut state, deadline) {
                // One last check: a publish may have raced the timeout.
                break state.pop();
            }
        };
        // Any return answers a kick: the caller is back in its loop.
        state.kicked = false;
        pulled
    }

    /// Ring the doorbell: the [`pull_timeout`](Self::pull_timeout) in
    /// progress — or, if none is, the next one — returns now instead of
    /// waiting out its timeout, with a queued message if there is one and
    /// `None` if not. One kick is answered by one return, however many
    /// kicks preceded it. For a consumer whose loop also serves something
    /// this topic does not carry (a serve loop that waits on acks must
    /// notice a submission): publish there, then kick here. Messages are
    /// neither dropped nor reordered, and [`pull`](Self::pull) is
    /// unaffected.
    pub fn kick(&self) {
        let mut state = self.inner.queue.lock();
        state.kicked = true;
        let asleep = state.sleepers > 0;
        drop(state);
        if asleep {
            // All of them: a `pull` sleeper must not swallow the one
            // wake-up meant for a `pull_timeout` sleeper.
            self.inner.available.notify_all();
        }
    }

    /// Close the topic: blocked consumers wake, remaining messages stay
    /// drainable, and pulls return `None` once the queue is empty.
    pub fn close(&self) {
        let mut state = self.inner.queue.lock();
        state.closed = true;
        drop(state);
        self.inner.available.notify_all();
    }

    /// True once [`close`](Self::close) has been called.
    pub fn is_closed(&self) -> bool {
        self.inner.queue.lock().closed
    }

    /// Messages currently queued.
    pub fn len(&self) -> usize {
        self.inner.queue.lock().messages.len()
    }

    /// True if no messages are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Counters snapshot.
    pub fn stats(&self) -> TopicStats {
        let state = self.inner.queue.lock();
        TopicStats {
            published: state.published,
            delivered: state.delivered,
            depth: state.messages.len(),
            sleepers: state.sleepers,
            wakeups: state.wakeups,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::thread;

    #[test]
    fn fifo_order_single_consumer() {
        let t: Topic<u32> = Topic::new();
        for i in 0..100 {
            t.publish(i);
        }
        for i in 0..100 {
            assert_eq!(t.try_pull(), Some(i));
        }
        assert_eq!(t.try_pull(), None);
    }

    #[test]
    fn publish_all_preserves_order() {
        let t: Topic<u32> = Topic::new();
        t.publish_all(0..10);
        let got: Vec<u32> = std::iter::from_fn(|| t.try_pull()).collect();
        assert_eq!(got, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn try_pull_batch_drains_in_order_up_to_max() {
        let t: Topic<u32> = Topic::new();
        t.publish_all(0..10);
        let mut out = Vec::new();
        assert_eq!(t.try_pull_batch(&mut out, 4), 4);
        assert_eq!(out, vec![0, 1, 2, 3]);
        assert_eq!(t.try_pull_batch(&mut out, 100), 6);
        assert_eq!(out.len(), 10);
        assert!(out.windows(2).all(|w| w[0] < w[1]), "FIFO preserved");
        assert_eq!(t.try_pull_batch(&mut out, 8), 0, "empty queue yields nothing");
        assert_eq!(t.try_pull_batch(&mut out, 0), 0, "zero max is a no-op");
        let s = t.stats();
        assert_eq!(s.delivered, 10);
        assert_eq!(s.depth, 0);
    }

    #[test]
    fn stats_track_published_and_delivered() {
        let t: Topic<u32> = Topic::new();
        t.publish_all(0..5);
        t.try_pull();
        t.try_pull();
        let s = t.stats();
        assert_eq!(s.published, 5);
        assert_eq!(s.delivered, 2);
        assert_eq!(s.depth, 3);
    }

    #[test]
    fn pull_timeout_expires_on_empty() {
        let t: Topic<u32> = Topic::new();
        let start = std::time::Instant::now();
        assert_eq!(t.pull_timeout(Duration::from_millis(30)), None);
        assert!(start.elapsed() >= Duration::from_millis(25));
    }

    #[test]
    fn pull_timeout_returns_early_on_publish() {
        let t: Topic<u32> = Topic::new();
        let t2 = t.clone();
        let h = thread::spawn(move || t2.pull_timeout(Duration::from_secs(10)));
        thread::sleep(Duration::from_millis(20));
        t.publish(99);
        assert_eq!(h.join().unwrap(), Some(99));
    }

    #[test]
    fn close_wakes_blocked_pull() {
        let t: Topic<u32> = Topic::new();
        let t2 = t.clone();
        let h = thread::spawn(move || t2.pull());
        thread::sleep(Duration::from_millis(20));
        t.close();
        assert_eq!(h.join().unwrap(), None);
        assert!(t.is_closed());
    }

    #[test]
    fn close_allows_draining() {
        let t: Topic<u32> = Topic::new();
        t.publish(1);
        t.publish(2);
        t.close();
        assert_eq!(t.pull(), Some(1));
        assert_eq!(t.pull(), Some(2));
        assert_eq!(t.pull(), None);
    }

    #[test]
    fn publish_after_close_is_drainable() {
        let t: Topic<u32> = Topic::new();
        t.close();
        t.publish(5);
        assert_eq!(t.try_pull(), Some(5));
    }

    /// The work-queue invariant under contention: N producers publishing
    /// disjoint ranges, M consumers pulling concurrently — every message is
    /// delivered exactly once.
    #[test]
    fn concurrent_exactly_once_delivery() {
        const PRODUCERS: u32 = 4;
        const CONSUMERS: usize = 6;
        const PER_PRODUCER: u32 = 500;
        let t: Topic<u32> = Topic::new();

        let mut handles = Vec::new();
        for p in 0..PRODUCERS {
            let t = t.clone();
            handles.push(thread::spawn(move || {
                for i in 0..PER_PRODUCER {
                    t.publish(p * PER_PRODUCER + i);
                }
            }));
        }
        let mut consumers = Vec::new();
        for _ in 0..CONSUMERS {
            let t = t.clone();
            consumers.push(thread::spawn(move || {
                let mut got = Vec::new();
                while let Some(v) = t.pull() {
                    got.push(v);
                }
                got
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        // Let consumers drain, then close to release them.
        while !t.is_empty() {
            thread::yield_now();
        }
        t.close();
        let mut all = HashSet::new();
        let mut total = 0usize;
        for c in consumers {
            for v in c.join().unwrap() {
                assert!(all.insert(v), "message {v} delivered twice");
                total += 1;
            }
        }
        assert_eq!(total, (PRODUCERS * PER_PRODUCER) as usize);
        let s = t.stats();
        assert_eq!(s.published, s.delivered);
        assert_eq!(s.depth, 0);
    }

    /// FIFO is preserved per producer even with a competing consumer pair:
    /// each consumer's subsequence of one producer's messages is increasing.
    #[test]
    fn per_producer_order_preserved() {
        let t: Topic<u32> = Topic::new();
        let t2 = t.clone();
        let producer = thread::spawn(move || {
            for i in 0..2000 {
                t2.publish(i);
            }
            t2.close();
        });
        let mut cons = Vec::new();
        for _ in 0..3 {
            let t = t.clone();
            cons.push(thread::spawn(move || {
                let mut got = Vec::new();
                while let Some(v) = t.pull() {
                    got.push(v);
                }
                got
            }));
        }
        producer.join().unwrap();
        for c in cons {
            let got = c.join().unwrap();
            assert!(got.windows(2).all(|w| w[0] < w[1]), "per-consumer order violated");
        }
    }

    fn wait_for(what: &str, mut done: impl FnMut() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(60);
        while !done() {
            assert!(Instant::now() < deadline, "timed out waiting until {what}");
            thread::yield_now();
        }
    }

    /// Sleeper-counted notification loses no wake-up: blocking consumers
    /// that go to sleep between bursts are always woken for the next
    /// message. A lost wake-up leaves messages queued with every consumer
    /// asleep, and the watchdog in `wait_for` turns that hang into a
    /// failure.
    #[test]
    fn counted_wakeups_lose_nothing_under_contention() {
        const PRODUCERS: u64 = 4;
        const CONSUMERS: usize = 4;
        const PER_PRODUCER: u64 = 50_000;
        let t: Topic<u64> = Topic::new();
        let consumers: Vec<_> = (0..CONSUMERS)
            .map(|_| {
                let t = t.clone();
                thread::spawn(move || {
                    let (mut count, mut sum) = (0u64, 0u64);
                    while let Some(v) = t.pull() {
                        count += 1;
                        sum += v;
                    }
                    (count, sum)
                })
            })
            .collect();
        let producers: Vec<_> = (0..PRODUCERS)
            .map(|p| {
                let t = t.clone();
                thread::spawn(move || {
                    for i in 0..PER_PRODUCER {
                        let v = p * PER_PRODUCER + i;
                        // Singles and small batches, so both notify paths run.
                        if i % 7 == 0 {
                            t.publish_all([v]);
                        } else {
                            t.publish(v);
                        }
                    }
                })
            })
            .collect();
        for p in producers {
            p.join().unwrap();
        }
        let total = PRODUCERS * PER_PRODUCER;
        wait_for("every message is delivered", || t.stats().delivered == total);
        t.close();
        let (count, sum) = consumers
            .into_iter()
            .map(|c| c.join().unwrap())
            .fold((0, 0), |(c, s), (c2, s2)| (c + c2, s + s2));
        assert_eq!(count, total);
        assert_eq!(sum, total * (total - 1) / 2, "each message exactly once");
        assert!(t.stats().wakeups <= total, "never more wake-ups than messages");
    }

    #[test]
    fn a_publish_wakes_only_as_many_sleepers_as_it_has_messages_for() {
        // (sleepers, messages): more sleepers than messages, and fewer.
        for (k, m) in [(4usize, 2usize), (2, 5), (3, 3)] {
            let t: Topic<usize> = Topic::new();
            t.publish(0);
            t.publish_all(1..3);
            assert_eq!(t.stats().wakeups, 0, "nobody asleep, nobody woken");
            let mut drained = Vec::new();
            t.try_pull_batch(&mut drained, 3);

            let sleepers: Vec<_> = (0..k)
                .map(|_| {
                    let t = t.clone();
                    thread::spawn(move || t.pull())
                })
                .collect();
            wait_for("every consumer is asleep", || t.stats().sleepers == k);
            t.publish_all(0..m);
            assert_eq!(t.stats().wakeups, k.min(m) as u64, "k={k} m={m}");
            wait_for("the woken consumers have taken theirs", || {
                t.stats().delivered == 3 + k.min(m) as u64
            });
            t.close();
            let mut got: Vec<usize> =
                sleepers.into_iter().filter_map(|s| s.join().unwrap()).collect();
            // Whatever the sleepers left behind is still queued, in order.
            got.extend(std::iter::from_fn(|| t.try_pull()));
            got.sort_unstable();
            assert_eq!(got, (0..m).collect::<Vec<_>>(), "k={k} m={m}: all delivered");
        }
    }

    #[test]
    fn kick_returns_a_blocked_pull_timeout_at_once() {
        let t: Topic<u32> = Topic::new();
        let t2 = t.clone();
        let h = thread::spawn(move || {
            let got = t2.pull_timeout(Duration::from_secs(10));
            (got, Instant::now())
        });
        wait_for("the consumer is asleep", || t.stats().sleepers == 1);
        let kicked_at = Instant::now();
        t.kick();
        let (got, returned_at) = h.join().unwrap();
        assert_eq!(got, None);
        let took = returned_at.duration_since(kicked_at);
        assert!(took < Duration::from_millis(50), "kick took {took:?} to land");
    }

    #[test]
    fn kick_is_sticky_for_exactly_one_later_pull() {
        let t: Topic<u32> = Topic::new();
        t.kick();
        t.kick(); // kicks do not add up
        let start = Instant::now();
        assert_eq!(t.pull_timeout(Duration::from_secs(10)), None);
        assert!(start.elapsed() < Duration::from_secs(5), "the kick was waiting for it");
        let start = Instant::now();
        assert_eq!(t.pull_timeout(Duration::from_millis(30)), None);
        assert!(start.elapsed() >= Duration::from_millis(25), "and only for that one");
        // Without a deadline the wait is still open to a kick.
        let t2 = t.clone();
        let h = thread::spawn(move || t2.pull_timeout(Duration::MAX));
        wait_for("the consumer is asleep", || t.stats().sleepers == 1);
        t.kick();
        assert_eq!(h.join().unwrap(), None);
    }

    #[test]
    fn kick_never_drops_or_reorders_a_message() {
        let t: Topic<u32> = Topic::new();
        t.publish_all(0..3);
        t.kick();
        // A queued message answers the kick; the rest follow in order and
        // the kick does not come back as a spurious `None`.
        assert_eq!(t.pull_timeout(Duration::from_secs(10)), Some(0));
        assert_eq!(t.pull_timeout(Duration::from_secs(10)), Some(1));
        t.kick();
        assert_eq!(t.try_pull(), Some(2), "non-blocking pulls ignore the kick");
        assert_eq!(t.pull_timeout(Duration::from_secs(10)), None, "which is still pending");
        // `pull` is deaf to kicks: only a message or a close returns it.
        let t2 = t.clone();
        let h = thread::spawn(move || t2.pull());
        wait_for("the consumer is asleep", || t.stats().sleepers == 1);
        t.kick();
        t.publish(7);
        assert_eq!(h.join().unwrap(), Some(7));
        let start = Instant::now();
        assert_eq!(t.pull_timeout(Duration::from_secs(10)), None);
        assert!(start.elapsed() < Duration::from_secs(5), "the kick was still unanswered");
        let s = t.stats();
        assert_eq!((s.published, s.delivered, s.depth), (4, 4, 0));
    }
}
