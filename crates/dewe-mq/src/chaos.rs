//! Seeded, deterministic fault injection for message topics.
//!
//! The paper's robustness experiment (§V.A.3) only kills whole worker
//! nodes; real message fabrics additionally *drop*, *duplicate* and
//! *delay* individual messages. [`ChaosTopic`] wraps a [`Topic`] and
//! injects exactly those faults, driven by a pure hash of
//! `(seed, stream, message sequence number)` — no RNG state, no wall
//! clock in the decision path — so a given seed always produces the same
//! fault pattern and every chaos test is reproducible bit-for-bit.
//!
//! [`ChaosDecider`] is the decision core, shared between the realtime
//! wrapper here and the discrete-event simulator (which keys decisions by
//! `(workflow, job, attempt)` instead of a sequence number, keeping sim
//! runs independent of driver iteration order).

use crate::Topic;
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Fault-injection probabilities, all in `[0, 1]`.
///
/// The default injects nothing; construct with the fields you want. Drop
/// wins over duplicate/delay for a given message (a dropped message can't
/// also be duplicated).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosConfig {
    /// Seed for the decision hash: same seed, same fault pattern.
    pub seed: u64,
    /// Probability a published message is silently dropped.
    pub drop_prob: f64,
    /// Probability a published message is delivered twice.
    pub dup_prob: f64,
    /// Probability a published message is held back `delay_secs`.
    pub delay_prob: f64,
    /// How long delayed messages are held.
    pub delay_secs: f64,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        Self { seed: 0xD1CE, drop_prob: 0.0, dup_prob: 0.0, delay_prob: 0.0, delay_secs: 0.0 }
    }
}

impl ChaosConfig {
    /// Drop + duplicate injection (the robustness experiment's columns).
    pub fn drop_dup(seed: u64, drop_prob: f64, dup_prob: f64) -> Self {
        Self { seed, drop_prob, dup_prob, ..Self::default() }
    }
}

/// Well-known stream ids so the dispatch and acknowledgment topics draw
/// from distinct fault sequences under one seed (submissions are never
/// perturbed; their id, 1, stays unused so seeds keep their meaning).
pub mod streams {
    /// Job dispatching topic.
    pub const DISPATCH: u64 = 2;
    /// Job acknowledgment topic.
    pub const ACK: u64 = 3;
}

/// splitmix64 finalizer: the avalanche core of every chaos decision.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Collapse an arbitrary message identity (e.g. workflow, job, attempt)
/// into a single decision key.
pub fn message_key(a: u64, b: u64, c: u64) -> u64 {
    mix(a ^ mix(b ^ mix(c)))
}

/// The consolidated outcome of one fault decision.
///
/// [`ChaosDecider::decide`] resolves the individual probability draws with
/// the documented precedence (drop > duplicate > delay) into exactly one
/// fault per message.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Fault {
    /// Deliver normally.
    Deliver,
    /// Silently drop the message.
    Drop,
    /// Deliver the message twice, back-to-back.
    Duplicate,
    /// Hold the message back this many seconds before delivery.
    Delay(f64),
}

/// Pure, seeded fault decision function: no state, no clock.
#[derive(Debug, Clone)]
pub struct ChaosDecider {
    cfg: ChaosConfig,
}

impl ChaosDecider {
    /// Decider for the given configuration.
    pub fn new(cfg: ChaosConfig) -> Self {
        for p in [cfg.drop_prob, cfg.dup_prob, cfg.delay_prob] {
            assert!((0.0..=1.0).contains(&p), "probability out of range: {p}");
        }
        Self { cfg }
    }

    /// Uniform draw in [0, 1) for (stream, key, salt) under the seed.
    fn unit(&self, stream: u64, key: u64, salt: u64) -> f64 {
        let z = mix(self.cfg.seed ^ mix(stream ^ mix(key ^ salt.wrapping_mul(0xA5A5_A5A5))));
        (z >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Should this message be dropped?
    pub fn drops(&self, stream: u64, key: u64) -> bool {
        self.cfg.drop_prob > 0.0 && self.unit(stream, key, 1) < self.cfg.drop_prob
    }

    /// Should this message be delivered twice?
    pub fn duplicates(&self, stream: u64, key: u64) -> bool {
        self.cfg.dup_prob > 0.0 && self.unit(stream, key, 2) < self.cfg.dup_prob
    }

    /// Should this message be held back — and for how long?
    pub fn delay(&self, stream: u64, key: u64) -> Option<f64> {
        (self.cfg.delay_prob > 0.0 && self.unit(stream, key, 3) < self.cfg.delay_prob)
            .then_some(self.cfg.delay_secs)
    }

    /// Resolve the individual draws into exactly one [`Fault`] with the
    /// documented precedence: drop beats duplicate beats delay.
    pub fn decide(&self, stream: u64, key: u64) -> Fault {
        if self.drops(stream, key) {
            Fault::Drop
        } else if self.duplicates(stream, key) {
            Fault::Duplicate
        } else if let Some(secs) = self.delay(stream, key) {
            Fault::Delay(secs)
        } else {
            Fault::Deliver
        }
    }
}

/// Snapshot of a chaos wrapper's injection counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ChaosStats {
    /// Messages offered to `publish`.
    pub published: u64,
    /// Messages silently dropped.
    pub dropped: u64,
    /// Extra copies delivered.
    pub duplicated: u64,
    /// Messages held back before delivery.
    pub delayed: u64,
}

#[derive(Default)]
struct StatsInner {
    published: AtomicU64,
    dropped: AtomicU64,
    duplicated: AtomicU64,
    delayed: AtomicU64,
}

/// A [`Topic`] wrapper that injects seeded drop / duplication / delay on
/// the publish path.
///
/// Decisions are keyed by a per-handle publish sequence number, so a
/// single handle publishing the same logical stream always sees the same
/// fault pattern. Delayed messages are parked internally and flushed into
/// the underlying topic on the next `publish` on this handle or an
/// explicit [`flush_due`](Self::flush_due) — callers with sparse traffic
/// pump `flush_due` on a periodic tick. Consumers pull the wrapped topic
/// ([`inner`](Self::inner)) directly.
pub struct ChaosTopic<T> {
    inner: Topic<T>,
    decider: Arc<ChaosDecider>,
    stream: u64,
    seq: Arc<AtomicU64>,
    delayed: Arc<Mutex<VecDeque<(Instant, T)>>>,
    stats: Arc<StatsInner>,
}

impl<T> Clone for ChaosTopic<T> {
    fn clone(&self) -> Self {
        Self {
            inner: self.inner.clone(),
            decider: Arc::clone(&self.decider),
            stream: self.stream,
            seq: Arc::clone(&self.seq),
            delayed: Arc::clone(&self.delayed),
            stats: Arc::clone(&self.stats),
        }
    }
}

impl<T: Clone> ChaosTopic<T> {
    /// Wrap `inner`, drawing fault decisions from `decider` on `stream`.
    pub fn new(inner: Topic<T>, decider: Arc<ChaosDecider>, stream: u64) -> Self {
        Self {
            inner,
            decider,
            stream,
            seq: Arc::new(AtomicU64::new(0)),
            delayed: Arc::new(Mutex::new(VecDeque::new())),
            stats: Arc::new(StatsInner::default()),
        }
    }

    /// Publish through the fault injector.
    pub fn publish(&self, message: T) {
        self.flush_due();
        let key = self.seq.fetch_add(1, Ordering::Relaxed);
        self.stats.published.fetch_add(1, Ordering::Relaxed);
        match self.decider.decide(self.stream, key) {
            Fault::Drop => {
                self.stats.dropped.fetch_add(1, Ordering::Relaxed);
            }
            Fault::Duplicate => {
                self.stats.duplicated.fetch_add(1, Ordering::Relaxed);
                self.inner.publish(message.clone());
                self.inner.publish(message);
            }
            Fault::Delay(secs) => {
                self.stats.delayed.fetch_add(1, Ordering::Relaxed);
                self.delayed
                    .lock()
                    .push_back((Instant::now() + Duration::from_secs_f64(secs), message));
            }
            Fault::Deliver => self.inner.publish(message),
        }
    }

    /// Move every delayed message whose hold expired into the topic.
    pub fn flush_due(&self) {
        let mut delayed = self.delayed.lock();
        if delayed.is_empty() {
            return;
        }
        let now = Instant::now();
        while let Some((due, _)) = delayed.front() {
            if *due > now {
                break;
            }
            let (_, message) = delayed.pop_front().expect("checked front");
            self.inner.publish(message);
        }
    }

    /// Messages still held back.
    pub fn pending_delayed(&self) -> usize {
        self.delayed.lock().len()
    }

    /// The wrapped topic (workers can pull it directly).
    pub fn inner(&self) -> &Topic<T> {
        &self.inner
    }

    /// Injection counters so far.
    pub fn stats(&self) -> ChaosStats {
        ChaosStats {
            published: self.stats.published.load(Ordering::Relaxed),
            dropped: self.stats.dropped.load(Ordering::Relaxed),
            duplicated: self.stats.duplicated.load(Ordering::Relaxed),
            delayed: self.stats.delayed.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(t: &Topic<u32>) -> Vec<u32> {
        let mut out = Vec::new();
        while let Some(m) = t.try_pull() {
            out.push(m);
        }
        out
    }

    #[test]
    fn noop_config_passes_everything_through() {
        let t =
            ChaosTopic::new(Topic::new(), Arc::new(ChaosDecider::new(ChaosConfig::default())), 1);
        for i in 0..100 {
            t.publish(i);
        }
        assert_eq!(drain(t.inner()).len(), 100);
        assert_eq!(t.stats(), ChaosStats { published: 100, ..ChaosStats::default() });
    }

    #[test]
    fn decisions_are_deterministic_per_seed() {
        let d1 = ChaosDecider::new(ChaosConfig::drop_dup(7, 0.3, 0.3));
        let d2 = ChaosDecider::new(ChaosConfig::drop_dup(7, 0.3, 0.3));
        let d3 = ChaosDecider::new(ChaosConfig::drop_dup(8, 0.3, 0.3));
        let pattern = |d: &ChaosDecider| (0..200).map(|k| d.drops(1, k)).collect::<Vec<_>>();
        assert_eq!(pattern(&d1), pattern(&d2), "same seed, same pattern");
        assert_ne!(pattern(&d1), pattern(&d3), "different seed, different pattern");
    }

    #[test]
    fn drop_rate_tracks_probability() {
        let d = ChaosDecider::new(ChaosConfig::drop_dup(42, 0.25, 0.0));
        let dropped = (0..10_000).filter(|&k| d.drops(2, k)).count();
        assert!((2000..3000).contains(&dropped), "~25% expected, got {dropped}");
    }

    #[test]
    fn streams_draw_independent_patterns() {
        let d = ChaosDecider::new(ChaosConfig::drop_dup(9, 0.5, 0.0));
        let a: Vec<bool> = (0..64).map(|k| d.drops(streams::DISPATCH, k)).collect();
        let b: Vec<bool> = (0..64).map(|k| d.drops(streams::ACK, k)).collect();
        assert_ne!(a, b, "streams must not correlate");
    }

    #[test]
    fn dropped_messages_never_surface() {
        let cfg = ChaosConfig::drop_dup(3, 0.5, 0.0);
        let t = ChaosTopic::new(Topic::new(), Arc::new(ChaosDecider::new(cfg)), 1);
        for i in 0..1000 {
            t.publish(i);
        }
        let got = drain(t.inner());
        let s = t.stats();
        assert_eq!(got.len() as u64, s.published - s.dropped);
        assert!(s.dropped > 300 && s.dropped < 700, "dropped {}", s.dropped);
    }

    #[test]
    fn duplicated_messages_surface_twice() {
        let cfg = ChaosConfig::drop_dup(5, 0.0, 0.5);
        let t = ChaosTopic::new(Topic::new(), Arc::new(ChaosDecider::new(cfg)), 1);
        for i in 0..500 {
            t.publish(i);
        }
        let got = drain(t.inner());
        let s = t.stats();
        assert_eq!(got.len() as u64, s.published + s.duplicated);
        assert!(s.duplicated > 150, "duplicated {}", s.duplicated);
        // Duplicates are adjacent (published back-to-back), value-equal.
        let mut dups = 0;
        for w in got.windows(2) {
            if w[0] == w[1] {
                dups += 1;
            }
        }
        assert_eq!(dups as u64, s.duplicated);
    }

    #[test]
    fn delayed_messages_flush_after_hold() {
        let cfg =
            ChaosConfig { seed: 11, delay_prob: 1.0, delay_secs: 0.02, ..ChaosConfig::default() };
        let t = ChaosTopic::new(Topic::new(), Arc::new(ChaosDecider::new(cfg)), 1);
        t.publish(1u32);
        t.flush_due();
        assert_eq!(t.inner().try_pull(), None, "held back");
        assert_eq!(t.pending_delayed(), 1);
        std::thread::sleep(Duration::from_millis(30));
        t.flush_due();
        assert_eq!(t.inner().try_pull(), Some(1), "surfaced after the hold");
        assert_eq!(t.pending_delayed(), 0);
    }

    #[test]
    fn same_seed_same_run() {
        let run = |seed| {
            let cfg = ChaosConfig { seed, drop_prob: 0.2, dup_prob: 0.2, ..ChaosConfig::default() };
            let t = ChaosTopic::new(Topic::new(), Arc::new(ChaosDecider::new(cfg)), 7);
            for i in 0..200u32 {
                t.publish(i);
            }
            drain(t.inner())
        };
        assert_eq!(run(1234), run(1234));
        assert_ne!(run(1234), run(1235));
    }

    #[test]
    fn decide_consolidates_with_drop_precedence() {
        let d = ChaosDecider::new(ChaosConfig {
            seed: 77,
            drop_prob: 0.3,
            dup_prob: 0.3,
            delay_prob: 0.3,
            delay_secs: 1.5,
        });
        let mut seen_drop = false;
        let mut seen_dup = false;
        let mut seen_delay = false;
        for k in 0..1000 {
            match d.decide(4, k) {
                Fault::Drop => {
                    assert!(d.drops(4, k));
                    seen_drop = true;
                }
                Fault::Duplicate => {
                    assert!(!d.drops(4, k) && d.duplicates(4, k));
                    seen_dup = true;
                }
                Fault::Delay(s) => {
                    assert_eq!(s, 1.5);
                    assert!(!d.drops(4, k) && !d.duplicates(4, k));
                    seen_delay = true;
                }
                Fault::Deliver => {}
            }
        }
        assert!(seen_drop && seen_dup && seen_delay, "all fault kinds drawn");
    }

    #[test]
    fn message_key_spreads_small_inputs() {
        let mut keys: Vec<u64> = Vec::new();
        for a in 0..4u64 {
            for b in 0..4u64 {
                for c in 0..4u64 {
                    keys.push(message_key(a, b, c));
                }
            }
        }
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), 64, "no collisions on a small grid");
    }
}
