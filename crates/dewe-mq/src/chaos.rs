//! Seeded, deterministic fault decisions for message streams.
//!
//! The paper's robustness experiment (§V.A.3) only kills whole worker
//! nodes; real message fabrics additionally *drop*, *duplicate* and
//! *delay* individual messages. [`ChaosDecider`] decides which, as a pure
//! hash of `(seed, stream, message key)` — no RNG state, no wall clock —
//! so a given seed always produces the same fault pattern. Callers key a
//! message by its identity ([`message_key`] of workflow, job, attempt and
//! kind), never by arrival order, which keeps the pattern independent of
//! event interleaving and thread scheduling: the simulator, the oracle's
//! virtual-time engine driver and its threaded worker-transport decorator
//! all apply the one decider that way.

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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_config_passes_everything_through() {
        let d = ChaosDecider::new(ChaosConfig::default());
        assert!((0..100).all(|k| d.decide(1, k) == Fault::Deliver));
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
