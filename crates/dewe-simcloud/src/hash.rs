//! Multiplicative hashing for the simulator's token-keyed maps.
//!
//! Every map on the simulation hot path is keyed by a small opaque `u64`
//! (job ids, file keys, flow ids). The standard library's default SipHash
//! is DoS-resistant but costs tens of nanoseconds per operation — real
//! money when a single simulated job performs ~20 map operations and the
//! goal is millions of simulated jobs per second. Tokens here are
//! program-generated, never attacker-controlled, so a Fibonacci
//! multiplicative hash (one `wrapping_mul` with a 64-bit golden-ratio
//! constant) is sufficient and an order of magnitude cheaper.

use std::hash::{BuildHasherDefault, Hasher};

/// `floor(2^64 / φ)`, odd — the classic Fibonacci hashing multiplier.
const PHI64: u64 = 0x9e37_79b9_7f4a_7c15;

/// One-multiply hasher for integer keys.
#[derive(Default)]
pub struct TokenHasher {
    state: u64,
}

impl Hasher for TokenHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        // Fallback for composite keys: fold 8-byte chunks.
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        // Rotate so high key bits also reach the map's low index bits.
        self.state = (self.state ^ n).wrapping_mul(PHI64).rotate_left(26);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.write_u64(n as u64);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }
}

/// `BuildHasher` for token-keyed maps.
pub type TokenBuildHasher = BuildHasherDefault<TokenHasher>;

/// `HashMap` keyed by simulator tokens.
pub type TokenMap<V> = std::collections::HashMap<u64, V, TokenBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_keys_spread() {
        // Low bits (what HashMap indexes by) must differ for dense keys.
        let h = |k: u64| {
            let mut hasher = TokenHasher::default();
            hasher.write_u64(k);
            hasher.finish()
        };
        let mut low: Vec<u64> = (0..64).map(|k| h(k) & 0xfff).collect();
        low.sort_unstable();
        low.dedup();
        assert!(low.len() >= 60, "dense keys must not collide in low bits: {}", low.len());
    }

    #[test]
    fn map_roundtrip() {
        let mut m: TokenMap<&str> = TokenMap::default();
        m.insert(7, "seven");
        m.insert(1 << 56, "tagged");
        assert_eq!(m.get(&7), Some(&"seven"));
        assert_eq!(m.get(&(1 << 56)), Some(&"tagged"));
        assert_eq!(m.remove(&7), Some("seven"));
        assert!(!m.contains_key(&7));
    }
}
