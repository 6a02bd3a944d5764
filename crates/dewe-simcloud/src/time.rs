//! Simulation time: integer microseconds.
//!
//! Integer time keeps the event queue totally ordered and the simulation
//! bit-for-bit deterministic across platforms (no float comparison in the
//! hot path). Conversions to/from `f64` seconds are provided at the edges.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// Microseconds per second.
pub const MICROS_PER_SEC: u64 = 1_000_000;

/// A point in simulated time, in microseconds since simulation start.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

impl SimTime {
    /// Simulation start.
    pub const ZERO: SimTime = SimTime(0);
    /// The far future (used as an "never" sentinel).
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// From whole seconds.
    pub fn from_secs(s: u64) -> Self {
        SimTime(s * MICROS_PER_SEC)
    }

    /// From fractional seconds (saturating at zero for negatives, which can
    /// appear from float round-off in callers).
    pub fn from_secs_f64(s: f64) -> Self {
        debug_assert!(s.is_finite(), "non-finite sim time");
        SimTime((s.max(0.0) * MICROS_PER_SEC as f64).round() as u64)
    }

    /// As fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / MICROS_PER_SEC as f64
    }

    /// Add fractional seconds.
    pub fn plus_secs_f64(self, s: f64) -> Self {
        self + SimTime::from_secs_f64(s)
    }

    /// Saturating difference in seconds.
    pub fn secs_since(self, earlier: SimTime) -> f64 {
        (self.0.saturating_sub(earlier.0)) as f64 / MICROS_PER_SEC as f64
    }
}

impl Add for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for SimTime {
    fn add_assign(&mut self, rhs: SimTime) {
        *self = *self + rhs;
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_secs() {
        let t = SimTime::from_secs_f64(1.5);
        assert_eq!(t.0, 1_500_000);
        assert!((t.as_secs_f64() - 1.5).abs() < 1e-9);
    }

    #[test]
    fn arithmetic() {
        let a = SimTime::from_secs(10);
        let b = SimTime::from_secs(3);
        assert_eq!((a + b).as_secs_f64(), 13.0);
        assert_eq!((a - b).as_secs_f64(), 7.0);
        assert_eq!((b - a).0, 0, "subtraction saturates");
    }

    #[test]
    fn negative_secs_saturate_to_zero() {
        assert_eq!(SimTime::from_secs_f64(-0.001), SimTime::ZERO);
    }

    #[test]
    fn secs_since() {
        let a = SimTime::from_secs(5);
        let b = SimTime::from_secs(2);
        assert_eq!(a.secs_since(b), 3.0);
        assert_eq!(b.secs_since(a), 0.0);
    }

    #[test]
    fn ordering() {
        assert!(SimTime::from_secs(1) < SimTime::from_secs(2));
        assert!(SimTime::MAX > SimTime::from_secs(1_000_000));
    }

    #[test]
    fn display_formats_seconds() {
        assert_eq!(SimTime::from_secs_f64(2.5).to_string(), "2.500");
    }
}
