//! Simulated time with nanosecond resolution.
//!
//! All simulation timestamps and durations are [`SimNanos`], a `u64`
//! nanosecond count. Using an integer (rather than `f64` seconds) makes
//! event ordering exact and the whole simulation bit-for-bit reproducible.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A point in simulated time, or a duration, in nanoseconds.
///
/// The type is deliberately used for both instants and durations; the
/// simulation never mixes them with wall-clock time so the extra type
/// distinction would only add noise.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
#[serde(transparent)]
pub struct SimNanos(pub u64);

impl SimNanos {
    /// Time zero — the start of every simulation.
    pub const ZERO: SimNanos = SimNanos(0);
    /// The largest representable time.
    pub const MAX: SimNanos = SimNanos(u64::MAX);

    /// Construct from whole nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        SimNanos(ns)
    }

    /// Construct from whole microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        SimNanos(us * 1_000)
    }

    /// Construct from whole milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        SimNanos(ms * 1_000_000)
    }

    /// Construct from whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimNanos(s * 1_000_000_000)
    }

    /// Construct from fractional seconds, rounding to the nearest nanosecond.
    ///
    /// Negative inputs clamp to zero: durations in this simulation are never
    /// negative, and analytical-model outputs that underflow are treated as
    /// "free".
    #[inline]
    pub fn from_secs_f64(s: f64) -> Self {
        if s <= 0.0 {
            return SimNanos::ZERO;
        }
        SimNanos((s * 1e9).round() as u64)
    }

    /// The raw nanosecond count.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// This time as fractional seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// This time as fractional milliseconds.
    #[inline]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Saturating subtraction: `self - rhs`, or zero if `rhs` is later.
    #[inline]
    pub fn saturating_sub(self, rhs: SimNanos) -> SimNanos {
        SimNanos(self.0.saturating_sub(rhs.0))
    }

    /// The later of two times.
    #[inline]
    pub fn max(self, rhs: SimNanos) -> SimNanos {
        if self.0 >= rhs.0 {
            self
        } else {
            rhs
        }
    }

    /// The earlier of two times.
    #[inline]
    pub fn min(self, rhs: SimNanos) -> SimNanos {
        if self.0 <= rhs.0 {
            self
        } else {
            rhs
        }
    }

    /// True if this is time zero.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }
}

/// Addition saturates: a run whose clock would pass [`SimNanos::MAX`]
/// pegs there instead of wrapping, so event times stay monotone and a
/// caller can report the overflow by checking the makespan.
impl Add for SimNanos {
    type Output = SimNanos;
    #[inline]
    fn add(self, rhs: SimNanos) -> SimNanos {
        SimNanos(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for SimNanos {
    #[inline]
    fn add_assign(&mut self, rhs: SimNanos) {
        *self = *self + rhs;
    }
}

impl Sub for SimNanos {
    type Output = SimNanos;
    #[inline]
    fn sub(self, rhs: SimNanos) -> SimNanos {
        SimNanos(self.0 - rhs.0)
    }
}

impl SubAssign for SimNanos {
    #[inline]
    fn sub_assign(&mut self, rhs: SimNanos) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for SimNanos {
    type Output = SimNanos;
    #[inline]
    fn mul(self, rhs: u64) -> SimNanos {
        SimNanos(self.0 * rhs)
    }
}

impl Div<u64> for SimNanos {
    type Output = SimNanos;
    #[inline]
    fn div(self, rhs: u64) -> SimNanos {
        SimNanos(self.0 / rhs)
    }
}

impl Sum for SimNanos {
    fn sum<I: Iterator<Item = SimNanos>>(iter: I) -> SimNanos {
        iter.fold(SimNanos::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for SimNanos {
    /// Human-friendly rendering with an automatically chosen unit.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns < 1_000 {
            write!(f, "{ns}ns")
        } else if ns < 1_000_000 {
            write!(f, "{:.2}us", ns as f64 / 1e3)
        } else if ns < 1_000_000_000 {
            write!(f, "{:.2}ms", ns as f64 / 1e6)
        } else {
            write!(f, "{:.3}s", ns as f64 / 1e9)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_units_agree() {
        assert_eq!(SimNanos::from_micros(1), SimNanos::from_nanos(1_000));
        assert_eq!(SimNanos::from_millis(1), SimNanos::from_micros(1_000));
        assert_eq!(SimNanos::from_secs(1), SimNanos::from_millis(1_000));
    }

    #[test]
    fn secs_f64_round_trip() {
        let t = SimNanos::from_secs_f64(1.5);
        assert_eq!(t.as_nanos(), 1_500_000_000);
        assert!((t.as_secs_f64() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn from_secs_f64_clamps_negative() {
        assert_eq!(SimNanos::from_secs_f64(-3.0), SimNanos::ZERO);
        assert_eq!(SimNanos::from_secs_f64(0.0), SimNanos::ZERO);
    }

    #[test]
    fn arithmetic() {
        let a = SimNanos::from_millis(3);
        let b = SimNanos::from_millis(1);
        assert_eq!(a + b, SimNanos::from_millis(4));
        assert_eq!(a - b, SimNanos::from_millis(2));
        assert_eq!(a * 2, SimNanos::from_millis(6));
        assert_eq!(a / 3, SimNanos::from_millis(1));
        assert_eq!(b.saturating_sub(a), SimNanos::ZERO);
        // Addition pegs at MAX instead of wrapping.
        let mut t = SimNanos(u64::MAX - 5);
        assert_eq!(t + b, SimNanos::MAX);
        t += SimNanos::from_secs_f64(1e30);
        assert_eq!(t, SimNanos::MAX);
    }

    #[test]
    fn min_max() {
        let a = SimNanos(5);
        let b = SimNanos(9);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
    }

    #[test]
    fn sum_of_durations() {
        let total: SimNanos = (1..=4).map(SimNanos::from_millis).sum();
        assert_eq!(total, SimNanos::from_millis(10));
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(SimNanos(12).to_string(), "12ns");
        assert_eq!(SimNanos::from_micros(2).to_string(), "2.00us");
        assert_eq!(SimNanos::from_millis(2).to_string(), "2.00ms");
        assert_eq!(SimNanos::from_secs(2).to_string(), "2.000s");
    }

    #[test]
    fn millis_f64() {
        assert!((SimNanos::from_millis(250).as_millis_f64() - 250.0).abs() < 1e-9);
    }
}
