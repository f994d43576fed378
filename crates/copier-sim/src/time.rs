//! Virtual time for the discrete-event simulator.
//!
//! All simulated durations and instants are expressed in nanoseconds of
//! *virtual* time. Virtual time only advances when the executor processes a
//! timer event, so two runs with the same seed produce identical timelines.

use core::fmt;
use core::ops::{Add, AddAssign, Sub};

/// A span of virtual time, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Nanos(pub u64);

impl Nanos {
    /// Zero-length span.
    pub const ZERO: Nanos = Nanos(0);

    /// Creates a span from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        Nanos(us * 1_000)
    }

    /// Creates a span from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        Nanos(ms * 1_000_000)
    }

    /// Creates a span from seconds.
    pub const fn from_secs(s: u64) -> Self {
        Nanos(s * 1_000_000_000)
    }

    /// The raw nanosecond count.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// The span in (possibly fractional) microseconds.
    pub(crate) fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// The span in (possibly fractional) milliseconds.
    pub(crate) fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// The span in (possibly fractional) seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000_000.0
    }

    /// Scales the span by a dimensionless factor, rounding to nearest.
    pub fn mul_f64(self, f: f64) -> Nanos {
        Nanos((self.0 as f64 * f).round() as u64)
    }

    /// Returns the larger of two spans.
    pub fn max(self, other: Nanos) -> Nanos {
        Nanos(self.0.max(other.0))
    }
}

impl Add for Nanos {
    type Output = Nanos;
    fn add(self, rhs: Nanos) -> Nanos {
        Nanos(self.0 + rhs.0)
    }
}

impl AddAssign for Nanos {
    fn add_assign(&mut self, rhs: Nanos) {
        self.0 += rhs.0;
    }
}

impl Sub for Nanos {
    type Output = Nanos;
    fn sub(self, rhs: Nanos) -> Nanos {
        Nanos(self.0 - rhs.0)
    }
}

impl fmt::Display for Nanos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}us", self.as_micros_f64())
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_round_trip() {
        assert_eq!(Nanos::from_micros(3).as_nanos(), 3_000);
        assert_eq!(Nanos::from_millis(2).as_nanos(), 2_000_000);
        assert_eq!(Nanos::from_secs(1).as_nanos(), 1_000_000_000);
        assert!((Nanos::from_millis(1500).as_secs_f64() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn arithmetic() {
        let a = Nanos(100);
        let b = Nanos(40);
        assert_eq!(a + b, Nanos(140));
        assert_eq!(a - b, Nanos(60));
        assert_eq!(a.mul_f64(0.5), Nanos(50));
        assert_eq!(a.max(b), a);
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(format!("{}", Nanos(17)), "17ns");
        assert_eq!(format!("{}", Nanos::from_micros(2)), "2.000us");
        assert_eq!(format!("{}", Nanos::from_millis(5)), "5.000ms");
        assert_eq!(format!("{}", Nanos::from_secs(3)), "3.000s");
    }
}
