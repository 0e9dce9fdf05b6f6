//! Virtual time.
//!
//! All timing in the simulator is expressed as [`SimTime`], a thin newtype
//! over `f64` seconds.  Using a dedicated type (instead of bare `f64`)
//! prevents accidentally mixing virtual durations with byte counts or flop
//! counts, which are also carried around as `f64` in the cost model.

use std::cmp::Ordering;
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A point in (or duration of) virtual time, in seconds.
///
/// `SimTime` is totally ordered (NaN is considered a programming error and
/// compares as equal to itself so that sorting never panics).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SimTime(f64);

impl SimTime {
    /// Time zero.
    pub const ZERO: SimTime = SimTime(0.0);

    /// Creates a time from seconds.  Negative or NaN inputs are clamped to 0.
    pub fn from_secs(secs: f64) -> Self {
        if secs.is_finite() && secs > 0.0 {
            SimTime(secs)
        } else {
            SimTime(0.0)
        }
    }

    /// The raw number of seconds.
    pub fn as_secs(self) -> f64 {
        self.0
    }

    /// Saturating subtraction: never goes below zero.
    pub fn saturating_sub(self, other: SimTime) -> SimTime {
        SimTime((self.0 - other.0).max(0.0))
    }

    /// True if this is exactly time zero.
    pub fn is_zero(self) -> bool {
        self.0 == 0.0
    }
}

impl Eq for SimTime {}

impl PartialOrd for SimTime {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for SimTime {
    fn cmp(&self, other: &Self) -> Ordering {
        // NaN never occurs for values built through the constructors; fall
        // back to Equal so that sorting containers of SimTime cannot panic.
        self.0.partial_cmp(&other.0).unwrap_or(Ordering::Equal)
    }
}

impl Add for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign for SimTime {
    fn add_assign(&mut self, rhs: SimTime) {
        self.0 += rhs.0;
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl SubAssign for SimTime {
    fn sub_assign(&mut self, rhs: SimTime) {
        self.0 -= rhs.0;
    }
}

impl Mul<f64> for SimTime {
    type Output = SimTime;
    fn mul(self, rhs: f64) -> SimTime {
        SimTime(self.0 * rhs)
    }
}

impl Div<f64> for SimTime {
    type Output = SimTime;
    fn div(self, rhs: f64) -> SimTime {
        SimTime(self.0 / rhs)
    }
}

impl Div<SimTime> for SimTime {
    type Output = f64;
    fn div(self, rhs: SimTime) -> f64 {
        self.0 / rhs.0
    }
}

impl Sum for SimTime {
    fn sum<I: Iterator<Item = SimTime>>(iter: I) -> SimTime {
        iter.fold(SimTime::ZERO, |acc, t| acc + t)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1.0 {
            write!(f, "{:.3}s", self.0)
        } else if self.0 >= 1e-3 {
            write!(f, "{:.3}ms", self.0 * 1e3)
        } else if self.0 >= 1e-6 {
            write!(f, "{:.3}us", self.0 * 1e6)
        } else {
            write!(f, "{:.1}ns", self.0 * 1e9)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl SimTime {
        fn from_millis(ms: f64) -> Self {
            Self::from_secs(ms * 1e-3)
        }
    }

    #[test]
    fn constructors_and_accessors_round_trip() {
        assert_eq!(SimTime::from_secs(2.0).as_secs(), 2.0);
        assert!((SimTime::from_millis(5.0).as_secs() - 5e-3).abs() < 1e-15);
    }

    #[test]
    fn negative_and_nan_clamp_to_zero() {
        assert_eq!(SimTime::from_secs(-1.0), SimTime::ZERO);
        assert_eq!(SimTime::from_secs(f64::NAN), SimTime::ZERO);
        assert_eq!(SimTime::from_secs(f64::NEG_INFINITY), SimTime::ZERO);
    }

    #[test]
    fn arithmetic_behaves_like_seconds() {
        let a = SimTime::from_secs(1.5);
        let b = SimTime::from_secs(0.5);
        assert_eq!((a + b).as_secs(), 2.0);
        assert_eq!((a - b).as_secs(), 1.0);
        assert_eq!((a * 2.0).as_secs(), 3.0);
        assert_eq!((a / 3.0).as_secs(), 0.5);
        assert_eq!(a / b, 3.0);
    }

    #[test]
    fn ordering_and_max_min() {
        let a = SimTime::from_secs(1.0);
        let b = SimTime::from_secs(2.0);
        assert!(a < b);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
        assert_eq!(b.saturating_sub(a).as_secs(), 1.0);
        assert_eq!(a.saturating_sub(b), SimTime::ZERO);
    }

    #[test]
    fn sum_of_times() {
        let total: SimTime = (1..=4).map(|i| SimTime::from_secs(i as f64)).sum();
        assert_eq!(total.as_secs(), 10.0);
    }

    #[test]
    fn display_picks_sensible_units() {
        assert_eq!(format!("{}", SimTime::from_secs(1.5)), "1.500s");
        assert_eq!(format!("{}", SimTime::from_millis(2.0)), "2.000ms");
        assert_eq!(format!("{}", SimTime::from_secs(7e-6)), "7.000us");
        assert_eq!(format!("{}", SimTime::from_secs(12e-9)), "12.0ns");
    }

    #[test]
    fn is_zero() {
        assert!(SimTime::ZERO.is_zero());
        assert!(!SimTime::from_secs(1e-12).is_zero());
    }
}
