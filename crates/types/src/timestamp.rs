//! Physical timestamps.
//!
//! POCC assigns every update a *physical clock timestamp* taken from the creating
//! server's loosely synchronised clock (§IV). Timestamps are the unit of all
//! dependency metadata: dependency-vector entries, version-vector entries and the
//! update time of every item version are all [`Timestamp`]s.
//!
//! The reproduction represents a timestamp as a number of **microseconds** since the
//! (simulated or real) epoch. Microsecond granularity matches the granularity used by
//! the original system and is fine enough that ties between distinct servers are broken
//! by the source-replica id as prescribed by the last-writer-wins rule of §IV-B.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};
use std::time::Duration;

/// A physical-clock timestamp, in microseconds since the epoch of the deployment.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct Timestamp(pub u64);

impl Timestamp {
    /// The zero timestamp. Every dependency vector starts at this value, which encodes
    /// "no dependency on that data center".
    pub const ZERO: Timestamp = Timestamp(0);

    /// The maximum representable timestamp.
    pub const MAX: Timestamp = Timestamp(u64::MAX);

    /// Creates a timestamp from raw microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        Timestamp(us)
    }

    /// Creates a timestamp from milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        Timestamp(ms * 1_000)
    }

    /// Creates a timestamp from seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        Timestamp(s * 1_000_000)
    }

    /// Raw value in microseconds.
    #[inline]
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Value in (truncated) milliseconds.
    #[inline]
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000
    }

    /// Value as a [`Duration`] since the epoch.
    #[inline]
    pub const fn as_duration(self) -> Duration {
        Duration::from_micros(self.0)
    }

    /// Returns the later of `self` and `other`.
    #[inline]
    pub fn max(self, other: Timestamp) -> Timestamp {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// Returns the earlier of `self` and `other`.
    #[inline]
    pub fn min(self, other: Timestamp) -> Timestamp {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// Saturating difference `self - other`, as a [`Duration`]. Returns zero when
    /// `other` is later than `self`.
    #[inline]
    pub fn saturating_since(self, other: Timestamp) -> Duration {
        Duration::from_micros(self.0.saturating_sub(other.0))
    }

    /// Adds one microsecond — the smallest possible advance. Used by the hybrid clock
    /// to enforce strict monotonicity of issued timestamps.
    #[inline]
    pub fn tick(self) -> Timestamp {
        Timestamp(self.0 + 1)
    }

    /// Saturating addition of a duration.
    #[inline]
    pub fn saturating_add(self, d: Duration) -> Timestamp {
        Timestamp(self.0.saturating_add(d.as_micros() as u64))
    }

    /// Saturating subtraction of a duration.
    #[inline]
    pub fn saturating_sub(self, d: Duration) -> Timestamp {
        Timestamp(self.0.saturating_sub(d.as_micros() as u64))
    }
}

impl Add<Duration> for Timestamp {
    type Output = Timestamp;

    fn add(self, rhs: Duration) -> Timestamp {
        Timestamp(self.0 + rhs.as_micros() as u64)
    }
}

impl AddAssign<Duration> for Timestamp {
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.as_micros() as u64;
    }
}

impl Sub<Timestamp> for Timestamp {
    type Output = Duration;

    fn sub(self, rhs: Timestamp) -> Duration {
        Duration::from_micros(self.0 - rhs.0)
    }
}

impl From<u64> for Timestamp {
    fn from(us: u64) -> Self {
        Timestamp(us)
    }
}

impl From<Duration> for Timestamp {
    fn from(d: Duration) -> Self {
        Timestamp(d.as_micros() as u64)
    }
}

impl fmt::Display for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}us", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn conversions_are_consistent() {
        let t = Timestamp::from_millis(3);
        assert_eq!(t.as_micros(), 3_000);
        assert_eq!(t.as_millis(), 3);
        assert_eq!(Timestamp::from_secs(2).as_micros(), 2_000_000);
        assert_eq!(t.as_duration(), Duration::from_millis(3));
    }

    #[test]
    fn max_and_min_pick_the_right_operand() {
        let a = Timestamp(5);
        let b = Timestamp(9);
        assert_eq!(a.max(b), b);
        assert_eq!(b.max(a), b);
        assert_eq!(a.min(b), a);
        assert_eq!(b.min(a), a);
    }

    #[test]
    fn saturating_since_is_zero_for_earlier_lhs() {
        let a = Timestamp(5);
        let b = Timestamp(9);
        assert_eq!(b.saturating_since(a), Duration::from_micros(4));
        assert_eq!(a.saturating_since(b), Duration::ZERO);
    }

    #[test]
    fn add_and_sub_round_trip() {
        let a = Timestamp(100);
        let b = a + Duration::from_micros(50);
        assert_eq!(b, Timestamp(150));
        assert_eq!(b - a, Duration::from_micros(50));
    }

    #[test]
    fn tick_strictly_increases() {
        let a = Timestamp(7);
        assert!(a.tick() > a);
        assert_eq!(a.tick(), Timestamp(8));
    }

    #[test]
    fn zero_is_identity_for_max() {
        let a = Timestamp(42);
        assert_eq!(a.max(Timestamp::ZERO), a);
        assert_eq!(Timestamp::ZERO.max(a), a);
    }

    proptest! {
        #[test]
        fn prop_max_is_commutative_and_idempotent(a in any::<u64>(), b in any::<u64>()) {
            let (a, b) = (Timestamp(a), Timestamp(b));
            prop_assert_eq!(a.max(b), b.max(a));
            prop_assert_eq!(a.max(a), a);
            prop_assert!(a.max(b) >= a && a.max(b) >= b);
        }

        #[test]
        fn prop_saturating_ops_never_panic(a in any::<u64>(), d in any::<u64>()) {
            let t = Timestamp(a);
            let dur = Duration::from_micros(d);
            let _ = t.saturating_add(dur);
            let _ = t.saturating_sub(dur);
        }

        #[test]
        fn prop_ordering_matches_raw(a in any::<u64>(), b in any::<u64>()) {
            prop_assert_eq!(Timestamp(a) < Timestamp(b), a < b);
        }
    }
}
