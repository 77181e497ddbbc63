//! A clock decorator that adds a constant offset.

use crate::Clock;
use pocc_types::Timestamp;

/// Wraps another clock and shifts its readings by a constant offset.
///
/// This models a server whose NTP-disciplined clock is a little ahead of or behind true
/// time. POCC tolerates arbitrary skew without violating safety; skew only shows up as
/// extra waiting in the PUT handler (Algorithm 2 line 7) and as spurious GET blocking,
/// which the benchmark scenario `ablation_clock_skew` quantifies.
#[derive(Clone, Debug)]
pub struct SkewedClock<C> {
    inner: C,
    /// Offset added to every reading. Positive means the clock runs ahead of `inner`.
    offset_micros: i64,
}

impl<C: Clock> SkewedClock<C> {
    /// Creates a view of `inner` shifted by `offset_micros` (negative runs behind).
    pub fn new(inner: C, offset_micros: i64) -> Self {
        SkewedClock {
            inner,
            offset_micros,
        }
    }
}

impl<C: Clock> Clock for SkewedClock<C> {
    fn now(&self) -> Timestamp {
        let skewed = self.inner.now().as_micros() as i64 + self.offset_micros;
        Timestamp::from_micros(skewed.max(0) as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ManualClock;

    #[test]
    fn positive_offset_runs_ahead() {
        let base = ManualClock::new(Timestamp(1_000));
        let skewed = SkewedClock::new(base, 200);
        assert_eq!(skewed.now(), Timestamp(1_200));
    }

    #[test]
    fn negative_offset_runs_behind_and_saturates_at_zero() {
        let base = ManualClock::new(Timestamp(100));
        let skewed = SkewedClock::new(base.clone(), -300);
        assert_eq!(skewed.now(), Timestamp::ZERO);
        base.set(Timestamp(1_000));
        assert_eq!(skewed.now(), Timestamp(700));
    }
}
