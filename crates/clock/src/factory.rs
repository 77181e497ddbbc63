//! Construction of per-server clock fleets with bounded random skew.

#[cfg(test)]
use crate::Clock;
use crate::{ManualClock, MonotonicClock, SkewedClock};
use pocc_types::Timestamp;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;

/// Builds the clocks of a simulated deployment: one [`ManualClock`] driven by the
/// simulator, viewed by each server through a skewed, monotonic lens.
///
/// Each server's offset is drawn uniformly from `[-max_offset, +max_offset]`; a zero
/// maximum draws nothing and leaves every clock on the base. The factory is
/// deterministic: the same seed and maximum always produce the same per-server offsets,
/// which keeps simulation runs reproducible.
pub struct ClockFactory {
    /// The shared base clock, set by the simulator to the current simulation time.
    base: ManualClock,
    rng: StdRng,
    /// The largest absolute offset, in microseconds.
    max_offset_micros: i64,
}

/// The clock handed to one simulated server: skewed view of the shared base clock,
/// made strictly monotonic.
pub type ServerClock = MonotonicClock<SkewedClock<ManualClock>>;

impl ClockFactory {
    /// Creates a factory whose clocks are skewed by at most `max_offset` either way,
    /// drawn from an RNG seeded with `seed`.
    pub fn new(max_offset: Duration, seed: u64) -> Self {
        ClockFactory {
            base: ManualClock::at_zero(),
            rng: StdRng::seed_from_u64(seed),
            max_offset_micros: max_offset.as_micros() as i64,
        }
    }

    /// The shared base clock. The simulator calls [`ManualClock::set`] on it to advance
    /// simulated time; every server clock built by this factory follows it.
    pub fn base(&self) -> ManualClock {
        self.base.clone()
    }

    /// Builds the next server's clock; offsets are drawn from the factory RNG in call
    /// order.
    pub fn clock_for(&mut self) -> ServerClock {
        let m = self.max_offset_micros;
        let offset = if m == 0 {
            0
        } else {
            self.rng.gen_range(-m..=m)
        };
        MonotonicClock::new(SkewedClock::new(self.base.clone(), offset))
    }

    /// Sets the shared simulation time.
    pub fn set_time(&self, now: Timestamp) {
        self.base.set(now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_skew_means_all_clocks_agree() {
        let mut f = ClockFactory::new(Duration::ZERO, 1);
        let a = f.clock_for();
        let b = f.clock_for();
        f.set_time(Timestamp(1_000));
        assert_eq!(a.now(), Timestamp(1_000));
        assert_eq!(b.now(), Timestamp(1_000));
    }

    #[test]
    fn uniform_offset_stays_within_bounds() {
        let max = Duration::from_micros(500);
        let mut f = ClockFactory::new(max, 7);
        let clocks: Vec<_> = (0..32).map(|_| f.clock_for()).collect();
        f.set_time(Timestamp::from_secs(1));
        for c in &clocks {
            let t = c.now().as_micros() as i64;
            assert!((t - 1_000_000).abs() <= 500, "offset out of bounds: {t}");
        }
    }

    #[test]
    fn same_seed_gives_same_skew() {
        let max = Duration::from_micros(300);
        let mut f1 = ClockFactory::new(max, 42);
        let mut f2 = ClockFactory::new(max, 42);
        let a1 = f1.clock_for();
        let a2 = f2.clock_for();
        f1.set_time(Timestamp::from_secs(3));
        f2.set_time(Timestamp::from_secs(3));
        assert_eq!(a1.now(), a2.now());
    }

    #[test]
    fn different_seeds_generally_differ() {
        let max = Duration::from_millis(10);
        let mut f1 = ClockFactory::new(max, 1);
        let mut f2 = ClockFactory::new(max, 2);
        let a1 = f1.clock_for();
        let a2 = f2.clock_for();
        f1.set_time(Timestamp::from_secs(1));
        f2.set_time(Timestamp::from_secs(1));
        // With 10 ms of range a collision is vanishingly unlikely.
        assert_ne!(a1.now(), a2.now());
    }

    #[test]
    fn server_clocks_are_monotonic_even_with_negative_skew() {
        let mut f = ClockFactory::new(Duration::from_millis(1), 9);
        let c = f.clock_for();
        f.set_time(Timestamp::from_millis(10));
        let a = c.now();
        // Simulated time moves backwards (should not happen, but the clock must cope).
        f.set_time(Timestamp::from_millis(5));
        let b = c.now();
        assert!(b > a);
    }

    #[test]
    fn zero_bounds_are_accepted() {
        // A zero maximum draws nothing from the RNG, so the seed cannot matter.
        let mut f1 = ClockFactory::new(Duration::ZERO, 3);
        let mut f2 = ClockFactory::new(Duration::ZERO, 4);
        let (a, b) = (f1.clock_for(), f2.clock_for());
        f1.set_time(Timestamp(123));
        f2.set_time(Timestamp(123));
        assert_eq!(a.now(), Timestamp(123));
        assert_eq!(b.now(), Timestamp(123));
    }
}
