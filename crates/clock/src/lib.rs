//! Physical clock abstractions for the POCC reproduction.
//!
//! POCC (§IV) equips every server with a physical clock that provides *monotonically
//! increasing* timestamps, loosely synchronised across servers by a protocol such as NTP.
//! The correctness of the protocol does not depend on the synchronisation precision; only
//! performance (blocking rates, PUT waiting) does.
//!
//! This crate provides:
//!
//! * the [`Clock`] trait — the only interface the protocol crates see,
//! * [`SystemClock`] — the real wall clock, used by the threaded runtime,
//! * [`ManualClock`] — an explicitly driven clock for unit tests and the discrete-event
//!   simulator,
//! * [`SkewedClock`] — a decorator adding a constant offset to any clock, modelling
//!   imperfect NTP synchronisation,
//! * [`MonotonicClock`] — a decorator enforcing strictly increasing timestamps, exactly
//!   like the `Clock^m_n` used in Algorithm 2 (two PUTs at the same server never get the
//!   same update time),
//! * [`ClockFactory`] — builds a fleet of per-server clocks with bounded random offsets
//!   from a seed, as the simulator does.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod factory;
mod manual;
mod monotonic;
mod skewed;
mod system;

pub use factory::ClockFactory;
pub use manual::ManualClock;
pub use monotonic::MonotonicClock;
pub use skewed::SkewedClock;
pub use system::SystemClock;

use pocc_types::Timestamp;

/// A source of physical timestamps.
///
/// Implementations must be cheap to call and safe to share across threads; the protocol
/// crates call [`Clock::now`] on every operation.
pub trait Clock: Send + Sync {
    /// The current time according to this clock.
    fn now(&self) -> Timestamp;
}

impl<C: Clock + ?Sized> Clock for std::sync::Arc<C> {
    fn now(&self) -> Timestamp {
        (**self).now()
    }
}

impl<C: Clock + ?Sized> Clock for &C {
    fn now(&self) -> Timestamp {
        (**self).now()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn clock_trait_is_object_safe_and_blanket_impls_work() {
        let manual = ManualClock::new(Timestamp(5));
        let arc: Arc<dyn Clock> = Arc::new(manual);
        assert_eq!(arc.now(), Timestamp(5));
        let by_ref: &dyn Clock = &*arc;
        assert_eq!(by_ref.now(), Timestamp(5));
    }
}
