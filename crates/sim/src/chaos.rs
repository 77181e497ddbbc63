//! Declarative chaos schedules: scripted network and replica disturbances that a
//! simulation executes at fixed points in simulated time.
//!
//! A [`ChaosSchedule`] is a list of timed [`ChaosStep`]s — partitions and heals,
//! per-DC-pair lag spikes, drop/duplication windows for idempotent periodic traffic, and
//! rolling replica restarts. Schedules can be written by hand (scenario scripts) or
//! sampled reproducibly from a seed with [`ChaosGen`]; either way the same schedule under
//! the same seed yields a byte-identical run, so chaos scenarios stay regression-testable
//! with the exact causal checker and convergence assertions enabled.

use pocc_types::ReplicaId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;

/// One timed disturbance in a chaos schedule. All times are relative to simulation start.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ChaosStep {
    /// Partition the links between two data centers (traffic is held, not dropped).
    Partition {
        /// When the partition starts.
        at: Duration,
        /// One side of the partition.
        a: ReplicaId,
        /// The other side.
        b: ReplicaId,
    },
    /// Heal a previously injected partition, releasing held traffic in order.
    Heal {
        /// When the partition heals.
        at: Duration,
        /// One side of the partition.
        a: ReplicaId,
        /// The other side.
        b: ReplicaId,
    },
    /// Add `extra` one-way delay to all traffic between two data centers for a window.
    LagSpike {
        /// When the spike begins.
        at: Duration,
        /// When the spike ends.
        until: Duration,
        /// One side of the laggy pair.
        a: ReplicaId,
        /// The other side.
        b: ReplicaId,
        /// Extra one-way delay applied inside the window.
        extra: Duration,
    },
    /// Drop idempotent periodic messages (heartbeats, stabilization/GC vectors) between
    /// two data centers for a window. Replication traffic is never dropped.
    DropWindow {
        /// When the window begins.
        at: Duration,
        /// When the window ends.
        until: Duration,
        /// One side of the lossy pair.
        a: ReplicaId,
        /// The other side.
        b: ReplicaId,
    },
    /// Deliver idempotent periodic messages twice between two data centers for a window.
    DupWindow {
        /// When the window begins.
        at: Duration,
        /// When the window ends.
        until: Duration,
        /// One side of the duplicating pair.
        a: ReplicaId,
        /// The other side.
        b: ReplicaId,
    },
    /// Restart every server of one data center: processing freezes for `outage` while
    /// durable state is retained, then the backlog drains.
    Restart {
        /// When the restart begins.
        at: Duration,
        /// The data center being restarted.
        replica: ReplicaId,
        /// How long the servers stay frozen.
        outage: Duration,
    },
}

impl ChaosStep {
    /// When the step takes effect.
    pub fn at(&self) -> Duration {
        match self {
            ChaosStep::Partition { at, .. }
            | ChaosStep::Heal { at, .. }
            | ChaosStep::LagSpike { at, .. }
            | ChaosStep::DropWindow { at, .. }
            | ChaosStep::DupWindow { at, .. }
            | ChaosStep::Restart { at, .. } => *at,
        }
    }

    /// When the step's disturbance is over (equal to [`ChaosStep::at`] for instantaneous
    /// steps; partitions end at their matching [`ChaosStep::Heal`]).
    pub fn end(&self) -> Duration {
        match self {
            ChaosStep::Partition { at, .. } | ChaosStep::Heal { at, .. } => *at,
            ChaosStep::LagSpike { until, .. }
            | ChaosStep::DropWindow { until, .. }
            | ChaosStep::DupWindow { until, .. } => *until,
            ChaosStep::Restart { at, outage, .. } => *at + *outage,
        }
    }
}

/// An ordered list of timed chaos steps. Construct with [`ChaosSchedule::step`] chaining
/// or sample one with [`ChaosGen`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ChaosSchedule {
    /// The scheduled steps.
    pub steps: Vec<ChaosStep>,
}

impl ChaosSchedule {
    /// An empty schedule (the default: no chaos).
    pub fn new() -> Self {
        ChaosSchedule::default()
    }

    /// Whether the schedule has no steps.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// Adds a step (builder style).
    pub fn step(mut self, step: ChaosStep) -> Self {
        self.steps.push(step);
        self
    }

    /// Whether every disturbance is over by `deadline`: each window and outage ends, and
    /// each partition has a heal, at or before it. Chaos scenarios assert this against
    /// the start of the drain period so convergence checks stay meaningful.
    pub fn ends_by(&self, deadline: Duration) -> bool {
        let mut open_partitions: Vec<(ReplicaId, ReplicaId)> = Vec::new();
        let mut ordered: Vec<&ChaosStep> = self.steps.iter().collect();
        ordered.sort_by_key(|s| s.at());
        for step in ordered {
            match step {
                ChaosStep::Partition { a, b, .. } => open_partitions.push((*a, *b)),
                ChaosStep::Heal { at, a, b } => {
                    if *at > deadline {
                        return false;
                    }
                    open_partitions.retain(|(x, y)| !((x, y) == (a, b) || (x, y) == (b, a)));
                }
                other => {
                    if other.end() > deadline {
                        return false;
                    }
                }
            }
        }
        open_partitions.is_empty()
    }
}

/// A seeded generator of random-but-reproducible chaos schedules: the same seed always
/// yields the same schedule, every partition is paired with a heal, and every disturbance
/// ends inside the requested window.
#[derive(Debug)]
pub struct ChaosGen {
    rng: StdRng,
    replicas: u16,
}

impl ChaosGen {
    /// Creates a generator for a deployment of `replicas` data centers.
    pub fn new(seed: u64, replicas: usize) -> Self {
        assert!(replicas >= 2, "chaos needs at least two data centers");
        ChaosGen {
            rng: StdRng::seed_from_u64(seed ^ 0xCAFE_F00D),
            replicas: replicas as u16,
        }
    }

    /// Samples a schedule of `events` disturbances, all starting at or after
    /// `window_start` and fully over by `window_end` (so a drain period after
    /// `window_end` is disturbance-free). Returns an empty schedule when the window is
    /// too short to fit a disturbance.
    pub fn sample(
        &mut self,
        window_start: Duration,
        window_end: Duration,
        events: usize,
    ) -> ChaosSchedule {
        let span_ms = window_end.saturating_sub(window_start).as_millis() as u64;
        let mut schedule = ChaosSchedule::new();
        if span_ms < 20 {
            return schedule;
        }
        for _ in 0..events {
            let start_ms = self.rng.gen_range(0..span_ms - 10);
            let max_len = (span_ms - start_ms).min(120);
            let len_ms = self.rng.gen_range(5..=max_len.max(5));
            let at = window_start + Duration::from_millis(start_ms);
            let until = window_start + Duration::from_millis(start_ms + len_ms);
            let (a, b) = self.pair();
            let step = match self.rng.gen_range(0..5u32) {
                0 => {
                    schedule.steps.push(ChaosStep::Partition { at, a, b });
                    ChaosStep::Heal { at: until, a, b }
                }
                1 => ChaosStep::LagSpike {
                    at,
                    until,
                    a,
                    b,
                    extra: Duration::from_millis(self.rng.gen_range(5..=40)),
                },
                2 => ChaosStep::DropWindow { at, until, a, b },
                3 => ChaosStep::DupWindow { at, until, a, b },
                _ => ChaosStep::Restart {
                    at,
                    replica: ReplicaId(self.rng.gen_range(0..self.replicas)),
                    outage: Duration::from_millis(len_ms.min(60)),
                },
            };
            schedule.steps.push(step);
        }
        schedule.steps.sort_by_key(|s| (s.at(), s.end()));
        schedule
    }

    fn pair(&mut self) -> (ReplicaId, ReplicaId) {
        let a = self.rng.gen_range(0..self.replicas);
        let mut b = self.rng.gen_range(0..self.replicas - 1);
        if b >= a {
            b += 1;
        }
        (ReplicaId(a), ReplicaId(b))
    }
}

/// A chaos disturbance applied at runtime (the lowered form of window-style
/// [`ChaosStep`]s; partitions and heals reuse the simulator's existing fault events).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum ChaosAction {
    /// Start a lag spike between two data centers.
    BeginLag {
        /// One side of the laggy pair.
        a: ReplicaId,
        /// The other side.
        b: ReplicaId,
        /// Extra one-way delay.
        extra: Duration,
    },
    /// End a lag spike.
    EndLag {
        /// One side of the laggy pair.
        a: ReplicaId,
        /// The other side.
        b: ReplicaId,
    },
    /// Start dropping idempotent periodic messages between two data centers.
    BeginDrop {
        /// One side of the lossy pair.
        a: ReplicaId,
        /// The other side.
        b: ReplicaId,
    },
    /// End a drop window.
    EndDrop {
        /// One side of the lossy pair.
        a: ReplicaId,
        /// The other side.
        b: ReplicaId,
    },
    /// Start duplicating idempotent periodic messages between two data centers.
    BeginDup {
        /// One side of the duplicating pair.
        a: ReplicaId,
        /// The other side.
        b: ReplicaId,
    },
    /// End a duplication window.
    EndDup {
        /// One side of the duplicating pair.
        a: ReplicaId,
        /// The other side.
        b: ReplicaId,
    },
    /// Freeze every server of one data center for `outage` (durable state retained).
    Restart {
        /// The data center being restarted.
        replica: ReplicaId,
        /// How long the servers stay frozen.
        outage: Duration,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: fn(u64) -> Duration = Duration::from_millis;

    #[test]
    fn generator_is_deterministic_per_seed() {
        let a = ChaosGen::new(7, 3).sample(MS(100), MS(600), 6);
        let b = ChaosGen::new(7, 3).sample(MS(100), MS(600), 6);
        assert_eq!(a, b);
        assert!(a.steps.len() >= 6, "one step per event, plus heals");
        let c = ChaosGen::new(8, 3).sample(MS(100), MS(600), 6);
        assert_ne!(a, c, "different seeds sample different schedules");
    }

    #[test]
    fn generated_schedules_fit_the_window_and_heal_every_partition() {
        for seed in 0..50u64 {
            let schedule = ChaosGen::new(seed, 3).sample(MS(50), MS(400), 8);
            assert!(
                schedule.ends_by(MS(400)),
                "seed {seed}: schedule leaks past the window: {schedule:?}"
            );
            for step in &schedule.steps {
                assert!(step.at() >= MS(50), "seed {seed}: early step {step:?}");
            }
        }
    }

    #[test]
    fn a_too_short_window_yields_no_chaos() {
        assert!(ChaosGen::new(1, 3).sample(MS(0), MS(10), 5).is_empty());
    }

    #[test]
    fn ends_by_flags_unhealed_partitions_and_open_windows() {
        let unhealed = ChaosSchedule::new().step(ChaosStep::Partition {
            at: MS(10),
            a: ReplicaId(0),
            b: ReplicaId(1),
        });
        assert!(!unhealed.ends_by(MS(100)));

        let healed = unhealed.step(ChaosStep::Heal {
            at: MS(60),
            a: ReplicaId(1), // heal sides may come in either order
            b: ReplicaId(0),
        });
        assert!(healed.ends_by(MS(100)));
        assert!(!healed.ends_by(MS(50)), "heal lands after the deadline");

        let open_window = ChaosSchedule::new().step(ChaosStep::DropWindow {
            at: MS(10),
            until: MS(200),
            a: ReplicaId(0),
            b: ReplicaId(1),
        });
        assert!(!open_window.ends_by(MS(100)));
        assert!(open_window.ends_by(MS(200)));
    }

    #[test]
    fn step_times_cover_every_variant() {
        let restart = ChaosStep::Restart {
            at: MS(30),
            replica: ReplicaId(2),
            outage: MS(25),
        };
        assert_eq!(restart.at(), MS(30));
        assert_eq!(restart.end(), MS(55));
        let lag = ChaosStep::LagSpike {
            at: MS(5),
            until: MS(45),
            a: ReplicaId(0),
            b: ReplicaId(2),
            extra: MS(20),
        };
        assert_eq!(lag.at(), MS(5));
        assert_eq!(lag.end(), MS(45));
    }
}
