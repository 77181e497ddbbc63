//! Threaded execution of the protocol engine.
//!
//! The deterministic simulator (`pocc-sim`) runs every server as a single-threaded state
//! machine, which makes behaviour reproducible but turns every throughput number into a
//! microbench claim. This crate runs the same engine on real threads: a
//! [`ParallelServer`] keeps one protocol engine behind a mutex and feeds it from a set of
//! *worker lanes* — OS threads with bounded mailboxes — while the engine's protocol logic
//! (replication, heartbeats, stabilization, parked operations, transactions) stays
//! exactly the code the simulator exercises.
//!
//! # Execution model
//!
//! * **Lanes.** Client operations are key-hash-routed to `Config::worker_lanes` worker
//!   threads (`lane = shard(key) % lanes`, so operations on one key keep their order),
//!   each with a bounded mailbox (actor shape; a full mailbox applies backpressure to the
//!   submitting thread). A lane takes up to 64 queued operations, runs them through the
//!   engine under one spine acquisition, and flushes its [`Sink`] before it blocks again.
//! * **Spine.** The unmodified [`pocc_engine::ProtocolEngine`] lives behind a single
//!   mutex, the *spine*. Lane batches, server-to-server messages, ticks and probes all
//!   run the engine under it, and every output is emitted before the lock is released,
//!   so messages leave on each FIFO link in engine order: a heartbeat never promises a
//!   timestamp while a smaller-timestamped write to the same sibling is still unsent.
//! * **GC in steps.** A tick that begins a garbage-collection pass runs it in steps of
//!   256 listed chains, releasing the spine and yielding the processor between steps,
//!   so no lane waits for a whole pass; the pass is over when the tick returns.
//! * **One lane runs in place.** At `worker_lanes = 1` there is no lane thread: every
//!   operation and message runs the engine on the calling thread under the spine. This
//!   lane-count test is the only place that chooses between the two execution shapes.
//!
//! What stays deterministic under threads: per-key final state (convergence digests),
//! causal consistency (the checker passes), and order-insensitive metric totals.
//! What does not: operation interleavings, timestamps and latency distributions. The
//! differential suite in `tests/parallel_equivalence.rs` pins the former against the
//! simulator for all four protocols.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod server;

pub use server::{OutputSink, ParallelServer, ServerClosed, Sink, GC_STEP};

use pocc_clock::Clock;
use pocc_engine::VisibilityPolicy;
use pocc_proto::InstrumentedServer;
use pocc_protocol::Client;
use pocc_types::{ClientId, Config, ServerId, Timestamp};

/// Which of the four protocol variants a server runs. The four are one engine with four
/// visibility policies, so this enum lives in the lowest crate that links all of them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProtocolKind {
    /// The optimistic protocol (the paper's contribution): freshest-version reads.
    Pocc,
    /// The pessimistic baseline (Cure\*): GSS-stable reads.
    Cure,
    /// POCC with the availability fall-back of §III-B.
    HaPocc,
    /// Per-key optimism: POCC reads for calm keys, GSS-stable-bounded reads for keys
    /// under remote churn.
    Adaptive,
}

/// The name `benchmark/` (frozen by `BENCHMARK.json`) imports [`ProtocolKind`] under.
pub use ProtocolKind as ExecProtocol;

impl std::fmt::Display for ProtocolKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ProtocolKind::Pocc => "POCC",
            ProtocolKind::Cure => "Cure*",
            ProtocolKind::HaPocc => "HA-POCC",
            ProtocolKind::Adaptive => "Adaptive",
        })
    }
}

/// Parses a protocol name, case-insensitively: the [`Display`](std::fmt::Display) name or
/// one of the command-line aliases `pocc`, `cure`, `hapocc` / `ha-pocc` / `ha_pocc` / `ha`
/// and `adaptive`.
impl std::str::FromStr for ProtocolKind {
    type Err = String;

    fn from_str(name: &str) -> Result<Self, Self::Err> {
        match name.to_ascii_lowercase().as_str() {
            "pocc" => Ok(ProtocolKind::Pocc),
            "cure*" | "cure" => Ok(ProtocolKind::Cure),
            "ha-pocc" | "hapocc" | "ha_pocc" | "ha" => Ok(ProtocolKind::HaPocc),
            "adaptive" => Ok(ProtocolKind::Adaptive),
            _ => Err(format!(
                "unknown protocol {name:?} (expected pocc, cure, hapocc or adaptive)"
            )),
        }
    }
}

impl ProtocolKind {
    /// Every protocol, in presentation order.
    pub const ALL: [ProtocolKind; 4] = [
        ProtocolKind::Pocc,
        ProtocolKind::Cure,
        ProtocolKind::HaPocc,
        ProtocolKind::Adaptive,
    ];

    /// Opens client session `id` homed at `home` in a deployment of `replicas` data
    /// centers. Protocols that serve reads from a snapshot need the session's full
    /// history in GET request vectors (see [`Client::new_snapshot_reads`]).
    pub fn session(self, id: ClientId, home: ServerId, replicas: usize) -> Client {
        match self {
            ProtocolKind::Cure | ProtocolKind::Adaptive => {
                Client::new_snapshot_reads(id, home, replicas)
            }
            ProtocolKind::Pocc | ProtocolKind::HaPocc => Client::new(id, home, replicas),
        }
    }

    /// Builds the serial (single-threaded, sans-IO) server for `id`, with the protocol's
    /// concrete policy type — the one place the four server types are named. The
    /// simulator and the hand-pumped reference cluster run these; the threaded runtime
    /// runs a [`ParallelServer`] instead.
    pub fn server<C: Clock + 'static>(
        self,
        id: ServerId,
        config: Config,
        clock: C,
    ) -> Box<dyn InstrumentedServer> {
        match self {
            ProtocolKind::Pocc => Box::new(pocc_protocol::PoccServer::new(id, config, clock)),
            ProtocolKind::Cure => Box::new(pocc_cure::CureServer::new(id, config, clock)),
            ProtocolKind::HaPocc => Box::new(pocc_ha::HaPoccServer::new(id, config, clock)),
            ProtocolKind::Adaptive => {
                Box::new(pocc_adaptive::AdaptiveServer::new(id, config, clock))
            }
        }
    }

    /// Builds the protocol's visibility policy, boxed so one engine type serves all four
    /// variants behind a [`ParallelServer`].
    pub fn policy<C: Clock>(self, config: &Config, now: Timestamp) -> Box<dyn VisibilityPolicy<C>> {
        match self {
            ProtocolKind::Pocc => Box::new(pocc_protocol::PoccPolicy),
            ProtocolKind::Cure => Box::new(pocc_cure::CurePolicy),
            ProtocolKind::HaPocc => Box::new(pocc_ha::HaPolicy::new(config, now)),
            ProtocolKind::Adaptive => Box::new(pocc_adaptive::AdaptivePolicy::default()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pocc_clock::ManualClock;
    use pocc_proto::{ClientRequest, MetricsSnapshot, ServerIntrospect, ServerOutput};
    use pocc_types::{ClientId, DependencyVector, Key, ReplicaId, Value};
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn protocol_kind_display() {
        let names: Vec<String> = ProtocolKind::ALL.iter().map(|p| p.to_string()).collect();
        assert_eq!(names, ["POCC", "Cure*", "HA-POCC", "Adaptive"]);
    }

    #[test]
    fn protocol_kind_parses_its_display_name_and_every_alias() {
        for protocol in ProtocolKind::ALL {
            assert_eq!(protocol.to_string().parse(), Ok(protocol));
        }
        let aliases = [
            ("pocc", ProtocolKind::Pocc),
            ("cure", ProtocolKind::Cure),
            ("CURE*", ProtocolKind::Cure),
            ("hapocc", ProtocolKind::HaPocc),
            ("ha-pocc", ProtocolKind::HaPocc),
            ("ha_pocc", ProtocolKind::HaPocc),
            ("ha", ProtocolKind::HaPocc),
            ("HaPocc", ProtocolKind::HaPocc),
            ("adaptive", ProtocolKind::Adaptive),
        ];
        for (name, protocol) in aliases {
            assert_eq!(name.parse(), Ok(protocol), "{name}");
        }
        assert!("nope".parse::<ProtocolKind>().is_err());
        assert!("all".parse::<ProtocolKind>().is_err());
    }

    /// `server` (concrete policy, serial) and `policy` (boxed, behind a one-lane
    /// [`ParallelServer`]) must build the same protocol: the same 24 writes and one tick
    /// leave the same store and the same counters.
    #[test]
    fn server_and_policy_agree_for_every_protocol() {
        let id = ServerId::new(ReplicaId(0), 0u32);
        let config = Config::builder()
            .num_replicas(2)
            .num_partitions(1)
            .build()
            .expect("valid config");
        let put = |i: u64| ClientRequest::Put {
            key: Key(i % 8),
            value: Value::from(i),
            dv: DependencyVector::zero(2),
        };
        for protocol in ProtocolKind::ALL {
            let clock = ManualClock::new(Timestamp::from(Duration::from_millis(10)));
            let mut serial = protocol.server(id, config.clone(), clock.clone());
            for i in 0..24u64 {
                clock.advance(Duration::from_micros(100));
                serial.handle_client_request(ClientId(i), put(i));
            }
            clock.advance(Duration::from_millis(2));
            serial.tick();

            let clock = ManualClock::new(Timestamp::from(Duration::from_millis(10)));
            let (tx, rx) = crossbeam::channel::unbounded();
            let sink: OutputSink = Arc::new(move |out| {
                let _ = tx.send(out);
            });
            let parallel = ParallelServer::start(id, config.clone(), protocol, clock.clone(), sink);
            for i in 0..24u64 {
                clock.advance(Duration::from_micros(100));
                parallel.submit_client(ClientId(i), put(i)).unwrap();
                // One write at a time, so each reads the same clock the serial run did.
                while !matches!(rx.recv().unwrap(), ServerOutput::Reply { .. }) {}
            }
            clock.advance(Duration::from_millis(2));
            parallel.tick();

            assert_eq!(serial.digest(), parallel.digest(), "{protocol}");
            // The contention block only exists on the threaded side.
            let metrics = MetricsSnapshot {
                lane_fast_path_hits: 0,
                lane_fast_path_misses: 0,
                spine_acquisitions: 0,
                drain_spins: 0,
                ..parallel.metrics()
            };
            assert_eq!(serial.metrics(), metrics, "{protocol}");
            assert_eq!(metrics.puts_served, 24, "{protocol}");
            assert_eq!(metrics.replicate_sent, 24, "{protocol}");
        }
    }
}
