//! Threaded shard-parallel execution of the protocol engine.
//!
//! The deterministic simulator (`pocc-sim`) runs every server as a single-threaded state
//! machine, which makes behaviour reproducible but turns every throughput number into a
//! microbench claim. This crate makes the cores actually work: a [`ParallelServer`] runs
//! one protocol engine behind a set of *worker lanes* — real OS threads with bounded
//! mailboxes — so PUT and GET processing of disjoint key ranges proceeds concurrently
//! while the engine's protocol logic (replication, heartbeats, stabilization, parked
//! operations, transactions) stays exactly the code the simulator exercises.
//!
//! # Execution model
//!
//! * **Lanes.** Client operations are key-hash-routed to `Config::worker_lanes` worker
//!   threads (`lane = shard(key) % lanes`), each with a bounded mailbox (actor shape;
//!   a full mailbox applies backpressure to the submitting thread). Lanes own disjoint
//!   sets of storage shards, so their version-chain inserts never contend. A lane
//!   publishes its batch's writes and flushes its [`Sink`] before it blocks again.
//! * **One lane runs in place.** At `worker_lanes = 1` there is no lane thread: every
//!   operation and message runs the engine on the calling thread under the spine, with
//!   nothing to pipeline, drain or publish. This lane-count test is the only place
//!   that chooses between the two execution shapes.
//! * **Spine.** Everything protocol-visible that is *not* per-key — the version vector,
//!   GSS bookkeeping, parked operations, transaction coordination, metrics — lives in
//!   the unmodified [`pocc_engine::ProtocolEngine`] behind a single mutex, the *spine*.
//!   Server-to-server messages and ticks are handled there.
//! * **Write pipelining.** A lane serving an eligible PUT only takes the spine lock long
//!   enough to *reserve* a timestamp (the same clock/dependency floor rule as the serial
//!   `serve_put`); the chain insert then happens outside the lock. Reservations are
//!   published back into the engine — version-vector advance plus replication fan-out —
//!   strictly in timestamp order, and any engine call first drains the pipeline, so the
//!   engine never observes a version vector ahead of the store (a heartbeat promising a
//!   timestamp while a smaller-timestamped write is still in flight would break the
//!   sibling replicas' coverage reasoning).
//! * **Remote-apply pipelining.** Replicated versions from sibling replicas — (R−1)×
//!   the local write volume in an R-replica deployment — are queued on a per-origin
//!   FIFO and routed to their key's lane, which installs them into the sharded store
//!   without the spine lock. The spine absorbs the installed prefix of each origin
//!   queue on its next sweep (version-vector advance, replication accounting, policy
//!   `on_replicate` hook), in per-origin timestamp order, so its coverage promises
//!   never run ahead of the store. A drain that finds unstarted remote slots installs
//!   them itself (claim-based helping) rather than waiting on a lane that may itself be
//!   blocked on the spine.
//! * **Epoch snapshots for readers.** The spine publishes the engine's version vector
//!   as one atomic timestamp per replica ([`PublishedVector`]) after every sweep. A
//!   batch consisting purely of GETs whose dependencies are covered by the publication
//!   — and, under POCC, entirely-local read-only transactions whose snapshot it covers
//!   — is served straight from the sharded store without taking any lock at all:
//!   readers never touch the write path, not even a read-lock.
//!
//! What stays deterministic under threads: per-key final state (convergence digests),
//! causal consistency (the checker passes), and order-insensitive metric totals.
//! What does not: operation interleavings, timestamps and latency distributions. The
//! differential suite in `tests/parallel_equivalence.rs` pins the former against the
//! simulator for all four protocols.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod server;
mod snapshot;

pub use server::{OutputSink, ParallelServer, ServerClosed, Sink};
pub use snapshot::PublishedVector;

use pocc_clock::Clock;
use pocc_engine::VisibilityPolicy;
use pocc_proto::InstrumentedServer;
use pocc_types::{Config, ServerId, Timestamp};

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

    /// Whether client sessions must carry their full history in GET request vectors
    /// because the protocol serves reads from a snapshot (see
    /// `Client::new_snapshot_reads`).
    pub fn snapshot_reads(self) -> bool {
        matches!(self, ProtocolKind::Cure | ProtocolKind::Adaptive)
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

    /// Which operations the lanes may serve without going through the full policy
    /// dispatch on the spine.
    pub fn fast_path(self) -> FastPathProfile {
        match self {
            // POCC reads are freshest-version chain-head reads: a lane can serve them
            // from the shared store once the client's remote dependencies are covered.
            ProtocolKind::Pocc => FastPathProfile {
                puts: true,
                puts_check_deps: true,
                gets: true,
            },
            // Cure* PUTs are unconditional, but its GETs do GSS staleness accounting on
            // the engine, so reads go through the spine.
            ProtocolKind::Cure => FastPathProfile {
                puts: true,
                puts_check_deps: false,
                gets: false,
            },
            // HA-POCC records *every* client request in its session bookkeeping (the
            // optimistic-client set consulted on fallback aborts), so no operation may
            // bypass the policy.
            ProtocolKind::HaPocc => FastPathProfile {
                puts: false,
                puts_check_deps: true,
                gets: false,
            },
            // Adaptive PUTs are POCC PUTs (local writes do not touch the churn
            // classifier), but GETs consult per-key policy state.
            ProtocolKind::Adaptive => FastPathProfile {
                puts: true,
                puts_check_deps: true,
                gets: false,
            },
        }
    }
}

/// Which operation kinds a protocol allows the worker lanes to serve directly, bypassing
/// the policy dispatch on the spine. Derived from each policy's semantics — see
/// [`ProtocolKind::fast_path`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FastPathProfile {
    /// Whether lanes may pipeline eligible PUTs (reserve a timestamp, insert off-lock).
    pub puts: bool,
    /// Whether PUT eligibility requires the client's remote dependencies to be covered
    /// (POCC's configurable wait); `false` means PUTs are unconditionally eligible.
    pub puts_check_deps: bool,
    /// Whether lanes may serve dependency-covered GETs — and, when the published
    /// snapshot covers them, entirely-local read-only transactions — from the store
    /// directly.
    pub gets: bool,
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
