//! Adaptive-POCC — per-key optimism over the shared protocol engine.
//!
//! The paper frames POCC and Cure\* as two ends of a visibility spectrum: POCC always
//! returns the freshest version and accepts (rare) blocking when a client's dependencies
//! have not replicated yet; Cure\* never blocks but hides every remote version until the
//! stabilization protocol proves it stable everywhere. This crate occupies the middle
//! ground **per key**:
//!
//! * Keys with little or no *observed remote churn* — the vast majority under a skewed
//!   workload, including read-hot keys that are rarely written remotely — are served
//!   exactly like POCC: freshest version, optimistic, maximum freshness.
//! * Keys whose remote-update rate reaches [`CHURN_THRESHOLD`] within one
//!   [`CHURN_WINDOW`] are the ones whose optimistic reads would hand out
//!   unstable dependencies (and cause downstream blocking); their reads fall back to the
//!   snapshot `GSS ∨ RDV ∨ local`: the freshest version that is globally stable, part of
//!   the client's own causal history, or locally originated.
//!
//! The fall-back still honours the client's session (reads wait for the client's remote
//! dependencies exactly as POCC's do), so causal consistency is preserved — the exact
//! checker in `pocc-sim` runs clean over adaptive simulations. What changes is the
//! *metadata a client picks up*: a stable-bounded read returns remote versions only from
//! within the GSS or the client's existing causal history (never a *new* unstable remote
//! dependency), so sessions touching churny keys accumulate far fewer of the unstable
//! dependencies that make later optimistic reads block. (Locally originated versions
//! remain visible and may still carry dependencies beyond the GSS — that is what keeps
//! read-your-writes intact.) Churn scores halve every window, so a key that cools down
//! becomes optimistic again. Both tuning values are constants: no scenario sweeps them.
//!
//! Like the other three protocols, the whole variant is one [`VisibilityPolicy`] over
//! [`pocc_engine::ProtocolEngine`] — see the "Adding a protocol variant" how-to in
//! `ARCHITECTURE.md`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use pocc_clock::Clock;
use pocc_engine::{EngineCore, ProtocolEngine, ReadMode, VisibilityPolicy};
use pocc_proto::{ClientRequest, ServerOutput};
use pocc_storage::ShardedStore;
use pocc_types::{ClientId, Config, DependencyVector, Key, ServerId, Timestamp, VersionVector};
use std::collections::HashMap;
use std::time::Duration;

/// Remote updates a key must receive within one churn window before its reads fall back
/// to GSS-stable-bounded visibility.
pub const CHURN_THRESHOLD: u32 = 3;

/// Length of the window over which per-key remote churn is counted; scores halve at every
/// window boundary, so the classification decays once a key cools down.
pub const CHURN_WINDOW: Duration = Duration::from_millis(20);

/// The adaptive visibility policy: POCC reads for calm keys, GSS-stable-bounded reads
/// for keys under remote churn. Writes, transactions and garbage collection follow POCC;
/// the stabilization protocol runs at Cure's cadence so the GSS the fall-back needs is
/// always fresh.
#[derive(Debug, Default)]
pub struct AdaptivePolicy {
    /// Per-key remote-churn score: remote updates observed in the current window plus
    /// the decayed carry-over from previous ones.
    churn: HashMap<Key, u32>,
    window_started: Timestamp,
}

impl AdaptivePolicy {
    /// Whether reads of `key` should fall back to stable-bounded visibility.
    fn is_churny(&self, key: Key) -> bool {
        self.churn
            .get(&key)
            .is_some_and(|score| *score >= CHURN_THRESHOLD)
    }

    /// Halves every score once per *elapsed* window (ticks can be sparser than the churn
    /// window), dropping keys that cooled down to zero.
    fn decay(&mut self, now: Timestamp) {
        let elapsed = now.saturating_since(self.window_started);
        if elapsed < CHURN_WINDOW {
            return;
        }
        self.window_started = now;
        let windows = elapsed.as_nanos() / CHURN_WINDOW.as_nanos();
        if windows >= 32 {
            // A u32 is zero after 32 halvings (and a >=32-bit shift would overflow):
            // a gap that long just clears the map.
            self.churn.clear();
            return;
        }
        let windows = windows as u32;
        self.churn.retain(|_, score| {
            *score >>= windows;
            *score > 0
        });
    }
}

impl<C: Clock> VisibilityPolicy<C> for AdaptivePolicy {
    fn handle_client_request(
        &mut self,
        core: &mut EngineCore<C>,
        client: ClientId,
        request: ClientRequest,
    ) -> Vec<ServerOutput> {
        let mut outputs = Vec::new();
        match request {
            ClientRequest::Get { key, rdv } => {
                let mode = if self.is_churny(key) {
                    ReadMode::StableBounded
                } else {
                    ReadMode::Latest
                };
                // Both paths wait for the client's remote dependencies (the POCC wait
                // condition): the stable-bounded snapshot includes the RDV, so serving
                // before the dependencies are installed could return a version older
                // than one the client causally observed.
                if core.covers_remote_deps(&rdv) {
                    let out = match mode {
                        ReadMode::Latest => core.serve_get_latest(client, key),
                        ReadMode::Stable => core.serve_get_stable(client, key, &rdv),
                        ReadMode::StableBounded => core.serve_get_stable_bounded(client, key, &rdv),
                    };
                    outputs.push(out);
                } else {
                    core.park_get(client, key, rdv, mode);
                }
            }
            ClientRequest::Put { key, value, dv } => {
                // POCC's PUT, including its dependency wait.
                if core.covers_remote_deps(&dv) {
                    core.serve_put(client, key, value, dv, &mut outputs);
                } else {
                    core.park_put(client, key, value, dv);
                }
                core.unpark(&mut outputs);
            }
            ClientRequest::RoTx { keys, rdv } => {
                // POCC's transactional snapshot: `VV ∨ RDV`.
                let snapshot = core.vv.snapshot_with(&rdv);
                core.start_ro_tx(client, keys, snapshot, &mut outputs);
            }
        }
        outputs
    }

    fn on_replicate(&mut self, core: &mut EngineCore<C>, _from: ServerId, key: Key) {
        let _ = core;
        let score = self.churn.entry(key).or_default();
        *score = score.saturating_add(1);
    }

    fn on_tick(
        &mut self,
        core: &mut EngineCore<C>,
        now: Timestamp,
        outputs: &mut Vec<ServerOutput>,
    ) {
        // The stabilization protocol at Cure's cadence, so the GSS behind the stable
        // fall-back is at most a few milliseconds behind.
        if now.saturating_since(core.last_stabilization) >= core.config.stabilization_interval {
            core.last_stabilization = now;
            core.stabilization_round(outputs);
        }
        // POCC's GC-vector exchange.
        if now.saturating_since(core.last_gc) >= core.config.gc_interval {
            core.last_gc = now;
            core.gc_exchange_round(outputs);
        }
        // POCC's partition timeouts.
        core.enforce_partition_timeouts(now, outputs);
        // Cool churn scores down once per window.
        self.decay(now);
    }
}

/// An Adaptive-POCC server `p^m_n`: the fourth protocol variant, proving the
/// engine/policy split pays for itself. Runs under the same simulator, threaded runtime
/// and benchmark harness as the paper's three systems.
pub struct AdaptiveServer<C> {
    engine: ProtocolEngine<C, AdaptivePolicy>,
}

impl<C: Clock> AdaptiveServer<C> {
    /// Creates an Adaptive server for `id` with the given deployment configuration and
    /// clock.
    pub fn new(id: ServerId, config: Config, clock: C) -> Self {
        AdaptiveServer {
            engine: ProtocolEngine::new(id, config, clock, AdaptivePolicy::default()),
        }
    }

    /// The server's current version vector.
    pub fn version_vector(&self) -> &VersionVector {
        &self.engine.core().vv
    }

    /// The server's current view of the Globally Stable Snapshot.
    pub fn gss(&self) -> &DependencyVector {
        &self.engine.core().gss
    }

    /// Read access to the underlying store.
    pub fn store(&self) -> &ShardedStore {
        &self.engine.core().store
    }

    /// Number of keys currently classified as churny (reads fall back to the stable
    /// snapshot).
    pub fn churny_keys(&self) -> usize {
        self.engine
            .policy()
            .churn
            .values()
            .filter(|score| **score >= CHURN_THRESHOLD)
            .count()
    }
}

pocc_engine::delegate_protocol_server!(AdaptiveServer);

#[cfg(test)]
mod tests {
    use super::*;
    use pocc_clock::ManualClock;
    use pocc_proto::{expect_reply, ClientReply, ProtocolServer, ServerIntrospect, ServerMessage};
    use pocc_storage::partition_for_key;
    use pocc_types::{ReplicaId, Value, Version};

    const MS: u64 = 1_000;

    fn server(clock: &ManualClock) -> AdaptiveServer<ManualClock> {
        let config = Config::builder()
            .num_replicas(3)
            .num_partitions(1)
            .build()
            .unwrap();
        AdaptiveServer::new(ServerId::new(0u16, 0u32), config, clock.clone())
    }

    fn key_in(partition: usize, num_partitions: usize) -> Key {
        (0u64..)
            .map(Key)
            .find(|k| partition_for_key(*k, num_partitions).index() == partition)
            .unwrap()
    }

    fn dv(entries: &[u64]) -> DependencyVector {
        DependencyVector::from_entries(entries.iter().map(|&e| Timestamp(e)).collect())
    }

    fn extract_reply(outputs: &[ServerOutput], client: ClientId) -> Option<ClientReply> {
        outputs.iter().find_map(|o| match o {
            ServerOutput::Reply { client: c, reply } if *c == client => Some(reply.clone()),
            _ => None,
        })
    }

    fn replicate(s: &mut AdaptiveServer<ManualClock>, key: Key, value: &str, ts: u64) {
        s.handle_server_message(
            ServerId::new(1u16, 0u32),
            ServerMessage::Replicate {
                version: Version::new(
                    key,
                    Value::from(value),
                    ReplicaId(1),
                    Timestamp(ts),
                    dv(&[0, 0, 0]),
                ),
            },
        );
    }

    /// Exactly [`CHURN_THRESHOLD`] (3) remote updates of `key`: `r1`, `r2` and `r3` at
    /// 7, 8 and 9 ms, none of them GSS-stable yet.
    fn churn(s: &mut AdaptiveServer<ManualClock>, key: Key) {
        replicate(s, key, "r1", 7 * MS);
        replicate(s, key, "r2", 8 * MS);
        replicate(s, key, "r3", 9 * MS);
    }

    #[test]
    fn calm_keys_are_served_optimistically() {
        let clock = ManualClock::new(Timestamp(10 * MS));
        let mut s = server(&clock);
        let key = key_in(0, 1);
        // Two remote updates: below the threshold of 3, so the key stays optimistic and
        // the fresh (unstable-looking) remote version is returned, POCC-style.
        replicate(&mut s, key, "older", 8 * MS);
        replicate(&mut s, key, "fresh", 9 * MS);
        let outputs = s.handle_client_request(
            ClientId(1),
            ClientRequest::Get {
                key,
                rdv: dv(&[0, 0, 0]),
            },
        );
        expect_reply!(
            extract_reply(&outputs, ClientId(1)),
            Some(ClientReply::Get(resp)) => {
                assert_eq!(resp.value.unwrap().as_slice(), b"fresh");
            }
        );
        assert_eq!(s.metrics().stable_fallback_gets, 0);
        assert_eq!(s.churny_keys(), 0);
    }

    #[test]
    fn churny_keys_fall_back_to_stable_bounded_reads() {
        let clock = ManualClock::new(Timestamp(10 * MS));
        let mut s = server(&clock);
        let key = key_in(0, 1);
        // Three remote updates reach the churn threshold; none is GSS-stable yet.
        churn(&mut s, key);
        assert_eq!(s.churny_keys(), 1);

        // A dependency-free client reads: the stable-bounded path hides every unstable
        // remote version and reports "not found".
        let outputs = s.handle_client_request(
            ClientId(1),
            ClientRequest::Get {
                key,
                rdv: dv(&[0, 0, 0]),
            },
        );
        expect_reply!(
            extract_reply(&outputs, ClientId(1)),
            Some(ClientReply::Get(resp)) => {
                assert!(resp.value.is_none(), "unstable remote versions must be hidden");
            }
        );
        let m = s.metrics();
        assert_eq!(m.stable_fallback_gets, 1);
        assert_eq!(m.unmerged_gets, 1);
    }

    #[test]
    fn stable_fallback_still_honours_the_session_history() {
        let clock = ManualClock::new(Timestamp(10 * MS));
        let mut s = server(&clock);
        let key = key_in(0, 1);
        churn(&mut s, key);

        // A client that has already observed the newest remote version (rdv covers it)
        // must keep seeing it — monotonic reads survive the fall-back.
        let outputs = s.handle_client_request(
            ClientId(1),
            ClientRequest::Get {
                key,
                rdv: dv(&[0, 9 * MS, 0]),
            },
        );
        expect_reply!(
            extract_reply(&outputs, ClientId(1)),
            Some(ClientReply::Get(resp)) => {
                assert_eq!(resp.value.unwrap().as_slice(), b"r3");
            }
        );
        assert_eq!(s.metrics().stable_fallback_gets, 1);
    }

    #[test]
    fn stable_fallback_parks_until_client_dependencies_arrive() {
        let clock = ManualClock::new(Timestamp(10 * MS));
        let mut s = server(&clock);
        let key = key_in(0, 1);
        churn(&mut s, key);

        // The client depends on a remote item this server has not received: even the
        // stable-bounded read waits (its snapshot includes the RDV, so serving early
        // could roll the client's view backwards).
        let outputs = s.handle_client_request(
            ClientId(1),
            ClientRequest::Get {
                key,
                rdv: dv(&[0, 20 * MS, 0]),
            },
        );
        assert!(outputs.is_empty(), "the read must park");
        assert_eq!(s.metrics().blocked_operations, 1);

        // The missing traffic arrives; the read unparks through the stable path and
        // returns the now-covered freshest remote version.
        let outputs = s.handle_server_message(
            ServerId::new(1u16, 0u32),
            ServerMessage::Replicate {
                version: Version::new(
                    key,
                    Value::from("r4"),
                    ReplicaId(1),
                    Timestamp(20 * MS),
                    dv(&[0, 0, 0]),
                ),
            },
        );
        expect_reply!(
            extract_reply(&outputs, ClientId(1)),
            Some(ClientReply::Get(resp)) => {
                assert_eq!(resp.value.unwrap().as_slice(), b"r4");
            }
        );
        assert_eq!(s.metrics().stable_fallback_gets, 1);
    }

    #[test]
    fn local_writes_stay_visible_on_churny_keys() {
        let clock = ManualClock::new(Timestamp(10 * MS));
        let mut s = server(&clock);
        let key = key_in(0, 1);
        churn(&mut s, key);
        // A local write on the churny key: the local VV entry is part of the stable
        // bound, so the client reads its own write back.
        clock.set(Timestamp(11 * MS));
        s.handle_client_request(
            ClientId(1),
            ClientRequest::Put {
                key,
                value: Value::from("mine"),
                dv: dv(&[0, 0, 0]),
            },
        );
        let outputs = s.handle_client_request(
            ClientId(1),
            ClientRequest::Get {
                key,
                rdv: dv(&[0, 0, 0]),
            },
        );
        expect_reply!(
            extract_reply(&outputs, ClientId(1)),
            Some(ClientReply::Get(resp)) => {
                assert_eq!(resp.value.unwrap().as_slice(), b"mine");
            }
        );
    }

    #[test]
    fn churn_scores_decay_once_the_key_cools_down() {
        let clock = ManualClock::new(Timestamp(10 * MS));
        let mut s = server(&clock);
        let key = key_in(0, 1);
        churn(&mut s, key);
        assert_eq!(s.churny_keys(), 1);

        // Two quiet 20 ms windows later the score has halved twice (3 -> 1 -> 0):
        // optimistic again.
        clock.set(Timestamp(30 * MS));
        s.tick();
        assert_eq!(s.churny_keys(), 0, "score halves after one quiet window");
        clock.set(Timestamp(50 * MS));
        s.tick();
        let outputs = s.handle_client_request(
            ClientId(1),
            ClientRequest::Get {
                key,
                rdv: dv(&[0, 0, 0]),
            },
        );
        expect_reply!(
            extract_reply(&outputs, ClientId(1)),
            Some(ClientReply::Get(resp)) => {
                assert_eq!(resp.value.unwrap().as_slice(), b"r3", "optimistic again");
            }
        );
        assert_eq!(s.metrics().stable_fallback_gets, 0);
    }

    #[test]
    fn a_score_exactly_at_the_threshold_counts_as_churny() {
        // The classification is `score >= CHURN_THRESHOLD`: with the threshold of 3, the
        // second remote update must stay optimistic and the third — landing exactly on
        // the boundary — must flip the key to stable-bounded reads.
        let clock = ManualClock::new(Timestamp(10 * MS));
        let mut s = server(&clock);
        let key = key_in(0, 1);
        replicate(&mut s, key, "r1", 7 * MS);
        replicate(&mut s, key, "r2", 8 * MS);
        assert_eq!(s.churny_keys(), 0, "one below the threshold is calm");
        replicate(&mut s, key, "r3", 9 * MS);
        assert_eq!(s.churny_keys(), 1, "exactly at the threshold is churny");
    }

    #[test]
    fn decay_fires_exactly_at_the_window_edge_and_not_before() {
        // The decay guard is `elapsed < CHURN_WINDOW`, with the first window measured
        // from time zero: a tick one microsecond short of the 20 ms churn window must
        // leave the score untouched, a tick exactly at the edge must halve it (3 -> 1).
        let clock = ManualClock::at_zero();
        let mut s = server(&clock);
        let key = key_in(0, 1);
        replicate(&mut s, key, "r1", 1);
        replicate(&mut s, key, "r2", 2);
        replicate(&mut s, key, "r3", 3);
        assert_eq!(s.churny_keys(), 1);

        clock.set(Timestamp(20 * MS - 1));
        s.tick();
        assert_eq!(s.churny_keys(), 1, "one tick short of the window: no decay");

        clock.set(Timestamp(20 * MS));
        s.tick();
        assert_eq!(
            s.churny_keys(),
            0,
            "exactly one window elapsed: score halves"
        );
    }

    #[test]
    fn a_cooled_key_restarts_scoring_from_zero() {
        // Decay drops a key once its score reaches zero; fresh churn afterwards must
        // climb from zero (two updates: calm), not resume from a stale retained score
        // (which would make 1 + 2 cross the threshold again immediately).
        let clock = ManualClock::new(Timestamp(10 * MS));
        let mut s = server(&clock);
        let key = key_in(0, 1);
        churn(&mut s, key);
        assert_eq!(s.churny_keys(), 1);

        // Two quiet windows in one tick: 3 >> 2 == 0, the key is dropped from the map.
        clock.set(Timestamp(50 * MS));
        s.tick();
        assert_eq!(s.churny_keys(), 0);

        replicate(&mut s, key, "r4", 45 * MS);
        replicate(&mut s, key, "r5", 46 * MS);
        assert_eq!(
            s.churny_keys(),
            0,
            "scoring restarted from zero, not from 1"
        );
        replicate(&mut s, key, "r6", 47 * MS);
        assert_eq!(
            s.churny_keys(),
            1,
            "three fresh updates cross the threshold again"
        );
    }

    #[test]
    fn decay_across_a_very_long_gap_clears_the_scores_without_overflow() {
        // More than 32 churn windows elapse between ticks (a stalled server thread, or a
        // clock starting far from zero): the shift-per-window decay must saturate into a
        // full clear instead of overflowing the u32 shift.
        let clock = ManualClock::new(Timestamp(10 * MS));
        let mut s = server(&clock);
        let key = key_in(0, 1);
        churn(&mut s, key);
        assert_eq!(s.churny_keys(), 1);

        // 20 ms window * 40 elapsed windows = 800 ms gap.
        clock.set(Timestamp(810 * MS));
        s.tick();
        assert_eq!(s.churny_keys(), 0, "a long gap clears every score");
        let outputs = s.handle_client_request(
            ClientId(1),
            ClientRequest::Get {
                key,
                rdv: dv(&[0, 0, 0]),
            },
        );
        assert!(matches!(
            extract_reply(&outputs, ClientId(1)),
            Some(ClientReply::Get(_))
        ));
        assert_eq!(s.metrics().stable_fallback_gets, 0, "optimistic again");
    }

    #[test]
    fn stabilization_advances_the_gss_and_unhides_stable_versions() {
        let clock = ManualClock::new(Timestamp(10 * MS));
        let mut s = server(&clock);
        let key = key_in(0, 1);
        churn(&mut s, key);

        // Heartbeats from both remote replicas + a tick advance this server's VV; a
        // single-partition DC computes the GSS from its own vector. The tick stays inside
        // the first churn window, so the key is still churny.
        for r in [1u16, 2] {
            s.handle_server_message(
                ServerId::new(r, 0u32),
                ServerMessage::Heartbeat {
                    clock: Timestamp(15 * MS),
                },
            );
        }
        clock.set(Timestamp(16 * MS));
        s.tick();

        let outputs = s.handle_client_request(
            ClientId(1),
            ClientRequest::Get {
                key,
                rdv: dv(&[0, 0, 0]),
            },
        );
        expect_reply!(
            extract_reply(&outputs, ClientId(1)),
            Some(ClientReply::Get(resp)) => {
                assert_eq!(resp.value.unwrap().as_slice(), b"r3", "now stable, so visible");
            }
        );
        assert_eq!(s.metrics().stable_fallback_gets, 1);
        assert_eq!(s.metrics().old_gets, 0);
    }

    #[test]
    fn transactions_follow_pocc_semantics() {
        let clock = ManualClock::new(Timestamp(10 * MS));
        let mut s = server(&clock);
        let key = key_in(0, 1);
        s.handle_client_request(
            ClientId(1),
            ClientRequest::Put {
                key,
                value: Value::from("t"),
                dv: dv(&[0, 0, 0]),
            },
        );
        let outputs = s.handle_client_request(
            ClientId(1),
            ClientRequest::RoTx {
                keys: vec![key],
                rdv: dv(&[0, 0, 0]),
            },
        );
        expect_reply!(
            extract_reply(&outputs, ClientId(1)),
            Some(ClientReply::RoTx { items }) => {
                assert_eq!(items.len(), 1);
                assert_eq!(items[0].response.value.as_ref().unwrap().as_slice(), b"t");
            }
        );
        assert_eq!(s.metrics().rotx_served, 1);
    }
}
