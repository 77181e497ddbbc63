//! A seeded interleaving fuzzer for the protocol engine.
//!
//! [`run_fuzz_case`] drives the hand-pumped [`SerialCluster`] — no event queue, no latency
//! model — through an arbitrary interleaving of client operations, message
//! deliveries, server ticks, clock advances and chaos toggles (partitions, heals,
//! drop/duplication of idempotent periodic messages), all drawn from one seeded RNG. After
//! the scripted steps the harness heals every partition and drains the cluster to
//! quiescence, then asserts the three properties every visibility policy must preserve:
//!
//! * **checker-cleanliness** — the exact causal checker observed no violation,
//! * **convergence** — sibling replicas of every partition hold identical store digests,
//! * **liveness** — no client is left with an operation the servers never answered.
//!
//! Because the RNG is consumed only inside the step loop, a run with fewer steps executes
//! an identical prefix of the same interleaving. [`check_case`] exploits that for
//! proptest-style shrinking: a failing case is reduced to the minimal failing step count
//! and reported as a [`FuzzFailure`] whose `Display` output is a ready-to-paste regression
//! test that reproduces the bug from the seed alone.
//!
//! [`cross_protocol_check`] adds the differential layer: one seeded write-only script
//! through all four protocols must leave byte-identical replicated state, since visibility
//! policies may only change what reads see in the meantime, never what state replicas
//! build.
//!
//! Set `POCC_FUZZ_TRACE=1` to narrate a replay step by step on stderr — every issued
//! request, delivered message, chaos toggle and client reply, each stamped with the
//! cluster's simulated clock. Replays are deterministic, so tracing the minimal case a
//! shrink reported walks you straight to the first bad read (unset, empty or `0`
//! disables it).

use crate::consistency::ConsistencyChecker;
use crate::reference::{Digest, Link, SerialCluster};
use pocc_clock::Clock;
use pocc_exec::ProtocolKind;
use pocc_proto::{ClientReply, ProtocolClient, ServerMessage};
use pocc_protocol::Client;
use pocc_storage::partition_for_key;
use pocc_types::{ClientId, Config, Key, ReplicaId, ServerId, Timestamp, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::time::Duration;

/// One fuzz case: a deployment shape, a protocol, a step budget and a seed. Equal cases
/// replay byte-identical runs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct FuzzCase {
    /// The protocol under test.
    pub protocol: ProtocolKind,
    /// Data centers in the deployment.
    pub replicas: usize,
    /// Partitions per data center.
    pub partitions: usize,
    /// Client sessions, spread round-robin over the data centers.
    pub clients: usize,
    /// Keyspace size — deliberately tiny so concurrent writers collide.
    pub keys: u64,
    /// Number of random interleaving steps before the drain.
    pub steps: usize,
    /// Whether chaos toggles (partition/heal, drop, duplicate) are among the steps.
    pub chaos: bool,
    /// The seed everything is derived from.
    pub seed: u64,
}

impl Default for FuzzCase {
    fn default() -> Self {
        FuzzCase {
            protocol: ProtocolKind::Pocc,
            replicas: 3,
            partitions: 2,
            clients: 4,
            keys: 12,
            steps: 400,
            chaos: true,
            seed: 0,
        }
    }
}

/// What a fuzz run observed. A case passes iff [`FuzzOutcome::is_clean`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FuzzOutcome {
    /// Client operations that completed (a reply was processed).
    pub ops_completed: u64,
    /// Sessions the servers aborted (client re-initialised and carried on).
    pub sessions_reinitialized: u64,
    /// Causal-consistency violations the exact checker recorded.
    pub violations: usize,
    /// Whether sibling replicas of every partition converged after the drain.
    pub converged: bool,
    /// Clients still waiting for a reply after the drain (must be zero).
    pub stuck_clients: usize,
    /// Human-readable description of the first violation, if any.
    pub first_violation: Option<String>,
}

impl FuzzOutcome {
    /// Whether the case upheld all three properties.
    pub fn is_clean(&self) -> bool {
        self.violations == 0 && self.converged && self.stuck_clients == 0
    }

    /// A one-line reason when the case failed.
    pub fn failure_reason(&self) -> Option<String> {
        if self.violations > 0 {
            return Some(format!(
                "{} causal violation(s), first: {}",
                self.violations,
                self.first_violation.as_deref().unwrap_or("<unrecorded>")
            ));
        }
        if !self.converged {
            return Some("replicas did not converge after quiescence".to_string());
        }
        if self.stuck_clients > 0 {
            return Some(format!(
                "{} client(s) never received a reply",
                self.stuck_clients
            ));
        }
        None
    }
}

/// A minimised fuzz failure. Its `Display` output is a ready-to-paste regression test.
#[derive(Clone, Debug)]
pub struct FuzzFailure {
    /// The minimal failing case (same seed as the original, fewest failing steps).
    pub case: FuzzCase,
    /// The step count of the original, unshrunk case.
    pub original_steps: usize,
    /// The outcome of the minimal case.
    pub outcome: FuzzOutcome,
}

impl fmt::Display for FuzzFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let c = &self.case;
        writeln!(
            f,
            "engine fuzzer failure: protocol={} seed={} steps={} (shrunk from {})",
            c.protocol, c.seed, c.steps, self.original_steps
        )?;
        writeln!(
            f,
            "reason: {}",
            self.outcome
                .failure_reason()
                .unwrap_or_else(|| "unknown".to_string())
        )?;
        writeln!(f, "paste this regression test:")?;
        writeln!(f)?;
        writeln!(f, "#[test]")?;
        writeln!(
            f,
            "fn fuzz_regression_seed_{}_steps_{}() {{",
            c.seed, c.steps
        )?;
        writeln!(f, "    use pocc::sim::fuzz::{{run_fuzz_case, FuzzCase}};")?;
        writeln!(f, "    use pocc::sim::ProtocolKind;")?;
        writeln!(f, "    let outcome = run_fuzz_case(&FuzzCase {{")?;
        writeln!(f, "        protocol: ProtocolKind::{:?},", c.protocol)?;
        writeln!(f, "        replicas: {},", c.replicas)?;
        writeln!(f, "        partitions: {},", c.partitions)?;
        writeln!(f, "        clients: {},", c.clients)?;
        writeln!(f, "        keys: {},", c.keys)?;
        writeln!(f, "        steps: {},", c.steps)?;
        writeln!(f, "        chaos: {},", c.chaos)?;
        writeln!(f, "        seed: {},", c.seed)?;
        writeln!(f, "    }});")?;
        writeln!(f, "    assert!(outcome.is_clean(), \"{{:?}}\", outcome);")?;
        write!(f, "}}")
    }
}

// ---------------------------------------------------------------------------------------
// The hand-pumped cluster
// ---------------------------------------------------------------------------------------

/// What a client is waiting for, so the reply can be fed to the checker.
#[derive(Clone, Copy, Debug)]
enum Pending {
    Get(Key),
    Put(Key),
    RoTx,
}

struct FuzzClient {
    session: Client,
    home: ServerId,
    pending: Option<Pending>,
}

/// The fuzzer's half of the cluster: closed-loop clients, the checker, partitions and the
/// trace. Servers, link queues and the clock are the [`SerialCluster`]'s.
struct Cluster {
    net: SerialCluster,
    /// Partitioned DC pairs (both orderings stored).
    partitioned: BTreeSet<(u16, u16)>,
    clients: Vec<FuzzClient>,
    checker: ConsistencyChecker,
    ops_completed: u64,
    sessions_reinitialized: u64,
    /// Whether to narrate every issued request to stderr (the `POCC_FUZZ_TRACE` debug
    /// aid; deliveries and replies are narrated by the [`SerialCluster`]).
    trace: bool,
}

/// Whether `POCC_FUZZ_TRACE` asks for a step-by-step narration of the run. Unset, empty
/// and `0` mean off; anything else means on.
fn trace_enabled() -> bool {
    std::env::var_os("POCC_FUZZ_TRACE").is_some_and(|v| !v.is_empty() && v != *"0")
}

impl Cluster {
    fn new(case: &FuzzCase) -> Self {
        let deployment = Config::builder()
            .num_replicas(case.replicas)
            .num_partitions(case.partitions)
            .storage_shards(2)
            .build()
            .expect("fuzz deployment config is valid");
        let clients: Vec<FuzzClient> = (0..case.clients)
            .map(|i| {
                let replica = ReplicaId((i % case.replicas) as u16);
                let home = ServerId::new(replica, 0u32);
                let id = ClientId(i as u64);
                let session = if case.protocol.snapshot_reads() {
                    Client::new_snapshot_reads(id, home, case.replicas)
                } else {
                    Client::new(id, home, case.replicas)
                };
                FuzzClient {
                    session,
                    home,
                    pending: None,
                }
            })
            .collect();
        let trace = trace_enabled();
        let mut net = SerialCluster::new(case.protocol, deployment);
        net.set_narration(trace);
        Cluster {
            net,
            partitioned: BTreeSet::new(),
            clients,
            checker: ConsistencyChecker::new(),
            ops_completed: 0,
            sessions_reinitialized: 0,
            trace,
        }
    }

    /// Lets `step` pump the servers, then feeds every reply they produced to its client
    /// (and to the checker first), in the order the servers produced them.
    fn pump(&mut self, step: impl FnOnce(&mut SerialCluster)) {
        step(&mut self.net);
        for (client, reply) in self.net.take_replies() {
            self.client_reply(client, reply);
        }
    }

    fn client_reply(&mut self, client_id: ClientId, reply: ClientReply) {
        let idx = client_id.raw() as usize;
        let pending = self.clients[idx].pending.take();
        let home_replica = self.clients[idx].home.replica;
        match &reply {
            ClientReply::Get(resp) => {
                if let Some(Pending::Get(key)) = pending {
                    let returned = resp
                        .value
                        .as_ref()
                        .map(|_| (resp.update_time, resp.source_replica));
                    self.checker.record_read(client_id, key, returned);
                }
            }
            ClientReply::Put { update_time } => {
                if let Some(Pending::Put(key)) = pending {
                    self.checker
                        .record_write(client_id, key, *update_time, home_replica);
                }
            }
            ClientReply::RoTx { items } => {
                let observed: Vec<(Key, Option<(Timestamp, ReplicaId)>)> = items
                    .iter()
                    .map(|item| {
                        (
                            item.key,
                            item.response
                                .value
                                .as_ref()
                                .map(|_| (item.response.update_time, item.response.source_replica)),
                        )
                    })
                    .collect();
                self.checker.record_transaction(client_id, &observed);
            }
            ClientReply::SessionAborted { .. } => {}
        }
        let entry = &mut self.clients[idx];
        match entry.session.process_reply(&reply) {
            Ok(()) => self.ops_completed += 1,
            Err(_) => {
                entry.session.reinitialize();
                self.sessions_reinitialized += 1;
                self.checker.reset_session(client_id);
            }
        }
    }

    fn issue(&mut self, idx: usize, rng: &mut StdRng, keys: u64) {
        if self.clients[idx].pending.is_some() {
            return; // closed-loop clients never pipeline
        }
        let kind = rng.gen_range(0..6u32);
        let key = Key(rng.gen_range(0..keys));
        let (request, pending) = {
            let session = &mut self.clients[idx].session;
            match kind {
                0..=2 => {
                    let value = Value::from(rng.gen_range(0..1_000_000u64));
                    (session.put(key, value), Pending::Put(key))
                }
                3..=4 => (session.get(key), Pending::Get(key)),
                _ => {
                    let mut tx_keys = vec![key];
                    let second = Key(rng.gen_range(0..keys));
                    if second != key {
                        tx_keys.push(second);
                    }
                    (session.ro_tx(tx_keys), Pending::RoTx)
                }
            }
        };
        let home = self.clients[idx].home;
        let partition = partition_for_key(key, self.net.config().num_partitions);
        let target = ServerId::new(home.replica, partition);
        self.clients[idx].pending = Some(pending);
        let client_id = self.clients[idx].session.client_id();
        if self.trace {
            let now = self.net.clock().now();
            eprintln!("[t={now:?}] issue {client_id:?} -> {target}: {request:?}");
        }
        self.pump(|net| net.submit(client_id, target, request));
    }

    fn link_blocked(&self, link: &Link) -> bool {
        self.partitioned
            .contains(&(link.0.replica.0, link.1.replica.0))
    }

    /// Non-empty links eligible for delivery (partitioned pairs hold their traffic).
    fn open_links(&self) -> Vec<Link> {
        self.net
            .links()
            .iter()
            .filter(|(link, queue)| !queue.is_empty() && !self.link_blocked(link))
            .map(|(link, _)| *link)
            .collect()
    }

    /// Heals everything and pumps the cluster until no message is in flight, advancing
    /// the shared clock each round so heartbeats and stabilization make progress. Uses no
    /// randomness, so it is identical for every step-count prefix of the same seed.
    fn drain(&mut self) {
        self.partitioned.clear();
        for _ in 0..40 {
            self.pump(|net| {
                net.tick_all();
                net.deliver_all();
            });
        }
    }
}

/// Is this message kind safe to drop or duplicate? Mirrors the simulated network's rule:
/// only idempotent periodic traffic that the next protocol round supersedes.
fn expendable(message: &ServerMessage) -> bool {
    matches!(
        message,
        ServerMessage::Heartbeat { .. }
            | ServerMessage::StabilizationVector { .. }
            | ServerMessage::GcVector { .. }
    )
}

/// Runs one fuzz case to completion and reports what it observed. Never panics on a
/// protocol failure — inspect [`FuzzOutcome::is_clean`].
pub fn run_fuzz_case(case: &FuzzCase) -> FuzzOutcome {
    let mut cluster = Cluster::new(case);
    let mut rng = StdRng::seed_from_u64(case.seed.wrapping_mul(0x9E37_79B9).wrapping_add(1));
    let replicas = case.replicas as u16;

    for _ in 0..case.steps {
        match rng.gen_range(0..10u32) {
            // Issue a client operation (the most common step).
            0..=3 => {
                let idx = rng.gen_range(0..cluster.clients.len());
                cluster.issue(idx, &mut rng, case.keys);
            }
            // Deliver the head of one random open link.
            4..=6 => {
                let open = cluster.open_links();
                if !open.is_empty() {
                    let link = open[rng.gen_range(0..open.len())];
                    cluster.pump(|net| {
                        net.deliver_head(link);
                    });
                }
            }
            // Tick one random server.
            7 => {
                let ids: Vec<ServerId> = cluster.net.servers().map(|(id, _)| id).collect();
                let id = ids[rng.gen_range(0..ids.len())];
                cluster.pump(|net| net.tick(id));
            }
            // Advance the shared clock.
            8 => {
                let micros = rng.gen_range(100..5_000u64);
                cluster.net.clock().advance(Duration::from_micros(micros));
            }
            // A chaos toggle.
            _ => {
                if !case.chaos || replicas < 2 {
                    continue;
                }
                let a = rng.gen_range(0..replicas);
                let mut b = rng.gen_range(0..replicas - 1);
                if b >= a {
                    b += 1;
                }
                match rng.gen_range(0..4u32) {
                    0 => {
                        cluster.partitioned.insert((a, b));
                        cluster.partitioned.insert((b, a));
                    }
                    1 => {
                        cluster.partitioned.remove(&(a, b));
                        cluster.partitioned.remove(&(b, a));
                    }
                    // Drop or duplicate the head of a random link, if it is an
                    // idempotent periodic message.
                    kind => {
                        let candidates: Vec<Link> = cluster
                            .net
                            .links()
                            .iter()
                            .filter(|(_, q)| q.front().is_some_and(expendable))
                            .map(|(link, _)| *link)
                            .collect();
                        if candidates.is_empty() {
                            continue;
                        }
                        let link = candidates[rng.gen_range(0..candidates.len())];
                        let queue = cluster.net.link_mut(link).expect("candidate link");
                        if kind == 2 {
                            queue.pop_front();
                        } else if let Some(head) = queue.front().cloned() {
                            queue.push_back(head);
                        }
                    }
                }
            }
        }
    }

    cluster.drain();

    let stuck_clients = cluster
        .clients
        .iter()
        .filter(|c| c.pending.is_some())
        .count();
    let violations = cluster.checker.violations();
    FuzzOutcome {
        ops_completed: cluster.ops_completed,
        sessions_reinitialized: cluster.sessions_reinitialized,
        violations: violations.len(),
        converged: cluster.net.converged(),
        stuck_clients,
        first_violation: violations.first().map(|v| format!("{v:?}")),
    }
}

/// Finds the minimal failing step count for a failing predicate by prefix reduction:
/// halving descent, then a bounded linear polish. Assumes `fails(steps)` holds for the
/// starting case and that every tried count replays a prefix of the same interleaving.
fn minimize_steps(case: &FuzzCase, fails: impl Fn(&FuzzCase) -> bool) -> usize {
    let mut best = case.steps;
    let mut candidate = best / 2;
    while candidate >= 1 {
        let mut smaller = *case;
        smaller.steps = candidate;
        if fails(&smaller) {
            best = candidate;
            candidate /= 2;
        } else {
            break;
        }
    }
    // Linear polish just below the best known failure, bounded so shrinking stays fast.
    for _ in 0..64 {
        if best == 0 {
            break;
        }
        let mut smaller = *case;
        smaller.steps = best - 1;
        if fails(&smaller) {
            best -= 1;
        } else {
            break;
        }
    }
    best
}

/// Runs a case; on failure, shrinks it to the minimal failing step count and returns a
/// [`FuzzFailure`] whose `Display` is a paste-ready regression test.
pub fn check_case(case: &FuzzCase) -> Result<FuzzOutcome, Box<FuzzFailure>> {
    let outcome = run_fuzz_case(case);
    if outcome.is_clean() {
        return Ok(outcome);
    }
    let minimal_steps = minimize_steps(case, |c| !run_fuzz_case(c).is_clean());
    let mut minimal = *case;
    minimal.steps = minimal_steps;
    let outcome = run_fuzz_case(&minimal);
    Err(Box::new(FuzzFailure {
        case: minimal,
        original_steps: case.steps,
        outcome,
    }))
}

// ---------------------------------------------------------------------------------------
// Cross-protocol differential check
// ---------------------------------------------------------------------------------------

/// One item of a cross-protocol script. The script is generated once per seed and then
/// replayed identically through every protocol, so the interleaving cannot depend on
/// protocol-specific message flows.
#[derive(Clone, Copy, Debug)]
enum ScriptItem {
    Put { client: usize, key: Key, value: u64 },
    TickAll,
    DeliverAll,
}

fn generate_script(seed: u64, ops: usize, clients: usize, keys: u64) -> Vec<ScriptItem> {
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0xD1F2_4F3B).wrapping_add(7));
    (0..ops)
        .map(|_| match rng.gen_range(0..10u32) {
            0..=6 => ScriptItem::Put {
                client: rng.gen_range(0..clients),
                key: Key(rng.gen_range(0..keys)),
                value: rng.gen_range(0..1_000_000u64),
            },
            7..=8 => ScriptItem::DeliverAll,
            _ => ScriptItem::TickAll,
        })
        .collect()
}

/// Per-server replicated state fingerprint: every key's full version chain, in order.
type StateFingerprint = BTreeMap<ServerId, Digest>;

/// Replays one seeded write-only script through all four protocols and verifies they
/// build byte-identical replicated state on every server. Returns a description of the
/// first divergence, if any.
pub fn cross_protocol_check(seed: u64, ops: usize) -> Result<(), String> {
    let case = FuzzCase {
        steps: 0,
        chaos: false,
        ..FuzzCase::default()
    };
    let script = generate_script(seed, ops, case.clients, case.keys);

    let mut reference: Option<(ProtocolKind, StateFingerprint)> = None;
    for protocol in ProtocolKind::ALL {
        let mut cluster = Cluster::new(&FuzzCase { protocol, ..case });
        for item in &script {
            match *item {
                ScriptItem::Put { client, key, value } => {
                    // Advance the shared clock so update times keep moving; the amount is
                    // fixed, hence identical across protocols.
                    cluster.net.clock().advance(Duration::from_micros(500));
                    let request = cluster.clients[client].session.put(key, Value::from(value));
                    let client_id = cluster.clients[client].session.client_id();
                    cluster.clients[client].pending = Some(Pending::Put(key));
                    let home = cluster.clients[client].home;
                    let partition = partition_for_key(key, cluster.net.config().num_partitions);
                    let target = ServerId::new(home.replica, partition);
                    cluster.pump(|net| net.submit(client_id, target, request));
                }
                ScriptItem::TickAll => cluster.pump(SerialCluster::tick_all),
                ScriptItem::DeliverAll => cluster.pump(SerialCluster::deliver_all),
            }
        }
        cluster.drain();
        let digests: StateFingerprint = cluster.net.digests();
        match &reference {
            None => reference = Some((protocol, digests)),
            Some((ref_protocol, ref_digests)) => {
                if digests != *ref_digests {
                    let diverged = ref_digests
                        .iter()
                        .find(|(id, d)| digests.get(id) != Some(d))
                        .map(|(id, _)| *id);
                    return Err(format!(
                        "seed {seed}: {protocol} diverged from {ref_protocol} at {:?}",
                        diverged
                    ));
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_default_case_completes_work_and_is_clean() {
        let outcome = run_fuzz_case(&FuzzCase {
            seed: 1,
            ..FuzzCase::default()
        });
        assert!(outcome.is_clean(), "{outcome:?}");
        assert!(
            outcome.ops_completed > 0,
            "the fuzzer must exercise clients"
        );
    }

    #[test]
    fn identical_seeds_replay_identical_outcomes() {
        let case = FuzzCase {
            seed: 99,
            steps: 300,
            ..FuzzCase::default()
        };
        assert_eq!(run_fuzz_case(&case), run_fuzz_case(&case));
    }

    #[test]
    fn fewer_steps_replay_a_prefix_of_the_same_interleaving() {
        // The shrinker's soundness: shrinking only truncates the step loop, so the
        // 120-step run of a seed is the literal prefix of its 300-step run. We can't
        // observe the prefix directly, but both must be clean and the shorter one must
        // complete no more operations.
        let long = run_fuzz_case(&FuzzCase {
            seed: 5,
            steps: 300,
            ..FuzzCase::default()
        });
        let short = run_fuzz_case(&FuzzCase {
            seed: 5,
            steps: 120,
            ..FuzzCase::default()
        });
        assert!(long.is_clean() && short.is_clean());
        assert!(short.ops_completed <= long.ops_completed);
    }

    #[test]
    fn minimize_steps_finds_the_smallest_failing_count() {
        // Synthetic failure predicate: a case "fails" iff it runs at least 23 steps.
        // The shrinker must find exactly 23 regardless of the starting budget.
        let case = FuzzCase {
            steps: 400,
            ..FuzzCase::default()
        };
        let minimal = minimize_steps(&case, |c| c.steps >= 23);
        assert_eq!(minimal, 23);
        let minimal = minimize_steps(&case, |c| c.steps >= 1);
        assert_eq!(minimal, 1);
        let minimal = minimize_steps(&case, |c| c.steps >= 400);
        assert_eq!(minimal, 400);
    }

    #[test]
    fn check_case_passes_clean_cases_through() {
        let case = FuzzCase {
            seed: 3,
            steps: 200,
            ..FuzzCase::default()
        };
        assert!(check_case(&case).is_ok());
    }

    #[test]
    fn failure_display_is_a_paste_ready_regression_test() {
        let failure = FuzzFailure {
            case: FuzzCase {
                protocol: ProtocolKind::Adaptive,
                seed: 77,
                steps: 13,
                ..FuzzCase::default()
            },
            original_steps: 400,
            outcome: FuzzOutcome {
                ops_completed: 4,
                sessions_reinitialized: 0,
                violations: 1,
                converged: true,
                stuck_clients: 0,
                first_violation: Some("StaleRead".to_string()),
            },
        };
        let text = failure.to_string();
        assert!(text.contains("seed=77 steps=13 (shrunk from 400)"));
        assert!(text.contains("fn fuzz_regression_seed_77_steps_13()"));
        assert!(text.contains("protocol: ProtocolKind::Adaptive,"));
        assert!(text.contains("assert!(outcome.is_clean()"));
    }

    #[test]
    fn all_protocols_survive_a_quick_seed_batch() {
        for protocol in ProtocolKind::ALL {
            for seed in 0..8u64 {
                let case = FuzzCase {
                    protocol,
                    seed,
                    steps: 250,
                    ..FuzzCase::default()
                };
                if let Err(failure) = check_case(&case) {
                    panic!("{failure}");
                }
            }
        }
    }

    #[test]
    fn cross_protocol_state_equality_holds_for_a_seed_batch() {
        for seed in 0..6u64 {
            if let Err(divergence) = cross_protocol_check(seed, 120) {
                panic!("{divergence}");
            }
        }
    }
}
