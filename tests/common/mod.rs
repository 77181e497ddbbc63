//! What the differential suites (`parallel_equivalence`, `transport_equivalence`,
//! `gc_step_equivalence`) share: the seeded per-client scripts, the outcome every driver
//! must produce, the serial reference run on [`SerialCluster`], and the run on a real
//! threaded [`Cluster`], alone or beside background writers.
//!
//! The scripts are single-writer-per-key, so the final value of every key is determined
//! by the script alone, not by timestamp races. Drivers must agree on per-key final
//! values, convergence across replicas, order-insensitive metric totals and a clean exact
//! causal checker; interleavings, timestamps and latencies are allowed to differ.

use pocc::net::ClientPort;
use pocc::prelude::*;
use pocc::proto::{ClientReply, ClientRequest, MetricsSnapshot};
use pocc::protocol::Client;
use pocc::sim::reference::SerialCluster;
use pocc::sim::ConsistencyChecker;
use pocc::storage::partition_for_key;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

pub const PARTITIONS: usize = 2;
pub const CLIENTS: usize = 4;

#[derive(Clone, Debug)]
pub enum Op {
    Put(Key, u64),
    Get(Key),
    RoTx(Vec<Key>),
}

pub fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

/// The per-client operation scripts: every PUT targets a key of the issuing client's own
/// range (`keys_per_client` wide); GETs and RO-TXs range over everyone's keys so causality
/// crosses clients. `seed` and `salt` pick the stream, so each suite keeps its own.
pub fn scripts(seed: u64, salt: u64, keys_per_client: u64, ops_per_client: usize) -> Vec<Vec<Op>> {
    let own_key = |client: usize, r: u64| Key(client as u64 * 1_000 + (r % keys_per_client));
    (0..CLIENTS)
        .map(|client| {
            let mut rng = seed ^ (client as u64 + 1).wrapping_mul(salt);
            (0..ops_per_client)
                .map(|step| {
                    let roll = xorshift(&mut rng);
                    if step % 10 == 9 {
                        let keys = (0..3)
                            .map(|i| {
                                let owner = (xorshift(&mut rng) as usize + i) % CLIENTS;
                                own_key(owner, xorshift(&mut rng))
                            })
                            .collect();
                        Op::RoTx(keys)
                    } else if roll.is_multiple_of(3) {
                        let owner = xorshift(&mut rng) as usize % CLIENTS;
                        Op::Get(own_key(owner, xorshift(&mut rng)))
                    } else {
                        Op::Put(own_key(client, xorshift(&mut rng)), xorshift(&mut rng))
                    }
                })
                .collect()
        })
        .collect()
}

/// The final value of every written key, determined by the scripts alone.
fn expected_final_values(scripts: &[Vec<Op>]) -> HashMap<Key, Value> {
    let mut map = HashMap::new();
    for op in scripts.iter().flatten() {
        if let Op::Put(key, value) = op {
            map.insert(*key, Value::from(*value));
        }
    }
    map
}

/// What every driver must agree on.
pub struct Outcome {
    /// Final value of every script key, read back after the cluster drained.
    final_values: HashMap<Key, Value>,
    /// Metric counters summed across all servers.
    metrics: MetricsSnapshot,
    /// Violations found by the exact checker.
    violations: usize,
}

pub fn check_outcome(label: &str, outcome: &Outcome, scripts: &[Vec<Op>], replicas: usize) {
    let (mut puts, mut gets, mut txs) = (0u64, 0u64, 0u64);
    for op in scripts.iter().flatten() {
        match op {
            Op::Put(..) => puts += 1,
            Op::Get(..) => gets += 1,
            Op::RoTx(..) => txs += 1,
        }
    }
    let m = &outcome.metrics;
    assert_eq!(outcome.violations, 0, "{label}: causal violations");
    assert_eq!(m.sessions_aborted, 0, "{label}: aborted sessions");
    assert_eq!(m.puts_served, puts, "{label}: puts served");
    // Final read-back GETs are not part of the script, so served >= issued.
    assert!(
        m.gets_served >= gets,
        "{label}: gets served {} < issued {gets}",
        m.gets_served
    );
    assert_eq!(m.rotx_served, txs, "{label}: transactions served");
    assert_eq!(
        m.replicate_sent,
        puts * (replicas as u64 - 1),
        "{label}: replication fan-out"
    );
    assert_eq!(
        &outcome.final_values,
        &expected_final_values(scripts),
        "{label}: converged store does not match the script"
    );
}

pub fn assert_agree(label: &str, a: &Outcome, b: &Outcome) {
    assert_eq!(
        a.final_values, b.final_values,
        "{label}: drivers disagree on final per-key values"
    );
    assert_eq!(
        a.metrics.puts_served, b.metrics.puts_served,
        "{label}: drivers disagree on puts served"
    );
    assert_eq!(
        a.metrics.rotx_served, b.metrics.rotx_served,
        "{label}: drivers disagree on transactions served"
    );
    assert_eq!(
        a.metrics.replicate_sent, b.metrics.replicate_sent,
        "{label}: drivers disagree on replication volume"
    );
}

/// Feeds one completed operation to the exact checker.
fn record(
    checker: &mut ConsistencyChecker,
    id: ClientId,
    replica: ReplicaId,
    op: &Op,
    reply: &ClientReply,
) {
    let key = match (reply, op) {
        (ClientReply::Put { .. }, Op::Put(key, _)) | (ClientReply::Get(_), Op::Get(key)) => {
            Some(*key)
        }
        (ClientReply::RoTx { .. }, Op::RoTx(_)) => None,
        (reply, op) => panic!("mismatched reply {reply:?} for op {op:?}"),
    };
    checker.record_reply(id, replica, key, reply);
}

/// The reference run: the scripts, interleaved round-robin so cross-client causality
/// actually develops, through a hand-pumped [`SerialCluster`].
pub fn run_serial(protocol: ProtocolKind, scripts: &[Vec<Op>], cfg: Config) -> Outcome {
    let replicas = cfg.num_replicas;
    let mut cluster = SerialCluster::new(protocol, cfg);
    let mut checker = ConsistencyChecker::new();
    let submit = |cluster: &mut SerialCluster, id, target, request| {
        cluster.clock().advance(Duration::from_micros(20));
        cluster.submit(id, target, request);
        cluster.await_reply(id)
    };

    let mut sessions: Vec<Client> = (0..CLIENTS)
        .map(|i| {
            let id = ClientId(i as u64);
            let home = ServerId::new(ReplicaId((i % replicas) as u16), 0u32);
            protocol.session(id, home, replicas)
        })
        .collect();

    #[allow(clippy::needless_range_loop)] // `step` is the round-robin outer index
    for step in 0..scripts[0].len() {
        for (i, session) in sessions.iter_mut().enumerate() {
            let id = ClientId(i as u64);
            let replica = ReplicaId((i % replicas) as u16);
            let op = &scripts[i][step];
            let (routing_key, request) = match op {
                Op::Put(key, value) => (*key, session.put(*key, Value::from(*value))),
                Op::Get(key) => (*key, session.get(*key)),
                Op::RoTx(keys) => (keys[0], session.ro_tx(keys.clone())),
            };
            let target = ServerId::new(replica, partition_for_key(routing_key, PARTITIONS));
            let reply = submit(&mut cluster, id, target, request);
            session.process_reply(&reply).expect("no aborts expected");
            record(&mut checker, id, replica, op, &reply);
        }
    }

    // Drain to quiescence, then verify convergence across replicas.
    for _ in 0..40 {
        cluster.tick_all();
        cluster.deliver_all();
    }
    assert!(
        cluster.converged(),
        "serial {protocol:?}: replicas diverged"
    );

    // Read the final values back through a fresh session at replica 0. Stable-reads
    // protocols bound visibility by the GSS, which trails the newest writes — pump ticks
    // and retry until the script's final value becomes visible.
    let mut final_values = HashMap::new();
    let reader_id = ClientId(9_999);
    let mut reader = Client::new(reader_id, ServerId::new(ReplicaId(0), 0u32), replicas);
    for (key, wanted) in &expected_final_values(scripts) {
        let target = ServerId::new(ReplicaId(0), partition_for_key(*key, PARTITIONS));
        for attempt in 0..200 {
            let reply = submit(&mut cluster, reader_id, target, reader.get(*key));
            reader.process_reply(&reply).unwrap();
            let ClientReply::Get(resp) = reply else {
                panic!("unexpected reply to the read-back GET");
            };
            if resp.value.as_ref() == Some(wanted) {
                final_values.insert(*key, resp.value.unwrap());
                break;
            }
            assert!(
                attempt < 199,
                "serial {protocol:?}: {key} never reached its final value"
            );
            cluster.tick_all();
            cluster.deliver_all();
        }
    }

    Outcome {
        final_values,
        metrics: cluster.metric_totals(),
        violations: checker.violations().len(),
    }
}

/// The same scripts through the real threaded [`Cluster`] that `builder` starts.
pub fn run_cluster(builder: ClusterBuilder, scripts: &[Vec<Op>]) -> Outcome {
    run_cluster_under_load(builder, scripts, 0)
}

/// The first key of the background writers' ranges, far above every script key: data
/// center `r` writes keys `LOAD_KEYS + r * load_keys` onwards.
pub const LOAD_KEYS: u64 = 1_000_000;
/// PUTs a background writer keeps in flight.
const LOAD_IN_FLIGHT: u64 = 32;

/// [`run_cluster`] beside background writers: while the scripts run, one port per data
/// center pipelines PUTs over `load_keys` keys of its own, round after round, two rounds
/// at least. So every chain of those keys grows to two versions or more, and GC passes
/// have many chains to trim while the scripts read. The scripts never touch these keys,
/// and the outcome leaves the background PUTs out of its counters. No writers run at
/// `load_keys = 0`.
pub fn run_cluster_under_load(
    builder: ClusterBuilder,
    scripts: &[Vec<Op>],
    load_keys: u64,
) -> Outcome {
    let cluster = builder.start();
    let label = format!("{:?} {:?}", cluster.transport(), cluster.protocol());
    let replicas = cluster.config().num_replicas;
    let mut checker = ConsistencyChecker::new();
    let mut clients: Vec<ClusterClient> = (0..CLIENTS)
        .map(|i| cluster.client(ReplicaId((i % replicas) as u16)))
        .collect();

    let scripted = AtomicBool::new(false);
    let load_puts: u64 = std::thread::scope(|s| {
        let writers: Vec<_> = (0..replicas)
            .filter(|_| load_keys > 0)
            .map(|r| {
                let (cluster, scripted) = (&cluster, &scripted);
                s.spawn(move || write_load(cluster, ReplicaId(r as u16), load_keys, scripted))
            })
            .collect();

        // Set even when the scripted loop panics, so the writers stop and the scope
        // reports the panic instead of joining them forever.
        let stop_writers = SetOnDrop(&scripted);
        #[allow(clippy::needless_range_loop)] // `step` is the round-robin outer index
        for step in 0..scripts[0].len() {
            for (i, client) in clients.iter_mut().enumerate() {
                let op = &scripts[i][step];
                let reply = match op {
                    Op::Put(key, value) => ClientReply::Put {
                        update_time: client.put(*key, Value::from(*value)).unwrap(),
                    },
                    Op::Get(key) => ClientReply::Get(client.get_versioned(*key).unwrap()),
                    Op::RoTx(keys) => ClientReply::RoTx {
                        items: client.ro_tx_versioned(keys.clone()).unwrap(),
                    },
                };
                record(&mut checker, client.id(), client.replica(), op, &reply);
            }
        }
        drop(stop_writers);
        writers.into_iter().map(|w| w.join().unwrap()).sum()
    });

    // Wait for replication to drain: every partition's replicas must reach identical
    // digests.
    let mut converged = false;
    for _ in 0..2_000 {
        let probes = cluster.probe_all();
        converged = (0..PARTITIONS).all(|partition| {
            let mut digests = probes
                .iter()
                .filter(|(id, _)| id.partition.index() == partition)
                .map(|(_, p)| &p.digest);
            let first = digests.next();
            digests.all(|d| Some(d) == first)
        });
        if converged {
            break;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    assert!(converged, "{label}: replicas did not converge");

    // Read the final values back through a fresh session at replica 0, retrying while
    // the GSS of stable-reads protocols catches up with the newest writes.
    let mut reader = cluster.client(ReplicaId(0));
    let mut final_values = HashMap::new();
    for (key, wanted) in &expected_final_values(scripts) {
        for attempt in 0..500 {
            if reader.get(*key).unwrap().as_ref() == Some(wanted) {
                final_values.insert(*key, wanted.clone());
                break;
            }
            assert!(
                attempt < 499,
                "{label}: {key} never reached its final value"
            );
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    let mut metrics = MetricsSnapshot::default();
    for (_, probe) in cluster.probe_all() {
        metrics.merge(&probe.metrics);
    }
    metrics.puts_served -= load_puts;
    metrics.replicate_sent -= load_puts * (replicas as u64 - 1);
    cluster.shutdown();
    Outcome {
        final_values,
        metrics,
        violations: checker.violations().len(),
    }
}

/// Sets its flag when dropped, by a normal exit or by unwinding.
struct SetOnDrop<'a>(&'a AtomicBool);

impl Drop for SetOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Relaxed);
    }
}

/// One data center's background writer for [`run_cluster_under_load`]: PUTs over `keys`
/// keys of its own, `LOAD_IN_FLIGHT` at a time, round after round until `scripted` is
/// set and two rounds are done. Returns how many PUTs it made.
fn write_load(cluster: &Cluster, replica: ReplicaId, keys: u64, scripted: &AtomicBool) -> u64 {
    let config = cluster.config();
    let (partitions, replicas) = (config.num_partitions, config.num_replicas);
    let (_, mut port) = cluster.open_port();
    let first = LOAD_KEYS + u64::from(replica.0) * keys;
    let await_put =
        |port: &mut Box<dyn ClientPort>| match port.recv_timeout(Duration::from_secs(10)) {
            Ok(ClientReply::Put { .. }) => {}
            other => panic!("background writer at {replica}: {other:?}"),
        };
    let mut puts = 0;
    for round in 0.. {
        if round >= 2 && scripted.load(Ordering::Relaxed) {
            break;
        }
        for key in (first..first + keys).map(Key) {
            let to = ServerId::new(replica, partition_for_key(key, partitions));
            let put = ClientRequest::Put {
                key,
                value: Value::from(puts),
                dv: DependencyVector::zero(replicas),
            };
            port.submit(to, put).expect("background PUT submitted");
            puts += 1;
            if puts >= LOAD_IN_FLIGHT {
                await_put(&mut port);
            }
        }
    }
    for _ in 0..puts.min(LOAD_IN_FLIGHT - 1) {
        await_put(&mut port);
    }
    puts
}
