//! The four workloads and the inputs generated for them.
//!
//! All of them are closed loops: a causal session's next request carries the dependency
//! vector built from its previous reply, so clients that wait for replies are the
//! paper's client model. There are exactly two sessions, each on a generator thread of
//! its own with one connection, one homed in DC0 and one in DC1.
//!
//! Keys, the order of operations and the key sets of read-only transactions are drawn
//! from the seed before the clock starts; the program under test sees only requests.

use pocc_runtime::{RuntimeProtocol, TransportKind};
use pocc_types::{Config, Key, LatencyMatrix, PartitionId};
use pocc_workload::{KeySpace, Zipf};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;

/// One-way delays the channel transport injects. At or below 500 µs it delivers inline,
/// so the intra-DC figure is nominal; the inter-DC one is a real 5 ms hold.
pub const INTRA_DC_DELAY: Duration = Duration::from_micros(100);
pub const INTER_DC_DELAY: Duration = Duration::from_millis(5);

/// Every how many operations the DC0 session writes the visibility probe key.
pub const PROBE_EVERY: usize = 64;

/// Keys in a read-only transaction: two on each partition.
pub const ROTX_KEYS: usize = 4;

/// Length of a session's pre-generated operation cycle (a multiple of `PROBE_EVERY`).
pub const CYCLE: usize = 1 << 20;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpKind {
    Get,
    Put,
    RoTx,
}

/// One pre-generated operation: for GET and PUT `target` is a key index, for RO-TX an
/// index into the session's transaction key sets.
#[derive(Clone, Copy, Debug)]
pub struct Op {
    pub kind: OpKind,
    pub target: u32,
}

pub struct Workload {
    pub name: &'static str,
    /// One sentence: which layers it stresses and which it bypasses.
    pub why: &'static str,
    pub replicas: usize,
    pub partitions: usize,
    pub transport: TransportKind,
    pub protocol: RuntimeProtocol,
    pub worker_lanes: usize,
    /// Weights of GET, PUT and RO-TX in the mix.
    pub mix: [u32; 3],
    pub keys_per_partition: u64,
    pub zipf_theta: f64,
    /// Requests a session keeps in flight.
    pub outstanding: usize,
    /// Home data center of each session.
    pub session_dcs: &'static [u16],
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "tcp_pingpong",
        why: "One request in flight over real sockets: every op pays the whole wake-up chain with nothing to batch, so net and runtime hops are nearly all of the latency.",
        replicas: 2,
        partitions: 1,
        transport: TransportKind::Tcp,
        protocol: RuntimeProtocol::Pocc,
        worker_lanes: 1,
        mix: [4, 1, 0],
        keys_per_partition: 1_000,
        zipf_theta: 0.0,
        outstanding: 1,
        session_dcs: &[0, 1],
    },
    Workload {
        name: "tcp_pipelined",
        why: "The same cluster with 32 in flight: sockets and server threads saturate, so per-message syscalls, frame decode, reply flushes and inbox hops set throughput.",
        replicas: 2,
        partitions: 1,
        transport: TransportKind::Tcp,
        protocol: RuntimeProtocol::Pocc,
        worker_lanes: 1,
        mix: [4, 1, 0],
        keys_per_partition: 1_000,
        zipf_theta: 0.0,
        outstanding: 32,
        session_dcs: &[0, 1],
    },
    Workload {
        name: "chan_repl_lanes2",
        why: "No sockets and no codec, two worker lanes, write-heavy, skewed, 3 DCs: the lane pipeline, remote apply and chain insert/GC do the work, and a net or proto change must not move it.",
        replicas: 3,
        partitions: 1,
        transport: TransportKind::Channel,
        protocol: RuntimeProtocol::Pocc,
        worker_lanes: 2,
        mix: [1, 1, 0],
        keys_per_partition: 100_000,
        zipf_theta: 0.99,
        outstanding: 32,
        session_dcs: &[0, 1],
    },
    Workload {
        name: "cure_rotx",
        why: "Cure* over the same engine and store: stabilisation rounds, stable-version chain walks, snapshot reads and two-round transactions, which a POCC-tuned change can tax.",
        replicas: 2,
        partitions: 2,
        transport: TransportKind::Channel,
        protocol: RuntimeProtocol::Cure,
        worker_lanes: 1,
        mix: [2, 1, 1],
        keys_per_partition: 10_000,
        zipf_theta: 0.99,
        outstanding: 8,
        session_dcs: &[0, 1],
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// The deployment configuration: the repository defaults (1 ms heartbeats, 5 ms
    /// stabilisation, 100 ms GC, 8 shards, batching off) at this workload's shape.
    pub fn config(&self) -> Config {
        Config::builder()
            .num_replicas(self.replicas)
            .num_partitions(self.partitions)
            .worker_lanes(self.worker_lanes)
            .latency(LatencyMatrix::uniform(
                self.replicas,
                INTRA_DC_DELAY,
                INTER_DC_DELAY,
            ))
            .build()
            .expect("workload configurations are valid")
    }

    /// Whether sessions ship their whole history with reads, as snapshot-serving
    /// protocols need.
    pub fn snapshot_reads(&self) -> bool {
        matches!(
            self.protocol,
            RuntimeProtocol::Cure | RuntimeProtocol::Adaptive
        )
    }
}

/// One session's pre-generated operations.
pub struct SessionInput {
    pub ops: Vec<Op>,
    pub rotx: Vec<[u32; ROTX_KEYS]>,
}

/// Everything a run needs that depends on the seed.
pub struct Inputs {
    /// The key table. Sessions issue single-key operations only to partition 0, whose
    /// keys come first in popularity order; then each further partition's keys (read by
    /// transactions only); the visibility probe key, on partition 0, is last.
    pub keys: Vec<Key>,
    pub probe: u32,
    pub sessions: Vec<SessionInput>,
}

impl Inputs {
    pub fn generate(workload: &Workload, seed: u64) -> Inputs {
        Inputs::generate_cycle(workload, seed, CYCLE)
    }

    pub fn generate_cycle(workload: &Workload, seed: u64, cycle: usize) -> Inputs {
        assert!(cycle.is_multiple_of(PROBE_EVERY));
        let per_partition = workload.keys_per_partition;
        // One extra rank per partition so partition 0 has room for the probe key.
        let space = KeySpace::new(workload.partitions, per_partition + 1);
        let mut keys = Vec::with_capacity(workload.partitions * per_partition as usize + 1);
        for p in 0..workload.partitions {
            keys.extend((0..per_partition).map(|rank| space.key(PartitionId::from(p), rank)));
        }
        let probe = keys.len() as u32;
        keys.push(space.key(PartitionId::from(0usize), per_partition));

        let zipf = Zipf::new(per_partition, workload.zipf_theta);
        let total: u32 = workload.mix.iter().sum();
        let sessions = (0..workload.session_dcs.len())
            .map(|s| {
                let mut rng = StdRng::seed_from_u64(seed ^ ((0x5E55_1000 + s as u64) << 32));
                let mut rotx = Vec::new();
                let ops = (0..cycle)
                    .map(|i| {
                        let roll = rng.gen_range(0..total);
                        let rank = zipf.sample(&mut rng) as u32;
                        if s == 0 && i % PROBE_EVERY == PROBE_EVERY - 1 {
                            Op {
                                kind: OpKind::Put,
                                target: probe,
                            }
                        } else if roll < workload.mix[0] {
                            Op {
                                kind: OpKind::Get,
                                target: rank,
                            }
                        } else if roll < workload.mix[0] + workload.mix[1] {
                            Op {
                                kind: OpKind::Put,
                                target: rank,
                            }
                        } else {
                            rotx.push(rotx_keys(workload, &zipf, &mut rng, rank));
                            Op {
                                kind: OpKind::RoTx,
                                target: rotx.len() as u32 - 1,
                            }
                        }
                    })
                    .collect();
                SessionInput { ops, rotx }
            })
            .collect();
        Inputs {
            keys,
            probe,
            sessions,
        }
    }
}

/// Four distinct keys, alternating between partition 0 and the last partition, starting
/// with partition 0 so the session's home server coordinates.
fn rotx_keys(workload: &Workload, zipf: &Zipf, rng: &mut StdRng, first: u32) -> [u32; ROTX_KEYS] {
    let far = (workload.partitions as u32 - 1) * workload.keys_per_partition as u32;
    let mut set = [first; ROTX_KEYS];
    for i in 1..ROTX_KEYS {
        set[i] = loop {
            let candidate = zipf.sample(rng) as u32 + if i % 2 == 1 { far } else { 0 };
            if !set[..i].contains(&candidate) {
                break candidate;
            }
        };
    }
    set
}

#[cfg(test)]
mod tests {
    use super::*;
    use pocc_storage::partition_for_key;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let w = find("cure_rotx").unwrap();
        let fingerprint = |inputs: &Inputs| -> Vec<(u8, u32)> {
            inputs.sessions[1]
                .ops
                .iter()
                .map(|op| (op.kind as u8, op.target))
                .collect()
        };
        let a = Inputs::generate_cycle(w, 7, 4096);
        let b = Inputs::generate_cycle(w, 7, 4096);
        let c = Inputs::generate_cycle(w, 8, 4096);
        assert_eq!(fingerprint(&a), fingerprint(&b));
        assert_eq!(a.sessions[0].rotx, b.sessions[0].rotx);
        assert_ne!(fingerprint(&a), fingerprint(&c));
        assert_ne!(fingerprint(&a), {
            let other_session: Vec<_> = a.sessions[0]
                .ops
                .iter()
                .map(|op| (op.kind as u8, op.target))
                .collect();
            other_session
        });
    }

    #[test]
    fn key_table_and_transactions_have_the_stated_shape() {
        let w = find("cure_rotx").unwrap();
        let inputs = Inputs::generate_cycle(w, 1, 8192);
        assert_eq!(inputs.keys.len(), 20_001);
        assert_eq!(inputs.probe, 20_000);
        let partition = |k: u32| partition_for_key(inputs.keys[k as usize], 2).index();
        assert_eq!(partition(0), 0);
        assert_eq!(partition(9_999), 0);
        assert_eq!(partition(10_000), 1);
        assert_eq!(partition(inputs.probe), 0);
        let distinct: std::collections::HashSet<_> = inputs.keys.iter().collect();
        assert_eq!(distinct.len(), inputs.keys.len());

        for session in &inputs.sessions {
            assert!(!session.rotx.is_empty());
            for set in &session.rotx {
                let parts: Vec<_> = set.iter().map(|&k| partition(k)).collect();
                assert_eq!(parts, [0, 1, 0, 1]);
                let unique: std::collections::HashSet<_> = set.iter().collect();
                assert_eq!(unique.len(), ROTX_KEYS);
            }
            // Single-key operations stay on the home partition.
            for op in &session.ops {
                if op.kind != OpKind::RoTx {
                    assert_eq!(partition(op.target), 0);
                }
            }
        }
    }

    #[test]
    fn only_the_dc0_session_writes_the_probe_key_every_64th_op() {
        let w = find("tcp_pingpong").unwrap();
        let inputs = Inputs::generate_cycle(w, 3, 1024);
        let probes = |s: usize| -> Vec<usize> {
            inputs.sessions[s]
                .ops
                .iter()
                .enumerate()
                .filter(|(_, op)| op.target == inputs.probe)
                .map(|(i, _)| i)
                .collect()
        };
        assert_eq!(probes(0), (63..1024).step_by(64).collect::<Vec<_>>());
        assert!(probes(1).is_empty());
        assert!(inputs.sessions[0]
            .ops
            .iter()
            .all(|op| op.target != inputs.probe || op.kind == OpKind::Put));
        // The mix is 4:1 within sampling noise.
        let puts = inputs.sessions[1]
            .ops
            .iter()
            .filter(|op| op.kind == OpKind::Put)
            .count();
        assert!((150..260).contains(&puts), "{puts} PUTs in 1024 ops");
    }

    #[test]
    fn every_workload_has_a_valid_configuration() {
        for w in &WORKLOADS {
            let config = w.config();
            assert_eq!(config.num_replicas, w.replicas);
            assert_eq!(config.worker_lanes, w.worker_lanes);
            assert_eq!(config.storage_shards, 8);
            assert!(!config.replication_batching);
            assert!(
                w.why.len() <= 200,
                "{}: why is {} chars",
                w.name,
                w.why.len()
            );
            assert!(w.session_dcs.iter().all(|&dc| (dc as usize) < w.replicas));
        }
    }
}
