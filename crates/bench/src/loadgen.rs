//! The open-loop load generator: wall-clock benchmarking of the cluster runtime.
//!
//! Unlike the closed-loop simulator clients (which wait for each reply before thinking
//! about the next request), the load generator issues requests on a *fixed arrival
//! schedule* computed before the run starts. Every operation has an **intended start
//! time**; its reported latency is `completion − intended start`, not `completion −
//! actual send`. When the system falls behind, queueing delay is therefore charged to
//! the operations that suffered it — the classic fix for coordinated omission.
//!
//! Each connection is one OS thread owning one transport port ([`Cluster::open_port`])
//! and one client session, pinned to a single home server so the per-connection reply
//! stream is FIFO and replies can be matched to in-flight operations by order. Up to
//! `pipeline` operations are outstanding per connection; when the pipeline is full,
//! sends are deferred but intended timestamps are not — the deferral shows up as
//! latency, as it should.
//!
//! Three arrival shapes are registered ([`scenarios`]):
//!
//! * `steady` — a constant aggregate rate, split evenly across connections;
//! * `burst` — alternating quiet and burst phases (4× the base rate one quarter of the
//!   time, same average rate as `steady`), exercising the transport's write coalescing
//!   and the coordinated-omission accounting;
//! * `churn` — the steady schedule, but every connection periodically drains its
//!   pipeline, drops its socket and session, and reconnects as a fresh client.
//!
//! The result is folded into the same [`ScenarioReport`] → `BENCH_<name>.json` pipeline
//! as the simulator scenarios, so the schema validator, `compare_bench`, and CI artifact
//! handling apply unchanged.

use crate::scenarios::{PointResult, ScenarioReport, SEED};
use crate::Scale;
use pocc_protocol::{Client, ProtocolClient};
use pocc_runtime::{ClientPort, Cluster, TransportKind};
use pocc_sim::{LatencyStats, ProtocolKind, SimConfig, SimReport};
use pocc_storage::StoreStats;
use pocc_types::{Config, Key, LatencyMatrix, PartitionId, ServerId, Value};
use pocc_workload::KeySpace;
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------------------
// Scenario registry
// ---------------------------------------------------------------------------------------

/// The arrival-schedule shape of a load scenario.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Shape {
    /// Constant rate.
    Steady,
    /// Alternating quiet/burst phases averaging the target rate.
    Burst,
    /// Constant rate with periodic reconnects (new socket, new session).
    Churn,
}

/// A named load-generator scenario (`loadgen --scenario <name>`).
pub struct LoadScenario {
    /// The registry name (also the `BENCH_<name>.json` stem).
    pub name: &'static str,
    /// One-line description for `--list` output and the report title.
    pub title: &'static str,
    shape: Shape,
}

/// Every registered load scenario.
pub fn scenarios() -> &'static [LoadScenario] {
    &[
        LoadScenario {
            name: "loadgen_steady",
            title: "open-loop fixed-rate load through the cluster runtime",
            shape: Shape::Steady,
        },
        LoadScenario {
            name: "loadgen_burst",
            title: "open-loop bursty load (4x rate bursts, 25% duty cycle)",
            shape: Shape::Burst,
        },
        LoadScenario {
            name: "loadgen_churn",
            title: "open-loop fixed-rate load with periodic connection churn",
            shape: Shape::Churn,
        },
    ]
}

/// Looks a scenario up by name (`loadgen_` prefix optional).
pub fn find_scenario(name: &str) -> Option<&'static LoadScenario> {
    scenarios()
        .iter()
        .find(|s| s.name == name || s.name.strip_prefix("loadgen_") == Some(name))
}

// ---------------------------------------------------------------------------------------
// Options
// ---------------------------------------------------------------------------------------

/// A fully-specified load-generator run.
pub struct LoadOptions {
    /// The arrival-schedule scenario.
    pub scenario: &'static LoadScenario,
    /// The transport backend the cluster runs on.
    pub transport: TransportKind,
    /// The protocol under load.
    pub protocol: ProtocolKind,
    /// The scale label recorded in the report.
    pub scale: Scale,
    /// Number of data centers.
    pub replicas: usize,
    /// Number of partitions per data center.
    pub partitions: usize,
    /// Worker lanes per server: 1 runs the engine on the thread that delivers each
    /// request, more spreads client operations over that many lane threads.
    pub lanes: usize,
    /// Number of concurrent connections (threads); spread round-robin over all servers.
    pub conns: usize,
    /// Maximum in-flight operations per connection.
    pub pipeline: usize,
    /// Target aggregate arrival rate, operations per second.
    pub rate: f64,
    /// Warm-up: operations whose intended start falls in this window are not recorded.
    pub warmup: Duration,
    /// Measured window: the schedule covers `warmup + duration`.
    pub duration: Duration,
    /// GETs per PUT in the generated stream.
    pub gets_per_put: u32,
    /// Payload size of generated PUT values, in bytes.
    pub value_size: usize,
    /// Keys per partition (uniform popularity — the generator stresses the transport,
    /// not the cache hierarchy).
    pub keys_per_partition: u64,
    /// For the churn scenario: reconnect after this many operations per connection.
    pub churn_every: u64,
}

impl LoadOptions {
    /// Defaults sized for the CI smoke gate: a 2-DC deployment driven hard enough to
    /// exercise batching, finishing in a few seconds.
    pub fn smoke(scenario: &'static LoadScenario) -> LoadOptions {
        LoadOptions {
            scenario,
            transport: TransportKind::Tcp,
            protocol: ProtocolKind::Pocc,
            scale: Scale::Smoke,
            replicas: 2,
            partitions: 2,
            lanes: 1,
            conns: 8,
            pipeline: 32,
            rate: 60_000.0,
            warmup: Duration::from_millis(300),
            duration: Duration::from_secs(2),
            gets_per_put: 4,
            value_size: 64,
            keys_per_partition: 500,
            churn_every: 2_000,
        }
    }
}

// ---------------------------------------------------------------------------------------
// Arrival schedules
// ---------------------------------------------------------------------------------------

/// Intended start offsets (from run start) for one connection.
fn build_schedule(shape: Shape, conn_rate: f64, total: Duration) -> Vec<Duration> {
    assert!(conn_rate > 0.0, "per-connection rate must be positive");
    let mut schedule = Vec::with_capacity((conn_rate * total.as_secs_f64()) as usize + 1);
    let mut t = 0.0f64;
    let end = total.as_secs_f64();
    while t < end {
        schedule.push(Duration::from_secs_f64(t));
        let rate = match shape {
            Shape::Steady | Shape::Churn => conn_rate,
            Shape::Burst => {
                // 200 ms period: 150 ms at half rate, 50 ms at 2.5x — averages 1x.
                let phase = t % 0.2;
                if phase < 0.15 {
                    conn_rate * 0.5
                } else {
                    conn_rate * 2.5
                }
            }
        };
        t += 1.0 / rate;
    }
    schedule
}

// ---------------------------------------------------------------------------------------
// Per-connection driver
// ---------------------------------------------------------------------------------------

/// What one connection measured.
struct ConnResult {
    all: LatencyStats,
    get: LatencyStats,
    put: LatencyStats,
    measured_ops: u64,
    measured_gets: u64,
    measured_puts: u64,
    reinitialized: u64,
    reconnects: u64,
    /// Operations abandoned because the run deadline passed without a reply.
    lost: u64,
    /// Offset (from run start) of the last reply, for the achieved-window computation.
    last_reply: Duration,
}

impl ConnResult {
    fn new() -> ConnResult {
        ConnResult {
            all: LatencyStats::new(),
            get: LatencyStats::new(),
            put: LatencyStats::new(),
            measured_ops: 0,
            measured_gets: 0,
            measured_puts: 0,
            reinitialized: 0,
            reconnects: 0,
            lost: 0,
            last_reply: Duration::ZERO,
        }
    }
}

struct ConnDriver<'a> {
    cluster: &'a Cluster,
    home: ServerId,
    session: Client,
    port: Box<dyn ClientPort>,
    /// Intended start offsets, warmup included.
    schedule: &'a [Duration],
    start: Instant,
    warmup: Duration,
    pipeline: usize,
    /// Reconnect after this many sends (`None` outside the churn scenario).
    churn_every: Option<u64>,
    /// FIFO of in-flight operations: (intended start, is_put).
    inflight: VecDeque<(Duration, bool)>,
    keys: Vec<Key>,
    value: Value,
    gets_per_put: u32,
    result: ConnResult,
}

impl<'a> ConnDriver<'a> {
    /// Deterministic per-connection operation stream: operation `i` is a PUT every
    /// `gets_per_put + 1` slots, on a key chosen by a multiplicative hash of `i`.
    fn op(&self, i: usize) -> (Key, bool) {
        let h = (i as u64)
            .wrapping_add(SEED)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let key = self.keys[(h % self.keys.len() as u64) as usize];
        let is_put = (i as u64).is_multiple_of(self.gets_per_put as u64 + 1);
        (key, is_put)
    }

    fn reconnect(&mut self) {
        let (id, port) = self.cluster.open_port();
        let replicas = self.cluster.config().num_replicas;
        self.session = self.cluster.protocol().session(id, self.home, replicas);
        // Dropping the old port closes the socket / unregisters the reply route.
        self.port = port;
        self.result.reconnects += 1;
    }

    fn on_reply(&mut self, reply: pocc_proto::ClientReply, now: Duration) {
        let (intended, is_put) = self
            .inflight
            .pop_front()
            .expect("a reply implies an in-flight operation (FIFO per connection)");
        self.result.last_reply = now;
        match self.session.process_reply(&reply) {
            Ok(()) => {
                if intended >= self.warmup {
                    let latency = now.saturating_sub(intended);
                    self.result.all.record(latency);
                    self.result.measured_ops += 1;
                    if is_put {
                        self.result.put.record(latency);
                        self.result.measured_puts += 1;
                    } else {
                        self.result.get.record(latency);
                        self.result.measured_gets += 1;
                    }
                }
            }
            Err(_) => {
                // Session aborted by the server: re-initialise, as §III-B prescribes.
                self.session.reinitialize();
                self.result.reinitialized += 1;
            }
        }
    }

    fn run(mut self) -> ConnResult {
        let deadline = *self.schedule.last().unwrap() + Duration::from_secs(10);
        let mut sent = 0usize;
        let mut done = 0usize;
        // Operations sent since the last (re)connect, for the churn scenario.
        let mut since_reconnect = 0u64;
        while done < self.schedule.len() {
            let now = self.start.elapsed();
            if now > deadline {
                self.result.lost += (self.schedule.len() - done) as u64;
                break;
            }

            // A churn boundary reconnects only once the pipeline is drained, so no
            // in-flight reply is orphaned on the closed socket.
            let churn_due = self
                .churn_every
                .map(|every| since_reconnect >= every && sent < self.schedule.len())
                .unwrap_or(false);
            if churn_due {
                if self.inflight.is_empty() {
                    self.reconnect();
                    since_reconnect = 0;
                }
                // Draining: fall through to the receive side without sending.
            } else {
                // Send every operation that is due, up to the pipeline window. Intended
                // timestamps come from the schedule regardless of when the send happens.
                while sent < self.schedule.len()
                    && self.schedule[sent] <= now
                    && self.inflight.len() < self.pipeline
                {
                    let (key, is_put) = self.op(sent);
                    let request = if is_put {
                        self.session.put(key, self.value.clone())
                    } else {
                        self.session.get(key)
                    };
                    if self.port.submit(self.home, request).is_ok() {
                        self.inflight.push_back((self.schedule[sent], is_put));
                    } else {
                        // Broken socket: this operation and every in-flight reply are
                        // gone. Reconnect and move on.
                        self.result.lost += self.inflight.len() as u64 + 1;
                        done += self.inflight.len() + 1;
                        self.inflight.clear();
                        self.reconnect();
                        since_reconnect = 0;
                    }
                    sent += 1;
                    since_reconnect += 1;
                    if self
                        .churn_every
                        .map(|every| since_reconnect >= every)
                        .unwrap_or(false)
                    {
                        break;
                    }
                }
            }

            // Wait for a reply until the next send is due (capped so a quiet schedule
            // still polls the pipeline at least once a millisecond).
            let until_next = if sent < self.schedule.len() && self.inflight.len() < self.pipeline {
                self.schedule[sent].saturating_sub(now)
            } else {
                Duration::from_millis(1)
            };
            let timeout = until_next.min(Duration::from_millis(1));
            // On timeout, loop around and send what is due.
            if let Ok(reply) = self.port.recv_timeout(timeout) {
                self.on_reply(reply, self.start.elapsed());
                done += 1;
                // Drain whatever else is already queued before going back to sending.
                while done < self.schedule.len() {
                    match self.port.recv_timeout(Duration::ZERO) {
                        Ok(reply) => {
                            self.on_reply(reply, self.start.elapsed());
                            done += 1;
                        }
                        Err(_) => break,
                    }
                }
            }
        }
        self.result
    }
}

// ---------------------------------------------------------------------------------------
// The run: cluster + threads + report assembly
// ---------------------------------------------------------------------------------------

fn convergence_digests_agree(cluster: &Cluster) -> bool {
    let probes = cluster.probe_all();
    let config = cluster.config();
    for p in 0..config.num_partitions {
        let partition: Vec<_> = probes
            .iter()
            .filter(|(id, _)| id.partition == PartitionId(p as u32))
            .collect();
        if partition.windows(2).any(|w| w[0].1.digest != w[1].1.digest) {
            return false;
        }
    }
    true
}

/// Runs one load-generator point and folds the measurements into a [`ScenarioReport`]
/// (single point, `x` = target aggregate rate) that passes the BENCH schema validator.
pub fn run(options: &LoadOptions) -> ScenarioReport {
    assert!(options.replicas >= 1 && options.partitions >= 1);
    assert!(options.conns >= 1 && options.pipeline >= 1 && options.lanes >= 1);

    let deployment = Config::builder()
        .num_replicas(options.replicas)
        .num_partitions(options.partitions)
        .worker_lanes(options.lanes)
        .latency(LatencyMatrix::uniform(
            options.replicas,
            Duration::from_micros(100),
            Duration::from_millis(5),
        ))
        .build()
        .expect("load-generator deployment is valid");

    let cluster = Cluster::builder()
        .config(deployment.clone())
        .protocol(options.protocol)
        .transport(options.transport)
        .start();

    let keyspace = KeySpace::new(options.partitions, options.keys_per_partition);
    let servers: Vec<ServerId> = deployment.servers().collect();
    let conn_rate = options.rate / options.conns as f64;
    let total = options.warmup + options.duration;
    let churn_every = match options.scenario.shape {
        Shape::Churn => Some(options.churn_every),
        _ => None,
    };

    // Schedules are built before the clock starts: the arrival process is fixed
    // up front, which is what makes the latency capture coordinated-omission-safe.
    let schedules: Vec<Vec<Duration>> = (0..options.conns)
        .map(|_| build_schedule(options.scenario.shape, conn_rate, total))
        .collect();
    let value = Value::from(vec![0x5A_u8; options.value_size]);
    let start = Instant::now();

    let cluster = Arc::new(cluster);
    let results: Vec<ConnResult> = std::thread::scope(|scope| {
        let handles: Vec<_> = schedules
            .iter()
            .enumerate()
            .map(|(c, schedule)| {
                let home = servers[c % servers.len()];
                let cluster = Arc::clone(&cluster);
                let value = value.clone();
                scope.spawn(move || {
                    let (id, port) = cluster.open_port();
                    // Each connection works the key range of its home partition only, so
                    // every request is served without cross-partition forwarding.
                    let keys: Vec<Key> = (0..keyspace.keys_per_partition())
                        .map(|rank| keyspace.key(home.partition, rank))
                        .collect();
                    ConnDriver {
                        cluster: &cluster,
                        home,
                        session: options.protocol.session(id, home, options.replicas),
                        port,
                        schedule,
                        start,
                        warmup: options.warmup,
                        pipeline: options.pipeline,
                        churn_every,
                        inflight: VecDeque::new(),
                        keys,
                        value,
                        gets_per_put: options.gets_per_put,
                        result: ConnResult::new(),
                    }
                    .run()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load connection threads do not panic"))
            .collect()
    });

    // Achieved measurement window: warm-up end to the last recorded reply.
    let last_reply = results
        .iter()
        .map(|r| r.last_reply)
        .max()
        .unwrap_or(total)
        .max(total);
    let window = last_reply - options.warmup;

    let mut all = LatencyStats::new();
    let mut get = LatencyStats::new();
    let mut put = LatencyStats::new();
    let mut ops = 0u64;
    let mut gets = 0u64;
    let mut puts = 0u64;
    let mut reinitialized = 0u64;
    let mut lost = 0u64;
    for r in &results {
        all.merge(&r.all);
        get.merge(&r.get);
        put.merge(&r.put);
        ops += r.measured_ops;
        gets += r.measured_gets;
        puts += r.measured_puts;
        reinitialized += r.reinitialized;
        lost += r.lost;
    }
    if lost > 0 {
        eprintln!("warning: {lost} operations received no reply before the run deadline");
    }

    // Let replication drain, then check that every replica of every partition holds the
    // same latest-version digest — the load generator doubles as a convergence check.
    let converged = {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            if convergence_digests_agree(&cluster) {
                break true;
            }
            if Instant::now() > deadline {
                break false;
            }
            std::thread::sleep(Duration::from_millis(50));
        }
    };

    let probes = cluster.probe_all();
    let mut metrics = pocc_proto::MetricsSnapshot::default();
    let mut store = StoreStats::default();
    let mut store_shards: Vec<StoreStats> = Vec::with_capacity(probes.len());
    for (_, probe) in &probes {
        metrics.merge(&probe.metrics);
        store.merge(&probe.store_stats);
        // One pseudo-shard entry per server: shows how the load spread over servers.
        store_shards.push(probe.store_stats);
    }
    // Wire-level traffic: the servers count replication/heartbeat/GC bytes; the channel
    // transport has no socket counters, so this is the comparable figure on both.
    let network = pocc_net::NetworkStats {
        messages_sent: metrics.replicate_sent
            + metrics.heartbeats_sent
            + metrics.stabilization_messages
            + metrics.gc_messages,
        wan_messages: metrics.replicate_sent + metrics.heartbeats_sent,
        bytes_sent: metrics.bytes_sent,
        held_messages: 0,
        dropped_messages: 0,
        duplicated_messages: 0,
    };

    let report = SimReport {
        protocol: options.protocol,
        replicas: options.replicas,
        partitions: options.partitions,
        clients: options.conns,
        measured_window: window,
        operations_completed: ops,
        gets_completed: gets,
        puts_completed: puts,
        rotx_completed: 0,
        sessions_reinitialized: reinitialized,
        throughput_ops_per_sec: ops as f64 / window.as_secs_f64(),
        latency_all: all,
        latency_get: get,
        latency_put: put,
        latency_rotx: LatencyStats::new(),
        server_metrics: metrics,
        network,
        store,
        store_shards,
        consistency_violations: 0,
        converged,
    };

    // The config block of the JSON point documents the run's actual dimensions.
    let config = SimConfig {
        protocol: options.protocol,
        deployment,
        clients_per_partition: options
            .conns
            .div_ceil(options.partitions * options.replicas),
        mix: crate::get_put(options.gets_per_put as usize),
        zipf_theta: 0.0,
        keys_per_partition: options.keys_per_partition,
        value_size: options.value_size,
        think_time: Duration::ZERO,
        warmup: options.warmup,
        duration: options.duration,
        drain: Duration::ZERO,
        seed: SEED,
        ..SimConfig::default()
    };

    let label = format!(
        "{}-{}-{}x{}",
        options.protocol,
        options.transport.name(),
        options.replicas,
        options.partitions,
    );

    match Arc::try_unwrap(cluster) {
        Ok(cluster) => cluster.shutdown(),
        Err(_) => unreachable!("all connection threads joined before shutdown"),
    }

    ScenarioReport {
        scenario: options.scenario.name,
        title: options.scenario.title,
        x_axis: "target ops/sec",
        scale: options.scale,
        points: vec![PointResult {
            label,
            x: options.rate,
            config,
            report,
        }],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn tiny(scenario: &'static LoadScenario, transport: TransportKind) -> LoadOptions {
        LoadOptions {
            transport,
            rate: 2_000.0,
            conns: 2,
            pipeline: 8,
            warmup: Duration::from_millis(50),
            duration: Duration::from_millis(250),
            keys_per_partition: 64,
            churn_every: 100,
            ..LoadOptions::smoke(scenario)
        }
    }

    #[test]
    fn schedules_match_shape_and_rate() {
        let steady = build_schedule(Shape::Steady, 1_000.0, Duration::from_secs(1));
        assert!((999..=1001).contains(&steady.len()), "{}", steady.len());
        assert!(steady.windows(2).all(|w| w[0] < w[1]));
        // The burst schedule averages the same rate but is not evenly spaced.
        let burst = build_schedule(Shape::Burst, 1_000.0, Duration::from_secs(1));
        let diff = (burst.len() as i64 - steady.len() as i64).abs();
        assert!(diff < 100, "burst={} steady={}", burst.len(), steady.len());
        let gaps: Vec<Duration> = burst.windows(2).map(|w| w[1] - w[0]).collect();
        assert!(gaps.iter().max().unwrap() > gaps.iter().min().unwrap());
    }

    #[test]
    fn steady_channel_run_produces_valid_report() {
        let report = run(&tiny(
            find_scenario("steady").unwrap(),
            TransportKind::Channel,
        ));
        let point = &report.points[0];
        assert!(point.report.operations_completed > 0);
        assert!(point.report.converged, "replicas converged after the run");
        assert!(point.report.latency_all.count() > 0);
        json::validate_report(&report.to_json()).expect("loadgen report passes the schema");
    }

    #[test]
    fn churn_tcp_run_reconnects_and_validates() {
        let mut options = tiny(find_scenario("churn").unwrap(), TransportKind::Tcp);
        options.churn_every = 50;
        let report = run(&options);
        let point = &report.points[0];
        assert!(point.report.operations_completed > 0);
        json::validate_report(&report.to_json()).expect("loadgen report passes the schema");
    }

    #[test]
    fn steady_tcp_run_on_worker_lanes_converges() {
        let mut options = tiny(find_scenario("steady").unwrap(), TransportKind::Tcp);
        options.lanes = 2;
        let report = run(&options);
        let point = &report.points[0];
        assert!(point.report.operations_completed > 0);
        assert!(point.report.converged, "replicas converged after the run");
        json::validate_report(&report.to_json()).expect("loadgen report passes the schema");
    }

    #[test]
    fn registry_lookup_accepts_short_and_full_names() {
        assert!(find_scenario("steady").is_some());
        assert!(find_scenario("loadgen_burst").is_some());
        assert!(find_scenario("nope").is_none());
    }
}
