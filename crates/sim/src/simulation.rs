//! The simulation engine: builds a deployment and runs the event loop.

use crate::chaos::{ChaosAction, ChaosStep};
use crate::config::SimConfig;
use crate::consistency::ConsistencyChecker;
use crate::event::{Event, EventQueue};
use crate::metrics::LatencyStats;
use crate::report::SimReport;
use pocc_clock::{ClockFactory, ManualClock};
use pocc_net::{LatencyModel, SimNetwork};
use pocc_proto::{
    ClientReply, ClientRequest, Envelope, InstrumentedServer, MetricsSnapshot, ProtocolClient,
    ServerMessage, ServerOutput,
};
use pocc_protocol::Client;
use pocc_storage::StoreStats;
use pocc_types::{ClientId, Key, ServerId, Timestamp};
use pocc_workload::{KeySpace, OperationKind, WorkloadGenerator};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::time::Duration;

/// CPU time a server spends handling one replicated update, heartbeat, other server
/// message, or tick.
const REPLICATION_SERVICE_TIME: Duration = Duration::from_micros(10);

/// Extra CPU time per version-chain element traversed when searching for a visible
/// version (Cure\* pays this; POCC GETs do not traverse the chain).
const CHAIN_TRAVERSAL_COST: Duration = Duration::from_micros(2);

/// Which kind of client operation is in flight, for latency classification.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum OpKind {
    Get,
    Put,
    RoTx,
}

/// One operation in flight at a client.
#[derive(Clone, Debug)]
struct Outstanding {
    kind: OpKind,
    issued_at: Timestamp,
    /// The key of a GET or PUT (unused for RO-TX, whose keys come back in the reply).
    key: Option<Key>,
}

struct ServerEntry {
    server: Box<dyn InstrumentedServer>,
    busy_until: Timestamp,
}

struct ClientEntry {
    session: Client,
    generator: WorkloadGenerator,
    home: ServerId,
    outstanding: Option<Outstanding>,
    reinitializations: u64,
}

enum Work {
    Client {
        client: usize,
        request: ClientRequest,
    },
    Message {
        from: ServerId,
        message: ServerMessage,
    },
    Tick,
}

/// A single simulation run. Create it from a [`SimConfig`] and call [`Simulation::run`].
pub struct Simulation {
    cfg: SimConfig,
    queue: EventQueue,
    base_clock: ManualClock,
    servers: HashMap<ServerId, ServerEntry>,
    clients: Vec<ClientEntry>,
    network: SimNetwork,
    checker: Option<ConsistencyChecker>,

    warmup_end: Timestamp,
    measure_end: Timestamp,
    end: Timestamp,
    warmup_snapshot: Option<MetricsSnapshot>,

    latency_all: LatencyStats,
    latency_get: LatencyStats,
    latency_put: LatencyStats,
    latency_rotx: LatencyStats,
    gets_completed: u64,
    puts_completed: u64,
    rotx_completed: u64,
    reinits_in_window: u64,
}

impl Simulation {
    /// Builds a simulation from its configuration.
    pub fn new(cfg: SimConfig) -> Self {
        let deployment = cfg.deployment.clone();
        let mut factory = ClockFactory::new(cfg.max_clock_skew, cfg.seed ^ 0xC10C);
        let base_clock = factory.base();

        let mut servers = HashMap::new();
        for id in deployment.servers() {
            let clock = factory.clock_for();
            let server = cfg.protocol.server(id, deployment.clone(), clock);
            servers.insert(
                id,
                ServerEntry {
                    server,
                    busy_until: Timestamp::ZERO,
                },
            );
        }

        let keyspace = KeySpace::new(deployment.num_partitions, cfg.keys_per_partition);
        let mut clients = Vec::with_capacity(cfg.total_clients());
        let mut next_client = 0u64;
        for replica in deployment.replicas() {
            for partition in deployment.partitions() {
                for _ in 0..cfg.clients_per_partition {
                    let home = ServerId::new(replica, partition);
                    let id = ClientId(next_client);
                    let generator = WorkloadGenerator::new(
                        keyspace,
                        cfg.zipf_theta,
                        cfg.mix,
                        cfg.seed.wrapping_mul(1_000_003).wrapping_add(next_client),
                    )
                    .with_value_size(cfg.value_size);
                    let session = cfg.protocol.session(id, home, deployment.num_replicas);
                    clients.push(ClientEntry {
                        session,
                        generator,
                        home,
                        outstanding: None,
                        reinitializations: 0,
                    });
                    next_client += 1;
                }
            }
        }

        let network = SimNetwork::new(LatencyModel::with_jitter(
            deployment.latency.clone(),
            cfg.network_jitter,
            cfg.seed ^ 0x9E7,
        ));

        let warmup_end = Timestamp::from(cfg.warmup);
        let measure_end = warmup_end + cfg.duration;
        let end = measure_end + cfg.drain;

        let checker = cfg.check_consistency.then(ConsistencyChecker::new);

        let mut sim = Simulation {
            cfg,
            queue: EventQueue::new(),
            base_clock,
            servers,
            clients,
            network,
            checker,
            warmup_end,
            measure_end,
            end,
            warmup_snapshot: None,
            latency_all: LatencyStats::new(),
            latency_get: LatencyStats::new(),
            latency_put: LatencyStats::new(),
            latency_rotx: LatencyStats::new(),
            gets_completed: 0,
            puts_completed: 0,
            rotx_completed: 0,
            reinits_in_window: 0,
        };
        sim.schedule_initial_events();
        sim
    }

    fn schedule_initial_events(&mut self) {
        let mut rng = StdRng::seed_from_u64(self.cfg.seed ^ 0x57A6);
        let think = self.cfg.think_time.as_micros() as u64;
        for idx in 0..self.clients.len() {
            let stagger = if think == 0 {
                0
            } else {
                rng.gen_range(0..think.max(1))
            };
            self.queue
                .push(Timestamp(stagger), Event::ClientWake { client: idx });
        }
        let tick = self.cfg.deployment.heartbeat_interval;
        for (i, id) in self.cfg.deployment.servers().enumerate() {
            let offset = Duration::from_micros((i as u64 % 97) * 7);
            self.queue.push(
                Timestamp::from(tick) + offset,
                Event::ServerTick { server: id },
            );
        }
        let chaos = self.cfg.chaos.clone();
        for step in chaos.steps {
            self.schedule_chaos_step(step);
        }
    }

    /// Lowers one declarative chaos step into queue events: partitions and heals map to
    /// the network's partition events, windows become a begin/end action pair, restarts a
    /// single action.
    fn schedule_chaos_step(&mut self, step: ChaosStep) {
        match step {
            ChaosStep::Partition { at, a, b } => {
                self.queue
                    .push(Timestamp::from(at), Event::InjectPartition { a, b });
            }
            ChaosStep::Heal { at, a, b } => {
                self.queue
                    .push(Timestamp::from(at), Event::HealPartition { a, b });
            }
            ChaosStep::LagSpike {
                at,
                until,
                a,
                b,
                extra,
            } => {
                self.queue.push(
                    Timestamp::from(at),
                    Event::Chaos(ChaosAction::BeginLag { a, b, extra }),
                );
                self.queue.push(
                    Timestamp::from(until),
                    Event::Chaos(ChaosAction::EndLag { a, b }),
                );
            }
            ChaosStep::DropWindow { at, until, a, b } => {
                self.queue.push(
                    Timestamp::from(at),
                    Event::Chaos(ChaosAction::BeginDrop { a, b }),
                );
                self.queue.push(
                    Timestamp::from(until),
                    Event::Chaos(ChaosAction::EndDrop { a, b }),
                );
            }
            ChaosStep::DupWindow { at, until, a, b } => {
                self.queue.push(
                    Timestamp::from(at),
                    Event::Chaos(ChaosAction::BeginDup { a, b }),
                );
                self.queue.push(
                    Timestamp::from(until),
                    Event::Chaos(ChaosAction::EndDup { a, b }),
                );
            }
            ChaosStep::Restart {
                at,
                replica,
                outage,
            } => {
                self.queue.push(
                    Timestamp::from(at),
                    Event::Chaos(ChaosAction::Restart { replica, outage }),
                );
            }
        }
    }

    /// Runs the simulation to completion and returns the report.
    pub fn run(mut self) -> SimReport {
        while let Some((at, event)) = self.queue.pop() {
            if at > self.end {
                break;
            }
            if self.warmup_snapshot.is_none() && at >= self.warmup_end {
                self.warmup_snapshot = Some(self.aggregate_server_metrics());
            }
            self.handle_event(at, event);
        }
        self.finish()
    }

    fn handle_event(&mut self, now: Timestamp, event: Event) {
        match event {
            Event::ClientWake { client } => self.client_wake(client, now),
            Event::RequestArrival {
                server,
                client,
                request,
            } => self.process_at_server(server, now, Work::Client { client, request }),
            Event::ReplyArrival { client, reply } => self.reply_arrival(client, reply, now),
            Event::MessageArrival { envelope } => {
                let to = envelope.to;
                self.process_at_server(
                    to,
                    now,
                    Work::Message {
                        from: envelope.from,
                        message: envelope.message,
                    },
                );
            }
            Event::ServerTick { server } => {
                self.process_at_server(server, now, Work::Tick);
                let next = now + self.cfg.deployment.heartbeat_interval;
                if next <= self.end {
                    self.queue.push(next, Event::ServerTick { server });
                }
            }
            Event::InjectPartition { a, b } => self.network.partition(a, b),
            Event::HealPartition { a, b } => {
                for (at, envelope) in self.network.heal(a, b, now) {
                    self.queue.push(at, Event::MessageArrival { envelope });
                }
            }
            Event::Chaos(action) => self.apply_chaos(action, now),
        }
    }

    fn apply_chaos(&mut self, action: ChaosAction, now: Timestamp) {
        match action {
            ChaosAction::BeginLag { a, b, extra } => self.network.set_lag(a, b, extra),
            ChaosAction::EndLag { a, b } => self.network.clear_lag(a, b),
            ChaosAction::BeginDrop { a, b } => self.network.set_drop(a, b),
            ChaosAction::EndDrop { a, b } => self.network.clear_drop(a, b),
            ChaosAction::BeginDup { a, b } => self.network.set_duplicate(a, b),
            ChaosAction::EndDup { a, b } => self.network.clear_duplicate(a, b),
            ChaosAction::Restart { replica, outage } => {
                // A rolling restart of one data center: every server freezes (requests
                // queue behind `busy_until`) while its durable state survives, then the
                // backlog drains.
                let frozen_until = now + outage;
                for entry in self
                    .servers
                    .iter_mut()
                    .filter(|(id, _)| id.replica == replica)
                    .map(|(_, entry)| entry)
                {
                    entry.busy_until = entry.busy_until.max(frozen_until);
                }
            }
        }
    }

    // -----------------------------------------------------------------------------------
    // Clients
    // -----------------------------------------------------------------------------------

    fn routing_delay(&self, home: ServerId, target: ServerId) -> Duration {
        if home == target {
            Duration::from_micros(1)
        } else {
            self.cfg.deployment.latency.intra_dc
        }
    }

    fn client_wake(&mut self, idx: usize, now: Timestamp) {
        if now >= self.measure_end {
            // The measured window is over: the client stops issuing new operations so the
            // system can drain before convergence checks.
            return;
        }
        let (request, target, outstanding) = {
            let entry = &mut self.clients[idx];
            if entry.outstanding.is_some() {
                // The previous operation has not completed (it may be blocked server-side);
                // a closed-loop client never pipelines. Try again after a think time.
                let retry = now + self.cfg.think_time;
                self.queue.push(retry, Event::ClientWake { client: idx });
                return;
            }
            let op = entry.generator.next_operation();
            let target = ServerId::new(entry.home.replica, op.target_partition);
            let (request, kind, key) = match op.kind {
                OperationKind::Get { key } => (entry.session.get(key), OpKind::Get, Some(key)),
                OperationKind::Put { key, value } => {
                    (entry.session.put(key, value), OpKind::Put, Some(key))
                }
                OperationKind::RoTx { keys } => (entry.session.ro_tx(keys), OpKind::RoTx, None),
            };
            entry.outstanding = Some(Outstanding {
                kind,
                issued_at: now,
                key,
            });
            (request, target, entry.home)
        };
        let delay = self.routing_delay(outstanding, target);
        self.queue.push(
            now + delay,
            Event::RequestArrival {
                server: target,
                client: idx,
                request,
            },
        );
    }

    fn reply_arrival(&mut self, idx: usize, reply: ClientReply, now: Timestamp) {
        let client_id = self.clients[idx].session.client_id();
        let home_replica = self.clients[idx].home.replica;
        let outstanding = self.clients[idx].outstanding.take();

        // Feed the checker before updating the session (it needs the pre-read state only
        // for its own bookkeeping, which it manages internally).
        if let Some(checker) = self.checker.as_mut() {
            let key = outstanding.as_ref().and_then(|o| o.key);
            checker.record_reply(client_id, home_replica, key, &reply);
        }

        let aborted = {
            let entry = &mut self.clients[idx];
            match entry.session.process_reply(&reply) {
                Ok(()) => false,
                Err(_) => {
                    entry.session.reinitialize();
                    entry.reinitializations += 1;
                    true
                }
            }
        };
        if aborted {
            if let Some(checker) = self.checker.as_mut() {
                checker.reset_session(client_id);
            }
            if now >= self.warmup_end && now <= self.measure_end {
                self.reinits_in_window += 1;
            }
        } else if let Some(outstanding) = outstanding {
            if outstanding.issued_at >= self.warmup_end && now <= self.measure_end {
                let latency = now.saturating_since(outstanding.issued_at);
                self.latency_all.record(latency);
                match outstanding.kind {
                    OpKind::Get => {
                        self.gets_completed += 1;
                        self.latency_get.record(latency);
                    }
                    OpKind::Put => {
                        self.puts_completed += 1;
                        self.latency_put.record(latency);
                    }
                    OpKind::RoTx => {
                        self.rotx_completed += 1;
                        self.latency_rotx.record(latency);
                    }
                }
            }
        }

        let next = now + self.cfg.think_time;
        self.queue.push(next, Event::ClientWake { client: idx });
    }

    // -----------------------------------------------------------------------------------
    // Servers
    // -----------------------------------------------------------------------------------

    fn service_time(&self, work: &Work) -> Duration {
        match work {
            Work::Client { .. }
            | Work::Message {
                message: ServerMessage::SliceRequest { .. },
                ..
            } => self.cfg.op_service_time,
            Work::Message { .. } | Work::Tick => REPLICATION_SERVICE_TIME,
        }
    }

    fn process_at_server(&mut self, server: ServerId, arrival: Timestamp, work: Work) {
        let service = self.service_time(&work);
        let busy_until = self
            .servers
            .get(&server)
            .expect("event for a server of this deployment")
            .busy_until;
        let start = arrival.max(busy_until);
        let nominal_completion = start + service;

        // The server sees its (skewed) clock at the moment it processes the work.
        self.base_clock.set(nominal_completion);

        let (outputs, extra_work) = {
            let entry = self.servers.get_mut(&server).expect("server exists");
            let outputs = match work {
                Work::Client { client, request } => {
                    let client_id = self.clients[client].session.client_id();
                    entry.server.handle_client_request(client_id, request)
                }
                Work::Message { from, message } => {
                    entry.server.handle_server_message(from, message)
                }
                Work::Tick => entry.server.tick(),
            };
            (outputs, entry.server.take_extra_work())
        };

        let completion = nominal_completion + CHAIN_TRAVERSAL_COST * extra_work as u32;
        self.servers
            .get_mut(&server)
            .expect("server exists")
            .busy_until = completion;

        self.dispatch_outputs(server, completion, outputs);
    }

    fn dispatch_outputs(&mut self, from: ServerId, at: Timestamp, outputs: Vec<ServerOutput>) {
        for output in outputs {
            match output {
                ServerOutput::Reply { client, reply } => {
                    let idx = client.raw() as usize;
                    let home = self.clients[idx].home;
                    let delay = self.routing_delay(home, from);
                    self.queue
                        .push(at + delay, Event::ReplyArrival { client: idx, reply });
                }
                ServerOutput::Send { to, message } => {
                    let envelope = Envelope::new(from, to, at, message);
                    for (deliver_at, envelope) in self.network.send(envelope, at) {
                        self.queue
                            .push(deliver_at, Event::MessageArrival { envelope });
                    }
                }
            }
        }
    }

    // -----------------------------------------------------------------------------------
    // Reporting
    // -----------------------------------------------------------------------------------

    fn aggregate_server_metrics(&self) -> MetricsSnapshot {
        let mut total = MetricsSnapshot::default();
        for entry in self.servers.values() {
            total.merge(&entry.server.metrics());
        }
        total
    }

    /// Sums store statistics over every server: the aggregate, plus the per-shard view
    /// (element `i` accumulates shard `i` of all servers).
    fn aggregate_store_stats(&self) -> (StoreStats, Vec<StoreStats>) {
        let mut store = StoreStats::default();
        let mut shards: Vec<StoreStats> = Vec::new();
        for entry in self.servers.values() {
            store.merge(&entry.server.store_stats());
            for (i, sh) in entry.server.shard_stats().into_iter().enumerate() {
                if shards.len() <= i {
                    shards.resize(i + 1, StoreStats::default());
                }
                shards[i].merge(&sh);
            }
        }
        (store, shards)
    }

    fn check_convergence(&self) -> bool {
        for partition in self.cfg.deployment.partitions() {
            let mut digests = Vec::new();
            for replica in self.cfg.deployment.replicas() {
                let id = ServerId::new(replica, partition);
                digests.push(self.servers[&id].server.digest());
            }
            if digests.windows(2).any(|w| w[0] != w[1]) {
                return false;
            }
        }
        true
    }

    fn finish(self) -> SimReport {
        let final_metrics = self.aggregate_server_metrics();
        let baseline = self.warmup_snapshot.clone().unwrap_or_default();
        let delta = final_metrics.delta_since(&baseline);

        let operations_completed = self.gets_completed + self.puts_completed + self.rotx_completed;
        let window = self.cfg.duration;
        let throughput = if window.is_zero() {
            0.0
        } else {
            operations_completed as f64 / window.as_secs_f64()
        };

        let consistency_violations = self
            .checker
            .as_ref()
            .map(|c| c.violations().len() as u64)
            .unwrap_or(0);
        let converged = self.check_convergence();
        let network = self.network.stats();
        let (store, store_shards) = self.aggregate_store_stats();

        SimReport {
            protocol: self.cfg.protocol,
            replicas: self.cfg.deployment.num_replicas,
            partitions: self.cfg.deployment.num_partitions,
            clients: self.clients.len(),
            measured_window: window,
            operations_completed,
            gets_completed: self.gets_completed,
            puts_completed: self.puts_completed,
            rotx_completed: self.rotx_completed,
            sessions_reinitialized: self.reinits_in_window,
            throughput_ops_per_sec: throughput,
            latency_all: self.latency_all,
            latency_get: self.latency_get,
            latency_put: self.latency_put,
            latency_rotx: self.latency_rotx,
            server_metrics: delta,
            network,
            store,
            store_shards,
            consistency_violations,
            converged,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pocc_exec::ProtocolKind;
    use pocc_types::ReplicaId;
    use pocc_workload::WorkloadMix;

    fn quick_config(protocol: ProtocolKind) -> SimConfig {
        SimConfig::builder()
            .protocol(protocol)
            .partitions(2)
            .clients_per_partition(2)
            .keys_per_partition(100)
            .warmup(Duration::from_millis(100))
            .duration(Duration::from_millis(400))
            .drain(Duration::from_millis(400))
            .think_time(Duration::from_millis(5))
            .check_consistency(true)
            .seed(11)
            .build()
    }

    #[test]
    fn pocc_simulation_completes_operations_without_violations() {
        let report = Simulation::new(quick_config(ProtocolKind::Pocc)).run();
        assert!(report.operations_completed > 50, "{}", report.summary());
        assert!(report.throughput_ops_per_sec > 0.0);
        assert_eq!(report.consistency_violations, 0);
        assert!(report.converged, "replicas must converge after draining");
        assert!(report.server_metrics.puts_served > 0);
        assert!(report.server_metrics.replicate_sent > 0);
        // Store statistics are aggregated over every server and every shard.
        assert!(report.store.keys > 0);
        assert!(report.store.versions >= report.store.keys);
        assert_eq!(report.store_shards.len(), 8, "default shard count");
        assert_eq!(
            report
                .store_shards
                .iter()
                .map(|s| s.versions)
                .sum::<usize>(),
            report.store.versions
        );
    }

    #[test]
    fn cure_simulation_completes_operations_without_violations() {
        let report = Simulation::new(quick_config(ProtocolKind::Cure)).run();
        assert!(report.operations_completed > 50);
        assert_eq!(report.consistency_violations, 0);
        assert!(report.converged);
        // The stabilization protocol must actually run.
        assert!(report.server_metrics.stabilization_messages > 0);
    }

    #[test]
    fn ha_pocc_simulation_runs_clean_without_partitions() {
        let report = Simulation::new(quick_config(ProtocolKind::HaPocc)).run();
        assert!(report.operations_completed > 50);
        assert_eq!(report.consistency_violations, 0);
        assert!(report.converged);
    }

    #[test]
    fn adaptive_simulation_completes_operations_without_violations() {
        let report = Simulation::new(quick_config(ProtocolKind::Adaptive)).run();
        assert!(report.operations_completed > 50);
        assert_eq!(report.consistency_violations, 0);
        assert!(report.converged);
        // The stabilization protocol behind the stable fall-back must actually run.
        assert!(report.server_metrics.stabilization_messages > 0);
    }

    #[test]
    fn transactional_workload_completes_transactions() {
        let cfg = SimConfig::builder()
            .protocol(ProtocolKind::Pocc)
            .partitions(4)
            .clients_per_partition(2)
            .keys_per_partition(100)
            .mix(WorkloadMix::TxPut {
                partitions_per_tx: 3,
            })
            .warmup(Duration::from_millis(100))
            .duration(Duration::from_millis(400))
            .drain(Duration::from_millis(400))
            .think_time(Duration::from_millis(5))
            .check_consistency(true)
            .seed(3)
            .build();
        let report = Simulation::new(cfg).run();
        assert!(report.rotx_completed > 10);
        assert!(report.puts_completed > 10);
        assert_eq!(report.consistency_violations, 0);
        assert!(report.server_metrics.slices_served > 0);
    }

    #[test]
    fn scripted_chaos_stays_clean_and_convergent() {
        // One window of each disturbance, all over before the drain starts (the measured
        // window ends at 500ms, the drain at 900ms).
        let r = ReplicaId;
        let ms = Duration::from_millis;
        let cfg = SimConfig::builder()
            .protocol(ProtocolKind::Pocc)
            .partitions(2)
            .clients_per_partition(2)
            .keys_per_partition(100)
            .warmup(Duration::from_millis(100))
            .duration(Duration::from_millis(400))
            .drain(Duration::from_millis(400))
            .think_time(Duration::from_millis(5))
            .check_consistency(true)
            .seed(11)
            .chaos_step(ChaosStep::LagSpike {
                at: ms(120),
                until: ms(200),
                a: r(0),
                b: r(1),
                extra: ms(25),
            })
            .chaos_step(ChaosStep::DropWindow {
                at: ms(150),
                until: ms(260),
                a: r(1),
                b: r(2),
            })
            .chaos_step(ChaosStep::DupWindow {
                at: ms(200),
                until: ms(320),
                a: r(0),
                b: r(2),
            })
            .chaos_step(ChaosStep::Partition {
                at: ms(250),
                a: r(0),
                b: r(1),
            })
            .chaos_step(ChaosStep::Heal {
                at: ms(380),
                a: r(0),
                b: r(1),
            })
            .chaos_step(ChaosStep::Restart {
                at: ms(300),
                replica: r(2),
                outage: ms(40),
            })
            .build();
        assert!(cfg.chaos.ends_by(ms(500)));
        let report = Simulation::new(cfg).run();
        assert!(report.operations_completed > 0, "{}", report.summary());
        assert_eq!(report.consistency_violations, 0);
        assert!(report.converged, "replicas must converge after chaos ends");
        assert!(
            report.network.dropped_messages > 0,
            "the drop window must actually bite"
        );
        assert!(
            report.network.duplicated_messages > 0,
            "the duplication window must actually bite"
        );
    }

    #[test]
    fn chaos_runs_are_deterministic_per_seed() {
        let chaotic = |seed: u64| {
            let mut gen = crate::chaos::ChaosGen::new(seed, 3);
            let schedule = gen.sample(Duration::from_millis(100), Duration::from_millis(500), 5);
            let mut cfg = quick_config(ProtocolKind::Adaptive);
            cfg.seed = seed;
            cfg.chaos = schedule;
            Simulation::new(cfg).run()
        };
        let a = chaotic(21);
        let b = chaotic(21);
        assert_eq!(a.operations_completed, b.operations_completed);
        assert_eq!(a.network, b.network);
        assert_eq!(a.consistency_violations, 0);
        assert!(a.converged);
    }

    #[test]
    fn restart_outage_stalls_a_replica_but_recovers() {
        let mut cfg = quick_config(ProtocolKind::Pocc);
        cfg.chaos = crate::chaos::ChaosSchedule::new().step(ChaosStep::Restart {
            at: Duration::from_millis(200),
            replica: ReplicaId(1),
            outage: Duration::from_millis(80),
        });
        let with_restart = Simulation::new(cfg).run();
        let baseline = Simulation::new(quick_config(ProtocolKind::Pocc)).run();
        assert!(with_restart.converged);
        assert_eq!(with_restart.consistency_violations, 0);
        assert!(
            with_restart.operations_completed < baseline.operations_completed,
            "an 80ms outage must cost throughput ({} vs {})",
            with_restart.operations_completed,
            baseline.operations_completed
        );
    }

    #[test]
    fn identical_seeds_give_identical_reports() {
        let a = Simulation::new(quick_config(ProtocolKind::Pocc)).run();
        let b = Simulation::new(quick_config(ProtocolKind::Pocc)).run();
        assert_eq!(a.operations_completed, b.operations_completed);
        assert_eq!(a.gets_completed, b.gets_completed);
        assert_eq!(a.puts_completed, b.puts_completed);
        assert_eq!(
            a.server_metrics.blocked_operations,
            b.server_metrics.blocked_operations
        );
        assert_eq!(a.network.messages_sent, b.network.messages_sent);
    }

    #[test]
    fn different_seeds_change_the_trace() {
        let mut cfg = quick_config(ProtocolKind::Pocc);
        cfg.seed = 12345;
        let a = Simulation::new(cfg).run();
        let b = Simulation::new(quick_config(ProtocolKind::Pocc)).run();
        assert_ne!(a.network.messages_sent, b.network.messages_sent);
    }
}
