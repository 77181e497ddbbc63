//! Runs one workload against an in-process cluster and measures it from outside.
//!
//! The cluster runs inside this process because the repository has no server binary; the
//! generator threads still reach it only through `Cluster::open_port`, that is through
//! real localhost sockets on the TCP transport. Latency is the return of
//! `ClientPort::recv_timeout` minus the instant just before `ClientPort::submit`.

use crate::checker::{self, encode_value, ReadFloor, SessionChecker, Violations, PRELOAD_WRITER};
use crate::procfs::{self, SchedStat, GENERATOR_THREAD_PREFIX};
use crate::stats::Histogram;
use crate::trace::Span;
use crate::workload::{Inputs, Op, OpKind, Workload, ROTX_KEYS};
use pocc_proto::{ClientReply, MetricsSnapshot, ProtocolClient};
use pocc_protocol::Client;
use pocc_runtime::{ClientPort, Cluster, ServerProbe};
use pocc_storage::{partition_for_key, StoreStats};
use pocc_types::{ClientId, Key, ReplicaId, ServerId};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};

/// How long a session waits for a reply before it counts its requests as unanswered.
const REPLY_TIMEOUT: Duration = Duration::from_secs(5);

/// How long replicas get to converge once the sessions have stopped.
const DRAIN_LIMIT: Duration = Duration::from_secs(10);

/// Requests the preloading session keeps in flight during set-up.
const PRELOAD_WINDOW: usize = 64;

/// One operation in this many is traced, and at most this many spans are kept per
/// session (a traced window holds millions of operations; the file should not).
pub const TRACE_EVERY: u64 = 64;
const SPANS_PER_SESSION: usize = 16_384;

/// When a run does what: `epochs` times, on a freshly set-up cluster each time, a warm-up
/// and then `segments` measured windows of length `segment`, the last `traced` of which
/// run with tracing on.
#[derive(Clone, Copy, Debug)]
pub struct Plan {
    /// A run's level depends on accidents of the cluster instance it measures (two
    /// instances in one process differ as much as two processes do, while the segments
    /// of one instance agree within a few percent), so a run measures several.
    pub epochs: usize,
    pub warmup: Duration,
    pub segment: Duration,
    /// Segments per epoch.
    pub segments: usize,
    pub traced: usize,
    /// Set-ups the first epoch performs and times, at least; the last one's cluster is
    /// the one it measures. A set-up of a few milliseconds is repeated more often, within
    /// `SETUP_BUDGET`, so that its median is as steady as that of a long one.
    pub setups: usize,
    /// Test hook: the second session's first GET reply is replaced by a value the harness
    /// never wrote, to show that a failed output check fails the run.
    pub inject_foreign_read: bool,
}

/// Time a run may spend repeating its set-up beyond `Plan::setups`, and the most
/// repetitions it may reach doing so.
const SETUP_BUDGET: Duration = Duration::from_millis(600);
const MAX_SETUPS: usize = 15;

/// What one session measured in one segment.
#[derive(Clone, Default)]
pub struct SegmentAcc {
    pub ops: u64,
    pub get: Histogram,
    pub put: Histogram,
    pub rotx: Histogram,
    /// Visibility lag samples, in nanoseconds.
    pub lag_ns: Vec<f64>,
}

impl Plan {
    /// The traced segments: none, or the last ones.
    pub fn traced_range(&self) -> std::ops::Range<usize> {
        self.segments - self.traced..self.segments
    }
}

impl SegmentAcc {
    pub fn merge(&mut self, other: &SegmentAcc) {
        self.ops += other.ops;
        self.get.merge(&other.get);
        self.put.merge(&other.put);
        self.rotx.merge(&other.rotx);
        self.lag_ns.extend_from_slice(&other.lag_ns);
    }
}

/// Operations that did not complete, by cause.
#[derive(Clone, Copy, Debug, Default)]
pub struct Failures {
    /// No reply within `REPLY_TIMEOUT`.
    pub unanswered: u64,
    pub submit_errors: u64,
    /// Sessions aborted by a server and re-initialised.
    pub aborts: u64,
}

impl Failures {
    pub fn total(&self) -> u64 {
        self.unanswered + self.submit_errors + self.aborts
    }

    fn merge(&mut self, other: &Failures) {
        self.unanswered += other.unanswered;
        self.submit_errors += other.submit_errors;
        self.aborts += other.aborts;
    }
}

/// What the coordinator sampled around the traced segment.
pub struct TracedWindow {
    pub wall: Duration,
    pub ops: u64,
    /// Per thread group; `None` when the kernel exposes no `schedstat`.
    pub sched: Option<HashMap<&'static str, SchedStat>>,
    /// Engine and executor counters, summed over servers, over the window.
    pub counters: MetricsSnapshot,
    pub gc_removed: u64,
}

pub struct RunOutput {
    pub setup_s: Vec<f64>,
    /// Per segment, both sessions merged; epoch after epoch.
    pub segments: Vec<SegmentAcc>,
    /// Processor time of the whole process per segment, when `/proc` gives it.
    pub cpu_ns: Vec<Option<u64>>,
    pub attempted: u64,
    pub failures: Failures,
    pub violations: Violations,
    pub converged: bool,
    pub store: StoreStats,
    pub traced: Option<TracedWindow>,
    pub spans: Vec<Span>,
}

impl RunOutput {
    pub fn correct(&self) -> bool {
        self.converged && self.violations.total() == 0
    }
}

// ---------------------------------------------------------------------------------------
// Set-up
// ---------------------------------------------------------------------------------------

struct Session {
    client: Client,
    port: Box<dyn ClientPort>,
    home: ServerId,
}

fn open_session(cluster: &Cluster, workload: &Workload, home: ServerId) -> Session {
    let (id, port) = cluster.open_port();
    let client = if workload.snapshot_reads() {
        Client::new_snapshot_reads(id, home, workload.replicas)
    } else {
        Client::new(id, home, workload.replicas)
    };
    Session { client, port, home }
}

fn recv(port: &mut dyn ClientPort, what: &str) -> Result<ClientReply, String> {
    port.recv_timeout(REPLY_TIMEOUT)
        .map_err(|err| format!("set-up: no reply to {what}: {err}"))
}

/// Writes every key once. All but the last key of each partition go out pipelined; once
/// those are acknowledged the last ones follow, so they carry the highest timestamps of
/// their partition and, replication being FIFO per origin, a replica that shows one has
/// every other key of that partition too.
fn preload(cluster: &Cluster, workload: &Workload, inputs: &Inputs) -> Result<Vec<Key>, String> {
    let dc0 = ReplicaId(0);
    let server_of = |key: Key| ServerId::new(dc0, partition_for_key(key, workload.partitions));
    let mut last_of_partition: Vec<Key> = vec![Key(0); workload.partitions];
    for &key in &inputs.keys {
        last_of_partition[server_of(key).partition.index()] = key;
    }
    let mut session = open_session(cluster, workload, ServerId::new(dc0, 0u32));
    let bulk = inputs
        .keys
        .iter()
        .filter(|key| !last_of_partition.contains(key));
    for (phase, keys) in [bulk.copied().collect::<Vec<_>>(), last_of_partition.clone()]
        .into_iter()
        .enumerate()
    {
        let mut unacked = 0;
        for key in keys {
            if unacked == PRELOAD_WINDOW {
                let reply = recv(session.port.as_mut(), "a preload PUT")?;
                let _ = session.client.process_reply(&reply);
                unacked -= 1;
            }
            let request = session
                .client
                .put(key, encode_value(key.raw(), PRELOAD_WRITER, 1));
            session
                .port
                .submit(server_of(key), request)
                .map_err(|err| format!("set-up: preload phase {phase}: {err}"))?;
            unacked += 1;
        }
        for _ in 0..unacked {
            let reply = recv(session.port.as_mut(), "a preload PUT")?;
            let _ = session.client.process_reply(&reply);
        }
    }
    Ok(last_of_partition)
}

/// Reads `key` at `server` until the preloaded value comes back.
fn await_visible(session: &mut Session, server: ServerId, key: Key) -> Result<(), String> {
    let deadline = Instant::now() + DRAIN_LIMIT;
    loop {
        let request = session.client.get(key);
        session
            .port
            .submit(server, request)
            .map_err(|err| format!("set-up: readiness read at {server}: {err}"))?;
        let reply = recv(session.port.as_mut(), "a readiness read")?;
        let _ = session.client.process_reply(&reply);
        if matches!(&reply, ClientReply::Get(resp) if resp.value.is_some()) {
            return Ok(());
        }
        if Instant::now() > deadline {
            return Err(format!("set-up: {key} never became visible at {server}"));
        }
        std::thread::sleep(Duration::from_micros(200));
    }
}

/// Starts the cluster, opens the sessions' ports, preloads every key and waits until each
/// session's data center shows the preloaded data: everything `setup_s` covers.
fn set_up(workload: &Workload, inputs: &Inputs) -> Result<(Cluster, Vec<Session>), String> {
    let cluster = Cluster::builder()
        .config(workload.config())
        .protocol(workload.protocol)
        .transport(workload.transport)
        .start();
    let mut sessions: Vec<Session> = workload
        .session_dcs
        .iter()
        .map(|&dc| open_session(&cluster, workload, ServerId::new(dc, 0u32)))
        .collect();
    let last_of_partition = preload(&cluster, workload, inputs)?;
    for session in &mut sessions {
        for (p, &key) in last_of_partition.iter().enumerate() {
            let server = ServerId::new(session.home.replica, p);
            if server == session.home {
                // Also dials the session's one connection, so that is not left to the
                // first measured request.
                await_visible(session, server, key)?;
            } else {
                await_visible(&mut open_session(&cluster, workload, server), server, key)?;
            }
        }
    }
    Ok((cluster, sessions))
}

// ---------------------------------------------------------------------------------------
// The generator: one session, one thread
// ---------------------------------------------------------------------------------------

/// Where the DC0 session publishes each acknowledged write of the probe key, and where
/// the other session learns that there is something new to look for.
#[derive(Default)]
struct ProbeBoard {
    latest: AtomicU64,
    published: Mutex<Option<(u64, Instant)>>,
}

struct InFlight {
    kind: OpKind,
    target: u32,
    sent: Instant,
    floors: [ReadFloor; ROTX_KEYS],
    span: Option<usize>,
}

struct Clock {
    start: Instant,
    segment: Duration,
    segments: usize,
    traced: std::ops::Range<usize>,
}

impl Clock {
    fn segment_of(&self, t: Instant) -> Option<usize> {
        let since = t.checked_duration_since(self.start)?;
        let index = (since.as_nanos() / self.segment.as_nanos()) as usize;
        (index < self.segments).then_some(index)
    }

    fn boundary(&self, index: usize) -> Instant {
        self.start + self.segment * index as u32
    }

    fn ns(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.start).as_nanos() as f64
    }
}

struct Generator<'a> {
    index: usize,
    /// Generators stay alive until the coordinator has taken its last per-thread sample.
    finished: &'a Barrier,
    workload: &'a Workload,
    inputs: &'a Inputs,
    session: Session,
    clock: &'a Clock,
    board: &'a ProbeBoard,
    checker: SessionChecker,
    inflight: Vec<InFlight>,
    acc: Vec<SegmentAcc>,
    cursor: usize,
    attempted: u64,
    failures: Failures,
    spans: Vec<Span>,
    /// Reader side of the visibility probe: the highest probe `seq` seen, the published
    /// write being looked for, and whether a read of the probe key is in flight.
    probe_seen: u64,
    probe_target: Option<(u64, Instant)>,
    probe_in_flight: bool,
    inject_foreign_read: bool,
}

struct GeneratorResult {
    acc: Vec<SegmentAcc>,
    checker: SessionChecker,
    attempted: u64,
    failures: Failures,
    spans: Vec<Span>,
}

impl Generator<'_> {
    fn writer(&self) -> u32 {
        self.index as u32 + 1
    }

    fn key(&self, k: u32) -> Key {
        self.inputs.keys[k as usize]
    }

    fn run(mut self) -> GeneratorResult {
        let end = self.clock.boundary(self.clock.segments);
        let mut now = Instant::now();
        loop {
            while now < end && self.inflight.len() < self.workload.outstanding {
                if !self.submit_next() {
                    // A refused request: do not spin on a dead connection.
                    std::thread::sleep(Duration::from_millis(1));
                    now = Instant::now();
                }
            }
            if self.inflight.is_empty() {
                break;
            }
            match self.session.port.recv_timeout(REPLY_TIMEOUT) {
                Ok(reply) => {
                    now = Instant::now();
                    self.on_reply(reply, now);
                }
                Err(_) => {
                    self.failures.unanswered += self.inflight.len() as u64;
                    break;
                }
            }
        }
        self.finished.wait();
        GeneratorResult {
            acc: self.acc,
            checker: self.checker,
            attempted: self.attempted,
            failures: self.failures,
            spans: self.spans,
        }
    }

    /// The next operation of the cycle; on the reading session, a GET is pointed at the
    /// probe key while a published probe write is still unseen (one such read at a time).
    fn next_op(&mut self) -> Op {
        let input = &self.inputs.sessions[self.index];
        let mut op = input.ops[self.cursor % input.ops.len()];
        self.cursor += 1;
        if self.index != 0 && op.kind == OpKind::Get && !self.probe_in_flight {
            if self.probe_target.is_none()
                && self.board.latest.load(Ordering::Relaxed) > self.probe_seen
            {
                self.probe_target = *self.board.published.lock().expect("probe board");
            }
            if self.probe_target.is_some() {
                op.target = self.inputs.probe;
                self.probe_in_flight = true;
            }
        }
        op
    }

    /// Sends the next operation; `false` if the transport refused it.
    fn submit_next(&mut self) -> bool {
        let op = self.next_op();
        let mut floors = [ReadFloor::default(); ROTX_KEYS];
        let request = match op.kind {
            OpKind::Get => {
                floors[0] = self.checker.read_sent(op.target);
                self.session.client.get(self.key(op.target))
            }
            OpKind::Put => {
                let key = self.key(op.target);
                let seq = self.checker.put_sent(op.target);
                self.session
                    .client
                    .put(key, encode_value(key.raw(), self.writer(), seq))
            }
            OpKind::RoTx => {
                let set = self.inputs.sessions[self.index].rotx[op.target as usize];
                for (floor, &k) in floors.iter_mut().zip(&set) {
                    *floor = self.checker.read_sent(k);
                }
                self.session
                    .client
                    .ro_tx(set.iter().map(|&k| self.key(k)).collect())
            }
        };
        self.attempted += 1;
        let sent = Instant::now();
        let submitted = self.session.port.submit(self.session.home, request);
        if submitted.is_err() {
            self.failures.submit_errors += 1;
            if op.kind == OpKind::Put {
                // Keep the acknowledgement queue in step with what the server received.
                self.checker.put_dropped();
            }
            self.probe_in_flight &= op.target != self.inputs.probe;
            return false;
        }
        let traced = self.attempted.is_multiple_of(TRACE_EVERY)
            && self
                .clock
                .segment_of(sent)
                .is_some_and(|s| self.clock.traced.contains(&s))
            && self.spans.len() < SPANS_PER_SESSION;
        let span = traced.then(|| {
            self.spans.push(Span {
                op: self.attempted,
                session: self.index,
                kind: op.kind,
                start_ns: self.clock.ns(sent),
                submitted_ns: self.clock.ns(Instant::now()),
                reply_ns: f64::NAN,
                process_ns: f64::NAN,
                end_ns: f64::NAN,
            });
            self.spans.len() - 1
        });
        self.inflight.push(InFlight {
            kind: op.kind,
            target: op.target,
            sent,
            floors,
            span,
        });
        true
    }

    /// Replies carry no request id. A GET's value names its key, a transaction's items
    /// name theirs, and servers answer one session's requests for one key in order, so
    /// those match exactly; PUT acknowledgements all look alike and are taken in order.
    fn match_reply(&self, reply: &ClientReply) -> usize {
        let oldest = |kind: OpKind| self.inflight.iter().position(|f| f.kind == kind);
        let found = match reply {
            ClientReply::Get(resp) => resp
                .value
                .as_ref()
                .and_then(|v| checker::decode_value(v.as_slice()))
                .and_then(|(key, _, _)| {
                    self.inflight
                        .iter()
                        .position(|f| f.kind == OpKind::Get && self.key(f.target).raw() == key)
                })
                .or_else(|| oldest(OpKind::Get)),
            ClientReply::Put { .. } => oldest(OpKind::Put),
            ClientReply::RoTx { items } => {
                let sets = &self.inputs.sessions[self.index].rotx;
                self.inflight
                    .iter()
                    .position(|f| {
                        f.kind == OpKind::RoTx
                            && items.len() == ROTX_KEYS
                            && items.iter().all(|item| {
                                sets[f.target as usize]
                                    .iter()
                                    .any(|&k| self.key(k) == item.key)
                            })
                    })
                    .or_else(|| oldest(OpKind::RoTx))
            }
            ClientReply::SessionAborted { .. } => None,
        };
        // A reply of a kind nothing in flight asked for still ends the oldest request:
        // the checks below then flag it.
        found.unwrap_or(0)
    }

    fn on_reply(&mut self, mut reply: ClientReply, at: Instant) {
        if let (true, ClientReply::Get(resp)) = (self.inject_foreign_read, &mut reply) {
            resp.value = Some(encode_value(u64::MAX, PRELOAD_WRITER, 1));
            self.inject_foreign_read = false;
        }
        if self.inflight.is_empty() {
            self.checker
                .flag_foreign(format!("{reply:?} arrived with nothing in flight"));
            return;
        }
        let op = self.inflight.remove(self.match_reply(&reply));
        // Matching the reply is the harness's own time: it lies inside the root span
        // but in none of its children.
        let process_start = op.span.map(|_| Instant::now());
        if self.session.client.process_reply(&reply).is_err() {
            self.session.client.reinitialize();
            self.failures.aborts += 1;
            self.probe_in_flight &= op.target != self.inputs.probe;
            return;
        }
        if let (Some(span), Some(process_start)) = (op.span, process_start) {
            let span = &mut self.spans[span];
            span.reply_ns = self.clock.ns(at);
            span.process_ns = self.clock.ns(process_start);
            span.end_ns = self.clock.ns(Instant::now());
        }
        let segment = self.clock.segment_of(at);
        if let Some(acc) = segment.map(|s| &mut self.acc[s]) {
            let latency = at.duration_since(op.sent).as_nanos() as u64;
            acc.ops += 1;
            match op.kind {
                OpKind::Get => acc.get.record(latency),
                OpKind::Put => acc.put.record(latency),
                OpKind::RoTx => acc.rotx.record(latency),
            }
        }
        match (&reply, op.kind) {
            (ClientReply::Get(resp), OpKind::Get) => {
                let key = self.key(op.target).raw();
                self.checker
                    .read_returned(op.target, key, &op.floors[0], resp);
                if op.target == self.inputs.probe {
                    self.on_probe_read(resp, at, segment);
                }
            }
            (ClientReply::Put { update_time }, OpKind::Put) => {
                let acked = self.checker.put_acked(update_time.0);
                if acked == Some(self.inputs.probe) {
                    let seq = u64::from(self.checker.issued(self.inputs.probe as usize));
                    *self.board.published.lock().expect("probe board") = Some((seq, at));
                    self.board.latest.store(seq, Ordering::Relaxed);
                }
            }
            (ClientReply::RoTx { items }, OpKind::RoTx) => {
                let set = self.inputs.sessions[self.index].rotx[op.target as usize];
                let mut answered = [false; ROTX_KEYS];
                for item in items {
                    match set.iter().position(|&k| self.key(k) == item.key) {
                        Some(j) if !answered[j] => {
                            answered[j] = true;
                            self.checker.read_returned(
                                set[j],
                                item.key.raw(),
                                &op.floors[j],
                                &item.response,
                            );
                        }
                        _ => self.checker.flag_foreign(format!(
                            "transaction returned {} which it did not ask for (or twice)",
                            item.key
                        )),
                    }
                }
                if answered.contains(&false) {
                    self.checker
                        .flag_foreign(format!("transaction returned {} items", items.len()));
                }
            }
            (reply, kind) => self
                .checker
                .flag_foreign(format!("a {kind:?} was answered with {reply:?}")),
        }
    }

    /// A read of the probe key came back. Lag is the first sighting of the published
    /// write (or a later one) minus the instant its acknowledgement reached the writer.
    fn on_probe_read(
        &mut self,
        resp: &pocc_proto::GetResponse,
        at: Instant,
        segment: Option<usize>,
    ) {
        self.probe_in_flight = false;
        let seq = resp
            .value
            .as_ref()
            .and_then(|v| checker::decode_value(v.as_slice()))
            .map_or(0, |(_, writer, seq)| if writer == 1 { seq } else { 0 });
        self.probe_seen = self.probe_seen.max(seq);
        if let Some((wanted, acked_at)) = self.probe_target {
            if seq >= wanted {
                self.probe_target = None;
                if let Some(acc) = segment.map(|s| &mut self.acc[s]) {
                    acc.lag_ns
                        .push(at.saturating_duration_since(acked_at).as_nanos() as f64);
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------------------
// The run
// ---------------------------------------------------------------------------------------

/// Confines every thread that serves one data center — its servers, lanes, acceptors and
/// connection readers, and the session homed there with its reply reader — to one
/// processor: data center `r` to the `r mod n`-th of the `n` processors the process may use. A data center is a machine of
/// its own in the system this models; left to float on a two-processor box, the
/// scheduler moves the dozen threads of a request chain between placements that differ
/// two-fold in cost for seconds at a time, and no number repeats. Threads shared between
/// data centers (the delay thread, the coordinator) stay free. Returns how many threads
/// were confined and how many the kernel refused.
fn pin_data_centers(workload: &Workload, clients: &[ClientId]) -> (usize, usize) {
    let cpus = procfs::allowed_cpus();
    let session_dc =
        |index: Option<usize>| index.and_then(|i| workload.session_dcs.get(i).copied());
    let (mut pinned, mut refused) = (0, 0);
    for (tid, comm) in procfs::thread_names() {
        let comm = comm.trim_end();
        let number = |prefix: &str| {
            comm.strip_prefix(prefix)
                .and_then(|n| n.parse::<u64>().ok())
        };
        let dc = procfs::data_center_of(comm)
            .or_else(|| {
                let id = number("pocc-client-c")?;
                session_dc(clients.iter().position(|c| c.raw() == id))
            })
            .or_else(|| {
                session_dc(number(&format!("{GENERATOR_THREAD_PREFIX}-")).map(|i| i as usize))
            });
        if let Some(dc) = dc {
            if procfs::pin_thread(tid, cpus[dc as usize % cpus.len()]) {
                pinned += 1;
            } else {
                refused += 1;
            }
        }
    }
    (pinned, refused)
}

fn sleep_until(t: Instant) {
    let now = Instant::now();
    if t > now {
        std::thread::sleep(t - now);
    }
}

fn merged(probes: &[(ServerId, ServerProbe)]) -> (MetricsSnapshot, StoreStats) {
    let mut metrics = MetricsSnapshot::default();
    let mut store = StoreStats::default();
    for (_, probe) in probes {
        metrics.merge(&probe.metrics);
        store.merge(&probe.store_stats);
    }
    (metrics, store)
}

fn digests_agree(probes: &[(ServerId, ServerProbe)]) -> bool {
    probes.iter().all(|(id, probe)| {
        probes
            .iter()
            .filter(|(other, _)| other.partition == id.partition)
            .all(|(_, other)| other.digest == probe.digest)
    })
}

/// Runs `workload` on inputs generated from `seed` according to `plan`: one epoch after
/// another, each on a cluster of its own, their segments concatenated.
pub fn run(workload: &Workload, seed: u64, plan: &Plan) -> Result<RunOutput, String> {
    let inputs = Inputs::generate(workload, seed);
    let mut out = RunOutput {
        setup_s: Vec::new(),
        segments: Vec::new(),
        cpu_ns: Vec::new(),
        attempted: 0,
        failures: Failures::default(),
        violations: Violations::default(),
        converged: true,
        store: StoreStats::default(),
        traced: None,
        spans: Vec::new(),
    };
    for epoch in 0..plan.epochs.max(1) {
        // Every epoch's set-up is timed; the first epoch repeats it, so that even a
        // set-up of a few milliseconds yields enough timings for a steady median.
        let mut deployment: Option<(Cluster, Vec<Session>)> = None;
        let mut spent = 0.0;
        while deployment.is_none()
            || (epoch == 0
                && plan.setups > 1
                && out.setup_s.len() < MAX_SETUPS
                && (out.setup_s.len() < plan.setups || spent < SETUP_BUDGET.as_secs_f64()))
        {
            if let Some((cluster, sessions)) = deployment.take() {
                drop(sessions);
                cluster.shutdown();
            }
            let started = Instant::now();
            deployment = Some(set_up(workload, &inputs)?);
            out.setup_s.push(started.elapsed().as_secs_f64());
            spent += out.setup_s[out.setup_s.len() - 1];
        }
        let (cluster, sessions) = deployment.expect("the loop sets one up");
        run_epoch(workload, &inputs, plan, epoch, cluster, sessions, &mut out);
    }
    Ok(out)
}

/// Warms up and measures one epoch on a cluster that is set up, checks its outputs, shuts
/// it down, and appends what was measured to `out`.
fn run_epoch(
    workload: &Workload,
    inputs: &Inputs,
    plan: &Plan,
    epoch: usize,
    cluster: Cluster,
    sessions: Vec<Session>,
    out: &mut RunOutput,
) {
    let clock = Clock {
        start: Instant::now() + plan.warmup,
        segment: plan.segment,
        segments: plan.segments,
        traced: plan.traced_range(),
    };
    let clients: Vec<ClientId> = sessions.iter().map(|s| s.client.client_id()).collect();
    let board = ProbeBoard::default();
    let finished = Barrier::new(sessions.len() + 1);
    let mut cpu_at = Vec::new();
    let mut traced_start = None;
    let mut traced_end = None;

    let results: Vec<GeneratorResult> = std::thread::scope(|scope| {
        let handles: Vec<_> = sessions
            .into_iter()
            .enumerate()
            .map(|(index, session)| {
                let generator = Generator {
                    index,
                    finished: &finished,
                    workload,
                    inputs,
                    session,
                    clock: &clock,
                    board: &board,
                    checker: SessionChecker::new(index as u32 + 1, inputs.keys.len()),
                    inflight: Vec::with_capacity(workload.outstanding),
                    acc: vec![SegmentAcc::default(); plan.segments],
                    // Each epoch works a stretch of the cycle of its own.
                    cursor: epoch * (inputs.sessions[index].ops.len() / plan.epochs.max(1)),
                    attempted: 0,
                    failures: Failures::default(),
                    spans: Vec::new(),
                    probe_seen: 0,
                    probe_target: None,
                    probe_in_flight: false,
                    inject_foreign_read: plan.inject_foreign_read && index == 1,
                };
                std::thread::Builder::new()
                    .name(format!("{GENERATOR_THREAD_PREFIX}-{index}"))
                    .spawn_scoped(scope, move || generator.run())
                    .expect("spawning a generator thread succeeds")
            })
            .collect();

        // Once now, with the generators started, and once just before measuring, for any
        // thread (a lazily dialed connection's reader) that appeared during the warm-up.
        for at in [Instant::now(), clock.start - plan.warmup / 10] {
            sleep_until(at);
            let (pinned, refused) = pin_data_centers(workload, &clients);
            if refused > 0 && pinned == 0 && epoch == 0 {
                eprintln!("warning: the kernel refused to pin threads; placement is left to the scheduler");
            }
        }

        // The coordinator: wakes at each segment boundary to read the process's CPU
        // time, and around the traced segments the per-thread and per-server counters.
        for boundary in 0..=plan.segments {
            sleep_until(clock.boundary(boundary));
            cpu_at.push(procfs::process_cpu_ns());
            let sample = |cluster: &Cluster| {
                let (at, threads) = (Instant::now(), procfs::sample_threads());
                (at, threads, merged(&cluster.probe_all()))
            };
            if plan.traced > 0 && boundary == plan.traced_range().start {
                traced_start = Some(sample(&cluster));
            }
            if plan.traced > 0 && boundary == plan.segments {
                traced_end = Some(sample(&cluster));
            }
        }
        finished.wait();
        handles
            .into_iter()
            .map(|h| h.join().expect("generator threads do not panic"))
            .collect()
    });

    // The sessions have stopped: give replication time to drain, then compare replicas.
    let deadline = Instant::now() + DRAIN_LIMIT;
    let (converged, probes) = loop {
        let probes = cluster.probe_all();
        if digests_agree(&probes) {
            break (true, probes);
        }
        if Instant::now() > deadline {
            break (false, probes);
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    out.store = merged(&probes).1;
    cluster.shutdown();

    let mut segments = vec![SegmentAcc::default(); plan.segments];
    let mut checkers = Vec::new();
    for result in results {
        for (total, part) in segments.iter_mut().zip(&result.acc) {
            total.merge(part);
        }
        out.attempted += result.attempted;
        out.failures.merge(&result.failures);
        out.spans.extend(result.spans);
        checkers.push(result.checker);
    }
    out.violations.merge(&checker::cross_check(&checkers));
    if !converged {
        out.converged = false;
        out.violations
            .first
            .get_or_insert_with(|| "replica digests still differ after the drain".into());
    }

    if let (Some((t0, sched0, (m0, store0))), Some((t1, sched1, (m1, store1)))) =
        (traced_start, traced_end)
    {
        out.traced = Some(TracedWindow {
            wall: t1 - t0,
            ops: segments[plan.traced_range()].iter().map(|s| s.ops).sum(),
            sched: sched0
                .zip(sched1)
                .map(|(a, b)| procfs::group_deltas(&a, &b)),
            counters: m1.delta_since(&m0),
            gc_removed: store1.gc_removed.saturating_sub(store0.gc_removed) as u64,
        });
    }
    out.segments.extend(segments);
    out.cpu_ns
        .extend(cpu_at.windows(2).map(|w| Some(w[1]?.saturating_sub(w[0]?))));
}
