//! The layer pass: each crate on its own, driven by direct calls from one thread.
//!
//! These numbers do not depend on the workload. They price the code on a request's path
//! so that `path.get_unaccounted_frac` can say how much of a TCP GET is *not* code:
//! wake-ups, system calls and queueing. Micro-costs are the median over `BATCHES`
//! batches of the mean time per call; round trips are the median of single timings.

use crate::driver::{self, Plan};
use crate::metrics::{Measured, LAYER_PASS};
use crate::stats::{median, Histogram};
use crate::workload::Workload;
use bytes::BytesMut;
use pocc_clock::{MonotonicClock, SystemClock};
use pocc_cure::CureServer;
use pocc_exec::{ExecProtocol, OutputSink, ParallelServer};
use pocc_net::transport::frame::{FrameDecoder, FrameWriter};
use pocc_net::transport::{ChannelTransport, EventSink, TcpTransport, Transport, TransportEvent};
use pocc_proto::{
    codec, ClientReply, ClientRequest, GetResponse, ProtocolClient, ProtocolServer, ServerMessage,
    ServerOutput,
};
use pocc_protocol::{Client, PoccServer};
use pocc_runtime::{RuntimeProtocol, TransportKind};
use pocc_storage::ShardedStore;
use pocc_types::{
    ClientId, Config, DependencyVector, Key, LatencyMatrix, PartitionId, ReplicaId, ServerId,
    Timestamp, Value, Version,
};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// `(metric, value, samples)` in the order the pass produces them.
type Values = Vec<(&'static str, f64, u64)>;

const BATCHES: usize = 7;
const REPLICAS: usize = 3;
const KEYS: u64 = 4096;
const CHAIN: u64 = 8;
const WINDOW: usize = 32;

/// Median over the batches of the mean nanoseconds per call of `work`, which receives a
/// running call number.
fn ns_per_call(iters: usize, mut work: impl FnMut(u64)) -> f64 {
    let per_batch: Vec<f64> = (0..BATCHES)
        .map(|batch| {
            let started = Instant::now();
            for i in 0..iters {
                work((batch * iters + i) as u64);
            }
            started.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    median(&per_batch)
}

fn config(replicas: usize) -> Config {
    Config::builder()
        .num_replicas(replicas)
        .num_partitions(1)
        .latency(LatencyMatrix::uniform(
            replicas,
            crate::workload::INTRA_DC_DELAY,
            crate::workload::INTER_DC_DELAY,
        ))
        .build()
        .expect("layer-pass configurations are valid")
}

fn value() -> Value {
    crate::checker::encode_value(1, 1, 1)
}

fn zero() -> DependencyVector {
    DependencyVector::zero(REPLICAS)
}

fn flat(ts: u64) -> DependencyVector {
    DependencyVector::from_entries(vec![Timestamp(ts); REPLICAS])
}

fn get_request(i: u64) -> ClientRequest {
    ClientRequest::Get {
        key: Key(i % KEYS),
        rdv: zero(),
    }
}

fn put_request(i: u64) -> ClientRequest {
    ClientRequest::Put {
        key: Key(i % KEYS),
        value: value(),
        dv: zero(),
    }
}

fn get_reply() -> ClientReply {
    ClientReply::Get(GetResponse {
        value: Some(value()),
        update_time: Timestamp(1_000),
        deps: flat(900),
        source_replica: ReplicaId(1),
    })
}

/// Version `depth` (0 oldest) of key `k` in a store of `KEYS` chains `CHAIN` deep: update
/// times grow with depth and sources rotate over the replicas.
fn chain_version(k: u64, depth: u64) -> Version {
    Version::new(
        Key(k),
        value(),
        ReplicaId((depth % REPLICAS as u64) as u16),
        Timestamp(depth * KEYS + k + 1),
        zero(),
    )
}

fn chained_store() -> ShardedStore {
    let store = ShardedStore::with_shards(PartitionId(0), 1, 8);
    for depth in 0..CHAIN {
        for k in 0..KEYS {
            store
                .insert(chain_version(k, depth))
                .expect("own partition");
        }
    }
    store
}

fn storage(iters: usize, out: &mut Values) {
    let n = (iters * BATCHES) as u64;
    let store = ShardedStore::with_shards(PartitionId(0), 1, 8);
    let insert = ns_per_call(iters, |i| {
        store
            .insert(chain_version(i % KEYS, i / KEYS))
            .expect("own partition")
    });
    drop(store);

    let store = chained_store();
    let latest = ns_per_call(iters, |i| {
        black_box(store.latest(Key(i % KEYS)));
    });
    // A snapshot that covers the five oldest versions of every chain: the three newest
    // are walked over and the fourth is returned.
    let covered = flat(5 * KEYS);
    let snapshot = ns_per_call(iters, |i| {
        black_box(store.latest_in_snapshot(Key(i % KEYS), &covered));
    });
    // The same vector as Cure's stable snapshot, read at replica 2: depths 7 and 6 are
    // remote and unstable, depth 5 is local and served.
    let mut traversed = 0u64;
    let stable = ns_per_call(iters, |i| {
        let found = store.latest_stable(Key(i % KEYS), &covered, ReplicaId(2));
        traversed += found.stats.traversed as u64;
        black_box(found);
    });

    let gc_batches: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let store = chained_store();
            let started = Instant::now();
            let removed = store.collect_garbage(&flat(u64::MAX));
            started.elapsed().as_nanos() as f64 / removed.max(1) as f64
        })
        .collect();

    out.extend([
        ("storage.insert_ns", insert, n),
        ("storage.latest_ns", latest, n),
        ("storage.latest_in_snapshot_ns", snapshot, n),
        ("storage.latest_stable_ns", stable, n),
        (
            "storage.gc_ns_per_version",
            median(&gc_batches),
            BATCHES as u64 * KEYS * (CHAIN - 1),
        ),
        (
            "storage.chain_traversed_per_read",
            traversed as f64 / n as f64,
            n,
        ),
    ]);
}

/// Codec and framing costs; also returns what `path.get_compute_ns` sums from here.
fn proto_and_net(iters: usize, out: &mut Values) -> f64 {
    let n = (iters * BATCHES) as u64;
    let mut scratch = BytesMut::with_capacity(1024);
    let request = get_request(7);
    let reply = get_reply();
    let replicate = ServerMessage::Replicate {
        version: chain_version(7, 3),
    };
    let request_bytes = codec::encode_request(&request).expect("encodes");
    let reply_bytes = codec::encode_reply(&reply).expect("encodes");
    let replicate_bytes = codec::encode_server_message(&replicate).expect("encodes");

    let encode_request = ns_per_call(iters, |_| {
        scratch.clear();
        codec::encode_request_into(black_box(&request), &mut scratch).expect("encodes");
    });
    let decode_request = ns_per_call(iters, |_| {
        black_box(codec::decode_request(request_bytes.clone()).expect("decodes"));
    });
    let encode_reply = ns_per_call(iters, |_| {
        scratch.clear();
        codec::encode_reply_into(black_box(&reply), &mut scratch).expect("encodes");
    });
    let decode_reply = ns_per_call(iters, |_| {
        black_box(codec::decode_reply(reply_bytes.clone()).expect("decodes"));
    });
    let encode_replicate = ns_per_call(iters, |_| {
        scratch.clear();
        codec::encode_server_message_into(black_box(&replicate), &mut scratch).expect("encodes");
    });
    let decode_replicate = ns_per_call(iters, |_| {
        black_box(codec::decode_server_message(replicate_bytes.clone()).expect("decodes"));
    });

    // Exact wire bytes, frame headers included: a GET or PUT round trip, one replicate.
    let framed = |stage: &dyn Fn(&mut FrameWriter)| {
        let mut writer = FrameWriter::new();
        stage(&mut writer);
        writer.len() as f64
    };
    let put = put_request(7);
    let put_ack = ClientReply::Put {
        update_time: Timestamp(1_000),
    };
    let bytes_per_get = framed(&|w| {
        w.stage_request(&request).expect("stages");
        w.stage_reply(&reply).expect("stages");
    });
    let bytes_per_put = framed(&|w| {
        w.stage_request(&put).expect("stages");
        w.stage_reply(&put_ack).expect("stages");
    });
    let bytes_per_replicate = framed(&|w| w.stage_server_message(&replicate).expect("stages"));

    // Framing alone: the hello frame's payload is eight bytes written in place, so what
    // is timed is the length slot, the kind byte and the backfill.
    let mut writer = FrameWriter::new();
    let frame_stage = ns_per_call(iters, |i| {
        writer.clear();
        writer.stage_hello_client(ClientId(i)).expect("stages");
        black_box(writer.bytes());
    });
    writer.clear();
    writer.stage_request(&request).expect("stages");
    let frame = writer.bytes().to_vec();
    let mut decoder = FrameDecoder::new();
    let frame_next = ns_per_call(iters, |_| {
        decoder.extend(&frame);
        black_box(decoder.next_frame().expect("well-formed"));
    });

    out.extend([
        ("proto.encode_request_ns", encode_request, n),
        ("proto.decode_request_ns", decode_request, n),
        ("proto.encode_reply_ns", encode_reply, n),
        ("proto.decode_reply_ns", decode_reply, n),
        ("proto.encode_replicate_ns", encode_replicate, n),
        ("proto.decode_replicate_ns", decode_replicate, n),
        ("proto.bytes_per_get", bytes_per_get, 1),
        ("proto.bytes_per_put", bytes_per_put, 1),
        ("proto.bytes_per_replicate", bytes_per_replicate, 1),
        ("net.frame_stage_ns", frame_stage, n),
        ("net.frame_next_ns", frame_next, n),
    ]);
    encode_request + decode_request + encode_reply + decode_reply + 2.0 * (frame_stage + frame_next)
}

/// Round trips through a transport whose far side answers from inside the event sink: the
/// wire with no server thread and no engine. Two clients on two threads, like the
/// workloads' two sessions, so that both processors stay awake as they do there (a lone
/// ping-pong lets the machine idle between hops and pays an idle exit at each). Yields
/// the median round trip with one request in flight per client, and the clients' summed
/// requests per second with `WINDOW` in flight each.
fn echo(kind: TransportKind, round_trips: usize, out: &mut Values) {
    let server = ServerId::new(0u16, 0u32);
    let far_side: Arc<OnceLock<Arc<dyn Transport>>> = Arc::new(OnceLock::new());
    let sink: EventSink = {
        let far_side = Arc::clone(&far_side);
        Arc::new(move |to, event| {
            if let (TransportEvent::Client { client, .. }, Some(transport)) =
                (event, far_side.get())
            {
                let ack = ClientReply::Put {
                    update_time: Timestamp(1),
                };
                transport.reply(to, client, ack);
            }
        })
    };
    let transport: Arc<dyn Transport> = match kind {
        TransportKind::Tcp => TcpTransport::start(&config(1), sink).expect("binds localhost"),
        TransportKind::Channel => ChannelTransport::start(config(1), sink),
    };
    let _ = far_side.set(Arc::clone(&transport));
    let wait = Duration::from_secs(5);
    let total = round_trips * 8;

    let client = |id: u64| {
        let mut port = transport.client_port(ClientId(id));
        let mut rtt = Histogram::default();
        for i in 0..round_trips as u64 {
            let sent = Instant::now();
            port.submit(server, get_request(i)).expect("echo submit");
            port.recv_timeout(wait).expect("echo reply");
            rtt.record(sent.elapsed().as_nanos() as u64);
        }
        let started = Instant::now();
        let (mut sent, mut received) = (0, 0);
        while received < total {
            while sent < total && sent - received < WINDOW {
                port.submit(server, get_request(sent as u64))
                    .expect("echo submit");
                sent += 1;
            }
            port.recv_timeout(wait).expect("echo reply");
            received += 1;
        }
        (rtt, total as f64 / started.elapsed().as_secs_f64())
    };
    let (mut rtt, mut ops_s) = (Histogram::default(), 0.0);
    std::thread::scope(|scope| {
        let clients: Vec<_> = (1..=2).map(|id| scope.spawn(move || client(id))).collect();
        for handle in clients {
            let (client_rtt, client_ops_s) = handle.join().expect("echo clients do not panic");
            rtt.merge(&client_rtt);
            ops_s += client_ops_s;
        }
    });
    transport.shutdown();

    let (rtt_name, ops_name) = match kind {
        TransportKind::Tcp => ("net.tcp_echo_rtt_p50_us", "net.tcp_echo_ops_s"),
        TransportKind::Channel => ("net.channel_echo_rtt_p50_us", "net.channel_echo_ops_s"),
    };
    out.extend([
        (rtt_name, rtt.quantile_us(0.5), rtt.count()),
        (ops_name, ops_s, 2 * total as u64),
    ]);
}

fn clock() -> MonotonicClock<SystemClock> {
    MonotonicClock::new(SystemClock::new())
}

fn expect_reply(outputs: Vec<ServerOutput>) {
    assert!(
        outputs
            .iter()
            .any(|o| matches!(o, ServerOutput::Reply { .. })),
        "a hand-pumped server must answer at once, got {outputs:?}"
    );
    black_box(outputs);
}

/// Hand-pumped sans-IO servers of a 3-DC deployment; returns `engine.pocc_get_ns`.
fn engine(iters: usize, out: &mut Values) -> f64 {
    let n = (iters * BATCHES) as u64;
    let id = ServerId::new(0u16, 0u32);
    let client = ClientId(1);
    let preload = |server: &mut dyn ProtocolServer| {
        for k in 0..KEYS {
            server.handle_client_request(client, put_request(k));
        }
    };

    let mut pocc = PoccServer::new(id, config(REPLICAS), clock());
    preload(&mut pocc);
    let pocc_get = ns_per_call(iters, |i| {
        expect_reply(pocc.handle_client_request(client, get_request(i)));
    });
    let pocc_put = ns_per_call(iters / 4, |i| {
        expect_reply(pocc.handle_client_request(client, put_request(i)));
    });
    let sibling = ServerId::new(1u16, 0u32);
    let apply = ns_per_call(iters / 4, |i| {
        let version = Version::new(
            Key(i % KEYS),
            value(),
            ReplicaId(1),
            Timestamp(i + 1),
            zero(),
        );
        black_box(pocc.handle_server_message(sibling, ServerMessage::Replicate { version }));
    });
    let tick = ns_per_call(iters / 4, |_| {
        black_box(pocc.tick());
    });
    drop(pocc);

    let mut cure = CureServer::new(id, config(REPLICAS), clock());
    preload(&mut cure);
    let cure_get = ns_per_call(iters, |i| {
        expect_reply(cure.handle_client_request(client, get_request(i)));
    });
    let cure_rotx = ns_per_call(iters / 4, |i| {
        let request = ClientRequest::RoTx {
            keys: (0..4).map(|j| Key((i + j * 1021) % KEYS)).collect(),
            rdv: zero(),
        };
        expect_reply(cure.handle_client_request(client, request));
    });

    out.extend([
        ("engine.pocc_get_ns", pocc_get, n),
        ("engine.pocc_put_ns", pocc_put, n / 4),
        ("engine.pocc_apply_replicate_ns", apply, n / 4),
        ("engine.cure_get_ns", cure_get, n),
        ("engine.cure_rotx4_ns", cure_rotx, n / 4),
        ("engine.tick_ns", tick, n / 4),
    ]);
    pocc_get
}

/// A `ParallelServer` on its own: replies counted by the output sink.
fn exec(ops: usize, out: &mut Values) {
    let start = |lanes: usize| {
        let replies = Arc::new(AtomicU64::new(0));
        let sink: OutputSink = {
            let replies = Arc::clone(&replies);
            Arc::new(move |output| {
                if matches!(output, ServerOutput::Reply { .. }) {
                    replies.fetch_add(1, Ordering::Release);
                }
            })
        };
        let mut config = config(REPLICAS);
        config.worker_lanes = lanes;
        let server = ParallelServer::start(
            ServerId::new(0u16, 0u32),
            config,
            ExecProtocol::Pocc,
            clock(),
            sink,
        );
        (server, replies)
    };
    let wait_for = |replies: &AtomicU64, target: u64| {
        while replies.load(Ordering::Acquire) < target {
            std::thread::yield_now();
        }
    };
    // Reads and writes 1:1 in runs of 16, as the repository's own scaling scenarios
    // submit them.
    let request = |i: u64| {
        if (i / 16).is_multiple_of(2) {
            put_request(i)
        } else {
            get_request(i)
        }
    };

    let (mut server, replies) = start(1);
    for k in 0..KEYS {
        server
            .submit_client(ClientId(1), put_request(k))
            .expect("running");
    }
    wait_for(&replies, KEYS);
    let mut rtt = Histogram::default();
    let round_trips = (ops / 10) as u64;
    for i in 0..round_trips {
        let sent = Instant::now();
        server
            .submit_client(ClientId(1), get_request(i))
            .expect("running");
        wait_for(&replies, KEYS + i + 1);
        rtt.record(sent.elapsed().as_nanos() as u64);
    }
    server.shutdown();
    out.push((
        "exec.submit_reply_rtt_p50_us",
        rtt.quantile_us(0.5),
        round_trips,
    ));

    for (lanes, name) in [(1, "exec.ops_s_lanes1"), (2, "exec.ops_s_lanes2")] {
        let (mut server, replies) = start(lanes);
        let started = Instant::now();
        for i in 0..ops as u64 {
            server
                .submit_client(ClientId(i), request(i))
                .expect("running");
        }
        wait_for(&replies, ops as u64);
        out.push((
            name,
            ops as f64 / started.elapsed().as_secs_f64(),
            ops as u64,
        ));
        server.shutdown();
    }
}

/// A whole 1×1 cluster on the channel transport under the workloads' two sessions:
/// router, inbox and server loop, with no wire and nothing to replicate to. Also the
/// single-node baseline.
fn runtime(window: Duration, out: &mut Values) -> Result<(), String> {
    for outstanding in [1, WINDOW] {
        let single = Workload {
            name: "channel_1x1",
            why: "",
            replicas: 1,
            partitions: 1,
            transport: TransportKind::Channel,
            protocol: RuntimeProtocol::Pocc,
            worker_lanes: 1,
            mix: [4, 1, 0],
            keys_per_partition: 1_000,
            zipf_theta: 0.0,
            outstanding,
            session_dcs: &[0, 0],
        };
        let plan = Plan {
            epochs: 1,
            warmup: window / 4,
            segment: window,
            segments: 1,
            traced: 0,
            setups: 1,
            inject_foreign_read: false,
        };
        let run = driver::run(&single, 1, &plan)?;
        if !run.correct() {
            return Err(format!(
                "channel_1x1 failed its checks: {:?}",
                run.violations
            ));
        }
        let segment = &run.segments[0];
        out.push(if outstanding == 1 {
            (
                "runtime.channel_1x1_rtt_p50_us",
                segment.get.quantile_us(0.5),
                segment.get.count(),
            )
        } else {
            (
                "runtime.channel_1x1_ops_s",
                segment.ops as f64 / window.as_secs_f64(),
                segment.ops,
            )
        });
    }
    Ok(())
}

fn session(iters: usize, out: &mut Values) -> f64 {
    let mut client = Client::new(ClientId(1), ServerId::new(0u16, 0u32), REPLICAS);
    let reply = get_reply();
    let cost = ns_per_call(iters, |i| {
        black_box(client.get(Key(i % KEYS)));
        client
            .process_reply(black_box(&reply))
            .expect("not aborted");
    });
    out.push(("client.session_ns", cost, (iters * BATCHES) as u64));
    cost
}

/// Runs the whole pass. `scale` shrinks every iteration count (1.0 for a real run);
/// `tcp_get_p50_us` is the GET median the path budget is set against.
pub fn run(scale: f64, tcp_get_p50_us: f64) -> Result<Vec<Measured>, String> {
    let scaled = |n: usize| ((n as f64 * scale) as usize).max(64);
    let mut values = Vec::with_capacity(LAYER_PASS.len());
    storage(scaled(40_000), &mut values);
    let wire = proto_and_net(scaled(100_000), &mut values);
    echo(TransportKind::Tcp, scaled(6_000), &mut values);
    echo(TransportKind::Channel, scaled(40_000), &mut values);
    let pocc_get = engine(scaled(40_000), &mut values);
    exec(scaled(200_000), &mut values);
    runtime(Duration::from_secs_f64(0.4 * scale.max(0.25)), &mut values)?;
    let session = session(scaled(100_000), &mut values);

    let compute_ns = wire + pocc_get + session;
    values.push(("path.get_compute_ns", compute_ns, 1));
    values.push((
        "path.get_unaccounted_frac",
        1.0 - compute_ns / (tcp_get_p50_us * 1000.0),
        1,
    ));

    assert!(
        values
            .iter()
            .map(|v| v.0)
            .eq(LAYER_PASS.iter().map(|d| d.name)),
        "the layer pass produces exactly the metrics it declares, in order"
    );
    Ok(values
        .into_iter()
        .map(|(name, value, samples)| Measured {
            name: name.into(),
            value,
            segments: Vec::new(),
            samples,
        })
        .collect())
}
