//! The TCP socket transport.
//!
//! Every server binds a listener on `127.0.0.1:0`; peers and clients announce themselves
//! with a hello frame and then exchange length-prefixed codec frames (see
//! [`crate::transport::frame`]). The design goals are the ones that make a socket path
//! fast rather than merely present:
//!
//! * **Write coalescing** — every leg (server to server, server to client, client to
//!   server) stages frames into one per-connection [`FrameWriter`] scratch (encoding in
//!   place via the codec's `encode_*_into`, zero steady-state allocations) and writes the
//!   whole backlog with a single `write` syscall when the staging thread would otherwise
//!   block: the connection reader after each `read` and the runtime's tick and lane
//!   flushes on a server, a [`ClientPort::recv_timeout`] that has no reply to hand back on
//!   a client. There is no timer. Replication batches produced by the engine's
//!   `MessageBatcher` travel as one `Batch` frame, so fan-out batching survives the wire.
//! * **Read-side buffer reuse** — every reader thread owns one fixed chunk buffer and one
//!   [`FrameDecoder`] whose backing storage is recycled across reads; complete frames are
//!   handed to the zero-copy decoder.
//! * **FIFO links** — each ordered pair of servers uses one dedicated outbound
//!   connection, so per-link send order (which the protocols rely on) is preserved by TCP
//!   itself. No artificial latency is injected: this backend measures the real stack.
//!
//! Threads: one acceptor per server, one reader per accepted connection, one reader per
//! client-port connection. A connection reader pushes every frame it decodes into the
//! [`EventSink`], which may run the server's engine right there on the reader's thread;
//! after each `read` whose frames it delivered, the reader flushes its server (replies,
//! then peer links), as [`Transport::flush`] does, so whatever the sink staged leaves
//! before the reader blocks again. All threads poll a shared `running` flag with short
//! read timeouts, so shutdown converges in tens of milliseconds without any signaling
//! channel.

use crate::transport::frame::{
    decode_hello_client, decode_hello_server, FrameDecoder, FrameWriter, HELLO_CLIENT,
    HELLO_SERVER, REPLY, REQUEST, SERVER_MSG,
};
use crate::transport::{ClientPort, EventSink, Transport, TransportEvent};
use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::{Mutex, RwLock};
use pocc_proto::{codec, ClientReply, ClientRequest, ServerMessage};
use pocc_types::{ClientId, Config, Error, Result, ServerId};
use std::collections::{HashMap, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Size of the per-reader receive chunk.
const READ_CHUNK: usize = 64 * 1024;

/// Staged bytes beyond which a connection flushes early instead of waiting for its
/// owner's flush, bounding every scratch buffer's high-water mark.
const FLUSH_THRESHOLD: usize = 256 * 1024;

/// How often blocked readers wake up to check the shutdown flag.
const READ_TIMEOUT: Duration = Duration::from_millis(50);

/// A connection's write half plus its staging scratch.
struct ConnWriter {
    stream: TcpStream,
    scratch: FrameWriter,
}

impl ConnWriter {
    fn new(stream: TcpStream) -> Self {
        ConnWriter {
            stream,
            scratch: FrameWriter::new(),
        }
    }

    /// Writes everything staged with one `write_all`, retaining the scratch allocation.
    /// The only place bytes reach a socket, on every leg.
    fn flush(&mut self) -> std::io::Result<()> {
        if !self.scratch.is_empty() {
            self.stream.write_all(self.scratch.bytes())?;
            self.scratch.clear();
        }
        Ok(())
    }
}

/// The per-server state of the transport.
struct NodeState {
    /// Lazily dialed outbound connections to sibling/peer servers, one per destination,
    /// each with its own reused encode scratch (the per-destination `BytesMut`).
    peers: Mutex<HashMap<ServerId, ConnWriter>>,
    /// Write halves of accepted client connections, registered at hello time.
    clients: RwLock<HashMap<ClientId, Arc<Mutex<ConnWriter>>>>,
    /// The client connections holding staged replies: a connection is listed by whoever
    /// stages into its empty scratch, so a flush visits these and never scans `clients`.
    dirty: Mutex<Vec<(ClientId, Arc<Mutex<ConnWriter>>)>>,
}

impl NodeState {
    /// Writes out every client connection with staged replies, one `write` each. A
    /// connection whose write fails is dropped; the others are unaffected.
    fn flush_clients(&self) {
        loop {
            // The list is unlocked again before the write, so lanes flush different
            // clients in parallel.
            let Some((client, writer)) = self.dirty.lock().pop() else {
                return;
            };
            if writer.lock().flush().is_err() {
                self.clients.write().remove(&client);
            }
        }
    }

    /// Writes out everything staged: replies first, then peer links. A peer link whose
    /// write fails is dropped and dialed afresh by the next `send_server`.
    fn flush(&self) {
        self.flush_clients();
        self.peers.lock().retain(|_, conn| conn.flush().is_ok());
    }
}

/// The TCP socket backend. See the module docs.
pub struct TcpTransport {
    addrs: HashMap<ServerId, SocketAddr>,
    nodes: HashMap<ServerId, Arc<NodeState>>,
    running: Arc<AtomicBool>,
    threads: Mutex<Vec<JoinHandle<()>>>,
}

impl TcpTransport {
    /// Binds one listener per server of `config` and starts the acceptor threads.
    /// Inbound requests and peer messages are pushed into `sink`.
    pub fn start(config: &Config, sink: EventSink) -> std::io::Result<Arc<TcpTransport>> {
        let running = Arc::new(AtomicBool::new(true));
        let mut addrs = HashMap::new();
        let mut nodes = HashMap::new();
        let mut listeners = Vec::new();
        for id in config.servers() {
            let listener = TcpListener::bind("127.0.0.1:0")?;
            addrs.insert(id, listener.local_addr()?);
            nodes.insert(
                id,
                Arc::new(NodeState {
                    peers: Mutex::new(HashMap::new()),
                    clients: RwLock::new(HashMap::new()),
                    dirty: Mutex::new(Vec::new()),
                }),
            );
            listeners.push((id, listener));
        }
        let mut threads = Vec::new();
        for (id, listener) in listeners {
            listener.set_nonblocking(true)?;
            let node = Arc::clone(&nodes[&id]);
            let accept_sink = Arc::clone(&sink);
            let accept_running = Arc::clone(&running);
            let handle = std::thread::Builder::new()
                .name(format!("pocc-accept-{id}"))
                .spawn(move || acceptor(id, listener, node, accept_sink, accept_running))
                .expect("spawning an acceptor thread succeeds");
            threads.push(handle);
        }
        Ok(Arc::new(TcpTransport {
            addrs,
            nodes,
            running,
            threads: Mutex::new(threads),
        }))
    }
}

impl Transport for TcpTransport {
    fn send_server(&self, from: ServerId, to: ServerId, message: ServerMessage) {
        let node = &self.nodes[&from];
        let mut peers = node.peers.lock();
        if let std::collections::hash_map::Entry::Vacant(slot) = peers.entry(to) {
            // Lazily dial the dedicated outbound link; the hello frame travels at the
            // head of the first flush.
            match TcpStream::connect(self.addrs[&to]) {
                Ok(stream) => {
                    let _ = stream.set_nodelay(true);
                    let mut conn = ConnWriter::new(stream);
                    if conn.scratch.stage_hello_server(from).is_ok() {
                        slot.insert(conn);
                    }
                }
                Err(_) => return, // destination gone (shutdown races); drop the message
            }
        }
        let Some(conn) = peers.get_mut(&to) else {
            return;
        };
        if conn.scratch.stage_server_message(&message).is_err() {
            return;
        }
        if conn.scratch.len() >= FLUSH_THRESHOLD && conn.flush().is_err() {
            peers.remove(&to);
        }
    }

    fn reply(&self, from: ServerId, client: ClientId, reply: ClientReply) {
        let node = &self.nodes[&from];
        let Some(writer) = node.clients.read().get(&client).cloned() else {
            return;
        };
        let mut conn = writer.lock();
        let was_clean = conn.scratch.is_empty();
        if conn.scratch.stage_reply(&reply).is_err() {
            return;
        }
        let over_threshold = conn.scratch.len() >= FLUSH_THRESHOLD;
        drop(conn);
        if was_clean {
            node.dirty.lock().push((client, writer));
        }
        if over_threshold {
            node.flush_clients();
        }
    }

    fn flush(&self, from: ServerId) {
        self.nodes[&from].flush();
    }

    fn client_port(&self, client: ClientId) -> Box<dyn ClientPort> {
        let (tx, rx) = unbounded();
        Box::new(TcpClientPort {
            client,
            addrs: self.addrs.clone(),
            conns: HashMap::new(),
            replies_tx: tx,
            replies_rx: rx,
            ready: VecDeque::new(),
            staged: false,
        })
    }

    fn addr(&self, server: ServerId) -> Option<SocketAddr> {
        self.addrs.get(&server).copied()
    }

    fn shutdown(&self) {
        if self.running.swap(false, Ordering::SeqCst) {
            for node in self.nodes.values() {
                for (_, conn) in node.peers.lock().drain() {
                    let _ = conn.stream.shutdown(Shutdown::Both);
                }
                for (_, conn) in node.clients.write().drain() {
                    let _ = conn.lock().stream.shutdown(Shutdown::Both);
                }
            }
            for handle in self.threads.lock().drain(..) {
                let _ = handle.join();
            }
        }
    }
}

impl Drop for TcpTransport {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Accepts connections for one server and spawns a reader thread per connection.
fn acceptor(
    id: ServerId,
    listener: TcpListener,
    node: Arc<NodeState>,
    sink: EventSink,
    running: Arc<AtomicBool>,
) {
    let mut readers: Vec<JoinHandle<()>> = Vec::new();
    while running.load(Ordering::Relaxed) {
        match listener.accept() {
            Ok((stream, _)) => {
                let _ = stream.set_nodelay(true);
                let _ = stream.set_read_timeout(Some(READ_TIMEOUT));
                let conn_node = Arc::clone(&node);
                let conn_sink = Arc::clone(&sink);
                let conn_running = Arc::clone(&running);
                let handle = std::thread::Builder::new()
                    .name(format!("pocc-conn-{id}"))
                    .spawn(move || {
                        connection_reader(id, stream, conn_node, conn_sink, conn_running)
                    })
                    .expect("spawning a connection reader succeeds");
                readers.push(handle);
            }
            Err(err) if err.kind() == ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(_) => break,
        }
    }
    for handle in readers {
        let _ = handle.join();
    }
}

/// Which kind of endpoint a connection's hello announced.
enum Role {
    Client(ClientId),
    Peer(ServerId),
}

/// Reads one accepted connection: hello first, then requests (client connections) or
/// server messages (peer connections), pushed into the sink in arrival order. After each
/// `read` whose frames reached the sink, the node is flushed before the reader blocks
/// again: the sink may have run the server on this thread, and what it staged would
/// otherwise wait for somebody else's flush. The chunk buffer and frame decoder are
/// allocated once and reused for the connection's lifetime.
fn connection_reader(
    node_id: ServerId,
    mut stream: TcpStream,
    node: Arc<NodeState>,
    sink: EventSink,
    running: Arc<AtomicBool>,
) {
    let mut chunk = vec![0u8; READ_CHUNK];
    let mut decoder = FrameDecoder::new();
    let mut role: Option<Role> = None;
    while running.load(Ordering::Relaxed) {
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => decoder.extend(&chunk[..n]),
            Err(err) if matches!(err.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                continue;
            }
            Err(_) => break,
        }
        let mut delivered = false;
        let well_formed = loop {
            let (kind, payload) = match decoder.next_frame() {
                Ok(Some(frame)) => frame,
                Ok(None) => break true,
                Err(_) => break false, // corrupt stream
            };
            let accepted = match &role {
                None => match kind {
                    HELLO_CLIENT => decode_hello_client(&payload).ok().and_then(|client| {
                        let writer = stream.try_clone().ok()?;
                        node.clients
                            .write()
                            .insert(client, Arc::new(Mutex::new(ConnWriter::new(writer))));
                        role = Some(Role::Client(client));
                        Some(())
                    }),
                    HELLO_SERVER => decode_hello_server(&payload).ok().map(|from| {
                        role = Some(Role::Peer(from));
                    }),
                    _ => None,
                },
                Some(Role::Client(client)) if kind == REQUEST => {
                    codec::decode_request(payload).ok().map(|request| {
                        sink(
                            node_id,
                            TransportEvent::Client {
                                client: *client,
                                request,
                            },
                        );
                        delivered = true;
                    })
                }
                Some(Role::Peer(from)) if kind == SERVER_MSG => {
                    codec::decode_server_message(payload).ok().map(|message| {
                        sink(
                            node_id,
                            TransportEvent::Peer {
                                from: *from,
                                message,
                            },
                        );
                        delivered = true;
                    })
                }
                Some(_) => None,
            };
            if accepted.is_none() {
                break false; // protocol violation
            }
        };
        if delivered {
            node.flush();
        }
        if !well_formed {
            break; // drop the connection
        }
    }
    if let Some(Role::Client(client)) = role {
        node.clients.write().remove(&client);
    }
}

/// One connection of a [`TcpClientPort`]: the write half plus its reader thread's handle.
struct PortConn {
    writer: ConnWriter,
    reader: Option<JoinHandle<()>>,
}

impl Drop for PortConn {
    fn drop(&mut self) {
        // Shutting the socket down unblocks the reader thread (clones share it).
        let _ = self.writer.stream.shutdown(Shutdown::Both);
        if let Some(handle) = self.reader.take() {
            let _ = handle.join();
        }
    }
}

/// A client's sockets into the cluster: one lazily dialed connection per server the
/// session talks to, each with a reader thread funneling reply batches into one merged
/// channel. Requests stage per connection and leave when the caller is about to wait.
struct TcpClientPort {
    client: ClientId,
    addrs: HashMap<ServerId, SocketAddr>,
    conns: HashMap<ServerId, PortConn>,
    replies_tx: Sender<Vec<ClientReply>>,
    replies_rx: Receiver<Vec<ClientReply>>,
    /// The rest of the reply batch last taken off the channel.
    ready: VecDeque<ClientReply>,
    /// Whether any connection holds requests staged since the last flush.
    staged: bool,
}

impl TcpClientPort {
    fn connect(&mut self, to: ServerId) -> Result<()> {
        let addr = self.addrs.get(&to).ok_or_else(|| Error::ChannelClosed {
            endpoint: format!("unknown server {to}"),
        })?;
        let stream = TcpStream::connect(addr).map_err(|err| Error::ChannelClosed {
            endpoint: format!("connect to {to}: {err}"),
        })?;
        let _ = stream.set_nodelay(true);
        let read_half = stream.try_clone().map_err(|err| Error::ChannelClosed {
            endpoint: format!("clone stream to {to}: {err}"),
        })?;
        let tx = self.replies_tx.clone();
        let reader = std::thread::Builder::new()
            .name(format!("pocc-client-{}", self.client))
            .spawn(move || port_reader(read_half, tx))
            .expect("spawning a client reader succeeds");
        let mut writer = ConnWriter::new(stream);
        writer.scratch.stage_hello_client(self.client)?;
        self.conns.insert(
            to,
            PortConn {
                writer,
                reader: Some(reader),
            },
        );
        Ok(())
    }
}

impl ClientPort for TcpClientPort {
    fn submit(&mut self, to: ServerId, request: ClientRequest) -> Result<()> {
        if !self.conns.contains_key(&to) {
            self.connect(to)?;
        }
        let conn = self.conns.get_mut(&to).expect("just connected");
        conn.writer.scratch.stage_request(&request)?;
        self.staged = true;
        if conn.writer.scratch.len() >= FLUSH_THRESHOLD {
            return self.flush();
        }
        Ok(())
    }

    fn flush(&mut self) -> Result<()> {
        if !std::mem::take(&mut self.staged) {
            return Ok(());
        }
        let mut failed = None;
        // One `write` per connection with staged requests; a connection whose write
        // fails is dropped (with its reader), and the next submit dials afresh.
        self.conns.retain(|to, conn| match conn.writer.flush() {
            Ok(()) => true,
            Err(err) => {
                failed.get_or_insert((*to, err));
                false
            }
        });
        match failed {
            None => Ok(()),
            Some((to, err)) => Err(Error::ChannelClosed {
                endpoint: format!("send to {to}: {err}"),
            }),
        }
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Result<ClientReply> {
        loop {
            if let Some(reply) = self.ready.pop_front() {
                return Ok(reply);
            }
            let batch = match self.replies_rx.try_recv() {
                Ok(batch) => batch,
                Err(_) => {
                    // Nothing to hand back: the caller is about to wait, so what it
                    // staged has to leave now. A caller handed k replies by one read
                    // thus sends its k follow-up requests with one write.
                    self.flush()?;
                    self.replies_rx
                        .recv_timeout(timeout)
                        .map_err(|_| Error::ChannelClosed {
                            endpoint: format!("reply stream of {}", self.client),
                        })?
                }
            };
            self.ready = VecDeque::from(batch);
        }
    }
}

impl Drop for TcpClientPort {
    fn drop(&mut self) {
        // Requests submitted and never waited for still leave; the connections then
        // close as they drop.
        let _ = self.flush();
    }
}

/// Reads replies off one client connection into the port's merged reply channel, all
/// replies decoded from one `read` as one message. Exits when the socket closes (port
/// drop, server shutdown), the stream is malformed or the port is gone.
fn port_reader(mut stream: TcpStream, tx: Sender<Vec<ClientReply>>) {
    let mut chunk = vec![0u8; READ_CHUNK];
    let mut decoder = FrameDecoder::new();
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => return,
            Ok(n) => decoder.extend(&chunk[..n]),
            Err(err) if matches!(err.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                continue;
            }
            Err(_) => return,
        }
        let mut batch = Vec::new();
        let well_formed = loop {
            match decoder.next_frame() {
                Ok(Some((REPLY, payload))) => match codec::decode_reply(payload) {
                    Ok(reply) => batch.push(reply),
                    Err(_) => break false,
                },
                Ok(None) => break true,
                Ok(Some(_)) | Err(_) => break false, // protocol violation
            }
        };
        if !batch.is_empty() && tx.send(batch).is_err() {
            return;
        }
        if !well_formed {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pocc_proto::GetResponse;
    use pocc_types::{DependencyVector, Key, LatencyMatrix, ReplicaId, Timestamp, Value};
    use std::time::Instant;

    const A: ServerId = ServerId {
        replica: ReplicaId(0),
        partition: pocc_types::PartitionId(0),
    };
    const B: ServerId = ServerId {
        replica: ReplicaId(1),
        partition: pocc_types::PartitionId(0),
    };
    /// Long enough for anything that was written to a socket to have arrived.
    const SETTLE: Duration = Duration::from_millis(100);
    const PATIENCE: Duration = Duration::from_secs(5);

    type Events = Receiver<(ServerId, TransportEvent)>;

    fn start() -> (Arc<TcpTransport>, Events) {
        let config = Config::builder()
            .num_replicas(2)
            .num_partitions(1)
            .latency(LatencyMatrix::uniform(
                2,
                Duration::from_micros(10),
                Duration::from_millis(1),
            ))
            .build()
            .unwrap();
        let (tx, rx) = unbounded();
        let sink: EventSink = Arc::new(move |to, event| {
            let _ = tx.send((to, event));
        });
        (TcpTransport::start(&config, sink).unwrap(), rx)
    }

    fn get(key: u64) -> ClientRequest {
        ClientRequest::Get {
            key: Key(key),
            rdv: DependencyVector::zero(2),
        }
    }

    /// A PUT acknowledgement numbered `seq`.
    fn ack(seq: u64) -> ClientReply {
        ClientReply::Put {
            update_time: Timestamp(seq),
        }
    }

    /// A GET reply numbered `seq` that carries `bytes` of value.
    fn bulky(seq: u64, bytes: usize) -> ClientReply {
        ClientReply::Get(GetResponse {
            value: Some(Value::from(vec![7u8; bytes])),
            update_time: Timestamp(seq),
            deps: DependencyVector::zero(2),
            source_replica: ReplicaId(0),
        })
    }

    fn seq_of(reply: &ClientReply) -> u64 {
        match reply {
            ClientReply::Put { update_time } => update_time.0,
            ClientReply::Get(resp) => resp.update_time.0,
            other => panic!("unexpected reply {other:?}"),
        }
    }

    /// The key of the next request to reach the sink, which must come from `client`.
    fn next_request(events: &Events, client: ClientId) -> u64 {
        match events.recv_timeout(PATIENCE).expect("a request arrives") {
            (
                A,
                TransportEvent::Client {
                    client: from,
                    request: ClientRequest::Get { key, .. } | ClientRequest::Put { key, .. },
                },
            ) if from == client => key.0,
            other => panic!("unexpected event {other:?}"),
        }
    }

    /// Opens a port for `client` and gets its connection to `A` registered there. The
    /// reader that delivered the first request flushes `A` right after: that flush is let
    /// pass first, so it cannot carry replies the caller stages next.
    fn connected_port(t: &TcpTransport, events: &Events, client: ClientId) -> Box<dyn ClientPort> {
        let mut port = t.client_port(client);
        port.submit(A, get(0)).unwrap();
        port.flush().unwrap();
        assert_eq!(next_request(events, client), 0);
        std::thread::sleep(SETTLE);
        port
    }

    fn assert_silent(port: &mut dyn ClientPort) {
        assert!(
            port.recv_timeout(SETTLE).is_err(),
            "a reply reached the port before anyone flushed it"
        );
    }

    #[test]
    fn requests_replies_and_peer_messages_cross_real_sockets() {
        let (t, events) = start();
        assert!(t.addr(A).is_some());

        // A request leaves when its submitter waits for the reply, not before.
        let mut port = t.client_port(ClientId(5));
        port.submit(A, get(3)).unwrap();
        assert!(events.recv_timeout(SETTLE).is_err(), "submit only stages");
        assert!(port.recv_timeout(Duration::ZERO).is_err());
        assert_eq!(next_request(&events, ClientId(5)), 3);

        // A reply leaves with the server's flush.
        t.reply(A, ClientId(5), ack(1));
        t.flush(A);
        assert_eq!(seq_of(&port.recv_timeout(PATIENCE).unwrap()), 1);

        // Peer messages stage until the flush, then arrive in order.
        for ts in 1..=3u64 {
            t.send_server(
                A,
                B,
                ServerMessage::Heartbeat {
                    clock: Timestamp(ts),
                },
            );
        }
        t.flush(A);
        for ts in 1..=3u64 {
            let (to, event) = events.recv_timeout(PATIENCE).unwrap();
            assert_eq!(to, B);
            match event {
                TransportEvent::Peer { from, message } => {
                    assert_eq!(from, A);
                    assert_eq!(
                        message,
                        ServerMessage::Heartbeat {
                            clock: Timestamp(ts)
                        }
                    );
                }
                other => panic!("unexpected event {other:?}"),
            }
        }
        drop(port);
        t.shutdown();
    }

    #[test]
    fn submitted_requests_wait_for_the_port_flush_and_keep_their_order() {
        let (t, events) = start();
        let mut port = t.client_port(ClientId(1));
        for key in 0..100 {
            port.submit(A, get(key)).unwrap();
        }
        assert!(events.recv_timeout(SETTLE).is_err(), "submit only stages");
        port.flush().unwrap();
        for key in 0..100 {
            assert_eq!(next_request(&events, ClientId(1)), key);
        }
        drop(port);
        t.shutdown();
    }

    #[test]
    fn staged_replies_wait_for_the_server_flush_and_keep_their_order() {
        let (t, events) = start();
        let mut port = connected_port(&t, &events, ClientId(2));
        for seq in 1..=3 {
            t.reply(A, ClientId(2), ack(seq));
        }
        assert_silent(port.as_mut());
        // Flushing another server changes nothing, and flushing this one twice sends
        // everything once.
        t.flush(B);
        assert_silent(port.as_mut());
        t.flush(A);
        t.flush(A);
        for seq in 1..=3 {
            assert_eq!(seq_of(&port.recv_timeout(PATIENCE).unwrap()), seq);
        }

        // An early threshold flush takes everything staged before it along, in order,
        // and what is staged after it waits for the next flush.
        t.reply(A, ClientId(2), ack(4));
        let bulk = FLUSH_THRESHOLD / 3 + 1;
        for seq in 5..=7 {
            t.reply(A, ClientId(2), bulky(seq, bulk));
        }
        t.reply(A, ClientId(2), ack(8));
        for seq in 4..=7 {
            assert_eq!(seq_of(&port.recv_timeout(PATIENCE).unwrap()), seq);
        }
        assert_silent(port.as_mut());
        t.flush(A);
        assert_eq!(seq_of(&port.recv_timeout(PATIENCE).unwrap()), 8);
        drop(port);
        t.shutdown();
    }

    #[test]
    fn staging_past_the_threshold_flushes_requests_unasked() {
        let (t, events) = start();
        let mut port = t.client_port(ClientId(3));
        let value = Value::from(vec![7u8; FLUSH_THRESHOLD / 3 + 1]);
        for key in 1..=3 {
            let put = ClientRequest::Put {
                key: Key(key),
                value: value.clone(),
                dv: DependencyVector::zero(2),
            };
            port.submit(A, put).unwrap();
        }
        port.submit(A, get(4)).unwrap();
        // The third PUT crossed the threshold: all three arrive with no flush and no
        // wait; the GET staged after them stays behind.
        for key in 1..=3 {
            assert_eq!(next_request(&events, ClientId(3)), key);
        }
        assert!(events.recv_timeout(SETTLE).is_err());
        port.flush().unwrap();
        assert_eq!(next_request(&events, ClientId(3)), 4);
        drop(port);
        t.shutdown();
    }

    #[test]
    fn a_vanished_client_is_dropped_without_harming_the_others() {
        let (t, events) = start();
        let gone = connected_port(&t, &events, ClientId(10));
        let mut port = connected_port(&t, &events, ClientId(11));

        // Replies for both are staged when the first client closes its socket.
        t.reply(A, ClientId(10), ack(1));
        t.reply(A, ClientId(11), ack(1));
        drop(gone);
        let deadline = Instant::now() + PATIENCE;
        while t.nodes[&A].clients.read().contains_key(&ClientId(10)) {
            assert!(
                Instant::now() < deadline,
                "the closed client is never dropped"
            );
            // Flushing into the closed socket, until the write fails or the reader
            // sees the end of the stream, whichever comes first.
            t.reply(A, ClientId(10), ack(2));
            t.flush(A);
            std::thread::sleep(Duration::from_millis(1));
        }
        // The stale entry of the dropped client does not keep the other's reply back.
        t.flush(A);
        assert_eq!(seq_of(&port.recv_timeout(PATIENCE).unwrap()), 1);

        // Replies to the dropped client vanish; the survivor's flushes keep working.
        for seq in 2..=4 {
            t.reply(A, ClientId(10), ack(seq));
            t.reply(A, ClientId(11), ack(seq));
            t.flush(A);
            assert_eq!(seq_of(&port.recv_timeout(PATIENCE).unwrap()), seq);
        }
        assert!(t.nodes[&A].dirty.lock().is_empty());
        drop(port);
        t.shutdown();
    }

    #[test]
    fn a_sink_that_answers_inline_needs_no_flush() {
        // No server thread: the sink answers on the connection reader's own thread, and
        // on every request also stages a message to the other server. The reader flushes
        // both, replies and peer links, before it blocks in `read` again.
        let far_side: Arc<std::sync::OnceLock<Arc<TcpTransport>>> = Arc::default();
        let (peer_tx, peer_rx) = unbounded();
        let sink: EventSink = {
            let far_side = Arc::clone(&far_side);
            Arc::new(move |to, event| match (event, far_side.get()) {
                (TransportEvent::Client { client, .. }, Some(t)) => {
                    t.reply(to, client, ack(9));
                    let clock = Timestamp(client.raw());
                    t.send_server(to, B, ServerMessage::Heartbeat { clock });
                }
                (TransportEvent::Peer { from, message }, _) => {
                    let _ = peer_tx.send((to, from, message));
                }
                _ => {}
            })
        };
        let config = Config::builder()
            .num_replicas(2)
            .num_partitions(1)
            .build()
            .unwrap();
        let t = TcpTransport::start(&config, sink).unwrap();
        let _ = far_side.set(Arc::clone(&t));
        let mut port = t.client_port(ClientId(1));
        for _ in 0..3 {
            port.submit(A, get(1)).unwrap();
            port.submit(A, get(2)).unwrap();
            for _ in 0..2 {
                assert_eq!(seq_of(&port.recv_timeout(PATIENCE).unwrap()), 9);
            }
        }
        // Six requests, six heartbeats on the A → B link, all flushed by A's reader.
        for _ in 0..6 {
            let heartbeat = ServerMessage::Heartbeat {
                clock: Timestamp(1),
            };
            assert_eq!(peer_rx.recv_timeout(PATIENCE).unwrap(), (B, A, heartbeat));
        }
        drop(port);
        t.shutdown();
    }
}
