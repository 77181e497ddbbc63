//! The in-process channel transport.
//!
//! Moves messages between node threads without any syscalls. Client requests run on the
//! submitting thread, which then flushes the server, and replies cross `crossbeam`
//! channels. Every server-to-server message is staged on its link's FIFO queue with the
//! instant it falls due: at once within a data center, after the configured one-way delay
//! between data centers, exactly like the simulator's latency model. A
//! [`Transport::flush`] of a server delivers, on the flushing thread, what is due on its
//! direct links out (to the servers of its data center) and on its delayed links in,
//! then flushes the servers it delivered to, as a TCP connection reader does. A delayed
//! message thus runs on a thread of the receiving server, which is busy anyway, and a
//! delay thread flushes the receiver when the message falls due, in case nobody else
//! has. Per-link FIFO order is preserved: a link's delay is constant, so its deadlines
//! never decrease, and it is delivered under its own delivery lock.
//!
//! This is the reference backend: it runs the same node logic as the TCP transport with
//! no wire in between, which is what lets the differential suite separate protocol bugs
//! from transport bugs.

use crate::transport::{ClientPort, EventSink, Transport, TransportEvent};
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use parking_lot::{Mutex, RwLock};
use pocc_proto::{ClientReply, ClientRequest, ServerMessage};
use pocc_types::{ClientId, Config, Error, Result, ServerId};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Below this one-way delay a link is direct: it delivers on its sender's next flush
/// instead of after the delay, because the channel hop itself already costs on that
/// order.
const DIRECT_DELIVERY: Duration = Duration::from_micros(500);

/// One link's staged messages, oldest first, each with the instant it falls due. A flush
/// takes the due ones while holding `delivery`. The lock order is `delivery` → the
/// receiver's spine (the sink runs the receiver) → `staged`, and a thread holding a spine
/// only ever appends.
struct Link {
    /// The emulated one-way delay; zero for a direct link.
    delay: Duration,
    staged: Mutex<VecDeque<(Instant, ServerMessage)>>,
    delivery: Mutex<()>,
}

impl Link {
    /// Whether a message falling due `at` is due for a flush that started at `start`. A
    /// delayed message that falls due after the flush started waits for the next flush,
    /// so a flush under steady traffic ends.
    fn due(&self, at: Instant, start: Instant) -> bool {
        self.delay.is_zero() || at <= start
    }
}

/// What the transport, its client ports and its delay thread share.
struct Fabric {
    sink: EventSink,
    /// Every link, by sender and then receiver.
    links: HashMap<ServerId, HashMap<ServerId, Link>>,
}

impl Fabric {
    /// Delivers what is due on the delayed links into `node` and on the direct links out
    /// of it, and then, through a work list rather than a recursive call, whatever the
    /// receivers staged on their direct links while running. When it returns, everything
    /// due that was staged before the call has been delivered or is being delivered by a
    /// flusher that holds the link.
    fn flush(&self, node: ServerId) {
        let start = Instant::now();
        let mut work = vec![node];
        while let Some(node) = work.pop() {
            // Delayed messages first: they run `node`, whose outputs the direct links
            // then carry.
            for (&from, links) in &self.links {
                let link = &links[&node];
                if !link.delay.is_zero() {
                    self.deliver_due(from, node, link, start);
                }
            }
            for (&to, link) in &self.links[&node] {
                if link.delay.is_zero()
                    && self.deliver_due(node, to, link, start)
                    && !work.contains(&to)
                {
                    work.push(to);
                }
            }
        }
    }

    /// Delivers the messages due on the link `from → to`, in order, and reports whether
    /// there were any.
    fn deliver_due(&self, from: ServerId, to: ServerId, link: &Link, start: Instant) -> bool {
        // A link with nothing due is skipped without waiting for a flusher that holds it.
        if !matches!(link.staged.lock().front(), Some((at, _)) if link.due(*at, start)) {
            return false;
        }
        let _delivery = link.delivery.lock();
        let due: Vec<ServerMessage> = {
            let mut staged = link.staged.lock();
            let n = staged.partition_point(|(at, _)| link.due(*at, start));
            staged.drain(..n).map(|(_, message)| message).collect()
        };
        let delivered = !due.is_empty();
        for message in due {
            (self.sink)(to, TransportEvent::Peer { from, message });
        }
        delivered
    }
}

/// The in-process channel backend. See the module docs.
pub struct ChannelTransport {
    fabric: Arc<Fabric>,
    clients: Arc<RwLock<HashMap<ClientId, Sender<ClientReply>>>>,
    /// When a delayed message falls due and whom to, for the delay thread.
    timers: Sender<(Instant, ServerId)>,
    delay_thread: Mutex<Option<JoinHandle<()>>>,
    running: Arc<AtomicBool>,
}

impl ChannelTransport {
    /// Starts the backend: spawns the delay thread and returns the shared handle.
    pub fn start(config: Config, sink: EventSink) -> Arc<ChannelTransport> {
        let link = |from: ServerId, to: ServerId| {
            let delay = config.latency.between(from.replica, to.replica);
            Link {
                delay: if delay <= DIRECT_DELIVERY {
                    Duration::ZERO
                } else {
                    delay
                },
                staged: Mutex::default(),
                delivery: Mutex::default(),
            }
        };
        let links = config
            .servers()
            .map(|from| {
                (
                    from,
                    config.servers().map(|to| (to, link(from, to))).collect(),
                )
            })
            .collect();
        let fabric = Arc::new(Fabric { sink, links });
        let (tx, rx) = unbounded();
        let running = Arc::new(AtomicBool::new(true));
        let thread_fabric = Arc::clone(&fabric);
        let thread_running = Arc::clone(&running);
        let handle = std::thread::Builder::new()
            .name("pocc-net-delay".into())
            .spawn(move || delay_thread(thread_fabric, rx, thread_running))
            .expect("spawning the delay thread succeeds");
        Arc::new(ChannelTransport {
            fabric,
            clients: Arc::new(RwLock::new(HashMap::new())),
            timers: tx,
            delay_thread: Mutex::new(Some(handle)),
            running,
        })
    }
}

impl Transport for ChannelTransport {
    fn send_server(&self, from: ServerId, to: ServerId, message: ServerMessage) {
        let link = &self.fabric.links[&from][&to];
        let at = Instant::now() + link.delay;
        link.staged.lock().push_back((at, message));
        if !link.delay.is_zero() {
            let _ = self.timers.send((at, to));
        }
    }

    fn reply(&self, _from: ServerId, client: ClientId, reply: ClientReply) {
        if let Some(tx) = self.clients.read().get(&client) {
            let _ = tx.send(reply);
        }
    }

    fn flush(&self, from: ServerId) {
        self.fabric.flush(from);
    }

    fn client_port(&self, client: ClientId) -> Box<dyn ClientPort> {
        let (tx, rx) = unbounded();
        self.clients.write().insert(client, tx);
        Box::new(ChannelClientPort {
            client,
            fabric: Arc::clone(&self.fabric),
            replies: rx,
            clients: Arc::clone(&self.clients),
        })
    }

    fn addr(&self, _server: ServerId) -> Option<SocketAddr> {
        None
    }

    fn shutdown(&self) {
        if self.running.swap(false, Ordering::SeqCst) {
            // The delay thread notices `running` flip on its next timeout tick.
            if let Some(handle) = self.delay_thread.lock().take() {
                let _ = handle.join();
            }
        }
    }
}

impl Drop for ChannelTransport {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// A client's view of the channel backend: a request runs on the submitting thread
/// (clients are collocated with their data center, so no delay applies), which then
/// flushes the server, and replies arrive on a private channel.
struct ChannelClientPort {
    client: ClientId,
    fabric: Arc<Fabric>,
    replies: Receiver<ClientReply>,
    clients: Arc<RwLock<HashMap<ClientId, Sender<ClientReply>>>>,
}

impl ClientPort for ChannelClientPort {
    fn submit(&mut self, to: ServerId, request: ClientRequest) -> Result<()> {
        let client = self.client;
        (self.fabric.sink)(to, TransportEvent::Client { client, request });
        self.fabric.flush(to);
        Ok(())
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Result<ClientReply> {
        self.replies
            .recv_timeout(timeout)
            .map_err(|_| Error::ChannelClosed {
                endpoint: format!("reply channel of {}", self.client),
            })
    }
}

impl Drop for ChannelClientPort {
    fn drop(&mut self) {
        self.clients.write().remove(&self.client);
    }
}

/// Flushes each receiver once a message staged for it on a delayed link falls due. A busy
/// receiver's own flushes usually deliver it first; the timer is what delivers it to a
/// quiet one.
fn delay_thread(fabric: Arc<Fabric>, rx: Receiver<(Instant, ServerId)>, running: Arc<AtomicBool>) {
    let mut timers: BinaryHeap<Reverse<(Instant, ServerId)>> = BinaryHeap::new();
    while running.load(Ordering::Relaxed) || !timers.is_empty() {
        let now = Instant::now();
        let mut receivers = Vec::new();
        while let Some(&Reverse((at, to))) = timers.peek() {
            if at > now {
                break;
            }
            timers.pop();
            if !receivers.contains(&to) {
                receivers.push(to);
            }
        }
        for to in receivers {
            fabric.flush(to);
        }
        let timeout = timers
            .peek()
            .map(|Reverse((at, _))| at.saturating_duration_since(Instant::now()))
            .unwrap_or(Duration::from_millis(5));
        match rx.recv_timeout(timeout.max(Duration::from_micros(100))) {
            Ok(timer) => {
                timers.push(Reverse(timer));
                timers.extend(rx.try_iter().map(Reverse));
            }
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => {
                if timers.is_empty() {
                    break;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Mutex as PlMutex;
    use pocc_types::{DependencyVector, Key, LatencyMatrix, Timestamp};

    fn config() -> Config {
        Config::builder()
            .num_replicas(2)
            .num_partitions(2)
            .latency(LatencyMatrix::uniform(
                2,
                Duration::from_micros(10),
                Duration::from_millis(5),
            ))
            .build()
            .unwrap()
    }

    type EventLog = Arc<PlMutex<Vec<(ServerId, String)>>>;

    fn collecting_sink() -> (EventSink, EventLog) {
        let events = Arc::new(PlMutex::new(Vec::new()));
        let sink_events = Arc::clone(&events);
        let sink: EventSink = Arc::new(move |to, event| {
            sink_events.lock().push((to, format!("{event:?}")));
        });
        (sink, events)
    }

    fn heartbeat(clock: u64) -> ServerMessage {
        ServerMessage::Heartbeat {
            clock: Timestamp(clock),
        }
    }

    #[test]
    fn intra_dc_links_deliver_on_flush_in_order_under_concurrent_flushers() {
        let a = ServerId::new(0u16, 0u32);
        let b = ServerId::new(0u16, 1u32);

        // An intra-DC message waits on its link for the sender's flush.
        let (sink, events) = collecting_sink();
        let t = ChannelTransport::start(config(), sink);
        t.send_server(a, b, heartbeat(0));
        assert!(events.lock().is_empty(), "staged, not delivered inline");
        t.flush(b);
        assert!(events.lock().is_empty(), "only the sender's flush delivers");
        t.flush(a);
        assert_eq!(events.lock().len(), 1, "the sender's flush delivers");
        t.shutdown();

        // One thread stages A→B while three others keep flushing A: the delivery lock
        // keeps the link in order, and the stager's own flush leaves nothing behind.
        const N: u64 = 10_000;
        let seen = Arc::new(PlMutex::new(Vec::new()));
        let sink_seen = Arc::clone(&seen);
        let sink: EventSink = Arc::new(move |to, event| match event {
            TransportEvent::Peer {
                from,
                message: ServerMessage::Heartbeat { clock },
            } if from == a && to == b => sink_seen.lock().push(clock.0),
            other => panic!("unexpected event for {to}: {other:?}"),
        });
        let t = ChannelTransport::start(config(), sink);
        let staging = AtomicBool::new(true);
        std::thread::scope(|s| {
            for _ in 0..3 {
                s.spawn(|| {
                    while staging.load(Ordering::Relaxed) {
                        t.flush(a);
                    }
                });
            }
            // Only the stager appends, so its link is empty after each of its flushes.
            let mut left_behind = 0;
            for clock in 0..N {
                t.send_server(a, b, heartbeat(clock));
                if clock % 4 == 3 || clock == N - 1 {
                    t.flush(a);
                    left_behind += t.fabric.links[&a][&b].staged.lock().len();
                }
            }
            staging.store(false, Ordering::Relaxed);
            assert_eq!(
                left_behind, 0,
                "a flush by the stager left its messages queued"
            );
        });
        assert_eq!(*seen.lock(), (0..N).collect::<Vec<_>>());
        t.shutdown();
    }

    #[test]
    fn cross_dc_messages_arrive_after_the_configured_delay() {
        let (sink, events) = collecting_sink();
        let t = ChannelTransport::start(config(), sink);
        let a = ServerId::new(0u16, 0u32);
        let b = ServerId::new(1u16, 0u32);
        let sent = Instant::now();
        t.send_server(
            a,
            b,
            ServerMessage::Heartbeat {
                clock: Timestamp(1),
            },
        );
        assert!(events.lock().is_empty(), "WAN traffic is not inline");
        while events.lock().is_empty() {
            assert!(
                sent.elapsed() < Duration::from_secs(2),
                "message never arrived"
            );
            std::thread::sleep(Duration::from_micros(200));
        }
        assert!(sent.elapsed() >= Duration::from_millis(5));
        t.shutdown();
    }

    #[test]
    fn client_ports_submit_and_receive() {
        let (sink, events) = collecting_sink();
        let t = ChannelTransport::start(config(), sink);
        let a = ServerId::new(0u16, 0u32);
        let mut port = t.client_port(ClientId(7));
        port.submit(
            a,
            ClientRequest::Get {
                key: Key(1),
                rdv: DependencyVector::zero(2),
            },
        )
        .unwrap();
        assert_eq!(events.lock().len(), 1);
        t.reply(
            a,
            ClientId(7),
            ClientReply::Put {
                update_time: Timestamp(3),
            },
        );
        assert!(port.recv_timeout(Duration::from_secs(1)).is_ok());
        // Unknown clients are dropped silently; a dropped port unregisters itself.
        t.reply(
            a,
            ClientId(99),
            ClientReply::Put {
                update_time: Timestamp(3),
            },
        );
        drop(port);
        t.reply(
            a,
            ClientId(7),
            ClientReply::Put {
                update_time: Timestamp(4),
            },
        );
        t.shutdown();
    }
}
