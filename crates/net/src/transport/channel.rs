//! The in-process channel transport.
//!
//! Moves messages between node threads without any syscalls. Client requests run on the
//! submitting thread, which then flushes the server, and replies cross `crossbeam`
//! channels. Every server-to-server message is staged on its link's FIFO queue with the
//! instant it falls due: at once within a data center, after the configured one-way delay
//! between data centers, exactly like the simulator's latency model. A
//! [`Transport::flush`] of a server delivers, on the flushing thread, what is due on its
//! direct links out (to the servers of its data center) and on its delayed links in,
//! then flushes the servers it delivered to, as a TCP connection reader does. A link's
//! due run reaches the receiver in chunks of at most [`RUN`] messages, each one event (a
//! [`ServerMessage::Batch`] when it holds several) that the receiver applies under one
//! hold of its engine. A delayed message thus runs on a thread of the receiving server,
//! which is busy anyway, and a delay thread flushes the receiver when the message falls
//! due, in case nobody else has. That thread sleeps until the earliest deadline at the
//! head of a delayed link, and a sender wakes it only when it stages onto an empty
//! delayed link: a non-empty link's new message falls due after its head, for which the
//! thread is already armed. Per-link FIFO order is preserved: a link's delay is constant,
//! so its deadlines never decrease, and it is delivered under its own delivery lock.
//!
//! At [`Transport::shutdown`] the delay thread stops at once. Messages still staged on a
//! delayed link stay there: a later flush of their receiver delivers them once due, and
//! otherwise they go with the transport, as frames staged on a closed socket do.
//!
//! This is the reference backend: it runs the same node logic as the TCP transport with
//! no wire in between, which is what lets the differential suite separate protocol bugs
//! from transport bugs.

use crate::transport::{ClientPort, EventSink, Transport, TransportEvent};
use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::{Mutex, RwLock};
use pocc_proto::{ClientReply, ClientRequest, ServerMessage};
use pocc_types::{ClientId, Config, Error, Result, ServerId};
use std::collections::{HashMap, VecDeque};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::{JoinHandle, Thread};
use std::time::{Duration, Instant};

/// Below this one-way delay a link is direct: it delivers on its sender's next flush
/// instead of after the delay, because the channel hop itself already costs on that
/// order.
const DIRECT_DELIVERY: Duration = Duration::from_micros(500);

/// The delay thread sleeps at least this long after a wake-up, so deadlines this close
/// together are flushed by one wake-up rather than one each.
const DELAY_FLOOR: Duration = Duration::from_micros(100);

/// Most messages of a link's due run handed to the receiver as one event: a worker
/// lane's batch size, so a run holds the receiver's engine no longer than a lane batch.
const RUN: usize = 64;

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

    /// Delivers the messages due on the link `from → to`, in order and in runs of at most
    /// [`RUN`], and reports whether there were any. A run of one goes as itself, a longer
    /// one as a [`ServerMessage::Batch`].
    fn deliver_due(&self, from: ServerId, to: ServerId, link: &Link, start: Instant) -> bool {
        // A link with nothing due is skipped without waiting for a flusher that holds it.
        if !matches!(link.staged.lock().front(), Some((at, _)) if link.due(*at, start)) {
            return false;
        }
        let _delivery = link.delivery.lock();
        let mut runs: Vec<Vec<ServerMessage>> = Vec::new();
        {
            let mut staged = link.staged.lock();
            let n = staged.partition_point(|(at, _)| link.due(*at, start));
            let mut due = staged.drain(..n).map(|(_, message)| message).peekable();
            while due.peek().is_some() {
                runs.push(due.by_ref().take(RUN).collect());
            }
        }
        let delivered = !runs.is_empty();
        for mut run in runs {
            let message = match run.len() {
                1 => run.pop().expect("a run of one"),
                _ => ServerMessage::Batch { messages: run },
            };
            (self.sink)(to, TransportEvent::Peer { from, message });
        }
        delivered
    }

    /// The receiver and deadline at the head of every non-empty delayed link.
    fn delayed_heads(&self) -> impl Iterator<Item = (ServerId, Instant)> + '_ {
        self.links
            .values()
            .flatten()
            .filter(|(_, link)| !link.delay.is_zero())
            .filter_map(|(&to, link)| link.staged.lock().front().map(|&(at, _)| (to, at)))
    }
}

/// The in-process channel backend. See the module docs.
pub struct ChannelTransport {
    fabric: Arc<Fabric>,
    clients: Arc<RwLock<HashMap<ClientId, Sender<ClientReply>>>>,
    /// The delay thread, unparked when a delayed link goes from empty to non-empty.
    delay_waker: Thread,
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
        let running = Arc::new(AtomicBool::new(true));
        let thread_fabric = Arc::clone(&fabric);
        let thread_running = Arc::clone(&running);
        let handle = std::thread::Builder::new()
            .name("pocc-net-delay".into())
            .spawn(move || delay_thread(&thread_fabric, &thread_running))
            .expect("spawning the delay thread succeeds");
        Arc::new(ChannelTransport {
            fabric,
            clients: Arc::new(RwLock::new(HashMap::new())),
            delay_waker: handle.thread().clone(),
            delay_thread: Mutex::new(Some(handle)),
            running,
        })
    }
}

impl Transport for ChannelTransport {
    fn send_server(&self, from: ServerId, to: ServerId, message: ServerMessage) {
        let link = &self.fabric.links[&from][&to];
        let at = Instant::now() + link.delay;
        let was_empty = {
            let mut staged = link.staged.lock();
            staged.push_back((at, message));
            staged.len() == 1
        };
        if was_empty && !link.delay.is_zero() {
            self.delay_waker.unpark();
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
            if let Some(handle) = self.delay_thread.lock().take() {
                handle.thread().unpark();
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

/// Flushes each receiver whose delayed link in has a message due, in case nobody else
/// has: a busy receiver's own flushes usually deliver it first. After the flushes it
/// sleeps until the earliest deadline left at a link's head, at least [`DELAY_FLOOR`],
/// and with every delayed link empty until a sender wakes it. It stops as soon as
/// `running` clears.
fn delay_thread(fabric: &Fabric, running: &AtomicBool) {
    let mut receivers = Vec::new();
    while running.load(Ordering::SeqCst) {
        let now = Instant::now();
        for (to, at) in fabric.delayed_heads() {
            if at <= now && !receivers.contains(&to) {
                receivers.push(to);
            }
        }
        for to in receivers.drain(..) {
            fabric.flush(to);
        }
        // Scanned after the flushes: a flushed link may still hold messages not yet due.
        match fabric.delayed_heads().map(|(_, at)| at).min() {
            Some(at) => std::thread::park_timeout(
                at.saturating_duration_since(Instant::now())
                    .max(DELAY_FLOOR),
            ),
            None => std::thread::park(),
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

    /// The heartbeat clocks a delivered message carries, a run's in order.
    fn clocks(message: ServerMessage) -> Vec<u64> {
        match message {
            ServerMessage::Heartbeat { clock } => vec![clock.0],
            ServerMessage::Batch { messages } => messages.into_iter().flat_map(clocks).collect(),
            other => panic!("unexpected message {other:?}"),
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
            TransportEvent::Peer { from, message } if from == a && to == b => {
                sink_seen.lock().extend(clocks(message));
            }
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

    /// With nobody but the delay thread delivering, bursts separated by idle gaps longer
    /// than the delay leave every link empty before the next burst, so each burst's
    /// first message must wake the thread: without that wake the thread, parked with no
    /// deadline, never delivers it.
    #[test]
    fn the_delay_thread_alone_delivers_bursts_after_idle_gaps() {
        const DELAY: Duration = Duration::from_millis(2);
        // How late past its deadline a message may arrive: wake-up latency and the
        // 100 µs floor, with room for a loaded machine.
        const LATE: Duration = Duration::from_millis(100);
        const BURSTS: u64 = 4;
        const PER_BURST: u64 = 3;
        let config = Config::builder()
            .num_replicas(3)
            .num_partitions(2)
            .latency(LatencyMatrix::uniform(3, Duration::from_micros(10), DELAY))
            .build()
            .unwrap();
        let receiver = ServerId::new(1u16, 0u32);
        let senders = [
            ServerId::new(0u16, 0u32),
            ServerId::new(0u16, 1u32),
            ServerId::new(2u16, 0u32),
            ServerId::new(2u16, 1u32),
        ];
        let arrivals = Arc::new(PlMutex::new(Vec::new()));
        let sink_arrivals = Arc::clone(&arrivals);
        let sink: EventSink = Arc::new(move |to, event| {
            let at = Instant::now();
            assert_eq!(to, receiver);
            assert_eq!(
                std::thread::current().name(),
                Some("pocc-net-delay"),
                "only the delay thread delivers"
            );
            let TransportEvent::Peer { from, message } = event else {
                panic!("unexpected event {event:?}");
            };
            let mut arrivals = sink_arrivals.lock();
            arrivals.extend(clocks(message).into_iter().map(|seq| (from, seq, at)));
        });
        let t = ChannelTransport::start(config, sink);
        // When each message was sent, by sender and sequence number: just before and just
        // after `send_server`.
        let mut sent = HashMap::new();
        for burst in 0..BURSTS {
            for seq in burst * PER_BURST..(burst + 1) * PER_BURST {
                for &from in &senders {
                    let before = Instant::now();
                    t.send_server(from, receiver, heartbeat(seq));
                    sent.insert((from, seq), (before, Instant::now()));
                }
            }
            std::thread::sleep(3 * DELAY);
        }
        let total = senders.len() * (BURSTS * PER_BURST) as usize;
        let give_up = Instant::now() + DELAY + LATE;
        while arrivals.lock().len() < total && Instant::now() < give_up {
            std::thread::sleep(Duration::from_micros(200));
        }
        t.shutdown();

        let arrivals = arrivals.lock();
        assert_eq!(arrivals.len(), total, "messages went undelivered");
        for &from in &senders {
            let order: Vec<u64> = arrivals
                .iter()
                .filter(|(f, ..)| *f == from)
                .map(|&(_, seq, _)| seq)
                .collect();
            assert_eq!(order, (0..BURSTS * PER_BURST).collect::<Vec<_>>(), "{from}");
        }
        for &(from, seq, at) in arrivals.iter() {
            let (before, after) = sent[&(from, seq)];
            assert!(at >= before + DELAY, "{from}/{seq} arrived early");
            assert!(
                at <= after + DELAY + LATE,
                "{from}/{seq} arrived {:?} after it fell due",
                at - (after + DELAY)
            );
        }
    }

    #[test]
    fn a_due_run_reaches_the_receiver_in_runs_of_at_most_run_messages() {
        let a = ServerId::new(0u16, 0u32);
        let b = ServerId::new(0u16, 1u32);
        let runs = Arc::new(PlMutex::new(Vec::new()));
        let sink_runs = Arc::clone(&runs);
        let sink: EventSink = Arc::new(move |to, event| match event {
            TransportEvent::Peer { from, message } if from == a && to == b => {
                let batched = matches!(message, ServerMessage::Batch { .. });
                sink_runs.lock().push((batched, clocks(message)));
            }
            other => panic!("unexpected event for {to}: {other:?}"),
        });
        let t = ChannelTransport::start(config(), sink);
        let n = 2 * RUN as u64 + 22;
        for clock in 0..n {
            t.send_server(a, b, heartbeat(clock));
        }
        t.flush(a);
        let delivered = std::mem::take(&mut *runs.lock());
        assert_eq!(delivered.len(), (n as usize).div_ceil(RUN));
        assert!(delivered
            .iter()
            .all(|(batched, run)| *batched && run.len() <= RUN));
        let flat: Vec<u64> = delivered.into_iter().flat_map(|(_, run)| run).collect();
        assert_eq!(flat, (0..n).collect::<Vec<_>>());

        // A run of one goes as itself.
        t.send_server(a, b, heartbeat(n));
        t.flush(a);
        assert_eq!(*runs.lock(), vec![(false, vec![n])]);
        t.shutdown();
    }

    #[test]
    fn shutdown_does_not_wait_for_staged_messages_to_fall_due() {
        let (sink, events) = collecting_sink();
        let t = ChannelTransport::start(config(), sink);
        // Let the delay thread reach its first sleep, so shutdown has to end one.
        std::thread::sleep(Duration::from_millis(1));
        let a = ServerId::new(0u16, 0u32);
        let staged = Instant::now();
        for to in [ServerId::new(1u16, 0u32), ServerId::new(1u16, 1u32)] {
            t.send_server(a, to, heartbeat(0));
        }
        t.shutdown();
        // The messages fall due 5 ms after staging; shutdown returns before that, and
        // leaves them undelivered.
        assert!(
            staged.elapsed() < Duration::from_millis(5),
            "shutdown took {:?}",
            staged.elapsed()
        );
        assert!(events.lock().is_empty());
        std::thread::sleep(Duration::from_millis(6));
        assert!(events.lock().is_empty(), "the delay thread is gone");
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
