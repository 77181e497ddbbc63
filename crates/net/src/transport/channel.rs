//! The in-process channel transport.
//!
//! Moves messages between node threads without any syscalls: client requests and replies
//! cross `crossbeam` channels, and server-to-server traffic either goes straight into the
//! destination's sink (intra-DC) or through a delay thread that emulates the configured
//! wide-area latency (inter-DC), exactly like the simulator's latency model. Per-link
//! FIFO order is preserved because the delay per DC pair is constant, so deadlines on a
//! link are non-decreasing.
//!
//! This is the reference backend: it runs the same node logic as the TCP transport with
//! no wire in between, which is what lets the differential suite separate protocol bugs
//! from transport bugs.

use crate::transport::{ClientPort, EventSink, Transport, TransportEvent};
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use parking_lot::{Mutex, RwLock};
use pocc_proto::{ClientReply, ClientRequest, ServerMessage};
use pocc_types::{ClientId, Config, Error, Result, ServerId};
use std::collections::{BinaryHeap, HashMap};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A message waiting in the delay thread for its delivery deadline.
struct Delayed {
    deliver_at: Instant,
    from: ServerId,
    to: ServerId,
    message: ServerMessage,
}

/// Below this one-way delay a message is delivered inline instead of being priced
/// through the delay thread: the channel hop itself already costs on that order.
const DIRECT_DELIVERY: Duration = Duration::from_micros(500);

/// The in-process channel backend. See the module docs.
pub struct ChannelTransport {
    config: Config,
    sink: EventSink,
    clients: Arc<RwLock<HashMap<ClientId, Sender<ClientReply>>>>,
    delays: Sender<Delayed>,
    delay_thread: Mutex<Option<JoinHandle<()>>>,
    running: Arc<AtomicBool>,
}

impl ChannelTransport {
    /// Starts the backend: spawns the delay thread and returns the shared handle.
    pub fn start(config: Config, sink: EventSink) -> Arc<ChannelTransport> {
        let (tx, rx) = unbounded();
        let running = Arc::new(AtomicBool::new(true));
        let thread_sink = Arc::clone(&sink);
        let thread_running = Arc::clone(&running);
        let handle = std::thread::Builder::new()
            .name("pocc-net-delay".into())
            .spawn(move || delay_thread(thread_sink, rx, thread_running))
            .expect("spawning the delay thread succeeds");
        Arc::new(ChannelTransport {
            config,
            sink,
            clients: Arc::new(RwLock::new(HashMap::new())),
            delays: tx,
            delay_thread: Mutex::new(Some(handle)),
            running,
        })
    }
}

impl Transport for ChannelTransport {
    fn send_server(&self, from: ServerId, to: ServerId, message: ServerMessage) {
        let delay = self.config.latency.between(from.replica, to.replica);
        if delay <= DIRECT_DELIVERY {
            (self.sink)(to, TransportEvent::Peer { from, message });
        } else {
            let _ = self.delays.send(Delayed {
                deliver_at: Instant::now() + delay,
                from,
                to,
                message,
            });
        }
    }

    fn reply(&self, _from: ServerId, client: ClientId, reply: ClientReply) {
        if let Some(tx) = self.clients.read().get(&client) {
            let _ = tx.send(reply);
        }
    }

    fn flush(&self, _from: ServerId) {
        // Channel sends are never staged; there is nothing to flush.
    }

    fn client_port(&self, client: ClientId) -> Box<dyn ClientPort> {
        let (tx, rx) = unbounded();
        self.clients.write().insert(client, tx);
        Box::new(ChannelClientPort {
            client,
            sink: Arc::clone(&self.sink),
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

/// A client's view of the channel backend: requests go straight into the destination
/// node's sink (clients are collocated with their data center, so no delay applies) and
/// replies arrive on a private channel.
struct ChannelClientPort {
    client: ClientId,
    sink: EventSink,
    replies: Receiver<ClientReply>,
    clients: Arc<RwLock<HashMap<ClientId, Sender<ClientReply>>>>,
}

impl ClientPort for ChannelClientPort {
    fn submit(&mut self, to: ServerId, request: ClientRequest) -> Result<()> {
        (self.sink)(
            to,
            TransportEvent::Client {
                client: self.client,
                request,
            },
        );
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

/// Holds cross-DC messages until their delivery deadline, then pushes them into the sink.
fn delay_thread(sink: EventSink, rx: Receiver<Delayed>, running: Arc<AtomicBool>) {
    struct Pending(Delayed);
    impl PartialEq for Pending {
        fn eq(&self, other: &Self) -> bool {
            self.0.deliver_at == other.0.deliver_at
        }
    }
    impl Eq for Pending {}
    impl PartialOrd for Pending {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }
    impl Ord for Pending {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            // Reverse: the binary heap must pop the earliest deadline first.
            other.0.deliver_at.cmp(&self.0.deliver_at)
        }
    }

    let mut heap: BinaryHeap<Pending> = BinaryHeap::new();
    while running.load(Ordering::Relaxed) || !heap.is_empty() {
        let now = Instant::now();
        while let Some(head) = heap.peek() {
            if head.0.deliver_at <= now {
                let Pending(d) = heap.pop().expect("peeked element exists");
                sink(
                    d.to,
                    TransportEvent::Peer {
                        from: d.from,
                        message: d.message,
                    },
                );
            } else {
                break;
            }
        }
        let timeout = heap
            .peek()
            .map(|head| head.0.deliver_at.saturating_duration_since(Instant::now()))
            .unwrap_or(Duration::from_millis(5));
        match rx.recv_timeout(timeout.max(Duration::from_micros(100))) {
            Ok(delayed) => heap.push(Pending(delayed)),
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => {
                if heap.is_empty() {
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

    #[test]
    fn intra_dc_messages_deliver_inline() {
        let (sink, events) = collecting_sink();
        let t = ChannelTransport::start(config(), sink);
        let a = ServerId::new(0u16, 0u32);
        let b = ServerId::new(0u16, 1u32);
        t.send_server(
            a,
            b,
            ServerMessage::Heartbeat {
                clock: Timestamp(1),
            },
        );
        assert_eq!(events.lock().len(), 1, "no delay thread hop within a DC");
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
