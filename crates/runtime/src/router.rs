//! The routing facade of a cluster: per-server control inboxes plus the pluggable
//! transport carrying the actual traffic.

use crate::cluster::ServerProbe;
use crossbeam::channel::{unbounded, Receiver, Sender};
use pocc_clock::{MonotonicClock, SystemClock};
use pocc_exec::ParallelServer;
use pocc_net::transport::{
    ChannelTransport, ClientPort, EventSink, TcpTransport, Transport, TransportEvent, TransportKind,
};
use pocc_proto::{ClientReply, ClientRequest, ServerMessage};
use pocc_types::{ClientId, Config, ServerId};
use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::{Arc, OnceLock, Weak};
use std::time::Instant;

/// A cluster server, as the runtime runs it.
pub(crate) type Server = ParallelServer<MonotonicClock<SystemClock>>;

/// The servers a TCP connection reader runs events on, registered once every server has
/// started. Weak, because each server's own sink holds the router, and so the transport
/// and its event sink: only the server's thread keeps the server alive.
type Servers = OnceLock<HashMap<ServerId, Weak<Server>>>;

/// An event delivered to a server thread's inbox.
#[derive(Debug)]
pub(crate) enum Inbound {
    /// A request from a client.
    FromClient {
        /// The issuing client.
        client: ClientId,
        /// The request.
        request: ClientRequest,
    },
    /// A message from another server.
    FromServer {
        /// The sending server.
        from: ServerId,
        /// The message.
        message: ServerMessage,
    },
    /// Ask the server thread for an introspection snapshot.
    Probe {
        /// Where to send the snapshot.
        reply: Sender<ServerProbe>,
    },
    /// Ask the server thread to exit.
    Shutdown,
}

impl From<TransportEvent> for Inbound {
    fn from(event: TransportEvent) -> Inbound {
        match event {
            TransportEvent::Client { client, request } => Inbound::FromClient { client, request },
            TransportEvent::Peer { from, message } => Inbound::FromServer { from, message },
        }
    }
}

/// The shared routing fabric of a [`crate::Cluster`]: per-server inboxes for control
/// events (probes, shutdown) and, on the channel transport, inbound traffic, plus the
/// [`Transport`] backend that moves requests, replies and server-to-server messages.
///
/// Cloning a `Router` is cheap (everything is behind `Arc`s); server threads and client
/// handles all hold one.
#[derive(Clone)]
pub struct Router {
    config: Config,
    server_inboxes: Arc<HashMap<ServerId, Sender<Inbound>>>,
    servers: Arc<Servers>,
    transport: Arc<dyn Transport>,
    epoch: Instant,
}

impl Router {
    /// Builds the router plus the receiving halves the cluster needs to wire up threads:
    /// creates the inboxes, starts the transport backend of `kind` with an event sink,
    /// and returns both.
    ///
    /// The channel backend's sink feeds the inboxes: it delivers intra-DC messages on
    /// the sender's thread while the sender holds its own spine, and running the
    /// receiver's engine there would take two spines on one thread, in either order. The
    /// TCP backend's sink runs the event on its server, on the connection reader's
    /// thread, once [`Router::register_servers`] has named the servers; an event for a
    /// server not (or no longer) registered goes to its inbox.
    pub(crate) fn new(
        config: Config,
        kind: TransportKind,
    ) -> (Router, HashMap<ServerId, Receiver<Inbound>>) {
        let mut inboxes = HashMap::new();
        let mut receivers = HashMap::new();
        for id in config.servers() {
            let (tx, rx) = unbounded();
            inboxes.insert(id, tx);
            receivers.insert(id, rx);
        }
        let inboxes = Arc::new(inboxes);
        let servers: Arc<Servers> = Arc::default();
        let to_inbox = {
            let inboxes = Arc::clone(&inboxes);
            move |to: ServerId, event: TransportEvent| {
                if let Some(tx) = inboxes.get(&to) {
                    let _ = tx.send(Inbound::from(event));
                }
            }
        };
        let transport: Arc<dyn Transport> = match kind {
            TransportKind::Channel => ChannelTransport::start(config.clone(), Arc::new(to_inbox)),
            TransportKind::Tcp => {
                let servers = Arc::clone(&servers);
                let sink: EventSink = Arc::new(move |to, event| {
                    let server = servers.get().and_then(|s| s.get(&to)?.upgrade());
                    match (server, event) {
                        (Some(server), TransportEvent::Client { client, request }) => {
                            // A server whose lane died refuses the request: drop it.
                            let _ = server.submit_client(client, request);
                        }
                        (Some(server), TransportEvent::Peer { from, message }) => {
                            server.handle_server_message(from, message);
                        }
                        (None, event) => to_inbox(to, event),
                    }
                });
                TcpTransport::start(&config, sink)
                    .expect("binding localhost TCP listeners succeeds")
            }
        };
        let router = Router {
            config,
            server_inboxes: inboxes,
            servers,
            transport,
            epoch: Instant::now(),
        };
        (router, receivers)
    }

    /// Names the servers the TCP event sink runs events on. Called once, after every
    /// server has started but before any server thread or client exists: no traffic has
    /// reached an inbox yet, so no event of a link can wait there while a later one of
    /// the same link runs in place.
    pub(crate) fn register_servers(&self, servers: HashMap<ServerId, Weak<Server>>) {
        assert!(
            self.servers.set(servers).is_ok(),
            "servers are registered once"
        );
    }

    /// The deployment configuration.
    pub fn config(&self) -> &Config {
        &self.config
    }

    /// The instant the cluster started; server clocks measure from this epoch so that
    /// their physical timestamps are mutually consistent.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Opens a transport port for a new client session.
    pub(crate) fn client_port(&self, client: ClientId) -> Box<dyn ClientPort> {
        self.transport.client_port(client)
    }

    /// Delivers a reply from server `from` to a client, dropping it silently if the
    /// session is gone. The transport may stage it until the next [`Router::flush`] from
    /// the same server.
    pub(crate) fn reply(&self, from: ServerId, client: ClientId, reply: ClientReply) {
        self.transport.reply(from, client, reply);
    }

    /// Routes a server-to-server message through the transport. The transport may stage
    /// the message until the next [`Router::flush`] from the same server.
    pub(crate) fn send_server(&self, from: ServerId, to: ServerId, message: ServerMessage) {
        self.transport.send_server(from, to, message);
    }

    /// Flushes everything `from` staged since the last flush.
    pub(crate) fn flush(&self, from: ServerId) {
        self.transport.flush(from);
    }

    /// The socket address of `server`, when the transport has one (TCP only).
    pub fn server_addr(&self, server: ServerId) -> Option<SocketAddr> {
        self.transport.addr(server)
    }

    /// Asks a server thread for an introspection snapshot, delivered on `reply`.
    pub(crate) fn probe(&self, to: ServerId, reply: Sender<ServerProbe>) {
        if let Some(tx) = self.server_inboxes.get(&to) {
            let _ = tx.send(Inbound::Probe { reply });
        }
    }

    /// Asks every server thread to shut down.
    pub(crate) fn broadcast_shutdown(&self) {
        for tx in self.server_inboxes.values() {
            let _ = tx.send(Inbound::Shutdown);
        }
    }

    /// Tears the transport down (stops its helper threads and closes its sockets).
    pub(crate) fn shutdown_transport(&self) {
        self.transport.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pocc_types::{DependencyVector, Key, LatencyMatrix, Timestamp};
    use std::time::Duration;

    fn config() -> Config {
        Config::builder()
            .num_replicas(2)
            .num_partitions(2)
            .latency(LatencyMatrix::uniform(
                2,
                Duration::from_micros(10),
                Duration::from_millis(20),
            ))
            .build()
            .unwrap()
    }

    #[test]
    fn client_replies_route_to_open_ports_only() {
        let (router, _inboxes) = Router::new(config(), TransportKind::Channel);
        let a = ServerId::new(0u16, 0u32);
        let mut port = router.client_port(ClientId(1));
        router.reply(
            a,
            ClientId(1),
            ClientReply::Put {
                update_time: Timestamp(1),
            },
        );
        assert!(port.recv_timeout(Duration::from_secs(1)).is_ok());
        // Unknown clients are dropped silently.
        router.reply(
            a,
            ClientId(2),
            ClientReply::Put {
                update_time: Timestamp(1),
            },
        );
        drop(port);
        router.shutdown_transport();
    }

    #[test]
    fn intra_dc_messages_deliver_directly() {
        let (router, inboxes) = Router::new(config(), TransportKind::Channel);
        let a = ServerId::new(0u16, 0u32);
        let b = ServerId::new(0u16, 1u32);
        router.send_server(
            a,
            b,
            ServerMessage::Heartbeat {
                clock: Timestamp(1),
            },
        );
        assert!(matches!(
            inboxes[&b].try_recv().unwrap(),
            Inbound::FromServer { .. }
        ));
        router.shutdown_transport();
    }

    #[test]
    fn cross_dc_messages_arrive_delayed() {
        let (router, inboxes) = Router::new(config(), TransportKind::Channel);
        let a = ServerId::new(0u16, 0u32);
        let b = ServerId::new(1u16, 0u32);
        router.send_server(
            a,
            b,
            ServerMessage::Heartbeat {
                clock: Timestamp(1),
            },
        );
        // Not yet: the 20ms WAN delay holds it in the delay thread.
        assert!(inboxes[&b].try_recv().is_err());
        assert!(matches!(
            inboxes[&b].recv_timeout(Duration::from_secs(2)).unwrap(),
            Inbound::FromServer { .. }
        ));
        router.shutdown_transport();
    }

    #[test]
    fn submit_and_shutdown_reach_server_inboxes() {
        let (router, inboxes) = Router::new(config(), TransportKind::Channel);
        let a = ServerId::new(0u16, 0u32);
        let mut port = router.client_port(ClientId(3));
        port.submit(
            a,
            ClientRequest::Get {
                key: Key(1),
                rdv: DependencyVector::zero(2),
            },
        )
        .unwrap();
        assert!(matches!(
            inboxes[&a].try_recv().unwrap(),
            Inbound::FromClient { .. }
        ));
        router.broadcast_shutdown();
        for rx in inboxes.values() {
            assert!(matches!(rx.try_recv().unwrap(), Inbound::Shutdown));
        }
        drop(port);
        router.shutdown_transport();
    }

    #[test]
    fn channel_transport_has_no_socket_addresses() {
        let (router, _inboxes) = Router::new(config(), TransportKind::Channel);
        assert!(router.server_addr(ServerId::new(0u16, 0u32)).is_none());
        router.shutdown_transport();
    }
}
