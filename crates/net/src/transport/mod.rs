//! Pluggable transports: how a cluster's nodes and clients actually exchange messages.
//!
//! The protocol state machines are sans-IO; a [`Transport`] is the piece that moves their
//! inputs and outputs between nodes. The discrete-event simulator drives the machines
//! directly (no transport at all); the threaded runtime plugs in one of two real
//! backends:
//!
//! * [`ChannelTransport`] — in-process channels between threads, no syscalls, with the
//!   same configurable inter-DC delay injection as the simulator's latency model. This is
//!   the reference backend: the differential suite pins it store-equivalent to
//!   `SimNetwork` runs.
//! * [`TcpTransport`] — real sockets on localhost with length-prefixed frames over the
//!   `pocc-proto` wire codec, per-connection write coalescing and buffer-reusing reads.
//!
//! Inbound traffic is pushed into an [`EventSink`] the runtime provides, which runs the
//! event on its server on the delivering thread: a TCP connection reader, or on channels
//! the submitting client, a thread flushing the sending or the receiving server, or the
//! delay thread. That thread then flushes the receiving server. Outbound traffic goes through the trait
//! methods. Clients talk to a transport through a [`ClientPort`], which hides whether a
//! request crosses a channel or a socket.

mod channel;
pub mod frame;
mod tcp;

pub use channel::ChannelTransport;
pub use tcp::TcpTransport;

use pocc_proto::{ClientReply, ClientRequest, ServerMessage};
use pocc_types::{ClientId, Result, ServerId};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

/// The transport backends a cluster can run on, i.e. the `--transport` registry.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TransportKind {
    /// In-process channels between threads (no syscalls, emulated WAN delays).
    Channel,
    /// TCP sockets on localhost (real syscalls, real kernel network stack).
    Tcp,
}

impl TransportKind {
    /// Every available backend, for registry listings.
    pub fn all() -> &'static [TransportKind] {
        &[TransportKind::Channel, TransportKind::Tcp]
    }

    /// The backend's registry name.
    pub fn name(self) -> &'static str {
        match self {
            TransportKind::Channel => "channel",
            TransportKind::Tcp => "tcp",
        }
    }

    /// Parses a registry name.
    pub fn parse(s: &str) -> Option<TransportKind> {
        TransportKind::all()
            .iter()
            .copied()
            .find(|kind| kind.name() == s)
    }
}

/// An inbound event a transport delivers to a node.
#[derive(Debug)]
pub enum TransportEvent {
    /// A request from a client session.
    Client {
        /// The issuing client.
        client: ClientId,
        /// The request.
        request: ClientRequest,
    },
    /// A message from another server.
    Peer {
        /// The sending server.
        from: ServerId,
        /// The message. The channel backend hands over a link's due run of several
        /// messages as one [`ServerMessage::Batch`].
        message: ServerMessage,
    },
}

/// Where a transport delivers inbound traffic: called as `(to, event)` for every event
/// addressed to node `to`, on the transport's delivering thread. The sink may run the
/// event to completion there and stage outputs on the transport, because both backends
/// flush node `to` after delivering: the TCP backend after each `read` whose frames it
/// delivered, the channel backend after each link's due run. The runtime's sink runs the
/// event on its server, on either backend.
pub type EventSink = Arc<dyn Fn(ServerId, TransportEvent) + Send + Sync>;

/// A message-moving backend connecting the nodes of one cluster (and its clients).
///
/// # The flush contract
///
/// Outbound traffic may buffer: both [`Transport::send_server`] and [`Transport::reply`]
/// are *permitted, not required,* to stage per destination until a flush. The TCP
/// backend stages frames into one per-connection scratch and writes them with a single
/// syscall; the channel backend stages server-to-server messages on a queue per link,
/// delivers them on a flush, running the receivers there, and sends replies at once.
/// Buffering MUST preserve per-link send order — the protocols assume lossless FIFO
/// channels — and a reply must not overtake earlier replies to the same client.
///
/// The rule for callers is *stage while there is more work, flush before you block*:
/// whoever called `send_server` or `reply` owes a [`Transport::flush`] before it waits
/// for its next input. Nothing is flushed on a timer (the channel backend's delay thread
/// only stands in for the wide-area wire: it flushes a delayed message's receiver when
/// the message falls due), so a stager that blocks without flushing parks its output
/// until somebody else flushes the same server. A thread that delivered events to a
/// server flushes it afterwards (a TCP connection reader after every `read`, a channel
/// client after every `submit`, a channel flush after every link it delivered); the
/// runtime's server thread flushes after every tick;
/// a worker lane flushes once after every batch it serves, replies and replication
/// together. Nobody flushes while holding a server's spine: on the channel backend a
/// flush runs other servers' engines.
pub trait Transport: Send + Sync {
    /// Sends (or stages) a server-to-server message from `from` to `to`.
    fn send_server(&self, from: ServerId, to: ServerId, message: ServerMessage);

    /// Delivers (or stages) a reply from server `from` to a client session, dropping it
    /// silently if the session is gone (the client may have timed out and disconnected).
    fn reply(&self, from: ServerId, client: ClientId, reply: ClientReply);

    /// Writes out everything staged by `from` since the last flush: replies, then
    /// server-to-server messages. The channel backend holds a cross-DC message until it
    /// falls due, and delivers it on a flush of its receiver (see [`ChannelTransport`]).
    fn flush(&self, from: ServerId);

    /// Opens a client port for `client`. The id must be unique across the cluster.
    fn client_port(&self, client: ClientId) -> Box<dyn ClientPort>;

    /// The socket address of `server`, when the backend has one (TCP only) — this is what
    /// external load generators connect to.
    fn addr(&self, server: ServerId) -> Option<SocketAddr>;

    /// Tears the backend down: stops helper threads and closes sockets. Idempotent.
    fn shutdown(&self);
}

/// A client session's connection(s) into the cluster.
///
/// Requests to the same server are delivered in submission order; replies arrive on a
/// single merged stream in the order servers sent them.
///
/// The client side of the flush contract (see [`Transport`]): [`ClientPort::submit`] may
/// stage, and [`ClientPort::recv_timeout`] sends whatever is staged before it waits. A
/// caller that only ever waits in `recv_timeout` never needs [`ClientPort::flush`]; one
/// that waits on anything else after a `submit` must call it first.
pub trait ClientPort: Send {
    /// Sends (or stages) `request` to server `to` on behalf of this port's client.
    fn submit(&mut self, to: ServerId, request: ClientRequest) -> Result<()>;

    /// Sends every staged request now. The default suits backends that never stage.
    fn flush(&mut self) -> Result<()> {
        Ok(())
    }

    /// Hands back the next reply addressed to this port's client. Replies already
    /// received are returned at once; otherwise staged requests are sent first and the
    /// call waits up to `timeout`.
    fn recv_timeout(&mut self, timeout: Duration) -> Result<ClientReply>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transport_kind_registry_round_trips() {
        for kind in TransportKind::all() {
            assert_eq!(TransportKind::parse(kind.name()), Some(*kind));
        }
        assert_eq!(TransportKind::parse("carrier-pigeon"), None);
    }
}
