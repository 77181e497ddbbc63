//! Sans-IO outputs produced by the protocol state machines.

use crate::{ClientReply, ServerMessage};
use pocc_types::{ClientId, ServerId, Timestamp};

/// An action requested by a protocol state machine. The driving layer (simulator or
/// runtime) is responsible for actually delivering replies and messages.
#[derive(Clone, PartialEq, Debug)]
pub enum ServerOutput {
    /// Send a reply to a client.
    Reply {
        /// The destination client.
        client: ClientId,
        /// The reply payload.
        reply: ClientReply,
    },
    /// Send a message to another server.
    Send {
        /// The destination server.
        to: ServerId,
        /// The message payload.
        message: ServerMessage,
    },
}

impl ServerOutput {
    /// Convenience constructor for a client reply.
    pub fn reply(client: ClientId, reply: ClientReply) -> Self {
        ServerOutput::Reply { client, reply }
    }

    /// Convenience constructor for a server-to-server send.
    pub fn send(to: ServerId, message: ServerMessage) -> Self {
        ServerOutput::Send { to, message }
    }

    /// Whether this output is a reply to the given client.
    pub fn is_reply_to(&self, c: ClientId) -> bool {
        matches!(self, ServerOutput::Reply { client, .. } if *client == c)
    }

    /// Whether this output is a message to the given server.
    pub fn is_send_to(&self, s: ServerId) -> bool {
        matches!(self, ServerOutput::Send { to, .. } if *to == s)
    }
}

/// A message in flight between two servers, as tracked by the network substrates.
#[derive(Clone, PartialEq, Debug)]
pub struct Envelope {
    /// The sending server.
    pub from: ServerId,
    /// The destination server.
    pub to: ServerId,
    /// The time the message was handed to the network.
    pub sent_at: Timestamp,
    /// The payload.
    pub message: ServerMessage,
}

impl Envelope {
    /// Creates an envelope.
    pub fn new(from: ServerId, to: ServerId, sent_at: Timestamp, message: ServerMessage) -> Self {
        Envelope {
            from,
            to,
            sent_at,
            message,
        }
    }

    /// Whether the envelope crosses data centers (and therefore pays WAN latency).
    pub fn crosses_dc(&self) -> bool {
        self.from.replica != self.to.replica
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn output_helpers_classify_destinations() {
        let c = ClientId(3);
        let s = ServerId::new(1u16, 2u32);
        let reply = ServerOutput::reply(
            c,
            ClientReply::Put {
                update_time: Timestamp(1),
            },
        );
        let send = ServerOutput::send(
            s,
            ServerMessage::Heartbeat {
                clock: Timestamp(1),
            },
        );
        assert!(reply.is_reply_to(c));
        assert!(!reply.is_reply_to(ClientId(4)));
        assert!(!reply.is_send_to(s));
        assert!(send.is_send_to(s));
        assert!(!send.is_send_to(ServerId::new(0u16, 2u32)));
        assert!(!send.is_reply_to(c));
    }

    #[test]
    fn envelope_detects_wan_crossings() {
        let msg = ServerMessage::Heartbeat {
            clock: Timestamp(1),
        };
        let local = Envelope::new(
            ServerId::new(0u16, 1u32),
            ServerId::new(0u16, 2u32),
            Timestamp(5),
            msg.clone(),
        );
        let wan = Envelope::new(
            ServerId::new(0u16, 1u32),
            ServerId::new(2u16, 1u32),
            Timestamp(5),
            msg,
        );
        assert!(!local.crosses_dc());
        assert!(wan.crosses_dc());
    }
}
