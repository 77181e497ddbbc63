//! Wire messages and sans-IO plumbing shared by the POCC and Cure\* protocol crates.
//!
//! The protocol implementations in `pocc-protocol` and `pocc-cure` are *sans-IO* state
//! machines: they consume [`ClientRequest`]s and [`ServerMessage`]s and produce
//! [`ServerOutput`]s, without performing any network or timer calls themselves. Both the
//! discrete-event simulator (`pocc-sim`) and the threaded runtime (`pocc-runtime`) drive
//! the same state machines through these types.
//!
//! The crate also contains a compact hand-rolled binary [`codec`], used by the threaded
//! runtime to serialise messages across channel boundaries and by the benchmarks to
//! measure the exact metadata overhead of each message type — one of the claims of the
//! paper is that POCC's client-supplied metadata is only linear in the number of data
//! centers. When `Config::replication_batching` is on, servers coalesce replication/GC
//! traffic per destination through a [`MessageBatcher`] into one
//! [`ServerMessage::Batch`] per peer per tick.
//!
//! # Example
//!
//! Round-tripping a replication message through the wire codec:
//!
//! ```
//! use pocc_proto::{codec, ServerMessage};
//! use pocc_types::{DependencyVector, Key, ReplicaId, Timestamp, Value, Version};
//!
//! let message = ServerMessage::Replicate {
//!     version: Version::new(
//!         Key(7),
//!         Value::from("hello"),
//!         ReplicaId(0),
//!         Timestamp(42),
//!         DependencyVector::zero(3),
//!     ),
//! };
//! let encoded = codec::encode_server_message(&message).unwrap();
//! assert_eq!(codec::decode_server_message(encoded).unwrap(), message);
//! ```
//!
//! Coalescing replication traffic with the batcher:
//!
//! ```
//! use pocc_proto::{MessageBatcher, ServerMessage, ServerOutput};
//! use pocc_types::{DependencyVector, Key, ReplicaId, ServerId, Timestamp, Value, Version};
//!
//! let mut batcher = MessageBatcher::new(true);
//! let sibling = ServerId::new(1u16, 0u32);
//! for t in [1, 2, 3] {
//!     let version = Version::new(
//!         Key(t),
//!         Value::from(t),
//!         ReplicaId(0),
//!         Timestamp(t),
//!         DependencyVector::zero(3),
//!     );
//!     let staged = batcher.stage_one(ServerOutput::send(
//!         sibling,
//!         ServerMessage::Replicate { version },
//!     ));
//!     assert!(staged.is_none(), "replication is buffered until the next tick");
//! }
//! // The tick flushes one batch per destination, preserving send order.
//! let flushed = batcher.flush();
//! assert_eq!(flushed.len(), 1);
//! assert!(matches!(
//!     &flushed[0],
//!     ServerOutput::Send { message: ServerMessage::Batch { messages }, .. }
//!         if messages.len() == 3
//! ));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod api;
mod batch;
pub mod codec;
mod messages;
mod output;

pub use api::{
    InstrumentedServer, MetricsSnapshot, ProtocolClient, ProtocolServer, ServerIntrospect,
};
pub use batch::MessageBatcher;
pub use messages::{ClientReply, ClientRequest, GetResponse, ServerMessage, TxId, TxItem};
pub use output::{Envelope, ServerOutput};

/// Test helper: matches a reply (typically the `Option<ClientReply>` extracted from a
/// server's outputs) against the expected pattern, evaluating to the arm's value, and
/// panics with the unexpected reply otherwise.
///
/// Replaces the `other => panic!("unexpected reply {other:?}")` arms that every protocol
/// crate's server tests used to copy:
///
/// ```
/// use pocc_proto::{expect_reply, ClientReply};
/// use pocc_types::Timestamp;
///
/// let reply = Some(ClientReply::Put { update_time: Timestamp(42) });
/// let ut = expect_reply!(reply, Some(ClientReply::Put { update_time }) => update_time);
/// assert_eq!(ut, Timestamp(42));
/// ```
#[macro_export]
macro_rules! expect_reply {
    ($reply:expr, $pattern:pat => $arm:expr $(,)?) => {
        match $reply {
            $pattern => $arm,
            other => panic!("unexpected reply {other:?}"),
        }
    };
}
