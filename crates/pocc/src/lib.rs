//! POCC — the Optimistic Causal Consistency protocol.
//!
//! This crate is the reproduction of the paper's primary contribution: the client and
//! server state machines of Algorithms 1 and 2 of *"Optimistic Causal Consistency for
//! Geo-Replicated Key-Value Stores"* (ICDCS 2017).
//!
//! The server is [`PoccPolicy`], the optimistic visibility policy, run by the shared
//! protocol engine: [`PoccServer<C>`](PoccServer) is an alias of
//! `pocc_engine::ProtocolEngine<C, PoccPolicy>`, whose `core()` exposes the version
//! vector and the store. It is *sans-IO*: it consumes client requests and server
//! messages and returns [`pocc_proto::ServerOutput`]s; it never touches the network or
//! sleeps. The same state machine is driven by the deterministic simulator
//! (`pocc-sim`), by the threaded runtime (`pocc-runtime`) and by the unit tests in this
//! crate.
//!
//! # The optimistic protocol in one paragraph
//!
//! A POCC server always returns the *freshest* version of an item it has received, even if
//! that version's causal dependencies have not yet been installed locally. Consistency is
//! preserved by a client-assisted check: every client ships a read-dependency vector
//! (`RDV`) with each read and a dependency vector (`DV`) with each write; the server
//! compares the read-dependency vector against its own version vector and, if it has not
//! yet received everything the client depends on, it *parks* the request until the missing
//! replication traffic (or a heartbeat proving nothing is missing) arrives. Because
//! updates are replicated in timestamp order over FIFO channels this wait is rare and
//! short during normal operation, which is the bet the paper's evaluation quantifies.
//!
//! # Example
//!
//! ```
//! use pocc_clock::ManualClock;
//! use pocc_protocol::{Client, PoccServer};
//! use pocc_proto::{ClientReply, ProtocolClient, ProtocolServer, ServerOutput};
//! use pocc_types::{ClientId, Config, Key, ServerId, Timestamp, Value};
//!
//! // A single-partition, single-DC deployment: the smallest possible POCC system.
//! let config = Config::builder()
//!     .num_replicas(1)
//!     .num_partitions(1)
//!     .build()
//!     .unwrap();
//! let clock = ManualClock::new(Timestamp::from_millis(1));
//! let server_id = ServerId::new(0u16, 0u32);
//! let mut server = PoccServer::new(server_id, config.clone(), clock.clone());
//! let mut client = Client::new(ClientId(1), server_id, config.num_replicas);
//!
//! // Write, then read back through the protocol.
//! let put = client.put(Key(42), Value::from("hello"));
//! let outputs = server.handle_client_request(client.client_id(), put);
//! # let mut update_time = None;
//! for out in &outputs {
//!     if let ServerOutput::Reply { reply, .. } = out {
//!         client.process_reply(reply).unwrap();
//! #       if let ClientReply::Put { update_time: ut } = reply { update_time = Some(*ut); }
//!     }
//! }
//!
//! let get = client.get(Key(42));
//! let outputs = server.handle_client_request(client.client_id(), get);
//! match &outputs[0] {
//!     ServerOutput::Reply { reply: ClientReply::Get(resp), .. } => {
//!         assert_eq!(resp.value.as_ref().unwrap().as_slice(), b"hello");
//!     }
//!     other => panic!("unexpected output {other:?}"),
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod client;
mod server;

pub use client::Client;
pub use server::{PoccPolicy, PoccServer};

pub use pocc_proto::{ProtocolClient, ProtocolServer};
