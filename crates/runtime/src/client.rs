//! Synchronous client handles for the threaded cluster.

use crate::cluster::server_for_key;
use pocc_net::transport::ClientPort;
use pocc_proto::{ClientReply, GetResponse, ProtocolClient, TxItem};
use pocc_protocol::Client;
use pocc_storage::partition_for_key;
use pocc_types::{ClientId, Config, Error, Key, Result, ServerId, Timestamp, Value};
use std::time::Duration;

/// A synchronous client session against a running [`crate::Cluster`].
///
/// The handle owns the protocol-level [`Client`] (dependency tracking of Algorithm 1) and
/// a transport [`ClientPort`]; each call routes the request to the server owning the
/// key's partition in the client's data center, blocks for the reply and folds it back
/// into the session — exactly the closed-loop behaviour of the paper's clients. Whether
/// the request crosses an in-process channel or a TCP socket is the port's business.
pub struct ClusterClient {
    session: Client,
    config: Config,
    port: Box<dyn ClientPort>,
    timeout: Duration,
    reinitializations: u64,
}

impl ClusterClient {
    pub(crate) fn new(session: Client, config: Config, port: Box<dyn ClientPort>) -> Self {
        ClusterClient {
            session,
            config,
            port,
            timeout: Duration::from_secs(10),
            reinitializations: 0,
        }
    }

    /// The client id of this session.
    pub fn id(&self) -> ClientId {
        self.session.client_id()
    }

    /// The data center this session is attached to.
    pub fn replica(&self) -> pocc_types::ReplicaId {
        self.session.home_server().replica
    }

    /// How long calls wait for a reply before giving up. Blocked POCC operations can wait
    /// up to the server's partition-detection timeout, so this should be longer than that.
    pub fn set_timeout(&mut self, timeout: Duration) {
        self.timeout = timeout;
    }

    /// How many times the session was re-initialised after a server-side abort.
    pub fn reinitializations(&self) -> u64 {
        self.reinitializations
    }

    /// Read access to the protocol-level session (dependency vectors).
    pub fn session(&self) -> &Client {
        &self.session
    }

    fn await_reply(&mut self) -> Result<ClientReply> {
        let reply = self.port.recv_timeout(self.timeout)?;
        match self.session.process_reply(&reply) {
            Ok(()) => Ok(reply),
            Err(err @ Error::SessionAborted { .. }) => {
                self.session.reinitialize();
                self.reinitializations += 1;
                Err(err)
            }
            Err(other) => Err(other),
        }
    }

    /// Writes `value` under `key`. Returns the update timestamp assigned by the server.
    pub fn put(&mut self, key: Key, value: Value) -> Result<Timestamp> {
        let target = server_for_key(&self.config, self.replica(), key);
        let request = self.session.put(key, value);
        self.port.submit(target, request)?;
        match self.await_reply()? {
            ClientReply::Put { update_time } => Ok(update_time),
            other => Err(Error::Codec {
                reason: format!("unexpected reply to PUT: {other:?}"),
            }),
        }
    }

    /// Reads the value of `key`, or `None` if it has never been written.
    pub fn get(&mut self, key: Key) -> Result<Option<Value>> {
        Ok(self.get_versioned(key)?.value)
    }

    /// Reads `key`, returning the full versioned response — value, update timestamp,
    /// dependency vector and source replica. Consistency checkers and the differential
    /// suite use this to record reads as protocol-level observations.
    pub fn get_versioned(&mut self, key: Key) -> Result<GetResponse> {
        let target = server_for_key(&self.config, self.replica(), key);
        let request = self.session.get(key);
        self.port.submit(target, request)?;
        match self.await_reply()? {
            ClientReply::Get(resp) => Ok(resp),
            other => Err(Error::Codec {
                reason: format!("unexpected reply to GET: {other:?}"),
            }),
        }
    }

    /// Reads several keys in one causally consistent snapshot. Returns `(key, value)`
    /// pairs in the order the server produced them; missing keys map to `None`.
    pub fn ro_tx(&mut self, keys: Vec<Key>) -> Result<Vec<(Key, Option<Value>)>> {
        Ok(self
            .ro_tx_versioned(keys)?
            .into_iter()
            .map(|item| (item.key, item.response.value))
            .collect())
    }

    /// Reads several keys in one causally consistent snapshot, returning the full
    /// versioned items (key plus the complete per-key [`GetResponse`]).
    pub fn ro_tx_versioned(&mut self, keys: Vec<Key>) -> Result<Vec<TxItem>> {
        if keys.is_empty() {
            return Ok(Vec::new());
        }
        // The coordinator is the local server owning the first key's partition.
        let coordinator = ServerId::new(
            self.replica(),
            partition_for_key(keys[0], self.config.num_partitions),
        );
        let request = self.session.ro_tx(keys);
        self.port.submit(coordinator, request)?;
        match self.await_reply()? {
            ClientReply::RoTx { items } => Ok(items),
            other => Err(Error::Codec {
                reason: format!("unexpected reply to RO-TX: {other:?}"),
            }),
        }
    }
}
