//! An exact causal-consistency checker, independent of the protocol metadata.
//!
//! The checker rebuilds the true causal order from the observable history: it records, for
//! every written version, the writer's causal context (the newest version of every key the
//! writer had observed when it wrote), and for every read it verifies that the returned
//! version is not older — under the last-writer-wins order the store uses — than a version
//! of the same key the reading client already causally knows. For read-only transactions
//! it additionally verifies the snapshot property of §II-C: the returned set must not
//! contain an item that causally depends on a newer version of another returned item.
//!
//! The checker intentionally does **not** reuse the protocol's dependency vectors: it
//! tracks exact per-key knowledge, so a protocol bug that corrupts the vectors is caught
//! rather than masked.

use pocc_proto::{ClientReply, GetResponse};
use pocc_types::{ClientId, Key, ReplicaId, Timestamp};
use std::collections::HashMap;

/// Identifies one written version: update time plus source replica (the last-writer-wins
/// coordinates used by the store).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
struct VersionRef {
    update_time: Timestamp,
    source: ReplicaId,
}

impl VersionRef {
    /// Last-writer-wins comparison: later update time wins, ties broken by lower replica.
    fn lww_newer_than(&self, other: &VersionRef) -> bool {
        (self.update_time, std::cmp::Reverse(self.source))
            > (other.update_time, std::cmp::Reverse(other.source))
    }
}

/// The causal context of a client or version: the newest known version of every key.
type Context = HashMap<Key, VersionRef>;

fn merge_context(into: &mut Context, from: &Context) {
    for (key, version) in from {
        match into.get(key) {
            Some(existing) if !version.lww_newer_than(existing) => {}
            _ => {
                into.insert(*key, *version);
            }
        }
    }
}

/// A recorded consistency violation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Violation {
    /// A read returned a version older than one the client causally knew.
    StaleRead {
        /// The reading client.
        client: ClientId,
        /// The key that was read.
        key: Key,
        /// Update time of the returned version (zero when the read returned "not found").
        returned: Timestamp,
        /// Update time of the newer version the client already knew.
        known: Timestamp,
    },
    /// A read-only transaction returned an inconsistent snapshot: one returned item
    /// causally depends on a newer version of another returned item.
    BrokenSnapshot {
        /// The reading client.
        client: ClientId,
        /// The key whose returned version was too old for the snapshot.
        stale_key: Key,
        /// The key whose returned version established the dependency.
        dependent_key: Key,
    },
}

/// The checker. One instance observes the whole deployment (all clients).
#[derive(Debug, Default)]
pub struct ConsistencyChecker {
    /// Per-client causal context.
    clients: HashMap<ClientId, Context>,
    /// Writer context captured at every write.
    version_contexts: HashMap<(Key, Timestamp, ReplicaId), Context>,
    violations: Vec<Violation>,
    reads_checked: u64,
    writes_recorded: u64,
}

impl ConsistencyChecker {
    /// Creates an empty checker.
    pub fn new() -> Self {
        ConsistencyChecker::default()
    }

    /// Number of reads validated.
    pub fn reads_checked(&self) -> u64 {
        self.reads_checked
    }

    /// Number of writes recorded.
    pub fn writes_recorded(&self) -> u64 {
        self.writes_recorded
    }

    /// The violations found so far.
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    fn context_mut(&mut self, client: ClientId) -> &mut Context {
        self.clients.entry(client).or_default()
    }

    /// Records the operation `reply` completes for `client`, whose home replica is `home`:
    /// a GET reply as a read of `key`, a PUT reply as a write of `key` at `home`, and a
    /// transaction's items as one snapshot. `key` is the key the GET or PUT named; without
    /// it they record nothing. A session abort records nothing.
    pub fn record_reply(
        &mut self,
        client: ClientId,
        home: ReplicaId,
        key: Option<Key>,
        reply: &ClientReply,
    ) {
        let returned =
            |r: &GetResponse| r.value.as_ref().map(|_| (r.update_time, r.source_replica));
        match (reply, key) {
            (ClientReply::Get(resp), Some(key)) => self.record_read(client, key, returned(resp)),
            (ClientReply::Put { update_time }, Some(key)) => {
                self.record_write(client, key, *update_time, home)
            }
            (ClientReply::RoTx { items }, _) => {
                let observed: Vec<_> = items
                    .iter()
                    .map(|item| (item.key, returned(&item.response)))
                    .collect();
                self.record_transaction(client, &observed);
            }
            _ => {}
        }
    }

    /// Records a completed PUT: `client` wrote the version `(key, update_time, source)`.
    pub fn record_write(
        &mut self,
        client: ClientId,
        key: Key,
        update_time: Timestamp,
        source: ReplicaId,
    ) {
        self.writes_recorded += 1;
        let snapshot = self.clients.get(&client).cloned().unwrap_or_default();
        self.version_contexts
            .insert((key, update_time, source), snapshot);
        let version = VersionRef {
            update_time,
            source,
        };
        let ctx = self.context_mut(client);
        match ctx.get(&key) {
            Some(existing) if !version.lww_newer_than(existing) => {}
            _ => {
                ctx.insert(key, version);
            }
        }
    }

    /// Records and checks a completed GET. `returned` is `None` when the key was reported
    /// as never written.
    pub fn record_read(
        &mut self,
        client: ClientId,
        key: Key,
        returned: Option<(Timestamp, ReplicaId)>,
    ) {
        self.reads_checked += 1;
        let known = self.clients.get(&client).and_then(|c| c.get(&key)).copied();
        let returned_ref = returned.map(|(update_time, source)| VersionRef {
            update_time,
            source,
        });
        if let Some(known) = known {
            let stale = match returned_ref {
                None => true,
                Some(r) => known.lww_newer_than(&r),
            };
            if stale {
                self.violations.push(Violation::StaleRead {
                    client,
                    key,
                    returned: returned_ref
                        .map(|r| r.update_time)
                        .unwrap_or(Timestamp::ZERO),
                    known: known.update_time,
                });
            }
        }
        if let Some(r) = returned_ref {
            // The reader transitively inherits the writer's causal context.
            if let Some(writer_ctx) = self
                .version_contexts
                .get(&(key, r.update_time, r.source))
                .cloned()
            {
                let ctx = self.context_mut(client);
                merge_context(ctx, &writer_ctx);
            }
            let ctx = self.context_mut(client);
            match ctx.get(&key) {
                Some(existing) if !r.lww_newer_than(existing) => {}
                _ => {
                    ctx.insert(key, r);
                }
            }
        }
    }

    /// Records and checks a completed read-only transaction: `items` maps every requested
    /// key to the returned version (or `None` for "never written").
    pub fn record_transaction(
        &mut self,
        client: ClientId,
        items: &[(Key, Option<(Timestamp, ReplicaId)>)],
    ) {
        // Snapshot property: no returned item may causally depend on a newer version of
        // another returned item.
        for (dep_key, dep_version) in items {
            let Some((ut, sr)) = dep_version else {
                continue;
            };
            let Some(writer_ctx) = self.version_contexts.get(&(*dep_key, *ut, *sr)) else {
                continue;
            };
            for (other_key, other_version) in items {
                if other_key == dep_key {
                    continue;
                }
                if let Some(required) = writer_ctx.get(other_key) {
                    let returned = other_version.map(|(update_time, source)| VersionRef {
                        update_time,
                        source,
                    });
                    let broken = match returned {
                        None => true,
                        Some(r) => required.lww_newer_than(&r),
                    };
                    if broken {
                        self.violations.push(Violation::BrokenSnapshot {
                            client,
                            stale_key: *other_key,
                            dependent_key: *dep_key,
                        });
                    }
                }
            }
        }
        // Each returned item then counts as a read for the session state. Session
        // monotonicity (StaleRead) is checked only against the state *before* the
        // transaction, which `record_read` naturally does as it processes items in order;
        // to avoid order dependence between the items themselves we check all items first.
        let pre_context = self.clients.get(&client).cloned().unwrap_or_default();
        for (key, returned) in items {
            if let Some(known) = pre_context.get(key) {
                let stale = match returned {
                    None => true,
                    Some((ut, sr)) => known.lww_newer_than(&VersionRef {
                        update_time: *ut,
                        source: *sr,
                    }),
                };
                if stale {
                    self.violations.push(Violation::StaleRead {
                        client,
                        key: *key,
                        returned: returned.map(|(ut, _)| ut).unwrap_or(Timestamp::ZERO),
                        known: known.update_time,
                    });
                }
            }
        }
        for (key, returned) in items {
            self.reads_checked += 1;
            if let Some(r) = returned.map(|(update_time, source)| VersionRef {
                update_time,
                source,
            }) {
                if let Some(writer_ctx) = self
                    .version_contexts
                    .get(&(*key, r.update_time, r.source))
                    .cloned()
                {
                    let ctx = self.context_mut(client);
                    merge_context(ctx, &writer_ctx);
                }
                let ctx = self.context_mut(client);
                match ctx.get(key) {
                    Some(existing) if !r.lww_newer_than(existing) => {}
                    _ => {
                        ctx.insert(*key, r);
                    }
                }
            }
        }
    }

    /// Clears the per-client session state of `client`, modelling a session
    /// re-initialisation after a server-side abort (the client may legitimately stop
    /// seeing versions it previously observed).
    pub fn reset_session(&mut self, client: ClientId) {
        self.clients.remove(&client);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const R0: ReplicaId = ReplicaId(0);
    const R1: ReplicaId = ReplicaId(1);

    #[test]
    fn read_your_writes_is_enforced() {
        let mut c = ConsistencyChecker::new();
        c.record_write(ClientId(1), Key(1), Timestamp(10), R0);
        // Reading an older version afterwards is a violation.
        c.record_read(ClientId(1), Key(1), Some((Timestamp(5), R1)));
        assert_eq!(c.violations().len(), 1);
        assert!(matches!(c.violations()[0], Violation::StaleRead { .. }));
    }

    #[test]
    fn fresh_or_equal_reads_are_fine() {
        let mut c = ConsistencyChecker::new();
        c.record_write(ClientId(1), Key(1), Timestamp(10), R0);
        c.record_read(ClientId(1), Key(1), Some((Timestamp(10), R0)));
        c.record_read(ClientId(1), Key(1), Some((Timestamp(20), R1)));
        assert!(c.violations().is_empty());
        assert_eq!(c.reads_checked(), 2);
        assert_eq!(c.writes_recorded(), 1);
    }

    #[test]
    fn transitive_dependencies_flow_through_reads() {
        let mut c = ConsistencyChecker::new();
        // Client 1 writes X then Y (Y causally depends on X).
        c.record_write(ClientId(1), Key(1), Timestamp(10), R0);
        c.record_write(ClientId(1), Key(2), Timestamp(20), R0);
        // Client 2 reads Y, inheriting the dependency on X...
        c.record_read(ClientId(2), Key(2), Some((Timestamp(20), R0)));
        // ...so reading key 1 as "never written" violates causality.
        c.record_read(ClientId(2), Key(1), None);
        assert_eq!(c.violations().len(), 1);
    }

    #[test]
    fn missing_key_reads_without_dependencies_are_fine() {
        let mut c = ConsistencyChecker::new();
        c.record_read(ClientId(3), Key(9), None);
        assert!(c.violations().is_empty());
    }

    #[test]
    fn concurrent_lower_timestamp_reads_do_not_flag_unrelated_clients() {
        let mut c = ConsistencyChecker::new();
        c.record_write(ClientId(1), Key(1), Timestamp(10), R0);
        // Client 2 never observed client 1's write; reading an older concurrent version is
        // causally fine.
        c.record_read(ClientId(2), Key(1), Some((Timestamp(5), R1)));
        assert!(c.violations().is_empty());
    }

    #[test]
    fn broken_snapshot_is_detected() {
        let mut c = ConsistencyChecker::new();
        // Writer creates X1, then (after observing X1) writes Y1.
        c.record_write(ClientId(1), Key(1), Timestamp(10), R0);
        c.record_write(ClientId(1), Key(2), Timestamp(20), R0);
        // A transaction that returns Y1 together with a pre-X1 state of key 1 is broken.
        c.record_transaction(
            ClientId(2),
            &[(Key(2), Some((Timestamp(20), R0))), (Key(1), None)],
        );
        assert!(c
            .violations()
            .iter()
            .any(|v| matches!(v, Violation::BrokenSnapshot { .. })));
    }

    #[test]
    fn consistent_snapshot_passes() {
        let mut c = ConsistencyChecker::new();
        c.record_write(ClientId(1), Key(1), Timestamp(10), R0);
        c.record_write(ClientId(1), Key(2), Timestamp(20), R0);
        c.record_transaction(
            ClientId(2),
            &[
                (Key(2), Some((Timestamp(20), R0))),
                (Key(1), Some((Timestamp(10), R0))),
            ],
        );
        // Older-but-consistent snapshots are also fine.
        c.record_transaction(
            ClientId(3),
            &[(Key(1), Some((Timestamp(10), R0))), (Key(2), None)],
        );
        assert!(c.violations().is_empty());
    }

    #[test]
    fn session_reset_clears_obligations() {
        let mut c = ConsistencyChecker::new();
        c.record_write(ClientId(1), Key(1), Timestamp(10), R0);
        c.reset_session(ClientId(1));
        // After a session re-initialisation the client may no longer see its own write.
        c.record_read(ClientId(1), Key(1), None);
        assert!(c.violations().is_empty());
    }

    #[test]
    fn lww_tie_break_matches_the_store() {
        let a = VersionRef {
            update_time: Timestamp(10),
            source: R0,
        };
        let b = VersionRef {
            update_time: Timestamp(10),
            source: R1,
        };
        // Same timestamp: the lower replica id wins.
        assert!(a.lww_newer_than(&b));
        assert!(!b.lww_newer_than(&a));
    }
}
