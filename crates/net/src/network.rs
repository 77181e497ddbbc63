//! The simulated network: FIFO lossless links with partition injection and optional
//! chaos windows (lag spikes, drop windows, duplication windows).

use crate::LatencyModel;
use pocc_proto::Envelope;
use pocc_types::{ReplicaId, ServerId, Timestamp};
use std::collections::{HashMap, HashSet, VecDeque};
use std::time::Duration;

/// Aggregate statistics of the simulated network.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NetworkStats {
    /// Messages accepted for delivery.
    pub messages_sent: u64,
    /// Messages that crossed a data-center boundary.
    pub wan_messages: u64,
    /// Total bytes (wire-size estimate) accepted for delivery.
    pub bytes_sent: u64,
    /// Messages currently held because their link is partitioned.
    pub held_messages: u64,
    /// Idempotent periodic messages dropped inside an active drop window.
    pub dropped_messages: u64,
    /// Extra deliveries produced by an active duplication window.
    pub duplicated_messages: u64,
}

/// The simulated network.
///
/// Responsibilities:
/// * compute a delivery timestamp for every message, honouring the latency model,
/// * guarantee per-link FIFO: a message never overtakes an earlier message on the same
///   `(from, to)` link, even when jitter would reorder them,
/// * hold (never drop) traffic between partitioned data-center pairs and release it in
///   order when the partition heals,
/// * apply chaos windows per data-center pair: lag spikes (extra one-way delay), drop
///   windows and duplication windows.
///
/// Drop and duplication windows only affect *idempotent periodic* traffic (heartbeats,
/// stabilization vectors, GC vectors): the protocols assume reliable FIFO channels with
/// no retransmission, so losing a `Replicate` or slice message would wedge clients or
/// permanently diverge replicas — that failure mode is modelled by partitions (which
/// hold traffic) instead. Periodic messages, by contrast, are superseded by the next
/// round, so dropping or duplicating them probes real degraded-network behaviour while
/// convergence stays provable.
#[derive(Debug)]
pub struct SimNetwork {
    latency: LatencyModel,
    /// Last delivery time scheduled per directed link, to enforce FIFO.
    last_delivery: HashMap<(ServerId, ServerId), Timestamp>,
    /// Pairs of data centers currently partitioned from each other (stored with both
    /// orderings for O(1) lookup).
    partitions: HashSet<(ReplicaId, ReplicaId)>,
    /// Messages held because their link is partitioned, per directed DC pair, in send
    /// order.
    held: HashMap<(ReplicaId, ReplicaId), VecDeque<Envelope>>,
    /// Extra one-way delay per directed DC pair (lag spikes).
    extra_delay: HashMap<(ReplicaId, ReplicaId), Duration>,
    /// DC pairs currently dropping idempotent periodic messages.
    dropping: HashSet<(ReplicaId, ReplicaId)>,
    /// DC pairs currently duplicating idempotent periodic messages.
    duplicating: HashSet<(ReplicaId, ReplicaId)>,
    stats: NetworkStats,
}

impl SimNetwork {
    /// Creates a network with the given latency model.
    pub fn new(latency: LatencyModel) -> Self {
        SimNetwork {
            latency,
            last_delivery: HashMap::new(),
            partitions: HashSet::new(),
            held: HashMap::new(),
            extra_delay: HashMap::new(),
            dropping: HashSet::new(),
            duplicating: HashSet::new(),
            stats: NetworkStats::default(),
        }
    }

    /// Network statistics so far.
    pub fn stats(&self) -> NetworkStats {
        let mut s = self.stats;
        s.held_messages = self.held.values().map(|q| q.len() as u64).sum();
        s
    }

    /// Whether traffic between the two data centers is currently blocked.
    pub fn is_partitioned(&self, a: ReplicaId, b: ReplicaId) -> bool {
        self.partitions.contains(&(a, b))
    }

    /// Injects a network partition between data centers `a` and `b` (both directions).
    /// Intra-DC traffic and traffic to other data centers is unaffected.
    pub fn partition(&mut self, a: ReplicaId, b: ReplicaId) {
        self.partitions.insert((a, b));
        self.partitions.insert((b, a));
    }

    /// Adds `extra` one-way delay to every message between `a` and `b` (both directions)
    /// until [`SimNetwork::clear_lag`] is called.
    pub fn set_lag(&mut self, a: ReplicaId, b: ReplicaId, extra: Duration) {
        self.extra_delay.insert((a, b), extra);
        self.extra_delay.insert((b, a), extra);
    }

    /// Removes the lag spike between `a` and `b`.
    pub fn clear_lag(&mut self, a: ReplicaId, b: ReplicaId) {
        self.extra_delay.remove(&(a, b));
        self.extra_delay.remove(&(b, a));
    }

    /// Starts dropping idempotent periodic messages between `a` and `b` (both
    /// directions). Non-droppable traffic is unaffected.
    pub fn set_drop(&mut self, a: ReplicaId, b: ReplicaId) {
        self.dropping.insert((a, b));
        self.dropping.insert((b, a));
    }

    /// Ends the drop window between `a` and `b`.
    pub fn clear_drop(&mut self, a: ReplicaId, b: ReplicaId) {
        self.dropping.remove(&(a, b));
        self.dropping.remove(&(b, a));
    }

    /// Starts duplicating idempotent periodic messages between `a` and `b` (both
    /// directions): each such message is delivered twice, the duplicate strictly after
    /// the original (per-link FIFO is preserved).
    pub fn set_duplicate(&mut self, a: ReplicaId, b: ReplicaId) {
        self.duplicating.insert((a, b));
        self.duplicating.insert((b, a));
    }

    /// Ends the duplication window between `a` and `b`.
    pub fn clear_duplicate(&mut self, a: ReplicaId, b: ReplicaId) {
        self.duplicating.remove(&(a, b));
        self.duplicating.remove(&(b, a));
    }

    /// Accepts a message and returns its scheduled deliveries: empty if the link is
    /// partitioned (held, not dropped) or an active drop window consumed the message,
    /// one entry on a healthy link, two inside a duplication window.
    pub fn send(&mut self, envelope: Envelope, now: Timestamp) -> Vec<(Timestamp, Envelope)> {
        self.stats.messages_sent += 1;
        self.stats.bytes_sent += envelope.message.wire_size() as u64;
        if envelope.crosses_dc() {
            self.stats.wan_messages += 1;
        }
        let pair = (envelope.from.replica, envelope.to.replica);
        if self.partitions.contains(&pair) {
            self.held.entry(pair).or_default().push_back(envelope);
            return Vec::new();
        }
        if self.dropping.contains(&pair) && envelope.message.is_expendable() {
            self.stats.dropped_messages += 1;
            return Vec::new();
        }
        let duplicate = (self.duplicating.contains(&pair) && envelope.message.is_expendable())
            .then(|| envelope.clone());
        let mut deliveries = vec![self.schedule(envelope, now)];
        if let Some(copy) = duplicate {
            self.stats.duplicated_messages += 1;
            self.stats.bytes_sent += copy.message.wire_size() as u64;
            if copy.crosses_dc() {
                self.stats.wan_messages += 1;
            }
            // Scheduled after the original: the FIFO bump in `schedule` guarantees it.
            deliveries.push(self.schedule(copy, now));
        }
        deliveries
    }

    /// Heals the partition between `a` and `b`, returning the held traffic with fresh
    /// delivery times (per-link FIFO order preserved).
    pub fn heal(
        &mut self,
        a: ReplicaId,
        b: ReplicaId,
        now: Timestamp,
    ) -> Vec<(Timestamp, Envelope)> {
        self.partitions.remove(&(a, b));
        self.partitions.remove(&(b, a));
        let mut released = Vec::new();
        for pair in [(a, b), (b, a)] {
            if let Some(queue) = self.held.remove(&pair) {
                for envelope in queue {
                    released.push(self.schedule(envelope, now));
                }
            }
        }
        released
    }

    /// Computes the delivery time for a message on a healthy link.
    fn schedule(&mut self, envelope: Envelope, now: Timestamp) -> (Timestamp, Envelope) {
        let mut delay = self.latency.delay(envelope.from, envelope.to);
        if let Some(extra) = self
            .extra_delay
            .get(&(envelope.from.replica, envelope.to.replica))
        {
            delay += *extra;
        }
        let mut at = now + delay;
        let link = (envelope.from, envelope.to);
        if let Some(last) = self.last_delivery.get(&link) {
            if at <= *last {
                at = *last + Duration::from_nanos(1_000);
            }
        }
        self.last_delivery.insert(link, at);
        (at, envelope)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pocc_proto::ServerMessage;
    use pocc_types::{DependencyVector, Key, LatencyMatrix, Value, Version};

    fn network(jitter: f64) -> SimNetwork {
        let model = if jitter == 0.0 {
            LatencyModel::new(LatencyMatrix::aws_three_dc())
        } else {
            LatencyModel::with_jitter(LatencyMatrix::aws_three_dc(), jitter, 3)
        };
        SimNetwork::new(model)
    }

    fn envelope(from_dc: u16, to_dc: u16, clock: u64) -> Envelope {
        Envelope::new(
            ServerId::new(from_dc, 0u32),
            ServerId::new(to_dc, 0u32),
            Timestamp(clock),
            ServerMessage::Heartbeat {
                clock: Timestamp(clock),
            },
        )
    }

    fn replicate_envelope(from_dc: u16, to_dc: u16, ts: u64) -> Envelope {
        Envelope::new(
            ServerId::new(from_dc, 0u32),
            ServerId::new(to_dc, 0u32),
            Timestamp(ts),
            ServerMessage::Replicate {
                version: Version::new(
                    Key(1),
                    Value::from(ts),
                    ReplicaId(from_dc),
                    Timestamp(ts),
                    DependencyVector::zero(3),
                ),
            },
        )
    }

    fn single(deliveries: Vec<(Timestamp, Envelope)>) -> (Timestamp, Envelope) {
        assert_eq!(deliveries.len(), 1, "expected exactly one delivery");
        deliveries.into_iter().next().unwrap()
    }

    #[test]
    fn delivery_time_reflects_the_latency_matrix() {
        let mut net = network(0.0);
        let (at, _) = single(net.send(envelope(0, 2, 1), Timestamp::ZERO));
        assert_eq!(at, Timestamp::from_millis(70));
        let (at, _) = single(net.send(envelope(0, 0, 1), Timestamp::ZERO));
        assert_eq!(at, Timestamp(250));
    }

    #[test]
    fn fifo_is_preserved_even_with_jitter() {
        let mut net = network(0.5);
        let mut last = Timestamp::ZERO;
        for i in 0..200u64 {
            let (at, _) = single(net.send(envelope(0, 1, i), Timestamp(i)));
            assert!(at > last, "message {i} delivered at {at} before {last}");
            last = at;
        }
    }

    #[test]
    fn partitioned_links_hold_traffic_and_heal_releases_it_in_order() {
        let mut net = network(0.0);
        net.partition(ReplicaId(0), ReplicaId(1));
        assert!(net.is_partitioned(ReplicaId(0), ReplicaId(1)));
        assert!(net.is_partitioned(ReplicaId(1), ReplicaId(0)));

        for i in 0..5u64 {
            assert!(net.send(envelope(0, 1, i), Timestamp(i)).is_empty());
        }
        // Other links keep working.
        assert!(!net.send(envelope(0, 2, 9), Timestamp(9)).is_empty());
        assert_eq!(net.stats().held_messages, 5);

        let released = net.heal(ReplicaId(0), ReplicaId(1), Timestamp::from_millis(500));
        assert_eq!(released.len(), 5);
        // Released messages keep their original order and deliver after the heal time.
        let mut last = Timestamp::ZERO;
        for (i, (at, env)) in released.iter().enumerate() {
            assert!(*at >= Timestamp::from_millis(500));
            assert!(*at > last);
            last = *at;
            match env.message {
                ServerMessage::Heartbeat { clock } => assert_eq!(clock, Timestamp(i as u64)),
                _ => unreachable!(),
            }
        }
        assert_eq!(net.stats().held_messages, 0);
        assert!(!net.is_partitioned(ReplicaId(0), ReplicaId(1)));
    }

    #[test]
    fn stats_count_wan_and_bytes() {
        let mut net = network(0.0);
        net.send(envelope(0, 1, 1), Timestamp::ZERO);
        net.send(envelope(0, 0, 2), Timestamp::ZERO);
        let stats = net.stats();
        assert_eq!(stats.messages_sent, 2);
        assert_eq!(stats.wan_messages, 1);
        assert!(stats.bytes_sent > 0);
    }

    #[test]
    fn healing_an_unpartitioned_pair_is_a_noop() {
        let mut net = network(0.0);
        assert!(net
            .heal(ReplicaId(0), ReplicaId(1), Timestamp::ZERO)
            .is_empty());
    }

    #[test]
    fn lag_spikes_add_delay_and_clear_cleanly() {
        let mut net = network(0.0);
        net.set_lag(ReplicaId(0), ReplicaId(2), Duration::from_millis(30));
        let (at, _) = single(net.send(envelope(0, 2, 1), Timestamp::ZERO));
        assert_eq!(at, Timestamp::from_millis(100), "70ms base + 30ms spike");
        // The reverse direction lags too.
        let (at, _) = single(net.send(envelope(2, 0, 1), Timestamp::ZERO));
        assert_eq!(at, Timestamp::from_millis(100));
        // Other pairs are unaffected.
        let (at, _) = single(net.send(envelope(0, 1, 1), Timestamp::ZERO));
        assert_eq!(at, Timestamp::from_millis(36));

        net.clear_lag(ReplicaId(0), ReplicaId(2));
        let (at, _) = net
            .send(envelope(0, 2, 2), Timestamp::from_millis(200))
            .pop()
            .unwrap();
        assert_eq!(at, Timestamp::from_millis(270));
    }

    #[test]
    fn drop_windows_consume_only_expendable_messages() {
        let mut net = network(0.0);
        net.set_drop(ReplicaId(0), ReplicaId(1));
        assert!(net.send(envelope(0, 1, 1), Timestamp::ZERO).is_empty());
        assert!(net.send(envelope(1, 0, 1), Timestamp::ZERO).is_empty());
        // Replication traffic is never dropped.
        assert_eq!(
            net.send(replicate_envelope(0, 1, 5), Timestamp::ZERO).len(),
            1
        );
        // Other pairs are unaffected.
        assert_eq!(net.send(envelope(0, 2, 1), Timestamp::ZERO).len(), 1);
        assert_eq!(net.stats().dropped_messages, 2);

        net.clear_drop(ReplicaId(0), ReplicaId(1));
        assert_eq!(net.send(envelope(0, 1, 2), Timestamp::ZERO).len(), 1);
    }

    #[test]
    fn duplication_windows_deliver_expendable_messages_twice_in_order() {
        let mut net = network(0.0);
        net.set_duplicate(ReplicaId(0), ReplicaId(1));
        let deliveries = net.send(envelope(0, 1, 1), Timestamp::ZERO);
        assert_eq!(deliveries.len(), 2);
        assert!(
            deliveries[0].0 < deliveries[1].0,
            "the duplicate arrives strictly after the original"
        );
        // Replication traffic is never duplicated.
        assert_eq!(
            net.send(replicate_envelope(0, 1, 5), Timestamp::ZERO).len(),
            1
        );
        assert_eq!(net.stats().duplicated_messages, 1);

        net.clear_duplicate(ReplicaId(0), ReplicaId(1));
        assert_eq!(net.send(envelope(0, 1, 2), Timestamp::ZERO).len(), 1);
    }

    #[test]
    fn partition_takes_precedence_over_drop_and_duplication() {
        let mut net = network(0.0);
        net.partition(ReplicaId(0), ReplicaId(1));
        net.set_drop(ReplicaId(0), ReplicaId(1));
        net.set_duplicate(ReplicaId(0), ReplicaId(1));
        assert!(net.send(envelope(0, 1, 1), Timestamp::ZERO).is_empty());
        // Held, not dropped: the heal releases it.
        assert_eq!(net.stats().held_messages, 1);
        assert_eq!(net.stats().dropped_messages, 0);
    }
}
