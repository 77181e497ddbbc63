//! The event queue of the discrete-event simulator.

use crate::chaos::ChaosAction;
use pocc_proto::{ClientReply, ClientRequest, Envelope};
use pocc_types::{ReplicaId, ServerId, Timestamp};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// An event scheduled in simulated time.
#[derive(Clone, Debug)]
pub(crate) enum Event {
    /// A client wakes up (think time elapsed) and issues its next operation.
    ClientWake {
        /// Index of the client in the simulation's client table.
        client: usize,
    },
    /// A client request arrives at a server.
    RequestArrival {
        /// The destination server.
        server: ServerId,
        /// Index of the issuing client.
        client: usize,
        /// The request payload.
        request: ClientRequest,
    },
    /// A reply arrives back at a client.
    ReplyArrival {
        /// Index of the destination client.
        client: usize,
        /// The reply payload.
        reply: ClientReply,
    },
    /// A server-to-server message arrives at its destination.
    MessageArrival {
        /// The message and its routing information.
        envelope: Envelope,
    },
    /// A periodic maintenance tick for one server.
    ServerTick {
        /// The server to tick.
        server: ServerId,
    },
    /// Inject a network partition between two data centers.
    InjectPartition {
        /// One side of the partition.
        a: ReplicaId,
        /// The other side.
        b: ReplicaId,
    },
    /// Heal a network partition between two data centers.
    HealPartition {
        /// One side of the partition.
        a: ReplicaId,
        /// The other side.
        b: ReplicaId,
    },
    /// Apply a chaos disturbance (lag spike, drop/duplication window edge, restart).
    /// Chaos partitions and heals reuse the two variants above.
    Chaos(ChaosAction),
}

/// A time-ordered event queue with deterministic FIFO tie-breaking.
#[derive(Debug, Default)]
pub struct EventQueue {
    heap: BinaryHeap<Reverse<(Timestamp, u64)>>,
    payloads: std::collections::HashMap<u64, Event>,
    next_seq: u64,
}

impl EventQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue::default()
    }

    /// Schedules `event` at time `at`.
    pub fn push(&mut self, at: Timestamp, event: Event) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.payloads.insert(seq, event);
        self.heap.push(Reverse((at, seq)));
    }

    /// Removes and returns the earliest event. Ties are broken by insertion order, which
    /// keeps runs deterministic.
    pub fn pop(&mut self) -> Option<(Timestamp, Event)> {
        let Reverse((at, seq)) = self.heap.pop()?;
        let event = self
            .payloads
            .remove(&seq)
            .expect("every scheduled sequence number has a payload");
        Some((at, event))
    }

    /// Number of pending events.
    #[allow(dead_code)] // exercised by tests; kept for debugging harnesses
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no event is pending.
    #[allow(dead_code)]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_pop_in_time_order() {
        let mut q = EventQueue::new();
        q.push(Timestamp(30), Event::ClientWake { client: 3 });
        q.push(Timestamp(10), Event::ClientWake { client: 1 });
        q.push(Timestamp(20), Event::ClientWake { client: 2 });
        let order: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|(at, _)| at.as_micros())
            .collect();
        assert_eq!(order, vec![10, 20, 30]);
        assert!(q.is_empty());
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        for i in 0..10usize {
            q.push(Timestamp(5), Event::ClientWake { client: i });
        }
        let clients: Vec<usize> = std::iter::from_fn(|| q.pop())
            .map(|(_, e)| match e {
                Event::ClientWake { client } => client,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(clients, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn len_tracks_pending_events() {
        let mut q = EventQueue::new();
        assert_eq!(q.len(), 0);
        q.push(Timestamp(1), Event::ClientWake { client: 0 });
        q.push(Timestamp(2), Event::ClientWake { client: 0 });
        assert_eq!(q.len(), 2);
        q.pop();
        assert_eq!(q.len(), 1);
    }
}
