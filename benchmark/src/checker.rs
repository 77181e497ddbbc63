//! Output checks: what a session may and may not read back.
//!
//! Every value the harness writes encodes `(key, writer, seq)`, with `seq` counting a
//! writer's PUTs to that key from 1. A read is then checkable from outside the program:
//!
//! * it decodes, names the key that was asked for, and names a `(writer, seq)` that
//!   writer really issued (*no foreign read*);
//! * per key and writer, the `seq` a session sees never falls below what it had seen
//!   when it sent the request (*monotonic reads*);
//! * it is the session's own last acknowledged write to that key, or a newer version
//!   (*read your writes*).
//!
//! Sessions pipeline requests and replies carry no request id, so "before" is always
//! taken at the time a request was sent: two requests in flight together are not ordered.
//! PUT acknowledgements are told apart only by arrival order. The checks stay sound if
//! acknowledgements of different keys overtake one another (as they can between worker
//! lanes): own reads are compared by `seq`, which needs no acknowledgement, and foreign
//! versions against an update time taken before the PUT was even sent.

use pocc_proto::GetResponse;
use pocc_types::Value;
use std::collections::VecDeque;

/// Writers: 0 preloads every key once during set-up, 1 and 2 are the two sessions.
pub const WRITERS: usize = 3;
pub const PRELOAD_WRITER: u32 = 0;

/// Size of every value, in bytes.
pub const VALUE_LEN: usize = 64;
const FILL: u8 = 0x5A;

fn check_word(key: u64, writer: u32, seq: u64) -> u64 {
    let mut z = key ^ (u64::from(writer) << 56) ^ seq.rotate_left(29) ^ 0x9E37_79B9_7F4A_7C15;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z ^ (z >> 27)
}

/// The 64-byte value of PUT number `seq` by `writer` to `key`.
pub fn encode_value(key: u64, writer: u32, seq: u64) -> Value {
    let mut bytes = vec![FILL; VALUE_LEN];
    bytes[0..8].copy_from_slice(&key.to_le_bytes());
    bytes[8..12].copy_from_slice(&writer.to_le_bytes());
    bytes[12..20].copy_from_slice(&seq.to_le_bytes());
    bytes[20..28].copy_from_slice(&check_word(key, writer, seq).to_le_bytes());
    Value::from(bytes)
}

/// `(key, writer, seq)` of a value, or `None` if the harness cannot have written it.
pub fn decode_value(bytes: &[u8]) -> Option<(u64, u32, u64)> {
    if bytes.len() != VALUE_LEN || bytes[28..].iter().any(|&b| b != FILL) {
        return None;
    }
    let key = u64::from_le_bytes(bytes[0..8].try_into().ok()?);
    let writer = u32::from_le_bytes(bytes[8..12].try_into().ok()?);
    let seq = u64::from_le_bytes(bytes[12..20].try_into().ok()?);
    let check = u64::from_le_bytes(bytes[20..28].try_into().ok()?);
    (check == check_word(key, writer, seq)).then_some((key, writer, seq))
}

/// What a session knew about one key when it sent a read of it.
#[derive(Clone, Copy, Debug, Default)]
pub struct ReadFloor {
    /// Highest `seq` seen so far, per writer.
    seen: [u32; WRITERS],
    /// `seq` of the session's own last acknowledged PUT to the key (0: none).
    own_seq: u32,
    /// An update time strictly below that PUT's own.
    own_ut_floor: u64,
}

/// Violations found, by check.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Violations {
    /// Absent, undecodable, wrong key, unknown writer, or a `seq` never issued.
    pub foreign: u64,
    /// A writer's `seq` went backwards for this session.
    pub non_monotonic: u64,
    /// Older than the session's own acknowledged write.
    pub stale_own: u64,
    /// The first one, spelled out.
    pub first: Option<String>,
}

impl Violations {
    pub fn total(&self) -> u64 {
        self.foreign + self.non_monotonic + self.stale_own
    }

    pub fn merge(&mut self, other: &Violations) {
        self.foreign += other.foreign;
        self.non_monotonic += other.non_monotonic;
        self.stale_own += other.stale_own;
        if self.first.is_none() {
            self.first.clone_from(&other.first);
        }
    }
}

/// One session's view: what it wrote, what was acknowledged, what it has seen.
pub struct SessionChecker {
    writer: u32,
    keys: usize,
    /// `seen[w * keys + k]`: highest `seq` of writer `w` read for key index `k`.
    seen: Vec<u32>,
    /// PUTs issued per key index; the `seq` of the latest one.
    issued: Vec<u32>,
    acked_seq: Vec<u32>,
    acked_ut_floor: Vec<u64>,
    /// PUTs sent and not yet acknowledged: key index, `seq`, and the highest update time
    /// acknowledged before it was sent (its own will be above that).
    unacked: VecDeque<(u32, u32, u64)>,
    max_acked_ut: u64,
    pub violations: Violations,
}

impl SessionChecker {
    pub fn new(writer: u32, keys: usize) -> Self {
        assert!((writer as usize) < WRITERS);
        SessionChecker {
            writer,
            keys,
            seen: vec![0; WRITERS * keys],
            issued: vec![0; keys],
            acked_seq: vec![0; keys],
            acked_ut_floor: vec![0; keys],
            unacked: VecDeque::new(),
            max_acked_ut: 0,
            violations: Violations::default(),
        }
    }

    /// Registers a PUT to key index `k` about to be sent; returns its `seq`.
    pub fn put_sent(&mut self, k: u32) -> u64 {
        let seq = &mut self.issued[k as usize];
        *seq += 1;
        self.unacked.push_back((k, *seq, self.max_acked_ut));
        u64::from(*seq)
    }

    /// Registers a PUT acknowledgement; returns the key index it is attributed to.
    pub fn put_acked(&mut self, update_time: u64) -> Option<u32> {
        let (k, seq, ut_floor) = self.unacked.pop_front()?;
        self.acked_seq[k as usize] = seq;
        self.acked_ut_floor[k as usize] = ut_floor;
        self.max_acked_ut = self.max_acked_ut.max(update_time);
        Some(k)
    }

    /// Takes the floor for a read of key index `k` that is about to be sent.
    pub fn read_sent(&self, k: u32) -> ReadFloor {
        let k = k as usize;
        let mut seen = [0; WRITERS];
        for (w, slot) in seen.iter_mut().enumerate() {
            *slot = self.seen[w * self.keys + k];
        }
        ReadFloor {
            seen,
            own_seq: self.acked_seq[k],
            own_ut_floor: self.acked_ut_floor[k],
        }
    }

    fn flag(&mut self, count: fn(&mut Violations) -> &mut u64, describe: impl FnOnce() -> String) {
        *count(&mut self.violations) += 1;
        if self.violations.first.is_none() {
            self.violations.first = Some(describe());
        }
    }

    /// Checks what a GET, or one item of a RO-TX, returned for key index `k` (`key` on
    /// the wire) against the floor taken when the request was sent.
    pub fn read_returned(&mut self, k: u32, key: u64, floor: &ReadFloor, resp: &GetResponse) {
        let me = self.writer;
        let decoded = resp.value.as_ref().and_then(|v| decode_value(v.as_slice()));
        let Some((_, writer, seq)) = decoded.filter(|&(got_key, writer, seq)| {
            got_key == key && (writer as usize) < WRITERS && seq >= 1 && seq <= u64::from(u32::MAX)
        }) else {
            self.flag(
                |v| &mut v.foreign,
                || format!("session {me}: read of key {key} returned {decoded:?} (absent, undecodable or not this key)"),
            );
            return;
        };
        let seq = seq as u32;
        if writer == me && seq > self.issued[k as usize] {
            let issued = self.issued[k as usize];
            self.flag(
                |v| &mut v.foreign,
                || format!("session {me}: key {key} returned own seq {seq} but only {issued} were issued"),
            );
            return;
        }
        if seq < floor.seen[writer as usize] {
            let before = floor.seen[writer as usize];
            self.flag(
                |v| &mut v.non_monotonic,
                || format!("session {me}: key {key} writer {writer} went from seq {before} back to {seq}"),
            );
        }
        if floor.own_seq > 0 {
            let stale = if writer == me {
                seq < floor.own_seq
            } else {
                // Another writer's version replaces mine only if it is newer than mine,
                // and mine is newer than the floor.
                resp.update_time.0 <= floor.own_ut_floor
            };
            if stale {
                let own = floor.own_seq;
                self.flag(
                    |v| &mut v.stale_own,
                    || format!("session {me}: key {key} returned writer {writer} seq {seq}, older than own acknowledged seq {own}"),
                );
            }
        }
        let slot = &mut self.seen[writer as usize * self.keys + k as usize];
        *slot = (*slot).max(seq);
    }

    /// Flags a reply that matches nothing the session asked for.
    pub fn flag_foreign(&mut self, what: String) {
        let me = self.writer;
        self.flag(|v| &mut v.foreign, || format!("session {me}: {what}"));
    }

    /// Forgets the PUT registered last: the transport refused it, so no server saw it.
    /// Its `seq` stays used up, which the checks allow (they bound `seq` from above).
    pub fn put_dropped(&mut self) {
        self.unacked.pop_back();
    }

    /// PUTs this session issued to key index `k`.
    pub fn issued(&self, k: usize) -> u32 {
        self.issued[k]
    }
}

/// The cross-session half of the foreign-read check, run when all sessions have stopped:
/// no session saw a `seq` of another writer beyond what that writer issued. `sessions`
/// are indexed by `writer - 1`; the preload writer issued exactly one PUT per key.
pub fn cross_check(sessions: &[SessionChecker]) -> Violations {
    let mut found = Violations::default();
    for reader in 0..sessions.len() {
        for writer in 0..WRITERS {
            for k in 0..sessions[reader].keys {
                let issued = match writer {
                    0 => 1,
                    w => sessions.get(w - 1).map_or(0, |s| s.issued(k)),
                };
                let seen = sessions[reader].seen[writer * sessions[reader].keys + k];
                if seen > issued {
                    found.foreign += 1;
                    found.first.get_or_insert_with(|| {
                        format!(
                            "session {}: key index {k} showed writer {writer} seq {seen}, but it issued {issued}",
                            reader + 1
                        )
                    });
                }
            }
        }
    }
    for session in sessions.iter() {
        found.merge(&session.violations);
    }
    found
}

#[cfg(test)]
mod tests {
    use super::*;
    use pocc_types::{DependencyVector, ReplicaId, Timestamp};

    const KEY: u64 = 0xABCD;

    fn resp(value: Option<Value>, ut: u64) -> GetResponse {
        GetResponse {
            value,
            update_time: Timestamp(ut),
            deps: DependencyVector::zero(2),
            source_replica: ReplicaId(0),
        }
    }

    fn read(c: &mut SessionChecker, writer: u32, seq: u64, ut: u64) {
        let floor = c.read_sent(0);
        c.read_returned(
            0,
            KEY,
            &floor,
            &resp(Some(encode_value(KEY, writer, seq)), ut),
        );
    }

    #[test]
    fn values_round_trip_and_reject_tampering() {
        let v = encode_value(7, 2, 99);
        assert_eq!(v.len(), VALUE_LEN);
        assert_eq!(decode_value(v.as_slice()), Some((7, 2, 99)));
        let mut bytes = v.as_slice().to_vec();
        bytes[12] ^= 1; // another seq under the old check word
        assert_eq!(decode_value(&bytes), None);
        assert_eq!(decode_value(&bytes[..63]), None);
        assert_eq!(decode_value(&[0x5A; VALUE_LEN]), None);
        assert_eq!(decode_value(b""), None);
    }

    #[test]
    fn a_lawful_history_passes() {
        let mut c = SessionChecker::new(1, 1);
        read(&mut c, PRELOAD_WRITER, 1, 10);
        assert_eq!(c.put_sent(0), 1);
        assert_eq!(c.put_acked(100), Some(0));
        read(&mut c, 1, 1, 100);
        // A concurrent writer's newer version may replace mine, and come and go under
        // last-writer-wins as long as each writer's own seq never falls.
        read(&mut c, 2, 4, 150);
        read(&mut c, 2, 4, 150);
        assert_eq!(c.put_sent(0), 2);
        // My second PUT is in flight: reading either my old or my new write is fine.
        read(&mut c, 1, 1, 100);
        read(&mut c, 1, 2, 200);
        assert_eq!(c.violations, Violations::default());
    }

    #[test]
    fn a_fabricated_foreign_read_fails() {
        let mut c = SessionChecker::new(1, 1);
        let floor = c.read_sent(0);
        c.read_returned(0, KEY, &floor, &resp(None, 0));
        c.read_returned(0, KEY, &floor, &resp(Some(Value::from("junk")), 5));
        // Right format, wrong key.
        c.read_returned(0, KEY, &floor, &resp(Some(encode_value(KEY + 1, 0, 1)), 5));
        // A writer that does not exist, and an own seq never issued.
        c.read_returned(0, KEY, &floor, &resp(Some(encode_value(KEY, 9, 1)), 5));
        c.read_returned(0, KEY, &floor, &resp(Some(encode_value(KEY, 1, 3)), 5));
        assert_eq!(c.violations.foreign, 5);
        assert!(c.violations.first.as_deref().unwrap().contains("absent"));

        // Another writer's seq beyond what it issued shows only once both stopped.
        let mut sessions = [SessionChecker::new(1, 1), SessionChecker::new(2, 1)];
        sessions[1].put_sent(0);
        read(&mut sessions[0], 2, 1, 50);
        assert_eq!(cross_check(&sessions).total(), 0);
        read(&mut sessions[0], 2, 2, 60);
        read(&mut sessions[0], PRELOAD_WRITER, 2, 1);
        let found = cross_check(&sessions);
        assert_eq!(found.foreign, 2);
        assert!(found.first.unwrap().contains("writer 0 seq 2"));
    }

    #[test]
    fn a_fabricated_stale_read_fails() {
        // Monotonic reads: writer 2's seq falls.
        let mut c = SessionChecker::new(1, 1);
        read(&mut c, 2, 5, 50);
        read(&mut c, 2, 4, 40);
        assert_eq!(c.violations.non_monotonic, 1);
        assert_eq!(c.violations.stale_own, 0);

        // Read your writes: own seq 2 acknowledged, then seq 1 or the preload comes back.
        let mut c = SessionChecker::new(1, 1);
        c.put_sent(0);
        c.put_acked(100);
        c.put_sent(0);
        c.put_acked(200);
        read(&mut c, 1, 1, 100);
        read(&mut c, PRELOAD_WRITER, 1, 10);
        assert_eq!(c.violations.stale_own, 2);
        assert!(c
            .violations
            .first
            .as_deref()
            .unwrap()
            .contains("older than own"));
        // A foreign version above the floor is accepted.
        read(&mut c, 2, 1, 250);
        assert_eq!(c.violations.total(), 2);
    }

    #[test]
    fn requests_in_flight_together_are_not_ordered() {
        let mut c = SessionChecker::new(1, 1);
        let early = c.read_sent(0);
        read(&mut c, 2, 7, 70);
        // Sent before seq 7 was seen, answered after: seq 6 is lawful.
        c.read_returned(0, KEY, &early, &resp(Some(encode_value(KEY, 2, 6)), 60));
        assert_eq!(c.violations.total(), 0);
        // Sent after: it is not.
        read(&mut c, 2, 6, 60);
        assert_eq!(c.violations.non_monotonic, 1);
    }

    #[test]
    fn overtaking_acknowledgements_do_not_raise_false_alarms() {
        // Two keys; the PUT to key 1 is acknowledged first although sent second, so the
        // arrival-order attribution swaps them.
        let mut c = SessionChecker::new(1, 2);
        c.put_sent(0);
        c.put_sent(1);
        assert_eq!(c.put_acked(205), Some(0)); // really key 1's acknowledgement
                                               // Key 0 is read back with its true, lower, update time: still lawful, because
                                               // own versions are compared by seq.
        let floor = c.read_sent(0);
        c.read_returned(0, KEY, &floor, &resp(Some(encode_value(KEY, 1, 1)), 200));
        // And a foreign version just above my true update time is lawful as well.
        c.read_returned(0, KEY, &floor, &resp(Some(encode_value(KEY, 2, 1)), 201));
        assert_eq!(c.violations.total(), 0);
    }
}
