//! Keys, values and multi-versioned item versions.
//!
//! An item version (§IV-A) is the tuple `⟨k, v, sr, ut, dv⟩`:
//! key, value, source replica, update time, dependency vector. Versions of the same key
//! are totally ordered by the last-writer-wins rule: highest update timestamp wins, ties
//! broken by the lowest source-replica id (§IV-B).

use crate::{DependencyVector, ReplicaId, Timestamp};
use bytes::Bytes;
use std::cmp::Ordering;
use std::fmt;

/// A key of the key-value store.
///
/// The evaluation of the paper uses small 8-byte keys; the reproduction represents a key
/// as a `u64` for compactness and cheap hashing, with a helper to render it as the 8-byte
/// string it stands for.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct Key(pub u64);

impl Key {
    /// Creates a key from its numeric representation.
    #[inline]
    pub const fn new(raw: u64) -> Self {
        Key(raw)
    }

    /// The raw numeric representation.
    #[inline]
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// The key as 8 big-endian bytes (the wire representation; 8-byte keys as in §V-A).
    #[inline]
    pub fn to_bytes(self) -> [u8; 8] {
        self.0.to_be_bytes()
    }

    /// Parses a key from its 8-byte wire representation.
    #[inline]
    pub fn from_bytes(bytes: [u8; 8]) -> Self {
        Key(u64::from_be_bytes(bytes))
    }
}

impl From<u64> for Key {
    fn from(raw: u64) -> Self {
        Key(raw)
    }
}

impl fmt::Display for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "k{}", self.0)
    }
}

/// A value stored by the key-value store: an opaque byte string.
///
/// Values are reference-counted ([`Bytes`]) so that multi-version storage, replication
/// messages and client replies can share the same allocation.
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct Value(pub Bytes);

impl Value {
    /// An empty value.
    pub fn empty() -> Self {
        Value(Bytes::new())
    }

    /// Creates a value by copying the given bytes.
    pub fn copy_from_slice(data: &[u8]) -> Self {
        Value(Bytes::copy_from_slice(data))
    }

    /// Length of the value in bytes.
    #[inline]
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the value is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The value as a byte slice.
    #[inline]
    pub fn as_slice(&self) -> &[u8] {
        &self.0
    }
}

impl From<&[u8]> for Value {
    fn from(data: &[u8]) -> Self {
        Value::copy_from_slice(data)
    }
}

impl From<Vec<u8>> for Value {
    fn from(data: Vec<u8>) -> Self {
        Value(Bytes::from(data))
    }
}

impl From<&str> for Value {
    fn from(data: &str) -> Self {
        Value(Bytes::copy_from_slice(data.as_bytes()))
    }
}

impl From<u64> for Value {
    fn from(data: u64) -> Self {
        Value(Bytes::copy_from_slice(&data.to_be_bytes()))
    }
}

impl fmt::Debug for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match std::str::from_utf8(&self.0) {
            Ok(s) if s.chars().all(|c| !c.is_control()) => write!(f, "Value({s:?})"),
            _ => write!(f, "Value({} bytes)", self.0.len()),
        }
    }
}

/// A version of an item: the tuple `⟨k, v, sr, ut, dv⟩` of §IV-A.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Version {
    /// The key this version belongs to.
    pub key: Key,
    /// The value written by the PUT that created this version.
    pub value: Value,
    /// The source replica: the data center where this version was created.
    pub source_replica: ReplicaId,
    /// The update time: the physical timestamp assigned by the creating server.
    pub update_time: Timestamp,
    /// The dependency vector: entry `i` is the update time of the newest item originated
    /// at data center `i` that this version potentially depends on.
    pub deps: DependencyVector,
}

impl Version {
    /// Creates a new version.
    pub fn new(
        key: Key,
        value: Value,
        source_replica: ReplicaId,
        update_time: Timestamp,
        deps: DependencyVector,
    ) -> Self {
        Version {
            key,
            value,
            source_replica,
            update_time,
            deps,
        }
    }

    /// Last-writer-wins ordering (§IV-B): higher update timestamp wins; ties are broken by
    /// the *lowest* source-replica id, i.e. the version from the lower replica is
    /// considered "later" and wins.
    ///
    /// Returns [`Ordering::Greater`] when `self` wins over `other`.
    pub fn lww_cmp(&self, other: &Version) -> Ordering {
        self.update_time
            .cmp(&other.update_time)
            // On a timestamp tie the lower source replica wins, so it must compare Greater:
            // reverse the natural ordering of the replica ids.
            .then_with(|| other.source_replica.cmp(&self.source_replica))
    }

    /// Whether `self` wins over `other` under the last-writer-wins rule.
    pub fn wins_over(&self, other: &Version) -> bool {
        self.lww_cmp(other) == Ordering::Greater
    }

    /// Whether this version is *visible* under snapshot vector `tv`
    /// (its dependency vector is entry-wise `<=` `tv`).
    pub fn visible_under(&self, tv: &DependencyVector) -> bool {
        self.deps.visible_under(tv)
    }

    /// Whether vector `tv` *covers* this version: its entry for the source replica covers
    /// the version's own update time and its dependency vector is entry-wise `<=` `tv`.
    /// The one visibility rule of the store: snapshot reads (Algorithm 2 line 43), Cure's
    /// GSS-stable reads and garbage collection (§IV-B) all ask it.
    #[inline]
    pub fn covered_by(&self, tv: &DependencyVector) -> bool {
        self.update_time <= tv.get(self.source_replica) && self.visible_under(tv)
    }

    /// Approximate wire size of the version in bytes: key + value + source replica +
    /// update time + dependency vector. Used for metadata-overhead accounting.
    pub fn wire_size(&self) -> usize {
        8 + self.value.len() + 2 + 8 + self.deps.wire_size()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn version(ut: u64, sr: u16) -> Version {
        Version::new(
            Key(1),
            Value::from("x"),
            ReplicaId(sr),
            Timestamp(ut),
            DependencyVector::zero(3),
        )
    }

    #[test]
    fn key_byte_round_trip() {
        let k = Key(0xDEAD_BEEF_0BAD_F00D);
        assert_eq!(Key::from_bytes(k.to_bytes()), k);
        assert_eq!(k.raw(), 0xDEAD_BEEF_0BAD_F00D);
    }

    #[test]
    fn value_constructors_agree() {
        assert_eq!(Value::from("ab").as_slice(), b"ab");
        assert_eq!(Value::from(vec![1u8, 2]).as_slice(), &[1, 2]);
        assert_eq!(Value::copy_from_slice(&[3, 4]).len(), 2);
        assert!(Value::empty().is_empty());
        assert_eq!(Value::from(258u64).as_slice(), &[0, 0, 0, 0, 0, 0, 1, 2]);
    }

    #[test]
    fn value_debug_shows_text_when_printable() {
        assert_eq!(format!("{:?}", Value::from("hi")), "Value(\"hi\")");
        assert_eq!(format!("{:?}", Value::from(vec![0u8, 1])), "Value(2 bytes)");
    }

    #[test]
    fn lww_prefers_higher_timestamp() {
        let old = version(10, 0);
        let new = version(20, 2);
        assert!(new.wins_over(&old));
        assert!(!old.wins_over(&new));
        assert_eq!(new.lww_cmp(&old), Ordering::Greater);
    }

    #[test]
    fn lww_breaks_ties_by_lowest_replica() {
        let a = version(10, 0);
        let b = version(10, 2);
        // Same timestamp: the version from the lower replica id wins.
        assert!(a.wins_over(&b));
        assert!(!b.wins_over(&a));
    }

    #[test]
    fn lww_is_antisymmetric_for_distinct_versions() {
        let a = version(10, 0);
        let b = version(11, 1);
        assert_eq!(a.lww_cmp(&b), b.lww_cmp(&a).reverse());
    }

    #[test]
    fn identical_versions_compare_equal() {
        let a = version(10, 1);
        let b = version(10, 1);
        assert_eq!(a.lww_cmp(&b), Ordering::Equal);
        assert!(!a.wins_over(&b));
    }

    #[test]
    fn visibility_follows_dependency_vector() {
        let mut v = version(10, 0);
        v.deps = DependencyVector::from_entries(vec![Timestamp(5), Timestamp(0), Timestamp(0)]);
        let tv_ok = DependencyVector::from_entries(vec![Timestamp(5), Timestamp(1), Timestamp(0)]);
        let tv_bad = DependencyVector::from_entries(vec![Timestamp(4), Timestamp(9), Timestamp(9)]);
        assert!(v.visible_under(&tv_ok));
        assert!(!v.visible_under(&tv_bad));
    }

    #[test]
    fn coverage_needs_the_update_time_as_well_as_the_dependencies() {
        let v = version(10, 1);
        let dv = |e: [u64; 3]| DependencyVector::from_entries(e.map(Timestamp).to_vec());
        assert!(v.covered_by(&dv([0, 10, 0])));
        // Dependencies covered, own update time not.
        assert!(v.visible_under(&dv([0, 9, 0])));
        assert!(!v.covered_by(&dv([0, 9, 0])));
        // Update time covered by another replica's entry only.
        assert!(!v.covered_by(&dv([10, 0, 10])));
    }

    #[test]
    fn wire_size_accounts_for_all_fields() {
        let v = version(10, 0);
        // key(8) + value(1) + sr(2) + ut(8) + dv(3*8)
        assert_eq!(v.wire_size(), 8 + 1 + 2 + 8 + 24);
    }
}
