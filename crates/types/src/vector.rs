//! Version vectors and dependency vectors.
//!
//! POCC tracks causality at the granularity of the data center (§IV): every item and every
//! client carries a vector with one physical-timestamp entry per data center, and every
//! server maintains a *version vector* summarising the updates it has received from each
//! sibling replica.
//!
//! * [`DependencyVector`] — attached to item versions (`d.dv`) and to clients
//!   (`DV_c`, `RDV_c`). Entry `i` is the update time of the newest item *originated at
//!   data center `i`* that the carrier (item or client) potentially depends on.
//! * [`VersionVector`] — maintained by a server `p^m_n` (`VV^m_n`). Entry `m` is the highest
//!   update timestamp of any local update; entry `i ≠ m` means the server has received every
//!   update of its partition originated at data center `i` with timestamp up to that value
//!   (updates and heartbeats are delivered in timestamp order over FIFO channels).
//!
//! Both are thin wrappers over the same fixed-length vector of [`Timestamp`]s and share the
//! lattice operations (entry-wise max/min, partial-order comparison) through [`ClockVector`].

use crate::{ReplicaId, Timestamp};
use std::fmt;
use std::ops::Index;

/// The result of comparing two clock vectors under the entry-wise partial order.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum VectorOrdering {
    /// Every entry is equal.
    Equal,
    /// Every entry of the left operand is `<=` the corresponding right entry, and at least
    /// one is strictly smaller.
    Less,
    /// Every entry of the left operand is `>=` the corresponding right entry, and at least
    /// one is strictly greater.
    Greater,
    /// Some entries are smaller and some are greater: the vectors are incomparable, which
    /// for dependency vectors means the underlying events are concurrent.
    Concurrent,
}

/// A fixed-length vector of physical timestamps, one entry per data center.
///
/// This is the shared representation behind [`VersionVector`] and [`DependencyVector`].
/// The length is fixed at construction time to the number of data centers `M` of the
/// deployment; all binary operations require both operands to have the same length and
/// panic otherwise (mixing vectors from differently-sized deployments is a programming
/// error, not a runtime condition).
///
/// # Memory layout
///
/// Deployments in the paper span 2–8 data centers, and a vector is attached to *every*
/// item version, wire message and client session — so vector copies sit on every hot
/// path. Up to [`ClockVector::INLINE_CAPACITY`] entries are therefore stored inline in
/// the struct itself: cloning such a vector is a plain memcpy with **zero** heap
/// allocations. Longer vectors spill to a heap `Vec` and behave like the naive
/// representation. Equality and hashing see only the logical entries, so an inline
/// vector and a (hypothetical) spilled one of equal contents compare equal.
#[derive(Clone)]
pub struct ClockVector {
    /// Logical number of entries (the spare inline slots beyond `len` are dead space).
    len: u32,
    /// Entry storage when `len <= INLINE_CAPACITY`.
    inline: [Timestamp; ClockVector::INLINE_CAPACITY],
    /// Entry storage when `len > INLINE_CAPACITY` — holds *all* entries; the inline
    /// array is ignored.
    spill: Vec<Timestamp>,
}

impl ClockVector {
    /// Maximum number of entries stored inline (without a heap allocation). Covers the
    /// 2–8 data-center topologies of the paper's evaluation with room to spare.
    pub const INLINE_CAPACITY: usize = 8;

    const ZERO_INLINE: [Timestamp; Self::INLINE_CAPACITY] =
        [Timestamp::ZERO; Self::INLINE_CAPACITY];

    /// Creates a vector of `num_replicas` zero entries.
    pub fn zero(num_replicas: usize) -> Self {
        if num_replicas <= Self::INLINE_CAPACITY {
            ClockVector {
                len: num_replicas as u32,
                inline: Self::ZERO_INLINE,
                spill: Vec::new(),
            }
        } else {
            ClockVector {
                len: num_replicas as u32,
                inline: Self::ZERO_INLINE,
                spill: vec![Timestamp::ZERO; num_replicas],
            }
        }
    }

    /// Creates a vector from explicit entries.
    pub fn from_entries(entries: Vec<Timestamp>) -> Self {
        if entries.len() <= Self::INLINE_CAPACITY {
            Self::from_slice(&entries)
        } else {
            ClockVector {
                len: entries.len() as u32,
                inline: Self::ZERO_INLINE,
                spill: entries,
            }
        }
    }

    /// Creates a vector by copying a slice of entries. Allocation-free for slices of up
    /// to [`INLINE_CAPACITY`](Self::INLINE_CAPACITY) entries.
    pub fn from_slice(entries: &[Timestamp]) -> Self {
        if entries.len() <= Self::INLINE_CAPACITY {
            let mut inline = Self::ZERO_INLINE;
            inline[..entries.len()].copy_from_slice(entries);
            ClockVector {
                len: entries.len() as u32,
                inline,
                spill: Vec::new(),
            }
        } else {
            ClockVector {
                len: entries.len() as u32,
                inline: Self::ZERO_INLINE,
                spill: entries.to_vec(),
            }
        }
    }

    /// Builds a vector of `len` entries from a fallible producer, short-circuiting on the
    /// first error. Allocation-free for up to [`INLINE_CAPACITY`](Self::INLINE_CAPACITY)
    /// entries — this is the wire-decode constructor: the codec reads entries straight
    /// from the input buffer into the inline array without an intermediate `Vec`.
    pub fn try_from_fn<E>(
        len: usize,
        mut f: impl FnMut(usize) -> Result<Timestamp, E>,
    ) -> Result<Self, E> {
        if len <= Self::INLINE_CAPACITY {
            let mut inline = Self::ZERO_INLINE;
            for (i, slot) in inline[..len].iter_mut().enumerate() {
                *slot = f(i)?;
            }
            Ok(ClockVector {
                len: len as u32,
                inline,
                spill: Vec::new(),
            })
        } else {
            let mut spill = Vec::with_capacity(len);
            for i in 0..len {
                spill.push(f(i)?);
            }
            Ok(ClockVector {
                len: len as u32,
                inline: Self::ZERO_INLINE,
                spill,
            })
        }
    }

    /// The logical entries as a slice.
    #[inline]
    fn entries(&self) -> &[Timestamp] {
        let n = self.len as usize;
        if n <= Self::INLINE_CAPACITY {
            &self.inline[..n]
        } else {
            &self.spill
        }
    }

    /// The logical entries as a mutable slice.
    #[inline]
    fn entries_mut(&mut self) -> &mut [Timestamp] {
        let n = self.len as usize;
        if n <= Self::INLINE_CAPACITY {
            &mut self.inline[..n]
        } else {
            &mut self.spill
        }
    }

    /// Number of entries (the number of data centers `M`).
    #[inline]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether the vector has no entries. A zero-length vector is only meaningful in
    /// degenerate single-process tests.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Returns entry `i`.
    #[inline]
    pub fn get(&self, replica: ReplicaId) -> Timestamp {
        self.entries()[replica.index()]
    }

    /// Sets entry `i` to exactly `ts`.
    #[inline]
    pub fn set(&mut self, replica: ReplicaId, ts: Timestamp) {
        self.entries_mut()[replica.index()] = ts;
    }

    /// Advances entry `i` to `ts` if `ts` is larger (no-op otherwise).
    #[inline]
    pub fn advance(&mut self, replica: ReplicaId, ts: Timestamp) {
        let e = &mut self.entries_mut()[replica.index()];
        if ts > *e {
            *e = ts;
        }
    }

    /// Entry-wise maximum with `other`, in place. This is the lattice *join* used by
    /// clients to accumulate dependencies (Algorithm 1, lines 4–5) and by transaction
    /// coordinators to build the snapshot vector (Algorithm 2, line 32).
    pub fn join(&mut self, other: &ClockVector) {
        assert_eq!(
            self.len(),
            other.len(),
            "clock vectors from different deployments (len {} vs {})",
            self.len(),
            other.len()
        );
        for (a, b) in self.entries_mut().iter_mut().zip(other.entries()) {
            if *b > *a {
                *a = *b;
            }
        }
    }

    /// Returns the entry-wise maximum of `self` and `other` without mutating either.
    pub fn joined(&self, other: &ClockVector) -> ClockVector {
        let mut out = self.clone();
        out.join(other);
        out
    }

    /// Entry-wise minimum with `other`, in place. This is the lattice *meet* used by the
    /// garbage-collection protocol (aggregate minimum of snapshot vectors, §IV-B) and by
    /// Cure's stabilization protocol to compute the Globally Stable Snapshot.
    pub fn meet(&mut self, other: &ClockVector) {
        assert_eq!(
            self.len(),
            other.len(),
            "clock vectors from different deployments (len {} vs {})",
            self.len(),
            other.len()
        );
        for (a, b) in self.entries_mut().iter_mut().zip(other.entries()) {
            if *b < *a {
                *a = *b;
            }
        }
    }

    /// Returns the entry-wise minimum of `self` and `other` without mutating either.
    pub fn met(&self, other: &ClockVector) -> ClockVector {
        let mut out = self.clone();
        out.meet(other);
        out
    }

    /// Whether every entry of `self` is `>=` the corresponding entry of `other`.
    pub fn dominates(&self, other: &ClockVector) -> bool {
        assert_eq!(self.len(), other.len());
        self.entries()
            .iter()
            .zip(other.entries())
            .all(|(a, b)| a >= b)
    }

    /// Whether every entry of `self` except `skip` is `>=` the corresponding entry of
    /// `other`.
    ///
    /// This is the wait condition of Algorithm 2 lines 2 and 6: the local entry `m` is
    /// skipped because dependencies on locally-originated items are trivially satisfied.
    pub fn dominates_except(&self, other: &ClockVector, skip: ReplicaId) -> bool {
        assert_eq!(self.len(), other.len());
        self.entries()
            .iter()
            .zip(other.entries())
            .enumerate()
            .all(|(i, (a, b))| i == skip.index() || a >= b)
    }

    /// Compares two vectors under the entry-wise partial order.
    pub fn partial_cmp_vector(&self, other: &ClockVector) -> VectorOrdering {
        assert_eq!(self.len(), other.len());
        let mut less = false;
        let mut greater = false;
        for (a, b) in self.entries().iter().zip(other.entries()) {
            if a < b {
                less = true;
            } else if a > b {
                greater = true;
            }
        }
        match (less, greater) {
            (false, false) => VectorOrdering::Equal,
            (true, false) => VectorOrdering::Less,
            (false, true) => VectorOrdering::Greater,
            (true, true) => VectorOrdering::Concurrent,
        }
    }

    /// The maximum entry of the vector. Used by the PUT handler (Algorithm 2 line 7),
    /// which waits until the local physical clock exceeds `max(DV_c)` so that the new
    /// item's update time is larger than any of its potential dependencies.
    pub fn max_entry(&self) -> Timestamp {
        self.entries()
            .iter()
            .copied()
            .max()
            .unwrap_or(Timestamp::ZERO)
    }

    /// The minimum entry of the vector.
    pub fn min_entry(&self) -> Timestamp {
        self.entries()
            .iter()
            .copied()
            .min()
            .unwrap_or(Timestamp::ZERO)
    }

    /// Iterator over `(replica, timestamp)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (ReplicaId, Timestamp)> + '_ {
        self.entries()
            .iter()
            .enumerate()
            .map(|(i, ts)| (ReplicaId::from(i), *ts))
    }

    /// The raw entries, indexed by replica.
    pub fn as_slice(&self) -> &[Timestamp] {
        self.entries()
    }

    /// Approximate wire size of the vector in bytes (8 bytes per entry). Used by the
    /// simulator's metadata-overhead accounting.
    pub fn wire_size(&self) -> usize {
        self.len() * 8
    }
}

impl PartialEq for ClockVector {
    fn eq(&self, other: &Self) -> bool {
        self.entries() == other.entries()
    }
}

impl Eq for ClockVector {}

impl std::hash::Hash for ClockVector {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.entries().hash(state);
    }
}

impl Index<ReplicaId> for ClockVector {
    type Output = Timestamp;

    fn index(&self, index: ReplicaId) -> &Timestamp {
        &self.entries()[index.index()]
    }
}

impl fmt::Debug for ClockVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, e) in self.entries().iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}", e.as_micros())?;
        }
        write!(f, "]")
    }
}

impl fmt::Display for ClockVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

macro_rules! vector_newtype {
    ($(#[$meta:meta])* $name:ident) => {
        $(#[$meta])*
        #[derive(Clone, PartialEq, Eq, Hash)]
        pub struct $name(pub ClockVector);

        impl $name {
            /// Creates a vector of `num_replicas` zero entries.
            pub fn zero(num_replicas: usize) -> Self {
                $name(ClockVector::zero(num_replicas))
            }

            /// Creates a vector from explicit per-replica entries.
            pub fn from_entries(entries: Vec<Timestamp>) -> Self {
                $name(ClockVector::from_entries(entries))
            }

            /// Creates a vector by copying a slice of entries (allocation-free for up to
            /// [`ClockVector::INLINE_CAPACITY`] entries).
            pub fn from_slice(entries: &[Timestamp]) -> Self {
                $name(ClockVector::from_slice(entries))
            }

            /// Number of entries (the number of data centers `M`).
            #[inline]
            pub fn len(&self) -> usize {
                self.0.len()
            }

            /// Whether the vector has no entries.
            #[inline]
            pub fn is_empty(&self) -> bool {
                self.0.is_empty()
            }

            /// Returns entry `replica`.
            #[inline]
            pub fn get(&self, replica: ReplicaId) -> Timestamp {
                self.0.get(replica)
            }

            /// Sets entry `replica` to exactly `ts`.
            #[inline]
            pub fn set(&mut self, replica: ReplicaId, ts: Timestamp) {
                self.0.set(replica, ts)
            }

            /// Advances entry `replica` to `ts` if `ts` is larger.
            #[inline]
            pub fn advance(&mut self, replica: ReplicaId, ts: Timestamp) {
                self.0.advance(replica, ts)
            }

            /// Entry-wise maximum with `other`, in place.
            pub fn join(&mut self, other: &$name) {
                self.0.join(&other.0)
            }

            /// Returns the entry-wise maximum of `self` and `other`.
            pub fn joined(&self, other: &$name) -> $name {
                $name(self.0.joined(&other.0))
            }

            /// Entry-wise minimum with `other`, in place.
            pub fn meet(&mut self, other: &$name) {
                self.0.meet(&other.0)
            }

            /// Returns the entry-wise minimum of `self` and `other`.
            pub fn met(&self, other: &$name) -> $name {
                $name(self.0.met(&other.0))
            }

            /// Whether every entry of `self` is `>=` the corresponding entry of `other`.
            pub fn dominates(&self, other: &$name) -> bool {
                self.0.dominates(&other.0)
            }

            /// Compares under the entry-wise partial order.
            pub fn partial_cmp_vector(&self, other: &$name) -> VectorOrdering {
                self.0.partial_cmp_vector(&other.0)
            }

            /// The maximum entry.
            pub fn max_entry(&self) -> Timestamp {
                self.0.max_entry()
            }

            /// The minimum entry.
            pub fn min_entry(&self) -> Timestamp {
                self.0.min_entry()
            }

            /// Iterator over `(replica, timestamp)` pairs.
            pub fn iter(&self) -> impl Iterator<Item = (ReplicaId, Timestamp)> + '_ {
                self.0.iter()
            }

            /// The raw entries, indexed by replica.
            pub fn as_slice(&self) -> &[Timestamp] {
                self.0.as_slice()
            }

            /// Approximate wire size in bytes.
            pub fn wire_size(&self) -> usize {
                self.0.wire_size()
            }

            /// Access to the underlying [`ClockVector`].
            pub fn as_clock_vector(&self) -> &ClockVector {
                &self.0
            }
        }

        impl Index<ReplicaId> for $name {
            type Output = Timestamp;

            fn index(&self, index: ReplicaId) -> &Timestamp {
                &self.0[index]
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{}{:?}", stringify!($name), self.0)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                fmt::Display::fmt(&self.0, f)
            }
        }

        impl From<ClockVector> for $name {
            fn from(v: ClockVector) -> Self {
                $name(v)
            }
        }
    };
}

vector_newtype!(
    /// A server-side version vector `VV^m_n` (§IV-A).
    ///
    /// Entry `m` (the server's own data center) is the highest update timestamp of any
    /// update originated at this server; entry `i ≠ m` means the server has received every
    /// update of its partition originated at data center `i` with timestamp `<=` that value.
    VersionVector
);

vector_newtype!(
    /// A dependency vector (§IV-A), attached to item versions (`d.dv`) and maintained by
    /// clients (`DV_c`, `RDV_c`).
    ///
    /// Entry `i` is the update time of the newest item originated at data center `i` that
    /// the carrier potentially depends on. Because dependencies are tracked at data-center
    /// granularity the vector encodes *potential* dependencies: it may be coarser than the
    /// true causal history, which can only cause spurious waiting, never a consistency
    /// violation.
    DependencyVector
);

impl VersionVector {
    /// The wait condition of Algorithm 2 line 2: every entry except the local one must have
    /// reached the client's read-dependency vector.
    pub fn covers_dependencies_except_local(
        &self,
        deps: &DependencyVector,
        local: ReplicaId,
    ) -> bool {
        self.0.dominates_except(&deps.0, local)
    }

    /// Whether this version vector covers the whole dependency vector (all entries).
    /// Used by the RO-TX slice wait condition (Algorithm 2 line 40) where the snapshot
    /// vector also constrains the local entry.
    pub fn covers(&self, deps: &DependencyVector) -> bool {
        self.0.dominates(&deps.0)
    }

    /// Builds the transaction snapshot vector `TV = max(VV, RDV)` (Algorithm 2 line 32).
    pub fn snapshot_with(&self, rdv: &DependencyVector) -> DependencyVector {
        DependencyVector(self.0.joined(&rdv.0))
    }
}

impl DependencyVector {
    /// Whether an item carrying this dependency vector is *visible* under snapshot `tv`,
    /// i.e. `self <= tv` entry-wise (Algorithm 2 line 43; Cure's visibility rule).
    pub fn visible_under(&self, tv: &DependencyVector) -> bool {
        tv.0.dominates(&self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cv(entries: &[u64]) -> ClockVector {
        ClockVector::from_entries(entries.iter().map(|&e| Timestamp(e)).collect())
    }

    #[test]
    fn zero_vector_has_zero_entries() {
        let v = ClockVector::zero(3);
        assert_eq!(v.len(), 3);
        assert!(v.iter().all(|(_, ts)| ts == Timestamp::ZERO));
        assert!(!v.is_empty());
        assert!(ClockVector::zero(0).is_empty());
    }

    #[test]
    fn join_takes_entrywise_max() {
        let a = cv(&[1, 5, 3]);
        let b = cv(&[2, 4, 3]);
        assert_eq!(a.joined(&b), cv(&[2, 5, 3]));
    }

    #[test]
    fn meet_takes_entrywise_min() {
        let a = cv(&[1, 5, 3]);
        let b = cv(&[2, 4, 3]);
        assert_eq!(a.met(&b), cv(&[1, 4, 3]));
    }

    #[test]
    fn dominates_is_reflexive_and_respects_entries() {
        let a = cv(&[2, 5, 3]);
        let b = cv(&[1, 5, 3]);
        assert!(a.dominates(&a));
        assert!(a.dominates(&b));
        assert!(!b.dominates(&a));
    }

    #[test]
    fn dominates_except_skips_the_local_entry() {
        // Local replica is 0: its entry may lag behind the dependency vector.
        let vv = cv(&[0, 10, 10]);
        let deps = cv(&[99, 10, 9]);
        assert!(vv.dominates_except(&deps, ReplicaId(0)));
        assert!(!vv.dominates_except(&deps, ReplicaId(1)));
        assert!(!vv.dominates(&deps));
    }

    #[test]
    fn partial_order_classification() {
        let a = cv(&[1, 2, 3]);
        let b = cv(&[1, 2, 3]);
        let c = cv(&[2, 2, 3]);
        let d = cv(&[0, 9, 3]);
        assert_eq!(a.partial_cmp_vector(&b), VectorOrdering::Equal);
        assert_eq!(a.partial_cmp_vector(&c), VectorOrdering::Less);
        assert_eq!(c.partial_cmp_vector(&a), VectorOrdering::Greater);
        assert_eq!(a.partial_cmp_vector(&d), VectorOrdering::Concurrent);
    }

    #[test]
    fn max_and_min_entry() {
        let a = cv(&[4, 9, 1]);
        assert_eq!(a.max_entry(), Timestamp(9));
        assert_eq!(a.min_entry(), Timestamp(1));
        assert_eq!(ClockVector::zero(0).max_entry(), Timestamp::ZERO);
    }

    #[test]
    fn advance_only_moves_forward() {
        let mut a = cv(&[4, 9, 1]);
        a.advance(ReplicaId(0), Timestamp(2));
        assert_eq!(a.get(ReplicaId(0)), Timestamp(4));
        a.advance(ReplicaId(0), Timestamp(7));
        assert_eq!(a.get(ReplicaId(0)), Timestamp(7));
    }

    #[test]
    #[should_panic(expected = "different deployments")]
    fn join_panics_on_length_mismatch() {
        let mut a = cv(&[1, 2]);
        a.join(&cv(&[1, 2, 3]));
    }

    #[test]
    fn version_vector_wait_condition_matches_paper() {
        // Server in DC 1 has VV = [10, 50, 20]; client read-depends on [15, 99, 20].
        // Entry 1 is local so it is skipped; entry 0 (15 > 10) is not covered -> must wait.
        let vv = VersionVector::from_entries(vec![Timestamp(10), Timestamp(50), Timestamp(20)]);
        let rdv = DependencyVector::from_entries(vec![Timestamp(15), Timestamp(99), Timestamp(20)]);
        assert!(!vv.covers_dependencies_except_local(&rdv, ReplicaId(1)));
        // Once the server receives the missing remote update, the condition passes.
        let vv2 = VersionVector::from_entries(vec![Timestamp(15), Timestamp(50), Timestamp(20)]);
        assert!(vv2.covers_dependencies_except_local(&rdv, ReplicaId(1)));
    }

    #[test]
    fn snapshot_vector_is_join_of_vv_and_rdv() {
        let vv = VersionVector::from_entries(vec![Timestamp(10), Timestamp(50), Timestamp(20)]);
        let rdv = DependencyVector::from_entries(vec![Timestamp(15), Timestamp(40), Timestamp(20)]);
        let tv = vv.snapshot_with(&rdv);
        assert_eq!(
            tv,
            DependencyVector::from_entries(vec![Timestamp(15), Timestamp(50), Timestamp(20)])
        );
    }

    #[test]
    fn visibility_under_snapshot() {
        let tv = DependencyVector::from_entries(vec![Timestamp(15), Timestamp(50), Timestamp(20)]);
        let dv_ok =
            DependencyVector::from_entries(vec![Timestamp(15), Timestamp(50), Timestamp(19)]);
        let dv_bad =
            DependencyVector::from_entries(vec![Timestamp(16), Timestamp(0), Timestamp(0)]);
        assert!(dv_ok.visible_under(&tv));
        assert!(!dv_bad.visible_under(&tv));
    }

    #[test]
    fn wire_size_is_linear_in_replicas() {
        assert_eq!(ClockVector::zero(3).wire_size(), 24);
        assert_eq!(DependencyVector::zero(5).wire_size(), 40);
    }

    #[test]
    fn spilled_vectors_behave_like_inline_ones() {
        // 12 entries > INLINE_CAPACITY: the spill path must be semantically identical.
        let n = ClockVector::INLINE_CAPACITY + 4;
        let a = ClockVector::from_entries((0..n as u64).map(Timestamp).collect());
        let b = ClockVector::from_slice(a.as_slice());
        assert_eq!(a, b);
        assert_eq!(a.len(), n);
        assert_eq!(a.get(ReplicaId(11)), Timestamp(11));
        assert_eq!(a.max_entry(), Timestamp(11));

        let mut j = ClockVector::zero(n);
        j.join(&a);
        assert_eq!(j, a);
        j.advance(ReplicaId(0), Timestamp(99));
        assert_eq!(j.get(ReplicaId(0)), Timestamp(99));
        assert!(j.dominates(&a));
    }

    #[test]
    fn from_slice_matches_from_entries() {
        for n in [0usize, 1, 3, 8, 9, 17] {
            let entries: Vec<Timestamp> = (0..n as u64).map(Timestamp).collect();
            let a = ClockVector::from_slice(&entries);
            let b = ClockVector::from_entries(entries);
            assert_eq!(a, b);
            assert_eq!(a.as_slice(), b.as_slice());
        }
    }

    #[test]
    fn try_from_fn_builds_and_short_circuits() {
        let v = ClockVector::try_from_fn::<()>(3, |i| Ok(Timestamp(i as u64 * 10))).unwrap();
        assert_eq!(v, cv(&[0, 10, 20]));

        let mut calls = 0;
        let err = ClockVector::try_from_fn(10, |i| {
            calls += 1;
            if i == 2 {
                Err("boom")
            } else {
                Ok(Timestamp::ZERO)
            }
        });
        assert_eq!(err.unwrap_err(), "boom");
        assert_eq!(calls, 3, "must stop at the first error");
    }

    #[test]
    fn equality_and_hash_see_only_logical_entries() {
        use std::collections::HashSet;
        let a = ClockVector::from_slice(&[Timestamp(1), Timestamp(2)]);
        let mut b = ClockVector::zero(2);
        b.set(ReplicaId(0), Timestamp(1));
        b.set(ReplicaId(1), Timestamp(2));
        assert_eq!(a, b);
        let mut set = HashSet::new();
        set.insert(a);
        assert!(set.contains(&b));
    }

    #[test]
    fn debug_format_lists_entries() {
        let v = cv(&[1, 2]);
        assert_eq!(format!("{v:?}"), "[1, 2]");
        let dv = DependencyVector::from_entries(vec![Timestamp(1)]);
        assert!(format!("{dv:?}").starts_with("DependencyVector"));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_vector(len: usize) -> impl Strategy<Value = ClockVector> {
        proptest::collection::vec(0u64..1_000_000, len)
            .prop_map(|v| ClockVector::from_entries(v.into_iter().map(Timestamp).collect()))
    }

    proptest! {
        #[test]
        fn prop_join_is_least_upper_bound(a in arb_vector(4), b in arb_vector(4)) {
            let j = a.joined(&b);
            prop_assert!(j.dominates(&a));
            prop_assert!(j.dominates(&b));
            // Least: any other upper bound dominates the join.
            let ub = a.joined(&b).joined(&a);
            prop_assert!(ub.dominates(&j));
        }

        #[test]
        fn prop_join_commutative_associative_idempotent(
            a in arb_vector(3), b in arb_vector(3), c in arb_vector(3)
        ) {
            prop_assert_eq!(a.joined(&b), b.joined(&a));
            prop_assert_eq!(a.joined(&b).joined(&c), a.joined(&b.joined(&c)));
            prop_assert_eq!(a.joined(&a), a.clone());
        }

        #[test]
        fn prop_meet_is_greatest_lower_bound(a in arb_vector(4), b in arb_vector(4)) {
            let m = a.met(&b);
            prop_assert!(a.dominates(&m));
            prop_assert!(b.dominates(&m));
        }

        #[test]
        fn prop_absorption_laws(a in arb_vector(3), b in arb_vector(3)) {
            prop_assert_eq!(a.joined(&a.met(&b)), a.clone());
            prop_assert_eq!(a.met(&a.joined(&b)), a.clone());
        }

        #[test]
        fn prop_partial_order_consistent_with_dominates(a in arb_vector(3), b in arb_vector(3)) {
            match a.partial_cmp_vector(&b) {
                VectorOrdering::Equal => {
                    prop_assert!(a.dominates(&b) && b.dominates(&a));
                }
                VectorOrdering::Less => {
                    prop_assert!(b.dominates(&a) && !a.dominates(&b));
                }
                VectorOrdering::Greater => {
                    prop_assert!(a.dominates(&b) && !b.dominates(&a));
                }
                VectorOrdering::Concurrent => {
                    prop_assert!(!a.dominates(&b) && !b.dominates(&a));
                }
            }
        }

        #[test]
        fn prop_dominates_except_weaker_than_dominates(
            a in arb_vector(3), b in arb_vector(3), skip in 0usize..3
        ) {
            if a.dominates(&b) {
                prop_assert!(a.dominates_except(&b, ReplicaId::from(skip)));
            }
        }
    }
}
