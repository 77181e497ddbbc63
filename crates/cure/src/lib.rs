//! Cure\* — the pessimistic baseline the paper compares POCC against.
//!
//! Cure ([Akkoorath et al., ICDCS 2016]) achieves causal consistency with physical vector
//! clocks and a periodic intra-DC **stabilization protocol**: the partitions of a data
//! center exchange their version vectors and compute the entry-wise minimum, the
//! *Globally Stable Snapshot* (GSS). A remote version is made visible to clients only when
//! it is covered by the GSS — i.e. only when every partition of the local data center is
//! known to have received all of its potential dependencies. Locally originated versions
//! are visible immediately, because their dependencies were stable when they were created.
//!
//! The paper evaluates against *Cure\**: a re-implementation of Cure extended with plain
//! GET/PUT operations so that it can run the same workloads as POCC, exchanging exactly the
//! same client metadata. This crate is that baseline: [`CurePolicy`], run by the same
//! protocol engine as POCC ([`CureServer<C>`](CureServer) is an alias of
//! `pocc_engine::ProtocolEngine<C, CurePolicy>`). The differences from
//! [`pocc_protocol::PoccServer`] are precisely the ones the paper names (§V):
//!
//! * a GET never blocks, but returns the freshest *stable* version — it may have to walk
//!   the version chain past fresher-but-unstable versions (paying CPU for it) and is prone
//!   to returning stale data;
//! * a periodic stabilization protocol runs every few milliseconds, costing messages and
//!   vector merges;
//! * read-only transaction snapshots are bounded by the GSS instead of by the
//!   coordinator's version vector.
//!
//! [Akkoorath et al., ICDCS 2016]: https://doi.org/10.1109/ICDCS.2016.98

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod server;

pub use server::{CurePolicy, CureServer};

/// Cure\* reuses the POCC client unchanged: both systems exchange the same client-side
/// dependency metadata, which is what makes the comparison fair (§V).
pub use pocc_protocol::Client;
