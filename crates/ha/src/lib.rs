//! HA-POCC — the highly available variant of POCC (§III-B and §IV-C of the paper).
//!
//! Plain POCC trades availability for data freshness: a request whose dependencies are
//! stuck behind a network partition blocks until the partition heals. The paper sketches a
//! recovery procedure (following Brewer's three-phase structure for breaching the CAP
//! boundaries) that the authors leave unevaluated; this crate implements it:
//!
//! 1. **Detect** — a server notices that requests have been blocked longer than the
//!    partition-detection timeout (plain POCC already aborts those sessions), or that a
//!    sibling replica has stopped sending replication traffic and heartbeats.
//! 2. **Degrade** — the server switches to *pessimistic mode*: reads return only versions
//!    covered by a Cure-style Globally Stable Snapshot (computed by a stabilization
//!    protocol that HA-POCC runs infrequently during normal operation precisely so that
//!    this fall-back is possible), writes no longer wait for their dependencies, and
//!    read-only transaction snapshots are bounded by the GSS instead of the version
//!    vector. No operation ever blocks on a remote data center in this mode, so
//!    availability is restored at the cost of staleness — exactly the trade-off a
//!    pessimistic protocol makes all the time.
//!
//!    The fall-back is a choice of engine paths, not a second server: its writes call
//!    `EngineCore::serve_put` directly, its RO-TXs go through `EngineCore::start_ro_tx`
//!    with Cure\*'s snapshot (`GSS ∨ RDV`, local entry from the version vector), and
//!    the infrequent round is `EngineCore::stabilization_round`. Only its GET is its
//!    own, so that a session still reads its own writes (see `HaPolicy`).
//! 3. **Recover** — when replication traffic from every data center resumes, the server
//!    promotes itself back to optimistic mode.
//!
//! The module also provides [`HaSession`], a client-side helper that re-initialises the
//! session after a `SessionAborted` reply, mirroring the client side of the recovery
//! procedure (the re-initialised session loses its dependency history, which is the
//! data-visibility cost the paper discusses).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod server;
mod session;

pub use server::{HaPoccServer, HaPolicy, Mode};
pub use session::HaSession;
