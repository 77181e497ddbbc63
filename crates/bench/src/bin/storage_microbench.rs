//! Allocation-aware micro-benchmarks of the hot paths: version-chain inserts, snapshot
//! reads, clock-vector lattice operations, version cloning (the replication fan-out
//! cost), wire-codec encode/decode and chain garbage collection, whole and in steps.
//!
//! ```text
//! storage_microbench [--json <path>]
//! ```
//!
//! Every benchmark is deterministic (fixed keys, fixed timestamps, no randomness), and a
//! counting `#[global_allocator]` hook reports *allocations per operation* and *bytes
//! allocated per operation* next to the wall-clock throughput. The allocation columns
//! are machine-independent — heap-allocation counts of a deterministic workload do not
//! depend on CPU speed or load — which is what lets CI gate on them with a tight ratio
//! (`compare_bench --microbench`) while the ns/op column stays informational.
//!
//! With `--json`, a small versioned report is written for the CI gate; the checked-in
//! baseline lives at `MICROBENCH_baseline.json` in the repository root.

use pocc_bench::json::Json;
use pocc_exec::GC_STEP;
use pocc_proto::{codec, ClientRequest};
use pocc_storage::ShardedStore;
use pocc_types::{
    DependencyVector, Key, PartitionId, ReplicaId, Timestamp, Value, Version, VersionVector,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use pocc_bench::json::MICROBENCH_SCHEMA_VERSION;

/// Number of data centers every vector in the workload carries (the paper's testbed
/// sizes are 2–8).
const REPLICAS: usize = 3;

// ---------------------------------------------------------------------------------------
// Counting allocator
// ---------------------------------------------------------------------------------------

/// A pass-through allocator that counts every allocation (and reallocation) and the
/// bytes requested. Deallocations are not counted: the benchmarks report *allocation
/// pressure*, not net heap growth.
struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static ALLOCATED_BYTES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        ALLOCATED_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        ALLOCATED_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn counters() -> (u64, u64) {
    (
        ALLOCATIONS.load(Ordering::Relaxed),
        ALLOCATED_BYTES.load(Ordering::Relaxed),
    )
}

// ---------------------------------------------------------------------------------------
// Harness
// ---------------------------------------------------------------------------------------

/// One benchmark's measured numbers.
struct BenchResult {
    name: &'static str,
    ops: u64,
    elapsed_ns: u64,
    allocs: u64,
    bytes: u64,
}

impl BenchResult {
    fn ns_per_op(&self) -> f64 {
        self.elapsed_ns as f64 / self.ops as f64
    }

    fn ops_per_sec(&self) -> f64 {
        if self.elapsed_ns == 0 {
            0.0
        } else {
            self.ops as f64 * 1e9 / self.elapsed_ns as f64
        }
    }

    fn allocs_per_op(&self) -> f64 {
        self.allocs as f64 / self.ops as f64
    }

    fn bytes_per_op(&self) -> f64 {
        self.bytes as f64 / self.ops as f64
    }
}

/// Runs `work` (which performs `ops` operations) with allocation counting around it.
/// Setup belongs *outside* this call so its allocations are not charged to the hot path.
fn measure(name: &'static str, ops: u64, work: impl FnOnce()) -> BenchResult {
    let (a0, b0) = counters();
    let start = Instant::now();
    work();
    let elapsed_ns = start.elapsed().as_nanos() as u64;
    let (a1, b1) = counters();
    BenchResult {
        name,
        ops,
        elapsed_ns,
        allocs: a1 - a0,
        bytes: b1 - b0,
    }
}

// ---------------------------------------------------------------------------------------
// Workload builders (deterministic)
// ---------------------------------------------------------------------------------------

const KEYS: u64 = 512;
const VERSIONS_PER_KEY: u64 = 32;
const INSERT_OPS: u64 = KEYS * VERSIONS_PER_KEY;
const READ_OPS: u64 = 50_000;
const VECTOR_OPS: u64 = 200_000;
const CODEC_OPS: u64 = 50_000;

fn dv(entries: [u64; REPLICAS]) -> DependencyVector {
    DependencyVector::from_entries(entries.iter().map(|&e| Timestamp(e)).collect())
}

/// A deterministic stream of versions: `KEYS` keys, `VERSIONS_PER_KEY` rounds, update
/// times increasing per round, source replicas rotating, small dependency vectors.
fn build_versions(base_ts: u64) -> Vec<Version> {
    let mut out = Vec::with_capacity(INSERT_OPS as usize);
    for round in 0..VERSIONS_PER_KEY {
        for key in 0..KEYS {
            let ts = base_ts + round * 1_000 + key;
            out.push(Version::new(
                Key(key),
                Value::from(ts),
                ReplicaId((key % REPLICAS as u64) as u16),
                Timestamp(ts),
                dv([ts.saturating_sub(500), ts.saturating_sub(700), 0]),
            ));
        }
    }
    out
}

fn fresh_store() -> ShardedStore {
    ShardedStore::with_shards(PartitionId(0), 1, 8)
}

// ---------------------------------------------------------------------------------------
// Benchmarks
// ---------------------------------------------------------------------------------------

/// Pure insert path into empty chains: the cost a server pays applying a local PUT or a
/// replicated update the first time the chains grow.
fn bench_insert_fresh() -> BenchResult {
    let store = fresh_store();
    let versions = build_versions(1);
    measure("insert_fresh", INSERT_OPS, || {
        for v in versions {
            store.insert(v).expect("key owned by partition 0");
        }
    })
}

/// Insert after a full GC pass: the steady-state insert path where storage previously
/// held (and released) versions. This is the path slab free-list reuse targets.
fn bench_insert_after_gc() -> BenchResult {
    let store = fresh_store();
    for v in build_versions(1) {
        store.insert(v).expect("key owned by partition 0");
    }
    // Collect everything collectible: each chain keeps only its newest covered version.
    store.collect_garbage(&dv([u64::MAX, u64::MAX, u64::MAX]));
    let versions = build_versions(10_000_000);
    measure("insert_after_gc", INSERT_OPS, || {
        for v in versions {
            store.insert(v).expect("key owned by partition 0");
        }
    })
}

/// Head reads (the POCC GET path: freshest version, stable or not).
fn bench_get_latest() -> BenchResult {
    let store = fresh_store();
    for v in build_versions(1) {
        store.insert(v).expect("key owned by partition 0");
    }
    measure("get_latest", READ_OPS, || {
        for i in 0..READ_OPS {
            let out = store.latest(Key(i % KEYS));
            assert!(out.is_some());
        }
    })
}

/// Snapshot reads (the RO-TX slice / Cure* stable-read path): walk the chain to the
/// freshest version visible under a mid-history snapshot.
fn bench_snapshot_read() -> BenchResult {
    let store = fresh_store();
    for v in build_versions(1) {
        store.insert(v).expect("key owned by partition 0");
    }
    // A snapshot in the middle of the written history: reads traverse ~half the chain.
    let tv = dv([16_000, 16_000, 16_000]);
    measure("snapshot_read", READ_OPS, || {
        for i in 0..READ_OPS {
            let out = store.latest_in_snapshot(Key(i % KEYS), &tv);
            assert!(out.version.is_some());
        }
    })
}

/// The GET-snapshot vector algebra of `EngineCore::serve_get_snapshot`:
/// `GSS ∨ RDV` then advance the local entry — one temporary vector per read.
fn bench_vector_join() -> BenchResult {
    let gss = dv([5_000, 6_000, 7_000]);
    let rdv = dv([5_500, 100, 6_900]);
    let vv =
        VersionVector::from_entries((0..REPLICAS as u64).map(|i| Timestamp(8_000 + i)).collect());
    let local = ReplicaId(0);
    measure("vector_join", VECTOR_OPS, || {
        let mut acc = Timestamp::ZERO;
        for _ in 0..VECTOR_OPS {
            let mut snapshot = gss.joined(&rdv);
            snapshot.advance(local, vv.get(local));
            acc = acc.max(snapshot.max_entry());
        }
        assert_eq!(acc, Timestamp(8_000));
    })
}

/// Version cloning: what the replication fan-out pays per sibling replica on every PUT.
fn bench_version_clone() -> BenchResult {
    let version = Version::new(
        Key(1),
        Value::from(42u64),
        ReplicaId(0),
        Timestamp(1_000),
        dv([900, 800, 0]),
    );
    measure("version_clone", VECTOR_OPS, || {
        let mut acc = 0u64;
        for _ in 0..VECTOR_OPS {
            let v = version.clone();
            acc = acc.wrapping_add(v.update_time.as_micros());
        }
        assert_eq!(acc, VECTOR_OPS.wrapping_mul(1_000));
    })
}

/// Wire-codec encode of a PUT request (the largest client-facing message).
fn bench_codec_encode() -> BenchResult {
    let put = ClientRequest::Put {
        key: Key(9),
        value: Value::from("sixteen bytes!!!"),
        dv: dv([4, 0, 6]),
    };
    measure("codec_encode", CODEC_OPS, || {
        let mut total = 0usize;
        for _ in 0..CODEC_OPS {
            let encoded = codec::encode_request(&put).expect("encodable message");
            total += encoded.len();
        }
        assert!(total > 0);
    })
}

/// Wire-codec encode of the same PUT into a reused scratch buffer — the steady-state
/// path a server loop takes once its per-connection buffer has warmed up.
fn bench_codec_encode_scratch() -> BenchResult {
    let put = ClientRequest::Put {
        key: Key(9),
        value: Value::from("sixteen bytes!!!"),
        dv: dv([4, 0, 6]),
    };
    let mut scratch = bytes::BytesMut::with_capacity(256);
    measure("codec_encode_scratch", CODEC_OPS, || {
        let mut total = 0usize;
        for _ in 0..CODEC_OPS {
            scratch.clear();
            codec::encode_request_into(&put, &mut scratch).expect("encodable message");
            total += scratch.len();
        }
        assert!(total > 0);
    })
}

/// Wire-codec decode of the same PUT request (zero-copy value path).
fn bench_codec_decode() -> BenchResult {
    let put = ClientRequest::Put {
        key: Key(9),
        value: Value::from("sixteen bytes!!!"),
        dv: dv([4, 0, 6]),
    };
    let encoded = codec::encode_request(&put).expect("encodable message");
    measure("codec_decode", CODEC_OPS, || {
        for _ in 0..CODEC_OPS {
            let decoded = codec::decode_request(encoded.clone()).expect("valid message");
            debug_assert!(matches!(decoded, ClientRequest::Put { .. }));
        }
    })
}

/// Chain garbage collection over the whole store (one full §IV-B pass).
fn bench_gc_collect() -> BenchResult {
    let store = fresh_store();
    for v in build_versions(1) {
        store.insert(v).expect("key owned by partition 0");
    }
    let gv = dv([u64::MAX, u64::MAX, u64::MAX]);
    measure("gc_collect", INSERT_OPS - KEYS, || {
        let removed = store.collect_garbage(&gv);
        assert_eq!(removed as u64, INSERT_OPS - KEYS);
    })
}

/// The `gc_collect` pass run as a threaded server runs it: `begin_gc`, then steps of
/// [`GC_STEP`] listed chains, the step a threaded server runs between two spine
/// acquisitions, until the pass reports done.
fn bench_gc_stepped() -> BenchResult {
    let store = fresh_store();
    for v in build_versions(1) {
        store.insert(v).expect("key owned by partition 0");
    }
    let gv = dv([u64::MAX, u64::MAX, u64::MAX]);
    measure("gc_stepped", INSERT_OPS - KEYS, || {
        store.begin_gc(&gv);
        let mut removed = 0;
        loop {
            let step = store.gc_step(GC_STEP);
            removed += step.removed;
            if step.done {
                break;
            }
        }
        assert_eq!(removed as u64, INSERT_OPS - KEYS);
    })
}

/// Single-version keys of the sparse GC store: the cold majority of a skewed key space.
const SPARSE_COLD_KEYS: u64 = 100_000;
/// Multi-version keys of the sparse GC store: the hot few that GC actually trims.
const SPARSE_HOT_KEYS: u64 = 64;
/// Versions per hot key before the pass.
const SPARSE_HOT_VERSIONS: u64 = 9;

/// One GC pass over a skewed store: many single-version keys, which cannot shrink, and a
/// few multi-version ones (the `chan_repl_lanes2` shape). Costs per version removed.
fn bench_gc_sparse() -> BenchResult {
    let store = fresh_store();
    let version = |key: u64, ts: u64| {
        Version::new(
            Key(key),
            Value::from(ts),
            ReplicaId(0),
            Timestamp(ts),
            dv([ts.saturating_sub(1), 0, 0]),
        )
    };
    for key in SPARSE_HOT_KEYS..SPARSE_HOT_KEYS + SPARSE_COLD_KEYS {
        store
            .insert(version(key, 1))
            .expect("key owned by partition 0");
    }
    for round in 1..=SPARSE_HOT_VERSIONS {
        for key in 0..SPARSE_HOT_KEYS {
            store
                .insert(version(key, round))
                .expect("key owned by partition 0");
        }
    }
    let removed = SPARSE_HOT_KEYS * (SPARSE_HOT_VERSIONS - 1);
    let gv = dv([u64::MAX, u64::MAX, u64::MAX]);
    measure("gc_sparse", removed, || {
        assert_eq!(store.collect_garbage(&gv) as u64, removed);
    })
}

// ---------------------------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------------------------

fn render_table(results: &[BenchResult]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<22} {:>12} {:>12} {:>12} {:>12} {:>14}\n",
        "benchmark", "ops", "ns/op", "ops/sec", "allocs/op", "bytes/op"
    ));
    for r in results {
        out.push_str(&format!(
            "{:<22} {:>12} {:>12.1} {:>12.0} {:>12.3} {:>14.1}\n",
            r.name,
            r.ops,
            r.ns_per_op(),
            r.ops_per_sec(),
            r.allocs_per_op(),
            r.bytes_per_op()
        ));
    }
    out
}

fn to_json(results: &[BenchResult]) -> Json {
    Json::Obj(vec![
        (
            "microbench_schema_version".into(),
            Json::u64(MICROBENCH_SCHEMA_VERSION),
        ),
        (
            "benches".into(),
            Json::Arr(
                results
                    .iter()
                    .map(|r| {
                        Json::Obj(vec![
                            ("name".into(), Json::str(r.name)),
                            ("ops".into(), Json::u64(r.ops)),
                            ("ns_per_op".into(), Json::num(r.ns_per_op())),
                            ("ops_per_sec".into(), Json::num(r.ops_per_sec())),
                            ("allocs_per_op".into(), Json::num(r.allocs_per_op())),
                            ("bytes_per_op".into(), Json::num(r.bytes_per_op())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

fn main() -> ExitCode {
    let mut json_path = None;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--json" => match it.next() {
                Some(path) => json_path = Some(path),
                None => {
                    eprintln!("error: --json needs a path");
                    return ExitCode::from(2);
                }
            },
            "-h" | "--help" => {
                println!("USAGE: storage_microbench [--json <path>]");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("error: unexpected argument {other:?}");
                return ExitCode::from(2);
            }
        }
    }

    let results = vec![
        bench_insert_fresh(),
        bench_insert_after_gc(),
        bench_get_latest(),
        bench_snapshot_read(),
        bench_vector_join(),
        bench_version_clone(),
        bench_codec_encode(),
        bench_codec_encode_scratch(),
        bench_codec_decode(),
        bench_gc_collect(),
        bench_gc_sparse(),
        bench_gc_stepped(),
    ];
    print!("{}", render_table(&results));

    if let Some(path) = json_path {
        let doc = to_json(&results);
        if let Err(e) = std::fs::write(&path, doc.to_pretty()) {
            eprintln!("error: cannot write {path}: {e}");
            return ExitCode::from(2);
        }
        println!("wrote {path}");
    }
    ExitCode::SUCCESS
}
