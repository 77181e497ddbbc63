//! The repository benchmark: four closed-loop cluster workloads measured end to end, and
//! an outside-in budget of what each layer costs. See `README.md` in this directory.
//!
//! Nothing outside `benchmark/` is instrumented. Every number is taken from outside the
//! program: by timing calls into its public functions, by reading what the kernel
//! accounts to its named threads, and by differencing `Cluster::probe_all()` counters.

pub mod checker;
pub mod driver;
pub mod json;
pub mod layers;
pub mod metrics;
pub mod procfs;
pub mod report;
pub mod stats;
pub mod trace;
pub mod workload;
