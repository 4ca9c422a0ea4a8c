//! The anonet benchmark: "derandomize one graph", end to end and layer by
//! layer, on three workloads.
//!
//! * `large-prime` — a few single large networks through `run_pipeline`
//!   on the calling thread: prime quotients, so the canonical encoding and
//!   the seeded search dominate; cache and scheduler are bypassed.
//! * `lift-family` — pre-colored lifts of a few small bases through
//!   `derandomize_batch` on two workers with one shared `DerandCache`:
//!   nearly every lookup hits, so the views layer dominates.
//! * `distinct-store` — distinct small networks through `pipeline_batch`
//!   on two workers with a fresh `PersistentDerandCache`, then a flush:
//!   every job misses, searches, inserts and appends to disk.
//!
//! A run times one workload with tracing off (end-to-end metrics), or adds
//! a traced pass, a one-thread pass and layer probes (per-layer metrics).
//! Every pass checks every job's output and the outputs digest.

pub mod inputs;
pub mod probes;
pub mod report;
pub mod stats;
pub mod trace;
pub mod workloads;

/// The benchmark's error type.
pub type Error = Box<dyn std::error::Error + Send + Sync>;
