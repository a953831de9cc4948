//! The repo benchmark: four workloads, an end-to-end + per-layer ledger,
//! and a traced layer ladder.
//!
//! Nothing here is part of the program: every layer is measured from
//! outside, through its `pub` items. `README.md` beside this package
//! defines the workloads and metrics and says how they interact;
//! `BENCHMARK.json` at the repo root is the contract the run is checked
//! against.
//!
//! Two binaries share this library. `bench` leaves the allocator alone
//! and measures the end-to-end metrics; `bench-trace` installs
//! [`alloc::CountingAlloc`], records spans, and measures the per-layer
//! metrics.

pub mod affinity;
pub mod alloc;
pub mod calib;
pub mod cli;
pub mod ladder;
pub mod load;
pub mod report;
pub mod rng;
pub mod run;
pub mod served;
pub mod stats;
pub mod trace;
pub mod workloads;
