//! Scenario support for the EdgeBERT reproduction.
//!
//! [`load`] generates the mixed-deadline traffic the serving scenarios
//! under `examples/` and `tests/` replay (through the virtual-timeline
//! scheduler or the wall-clock server) and folds what comes back into
//! per-class tail reports; the [`repro`](../src/bin/repro.rs) binary
//! regenerates every table and figure of the paper's evaluation as
//! text.

pub mod load;
