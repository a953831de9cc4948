//! Synthetic GLUE-analog task suite.
//!
//! The paper evaluates on the four largest-corpus GLUE tasks — MNLI, QQP,
//! SST-2, and QNLI — which we cannot redistribute. This crate provides a
//! calibrated synthetic substitute: for each task, a generator emits token
//! sequences whose *class signal strength varies per sentence*, so a real
//! model trained on them exhibits the paper's central phenomenon — easy
//! sentences become classifiable (low entropy) at shallow transformer
//! depth while hard sentences need the full stack.
//!
//! Per-task difficulty mixes are calibrated so the *ordering* of average
//! early-exit layers matches the paper's Table 3 (SST-2 and QQP exit
//! early, MNLI and QNLI late) and MNLI is 3-way while the rest are binary.
//!
//! The substitution is sound for this reproduction because everything
//! downstream of the model (entropy thresholds, the exit predictor, DVFS)
//! consumes only per-layer off-ramp entropies and exit layers, and the
//! hardware model prices ALBERT-base shapes whatever the corpus is.

pub mod dataset;
pub mod generator;
pub mod task;
pub mod vocab;

pub use dataset::{Dataset, Example};
pub use generator::{DifficultyProfile, TaskGenerator};
pub use task::Task;
pub use vocab::VocabLayout;
