//! Embedded non-volatile memory (eNVM) subsystem: ReRAM cell models,
//! Monte-Carlo fault injection, and storage cost models.
//!
//! EdgeBERT stores the task-shared word embeddings on chip in dense
//! multi-level-cell (MLC) ReRAM so they survive power-off between
//! inferences (paper §4). Density comes at a reliability cost, so the
//! paper runs 100 fault-injection trials per cell configuration (an
//! extension of the Ares framework) and finds:
//!
//! * SLC and MLC2 (2 bits/cell) never degrade task accuracy;
//! * MLC3 (3 bits/cell) degrades the mean and is catastrophic in the worst
//!   case for QNLI — so the accelerator uses **MLC2 for payload data and
//!   SLC for the pruning bitmask** (bitmask bits are known to be the
//!   vulnerable ones, Pentecost et al.).
//!
//! This crate reproduces that methodology over the *actual stored bit
//! image*: the FP8-quantized non-zero payloads and the bitmask produced by
//! [`edgebert_tensor::BitmaskMatrix`].
//!
//! Cell characteristics (area density, read latency) follow the paper's
//! Table 2; error rates are parametric with defaults chosen to land in the
//! qualitative regime of the two findings above.

pub mod cells;
pub mod cost;
pub mod inject;
pub mod storage;

pub use cells::CellTech;
pub use cost::ReramArray;
pub use inject::{CampaignResult, FaultInjector};
pub use storage::StoredEmbedding;
