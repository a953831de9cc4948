//! ALBERT-style transformer with highway off-ramps and the EdgeBERT
//! two-phase training procedure (paper Fig. 4).
//!
//! The model mirrors the paper's efficient baseline (§2.2):
//!
//! * **factorized embeddings** — a `vocab x E` token table (E ≪ H)
//!   projected up to the hidden width `H`;
//! * **cross-layer parameter sharing** — one [`edgebert_nn::EncoderLayer`]
//!   applied `num_layers` times (gradients accumulate across
//!   applications);
//! * **highway off-ramps** — one lightweight classifier per logical layer
//!   whose output entropy drives early exit (§3.1).
//!
//! Training follows Fig. 4: *phase 1* fine-tunes the backbone with
//! knowledge distillation from a dense teacher, movement/magnitude
//! pruning, and adaptive-span learning; *phase 2* freezes the backbone and
//! fine-tunes the off-ramps. At evaluation time weights and activations
//! are FP8-quantized and the embedding table can be swapped for a
//! fault-injected eNVM image.

pub mod albert;
pub mod config;
pub mod embedding;
pub mod offramp;
pub mod tokenizer;
pub mod trainer;

pub use albert::{AlbertModel, ForwardSession};
pub use config::AlbertConfig;
pub use embedding::FactorizedEmbedding;
pub use offramp::OffRamp;
pub use tokenizer::HashTokenizer;
pub use trainer::{TrainOptions, Trainer, TrainingSummary};
