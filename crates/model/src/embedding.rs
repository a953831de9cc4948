//! Factorized embedding layer (ALBERT-style) with a frozen, shareable
//! token table.
//!
//! The token table (`vocab x E`) and position table (`seq x E`) play the
//! role of ALBERT's word embeddings: they are *shared across tasks*,
//! frozen during fine-tuning, magnitude-pruned, FP8-quantized, and stored
//! in eNVM (paper §4). The `E -> H` projection is task-trainable like the
//! encoder.

use crate::config::AlbertConfig;
use edgebert_nn::{Linear, Parameter};
use edgebert_tasks::VocabLayout;
use edgebert_tensor::{Matrix, Rng};
use serde::{Deserialize, Serialize};

/// Factorized embedding: `hidden = proj(table[token] + pos[position])`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FactorizedEmbedding {
    /// Token embedding table, `vocab x E`. Frozen during fine-tuning.
    pub table: Parameter,
    /// Positional embedding table, `max_seq x E`. Frozen during
    /// fine-tuning.
    pub positions: Parameter,
    /// Trainable up-projection `E -> H`.
    pub projection: Linear,
}

impl FactorizedEmbedding {
    /// Random initialisation (no synthetic pre-training structure).
    pub fn new(cfg: &AlbertConfig, rng: &mut Rng) -> Self {
        let mut emb = Self {
            table: Parameter::new(rng.gaussian_matrix(cfg.vocab_size, cfg.embedding_size, 0.5)),
            positions: Parameter::new(rng.gaussian_matrix(
                cfg.max_seq_len,
                cfg.embedding_size,
                0.1,
            )),
            projection: Linear::new(cfg.embedding_size, cfg.hidden_size, rng),
        };
        emb.table.frozen = true;
        emb.positions.frozen = true;
        emb
    }

    /// Initialisation with synthetic "pre-trained" structure: every
    /// keyword token of a (task, class) pair shares a class-direction
    /// component, ambiguous tokens blend the directions of all classes of
    /// their task, and background tokens are isotropic noise.
    ///
    /// This stands in for the large-corpus pre-training we cannot run; it
    /// gives the embedding space the property fine-tuning relies on —
    /// class-relevant tokens are linearly separable in `E` dimensions.
    pub fn pretrained(cfg: &AlbertConfig, layout: &VocabLayout, rng: &mut Rng) -> Self {
        let mut emb = Self::new(cfg, rng);
        let e = cfg.embedding_size;
        // One unit direction per (task, class) pair.
        let mut directions: Vec<Vec<Matrix>> = Vec::new();
        for _task in 0..4u32 {
            let mut class_dirs = Vec::new();
            for _class in 0..3u32 {
                let mut d = rng.gaussian_matrix(1, e, 1.0);
                let norm = d.frobenius_norm().max(1e-6);
                d.scale_assign(1.0 / norm);
                class_dirs.push(d);
            }
            directions.push(class_dirs);
        }
        for task in 0..4u32 {
            for class in 0..3u32 {
                for k in 0..layout.keywords_per_class() {
                    let tok = layout.class_keyword(task, class, k) as usize;
                    if tok >= cfg.vocab_size {
                        continue;
                    }
                    let dir = &directions[task as usize][class as usize];
                    for c in 0..e {
                        let noise = rng.gaussian() * 0.25;
                        emb.table.value.set(tok, c, 1.6 * dir.get(0, c) + noise);
                    }
                }
            }
            // Ambiguous token 0 is the task's negator: it gets its own
            // salient direction, orthogonal-ish to the class directions,
            // so the encoder can learn to condition on its presence.
            // Remaining ambiguous tokens blend the class directions.
            let mut neg_dir = rng.gaussian_matrix(1, e, 1.0);
            let norm = neg_dir.frobenius_norm().max(1e-6);
            neg_dir.scale_assign(1.0 / norm);
            for k in 0..layout.keywords_per_class() {
                let tok = layout.ambiguous_token(task, k) as usize;
                if tok >= cfg.vocab_size {
                    continue;
                }
                for c in 0..e {
                    let noise = rng.gaussian() * 0.25;
                    let base = if k == 0 {
                        2.0 * neg_dir.get(0, c)
                    } else {
                        let blend: f32 = (0..3)
                            .map(|cl| directions[task as usize][cl].get(0, c))
                            .sum::<f32>()
                            / 3.0;
                        1.6 * blend
                    };
                    emb.table.value.set(tok, c, base + noise);
                }
            }
        }
        // PAD embeds to zero so padding carries no signal.
        for c in 0..e {
            emb.table
                .value
                .set(edgebert_tasks::vocab::PAD as usize, c, 0.0);
        }
        emb
    }

    /// Embeds a token sequence into a `seq_len x H` matrix.
    ///
    /// # Panics
    ///
    /// Panics if any token id is out of range or the sequence exceeds the
    /// position table.
    pub fn embed(&self, tokens: &[u32]) -> Matrix {
        self.embed_with_cache(tokens).0
    }

    /// Embeds and returns the low-dimensional sum too (needed by the
    /// projection's backward pass).
    ///
    /// # Panics
    ///
    /// Panics if any token id is out of range or the sequence exceeds the
    /// position table.
    pub fn embed_with_cache(&self, tokens: &[u32]) -> (Matrix, Matrix) {
        assert!(
            tokens.len() <= self.positions.value.rows(),
            "sequence longer than position table"
        );
        let e = self.table.value.cols();
        let mut low = Matrix::zeros(tokens.len(), e);
        for (i, &tok) in tokens.iter().enumerate() {
            let tok = tok as usize;
            assert!(
                tok < self.table.value.rows(),
                "token {tok} out of vocabulary"
            );
            let row = self.table.value.row(tok);
            let pos = self.positions.value.row(i);
            for c in 0..e {
                low.set(i, c, row[c] + pos[c]);
            }
        }
        (self.projection.infer(&low), low)
    }

    /// Backward through the projection only (the tables are frozen).
    /// `low` is the cached low-dimensional input from
    /// [`FactorizedEmbedding::embed_with_cache`].
    pub fn backward_projection(&mut self, low: &Matrix, grad_hidden: &Matrix) {
        // Manual linear backward with the cached input.
        let dw = low.matmul_tn(grad_hidden);
        self.projection.weight.accumulate_grad(&dw);
        let db = Matrix::from_vec(1, grad_hidden.cols(), grad_hidden.sum_rows());
        self.projection.bias.accumulate_grad(&db);
    }

    /// Replaces the token table (e.g. with an eNVM fault-injected image).
    ///
    /// # Panics
    ///
    /// Panics if the shape differs from the current table.
    pub fn set_table(&mut self, table: Matrix) {
        assert_eq!(
            table.shape(),
            self.table.value.shape(),
            "table shape mismatch"
        );
        self.table.value = table;
        self.table.frozen = true;
    }

    /// Current sparsity of the token table.
    pub fn table_sparsity(&self) -> f32 {
        self.table.value.sparsity()
    }

    /// Clears the projection gradient.
    pub fn zero_grad(&mut self) {
        self.projection.zero_grad();
    }

    /// Trainable parameters (the projection; tables are frozen).
    pub fn params_mut(&mut self) -> Vec<&mut Parameter> {
        self.projection.params_mut()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edgebert_tasks::vocab::{CLS, PAD};

    fn cfg() -> AlbertConfig {
        AlbertConfig::tiny(VocabLayout::standard().vocab_size(), 2)
    }

    #[test]
    fn embed_shape() {
        let mut rng = Rng::seed_from(0);
        let emb = FactorizedEmbedding::new(&cfg(), &mut rng);
        let out = emb.embed(&[CLS, 5, 9, PAD]);
        assert_eq!(out.shape(), (4, 16));
    }

    #[test]
    fn pretrained_keywords_cluster_by_class() {
        let mut rng = Rng::seed_from(1);
        let layout = VocabLayout::standard();
        let emb = FactorizedEmbedding::pretrained(&cfg(), &layout, &mut rng);
        let cos = |a: &[f32], b: &[f32]| {
            let dot: f32 = a.iter().zip(b).map(|(x, y)| x * y).sum();
            let na: f32 = a.iter().map(|x| x * x).sum::<f32>().sqrt();
            let nb: f32 = b.iter().map(|x| x * x).sum::<f32>().sqrt();
            dot / (na * nb).max(1e-9)
        };
        let t0c0a = layout.class_keyword(0, 0, 0) as usize;
        let t0c0b = layout.class_keyword(0, 0, 1) as usize;
        let t0c1 = layout.class_keyword(0, 1, 0) as usize;
        let same = cos(emb.table.value.row(t0c0a), emb.table.value.row(t0c0b));
        let diff = cos(emb.table.value.row(t0c0a), emb.table.value.row(t0c1));
        assert!(same > diff + 0.2, "same {same} diff {diff}");
    }

    #[test]
    fn pad_token_embeds_to_zero_vector() {
        let mut rng = Rng::seed_from(2);
        let layout = VocabLayout::standard();
        let emb = FactorizedEmbedding::pretrained(&cfg(), &layout, &mut rng);
        assert!(emb.table.value.row(PAD as usize).iter().all(|&v| v == 0.0));
    }

    #[test]
    fn tables_are_frozen_projection_is_not() {
        let mut rng = Rng::seed_from(3);
        let mut emb = FactorizedEmbedding::new(&cfg(), &mut rng);
        assert!(emb.table.frozen);
        assert!(emb.positions.frozen);
        assert!(emb.params_mut().iter().all(|p| !p.frozen));
    }

    #[test]
    fn projection_backward_accumulates() {
        let mut rng = Rng::seed_from(4);
        let mut emb = FactorizedEmbedding::new(&cfg(), &mut rng);
        let (hidden, low) = emb.embed_with_cache(&[CLS, 7, 8]);
        let g = Matrix::filled(hidden.rows(), hidden.cols(), 1.0);
        emb.backward_projection(&low, &g);
        assert!(emb.projection.weight.grad.frobenius_norm() > 0.0);
    }

    #[test]
    fn set_table_swaps_weights() {
        let mut rng = Rng::seed_from(5);
        let mut emb = FactorizedEmbedding::new(&cfg(), &mut rng);
        let zeros = Matrix::zeros(emb.table.value.rows(), emb.table.value.cols());
        emb.set_table(zeros.clone());
        assert_eq!(emb.table.value, zeros);
        assert_eq!(emb.table_sparsity(), 1.0);
    }

    #[test]
    #[should_panic(expected = "out of vocabulary")]
    fn out_of_vocab_token_panics() {
        let mut rng = Rng::seed_from(6);
        let emb = FactorizedEmbedding::new(&cfg(), &mut rng);
        let _ = emb.embed(&[u32::MAX]);
    }
}
