//! Model hyper-parameters.

use serde::{Deserialize, Serialize};

/// Configuration of an ALBERT-style model.
///
/// Three presets are provided:
///
/// * [`AlbertConfig::base`] — the paper's ALBERT-base shapes (E=128,
///   H=768, 12 heads, FFN 3072, seq 128). Used by the *hardware* model for
///   cycle/energy accounting; never trained in software here.
/// * [`AlbertConfig::small`] — a proportionally scaled model that is
///   actually trained on the synthetic tasks (12 shared layers, 12 heads).
/// * [`AlbertConfig::tiny`] — a minimal configuration for unit tests.
///
/// # Example
///
/// ```
/// use edgebert_model::AlbertConfig;
///
/// let cfg = AlbertConfig::base(30_000, 3);
/// assert_eq!(cfg.hidden_size, 768);
/// assert_eq!(cfg.num_layers, 12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AlbertConfig {
    /// Vocabulary size.
    pub vocab_size: usize,
    /// Factorized embedding width `E` (128 in ALBERT vs 768 in BERT).
    pub embedding_size: usize,
    /// Hidden width `H` of the encoder stream.
    pub hidden_size: usize,
    /// Number of logical encoder layers (parameters are shared).
    pub num_layers: usize,
    /// Number of attention heads.
    pub num_heads: usize,
    /// FFN intermediate width (4·H in ALBERT).
    pub intermediate_size: usize,
    /// Maximum (padded) sequence length.
    pub max_seq_len: usize,
    /// Number of output classes of the task head.
    pub num_classes: usize,
}

impl AlbertConfig {
    /// The paper's ALBERT-base shape.
    pub fn base(vocab_size: usize, num_classes: usize) -> Self {
        Self {
            vocab_size,
            embedding_size: 128,
            hidden_size: 768,
            num_layers: 12,
            num_heads: 12,
            intermediate_size: 3072,
            max_seq_len: 128,
            num_classes,
        }
    }

    /// A trainable scale model keeping the paper's *structure* (12 shared
    /// layers, 12 heads, E < H factorization), with a 2x FFN expansion
    /// (`intermediate_size` 96 over a hidden width of 48) where the
    /// paper's ALBERT-base uses 4x.
    pub fn small(vocab_size: usize, num_classes: usize) -> Self {
        Self {
            vocab_size,
            embedding_size: 24,
            hidden_size: 48,
            num_layers: 12,
            num_heads: 12,
            intermediate_size: 96,
            max_seq_len: 32,
            num_classes,
        }
    }

    /// Minimal configuration for unit tests.
    pub fn tiny(vocab_size: usize, num_classes: usize) -> Self {
        Self {
            vocab_size,
            embedding_size: 8,
            hidden_size: 16,
            num_layers: 4,
            num_heads: 4,
            intermediate_size: 32,
            max_seq_len: 16,
            num_classes,
        }
    }

    /// Head dimension `H / heads`.
    pub fn head_dim(&self) -> usize {
        self.hidden_size / self.num_heads
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if !self.hidden_size.is_multiple_of(self.num_heads) {
            return Err(format!(
                "hidden {} not divisible by heads {}",
                self.hidden_size, self.num_heads
            ));
        }
        if self.num_layers == 0 {
            return Err("at least one layer required".into());
        }
        if self.num_classes < 2 {
            return Err("at least two classes required".into());
        }
        if self.max_seq_len < 2 {
            return Err("sequence length too short".into());
        }
        if self.vocab_size == 0 {
            return Err("empty vocabulary".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate() {
        assert!(AlbertConfig::base(30_000, 3).validate().is_ok());
        assert!(AlbertConfig::small(1000, 2).validate().is_ok());
        assert!(AlbertConfig::tiny(100, 2).validate().is_ok());
    }

    #[test]
    fn validation_catches_errors() {
        let mut cfg = AlbertConfig::tiny(100, 2);
        cfg.num_heads = 3; // 16 % 3 != 0
        assert!(cfg.validate().is_err());
        let mut cfg = AlbertConfig::tiny(100, 2);
        cfg.num_classes = 1;
        assert!(cfg.validate().is_err());
        let mut cfg = AlbertConfig::tiny(100, 2);
        cfg.vocab_size = 0;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn head_dim() {
        assert_eq!(AlbertConfig::base(10, 2).head_dim(), 64);
        assert_eq!(AlbertConfig::tiny(10, 2).head_dim(), 4);
    }
}
