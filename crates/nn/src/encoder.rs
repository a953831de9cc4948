//! A full transformer encoder layer (post-norm, as in BERT/ALBERT).

use crate::attention::{AttentionCache, AttentionScratch, MultiHeadAttention};
use crate::ffn::{FeedForward, FeedForwardCache};
use crate::norm::{LayerNorm, LayerNormCache};
use crate::param::Parameter;
use edgebert_tensor::{Matrix, Rng};
use serde::{Deserialize, Serialize};

/// One transformer encoder layer, in the *pre-norm* arrangement:
///
/// ```text
/// a = x + MHA(LayerNorm(x))
/// y = a + FFN(LayerNorm(a))
/// ```
///
/// ALBERT shares one such layer's parameters across all twelve logical
/// layers; the model crate simply applies the same [`EncoderLayer`] twelve
/// times and accumulates gradients across applications.
///
/// The original ALBERT uses post-norm; this reproduction uses pre-norm
/// because a twelve-deep *shared* stack trained from scratch on small
/// synthetic corpora is numerically unstable in post-norm form (the
/// well-known warmup sensitivity), while every EdgeBERT mechanism —
/// early exit, spans, pruning, quantization, and the per-layer op counts
/// the hardware model charges — is identical between the two. See
/// `DESIGN.md` §1.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EncoderLayer {
    /// Multi-head self-attention with adaptive spans.
    pub attention: MultiHeadAttention,
    /// Pre-attention layer norm.
    pub norm1: LayerNorm,
    /// Position-wise feed-forward network.
    pub ffn: FeedForward,
    /// Pre-FFN layer norm.
    pub norm2: LayerNorm,
}

/// Saved activations for [`EncoderLayer::backward`].
#[derive(Debug, Clone)]
pub struct EncoderCache {
    attn: AttentionCache,
    n1: LayerNormCache,
    ffn: FeedForwardCache,
    n2: LayerNormCache,
}

/// Working buffers of [`EncoderLayer::infer_in_place`]: like
/// [`AttentionScratch`], any value works and a reused one makes the call
/// allocation-free.
#[derive(Debug, Default)]
pub struct LayerScratch {
    /// Output of `norm1`, then of `norm2`.
    normed: Matrix,
    /// Output of the attention branch, then of the FFN branch.
    branch: Matrix,
    attention: AttentionScratch,
    ffn_mid: Matrix,
}

impl EncoderLayer {
    /// Creates an encoder layer.
    pub fn new(
        hidden: usize,
        num_heads: usize,
        intermediate: usize,
        max_span: usize,
        rng: &mut Rng,
    ) -> Self {
        Self {
            attention: MultiHeadAttention::new(hidden, num_heads, max_span, rng),
            norm1: LayerNorm::new(hidden),
            ffn: FeedForward::new(hidden, intermediate, rng),
            norm2: LayerNorm::new(hidden),
        }
    }

    /// Hidden width of the layer.
    pub fn hidden(&self) -> usize {
        self.attention.hidden()
    }

    /// Forward pass over a `seq_len x hidden` input.
    pub fn forward(&self, x: &Matrix) -> (Matrix, EncoderCache) {
        let (nx, n1) = self.norm1.forward(x);
        let (attn_out, attn) = self.attention.forward(&nx);
        let a = x.add(&attn_out);
        let (na, n2) = self.norm2.forward(&a);
        let (ffn_out, ffn) = self.ffn.forward(&na);
        let y = a.add(&ffn_out);
        (y, EncoderCache { attn, n1, ffn, n2 })
    }

    /// Working buffers already at the shapes a `seq_len`-row input needs.
    pub fn scratch(&self, seq_len: usize) -> LayerScratch {
        LayerScratch {
            normed: Matrix::zeros(seq_len, self.hidden()),
            branch: Matrix::zeros(seq_len, self.hidden()),
            attention: self.attention.scratch(seq_len),
            ffn_mid: Matrix::zeros(seq_len, self.ffn.fc1.out_features()),
        }
    }

    /// Inference-only forward.
    pub fn infer(&self, x: &Matrix) -> Matrix {
        let mut y = x.clone();
        self.infer_in_place(&mut y, &mut LayerScratch::default());
        y
    }

    /// [`EncoderLayer::infer`] overwriting `x` with the layer's output,
    /// through the buffers of `s`.
    // analyzer: hot-path
    pub fn infer_in_place(&self, x: &mut Matrix, s: &mut LayerScratch) {
        self.norm1.infer_into(x, &mut s.normed);
        self.attention
            .infer_into(&s.normed, &mut s.branch, &mut s.attention);
        x.add_assign(&s.branch);
        self.norm2.infer_into(x, &mut s.normed);
        self.ffn
            .infer_into(&s.normed, &mut s.branch, &mut s.ffn_mid);
        x.add_assign(&s.branch);
    }

    /// Backward pass; accumulates parameter grads and returns `dx`.
    pub fn backward(&mut self, cache: &EncoderCache, grad_out: &Matrix) -> Matrix {
        // y = a + ffn(norm2(a)): gradient reaches `a` directly and
        // through the FFN branch.
        let d_na = self.ffn.backward(&cache.ffn, grad_out);
        let d_a_ffn_path = self.norm2.backward(&cache.n2, &d_na);
        let mut da = grad_out.clone();
        da.add_assign(&d_a_ffn_path);
        // a = x + attn(norm1(x)).
        let d_nx = self.attention.backward(&cache.attn, &da);
        let d_x_attn_path = self.norm1.backward(&cache.n1, &d_nx);
        let mut dx = da;
        dx.add_assign(&d_x_attn_path);
        dx
    }

    /// Clears all gradients.
    pub fn zero_grad(&mut self) {
        self.attention.zero_grad();
        self.norm1.zero_grad();
        self.ffn.zero_grad();
        self.norm2.zero_grad();
    }

    /// Mutable references to every parameter in the layer.
    pub fn params_mut(&mut self) -> Vec<&mut Parameter> {
        let mut ps = self.attention.params_mut();
        ps.extend(self.norm1.params_mut());
        ps.extend(self.ffn.params_mut());
        ps.extend(self.norm2.params_mut());
        ps
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_preserves_shape() {
        let mut rng = Rng::seed_from(0);
        let layer = EncoderLayer::new(16, 4, 32, 8, &mut rng);
        let x = rng.gaussian_matrix(6, 16, 1.0);
        let (y, _) = layer.forward(&x);
        assert_eq!(y.shape(), (6, 16));
        assert_eq!(layer.infer(&x), y);
    }

    #[test]
    fn backward_matches_finite_difference_on_input() {
        let mut rng = Rng::seed_from(31);
        let mut layer = EncoderLayer::new(8, 2, 16, 8, &mut rng);
        layer.attention.spans[0].set_z(3.0);
        let x = rng.gaussian_matrix(4, 8, 1.0);
        let coeff = rng.gaussian_matrix(4, 8, 1.0);
        let loss = |l: &EncoderLayer, x: &Matrix| -> f32 {
            l.infer(x).hadamard(&coeff).as_slice().iter().sum()
        };
        let (_, cache) = layer.forward(&x);
        let dx = layer.backward(&cache, &coeff);
        let eps = 1e-2f32;
        for &(r, c) in &[(0usize, 0usize), (2, 5), (3, 7)] {
            let mut xp = x.clone();
            xp.set(r, c, x.get(r, c) + eps);
            let mut xm = x.clone();
            xm.set(r, c, x.get(r, c) - eps);
            let fd = (loss(&layer, &xp) - loss(&layer, &xm)) / (2.0 * eps);
            let an = dx.get(r, c);
            assert!(
                (fd - an).abs() < 0.1 * (1.0 + fd.abs()),
                "dx[{r},{c}] fd={fd} an={an}"
            );
        }
    }

    #[test]
    fn shared_layer_gradient_accumulates_across_applications() {
        // ALBERT applies the same layer repeatedly; two applications must
        // accumulate two gradient contributions.
        let mut rng = Rng::seed_from(7);
        let mut layer = EncoderLayer::new(8, 2, 16, 8, &mut rng);
        let x = rng.gaussian_matrix(3, 8, 1.0);
        let g = rng.gaussian_matrix(3, 8, 1.0);
        let (y1, c1) = layer.forward(&x);
        let (_, c2) = layer.forward(&y1);
        let d1 = layer.backward(&c2, &g);
        layer.backward(&c1, &d1);
        // Gradient must be non-zero on attention and ffn weights.
        assert!(layer.attention.wq.weight.grad.frobenius_norm() > 0.0);
        assert!(layer.ffn.fc1.weight.grad.frobenius_norm() > 0.0);
    }
}
