//! A full transformer encoder layer (pre-norm; see [`EncoderLayer`] for why
//! not BERT/ALBERT's post-norm).

use crate::attention::{
    AttentionCache, AttentionGradScratch, AttentionScratch, MultiHeadAttention,
};
use crate::ffn::{FeedForward, FeedForwardCache};
use crate::linear::LinearGradScratch;
use crate::norm::{LayerNorm, LayerNormCache, NormGradScratch};
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
/// the hardware model charges — is identical between the two.
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

/// Saved activations for [`EncoderLayer::backward`]. A default value is
/// empty; [`EncoderLayer::forward_into`] reshapes and overwrites every
/// part, so a training loop that recomputes one layer application at a
/// time refills a single cache.
#[derive(Debug, Default)]
pub struct EncoderCache {
    attn: AttentionCache,
    n1: LayerNormCache,
    ffn: FeedForwardCache,
    n2: LayerNormCache,
    /// Forward working buffer: output of `norm1`, then of `norm2`.
    normed: Matrix,
    /// Forward working buffer: the attention branch, then the FFN branch.
    branch: Matrix,
}

/// Working buffers of the attention and FFN blocks' `backward_into`,
/// which take turns in the shared ones: like [`LayerScratch`], any value
/// works and a reused one makes the call allocation-free.
#[derive(Debug, Default)]
pub struct BlockGradScratch {
    /// The transposed input of the linear layer being differentiated.
    pub(crate) input_t: Matrix,
    pub(crate) linear: LinearGradScratch,
    pub(crate) attention: AttentionGradScratch,
    /// Gradient of the FFN activation's output, then of its input.
    pub(crate) d_mid: Matrix,
}

/// Working buffers of [`EncoderLayer::backward_in_place`].
#[derive(Debug, Default)]
pub struct LayerGradScratch {
    blocks: BlockGradScratch,
    norm: NormGradScratch,
    /// Gradient at the output of `norm2`, then of `norm1`.
    d_normed: Matrix,
    /// Gradient through the FFN branch, then the attention branch.
    d_branch: Matrix,
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
        let (mut y, mut cache) = (Matrix::default(), EncoderCache::default());
        self.forward_into(x, &mut y, &mut cache);
        (y, cache)
    }

    /// [`EncoderLayer::forward`] written into `y` and `cache`, both
    /// reshaped and overwritten.
    pub fn forward_into(&self, x: &Matrix, y: &mut Matrix, cache: &mut EncoderCache) {
        self.norm1.forward_into(x, &mut cache.normed, &mut cache.n1);
        self.attention
            .forward_into(&cache.normed, &mut cache.branch, &mut cache.attn);
        y.copy_from(x);
        y.add_assign(&cache.branch);
        self.norm2.forward_into(y, &mut cache.normed, &mut cache.n2);
        self.ffn
            .forward_into(&cache.normed, &mut cache.branch, &mut cache.ffn);
        y.add_assign(&cache.branch);
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
        let mut g = grad_out.clone();
        self.backward_in_place(cache, &mut g, &mut LayerGradScratch::default());
        g
    }

    /// [`EncoderLayer::backward`] overwriting `g`, the gradient at the
    /// layer's output, with the gradient at its input, through the
    /// buffers of `s`.
    // analyzer: hot-path
    pub fn backward_in_place(
        &mut self,
        cache: &EncoderCache,
        g: &mut Matrix,
        s: &mut LayerGradScratch,
    ) {
        // y = a + ffn(norm2(a)): gradient reaches `a` directly and
        // through the FFN branch.
        self.ffn
            .backward_into(&cache.ffn, g, &mut s.d_normed, &mut s.blocks);
        self.norm2
            .backward_into(&cache.n2, &s.d_normed, &mut s.d_branch, &mut s.norm);
        g.add_assign(&s.d_branch);
        // a = x + attn(norm1(x)).
        self.attention
            .backward_into(&cache.attn, g, &mut s.d_normed, &mut s.blocks);
        self.norm1
            .backward_into(&cache.n1, &s.d_normed, &mut s.d_branch, &mut s.norm);
        g.add_assign(&s.d_branch);
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
