//! Multi-head self-attention with adaptive span masking.
//!
//! Mirrors the paper's Fig. 3/Fig. 5 datapath: per-head Q/K/V projections,
//! scaled dot-product scores, stable softmax, **post-softmax element-wise
//! multiplication with the learned span mask** (Algorithm 3), context
//! matmul, concat, and output projection. Heads whose span mask is
//! identically zero produce a zero context vector — exactly the case the
//! accelerator's SFU controller detects to skip the whole head.

use crate::encoder::BlockGradScratch;
use crate::linear::Linear;
use crate::param::Parameter;
use crate::span::AdaptiveSpan;
use edgebert_tensor::kernels::softmax_rows;
use edgebert_tensor::{Matrix, Rng};
use serde::{Deserialize, Serialize};

/// Multi-head self-attention block.
///
/// # Example
///
/// ```
/// use edgebert_nn::MultiHeadAttention;
/// use edgebert_tensor::{Matrix, Rng};
///
/// let mut rng = Rng::seed_from(0);
/// let mha = MultiHeadAttention::new(32, 4, 16, &mut rng);
/// let x = Matrix::zeros(8, 32);
/// let (y, _) = mha.forward(&x);
/// assert_eq!(y.shape(), (8, 32));
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MultiHeadAttention {
    /// Query projection (hidden → hidden).
    pub wq: Linear,
    /// Key projection.
    pub wk: Linear,
    /// Value projection.
    pub wv: Linear,
    /// Output projection after head concat.
    pub wo: Linear,
    /// One learnable span per head.
    pub spans: Vec<AdaptiveSpan>,
    num_heads: usize,
    head_dim: usize,
}

/// Cached activations for [`MultiHeadAttention::backward`]. A default
/// value is empty; [`MultiHeadAttention::forward_into`] reshapes and
/// overwrites every part, so one cache can be refilled application after
/// application without touching the allocator.
#[derive(Debug, Default)]
pub struct AttentionCache {
    /// The input, read by all three of the q/k/v projections' backwards.
    x: Matrix,
    /// The forward's own buffers: `q`, `k`, `v` and the heads'
    /// concatenated context (input of the output projection).
    forward: AttentionScratch,
    /// Per-head post-softmax probabilities (before the span mask);
    /// empty for a head that was off. The masks themselves are not kept:
    /// `backward` rebuilds them from `spans`.
    probs: Vec<Matrix>,
}

/// Working buffers of [`MultiHeadAttention::infer_into`]. Every buffer
/// is reshaped and overwritten by the call that uses it, so a default
/// (empty) value and one left over from another sentence both work; one
/// that has seen the same sequence length before makes the call
/// allocation-free.
#[derive(Debug, Default)]
pub struct AttentionScratch {
    q: Matrix,
    k: Matrix,
    v: Matrix,
    /// `k` transposed (`hidden x seq`): a head's keys as `head_dim`
    /// contiguous rows, one per feature, each running over positions.
    k_t: Matrix,
    /// One head's `seq x seq` scores, then probabilities.
    scores: Matrix,
    /// One head's span mask over token distances `0..seq`.
    profile: Vec<f32>,
    concat: Matrix,
}

/// The attention block's own working buffers inside a
/// [`BlockGradScratch`]; each is reshaped and overwritten by the call
/// that uses it.
#[derive(Debug, Default)]
pub struct AttentionGradScratch {
    /// A `seq x hidden` gradient in row-major form: of the concatenated
    /// context while the heads run, then of `q`, `k` and `v` in turn.
    d_rows: Matrix,
    /// `v` transposed (`hidden x seq`), as `k_t` is in the forward.
    v_t: Matrix,
    /// The gradients of `q`, `k` and `v`, transposed (`hidden x seq`): a
    /// head accumulates into `head_dim` contiguous rows of each, a whole
    /// row of positions at a time.
    dq_t: Matrix,
    dk_t: Matrix,
    dv_t: Matrix,
    /// One head's `seq x seq` gradient of the masked probabilities, then
    /// of the probabilities, then the transposed gradient of the scores.
    d_masked: Matrix,
    /// One head's gradient of the span mask, then of the scores.
    d_scores: Matrix,
    /// One head's span mask over token distances `0..seq`.
    profile: Vec<f32>,
    /// The same mask over signed distances `-(seq - 1)..seq`, so that the
    /// mask of query row `i` is the slice `band[seq - 1 - i..][..seq]`.
    band: Vec<f32>,
    /// One row of masked probabilities.
    masked: Vec<f32>,
    /// `dx` through the key, then the value projection.
    dx_part: Matrix,
}

/// `out += a * x`, element by element.
#[inline(always)]
fn axpy(out: &mut [f32], a: f32, x: &[f32]) {
    for (o, &b) in out.iter_mut().zip(x) {
        *o += a * b;
    }
}

impl MultiHeadAttention {
    /// Creates an attention block with `num_heads` heads over a `hidden`
    /// wide stream. Spans are initialised to `max_span` (fully open) so
    /// fine-tuning starts from the dense model.
    ///
    /// # Panics
    ///
    /// Panics if `hidden` is not divisible by `num_heads`.
    pub fn new(hidden: usize, num_heads: usize, max_span: usize, rng: &mut Rng) -> Self {
        assert_eq!(
            hidden % num_heads,
            0,
            "hidden must divide evenly into heads"
        );
        let ramp = (max_span as f32 / 4.0).max(1.0);
        Self {
            wq: Linear::new(hidden, hidden, rng),
            wk: Linear::new(hidden, hidden, rng),
            wv: Linear::new(hidden, hidden, rng),
            wo: Linear::new(hidden, hidden, rng),
            spans: (0..num_heads)
                .map(|_| AdaptiveSpan::new(max_span as f32, ramp, max_span))
                .collect(),
            num_heads,
            head_dim: hidden / num_heads,
        }
    }

    /// Number of attention heads.
    pub fn num_heads(&self) -> usize {
        self.num_heads
    }

    /// Per-head feature width.
    pub fn head_dim(&self) -> usize {
        self.head_dim
    }

    /// Hidden width (`num_heads * head_dim`).
    pub fn hidden(&self) -> usize {
        self.num_heads * self.head_dim
    }

    /// Number of heads whose span mask is identically zero (skippable).
    pub fn heads_off(&self) -> usize {
        self.spans.iter().filter(|s| s.is_off()).count()
    }

    /// Effective span per head, as reported in the paper's Table 1.
    pub fn head_spans(&self) -> Vec<f32> {
        self.spans.iter().map(|s| s.effective_span()).collect()
    }

    /// Forward pass over a `seq_len x hidden` input.
    pub fn forward(&self, x: &Matrix) -> (Matrix, AttentionCache) {
        let (mut out, mut cache) = (Matrix::default(), AttentionCache::default());
        self.forward_into(x, &mut out, &mut cache);
        (out, cache)
    }

    /// [`MultiHeadAttention::forward`] written into `out` and `cache`,
    /// both reshaped and overwritten. Runs the per-head kernel of
    /// [`MultiHeadAttention::infer_into`] and keeps its probabilities.
    pub fn forward_into(&self, x: &Matrix, out: &mut Matrix, cache: &mut AttentionCache) {
        cache.x.copy_from(x);
        self.project_into(x, &mut cache.forward);
        cache.probs.resize_with(self.num_heads, Matrix::default);
        for (h, probs) in cache.probs.iter_mut().enumerate() {
            if self.head_into(h, &mut cache.forward) {
                probs.copy_from(&cache.forward.scores);
            } else {
                // Whole head skipped: zero context, nothing to keep.
                probs.resize_to(0, 0);
            }
        }
        self.wo.infer_into(&cache.forward.concat, out);
    }

    /// Inference-only forward (drops the cache).
    pub fn infer(&self, x: &Matrix) -> Matrix {
        let mut out = Matrix::default();
        self.infer_into(x, &mut out, &mut AttentionScratch::default());
        out
    }

    /// [`MultiHeadAttention::infer`] written into `out` (reshaped and
    /// overwritten) through the buffers of `scratch`.
    // analyzer: hot-path
    pub fn infer_into(&self, x: &Matrix, out: &mut Matrix, scratch: &mut AttentionScratch) {
        self.project_into(x, scratch);
        for h in 0..self.num_heads {
            self.head_into(h, scratch);
        }
        self.wo.infer_into(&scratch.concat, out);
    }

    /// Fills `q`, `k` (and its transpose), `v` from `x` and clears
    /// `concat` for the heads to accumulate into.
    // analyzer: hot-path
    fn project_into(&self, x: &Matrix, s: &mut AttentionScratch) {
        self.wq.infer_into(x, &mut s.q);
        self.wk.infer_into(x, &mut s.k);
        self.wv.infer_into(x, &mut s.v);
        s.k.transpose_into(&mut s.k_t);
        s.concat.resize_to(x.rows(), self.hidden());
        s.concat.as_mut_slice().fill(0.0);
    }

    /// One head: leaves its post-softmax probabilities in `s.scores` and
    /// adds `(probs ⊙ mask) · V_h` into its columns of `s.concat`, reading
    /// the head's q/v columns in place (`r * hidden + off + c`) and its
    /// keys from the matching rows of `k_t`. Returns `false`, having done
    /// nothing, for a head whose span is off.
    ///
    /// Every sum is the one `matmul_nt` / `hadamard` / `matmul` form on
    /// sliced-out copies of the head: a score accumulates from zero over
    /// the head's features in ascending order (here a whole row of scores
    /// at a time, one feature after the other), and context accumulates
    /// over key positions in ascending order, skipping exactly the masked
    /// probabilities that equal zero.
    // analyzer: hot-path
    fn head_into(&self, h: usize, s: &mut AttentionScratch) -> bool {
        let span = &self.spans[h];
        if span.is_off() {
            return false;
        }
        let (seq_len, hidden, dim) = (s.q.rows(), self.hidden(), self.head_dim);
        let off = h * dim;
        let scale = 1.0 / (dim as f32).sqrt();
        let (q, v) = (s.q.as_slice(), s.v.as_slice());

        s.scores.resize_to(seq_len, seq_len);
        for i in 0..seq_len {
            let scores = s.scores.row_mut(i);
            scores.fill(0.0);
            for (c, &a) in q[i * hidden + off..i * hidden + off + dim]
                .iter()
                .enumerate()
            {
                for (score, &b) in scores.iter_mut().zip(s.k_t.row(off + c)) {
                    *score += a * b;
                }
            }
            for score in scores.iter_mut() {
                *score *= scale;
            }
        }
        softmax_rows(&mut s.scores);

        s.profile.resize(seq_len, 0.0);
        span.mask_vector_into(&mut s.profile);
        let concat = s.concat.as_mut_slice();
        for i in 0..seq_len {
            let ctx = &mut concat[i * hidden + off..i * hidden + off + dim];
            for (j, &p) in s.scores.row(i).iter().enumerate() {
                let a = p * s.profile[i.abs_diff(j)];
                if a == 0.0 {
                    continue;
                }
                let v_row = &v[j * hidden + off..j * hidden + off + dim];
                for (o, &b) in ctx.iter_mut().zip(v_row) {
                    *o += a * b;
                }
            }
        }
        true
    }

    /// Backward pass; accumulates all parameter gradients (including the
    /// per-head span parameters) and returns `dL/dx`.
    pub fn backward(&mut self, cache: &AttentionCache, grad_out: &Matrix) -> Matrix {
        let mut dx = Matrix::default();
        self.backward_into(cache, grad_out, &mut dx, &mut BlockGradScratch::default());
        dx
    }

    /// [`MultiHeadAttention::backward`] with `dL/dx` written into `dx`
    /// (reshaped and overwritten) through the buffers of `s`.
    // analyzer: hot-path
    pub fn backward_into(
        &mut self,
        cache: &AttentionCache,
        grad_out: &Matrix,
        dx: &mut Matrix,
        s: &mut BlockGradScratch,
    ) {
        let (seq_len, hidden) = (cache.x.rows(), self.hidden());
        let a = &mut s.attention;
        // Through the output projection.
        cache.forward.concat.transpose_into(&mut s.input_t);
        self.wo
            .backward_input_into(&s.input_t, grad_out, &mut a.d_rows, &mut s.linear);

        // No gradient flows through a fully-off head (mask = 0 and
        // dm/dz = 0 on the flat region): its rows stay zero.
        for d in [&mut a.dq_t, &mut a.dk_t, &mut a.dv_t] {
            d.resize_to(hidden, seq_len);
            d.as_mut_slice().fill(0.0);
        }
        cache.forward.v.transpose_into(&mut a.v_t);
        for h in 0..self.num_heads {
            self.head_backward(h, cache, a);
        }

        cache.x.transpose_into(&mut s.input_t);
        a.dq_t.transpose_into(&mut a.d_rows);
        self.wq
            .backward_input_into(&s.input_t, &a.d_rows, dx, &mut s.linear);
        a.dk_t.transpose_into(&mut a.d_rows);
        self.wk
            .backward_input_into(&s.input_t, &a.d_rows, &mut a.dx_part, &mut s.linear);
        dx.add_assign(&a.dx_part);
        a.dv_t.transpose_into(&mut a.d_rows);
        self.wv
            .backward_input_into(&s.input_t, &a.d_rows, &mut a.dx_part, &mut s.linear);
        dx.add_assign(&a.dx_part);
    }

    /// One head of the backward: reads the head's columns of the context
    /// gradient and of the cached `q`/`k` in place (`r * hidden + off + c`,
    /// as [`MultiHeadAttention::head_into`] does) and its values from the
    /// matching rows of `v_t`, accumulates the span gradient, and adds
    /// into the head's rows of `dq_t`/`dk_t`/`dv_t`. Does nothing for a
    /// head whose span is off.
    ///
    /// Every element is the sum the `matmul_nt` / `matmul_tn` / `matmul`
    /// form on copies of the head takes: it accumulates from zero over
    /// the contracted index in ascending order. Those forms skip the
    /// terms whose left-hand entry is zero; the four products here add
    /// them, which on finite operands is the same bits (see
    /// [`Matrix::matmul_nt_into`]), so that each step is one scalar
    /// against a whole row of positions.
    // analyzer: hot-path
    fn head_backward(&mut self, h: usize, cache: &AttentionCache, s: &mut AttentionGradScratch) {
        if self.spans[h].is_off() {
            return;
        }
        let (seq_len, hidden, dim) = (cache.x.rows(), self.hidden(), self.head_dim);
        let off = h * dim;
        let scale = 1.0 / (dim as f32).sqrt();
        let probs = &cache.probs[h];
        let (q, k) = (cache.forward.q.as_slice(), cache.forward.k.as_slice());
        let d_concat = s.d_rows.as_slice();
        let head = |r: usize| r * hidden + off..r * hidden + off + dim;

        s.profile.resize(seq_len, 0.0);
        self.spans[h].mask_vector_into(&mut s.profile);
        s.band.resize((2 * seq_len).saturating_sub(1), 0.0);
        for (d, &m) in s.profile.iter().enumerate() {
            s.band[seq_len - 1 - d] = m;
            s.band[seq_len - 1 + d] = m;
        }

        // ctx = masked * V with masked = probs ⊙ mask, so
        // d_masked = d_ctx * V^T, dV = masked^T * d_ctx and
        // d_mask = d_masked ⊙ probs.
        s.d_masked.resize_to(seq_len, seq_len);
        s.d_scores.resize_to(seq_len, seq_len);
        s.masked.resize(seq_len, 0.0);
        for i in 0..seq_len {
            let (p, mask) = (probs.row(i), &s.band[seq_len - 1 - i..][..seq_len]);
            let d_ctx = &d_concat[head(i)];
            let d_masked = s.d_masked.row_mut(i);
            d_masked.fill(0.0);
            for (c, &a) in d_ctx.iter().enumerate() {
                axpy(d_masked, a, s.v_t.row(off + c));
            }
            for ((m, &p), &w) in s.masked.iter_mut().zip(p).zip(mask) {
                *m = p * w;
            }
            for (c, &b) in d_ctx.iter().enumerate() {
                axpy(s.dv_t.row_mut(off + c), b, &s.masked);
            }
            for ((o, &g), &p) in s.d_scores.row_mut(i).iter_mut().zip(&*d_masked).zip(p) {
                *o = g * p;
            }
        }
        self.spans[h].backward_mask(&s.d_scores, &s.profile);

        // d_probs = d_masked ⊙ mask, then the softmax backward per row,
        // ds = p ⊙ (g - (g·p)), and the score scale. scores = Q_h * K_h^T,
        // so dK_h = d_scores^T * Q_h and dQ_h = d_scores * K_h.
        for r in 0..seq_len {
            let (p, mask) = (probs.row(r), &s.band[seq_len - 1 - r..][..seq_len]);
            let g = s.d_masked.row_mut(r);
            for (g, &w) in g.iter_mut().zip(mask) {
                *g *= w;
            }
            let dot: f32 = p.iter().zip(g.iter()).map(|(&a, &b)| a * b).sum();
            let ds = s.d_scores.row_mut(r);
            for ((ds, &p), &g) in ds.iter_mut().zip(p).zip(&*g) {
                *ds = p * (g - dot) * scale;
            }
            for (c, &b) in q[head(r)].iter().enumerate() {
                axpy(s.dk_t.row_mut(off + c), b, ds);
            }
        }
        s.d_scores.transpose_into(&mut s.d_masked);
        for j in 0..seq_len {
            for (c, &b) in k[head(j)].iter().enumerate() {
                axpy(s.dq_t.row_mut(off + c), b, s.d_masked.row(j));
            }
        }
    }

    /// Adds the span penalty to all heads; returns the total penalty value.
    pub fn apply_span_penalty(&mut self, lambda: f32) -> f32 {
        self.spans
            .iter_mut()
            .map(|s| s.apply_span_penalty(lambda))
            .sum()
    }

    /// Clears gradients on all parameters.
    pub fn zero_grad(&mut self) {
        self.wq.zero_grad();
        self.wk.zero_grad();
        self.wv.zero_grad();
        self.wo.zero_grad();
        for s in &mut self.spans {
            s.z.zero_grad();
        }
    }

    /// Mutable references to all parameters (projections + spans).
    pub fn params_mut(&mut self) -> Vec<&mut Parameter> {
        let mut ps = Vec::new();
        ps.extend(self.wq.params_mut());
        ps.extend(self.wk.params_mut());
        ps.extend(self.wv.params_mut());
        ps.extend(self.wo.params_mut());
        for s in &mut self.spans {
            ps.push(&mut s.z);
        }
        ps
    }

    /// Re-clamps all span parameters; call after each optimizer step.
    pub fn clamp_spans(&mut self) {
        for s in &mut self.spans {
            s.clamp();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_attention(seed: u64) -> (MultiHeadAttention, Matrix) {
        let mut rng = Rng::seed_from(seed);
        let mut mha = MultiHeadAttention::new(8, 2, 16, &mut rng);
        // Give the two heads partial spans so mask gradients are active.
        mha.spans[0].set_z(2.0);
        mha.spans[1].set_z(1.0);
        let x = rng.gaussian_matrix(5, 8, 1.0);
        (mha, x)
    }

    #[test]
    fn forward_shapes_and_off_head_zeroing() {
        let mut rng = Rng::seed_from(1);
        let mut mha = MultiHeadAttention::new(12, 3, 16, &mut rng);
        mha.spans[1].set_z(-1000.0); // head 1 off
        let x = rng.gaussian_matrix(6, 12, 1.0);
        let (y, cache) = mha.forward(&x);
        assert_eq!(y.shape(), (6, 12));
        assert_eq!(mha.heads_off(), 1);
        assert_eq!(cache.probs[1].nnz(), 0);
    }

    #[test]
    fn all_heads_off_gives_bias_only_output() {
        let mut rng = Rng::seed_from(2);
        let mut mha = MultiHeadAttention::new(8, 2, 16, &mut rng);
        for s in &mut mha.spans {
            s.set_z(-1000.0);
        }
        let x = rng.gaussian_matrix(4, 8, 1.0);
        let y = mha.infer(&x);
        // Output = wo(0) = bias broadcast; every row identical.
        for r in 1..4 {
            assert_eq!(y.row(r), y.row(0));
        }
    }

    #[test]
    fn backward_matches_finite_difference_on_weights() {
        let (mut mha, x) = tiny_attention(3);
        let mut rng = Rng::seed_from(99);
        let coeff = rng.gaussian_matrix(5, 8, 1.0);
        let loss = |m: &MultiHeadAttention, x: &Matrix| -> f32 {
            m.infer(x).hadamard(&coeff).as_slice().iter().sum()
        };
        let (_, cache) = mha.forward(&x);
        let dx = mha.backward(&cache, &coeff);

        let eps = 1e-2f32;
        // wq weight gradient.
        let orig = mha.wq.weight.value.get(1, 2);
        mha.wq.weight.value.set(1, 2, orig + eps);
        let lp = loss(&mha, &x);
        mha.wq.weight.value.set(1, 2, orig - eps);
        let lm = loss(&mha, &x);
        mha.wq.weight.value.set(1, 2, orig);
        let fd = (lp - lm) / (2.0 * eps);
        let an = mha.wq.weight.grad.get(1, 2);
        assert!(
            (fd - an).abs() < 5e-2 * (1.0 + fd.abs()),
            "wq fd={fd} an={an}"
        );

        // wv weight gradient.
        let orig = mha.wv.weight.value.get(0, 5);
        mha.wv.weight.value.set(0, 5, orig + eps);
        let lp = loss(&mha, &x);
        mha.wv.weight.value.set(0, 5, orig - eps);
        let lm = loss(&mha, &x);
        mha.wv.weight.value.set(0, 5, orig);
        let fd = (lp - lm) / (2.0 * eps);
        let an = mha.wv.weight.grad.get(0, 5);
        assert!(
            (fd - an).abs() < 5e-2 * (1.0 + fd.abs()),
            "wv fd={fd} an={an}"
        );

        // Input gradient.
        let mut x2 = x.clone();
        let orig = x2.get(2, 3);
        x2.set(2, 3, orig + eps);
        let lp = loss(&mha, &x2);
        x2.set(2, 3, orig - eps);
        let lm = loss(&mha, &x2);
        let fd = (lp - lm) / (2.0 * eps);
        let an = dx.get(2, 3);
        assert!(
            (fd - an).abs() < 5e-2 * (1.0 + fd.abs()),
            "dx fd={fd} an={an}"
        );
    }

    #[test]
    fn span_gradient_matches_finite_difference() {
        let (mut mha, x) = tiny_attention(5);
        let mut rng = Rng::seed_from(123);
        let coeff = rng.gaussian_matrix(5, 8, 1.0);
        let (_, cache) = mha.forward(&x);
        mha.backward(&cache, &coeff);
        let analytic = mha.spans[0].z.grad.get(0, 0);

        let eps = 5e-2f32;
        let z0 = mha.spans[0].z_value();
        mha.spans[0].set_z(z0 + eps);
        let lp: f32 = mha.infer(&x).hadamard(&coeff).as_slice().iter().sum();
        mha.spans[0].set_z(z0 - eps);
        let lm: f32 = mha.infer(&x).hadamard(&coeff).as_slice().iter().sum();
        mha.spans[0].set_z(z0);
        let fd = (lp - lm) / (2.0 * eps);
        assert!(
            (fd - analytic).abs() < 0.1 * (1.0 + fd.abs()),
            "span fd={fd} an={analytic}"
        );
    }

    #[test]
    fn params_mut_exposes_projections_and_spans() {
        let (mut mha, _) = tiny_attention(6);
        // 4 linears x 2 params + 2 spans
        assert_eq!(mha.params_mut().len(), 10);
    }
}
