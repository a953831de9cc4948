//! Property-based tests for the training substrate.

use edgebert_nn::attention::{AttentionCache, AttentionScratch};
use edgebert_nn::encoder::{BlockGradScratch, EncoderCache, LayerGradScratch, LayerScratch};
use edgebert_nn::ffn::FeedForwardCache;
use edgebert_nn::losses::{accuracy, cross_entropy, distillation};
use edgebert_nn::prune::{magnitude_mask, sparsity_schedule, topk_mask};
use edgebert_nn::{AdaptiveSpan, EncoderLayer, FeedForward, LayerNorm, Linear, MultiHeadAttention};
use edgebert_tensor::kernels::{gelu, gelu_grad, softmax_rows};
use edgebert_tensor::{Matrix, Rng};
use proptest::prelude::*;

/// Attention as it was written before the strided kernel: every head's
/// q/k/v sliced out into copies, a full `seq x seq` mask matrix, and the
/// context written back with `set_cols`. Kept here as the oracle that is
/// not the kernel itself.
fn sliced_attention(mha: &MultiHeadAttention, x: &Matrix) -> Matrix {
    let (q, k, v) = (mha.wq.infer(x), mha.wk.infer(x), mha.wv.infer(x));
    let dim = mha.head_dim();
    let mut concat = Matrix::zeros(x.rows(), mha.hidden());
    for (h, span) in mha.spans.iter().enumerate() {
        if span.is_off() {
            continue;
        }
        let mut scores = q
            .slice_cols(h * dim, dim)
            .matmul_nt(&k.slice_cols(h * dim, dim));
        scores.scale_assign(1.0 / (dim as f32).sqrt());
        edgebert_tensor::kernels::softmax_rows(&mut scores);
        let masked = scores.hadamard(&span.mask_matrix(x.rows()));
        concat.set_cols(h * dim, &masked.matmul(&v.slice_cols(h * dim, dim)));
    }
    mha.wo.infer(&concat)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn cross_entropy_nonnegative_and_bounded_below_by_confidence(
        logits in prop::collection::vec(-20.0f32..20.0, 2..6),
        target_seed in 0usize..100,
    ) {
        let k = logits.len();
        let target = target_seed % k;
        let m = Matrix::from_vec(1, k, logits.clone());
        let (loss, grad) = cross_entropy(&m, &[target]);
        prop_assert!(loss >= -1e-5);
        // Gradient rows sum to ~0 (softmax minus one-hot).
        let s: f32 = grad.as_slice().iter().sum();
        prop_assert!(s.abs() < 1e-4);
    }

    #[test]
    fn distillation_nonnegative_zero_iff_equal(
        a in prop::collection::vec(-5.0f32..5.0, 3),
        b in prop::collection::vec(-5.0f32..5.0, 3),
        temp in 0.5f32..4.0,
    ) {
        let s = Matrix::from_vec(1, 3, a.clone());
        let t = Matrix::from_vec(1, 3, b.clone());
        let (loss, _) = distillation(&s, &t, temp);
        prop_assert!(loss >= -1e-4);
        let (self_loss, _) = distillation(&s, &s, temp);
        prop_assert!(self_loss.abs() < 1e-5);
    }

    #[test]
    fn sparsity_schedule_monotone_bounded(total in 1usize..1000, target in 0.0f32..0.95) {
        let mut last = -1.0f32;
        for step in (0..=total).step_by((total / 17).max(1)) {
            let s = sparsity_schedule(step, total, target);
            prop_assert!(s >= last - 1e-6);
            prop_assert!((0.0..=target + 1e-6).contains(&s));
            last = s;
        }
    }

    #[test]
    fn topk_mask_hits_requested_sparsity(seed in 0u64..500, sparsity in 0.0f32..1.0) {
        let mut rng = Rng::seed_from(seed);
        let scores = rng.gaussian_matrix(16, 16, 1.0);
        let mask = topk_mask(&scores, sparsity);
        let achieved = mask.sparsity();
        prop_assert!((achieved - sparsity).abs() <= 1.0 / 256.0 + 1e-6);
    }

    #[test]
    fn magnitude_mask_keeps_the_largest(seed in 0u64..500) {
        let mut rng = Rng::seed_from(seed);
        let w = rng.gaussian_matrix(8, 8, 1.0);
        let mask = magnitude_mask(&w, 0.5);
        // Every kept weight is at least as large as every pruned weight.
        let mut kept_min = f32::INFINITY;
        let mut pruned_max: f32 = 0.0;
        for (v, m) in w.as_slice().iter().zip(mask.as_slice()) {
            if *m == 1.0 {
                kept_min = kept_min.min(v.abs());
            } else {
                pruned_max = pruned_max.max(v.abs());
            }
        }
        prop_assert!(kept_min + 1e-6 >= pruned_max);
    }

    #[test]
    fn span_mask_monotone_in_distance_and_z(z in -4.0f32..32.0, d1 in 0usize..64, d2 in 0usize..64) {
        let mut span = AdaptiveSpan::new(0.0, 8.0, 64);
        span.set_z(z);
        let (lo, hi) = if d1 <= d2 { (d1, d2) } else { (d2, d1) };
        prop_assert!(span.mask_at(lo) + 1e-6 >= span.mask_at(hi));
        prop_assert!((0.0..=1.0).contains(&span.mask_at(d1)));
    }

    #[test]
    fn inference_kernels_match_training_forward_bitwise(seed in 0u64..500, rows in 1usize..12) {
        // The caching `forward` is the oracle an allocation-free or
        // re-laid-out `infer` must keep matching bit for bit.
        let mut rng = Rng::seed_from(seed);
        let x = rng.gaussian_matrix(rows, 16, 1.0);
        let linear = Linear::new(16, 24, &mut rng);
        prop_assert_eq!(linear.infer(&x), linear.forward(&x).0);
        let mut norm = LayerNorm::new(16);
        norm.gamma.value = rng.gaussian_matrix(1, 16, 1.0);
        norm.beta.value = rng.gaussian_matrix(1, 16, 1.0);
        prop_assert_eq!(norm.infer(&x), norm.forward(&x).0);
        let attention = MultiHeadAttention::new(16, 4, 12, &mut rng);
        prop_assert_eq!(attention.infer(&x), attention.forward(&x).0);
    }

    #[test]
    fn strided_kernels_match_training_forward_bitwise_for_any_spans(
        seed in 0u64..500,
        rows in 1usize..=12,
        other_rows in 1usize..=12,
        // Per head: 0 fully open, 1 a partial ramp, 2 exactly off.
        head_kinds in prop::collection::vec(0u8..3, 4),
        all_off in 0u8..4,
    ) {
        const MAX_SPAN: usize = 12;
        let mut rng = Rng::seed_from(seed);
        let mut layer = EncoderLayer::new(16, 4, 24, MAX_SPAN, &mut rng);
        let ramp = layer.attention.spans[0].ramp();
        for (span, &kind) in layer.attention.spans.iter_mut().zip(&head_kinds) {
            match if all_off == 0 { 2 } else { kind } {
                0 => span.set_z(MAX_SPAN as f32),
                // Off the integer grid, so the ramp crosses real distances.
                1 => span.set_z(rng.uniform() * (MAX_SPAN as f32 - 1.0) - ramp + 0.37),
                _ => span.set_z(-ramp),
            }
        }
        let x = rng.gaussian_matrix(rows, 16, 1.0);
        let other = rng.gaussian_matrix(other_rows, 16, 1.0);

        // Wrappers against the caching forwards and the sliced reference.
        prop_assert_eq!(layer.infer(&x), layer.forward(&x).0);
        prop_assert_eq!(layer.attention.infer(&x), layer.attention.forward(&x).0);
        let reference = sliced_attention(&layer.attention, &x);
        let strided = layer.attention.infer(&x);
        let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(&strided), bits(&reference));
        let ffn = FeedForward::new(16, 24, &mut rng);
        prop_assert_eq!(ffn.infer(&x), ffn.forward(&x).0);

        // `_into` kernels against the wrappers, on buffers another input
        // of another length has just dirtied and on NaN-filled ones.
        let dirty = || Matrix::filled(other_rows + 1, 7, f32::NAN);
        let linear = Linear::new(16, 24, &mut rng);
        let mut out = dirty();
        linear.infer_into(&x, &mut out);
        prop_assert_eq!(&out, &linear.infer(&x));
        let mut out = dirty();
        layer.norm1.infer_into(&x, &mut out);
        prop_assert_eq!(&out, &layer.norm1.infer(&x));
        let (mut out, mut mid) = (dirty(), dirty());
        ffn.infer_into(&other, &mut out, &mut mid);
        ffn.infer_into(&x, &mut out, &mut mid);
        prop_assert_eq!(&out, &ffn.infer(&x));
        let (mut out, mut scratch) = (dirty(), AttentionScratch::default());
        layer.attention.infer_into(&other, &mut out, &mut scratch);
        layer.attention.infer_into(&x, &mut out, &mut scratch);
        prop_assert_eq!(&out, &layer.attention.infer(&x));
        let mut scratch = LayerScratch::default();
        let mut state = other.clone();
        layer.infer_in_place(&mut state, &mut scratch);
        let mut state = x.clone();
        layer.infer_in_place(&mut state, &mut scratch);
        prop_assert_eq!(&state, &layer.infer(&x));
    }

    #[test]
    fn accuracy_bounded(seed in 0u64..500, n in 1usize..32) {
        let mut rng = Rng::seed_from(seed);
        let logits = rng.gaussian_matrix(n, 3, 1.0);
        let targets: Vec<usize> = (0..n).map(|i| i % 3).collect();
        let acc = accuracy(&logits, &targets);
        prop_assert!((0.0..=1.0).contains(&acc));
    }
}

// The backward pass as it was written before the buffer forms: every
// head's operands sliced out into copies, a full `seq x seq` mask matrix,
// a fresh matrix for every intermediate. Kept here, on the public API
// alone, as the oracle that is not the kernels themselves; each function
// recomputes the forward activations it needs from the layer's input.

fn reference_linear_backward(l: &mut Linear, input: &Matrix, grad_out: &Matrix) -> Matrix {
    let dw = input.matmul_tn(grad_out);
    l.weight.accumulate_grad(&dw);
    let db = Matrix::from_vec(1, grad_out.cols(), grad_out.sum_rows());
    l.bias.accumulate_grad(&db);
    grad_out.matmul_nt(&l.weight.value)
}

fn reference_mask_backward(span: &mut AdaptiveSpan, grad_mask: &Matrix, seq_len: usize) {
    let mut gz = 0.0f32;
    for i in 0..seq_len {
        for j in 0..seq_len {
            let m = span.mask_at(i.abs_diff(j));
            if m > 0.0 && m < 1.0 {
                gz += grad_mask.get(i, j) / span.ramp();
            }
        }
    }
    let cur = span.z.grad.get(0, 0);
    span.z.grad.set(0, 0, cur + gz);
}

fn reference_attention_backward(
    mha: &mut MultiHeadAttention,
    x: &Matrix,
    grad_out: &Matrix,
) -> Matrix {
    let (seq_len, dim) = (x.rows(), mha.head_dim());
    let scale = 1.0 / (dim as f32).sqrt();
    let (q, k, v) = (mha.wq.infer(x), mha.wk.infer(x), mha.wv.infer(x));
    let mut concat = Matrix::zeros(seq_len, mha.hidden());
    let mut all_probs = Vec::new();
    for (h, span) in mha.spans.iter().enumerate() {
        let mut probs = q
            .slice_cols(h * dim, dim)
            .matmul_nt(&k.slice_cols(h * dim, dim));
        probs.scale_assign(scale);
        softmax_rows(&mut probs);
        if !span.is_off() {
            let masked = probs.hadamard(&span.mask_matrix(seq_len));
            concat.set_cols(h * dim, &masked.matmul(&v.slice_cols(h * dim, dim)));
        }
        all_probs.push(probs);
    }

    let d_concat = reference_linear_backward(&mut mha.wo, &concat, grad_out);
    let mut dq = Matrix::zeros(seq_len, mha.hidden());
    let mut dk = Matrix::zeros(seq_len, mha.hidden());
    let mut dv = Matrix::zeros(seq_len, mha.hidden());
    for (h, probs) in all_probs.iter().enumerate() {
        let off = h * dim;
        if mha.spans[h].is_off() {
            continue;
        }
        let d_ctx = d_concat.slice_cols(off, dim);
        let kh = k.slice_cols(off, dim);
        let qh = q.slice_cols(off, dim);
        let vh = v.slice_cols(off, dim);
        let mask = &mha.spans[h].mask_matrix(seq_len);

        let masked = probs.hadamard(mask);
        let d_masked = d_ctx.matmul_nt(&vh);
        let dvh = masked.matmul_tn(&d_ctx);
        dv.set_cols(off, &dvh);

        let d_probs = d_masked.hadamard(mask);
        let d_mask = d_masked.hadamard(probs);
        reference_mask_backward(&mut mha.spans[h], &d_mask, seq_len);

        let mut d_scores = Matrix::zeros(seq_len, seq_len);
        for r in 0..seq_len {
            let p = probs.row(r);
            let g = d_probs.row(r);
            let dot: f32 = p.iter().zip(g.iter()).map(|(&a, &b)| a * b).sum();
            for c in 0..seq_len {
                d_scores.set(r, c, p[c] * (g[c] - dot));
            }
        }
        d_scores.scale_assign(scale);

        let dqh = d_scores.matmul(&kh);
        let dkh = d_scores.matmul_tn(&qh);
        dq.set_cols(off, &dqh);
        dk.set_cols(off, &dkh);
    }

    let dxq = reference_linear_backward(&mut mha.wq, x, &dq);
    let dxk = reference_linear_backward(&mut mha.wk, x, &dk);
    let dxv = reference_linear_backward(&mut mha.wv, x, &dv);
    let mut dx = dxq;
    dx.add_assign(&dxk);
    dx.add_assign(&dxv);
    dx
}

fn reference_ffn_backward(ffn: &mut FeedForward, x: &Matrix, grad_out: &Matrix) -> Matrix {
    let gelu_in = ffn.fc1.infer(x);
    let gelu_out = gelu_in.map(gelu);
    let da = reference_linear_backward(&mut ffn.fc2, &gelu_out, grad_out);
    let dh = da.hadamard(&gelu_in.map(gelu_grad));
    reference_linear_backward(&mut ffn.fc1, x, &dh)
}

fn reference_norm_backward(ln: &mut LayerNorm, x: &Matrix, grad_out: &Matrix) -> Matrix {
    let (rows, cols) = grad_out.shape();
    let n = cols as f32;
    let gamma = ln.gamma.value.row(0).to_vec();
    let mut dgamma = vec![0.0f32; cols];
    let mut dbeta = vec![0.0f32; cols];
    let mut dx = Matrix::zeros(rows, cols);
    for r in 0..rows {
        let row = x.row(r);
        let mu: f32 = row.iter().sum::<f32>() / n;
        let var: f32 = row.iter().map(|&v| (v - mu) * (v - mu)).sum::<f32>() / n;
        let is = 1.0 / (var + ln.eps).sqrt();
        let xh: Vec<f32> = row.iter().map(|&v| (v - mu) * is).collect();
        let go = grad_out.row(r);
        for c in 0..cols {
            dgamma[c] += go[c] * xh[c];
            dbeta[c] += go[c];
        }
        let dxhat: Vec<f32> = (0..cols).map(|c| go[c] * gamma[c]).collect();
        let mean_dxhat: f32 = dxhat.iter().sum::<f32>() / n;
        let mean_dxhat_xhat: f32 = dxhat
            .iter()
            .zip(xh.iter())
            .map(|(&d, &x)| d * x)
            .sum::<f32>()
            / n;
        for c in 0..cols {
            dx.set(r, c, is * (dxhat[c] - mean_dxhat - xh[c] * mean_dxhat_xhat));
        }
    }
    ln.gamma.accumulate_grad(&Matrix::from_vec(1, cols, dgamma));
    ln.beta.accumulate_grad(&Matrix::from_vec(1, cols, dbeta));
    dx
}

fn reference_encoder_backward(layer: &mut EncoderLayer, x: &Matrix, grad_out: &Matrix) -> Matrix {
    let nx = layer.norm1.infer(x);
    let a = x.add(&layer.attention.infer(&nx));
    let na = layer.norm2.infer(&a);
    let d_na = reference_ffn_backward(&mut layer.ffn, &na, grad_out);
    let d_a_ffn_path = reference_norm_backward(&mut layer.norm2, &a, &d_na);
    let mut da = grad_out.clone();
    da.add_assign(&d_a_ffn_path);
    let d_nx = reference_attention_backward(&mut layer.attention, &nx, &da);
    let d_x_attn_path = reference_norm_backward(&mut layer.norm1, x, &d_nx);
    let mut dx = da;
    dx.add_assign(&d_x_attn_path);
    dx
}

fn bits(m: &Matrix) -> Vec<u32> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

fn grad_bits(layer: &mut EncoderLayer) -> Vec<Vec<u32>> {
    layer.params_mut().iter().map(|p| bits(&p.grad)).collect()
}

#[test]
fn buffer_backwards_keep_the_copy_based_backwards_bits() {
    for heads in [2usize, 12] {
        let (hidden, intermediate) = (4 * heads, 8 * heads);
        let mut rng = Rng::seed_from(19 + heads as u64);
        let mut layer = EncoderLayer::new(hidden, heads, intermediate, 32, &mut rng);
        // Pruned weights; a partial ramp, an off head, and the rest open.
        for p in layer.params_mut() {
            for w in p.value.as_mut_slice().iter_mut().step_by(3) {
                *w = 0.0;
            }
        }
        layer.attention.spans[0].set_z(2.5);
        layer.attention.spans[1].set_z(-1000.0);
        for span in &mut layer.attention.spans[2..] {
            span.set_z(32.0);
        }
        // Gradients exist from the first `zero_grad`, as in training.
        layer.zero_grad();
        let mut reference = layer.clone();
        let mut blocks = layer.clone();
        let mut blocks_reference = layer.clone();

        // One cache and one scratch across every length, longer and
        // shorter than the one before; gradients accumulate throughout.
        let (mut y, mut cache) = (Matrix::default(), EncoderCache::default());
        let mut scratch = LayerGradScratch::default();
        let (mut attn_cache, mut ffn_cache) =
            (AttentionCache::default(), FeedForwardCache::default());
        let (mut out, mut dx_block) = (Matrix::default(), Matrix::default());
        let mut block_scratch = BlockGradScratch::default();
        for seq_len in [7usize, 32, 1, 7] {
            let x = rng.gaussian_matrix(seq_len, hidden, 1.0);
            let grad_out = rng.gaussian_matrix(seq_len, hidden, 1.0);
            let tag = format!("heads {heads}, seq {seq_len}");

            layer.forward_into(&x, &mut y, &mut cache);
            assert_eq!(bits(&y), bits(&layer.infer(&x)), "{tag}");
            let mut g = grad_out.clone();
            layer.backward_in_place(&cache, &mut g, &mut scratch);
            let want = reference_encoder_backward(&mut reference, &x, &grad_out);
            assert_eq!(bits(&g), bits(&want), "encoder dx, {tag}");
            assert_eq!(grad_bits(&mut layer), grad_bits(&mut reference), "{tag}");

            // The two blocks on their own, and the allocating wrappers.
            blocks.attention.forward_into(&x, &mut out, &mut attn_cache);
            blocks.attention.backward_into(
                &attn_cache,
                &grad_out,
                &mut dx_block,
                &mut block_scratch,
            );
            let want = reference_attention_backward(&mut blocks_reference.attention, &x, &grad_out);
            assert_eq!(bits(&dx_block), bits(&want), "attention dx, {tag}");
            blocks.ffn.forward_into(&x, &mut out, &mut ffn_cache);
            blocks
                .ffn
                .backward_into(&ffn_cache, &grad_out, &mut dx_block, &mut block_scratch);
            let want = reference_ffn_backward(&mut blocks_reference.ffn, &x, &grad_out);
            assert_eq!(bits(&dx_block), bits(&want), "ffn dx, {tag}");
            assert_eq!(
                grad_bits(&mut blocks),
                grad_bits(&mut blocks_reference),
                "{tag}"
            );

            let mut wrapped = layer.clone();
            wrapped.zero_grad();
            let (_, fresh) = wrapped.forward(&x);
            let mut direct = wrapped.clone();
            assert_eq!(
                bits(&wrapped.backward(&fresh, &grad_out)),
                bits(&reference_encoder_backward(&mut direct, &x, &grad_out)),
                "wrapper dx, {tag}"
            );
            assert_eq!(grad_bits(&mut wrapped), grad_bits(&mut direct), "{tag}");
        }
        let span_grads = |l: &EncoderLayer| -> Vec<f32> {
            l.attention
                .spans
                .iter()
                .map(|s| s.z.grad.get(0, 0))
                .collect()
        };
        let z = span_grads(&layer);
        assert!(z[0] != 0.0, "the ramp head's span gradient is exercised");
        assert_eq!(z[1], 0.0, "no gradient reaches an off head's span");
    }
}
