//! Property-based tests for the training substrate.

use edgebert_nn::attention::AttentionScratch;
use edgebert_nn::encoder::LayerScratch;
use edgebert_nn::losses::{accuracy, cross_entropy, distillation};
use edgebert_nn::prune::{magnitude_mask, sparsity_schedule, topk_mask};
use edgebert_nn::{AdaptiveSpan, EncoderLayer, FeedForward, LayerNorm, Linear, MultiHeadAttention};
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
        for mut scratch in [LayerScratch::default(), layer.scratch(other_rows)] {
            let mut state = other.clone();
            layer.infer_in_place(&mut state, &mut scratch);
            let mut state = x.clone();
            layer.infer_in_place(&mut state, &mut scratch);
            prop_assert_eq!(&state, &layer.infer(&x));
        }
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
