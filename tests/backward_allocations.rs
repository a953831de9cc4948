//! Pins the training backward's allocation contract: the layer backward
//! runs in caller-owned buffers (`EncoderCache` refilled in place,
//! `LayerGradScratch`), so a reused pair allocates nothing, at any
//! sequence length it has already seen or a shorter one; and
//! `AlbertModel::backward_from_final`, which sizes one pair in its first
//! layer application and frees it on return, allocates a constant number
//! of times however many applications it differentiates.

// One `#[test]` function in this binary on purpose: see `common`.
mod common;

use common::allocations_during;
use edgebert_model::{AlbertConfig, AlbertModel};
use edgebert_nn::encoder::{EncoderCache, LayerGradScratch};
use edgebert_tasks::vocab::CLS;
use edgebert_tensor::{Matrix, Rng};

/// What one `backward_from_final` may allocate at the served shape (56
/// when this was written): the gradient hand-off, one cache and scratch
/// (about fifty buffers, twelve of them the heads' probabilities) and the
/// embedding projection's `dW`. The copy-based backward allocated about
/// two hundred times per layer application.
const BACKWARD_BUDGET: u64 = 64;

#[test]
fn the_backward_allocates_per_sentence_not_per_layer_or_head() {
    let mut rng = Rng::seed_from(19);
    let cfg = AlbertConfig::small(64, 2);
    let tokens: Vec<u32> = std::iter::once(CLS).chain(5..30).collect();

    // The model: the count does not grow with the layers differentiated.
    let mut per_depth = Vec::new();
    for num_layers in [2, 12] {
        let mut model = AlbertModel::new(AlbertConfig { num_layers, ..cfg }, &mut rng);
        model.encoder.attention.spans[0].set_z(3.5);
        model.encoder.attention.spans[1].set_z(-1000.0);
        // As a training step starts: gradients exist from here on.
        model.zero_grad();
        let cache = model.forward_train(&tokens);
        let grad = model.backward_final_classifier(&cache, &[0.5, -0.5]);
        for _sentence in 0..2 {
            let n = allocations_during(|| model.backward_from_final(&cache, &grad));
            assert!(
                n <= BACKWARD_BUDGET,
                "{num_layers} layers: a backward allocated {n} times"
            );
            per_depth.push(n);
        }
    }
    assert!(
        per_depth.iter().all(|&n| n == per_depth[0]),
        "allocations must not depend on depth: {per_depth:?}"
    );

    // The layer: a reused cache and scratch allocate nothing, and follow
    // the sentence length both ways.
    let mut layer = AlbertModel::new(cfg, &mut rng).encoder;
    layer.attention.spans[0].set_z(3.5);
    layer.attention.spans[1].set_z(-1000.0);
    let (mut y, mut cache) = (Matrix::default(), EncoderCache::default());
    let mut scratch = LayerGradScratch::default();
    let mut g = Matrix::default();
    let mut pass = |seq_len: usize, rng: &mut Rng| {
        let x = rng.gaussian_matrix(seq_len, cfg.hidden_size, 1.0);
        let grad_out = rng.gaussian_matrix(seq_len, cfg.hidden_size, 1.0);
        let n = allocations_during(|| {
            layer.forward_into(&x, &mut y, &mut cache);
            g.copy_from(&grad_out);
            layer.backward_in_place(&cache, &mut g, &mut scratch);
        });
        assert_eq!(g.shape(), (seq_len, cfg.hidden_size));
        assert!(g.as_slice().iter().all(|v| v.is_finite()));
        n
    };
    assert!(pass(20, &mut rng) > 0, "the first pass sizes the buffers");
    assert_eq!(pass(20, &mut rng), 0, "same length again");
    assert_eq!(pass(9, &mut rng), 0, "a shorter sentence fits in place");
    assert!(pass(32, &mut rng) > 0, "a longer one grows them");
    assert_eq!(pass(32, &mut rng), 0);
    assert_eq!(pass(1, &mut rng), 0);
}
