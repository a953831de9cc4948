//! Pins recompute-in-backward training to the arithmetic it replaced.
//!
//! `AlbertModel::backward_from_final` re-runs the shared encoder layer's
//! caching forward on each cached layer input instead of keeping one
//! `EncoderCache` per layer application. The first two tests compare
//! against the keep-everything form: the first directly (a reference built
//! here from the public layer calls), the second through the trained
//! weights, whose hash was recorded on the commit that still kept all
//! twelve caches. The third pins the weights trained at the served shape
//! to the copy-based backward kernels the buffer forms replaced.
//!
//! Both hashes were re-based twice, each time because a transcendental
//! moved from the host's libm into `edgebert_tensor::kernels` (a change
//! of at most 2 ulp a call, and the only one in its commit): GELU's
//! `tanh` at 129121b, then the `exp` and `ln` under softmax, the entropy
//! exit and the losses. Each comment names the value it had held since
//! the commit it was recorded on and the value it held under libm's
//! `exp`/`ln`. Softmax, the entropy exit, the losses and GELU no longer
//! call libm, but Box–Muller initialisation (`Rng::gaussian`, under
//! `xavier` and `gaussian_matrix`) still calls its `ln`, `sin` and `cos`,
//! so the constants still depend on the host's libm there.

use edgebert_model::{AlbertConfig, AlbertModel, TrainOptions, Trainer};
use edgebert_nn::prune::PruneMethod;
use edgebert_nn::Parameter;
use edgebert_tasks::vocab::CLS;
use edgebert_tasks::{Task, TaskGenerator, VocabLayout};
use edgebert_tensor::Rng;

/// The gradient of every trainable parameter, as bit patterns.
fn grad_bits(model: &mut AlbertModel) -> Vec<Vec<u32>> {
    let bits = |p: &mut Parameter| p.grad.as_slice().iter().map(|g| g.to_bits()).collect();
    model.params_mut().into_iter().map(bits).collect()
}

#[test]
fn recomputed_backward_matches_a_keep_every_cache_reference_bitwise() {
    for seed in [0u64, 4, 11] {
        let mut rng = Rng::seed_from(seed);
        let mut model = AlbertModel::new(AlbertConfig::tiny(64, 2), &mut rng);
        // A partial ramp, an off head and an open head, so the mask and
        // its gradient are all exercised.
        model.encoder.attention.spans[0].set_z(1.5);
        model.encoder.attention.spans[1].set_z(-1000.0);
        let tokens = [CLS, 9, 10, 11, 12, 13, 14];
        let grad_logits = [0.7f32, -0.7];

        model.zero_grad();
        let cache = model.forward_train(&tokens);
        let grad_hidden = model.backward_final_classifier(&cache, &grad_logits);
        model.backward_from_final(&cache, &grad_hidden);
        let recomputed = grad_bits(&mut model);

        // The reference: every layer application's cache alive at once.
        model.zero_grad();
        let (mut hidden, low) = model.embedding.embed_with_cache(&tokens);
        let mut caches = Vec::new();
        for _ in 0..model.num_layers() {
            let (next, layer_cache) = model.encoder.forward(&hidden);
            caches.push(layer_cache);
            hidden = next;
        }
        assert_eq!(hidden, cache.final_hidden, "seed {seed}");
        let mut g = model.backward_final_classifier(&cache, &grad_logits);
        for layer_cache in caches.iter().rev() {
            g = model.encoder.backward(layer_cache, &g);
        }
        model.embedding.backward_projection(&low, &g);

        assert_eq!(recomputed, grad_bits(&mut model), "seed {seed}");
        assert!(
            recomputed
                .iter()
                .flatten()
                .any(|&b| f32::from_bits(b) != 0.0),
            "seed {seed}: the comparison must not be of all-zero gradients"
        );
    }
}

/// FNV-1a over the bit pattern of every weight the procedure touches.
fn weight_hash(model: &mut AlbertModel) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |values: &[f32]| {
        for byte in values.iter().flat_map(|v| v.to_bits().to_le_bytes()) {
            hash = (hash ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    eat(model.embedding.table.value.as_slice());
    for p in model.params_mut() {
        eat(p.value.as_slice());
    }
    hash
}

#[test]
fn trainer_run_reproduces_the_weights_of_the_keep_every_cache_commit() {
    let layout = VocabLayout::standard();
    let cfg = AlbertConfig::tiny(layout.vocab_size(), Task::Sst2.num_classes());
    let data = TaskGenerator::standard(Task::Sst2, cfg.max_seq_len).generate(40, 99);
    let (train, dev) = data.split(0.8);
    let opts = TrainOptions {
        epochs: 2,
        offramp_steps: 30,
        encoder_prune: Some((PruneMethod::Movement, 0.5)),
        ..TrainOptions::default()
    };
    let (mut student, _) = Trainer::new(cfg, layout, opts).run(&train, &dev);
    // Recorded at 0971c14, the last commit whose `TrainCache` held an
    // `EncoderCache` per layer application, as 0xef5f_aaff_707e_7287;
    // 0x4353_97d6_8bbb_1a58 under libm's `exp`/`ln`.
    assert_eq!(weight_hash(&mut student), 0x3cd2_74a5_417b_5ea0);
}

#[test]
fn trainer_run_reproduces_the_copy_based_backward_weights_at_served_shapes() {
    // `AlbertConfig::tiny` never reaches the 48- and 16-wide column blocks
    // of the matrix kernel; the served shape (H=48, FFN 96, head width 4,
    // seq 32) does.
    let layout = VocabLayout::standard();
    let cfg = AlbertConfig::small(layout.vocab_size(), Task::Qnli.num_classes());
    let data = TaskGenerator::standard(Task::Qnli, cfg.max_seq_len).generate(12, 7);
    let (train, dev) = data.split(0.75);
    let opts = TrainOptions {
        epochs: 2,
        offramp_steps: 10,
        encoder_prune: Some((PruneMethod::Movement, 0.5)),
        ..TrainOptions::default()
    };
    let (mut student, _) = Trainer::new(cfg, layout, opts).run(&train, &dev);
    // Recorded at ad3c5cc, the last commit whose backward sliced each
    // head out into copies and ran `matmul_nt`/`matmul_tn` as their own
    // loops, as 0xa6b1_ab87_b548_6804; 0x4090_a29a_72f5_8b41 under libm's
    // `exp`/`ln`.
    assert_eq!(weight_hash(&mut student), 0x5712_b269_42c7_a6d4);
}
