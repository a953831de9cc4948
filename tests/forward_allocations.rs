//! Pins the layer step's allocation contract: a layer step runs in the
//! working buffers of the thread that calls it, so once a sentence of
//! the same length has run on that thread a step allocates only the
//! logits it records (a session's first step on a fresh thread sizes
//! that thread's buffers); and because a session holds no buffers, a
//! session cloned or serialized mid-sentence continues bit-identically.

// One `#[test]` function in this binary on purpose: see `common`.
mod common;

use common::allocations_during;
use edgebert_model::{AlbertConfig, AlbertModel, ForwardSession};
use edgebert_tasks::vocab::CLS;
use edgebert_tensor::Rng;

/// Steps `session` to the last layer, returning every entropy and logit
/// seen on the way as bit patterns.
fn finish(model: &AlbertModel, session: &mut ForwardSession) -> Vec<u32> {
    let mut seen = Vec::new();
    while session.layers_done() < model.num_layers() {
        let (layer, h) = model.forward_next_layer(session);
        seen.push(h.to_bits());
        seen.extend(session.logits_at(layer).iter().map(|v| v.to_bits()));
    }
    seen
}

#[test]
fn layer_steps_allocate_only_their_logits_and_survive_a_checkpoint() {
    let mut rng = Rng::seed_from(16);
    let mut model = AlbertModel::new(AlbertConfig::small(64, 3), &mut rng);
    model.encoder.attention.spans[0].set_z(3.5);
    model.encoder.attention.spans[1].set_z(-1000.0);
    let tokens: Vec<u32> = std::iter::once(CLS).chain(5..30).collect();

    // The buffers are the thread's, not the session's: size them once.
    model.forward_layers(&tokens);
    for quantized in [false, true] {
        if quantized {
            model.quantize_weights(4);
            model.enable_activation_quant(4);
        }
        let mut session = model.begin_forward(&tokens);
        for layer in 1..=model.num_layers() {
            let n = allocations_during(|| {
                model.forward_next_layer(&mut session);
            });
            assert!(
                n <= 4,
                "layer {layer} (quantized: {quantized}) allocated {n} times"
            );
        }

        // Park after layer 4 three ways; all must finish like the
        // session that was never interrupted.
        let mut straight = model.begin_forward(&tokens);
        for _ in 0..4 {
            model.forward_next_layer(&mut straight);
        }
        let mut cloned = straight.clone();
        let wire = serde::json::to_string(&straight);
        let mut restored: ForwardSession =
            serde::json::from_str(&wire).expect("a session round-trips through JSON");
        assert!(
            !wire.contains("scratch"),
            "working buffers are not part of the checkpoint"
        );
        let expect = finish(&model, &mut straight);
        assert_eq!(expect.len(), (model.num_layers() - 4) * 4);
        assert_eq!(finish(&model, &mut cloned), expect, "clone");
        assert_eq!(finish(&model, &mut restored), expect, "serde round trip");

        // A resumed session steps in the same buffers.
        let mut resumed = model.begin_forward(&tokens).clone();
        model.forward_next_layer(&mut resumed);
        let n = allocations_during(|| {
            model.forward_next_layer(&mut resumed);
        });
        assert!(n <= 4, "second step after a resume allocated {n} times");
    }
}
