//! Pins set-up's memory high-water: what `Trainer::run` has live at its
//! peak, and what the model it returns — and the entropy predictor
//! trained on it — keeps.
//!
//! The procedure trains two models, a dense teacher and the pruned
//! student, and a served model is resident for as long as its engine is.
//! So the teacher must be gone before the student exists (phase 1 reads
//! only its logits), and the student must leave its gradients, Adam
//! moments and movement scores behind when training ends: what engines
//! hold behind their `Arc` is weights and pruning masks.
//!
//! Recorded on this set-up at c0b18f4, the last commit whose `run` kept
//! the teacher through phase 1 and returned the student with its
//! training state: a peak of 1 830 620 live bytes, and a returned model
//! holding 764 640 bytes for 335 184 of weights and masks.

// One `#[test]` function in this binary on purpose: see `common`.
mod common;

use common::{bytes_held_by, peak_during};
use edgebert::calibrate::SweepCache;
use edgebert::predictor::EntropyPredictor;
use edgebert_model::{AlbertConfig, AlbertModel, TrainOptions, Trainer};
use edgebert_nn::prune::PruneMethod;
use edgebert_nn::Parameter;
use edgebert_tasks::{Task, TaskGenerator, VocabLayout};

/// The peak `Trainer::run` reaches on this set-up: 1 064 436 live bytes
/// in a debug build and 1 065 336 in release when this budget was set.
/// That is the student in training (weights, masks, gradients, scores,
/// moments ≈ 675 KB) plus one sentence's forward cache and backward
/// buffers (≈ 390 KB). The budget is 3 % over the larger reading, so a
/// regression of one sentence's layer buffers (64 KiB held through the
/// backward peaked at 1 130 308) fails it.
const PEAK_BYTES: usize = 1_065_336;
const PEAK_BUDGET_BYTES: usize = PEAK_BYTES / 100 * 103;

/// What the returned model may hold, as a percentage of its weight and
/// mask bytes: 103 when this was written (344 304 for 335 184; the
/// off-ramp and span vectors make up the rest), 228 with its training
/// state.
const HELD_BUDGET_PERCENT: usize = 110;

#[test]
fn set_up_peaks_at_one_model_and_returns_weights_and_masks() {
    // The served shape and the benchmark's training options, on a dozen
    // sentences.
    let layout = VocabLayout::standard();
    let cfg = AlbertConfig::small(layout.vocab_size(), Task::Sst2.num_classes());
    let data = TaskGenerator::standard(Task::Sst2, cfg.max_seq_len).generate(16, 21);
    let (train, dev) = data.split(0.75);
    assert_eq!(train.len(), 12);
    let opts = TrainOptions {
        epochs: 1,
        offramp_steps: 10,
        encoder_prune: Some((PruneMethod::Movement, 0.5)),
        embedding_sparsity: 0.6,
        ..TrainOptions::default()
    };
    let trainer = Trainer::new(cfg, layout, opts);

    let ((mut model, summary), peak) = peak_during(|| trainer.run(&train, &dev));
    drop(summary);
    assert!(
        peak <= PEAK_BUDGET_BYTES,
        "set-up peaked at {peak} live bytes, budget {PEAK_BUDGET_BYTES}"
    );
    println!("set-up peaked at {peak} live bytes, budget {PEAK_BUDGET_BYTES}");

    // The other network set-up trains is the entropy predictor's five
    // affine layers, from which the served LUT is distilled; it too is
    // left with its weights alone (four times that with gradients and
    // Adam moments).
    let entropies = SweepCache::build(&model, &dev).entropy_dataset();
    let predictor = EntropyPredictor::train(&entropies, 5, 7);
    let widths = [1, 64, 64, 64, 64, cfg.num_layers];
    let floats: usize = widths.windows(2).map(|w| (w[0] + 1) * w[1]).sum();
    let resident = floats * std::mem::size_of::<f32>();
    let held = bytes_held_by(predictor);
    assert!(
        held * 100 <= resident * HELD_BUDGET_PERCENT,
        "the predictor held {held} bytes for {resident} of weights"
    );

    let resident = weight_and_mask_bytes(&mut model);
    let held = bytes_held_by(model);
    assert!(
        held * 100 <= resident * HELD_BUDGET_PERCENT,
        "the returned model held {held} bytes for {resident} of weights and masks"
    );
}

/// Bytes of every weight tensor and pruning mask of `model`.
fn weight_and_mask_bytes(model: &mut AlbertModel) -> usize {
    let floats = |p: &Parameter| p.len() + p.mask.as_ref().map_or(0, |m| m.len());
    let tables = floats(&model.embedding.table) + floats(&model.embedding.positions);
    let trainable: usize = model.params_mut().iter().map(|p| floats(p)).sum();
    (tables + trainable) * std::mem::size_of::<f32>()
}
