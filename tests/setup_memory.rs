//! Pins set-up's memory high-water: what `Trainer::run` has live at its
//! peak, and what the model it returns keeps.
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
//!
//! One `#[test]` function on purpose: integration-test binaries run
//! their tests on parallel threads, and a second thread's allocations
//! would bleed into the global counters and flake the assertions.

use edgebert_model::{AlbertConfig, AlbertModel, TrainOptions, Trainer};
use edgebert_nn::prune::PruneMethod;
use edgebert_nn::Parameter;
use edgebert_tasks::{Task, TaskGenerator, VocabLayout};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct TrackingAllocator;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for TrackingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        grew(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static TRACKER: TrackingAllocator = TrackingAllocator;

/// Runs `f`; returns its result and the most bytes that were live at
/// once during it, over what was live when it started.
fn peak_during<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let out = f();
    (out, PEAK.load(Ordering::Relaxed) - before)
}

/// The peak recorded at c0b18f4 (see the module comment); the budget is
/// 0.72 of it. When this was written the peak was 1 064 436: the student
/// in training (weights, masks, gradients, scores, moments ≈ 675 KB) plus
/// one sentence's forward cache and backward buffers (≈ 390 KB).
const PARENT_PEAK_BYTES: usize = 1_830_620;
const PEAK_BUDGET_BYTES: usize = PARENT_PEAK_BYTES / 100 * 72;

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

    let resident = weight_and_mask_bytes(&mut model);
    let before = LIVE.load(Ordering::Relaxed);
    drop(model);
    let held = before - LIVE.load(Ordering::Relaxed);
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
