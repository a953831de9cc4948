//! The served model, built by the benchmark itself from public APIs.
//!
//! Every workload serves the same two-task deployment (SST-2 and QNLI)
//! at the paper-structure shape the ROADMAP reasons about
//! (`AlbertConfig::small`: H=48, seq 32, 12 shared layers, 12 heads).
//! `TaskArtifacts::build(Scale::Paper)` is not used (about 80 s a task)
//! and `Scale::Test` is not used (H=16, 4 layers: the wrong shapes), so
//! this module runs the same Fig. 4 flow on a short fixed schedule.
//!
//! Exit depth is controlled, not learned, so a request's cost does not
//! depend on how well a 96-sentence training run went: tier
//! `OnePercent` never exits early (**deep**, all 12 layers) and tier
//! `FivePercent` always exits after layer 1 (**shallow**).

use edgebert::engine::task_hardware_workload;
use edgebert::{
    calibrate::SweepCache, DropTarget, EdgeBertEngine, EntropyPredictor, EntropyThresholds,
    MultiTaskRuntime, TaskRuntime,
};
use edgebert_model::{AlbertConfig, AlbertModel, TrainOptions, Trainer};
use edgebert_nn::prune::PruneMethod;
use edgebert_tasks::{Task, TaskGenerator, VocabLayout};
use std::sync::Arc;

/// The tasks served, in lane order.
pub const TASKS: [Task; 2] = [Task::Sst2, Task::Qnli];

/// Training sentences per task.
const TRAIN_SENTENCES: usize = 48;
/// Dev sentences per task (only `Trainer::run`'s summary reads them).
const DEV_SENTENCES: usize = 16;
/// Predictor training epochs.
const PREDICTOR_EPOCHS: usize = 100;
/// Predictor LUT bins.
const LUT_BINS: usize = 64;
/// The model is the program under test, not an input: its seed is
/// fixed so every run serves the same weights and `--seed` varies the
/// requests alone.
const MODEL_SEED: u64 = 0xED6E_BE27;

/// The tier whose requests run every layer.
pub const DEEP: DropTarget = DropTarget::OnePercent;
/// The tier whose requests exit after layer 1.
pub const SHALLOW: DropTarget = DropTarget::FivePercent;

/// Layers a request of `tier` must run on the served model.
pub fn expected_exit_layer(tier: DropTarget, num_layers: usize) -> usize {
    if tier == SHALLOW {
        1
    } else {
        num_layers
    }
}

/// The model configuration every workload serves.
pub fn model_config(task: Task) -> AlbertConfig {
    AlbertConfig::small(VocabLayout::standard().vocab_size(), task.num_classes())
}

/// A sentence source for `task` at the served sequence length.
pub fn sentence_generator(task: Task) -> TaskGenerator {
    TaskGenerator::standard(task, model_config(task).max_seq_len)
}

/// Trains, quantizes and wires one task's runtime.
pub fn build_task(task: Task) -> TaskRuntime {
    let cfg = model_config(task);
    let seed = MODEL_SEED ^ task.name().len() as u64;
    let data = sentence_generator(task).generate(TRAIN_SENTENCES + DEV_SENTENCES, seed);
    let (train, dev) =
        data.split(TRAIN_SENTENCES as f32 / (TRAIN_SENTENCES + DEV_SENTENCES) as f32);
    let opts = TrainOptions {
        epochs: 1,
        seed,
        embedding_sparsity: 0.6,
        encoder_prune: Some((PruneMethod::Movement, task.paper_encoder_sparsity())),
        ..TrainOptions::default()
    };
    let (mut model, _summary) = Trainer::new(cfg, VocabLayout::standard(), opts).run(&train, &dev);
    model.quantize_weights(4);
    model.enable_activation_quant(4);
    let predictor = EntropyPredictor::train(
        &SweepCache::build(&model, &train).entropy_dataset(),
        PREDICTOR_EPOCHS,
        seed,
    );
    let max_entropy = (task.num_classes() as f32).ln() * 1.05;
    let lut = predictor.to_lut(LUT_BINS, max_entropy);
    let builder = EdgeBertEngine::builder(Arc::new(model), Arc::new(lut))
        .workload(task_hardware_workload(task, true))
        .thresholds_for(DEEP, EntropyThresholds::uniform(0.0))
        .thresholds_for(SHALLOW, EntropyThresholds::uniform(1e9));
    TaskRuntime::from_builder(task, builder)
}

/// Builds both tasks, one thread each.
pub fn build_runtime() -> MultiTaskRuntime {
    let runtimes: Vec<TaskRuntime> = std::thread::scope(|scope| {
        let handles: Vec<_> = TASKS
            .iter()
            .map(|&task| scope.spawn(move || build_task(task)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("task build thread panicked"))
            .collect()
    });
    MultiTaskRuntime::from_runtimes(runtimes)
}

/// The served model of `task`.
pub fn model_of(runtime: &MultiTaskRuntime, task: Task) -> &AlbertModel {
    task_runtime(runtime, task).model()
}

/// The runtime serving `task`.
pub fn task_runtime(runtime: &MultiTaskRuntime, task: Task) -> &TaskRuntime {
    runtime
        .runtime(task)
        .expect("the benchmark serves both of its tasks")
}
