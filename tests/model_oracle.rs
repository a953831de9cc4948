//! What a re-base of the arithmetic under the model may move, stated at
//! the level the paper cares about.
//!
//! The bit oracles (`backend_equivalence`, `recompute_training`) say a
//! refactor changed nothing. This file says what a *deliberate* change of
//! a transcendental's last ulps is allowed to change: for both served
//! tasks, at `Scale::Test` and at the benchmark's shape, dev accuracy
//! stays within one sentence, the latency-aware exit layer is unchanged
//! on at least 99 % of sentences under every `DropTarget`, and mean
//! modeled energy a sentence stays within 0.5 %. The values each test
//! holds were re-recorded on efdc870, the last commit whose softmax,
//! entropy and losses called the host's `expf` and `logf` (they equal
//! those of 59102c6, the last commit whose GELU called the host's
//! `tanhf`: that re-base moved none of them).

use edgebert::calibrate::{calibrate_conventional, calibrate_latency_aware, SweepCache};
use edgebert::engine::{task_hardware_workload, InferenceMode};
use edgebert::pipeline::{Scale, TaskArtifacts};
use edgebert::{DropTarget, EngineBuilder, EntropyPredictor};
use edgebert_model::{AlbertConfig, TrainOptions, Trainer};
use edgebert_nn::prune::PruneMethod;
use edgebert_tasks::{Dataset, Task, TaskGenerator, VocabLayout};
use std::sync::Arc;

/// One deployment's behaviour on its dev split.
struct Observed {
    /// Dev sentences the full-depth model labels correctly.
    dev_correct: usize,
    /// The latency-aware exit layer of every dev sentence as a base-36
    /// digit, one string a `DropTarget` in `DropTarget::all()` order.
    exits: [String; 3],
    /// Mean modeled energy a sentence under each `DropTarget`, µJ.
    energy_uj: [f64; 3],
}

fn observe(task: Task, builder: EngineBuilder, dev: &Dataset) -> Observed {
    let builder = builder
        .workload(task_hardware_workload(task, true))
        .latency_target(50e-3);
    let engines = DropTarget::all().map(|tier| builder.clone().drop_target(tier).build());
    let accuracy = engines[0].model().evaluate_accuracy(dev);
    let mut exits: [String; 3] = Default::default();
    let mut energy_uj = [0.0f64; 3];
    for (i, engine) in engines.iter().enumerate() {
        for example in dev.examples() {
            let r = engine.run(&example.tokens, InferenceMode::LatencyAware);
            exits[i].push(char::from_digit(r.exit_layer as u32, 36).expect("at most 35 layers"));
            energy_uj[i] += r.energy_j * 1e6 / dev.len() as f64;
        }
    }
    Observed {
        dev_correct: (accuracy * dev.len() as f32).round() as usize,
        exits,
        energy_uj,
    }
}

/// `Scale::Test`: the pipeline the experiment drivers and the smoke
/// examples run, with its own calibrated thresholds.
fn test_scale(task: Task) -> Observed {
    let art = TaskArtifacts::build(task, Scale::Test, 0x51A);
    observe(task, art.engine_builder(), &art.dev)
}

/// The benchmark's shape and schedule (`benchmark/src/served.rs`,
/// reproduced here): `AlbertConfig::small`, 48 training and 16 dev
/// sentences, one epoch, FP8 weights and activations, a 100-epoch
/// predictor in a 64-bin LUT. The benchmark pins its exit depths; the
/// oracle calibrates them on the dev split as the pipeline does, so the
/// exit layers it compares are the model's own.
fn served_shape(task: Task) -> Observed {
    let layout = VocabLayout::standard();
    let cfg = AlbertConfig::small(layout.vocab_size(), task.num_classes());
    let seed = 0xED6E_BE27 ^ task.name().len() as u64;
    let data = TaskGenerator::standard(task, cfg.max_seq_len).generate(48 + 16, seed);
    let (train, dev) = data.split(48.0 / 64.0);
    let opts = TrainOptions {
        epochs: 1,
        seed,
        embedding_sparsity: 0.6,
        encoder_prune: Some((PruneMethod::Movement, task.paper_encoder_sparsity())),
        ..TrainOptions::default()
    };
    let (mut model, _) = Trainer::new(cfg, layout, opts).run(&train, &dev);
    model.quantize_weights(4);
    model.enable_activation_quant(4);
    let predictor = EntropyPredictor::train(
        &SweepCache::build(&model, &train).entropy_dataset(),
        100,
        seed,
    );
    let lut = predictor.to_lut(64, (task.num_classes() as f32).ln() * 1.05);
    let cache = SweepCache::build(&model, &dev);
    let drops = DropTarget::all().map(DropTarget::fraction);
    let builder = EngineBuilder::new(Arc::new(model), Arc::new(lut.clone())).calibrated_thresholds(
        drops.map(|d| calibrate_conventional(&cache, d).entropy_threshold),
        drops.map(|d| calibrate_latency_aware(&cache, &lut, d).entropy_threshold),
    );
    observe(task, builder, &dev)
}

/// Compares a deployment built now with what the parent's did.
fn holds(task: Task, now: Observed, dev_correct: usize, exits: [&str; 3], energy_uj: [f64; 3]) {
    // What a deliberate re-record pastes into the caller.
    println!(
        "{task:?}: {}, {:?}, {:?}",
        now.dev_correct, now.exits, now.energy_uj
    );
    assert!(
        now.dev_correct.abs_diff(dev_correct) <= 1,
        "{task:?}: dev accuracy {dev_correct} -> {} sentences",
        now.dev_correct
    );
    let (mut same, mut total) = (0, 0);
    for tier in DropTarget::all() {
        let i = tier.index();
        assert_eq!(now.exits[i].len(), exits[i].len(), "{task:?}: dev size");
        total += exits[i].len();
        same += now.exits[i]
            .bytes()
            .zip(exits[i].bytes())
            .filter(|(a, b)| a == b)
            .count();
        assert!(
            (now.energy_uj[i] - energy_uj[i]).abs() <= 0.005 * energy_uj[i],
            "{task:?}, {tier:?}: energy {} -> {} uJ a sentence",
            energy_uj[i],
            now.energy_uj[i]
        );
    }
    assert!(
        same * 100 >= total * 99,
        "{task:?}: exit layer unchanged on {same} of {total} sentences\n{exits:?}\n{:?}",
        now.exits
    );
}

// The recorded values are those of efdc870 (glibc 2.36 `expf`/`logf`),
// debug and release alike; one test a deployment so they train in
// parallel.

#[test]
fn sst2_at_scale_test_stays_within_tolerance_of_the_libm_model() {
    holds(
        Task::Sst2,
        test_scale(Task::Sst2),
        21,
        ["111111111111111111111111111111111111"; 3],
        [172.39996194620667; 3],
    );
}

#[test]
fn qnli_at_scale_test_stays_within_tolerance_of_the_libm_model() {
    holds(
        Task::Qnli,
        test_scale(Task::Qnli),
        20,
        [
            "114144441324414414111112424244412111",
            "114144441324414414111112424244412111",
            "111111111111111111111111111111111111",
        ],
        [258.2050483555506, 258.2050483555506, 158.527710172593],
    );
}

#[test]
fn sst2_at_the_served_shape_stays_within_tolerance_of_the_libm_model() {
    holds(
        Task::Sst2,
        served_shape(Task::Sst2),
        10,
        ["1221121212211111"; 3],
        [200.37603519122547; 3],
    );
}

#[test]
fn qnli_at_the_served_shape_stays_within_tolerance_of_the_libm_model() {
    holds(
        Task::Qnli,
        served_shape(Task::Qnli),
        9,
        ["1111111111111111"; 3],
        [158.527710172593; 3],
    );
}
