//! Backend-extraction regression suite.
//!
//! The `InferenceBackend` refactor moved the engine's inline hardware
//! calls (simulator, DVFS controller, LDO/ADPLL transitions, ReRAM
//! embedding reads) behind `AcceleratorBackend`. These tests pin the
//! contract that the move changed *nothing numerically*: a reference
//! implementation reproduces the pre-refactor engine's cost arithmetic
//! by driving the hardware crates directly, and the engine must match
//! it bit for bit — across all four GLUE tasks, all three modes,
//! explicit targets, drop tiers, and queueing stamps (unit tests +
//! proptest).
//!
//! The `MobileGpuBackend` sanity tests pin the comparative claims: the
//! baseline costs the engine's wired workload, preserves the paper's
//! orders-of-magnitude energy gap, and degrades the engine to
//! nominal-only scheduling (no DVFS) without breaking the serving
//! layers.

use edgebert::backend::{BackendSpec, MobileGpuBackend};
use edgebert::calibrate::SweepCache;
use edgebert::engine::{
    deadline_met, task_hardware_workload, DropTarget, EdgeBertEngine, EngineBuilder,
    EntropyThresholds, InferenceMode, InferenceRequest, SentenceResult,
};
use edgebert::predictor::{EntropyPredictor, PredictorLut};
use edgebert::serving::{MultiTaskRuntime, TaskRuntime};
use edgebert::session::StepOutcome;
use edgebert_envm::{CellTech, ReramArray};
use edgebert_hw::memory::sentence_embedding_bits;
use edgebert_hw::{
    AcceleratorConfig, AcceleratorSim, Adpll, DvfsController, EncoderWorkload, Ldo, MobileGpu,
    WorkloadParams,
};
use edgebert_model::{AlbertConfig, AlbertModel};
use edgebert_tasks::{Dataset, Task, TaskGenerator, VocabLayout};
use edgebert_tensor::stats::argmax;
use edgebert_tensor::Rng;
use proptest::prelude::*;
use std::sync::{Arc, OnceLock};

struct Fixture {
    model: Arc<AlbertModel>,
    lut: Arc<PredictorLut>,
    data: Dataset,
    workload: WorkloadParams,
}

fn build_fixture(task: Task, seed: u64) -> Fixture {
    let layout = VocabLayout::standard();
    let cfg = AlbertConfig::tiny(layout.vocab_size(), task.num_classes());
    let mut rng = Rng::seed_from(seed);
    let model = AlbertModel::pretrained(cfg, &layout, &mut rng);
    let gen = TaskGenerator::standard(task, cfg.max_seq_len);
    let data = gen.generate(16, seed + 1);
    let cache = SweepCache::build(&model, &data);
    let pred = EntropyPredictor::train(&cache.entropy_dataset(), 40, 3);
    let lut = pred.to_lut(32, 1.1);
    Fixture {
        model: Arc::new(model),
        lut: Arc::new(lut),
        data,
        workload: task_hardware_workload(task, true),
    }
}

fn engine(f: &Fixture, target_s: f64, et: f32) -> EdgeBertEngine {
    EngineBuilder::new(Arc::clone(&f.model), Arc::clone(&f.lut))
        .workload(f.workload.clone())
        .uniform_thresholds(EntropyThresholds::uniform(et))
        .latency_target(target_s)
        .build()
}

/// A latency-aware request at the 1 % drop tier with an explicit target.
fn lai_request(tokens: &[u32], target_s: f64) -> InferenceRequest {
    InferenceRequest::new(tokens.to_vec())
        .with_latency_target(target_s)
        .with_drop_target(DropTarget::OnePercent)
}

/// Algorithm 2 for a sentence that already burned `elapsed_queue_s` of
/// its target waiting in a queue.
fn run_queued(
    eng: &EdgeBertEngine,
    tokens: &[u32],
    target_s: f64,
    elapsed_queue_s: f64,
) -> SentenceResult {
    let request = lai_request(tokens, target_s).with_elapsed_queue_s(elapsed_queue_s);
    eng.begin(&request).run_to_completion()
}

/// The pre-refactor engine's hardware cost path, reproduced by driving
/// the hardware crates directly — the numerical oracle the
/// `AcceleratorBackend` plumbing is pinned against.
struct Reference {
    sim: AcceleratorSim,
    dvfs: DvfsController,
    layer: EncoderWorkload,
    layer_cycles: u64,
    rram: ReramArray,
    embed_bits: usize,
}

impl Reference {
    fn new(workload: &WorkloadParams) -> Self {
        let cfg = AcceleratorConfig::energy_optimal();
        let sim = AcceleratorSim::new(cfg);
        let layer = sim.layer_workload(workload);
        let layer_cycles = layer.cycles();
        Self {
            dvfs: DvfsController::new(cfg),
            sim,
            layer,
            layer_cycles,
            rram: ReramArray::new(CellTech::Mlc2, 2.0),
            embed_bits: sentence_embedding_bits(workload.seq_len, 128, 0.4),
        }
    }

    fn embedding_read_cost(&self) -> (f64, f64) {
        (
            self.rram.read_latency_ns(self.embed_bits) * 1e-9,
            self.rram.read_energy_pj(self.embed_bits) * 1e-12,
        )
    }

    fn base(&self, model: &AlbertModel, tokens: &[u32]) -> SentenceResult {
        let out = model.forward_layers(tokens);
        let layers = model.num_layers();
        let cost = self.sim.run_layers_nominal(&self.layer, layers);
        let (el, ee) = self.embedding_read_cost();
        SentenceResult {
            mode: InferenceMode::Base,
            exit_layer: layers,
            predicted_layer: None,
            prediction: argmax(&out.logits[layers - 1]),
            latency_s: cost.seconds + el,
            energy_j: cost.energy_j + ee,
            voltage: self.sim.config().vdd_nominal,
            freq_hz: self.sim.config().freq_max_hz,
            deadline_met: true,
        }
    }

    fn conventional_ee(&self, model: &AlbertModel, tokens: &[u32], et: f32) -> SentenceResult {
        let (exit, logits, _) = model.infer_early_exit(tokens, et);
        let cost = self.sim.run_layers_nominal(&self.layer, exit);
        let (el, ee) = self.embedding_read_cost();
        SentenceResult {
            mode: InferenceMode::ConventionalEe,
            exit_layer: exit,
            predicted_layer: None,
            prediction: argmax(&logits),
            latency_s: cost.seconds + el,
            energy_j: cost.energy_j + ee,
            voltage: self.sim.config().vdd_nominal,
            freq_hz: self.sim.config().freq_max_hz,
            deadline_met: true,
        }
    }

    fn latency_aware(
        &self,
        model: &AlbertModel,
        lut: &PredictorLut,
        tokens: &[u32],
        et: f32,
        latency_target_s: f64,
        elapsed_queue_s: f64,
    ) -> SentenceResult {
        let out = model.forward_layers(tokens);
        let num_layers = model.num_layers();
        let cfg = self.sim.config();

        let ldo = Ldo::new(cfg.vdd_standby);
        let pll = Adpll::new(cfg.freq_max_hz);
        let wake_s = ldo.transition_time_ns(cfg.vdd_standby, cfg.vdd_nominal) * 1e-9
            + pll.relock_ns() * 1e-9;
        let (embed_lat, embed_energy) = self.embedding_read_cost();
        let layer1 = self.sim.run_layers_nominal(&self.layer, 1);

        let mut latency = wake_s + embed_lat + layer1.seconds;
        let mut energy = embed_energy + layer1.energy_j;

        let h1 = out.entropies[0];
        if h1 < et {
            return SentenceResult {
                mode: InferenceMode::LatencyAware,
                exit_layer: 1,
                predicted_layer: Some(1),
                prediction: argmax(&out.logits[0]),
                latency_s: latency,
                energy_j: energy,
                voltage: cfg.vdd_nominal,
                freq_hz: cfg.freq_max_hz,
                deadline_met: deadline_met(elapsed_queue_s + latency, latency_target_s),
            };
        }

        let predicted = lut.predict_exit_layer(h1, et).clamp(2, num_layers);
        let remaining_cycles = self.layer_cycles * (predicted as u64 - 1);
        let remaining_budget = latency_target_s - latency - self.dvfs.floor_transition_s();
        let decision =
            self.dvfs
                .decide_with_elapsed(remaining_cycles, remaining_budget, elapsed_queue_s);
        let transition_s = ldo.transition_time_ns(cfg.vdd_nominal, decision.voltage) * 1e-9
            + if decision.freq_hz == cfg.freq_max_hz {
                0.0
            } else {
                pll.relock_ns() * 1e-9
            };

        let mut exit = predicted;
        for l in 2..=predicted {
            if out.entropies[l - 1] < et {
                exit = l;
                break;
            }
        }
        let segment =
            self.sim
                .run_layers(&self.layer, exit - 1, decision.voltage, decision.freq_hz);
        latency += transition_s + segment.seconds;
        energy += segment.energy_j;

        SentenceResult {
            mode: InferenceMode::LatencyAware,
            exit_layer: exit,
            predicted_layer: Some(predicted),
            prediction: argmax(&out.logits[exit - 1]),
            latency_s: latency,
            energy_j: energy,
            voltage: decision.voltage,
            freq_hz: decision.freq_hz,
            deadline_met: decision.feasible
                && deadline_met(elapsed_queue_s + latency, latency_target_s),
        }
    }
}

#[test]
fn accelerator_backend_is_bit_identical_across_all_glue_tasks() {
    for (i, task) in Task::all().into_iter().enumerate() {
        let f = build_fixture(task, 0xBE11 + i as u64);
        let reference = Reference::new(&f.workload);
        // et = 0.25 exercises both the layer-1 exit and the DVFS path
        // across the dataset; et = 0.0 forces the DVFS path everywhere.
        for et in [0.25f32, 0.0] {
            for target_s in [2e-3, 50e-3, 400e-3] {
                let eng = engine(&f, target_s, et);
                for ex in f.data.iter().take(4) {
                    assert_eq!(
                        eng.run(&ex.tokens, InferenceMode::Base),
                        reference.base(&f.model, &ex.tokens),
                        "{task} base"
                    );
                    assert_eq!(
                        eng.run(&ex.tokens, InferenceMode::ConventionalEe),
                        reference.conventional_ee(&f.model, &ex.tokens, et),
                        "{task} ee et={et}"
                    );
                    for elapsed in [0.0, target_s * 0.5, target_s * 2.0] {
                        assert_eq!(
                            run_queued(&eng, &ex.tokens, target_s, elapsed),
                            reference
                                .latency_aware(&f.model, &f.lut, &ex.tokens, et, target_s, elapsed),
                            "{task} lai et={et} target={target_s} elapsed={elapsed}"
                        );
                    }
                }
            }
        }
    }
}

fn sst2_fixture() -> &'static Fixture {
    static CELL: OnceLock<Fixture> = OnceLock::new();
    CELL.get_or_init(|| build_fixture(Task::Sst2, 0xBEEF))
}

fn task_fixtures() -> &'static [Fixture; 4] {
    static CELL: OnceLock<[Fixture; 4]> = OnceLock::new();
    CELL.get_or_init(|| {
        let mut tasks = Task::all().into_iter();
        [(); 4].map(|_| {
            let task = tasks.next().expect("four GLUE tasks");
            build_fixture(task, 0x5E55 + task as u64)
        })
    })
}

/// Drives a session by hand, checking the step-outcome protocol on the
/// way: every non-terminal step is `Continue`, the terminal step is
/// `Exited`/`Done`, completed sessions are idempotent, and the result
/// is returned.
fn step_to_completion(engine: &EdgeBertEngine, request: &InferenceRequest) -> SentenceResult {
    let mut session = engine.begin(request);
    let mut steps = 0usize;
    loop {
        let outcome = session.step();
        steps += 1;
        assert!(steps <= 16, "sessions terminate within the model depth");
        match outcome {
            StepOutcome::Continue => assert!(!session.is_complete()),
            StepOutcome::Exited | StepOutcome::Done => {
                assert!(session.is_complete());
                assert_eq!(session.layers_done(), session.result().unwrap().exit_layer);
                // Stepping a completed session is an idempotent no-op.
                assert_eq!(session.step(), outcome);
                return session.result().cloned().expect("complete");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Any (sentence, threshold, target, queue stamp) the wire can
    /// produce: the backend-routed engine equals the direct-hardware
    /// reference bit for bit.
    #[test]
    fn backend_equivalence_holds_for_arbitrary_requests(
        sentence in 0usize..16,
        et_idx in 0usize..4,
        target_ms in 1.0f64..400.0,
        elapsed_frac in 0.0f64..2.0,
    ) {
        let f = sst2_fixture();
        let reference = Reference::new(&f.workload);
        let et = [0.0f32, 0.1, 0.3, 1.0][et_idx];
        let target_s = target_ms * 1e-3;
        let elapsed = target_s * elapsed_frac;
        let eng = engine(f, target_s, et);
        let tokens = &f.data.examples()[sentence].tokens;
        prop_assert_eq!(
            run_queued(&eng, tokens, target_s, elapsed),
            reference.latency_aware(&f.model, &f.lut, tokens, et, target_s, elapsed)
        );
        prop_assert_eq!(eng.run(tokens, InferenceMode::Base), reference.base(&f.model, tokens));
        prop_assert_eq!(
            eng.run(tokens, InferenceMode::ConventionalEe),
            reference.conventional_ee(&f.model, tokens, et)
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The session redesign's acceptance proptest: a layer-stepped
    /// session driven to completion (without parking) is bit-identical
    /// to the pre-redesign monolithic paths — the direct-hardware
    /// reference oracle — across all 4 GLUE tasks × all 3 modes ×
    /// thresholds × targets × queue stamps. `serve` (the
    /// drive-to-completion wrapper) must agree with manual stepping.
    #[test]
    fn stepped_sessions_are_bit_identical_to_the_monolithic_paths(
        task_idx in 0usize..4,
        sentence in 0usize..16,
        mode_idx in 0usize..3,
        et_idx in 0usize..4,
        target_ms in 1.0f64..400.0,
        elapsed_frac in 0.0f64..2.0,
    ) {
        let f = &task_fixtures()[task_idx];
        let reference = Reference::new(&f.workload);
        let mode = InferenceMode::all()[mode_idx];
        let et = [0.0f32, 0.1, 0.3, 1.0][et_idx];
        let target_s = target_ms * 1e-3;
        let elapsed = target_s * elapsed_frac;
        let eng = engine(f, target_s, et);
        let tokens = &f.data.examples()[sentence].tokens;

        let request = InferenceRequest::new(tokens.clone())
            .with_mode(mode)
            .with_latency_target(target_s)
            .with_elapsed_queue_s(elapsed);
        let stepped = step_to_completion(&eng, &request);
        let oracle = match mode {
            InferenceMode::Base => reference.base(&f.model, tokens),
            InferenceMode::ConventionalEe => {
                reference.conventional_ee(&f.model, tokens, et)
            }
            InferenceMode::LatencyAware => reference.latency_aware(
                &f.model, &f.lut, tokens, et, target_s, elapsed,
            ),
        };
        prop_assert_eq!(&stepped, &oracle);
        // The wrapper and the manual drive agree: serve() re-judges
        // Base/EE against the target, and is otherwise the same bits.
        let served = eng.serve(&request);
        let mut expect = oracle;
        if mode != InferenceMode::LatencyAware {
            expect.deadline_met = deadline_met(elapsed + expect.latency_s, target_s);
        }
        prop_assert_eq!(served.result, expect);
    }
}

fn gpu_engine(f: &Fixture, target_s: f64, et: f32) -> EdgeBertEngine {
    EngineBuilder::new(Arc::clone(&f.model), Arc::clone(&f.lut))
        .workload(f.workload.clone())
        .uniform_thresholds(EntropyThresholds::uniform(et))
        .latency_target(target_s)
        .backend(BackendSpec::MobileGpu(MobileGpu::default()))
        .build()
}

#[test]
fn mgpu_backend_preserves_the_energy_gap() {
    // The paper's comparative headline, now judged with both platforms
    // costing the same wired workload: the accelerator is orders of
    // magnitude more energy-efficient than the TX2 baseline.
    let f = sst2_fixture();
    let accel = engine(f, 50e-3, 0.3);
    let gpu = gpu_engine(f, 50e-3, 0.3);
    assert!(!gpu.backend().can_scale());
    assert_eq!(gpu.backend().name(), "mobile-gpu");
    for mode in InferenceMode::all() {
        let a = accel.evaluate(&f.data, mode);
        let g = gpu.evaluate(&f.data, mode);
        assert!(
            g.avg_energy_j / a.avg_energy_j > 10.0,
            "{mode:?}: gpu {} J vs accel {} J",
            g.avg_energy_j,
            a.avg_energy_j
        );
        // Same software decisions on both platforms: exits and accuracy
        // are hardware-independent.
        assert_eq!(a.accuracy, g.accuracy, "{mode:?}");
        assert_eq!(a.avg_exit_layer, g.avg_exit_layer, "{mode:?}");
    }
    // And the engine's own baseline rows agree with an mGPU-backed
    // engine costing the same workload.
    let gpu_row = accel.mgpu_baseline().full_inference(f.model.num_layers());
    let (lat, energy) = (gpu_row.seconds, gpu_row.energy_j);
    let gpu_base = gpu.evaluate(&f.data, InferenceMode::Base);
    assert!((gpu_base.avg_latency_s - lat).abs() / lat < 1e-12);
    assert!((gpu_base.avg_energy_j - energy).abs() / energy < 1e-12);
}

#[test]
fn mgpu_backend_degrades_to_nominal_only_scheduling() {
    let f = sst2_fixture();
    // et = 0: the DVFS path always engages.
    let gpu = gpu_engine(f, 10.0, 0.0);
    let tokens = &f.data.examples()[0].tokens;
    // A fixed-V/F backend cannot stretch into a loose deadline: the
    // operating point stays nominal and remains feasible.
    let loose = gpu.begin(&lai_request(tokens, 10.0)).run_to_completion();
    let nominal = gpu.backend().nominal();
    assert_eq!(loose.voltage, nominal.voltage);
    assert_eq!(loose.freq_hz, nominal.freq_hz);
    assert!(loose.deadline_met);
    // An impossible deadline is flagged, still at the fixed point.
    let hopeless = gpu.begin(&lai_request(tokens, 1e-6)).run_to_completion();
    assert_eq!(hopeless.voltage, nominal.voltage);
    assert!(!hopeless.deadline_met);
    // Queueing delay burns the budget on the fixed clock too.
    let fresh = run_queued(&gpu, tokens, 1.0, 0.0);
    let queued = run_queued(&gpu, tokens, 1.0, 2.0);
    assert_eq!(fresh.latency_s, queued.latency_s, "compute cost is fixed");
    assert!(fresh.deadline_met);
    assert!(!queued.deadline_met, "sojourn verdict counts the wait");
}

#[test]
fn serving_layers_are_backend_generic() {
    // A TaskRuntime minted on the mGPU backend serves requests through
    // the same front-door APIs — nothing above the engine knows which
    // platform is underneath.
    let f = sst2_fixture();
    let builder = EngineBuilder::new(Arc::clone(&f.model), Arc::clone(&f.lut))
        .workload(f.workload.clone())
        .uniform_thresholds(EntropyThresholds::uniform(0.3))
        .latency_target(200e-3)
        .backend(BackendSpec::MobileGpu(MobileGpu::default()));
    let rt = TaskRuntime::from_builder(Task::Sst2, builder);
    let tokens = f.data.examples()[0].tokens.clone();
    let direct = rt.serve(&InferenceRequest::new(tokens.clone()));
    assert!(direct.result.energy_j > 0.0);

    let mt = MultiTaskRuntime::from_runtimes([rt]);
    let batch = [
        (Task::Sst2, InferenceRequest::new(tokens.clone())),
        (Task::Sst2, InferenceRequest::new(tokens)),
    ];
    let out = mt.try_serve_batch(&batch);
    assert_eq!(out.len(), 2);
    for r in &out {
        let resp = r.as_ref().expect("sst2 is served");
        // The scheduler's batched pass reproduces direct serving on the
        // GPU backend bit for bit, exactly as on the accelerator.
        assert_eq!(resp, &direct);
    }
}

#[test]
fn mgpu_baseline_reuses_the_engines_wired_anchor() {
    // Regression: `mgpu_baseline()` used to re-derive the TX2 default
    // even when the engine itself ran on a custom mGPU anchor — the
    // baseline/engine divergence this PR exists to eliminate.
    let f = sst2_fixture();
    let custom = MobileGpu {
        full_inference_s: 0.2,
        ..MobileGpu::default()
    };
    let eng = EngineBuilder::new(Arc::clone(&f.model), Arc::clone(&f.lut))
        .workload(f.workload.clone())
        .uniform_thresholds(EntropyThresholds::uniform(0.3))
        .backend(BackendSpec::MobileGpu(custom))
        .build();
    assert_eq!(eng.mgpu_baseline().gpu(), &custom);
    // The comparison row agrees with what the engine itself reports.
    let gpu_row = eng.mgpu_baseline().full_inference(f.model.num_layers());
    let (lat, energy) = (gpu_row.seconds, gpu_row.energy_j);
    let base = eng.evaluate(&f.data, InferenceMode::Base);
    assert!((base.avg_latency_s - lat).abs() / lat < 1e-12);
    assert!((base.avg_energy_j - energy).abs() / energy < 1e-12);
    // Accelerator engines still derive the TX2-anchored default.
    let accel = engine(f, 50e-3, 0.3);
    assert_eq!(accel.mgpu_baseline().gpu(), &MobileGpu::default());
}

#[test]
fn derived_flop_scale_transfers_aas_but_not_sparsity() {
    let f = sst2_fixture();
    // The optimized SST-2 workload carries AAS spans: the derived scale
    // must price the GPU below the dense baseline, inside the paper's
    // reduction range.
    let optimized = MobileGpuBackend::from_workload(MobileGpu::default(), &f.workload);
    assert!(
        (0.5..1.0).contains(&optimized.flop_scale()),
        "scale {}",
        optimized.flop_scale()
    );
    // Sparsity alone (no AAS) must not transfer: dense GPU kernels
    // cannot exploit bitmask sparsity.
    let mut sparse_only = task_hardware_workload(Task::Sst2, false);
    sparse_only.sparse_enabled = true;
    sparse_only.weight_density = 0.4;
    let sparse = MobileGpuBackend::from_workload(MobileGpu::default(), &sparse_only);
    assert_eq!(sparse.flop_scale(), 1.0);
}
