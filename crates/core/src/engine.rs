//! The per-sentence inference engine: Algorithms 1 and 2 with full
//! hardware cost accounting, behind an owned request/response serving
//! API.
//!
//! Three modes are modelled, matching the paper's evaluation bars:
//!
//! * **Base** — conventional 12-layer inference at nominal V/F
//!   (Fig. 1a);
//! * **Conventional EE** — Algorithm 1: exit when the off-ramp entropy
//!   falls below `E_T`, always at nominal V/F because the exit layer is
//!   unknown in advance (Fig. 1b);
//! * **Latency-aware (LAI)** — Algorithm 2: compute layer 1 at nominal,
//!   use the predictor LUT to forecast the exit layer, scale V/F so the
//!   remaining layers finish exactly at the latency target, keep checking
//!   the true entropy on the way, and stop unconditionally at the
//!   forecast layer (Fig. 1c).
//!
//! The latency target and accuracy-drop tier are **request-scoped**
//! (paper §1: the deadline is a per-sentence, per-application input —
//! a voice assistant and a translator share silicon but not budgets).
//! [`InferenceRequest`] carries both; [`EdgeBertEngine`] holds defaults
//! for requests that leave them unset. Engines own their model and LUT
//! through [`Arc`]s, so they are `Send + 'static` and can be moved into
//! worker threads or pooled; construction goes through [`EngineBuilder`].
//! Every way in (`serve`, `begin`, the `run*` runners, the server
//! lanes) opens its session through one sanitizing opener,
//! [`EdgeBertEngine::begin_degraded`] (a scheduler drain re-opens a
//! sentence it already forwarded through the crate-private
//! `begin_replay`); the per-layer loop lives in [`crate::session`].

use crate::backend::{AcceleratorBackend, BackendSpec, InferenceBackend, MobileGpuBackend};
use crate::overload::Degradation;
use crate::predictor::PredictorLut;
use crate::session::{ForwardTrace, InferenceSession};
use edgebert_envm::CellTech;
use edgebert_hw::{AcceleratorConfig, AcceleratorSim, MobileGpu, WorkloadParams};
use edgebert_model::AlbertModel;
use edgebert_tasks::Dataset;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Relative tolerance applied when judging a latency against its
/// deadline (see [`deadline_met`]).
pub const DEADLINE_REL_TOLERANCE: f64 = 1e-4;

/// The single deadline-met rule: `latency ≤ target · (1 + 1e-4)`.
///
/// The DVFS controller solves `Freq_opt = N_cycles / (T − T_elapsed)`
/// exactly, so a feasible sentence's modeled finish time lands *on* the
/// target up to f32 V/F-grid rounding; a strict `latency ≤ target`
/// would misclassify those exactly-on-time sentences as violations.
/// The 1e-4 relative tolerance absorbs that grid rounding and nothing
/// more — a real overrun is orders of magnitude larger. Every
/// deadline judgment in the engine, the serving runtimes, and the
/// scheduler goes through this helper so violation rates are computed
/// under one rule regardless of code path.
pub fn deadline_met(latency_s: f64, target_s: f64) -> bool {
    latency_s <= target_s * (1.0 + DEADLINE_REL_TOLERANCE)
}

/// Which inference scheme to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum InferenceMode {
    /// Full-depth inference at nominal V/F.
    Base,
    /// Conventional early exit (Algorithm 1) at nominal V/F.
    ConventionalEe,
    /// EdgeBERT latency-aware inference (Algorithm 2) with DVFS.
    LatencyAware,
}

impl InferenceMode {
    /// All modes, in the paper's Base → EE → LAI order.
    pub fn all() -> [InferenceMode; 3] {
        [
            InferenceMode::Base,
            InferenceMode::ConventionalEe,
            InferenceMode::LatencyAware,
        ]
    }
}

/// The calibrated accuracy-drop tier a request is willing to tolerate
/// (paper §5.1: thresholds are calibrated at 1/2/5 % drops against the
/// full-depth model).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DropTarget {
    /// ≤ 1 % accuracy drop: the conservative tier.
    OnePercent,
    /// ≤ 2 % accuracy drop.
    TwoPercent,
    /// ≤ 5 % accuracy drop: the aggressive tier.
    FivePercent,
}

impl DropTarget {
    /// All tiers, tightest first (the calibration array order).
    pub fn all() -> [DropTarget; 3] {
        [
            DropTarget::OnePercent,
            DropTarget::TwoPercent,
            DropTarget::FivePercent,
        ]
    }

    /// Index into the per-tier calibration arrays.
    pub fn index(self) -> usize {
        match self {
            DropTarget::OnePercent => 0,
            DropTarget::TwoPercent => 1,
            DropTarget::FivePercent => 2,
        }
    }

    /// The tolerated accuracy drop as a fraction.
    pub fn fraction(self) -> f32 {
        match self {
            DropTarget::OnePercent => 0.01,
            DropTarget::TwoPercent => 0.02,
            DropTarget::FivePercent => 0.05,
        }
    }

    /// The tier `notches` steps looser than this one, saturating at the
    /// aggressive [`FivePercent`](DropTarget::FivePercent) tier. The
    /// overload ladder uses this to trade calibrated accuracy for
    /// earlier exits under pressure; zero notches is the identity.
    pub fn degraded(self, notches: u8) -> DropTarget {
        Self::all()[(self.index() + notches as usize).min(Self::all().len() - 1)]
    }
}

/// One tier's calibrated entropy thresholds.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EntropyThresholds {
    /// Threshold for conventional EE (Algorithm 1).
    pub conventional: f32,
    /// Threshold for latency-aware inference (typically lower; §5.1).
    pub latency_aware: f32,
}

impl EntropyThresholds {
    /// Same threshold for both algorithms.
    pub fn uniform(threshold: f32) -> Self {
        Self {
            conventional: threshold,
            latency_aware: threshold,
        }
    }
}

/// One sentence to classify, with its request-scoped service levels.
///
/// `latency_target_s` and `drop_target` override the engine defaults
/// when set; a request built with [`InferenceRequest::new`] inherits
/// both from the engine that serves it.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct InferenceRequest {
    /// Token ids of the sentence.
    pub tokens: Vec<u32>,
    /// Inference scheme to run.
    pub mode: InferenceMode,
    /// Per-request latency deadline, seconds (None → engine default).
    pub latency_target_s: Option<f64>,
    /// Per-request accuracy-drop tier (None → engine default).
    pub drop_target: Option<DropTarget>,
    /// Time this request already spent queued before reaching the
    /// engine, seconds. The engine deducts it from the latency target
    /// before sizing the DVFS compute budget, so voltage/frequency
    /// scaling sees the *true remaining slack* rather than the full
    /// target, and judges the deadline on `elapsed + compute`. Zero
    /// (the default) reproduces unqueued serving bit for bit.
    pub elapsed_queue_s: f64,
    /// How many accuracy-tier notches the overload ladder may degrade
    /// this request by when its lane is under pressure (see
    /// [`crate::overload`]). Zero — the default — means *never*: the
    /// request is always served at its requested tier and thresholds,
    /// bit-identical to pre-overload behavior, whatever the ladder
    /// does.
    pub max_degradation: u8,
    /// Power envelope this request's DVFS decisions must fit under,
    /// watts of sustained compute draw (`None` → unconstrained, the
    /// default). A serving front-end running fleet energy budgeting
    /// ([`crate::energy`]) stamps the lane's per-shard allowance here
    /// at pop time. The envelope bounds only the *operating point*
    /// (the `cap_w` of [`InferenceBackend::decide`]);
    /// the deadline verdict still judges the request's own target, so
    /// an envelope that forbids the deadline-meeting point surfaces as
    /// deadline risk rather than a silently re-priced budget.
    pub envelope_w: Option<f64>,
}

// Hand-written (not derived) so the serving-layer stamps stay optional
// on the wire: requests serialized before `elapsed_queue_s` existed —
// or sent by clients that have no business knowing about queues —
// parse with a zero stamp instead of failing on the missing field, and
// keys this build does not know are ignored.
impl serde::Deserialize for InferenceRequest {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        Ok(Self {
            tokens: serde::Deserialize::from_value(value.field("tokens")?)?,
            mode: serde::Deserialize::from_value(value.field("mode")?)?,
            latency_target_s: serde::Deserialize::from_value(value.field("latency_target_s")?)?,
            drop_target: serde::Deserialize::from_value(value.field("drop_target")?)?,
            elapsed_queue_s: match value.field("elapsed_queue_s") {
                Ok(stamp) => serde::Deserialize::from_value(stamp)?,
                Err(_) => 0.0,
            },
            max_degradation: match value.field("max_degradation") {
                Ok(floor) => serde::Deserialize::from_value(floor)?,
                Err(_) => 0,
            },
            envelope_w: match value.field("envelope_w") {
                Ok(envelope) => serde::Deserialize::from_value(envelope)?,
                Err(_) => None,
            },
        })
    }
}

impl InferenceRequest {
    /// Latency-aware request inheriting the engine's deadline and tier.
    pub fn new(tokens: Vec<u32>) -> Self {
        Self {
            tokens,
            mode: InferenceMode::LatencyAware,
            latency_target_s: None,
            drop_target: None,
            elapsed_queue_s: 0.0,
            max_degradation: 0,
            envelope_w: None,
        }
    }

    /// Sets the inference scheme.
    pub fn with_mode(mut self, mode: InferenceMode) -> Self {
        self.mode = mode;
        self
    }

    /// Sets a per-request latency deadline.
    pub fn with_latency_target(mut self, seconds: f64) -> Self {
        self.latency_target_s = Some(seconds);
        self
    }

    /// Sets a per-request accuracy-drop tier.
    pub fn with_drop_target(mut self, drop: DropTarget) -> Self {
        self.drop_target = Some(drop);
        self
    }

    /// Records time already spent queued (seconds). Serving front-ends
    /// measure the wait between admission and dispatch and stamp it
    /// here, so the engine budgets DVFS against the remaining slack.
    pub fn with_elapsed_queue_s(mut self, seconds: f64) -> Self {
        self.elapsed_queue_s = seconds;
        self
    }

    /// The one dispatch-time stamping rule, shared by the wall-clock
    /// lanes and the virtual-timeline drain (paper §5.2 / Alg. 2: V/F
    /// is decided once per sentence, at dispatch, against
    /// `T − T_elapsed`).
    ///
    /// `charged_wait_s` is the wait the front-end charges to the DVFS
    /// budget on top of the submitter's pre-stamp — zero when it is
    /// slack-blind or declared the wait measurement noise. The stamp
    /// is rewritten only if it grew, so an uncharged request is served
    /// exactly as submitted. Returns the stamp to serve under and the
    /// elapsed queue time its budget is charged with.
    pub(crate) fn stamp_at_dispatch(&self, charged_wait_s: f64) -> (f64, f64) {
        let pre_stamp_s = self.effective_elapsed_queue_s();
        let budgeted_s = pre_stamp_s + charged_wait_s;
        let stamp_s = if budgeted_s > pre_stamp_s {
            budgeted_s
        } else {
            self.elapsed_queue_s
        };
        (stamp_s, budgeted_s)
    }

    /// [`stamp_at_dispatch`](Self::stamp_at_dispatch) written into an
    /// owned request (the wall-clock lanes' pop path).
    pub(crate) fn stamped_at_dispatch(self, charged_wait_s: f64) -> (Self, f64) {
        let (stamp_s, budgeted_s) = self.stamp_at_dispatch(charged_wait_s);
        (self.with_elapsed_queue_s(stamp_s), budgeted_s)
    }

    /// Allows the overload ladder to degrade this request by up to
    /// `notches` accuracy tiers under pressure (see
    /// [`max_degradation`](Self::max_degradation)). The default of zero
    /// forbids any degradation.
    pub fn with_max_degradation(mut self, notches: u8) -> Self {
        self.max_degradation = notches;
        self
    }

    /// Caps this request's DVFS power draw at `watts` (see
    /// [`envelope_w`](Self::envelope_w)). Serving front-ends running
    /// fleet energy budgeting stamp the lane's per-shard allowance here
    /// at pop time.
    pub fn with_envelope_w(mut self, watts: f64) -> Self {
        self.envelope_w = Some(watts);
        self
    }

    /// The queueing delay as the engine will account it: non-finite or
    /// negative stamps sanitize to zero rather than poisoning the DVFS
    /// budget (requests arrive from the wire).
    pub fn effective_elapsed_queue_s(&self) -> f64 {
        sanitized_queue_s(self.elapsed_queue_s)
    }

    /// The power envelope as the engine will apply it: non-finite
    /// envelopes sanitize to `None` (unconstrained); a negative
    /// envelope clamps to zero watts (the backend's floor point — the
    /// clock never stalls). Requests arrive from the wire.
    pub fn effective_envelope_w(&self) -> Option<f64> {
        match self.envelope_w {
            Some(w) if w.is_finite() => Some(w.max(0.0)),
            _ => None,
        }
    }
}

/// A queueing stamp as the engine accounts it (see
/// [`InferenceRequest::effective_elapsed_queue_s`]).
pub(crate) fn sanitized_queue_s(stamp_s: f64) -> f64 {
    if stamp_s.is_finite() && stamp_s > 0.0 {
        stamp_s
    } else {
        0.0
    }
}

/// Per-sentence outcome.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SentenceResult {
    /// Scheme used.
    pub mode: InferenceMode,
    /// Layer at which inference stopped (1-based).
    pub exit_layer: usize,
    /// Predictor forecast (LAI only).
    pub predicted_layer: Option<usize>,
    /// Predicted class at the exit layer.
    pub prediction: usize,
    /// End-to-end latency, seconds (embedding read + compute +
    /// regulator/clock transitions).
    pub latency_s: f64,
    /// Energy, joules.
    pub energy_j: f64,
    /// Supply voltage used for layers after the DVFS decision.
    pub voltage: f32,
    /// Clock frequency used after the DVFS decision, Hz.
    pub freq_hz: f64,
    /// Whether the sentence met the latency target (always true for the
    /// unbounded Base/EE modes).
    pub deadline_met: bool,
}

/// The outcome of serving one [`InferenceRequest`], echoing the service
/// levels that were actually applied after default resolution.
///
/// Unlike the bare `run` engine method — where Base/EE are the
/// paper's unbounded baselines and always report `deadline_met = true`
/// — a response's `result.deadline_met` is judged against
/// `latency_target_s` for every mode.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InferenceResponse {
    /// The per-sentence result.
    pub result: SentenceResult,
    /// The latency target the request was served under, seconds.
    pub latency_target_s: f64,
    /// The accuracy-drop tier the request was served under.
    pub drop_target: DropTarget,
}

/// Aggregate statistics over a dataset.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AggregateResult {
    /// Classification accuracy.
    pub accuracy: f32,
    /// Mean exit layer.
    pub avg_exit_layer: f32,
    /// Mean predicted exit layer (LAI; equals exit layer otherwise).
    pub avg_predicted_layer: f32,
    /// Mean per-sentence energy, joules.
    pub avg_energy_j: f64,
    /// Mean per-sentence latency, seconds.
    pub avg_latency_s: f64,
    /// Mean post-decision supply voltage, volts.
    pub avg_voltage: f32,
    /// Mean post-decision clock frequency, Hz.
    pub avg_freq_hz: f64,
    /// Fraction of sentences that missed the latency target.
    pub deadline_miss_rate: f32,
}

impl AggregateResult {
    /// Folds per-sentence results against gold labels. Results and
    /// labels are reduced in index order, so the aggregate is identical
    /// no matter how the results were produced (sequentially or across
    /// worker threads).
    pub fn from_results(results: &[SentenceResult], labels: &[usize]) -> Self {
        assert_eq!(results.len(), labels.len(), "one label per result");
        let mut hits = 0usize;
        let mut exit_sum = 0.0f32;
        let mut pred_sum = 0.0f32;
        let mut energy = 0.0f64;
        let mut latency = 0.0f64;
        let mut volts = 0.0f32;
        let mut freq = 0.0f64;
        let mut misses = 0usize;
        for (r, &label) in results.iter().zip(labels) {
            if r.prediction == label {
                hits += 1;
            }
            exit_sum += r.exit_layer as f32;
            pred_sum += r.predicted_layer.unwrap_or(r.exit_layer) as f32;
            energy += r.energy_j;
            latency += r.latency_s;
            volts += r.voltage;
            freq += r.freq_hz;
            if !r.deadline_met {
                misses += 1;
            }
        }
        let n = results.len().max(1) as f64;
        AggregateResult {
            accuracy: hits as f32 / n as f32,
            avg_exit_layer: exit_sum / n as f32,
            avg_predicted_layer: pred_sum / n as f32,
            avg_energy_j: energy / n,
            avg_latency_s: latency / n,
            avg_voltage: volts / n as f32,
            avg_freq_hz: freq / n,
            deadline_miss_rate: misses as f32 / n as f32,
        }
    }
}

/// Fluent construction of an [`EdgeBertEngine`] — every knob of the old
/// seven-positional-argument constructor, plus the request defaults,
/// settable independently.
///
/// ```no_run
/// use edgebert::engine::{DropTarget, EngineBuilder, EntropyThresholds};
/// use edgebert_hw::{AcceleratorConfig, WorkloadParams};
/// # fn demo(model: std::sync::Arc<edgebert_model::AlbertModel>,
/// #         lut: std::sync::Arc<edgebert::predictor::PredictorLut>) {
/// let engine = EngineBuilder::new(model, lut)
///     .accelerator(AcceleratorConfig::energy_optimal())
///     .workload(WorkloadParams::albert_base())
///     .uniform_thresholds(EntropyThresholds { conventional: 0.3, latency_aware: 0.25 })
///     .latency_target(50e-3)
///     .drop_target(DropTarget::OnePercent)
///     .build();
/// # let _ = engine;
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct EngineBuilder {
    model: Arc<AlbertModel>,
    lut: Arc<PredictorLut>,
    accel: AcceleratorConfig,
    workload: WorkloadParams,
    cell_tech: CellTech,
    envm_capacity_mb: f64,
    backend: BackendSpec,
    thresholds: [EntropyThresholds; 3],
    default_latency_target_s: f64,
    default_drop: DropTarget,
}

impl EngineBuilder {
    /// Starts a builder with the paper's defaults: the energy-optimal
    /// accelerator (`n = 16`), the unoptimized ALBERT-base workload, a
    /// 2 MB MLC2 ReRAM embedding buffer, a 0.2-entropy threshold on
    /// every tier, a 50 ms default deadline (the voice-assistant budget
    /// of §1), and the 1 %-drop default tier.
    pub fn new(model: Arc<AlbertModel>, lut: Arc<PredictorLut>) -> Self {
        Self {
            model,
            lut,
            accel: AcceleratorConfig::energy_optimal(),
            workload: WorkloadParams::albert_base(),
            cell_tech: CellTech::Mlc2,
            envm_capacity_mb: 2.0,
            backend: BackendSpec::Accelerator,
            thresholds: [EntropyThresholds::uniform(0.2); 3],
            default_latency_target_s: 50e-3,
            default_drop: DropTarget::OnePercent,
        }
    }

    /// Sets the accelerator design point.
    pub fn accelerator(mut self, accel: AcceleratorConfig) -> Self {
        self.accel = accel;
        self
    }

    /// Sets the hardware workload shapes.
    pub fn workload(mut self, workload: WorkloadParams) -> Self {
        self.workload = workload;
        self
    }

    /// The hardware workload currently wired into the builder — the
    /// shapes any engine built from it will cost against.
    pub fn workload_params(&self) -> &WorkloadParams {
        &self.workload
    }

    /// Sets the eNVM cell technology and capacity backing the embedding
    /// buffer.
    pub fn envm_cell(mut self, tech: CellTech, capacity_mb: f64) -> Self {
        self.cell_tech = tech;
        self.envm_capacity_mb = capacity_mb;
        self
    }

    /// Selects the hardware backend the engine costs against. The
    /// default, [`BackendSpec::Accelerator`], assembles the paper's
    /// accelerator from the builder's wired accelerator config,
    /// workload, and eNVM cell; [`BackendSpec::MobileGpu`] costs the
    /// same wired workload on the mobile-GPU comparison baseline.
    pub fn backend(mut self, backend: BackendSpec) -> Self {
        self.backend = backend;
        self
    }

    /// Sets one tier's calibrated entropy thresholds.
    pub fn thresholds_for(mut self, tier: DropTarget, thresholds: EntropyThresholds) -> Self {
        self.thresholds[tier.index()] = thresholds;
        self
    }

    /// Sets the same thresholds on every tier (single-operating-point
    /// engines, e.g. unit fixtures).
    pub fn uniform_thresholds(mut self, thresholds: EntropyThresholds) -> Self {
        self.thresholds = [thresholds; 3];
        self
    }

    /// Loads all three tiers from calibration results (1/2/5 % order, as
    /// produced by the pipeline).
    pub fn calibrated_thresholds(
        mut self,
        conventional: [f32; 3],
        latency_aware: [f32; 3],
    ) -> Self {
        for i in 0..3 {
            self.thresholds[i] = EntropyThresholds {
                conventional: conventional[i],
                latency_aware: latency_aware[i],
            };
        }
        self
    }

    /// Sets the default per-sentence latency target for requests that
    /// carry none.
    pub fn latency_target(mut self, seconds: f64) -> Self {
        self.default_latency_target_s = seconds;
        self
    }

    /// Sets the default accuracy-drop tier for requests that carry none.
    pub fn drop_target(mut self, drop: DropTarget) -> Self {
        self.default_drop = drop;
        self
    }

    /// Builds the engine.
    pub fn build(self) -> EdgeBertEngine {
        let backend: Arc<dyn InferenceBackend> = match self.backend {
            BackendSpec::Accelerator => Arc::new(AcceleratorBackend::new(
                self.accel,
                &self.workload,
                self.cell_tech,
                self.envm_capacity_mb,
            )),
            BackendSpec::MobileGpu(gpu) => {
                Arc::new(MobileGpuBackend::from_workload(gpu, &self.workload))
            }
        };
        let layer_cycles = backend.layer_cycles();
        EdgeBertEngine {
            model: self.model,
            lut: self.lut,
            backend,
            layer_cycles,
            workload: Arc::new(self.workload),
            thresholds: self.thresholds,
            default_latency_target_s: self.default_latency_target_s,
            default_drop: self.default_drop,
        }
    }
}

/// The engine: software model + predictor LUT + hardware backend.
///
/// Owns its model, LUT, and [`InferenceBackend`] (via [`Arc`]), so it
/// is `Send + 'static`: build once, move into worker threads, or clone
/// cheaply — the shared weights and backend are reference-counted.
#[derive(Debug, Clone)]
pub struct EdgeBertEngine {
    model: Arc<AlbertModel>,
    lut: Arc<PredictorLut>,
    backend: Arc<dyn InferenceBackend>,
    layer_cycles: u64,
    /// Shared like the weights: every session clones its engine, and
    /// the span table must not be copied per sentence.
    workload: Arc<WorkloadParams>,
    thresholds: [EntropyThresholds; 3],
    default_latency_target_s: f64,
    default_drop: DropTarget,
}

// The serving API hands `&EdgeBertEngine` to scoped worker threads and
// moves owned engines into pools; both require Send + Sync + 'static.
const _: () = {
    const fn assert_send_sync<T: Send + Sync + 'static>() {}
    assert_send_sync::<EdgeBertEngine>();
};

impl EdgeBertEngine {
    /// Starts a builder (see [`EngineBuilder`]).
    pub fn builder(model: Arc<AlbertModel>, lut: Arc<PredictorLut>) -> EngineBuilder {
        EngineBuilder::new(model, lut)
    }

    /// Cycles of one encoder layer on this hardware configuration.
    pub fn layer_cycles(&self) -> u64 {
        self.layer_cycles
    }

    /// The hardware backend this engine costs inferences against.
    pub fn backend(&self) -> &dyn InferenceBackend {
        self.backend.as_ref()
    }

    /// The predictor LUT the LAI forecast indexes.
    pub(crate) fn lut(&self) -> &PredictorLut {
        &self.lut
    }

    /// A pessimistic estimate of one sentence's nominal-V/F service
    /// time on this engine, seconds: the fixed per-sentence costs plus
    /// a full-depth pass at the nominal point, plus the worst-case
    /// transition reserve. The overload ladder's feasibility test
    /// sizes its service slots with it.
    pub fn nominal_service_estimate_s(&self) -> f64 {
        let b = self.backend.as_ref();
        b.sentence_overhead().seconds
            + b.wake_transition_s()
            + b.embedding_read_cost().seconds
            + b.run_layers_nominal(self.model.num_layers()).seconds
            + b.floor_transition_s()
    }

    /// The op-level accelerator simulator, when the engine runs on the
    /// accelerator backend (`None` on the mGPU baseline).
    pub fn accelerator_sim(&self) -> Option<&AcceleratorSim> {
        self.backend.as_accelerator()
    }

    /// The hardware workload shapes the engine's backend was built on.
    pub fn workload_params(&self) -> &WorkloadParams {
        &self.workload
    }

    /// The model served by this engine.
    pub fn model(&self) -> &AlbertModel {
        &self.model
    }

    /// The default latency target applied to requests that carry none.
    pub fn default_latency_target_s(&self) -> f64 {
        self.default_latency_target_s
    }

    /// The default accuracy-drop tier applied to requests that carry
    /// none.
    pub fn default_drop_target(&self) -> DropTarget {
        self.default_drop
    }

    /// The calibrated thresholds of one tier.
    pub fn thresholds(&self, tier: DropTarget) -> EntropyThresholds {
        self.thresholds[tier.index()]
    }

    /// Serves one request, resolving unset service levels against the
    /// engine defaults. Equivalent to
    /// [`begin`](Self::begin)`(request).finish()` — one resumable
    /// session driven to completion without ever parking.
    ///
    /// Requests arrive from the wire, so degenerate token lists must not
    /// take the engine down: an empty sentence is served as a single
    /// padding token, out-of-vocabulary ids map to the padding token,
    /// and over-long sequences truncate to the model's position table —
    /// rather than panicking inside the embedding lookup (which, on a
    /// pooled worker thread, would hang the worker's whole lane).
    ///
    /// A request stamped with [`InferenceRequest::with_elapsed_queue_s`]
    /// is served against its *remaining* slack: the DVFS budget shrinks
    /// by the queueing delay and the deadline verdict judges
    /// `elapsed + compute` against the target. A zero stamp (the
    /// default) is bit-identical to unqueued serving.
    pub fn serve(&self, request: &InferenceRequest) -> InferenceResponse {
        self.begin(request).finish()
    }

    /// Opens a resumable, layer-granular session over one request (see
    /// [`InferenceSession`]): service levels resolve against the engine
    /// defaults, wire tokens sanitize exactly as in
    /// [`serve`](Self::serve), and garbage queue stamps sanitize to
    /// zero. Each
    /// [`step`](InferenceSession::step) executes one encoder layer;
    /// the session can be parked at any layer boundary and resumed
    /// later — with a fresh DVFS decision against the remaining slack.
    pub fn begin(&self, request: &InferenceRequest) -> InferenceSession {
        self.begin_degraded(request, Degradation::NONE)
    }

    /// The one session opener: [`begin`](Self::begin) with an
    /// overload-ladder degradation — the resolved tier drops by
    /// `degradation.tier_notches` (saturating) and the entropy-exit
    /// threshold scales by `degradation.entropy_scale` before the
    /// session opens ([`Degradation::NONE`] is the identity on both,
    /// bit for bit). The caller (the serving layer) is responsible for
    /// bounding the degradation by the request's
    /// [`max_degradation`](InferenceRequest::max_degradation) via
    /// [`OverloadConfig::degradation_for`](crate::overload::OverloadConfig::degradation_for).
    pub fn begin_degraded(
        &self,
        request: &InferenceRequest,
        degradation: Degradation,
    ) -> InferenceSession {
        let pad = [edgebert_tasks::vocab::PAD];
        let tokens: &[u32] = if request.tokens.is_empty() {
            &pad
        } else {
            &request.tokens
        };
        let vocab = self.model.config.vocab_size as u32;
        let max_len = self.model.config.max_seq_len;
        let sanitized: Vec<u32>;
        let tokens: &[u32] = if tokens.len() > max_len || tokens.iter().any(|&t| t >= vocab) {
            sanitized = tokens
                .iter()
                .take(max_len)
                .map(|&t| {
                    if t >= vocab {
                        edgebert_tasks::vocab::PAD
                    } else {
                        t
                    }
                })
                .collect();
            &sanitized
        } else {
            tokens
        };
        let fwd = self.model.begin_forward(tokens);
        InferenceSession::new(self.clone(), request, fwd, degradation)
    }

    /// The replay opener: a session over `request`'s service levels,
    /// stamped with `charged_wait_s` by the one dispatch rule, that
    /// reads its layers off `trace` (recorded from the same request by
    /// [`InferenceSession::into_forward_trace`]) — no tokens are
    /// touched, no forward pass begins, and the exit rule, the DVFS
    /// decision and the pricing are the live session's own code.
    pub(crate) fn begin_replay(
        &self,
        request: &InferenceRequest,
        charged_wait_s: f64,
        trace: ForwardTrace,
    ) -> InferenceSession {
        let (stamp_s, _) = request.stamp_at_dispatch(charged_wait_s);
        InferenceSession::new(self.clone(), request, Default::default(), Degradation::NONE)
            .replaying(trace, stamp_s)
    }

    /// Rebinds a serialized
    /// [`SessionCheckpoint`](crate::session::SessionCheckpoint) to this
    /// engine and returns the parked session, ready to
    /// [`resume`](InferenceSession::resume) — charging the wall time
    /// the envelope spent in transit against the sentence's slack,
    /// exactly as an in-process park would. With an engine built from
    /// the same model, LUT, and backend configuration as the
    /// checkpointing one, `park → checkpoint → restore → resume` is
    /// bit-identical to `park → resume`.
    ///
    /// # Panics
    ///
    /// Panics when the checkpoint's model depth or hidden-state width
    /// does not match this engine's (see
    /// [`InferenceSession::checkpoint`]).
    pub fn restore_session(
        &self,
        checkpoint: crate::session::SessionCheckpoint,
    ) -> InferenceSession {
        InferenceSession::restore(self.clone(), checkpoint)
    }

    /// Runs a sentence in the requested mode at the engine defaults: a
    /// session opened by [`begin`](Self::begin) and driven to
    /// completion. Base and conventional EE stay the paper's unbounded
    /// baselines (`deadline_met` is always `true`); only latency-aware
    /// inference is judged against the latency target.
    pub fn run(&self, tokens: &[u32], mode: InferenceMode) -> SentenceResult {
        let request = InferenceRequest::new(tokens.to_vec()).with_mode(mode);
        self.begin(&request).run_to_completion()
    }

    /// Serves a batch of requests across worker threads
    /// (`std::thread::scope`), preserving request order in the returned
    /// responses.
    pub fn serve_batch(&self, requests: &[InferenceRequest]) -> Vec<InferenceResponse> {
        run_chunked(requests, default_threads(requests.len()), |req| {
            self.serve(req)
        })
    }

    /// Runs a whole dataset and aggregates, fanning the sentences out
    /// across worker threads. The aggregate is bit-identical to a
    /// sequential run: per-sentence results land in their dataset
    /// slots and are reduced in index order.
    pub fn evaluate(&self, data: &Dataset, mode: InferenceMode) -> AggregateResult {
        self.evaluate_with_threads(data, mode, default_threads(data.len()))
    }

    /// [`evaluate`](Self::evaluate) with an explicit thread count
    /// (1 → fully sequential, on the calling thread).
    pub fn evaluate_with_threads(
        &self,
        data: &Dataset,
        mode: InferenceMode,
        threads: usize,
    ) -> AggregateResult {
        let results = run_chunked(data.examples(), threads, |ex| self.run(&ex.tokens, mode));
        AggregateResult::from_results(&results, &data.labels())
    }

    /// Evaluates every mode over a dataset: the per-mode aggregate
    /// breakdown the paper's comparison bars are built from.
    pub fn evaluate_modes(&self, data: &Dataset) -> [(InferenceMode, AggregateResult); 3] {
        InferenceMode::all().map(|mode| (mode, self.evaluate(data, mode)))
    }

    /// The mGPU baseline backend for this engine's wired workload. An
    /// engine already running on a mobile-GPU backend reuses it (its
    /// own anchor, not the default), so the comparison rows can never
    /// price a different GPU than the engine serves; otherwise the
    /// TX2-anchored baseline is derived via
    /// [`MobileGpuBackend::from_workload`].
    pub fn mgpu_baseline(&self) -> MobileGpuBackend {
        match self.backend.as_mobile_gpu() {
            Some(gpu) => gpu.clone(),
            None => MobileGpuBackend::from_workload(MobileGpu::default(), &self.workload),
        }
    }
}

/// The hardware workload shapes for one task, optionally with its
/// published optimization results applied (Table 1 spans, Table 3
/// encoder sparsity). The single source of the task → workload mapping
/// used by both the training pipeline and the serving runtimes.
pub fn task_hardware_workload(task: edgebert_tasks::Task, optimized: bool) -> WorkloadParams {
    let mut wl = WorkloadParams::albert_base();
    wl.classes = task.num_classes();
    if optimized {
        wl = wl.with_optimizations(task.paper_encoder_sparsity(), &task.paper_head_spans());
    }
    wl
}

/// Worker-thread count for a work list: one slot per item, capped at
/// the machine's parallelism. The `EDGEBERT_THREADS` environment
/// variable overrides the machine parallelism (CI forces `1` to check
/// the chunked/scheduled paths against sequential aggregates).
pub(crate) fn default_threads(items: usize) -> usize {
    let parallelism = std::env::var("EDGEBERT_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        });
    parallelism.min(items.max(1))
}

/// Maps `f` over `items` across `threads` scoped workers, each filling a
/// contiguous chunk of the output so the result order matches the input
/// order exactly.
pub(crate) fn run_chunked<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    if items.is_empty() {
        return Vec::new();
    }
    let threads = threads.clamp(1, items.len());
    if threads == 1 {
        return items.iter().map(f).collect();
    }
    let chunk = items.len().div_ceil(threads);
    let mut results: Vec<Option<R>> = Vec::with_capacity(items.len());
    results.resize_with(items.len(), || None);
    std::thread::scope(|scope| {
        for (slots, chunk_items) in results.chunks_mut(chunk).zip(items.chunks(chunk)) {
            let f = &f;
            scope.spawn(move || {
                for (slot, item) in slots.iter_mut().zip(chunk_items) {
                    *slot = Some(f(item));
                }
            });
        }
    });
    results
        .into_iter()
        .map(|r| r.expect("every chunk slot is filled by its worker"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calibrate::SweepCache;
    use crate::predictor::EntropyPredictor;
    use edgebert_model::{AlbertConfig, AlbertModel};
    use edgebert_tasks::{Task, TaskGenerator, VocabLayout};
    use edgebert_tensor::Rng;

    struct Fixture {
        model: Arc<AlbertModel>,
        lut: Arc<PredictorLut>,
        data: Dataset,
    }

    fn fixture() -> Fixture {
        let layout = VocabLayout::standard();
        let cfg = AlbertConfig::tiny(layout.vocab_size(), 2);
        let mut rng = Rng::seed_from(10);
        let model = AlbertModel::pretrained(cfg, &layout, &mut rng);
        let gen = TaskGenerator::standard(Task::Sst2, cfg.max_seq_len);
        let data = gen.generate(24, 5);
        let cache = SweepCache::build(&model, &data);
        let pred = EntropyPredictor::train(&cache.entropy_dataset(), 60, 3);
        let lut = pred.to_lut(32, 1.1);
        Fixture {
            model: Arc::new(model),
            lut: Arc::new(lut),
            data,
        }
    }

    /// A latency-aware request with explicit service levels.
    fn lai_request(tokens: &[u32], target_s: f64, drop: DropTarget) -> InferenceRequest {
        InferenceRequest::new(tokens.to_vec())
            .with_latency_target(target_s)
            .with_drop_target(drop)
    }

    fn run(eng: &EdgeBertEngine, request: InferenceRequest) -> SentenceResult {
        eng.begin(&request).run_to_completion()
    }

    fn engine(f: &Fixture, target_s: f64, et: f32) -> EdgeBertEngine {
        EngineBuilder::new(Arc::clone(&f.model), Arc::clone(&f.lut))
            .accelerator(AcceleratorConfig::energy_optimal())
            .workload(WorkloadParams::albert_base())
            .uniform_thresholds(EntropyThresholds::uniform(et))
            .latency_target(target_s)
            .build()
    }

    #[test]
    fn deadline_tolerance_is_pinned() {
        // The one deadline rule: latency ≤ target · (1 + 1e-4). Half the
        // tolerance passes, double it fails — pinning the semantics so a
        // drive-by edit can't silently reshape every violation rate.
        assert_eq!(DEADLINE_REL_TOLERANCE, 1e-4);
        for target in [1e-6, 50e-3, 2.0] {
            assert!(deadline_met(target, target));
            assert!(deadline_met(target * (1.0 + 0.5e-4), target));
            assert!(!deadline_met(target * (1.0 + 2.0e-4), target));
        }
        assert!(deadline_met(0.0, 0.0));
        assert!(!deadline_met(1e-9, 0.0));
    }

    #[test]
    fn all_paths_judge_deadlines_identically() {
        // Regression: the layer-1 exit path used strict `<=`, the DVFS
        // path used `target * 1.0001`, and `serve()` re-judged Base/EE
        // strictly. All three must now agree with `deadline_met`.
        let f = fixture();
        let tokens = f.data.examples()[0].tokens.clone();

        // Layer-1 exit path (huge threshold exits immediately).
        let eng = engine(&f, 50e-3, 100.0);
        let r = eng.run(&tokens, InferenceMode::LatencyAware);
        assert_eq!(r.exit_layer, 1);
        let on_time = run(
            &eng,
            lai_request(&tokens, r.latency_s, DropTarget::OnePercent),
        );
        assert!(on_time.deadline_met, "exactly-on-time layer-1 exit is met");
        let edge = r.latency_s / (1.0 + 0.5e-4);
        assert_eq!(
            run(&eng, lai_request(&tokens, edge, DropTarget::OnePercent)).deadline_met,
            deadline_met(r.latency_s, edge),
        );

        // DVFS path (et = 0 never exits early).
        let eng = engine(&f, 50e-3, 0.0);
        let r = eng.run(&tokens, InferenceMode::LatencyAware);
        assert!(r.exit_layer > 1);
        assert_eq!(r.deadline_met, deadline_met(r.latency_s, 50e-3));

        // serve() re-judging the unbounded Base baseline.
        let base = eng.run(&tokens, InferenceMode::Base);
        for target in [base.latency_s, base.latency_s / (1.0 + 2.0e-4)] {
            let resp = eng.serve(
                &InferenceRequest::new(tokens.clone())
                    .with_mode(InferenceMode::Base)
                    .with_latency_target(target),
            );
            assert_eq!(
                resp.result.deadline_met,
                deadline_met(base.latency_s, target)
            );
        }
    }

    #[test]
    fn builder_reports_wired_workload() {
        let f = fixture();
        let mut custom = WorkloadParams::albert_base();
        custom.seq_len = 64;
        custom.weight_density = 0.25;
        let b =
            EngineBuilder::new(Arc::clone(&f.model), Arc::clone(&f.lut)).workload(custom.clone());
        assert_eq!(b.workload_params(), &custom);
    }

    #[test]
    fn base_runs_all_layers_at_nominal() {
        let f = fixture();
        let eng = engine(&f, 50e-3, 0.2);
        let r = eng.run(&f.data.examples()[0].tokens, InferenceMode::Base);
        assert_eq!(r.exit_layer, 4);
        assert_eq!(r.voltage, 0.8);
        assert!(r.deadline_met);
        assert!(r.energy_j > 0.0);
    }

    #[test]
    fn ee_exits_at_or_before_base() {
        let f = fixture();
        let eng = engine(&f, 50e-3, 10.0); // huge threshold: exit at 1
        for ex in f.data.iter().take(5) {
            let r = eng.run(&ex.tokens, InferenceMode::ConventionalEe);
            assert_eq!(r.exit_layer, 1);
            let b = eng.run(&ex.tokens, InferenceMode::Base);
            assert!(r.energy_j < b.energy_j);
            assert!(r.latency_s < b.latency_s);
        }
    }

    #[test]
    fn latency_aware_scales_voltage_down_with_loose_target() {
        let f = fixture();
        // Loose 200 ms target: remaining layers can run slow.
        let eng = engine(&f, 200e-3, 0.0); // et=0: never exits early
        let r = eng.run(&f.data.examples()[0].tokens, InferenceMode::LatencyAware);
        assert!(r.voltage < 0.8, "voltage {}", r.voltage);
        assert!(r.deadline_met);
        assert!(r.latency_s <= 200e-3 * 1.001);
    }

    #[test]
    fn latency_aware_beats_ee_energy_at_same_exit() {
        let f = fixture();
        let eng = engine(&f, 100e-3, 0.0);
        for ex in f.data.iter().take(6) {
            let lai = eng.run(&ex.tokens, InferenceMode::LatencyAware);
            let ee = eng.run(&ex.tokens, InferenceMode::ConventionalEe);
            if lai.exit_layer == ee.exit_layer && lai.voltage < 0.8 {
                assert!(
                    lai.energy_j < ee.energy_j,
                    "LAI {} vs EE {}",
                    lai.energy_j,
                    ee.energy_j
                );
            }
        }
    }

    #[test]
    fn impossible_target_is_flagged() {
        let f = fixture();
        // 1 µs target: infeasible even at nominal.
        let eng = engine(&f, 1e-6, 0.0);
        let r = eng.run(&f.data.examples()[0].tokens, InferenceMode::LatencyAware);
        assert!(!r.deadline_met);
        assert_eq!(r.voltage, 0.8); // falls back to max performance
    }

    #[test]
    fn immediate_exit_at_layer_one() {
        let f = fixture();
        let eng = engine(&f, 50e-3, 100.0);
        let r = eng.run(&f.data.examples()[0].tokens, InferenceMode::LatencyAware);
        assert_eq!(r.exit_layer, 1);
        assert_eq!(r.predicted_layer, Some(1));
    }

    #[test]
    fn one_layer_model_completes_at_layer_one_in_every_mode() {
        // Regression: with layer 1 also the last layer, a latency-aware
        // sentence that did not exit clamped its forecast into [2, 1]
        // and panicked — on a shard thread, a dead lane.
        let f = fixture();
        let mut cfg = f.model.config;
        cfg.num_layers = 1;
        let model = AlbertModel::new(cfg, &mut Rng::seed_from(11));
        let eng = EngineBuilder::new(Arc::new(model), Arc::clone(&f.lut))
            .uniform_thresholds(EntropyThresholds::uniform(0.0)) // never exits
            .build();
        let tokens = &f.data.examples()[0].tokens;
        let [base, ee, lai] = InferenceMode::all().map(|mode| eng.run(tokens, mode));
        for r in [&base, &ee, &lai] {
            assert_eq!(r.exit_layer, 1, "mode {:?}", r.mode);
            assert_eq!(r.prediction, base.prediction, "mode {:?}", r.mode);
        }
        assert_eq!(lai.predicted_layer, Some(1));
        let mut session = eng.begin(&InferenceRequest::new(tokens.clone()));
        assert_eq!(session.step(), crate::session::StepOutcome::Done);
    }

    #[test]
    fn evaluate_aggregates_consistently() {
        let f = fixture();
        let eng = engine(&f, 100e-3, 0.3);
        let agg = eng.evaluate(&f.data, InferenceMode::LatencyAware);
        assert!(agg.avg_exit_layer >= 1.0 && agg.avg_exit_layer <= 4.0);
        assert!(agg.avg_predicted_layer + 1e-4 >= agg.avg_exit_layer);
        assert!(agg.avg_energy_j > 0.0);
        assert!((0.0..=1.0).contains(&agg.accuracy));
        assert!((0.0..=1.0).contains(&agg.deadline_miss_rate));
    }

    #[test]
    fn energy_ordering_base_ee_lai() {
        // The paper's headline: Base > EE > LAI in per-sentence energy
        // (with a meaningfully loose latency target).
        let f = fixture();
        let eng = engine(&f, 150e-3, 0.5);
        let base = eng.evaluate(&f.data, InferenceMode::Base);
        let ee = eng.evaluate(&f.data, InferenceMode::ConventionalEe);
        let lai = eng.evaluate(&f.data, InferenceMode::LatencyAware);
        assert!(ee.avg_energy_j <= base.avg_energy_j);
        assert!(lai.avg_energy_j <= ee.avg_energy_j * 1.05);
    }

    #[test]
    fn mgpu_baseline_is_orders_of_magnitude_hungrier() {
        let f = fixture();
        let eng = engine(&f, 50e-3, 0.3);
        let base = eng.evaluate(&f.data, InferenceMode::Base);
        let gpu_energy = eng.mgpu_baseline().full_inference(12).energy_j;
        assert!(gpu_energy / base.avg_energy_j > 10.0);
        // The baseline prices the engine's wired workload: the
        // unoptimized fixture workload has no AAS benefit to transfer.
        assert_eq!(eng.mgpu_baseline().flop_scale(), 1.0);
    }

    #[test]
    fn request_defaults_resolve_against_engine() {
        let f = fixture();
        let eng = engine(&f, 80e-3, 0.3);
        let tokens = f.data.examples()[0].tokens.clone();
        let resp = eng.serve(&InferenceRequest::new(tokens.clone()));
        assert_eq!(resp.latency_target_s, 80e-3);
        assert_eq!(resp.drop_target, DropTarget::OnePercent);
        assert_eq!(resp.result.mode, InferenceMode::LatencyAware);
        // Explicit overrides are echoed back.
        let resp = eng.serve(
            &InferenceRequest::new(tokens)
                .with_mode(InferenceMode::Base)
                .with_latency_target(10e-3)
                .with_drop_target(DropTarget::FivePercent),
        );
        assert_eq!(resp.latency_target_s, 10e-3);
        assert_eq!(resp.drop_target, DropTarget::FivePercent);
        assert_eq!(resp.result.mode, InferenceMode::Base);
    }

    #[test]
    fn per_request_deadlines_pick_different_vf_points() {
        let f = fixture();
        let eng = engine(&f, 50e-3, 0.0); // et=0: full predicted depth
        let tokens = f.data.examples()[0].tokens.clone();
        let tight = eng.serve(&InferenceRequest::new(tokens.clone()).with_latency_target(2e-3));
        let loose = eng.serve(&InferenceRequest::new(tokens).with_latency_target(300e-3));
        assert!(
            loose.result.voltage < tight.result.voltage,
            "loose {} vs tight {}",
            loose.result.voltage,
            tight.result.voltage
        );
        assert!(loose.result.freq_hz < tight.result.freq_hz);
        assert!(loose.result.energy_j < tight.result.energy_j);
    }

    #[test]
    fn drop_tiers_use_their_own_thresholds() {
        let f = fixture();
        let eng = EngineBuilder::new(Arc::clone(&f.model), Arc::clone(&f.lut))
            .thresholds_for(DropTarget::OnePercent, EntropyThresholds::uniform(0.0))
            .thresholds_for(DropTarget::FivePercent, EntropyThresholds::uniform(100.0))
            .latency_target(100e-3)
            .build();
        let tokens = &f.data.examples()[0].tokens;
        let strict = run(&eng, lai_request(tokens, 100e-3, DropTarget::OnePercent));
        let loose = run(&eng, lai_request(tokens, 100e-3, DropTarget::FivePercent));
        // The loose tier's huge threshold exits at layer 1; the strict
        // tier's zero threshold runs to the forecast depth.
        assert_eq!(loose.exit_layer, 1);
        assert!(strict.exit_layer > 1);
    }

    #[test]
    fn parallel_evaluate_matches_sequential_bitwise() {
        let f = fixture();
        let eng = engine(&f, 100e-3, 0.3);
        for mode in InferenceMode::all() {
            let seq = eng.evaluate_with_threads(&f.data, mode, 1);
            for threads in [2, 3, 7, 64] {
                let par = eng.evaluate_with_threads(&f.data, mode, threads);
                assert_eq!(seq, par, "mode {mode:?} threads {threads}");
            }
        }
    }

    #[test]
    fn serve_batch_preserves_request_order() {
        let f = fixture();
        let eng = engine(&f, 100e-3, 0.3);
        let requests: Vec<InferenceRequest> = f
            .data
            .iter()
            .map(|ex| InferenceRequest::new(ex.tokens.clone()))
            .collect();
        let parallel = eng.serve_batch(&requests);
        let sequential: Vec<InferenceResponse> = requests.iter().map(|r| eng.serve(r)).collect();
        assert_eq!(parallel, sequential);
    }

    #[test]
    fn zero_queue_slack_is_bit_identical_to_unqueued_serving() {
        let f = fixture();
        let eng = engine(&f, 60e-3, 0.0); // et=0: the DVFS path always engages
        for ex in f.data.iter().take(6) {
            let req = lai_request(&ex.tokens, 60e-3, DropTarget::OnePercent);
            assert_eq!(
                run(&eng, req.clone().with_elapsed_queue_s(0.0)),
                run(&eng, req)
            );
            for mode in InferenceMode::all() {
                let req = InferenceRequest::new(ex.tokens.clone()).with_mode(mode);
                assert_eq!(
                    eng.serve(&req.clone().with_elapsed_queue_s(0.0)),
                    eng.serve(&req),
                    "mode {mode:?}"
                );
            }
        }
    }

    #[test]
    fn queue_slack_raises_the_operating_point_and_judges_the_sojourn() {
        let f = fixture();
        let eng = engine(&f, 200e-3, 0.0); // et=0: never exits early
        let tokens = f.data.examples()[0].tokens.clone();
        let queued_for = |elapsed_s: f64| {
            let req = lai_request(&tokens, 200e-3, DropTarget::OnePercent);
            run(&eng, req.with_elapsed_queue_s(elapsed_s))
        };
        let fresh = queued_for(0.0);
        assert!(fresh.voltage < 0.8, "loose target scales down");
        // Burn most of the budget in queue: the engine must speed up
        // rather than keep stretching compute into the full target.
        let queued = queued_for(185e-3);
        assert!(
            queued.voltage > fresh.voltage,
            "queued {} V vs fresh {} V",
            queued.voltage,
            fresh.voltage
        );
        assert!(queued.latency_s < fresh.latency_s);
        assert_eq!(
            queued.deadline_met,
            deadline_met(185e-3 + queued.latency_s, 200e-3),
            "verdict is on the sojourn, not compute alone"
        );
        // Queueing past the whole target: compute still runs (at
        // nominal), but the verdict is a violation.
        let hopeless = queued_for(0.3);
        assert!(!hopeless.deadline_met);
        assert_eq!(hopeless.voltage, 0.8);

        // Base/EE responses fold the wait into the verdict too.
        let resp = eng.serve(
            &InferenceRequest::new(tokens.clone())
                .with_mode(InferenceMode::Base)
                .with_latency_target(1.0),
        );
        let base_latency = resp.result.latency_s;
        let queued_resp = eng.serve(
            &InferenceRequest::new(tokens)
                .with_mode(InferenceMode::Base)
                .with_latency_target(1.0)
                .with_elapsed_queue_s(1.0),
        );
        assert!(resp.result.deadline_met);
        assert!(!queued_resp.result.deadline_met);
        assert_eq!(queued_resp.result.latency_s, base_latency);
    }

    #[test]
    #[should_panic(expected = "the exit rule is slack-independent")]
    fn a_replay_never_computes_past_its_trace() {
        // A trace is the entropies of the layers run and one class: no
        // hidden state to step. Replayed under thresholds that would
        // run deeper, it must fail loudly, not compute on nothing.
        let f = fixture();
        let req = InferenceRequest::new(f.data.examples()[0].tokens.clone());
        let trace = engine(&f, 50e-3, 100.0).begin(&req).into_forward_trace();
        assert!(std::mem::size_of::<ForwardTrace>() <= 32);
        assert_eq!(trace.layers(), 1, "4 B of heap a layer: it exited at 1");
        let strict = engine(&f, 50e-3, 0.0);
        strict.begin_replay(&req, 0.0, trace).finish();
    }

    #[test]
    fn wire_garbage_tokens_sanitize_instead_of_panicking() {
        // Out-of-vocabulary ids and over-long sequences arrive from the
        // wire; a panic here would take down a pooled worker thread and
        // hang its lane. serve() maps bad ids to PAD and truncates to
        // the model's position table.
        let f = fixture();
        let eng = engine(&f, 50e-3, 0.3);
        let vocab = f.model.config.vocab_size as u32;
        let max_len = f.model.config.max_seq_len;
        let good = f.data.examples()[0].tokens.clone();

        // Bad ids serve exactly like the PAD-substituted sentence.
        let mut bad = good.clone();
        bad[0] = u32::MAX;
        bad[1] = vocab;
        let mut subst = good.clone();
        subst[0] = edgebert_tasks::vocab::PAD;
        subst[1] = edgebert_tasks::vocab::PAD;
        assert_eq!(
            eng.serve(&InferenceRequest::new(bad)),
            eng.serve(&InferenceRequest::new(subst))
        );

        // Over-long sequences serve exactly like their truncation.
        let long: Vec<u32> = good.iter().cycle().take(max_len + 7).copied().collect();
        let truncated: Vec<u32> = long[..max_len].to_vec();
        assert_eq!(
            eng.serve(&InferenceRequest::new(long)),
            eng.serve(&InferenceRequest::new(truncated))
        );

        // In-range requests take the zero-copy path (covered implicitly:
        // every other serve test would catch a change in results).
        let resp = eng.serve(&InferenceRequest::new(good));
        assert!(resp.result.energy_j > 0.0);
    }

    #[test]
    fn wire_garbage_queue_stamps_sanitize_to_zero() {
        let f = fixture();
        let eng = engine(&f, 50e-3, 0.3);
        let tokens = f.data.examples()[0].tokens.clone();
        let clean = eng.serve(&InferenceRequest::new(tokens.clone()));
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1.0] {
            let req = InferenceRequest::new(tokens.clone()).with_elapsed_queue_s(bad);
            assert_eq!(req.effective_elapsed_queue_s(), 0.0);
            assert_eq!(eng.serve(&req), clean, "stamp {bad}");
        }
    }

    #[test]
    fn engines_move_across_threads() {
        let f = fixture();
        let eng = engine(&f, 50e-3, 0.3);
        let tokens = f.data.examples()[0].tokens.clone();
        let local = eng.run(&tokens, InferenceMode::LatencyAware);
        let remote = std::thread::spawn(move || eng.run(&tokens, InferenceMode::LatencyAware))
            .join()
            .expect("worker thread runs the engine");
        assert_eq!(local, remote);
    }
}
