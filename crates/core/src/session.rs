//! Resumable, layer-granular inference sessions: the execution seam
//! under every serving layer.
//!
//! EdgeBERT's whole design divides per-sentence work at transformer
//! *layer boundaries* — the entropy early-exit check and the DVFS
//! re-budgeting are both layer-granular — yet the engine used to expose
//! only monolithic run-to-completion calls, so a long stretched
//! sentence held its accelerator lane for its entire duration while a
//! tight-deadline arrival sat in queue. [`InferenceSession`] is the
//! redesign: [`EdgeBertEngine::begin`](crate::engine::EdgeBertEngine::begin)
//! opens a session over one request, and each [`step`](InferenceSession::step)
//! executes exactly one encoder layer — software forward (the hidden
//! state lives in the session via [`ForwardSession`]), entropy-exit
//! check, hardware cost accounting — returning a [`StepOutcome`].
//!
//! Sessions are **checkpointable**: [`park`](InferenceSession::park)
//! closes the open hardware segment at the current layer boundary and
//! freezes the session (hidden state + accounting); a later
//! [`resume`](InferenceSession::resume) charges the parked wall time
//! against the sentence's slack, and the next step re-runs the DVFS
//! decision against the *remaining* cycles and *remaining* budget —
//! paper §5.2's `Freq_opt = N_cycles / (T − T_elapsed)` with everything
//! already burned (queueing, completed layers, parked time) deducted.
//! This is what makes the `edgebert::server` lanes preemptive: a worker
//! can park a stretched sentence between layers, serve a tighter
//! arrival, and resume the parked session with a freshly tightened
//! operating point.
//!
//! **One way to run a layer.** Every path (`serve`, the engine's
//! `run*` runners, the server lanes) opens its session through one
//! sanitizing opener, runs each layer through the model's one layer
//! body ([`forward_next_layer`](edgebert_model::AlbertModel::forward_next_layer)),
//! and steps through one of two steppers: latency-aware (Algorithm 2)
//! or nominal V/F (Algorithm 1; Base is the case whose exit test is
//! never taken). Every DVFS decision is the backend's single
//! [`decide`](crate::backend::InferenceBackend::decide), the power
//! envelope a plain cap (infinite when there is none). A scheduler
//! drain's sessions step the same way over a recorded forward pass
//! (`ForwardTrace`) instead of the model.
//!
//! **Bit-identity contract.** A session driven to completion without
//! ever parking reproduces the pre-session monolithic arithmetic bit
//! for bit — the engine's runners are thin drive-to-completion
//! wrappers, and `tests/backend_equivalence.rs` pins them against a
//! direct-hardware oracle. Within one uninterrupted segment the
//! accounting recomputes the segment cost from its start layer at every step
//! (rather than summing per-layer deltas), so the final numbers are
//! exactly the monolithic single-`run_layers` expressions. Parking is
//! *not* free: closing a segment commits its cost, and the resume
//! segment charges a fresh nominal→decision transition — the modeled
//! hardware really does return toward nominal while preempted.

use crate::backend::{OperatingPoint, SegmentCost};
use crate::engine::{
    deadline_met, sanitized_queue_s, DropTarget, EdgeBertEngine, InferenceMode, InferenceRequest,
    InferenceResponse, SentenceResult,
};
use crate::overload;
use crate::telemetry::{SpanRecorder, TraceEventKind};
use edgebert_model::ForwardSession;
use edgebert_tensor::stats::argmax;
use serde::Serialize;

/// Version tag written into every serialized [`SessionCheckpoint`].
/// Bumped when the envelope's field set or semantics change; a reader
/// rejects versions it does not understand instead of resuming a
/// session it would mis-account.
pub const SESSION_CHECKPOINT_VERSION: u32 = 4;

/// What one [`InferenceSession::step`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOutcome {
    /// A layer ran; more remain. The session sits at a layer boundary —
    /// the natural preemption point — and can be parked or stepped.
    Continue,
    /// A layer ran and its off-ramp entropy crossed the exit threshold:
    /// the sentence is complete via early exit.
    Exited,
    /// A layer ran and the session hit its forced stop (the LAI
    /// forecast layer, or full depth for Base/EE): complete.
    Done,
}

/// Lifecycle of an [`InferenceSession`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionState {
    /// Steppable: the next [`step`](InferenceSession::step) runs a
    /// layer.
    Running,
    /// Checkpointed at a layer boundary; call
    /// [`resume`](InferenceSession::resume) before stepping again.
    Parked,
    /// The sentence finished; [`result`](InferenceSession::result) and
    /// [`response`](InferenceSession::response) are available.
    Complete,
}

/// The open hardware segment: a run of layers executed at one operating
/// point since the last DVFS decision.
#[derive(Debug, Clone)]
struct SegmentRun {
    /// Operating point the segment runs at.
    point: OperatingPoint,
    /// Transition cost (nominal → point) charged when the segment
    /// closes, seconds.
    transition_s: f64,
    /// First layer (1-based) of the segment.
    start_layer: usize,
}

/// One sentence's forward pass, recorded: all a stepper reads from the
/// software model. Nothing in it depends on the queueing stamp, which
/// reaches only `open_segment`'s DVFS decision, so a trace recorded
/// from the request as submitted replays under any stamp (see
/// [`crate::scheduler`]).
#[derive(Debug, Clone)]
pub(crate) struct ForwardTrace {
    /// Off-ramp entropy of every layer run (index 0 is layer 1).
    entropies: Box<[f32]>,
    /// Predicted class at the last layer run.
    prediction: usize,
}

impl ForwardTrace {
    /// Layers the recorded sentence ran (4 B of heap each).
    pub(crate) fn layers(&self) -> usize {
        self.entropies.len()
    }
}

/// One sentence's resumable execution state: hidden-state checkpoint,
/// per-layer hardware accounting, and the request's service levels.
///
/// Created by [`EdgeBertEngine::begin`](crate::engine::EdgeBertEngine::begin)
/// (request-scoped, sanitized; the engine's `run*` runners go through
/// it too). Sessions own an engine clone (`Arc` bumps on the
/// shared weights and backend), so they are `Send + 'static` — they can
/// be parked in a shared lane and resumed by a different worker thread.
#[derive(Debug, Clone)]
pub struct InferenceSession {
    engine: EdgeBertEngine,
    /// Everything that survives a checkpoint: service levels, the
    /// hidden state, the exit bookkeeping and the slack accounting.
    /// [`checkpoint`](Self::checkpoint) hands out a copy and
    /// [`restore`](Self::restore) takes one back, so there is no
    /// second field list to keep in step.
    ck: SessionCheckpoint,
    state: SessionState,
    /// The open segment, if a DVFS decision is active.
    segment: Option<SegmentRun>,
    result: Option<SentenceResult>,
    terminal: StepOutcome,
    /// Attached trace recorder (serving layers attach one when
    /// telemetry is on; `None` — and zero overhead — otherwise).
    /// Survives park/steal/resume in-process, but is *not*
    /// checkpointed: a restored session starts untraced.
    trace: Option<SpanRecorder>,
    /// The recorded forward pass this session replays in place of
    /// running the model (`None` on every live path).
    replay: Option<ForwardTrace>,
}

impl InferenceSession {
    /// Opens a session over `request`, resolving unset service levels
    /// against the engine defaults and sanitizing its queue stamp and
    /// envelope; `fwd` is the forward pass the engine's opener began
    /// over the request's sanitized tokens. `notches` is the overload
    /// degradation asked for, bounded here by the request's own
    /// [`max_degradation`](InferenceRequest::max_degradation) floor.
    pub(crate) fn new(
        engine: EdgeBertEngine,
        request: &InferenceRequest,
        fwd: ForwardSession,
        notches: u8,
    ) -> Self {
        let mode = request.mode;
        // Overload degradation: drop the tier (saturating) and scale
        // the exit threshold up, so sentences exit earlier and the lane
        // drains. Zero notches is the identity on both — the tier stays
        // and `x * 1.0` is exact in IEEE-754 — so every default caller
        // keeps its bit-identity contract.
        let notches = notches.min(request.max_degradation);
        let drop = request
            .drop_target
            .unwrap_or(engine.default_drop_target())
            .degraded(notches);
        let base_et = match mode {
            InferenceMode::ConventionalEe => engine.thresholds(drop).conventional,
            _ => engine.thresholds(drop).latency_aware,
        };
        let et = base_et * overload::entropy_scale(notches);
        let num_layers = engine.model().num_layers();
        let point = engine.backend().nominal();
        let ck = SessionCheckpoint {
            version: SESSION_CHECKPOINT_VERSION,
            mode,
            latency_target_s: request
                .latency_target_s
                .unwrap_or(engine.default_latency_target_s()),
            drop,
            elapsed_queue_s: request.effective_elapsed_queue_s(),
            envelope_w: request.effective_envelope_w(),
            fwd,
            num_layers,
            et,
            layers_done: 0,
            predicted: None,
            committed_latency_s: 0.0,
            committed_energy_j: 0.0,
            point,
            parked_s: 0.0,
            preemptions: 0,
            degraded_notches: notches,
        };
        Self {
            engine,
            ck,
            state: SessionState::Running,
            segment: None,
            result: None,
            terminal: StepOutcome::Done,
            trace: None,
            replay: None,
        }
    }

    /// Makes a just-opened session replay `trace` under `stamp_s` of
    /// queueing (see `EdgeBertEngine::begin_replay`, the only caller).
    pub(crate) fn replaying(mut self, trace: ForwardTrace, stamp_s: f64) -> Self {
        self.ck.elapsed_queue_s = sanitized_queue_s(stamp_s);
        self.replay = Some(trace);
        self
    }

    /// Drives the session to completion and keeps, of all it computed,
    /// only what a replay reads; its price is discarded.
    pub(crate) fn into_forward_trace(mut self) -> ForwardTrace {
        self.drive();
        let result = self.result.as_ref();
        let fwd = &self.ck.fwd;
        ForwardTrace {
            entropies: (1..=fwd.layers_done()).map(|l| fwd.entropy_at(l)).collect(),
            prediction: result
                .expect("complete session carries its result")
                .prediction,
        }
    }

    /// Attach a telemetry recorder: subsequent steps emit
    /// `SegmentStart`/`EntropyExit`/`Parked` span events. Observation
    /// only — attaching a recorder never changes the arithmetic.
    pub fn attach_trace(&mut self, recorder: SpanRecorder) {
        self.trace = Some(recorder);
    }

    /// The attached telemetry recorder, if any.
    pub fn trace(&self) -> Option<&SpanRecorder> {
        self.trace.as_ref()
    }

    #[inline]
    fn emit(&self, kind: TraceEventKind) {
        if let Some(recorder) = &self.trace {
            recorder.emit(kind);
        }
    }

    /// The session's lifecycle state.
    pub fn state(&self) -> SessionState {
        self.state
    }

    /// Whether the sentence finished.
    pub fn is_complete(&self) -> bool {
        self.state == SessionState::Complete
    }

    /// Layers executed so far.
    pub fn layers_done(&self) -> usize {
        self.ck.layers_done
    }

    /// The LAI forecast exit layer (None before layer 1, and for
    /// Base/EE sessions).
    pub fn predicted_layer(&self) -> Option<usize> {
        self.ck.predicted
    }

    /// The inference scheme this session runs.
    pub fn mode(&self) -> InferenceMode {
        self.ck.mode
    }

    /// The latency target the session is served under, seconds.
    pub fn latency_target_s(&self) -> f64 {
        self.ck.latency_target_s
    }

    /// The accuracy-drop tier the session is served under.
    pub fn drop_target(&self) -> DropTarget {
        self.ck.drop
    }

    /// Times this session was parked.
    pub fn preemptions(&self) -> u32 {
        self.ck.preemptions
    }

    /// Accuracy-tier notches the overload ladder degraded this session
    /// by at open time, after the request's floor bounded them (0 on
    /// every default path). The entropy-threshold scaling applies even
    /// when the tier itself saturates at the loosest calibration.
    pub fn degraded_notches(&self) -> u8 {
        self.ck.degraded_notches
    }

    /// The power envelope this session's DVFS decisions are clamped
    /// under, watts (`None` when fleet energy budgeting is off or the
    /// lane is unconstrained). Stamped at begin from the request and
    /// carried through park/steal/checkpoint — a migrated session keeps
    /// the allowance of the lane that admitted it.
    pub fn envelope_w(&self) -> Option<f64> {
        self.ck.envelope_w
    }

    /// Total wall time charged as parked, seconds.
    pub fn parked_s(&self) -> f64 {
        self.ck.parked_s
    }

    /// Total elapsed non-compute time charged against the deadline:
    /// the queueing stamp plus parked time, seconds.
    pub fn elapsed_charged_s(&self) -> f64 {
        self.ck.elapsed_queue_s + self.ck.parked_s
    }

    /// The modeled hardware latency accounted so far (committed costs
    /// plus the open segment), seconds. Monotone in steps; equals the
    /// final `result.latency_s` once complete. Service-time emulation
    /// paces worker sleeps against this.
    pub fn modeled_latency_s(&self) -> f64 {
        if let Some(r) = &self.result {
            return r.latency_s;
        }
        match self.ck.mode {
            InferenceMode::LatencyAware => {
                let open = self.segment.as_ref();
                self.ck.committed_latency_s + open.map_or(0.0, |seg| self.segment_cost(seg).seconds)
            }
            _ if self.ck.layers_done == 0 => 0.0,
            _ => self.nominal_cost(self.ck.layers_done).seconds,
        }
    }

    /// Executes one layer segment: software layer, entropy-exit check,
    /// and hardware accounting (with a fresh DVFS decision if the
    /// session is at a segment start — the first stretched layer, or
    /// the first step after a resume).
    ///
    /// Idempotent once complete (returns the terminal outcome again).
    ///
    /// # Panics
    ///
    /// Panics if the session is parked — [`resume`](Self::resume)
    /// first.
    pub fn step(&mut self) -> StepOutcome {
        assert!(
            self.state != SessionState::Parked,
            "resume a parked session before stepping it"
        );
        if self.state == SessionState::Complete {
            return self.terminal;
        }
        match self.ck.mode {
            InferenceMode::LatencyAware => self.step_latency_aware(),
            InferenceMode::ConventionalEe | InferenceMode::Base => self.step_nominal(),
        }
    }

    /// Checkpoints the session at the current layer boundary: the open
    /// hardware segment is closed (its cost committed) and the session
    /// freezes until [`resume`](Self::resume). Returns `false` (and
    /// does nothing) when the session is already complete or parked.
    pub fn park(&mut self) -> bool {
        if self.state != SessionState::Running {
            return false;
        }
        self.close_segment();
        self.state = SessionState::Parked;
        self.ck.preemptions += 1;
        self.emit(TraceEventKind::Parked);
        true
    }

    /// Resumes a parked session, charging `parked_wall_s` of real time
    /// against the sentence's remaining slack (non-finite or negative
    /// values sanitize to zero). The next step re-runs the DVFS
    /// decision against the remaining cycles and remaining budget.
    ///
    /// # Panics
    ///
    /// Panics if the session is not parked.
    pub fn resume(&mut self, parked_wall_s: f64) {
        assert!(
            self.state == SessionState::Parked,
            "only a parked session can be resumed"
        );
        if parked_wall_s.is_finite() && parked_wall_s > 0.0 {
            self.ck.parked_s += parked_wall_s;
        }
        self.state = SessionState::Running;
    }

    /// Serializes a *parked* session into a [`SessionCheckpoint`] — the
    /// versioned envelope that carries everything but the engine
    /// handles, so the session can cross a process boundary and be
    /// rebound with [`EdgeBertEngine::restore_session`]. Returns `None`
    /// unless the session is parked: a running session has an open
    /// hardware segment (park first, committing it), and a complete one
    /// has nothing left to migrate.
    pub fn checkpoint(&self) -> Option<SessionCheckpoint> {
        if self.state != SessionState::Parked {
            return None;
        }
        debug_assert!(self.segment.is_none(), "park committed the open segment");
        Some(self.ck.clone())
    }

    /// Rebinds a checkpoint to `engine`, reconstructing the parked
    /// session ([`EdgeBertEngine::restore_session`] is the public entry
    /// point). The restored session is [`SessionState::Parked`]: call
    /// [`resume`](Self::resume) — charging the wall time the envelope
    /// spent in transit — before stepping, exactly as for an in-process
    /// parked session.
    ///
    /// # Panics
    ///
    /// Panics when `engine`'s model depth differs from the
    /// checkpointing engine's — the layer accounting would be
    /// meaningless — or when the hidden state's width is not the
    /// model's `hidden_size`, which the first layer step would trip
    /// over inside a worker. (Equal depth and width are necessary
    /// sanity checks, not a full compatibility proof: bit-identical
    /// resumption requires restoring onto an engine built from the
    /// same model, LUT, and backend configuration.)
    pub(crate) fn restore(engine: EdgeBertEngine, checkpoint: SessionCheckpoint) -> Self {
        assert_eq!(
            checkpoint.num_layers,
            engine.model().num_layers(),
            "checkpoint depth does not match the restoring engine's model"
        );
        assert_eq!(
            checkpoint.fwd.width(),
            engine.model().config.hidden_size,
            "checkpoint hidden-state width does not match the restoring engine's model"
        );
        Self {
            engine,
            ck: checkpoint,
            state: SessionState::Parked,
            segment: None,
            result: None,
            terminal: StepOutcome::Done,
            trace: None,
            replay: None,
        }
    }

    /// The finished sentence result, once complete.
    pub fn result(&self) -> Option<&SentenceResult> {
        self.result.as_ref()
    }

    /// Drives the session to completion (without ever parking) and
    /// returns the bare sentence result (the engine's `run*` runners).
    pub fn run_to_completion(mut self) -> SentenceResult {
        self.drive();
        self.result.expect("complete session carries its result")
    }

    fn drive(&mut self) {
        while !self.is_complete() {
            self.step();
        }
    }

    /// The serving-layer response, once complete: the result wrapped
    /// with the resolved service levels, with Base/EE verdicts
    /// re-judged against the target (the bare results keep the paper's
    /// unbounded-baseline semantics, exactly like
    /// [`serve`](crate::engine::EdgeBertEngine::serve)). All verdicts
    /// charge the queueing stamp *and* any parked time.
    pub fn response(&self) -> Option<InferenceResponse> {
        let mut result = self.result.clone()?;
        if self.ck.mode != InferenceMode::LatencyAware {
            result.deadline_met = deadline_met(
                self.elapsed_charged_s() + result.latency_s,
                self.ck.latency_target_s,
            );
        }
        Some(InferenceResponse {
            result,
            latency_target_s: self.ck.latency_target_s,
            drop_target: self.ck.drop,
        })
    }

    /// Drives the session to completion and returns the response.
    pub fn finish(mut self) -> InferenceResponse {
        self.drive();
        self.response()
            .expect("complete session carries its result")
    }

    /// The next layer (1-based) and its off-ramp entropy: run through the
    /// model's one layer body or, replaying, read off the trace.
    fn next_layer(&mut self) -> (usize, f32) {
        let Some(trace) = &self.replay else {
            return self.engine.model().forward_next_layer(&mut self.ck.fwd);
        };
        let layer = self.ck.layers_done + 1;
        let Some(&h) = trace.entropies.get(layer - 1) else {
            panic!(
                "replay stepped to layer {layer} of a {}-layer trace: the exit rule is \
                 slack-independent, so a stamp must never lengthen a sentence",
                trace.layers()
            )
        };
        (layer, h)
    }

    /// The class predicted at `layer`, the layer the sentence stopped at.
    fn prediction_at(&self, layer: usize) -> usize {
        match &self.replay {
            Some(trace) => {
                assert_eq!(layer, trace.layers(), "a replay stops where it recorded");
                trace.prediction
            }
            None => argmax(self.ck.fwd.logits_at(layer)),
        }
    }

    /// Records the finished sentence: an entropy exit (traced as
    /// `EntropyExit`) or the forced stop at the last scheduled layer.
    fn complete(&mut self, result: SentenceResult, exited: bool) -> StepOutcome {
        let outcome = if exited {
            self.emit(TraceEventKind::EntropyExit {
                layer: u16::try_from(result.exit_layer).unwrap_or(u16::MAX),
            });
            StepOutcome::Exited
        } else {
            StepOutcome::Done
        };
        self.result = Some(result);
        self.terminal = outcome;
        self.state = SessionState::Complete;
        outcome
    }

    /// Algorithm 2, one layer at a time. Layer 1 runs at nominal and
    /// charges the fixed costs (wake, embedding read, overhead); each
    /// later layer runs inside a stretched segment whose operating
    /// point was decided at the segment start. Uninterrupted, the
    /// arithmetic is exactly the paper's monolithic Algorithm 2 (the
    /// reference in `tests/backend_equivalence.rs`), bit for bit.
    fn step_latency_aware(&mut self) -> StepOutcome {
        if self.ck.layers_done == 0 {
            let backend = self.engine.backend();
            let nominal = backend.nominal();
            self.emit(TraceEventKind::SegmentStart {
                layer: 1,
                voltage: nominal.voltage,
                freq_hz: nominal.freq_hz,
            });
            let overhead = backend.sentence_overhead();
            let wake_s = backend.wake_transition_s();
            let embed = backend.embedding_read_cost();
            let layer1 = backend.run_layers(1, &nominal);
            self.ck.committed_latency_s =
                overhead.seconds + wake_s + embed.seconds + layer1.seconds;
            self.ck.committed_energy_j = overhead.energy_j + embed.energy_j + layer1.energy_j;
            self.ck.point = nominal;
        } else if self.segment.is_none() {
            self.open_segment();
        }
        let (layer, h) = self.next_layer();
        self.ck.layers_done = layer;
        let exited = h < self.ck.et;
        if layer == 1 {
            self.ck.predicted = Some(if exited {
                1
            } else {
                self.engine
                    .lut()
                    .forecast(h, self.ck.et, self.ck.num_layers)
            });
        }
        if exited || Some(layer) == self.ck.predicted {
            self.close_segment();
            return self.complete_latency_aware(exited);
        }
        StepOutcome::Continue
    }

    /// Completes a latency-aware sentence at the layer just run, with
    /// everything committed: the result reports the last decided
    /// operating point (nominal when layer 1 was the only layer) and a
    /// verdict that charges queueing and parked time.
    fn complete_latency_aware(&mut self, exited: bool) -> StepOutcome {
        let latency_s = self.ck.committed_latency_s;
        let sojourn_s = self.elapsed_charged_s() + latency_s;
        let result = SentenceResult {
            mode: InferenceMode::LatencyAware,
            exit_layer: self.ck.layers_done,
            predicted_layer: self.ck.predicted,
            prediction: self.prediction_at(self.ck.layers_done),
            latency_s,
            energy_j: self.ck.committed_energy_j,
            voltage: self.ck.point.voltage,
            freq_hz: self.ck.point.freq_hz,
            deadline_met: self.ck.point.feasible
                && deadline_met(sojourn_s, self.ck.latency_target_s),
        };
        self.complete(result, exited)
    }

    /// What the open segment costs through the layers done so far: its
    /// transition plus one `run_layers` from its start layer.
    fn segment_cost(&self, seg: &SegmentRun) -> SegmentCost {
        let layers = self.ck.layers_done + 1 - seg.start_layer;
        let cost = self.engine.backend().run_layers(layers, &seg.point);
        SegmentCost {
            seconds: seg.transition_s + cost.seconds,
            energy_j: cost.energy_j,
        }
    }

    /// Commits the open segment, if any. Mirrors the monolithic
    /// `latency += transition_s + segment.seconds` (one addition of
    /// the summed pair).
    fn close_segment(&mut self) {
        if let Some(seg) = self.segment.take() {
            let cost = self.segment_cost(&seg);
            self.ck.committed_latency_s += cost.seconds;
            self.ck.committed_energy_j += cost.energy_j;
        }
    }

    /// Opens a stretched segment: a fresh DVFS decision against the
    /// *remaining* cycles and *remaining* budget — everything already
    /// burned (queueing stamp, parked time, completed layers, and the
    /// worst-case nominal→floor transition reserve) deducted. With a
    /// power envelope, the decision additionally clamps its operating
    /// point under the lane's allowance (the `cap_w` of
    /// [`InferenceBackend::decide`](crate::backend::InferenceBackend::decide);
    /// no envelope is an infinite cap, which the backend returns
    /// unclamped), and feasibility is judged *honestly at the clamped
    /// clock* — an envelope that forbids the deadline-meeting point marks
    /// the decision infeasible instead of silently re-pricing the budget.
    fn open_segment(&mut self) {
        let backend = self.engine.backend();
        let predicted = self.ck.predicted.expect("forecast set after layer 1");
        let remaining_cycles =
            self.engine.layer_cycles() * (predicted as u64 - self.ck.layers_done as u64);
        let elapsed = self.elapsed_charged_s();
        let remaining_budget =
            self.ck.latency_target_s - self.ck.committed_latency_s - backend.floor_transition_s();
        let cap_w = self.ck.envelope_w.unwrap_or(f64::INFINITY);
        let decision = backend.decide(remaining_cycles, remaining_budget, elapsed, cap_w);
        let transition_s = backend.transition_s(&decision);
        self.emit(TraceEventKind::SegmentStart {
            layer: u16::try_from(self.ck.layers_done + 1).unwrap_or(u16::MAX),
            voltage: decision.voltage,
            freq_hz: decision.freq_hz,
        });
        self.ck.point = decision;
        self.segment = Some(SegmentRun {
            point: decision,
            transition_s,
            start_layer: self.ck.layers_done + 1,
        });
    }

    /// Algorithm 1, one layer at a time, always at nominal V/F — and
    /// Base, which is Algorithm 1 whose exit test is never taken. The
    /// completed result is the monolithic `overhead + run_layers(exit)
    /// + embed` expression, bit for bit.
    fn step_nominal(&mut self) -> StepOutcome {
        // One nominal-V/F segment end to end (the nominal lookup is
        // skipped entirely on untraced sessions).
        if self.trace.is_some() && self.ck.layers_done == 0 {
            let nominal = self.engine.backend().nominal();
            self.emit(TraceEventKind::SegmentStart {
                layer: 1,
                voltage: nominal.voltage,
                freq_hz: nominal.freq_hz,
            });
        }
        let (layer, h) = self.next_layer();
        self.ck.layers_done = layer;
        let exited = self.ck.mode == InferenceMode::ConventionalEe && h < self.ck.et;
        if exited || layer == self.ck.num_layers {
            let result = self.nominal_result(layer);
            return self.complete(result, exited);
        }
        StepOutcome::Continue
    }

    /// What a Base/EE sentence costs through `layers` layers: the fixed
    /// per-sentence costs plus one nominal-V/F run.
    fn nominal_cost(&self, layers: usize) -> SegmentCost {
        let backend = self.engine.backend();
        let overhead = backend.sentence_overhead();
        let cost = backend.run_layers_nominal(layers);
        let embed = backend.embedding_read_cost();
        SegmentCost {
            seconds: overhead.seconds + cost.seconds + embed.seconds,
            energy_j: overhead.energy_j + cost.energy_j + embed.energy_j,
        }
    }

    /// The nominal-V/F result shared by Base and conventional EE:
    /// `deadline_met` is `true` because these are the paper's
    /// *unbounded* baselines ([`response`](Self::response) re-judges
    /// against the target, exactly like `serve`).
    fn nominal_result(&self, exit: usize) -> SentenceResult {
        let nominal = self.engine.backend().nominal();
        let cost = self.nominal_cost(exit);
        SentenceResult {
            mode: self.ck.mode,
            exit_layer: exit,
            predicted_layer: None,
            prediction: self.prediction_at(exit),
            latency_s: cost.seconds,
            energy_j: cost.energy_j,
            voltage: nominal.voltage,
            freq_hz: nominal.freq_hz,
            deadline_met: true,
        }
    }
}

/// A serialized parked session: everything an [`InferenceSession`]
/// carries except its engine handles, under a version tag.
///
/// Produced by [`InferenceSession::checkpoint`] (parked sessions only —
/// park commits the open hardware segment, so the envelope never has to
/// describe a half-priced segment) and consumed by
/// [`EdgeBertEngine::restore_session`]. The payload is the hidden-state
/// checkpoint ([`ForwardSession`]), the entropy/exit bookkeeping
/// (threshold, forecast layer, layers done), and the DVFS slack
/// accounting (queueing stamp, committed latency/energy, operating
/// point, parked time) — enough that
/// `park → serialize → restore → resume` is bit-identical to
/// `park → resume` on the same engine configuration: the serde tree
/// round-trips every float exactly (f64 via exact formatting, f32
/// losslessly through f64).
///
/// Deserialization is strict about the version — an envelope written by
/// an incompatible build is rejected with a typed error rather than
/// resumed with mis-accounted slack — and validates the layer
/// bookkeeping against the embedded hidden state, the forecast against
/// the layer bookkeeping, and the slack accounting for finiteness (so a
/// session served under a non-finite target does not cross the wire).
#[derive(Debug, Clone, Serialize)]
pub struct SessionCheckpoint {
    /// Envelope version ([`SESSION_CHECKPOINT_VERSION`] when produced
    /// by this build).
    version: u32,
    mode: InferenceMode,
    latency_target_s: f64,
    drop: DropTarget,
    /// Queueing delay stamped at begin (already sanitized), seconds.
    elapsed_queue_s: f64,
    /// Power envelope on every DVFS decision (watts of sustained
    /// draw), `None` when unconstrained. See
    /// [`InferenceRequest::with_envelope_w`](crate::engine::InferenceRequest::with_envelope_w).
    envelope_w: Option<f64>,
    /// Software forward state (the hidden-state checkpoint).
    fwd: ForwardSession,
    num_layers: usize,
    /// Entropy threshold of this mode/tier (unused by Base).
    et: f32,
    /// Layers completed (1-based count).
    layers_done: usize,
    /// LAI forecast exit layer, set after layer 1.
    predicted: Option<usize>,
    /// Accounting already committed (fixed costs + closed segments).
    committed_latency_s: f64,
    committed_energy_j: f64,
    /// Operating point reported in the result (last decision, or
    /// nominal before any); its `feasible` flag gates the verdict.
    point: OperatingPoint,
    /// Wall time spent parked, charged against the slack, seconds.
    parked_s: f64,
    /// Times this session was parked.
    preemptions: u32,
    /// Accuracy-tier notches the overload ladder degraded this session
    /// by (0 on every default path).
    degraded_notches: u8,
}

impl SessionCheckpoint {
    /// The envelope's version tag.
    pub fn version(&self) -> u32 {
        self.version
    }

    /// Layers the checkpointed session had completed.
    pub fn layers_done(&self) -> usize {
        self.layers_done
    }

    /// Model depth of the engine that produced the checkpoint (restore
    /// asserts the restoring engine matches).
    pub fn num_layers(&self) -> usize {
        self.num_layers
    }

    /// Wall time the session had been charged as parked when it was
    /// checkpointed, seconds.
    pub fn parked_s(&self) -> f64 {
        self.parked_s
    }
}

// Hand-written (not derived): the version gate must run before any
// field is interpreted, and the layer bookkeeping and forecast are
// validated against the embedded hidden state so a tampered or
// truncated envelope fails here, with a typed error, instead of
// panicking inside a worker.
impl serde::Deserialize for SessionCheckpoint {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        let version: u32 = serde::Deserialize::from_value(value.field("version")?)?;
        if version != SESSION_CHECKPOINT_VERSION {
            return Err(serde::Error::new(format!(
                "unsupported session checkpoint version {version} \
                 (this build reads version {SESSION_CHECKPOINT_VERSION})"
            )));
        }
        let checkpoint = Self {
            version,
            mode: serde::Deserialize::from_value(value.field("mode")?)?,
            latency_target_s: serde::Deserialize::from_value(value.field("latency_target_s")?)?,
            drop: serde::Deserialize::from_value(value.field("drop")?)?,
            elapsed_queue_s: serde::Deserialize::from_value(value.field("elapsed_queue_s")?)?,
            envelope_w: serde::Deserialize::from_value(value.field("envelope_w")?)?,
            fwd: serde::Deserialize::from_value(value.field("fwd")?)?,
            num_layers: serde::Deserialize::from_value(value.field("num_layers")?)?,
            et: serde::Deserialize::from_value(value.field("et")?)?,
            layers_done: serde::Deserialize::from_value(value.field("layers_done")?)?,
            predicted: serde::Deserialize::from_value(value.field("predicted")?)?,
            committed_latency_s: serde::Deserialize::from_value(
                value.field("committed_latency_s")?,
            )?,
            committed_energy_j: serde::Deserialize::from_value(value.field("committed_energy_j")?)?,
            point: serde::Deserialize::from_value(value.field("point")?)?,
            parked_s: serde::Deserialize::from_value(value.field("parked_s")?)?,
            preemptions: serde::Deserialize::from_value(value.field("preemptions")?)?,
            degraded_notches: serde::Deserialize::from_value(value.field("degraded_notches")?)?,
        };
        if checkpoint.layers_done != checkpoint.fwd.layers_done() {
            return Err(serde::Error::new(format!(
                "checkpoint layer bookkeeping ({}) disagrees with its hidden state ({})",
                checkpoint.layers_done,
                checkpoint.fwd.layers_done()
            )));
        }
        if checkpoint.layers_done >= checkpoint.num_layers {
            return Err(serde::Error::new(format!(
                "checkpoint claims {} of {} layers done, but only an unfinished session parks",
                checkpoint.layers_done, checkpoint.num_layers
            )));
        }
        // The forecast drives the resume segment's cycle count and the
        // forced stop: an unfinished latency-aware session past layer 1
        // has `layers_done < predicted <= num_layers`; before layer 1,
        // and on Base/EE, there is none.
        let forecast_ok = match (checkpoint.mode, checkpoint.predicted) {
            (InferenceMode::LatencyAware, Some(predicted)) => {
                (1..predicted).contains(&checkpoint.layers_done)
                    && predicted <= checkpoint.num_layers
            }
            (InferenceMode::LatencyAware, None) => checkpoint.layers_done == 0,
            (_, predicted) => predicted.is_none(),
        };
        if !forecast_ok {
            return Err(serde::Error::new(format!(
                "checkpoint forecast {:?} is inconsistent with {:?} at {} of {} layers done",
                checkpoint.predicted,
                checkpoint.mode,
                checkpoint.layers_done,
                checkpoint.num_layers
            )));
        }
        for (name, value) in [
            ("latency target", checkpoint.latency_target_s),
            ("committed latency", checkpoint.committed_latency_s),
            ("committed energy", checkpoint.committed_energy_j),
        ] {
            if !value.is_finite() {
                return Err(serde::Error::new(format!(
                    "checkpoint {name} must be finite, got {value}"
                )));
            }
        }
        if !(checkpoint.elapsed_queue_s.is_finite() && checkpoint.elapsed_queue_s >= 0.0) {
            return Err(serde::Error::new(
                "checkpoint queueing stamp must be finite and non-negative",
            ));
        }
        if !(checkpoint.parked_s.is_finite() && checkpoint.parked_s >= 0.0) {
            return Err(serde::Error::new(
                "checkpoint parked time must be finite and non-negative",
            ));
        }
        Ok(checkpoint)
    }
}

// Parked sessions live in shared server lanes and are resumed by
// whichever shard frees up first.
const _: () = {
    const fn assert_send<T: Send + 'static>() {}
    assert_send::<InferenceSession>();
};
