//! EdgeBERT: latency-aware multi-task NLP inference.
//!
//! This is the core crate of the reproduction of *EdgeBERT: Sentence-Level
//! Energy Optimizations for Latency-Aware Multi-Task NLP Inference*
//! (Tambe et al., MICRO 2021). It composes the workspace substrates into
//! the paper's full system:
//!
//! * [`predictor`] — the early-exit predictor: a five-layer, 64-wide ReLU
//!   MLP fit on per-sentence entropy trajectories and distilled into the
//!   lookup table the accelerator indexes (paper §5.1);
//! * [`calibrate`] — entropy-threshold calibration against fixed
//!   accuracy-drop targets (1/2/5 %), for both conventional early exit
//!   and the latency-aware scheme;
//! * [`engine`] — the owned per-sentence inference engine implementing
//!   Algorithm 1 (conventional EE) and Algorithm 2 (EdgeBERT latency-aware
//!   inference with DVFS) behind a request/response API
//!   ([`InferenceRequest`]/[`InferenceResponse`]), with full
//!   latency/energy accounting on the hardware backend; construction
//!   goes through [`EngineBuilder`], and engines are `Send + 'static`;
//! * [`session`] — the resumable, layer-granular execution API under
//!   every serving layer: [`EdgeBertEngine::begin`](engine::EdgeBertEngine::begin)
//!   opens an [`InferenceSession`] whose [`step`](session::InferenceSession::step)
//!   runs one encoder layer (entropy-exit check, then a fresh DVFS
//!   decision against *remaining* slack at each segment start);
//!   sessions park at layer boundaries (hidden state + accounting
//!   checkpointed) and resume with the parked time charged against
//!   their slack; a parked session serializes into a versioned
//!   [`SessionCheckpoint`] envelope that crosses process boundaries
//!   and restores onto any engine of the same depth
//!   ([`EdgeBertEngine::restore_session`](engine::EdgeBertEngine::restore_session)).
//!   There is one way to run a layer: every path (`serve`, `run`, the
//!   server lanes) opens its session through the one sanitizing opener, runs
//!   the model's one per-layer body, and steps through the
//!   latency-aware or the nominal-V/F stepper — thin
//!   drive-to-completion wrappers, bit-identical to the pre-session
//!   monolithic paths;
//! * [`backend`] — the hardware abstraction under the engine:
//!   [`backend::InferenceBackend`] covers per-layer workload costing,
//!   segment execution at an operating point, the one DVFS decision
//!   (power envelope as a plain cap, infinite when unconstrained), and
//!   fixed per-sentence costs, each computed once at build. Its two
//!   platforms — the paper's accelerator (the default) and the
//!   fixed-V/F TX2 comparison baseline
//!   ([`backend::MobileGpuBackend`], priced on the *same* wired
//!   workload) — are selected with [`EngineBuilder::backend`];
//!   `tests/backend_equivalence.rs` pins both;
//! * [`energy`] — fleet-level energy budgeting, default-off:
//!   the server waterfills the configured fleet cap
//!   ([`EnergyConfig`]) into per-lane power envelopes — floors
//!   guaranteed, headroom following the queue pressure each lane
//!   publishes at admission and pop, read where the envelope is used.
//!   Envelopes bind at the DVFS seam (the `cap_w` of
//!   [`InferenceBackend::decide`]): a segment's operating point may
//!   not outdraw its lane's envelope,
//!   with feasibility judged honestly at the clamped clock — deadline
//!   risk surfaces in stats, never a silent re-price. The elastic
//!   autoscaler declines attaches the envelope cannot power and the
//!   overload shed rung prices the envelope's slowdown into its
//!   feasibility estimate, so a lane cannot win its deadline race by
//!   exceeding the fleet cap (wall-clock server lanes only — the
//!   virtual-timeline scheduler has no envelope mode);
//! * [`overload`] — the overload control plane: a per-lane hysteresis
//!   admission ladder ([`OverloadController`]) that trades calibrated
//!   accuracy for survival under flash crowds. Under pressure (queued
//!   drain time vs. the lane's deadline horizon) admitted work is
//!   *degraded* — tier dropped a notch and entropy-exit threshold
//!   scaled up, bounded by each request's
//!   [`InferenceRequest::max_degradation`](engine::InferenceRequest::max_degradation)
//!   floor (default: none) — and when that can't restore feasibility,
//!   infeasible arrivals are *shed* at admission with a typed retry
//!   hint ([`SubmitError::Shed`]).
//!   Off by default ([`ServerConfig::overload`](server::ServerConfig::overload)
//!   is `None`); every default path stays bit-identical.
//!   Like energy envelopes, the ladder lives on the server's lanes
//!   only;
//! * [`serving`] — [`TaskRuntime`] (one task's owned serving stack) and
//!   [`MultiTaskRuntime`] (request routing across the four GLUE tasks,
//!   the paper's multi-task deployment);
//! * [`scheduler`] — [`DeadlineScheduler`]: an earliest-deadline-first
//!   (EDF) batch scheduler over the multi-task runtime. Submissions
//!   carry arrival timestamps; the queue drains least-slack-first on
//!   a deterministic virtual timeline, packing same-task sentences
//!   into back-to-back runs under one task-switch charge, and every
//!   response reports queueing delay and a sojourn-time deadline
//!   verdict. All deadline judgments across
//!   the crate go through one rule, [`engine::deadline_met`]
//!   (`latency ≤ target · (1 + 1e-4)`, absorbing V/F-grid rounding);
//!   with [`SchedulerConfig::queue_aware_slack`] the virtual drain also
//!   deducts each sentence's queueing delay from its DVFS budget —
//!   through the one dispatch-time stamping rule the server's lanes
//!   use, so the two timelines cannot drift;
//! * [`server`] — [`Server`]: the async front-end over real worker
//!   threads. Clients `submit()` from any thread and get
//!   [`ResponseHandle`]s on one-shot reply slots (typed [`WorkerLost`]
//!   errors, never panics);
//!   per-task engine shard pools drain bounded admission lanes in EDF
//!   order, measure each job's wall-clock queueing delay, and hand the
//!   engine the *remaining* slack
//!   (`InferenceRequest::with_elapsed_queue_s`) so DVFS stops
//!   stretching compute into budget that queueing already burned.
//!   Lanes are **preemptive** ([`server::PreemptionPolicy`]): workers
//!   step sessions layer by layer and park the running one for a
//!   strictly tighter queued arrival, resuming EDF-ordered. Serving
//!   is **elastic** when opted in ([`server::ElasticConfig`]): idle
//!   shards steal the EDF-tightest parked session from foreign lanes
//!   and autoscale onto pressured lanes as extra shards, with
//!   stolen/migrated/pool-resize counters in [`ServerStats`]. One
//!   worker loop serves both modes: the roaming step is simply not
//!   taken with elasticity off;
//! * [`telemetry`] — observability for the wall-clock server,
//!   default-off and bit-identity-neutral: per-request trace spans
//!   ([`TraceEvent`] chains Admitted→Popped→…→Completed, stamped by a
//!   [`SpanRecorder`] into the hub's bounded overwrite-oldest ring with
//!   an honest drop counter), log-bucketed latency/energy histograms
//!   with exact merge/serde and exact p50/p95/p99 ([`LogHistogram`]),
//!   and each lane's gauges `(pressure, rung, queued, parked,
//!   extra_shards)`, all copied out at once by
//!   [`Server::telemetry_snapshot`](server::Server::telemetry_snapshot),
//!   and JSONL/Prometheus exporters. [`LaneStats`] keeps the counters;
//!   the virtual-timeline scheduler's observation is its responses;
//! * [`clock`] — [`clock::Clock`], the one wall-clock reader;
//! * [`pipeline`] — end-to-end task artifacts: train → calibrate →
//!   predictor, at test or paper scale;
//! * [`experiments`] — one driver per table/figure of the paper's
//!   evaluation, each returning structured rows plus a formatted text
//!   rendering (regenerated by `edgebert-bench`'s `repro` binary).
//!
//! # Quickstart
//!
//! Deadlines and accuracy tiers are *request-scoped* (paper §1,
//! Algorithm 2): one engine serves a voice assistant at 50 ms and a
//! translator at 200 ms, picking a DVFS operating point per sentence.
//!
//! ```no_run
//! use edgebert::engine::{DropTarget, InferenceRequest};
//! use edgebert::pipeline::{Scale, TaskArtifacts};
//! use edgebert::serving::TaskRuntime;
//! use edgebert_tasks::Task;
//!
//! let artifacts = TaskArtifacts::build(Task::Sst2, Scale::Test, 42);
//! let runtime = TaskRuntime::from_artifacts(&artifacts);
//! let ex = &artifacts.dev.examples()[0];
//! let response = runtime.serve(
//!     &InferenceRequest::new(ex.tokens.clone())
//!         .with_latency_target(50e-3)
//!         .with_drop_target(DropTarget::OnePercent),
//! );
//! println!(
//!     "exited at layer {} using {:.2} µJ at {:.3} V",
//!     response.result.exit_layer,
//!     response.result.energy_j * 1e6,
//!     response.result.voltage,
//! );
//! ```

pub mod backend;
pub mod calibrate;
pub mod clock;
pub mod energy;
pub mod engine;
pub mod experiments;
pub mod overload;
pub mod pipeline;
pub mod predictor;
pub mod report;
pub mod scheduler;
pub mod server;
pub mod serving;
pub mod session;
pub mod telemetry;

pub use backend::{BackendSpec, InferenceBackend, MobileGpuBackend, OperatingPoint, SegmentCost};
pub use calibrate::{calibrate_conventional, calibrate_latency_aware, Calibration};
pub use energy::EnergyConfig;
pub use engine::{
    deadline_met, AggregateResult, DropTarget, EdgeBertEngine, EngineBuilder, EntropyThresholds,
    InferenceMode, InferenceRequest, InferenceResponse, SentenceResult,
};
pub use overload::{LadderStep, OverloadConfig, OverloadController};
pub use pipeline::{Scale, TaskArtifacts};
pub use predictor::{EntropyPredictor, PredictorLut};
pub use scheduler::{DeadlineScheduler, SchedulePolicy, ScheduledResponse, SchedulerConfig};
pub use server::{
    ElasticConfig, LaneStats, PreemptionPolicy, ResponseHandle, ServeOutcome, Server, ServerConfig,
    ServerResponse, ServerStats, SubmitError, WorkerLost,
};
pub use serving::{MultiTaskRuntime, ServeError, TaskRuntime};
pub use session::{
    InferenceSession, SessionCheckpoint, SessionState, StepOutcome, SESSION_CHECKPOINT_VERSION,
};
pub use telemetry::{
    LaneHistograms, LogHistogram, SpanRecorder, Telemetry, TelemetryConfig, TelemetrySnapshot,
    TraceEvent, TraceEventKind,
};
