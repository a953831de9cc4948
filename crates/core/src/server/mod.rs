//! Async multi-lane serving over real worker threads: the wall-clock
//! front-end of the serving stack.
//!
//! The [`DeadlineScheduler`](crate::scheduler::DeadlineScheduler)
//! replays traffic on a *virtual* timeline: deterministic, perfect for
//! experiments, but synchronous — a caller hands over a finished batch
//! and blocks for the whole drain, so a tight 20 ms sentence still
//! waits for the call that carries it. [`Server`] is the missing
//! front-end: clients [`submit`](Server::submit) requests from any
//! thread and get a [`ResponseHandle`] back immediately; per-task
//! **engine shard pools** — `shards_per_task` owned
//! [`EdgeBertEngine`] clones per served task, each pinned to its own
//! worker thread with task affinity —
//! drain bounded admission lanes in EDF order. No external runtime:
//! the whole subsystem is `std` threads, one mutex per lane, and one
//! reply slot per admitted request. The locking rule is one sentence: a
//! shard takes its lane's lock to pop and to yield (park or completion),
//! and two lane locks are never held together — queue, counters and
//! histograms all sit behind that lock, so [`Server::stats`] reads each
//! lane in one hold.
//!
//! ```text
//!  client threads          per-task lanes             shard pools
//!  ──────────────   ┌──▶ [SST-2  lane: EDF ▥▥▥] ──▶ engine #0, #1 …
//!  submit(task,req)─┼──▶ [QNLI   lane: EDF ▥▥ ] ──▶ engine #0, #1 …
//!        │          └──▶ [MNLI   lane: EDF ▥  ] ──▶ engine #0, #1 …
//!        ▼                     │                        │
//!  ResponseHandle ◀────────────┴── ServerResponse ◀─────┘
//! ```
//!
//! **Queue-aware DVFS slack** is the reason this module lives in the
//! energy stack and not a generic thread pool. The paper's Algorithm 2
//! computes `Freq_opt = N_cycles / (T − T_elapsed)` — but when
//! `T_elapsed` leaves out time spent *queued* (a slack-blind server), a
//! sentence that sat 30 ms of its 50 ms budget in a lane is still
//! handed the full 50 ms as compute budget: DVFS stretches its compute
//! into a deadline that has already half expired, the sojourn blows the
//! target, and the lane stays busy longer, compounding the backlog.
//! Workers here measure each job's real queueing delay at pop time on
//! the server's one [`Clock`] (which stamps every server event) and
//! stamp it into the request
//! ([`InferenceRequest::with_elapsed_queue_s`]), so the engine budgets
//! V/F against the *true remaining slack*. Waits below
//! [`ServerConfig::slack_floor_s`] are treated as zero — scheduler
//! wake-up jitter is measurement noise, and clamping it keeps a
//! no-queueing submission bit-identical to
//! [`TaskRuntime::serve`](crate::serving::TaskRuntime::serve).
//!
//! **Preemptive lanes** are what the resumable-session redesign buys.
//! Workers serve each sentence through a layer-granular
//! [`InferenceSession`] ([`EdgeBertEngine::begin`]) instead of a
//! monolithic `serve` call,
//! and poll their lane between layer steps: when a strictly
//! tighter-deadline job is queued (per
//! [`ServerConfig::preemption`]), the running session is *parked* at
//! the layer boundary — hidden state and cost accounting checkpointed
//! back onto the lane — the tight job runs, and parked sessions resume
//! EDF-ordered with a fresh DVFS decision against their remaining
//! slack. A long stretched sentence can no longer hold its lane
//! hostage for a tight arrival's whole budget.
//!
//! **Overload control** ([`ServerConfig::overload`]) is the survival
//! layer above both: a per-lane hysteresis ladder
//! ([`crate::overload`]) watches the backlog's estimated drain time
//! against the lane's deadline horizon and, under pressure, *degrades*
//! admitted work — accuracy tier dropped a notch, entropy-exit
//! threshold scaled up, bounded by each request's
//! [`InferenceRequest::max_degradation`] floor (default: none) — so
//! sentences exit earlier and the lane drains; when degradation cannot
//! restore feasibility, it *sheds* infeasible arrivals at admission
//! with a typed [`SubmitError::Shed`] carrying a retry hint, instead
//! of letting them queue and die. Off (`None`) by default, and inert
//! for requests that never opt into degradation.
//!
//! **Elastic serving** ([`ServerConfig::elastic`]) dissolves the
//! static lane↔shard binding when load is skewed: every worker keeps a
//! *home* lane it drains first, but an idle shard may **steal** the
//! EDF-tightest parked session from any other lane (sessions are
//! checkpointable — see [`SessionCheckpoint`](crate::session::SessionCheckpoint)
//! — so any engine shard of the right depth can resume one), or
//! **attach** to the most pressured foreign lane and drain it as an
//! extra shard until its work is done. Attached shards count in the
//! pressure signal and the admission drain estimates, so the overload
//! ladder sees the grown pool and sheds less. Under a flash crowd on
//! one task, the idle tasks' shards absorb the spike instead of
//! spinning idle next to a melting lane. Off (`None`) by default —
//! every shard then stays pinned to its home lane and the server is
//! bit-identical to a static pool.
//!
//! Everything else is the operational contract a front-end owes its
//! callers: bounded lanes with typed backpressure
//! ([`SubmitError::QueueFull`]), typed routing failures
//! ([`SubmitError::TaskNotServed`]), typed worker-loss reporting
//! ([`ResponseHandle::wait`] returns [`WorkerLost`] instead of
//! panicking), graceful [`shutdown`](Server::shutdown) that drains
//! every admitted request — parked sessions included — before workers
//! exit, and per-lane [`ServerStats`] counters (admissions,
//! rejections, violations, preemptions, queue/parked depths) — with
//! telemetry on, the distributions and lane gauges leave through
//! [`Server::telemetry_snapshot`].
//!
//! A response travels in a one-shot reply slot: a single ~200 B
//! allocation per admitted request, a mutex-guarded cell plus a
//! condvar, which the serving shard fills once. A slot its shard drops
//! unfilled (a panic mid-step) reads as lost, and the handle's wait
//! returns [`WorkerLost`].

mod lane;
mod reply;
mod stats;

pub use stats::{LaneStats, ServerStats};

use crate::clock::Clock;
use crate::energy::{EnergyConfig, FleetBudget};
use crate::engine::{deadline_met, EdgeBertEngine, InferenceRequest, InferenceResponse};
use crate::overload::{LadderStep, OverloadConfig};
use crate::serving::MultiTaskRuntime;
use crate::session::InferenceSession;
use crate::telemetry::{
    LaneTelemetrySnapshot, LogHistogram, Telemetry, TelemetryConfig, TelemetrySnapshot,
    TraceEventKind,
};
use edgebert_tasks::Task;
use lane::{Job, JobContext, Lane, Popped, Work};
use reply::ReplySlot;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// When a shard parks its running session for a queued arrival.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PreemptionPolicy {
    /// Never preempt: a dispatched sentence runs to completion (the
    /// pre-session behavior, and the default).
    Off,
    /// Park the running session at the next layer boundary when a
    /// queued job's absolute deadline is tighter than the running
    /// job's by strictly more than the gap, seconds. `DeadlineGap(0.0)`
    /// preempts for any strictly tighter arrival; a positive gap adds
    /// hysteresis so near-equal deadlines don't thrash the lane with
    /// park/resume transitions (each park costs a fresh
    /// nominal→decision transition at resume).
    DeadlineGap(f64),
}

impl PreemptionPolicy {
    /// Whether a running job at `running_deadline_s` should yield to a
    /// queued job at `queued_deadline_s` (absolute server-clock
    /// deadlines).
    fn should_preempt(self, running_deadline_s: f64, queued_deadline_s: f64) -> bool {
        match self {
            PreemptionPolicy::Off => false,
            PreemptionPolicy::DeadlineGap(gap) => running_deadline_s - queued_deadline_s > gap,
        }
    }
}

/// Elastic pool behavior ([`ServerConfig::elastic`]): how idle shards
/// roam across lanes (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ElasticConfig {
    /// An idle shard resumes the EDF-tightest parked session from any
    /// foreign lane (work stealing). The resume charges parked wall
    /// time against the sentence's slack exactly as a home resume
    /// does.
    pub work_stealing: bool,
    /// An idle shard attaches to the most pressured foreign lane and
    /// drains it as an extra shard (autoscaling), detaching when the
    /// work it took is done.
    pub autoscale: bool,
    /// Minimum foreign-lane pressure (see
    /// [`pressure`](crate::overload::pressure)) before an idle shard
    /// attaches. Below it, a lane is considered healthy enough to
    /// drain itself. Must be finite and non-negative.
    pub grow_pressure: f64,
}

/// How long an idle elastic shard sleeps between cross-pool scans. The
/// home lane's condvar still wakes it immediately for home work; the
/// poll bounds how stale its view of *foreign* lanes can get.
const ELASTIC_IDLE_POLL: Duration = Duration::from_micros(500);

impl Default for ElasticConfig {
    /// Stealing and autoscaling both on and a 0.5 grow-pressure
    /// threshold (half the lane's deadline horizon committed).
    fn default() -> Self {
        Self {
            work_stealing: true,
            autoscale: true,
            grow_pressure: 0.5,
        }
    }
}

/// Configuration of a [`Server`].
///
/// Every optional subsystem (`overload`, `elastic`, `telemetry`,
/// `energy`) is an `Option` of its own config: `None` — the default for
/// all four — means the subsystem does not exist on this server (no
/// thread, no stamp, no counter moves; responses are bit-identical to a
/// server built before it), and `Some(cfg)` means it runs with `cfg`.
/// There is no second "enabled" switch inside the configs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServerConfig {
    /// Engine shards (worker threads, each owning one engine clone) per
    /// served task. The modeled deployment is one accelerator lane per
    /// shard.
    pub shards_per_task: usize,
    /// Per-lane admission bound: submissions beyond it are refused with
    /// [`SubmitError::QueueFull`]. `0` refuses everything — useful to
    /// test caller-side backpressure handling.
    pub queue_capacity: usize,
    /// Deduct each job's measured queueing delay from the DVFS compute
    /// budget (see the module docs). Off, the server is "slack-blind":
    /// it adds none of its own measured wait.
    /// (The engine always honors any stamp the *submitter* put on the
    /// request — blindness is a server property, not an erasure.)
    pub queue_aware_slack: bool,
    /// Measured waits below this are treated as zero slack, seconds.
    /// This is the noise floor separating real queueing from scheduler
    /// wake-up jitter; it also pins the acceptance contract that an
    /// unqueued submission serves bit-identically to
    /// [`TaskRuntime::serve`](crate::serving::TaskRuntime::serve).
    pub slack_floor_s: f64,
    /// Emulate the accelerator by sleeping each shard for the modeled
    /// compute latency after serving. This turns the server into a
    /// wall-clock hardware-in-the-loop testbed: lanes are busy for as
    /// long as the modeled silicon would be, so measured queueing
    /// delays, utilization, and tail latencies are physically
    /// meaningful. Off (the default), shards only spend the software
    /// model's compute time and the server is a fast async front-end.
    pub emulate_service_time: bool,
    /// Preemption policy: whether (and by how much of a deadline gap)
    /// a queued arrival parks the running session at a layer boundary.
    /// Off by default.
    pub preemption: PreemptionPolicy,
    /// The overload control ladder (see [`crate::overload`] and the
    /// module docs): pressure-driven degradation of admitted work and
    /// admission shedding of infeasible arrivals, with hysteresis.
    /// `None` (the default): every lane behaves bit-identically to a
    /// pre-overload server.
    pub overload: Option<OverloadConfig>,
    /// Elastic pool behavior: work stealing of parked sessions across
    /// lanes and pressure-driven autoscaling of per-task shard pools.
    /// `None` (the default): shards stay pinned to their home lane and
    /// the server is bit-identical to a static pool — zero
    /// stolen/migrated/resize counters, byte-identical responses.
    pub elastic: Option<ElasticConfig>,
    /// Telemetry: per-request trace spans, per-lane latency/energy
    /// histograms, and lane gauges read at snapshot time (see
    /// [`crate::telemetry`]). `None` (the default) records nothing and
    /// adds zero allocations to the request path; `Some` observes only
    /// — admission decisions, request numbering, and inference
    /// arithmetic are bit-identical either way.
    pub telemetry: Option<TelemetryConfig>,
    /// Fleet energy budgeting (see [`crate::energy`]): per-lane energy
    /// envelopes (watts) split from a configured fleet cap,
    /// waterfilling headroom toward the queue pressure each lane last
    /// published at admission or pop, derived where an envelope is
    /// read.
    /// Envelopes bound the DVFS *operating point* of popped work — a
    /// sentence whose deadline needs a forbidden point runs at the
    /// fastest allowed one and its verdict is judged honestly against
    /// the real target (the miss surfaces in stats, never silently
    /// re-priced). `None` (the default) stamps no envelopes: the
    /// server is bit-identical to a pre-energy one.
    pub energy: Option<EnergyConfig>,
}

impl Default for ServerConfig {
    /// One shard per task, 1024-deep lanes, queue-aware slack on with
    /// a 1 ms noise floor, no service-time emulation, no preemption,
    /// and none of the optional subsystems.
    fn default() -> Self {
        Self {
            shards_per_task: 1,
            queue_capacity: 1024,
            queue_aware_slack: true,
            slack_floor_s: 1e-3,
            emulate_service_time: false,
            preemption: PreemptionPolicy::Off,
            overload: None,
            elastic: None,
            telemetry: None,
            energy: None,
        }
    }
}

/// Why a submission was refused.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SubmitError {
    /// No lane serves the request's task.
    TaskNotServed(Task),
    /// The task's lane is at capacity; retry later or shed load.
    QueueFull {
        /// The full lane's task.
        task: Task,
        /// Its configured admission bound.
        capacity: usize,
        /// The queue depth observed at refusal (≥ `capacity`).
        depth: usize,
        /// How long until a slot plausibly frees, seconds: the lane's
        /// nominal per-job service estimate divided across its shards.
        retry_after_hint_s: f64,
    },
    /// The overload ladder shed this request at admission: at the
    /// observed pressure, the backlog ahead of it would consume its
    /// whole deadline budget before it could start, so it would queue
    /// and die. Retrying after `retry_after_hint_s` — or resubmitting
    /// with a looser target / a nonzero
    /// [`max_degradation`](crate::engine::InferenceRequest::max_degradation)
    /// — may be admitted. Only returned when
    /// [`ServerConfig::overload`] is set.
    Shed {
        /// The shedding lane's task.
        task: Task,
        /// The pressure signal at refusal (see
        /// [`pressure`](crate::overload::pressure)).
        pressure: f64,
        /// Estimated wait until the backlog drains enough for this
        /// request to be feasible, seconds.
        retry_after_hint_s: f64,
    },
    /// The server is shutting down and no longer admits requests.
    ShuttingDown,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::TaskNotServed(task) => {
                write!(f, "task {task} is not served by this server")
            }
            SubmitError::QueueFull {
                task,
                capacity,
                depth,
                retry_after_hint_s,
            } => {
                write!(
                    f,
                    "task {task} lane is at capacity ({depth}/{capacity} queued); \
                     retry in ~{:.1} ms",
                    retry_after_hint_s * 1e3
                )
            }
            SubmitError::Shed {
                task,
                pressure,
                retry_after_hint_s,
            } => {
                write!(
                    f,
                    "task {task} lane shed the request at pressure {pressure:.2}; \
                     retry in ~{:.1} ms",
                    retry_after_hint_s * 1e3
                )
            }
            SubmitError::ShuttingDown => write!(f, "server is shutting down"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// The outcome of one served submission: the engine response plus the
/// wall-clock serving record.
///
/// Time mixes two clocks on purpose: `queue_delay_s` is *measured*
/// (real seconds between admission and pop), while the compute term is
/// the *modeled* hardware latency. With
/// [`ServerConfig::emulate_service_time`] on, the two coincide — the
/// shard is really busy for the modeled time — and the sojourn is a
/// genuine wall-clock response time.
#[derive(Debug, Clone, PartialEq)]
pub struct ServerResponse {
    /// The task that served the request.
    pub task: Task,
    /// Which shard finished it — the index within the serving worker's
    /// *home* pool. With elasticity disabled that is always a shard of
    /// this task's own pool; an elastic server may finish the request
    /// on a foreign task's shard (stealing/autoscaling).
    pub shard: usize,
    /// Admission sequence number in the task's lane.
    pub submission: u64,
    /// The engine's response (service levels resolved, compute costed).
    pub response: InferenceResponse,
    /// Measured wall-clock queueing delay, seconds.
    pub queue_delay_s: f64,
    /// Elapsed queue time the engine's DVFS budget was charged with,
    /// seconds: the measured delay plus any submitter pre-stamp when
    /// queue-aware slack is on and the wait cleared the noise floor,
    /// else just the pre-stamp (which the engine always honors).
    pub slack_deducted_s: f64,
    /// Times this sentence's session was parked at a layer boundary
    /// for a tighter arrival (0 without preemption).
    pub preemptions: u32,
    /// Wall time the session spent parked, charged against the
    /// sentence's slack and its sojourn, seconds.
    pub parked_s: f64,
    /// Accuracy-tier notches the overload ladder degraded this
    /// sentence by (0 on every default path — the ladder disabled, the
    /// lane unpressured, or the request's `max_degradation` floor at
    /// zero).
    pub degraded_notches: u8,
    /// End-to-end response time: queueing delay (plus any submitter
    /// pre-stamp), parked time, and modeled compute latency, seconds.
    pub sojourn_s: f64,
    /// Whether the sojourn met the request's latency target under the
    /// one [`deadline_met`] rule, charging exactly the elapsed time
    /// the server accounted for: the full measured wait when it was
    /// deducted from the DVFS budget (or in slack-blind mode, where
    /// unaccounted queueing is the point), but not a sub-noise-floor
    /// wait in queue-aware mode — that was declared jitter and kept
    /// out of the budget, so it stays out of the verdict too. The
    /// inner `response.result.deadline_met` is the engine's own
    /// verdict on the slack it was told about.
    pub deadline_met: bool,
    /// Modeled energy this sentence's compute drew, joules — a copy of
    /// `response.result.energy_j` hoisted to the serving record so
    /// fleet-level accounting (energy per request, measured lane
    /// power) never digs through the engine response. Includes any
    /// DVFS clamping an energy envelope imposed.
    pub energy_j: f64,
}

/// The worker thread serving a submission died before delivering its
/// response (it panicked, or the process is tearing the server down
/// ungracefully). The server's graceful-shutdown drain guarantees this
/// never happens in normal operation — it is the typed form of what
/// used to be a panic inside [`ResponseHandle::wait`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerLost {
    /// The task lane the submission was admitted to.
    pub task: Task,
    /// The lost submission's admission sequence number.
    pub submission: u64,
}

impl std::fmt::Display for WorkerLost {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "worker serving {} submission #{} died before delivering its response",
            self.task, self.submission
        )
    }
}

impl std::error::Error for WorkerLost {}

/// The outcome of waiting on a submission: the response, or a typed
/// [`WorkerLost`] when the serving worker died without filling the
/// reply slot.
pub type ServeOutcome = Result<ServerResponse, WorkerLost>;

/// A claim on one submission's future [`ServerResponse`].
///
/// The server guarantees every *admitted* request is served — graceful
/// shutdown drains the lanes before workers exit — so
/// [`wait`](Self::wait) always completes with `Ok` unless a worker
/// thread died (a panic inside a forward pass, an abort mid-drain),
/// which surfaces as the typed [`WorkerLost`] error rather than a
/// panic in the *caller's* thread.
#[derive(Debug)]
pub struct ResponseHandle {
    task: Task,
    submission: u64,
    slot: ReplySlot,
}

impl ResponseHandle {
    /// The task the submission routed to.
    pub fn task(&self) -> Task {
        self.task
    }

    /// The admission sequence number in the task's lane.
    pub fn submission(&self) -> u64 {
        self.submission
    }

    /// Blocks until the response arrives, or reports [`WorkerLost`] if
    /// the serving worker died without filling the reply slot.
    pub fn wait(self) -> ServeOutcome {
        let lost = WorkerLost {
            task: self.task,
            submission: self.submission,
        };
        self.slot.wait().ok_or(lost)
    }

    /// Blocks up to `timeout` for the outcome; returns the handle back
    /// on timeout so the caller can keep waiting.
    pub fn wait_timeout(self, timeout: Duration) -> Result<ServeOutcome, ResponseHandle> {
        let Self {
            task,
            submission,
            slot,
        } = self;
        match slot.wait_timeout(timeout) {
            Ok(outcome) => Ok(outcome.ok_or(WorkerLost { task, submission })),
            Err(slot) => Err(Self {
                task,
                submission,
                slot,
            }),
        }
    }
}

/// One lane plus the engine that serves it (an `Arc` clone on the
/// shared weights) — the unit an elastic shard roams over. The registry
/// (one entry per served task, shared by every worker) is what lets a
/// shard materialize *any* lane's work, not just its home task's; the
/// front end reads the same entries for admission-time envelope pricing.
#[derive(Clone)]
struct PoolEntry {
    lane: Arc<Lane>,
    engine: EdgeBertEngine,
}

/// The async serving front-end: lanes drained by shard threads, one
/// reply slot per admitted request (see the module docs).
pub struct Server {
    cfg: ServerConfig,
    clock: Clock,
    lanes: Vec<PoolEntry>,
    workers: Vec<JoinHandle<()>>,
    /// Telemetry hub, present iff [`ServerConfig::telemetry`] is set.
    telemetry: Option<Arc<Telemetry>>,
}

impl Server {
    /// Starts a server over `runtime`'s served tasks: one bounded lane
    /// per task, drained by [`ServerConfig::shards_per_task`] worker
    /// threads each owning a clone of the task runtime's engine (an
    /// `Arc` refcount bump on the shared weights — the same affinity
    /// contract as [`DeadlineScheduler`](crate::scheduler::DeadlineScheduler)).
    pub fn start(runtime: &MultiTaskRuntime, cfg: ServerConfig) -> Self {
        assert!(
            cfg.shards_per_task >= 1,
            "a lane needs at least one shard to drain it"
        );
        assert!(
            cfg.slack_floor_s.is_finite() && cfg.slack_floor_s >= 0.0,
            "slack floor must be finite and non-negative"
        );
        if let PreemptionPolicy::DeadlineGap(gap) = cfg.preemption {
            assert!(
                gap.is_finite() && gap >= 0.0,
                "preemption deadline gap must be finite and non-negative"
            );
        }
        if let Some(ladder) = &cfg.overload {
            ladder.validate();
        }
        if let Some(el) = &cfg.elastic {
            assert!(
                el.grow_pressure.is_finite() && el.grow_pressure >= 0.0,
                "elastic grow pressure must be finite and non-negative"
            );
        }
        if let Some(ecfg) = &cfg.energy {
            ecfg.validate();
            let n_lanes = runtime.tasks().len() as f64;
            assert!(
                ecfg.floor_w * n_lanes <= ecfg.fleet_cap_w * (1.0 + 1e-9),
                "the per-lane energy floor times the lane count must fit \
                 the fleet cap: {} lanes x {} W > {} W",
                n_lanes,
                ecfg.floor_w,
                ecfg.fleet_cap_w
            );
        }
        let clock = Clock::start();
        let telemetry = cfg
            .telemetry
            .map(|tcfg| Arc::new(Telemetry::new(tcfg, clock)));
        let tasks = runtime.tasks();
        let budget = cfg
            .energy
            .map(|ecfg| Arc::new(FleetBudget::new(ecfg, tasks.len())));
        let mut lanes = Vec::new();
        for &task in &tasks {
            let rt = runtime.runtime(task).expect("task listed as served");
            let engine = rt.engine().clone();
            let lane = Arc::new(Lane::new(
                task,
                &cfg,
                engine.nominal_service_estimate_s(),
                engine.default_latency_target_s(),
                tasks.len(),
                budget
                    .as_ref()
                    .map(|b| (Arc::clone(b), FleetBudget::slot_of(&tasks, task))),
            ));
            lanes.push(PoolEntry { lane, engine });
        }
        let registry = Arc::new(lanes.clone());
        let mut workers = Vec::new();
        for (home, entry) in registry.iter().enumerate() {
            let task = entry.lane.task;
            for shard in 0..cfg.shards_per_task {
                let registry = Arc::clone(&registry);
                let hub = telemetry.clone();
                let handle = std::thread::Builder::new()
                    .name(format!("edgebert-{task}-{shard}"))
                    .spawn(move || shard_loop(&registry, home, shard, cfg, clock, hub.as_ref()))
                    .expect("spawn shard worker");
                workers.push(handle);
            }
        }
        Self {
            cfg,
            clock,
            lanes,
            workers,
            telemetry,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &ServerConfig {
        &self.cfg
    }

    /// The tasks this server admits.
    pub fn tasks(&self) -> Vec<Task> {
        self.lanes.iter().map(|entry| entry.lane.task).collect()
    }

    /// Requests admitted but not yet popped by a shard, across lanes.
    pub fn queued(&self) -> usize {
        self.lanes
            .iter()
            .map(|entry| entry.lane.queue.lock().expect("lane mutex").jobs.len())
            .sum()
    }

    /// Submits one request, returning a handle to its future response.
    ///
    /// Admission is non-blocking: an unknown task, a full lane, or a
    /// shutdown in progress refuse immediately with a typed
    /// [`SubmitError`] instead of silently dropping — callers decide
    /// whether to retry, reroute, or shed.
    pub fn submit(
        &self,
        task: Task,
        request: InferenceRequest,
    ) -> Result<ResponseHandle, SubmitError> {
        let entry = self
            .lanes
            .iter()
            .find(|entry| entry.lane.task == task)
            .ok_or(SubmitError::TaskNotServed(task))?;
        let target_s = request.latency_target_s.unwrap_or(entry.lane.horizon_s);
        // The EDF key is the *remaining* budget: a request pre-stamped
        // with upstream queueing is closer to its deadline than a
        // fresh one with the same target. Requests come off the wire,
        // so a non-finite target must not poison the pop comparator —
        // it sorts last (and the engine flags it at serve time).
        let remaining_s = target_s - request.effective_elapsed_queue_s();
        let key_s = if remaining_s.is_finite() {
            remaining_s
        } else {
            f64::INFINITY
        };
        let (reply, slot) = reply::slot();
        let mut queue = entry.lane.queue.lock().expect("lane mutex");
        if queue.shutting_down {
            return Err(SubmitError::ShuttingDown);
        }
        let lane = &entry.lane;
        // Foreign shards attached by elastic autoscaling drain the
        // lane too, so they count in the per-slot drain estimates
        // (always `lane.shards` with elasticity disabled).
        let effective_shards = (lane.shards + queue.extra_shards).max(1) as f64;
        let drain_slot_s = lane.nominal_service_s / effective_shards;
        if queue.jobs.len() >= lane.capacity {
            queue.stats.rejected += 1;
            return Err(SubmitError::QueueFull {
                task,
                capacity: lane.capacity,
                depth: queue.jobs.len(),
                retry_after_hint_s: drain_slot_s,
            });
        }
        let now_s = self.clock.now_s();
        let deadline_s = now_s + key_s;
        // Advance the ladder (a lane without one stays Nominal) on the
        // pre-admission backlog; on the shed rung, refuse work whose
        // remaining budget the backlog ahead of it would already
        // consume — it would queue and die, and its queueing would
        // push feasible work past its own deadline too.
        if lane.observe(&mut queue) == LadderStep::Shed {
            // Only work with an equal-or-tighter deadline runs before
            // this request.
            let ahead = queue
                .jobs
                .iter()
                .map(|j| j.deadline_s)
                .chain(queue.parked.iter().map(|p| p.ctx.deadline_s))
                .filter(|&d| d <= deadline_s)
                .count();
            // The feasibility test divides the backlog over the
            // *observed* degraded service time once the ladder's
            // Degrade rung has bought real throughput (clamped by
            // the nominal estimate, so it only ever sheds less).
            let mut shed_slot_s = lane.shed_service_estimate_s(&queue) / effective_shards;
            // An energy envelope slows every slot: the feasibility
            // test must price the lane's *allowed* speed, not the
            // nominal one, or the shed rung under-sheds and queued
            // work dies at the capped clock. A no-op (scale 1.0)
            // when the envelope admits the nominal point or the
            // backend doesn't model power.
            if let Some(per_shard_w) = lane.shard_envelope_w(&queue) {
                shed_slot_s *= entry.engine.backend().envelope_service_scale(per_shard_w);
            }
            let backlog_s = (ahead + 1) as f64 * shed_slot_s;
            // Negated so an infinite budget always admits and a NaN
            // budget (sanitized upstream, but cheap to be safe) sheds
            // rather than queues-and-dies.
            #[allow(
                clippy::neg_cmp_op_on_partial_ord,
                reason = "negated so an infinite budget admits and a NaN budget sheds"
            )]
            let infeasible = !(key_s >= backlog_s);
            if infeasible {
                queue.stats.shed += 1;
                let p = lane.pressure_of(&queue);
                if let Some(hub) = &self.telemetry {
                    // Shed requests never consume a submission
                    // sequence number (numbering stays identical
                    // with telemetry off), so their trace ids
                    // count down from the top instead.
                    hub.record_at(
                        now_s,
                        task,
                        u64::MAX - (queue.stats.shed - 1),
                        TraceEventKind::Shed { pressure: p },
                    );
                }
                return Err(SubmitError::Shed {
                    task,
                    pressure: p,
                    retry_after_hint_s: (backlog_s - key_s).max(shed_slot_s),
                });
            }
        }
        let submission = queue.next_seq;
        queue.next_seq += 1;
        queue.stats.submitted += 1;
        queue.jobs.push(Job {
            seq: submission,
            deadline_s,
            enqueued_s: now_s,
            request,
            reply,
        });
        queue.stats.queue_high_water = queue.stats.queue_high_water.max(queue.jobs.len());
        if let Some(hub) = &self.telemetry {
            // Emitted while the queue lock pins the pop: the worker
            // cannot record `Popped` before `Admitted` lands.
            hub.record_at(now_s, task, submission, TraceEventKind::Admitted);
        }
        drop(queue);
        entry.lane.available.notify_one();
        Ok(ResponseHandle {
            task,
            submission,
            slot,
        })
    }

    /// A snapshot of the per-lane counters, taken one lane lock at a
    /// time: each lane's own [`LaneStats`] plus its live fields. A
    /// steal is one record on its origin lane (a count per thief
    /// lane): `migrated` is that record's row sum and `stolen` its
    /// column sum, so the two balance in every snapshot.
    pub fn stats(&self) -> ServerStats {
        let mut stolen = vec![0u64; self.lanes.len()];
        let mut lanes: Vec<LaneStats> = self
            .lanes
            .iter()
            .map(|entry| {
                let queue = entry.lane.queue.lock().expect("lane mutex");
                for (thief, n) in queue.stolen_by.iter().enumerate() {
                    stolen[thief] += n;
                }
                LaneStats {
                    ladder_step_changes: queue
                        .controller
                        .as_ref()
                        .map_or(0, |ladder| ladder.step_changes()),
                    migrated: queue.stolen_by.iter().sum(),
                    queued: queue.jobs.len(),
                    parked: queue.parked.len(),
                    ..queue.stats
                }
            })
            .collect();
        for (lane, stolen) in lanes.iter_mut().zip(stolen) {
            lane.stolen = stolen;
        }
        ServerStats::from_lanes(lanes)
    }

    /// Everything the telemetry subsystem recorded so far: trace
    /// events and their drop counter, plus each lane's histograms and
    /// gauges, read under one hold of its lock. `None` when
    /// [`ServerConfig::telemetry`] is off. Can be taken at any time;
    /// for a complete trace of a finished load, use
    /// [`shutdown_with_telemetry`](Self::shutdown_with_telemetry).
    pub fn telemetry_snapshot(&self) -> Option<TelemetrySnapshot> {
        let hub = self.telemetry.as_ref()?;
        // Every lane's envelope from one read of the budget, so a
        // snapshot's envelopes spend exactly the cap.
        let budget = self.lanes.iter().find_map(|e| e.lane.budget.as_ref());
        let envelopes = budget.map_or_else(Vec::new, |(budget, _)| budget.envelopes_w());
        let lanes = self.lanes.iter().filter_map(|PoolEntry { lane, .. }| {
            let envelope_w = lane.budget.as_ref().map(|(_, slot)| envelopes[*slot]);
            let queue = lane.queue.lock().expect("lane mutex");
            Some(LaneTelemetrySnapshot {
                task: lane.task,
                histograms: queue.histograms?,
                pressure: lane.pressure_of(&queue),
                rung: queue
                    .controller
                    .as_ref()
                    .map_or(LadderStep::Nominal, |ladder| ladder.step()),
                queued: queue.jobs.len(),
                parked: queue.parked.len(),
                extra_shards: queue.extra_shards,
                envelope_w,
            })
        });
        Some(hub.snapshot(lanes))
    }

    /// Gracefully shuts down: admission closes, every already-admitted
    /// request is served, shard workers exit, and the final stats
    /// snapshot is returned. Outstanding [`ResponseHandle`]s stay
    /// valid — their responses were delivered during the drain.
    pub fn shutdown(mut self) -> ServerStats {
        self.close_and_join();
        self.stats()
    }

    /// [`shutdown`](Self::shutdown), additionally returning the final
    /// telemetry snapshot (taken *after* the drain, so every served
    /// request's span chain is complete). The snapshot is `None` when
    /// telemetry is off.
    pub fn shutdown_with_telemetry(mut self) -> (ServerStats, Option<TelemetrySnapshot>) {
        self.close_and_join();
        (self.stats(), self.telemetry_snapshot())
    }

    fn close_and_join(&mut self) {
        for entry in &self.lanes {
            entry.lane.queue.lock().expect("lane mutex").shutting_down = true;
            entry.lane.available.notify_all();
        }
        for worker in self.workers.drain(..) {
            worker.join().expect("shard worker exits cleanly");
        }
    }
}

impl Drop for Server {
    /// Dropping the server performs the same graceful drain as
    /// [`shutdown`](Self::shutdown).
    fn drop(&mut self) {
        self.close_and_join();
    }
}

/// One shard worker: pick the next unit of work (fresh admission or
/// parked session) in deadline order, materialize it into a running
/// session, and drive it until it completes or yields the lane.
///
/// With elasticity disabled (the default) the shard blocks on its home
/// lane and nothing else. Enabled, an idle home lane sends it roaming
/// (see [`next_elastic_work`]); foreign work is served through the
/// foreign lane's own engine and accounted on the foreign lane's
/// counters (a stolen session in its steal record too), and the shard
/// detaches once the foreign work is done.
fn shard_loop(
    registry: &[PoolEntry],
    home: usize,
    shard: usize,
    cfg: ServerConfig,
    clock: Clock,
    telemetry: Option<&Arc<Telemetry>>,
) {
    // A preemption exchange hands this shard the claimed tight job of
    // the lane it is currently serving, bypassing that lane's queue.
    let mut claimed: Option<(usize, Popped)> = None;
    loop {
        let next = claimed.take().or_else(|| match &cfg.elastic {
            Some(el) => next_elastic_work(registry, home, el),
            None => registry[home].lane.next_work().map(|popped| (home, popped)),
        });
        let Some((idx, popped)) = next else { return };
        let entry = &registry[idx];
        // A parked session resumed off its own lane is a steal (counted
        // where it was claimed, see `Lane::hand_to_foreign`).
        let thief_lane = (idx != home && matches!(popped.work, Work::Resume(_)))
            .then(|| registry[home].lane.task);
        let (session, ctx) = materialize(entry, popped, &cfg, telemetry, thief_lane, clock.now_s());
        claimed = drive(&entry.lane, session, ctx, shard, cfg, clock).map(|next| (idx, next));
        if claimed.is_none() && idx != home {
            entry.lane.detach();
        }
    }
}

/// Picks the next unit of work for an elastic shard, blocking until
/// one exists or the home lane shuts down empty (`None`). Home work
/// wins outright (a shard never starves its own task); foreign lanes
/// are consulted only when the home lane is idle, and any foreign pop
/// attaches the shard to that lane first so the pressure signal and
/// admission estimates see the grown pool.
fn next_elastic_work(
    registry: &[PoolEntry],
    home: usize,
    el: &ElasticConfig,
) -> Option<(usize, Popped)> {
    loop {
        if let Some(popped) = registry[home].lane.try_next_work() {
            return Some((home, popped));
        }
        if el.work_stealing {
            if let Some(found) = steal_tightest_parked(registry, home) {
                return Some(found);
            }
        }
        if el.autoscale {
            if let Some(found) = attach_to_pressured_lane(registry, home, el.grow_pressure) {
                return Some(found);
            }
        }
        // Nothing anywhere: wait on the home condvar with a timeout —
        // home admissions wake the shard immediately, and the timed
        // poll bounds how long freshly pressured *foreign* lanes (which
        // signal their own condvars, not this one) can go unnoticed.
        let queue = registry[home].lane.queue.lock().expect("lane mutex");
        if queue.shutting_down && queue.jobs.is_empty() && queue.parked.is_empty() {
            // Foreign lanes still draining are their own shards'
            // responsibility; exiting here is what lets shutdown join
            // every worker.
            return None;
        }
        let _ = registry[home]
            .lane
            .available
            .wait_timeout(queue, ELASTIC_IDLE_POLL)
            .expect("lane mutex");
    }
}

/// Finds and claims the EDF-tightest parked session across all foreign
/// lanes. Scans one lane lock at a time (two lane locks are never
/// held together), then re-locks the winner to steal — tolerating the
/// race where another shard got there first (`None`; the caller's loop
/// rescans).
fn steal_tightest_parked(registry: &[PoolEntry], home: usize) -> Option<(usize, Popped)> {
    let mut best: Option<(usize, (f64, u64))> = None;
    for (idx, entry) in registry.iter().enumerate() {
        if idx == home {
            continue;
        }
        if let Some(key) = entry.lane.tightest_parked() {
            if best.is_none_or(|(_, bk)| key < bk) {
                best = Some((idx, key));
            }
        }
    }
    let (idx, (_, seq)) = best?;
    let popped = registry[idx].lane.steal_parked(seq, home)?;
    Some((idx, popped))
}

/// Finds the most pressured foreign lane with work waiting whose
/// pressure clears the grow threshold, attaches to it, and pops its
/// next unit of work (fresh or parked, in the lane's deadline
/// order). Same two-pass, one-lock-at-a-time discipline as stealing.
///
/// Energy envelopes gate the growth: an extra shard is one more
/// accelerator that must draw at least the backend's floor power, so a
/// lane whose envelope cannot fund `shards + extras + 1` floor-power
/// draws *declines* the attach (counted in
/// [`LaneStats::attach_declined`]) rather than blowing through the
/// fleet cap — the lane stays pressured and drains at its funded
/// width. Lanes without an envelope attach exactly as before, and so
/// does a backend whose floor draw is infinite: only a mobile-GPU
/// anchor measured at `power_w = +∞` has one, and no finite envelope
/// could price its shards, so the gate passes it rather than freezing
/// the lane at its home width.
fn attach_to_pressured_lane(
    registry: &[PoolEntry],
    home: usize,
    grow_pressure: f64,
) -> Option<(usize, Popped)> {
    let envelope_funds_another_shard = |entry: &PoolEntry, queue: &lane::LaneQueue| {
        let Some(w) = entry.lane.envelope_w() else {
            return true;
        };
        let floor_w = entry.engine.backend().floor_power_w();
        !floor_w.is_finite() || w >= (entry.lane.shards + queue.extra_shards + 1) as f64 * floor_w
    };
    let mut best: Option<(usize, f64)> = None;
    for (idx, entry) in registry.iter().enumerate() {
        if idx == home {
            continue;
        }
        let mut queue = entry.lane.queue.lock().expect("lane mutex");
        if queue.jobs.is_empty() && queue.parked.is_empty() {
            continue;
        }
        let p = entry.lane.pressure_of(&queue);
        if p < grow_pressure {
            continue;
        }
        if !envelope_funds_another_shard(entry, &queue) {
            queue.stats.attach_declined += 1;
            continue;
        }
        if best.is_none_or(|(_, bp)| p > bp) {
            best = Some((idx, p));
        }
    }
    let (idx, _) = best?;
    let entry = &registry[idx];
    let mut queue = entry.lane.queue.lock().expect("lane mutex");
    // The envelope may have shrunk between the scan and the claim:
    // re-judge under the lock that commits the attach.
    if !envelope_funds_another_shard(entry, &queue) {
        queue.stats.attach_declined += 1;
        return None;
    }
    let work = Lane::pop_work(&mut queue)?;
    Some((idx, entry.lane.hand_to_foreign(&mut queue, work, home)))
}

/// Turns a popped unit of work, popped at `now_s` on the server clock,
/// into a running session plus its serving context: a fresh admission
/// measures its wait and stamps slack before the engine opens the
/// session; a parked session resumes, charging its parked wall time.
/// `telemetry`/`thief_lane` are observation-only: a fresh pop emits
/// `Popped` (and `Degraded` when the ladder bit) and attaches the
/// request's span recorder to the session; a resume emits `Resumed`,
/// attributing the thief's home lane when the session crossed lanes.
fn materialize(
    entry: &PoolEntry,
    popped: Popped,
    cfg: &ServerConfig,
    telemetry: Option<&Arc<Telemetry>>,
    thief_lane: Option<Task>,
    now_s: f64,
) -> (InferenceSession, JobContext) {
    match popped.work {
        Work::Fresh(job) => {
            let queue_delay_s = now_s - job.enqueued_s;
            // Any pre-stamp from the submitter (an upstream hop's
            // measured wait) counts toward the total elapsed queue
            // time.
            let pre_stamp_s = job.request.effective_elapsed_queue_s();
            let elapsed_s = pre_stamp_s + queue_delay_s;
            // The wait this server charges to the engine's DVFS budget
            // on top of that pre-stamp. The engine always honors the
            // stamp a request carries — "slack-blind" means the
            // *server* adds none of its own measured wait on top, not
            // that a submitter's stamp is erased. The noise floor
            // gates the *measured* wait alone: a request pre-stamped
            // above the floor must not have sub-floor wake-up jitter
            // folded into its budget either.
            let charged_wait_s = if cfg.queue_aware_slack && queue_delay_s >= cfg.slack_floor_s {
                queue_delay_s
            } else {
                0.0
            };
            let (mut request, budgeted_s) = job.request.stamped_at_dispatch(charged_wait_s);
            // The lane's per-shard energy allowance at pop time rides
            // the request into the engine: every DVFS decision this
            // sentence makes is clamped under it, while the deadline
            // verdict keeps judging the real target (`None` without
            // energy budgeting — the exact pre-energy path).
            if let Some(w) = popped.envelope_w {
                request = request.with_envelope_w(w);
            }
            // The verdict charges exactly the elapsed time the
            // server accounted for. In queue-aware mode a
            // sub-floor wait was declared measurement noise and
            // not deducted from the DVFS budget, so it must not
            // flip the verdict either — otherwise an *idle* server
            // would mark every sentence whose compute stretches
            // exactly onto its target as missed, on microseconds
            // of wake-up jitter. The slack-blind baseline charges
            // the full measured wait: not accounting for queueing
            // is precisely the failure it exists to demonstrate.
            let charged_elapsed_s = if cfg.queue_aware_slack {
                budgeted_s
            } else {
                elapsed_s
            };
            // The overload ladder's rung at pop time sizes this
            // sentence's degradation; the opener clamps it to the
            // request's own floor. Zero notches (no ladder, which pops
            // at the nominal rung, or a zero floor) takes the exact
            // `begin` path.
            let mut session = entry
                .engine
                .begin_degraded(&request, popped.ladder_step.severity());
            if let Some(hub) = telemetry {
                let recorder = hub.recorder(entry.lane.task, job.seq);
                recorder.emit(TraceEventKind::Popped { queue_delay_s });
                let notches = session.degraded_notches();
                if notches > 0 {
                    recorder.emit(TraceEventKind::Degraded { notches });
                }
                session.attach_trace(recorder);
            }
            (
                session,
                JobContext {
                    seq: job.seq,
                    deadline_s: job.deadline_s,
                    reply: job.reply,
                    queue_delay_s,
                    slack_deducted_s: budgeted_s,
                    elapsed_s,
                    charged_elapsed_s,
                },
            )
        }
        Work::Resume(parked) => {
            let parked = *parked;
            let mut session = parked.session;
            // The parked wall time burned real slack: the next
            // DVFS decision sees it, and so does the verdict.
            session.resume(now_s - parked.parked_s);
            if let Some(recorder) = session.trace() {
                recorder.emit(TraceEventKind::Resumed { thief_lane });
            }
            (session, parked.ctx)
        }
    }
}

/// Steps one session until it completes or yields the lane. Completion
/// folds the sentence into the lane's counters and then delivers the
/// response, returning `None`; a preemption exchange parks the session
/// (with its serving context) onto the lane and returns the claimed
/// tight job for the shard to serve next. Either yield takes the lane
/// lock once, and carries this dispatch's step times with it.
fn drive(
    lane: &Arc<Lane>,
    mut session: InferenceSession,
    mut ctx: JobContext,
    shard: usize,
    cfg: ServerConfig,
    clock: Clock,
) -> Option<Popped> {
    let dispatch_start_s = clock.now_s();
    let resume_base_s = session.modeled_latency_s();
    // Emulation granularity follows the preemption policy: preemptive
    // lanes must be really busy for each layer's modeled time so a
    // boundary exists mid-service to park at, while non-preemptive
    // lanes sleep once per dispatch — per-step sleeps would stack one
    // scheduler-quantum overshoot per layer onto sentences that land
    // exactly on their deadlines by design.
    let per_step_emulation = cfg.preemption != PreemptionPolicy::Off;
    // Wall-clock step times of this dispatch (telemetry only), folded
    // into the lane at the yield instead of one lock per layer.
    let mut step_times = cfg.telemetry.map(|_| LogHistogram::new());
    let emulate_to_accrued = |session: &InferenceSession| {
        // Hold the lane for the modeled hardware latency accrued so
        // far in this dispatch. The software forward pass already
        // consumed real time, so only the remainder is slept — lane
        // busy time is the modeled service time, not the sum of both.
        // Capped at 10 s; a NaN accrual sleeps not at all.
        let accrued_s = session.modeled_latency_s() - resume_base_s;
        clock.sleep_until(dispatch_start_s + accrued_s.clamp(0.0, 10.0));
    };
    loop {
        if let Some(step_times) = &mut step_times {
            let step_start_s = clock.now_s();
            session.step();
            step_times.record(clock.now_s() - step_start_s);
        } else {
            session.step();
        }
        if cfg.emulate_service_time && per_step_emulation {
            emulate_to_accrued(&session);
        }
        if session.is_complete() {
            if cfg.emulate_service_time && !per_step_emulation {
                emulate_to_accrued(&session);
            }
            break;
        }
        // Between layer steps: yield the lane if a strictly tighter
        // arrival is queued. The cheap poll runs lock-light; the
        // authoritative decision is the atomic exchange, which parks
        // this session at the layer boundary — hidden state and
        // committed cost checkpointed — and claims the tight job for
        // this shard in the same lock, so a pool of shards can never
        // stampede-park for one arrival.
        if cfg.preemption != PreemptionPolicy::Off {
            let pressured = lane
                .tightest_queued_deadline()
                .is_some_and(|queued| cfg.preemption.should_preempt(ctx.deadline_s, queued));
            if pressured {
                let now_s = clock.now_s();
                match lane.preempt_exchange(
                    session,
                    ctx,
                    cfg.preemption,
                    step_times.as_ref(),
                    now_s,
                ) {
                    Ok(claimed) => return Some(claimed),
                    // Pressure vanished between the poll and the lock
                    // (another shard claimed the arrival): nothing was
                    // parked or charged — keep stepping.
                    Err(back) => {
                        (session, ctx) = *back;
                    }
                }
            }
        }
    }
    let preemptions = session.preemptions();
    let parked_s = session.parked_s();
    let degraded_notches = session.degraded_notches();
    let response = session
        .response()
        .expect("a completed session carries its response");
    // Parked time is real elapsed time the sentence spent not
    // computing: it counts in the sojourn and against the deadline in
    // both slack modes, exactly as the session's own accounting saw it.
    let sojourn_s = ctx.elapsed_s + parked_s + response.result.latency_s;
    let met = deadline_met(
        ctx.charged_elapsed_s + parked_s + response.result.latency_s,
        response.latency_target_s,
    );
    let energy_j = response.result.energy_j;
    if let Some(recorder) = session.trace() {
        recorder.emit(TraceEventKind::Completed {
            verdict: met,
            energy_j,
        });
    }
    let served = ServerResponse {
        task: lane.task,
        shard,
        submission: ctx.seq,
        response,
        queue_delay_s: ctx.queue_delay_s,
        slack_deducted_s: ctx.slack_deducted_s,
        preemptions,
        parked_s,
        degraded_notches,
        sojourn_s,
        deadline_met: met,
        energy_j,
    };
    lane.complete(&served, step_times.as_ref());
    // The client may have stopped waiting; a dead handle is not a
    // server error.
    ctx.reply.send(served);
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calibrate::SweepCache;
    use crate::engine::{
        DropTarget, EngineBuilder, EntropyThresholds, InferenceMode, SentenceResult,
    };
    use crate::predictor::EntropyPredictor;
    use crate::serving::TaskRuntime;
    use edgebert_model::{AlbertConfig, AlbertModel};
    use edgebert_tasks::{Dataset, TaskGenerator, VocabLayout};
    use edgebert_tensor::Rng;

    fn fixture_runtime() -> (MultiTaskRuntime, Dataset) {
        let layout = VocabLayout::standard();
        let cfg = AlbertConfig::tiny(layout.vocab_size(), 2);
        let mut rng = Rng::seed_from(23);
        let model = AlbertModel::pretrained(cfg, &layout, &mut rng);
        let gen = TaskGenerator::standard(Task::Sst2, cfg.max_seq_len);
        let data = gen.generate(16, 7);
        let cache = SweepCache::build(&model, &data);
        let pred = EntropyPredictor::train(&cache.entropy_dataset(), 40, 3);
        let lut = pred.to_lut(32, 1.1);
        let builder = EngineBuilder::new(Arc::new(model), Arc::new(lut))
            .uniform_thresholds(EntropyThresholds::uniform(0.3))
            .latency_target(60e-3);
        let rt = TaskRuntime::from_builder(Task::Sst2, builder);
        (MultiTaskRuntime::from_runtimes([rt]), data)
    }

    fn blind_config() -> ServerConfig {
        ServerConfig {
            queue_aware_slack: false,
            ..ServerConfig::default()
        }
    }

    #[test]
    fn unknown_task_is_a_typed_routing_error() {
        let (rt, data) = fixture_runtime();
        let server = Server::start(&rt, blind_config());
        let req = InferenceRequest::new(data.examples()[0].tokens.clone());
        assert!(matches!(
            server.submit(Task::Mnli, req),
            Err(SubmitError::TaskNotServed(Task::Mnli))
        ));
        assert_eq!(server.tasks(), vec![Task::Sst2]);
    }

    #[test]
    fn zero_capacity_lane_exerts_deterministic_backpressure() {
        let (rt, data) = fixture_runtime();
        let server = Server::start(
            &rt,
            ServerConfig {
                queue_capacity: 0,
                ..blind_config()
            },
        );
        for _ in 0..3 {
            let req = InferenceRequest::new(data.examples()[0].tokens.clone());
            match server.submit(Task::Sst2, req) {
                Err(SubmitError::QueueFull {
                    task: Task::Sst2,
                    capacity: 0,
                    depth: 0,
                    retry_after_hint_s,
                }) => assert!(retry_after_hint_s > 0.0),
                other => panic!("expected QueueFull, got {other:?}"),
            }
        }
        let stats = server.shutdown();
        assert_eq!(stats.rejected(), 3);
        assert_eq!(stats.submitted(), 0);
        assert_eq!(stats.served(), 0);
    }

    #[test]
    fn slack_blind_responses_are_bit_identical_to_direct_serve() {
        let (rt, data) = fixture_runtime();
        let engine = rt.runtime(Task::Sst2).expect("served").engine().clone();
        let server = Server::start(
            &rt,
            ServerConfig {
                shards_per_task: 2,
                ..blind_config()
            },
        );
        let mut handles = Vec::new();
        let mut expected = Vec::new();
        for (i, ex) in data.iter().enumerate() {
            let req = InferenceRequest::new(ex.tokens.clone())
                .with_latency_target(20e-3 + 5e-3 * i as f64);
            expected.push(engine.serve(&req));
            handles.push(server.submit(Task::Sst2, req).expect("admitted"));
        }
        for (handle, want) in handles.into_iter().zip(expected) {
            let got = handle.wait().expect("worker alive");
            assert_eq!(got.response, want);
            assert_eq!(got.slack_deducted_s, 0.0);
            assert_eq!(got.task, Task::Sst2);
            assert!(got.shard < 2);
            assert!(got.queue_delay_s >= 0.0);
            assert_eq!(
                got.deadline_met,
                deadline_met(got.sojourn_s, got.response.latency_target_s)
            );
        }
        let stats = server.shutdown();
        assert_eq!(stats.served(), data.len() as u64);
        assert_eq!(stats.violations(), {
            // recomputable from the lane snapshot
            stats.lane(Task::Sst2).expect("lane").violations
        });
    }

    #[test]
    fn non_finite_wire_targets_do_not_poison_the_lane() {
        // Regression: a NaN latency target off the wire used to panic
        // the EDF pop comparator inside a shard worker, poisoning the
        // lane mutex and aborting the process on Drop. Garbage targets
        // now sort last and are flagged infeasible by the engine.
        let (rt, data) = fixture_runtime();
        let server = Server::start(&rt, blind_config());
        let mut handles = Vec::new();
        for (i, bad) in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY]
            .into_iter()
            .enumerate()
        {
            let req =
                InferenceRequest::new(data.examples()[i].tokens.clone()).with_latency_target(bad);
            handles.push(server.submit(Task::Sst2, req).expect("admitted"));
        }
        // A sane request rides along and must be served normally.
        let sane = server
            .submit(
                Task::Sst2,
                InferenceRequest::new(data.examples()[3].tokens.clone()).with_latency_target(50e-3),
            )
            .expect("admitted");
        assert_eq!(
            sane.wait().expect("worker alive").response.latency_target_s,
            50e-3
        );
        for handle in handles {
            handle.wait().expect("delivered, not lost");
        }
        let stats = server.shutdown();
        assert_eq!(stats.served(), 4);
    }

    #[test]
    fn idle_queue_aware_server_does_not_charge_wakeup_jitter() {
        // Regression: a sentence whose DVFS stretches compute exactly
        // onto its target used to be judged "missed" on an idle
        // queue-aware server, because the microseconds of worker
        // wake-up jitter — deliberately below the slack floor and NOT
        // deducted from the budget — were still charged to the sojourn
        // verdict. Sub-floor waits stay out of both.
        let (rt, data) = fixture_runtime();
        let strict = TaskRuntime::from_builder(
            Task::Sst2,
            rt.runtime(Task::Sst2)
                .expect("served")
                .builder()
                .uniform_thresholds(EntropyThresholds::uniform(0.0)),
        );
        let tokens = data.examples()[0].tokens.clone();
        let direct = strict
            .engine()
            .serve(&InferenceRequest::new(tokens.clone()).with_latency_target(60e-3));
        assert!(
            direct.result.deadline_met && direct.result.latency_s > 50e-3,
            "fixture must stretch compute onto the target ({} s)",
            direct.result.latency_s
        );
        let server = Server::start(
            &MultiTaskRuntime::from_runtimes([strict]),
            ServerConfig {
                // Queue-aware, with a floor generous enough that a
                // slow CI machine's wake-up jitter stays under it.
                slack_floor_s: 20e-3,
                ..ServerConfig::default()
            },
        );
        let resp = server
            .submit(
                Task::Sst2,
                InferenceRequest::new(tokens).with_latency_target(60e-3),
            )
            .expect("admitted")
            .wait()
            .expect("worker alive");
        assert_eq!(resp.response, direct, "idle serve is bit-identical");
        assert_eq!(resp.slack_deducted_s, 0.0);
        assert!(
            resp.deadline_met,
            "sub-floor wake-up jitter ({} s) must not flip the verdict",
            resp.queue_delay_s
        );

        // Same contract for a request pre-stamped *above* the floor:
        // the floor gates the measured wait alone, so jitter is not
        // folded into the stamp and the response stays bit-identical
        // to serving the stamped request directly.
        let stamped = InferenceRequest::new(data.examples()[1].tokens.clone())
            .with_latency_target(90e-3)
            .with_elapsed_queue_s(40e-3);
        let want = rt
            .runtime(Task::Sst2)
            .expect("served")
            .builder()
            .uniform_thresholds(EntropyThresholds::uniform(0.0))
            .build()
            .serve(&stamped);
        let got = server
            .submit(Task::Sst2, stamped)
            .expect("admitted")
            .wait()
            .expect("worker alive");
        assert_eq!(
            got.response, want,
            "pre-stamped idle serve is bit-identical"
        );
        assert_eq!(got.slack_deducted_s, 40e-3);
        server.shutdown();
    }

    #[test]
    fn slack_floor_admits_a_wait_at_the_floor_not_one_ulp_below() {
        // `materialize` reads no clock: a job enqueued at 0 and popped
        // at `now_s` waited exactly `now_s`, so the floor rule can be
        // driven at the exact boundary.
        let (rt, data) = fixture_runtime();
        let engine = rt.runtime(Task::Sst2).expect("served").engine().clone();
        let floor_s = ServerConfig::default().slack_floor_s;
        let below_s = f64::from_bits(floor_s.to_bits() - 1);
        // (queue-aware, measured wait, wait charged to the DVFS budget)
        let cases = [
            (true, below_s, 0.0),
            (true, floor_s, floor_s),
            (false, below_s, 0.0),
            (false, floor_s, 0.0),
        ];
        for (queue_aware_slack, wait_s, charged_wait_s) in cases {
            let cfg = ServerConfig {
                queue_aware_slack,
                ..ServerConfig::default()
            };
            let entry = PoolEntry {
                lane: Arc::new(Lane::new(Task::Sst2, &cfg, 10e-3, 60e-3, 1, None)),
                engine: engine.clone(),
            };
            for pre_stamp_s in [0.0, 5e-3] {
                let (reply, _slot) = reply::slot();
                let request = InferenceRequest::new(data.examples()[0].tokens.clone())
                    .with_elapsed_queue_s(pre_stamp_s);
                let popped = Popped {
                    work: Work::Fresh(Job {
                        seq: 0,
                        deadline_s: 1.0,
                        enqueued_s: 0.0,
                        request,
                        reply,
                    }),
                    ladder_step: LadderStep::Nominal,
                    envelope_w: None,
                };
                let (session, ctx) = materialize(&entry, popped, &cfg, None, None, wait_s);
                let case = (queue_aware_slack, wait_s, pre_stamp_s);
                assert_eq!(ctx.queue_delay_s, wait_s, "{case:?}");
                assert_eq!(ctx.elapsed_s, pre_stamp_s + wait_s, "{case:?}");
                let budgeted_s = pre_stamp_s + charged_wait_s;
                assert_eq!(ctx.slack_deducted_s, budgeted_s, "{case:?}");
                assert_eq!(session.elapsed_charged_s(), budgeted_s, "{case:?}");
                // The slack-blind verdict charges the whole measured wait.
                let verdict_s = if queue_aware_slack {
                    budgeted_s
                } else {
                    pre_stamp_s + wait_s
                };
                assert_eq!(ctx.charged_elapsed_s, verdict_s, "{case:?}");
            }
        }
    }

    fn served(submission: u64) -> ServerResponse {
        let energy_j = 1e-6;
        let result = SentenceResult {
            mode: InferenceMode::LatencyAware,
            exit_layer: 1,
            predicted_layer: Some(1),
            prediction: 0,
            latency_s: 1e-3,
            energy_j,
            voltage: 0.8,
            freq_hz: 1e8,
            deadline_met: true,
        };
        ServerResponse {
            task: Task::Sst2,
            shard: 0,
            submission,
            response: InferenceResponse {
                result,
                latency_target_s: 50e-3,
                drop_target: DropTarget::OnePercent,
            },
            queue_delay_s: 0.0,
            slack_deducted_s: 0.0,
            preemptions: 0,
            parked_s: 0.0,
            degraded_notches: 0,
            sojourn_s: 1e-3,
            deadline_met: true,
            energy_j,
        }
    }

    fn handle_on(slot: ReplySlot, submission: u64) -> ResponseHandle {
        ResponseHandle {
            task: Task::Sst2,
            submission,
            slot,
        }
    }

    /// The outcome of a timed wait that must not time out.
    fn outcome_within(handle: ResponseHandle, timeout: Duration) -> ServeOutcome {
        handle
            .wait_timeout(timeout)
            .unwrap_or_else(|_| panic!("a filled slot does not time out"))
    }

    #[test]
    fn a_dead_worker_is_a_typed_error_not_a_panic() {
        // A worker that dies without filling the reply slot used to
        // panic the *caller* inside `wait()`. It is now the typed
        // `WorkerLost` error, on both the blocking and timed paths.
        let lost = WorkerLost {
            task: Task::Sst2,
            submission: 7,
        };
        let (reply, slot) = reply::slot();
        drop(reply);
        assert_eq!(handle_on(slot, 7).wait(), Err(lost));
        let (reply, slot) = reply::slot();
        drop(reply);
        assert_eq!(
            outcome_within(handle_on(slot, 7), Duration::from_millis(1)),
            Err(lost),
            "a dropped reply is a loss, not a timeout"
        );
        assert!(lost.to_string().contains("submission #7"));
    }

    #[test]
    fn a_reply_sent_before_or_after_wait_is_delivered() {
        let (reply, slot) = reply::slot();
        reply.send(served(1));
        assert_eq!(handle_on(slot, 1).wait(), Ok(served(1)));

        // Released together, the send lands before or after the waiter
        // blocks.
        let start = Arc::new(std::sync::Barrier::new(2));
        for i in 0..1_000 {
            let (reply, slot) = reply::slot();
            let shard_start = Arc::clone(&start);
            let shard = std::thread::spawn(move || {
                shard_start.wait();
                reply.send(served(i));
            });
            start.wait();
            assert_eq!(handle_on(slot, i).wait(), Ok(served(i)));
            shard.join().expect("shard");
        }
    }

    #[test]
    fn a_timed_out_handle_comes_back_and_still_receives() {
        let (reply, slot) = reply::slot();
        let Err(handle) = handle_on(slot, 3).wait_timeout(Duration::from_millis(1)) else {
            panic!("an unfilled slot times out")
        };
        assert_eq!((handle.task(), handle.submission()), (Task::Sst2, 3));
        let shard = std::thread::spawn(move || reply.send(served(3)));
        assert_eq!(handle.wait(), Ok(served(3)));
        shard.join().expect("shard");

        // A filled slot returns at once, even for an unbounded timeout.
        let (reply, slot) = reply::slot();
        reply.send(served(4));
        assert_eq!(
            outcome_within(handle_on(slot, 4), Duration::MAX),
            Ok(served(4))
        );
    }

    #[test]
    fn a_reply_dropped_by_a_panicking_shard_is_worker_lost() {
        let lost = WorkerLost {
            task: Task::Sst2,
            submission: 9,
        };
        for timed in [false, true] {
            let (reply, slot) = reply::slot();
            let handle = handle_on(slot, 9);
            let shard = std::thread::spawn(move || {
                let _reply = reply;
                panic!("shard panics mid-step");
            });
            let outcome = if timed {
                outcome_within(handle, Duration::MAX)
            } else {
                handle.wait()
            };
            assert_eq!(outcome, Err(lost), "timed: {timed}");
            assert!(shard.join().is_err());
        }
    }

    #[test]
    fn shutdown_drains_every_admitted_request() {
        let (rt, data) = fixture_runtime();
        let server = Server::start(&rt, blind_config());
        let handles: Vec<ResponseHandle> = data
            .iter()
            .map(|ex| {
                server
                    .submit(Task::Sst2, InferenceRequest::new(ex.tokens.clone()))
                    .expect("admitted")
            })
            .collect();
        // Shut down immediately: the drain must serve everything that
        // was admitted before handles are waited on.
        let stats = server.shutdown();
        assert_eq!(stats.served(), data.len() as u64);
        assert_eq!(stats.queued(), 0);
        for handle in handles {
            let resp = handle
                .wait_timeout(Duration::from_secs(5))
                .expect("response was delivered during the drain")
                .expect("worker alive");
            assert!(resp.response.result.energy_j > 0.0);
        }
    }

    #[test]
    fn submissions_after_shutdown_are_refused() {
        let (rt, data) = fixture_runtime();
        let server = Server::start(&rt, blind_config());
        // Close admission by hand (shutdown consumes the server, so
        // poke the lane the way close_and_join does).
        for entry in &server.lanes {
            entry.lane.queue.lock().expect("lane mutex").shutting_down = true;
            entry.lane.available.notify_all();
        }
        let req = InferenceRequest::new(data.examples()[0].tokens.clone());
        assert!(matches!(
            server.submit(Task::Sst2, req),
            Err(SubmitError::ShuttingDown)
        ));
    }
}
