//! Mixed-deadline load generation and tail-latency reporting for the
//! serving scenarios under `examples/` and `tests/`.
//!
//! The generator produces the traffic shape the EDF scheduler exists
//! for: requests across the served tasks arriving as a Poisson-like
//! process, each drawn from a weighted set of [`TrafficClass`]es (a
//! tight voice-assistant budget mixed with relaxed translation
//! traffic). [`TailReport`] folds a drained schedule into the numbers
//! that matter under load — p50/p95/p99 sojourn latency and the
//! deadline-violation rate — per class, so an EDF-vs-FIFO comparison
//! shows exactly who head-of-line blocking was hurting.
//!
//! **Trace-driven load** ([`TraceSpec`]) composes non-stationary
//! arrival processes from [`TraceSegment`]s — steady plateaus, linear
//! ramps, diurnal cycles, flash crowds — each a non-homogeneous
//! Poisson stretch with its own (optional) class mix. This is the
//! traffic the overload control plane is tested against: offered load
//! that crosses capacity and comes back down.
//!
//! **Determinism contract.** Every generator here is reproducible for
//! identical `(spec, seed)`, and the *physical* arrival stream (task,
//! tokens, arrival time, latency target) is independent of the order
//! traffic classes were declared in: class draws and phase offsets are
//! computed over a canonical class ordering (ascending latency target,
//! ties by name/weight/task), so permuting [`LoadSpec::classes`] only
//! permutes the reported class *indices*, never the traffic.

use edgebert::clock::Clock;
use edgebert::scheduler::{DeadlineScheduler, ScheduledResponse, SchedulerConfig};
use edgebert::server::{Server, ServerConfig, ServerResponse, ServerStats, SubmitError};
use edgebert::telemetry::{LogHistogram, TelemetrySnapshot};
use edgebert::{InferenceRequest, MultiTaskRuntime};
use edgebert_tasks::{Task, TaskGenerator};
use edgebert_tensor::stats::percentile;
use edgebert_tensor::Rng;

/// One deadline tier of the generated traffic mix.
#[derive(Debug, Clone)]
pub struct TrafficClass {
    /// Label used in reports (e.g. `"tight"`).
    pub name: &'static str,
    /// Per-request latency target, seconds.
    pub latency_target_s: f64,
    /// Relative share of the traffic in this class.
    pub weight: f32,
    /// Route this class's requests to one task (the deployment shape
    /// where an application ↔ task ↔ deadline tier, e.g. the voice
    /// assistant is SST-2 and the translator is QNLI). `None` draws
    /// tasks round-robin across the runtime's served set, mixing
    /// classes within each task.
    pub task: Option<Task>,
}

/// A generated load: the arrival process the scheduler replays.
#[derive(Debug, Clone)]
pub struct LoadSpec {
    /// Number of requests to generate.
    pub requests: usize,
    /// Mean inter-arrival gap, seconds.
    pub mean_interarrival_s: f64,
    /// Deterministic gaps exactly at the mean (a frame-paced edge
    /// pipeline: fixed sensor or audio cadence). `false` draws
    /// exponential gaps (Poisson arrivals, the bursty open-loop case).
    pub paced: bool,
    /// The deadline mix.
    pub classes: Vec<TrafficClass>,
    /// RNG seed (arrivals, class draws, and sentences are all
    /// deterministic in it).
    pub seed: u64,
}

/// One generated request with its arrival time and traffic class.
#[derive(Debug, Clone)]
pub struct LoadRequest {
    /// Task the request routes to.
    pub task: Task,
    /// The request (tokens + latency target of its class).
    pub request: InferenceRequest,
    /// Arrival timestamp on the virtual clock, seconds.
    pub arrival_s: f64,
    /// Index into [`LoadSpec::classes`].
    pub class: usize,
}

/// Mean modeled compute latency over a few sentences of every served
/// task — the service-time scale to size deadlines and arrival rates
/// against.
///
/// Probed at a zero latency target: the DVFS controller then runs at
/// nominal V/F (maximum performance), so this is the *floor* service
/// time. Relaxed-deadline requests may legitimately take longer —
/// latency-aware inference stretches compute into whatever slack the
/// sentence carries.
pub fn estimate_service_s(runtime: &MultiTaskRuntime, seed: u64) -> f64 {
    let mut total = 0.0;
    let mut count = 0usize;
    for task in runtime.tasks() {
        let rt = runtime.runtime(task).expect("served task");
        let gen = TaskGenerator::standard(task, rt.model().config.max_seq_len);
        for ex in gen.generate(4, seed).iter() {
            let resp = rt.serve(&InferenceRequest::new(ex.tokens.clone()).with_latency_target(0.0));
            total += resp.result.latency_s;
            count += 1;
        }
    }
    total / count.max(1) as f64
}

/// Canonical class ordering: indices into `classes` sorted ascending
/// by latency target, ties broken by name, weight, then task. Class
/// draws and phase offsets run over this order, which is what makes
/// the generated *traffic* invariant under permutation of the
/// declaration order (only the reported class indices permute).
///
/// Every pre-existing caller in this workspace declares classes
/// ascending by latency target, so for them the canonical order *is*
/// the declaration order and the generated streams are bit-identical
/// to the pre-canonical generators.
fn canonical_class_order(classes: &[TrafficClass]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..classes.len()).collect();
    order.sort_by(|&a, &b| {
        let ka = &classes[a];
        let kb = &classes[b];
        ka.latency_target_s
            .total_cmp(&kb.latency_target_s)
            .then_with(|| ka.name.cmp(kb.name))
            .then_with(|| ka.weight.total_cmp(&kb.weight))
            .then_with(|| {
                let ta = ka.task.map(|t| t as i64).unwrap_or(-1);
                let tb = kb.task.map(|t| t as i64).unwrap_or(-1);
                ta.cmp(&tb)
            })
    });
    order
}

/// Weighted class draw over the canonical order: one uniform sample,
/// cumulative scan. Bit-identical to [`Rng::weighted_index`] whenever
/// the declaration order is already canonical (same summation order,
/// same scan, same single RNG draw).
fn draw_class(rng: &mut Rng, order: &[usize], weights: &[f32]) -> usize {
    let total: f32 = order.iter().map(|&i| weights[i]).sum();
    assert!(total > 0.0, "class draw needs positive total weight");
    let mut target = rng.uniform() * total;
    for &i in order {
        if target < weights[i] {
            return i;
        }
        target -= weights[i];
    }
    *order.last().expect("at least one class")
}

/// Generates a mixed-task, mixed-deadline arrival process: tasks drawn
/// round-robin across the runtime's served set, classes drawn by
/// weight, inter-arrival gaps exponential with the spec's mean.
pub fn generate(runtime: &MultiTaskRuntime, spec: &LoadSpec) -> Vec<LoadRequest> {
    let tasks = runtime.tasks();
    assert!(!tasks.is_empty(), "runtime serves no tasks");
    assert!(!spec.classes.is_empty(), "load needs at least one class");
    let mut rng = Rng::seed_from(spec.seed);
    let order = canonical_class_order(&spec.classes);
    let weights: Vec<f32> = spec.classes.iter().map(|c| c.weight).collect();
    let mut pools: Vec<(Task, Vec<Vec<u32>>)> = tasks
        .iter()
        .map(|&task| {
            let rt = runtime.runtime(task).expect("served task");
            let gen = TaskGenerator::standard(task, rt.model().config.max_seq_len);
            let toks = gen
                .generate(
                    spec.requests.div_ceil(tasks.len()).max(1),
                    spec.seed ^ task as u64,
                )
                .examples()
                .iter()
                .map(|ex| ex.tokens.clone())
                .collect();
            (task, toks)
        })
        .collect();
    let mut load = Vec::with_capacity(spec.requests);
    let mut clock = 0.0f64;
    for i in 0..spec.requests {
        // Paced: fixed gaps. Poisson: -mean * ln(1 - U), U ∈ [0, 1).
        clock += if spec.paced {
            spec.mean_interarrival_s
        } else {
            let u = rng.uniform().min(0.999_999) as f64;
            -spec.mean_interarrival_s * (1.0 - u).ln()
        };
        let class = draw_class(&mut rng, &order, &weights);
        let pool_at = match spec.classes[class].task {
            // Class-bound traffic routes to its task's pool.
            Some(task) => tasks
                .iter()
                .position(|&t| t == task)
                .expect("class-bound task must be served by the runtime"),
            // Unbound traffic draws tasks round-robin.
            None => i % tasks.len(),
        };
        let (task, pool) = &mut pools[pool_at];
        let tokens = pool[i / tasks.len() % pool.len()].clone();
        load.push(LoadRequest {
            task: *task,
            request: InferenceRequest::new(tokens)
                .with_latency_target(spec.classes[class].latency_target_s),
            arrival_s: clock,
            class,
        });
    }
    load
}

/// Generates deterministic per-class paced streams: every class must
/// be bound to its task ([`TrafficClass::task`]), and class `c`'s
/// requests arrive every `lane_interarrival_s` seconds with a phase
/// offset of `c / classes · lane_interarrival_s` staggering the
/// streams. This is the fixed-cadence counterpart of [`generate`]'s
/// Poisson mix — the shape of frame-paced edge pipelines, where each
/// application (sensor, microphone, camera) ticks on its own clock —
/// and the per-lane offered utilization is exactly
/// `floor service / lane_interarrival_s`. Class weights are ignored:
/// each class contributes `requests_per_class` requests. Phase offsets
/// follow the *canonical* class order (ascending latency target), so
/// the physical streams do not depend on declaration order.
pub fn generate_paced_streams(
    runtime: &MultiTaskRuntime,
    classes: &[TrafficClass],
    lane_interarrival_s: f64,
    requests_per_class: usize,
    seed: u64,
) -> Vec<LoadRequest> {
    assert!(!classes.is_empty(), "load needs at least one class");
    let order = canonical_class_order(classes);
    let mut load: Vec<LoadRequest> = Vec::with_capacity(classes.len() * requests_per_class);
    for (rank, &c) in order.iter().enumerate() {
        let class = &classes[c];
        let task = class
            .task
            .expect("paced streams require task-bound classes");
        let rt = runtime.runtime(task).expect("served task");
        let gen = TaskGenerator::standard(task, rt.model().config.max_seq_len);
        let toks: Vec<Vec<u32>> = gen
            .generate(requests_per_class.max(1), seed ^ task as u64)
            .examples()
            .iter()
            .map(|ex| ex.tokens.clone())
            .collect();
        let phase = rank as f64 / classes.len() as f64;
        for (i, tokens) in toks.iter().take(requests_per_class).cloned().enumerate() {
            load.push(LoadRequest {
                task,
                request: InferenceRequest::new(tokens).with_latency_target(class.latency_target_s),
                arrival_s: (phase + i as f64) * lane_interarrival_s,
                class: c,
            });
        }
    }
    // Stable by arrival: simultaneous ticks keep canonical class
    // order, independent of how the classes were declared.
    load.sort_by(|a, b| a.arrival_s.total_cmp(&b.arrival_s));
    load
}

/// One stretch of a non-stationary arrival trace: a linear rate ramp
/// (or plateau) lasting `duration_s`, optionally with its own class
/// mix. Segments compose into a [`TraceSpec`] — e.g. a diurnal cycle
/// is an up-ramp plus a down-ramp, a flash crowd is a plateau, a spike
/// plateau, and a recovery plateau.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSegment {
    /// Label used in logs (e.g. `"spike"`).
    pub name: &'static str,
    /// Segment length on the virtual clock, seconds.
    pub duration_s: f64,
    /// Arrival rate at the start of the segment, requests/second.
    pub start_rate_hz: f64,
    /// Arrival rate at the end of the segment; arrivals between follow
    /// a non-homogeneous Poisson process with linearly interpolated
    /// instantaneous rate.
    pub end_rate_hz: f64,
    /// Per-segment class weights overriding each class's
    /// [`TrafficClass::weight`] for the segment's draws (flash crowds
    /// are often *tight-class* floods, not uniform ones). Must match
    /// the spec's class count. `None` uses the declared weights.
    pub class_weights: Option<Vec<f32>>,
}

impl TraceSegment {
    /// A constant-rate plateau.
    pub fn steady(name: &'static str, duration_s: f64, rate_hz: f64) -> Self {
        Self::ramp(name, duration_s, rate_hz, rate_hz)
    }

    /// A linear rate ramp from `start_rate_hz` to `end_rate_hz`.
    pub fn ramp(name: &'static str, duration_s: f64, start_rate_hz: f64, end_rate_hz: f64) -> Self {
        assert!(
            duration_s > 0.0 && duration_s.is_finite(),
            "segment duration must be positive and finite"
        );
        assert!(
            start_rate_hz >= 0.0 && start_rate_hz.is_finite(),
            "segment start rate must be non-negative and finite"
        );
        assert!(
            end_rate_hz >= 0.0 && end_rate_hz.is_finite(),
            "segment end rate must be non-negative and finite"
        );
        Self {
            name,
            duration_s,
            start_rate_hz,
            end_rate_hz,
            class_weights: None,
        }
    }

    /// Expected arrivals over the segment: the integral of the linear
    /// rate, `duration · (start + end) / 2`.
    pub fn expected_requests(&self) -> f64 {
        self.duration_s * (self.start_rate_hz + self.end_rate_hz) / 2.0
    }
}

/// A trace-driven load: segments replayed back to back, each a
/// non-homogeneous Poisson stretch over the shared class mix.
#[derive(Debug, Clone)]
pub struct TraceSpec {
    /// The deadline mix (same shape as [`LoadSpec::classes`]).
    pub classes: Vec<TrafficClass>,
    /// Segments, replayed in order on one virtual clock.
    pub segments: Vec<TraceSegment>,
    /// RNG seed; [`generate_trace`] is deterministic in `(spec, seed)`.
    pub seed: u64,
}

impl TraceSpec {
    /// The canonical overload story: a `base_s`-second plateau at
    /// `base_rate_hz`, a flash crowd at `spike_rate_hz` for `spike_s`,
    /// then recovery back at the base rate — the arrival shape the
    /// admission ladder's degrade→shed→recover cycle is built for.
    pub fn flash_crowd(
        classes: Vec<TrafficClass>,
        seed: u64,
        base_rate_hz: f64,
        spike_rate_hz: f64,
        base_s: f64,
        spike_s: f64,
        recovery_s: f64,
    ) -> Self {
        Self {
            classes,
            segments: vec![
                TraceSegment::steady("base", base_s, base_rate_hz),
                TraceSegment::steady("spike", spike_s, spike_rate_hz),
                TraceSegment::steady("recovery", recovery_s, base_rate_hz),
            ],
            seed,
        }
    }

    /// Expected arrivals over the whole trace.
    pub fn expected_requests(&self) -> f64 {
        self.segments.iter().map(|s| s.expected_requests()).sum()
    }
}

/// Generates the arrival process of a [`TraceSpec`]: each segment is a
/// non-homogeneous Poisson process with linearly interpolated rate,
/// sampled by time-rescaling (exponential(1) increments inverted
/// through the integrated rate `Λ(t) = s·t + (e−s)·t²/2d`), so ramps
/// are exact, not step-approximated. Deterministic in `(spec, seed)`
/// and — like [`generate`] — class draws run over the canonical class
/// order, so the physical stream is independent of declaration order.
pub fn generate_trace(runtime: &MultiTaskRuntime, spec: &TraceSpec) -> Vec<LoadRequest> {
    let tasks = runtime.tasks();
    assert!(!tasks.is_empty(), "runtime serves no tasks");
    assert!(!spec.classes.is_empty(), "trace needs at least one class");
    assert!(
        !spec.segments.is_empty(),
        "trace needs at least one segment"
    );
    for seg in &spec.segments {
        if let Some(w) = &seg.class_weights {
            assert_eq!(
                w.len(),
                spec.classes.len(),
                "segment '{}' class weights must match the class count",
                seg.name
            );
        }
    }
    let order = canonical_class_order(&spec.classes);
    let declared_weights: Vec<f32> = spec.classes.iter().map(|c| c.weight).collect();
    let expected = spec.expected_requests().ceil() as usize;
    let mut rng = Rng::seed_from(spec.seed);
    let mut pools: Vec<(Task, Vec<Vec<u32>>)> = tasks
        .iter()
        .map(|&task| {
            let rt = runtime.runtime(task).expect("served task");
            let gen = TaskGenerator::standard(task, rt.model().config.max_seq_len);
            let toks = gen
                .generate(
                    expected.div_ceil(tasks.len()).max(1),
                    spec.seed ^ task as u64,
                )
                .examples()
                .iter()
                .map(|ex| ex.tokens.clone())
                .collect();
            (task, toks)
        })
        .collect();
    let mut load: Vec<LoadRequest> = Vec::with_capacity(expected);
    let mut base_s = 0.0f64;
    for seg in &spec.segments {
        let weights = seg.class_weights.as_ref().unwrap_or(&declared_weights);
        let s = seg.start_rate_hz;
        let d = seg.duration_s;
        // Quadratic coefficient of the integrated rate Λ(t).
        let a = (seg.end_rate_hz - s) / (2.0 * d);
        let mut lambda_t = 0.0f64; // Λ(t), the integrated rate so far
        loop {
            // Exponential(1) increment on the rescaled clock.
            let u = rng.uniform().min(0.999_999) as f64;
            let target = lambda_t - (1.0 - u).ln();
            // Solve a·x² + s·x = target for the next arrival offset x.
            let x = if a.abs() < 1e-12 {
                if s <= 0.0 {
                    break; // flat zero-rate segment: no arrivals
                }
                target / s
            } else {
                let disc = s * s + 4.0 * a * target;
                if disc < 0.0 {
                    // Decreasing ramp whose total measure is exhausted:
                    // the rate hits zero before the next event.
                    break;
                }
                (-s + disc.sqrt()) / (2.0 * a)
            };
            // Negated so a NaN offset (degenerate coefficients) also
            // ends the segment instead of emitting garbage.
            #[allow(
                clippy::neg_cmp_op_on_partial_ord,
                reason = "negated so a NaN offset ends the segment too"
            )]
            if !(x <= d) {
                break; // next arrival lands past the segment boundary
            }
            lambda_t = s * x + a * x * x;
            let i = load.len();
            let class = draw_class(&mut rng, &order, weights);
            let pool_at = match spec.classes[class].task {
                Some(task) => tasks
                    .iter()
                    .position(|&t| t == task)
                    .expect("class-bound task must be served by the runtime"),
                None => i % tasks.len(),
            };
            let (task, pool) = &mut pools[pool_at];
            let tokens = pool[i / tasks.len() % pool.len()].clone();
            load.push(LoadRequest {
                task: *task,
                request: InferenceRequest::new(tokens)
                    .with_latency_target(spec.classes[class].latency_target_s),
                arrival_s: base_s + x,
                class,
            });
        }
        base_s += d;
    }
    load
}

/// Drains one generated load through a scheduler at `cfg`, returning
/// responses in submission order. Every generated task is served by
/// construction, so the options are unwrapped here.
pub fn drain_load(
    runtime: &MultiTaskRuntime,
    load: &[LoadRequest],
    cfg: SchedulerConfig,
) -> Vec<ScheduledResponse> {
    let mut scheduler = DeadlineScheduler::new(runtime, cfg);
    for r in load {
        scheduler.submit(r.task, r.request.clone(), r.arrival_s);
    }
    scheduler
        .drain()
        .into_iter()
        .map(|r| r.expect("generated load only targets served tasks"))
        .collect()
}

/// What became of one submitted request on a wall-clock drain.
#[derive(Debug, Clone)]
pub enum LoadOutcome {
    /// The request was admitted and served.
    Served(ServerResponse),
    /// The overload ladder shed the request at admission.
    Shed {
        /// Observed lane pressure at the shed decision.
        pressure: f64,
        /// The server's suggested client backoff, seconds.
        retry_after_hint_s: f64,
    },
}

impl LoadOutcome {
    /// The served response, if the request wasn't shed.
    pub fn served(&self) -> Option<&ServerResponse> {
        match self {
            LoadOutcome::Served(r) => Some(r),
            LoadOutcome::Shed { .. } => None,
        }
    }
}

/// Replays one generated load against a wall-clock [`Server`]:
/// requests are submitted at their real arrival times (the calling
/// thread sleeps out each inter-arrival gap), then every handle is
/// awaited in submission order. Returns one outcome per request, the
/// final per-lane [`ServerStats`], and the final telemetry snapshot
/// (`None` unless [`ServerConfig::telemetry`] is on), taken after the
/// drain so every served request's span chain is complete.
///
/// This is the serving counterpart of [`drain_load`] and the one
/// submit-and-await loop every wall-clock gate runs: the same traffic
/// through real worker threads instead of the virtual timeline, with
/// queueing delays *measured* rather than replayed. Run it with
/// [`ServerConfig::emulate_service_time`] on so shards hold their lanes
/// for the modeled compute latency and utilization is physically
/// meaningful. A [`SubmitError::Shed`] refusal is recorded as a
/// [`LoadOutcome::Shed`] — on overload runs shedding is the behavior
/// under test. Any *other* submit error (full queue, unserved task)
/// panics: the lane capacity must cover the spec's backlog, and the
/// ladder is the only sanctioned loss mechanism here.
pub fn drain_load_wall_clock(
    runtime: &MultiTaskRuntime,
    load: &[LoadRequest],
    cfg: ServerConfig,
) -> (Vec<LoadOutcome>, ServerStats, Option<TelemetrySnapshot>) {
    let server = Server::start(runtime, cfg);
    let clock = Clock::start();
    let mut pending = Vec::with_capacity(load.len());
    for r in load {
        clock.sleep_until(r.arrival_s);
        pending.push(match server.submit(r.task, r.request.clone()) {
            Ok(handle) => Ok(handle),
            Err(SubmitError::Shed {
                pressure,
                retry_after_hint_s,
                ..
            }) => Err(LoadOutcome::Shed {
                pressure,
                retry_after_hint_s,
            }),
            Err(other) => panic!("only the overload ladder may drop load here: {other}"),
        });
    }
    let outcomes = pending
        .into_iter()
        .map(|submitted| match submitted {
            Ok(handle) => {
                LoadOutcome::Served(handle.wait().expect("shard workers outlive the drain"))
            }
            Err(shed) => shed,
        })
        .collect();
    let (stats, telemetry) = server.shutdown_with_telemetry();
    (outcomes, stats, telemetry)
}

/// The responses of a drain that must not have lost anything, in
/// submission order: a shed request is a panic here, not silent load
/// shedding.
pub fn all_served(outcomes: Vec<LoadOutcome>) -> Vec<ServerResponse> {
    outcomes
        .into_iter()
        .map(|outcome| match outcome {
            LoadOutcome::Served(response) => response,
            LoadOutcome::Shed { .. } => panic!("this drain does not tolerate load shedding"),
        })
        .collect()
}

/// Per-class tail reports over shed-tolerant outcomes: served
/// responses fold into the latency columns, shed requests into each
/// row's [`TailReport::shed`] count. Final row is the overall report.
pub fn class_reports_outcomes(
    load: &[LoadRequest],
    outcomes: &[LoadOutcome],
    classes: &[TrafficClass],
) -> Vec<(String, TailReport)> {
    assert_eq!(load.len(), outcomes.len(), "one outcome per request");
    let mut rows = Vec::with_capacity(classes.len() + 1);
    let mut total_shed = 0usize;
    for (c, class) in classes.iter().enumerate() {
        let served: Vec<&ServerResponse> = load
            .iter()
            .zip(outcomes)
            .filter(|(l, _)| l.class == c)
            .filter_map(|(_, o)| o.served())
            .collect();
        let shed = load
            .iter()
            .zip(outcomes)
            .filter(|(l, o)| l.class == c && o.served().is_none())
            .count();
        total_shed += shed;
        rows.push((
            class.name.to_string(),
            TailReport::from_samples(served).with_shed(shed),
        ));
    }
    let all_served: Vec<&ServerResponse> = outcomes.iter().filter_map(|o| o.served()).collect();
    rows.push((
        "all".to_string(),
        TailReport::from_samples(all_served).with_shed(total_shed),
    ));
    rows
}

/// Renders the serving-side lane counters of a stats snapshot — the
/// general bench-report row covering the preemption counters, the
/// overload ladder's shed/degrade/transition counters, and the elastic
/// stolen/migrated/pool-resize counters. Distributions are not
/// counters: they leave through the server's telemetry snapshot.
pub fn render_server_stats(stats: &ServerStats) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<8} {:>8} {:>10} {:>8} {:>12} {:>9} {:>6} {:>6} {:>7} {:>9} {:>8}\n",
        "lane",
        "served",
        "preempted",
        "resumed",
        "max parked",
        "degraded",
        "shed",
        "steps",
        "stolen",
        "migrated",
        "resizes"
    ));
    for lane in &stats.lanes {
        out.push_str(&format!(
            "{:<8} {:>8} {:>10} {:>8} {:>12} {:>9} {:>6} {:>6} {:>7} {:>9} {:>8}\n",
            lane.task.to_string(),
            lane.served,
            lane.preempted,
            lane.resumed,
            lane.max_parked_depth,
            lane.degraded,
            lane.shed,
            lane.ladder_step_changes,
            lane.stolen,
            lane.migrated,
            lane.pool_resizes,
        ));
    }
    out
}

/// Offered per-lane utilization of a load spec against a floor service
/// time: `service / (inter-arrival · lanes · shards)`. Tasks are drawn
/// round-robin, so each of the `lanes` task lanes sees `1/lanes` of the
/// arrival rate, spread over its `shards` engines. Values are relative
/// to the *floor* (nominal-V/F) service time — slack-blind DVFS
/// stretches real service beyond it, which is exactly the failure mode
/// the queue-aware server exists to contain.
pub fn offered_utilization(
    service_floor_s: f64,
    mean_interarrival_s: f64,
    lanes: usize,
    shards_per_lane: usize,
) -> f64 {
    service_floor_s / (mean_interarrival_s * lanes.max(1) as f64 * shards_per_lane.max(1) as f64)
}

/// Tail-latency summary of a set of scheduled responses.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TailReport {
    /// Number of responses folded in.
    pub count: usize,
    /// Mean sojourn (queue + compute), milliseconds.
    pub mean_ms: f64,
    /// Median sojourn, milliseconds.
    pub p50_ms: f64,
    /// 95th-percentile sojourn, milliseconds.
    pub p95_ms: f64,
    /// 99th-percentile sojourn, milliseconds.
    pub p99_ms: f64,
    /// Fraction of responses whose sojourn missed the deadline.
    pub violation_rate: f64,
    /// Requests shed at admission rather than served. Shed requests
    /// are *not* folded into the latency columns or the violation rate
    /// (they have no sojourn), but they are counted here explicitly so
    /// an overload report can't undercount pain by quietly dropping
    /// the requests it refused. Zero for loss-free drains.
    pub shed: usize,
}

/// Anything with a sojourn time and a deadline verdict folds into a
/// [`TailReport`] — the virtual-timeline scheduler's responses and the
/// wall-clock server's alike.
pub trait SojournSample {
    /// End-to-end response time (queue + compute), seconds.
    fn sojourn_s(&self) -> f64;
    /// Whether the sojourn met the request's latency target.
    fn deadline_met(&self) -> bool;
}

impl SojournSample for ScheduledResponse {
    fn sojourn_s(&self) -> f64 {
        self.sojourn_s
    }
    fn deadline_met(&self) -> bool {
        self.deadline_met
    }
}

impl SojournSample for ServerResponse {
    fn sojourn_s(&self) -> f64 {
        self.sojourn_s
    }
    fn deadline_met(&self) -> bool {
        self.deadline_met
    }
}

impl TailReport {
    /// Folds any sojourn samples into the report. Empty input yields
    /// zeros.
    pub fn from_samples<'a, S: SojournSample + 'a>(
        samples: impl IntoIterator<Item = &'a S>,
    ) -> Self {
        let mut sojourns_ms: Vec<f32> = Vec::new();
        let mut violations = 0usize;
        for r in samples {
            sojourns_ms.push((r.sojourn_s() * 1e3) as f32);
            if !r.deadline_met() {
                violations += 1;
            }
        }
        if sojourns_ms.is_empty() {
            return Self {
                count: 0,
                mean_ms: 0.0,
                p50_ms: 0.0,
                p95_ms: 0.0,
                p99_ms: 0.0,
                violation_rate: 0.0,
                shed: 0,
            };
        }
        let count = sojourns_ms.len();
        Self {
            count,
            mean_ms: sojourns_ms.iter().map(|&x| x as f64).sum::<f64>() / count as f64,
            p50_ms: percentile(&sojourns_ms, 50.0) as f64,
            p95_ms: percentile(&sojourns_ms, 95.0) as f64,
            p99_ms: percentile(&sojourns_ms, 99.0) as f64,
            violation_rate: violations as f64 / count as f64,
            shed: 0,
        }
    }

    /// Folds a telemetry sojourn histogram into a report: exact
    /// log-bucketed quantiles (each an upper bound on the true sample,
    /// within one bucket width ≈ 15.5%) instead of the
    /// sampled-percentile columns [`from_samples`](Self::from_samples)
    /// computes. The violation count isn't derivable from a histogram
    /// alone, so the caller passes it (e.g. from
    /// [`LaneStats::violations`](edgebert::server::LaneStats)).
    pub fn from_sojourn_histogram(hist: &LogHistogram, violations: u64) -> Self {
        let count = hist.count() as usize;
        Self {
            count,
            mean_ms: hist.mean() * 1e3,
            p50_ms: hist.p50() * 1e3,
            p95_ms: hist.p95() * 1e3,
            p99_ms: hist.p99() * 1e3,
            violation_rate: if count == 0 {
                0.0
            } else {
                violations as f64 / count as f64
            },
            shed: 0,
        }
    }

    /// Attaches a shed count to the report (builder style, used by the
    /// outcome-aware per-class folds).
    pub fn with_shed(mut self, shed: usize) -> Self {
        self.shed = shed;
        self
    }
}

/// Per-class tail reports for one drained load, in class order, plus
/// the overall report as a final row. Works over scheduled (virtual
/// timeline) and server (wall clock) responses alike.
pub fn class_reports<S: SojournSample>(
    load: &[LoadRequest],
    responses: &[S],
    classes: &[TrafficClass],
) -> Vec<(String, TailReport)> {
    assert_eq!(load.len(), responses.len(), "one response per request");
    let mut rows = Vec::with_capacity(classes.len() + 1);
    for (c, class) in classes.iter().enumerate() {
        let members = load
            .iter()
            .zip(responses)
            .filter(|(l, _)| l.class == c)
            .map(|(_, r)| r);
        rows.push((class.name.to_string(), TailReport::from_samples(members)));
    }
    rows.push(("all".to_string(), TailReport::from_samples(responses)));
    rows
}

/// Renders a two-system comparison table over per-class reports, with
/// caller-chosen system labels (e.g. `"FIFO"`/`"EDF"`, or
/// `"blind"`/`"aware"` for the server's slack modes).
pub fn render_comparison_labeled(
    label_a: &str,
    rows_a: &[(String, TailReport)],
    label_b: &str,
    rows_b: &[(String, TailReport)],
) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<8} {:<6} {:>5} {:>9} {:>9} {:>9} {:>9} {:>10} {:>5}\n",
        "class", "system", "n", "mean", "p50", "p95", "p99", "violations", "shed"
    ));
    for ((name, a), (_, b)) in rows_a.iter().zip(rows_b) {
        for (label, r) in [(label_a, a), (label_b, b)] {
            out.push_str(&format!(
                "{:<8} {:<6} {:>5} {:>7.2}ms {:>7.2}ms {:>7.2}ms {:>7.2}ms {:>9.1}% {:>5}\n",
                name,
                label,
                r.count,
                r.mean_ms,
                r.p50_ms,
                r.p95_ms,
                r.p99_ms,
                r.violation_rate * 100.0,
                r.shed,
            ));
        }
    }
    out
}

/// Renders an EDF-vs-FIFO comparison table over per-class reports.
pub fn render_comparison(fifo: &[(String, TailReport)], edf: &[(String, TailReport)]) -> String {
    render_comparison_labeled("FIFO", fifo, "EDF", edf)
}
