//! The four workloads and the drivers that push a block of requests
//! through the top of the stack.
//!
//! Each workload makes a different layer do the work (the `why` strings
//! below are the ones `BENCHMARK.json` records). The drivers are shared
//! by both passes: the end-to-end pass hands them a disabled
//! [`Tracer`], the traced pass a recording one.

use crate::affinity;
use crate::load::Req;
use crate::served::TASKS;
use crate::stats::{percentile_of, sustained_rate};
use crate::trace::{Tracer, NO_SPAN};
use edgebert::server::ResponseHandle;
use edgebert::{
    DeadlineScheduler, InferenceRequest, MultiTaskRuntime, PreemptionPolicy, ScheduledResponse,
    SchedulerConfig, Server, ServerConfig, ServerResponse, TelemetryConfig,
};
use edgebert_tasks::Task;
use std::time::Instant;

/// How a workload's requests reach the stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Driver {
    /// Closed loop: one client per lane, each with one request in
    /// flight, default server.
    Closed,
    /// Open loop: a whole block submitted as fast as `submit` returns,
    /// then awaited; deep queues, preemption and telemetry on.
    Burst,
    /// Virtual timeline: a block submitted to the `DeadlineScheduler`
    /// and drained.
    Drain,
}

/// One named workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Workload {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Why it was chosen, as in `BENCHMARK.json`.
    pub why: &'static str,
    /// Share of requests that run all 12 layers; the rest exit after 1.
    pub deep_share: f64,
    /// Requests per block at `--scale 1`.
    pub block_requests: usize,
    /// How the requests are driven.
    pub driver: Driver,
}

impl Workload {
    /// Requests per block at `scale`.
    pub fn block_at(&self, scale: f64) -> usize {
        ((self.block_requests as f64 * scale).round() as usize).max(3)
    }
}

/// The benchmark's workloads, in the order they are run and reported.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "serve_deep",
        why: "closed loop, a client per lane, every request runs all 12 layers: tensor/nn/quant/model do the work, the control plane almost none",
        deep_share: 1.0,
        block_requests: 100,
        driver: Driver::Closed,
    },
    Workload {
        name: "serve_shallow",
        why: "closed loop, a client per lane, every request exits after layer 1 (the paper's common case): fixed per-sentence and hand-off costs show",
        deep_share: 0.0,
        block_requests: 800,
        driver: Driver::Closed,
    },
    Workload {
        name: "burst_backlog",
        why: "open loop, bursts of 2048 mixed requests: deep queues, lane lock and allocator contention, preemption, telemetry writes",
        deep_share: 0.2,
        block_requests: 2048,
        driver: Driver::Burst,
    },
    Workload {
        name: "sched_drain",
        why: "virtual timeline, Poisson arrivals at 0.4/0.7/1.0 of capacity through the EDF scheduler: modeled numbers and replay cost",
        deep_share: 0.2,
        block_requests: 1200,
        driver: Driver::Drain,
    },
];

/// The workload called `name`.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Server configuration of a driver (`None` for [`Driver::Drain`]).
pub fn server_config(driver: Driver, block_requests: usize) -> Option<ServerConfig> {
    match driver {
        Driver::Closed => Some(ServerConfig::default()),
        // Overload, elastic and energy stay off so nothing is shed, and
        // a lane can hold a whole burst.
        Driver::Burst => Some(ServerConfig {
            queue_capacity: block_requests,
            preemption: PreemptionPolicy::DeadlineGap(0.0),
            telemetry: Some(TelemetryConfig::default()),
            ..ServerConfig::default()
        }),
        Driver::Drain => None,
    }
}

/// The paper-faithful deployment: one accelerator, sentence-level
/// dispatch, DVFS against the slack that queueing left.
pub fn scheduler_config() -> SchedulerConfig {
    SchedulerConfig {
        workers: 1,
        max_batch: 1,
        queue_aware_slack: true,
        ..SchedulerConfig::default()
    }
}

/// The front end a workload's blocks are pushed through.
pub enum Front {
    /// A running server (closed and burst drivers).
    Server(Server),
    /// A scheduler (drain driver).
    Scheduler(DeadlineScheduler),
}

impl Driver {
    /// Whether the driver's work runs on the calling thread alone, so
    /// that the other CPUs need a sibling load to be busy (see
    /// [`crate::calib`]).
    pub fn is_single_threaded(self) -> bool {
        self == Driver::Drain
    }
}

impl Front {
    /// Starts the front end `driver` needs over `runtime`.
    pub fn start(runtime: &MultiTaskRuntime, driver: Driver, block_requests: usize) -> Self {
        match server_config(driver, block_requests) {
            Some(cfg) => Front::Server(Server::start(runtime, cfg)),
            None => Front::Scheduler(DeadlineScheduler::new(runtime, scheduler_config())),
        }
    }

    /// Pushes one block through and waits for every response.
    pub fn run_block(&mut self, driver: Driver, block: &[Req], tracer: &mut Tracer) -> BlockRun {
        match (self, driver) {
            (Front::Server(server), Driver::Closed) => run_closed(server, block, tracer),
            (Front::Server(server), Driver::Burst) => run_burst(server, block, tracer),
            (Front::Scheduler(scheduler), Driver::Drain) => run_drain(scheduler, block, tracer),
            _ => panic!("front end does not match the workload's driver"),
        }
    }

    /// Stops the front end; a server reports its final counters.
    pub fn shutdown(self) -> Option<edgebert::ServerStats> {
        match self {
            Front::Server(server) => Some(server.shutdown()),
            Front::Scheduler(_) => None,
        }
    }
}

/// What came back for one request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Outcome {
    /// Layer the sentence stopped at.
    pub exit_layer: usize,
    /// Predicted class.
    pub prediction: usize,
    /// Modeled energy, joules.
    pub energy_j: f64,
    /// The front end's deadline verdict on the sojourn.
    pub deadline_met: bool,
    /// Sojourn as the front end accounts it, seconds (modeled compute
    /// plus queueing: virtual for the scheduler, measured for a server).
    pub sojourn_s: f64,
    /// Queueing delay as the front end accounts it, seconds.
    pub queue_delay_s: f64,
    /// Admission sequence number in the task's lane (servers only).
    pub submission: Option<u64>,
}

impl Outcome {
    fn of_server(r: &ServerResponse) -> Self {
        Self {
            exit_layer: r.response.result.exit_layer,
            prediction: r.response.result.prediction,
            energy_j: r.energy_j,
            deadline_met: r.deadline_met,
            sojourn_s: r.sojourn_s,
            queue_delay_s: r.queue_delay_s,
            submission: Some(r.submission),
        }
    }

    fn of_scheduled(r: &ScheduledResponse) -> Self {
        Self {
            exit_layer: r.response.result.exit_layer,
            prediction: r.response.result.prediction,
            energy_j: r.response.result.energy_j,
            deadline_met: r.deadline_met,
            sojourn_s: r.sojourn_s,
            queue_delay_s: r.queue_delay_s,
            submission: None,
        }
    }
}

/// One block pushed through a front end.
#[derive(Debug, Clone)]
pub struct BlockRun {
    /// Host time from the first submit to the last response, seconds.
    pub wall_s: f64,
    /// Completed requests per host second. Burst and drain: completions
    /// over `wall_s`. Closed loop: the sum over the clients of each
    /// one's [`sustained_rate`], which a stall of the host does not move.
    pub rate_rps: f64,
    /// Host time spent in the submit calls alone, seconds.
    pub submit_s: f64,
    /// Median of `latencies_us`. Closed loop: the mean over the clients
    /// of each one's median, for the host can slow one CPU, and so one
    /// lane, and the median of the two lanes pooled would then jump
    /// between them.
    pub latency_p50_us: f64,
    /// Per request, host time from when it was submitted (closed,
    /// drain) or due (burst: the burst's start) to when its response
    /// was in the caller's hands, microseconds. Requests without a
    /// response have no entry.
    pub latencies_us: Vec<f64>,
    /// Per request, in block order; `None` when the submission was
    /// refused or its worker was lost.
    pub outcomes: Vec<Option<Outcome>>,
}

/// Completions over wall time (0 when no time passed).
fn plain_rate(outcomes: &[Option<Outcome>], wall_s: f64) -> f64 {
    let completed = outcomes.iter().flatten().count();
    if wall_s > 0.0 {
        completed as f64 / wall_s
    } else {
        0.0
    }
}

/// Splits `items` by task into lanes, in order of first appearance.
fn by_lane<T>(items: impl Iterator<Item = (Task, T)>) -> Vec<Vec<T>> {
    let mut lanes: Vec<(Task, Vec<T>)> = Vec::new();
    for (task, item) in items {
        match lanes.iter_mut().find(|(t, _)| *t == task) {
            Some((_, lane)) => lane.push(item),
            None => lanes.push((task, vec![item])),
        }
    }
    lanes.into_iter().map(|(_, lane)| lane).collect()
}

/// Copies of a block's requests, made before the clock starts so the
/// copy is not timed.
fn owned_requests(block: &[Req]) -> Vec<InferenceRequest> {
    block.iter().map(|r| r.request.clone()).collect()
}

/// A tracer for a helper thread of a block: recording onto `parent`'s
/// clock when `parent` records, disabled otherwise.
fn child_tracer(parent: &Tracer, capacity: usize) -> Tracer {
    if parent.is_enabled() {
        Tracer::recording(parent.epoch(), capacity)
    } else {
        Tracer::disabled()
    }
}

/// What one client of the closed loop brings back.
struct ClientRun {
    landed: Vec<Landed>,
    /// Time spent in `submit`, seconds.
    submit_s: f64,
    /// The client's [`sustained_rate`] (0 without a response).
    rate_rps: f64,
    /// The median latency of its responses, microseconds.
    latency_p50_us: Option<f64>,
}

/// One client of the closed loop: the requests of one lane, one in
/// flight.
fn closed_client(
    server: &Server,
    lane: Vec<(usize, &Req, InferenceRequest)>,
    tracer: &mut Tracer,
) -> ClientRun {
    // The client runs where its lane's shards run (see `affinity`).
    if let Some((_, req, _)) = lane.first() {
        affinity::pin(0, lane_slot(req.task));
    }
    let mut submit_s = 0.0;
    // When the client started and when each response landed, seconds.
    let mut stamps_s = Vec::with_capacity(lane.len() + 1);
    let start = Instant::now();
    stamps_s.push(0.0);
    let landed: Vec<Landed> = lane
        .into_iter()
        .map(|(index, req, request)| {
            let root = tracer.begin("request", req.id, NO_SPAN);
            let sent = Instant::now();
            let handle = tracer.span("server.submit", req.id, root, || {
                server.submit(req.task, request)
            });
            submit_s += sent.elapsed().as_secs_f64();
            let outcome = handle.ok().and_then(|handle| {
                tracer
                    .span("server.wait", req.id, root, || handle.wait())
                    .ok()
            });
            let latency_us = sent.elapsed().as_secs_f64() * 1e6;
            tracer.end(root);
            if outcome.is_some() {
                stamps_s.push(start.elapsed().as_secs_f64());
            }
            Landed {
                index,
                latency_us,
                outcome: outcome.as_ref().map(Outcome::of_server),
            }
        })
        .collect();
    let landed_us: Vec<f64> = landed
        .iter()
        .filter(|response| response.outcome.is_some())
        .map(|response| response.latency_us)
        .collect();
    ClientRun {
        submit_s,
        rate_rps: sustained_rate(&stamps_s).unwrap_or(0.0),
        latency_p50_us: (!landed_us.is_empty()).then(|| percentile_of(&landed_us, 50.0)),
        landed,
    }
}

/// The CPU slot of `task`'s lane in a closed loop: lanes in the order
/// the deployment serves them.
fn lane_slot(task: Task) -> usize {
    TASKS.iter().position(|&t| t == task).unwrap_or(0)
}

fn run_closed(server: &Server, block: &[Req], tracer: &mut Tracer) -> BlockRun {
    // A lane's shards go where its client goes (see `affinity`).
    for task in TASKS {
        affinity::pin_threads_named(&format!("edgebert-{task}-"), lane_slot(task));
    }
    let lanes = by_lane(
        block
            .iter()
            .zip(owned_requests(block))
            .enumerate()
            .map(|(index, (req, request))| (req.task, (index, req, request))),
    );
    let parent = &*tracer;
    let start = Instant::now();
    let clients: Vec<(ClientRun, Tracer)> = std::thread::scope(|scope| {
        let clients: Vec<_> = lanes
            .into_iter()
            .map(|lane| {
                scope.spawn(move || {
                    let mut client_tracer = child_tracer(parent, 3 * lane.len());
                    (
                        closed_client(server, lane, &mut client_tracer),
                        client_tracer,
                    )
                })
            })
            .collect();
        clients
            .into_iter()
            .map(|c| c.join().expect("closed-loop client panicked"))
            .collect()
    });
    let wall_s = start.elapsed().as_secs_f64();

    let mut outcomes = vec![None; block.len()];
    let mut latencies_us = Vec::with_capacity(block.len());
    let (mut submit_s, mut rate_rps) = (0.0, 0.0);
    let mut client_p50_us = Vec::with_capacity(clients.len());
    for (client, client_tracer) in clients {
        submit_s += client.submit_s;
        rate_rps += client.rate_rps;
        client_p50_us.extend(client.latency_p50_us);
        for response in client.landed {
            if response.outcome.is_some() {
                latencies_us.push(response.latency_us);
            }
            outcomes[response.index] = response.outcome;
        }
        tracer.absorb(client_tracer);
    }
    BlockRun {
        wall_s,
        rate_rps,
        submit_s,
        latency_p50_us: client_p50_us.iter().sum::<f64>() / client_p50_us.len().max(1) as f64,
        latencies_us,
        outcomes,
    }
}

/// A submission of a burst whose response is still to come.
struct Pending {
    /// Position in the block.
    index: usize,
    /// The request's id, for its spans.
    id: u64,
    handle: ResponseHandle,
}

/// A response of a burst, stamped when it reached its collector.
struct Landed {
    index: usize,
    /// Host time since the burst's start, microseconds.
    latency_us: f64,
    outcome: Option<Outcome>,
}

/// Awaits one lane's handles in the order the lane will finish them and
/// stamps each response with the host time since `start`.
fn collect_lane(pending: Vec<Pending>, start: Instant, tracer: &mut Tracer) -> Vec<Landed> {
    pending
        .into_iter()
        .map(|Pending { index, id, handle }| {
            let outcome = tracer
                .span("server.wait", id, NO_SPAN, || handle.wait())
                .ok();
            Landed {
                index,
                latency_us: start.elapsed().as_secs_f64() * 1e6,
                outcome: outcome.as_ref().map(Outcome::of_server),
            }
        })
        .collect()
}

fn run_burst(server: &Server, block: &[Req], tracer: &mut Tracer) -> BlockRun {
    let requests = owned_requests(block);
    let mut admitted = Vec::with_capacity(block.len());
    let start = Instant::now();
    for (index, (req, request)) in block.iter().zip(requests).enumerate() {
        let handle = tracer.span("server.submit", req.id, NO_SPAN, || {
            server.submit(req.task, request)
        });
        if let Ok(handle) = handle {
            let id = req.id;
            admitted.push((req.task, Pending { index, id, handle }));
        }
    }
    let submit_s = start.elapsed().as_secs_f64();
    let mut lanes = by_lane(admitted.into_iter());

    // A burst is admitted within a few milliseconds, so a lane's EDF
    // order is its order of latency target, then of submission. Awaiting
    // in that order, one collector per lane, each `wait` returns when its
    // response lands instead of after a slower one ahead of it; the
    // collectors sleep in `recv`, so they do not take the shards' cores.
    for lane in &mut lanes {
        lane.sort_by(|a, b| {
            let target = |i: usize| block[i].request.latency_target_s.unwrap_or(f64::INFINITY);
            target(a.index)
                .total_cmp(&target(b.index))
                .then(a.index.cmp(&b.index))
        });
    }
    let parent = &*tracer;
    let collected: Vec<(Vec<Landed>, Tracer)> = std::thread::scope(|scope| {
        let collectors: Vec<_> = lanes
            .into_iter()
            .map(|lane| {
                scope.spawn(move || {
                    let mut lane_tracer = child_tracer(parent, lane.len());
                    (collect_lane(lane, start, &mut lane_tracer), lane_tracer)
                })
            })
            .collect();
        collectors
            .into_iter()
            .map(|c| c.join().expect("burst collector panicked"))
            .collect()
    });
    let wall_s = start.elapsed().as_secs_f64();

    let mut outcomes = vec![None; block.len()];
    let mut latencies_us = Vec::with_capacity(block.len());
    for (landed, lane_tracer) in collected {
        for response in landed {
            if response.outcome.is_some() {
                latencies_us.push(response.latency_us);
            }
            outcomes[response.index] = response.outcome;
        }
        tracer.absorb(lane_tracer);
    }
    BlockRun {
        wall_s,
        rate_rps: plain_rate(&outcomes, wall_s),
        submit_s,
        latency_p50_us: percentile_of(&latencies_us, 50.0),
        latencies_us,
        outcomes,
    }
}

fn run_drain(scheduler: &mut DeadlineScheduler, block: &[Req], tracer: &mut Tracer) -> BlockRun {
    let requests = owned_requests(block);
    let mut sent_s = Vec::with_capacity(block.len());
    let start = Instant::now();
    for (req, request) in block.iter().zip(requests) {
        sent_s.push(start.elapsed().as_secs_f64());
        tracer.span("scheduler.submit", req.id, NO_SPAN, || {
            scheduler.submit(req.task, request, req.arrival_s)
        });
    }
    let submit_s = start.elapsed().as_secs_f64();
    let first = block.first().map_or(0, |r| r.id);
    let drained = tracer.span("scheduler.drain", first, NO_SPAN, || scheduler.drain());
    let wall_s = start.elapsed().as_secs_f64();

    let outcomes: Vec<Option<Outcome>> = (0..block.len())
        .map(|i| {
            drained
                .get(i)
                .and_then(Option::as_ref)
                .map(Outcome::of_scheduled)
        })
        .collect();
    // A drain hands every response back at once: a caller waits from its
    // submit to the end of the drain.
    let latencies_us: Vec<f64> = outcomes
        .iter()
        .zip(&sent_s)
        .filter(|(outcome, _)| outcome.is_some())
        .map(|(_, sent)| (wall_s - sent) * 1e6)
        .collect();
    BlockRun {
        wall_s,
        rate_rps: plain_rate(&outcomes, wall_s),
        submit_s,
        latency_p50_us: percentile_of(&latencies_us, 50.0),
        latencies_us,
        outcomes,
    }
}
