//! Slack-aware batch scheduling over the multi-task runtime.
//!
//! FIFO dispatch serves requests in arrival order, which lets a
//! tight-deadline sentence (a 20 ms voice-assistant query) queue behind
//! a run of relaxed ones (200 ms translation traffic) — classic
//! head-of-line blocking. [`DeadlineScheduler`] fixes that with the two
//! levers from the edge batching literature (Zhang et al., *Edge
//! Intelligence Optimization for LLM Inference with Batching and
//! Quantization*):
//!
//! * **Earliest-deadline-first ordering** — every submission carries an
//!   arrival timestamp; its absolute deadline is `arrival + latency
//!   target` (after default resolution against the task engine). The
//!   queue drains least-slack-first, so tight traffic overtakes relaxed
//!   traffic instead of waiting behind it.
//! * **Same-task batch packing** — the maximal same-task run at the
//!   head of the policy-ordered queue is packed into one back-to-back
//!   run of up to [`SchedulerConfig::max_batch`] sentences on one
//!   lane, so batching amortizes task switches without ever reordering
//!   across deadlines. Switching a worker to another task can be charged
//!   [`SchedulerConfig::task_switch_s`] (the paper's §4 deployment
//!   keeps per-task encoder weights that must be re-fetched; embeddings
//!   are shared in eNVM), which EDF naturally amortizes: same-class
//!   traffic tends to share both task and deadline tier, so it forms
//!   long runs.
//!
//! The scheduler holds one owned engine per served task — a clone of
//! the engine its [`TaskRuntime`](crate::serving::TaskRuntime) minted
//! from its builder — and a drain has two phases. **Record:** every
//! sentence is forwarded once up front, across worker threads (their
//! count never reaches the output), keeping only its off-ramp
//! entropies and prediction. **Replay:** the queue runs on a
//! deterministic virtual timeline of [`SchedulerConfig::workers`]
//! accelerator lanes, and each sentence is priced at its dispatch point
//! by the session's own exit rule, DVFS decision and cost accounting
//! reading that record. This is sound because the layer a sentence
//! stops at is fixed by its entropies, `E_T` and the LUT forecast: the
//! queueing stamp reaches only the DVFS decision. A pack shares one
//! task-switch charge, and the next dispatch round re-picks the
//! earliest-free lane. Every response reports queueing delay, sojourn
//! time, and a deadline verdict judged on the *sojourn* (wait +
//! compute) against the request's target with the one
//! [`deadline_met`] rule.
//!
//! Slack-blind (the default), per-request *results* are bit-identical
//! to an unscheduled [`serve`](crate::serving::TaskRuntime::serve)
//! call: scheduling changes *when* a sentence runs, never *what* it
//! computes. [`SchedulerConfig::queue_aware_slack`] stamps each
//! sentence's virtual wait by the same `stamp_at_dispatch` rule the
//! wall-clock [`Server`](crate::server::Server) lanes use at pop time.
//! The overload ladder and fleet energy envelopes are *not*
//! re-implemented here: they reach the virtual timeline when the
//! server's own lanes run on a virtual clock, not as a second copy.
//! Neither is telemetry: a drain's observation is its
//! [`ScheduledResponse`]s, which carry each sentence's arrival,
//! dispatch and completion stamps, its verdict and its energy. The
//! scheduler reads no clock.

use crate::engine::{
    deadline_met, default_threads, run_chunked, EdgeBertEngine, InferenceRequest, InferenceResponse,
};
use crate::serving::MultiTaskRuntime;
use crate::session::ForwardTrace;
use edgebert_tasks::Task;
use serde::{Deserialize, Serialize};

/// Queue-ordering policy for a [`DeadlineScheduler`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SchedulePolicy {
    /// First-in-first-out: dispatch in submission order (the old
    /// `serve_batch` semantics, kept as the comparison baseline).
    Fifo,
    /// Earliest-deadline-first: dispatch by absolute deadline
    /// (`arrival + latency target`), ties broken by submission order.
    EarliestDeadline,
}

/// Configuration of a [`DeadlineScheduler`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SchedulerConfig {
    /// Modeled accelerator lanes draining the queue (virtual-time
    /// parallelism; the paper's deployment is a single accelerator).
    pub workers: usize,
    /// Maximum same-task sentences packed into one engine pass.
    pub max_batch: usize,
    /// Queue ordering policy.
    pub policy: SchedulePolicy,
    /// Time charged when a worker switches tasks (per-task encoder
    /// weights must be re-fetched; `0.0` models resident weights).
    pub task_switch_s: f64,
    /// Deduct each sentence's virtual queueing delay from the compute
    /// budget handed to the engine (stamped through
    /// [`InferenceRequest::with_elapsed_queue_s`]), so DVFS scales
    /// against the *remaining* slack instead of the full target.
    ///
    /// Off (the default), the stamp is a no-op and a drain's
    /// per-request responses are bit-identical to unscheduled `serve`
    /// calls (slack-blind). On, a sentence's operating point and
    /// price depend on when it was dispatched. Either way each sentence
    /// is forwarded once up front and priced at its dispatch point on
    /// the virtual timeline, fully deterministically.
    pub queue_aware_slack: bool,
}

impl Default for SchedulerConfig {
    /// One accelerator lane, EDF ordering, packs of up to 8, free task
    /// switches, slack-blind compute (per-request responses equal
    /// unscheduled `serve` bit for bit).
    fn default() -> Self {
        Self {
            workers: 1,
            max_batch: 8,
            policy: SchedulePolicy::EarliestDeadline,
            task_switch_s: 0.0,
            queue_aware_slack: false,
        }
    }
}

/// One response from a scheduled drain: the engine response (bit-equal
/// to an unscheduled `serve` of the same request) plus the virtual
/// timeline the scheduler ran it on.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScheduledResponse {
    /// The engine's response after default resolution.
    pub response: InferenceResponse,
    /// Worker lane the sentence ran on.
    pub worker: usize,
    /// Submission timestamp, seconds (virtual clock).
    pub arrival_s: f64,
    /// Dispatch timestamp: when its engine pass reached this sentence.
    pub start_s: f64,
    /// `start_s` + modeled compute latency.
    pub completion_s: f64,
    /// Time spent queued: `start_s - arrival_s`.
    pub queue_delay_s: f64,
    /// End-to-end response time: `completion_s - arrival_s`, plus any
    /// queueing the submitter pre-stamped on the request before it
    /// reached this scheduler.
    pub sojourn_s: f64,
    /// Whether the *sojourn* met the request's latency target under the
    /// [`deadline_met`] rule. The inner
    /// `response.result.deadline_met` judges compute latency alone; a
    /// sentence that computed on time but queued too long is a
    /// violation here and only here.
    pub deadline_met: bool,
}

#[derive(Debug, Clone)]
struct Submission {
    index: usize,
    task: Task,
    request: InferenceRequest,
    arrival_s: f64,
}

/// An EDF slack-aware batch scheduler over a set of per-task engines.
///
/// Submissions accumulate via [`submit`](Self::submit); a
/// [`drain`](Self::drain) forwards every served request once, then
/// replays the queue on a deterministic virtual timeline, pricing each
/// at its dispatch point. Output order always matches submission order.
#[derive(Debug, Clone)]
pub struct DeadlineScheduler {
    engines: Vec<(Task, EdgeBertEngine)>,
    cfg: SchedulerConfig,
    pending: Vec<Submission>,
}

// Schedulers move into serving threads whole.
const _: () = {
    const fn assert_send<T: Send + 'static>() {}
    assert_send::<DeadlineScheduler>();
};

impl DeadlineScheduler {
    /// Builds a scheduler over `runtime`'s served tasks, taking one
    /// owned `Send` engine per task. Each is a clone of the engine the
    /// task's runtime minted from its builder — an `Arc` refcount bump
    /// on the shared weights, and the guarantee that scheduled results
    /// cannot diverge from the runtime's own `serve`. Panics if the
    /// task-switch charge is negative or not finite.
    pub fn new(runtime: &MultiTaskRuntime, cfg: SchedulerConfig) -> Self {
        assert!(
            cfg.task_switch_s.is_finite() && cfg.task_switch_s >= 0.0,
            "task switch charge must be finite and non-negative"
        );
        let engines: Vec<(Task, EdgeBertEngine)> = runtime
            .tasks()
            .into_iter()
            .map(|task| {
                let rt = runtime.runtime(task).expect("task listed as served");
                (task, rt.engine().clone())
            })
            .collect();
        Self {
            engines,
            cfg,
            pending: Vec::new(),
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &SchedulerConfig {
        &self.cfg
    }

    /// The tasks this scheduler can serve.
    pub fn tasks(&self) -> Vec<Task> {
        self.engines.iter().map(|(t, _)| *t).collect()
    }

    /// Number of submissions waiting for the next drain.
    pub fn pending(&self) -> usize {
        self.pending.len()
    }

    /// Enqueues one request with its arrival timestamp (seconds on the
    /// virtual clock; any non-negative finite origin). Returns the
    /// submission index, which is also the request's slot in the next
    /// [`drain`](Self::drain) output.
    pub fn submit(&mut self, task: Task, request: InferenceRequest, arrival_s: f64) -> usize {
        assert!(
            arrival_s.is_finite() && arrival_s >= 0.0,
            "arrival timestamp must be finite and non-negative, got {arrival_s}"
        );
        let index = self.pending.len();
        self.pending.push(Submission {
            index,
            task,
            request,
            arrival_s,
        });
        index
    }

    /// Serves every pending submission and clears the queue.
    ///
    /// The returned vector is in submission order; an entry is `None`
    /// when its task is not served by this scheduler.
    ///
    /// Every sentence is forwarded once up front (see the module
    /// docs), then the queue is replayed on the virtual timeline under
    /// the configured policy and each sentence is priced at its
    /// dispatch point (sequentially — the timeline is the data
    /// dependency), so a drain is fully deterministic. With
    /// [`SchedulerConfig::queue_aware_slack`] off the request is priced
    /// exactly as submitted, so per-request responses are bit-identical
    /// to unscheduled `serve` calls no matter the policy, worker count,
    /// or packing. With it on, the virtual queueing delay is stamped
    /// first, so DVFS budgets against the remaining slack.
    pub fn drain(&mut self) -> Vec<Option<ScheduledResponse>> {
        self.drain_with_threads(default_threads(self.pending.len()))
    }

    /// [`drain`](Self::drain) with an explicit record fan-out (1 → fully
    /// sequential); the thread count never reaches the output.
    pub(crate) fn drain_with_threads(&mut self, threads: usize) -> Vec<Option<ScheduledResponse>> {
        let pending = std::mem::take(&mut self.pending);
        if pending.is_empty() {
            return Vec::new();
        }

        // Which engine serves each submission (None → unserved task).
        let engine_of: Vec<Option<usize>> = pending
            .iter()
            .map(|s| self.engines.iter().position(|(t, _)| *t == s.task))
            .collect();

        // Record: only the compact trace leaves the worker.
        let mut traces: Vec<Option<ForwardTrace>> = run_chunked(&pending, threads, |s| {
            let engine = &self.engines[engine_of[s.index]?].1;
            Some(engine.begin(&s.request).into_forward_trace())
        });

        let mut responses: Vec<Option<InferenceResponse>> = vec![None; pending.len()];

        // Replay the queue on the virtual timeline. Served
        // submissions are sorted by the policy key once; each dispatch
        // round scans that order for the first arrived sentence. The
        // absolute deadline is `arrival + target` after default
        // resolution against the task's engine — identical to what the
        // engine echoes in its response. As on the server, a non-finite
        // deadline (wire garbage) sorts last.
        let deadline_abs: Vec<f64> = pending
            .iter()
            .map(|s| {
                // A pre-stamped submission already burned part of its
                // target upstream: its true deadline is that much
                // earlier, and EDF must rank it accordingly.
                s.arrival_s - s.request.effective_elapsed_queue_s()
                    + engine_of[s.index].map_or(0.0, |e| {
                        s.request
                            .latency_target_s
                            .unwrap_or_else(|| self.engines[e].1.default_latency_target_s())
                    })
            })
            .map(|d| if d.is_finite() { d } else { f64::INFINITY })
            .collect();
        let key = |s: &Submission| match self.cfg.policy {
            SchedulePolicy::Fifo => (s.arrival_s, s.index),
            SchedulePolicy::EarliestDeadline => (deadline_abs[s.index], s.index),
        };
        let mut served: Vec<&Submission> = pending
            .iter()
            .filter(|s| engine_of[s.index].is_some())
            .collect();
        served.sort_by(|a, b| {
            let (ka, kb) = (key(a), key(b));
            ka.0.total_cmp(&kb.0).then(ka.1.cmp(&kb.1))
        });

        let workers = self.cfg.workers.max(1);
        let max_batch = self.cfg.max_batch.max(1);
        let mut free_at = vec![0.0f64; workers];
        let mut resident: Vec<Option<Task>> = vec![None; workers];
        let mut dispatched = vec![false; pending.len()];
        let mut timeline: Vec<Option<(usize, f64, f64)>> = vec![None; pending.len()];
        let mut remaining = served.len();
        while remaining > 0 {
            // Earliest-free worker, ties to the lowest lane.
            let w = (0..workers)
                .min_by(|&a, &b| free_at[a].total_cmp(&free_at[b]))
                .expect("at least one worker");
            // If nothing has arrived by the time the lane frees up, the
            // lane idles until the next arrival.
            let next_arrival = served
                .iter()
                .filter(|s| !dispatched[s.index])
                .map(|s| s.arrival_s)
                .fold(f64::INFINITY, f64::min);
            let now = free_at[w].max(next_arrival);
            // The pack is the maximal same-task run at the head of the
            // policy-ordered ready queue (arrived ∧ undispatched),
            // capped at `max_batch`. Packing coalesces sentences the
            // policy already placed together — it never lets a sentence
            // jump an earlier-deadline ready sentence of another task.
            let mut pack: Vec<usize> = Vec::new();
            let mut task: Option<Task> = None;
            for s in served
                .iter()
                .filter(|s| !dispatched[s.index] && s.arrival_s <= now)
            {
                match task {
                    None => task = Some(s.task),
                    Some(t) if t != s.task => break,
                    Some(_) => {}
                }
                pack.push(s.index);
                if pack.len() == max_batch {
                    break;
                }
            }
            let task = task.expect("an arrived sentence exists at `now`");

            let mut cursor = now
                + if resident[w] == Some(task) {
                    0.0
                } else {
                    self.cfg.task_switch_s
                };
            for &i in &pack {
                let start = cursor;
                // Queue-aware mode deducts the virtual wait (on top of
                // any stamp the submitter carried in) from the DVFS
                // budget; a zero charge leaves the stamp as submitted.
                let sub = &pending[i];
                let charged_wait_s = if self.cfg.queue_aware_slack {
                    start - sub.arrival_s
                } else {
                    0.0
                };
                let engine = &self.engines[engine_of[i].expect("served member")].1;
                let trace = traces[i].take().expect("served member was recorded");
                let response = engine
                    .begin_replay(&sub.request, charged_wait_s, trace)
                    .finish();
                let latency_s = response.result.latency_s;
                responses[i] = Some(response);
                cursor += latency_s;
                timeline[i] = Some((w, start, cursor));
                dispatched[i] = true;
                remaining -= 1;
            }
            free_at[w] = cursor;
            resident[w] = Some(task);
        }

        pending
            .iter()
            .map(|s| {
                let response = responses[s.index].take()?;
                let (worker, start_s, completion_s) =
                    timeline[s.index].expect("served sentences were dispatched");
                // A submitter pre-stamp (upstream queueing measured
                // before the submission reached this scheduler) counts
                // in the sojourn and against the deadline exactly as
                // the engine counted it against the DVFS budget — and
                // exactly as the wall-clock `Server` reports it, so
                // tail reports stay comparable across the two systems.
                let sojourn_s =
                    s.request.effective_elapsed_queue_s() + (completion_s - s.arrival_s);
                let met = deadline_met(sojourn_s, response.latency_target_s);
                Some(ScheduledResponse {
                    response,
                    worker,
                    arrival_s: s.arrival_s,
                    start_s,
                    completion_s,
                    queue_delay_s: start_s - s.arrival_s,
                    sojourn_s,
                    deadline_met: met,
                })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{Scale, TaskArtifacts};
    use crate::serving::TaskRuntime;

    fn runtime() -> MultiTaskRuntime {
        MultiTaskRuntime::from_runtimes([
            TaskRuntime::from_artifacts(&TaskArtifacts::build(Task::Sst2, Scale::Test, 0x5C41)),
            TaskRuntime::from_artifacts(&TaskArtifacts::build(Task::Qnli, Scale::Test, 0x5C42)),
        ])
    }

    fn tokens_for(rt: &MultiTaskRuntime, task: Task, n: usize, seed: u64) -> Vec<Vec<u32>> {
        let max_len = rt.runtime(task).expect("served").model().config.max_seq_len;
        let gen = edgebert_tasks::TaskGenerator::standard(task, max_len);
        gen.generate(n, seed)
            .examples()
            .iter()
            .map(|ex| ex.tokens.clone())
            .collect()
    }

    fn edf(rt: &MultiTaskRuntime) -> DeadlineScheduler {
        DeadlineScheduler::new(
            rt,
            SchedulerConfig {
                workers: 1,
                max_batch: 4,
                policy: SchedulePolicy::EarliestDeadline,
                ..SchedulerConfig::default()
            },
        )
    }

    #[test]
    fn edf_dispatches_in_deadline_order() {
        let rt = runtime();
        let toks = tokens_for(&rt, Task::Sst2, 4, 7);
        let mut sched = edf(&rt);
        // Same arrival, descending targets: EDF must dispatch in
        // reverse submission order.
        let targets = [400e-3, 300e-3, 200e-3, 100e-3];
        for (t, tok) in targets.iter().zip(&toks) {
            sched.submit(
                Task::Sst2,
                InferenceRequest::new(tok.clone()).with_latency_target(*t),
                0.0,
            );
        }
        let out = sched.drain();
        let starts: Vec<f64> = out
            .iter()
            .map(|r| r.as_ref().expect("served").start_s)
            .collect();
        for i in 0..3 {
            assert!(
                starts[i] > starts[i + 1],
                "tighter deadline must start earlier: {starts:?}"
            );
        }
    }

    #[test]
    fn edf_dispatches_non_finite_deadlines_last() {
        let rt = runtime();
        let toks = tokens_for(&rt, Task::Sst2, 3, 9);
        let mut sched = edf(&rt);
        // `-∞` and a NaN with its sign bit set both order before every
        // finite key under `total_cmp`.
        for (t, tok) in [f64::NEG_INFINITY, -f64::NAN, 10e-3].iter().zip(&toks) {
            sched.submit(
                Task::Sst2,
                InferenceRequest::new(tok.clone()).with_latency_target(*t),
                0.0,
            );
        }
        let out = sched.drain();
        let starts: Vec<f64> = out
            .iter()
            .map(|r| r.as_ref().expect("served").start_s)
            .collect();
        assert!(
            starts[2] < starts[0] && starts[2] < starts[1],
            "the finite deadline must start first: {starts:?}"
        );
    }

    #[test]
    #[should_panic(expected = "task switch charge must be finite and non-negative")]
    fn negative_task_switch_charge_is_refused() {
        DeadlineScheduler::new(
            &MultiTaskRuntime::from_runtimes([]),
            SchedulerConfig {
                task_switch_s: -1e-3,
                ..SchedulerConfig::default()
            },
        );
    }

    #[test]
    fn fifo_dispatches_in_submission_order() {
        let rt = runtime();
        let toks = tokens_for(&rt, Task::Sst2, 4, 8);
        let mut sched = DeadlineScheduler::new(
            &rt,
            SchedulerConfig {
                policy: SchedulePolicy::Fifo,
                max_batch: 1,
                ..SchedulerConfig::default()
            },
        );
        for (i, tok) in toks.iter().enumerate() {
            sched.submit(
                Task::Sst2,
                InferenceRequest::new(tok.clone()).with_latency_target(1.0 - i as f64 * 0.2),
                0.0,
            );
        }
        let out = sched.drain();
        let starts: Vec<f64> = out
            .iter()
            .map(|r| r.as_ref().expect("served").start_s)
            .collect();
        for i in 0..3 {
            assert!(starts[i] < starts[i + 1], "FIFO keeps arrival order");
        }
    }

    #[test]
    fn output_order_matches_submission_order_and_results_match_serve() {
        let rt = runtime();
        let sst = tokens_for(&rt, Task::Sst2, 3, 9);
        let qnli = tokens_for(&rt, Task::Qnli, 3, 10);
        let mut sched = edf(&rt);
        let mut expected = Vec::new();
        for (i, tok) in sst.iter().chain(&qnli).enumerate() {
            let task = if i < sst.len() {
                Task::Sst2
            } else {
                Task::Qnli
            };
            let req =
                InferenceRequest::new(tok.clone()).with_latency_target(30e-3 + 17e-3 * i as f64);
            sched.submit(task, req.clone(), 1e-3 * i as f64);
            expected.push(rt.try_serve(task, &req).expect("served task"));
        }
        let out = sched.drain();
        assert_eq!(out.len(), expected.len());
        for (got, want) in out.iter().zip(&expected) {
            // Scheduling changes when a sentence runs, never what it
            // computes: responses are bit-identical to unscheduled
            // serve() calls, in submission order.
            assert_eq!(&got.as_ref().expect("served").response, want);
        }
    }

    #[test]
    fn sojourn_accounting_is_consistent() {
        let rt = runtime();
        let toks = tokens_for(&rt, Task::Sst2, 5, 11);
        let mut sched = edf(&rt);
        for (i, tok) in toks.iter().enumerate() {
            sched.submit(
                Task::Sst2,
                InferenceRequest::new(tok.clone()).with_latency_target(40e-3),
                2e-3 * i as f64,
            );
        }
        for r in sched.drain().into_iter().map(|r| r.expect("served")) {
            assert!(
                r.start_s >= r.arrival_s,
                "no sentence starts before it arrives"
            );
            assert!((r.queue_delay_s - (r.start_s - r.arrival_s)).abs() < 1e-15);
            assert!((r.sojourn_s - (r.completion_s - r.arrival_s)).abs() < 1e-15);
            assert!(
                (r.completion_s - r.start_s - r.response.result.latency_s).abs() < 1e-12,
                "service time is exactly the modeled compute latency"
            );
            assert_eq!(
                r.deadline_met,
                deadline_met(r.sojourn_s, r.response.latency_target_s)
            );
        }
    }

    #[test]
    fn empty_and_unserved_edges() {
        let rt = runtime();
        let mut sched = edf(&rt);
        assert_eq!(sched.pending(), 0);
        assert!(sched.drain().is_empty());

        // Unserved task comes back None; served neighbours unaffected.
        let toks = tokens_for(&rt, Task::Sst2, 2, 12);
        sched.submit(Task::Sst2, InferenceRequest::new(toks[0].clone()), 0.0);
        sched.submit(Task::Mnli, InferenceRequest::new(vec![1, 2, 3]), 0.0);
        sched.submit(Task::Sst2, InferenceRequest::new(toks[1].clone()), 0.0);
        let out = sched.drain();
        assert_eq!(out.len(), 3);
        assert!(out[0].is_some());
        assert!(out[1].is_none());
        assert!(out[2].is_some());
        // The queue cleared.
        assert_eq!(sched.pending(), 0);
        assert!(sched.drain().is_empty());
    }

    #[test]
    fn workers_and_packing_change_timeline_not_results() {
        let rt = runtime();
        let toks = tokens_for(&rt, Task::Sst2, 6, 13);
        let mut configs = Vec::new();
        for workers in [1, 3] {
            for max_batch in [1, 4] {
                configs.push(SchedulerConfig {
                    workers,
                    max_batch,
                    policy: SchedulePolicy::EarliestDeadline,
                    ..SchedulerConfig::default()
                });
            }
        }
        let mut reference: Option<Vec<InferenceResponse>> = None;
        for cfg in configs {
            let mut sched = DeadlineScheduler::new(&rt, cfg);
            for (i, tok) in toks.iter().enumerate() {
                sched.submit(
                    Task::Sst2,
                    InferenceRequest::new(tok.clone()).with_latency_target(50e-3),
                    1e-3 * i as f64,
                );
            }
            let responses: Vec<InferenceResponse> = sched
                .drain()
                .into_iter()
                .map(|r| r.expect("served").response)
                .collect();
            match &reference {
                None => reference = Some(responses),
                Some(want) => assert_eq!(&responses, want, "config {cfg:?}"),
            }
        }
    }

    #[test]
    fn record_fan_out_never_reaches_responses() {
        let rt = runtime();
        let toks = [
            tokens_for(&rt, Task::Sst2, 6, 18),
            tokens_for(&rt, Task::Qnli, 5, 19),
        ]
        .concat();
        for case in 0..16 {
            let cfg = SchedulerConfig {
                workers: 1 + case % 2,
                max_batch: [1, 8][case / 2 % 2],
                policy: [SchedulePolicy::Fifo, SchedulePolicy::EarliestDeadline][case / 4 % 2],
                task_switch_s: 1e-3,
                queue_aware_slack: case / 8 == 1,
            };
            let drain = |threads: usize| {
                let mut sched = DeadlineScheduler::new(&rt, cfg);
                // A burst of both tasks (so sentences queue), one
                // pre-stamped, and an unserved task.
                for (i, tok) in toks.iter().enumerate() {
                    let task = if i < 6 { Task::Sst2 } else { Task::Qnli };
                    let req = InferenceRequest::new(tok.clone())
                        .with_latency_target(25e-3 * (1 + i % 4) as f64)
                        .with_elapsed_queue_s(if i == 3 { 10e-3 } else { 0.0 });
                    sched.submit(task, req, 0.2e-3 * (i / 3) as f64);
                }
                sched.submit(Task::Mnli, InferenceRequest::new(vec![1, 2, 3]), 0.0);
                sched.drain_with_threads(threads)
            };
            let sequential = drain(1);
            assert!(sequential[toks.len()].is_none(), "unserved task");
            for threads in [2, 5] {
                assert_eq!(drain(threads), sequential, "{cfg:?}, {threads} threads");
            }
        }
    }

    #[test]
    fn queue_aware_slack_is_bit_identical_when_nothing_queues() {
        // Arrivals spaced far beyond any service time: every sentence
        // dispatches the instant it arrives, the virtual queueing delay
        // is exactly zero, and the slack-aware drain must be bit-equal
        // to the slack-blind one — timeline included.
        let rt = runtime();
        let toks = tokens_for(&rt, Task::Sst2, 4, 16);
        let drain = |slack: bool| {
            let mut sched = DeadlineScheduler::new(
                &rt,
                SchedulerConfig {
                    queue_aware_slack: slack,
                    ..SchedulerConfig::default()
                },
            );
            for (i, tok) in toks.iter().enumerate() {
                sched.submit(
                    Task::Sst2,
                    InferenceRequest::new(tok.clone()).with_latency_target(50e-3),
                    10.0 * i as f64,
                );
            }
            sched.drain()
        };
        assert_eq!(drain(false), drain(true));
    }

    #[test]
    fn queue_aware_slack_compresses_queued_sentences() {
        // A strict-threshold runtime (no layer-1 exits) with a relaxed
        // target and a burst of simultaneous arrivals: the slack-blind
        // engine stretches every sentence's compute into the full
        // target even though each one queued behind the last, while the
        // queue-aware drain hands DVFS the remaining slack — later
        // sentences speed up, the backlog drains sooner, and strictly
        // fewer sojourn deadlines are violated.
        let art = TaskArtifacts::build(Task::Sst2, Scale::Test, 0x5C44);
        let rt = MultiTaskRuntime::from_runtimes([TaskRuntime::from_builder(
            Task::Sst2,
            art.engine_builder()
                .uniform_thresholds(crate::engine::EntropyThresholds::uniform(0.0))
                .workload(art.hardware_workload(true)),
        )]);
        let toks = tokens_for(&rt, Task::Sst2, 6, 17);
        // A burst at t = 0 with escalating targets (the EDF dispatch
        // order): sentence i has room for its predecessors *if* they
        // stop stretching into budget they no longer have. The blind
        // engine computes each sentence for its full target, so every
        // successor's queue delay alone blows its deadline; the aware
        // engine compresses compute to `target − waited` and the whole
        // burst lands exactly on its deadlines.
        let target_of = |i: usize| 80e-3 * (i + 1) as f64;
        let drain = |slack: bool| {
            let mut sched = DeadlineScheduler::new(
                &rt,
                SchedulerConfig {
                    queue_aware_slack: slack,
                    max_batch: 1,
                    ..SchedulerConfig::default()
                },
            );
            for (i, tok) in toks.iter().enumerate() {
                sched.submit(
                    Task::Sst2,
                    InferenceRequest::new(tok.clone()).with_latency_target(target_of(i)),
                    0.0,
                );
            }
            sched
                .drain()
                .into_iter()
                .map(|r| r.expect("served"))
                .collect::<Vec<_>>()
        };
        let blind = drain(false);
        let aware = drain(true);

        // The first dispatched sentence saw no queue in either mode.
        let first_blind = blind.iter().find(|r| r.queue_delay_s == 0.0).expect("head");
        let first_aware = aware.iter().find(|r| r.queue_delay_s == 0.0).expect("head");
        assert_eq!(first_blind.response, first_aware.response);

        let makespan =
            |rs: &[ScheduledResponse]| rs.iter().map(|r| r.completion_s).fold(0.0f64, f64::max);
        let violations = |rs: &[ScheduledResponse]| rs.iter().filter(|r| !r.deadline_met).count();
        assert!(
            makespan(&aware) < makespan(&blind),
            "compressed compute must drain the backlog sooner: {} vs {}",
            makespan(&aware),
            makespan(&blind),
        );
        assert!(
            violations(&aware) < violations(&blind),
            "queue-aware slack must convert blind violations into met deadlines \
             ({} vs {} of {})",
            violations(&aware),
            violations(&blind),
            blind.len(),
        );
        // Queued sentences ran at or above the blind operating point,
        // never below it.
        for (a, b) in aware.iter().zip(&blind) {
            assert!(a.response.result.voltage >= b.response.result.voltage - 1e-6);
        }
    }

    #[test]
    fn edf_groups_same_task_deadlines_amortizing_switches() {
        let rt = runtime();
        let sst = tokens_for(&rt, Task::Sst2, 3, 14);
        let qnli = tokens_for(&rt, Task::Qnli, 3, 15);
        let makespan = |policy: SchedulePolicy| {
            let mut sched = DeadlineScheduler::new(
                &rt,
                SchedulerConfig {
                    workers: 1,
                    max_batch: 8,
                    policy,
                    task_switch_s: 5e-3,
                    ..SchedulerConfig::default()
                },
            );
            // Tight deadlines all on SST-2, relaxed all on QNLI,
            // submitted interleaved: FIFO pays the switch cost on every
            // dispatch, EDF's deadline order groups each task into one
            // packed run.
            for (i, (a, b)) in sst.iter().zip(&qnli).enumerate() {
                sched.submit(
                    Task::Sst2,
                    InferenceRequest::new(a.clone()).with_latency_target(40e-3 + 1e-3 * i as f64),
                    0.0,
                );
                sched.submit(
                    Task::Qnli,
                    InferenceRequest::new(b.clone()).with_latency_target(400e-3 + 1e-3 * i as f64),
                    0.0,
                );
            }
            sched
                .drain()
                .into_iter()
                .map(|r| r.expect("served").completion_s)
                .fold(0.0f64, f64::max)
        };
        let (fifo, edf) = (
            makespan(SchedulePolicy::Fifo),
            makespan(SchedulePolicy::EarliestDeadline),
        );
        // Interleaved FIFO switches 6 times, grouped EDF twice: four
        // avoided 5 ms switches.
        assert!(
            edf + 4.0 * 5e-3 <= fifo + 1e-9,
            "EDF grouping must amortize switches: edf {edf} vs fifo {fifo}"
        );
    }
}
