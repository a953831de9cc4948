//! One task's admission lane: a bounded, deadline-ordered queue drained
//! by that task's engine shards, plus the parked-session pool that
//! makes the lane preemptive.
//!
//! **This file alone knows the queue.** [`LaneQueue`]'s fields are
//! private to it, and every change to a lane is a *transition*: a plain
//! `LaneQueue` method that takes the lane's read-only [`LaneConfig`] and
//! one input, and returns what the caller does next — a [`Popped`] to
//! serve, a [`SubmitError`], a [`LaneStats`] row, or nothing. A
//! transition takes no lock, waits on no condvar and reads no clock, so
//! a test can drive a lane by hand, one transition at a time. [`Lane`] is
//! the thin wrapper the server calls: lock, run one transition, notify.
//!
//! **A lane has one lock.** Queue, counters and histograms all live in
//! `LaneQueue` behind it. A shard takes its lane's lock to pop and to
//! yield (park or completion; plus the preemption poll between steps
//! when preemption is on), and every counter moves under the hold that
//! already exists for its event; two lane locks are never held
//! together. A poisoned lane lock panics whoever takes it next: a torn
//! `LaneQueue` can break the one-response-per-submission invariant.
//!
//! Jobs are *popped* earliest absolute deadline first (ties to the
//! earlier admission), so the queue stays in admission order and
//! backpressure is a length check. A session parked at a layer boundary
//! waits here as a [`ParkedJob`], and idle shards pick across *both*
//! pools in deadline order, so resumes are EDF-ordered too.

use crate::clock::Clock;
use crate::energy::FleetBudget;
use crate::engine::{EdgeBertEngine, InferenceRequest};
use crate::overload::{pressure, LadderStep, OverloadController};
use crate::session::InferenceSession;
use crate::telemetry::{
    LaneHistograms, LaneTelemetrySnapshot, LogHistogram, Telemetry, TraceEventKind,
};
use edgebert_tasks::Task;
use std::ops::Deref;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Duration;

use super::reply::Reply;
use super::{LaneStats, PreemptionPolicy, ServerConfig, ServerResponse, ServerStats, SubmitError};

/// One admitted request waiting for a shard.
pub(super) struct Job {
    /// Admission order within the lane (the EDF tie-break).
    pub seq: u64,
    /// Absolute deadline on the server clock: admission time plus the
    /// resolved latency target, seconds (the EDF key).
    pub deadline_s: f64,
    /// When the job entered the lane on the server clock, seconds
    /// (queueing delay is measured from here at pop time).
    pub enqueued_s: f64,
    /// The request as submitted.
    pub request: InferenceRequest,
    /// Where the serving shard delivers the response.
    pub reply: Reply,
}

/// The serving context that travels with a dispatched sentence across
/// parks: what a shard needs to deliver and account the response no
/// matter which worker finishes the job.
pub(super) struct JobContext {
    /// Admission sequence of the original job.
    pub seq: u64,
    /// The original job's absolute deadline (preemption comparisons
    /// and the resume ordering key).
    pub deadline_s: f64,
    /// Where to deliver the response on completion.
    pub reply: Reply,
    /// Queueing delay measured at the first pop, seconds.
    pub queue_delay_s: f64,
    /// Elapsed queue time charged to the DVFS budget at first dispatch.
    pub slack_deducted_s: f64,
    /// Full measured elapsed queue time (pre-stamp + measured wait),
    /// seconds.
    pub elapsed_s: f64,
    /// Elapsed time the deadline verdict charges (per the server's
    /// slack rules), excluding parked time, seconds.
    pub charged_elapsed_s: f64,
}

/// A session parked at a layer boundary, waiting to be resumed — the
/// serving context travels with it so any shard can finish the job.
pub(super) struct ParkedJob {
    /// The serving context as of the first dispatch.
    pub ctx: JobContext,
    /// The checkpointed session (hidden state + accounting).
    pub session: InferenceSession,
    /// When the session was parked on the server clock, seconds
    /// (parked wall time is measured from here at resume).
    pub parked_s: f64,
}

/// The next unit of work a shard picked up. The parked payload is
/// boxed: on x86-64 a `ParkedJob` is 496 B inline (its session's heap
/// is the hidden state, 6 KiB at 32 tokens of the served shape, and the
/// off-ramp outputs) against a fresh `Job`'s 104 B.
pub(super) enum Work {
    /// A fresh admission: open a session and serve it.
    Fresh(Job),
    /// A parked session: resume and keep stepping.
    Resume(Box<ParkedJob>),
}

/// A popped unit of work plus the lane signals visible at pop time.
pub(super) struct Popped {
    pub work: Work,
    /// The overload ladder's rung at pop time (always
    /// [`LadderStep::Nominal`] on a lane without a ladder). The shard
    /// sizes this work's degradation from it.
    pub ladder_step: LadderStep,
    /// This work's per-shard power allowance at pop time (`None` with
    /// energy budgeting off). Fresh work is stamped with it; resumed
    /// sessions keep the envelope of the lane that admitted them.
    pub envelope_w: Option<f64>,
}

/// What a lane is, fixed at server start: the read-only half of every
/// transition.
struct LaneConfig {
    /// The task this lane admits.
    task: Task,
    /// Admission bound: `jobs.len()` never exceeds it (parked sessions
    /// are already-admitted work and do not count against it).
    capacity: usize,
    /// Home engine shards draining the lane.
    shards: usize,
    /// The engine every shard, home or elastic, runs this lane's
    /// sentences through; its default latency target is the lane's
    /// deadline horizon, the pressure signal's denominator.
    engine: EdgeBertEngine,
    /// The engine's pessimistic nominal service estimate of one
    /// sentence, seconds (the per-job cost of pressure and retry hints).
    nominal_service_s: f64,
    /// The fleet energy budget and this lane's canonical slot in it;
    /// `None` — and every pop unstamped — with energy budgeting off.
    budget: Option<(Arc<FleetBudget>, usize)>,
}

impl LaneConfig {
    /// The lane-total energy envelope, watts (`None` with budgeting off).
    // analyzer: hot-path
    fn envelope_w(&self) -> Option<f64> {
        let (budget, slot) = self.budget.as_ref()?;
        Some(budget.envelope_w(*slot))
    }
}

/// The EDF key: absolute deadline, then admission sequence.
type EdfKey = (f64, u64);

/// Queue state behind the lane mutex.
struct LaneQueue {
    /// Admitted jobs in admission order; popped in deadline order.
    jobs: Vec<Job>,
    /// Sessions parked at a layer boundary, resumed in deadline order.
    parked: Vec<ParkedJob>,
    /// Set once by shutdown: admission closes, workers drain what is
    /// left and exit.
    shutting_down: bool,
    /// Next admission sequence number.
    next_seq: u64,
    /// The counters [`Server::stats`](super::Server::stats) reports, each
    /// moved by the transition of its event; the live fields stay zero
    /// here and are filled by [`stats_row`](Self::stats_row).
    stats: LaneStats,
    /// Sum of the modeled compute latencies of degraded serves, seconds:
    /// over `stats.degraded`, the *observed* degraded service estimate.
    degraded_modeled_total_s: f64,
    /// Foreign shards attached to this lane's pool by elastic
    /// autoscaling (always 0 with elasticity off).
    extra_shards: usize,
    /// The lane's overload ladder (`None` when the server runs without
    /// one), advanced at admission and pop time.
    controller: Option<OverloadController>,
    /// Parked sessions of this lane resumed by a foreign shard, counted
    /// per thief *home lane index* — the one record of a steal.
    /// [`LaneStats::migrated`](super::LaneStats::migrated) is this
    /// row's sum and `stolen` the column's sum across lanes, so the two
    /// balance server-wide in any snapshot taken one lane at a time.
    stolen_by: Vec<u64>,
    /// Per-lane latency/energy distributions, present iff the server
    /// runs with telemetry enabled.
    histograms: Option<LaneHistograms>,
}

impl LaneQueue {
    /// The effective pool: home shards plus attached foreign ones.
    fn width(&self, lane: &LaneConfig) -> usize {
        (lane.shards + self.extra_shards).max(1)
    }

    /// Whether anything is queued or parked.
    fn has_work(&self) -> bool {
        !(self.jobs.is_empty() && self.parked.is_empty())
    }

    /// Shutting down with nothing left: the lane's own shards may exit.
    fn drained(&self) -> bool {
        self.shutting_down && !self.has_work()
    }

    /// The lane's pressure signal: backlog drain time over the deadline
    /// horizon, at the effective pool's drain parallelism.
    fn pressure(&self, lane: &LaneConfig) -> f64 {
        pressure(
            self.jobs.len() + self.parked.len(),
            self.width(lane),
            lane.nominal_service_s,
            lane.engine.default_latency_target_s(),
        )
    }

    /// Publishes the lane's pressure to its energy budget, if any, and returns it.
    fn publish(&self, lane: &LaneConfig) -> f64 {
        let p = self.pressure(lane);
        if let Some((budget, slot)) = &lane.budget {
            budget.publish(*slot, p);
        }
        p
    }

    /// One shard's share of the lane's envelope, watts (`None` with
    /// budgeting off): the lane-total envelope splits evenly across the
    /// effective pool, so the lane's aggregate draw stays under its
    /// allocation.
    // analyzer: hot-path
    fn shard_envelope_w(&self, lane: &LaneConfig) -> Option<f64> {
        let shards = self.width(lane) as f64;
        lane.envelope_w().map(|w| w / shards)
    }

    /// Publishes the lane's pressure and feeds it through the overload
    /// controller, returning the ladder rung (always
    /// [`LadderStep::Nominal`] on a lane without a ladder).
    fn observe(&mut self, lane: &LaneConfig) -> LadderStep {
        let p = self.publish(lane);
        (self.controller.as_mut()).map_or(LadderStep::Nominal, |ladder| ladder.observe(p))
    }

    /// The per-job service estimate of the shed feasibility test: the
    /// mean *observed* modeled latency of degraded serves, clamped from
    /// above by the nominal estimate (a noisy early sample must not make
    /// the ladder shed *more*), and the nominal one before any.
    fn shed_service_estimate_s(&self, lane: &LaneConfig) -> f64 {
        let degraded = self.stats.degraded;
        if degraded == 0 {
            return lane.nominal_service_s;
        }
        let mean = self.degraded_modeled_total_s / degraded as f64;
        if mean.is_finite() && mean > 0.0 {
            mean.min(lane.nominal_service_s)
        } else {
            lane.nominal_service_s
        }
    }

    /// Admission of `request` at `now_s` on the server clock: its
    /// submission sequence number, or the typed refusal. A refusal
    /// consumes no sequence number.
    fn admit(
        &mut self,
        lane: &LaneConfig,
        request: InferenceRequest,
        reply: Reply,
        now_s: f64,
    ) -> Result<u64, SubmitError> {
        if self.shutting_down {
            return Err(SubmitError::ShuttingDown);
        }
        // Attached foreign shards drain the lane too, so they count in
        // the per-slot drain estimates.
        let width = self.width(lane) as f64;
        if self.jobs.len() >= lane.capacity {
            self.stats.rejected += 1;
            return Err(SubmitError::QueueFull {
                task: lane.task,
                capacity: lane.capacity,
                depth: self.jobs.len(),
                retry_after_hint_s: lane.nominal_service_s / width,
            });
        }
        // The EDF key is the *remaining* budget: a request pre-stamped
        // with upstream queueing is closer to its deadline than a
        // fresh one with the same target. Requests come off the wire,
        // so a non-finite target must not poison the pop comparator —
        // it sorts last (and the engine flags it at serve time).
        let target_s =
            (request.latency_target_s).unwrap_or_else(|| lane.engine.default_latency_target_s());
        let remaining_s = target_s - request.effective_elapsed_queue_s();
        let key_s = if remaining_s.is_finite() {
            remaining_s
        } else {
            f64::INFINITY
        };
        let deadline_s = now_s + key_s;
        // Advance the ladder on the pre-admission backlog; on the shed
        // rung, refuse work whose remaining budget the backlog ahead of
        // it would already consume — it would queue and die, and its
        // queueing would push feasible work past its own deadline too.
        if self.observe(lane) == LadderStep::Shed {
            // Only work with an equal-or-tighter deadline runs before
            // this request.
            let ahead = (self.jobs.iter().map(|j| j.deadline_s))
                .chain(self.parked.iter().map(|p| p.ctx.deadline_s))
                .filter(|&d| d <= deadline_s)
                .count();
            let mut shed_slot_s = self.shed_service_estimate_s(lane) / width;
            // An energy envelope slows every slot: the feasibility
            // test must price the lane's *allowed* speed, not the
            // nominal one, or the shed rung under-sheds and queued
            // work dies at the capped clock. A no-op (scale 1.0)
            // when the envelope admits the nominal point or the
            // backend doesn't model power.
            if let Some(per_shard_w) = self.shard_envelope_w(lane) {
                shed_slot_s *= lane.engine.backend().envelope_service_scale(per_shard_w);
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
                self.stats.shed += 1;
                return Err(SubmitError::Shed {
                    task: lane.task,
                    pressure: self.pressure(lane),
                    retry_after_hint_s: (backlog_s - key_s).max(shed_slot_s),
                });
            }
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.stats.submitted += 1;
        self.jobs.push(Job {
            seq,
            deadline_s,
            enqueued_s: now_s,
            request,
            reply,
        });
        self.stats.queue_high_water = self.stats.queue_high_water.max(self.jobs.len());
        Ok(seq)
    }

    /// The next unit of work with its pop-time signals; `None` when the
    /// lane has nothing.
    // analyzer: hot-path
    fn pop(&mut self, lane: &LaneConfig) -> Option<Popped> {
        let work = self.pop_work()?;
        Some(self.finish_pop(lane, work))
    }

    /// Wraps freshly popped work with the pop-time lane signals (the
    /// ladder rung and the per-shard energy envelope), in the
    /// transition that popped it.
    // analyzer: hot-path
    fn finish_pop(&mut self, lane: &LaneConfig, work: Work) -> Popped {
        let ladder_step = self.observe(lane);
        Popped {
            work,
            ladder_step,
            envelope_w: self.shard_envelope_w(lane),
        }
    }

    /// Picks the next unit of work across jobs and parked sessions by
    /// EDF key, so resumes are EDF-ordered relative to everything
    /// waiting on the lane.
    // analyzer: hot-path
    fn pop_work(&mut self) -> Option<Work> {
        match (self.job_key(), self.parked_key()) {
            (None, None) => None,
            (Some((at, _)), None) => Some(Work::Fresh(self.jobs.remove(at))),
            (None, Some((at, _))) => Some(self.resume_parked(at)),
            (Some((jat, jkey)), Some((pat, pkey))) => {
                if pkey <= jkey {
                    Some(self.resume_parked(pat))
                } else {
                    Some(Work::Fresh(self.jobs.remove(jat)))
                }
            }
        }
    }

    /// Takes the parked session at `at` off the lane to be resumed,
    /// counting the resume in the transition that removes it.
    // analyzer: hot-path
    fn resume_parked(&mut self, at: usize) -> Work {
        self.stats.resumed += 1;
        // analyzer: allow(hot-path-alloc) reason="boxing a resumed ParkedJob is one pointer-sized allocation per park/resume cycle, amortized over a whole preempted sentence; keeping Work small keeps every fresh pop allocation-free"
        Work::Resume(Box::new(self.parked.remove(at)))
    }

    /// The index and EDF key of the tightest queued job.
    // analyzer: hot-path
    fn job_key(&self) -> Option<(usize, EdfKey)> {
        Self::best(self.jobs.iter().map(|j| (j.deadline_s, j.seq)))
    }

    /// The index and EDF key of the tightest parked session.
    // analyzer: hot-path
    fn parked_key(&self) -> Option<(usize, EdfKey)> {
        Self::best(self.parked.iter().map(|p| (p.ctx.deadline_s, p.ctx.seq)))
    }

    /// The index and key of the earliest-deadline entry. Non-finite
    /// deadlines sort last (wire garbage must not poison the comparator).
    // analyzer: hot-path
    fn best(keys: impl Iterator<Item = EdfKey>) -> Option<(usize, EdfKey)> {
        keys.enumerate()
            .min_by(|(_, a), (_, b)| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)))
    }

    /// Trades the running session for the tightest queued job, when
    /// `policy` still warrants it: the session parks at `now_s` and the
    /// claimed job comes back to the calling shard, so a pool of shards
    /// cannot stampede-park for one arrival. `Err` hands both back
    /// untouched when pressure vanished since the poll. A yield: the
    /// preemption and this dispatch's `step_times` fold in here; the
    /// work count is unchanged, so no shard needs waking.
    fn preempt_exchange(
        &mut self,
        lane: &LaneConfig,
        mut session: InferenceSession,
        ctx: JobContext,
        policy: PreemptionPolicy,
        step_times: Option<&LogHistogram>,
        now_s: f64,
    ) -> Result<Popped, Box<(InferenceSession, JobContext)>> {
        let Some((at, (deadline_s, _))) = self.job_key() else {
            return Err(Box::new((session, ctx)));
        };
        let pressured = policy.should_preempt(ctx.deadline_s, deadline_s);
        if !pressured || !session.park() {
            return Err(Box::new((session, ctx)));
        }
        let job = self.jobs.remove(at);
        self.parked.push(ParkedJob {
            ctx,
            session,
            parked_s: now_s,
        });
        self.stats.max_parked_depth = self.stats.max_parked_depth.max(self.parked.len());
        self.stats.preempted += 1;
        self.fold_step_times(step_times);
        Ok(self.finish_pop(lane, Work::Fresh(job)))
    }

    /// Claims the parked session admitted as `seq` for the foreign
    /// shard whose home lane has index `thief` (elastic work stealing).
    /// `None` when another shard resumed it first.
    fn steal(&mut self, lane: &LaneConfig, seq: u64, thief: usize) -> Option<Popped> {
        let at = self.parked.iter().position(|p| p.ctx.seq == seq)?;
        let work = self.resume_parked(at);
        Some(self.hand_to_foreign(lane, work, thief))
    }

    /// Whether the envelope funds `width + 1` floor-power draws: a lane
    /// that cannot declines an attach and drains at its funded width.
    /// No envelope passes, and so does an infinite floor draw (a
    /// mobile-GPU anchor at `power_w = +∞`), which none could price.
    fn funds_another_shard(&self, lane: &LaneConfig) -> bool {
        let Some(w) = lane.envelope_w() else {
            return true;
        };
        let floor_w = lane.engine.backend().floor_power_w();
        !floor_w.is_finite() || w >= (self.width(lane) + 1) as f64 * floor_w
    }

    /// An idle foreign shard's scan: the lane's pressure when it has
    /// work at or above `grow_pressure` and its envelope funds one more
    /// shard. A pressured lane it cannot fund declines, counted in
    /// [`LaneStats::attach_declined`].
    fn attach_offer(&mut self, lane: &LaneConfig, grow_pressure: f64) -> Option<f64> {
        if !self.has_work() {
            return None;
        }
        let p = self.pressure(lane);
        if p < grow_pressure {
            return None;
        }
        if !self.funds_another_shard(lane) {
            self.stats.attach_declined += 1;
            return None;
        }
        Some(p)
    }

    /// Attaches a foreign shard of lane `thief` and pops its first work,
    /// re-judging the envelope, which may have shrunk since the scan's
    /// [`attach_offer`](Self::attach_offer); `None` also when work is gone.
    fn attach(&mut self, lane: &LaneConfig, thief: usize) -> Option<Popped> {
        if !self.funds_another_shard(lane) {
            self.stats.attach_declined += 1;
            return None;
        }
        let work = self.pop_work()?;
        Some(self.hand_to_foreign(lane, work, thief))
    }

    /// Hands `work` just popped to a foreign shard of lane `thief`: the
    /// shard joins the pool until [`detach`](Self::detach), and a parked
    /// session leaving with it is a steal, recorded once, here.
    fn hand_to_foreign(&mut self, lane: &LaneConfig, work: Work, thief: usize) -> Popped {
        self.extra_shards += 1;
        self.stats.pool_resizes += 1;
        if matches!(work, Work::Resume(_)) {
            self.stolen_by[thief] += 1;
        }
        self.finish_pop(lane, work)
    }

    /// A foreign shard leaves the pool once its work here is done
    /// (elastic shrink), and the lane publishes its new pressure.
    fn detach(&mut self, lane: &LaneConfig) {
        self.extra_shards = self.extra_shards.saturating_sub(1);
        self.stats.pool_resizes += 1;
        self.publish(lane);
    }

    /// The completion yield: folds everything a finished sentence adds
    /// to the lane — its counters, and with telemetry on its queue
    /// delay, sojourn, energy and its last dispatch's `step_times`.
    fn complete(&mut self, served: &ServerResponse, step_times: Option<&LogHistogram>) {
        let stats = &mut self.stats;
        stats.served += 1;
        stats.violations += u64::from(!served.deadline_met);
        stats.energy_j += served.energy_j;
        if served.degraded_notches > 0 {
            stats.degraded += 1;
            self.degraded_modeled_total_s += served.response.result.latency_s;
        }
        if let Some(h) = &mut self.histograms {
            h.queue_delay_s.record(served.queue_delay_s);
            h.sojourn_s.record(served.sojourn_s);
            h.energy_per_request_j.record(served.energy_j);
        }
        self.fold_step_times(step_times);
    }

    /// Merges one dispatch's per-step wall times into the lane's
    /// histogram (both `None` with telemetry off).
    fn fold_step_times(&mut self, step_times: Option<&LogHistogram>) {
        if let (Some(h), Some(step_times)) = (&mut self.histograms, step_times) {
            h.step_time_s.merge(step_times);
        }
    }

    /// Shutdown: admission closes; shards drain what is left and exit.
    fn close(&mut self) {
        self.shutting_down = true;
    }

    /// The lane's [`LaneStats`] with its live fields filled, adding
    /// this lane's steal record into the server-wide `stolen` column
    /// (indexed by thief home lane).
    fn stats_row(&self, stolen: &mut [u64]) -> LaneStats {
        for (thief, n) in self.stolen_by.iter().enumerate() {
            stolen[thief] += n;
        }
        LaneStats {
            ladder_step_changes: (self.controller.as_ref())
                .map_or(0, OverloadController::step_changes),
            migrated: self.stolen_by.iter().sum(),
            queued: self.jobs.len(),
            parked: self.parked.len(),
            ..self.stats
        }
    }

    /// The server's stats from `lanes`' queues, read one at a time: each
    /// row with its live fields, `stolen` the steal records' column sums.
    fn snapshot<Q: Deref<Target = LaneQueue>>(
        lanes: impl ExactSizeIterator<Item = Q>,
    ) -> ServerStats {
        let mut stolen = vec![0; lanes.len()];
        let mut rows: Vec<LaneStats> = lanes.map(|queue| queue.stats_row(&mut stolen)).collect();
        for (row, stolen) in rows.iter_mut().zip(stolen) {
            row.stolen = stolen;
        }
        ServerStats::from_lanes(rows)
    }

    /// The lane's histograms and gauges (`None` with telemetry off),
    /// its envelope read off `envelopes` (one read of the budget).
    fn telemetry_row(&self, lane: &LaneConfig, envelopes: &[f64]) -> Option<LaneTelemetrySnapshot> {
        Some(LaneTelemetrySnapshot {
            task: lane.task,
            histograms: self.histograms?,
            pressure: self.pressure(lane),
            rung: (self.controller.as_ref()).map_or(LadderStep::Nominal, OverloadController::step),
            queued: self.jobs.len(),
            parked: self.parked.len(),
            extra_shards: self.extra_shards,
            envelope_w: lane.budget.as_ref().map(|(_, slot)| envelopes[*slot]),
        })
    }
}

/// One task's bounded admission lane, shared by every worker: its
/// config, its queue behind the one lock, and the condvar its idle
/// shards wait on. Each method locks, runs a transition, and notifies.
pub(super) struct Lane {
    cfg: LaneConfig,
    /// Queue state, counters and histograms: the lane's one lock.
    queue: Mutex<LaneQueue>,
    /// Signaled on every admission and at shutdown.
    available: Condvar,
}

impl Lane {
    /// An empty lane for `task`, served by `engine`, one of `n_lanes`.
    pub fn new(
        task: Task,
        server: &ServerConfig,
        engine: EdgeBertEngine,
        n_lanes: usize,
        budget: Option<(Arc<FleetBudget>, usize)>,
    ) -> Self {
        Self {
            cfg: LaneConfig {
                task,
                capacity: server.queue_capacity,
                shards: server.shards_per_task,
                nominal_service_s: engine.nominal_service_estimate_s(),
                engine,
                budget,
            },
            queue: Mutex::new(LaneQueue {
                jobs: Vec::new(),
                parked: Vec::new(),
                shutting_down: false,
                next_seq: 0,
                stats: LaneStats::empty(task, server.shards_per_task),
                degraded_modeled_total_s: 0.0,
                extra_shards: 0,
                controller: server.overload.map(OverloadController::new),
                stolen_by: vec![0; n_lanes],
                histograms: server.telemetry.map(|_| LaneHistograms::default()),
            }),
            available: Condvar::new(),
        }
    }

    /// The task this lane admits.
    pub fn task(&self) -> Task {
        self.cfg.task
    }

    /// The engine serving this lane's work.
    pub fn engine(&self) -> &EdgeBertEngine {
        &self.cfg.engine
    }

    fn lock(&self) -> MutexGuard<'_, LaneQueue> {
        self.queue.lock().expect("lane mutex")
    }

    /// Requests admitted but not yet popped.
    pub fn queued(&self) -> usize {
        self.lock().jobs.len()
    }

    /// Admits `request` (see [`LaneQueue::admit`]), recording `Admitted`
    /// (or `Shed`) while the lock pins the pop, before any `Popped`.
    pub fn submit(
        &self,
        request: InferenceRequest,
        reply: Reply,
        clock: &Clock,
        telemetry: Option<&Arc<Telemetry>>,
    ) -> Result<u64, SubmitError> {
        let mut queue = self.lock();
        let now_s = clock.now_s();
        let admitted = queue.admit(&self.cfg, request, reply, now_s);
        if let Some(hub) = telemetry {
            let task = self.cfg.task;
            match admitted {
                Ok(seq) => hub.record_at(now_s, task, seq, TraceEventKind::Admitted),
                // Shed requests consume no sequence number, so their
                // trace ids count down from the top.
                Err(SubmitError::Shed { pressure, .. }) => {
                    let id = u64::MAX - (queue.stats.shed - 1);
                    hub.record_at(now_s, task, id, TraceEventKind::Shed { pressure });
                }
                Err(_) => {}
            }
        }
        drop(queue);
        if admitted.is_ok() {
            self.available.notify_one();
        }
        admitted
    }

    /// Blocks until a unit of work is available or the lane is shutting
    /// down with nothing left to drain (`None`).
    pub fn next_work(&self) -> Option<Popped> {
        let mut queue = self.lock();
        loop {
            if let Some(popped) = queue.pop(&self.cfg) {
                return Some(popped);
            }
            if queue.drained() {
                return None;
            }
            queue = self.available.wait(queue).expect("lane mutex");
        }
    }

    /// Non-blocking [`next_work`](Self::next_work).
    pub fn try_next_work(&self) -> Option<Popped> {
        self.lock().pop(&self.cfg)
    }

    /// Waits up to `timeout` for a wakeup on this lane; `false`, without
    /// waiting, once it is shutting down with nothing left.
    pub fn idle_wait(&self, timeout: Duration) -> bool {
        let queue = self.lock();
        if queue.drained() {
            return false;
        }
        let _ = (self.available.wait_timeout(queue, timeout)).expect("lane mutex");
        true
    }

    /// Claims the EDF-tightest parked session on any lane but `home`
    /// for a shard of `home` (elastic work stealing): one lane lock at a
    /// time to scan, then the winner's to steal — `None` when another
    /// shard got there first (the caller's loop rescans).
    pub fn steal_tightest(lanes: &[Lane], home: usize) -> Option<(usize, Popped)> {
        let mut best: Option<(usize, EdfKey)> = None;
        for (idx, lane) in lanes.iter().enumerate().filter(|&(idx, _)| idx != home) {
            let key = lane.lock().parked_key().map(|(_, key)| key);
            if let Some(key) = key.filter(|&key| best.is_none_or(|(_, bk)| key < bk)) {
                best = Some((idx, key));
            }
        }
        let (idx, (_, seq)) = best?;
        let popped = lanes[idx].lock().steal(&lanes[idx].cfg, seq, home)?;
        Some((idx, popped))
    }

    /// Attaches a shard of `home` to the most pressured other lane whose
    /// [`attach_offer`](LaneQueue::attach_offer) clears `grow_pressure`,
    /// and pops its next unit of work; same two passes as stealing.
    pub fn attach_most_pressured(
        lanes: &[Lane],
        home: usize,
        grow_pressure: f64,
    ) -> Option<(usize, Popped)> {
        let mut best: Option<(usize, f64)> = None;
        for (idx, lane) in lanes.iter().enumerate().filter(|&(idx, _)| idx != home) {
            let offer = lane.lock().attach_offer(&lane.cfg, grow_pressure);
            if let Some(p) = offer.filter(|&p| best.is_none_or(|(_, bp)| p > bp)) {
                best = Some((idx, p));
            }
        }
        let (idx, _) = best?;
        let popped = lanes[idx].lock().attach(&lanes[idx].cfg, home)?;
        Some((idx, popped))
    }

    /// See [`LaneQueue::detach`].
    pub fn release(&self) {
        self.lock().detach(&self.cfg);
    }

    /// The tightest queued deadline (fresh jobs only — a parked session
    /// must not preempt the one that preempted it): the cheap poll a
    /// shard runs between steps before it tries [`preempt`](Self::preempt).
    pub fn tightest_queued_deadline(&self) -> Option<f64> {
        self.lock().job_key().map(|(_, (deadline_s, _))| deadline_s)
    }

    /// See [`LaneQueue::preempt_exchange`].
    pub fn preempt(
        &self,
        session: InferenceSession,
        ctx: JobContext,
        policy: PreemptionPolicy,
        step_times: Option<&LogHistogram>,
        now_s: f64,
    ) -> Result<Popped, Box<(InferenceSession, JobContext)>> {
        let mut queue = self.lock();
        queue.preempt_exchange(&self.cfg, session, ctx, policy, step_times, now_s)
    }

    /// See [`LaneQueue::complete`]; called *before* the reply is sent, so
    /// a client holding its response finds it in the stats.
    pub fn retire(&self, served: &ServerResponse, step_times: Option<&LogHistogram>) {
        self.lock().complete(served, step_times);
    }

    /// Closes admission and wakes every shard to drain and exit.
    pub fn shut_down(&self) {
        self.lock().close();
        self.available.notify_all();
    }

    /// See [`LaneQueue::snapshot`]; one lane lock at a time.
    pub fn snapshot(lanes: &[Lane]) -> ServerStats {
        LaneQueue::snapshot(lanes.iter().map(Lane::lock))
    }

    /// Every lane's telemetry row (none with telemetry off), one lane
    /// lock at a time, the envelopes from one read of the fleet budget
    /// so that they spend exactly the cap.
    pub fn telemetry_rows(lanes: &[Lane]) -> impl Iterator<Item = LaneTelemetrySnapshot> + '_ {
        let budget = lanes.first().and_then(|lane| lane.cfg.budget.as_ref());
        let envelopes = budget.map_or_else(Vec::new, |(budget, _)| budget.envelopes_w());
        lanes
            .iter()
            .filter_map(move |lane| lane.lock().telemetry_row(&lane.cfg, &envelopes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::energy::EnergyConfig;
    use crate::engine::EngineBuilder;
    use crate::overload::OverloadConfig;
    use crate::predictor::{EntropyDataset, EntropyPredictor};
    use crate::server::reply::{slot, ReplySlot};
    use crate::session::SessionState;
    use edgebert_model::{AlbertConfig, AlbertModel};
    use edgebert_tensor::Rng;

    fn tiny_engine() -> EdgeBertEngine {
        let model = AlbertModel::new(AlbertConfig::tiny(64, 2), &mut Rng::seed_from(1));
        let trajectories = vec![vec![0.5; model.num_layers()]];
        let lut = EntropyPredictor::train(&EntropyDataset { trajectories }, 1, 2).to_lut(2, 1.0);
        EngineBuilder::new(Arc::new(model), Arc::new(lut)).build()
    }

    /// A lane's config and queue, out of its lock, to drive by hand.
    fn parts(lane: Lane) -> (LaneConfig, LaneQueue) {
        (lane.cfg, lane.queue.into_inner().expect("lane mutex"))
    }

    /// A lane of capacity `deadlines.len()` and a 10 ms nominal service
    /// estimate, with one job admitted at time 0 per deadline.
    fn lane_with(deadlines: &[f64]) -> (LaneConfig, LaneQueue, Vec<ReplySlot>) {
        let server = ServerConfig {
            queue_capacity: deadlines.len(),
            ..ServerConfig::default()
        };
        let (lane, mut queue) = parts(Lane::new(Task::Sst2, &server, tiny_engine(), 1, None));
        let lane = LaneConfig {
            nominal_service_s: 10e-3,
            ..lane
        };
        let mut slots = Vec::new();
        for (seq, &deadline_s) in deadlines.iter().enumerate() {
            let (reply, waiting) = slot();
            slots.push(waiting);
            let request = InferenceRequest::new(vec![seq as u32]).with_latency_target(deadline_s);
            assert_eq!(queue.admit(&lane, request, reply, 0.0), Ok(seq as u64));
        }
        (lane, queue, slots)
    }

    fn pop_order(queue: &mut LaneQueue) -> Vec<u64> {
        let mut order = Vec::new();
        while let Some(Work::Fresh(job)) = queue.pop_work() {
            order.push(job.seq);
        }
        order
    }

    /// The serving context of freshly popped work, opened on `engine`.
    fn open(engine: &EdgeBertEngine, popped: Popped) -> (InferenceSession, JobContext) {
        let Work::Fresh(job) = popped.work else {
            panic!("expected a fresh job")
        };
        let ctx = JobContext {
            seq: job.seq,
            deadline_s: job.deadline_s,
            reply: job.reply,
            queue_delay_s: 0.0,
            slack_deducted_s: 0.0,
            elapsed_s: 0.0,
            charged_elapsed_s: 0.0,
        };
        (engine.begin(&job.request), ctx)
    }

    /// Runs `session` to completion and folds it into `queue`
    /// (lane `task`), then sends the reply.
    fn serve(queue: &mut LaneQueue, task: Task, mut session: InferenceSession, ctx: JobContext) {
        while !session.is_complete() {
            session.step();
        }
        let response = session.response().expect("complete");
        let served = ServerResponse {
            task,
            shard: 0,
            submission: ctx.seq,
            queue_delay_s: 0.0,
            slack_deducted_s: 0.0,
            preemptions: session.preemptions(),
            parked_s: session.parked_s(),
            degraded_notches: session.degraded_notches(),
            sojourn_s: response.result.latency_s,
            deadline_met: true,
            energy_j: response.result.energy_j,
            response,
        };
        queue.complete(&served, None);
        ctx.reply.send(served);
    }

    #[test]
    fn edf_pops_earliest_deadline_ties_to_admission_order() {
        let (_, mut queue, _rx) = lane_with(&[0.5, 0.1, 0.3, 0.1, 0.05]);
        assert_eq!(pop_order(&mut queue), vec![4, 1, 3, 2, 0]);
    }

    #[test]
    fn shed_estimate_uses_observed_degraded_mean_clamped_to_nominal() {
        let (lane, mut queue, _rx) = lane_with(&[]);
        // No degraded serves yet: the pessimistic nominal estimate.
        assert_eq!(queue.shed_service_estimate_s(&lane), 10e-3);
        queue.stats.degraded = 4;
        queue.degraded_modeled_total_s = 8e-3; // 2 ms mean
        assert_eq!(queue.shed_service_estimate_s(&lane), 2e-3);
        // A noisy mean above nominal must not make the ladder shed
        // more than the class-agnostic rule would.
        queue.degraded_modeled_total_s = 200e-3; // 50 ms mean
        assert_eq!(queue.shed_service_estimate_s(&lane), 10e-3);
    }

    #[test]
    fn one_tight_arrival_preempts_one_of_two_running_sessions() {
        // `park` commits the open segment inside the transition on
        // purpose: the park decision and the job swap are one step, so
        // two shards reacting to the same tight arrival cannot both
        // yield to it.
        let (lane, mut queue, _rx) = lane_with(&[0.01]);
        let policy = PreemptionPolicy::DeadlineGap(0.0);
        let mut exchange = |seq: u64| {
            let (reply, _) = slot();
            let ctx = JobContext {
                seq,
                deadline_s: 1.0,
                reply,
                queue_delay_s: 0.0,
                slack_deducted_s: 0.0,
                elapsed_s: 0.0,
                charged_elapsed_s: 0.0,
            };
            let session = lane.engine.begin(&InferenceRequest::new(vec![1, 2, 3]));
            queue.preempt_exchange(&lane, session, ctx, policy, None, 0.0)
        };

        let Ok(first) = exchange(10) else {
            panic!("the first session yields to the tight arrival")
        };
        assert!(matches!(first.work, Work::Fresh(Job { seq: 0, .. })));
        let Err(second) = exchange(11) else {
            panic!("the arrival is claimed: the second session keeps running")
        };
        let (session, ctx) = *second;
        assert_eq!(session.state(), SessionState::Running);
        assert_eq!(ctx.seq, 11);

        assert_eq!(queue.stats.preempted, 1);
        assert_eq!(queue.parked.len(), 1);
        assert_eq!(queue.parked[0].ctx.seq, 10);
        assert_eq!(queue.parked[0].session.state(), SessionState::Parked);
        assert!(queue.jobs.is_empty());
    }

    #[test]
    fn attach_detach_track_extra_shards_and_resizes() {
        let (lane, mut queue, _rx) = lane_with(&[0.1]);
        assert!(queue.attach(&lane, 0).is_some());
        assert_eq!(queue.extra_shards, 1);
        assert_eq!(queue.stats.pool_resizes, 1);
        queue.detach(&lane);
        assert_eq!(queue.extra_shards, 0);
        assert_eq!(queue.stats.pool_resizes, 2);
    }

    #[test]
    fn two_lanes_driven_transition_by_transition_balance_their_ledgers() {
        // No thread and no clock: every lane transition a server
        // interleaves is called here directly, one at a time.
        let engine = tiny_engine();
        let floor_w = engine.backend().floor_power_w();
        assert!(floor_w.is_finite() && floor_w > 0.0, "{floor_w}");
        // A cap that funds ten floor-power shards on whichever lane
        // holds all the published pressure, and no floor.
        let ecfg = EnergyConfig {
            fleet_cap_w: 10.0 * floor_w,
            floor_w: 0.0,
        };
        let budget = Arc::new(FleetBudget::new(ecfg, 2));
        // Capacity 2, and a ladder pinned on its shed rung.
        let zero = 0.0;
        let overload = OverloadConfig {
            degrade_enter: zero,
            degrade_exit: zero,
            shed_enter: zero,
            shed_exit: zero,
        };
        let server = ServerConfig {
            queue_capacity: 2,
            overload: Some(overload),
            ..ServerConfig::default()
        };
        let (a, b) = (0, 1);
        let tasks = [Task::Sst2, Task::Qnli];
        let [(lane_a, queue_a), (lane_b, queue_b)] = tasks.map(|task| {
            let slot = FleetBudget::slot_of(&tasks, task);
            let budget = Some((Arc::clone(&budget), slot));
            parts(Lane::new(task, &server, engine.clone(), 2, budget))
        });
        let (lanes, mut queues) = ([lane_a, lane_b], [queue_a, queue_b]);
        let mut slots: Vec<(Task, u64, ReplySlot)> = Vec::new();
        let mut admit = |queue: &mut LaneQueue, lane: &LaneConfig, target_s: f64| {
            let (reply, waiting) = slot();
            let request = InferenceRequest::new(vec![1, 2, 3]).with_latency_target(target_s);
            let admitted = queue.admit(lane, request, reply, 0.0);
            if let Ok(seq) = admitted {
                slots.push((lane.task, seq, waiting));
            }
            admitted
        };

        // Lane a: one loose job popped, two tighter ones queued behind
        // it; a third is refused at capacity.
        assert_eq!(admit(&mut queues[a], &lanes[a], 3.0), Ok(0));
        let popped = queues[a].pop(&lanes[a]).expect("queued");
        let (running, running_ctx) = open(&engine, popped);
        assert_eq!(admit(&mut queues[a], &lanes[a], 1.0), Ok(1));
        assert_eq!(admit(&mut queues[a], &lanes[a], 2.0), Ok(2));
        let full = admit(&mut queues[a], &lanes[a], 4.0);
        assert!(
            matches!(full, Err(SubmitError::QueueFull { depth: 2, .. })),
            "{full:?}"
        );
        // Lane b sheds a request with no budget left.
        let shed = admit(&mut queues[b], &lanes[b], 0.0);
        assert!(matches!(shed, Err(SubmitError::Shed { .. })), "{shed:?}");

        // The tight arrival preempts the loose session, which parks.
        let policy = PreemptionPolicy::DeadlineGap(0.0);
        let claimed =
            (queues[a].preempt_exchange(&lanes[a], running, running_ctx, policy, None, 0.5))
                .unwrap_or_else(|_| panic!("the tighter queued job claims the lane"));
        let (session, ctx) = open(&engine, claimed);
        assert_eq!(ctx.seq, 1);
        serve(&mut queues[a], Task::Sst2, session, ctx);

        // Lane b's shard steals the parked session and finishes it.
        let (_, seq) = queues[a].parked_key().map(|(_, k)| k).expect("parked");
        let Some(Popped {
            work: Work::Resume(parked),
            ..
        }) = queues[a].steal(&lanes[a], seq, b)
        else {
            panic!("the parked session is stolen")
        };
        let ParkedJob {
            ctx, mut session, ..
        } = *parked;
        assert_eq!(ctx.seq, 0);
        session.resume(0.1);
        serve(&mut queues[a], Task::Sst2, session, ctx);
        queues[a].detach(&lanes[a]);

        // Lane b's pressure takes the whole cap: lane a cannot fund the
        // attach and declines it. Once it frees, the shard attaches.
        budget.publish(FleetBudget::slot_of(&tasks, Task::Qnli), 1e12);
        assert_eq!(queues[a].attach_offer(&lanes[a], 0.0), None);
        budget.publish(FleetBudget::slot_of(&tasks, Task::Qnli), 0.0);
        assert!(queues[a].attach_offer(&lanes[a], 0.0).is_some());
        let popped = queues[a].attach(&lanes[a], b).expect("funded, with work");
        let (session, ctx) = open(&engine, popped);
        assert_eq!(ctx.seq, 2);
        serve(&mut queues[a], Task::Sst2, session, ctx);
        queues[a].detach(&lanes[a]);

        // Refusals consumed no sequence number on either lane.
        assert_eq!(admit(&mut queues[a], &lanes[a], 1.0), Ok(3));
        assert_eq!(admit(&mut queues[b], &lanes[b], 1.0), Ok(0));
        for (queue, lane) in queues.iter_mut().zip(&lanes) {
            let popped = queue.pop(lane).expect("queued");
            let (session, ctx) = open(&engine, popped);
            serve(queue, lane.task, session, ctx);
            assert!(!queue.has_work());
        }

        // Exactly one reply per admitted submission.
        assert_eq!(slots.len(), 5);
        for (task, seq, waiting) in slots {
            let outcome = waiting.wait_timeout(Duration::ZERO);
            let reply = outcome.ok().flatten().expect("replied");
            assert_eq!((reply.task, reply.submission), (task, seq));
        }

        // One snapshot taken a lane at a time balances its steal record.
        let stats = LaneQueue::snapshot(queues.iter());
        assert_eq!((stats.stolen(), stats.migrated()), (1, 1));
        let (sa, sb) = (stats.lanes[a], stats.lanes[b]);
        assert_eq!(
            (sa.submitted, sa.rejected, sa.shed, sa.served),
            (4, 1, 0, 4)
        );
        assert_eq!(
            (sb.submitted, sb.rejected, sb.shed, sb.served),
            (1, 0, 1, 1)
        );
        assert_eq!((sa.preempted, sa.resumed, sa.max_parked_depth), (1, 1, 1));
        assert_eq!(
            (sa.pool_resizes, sa.attach_declined, sa.migrated),
            (4, 1, 1)
        );
        assert_eq!((sb.stolen, sb.pool_resizes, sb.resumed), (1, 0, 0));
    }
}
