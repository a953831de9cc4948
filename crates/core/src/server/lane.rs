//! One task's admission lane: a bounded, deadline-ordered queue drained
//! by that task's engine shards, plus the parked-session pool that
//! makes the lane preemptive.
//!
//! A lane is the synchronization point between client threads calling
//! [`Server::submit`](super::Server::submit) and the worker threads
//! owning the task's engine clones: a `Mutex`-guarded job list with a
//! `Condvar` for wakeups. Jobs are *popped* earliest absolute deadline
//! first (ties to the earlier admission), so the queue itself stays in
//! admission order and backpressure is a plain length check against
//! the configured capacity.
//!
//! **A lane has one lock.** Queue, counters and histograms all live in
//! [`LaneQueue`] behind it. A shard takes its lane's lock to pop and to
//! yield (park or completion; plus the preemption poll between steps
//! when preemption is on), and every counter moves under the hold that
//! already exists for its event; two lane locks are never held
//! together. A poisoned lane lock panics whoever takes it next: a torn
//! `LaneQueue` can break the one-response-per-submission invariant.
//!
//! With preemption enabled, a shard that parks its running
//! [`InferenceSession`](crate::session::InferenceSession) at a layer
//! boundary pushes it here as a [`ParkedJob`]; idle shards then pick
//! the next unit of work across *both* pools — fresh admissions and
//! parked sessions — in deadline order, so parked sessions resume
//! EDF-ordered relative to everything else waiting on the lane.

use crate::energy::FleetBudget;
use crate::engine::InferenceRequest;
use crate::overload::{pressure, LadderStep, OverloadController};
use crate::session::InferenceSession;
use crate::telemetry::{LaneHistograms, LogHistogram};
use edgebert_tasks::Task;
use std::sync::{Arc, Condvar, Mutex};

use super::reply::Reply;
use super::{LaneStats, ServerConfig, ServerResponse};

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
    /// This work's per-shard power allowance at pop time: the lane's
    /// energy envelope divided by its effective pool (home + attached
    /// shards). `None` when fleet energy budgeting is off. Fresh work
    /// is stamped with it; resumed sessions keep the envelope of the
    /// lane that admitted them.
    pub envelope_w: Option<f64>,
}

/// Queue state behind the lane mutex.
pub(super) struct LaneQueue {
    /// Admitted jobs in admission order; popped in deadline order.
    pub jobs: Vec<Job>,
    /// Sessions parked at a layer boundary, resumed in deadline order.
    pub parked: Vec<ParkedJob>,
    /// Set once by shutdown: admission closes, workers drain what is
    /// left and exit.
    pub shutting_down: bool,
    /// Next admission sequence number.
    pub next_seq: u64,
    /// The counters [`Server::stats`](super::Server::stats) reports,
    /// each moved in place under the lock hold that already exists for
    /// its event. The live fields (`queued`, `parked`,
    /// `ladder_step_changes`, `stolen`, `migrated`) stay zero here and
    /// are filled at snapshot time.
    pub stats: LaneStats,
    /// Sum of the modeled compute latencies of degraded serves,
    /// seconds — the shed feasibility test divides it by
    /// `stats.degraded` for the *observed* degraded service estimate,
    /// so the ladder sheds less once degradation has bought real
    /// throughput.
    pub degraded_modeled_total_s: f64,
    /// Foreign shards currently attached to this lane's pool (elastic
    /// autoscaling): they drain the lane alongside its own shards, so
    /// the pressure signal and admission drain estimates count them.
    /// Always 0 with elasticity disabled.
    pub extra_shards: usize,
    /// The lane's overload ladder (`None` when the server runs without
    /// one), advanced under this lock at admission and pop time.
    pub controller: Option<OverloadController>,
    /// Parked sessions of this lane resumed by a foreign shard, counted
    /// per thief *home lane index* — the one record of a steal.
    /// [`LaneStats::migrated`](super::LaneStats::migrated) is this
    /// row's sum and `stolen` the column's sum across lanes, so the two
    /// balance server-wide in any snapshot taken one lane at a time.
    /// All zero with elasticity disabled.
    pub stolen_by: Vec<u64>,
    /// Per-lane latency/energy distributions, present iff the server
    /// runs with telemetry enabled. Every shard (home or elastic)
    /// driving this lane folds into them at its yield.
    pub histograms: Option<LaneHistograms>,
}

/// One task's bounded admission lane.
pub(super) struct Lane {
    /// The task this lane admits.
    pub task: Task,
    /// Admission bound: `jobs.len()` never exceeds it (parked sessions
    /// are already-admitted work and do not count against it).
    pub capacity: usize,
    /// Engine shards draining the lane (the pressure signal's drain
    /// parallelism).
    pub shards: usize,
    /// Pessimistic nominal service estimate of one sentence on this
    /// lane's engine, seconds (the pressure signal's per-job cost and
    /// the retry-hint unit).
    pub nominal_service_s: f64,
    /// The lane's deadline horizon — its engine's default latency
    /// target, seconds (the pressure signal's denominator).
    pub horizon_s: f64,
    /// The fleet energy budget and this lane's canonical slot in it;
    /// `None` — and every pop unstamped — with energy budgeting off.
    pub budget: Option<(Arc<FleetBudget>, usize)>,
    /// Queue state, counters and histograms: the lane's one lock.
    pub queue: Mutex<LaneQueue>,
    /// Signaled on every admission, park, and shutdown.
    pub available: Condvar,
}

impl Lane {
    /// An empty lane for `task` on a server of `n_lanes` lanes
    /// configured by `cfg` (capacity, pool size, ladder, telemetry).
    pub fn new(
        task: Task,
        cfg: &ServerConfig,
        nominal_service_s: f64,
        horizon_s: f64,
        n_lanes: usize,
        budget: Option<(Arc<FleetBudget>, usize)>,
    ) -> Self {
        Self {
            task,
            capacity: cfg.queue_capacity,
            shards: cfg.shards_per_task,
            nominal_service_s,
            horizon_s,
            budget,
            queue: Mutex::new(LaneQueue {
                jobs: Vec::new(),
                parked: Vec::new(),
                shutting_down: false,
                next_seq: 0,
                stats: LaneStats::empty(task, cfg.shards_per_task),
                degraded_modeled_total_s: 0.0,
                extra_shards: 0,
                controller: cfg.overload.map(OverloadController::new),
                stolen_by: vec![0; n_lanes],
                histograms: cfg.telemetry.map(|_| LaneHistograms::default()),
            }),
            available: Condvar::new(),
        }
    }

    /// The lane's current pressure signal: backlog drain time over the
    /// deadline horizon, with foreign shards attached by elastic
    /// autoscaling counted in the drain parallelism.
    pub(super) fn pressure_of(&self, queue: &LaneQueue) -> f64 {
        pressure(
            queue.jobs.len() + queue.parked.len(),
            self.shards + queue.extra_shards,
            self.nominal_service_s,
            self.horizon_s,
        )
    }

    /// Publishes the lane's pressure to its energy budget, if any, and returns it.
    fn publish(&self, queue: &LaneQueue) -> f64 {
        let p = self.pressure_of(queue);
        if let Some((budget, slot)) = &self.budget {
            budget.publish(*slot, p);
        }
        p
    }

    /// The lane-total energy envelope, watts (`None` with budgeting off).
    // analyzer: hot-path
    pub(super) fn envelope_w(&self) -> Option<f64> {
        let (budget, slot) = self.budget.as_ref()?;
        Some(budget.envelope_w(*slot))
    }

    /// One shard's share of the lane's envelope, watts (`None` with
    /// budgeting off): the lane-total envelope splits evenly across the
    /// effective pool, so every concurrently-running shard gets an
    /// equal share and the lane's aggregate draw stays under its
    /// allocation.
    // analyzer: hot-path
    pub(super) fn shard_envelope_w(&self, queue: &LaneQueue) -> Option<f64> {
        let shards = (self.shards + queue.extra_shards).max(1) as f64;
        self.envelope_w().map(|w| w / shards)
    }

    /// Publishes the lane's pressure and feeds its backlog (queued +
    /// parked work) through the overload controller, returning the
    /// ladder rung. Called under the queue lock at admission and pop
    /// time; a lane without a ladder stays at [`LadderStep::Nominal`].
    pub(super) fn observe(&self, queue: &mut LaneQueue) -> LadderStep {
        let p = self.publish(queue);
        queue
            .controller
            .as_mut()
            .map_or(LadderStep::Nominal, |ladder| ladder.observe(p))
    }

    /// The per-job service estimate the shed feasibility test divides
    /// the backlog over: the mean *observed* modeled latency of
    /// degraded serves when the ladder has degraded anything, clamped
    /// from above by the nominal estimate (degradation only ever buys
    /// throughput — a noisy early sample must not make the ladder shed
    /// *more* than the nominal estimate alone would). Falls back to
    /// the pessimistic nominal estimate before the first degraded
    /// serve completes.
    pub(super) fn shed_service_estimate_s(&self, queue: &LaneQueue) -> f64 {
        let degraded = queue.stats.degraded;
        if degraded == 0 {
            return self.nominal_service_s;
        }
        let mean = queue.degraded_modeled_total_s / degraded as f64;
        if mean.is_finite() && mean > 0.0 {
            mean.min(self.nominal_service_s)
        } else {
            self.nominal_service_s
        }
    }

    /// Wraps freshly popped work with the pop-time lane signals (the
    /// ladder rung and the per-shard energy envelope). Must run under
    /// the same lock that popped the work — the home shard's, or a
    /// foreign shard's that has just attached.
    // analyzer: hot-path
    pub(super) fn finish_pop(&self, queue: &mut LaneQueue, work: Work) -> Popped {
        let ladder_step = self.observe(queue);
        Popped {
            work,
            ladder_step,
            envelope_w: self.shard_envelope_w(queue),
        }
    }

    /// Blocks until a unit of work is available — a fresh job or a
    /// parked session, whichever comes first in deadline order — or the
    /// lane is shutting down with nothing left to drain (`None`). The
    /// worker-thread entry point.
    pub fn next_work(&self) -> Option<Popped> {
        let mut queue = self.queue.lock().expect("lane mutex");
        loop {
            if let Some(work) = Self::pop_work(&mut queue) {
                return Some(self.finish_pop(&mut queue, work));
            }
            if queue.shutting_down {
                return None;
            }
            queue = self.available.wait(queue).expect("lane mutex");
        }
    }

    /// Non-blocking [`next_work`](Self::next_work): the next unit of
    /// work if one is queued or parked right now, else `None`. The
    /// elastic worker loop polls its home lane through this before
    /// looking across the pool.
    pub(super) fn try_next_work(&self) -> Option<Popped> {
        let mut queue = self.queue.lock().expect("lane mutex");
        let work = Self::pop_work(&mut queue)?;
        Some(self.finish_pop(&mut queue, work))
    }

    /// Marks one foreign shard attached to this lane's pool (elastic
    /// grow): the pressure signal and the admission drain estimates
    /// count it until [`detach`](Self::detach). Under the caller's
    /// queue lock, so the grow decision and the pop it pays for are
    /// atomic.
    pub(super) fn attach(&self, queue: &mut LaneQueue) {
        queue.extra_shards += 1;
        queue.stats.pool_resizes += 1;
    }

    /// Hands `work` just popped off this lane to a foreign shard whose
    /// home lane has index `thief`: the shard [`attach`](Self::attach)es,
    /// and a parked session leaving with it is a steal, recorded here —
    /// once, under the lock that removed it. Under the caller's queue
    /// lock, like [`finish_pop`](Self::finish_pop).
    pub(super) fn hand_to_foreign(
        &self,
        queue: &mut LaneQueue,
        work: Work,
        thief: usize,
    ) -> Popped {
        self.attach(queue);
        if matches!(work, Work::Resume(_)) {
            queue.stolen_by[thief] += 1;
        }
        self.finish_pop(queue, work)
    }

    /// Claims the parked session admitted as `seq` for the foreign
    /// shard whose home lane has index `thief` (elastic work stealing).
    /// `None` when another shard resumed it first.
    pub(super) fn steal_parked(&self, seq: u64, thief: usize) -> Option<Popped> {
        let mut queue = self.queue.lock().expect("lane mutex");
        let at = queue.parked.iter().position(|p| p.ctx.seq == seq)?;
        let work = Self::resume_parked(&mut queue, at);
        Some(self.hand_to_foreign(&mut queue, work, thief))
    }

    /// The EDF key `(deadline, seq)` of the tightest parked session, if
    /// any (what a roaming shard compares across lanes before it
    /// [`steal_parked`](Self::steal_parked)s).
    pub(super) fn tightest_parked(&self) -> Option<(f64, u64)> {
        let queue = self.queue.lock().expect("lane mutex");
        let keys = queue.parked.iter().map(|p| (p.ctx.deadline_s, p.ctx.seq));
        Self::best(keys).map(|(_, key)| key)
    }

    /// Reverses [`attach`](Self::attach) once the foreign shard stops
    /// draining this lane (elastic shrink), and publishes the new pressure.
    pub(super) fn detach(&self) {
        let mut queue = self.queue.lock().expect("lane mutex");
        queue.extra_shards = queue.extra_shards.saturating_sub(1);
        queue.stats.pool_resizes += 1;
        self.publish(&queue);
    }

    /// The tightest absolute deadline currently queued (fresh jobs
    /// only — a parked session already had the lane and must not
    /// preempt the one that preempted it). The cheap preemption poll a
    /// shard runs between steps; the authoritative decision happens
    /// atomically in [`preempt_exchange`](Self::preempt_exchange).
    pub fn tightest_queued_deadline(&self) -> Option<f64> {
        let queue = self.queue.lock().expect("lane mutex");
        queue.jobs.iter().map(|j| j.deadline_s).reduce(f64::min)
    }

    /// Atomically trades the running session for the tightest queued
    /// job, when queue pressure still warrants it under one queue
    /// lock: the session is parked (its open segment committed), the
    /// parked entry replaces the claimed job on the lane, and the
    /// claimed job comes back to the calling shard to serve next.
    ///
    /// The atomic claim is what keeps a pool of shards from reacting
    /// to the same single tight arrival in a thundering herd: once one
    /// shard exchanges, the arrival is gone from the queue, so every
    /// other shard's poll sees no pressure and keeps running. `Err`
    /// hands the session and context back untouched (no park, no
    /// transition charged) when pressure vanished between the poll and
    /// the lock.
    ///
    /// A successful exchange is a yield: the preemption is counted and
    /// this dispatch's `step_times` folded under the same lock. The
    /// session is stamped parked at `now_s` on the server clock.
    ///
    /// No wakeup is signalled: the lane's visible work count is
    /// unchanged (one job out, one parked session in).
    pub fn preempt_exchange(
        &self,
        mut session: InferenceSession,
        ctx: JobContext,
        policy: super::PreemptionPolicy,
        step_times: Option<&LogHistogram>,
        now_s: f64,
    ) -> Result<Popped, Box<(InferenceSession, JobContext)>> {
        let mut queue = self.queue.lock().expect("lane mutex");
        let best = Self::best(queue.jobs.iter().map(|j| (j.deadline_s, j.seq)));
        let Some((at, (deadline_s, _))) = best else {
            return Err(Box::new((session, ctx)));
        };
        let pressured = policy.should_preempt(ctx.deadline_s, deadline_s);
        if !pressured || !session.park() {
            return Err(Box::new((session, ctx)));
        }
        let job = queue.jobs.remove(at);
        queue.parked.push(ParkedJob {
            ctx,
            session,
            parked_s: now_s,
        });
        let depth = queue.parked.len();
        let stats = &mut queue.stats;
        stats.max_parked_depth = stats.max_parked_depth.max(depth);
        stats.preempted += 1;
        Self::fold_step_times(&mut queue, step_times);
        Ok(self.finish_pop(&mut queue, Work::Fresh(job)))
    }

    /// The completion yield: folds everything a finished sentence adds
    /// to the lane — its counters, and with telemetry on its queue
    /// delay, sojourn, energy and its last dispatch's `step_times` —
    /// under one hold of the lane lock. Called *before* the reply is
    /// sent, so a client holding its response finds it in
    /// [`Server::stats`](super::Server::stats).
    pub fn complete(&self, served: &ServerResponse, step_times: Option<&LogHistogram>) {
        let mut queue = self.queue.lock().expect("lane mutex");
        let stats = &mut queue.stats;
        stats.served += 1;
        stats.violations += u64::from(!served.deadline_met);
        stats.energy_j += served.energy_j;
        if served.degraded_notches > 0 {
            stats.degraded += 1;
            // Feeds the lane's observed degraded service estimate,
            // which the shed feasibility test prefers over the
            // pessimistic nominal one.
            queue.degraded_modeled_total_s += served.response.result.latency_s;
        }
        if let Some(h) = &mut queue.histograms {
            h.queue_delay_s.record(served.queue_delay_s);
            h.sojourn_s.record(served.sojourn_s);
            h.energy_per_request_j.record(served.energy_j);
        }
        Self::fold_step_times(&mut queue, step_times);
    }

    /// Merges one dispatch's per-step wall times into the lane's
    /// histogram (both `None` with telemetry off).
    fn fold_step_times(queue: &mut LaneQueue, step_times: Option<&LogHistogram>) {
        if let (Some(h), Some(step_times)) = (&mut queue.histograms, step_times) {
            h.step_time_s.merge(step_times);
        }
    }

    /// Picks the next unit of work across jobs and parked sessions by
    /// absolute deadline (ties to the earlier admission). A parked
    /// session and a fresh job compare under the same key, so resumes
    /// are EDF-ordered relative to everything waiting on the lane.
    // analyzer: hot-path
    pub(super) fn pop_work(queue: &mut LaneQueue) -> Option<Work> {
        let job_key = Self::best(queue.jobs.iter().map(|j| (j.deadline_s, j.seq)));
        let parked_key = Self::best(queue.parked.iter().map(|p| (p.ctx.deadline_s, p.ctx.seq)));
        match (job_key, parked_key) {
            (None, None) => None,
            (Some((at, _)), None) => Some(Work::Fresh(queue.jobs.remove(at))),
            (None, Some((at, _))) => Some(Self::resume_parked(queue, at)),
            (Some((jat, jkey)), Some((pat, pkey))) => {
                if pkey <= jkey {
                    Some(Self::resume_parked(queue, pat))
                } else {
                    Some(Work::Fresh(queue.jobs.remove(jat)))
                }
            }
        }
    }

    /// Takes the parked session at `at` off the lane to be resumed,
    /// counting the resume under the lock that removes it.
    // analyzer: hot-path
    fn resume_parked(queue: &mut LaneQueue, at: usize) -> Work {
        queue.stats.resumed += 1;
        // analyzer: allow(hot-path-alloc) reason="boxing a resumed ParkedJob is one pointer-sized allocation per park/resume cycle, amortized over a whole preempted sentence; keeping Work small keeps every fresh pop allocation-free"
        Work::Resume(Box::new(queue.parked.remove(at)))
    }

    /// The index and `(deadline, seq)` key of the earliest-deadline
    /// entry. Non-finite deadlines sort last (wire garbage must not
    /// poison the comparator).
    // analyzer: hot-path
    #[allow(
        clippy::type_complexity,
        reason = "the (index, (deadline, seq)) key is used at this one seam; a type alias would outlive it"
    )]
    fn best(keys: impl Iterator<Item = (f64, u64)>) -> Option<(usize, (f64, u64))> {
        keys.enumerate()
            .min_by(|(_, a), (_, b)| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::reply::{slot, ReplySlot};

    fn lane_with(deadlines: &[f64]) -> (Lane, Vec<ReplySlot>) {
        let cfg = ServerConfig {
            queue_capacity: deadlines.len(),
            ..ServerConfig::default()
        };
        let lane = Lane::new(Task::Sst2, &cfg, 10e-3, 50e-3, 1, None);
        let mut slots = Vec::new();
        {
            let mut queue = lane.queue.lock().expect("lane mutex");
            for (seq, &deadline_s) in deadlines.iter().enumerate() {
                let (reply, waiting) = slot();
                slots.push(waiting);
                queue.jobs.push(Job {
                    seq: seq as u64,
                    deadline_s,
                    enqueued_s: 0.0,
                    request: InferenceRequest::new(vec![seq as u32]),
                    reply,
                });
            }
        }
        (lane, slots)
    }

    fn pop_order(lane: &Lane) -> Vec<u64> {
        let mut queue = lane.queue.lock().expect("lane mutex");
        let mut order = Vec::new();
        while let Some(Work::Fresh(job)) = Lane::pop_work(&mut queue) {
            order.push(job.seq);
        }
        order
    }

    #[test]
    fn edf_pops_earliest_deadline_ties_to_admission_order() {
        let (lane, _rx) = lane_with(&[0.5, 0.1, 0.3, 0.1, 0.05]);
        assert_eq!(pop_order(&lane), vec![4, 1, 3, 2, 0]);
    }

    #[test]
    fn shed_estimate_uses_observed_degraded_mean_clamped_to_nominal() {
        let (lane, _rx) = lane_with(&[]);
        let mut queue = lane.queue.lock().expect("lane mutex");
        // No degraded serves yet: the pessimistic nominal estimate.
        assert_eq!(lane.shed_service_estimate_s(&queue), 10e-3);
        queue.stats.degraded = 4;
        queue.degraded_modeled_total_s = 8e-3; // 2 ms mean
        assert_eq!(lane.shed_service_estimate_s(&queue), 2e-3);
        // A noisy mean above nominal must not make the ladder shed
        // more than the class-agnostic rule would.
        queue.degraded_modeled_total_s = 200e-3; // 50 ms mean
        assert_eq!(lane.shed_service_estimate_s(&queue), 10e-3);
    }

    #[test]
    fn one_tight_arrival_preempts_one_of_two_running_sessions() {
        // `park` commits the open segment under the lane lock on purpose:
        // the park decision and the job swap are one step, so two shards
        // reacting to the same tight arrival cannot both yield to it.
        use crate::engine::EngineBuilder;
        use crate::predictor::{EntropyDataset, EntropyPredictor};
        use crate::session::SessionState;
        use edgebert_model::{AlbertConfig, AlbertModel};
        use edgebert_tensor::Rng;

        let model = AlbertModel::new(AlbertConfig::tiny(64, 2), &mut Rng::seed_from(1));
        let trajectories = vec![vec![0.5; model.num_layers()]];
        let lut = EntropyPredictor::train(&EntropyDataset { trajectories }, 1, 2).to_lut(2, 1.0);
        let engine = EngineBuilder::new(Arc::new(model), Arc::new(lut)).build();
        let (lane, _rx) = lane_with(&[0.01]);
        let policy = crate::server::PreemptionPolicy::DeadlineGap(0.0);
        let exchange = |seq: u64| {
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
            let session = engine.begin(&InferenceRequest::new(vec![1, 2, 3]));
            lane.preempt_exchange(session, ctx, policy, None, 0.0)
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

        let queue = lane.queue.lock().expect("lane mutex");
        assert_eq!(queue.stats.preempted, 1);
        assert_eq!(queue.parked.len(), 1);
        assert_eq!(queue.parked[0].ctx.seq, 10);
        assert_eq!(queue.parked[0].session.state(), SessionState::Parked);
        assert!(queue.jobs.is_empty());
    }

    #[test]
    fn attach_detach_track_extra_shards_and_resizes() {
        let (lane, _rx) = lane_with(&[]);
        {
            let mut queue = lane.queue.lock().expect("lane mutex");
            lane.attach(&mut queue);
            assert_eq!(queue.extra_shards, 1);
            assert_eq!(queue.stats.pool_resizes, 1);
        }
        lane.detach();
        let queue = lane.queue.lock().expect("lane mutex");
        assert_eq!(queue.extra_shards, 0);
        assert_eq!(queue.stats.pool_resizes, 2);
    }
}
