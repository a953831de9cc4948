//! Owned serving runtimes: one task or the paper's full multi-task
//! deployment behind a request/response interface.
//!
//! [`TaskRuntime`] packages what serving one GLUE task needs — the
//! optimized student model and predictor LUT behind
//! [`Arc`](std::sync::Arc)s, plus the per-tier threshold
//! calibrations — decoupled from the training-side
//! [`TaskArtifacts`] (datasets, sweep caches, training summaries) that
//! produced them. Engines minted from a
//! runtime are `Send + 'static`: build once, move into worker threads,
//! or pool them.
//!
//! [`MultiTaskRuntime`] routes requests across tasks. This is the
//! paper's §4 deployment: the embedding table is shared in eNVM while
//! each task carries its own encoder weights and calibrations, so one
//! accelerator serves MNLI, QQP, SST-2, and QNLI traffic — each request
//! under its own deadline and accuracy tier.

use crate::engine::{
    AggregateResult, EdgeBertEngine, EngineBuilder, InferenceMode, InferenceRequest,
    InferenceResponse,
};
use crate::pipeline::{Scale, TaskArtifacts};
use edgebert_hw::WorkloadParams;
use edgebert_model::AlbertModel;
use edgebert_tasks::{Dataset, Task};

/// An owned, thread-safe serving runtime for one task.
///
/// Holds the preloaded [`EngineBuilder`] (the single wiring point for
/// this task's model, LUT, calibrations, and optimized workload) plus
/// the default engine minted from it.
#[derive(Debug, Clone)]
pub struct TaskRuntime {
    task: Task,
    builder: EngineBuilder,
    engine: EdgeBertEngine,
}

// Runtimes are shared across request-serving threads.
const _: () = {
    const fn assert_send_sync<T: Send + Sync + 'static>() {}
    assert_send_sync::<TaskRuntime>();
    assert_send_sync::<MultiTaskRuntime>();
};

impl TaskRuntime {
    /// Builds a runtime from trained artifacts, sharing (not copying)
    /// the model and LUT, with the engine defaults of
    /// [`EngineBuilder::new`] on the task-optimized hardware workload.
    pub fn from_artifacts(artifacts: &TaskArtifacts) -> Self {
        let builder = artifacts
            .engine_builder()
            .workload(artifacts.hardware_workload(true));
        Self::from_builder(artifacts.task, builder)
    }

    /// Builds a runtime for `task` directly from a preloaded builder —
    /// the path for serving at a custom design point (accelerator,
    /// workload, eNVM cell, request defaults) without re-deriving
    /// artifacts.
    pub fn from_builder(task: Task, builder: EngineBuilder) -> Self {
        let engine = builder.clone().build();
        Self {
            task,
            builder,
            engine,
        }
    }

    /// The task this runtime serves.
    pub fn task(&self) -> Task {
        self.task
    }

    /// The default engine minted at construction.
    pub fn engine(&self) -> &EdgeBertEngine {
        &self.engine
    }

    /// The served model.
    pub fn model(&self) -> &AlbertModel {
        self.engine.model()
    }

    /// A builder preloaded with this runtime's model, LUT, calibrated
    /// thresholds, and the same task-optimized workload the default
    /// engine serves, for minting engines at other design points
    /// (deadline, accelerator, workload, eNVM cell).
    pub fn builder(&self) -> EngineBuilder {
        self.builder.clone()
    }

    /// The hardware workload actually wired into this runtime's builder
    /// — the shapes its engines cost against. A runtime assembled at a
    /// custom design point reports that point, not the task defaults;
    /// for the published defaults use
    /// [`task_hardware_workload`](crate::engine::task_hardware_workload).
    pub fn hardware_workload(&self) -> &WorkloadParams {
        self.builder.workload_params()
    }

    /// Serves one request on the default engine.
    pub fn serve(&self, request: &InferenceRequest) -> InferenceResponse {
        self.engine.serve(request)
    }

    /// Serves a batch of requests across worker threads, preserving
    /// order.
    pub fn serve_batch(&self, requests: &[InferenceRequest]) -> Vec<InferenceResponse> {
        self.engine.serve_batch(requests)
    }

    /// Evaluates a dataset on the default engine (multi-threaded; see
    /// [`EdgeBertEngine::evaluate`]).
    pub fn evaluate(&self, data: &Dataset, mode: InferenceMode) -> AggregateResult {
        self.engine.evaluate(data, mode)
    }
}

/// A routing failure from the multi-task runtime: the typed form of
/// the old `Option`-returning `serve`/`serve_batch` contract, so
/// serving front-ends surface *why* a request went unserved instead of
/// silently dropping it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeError {
    /// The request routed to a task no runtime is loaded for.
    TaskNotServed(Task),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::TaskNotServed(task) => {
                write!(f, "task {task} is not served by this runtime")
            }
        }
    }
}

impl std::error::Error for ServeError {}

/// A runtime serving all tasks of the paper's multi-task scenario,
/// routing each request to its task's engine.
#[derive(Debug, Clone, Default)]
pub struct MultiTaskRuntime {
    runtimes: Vec<TaskRuntime>,
}

impl MultiTaskRuntime {
    /// Assembles a runtime from per-task runtimes. A later runtime for
    /// the same task replaces an earlier one.
    pub fn from_runtimes(runtimes: impl IntoIterator<Item = TaskRuntime>) -> Self {
        let mut out = Self {
            runtimes: Vec::new(),
        };
        for rt in runtimes {
            out.insert(rt);
        }
        out
    }

    /// Trains artifacts for all four GLUE tasks at `scale` and wraps
    /// them into a runtime. The four trainings are independent, so they
    /// fan out across worker threads (one per task). This is the
    /// expensive paper-reproduction path; serving-only deployments
    /// assemble from prebuilt runtimes via
    /// [`from_runtimes`](Self::from_runtimes).
    pub fn build(scale: Scale, seed: u64) -> Self {
        let jobs: Vec<(usize, Task)> = Task::all().into_iter().enumerate().collect();
        Self::from_runtimes(crate::engine::run_chunked(
            &jobs,
            jobs.len(),
            |&(i, task)| {
                TaskRuntime::from_artifacts(&TaskArtifacts::build(task, scale, seed + i as u64))
            },
        ))
    }

    /// Adds (or replaces) one task's runtime.
    pub fn insert(&mut self, runtime: TaskRuntime) {
        match self
            .runtimes
            .iter_mut()
            .find(|r| r.task() == runtime.task())
        {
            Some(slot) => *slot = runtime,
            None => self.runtimes.push(runtime),
        }
    }

    /// The tasks currently served.
    pub fn tasks(&self) -> Vec<Task> {
        self.runtimes.iter().map(TaskRuntime::task).collect()
    }

    /// The runtime for one task, if served.
    pub fn runtime(&self, task: Task) -> Option<&TaskRuntime> {
        self.runtimes.iter().find(|r| r.task() == task)
    }

    /// Routes one request to its task's engine, or reports the routing
    /// failure as a typed [`ServeError`].
    pub fn try_serve(
        &self,
        task: Task,
        request: &InferenceRequest,
    ) -> Result<InferenceResponse, ServeError> {
        self.runtime(task)
            .map(|rt| rt.serve(request))
            .ok_or(ServeError::TaskNotServed(task))
    }

    /// Serves a mixed-task batch, preserving order. Entries whose task
    /// is not served come back as `Err(ServeError::TaskNotServed)`.
    ///
    /// Each served task's requests go through its runtime's parallel
    /// [`serve_batch`](TaskRuntime::serve_batch) and land back in their
    /// submission slots. Per-request responses are bit-identical to
    /// [`try_serve`](Self::try_serve); for arrival times, queueing-delay
    /// accounting, and EDF-vs-FIFO policy control, drive a
    /// [`DeadlineScheduler`](crate::scheduler::DeadlineScheduler) — and
    /// for wall-clock concurrent serving, [`Server`](crate::server::Server).
    pub fn try_serve_batch(
        &self,
        requests: &[(Task, InferenceRequest)],
    ) -> Vec<Result<InferenceResponse, ServeError>> {
        let mut out: Vec<Result<InferenceResponse, ServeError>> = requests
            .iter()
            .map(|(task, _)| Err(ServeError::TaskNotServed(*task)))
            .collect();
        for rt in &self.runtimes {
            let (slots, batch): (Vec<usize>, Vec<InferenceRequest>) = requests
                .iter()
                .enumerate()
                .filter(|(_, (task, _))| *task == rt.task())
                .map(|(slot, (_, request))| (slot, request.clone()))
                .unzip();
            for (slot, response) in slots.into_iter().zip(rt.serve_batch(&batch)) {
                out[slot] = Ok(response);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{DropTarget, EntropyThresholds};

    fn artifacts(task: Task, seed: u64) -> TaskArtifacts {
        TaskArtifacts::build(task, Scale::Test, seed)
    }

    #[test]
    fn task_runtime_serves_with_calibrated_tiers() {
        let art = artifacts(Task::Sst2, 0x5E41);
        let rt = TaskRuntime::from_artifacts(&art);
        assert_eq!(rt.task(), Task::Sst2);
        // The engine carries the pipeline's calibrations tier by tier.
        for tier in DropTarget::all() {
            let th = rt.engine().thresholds(tier);
            assert_eq!(
                th,
                EntropyThresholds {
                    conventional: art.calib_conv[tier.index()].entropy_threshold,
                    latency_aware: art.calib_lai[tier.index()].entropy_threshold,
                }
            );
        }
        let ex = &art.dev.examples()[0];
        let resp = rt.serve(&InferenceRequest::new(ex.tokens.clone()));
        assert!(resp.result.energy_j > 0.0);
        assert!(resp.result.exit_layer >= 1);
    }

    #[test]
    fn multi_task_runtime_routes_by_task() {
        let sst = TaskRuntime::from_artifacts(&artifacts(Task::Sst2, 0x5E42));
        let qnli = TaskRuntime::from_artifacts(&artifacts(Task::Qnli, 0x5E43));
        let sst_tokens = {
            let gen =
                edgebert_tasks::TaskGenerator::standard(Task::Sst2, sst.model().config.max_seq_len);
            gen.generate(1, 9).examples()[0].tokens.clone()
        };
        let mt = MultiTaskRuntime::from_runtimes([sst, qnli]);
        assert_eq!(mt.tasks(), vec![Task::Sst2, Task::Qnli]);

        let req = InferenceRequest::new(sst_tokens);
        let ok = mt.try_serve(Task::Sst2, &req);
        assert!(ok.is_ok());
        // Unserved task: the routing failure is typed, not a silent drop.
        assert_eq!(
            mt.try_serve(Task::Mnli, &req),
            Err(ServeError::TaskNotServed(Task::Mnli))
        );

        // Mixed batch preserves order and flags unserved tasks.
        let batch = [
            (Task::Sst2, req.clone()),
            (Task::Mnli, req.clone()),
            (Task::Qnli, req.clone()),
        ];
        let out = mt.try_serve_batch(&batch);
        assert_eq!(out.len(), 3);
        assert!(out[0].is_ok());
        assert_eq!(out[1], Err(ServeError::TaskNotServed(Task::Mnli)));
        assert!(out[2].is_ok());
        // Routing in a batch matches routing one by one.
        assert_eq!(out[0], mt.try_serve(Task::Sst2, &batch[0].1));
    }

    #[test]
    fn hardware_workload_reports_the_wired_workload() {
        // Regression: `hardware_workload` used to recompute the task
        // defaults, so a runtime built at a custom design point
        // misreported the shapes its engines actually cost against.
        let art = artifacts(Task::Sst2, 0x5E45);
        let rt = TaskRuntime::from_artifacts(&art);
        assert_eq!(rt.hardware_workload(), &art.hardware_workload(true));

        let mut custom = art.hardware_workload(false);
        custom.seq_len = 32;
        custom.weight_density = 0.125;
        let custom_rt =
            TaskRuntime::from_builder(Task::Sst2, rt.builder().workload(custom.clone()));
        assert_eq!(custom_rt.hardware_workload(), &custom);
        // And the reported workload is the one the engine was built on:
        // a sparser workload costs strictly less per layer.
        assert!(
            custom_rt.engine().layer_cycles() < rt.engine().layer_cycles(),
            "custom {} vs default {}",
            custom_rt.engine().layer_cycles(),
            rt.engine().layer_cycles(),
        );
    }

    #[test]
    fn runtime_builder_mints_custom_engines() {
        let art = artifacts(Task::Sst2, 0x5E44);
        let rt = TaskRuntime::from_artifacts(&art);
        let strict = rt.builder().latency_target(5e-3).build();
        let relaxed = rt.builder().latency_target(500e-3).build();
        let tokens = &art.dev.examples()[0].tokens;
        let s = strict.run(tokens, InferenceMode::LatencyAware);
        let r = relaxed.run(tokens, InferenceMode::LatencyAware);
        // Same calibrations, different deadlines: the relaxed engine
        // never needs a higher voltage.
        assert!(r.voltage <= s.voltage + 1e-6);
    }
}
