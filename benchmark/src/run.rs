//! Set-up, the block loop, and the checks built into every run.

use crate::alloc;
use crate::calib::HostClock;
use crate::load::{input_digest, Class, LoadGen, Req, ServiceTimes, DIGEST_BLOCKS, PLATEAUS};
use crate::served::{build_runtime, expected_exit_layer, model_of, task_runtime, TASKS};
use crate::stats::percentile_of;
use crate::trace::Tracer;
use crate::workloads::{BlockRun, Driver, Front, Outcome, Workload};
use edgebert::MultiTaskRuntime;
use edgebert_tasks::Task;
use std::collections::HashSet;
use std::time::Instant;

/// Times the served deployment is set up in a run; the median is the
/// run's `setup_s`.
pub const SETUP_REPEATS: usize = 3;

/// Requests of block 0 whose responses are compared with a direct
/// `TaskRuntime::serve` of the same request.
pub const CHECK_SAMPLE: usize = 256;

/// A ready deployment: the trained runtime and the workload's front end.
pub struct Deployment {
    /// Both tasks' runtimes.
    pub runtime: MultiTaskRuntime,
    /// The server or scheduler the workload drives.
    pub front: Front,
}

/// Builds the model and starts the front end `repeats` times (model
/// build through first ready server or scheduler), keeping the last
/// deployment. Returns each repeat's calibrated wall time, seconds.
pub fn set_up(
    driver: Driver,
    block_requests: usize,
    repeats: usize,
    clock: &mut HostClock,
) -> (Deployment, Vec<f64>) {
    // Both tasks train at once: the CPUs are busy without help.
    clock.load_siblings(false);
    let mut times = Vec::with_capacity(repeats);
    let mut kept = None;
    for _ in 0..repeats.max(1) {
        if let Some(Deployment { front, .. }) = kept.take() {
            Front::shutdown(front);
        }
        let (deployment, seconds) = clock.time(|| {
            let runtime = build_runtime();
            let front = Front::start(&runtime, driver, block_requests);
            Deployment { runtime, front }
        });
        times.push(seconds);
        kept = Some(deployment);
    }
    (kept.expect("at least one set-up"), times)
}

/// The request source of `workload` at `scale` for `seed`.
pub fn load_gen(workload: &Workload, seed: u64, scale: f64, runtime: &MultiTaskRuntime) -> LoadGen {
    LoadGen::new(
        workload.name,
        seed,
        workload.deep_share,
        workload.block_at(scale),
        ServiceTimes::of(runtime),
    )
}

/// Modeled (host-independent) numbers of a set of drained or served
/// requests. Over a scheduler drain they repeat bit for bit.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Modeled {
    /// Responses folded in.
    pub requests: u64,
    /// Sum of exit layers.
    pub layers: u64,
    /// Sum of modeled energy, joules.
    pub energy_j: f64,
    /// Tight-class responses.
    pub tight: u64,
    /// Tight-class responses whose sojourn missed the target.
    pub tight_violations: u64,
    /// Tight-class sojourns, seconds.
    pub tight_sojourn_s: Vec<f64>,
    /// Queueing delays, seconds.
    pub queue_delay_s: Vec<f64>,
    /// Per utilisation plateau: responses, violations, energy (joules).
    pub plateaus: [(u64, u64, f64); PLATEAUS.len()],
}

impl Modeled {
    /// Folds one block's responses in.
    pub fn fold(&mut self, block: &[Req], run: &BlockRun) {
        for (offset, (req, outcome)) in block.iter().zip(&run.outcomes).enumerate() {
            let Some(o) = outcome else { continue };
            self.requests += 1;
            self.layers += o.exit_layer as u64;
            self.energy_j += o.energy_j;
            self.queue_delay_s.push(o.queue_delay_s);
            if req.class == Class::Tight {
                self.tight += 1;
                self.tight_violations += u64::from(!o.deadline_met);
                self.tight_sojourn_s.push(o.sojourn_s);
            }
            let plateau = &mut self.plateaus[Req::plateau(offset, block.len())];
            plateau.0 += 1;
            plateau.1 += u64::from(!o.deadline_met);
            plateau.2 += o.energy_j;
        }
    }

    /// Mean modeled energy per sentence, microjoules.
    pub fn energy_per_sentence_uj(&self) -> f64 {
        self.energy_j * 1e6 / self.requests.max(1) as f64
    }

    /// Mean exit layer.
    pub fn layers_per_sentence(&self) -> f64 {
        self.layers as f64 / self.requests.max(1) as f64
    }

    /// Share of tight-class responses that missed their target.
    pub fn tight_violation_share(&self) -> f64 {
        self.tight_violations as f64 / self.tight.max(1) as f64
    }

    /// 99th percentile of the tight-class sojourn, milliseconds.
    pub fn tight_sojourn_p99_ms(&self) -> f64 {
        percentile_of(&self.tight_sojourn_s, 99.0) * 1e3
    }

    /// Median queueing delay, seconds.
    pub fn queue_delay_p50_s(&self) -> f64 {
        percentile_of(&self.queue_delay_s, 50.0)
    }

    /// Violation share of all classes on plateau `i`.
    pub fn plateau_violation_share(&self, i: usize) -> f64 {
        self.plateaus[i].1 as f64 / self.plateaus[i].0.max(1) as f64
    }

    /// Mean energy per sentence on plateau `i`, microjoules.
    pub fn plateau_energy_uj(&self, i: usize) -> f64 {
        self.plateaus[i].2 * 1e6 / self.plateaus[i].0.max(1) as f64
    }
}

/// What a direct `TaskRuntime::serve` answers for each request.
fn reference(runtime: &MultiTaskRuntime, requests: &[Req]) -> Vec<(usize, usize)> {
    requests
        .iter()
        .map(|req| {
            let result = task_runtime(runtime, req.task).serve(&req.request).result;
            (result.exit_layer, result.prediction)
        })
        .collect()
}

/// Outcomes that differ in any bit between two runs of one block.
fn differing_outcomes(a: &BlockRun, b: &BlockRun) -> u64 {
    let bits = |o: &Option<Outcome>| {
        o.map(|o| {
            (
                o.exit_layer,
                o.prediction,
                o.energy_j.to_bits(),
                o.deadline_met,
                o.sojourn_s.to_bits(),
                o.queue_delay_s.to_bits(),
            )
        })
    };
    let differing = a
        .outcomes
        .iter()
        .zip(&b.outcomes)
        .filter(|(x, y)| bits(x) != bits(y))
        .count();
    (differing + a.outcomes.len().abs_diff(b.outcomes.len())) as u64
}

/// The per-block values of a run and its running checks.
pub struct Runner<'a> {
    workload: &'a Workload,
    gen: &'a LoadGen,
    deployment: &'a mut Deployment,
    num_layers: usize,
    next_block: u64,
    seen: HashSet<(Task, u64)>,
    first_blocks: Vec<Vec<Req>>,
    clock: &'a mut HostClock,
    /// The host's speed factor over each block. The three per-block
    /// timings below are calibrated by it.
    pub host_speed: Vec<f64>,
    /// Completed requests per host second ([`BlockRun::rate_rps`]), one
    /// per block.
    pub throughput_rps: Vec<f64>,
    /// Median request latency ([`BlockRun::latency_p50_us`]),
    /// microseconds, one per block.
    pub latency_p50_us: Vec<f64>,
    /// Every request latency of the untraced blocks, microseconds (the
    /// tail percentile is taken over the run: a block is too short to
    /// have a tail).
    pub untraced_latencies_us: Vec<f64>,
    /// Requests submitted.
    pub attempted: u64,
    /// Requests refused, lost, or answered wrongly.
    pub failed: u64,
    /// Modeled numbers over the first [`DIGEST_BLOCKS`] blocks.
    pub modeled: Modeled,
    /// Host time spent generating requests, seconds.
    pub generate_s: f64,
    /// Over the untraced blocks: requests, allocator calls and bytes
    /// requested while they were in the front end (all threads but the
    /// calibration helpers). The last two stay zero unless the counting
    /// allocator is installed.
    pub untraced_allocs: (u64, u64, u64),
}

impl<'a> Runner<'a> {
    /// A runner over `deployment` for `workload`'s stream `gen`, timing
    /// against `clock`.
    pub fn new(
        workload: &'a Workload,
        gen: &'a LoadGen,
        deployment: &'a mut Deployment,
        clock: &'a mut HostClock,
    ) -> Self {
        let num_layers = model_of(&deployment.runtime, TASKS[0]).num_layers();
        clock.load_siblings(workload.driver.is_single_threaded());
        Self {
            workload,
            gen,
            deployment,
            num_layers,
            next_block: 0,
            seen: HashSet::new(),
            first_blocks: Vec::new(),
            clock,
            host_speed: Vec::new(),
            throughput_rps: Vec::new(),
            latency_p50_us: Vec::new(),
            untraced_latencies_us: Vec::new(),
            attempted: 0,
            failed: 0,
            modeled: Modeled::default(),
            generate_s: 0.0,
            untraced_allocs: (0, 0, 0),
        }
    }

    /// Blocks run so far.
    pub fn blocks(&self) -> usize {
        self.throughput_rps.len()
    }

    /// The deployment's runtime.
    pub fn runtime(&self) -> &MultiTaskRuntime {
        &self.deployment.runtime
    }

    fn generate(&mut self, index: u64) -> Vec<Req> {
        let start = Instant::now();
        let block = self.gen.block(index);
        self.generate_s += start.elapsed().as_secs_f64();
        block
    }

    /// Before any timing: answers the head of block 0 directly and
    /// through the front end and compares the two (which also lets
    /// caches fill and lazy set-up finish). On the scheduler the head is
    /// drained twice and must repeat in every modeled bit.
    pub fn warm_up_and_check(&mut self) {
        let mut head = self.generate(0);
        head.truncate(CHECK_SAMPLE);
        let expected = reference(&self.deployment.runtime, &head);
        let driver = self.workload.driver;
        let mut tracer = Tracer::disabled();
        let run = self.deployment.front.run_block(driver, &head, &mut tracer);
        self.attempted += head.len() as u64;
        for (outcome, want) in run.outcomes.iter().zip(&expected) {
            let got = outcome.map(|o| (o.exit_layer, o.prediction));
            self.failed += u64::from(got != Some(*want));
        }
        if driver == Driver::Drain {
            let again = self.deployment.front.run_block(driver, &head, &mut tracer);
            self.failed += differing_outcomes(&run, &again);
        }
        // Opens the first block's calibration interval.
        self.clock.sample();
    }

    /// Generates the next block (untimed), pushes it through the front
    /// end, and records its values and checks.
    pub fn step(&mut self, tracer: &mut Tracer) -> BlockRun {
        let index = self.next_block;
        self.next_block += 1;
        let block = self.generate(index);
        let driver = self.workload.driver;
        let front = &mut self.deployment.front;
        let from_s = self.clock.now_s();
        let (run, calls, bytes) = alloc::during(|| front.run_block(driver, &block, tracer));
        let to_s = self.clock.now_s();
        // One sample after each block: it closes this block's interval
        // and opens the next one's.
        self.clock.sample();
        let speed = self.clock.factor_over(from_s, to_s);
        if !tracer.is_enabled() {
            self.untraced_allocs.0 += block.len() as u64;
            self.untraced_allocs.1 += calls;
            self.untraced_allocs.2 += bytes;
        }

        self.attempted += block.len() as u64;
        for (req, outcome) in block.iter().zip(&run.outcomes) {
            let ok = outcome.is_some_and(|o| {
                o.exit_layer == expected_exit_layer(req.tier, self.num_layers)
                    // Exactly one response per submission: a lane never
                    // hands the same admission number out twice.
                    && o.submission.is_none_or(|s| self.seen.insert((req.task, s)))
            });
            self.failed += u64::from(!ok);
        }

        if !run.latencies_us.is_empty() {
            self.host_speed.push(speed);
            self.throughput_rps.push(run.rate_rps * speed);
            self.latency_p50_us.push(run.latency_p50_us / speed);
            if !tracer.is_enabled() {
                self.untraced_latencies_us
                    .extend(run.latencies_us.iter().map(|us| us / speed));
            }
        }
        if (index as usize) < DIGEST_BLOCKS {
            self.modeled.fold(&block, &run);
            self.first_blocks.push(block);
        }
        run
    }

    /// Runs blocks for `seconds`, and at least [`DIGEST_BLOCKS`].
    pub fn run_for(&mut self, seconds: f64, tracer: &mut Tracer) {
        let start = Instant::now();
        while self.blocks() < DIGEST_BLOCKS || start.elapsed().as_secs_f64() < seconds {
            self.step(tracer);
        }
    }

    /// Hash over the first [`DIGEST_BLOCKS`] blocks' requests.
    pub fn input_digest(&self) -> u64 {
        input_digest(&self.first_blocks)
    }

    /// The first block's requests (the traced pass replays a sample of
    /// them through every layer).
    pub fn first_block(&self) -> &[Req] {
        self.first_blocks.first().map_or(&[], Vec::as_slice)
    }
}

/// Peak resident set size of this process so far, MiB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}
