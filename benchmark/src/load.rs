//! Request streams: every workload's inputs, made from `--seed`.
//!
//! A run is a sequence of equal **blocks**. Block `i` of a workload is a
//! pure function of `(seed, workload name, i)`, so a run that fits more
//! blocks into its time sees the same first blocks, and the
//! `input_digest` (taken over the first [`DIGEST_BLOCKS`], which every
//! run measures) does not depend on how fast the host is.
//!
//! Every request carries everything any driver needs — task, tokens,
//! depth tier, deadline class and target, and an arrival time on the
//! virtual clock — so the traced pass can send a workload's own
//! requests through every layer, including the ones its own driver
//! does not use.

use crate::rng::{Digest, SplitMix64};
use crate::served::{sentence_generator, task_runtime, DEEP, SHALLOW, TASKS};
use edgebert::{DropTarget, EdgeBertEngine, InferenceRequest, MultiTaskRuntime};
use edgebert_tasks::{Task, TaskGenerator};

/// Blocks every run measures, whatever the host's speed: the digest
/// and the modeled (bit-exact) metrics are taken over these.
pub const DIGEST_BLOCKS: usize = 5;

/// Utilisation plateaus of the virtual arrival process, in order; each
/// covers an equal share of a block's requests.
pub const PLATEAUS: [f64; 3] = [0.4, 0.7, 1.0];

/// Tight-class target as a multiple of the nominal full-depth service
/// (about 40 ms on the modeled accelerator, so 60 ms: the paper's own
/// targets run from 50 to 100 ms).
///
/// Frozen once, so that on the commit that defined the benchmark the
/// `sched_drain` tight-class violation share sits inside 0..1 (a metric
/// pinned at 0 or 1 cannot move): about 0.5 overall, 0.15 on the first
/// plateau and 0.8 on the last. Looser targets do not lower it: DVFS
/// stretches a deep sentence into whatever slack it is given, so the
/// one accelerator is busy for about the target per deep sentence
/// whatever the target is.
pub const TIGHT_TARGET_X: f64 = 1.5;
/// Relaxed-class target as a multiple of the nominal full-depth service
/// (80 ms).
pub const RELAXED_TARGET_X: f64 = 2.0;

/// Deadline class of a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// One third of the requests, target [`TIGHT_TARGET_X`] × nominal.
    Tight,
    /// Two thirds, target [`RELAXED_TARGET_X`] × nominal.
    Relaxed,
}

/// One generated request.
#[derive(Debug, Clone)]
pub struct Req {
    /// Position in the run's stream (block index × block size + offset).
    pub id: u64,
    /// Task lane it routes to.
    pub task: Task,
    /// Depth tier: [`DEEP`] or [`SHALLOW`].
    pub tier: DropTarget,
    /// Deadline class.
    pub class: Class,
    /// Arrival on the block's virtual clock, seconds.
    pub arrival_s: f64,
    /// The request as submitted (tokens, tier, latency target).
    pub request: InferenceRequest,
}

impl Req {
    /// Which of the [`PLATEAUS`] a request at `offset` of a block of
    /// `block_len` falls in.
    pub fn plateau(offset: usize, block_len: usize) -> usize {
        (offset * PLATEAUS.len() / block_len.max(1)).min(PLATEAUS.len() - 1)
    }
}

/// Nominal-V/F service time of a sentence that runs `layers` layers:
/// [`EdgeBertEngine::nominal_service_estimate_s`] with the depth made a
/// parameter.
pub fn nominal_service_s(engine: &EdgeBertEngine, layers: usize) -> f64 {
    let b = engine.backend();
    b.sentence_overhead().seconds
        + b.wake_transition_s()
        + b.embedding_read_cost().seconds
        + b.run_layers_nominal(layers).seconds
        + b.floor_transition_s()
}

/// Nominal service times of the served deployment, mean over tasks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServiceTimes {
    /// A sentence that runs every layer, seconds.
    pub full_s: f64,
    /// A sentence that exits after layer 1, seconds.
    pub one_layer_s: f64,
}

impl ServiceTimes {
    /// Reads both from the engines of `runtime`.
    pub fn of(runtime: &MultiTaskRuntime) -> Self {
        let mean_over_tasks = |layers: Option<usize>| {
            TASKS
                .iter()
                .map(|&task| {
                    let engine = task_runtime(runtime, task).engine();
                    nominal_service_s(engine, layers.unwrap_or(engine.model().num_layers()))
                })
                .sum::<f64>()
                / TASKS.len() as f64
        };
        Self {
            full_s: mean_over_tasks(None),
            one_layer_s: mean_over_tasks(Some(1)),
        }
    }
}

/// A workload's request source.
#[derive(Debug, Clone)]
pub struct LoadGen {
    name: &'static str,
    seed: u64,
    deep_share: f64,
    block_requests: usize,
    generators: [TaskGenerator; 2],
    tight_target_s: f64,
    relaxed_target_s: f64,
    /// Mean nominal service of this depth mix: the virtual
    /// accelerator's capacity is its inverse.
    mean_service_s: f64,
}

impl LoadGen {
    /// A source for the workload `name`: `deep_share` of each block runs
    /// every layer, the rest exits after layer 1.
    pub fn new(
        name: &'static str,
        seed: u64,
        deep_share: f64,
        block_requests: usize,
        service: ServiceTimes,
    ) -> Self {
        assert!(block_requests >= 3, "a block needs a request per plateau");
        let full = service.full_s;
        Self {
            name,
            seed,
            deep_share,
            block_requests,
            generators: TASKS.map(sentence_generator),
            tight_target_s: TIGHT_TARGET_X * full,
            relaxed_target_s: RELAXED_TARGET_X * full,
            mean_service_s: deep_share * full + (1.0 - deep_share) * service.one_layer_s,
        }
    }

    /// Block `index` of the stream.
    pub fn block(&self, index: u64) -> Vec<Req> {
        let n = self.block_requests;
        let mut rng = SplitMix64::stream(self.seed, self.name, index);

        // Exact shares, seeded order: the depth and class mix of a block
        // does not wander with the seed, only its arrangement does.
        let deep = (self.deep_share * n as f64).round() as usize;
        let mut tiers: Vec<DropTarget> = (0..n)
            .map(|i| if i < deep { DEEP } else { SHALLOW })
            .collect();
        rng.shuffle(&mut tiers);
        let mut classes: Vec<Class> = (0..n)
            .map(|i| {
                if i < n / 3 {
                    Class::Tight
                } else {
                    Class::Relaxed
                }
            })
            .collect();
        rng.shuffle(&mut classes);

        let mut sentences = edgebert_tensor::Rng::seed_from(rng.next_u64());
        let mut clock_s = 0.0;
        (0..n)
            .map(|offset| {
                let utilisation = PLATEAUS[Req::plateau(offset, n)];
                clock_s += rng.exponential(self.mean_service_s / utilisation);
                let lane = offset % TASKS.len();
                let (tier, class) = (tiers[offset], classes[offset]);
                let target_s = match class {
                    Class::Tight => self.tight_target_s,
                    Class::Relaxed => self.relaxed_target_s,
                };
                let tokens = self.generators[lane].generate_one(&mut sentences).tokens;
                Req {
                    id: index * n as u64 + offset as u64,
                    task: TASKS[lane],
                    tier,
                    class,
                    arrival_s: clock_s,
                    request: InferenceRequest::new(tokens)
                        .with_drop_target(tier)
                        .with_latency_target(target_s),
                }
            })
            .collect()
    }
}

/// Hash over every generated request and arrival time of `blocks`.
pub fn input_digest(blocks: &[Vec<Req>]) -> u64 {
    let mut digest = Digest::new();
    for req in blocks.iter().flatten() {
        digest.write_u64(req.id);
        digest.write_bytes(req.task.name().as_bytes());
        digest.write_u64(req.tier.index() as u64);
        digest.write_u64(req.class as u64);
        digest.write_f64(req.arrival_s);
        digest.write_f64(req.request.latency_target_s.unwrap_or(f64::NAN));
        for &token in &req.request.tokens {
            digest.write_u64(token as u64);
        }
    }
    digest.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    const SERVICE: ServiceTimes = ServiceTimes {
        full_s: 40e-3,
        one_layer_s: 8e-3,
    };

    fn digest_of(seed: u64, name: &'static str) -> u64 {
        let gen = LoadGen::new(name, seed, 0.2, 60, SERVICE);
        let blocks: Vec<Vec<Req>> = (0..2).map(|i| gen.block(i)).collect();
        input_digest(&blocks)
    }

    #[test]
    fn same_seed_same_digest_and_another_seed_another() {
        assert_eq!(digest_of(11, "mixed"), digest_of(11, "mixed"));
        assert_ne!(digest_of(11, "mixed"), digest_of(12, "mixed"));
        assert_ne!(digest_of(11, "mixed"), digest_of(11, "other"));
    }

    #[test]
    fn a_block_has_exact_shares_and_rising_arrivals() {
        let gen = LoadGen::new("mixed", 3, 0.2, 60, SERVICE);
        let block = gen.block(4);
        assert_eq!(block.len(), 60);
        assert_eq!(block.iter().filter(|r| r.tier == DEEP).count(), 12);
        assert_eq!(block.iter().filter(|r| r.class == Class::Tight).count(), 20);
        assert_eq!(block.iter().filter(|r| r.task == TASKS[0]).count(), 30);
        assert_eq!(block[0].id, 240);
        assert!(block.windows(2).all(|w| w[0].arrival_s < w[1].arrival_s));
        for req in &block {
            assert_eq!(req.request.drop_target, Some(req.tier));
            let target = req
                .request
                .latency_target_s
                .expect("every request has a target");
            let x = match req.class {
                Class::Tight => TIGHT_TARGET_X,
                Class::Relaxed => RELAXED_TARGET_X,
            };
            assert_eq!(target, x * SERVICE.full_s);
        }
    }

    #[test]
    fn plateaus_split_a_block_in_thirds_and_load_rises() {
        assert_eq!(Req::plateau(0, 60), 0);
        assert_eq!(Req::plateau(19, 60), 0);
        assert_eq!(Req::plateau(20, 60), 1);
        assert_eq!(Req::plateau(59, 60), 2);
        // Mean gap shrinks from the 0.4 plateau to the 1.0 plateau.
        let gen = LoadGen::new("deep", 5, 1.0, 3000, SERVICE);
        let block = gen.block(0);
        let span = |lo: usize, hi: usize| block[hi].arrival_s - block[lo].arrival_s;
        assert!(span(0, 999) > 2.0 * span(2000, 2999));
    }
}
