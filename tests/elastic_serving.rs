//! Integration tests for elastic serving: work-stealing migration of
//! parked sessions across lanes, pressure-driven autoscaling of shard
//! pools, and the contract that a disabled elastic config leaves the
//! server indistinguishable from a static pool (zero counters).

use edgebert::calibrate::SweepCache;
use edgebert::engine::{EngineBuilder, EntropyThresholds, InferenceRequest};
use edgebert::predictor::EntropyPredictor;
use edgebert::serving::{MultiTaskRuntime, TaskRuntime};
use edgebert::{ElasticConfig, PreemptionPolicy, Server, ServerConfig};
use edgebert_model::{AlbertConfig, AlbertModel};
use edgebert_tasks::{Task, TaskGenerator, VocabLayout};
use edgebert_tensor::Rng;
use std::sync::{Arc, OnceLock};
use std::time::Duration;

struct Fixture {
    runtime: MultiTaskRuntime,
    tokens: Vec<u32>,
}

fn task_runtime(task: Task, seed: u64) -> (TaskRuntime, Vec<u32>) {
    let layout = VocabLayout::standard();
    let cfg = AlbertConfig::tiny(layout.vocab_size(), 2);
    let mut rng = Rng::seed_from(seed);
    let model = AlbertModel::pretrained(cfg, &layout, &mut rng);
    let gen = TaskGenerator::standard(task, cfg.max_seq_len);
    let data = gen.generate(12, 9);
    let cache = SweepCache::build(&model, &data);
    let pred = EntropyPredictor::train(&cache.entropy_dataset(), 40, 3);
    let lut = pred.to_lut(32, 1.1);
    let tokens = data.examples()[0].tokens.clone();
    // Strict thresholds: no early exit, so sessions run full depth and
    // every layer boundary is a live preemption point.
    let builder = EngineBuilder::new(Arc::new(model), Arc::new(lut))
        .uniform_thresholds(EntropyThresholds::uniform(0.0))
        .latency_target(60e-3);
    (TaskRuntime::from_builder(task, builder), tokens)
}

/// Two served tasks: a hot SST-2 lane and an idle QNLI lane whose
/// shard is free to roam.
fn fixture() -> &'static Fixture {
    static CELL: OnceLock<Fixture> = OnceLock::new();
    CELL.get_or_init(|| {
        let (sst2, tokens) = task_runtime(Task::Sst2, 41);
        let (qnli, _) = task_runtime(Task::Qnli, 43);
        Fixture {
            runtime: MultiTaskRuntime::from_runtimes([sst2, qnli]),
            tokens,
        }
    })
}

/// A preemptive, service-time-emulating config: shards are genuinely
/// busy for the modeled latency, so parked sessions sit on the lane
/// long enough for an idle foreign shard to take them.
fn preemptive_config(elastic: Option<ElasticConfig>) -> ServerConfig {
    ServerConfig {
        emulate_service_time: true,
        preemption: PreemptionPolicy::DeadlineGap(0.0),
        elastic,
        ..ServerConfig::default()
    }
}

#[test]
fn idle_foreign_shards_steal_parked_sessions() {
    let f = fixture();
    let server = Server::start(
        &f.runtime,
        preemptive_config(Some(ElasticConfig {
            work_stealing: true,
            // Stealing only: the idle shard must not grab the tight
            // *fresh* job, just the parked session.
            autoscale: false,
            ..ElasticConfig::default()
        })),
    );
    // A loose sentence stretches its compute across a 400 ms budget;
    // once it is mid-flight, a tight arrival preempts it at a layer
    // boundary. The home shard serves the tight job, and the QNLI
    // shard — whose own lane is empty — steals the parked session.
    let loose = server
        .submit(
            Task::Sst2,
            InferenceRequest::new(f.tokens.clone()).with_latency_target(400e-3),
        )
        .expect("admitted");
    // Wait until the loose job is running (popped off the queue) so
    // the tight one cannot be popped first.
    while server.queued() > 0 {
        std::thread::sleep(Duration::from_millis(1));
    }
    std::thread::sleep(Duration::from_millis(10));
    let tight = server
        .submit(
            Task::Sst2,
            InferenceRequest::new(f.tokens.clone()).with_latency_target(50e-3),
        )
        .expect("admitted");

    let tight_resp = tight.wait().expect("worker alive");
    assert_eq!(tight_resp.task, Task::Sst2);
    let loose_resp = loose.wait().expect("worker alive");
    assert_eq!(loose_resp.task, Task::Sst2);
    assert!(
        loose_resp.preemptions >= 1,
        "the loose sentence must have been parked"
    );
    assert!(loose_resp.parked_s > 0.0);

    let stats = server.shutdown();
    assert_eq!(stats.served(), 2);
    assert_eq!(
        stats.stolen(),
        stats.migrated(),
        "every migration has exactly one thief"
    );
    assert!(
        stats.migrated() >= 1,
        "the parked SST-2 session must have crossed lanes: {stats:?}"
    );
    let sst2 = stats.lane(Task::Sst2).expect("lane");
    let qnli = stats.lane(Task::Qnli).expect("lane");
    assert!(sst2.migrated >= 1, "migrations count on the origin lane");
    assert!(qnli.stolen >= 1, "steals count on the thief's home lane");
    assert_eq!(qnli.submitted, 0, "the QNLI lane itself stayed idle");
}

#[test]
fn idle_shards_autoscale_onto_pressured_lanes() {
    let f = fixture();
    let server = Server::start(
        &f.runtime,
        ServerConfig {
            emulate_service_time: true,
            elastic: Some(ElasticConfig {
                work_stealing: false,
                autoscale: true,
                grow_pressure: 0.2,
            }),
            ..ServerConfig::default()
        },
    );
    // Flood the SST-2 lane: one shard at ~60 ms per emulated sentence
    // cannot drain 8 arrivals inside their horizon, so the pressure
    // signal clears the grow threshold and the idle QNLI shard
    // attaches as an extra drain.
    let handles: Vec<_> = (0..8)
        .map(|_| {
            server
                .submit(
                    Task::Sst2,
                    InferenceRequest::new(f.tokens.clone()).with_latency_target(60e-3),
                )
                .expect("admitted")
        })
        .collect();
    for handle in handles {
        let resp = handle.wait().expect("worker alive");
        assert_eq!(resp.task, Task::Sst2);
    }
    let stats = server.shutdown();
    assert_eq!(stats.served(), 8);
    let sst2 = stats.lane(Task::Sst2).expect("lane");
    assert!(
        sst2.pool_resizes >= 2,
        "the flooded lane must have grown and shrunk: {stats:?}"
    );
    assert_eq!(stats.stolen(), 0, "stealing was disabled");
    assert_eq!(stats.migrated(), 0);
}

#[test]
fn disabled_elasticity_keeps_every_counter_at_zero() {
    let f = fixture();
    // The exact stealing scenario, elasticity off: the parked session
    // must be resumed by its home shard and no elastic counter moves.
    let server = Server::start(&f.runtime, preemptive_config(None));
    let loose = server
        .submit(
            Task::Sst2,
            InferenceRequest::new(f.tokens.clone()).with_latency_target(400e-3),
        )
        .expect("admitted");
    while server.queued() > 0 {
        std::thread::sleep(Duration::from_millis(1));
    }
    std::thread::sleep(Duration::from_millis(10));
    let tight = server
        .submit(
            Task::Sst2,
            InferenceRequest::new(f.tokens.clone()).with_latency_target(50e-3),
        )
        .expect("admitted");
    tight.wait().expect("worker alive");
    let loose_resp = loose.wait().expect("worker alive");
    assert!(loose_resp.preemptions >= 1, "preemption still parks");

    let stats = server.shutdown();
    assert_eq!(stats.served(), 2);
    assert_eq!(stats.stolen(), 0);
    assert_eq!(stats.migrated(), 0);
    assert_eq!(stats.pool_resizes(), 0);
    let sst2 = stats.lane(Task::Sst2).expect("lane");
    assert!(
        sst2.resumed >= 1,
        "the home shard resumed its own parked session"
    );
}
