//! Integration tests for elastic serving: work-stealing migration of
//! parked sessions across lanes, pressure-driven autoscaling of shard
//! pools, and the contract that a disabled elastic config leaves the
//! server indistinguishable from a static pool (zero counters).

use edgebert::calibrate::SweepCache;
use edgebert::engine::{EngineBuilder, EntropyThresholds, InferenceRequest};
use edgebert::predictor::EntropyPredictor;
use edgebert::serving::{MultiTaskRuntime, TaskRuntime};
use edgebert::{
    ElasticConfig, EnergyConfig, OverloadConfig, PreemptionPolicy, ResponseHandle, Server,
    ServerConfig, ServerResponse, SubmitError, TelemetryConfig,
};
use edgebert_model::{AlbertConfig, AlbertModel};
use edgebert_tasks::{Task, TaskGenerator, VocabLayout};
use edgebert_tensor::Rng;
use std::sync::atomic::{AtomicBool, Ordering};
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

/// Offers `n` SST-2 sentences `gap` apart, loose and tight deadlines
/// alternating so that tight arrivals park loose sessions for the idle
/// QNLI shard to steal. Returns the admitted handles and the refusals.
fn offer_mixed(
    server: &Server,
    n: usize,
    gap: Duration,
) -> (Vec<ResponseHandle>, Vec<SubmitError>) {
    let f = fixture();
    let (mut handles, mut refused) = (Vec::new(), Vec::new());
    for i in 0..n {
        let target_s = if i % 2 == 0 { 120e-3 } else { 45e-3 };
        let request = InferenceRequest::new(f.tokens.clone())
            .with_latency_target(target_s)
            .with_max_degradation(2);
        match server.submit(Task::Sst2, request) {
            Ok(handle) => handles.push(handle),
            Err(err) => refused.push(err),
        }
        std::thread::sleep(gap);
    }
    (handles, refused)
}

#[test]
fn every_stats_snapshot_balances_while_steals_run() {
    // Replaces a unit test of the old ordered tally double-lock: a steal
    // is one record under one lane lock now, so a snapshot taken one
    // lane at a time balances by construction. `stats()` asserts
    // `stolen == migrated` itself and would panic the poller.
    let server = Server::start(
        &fixture().runtime,
        preemptive_config(Some(ElasticConfig {
            autoscale: false,
            ..ElasticConfig::default()
        })),
    );
    let done = AtomicBool::new(false);
    let snapshots = std::thread::scope(|scope| {
        let poller = scope.spawn(|| {
            let mut snapshots = 0u64;
            while !done.load(Ordering::Relaxed) {
                let stats = server.stats();
                assert_eq!(stats.stolen(), stats.migrated());
                snapshots += 1;
            }
            snapshots
        });
        let (handles, refused) = offer_mixed(&server, 32, Duration::from_millis(25));
        assert!(refused.is_empty(), "{refused:?}");
        for handle in handles {
            handle.wait().expect("worker alive");
        }
        done.store(true, Ordering::Relaxed);
        poller.join().expect("no snapshot was unbalanced")
    });
    let stats = server.shutdown();
    assert_eq!(stats.served(), 32);
    assert!(stats.stolen() >= 1, "no steal ran: {stats:?}");
    assert!(snapshots > 100, "the poller barely ran: {snapshots}");
}

#[test]
fn a_waited_response_is_already_in_the_stats() {
    // Everything a sentence adds to its lane is folded under the lane
    // lock before its reply is sent: once every handle has been waited
    // on, a snapshot of the *running* server is complete, under every
    // feature at once.
    let server = Server::start(
        &fixture().runtime,
        ServerConfig {
            queue_capacity: 10,
            overload: Some(OverloadConfig::default()),
            energy: Some(EnergyConfig::default()),
            telemetry: Some(TelemetryConfig::default()),
            ..preemptive_config(Some(ElasticConfig::default()))
        },
    );
    let (handles, refused) = offer_mixed(&server, 48, Duration::from_millis(3));
    let responses: Vec<ServerResponse> = handles
        .into_iter()
        .map(|handle| handle.wait().expect("worker alive"))
        .collect();
    let stats = server.stats();
    let snapshot = server.telemetry_snapshot().expect("telemetry on");

    let shed = refused
        .iter()
        .filter(|e| matches!(e, SubmitError::Shed { .. }));
    assert_eq!(stats.shed(), shed.count() as u64);
    assert_eq!(stats.served(), responses.len() as u64);
    assert_eq!(stats.served() + stats.shed() + stats.rejected(), 48);
    assert!(
        !refused.is_empty(),
        "the load must overrun the lane: {stats:?}"
    );

    let lane = stats.lane(Task::Sst2).expect("lane");
    let energy_j: f64 = responses.iter().map(|r| r.energy_j).sum();
    assert!(
        (lane.energy_j - energy_j).abs() <= 1e-9 * energy_j,
        "ledger {} vs responses {energy_j}",
        lane.energy_j
    );
    let histograms = snapshot
        .lanes
        .iter()
        .find(|l| l.task == Task::Sst2)
        .expect("lane recorded")
        .histograms;
    assert_eq!(histograms.sojourn_s.count(), lane.served);
    assert_eq!(histograms.queue_delay_s.count(), lane.served);
    let layers: usize = responses.iter().map(|r| r.response.result.exit_layer).sum();
    assert_eq!(histograms.step_time_s.count(), layers as u64);
    server.shutdown();
}
