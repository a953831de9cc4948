//! Multi-task serving: one deployment, four GLUE tasks, mixed
//! deadlines (the paper's §4 multi-task scenario behind the
//! request/response API).
//!
//! Builds a [`MultiTaskRuntime`] over MNLI, QQP, SST-2, and QNLI, then
//! serves a mixed-task, mixed-deadline batch the way edge traffic
//! arrives: interleaved, each request carrying its own task and
//! latency budget. Engines are owned and `Send`, so the batch fans out
//! across worker threads.
//!
//! ```text
//! cargo run --release --example multi_task_serving
//! ```

use edgebert::engine::{DropTarget, InferenceRequest};
use edgebert::pipeline::Scale;
use edgebert::server::{ElasticConfig, Server, ServerConfig};
use edgebert::serving::MultiTaskRuntime;
use edgebert_tasks::{Task, TaskGenerator};

fn main() {
    println!("== EdgeBERT multi-task serving ==\n");
    println!("training all four GLUE tasks (test scale)...");
    let runtime = MultiTaskRuntime::build(Scale::Test, 0xED6E);
    println!("serving tasks: {:?}\n", runtime.tasks());

    // A mixed stream: one sentence per task, cycling deadlines between
    // voice-assistant (50 ms) and translation (200 ms) budgets, and
    // between the 1 % and 5 % accuracy tiers.
    let mut batch = Vec::new();
    for (i, &task) in Task::all().iter().enumerate() {
        let rt = runtime.runtime(task).expect("task is served");
        let gen = TaskGenerator::standard(task, rt.model().config.max_seq_len);
        let data = gen.generate(2, 0xBEEF + i as u64);
        for (j, ex) in data.iter().enumerate() {
            let (target, drop) = if (i + j) % 2 == 0 {
                (50e-3, DropTarget::OnePercent)
            } else {
                (200e-3, DropTarget::FivePercent)
            };
            batch.push((
                task,
                InferenceRequest::new(ex.tokens.clone())
                    .with_latency_target(target)
                    .with_drop_target(drop),
            ));
        }
    }

    let responses = runtime.try_serve_batch(&batch);
    println!(
        "{:<8} {:>8} {:>6} {:>5} {:>8} {:>10}  deadline",
        "task", "target", "tier", "exit", "V", "energy"
    );
    for ((task, _), resp) in batch.iter().zip(&responses) {
        let resp = resp.as_ref().expect("all batch tasks are served");
        let r = &resp.result;
        println!(
            "{:<8} {:>5.0} ms {:>6} {:>5} {:>7.3}V {:>9.1}µJ  {}",
            task.to_string(),
            resp.latency_target_s * 1e3,
            format!("{:.0}%", resp.drop_target.fraction() * 100.0),
            r.exit_layer,
            r.voltage,
            r.energy_j * 1e6,
            if r.deadline_met { "met" } else { "MISSED" },
        );
    }

    // The routing table is live: an unserved task is refused with a
    // typed error, not misrouted or silently dropped.
    let stray = InferenceRequest::new(vec![1, 2, 3]);
    let empty = MultiTaskRuntime::default();
    assert_eq!(
        empty.try_serve(Task::Sst2, &stray),
        Err(edgebert::serving::ServeError::TaskNotServed(Task::Sst2))
    );
    println!("\n(an empty runtime refuses requests rather than misrouting them)");

    // The same four lanes, served elastically: a skewed burst lands
    // entirely on SST-2 while the other three shards idle, and the
    // pressure signal lets the idle shards attach to the hot lane as
    // extra drains (ServerConfig::elastic; `None` by default).
    println!("\nskewed burst on the SST-2 lane, elastic shard pools on...");
    let server = Server::start(
        &runtime,
        ServerConfig {
            emulate_service_time: true,
            elastic: Some(ElasticConfig {
                grow_pressure: 0.05,
                ..ElasticConfig::default()
            }),
            ..ServerConfig::default()
        },
    );
    let sst2 = runtime.runtime(Task::Sst2).expect("task is served");
    let gen = TaskGenerator::standard(Task::Sst2, sst2.model().config.max_seq_len);
    let burst = gen.generate(32, 0xE1A5);
    let handles: Vec<_> = burst
        .iter()
        .map(|ex| {
            server
                .submit(
                    Task::Sst2,
                    InferenceRequest::new(ex.tokens.clone()).with_latency_target(100e-3),
                )
                .expect("admitted")
        })
        .collect();
    for h in handles {
        h.wait().expect("workers outlive the burst");
    }
    let stats = server.shutdown();
    let hot = stats.lane(Task::Sst2).expect("lane");
    println!(
        "served {} on the hot lane; pool resizes {} (foreign shards \
         attached/detached), sessions stolen across lanes {}",
        hot.served,
        hot.pool_resizes,
        stats.stolen(),
    );
}
