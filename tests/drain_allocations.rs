//! Pins what a served request allocates (its hidden state and off-ramp
//! outputs: the layers run in the serving thread's buffers) and what a
//! scheduler drain allocates: every sentence is forwarded once (what a
//! live `serve` allocates, plus its compact trace), and its replay at
//! the dispatch point opens no forward pass — no hidden state. The drain
//! is measured as the marginal cost of draining the same sentences a
//! second time over, so the drain's own per-call vectors, worker spawns
//! and the workers' layer buffers cancel.

// One `#[test]` function in this binary on purpose: see `common`.
mod common;

use common::allocated_during;
use edgebert::engine::InferenceRequest;
use edgebert::pipeline::{Scale, TaskArtifacts};
use edgebert::scheduler::{DeadlineScheduler, SchedulerConfig};
use edgebert::serving::{MultiTaskRuntime, TaskRuntime};
use edgebert_tasks::{Task, TaskGenerator};

#[test]
fn a_drain_forwards_each_sentence_once_and_replays_it_without_scratch() {
    let art = TaskArtifacts::build(Task::Sst2, Scale::Test, 0xD7A1);
    let rt = MultiTaskRuntime::from_runtimes([TaskRuntime::from_artifacts(&art)]);
    let max_len = art.model.config.max_seq_len;
    // Escalating targets over a burst: sentences queue, so the
    // queue-aware drain stamps (and used to clone) most of them.
    let requests: Vec<InferenceRequest> = TaskGenerator::standard(Task::Sst2, max_len)
        .generate(32, 0xD7A2)
        .examples()
        .iter()
        .enumerate()
        .map(|(i, ex)| {
            InferenceRequest::new(ex.tokens.clone()).with_latency_target(20e-3 * (i + 1) as f64)
        })
        .collect();
    let n = requests.len() as u64;
    let shortest = requests
        .iter()
        .map(|r| r.tokens.len())
        .min()
        .expect("a burst");
    let hidden_state = (shortest * art.model.config.hidden_size * 4) as u64;

    // This thread's layer buffers are sized once, by set-up or by the
    // first request. What each request allocates is its hidden state,
    // the embedding lookup and its off-ramp outputs: 1 840 B and 6.2
    // allocations as measured.
    let (serve_allocs, serve_bytes) = allocated_during(|| {
        for request in &requests {
            rt.try_serve(Task::Sst2, request).expect("served task");
        }
    });
    assert!(
        (hidden_state..=4 * 1024).contains(&(serve_bytes / n)),
        "a served request holds a hidden state ({hidden_state} B) and no layer buffers: \
         {serve_bytes} B over {n}"
    );
    assert!(
        serve_allocs <= 8 * n,
        "{n} served requests allocated {serve_allocs} times"
    );

    let drain_of = |copies: usize| {
        let mut sched = DeadlineScheduler::new(
            &rt,
            SchedulerConfig {
                max_batch: 1,
                queue_aware_slack: true,
                ..SchedulerConfig::default()
            },
        );
        for request in std::iter::repeat_n(&requests, copies).flatten() {
            sched.submit(Task::Sst2, request.clone(), 0.0);
        }
        allocated_during(|| assert_eq!(sched.drain().len(), copies * requests.len()))
    };
    let (once, twice) = (drain_of(1), drain_of(2));
    let (allocs, bytes) = (twice.0 - once.0, twice.1 - once.1);

    // Per sentence beyond its one live forward pass: the trace, the
    // dispatch round's pack and the replay's own pricing — 3.1 as
    // measured, where a second forward pass would add six more.
    assert!(
        allocs <= serve_allocs + 4 * n,
        "{n} more sentences cost {allocs} allocations, serving them live {serve_allocs}"
    );
    // ... and nothing the size of a forward pass: the drain's slots,
    // the trace and the response, 573 B a sentence as measured.
    assert!(
        bytes <= serve_bytes + 1024 * n,
        "{n} more sentences cost {bytes} B, serving them live {serve_bytes} B"
    );
}
