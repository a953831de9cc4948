//! Pins what an admitted request keeps alive for its caller: the reply
//! slot behind its `ResponseHandle`, one allocation of about 200 B. A
//! reply channel per request cost about 800 B more, and a 2 048-request
//! burst holds one per admitted request.

// One `#[test]` function in this binary on purpose: see `common`.
mod common;

use common::bytes_held_by;
use edgebert::calibrate::SweepCache;
use edgebert::engine::{EngineBuilder, InferenceRequest};
use edgebert::predictor::EntropyPredictor;
use edgebert::serving::{MultiTaskRuntime, TaskRuntime};
use edgebert::{ResponseHandle, Server, ServerConfig};
use edgebert_model::{AlbertConfig, AlbertModel};
use edgebert_tasks::{Task, TaskGenerator, VocabLayout};
use edgebert_tensor::Rng;
use std::collections::HashSet;
use std::sync::Arc;

/// Reply state one waiting handle may hold, bytes.
const BYTES_PER_HANDLE: usize = 256;
const REQUESTS: usize = 512;
const TASKS: [Task; 2] = [Task::Sst2, Task::Qnli];

fn task_runtime(task: Task, seed: u64) -> (TaskRuntime, Vec<Vec<u32>>) {
    let layout = VocabLayout::standard();
    let cfg = AlbertConfig::tiny(layout.vocab_size(), 2);
    let model = AlbertModel::pretrained(cfg, &layout, &mut Rng::seed_from(seed));
    let data = TaskGenerator::standard(task, cfg.max_seq_len).generate(8, seed + 1);
    let cache = SweepCache::build(&model, &data);
    let lut = EntropyPredictor::train(&cache.entropy_dataset(), 20, 3).to_lut(32, 1.1);
    let builder = EngineBuilder::new(Arc::new(model), Arc::new(lut));
    let tokens = data.iter().map(|ex| ex.tokens.clone()).collect();
    (TaskRuntime::from_builder(task, builder), tokens)
}

fn submit_all(server: &Server, tokens: &[Vec<Vec<u32>>]) -> Vec<ResponseHandle> {
    let mut handles = Vec::with_capacity(REQUESTS);
    for i in 0..REQUESTS {
        let lane = i % TASKS.len();
        let sentence = &tokens[lane][i / TASKS.len() % tokens[lane].len()];
        let request = InferenceRequest::new(sentence.clone());
        handles.push(server.submit(TASKS[lane], request).expect("admitted"));
    }
    handles
}

#[test]
fn a_waiting_handle_holds_one_small_reply_slot() {
    let (runtimes, tokens): (Vec<_>, Vec<_>) = TASKS
        .iter()
        .zip([41, 43])
        .map(|(&task, seed)| task_runtime(task, seed))
        .unzip();
    let runtime = MultiTaskRuntime::from_runtimes(runtimes);

    // Shutdown drains every admitted request, so each slot holds its
    // response when the handles are dropped.
    let server = Server::start(&runtime, ServerConfig::default());
    let handles = submit_all(&server, &tokens);
    let stats = server.shutdown();
    assert_eq!(stats.served(), REQUESTS as u64);
    let vec_buffer = handles.capacity() * std::mem::size_of::<ResponseHandle>();
    let held = bytes_held_by(handles);
    let per_handle = (held - vec_buffer) / REQUESTS;
    assert!(
        per_handle <= BYTES_PER_HANDLE,
        "each filled handle holds {per_handle} B of reply state (budget {BYTES_PER_HANDLE} B)"
    );

    // Every admitted request is answered once, under its own number.
    let server = Server::start(&runtime, ServerConfig::default());
    let mut seen = HashSet::new();
    for handle in submit_all(&server, &tokens) {
        let (task, submission) = (handle.task(), handle.submission());
        let served = handle.wait().expect("worker alive");
        assert_eq!((served.task, served.submission), (task, submission));
        assert!(
            seen.insert((task, submission)),
            "{task} #{submission} twice"
        );
    }
    assert_eq!(seen.len(), REQUESTS);
    server.shutdown();
}
