//! Integration tests for the EDF slack-aware batch scheduler: queue
//! ordering, output-order preservation, bit-identity with unscheduled
//! serving, the `serve_batch` wrapper, the load generator, and the
//! tail-latency report.

use edgebert::engine::{
    deadline_met, DropTarget, InferenceMode, InferenceRequest, InferenceResponse,
};
use edgebert::pipeline::{Scale, TaskArtifacts};
use edgebert::scheduler::{DeadlineScheduler, SchedulePolicy, SchedulerConfig};
use edgebert::serving::{MultiTaskRuntime, ServeError, TaskRuntime};
use edgebert_bench::load::{
    class_reports, drain_load, estimate_service_s, generate, LoadSpec, TailReport, TrafficClass,
};
use edgebert_tasks::{Task, TaskGenerator};
use std::sync::OnceLock;

fn runtime() -> &'static MultiTaskRuntime {
    static CELL: OnceLock<MultiTaskRuntime> = OnceLock::new();
    CELL.get_or_init(|| {
        MultiTaskRuntime::from_runtimes([
            TaskRuntime::from_artifacts(&TaskArtifacts::build(Task::Sst2, Scale::Test, 0x5CED)),
            TaskRuntime::from_artifacts(&TaskArtifacts::build(Task::Qnli, Scale::Test, 0x5CEE)),
        ])
    })
}

fn tokens_for(task: Task, n: usize, seed: u64) -> Vec<Vec<u32>> {
    let rt = runtime().runtime(task).expect("served");
    let gen = TaskGenerator::standard(task, rt.model().config.max_seq_len);
    gen.generate(n, seed)
        .examples()
        .iter()
        .map(|ex| ex.tokens.clone())
        .collect()
}

fn cfg(policy: SchedulePolicy) -> SchedulerConfig {
    SchedulerConfig {
        workers: 1,
        max_batch: 4,
        policy,
        task_switch_s: 0.0,
        queue_aware_slack: false,
    }
}

#[test]
fn edf_orders_mixed_deadlines_fifo_orders_arrivals() {
    let rt = runtime();
    let toks = tokens_for(Task::Sst2, 5, 21);
    // Submission order carries *descending* targets: the EDF dispatch
    // order must be the exact reverse of the FIFO one.
    let submit_all = |sched: &mut DeadlineScheduler| {
        for (i, tok) in toks.iter().enumerate() {
            sched.submit(
                Task::Sst2,
                InferenceRequest::new(tok.clone()).with_latency_target(0.5 - 0.1 * i as f64),
                0.0,
            );
        }
    };
    let starts = |policy| {
        let mut sched = DeadlineScheduler::new(rt, cfg(policy));
        submit_all(&mut sched);
        sched
            .drain()
            .into_iter()
            .map(|r| r.expect("served").start_s)
            .collect::<Vec<f64>>()
    };
    let fifo = starts(SchedulePolicy::Fifo);
    let edf = starts(SchedulePolicy::EarliestDeadline);
    for i in 0..toks.len() - 1 {
        assert!(fifo[i] < fifo[i + 1], "FIFO dispatches in arrival order");
        assert!(edf[i] > edf[i + 1], "EDF dispatches tightest-first");
    }
}

#[test]
fn drain_preserves_submission_order_and_serve_bit_identity() {
    let rt = runtime();
    let sst = tokens_for(Task::Sst2, 4, 22);
    let qnli = tokens_for(Task::Qnli, 4, 23);
    let mut sched = DeadlineScheduler::new(rt, cfg(SchedulePolicy::EarliestDeadline));
    let mut expected: Vec<InferenceResponse> = Vec::new();
    for (i, tok) in sst.iter().chain(&qnli).enumerate() {
        let task = if i < sst.len() {
            Task::Sst2
        } else {
            Task::Qnli
        };
        let req = InferenceRequest::new(tok.clone()).with_latency_target(20e-3 + 9e-3 * i as f64);
        let idx = sched.submit(task, req.clone(), 0.7e-3 * i as f64);
        assert_eq!(idx, i, "submission index is the output slot");
        expected.push(rt.try_serve(task, &req).expect("served task"));
    }
    let out = sched.drain();
    assert_eq!(out.len(), expected.len());
    for (i, (got, want)) in out.iter().zip(&expected).enumerate() {
        let got = got.as_ref().expect("served");
        assert_eq!(
            &got.response, want,
            "slot {i}: scheduling must not change what a sentence computes"
        );
        assert_eq!(
            got.deadline_met,
            deadline_met(got.sojourn_s, got.response.latency_target_s),
            "sojourn verdict uses the unified deadline rule"
        );
    }
}

#[test]
fn a_queue_aware_drain_prices_each_sentence_like_serving_it_stamped_with_its_wait() {
    // A drain forwards every sentence once, from the request as
    // submitted, then prices it at its dispatch point under the stamp.
    // That must be, field for field and bit for bit, a live serve of
    // the stamped request: every mode, tier and envelope, wire-garbage
    // tokens, targets from infeasible to loose, waits of zero, under
    // and over the target, and (a 1e6 s task switch) absurd.
    let rt = runtime();
    let engine = rt.runtime(Task::Sst2).expect("served").engine();
    let cap_w = 0.5 * engine.backend().nominal_power_w();
    let wire_garbage = [vec![], vec![u32::MAX; 3]];
    let load: Vec<InferenceRequest> = tokens_for(Task::Sst2, 70, 26)
        .into_iter()
        .chain(wire_garbage)
        .enumerate()
        .map(|(i, tokens)| {
            let mut req = InferenceRequest::new(tokens)
                .with_mode(InferenceMode::all()[i % 3])
                .with_drop_target(DropTarget::all()[i / 3 % 3])
                .with_latency_target([1e-6, 3e-3, 50e-3, 10.0][i / 9 % 4])
                .with_elapsed_queue_s(if i % 7 == 3 { 2e-3 } else { 0.0 });
            req.envelope_w = (i % 2 == 1).then_some(cap_w);
            req
        })
        .collect();
    let bits = |r: &InferenceResponse| {
        let s = &r.result;
        let floats = [s.latency_s, s.energy_j, s.freq_hz, r.latency_target_s].map(f64::to_bits);
        let exit = (s.mode, s.exit_layer, s.predicted_layer, s.prediction);
        (
            exit,
            floats,
            s.voltage.to_bits(),
            s.deadline_met,
            r.drop_target,
        )
    };
    let mut stamp_moved_the_price = 0;
    for task_switch_s in [0.0, 1e6] {
        let mut sched = DeadlineScheduler::new(
            rt,
            SchedulerConfig {
                max_batch: 3,
                task_switch_s,
                queue_aware_slack: true,
                ..SchedulerConfig::default()
            },
        );
        for (i, req) in load.iter().enumerate() {
            sched.submit(Task::Sst2, req.clone(), 0.3e-3 * i as f64);
        }
        for (i, (req, got)) in load.iter().zip(sched.drain()).enumerate() {
            let got = got.expect("served");
            let stamp_s = req.effective_elapsed_queue_s() + got.queue_delay_s;
            let live = engine.serve(&req.clone().with_elapsed_queue_s(stamp_s));
            assert_eq!(
                bits(&got.response),
                bits(&live),
                "slot {i}, waited {} s: {req:?}",
                got.queue_delay_s
            );
            stamp_moved_the_price += usize::from(live != engine.serve(req));
        }
    }
    assert!(
        stamp_moved_the_price > load.len() / 2,
        "the load must queue for the stamp to matter: {stamp_moved_the_price}"
    );
}

#[test]
fn serve_batch_is_a_scheduler_wrapper_with_old_semantics() {
    let rt = runtime();
    let toks = tokens_for(Task::Sst2, 3, 24);
    let batch: Vec<(Task, InferenceRequest)> = vec![
        (Task::Sst2, InferenceRequest::new(toks[0].clone())),
        (Task::Mnli, InferenceRequest::new(vec![1, 2, 3])), // unserved
        (
            Task::Qnli,
            InferenceRequest::new(tokens_for(Task::Qnli, 1, 25)[0].clone())
                .with_latency_target(120e-3),
        ),
        (Task::Sst2, InferenceRequest::new(toks[1].clone())),
    ];
    let out = rt.try_serve_batch(&batch);
    assert_eq!(out.len(), batch.len());
    assert_eq!(
        out[1],
        Err(ServeError::TaskNotServed(Task::Mnli)),
        "unserved task comes back as a typed routing error"
    );
    for (i, (task, req)) in batch.iter().enumerate() {
        assert_eq!(out[i], rt.try_serve(*task, req), "slot {i}");
    }
    // Empty batch edge.
    assert!(rt.try_serve_batch(&[]).is_empty());
}

#[test]
fn load_generator_is_deterministic_and_well_formed() {
    let rt = runtime();
    let spec = LoadSpec {
        requests: 40,
        mean_interarrival_s: 2e-3,
        classes: vec![
            TrafficClass {
                name: "tight",
                latency_target_s: 8e-3,
                weight: 0.5,
                task: None,
            },
            TrafficClass {
                name: "relaxed",
                latency_target_s: 80e-3,
                weight: 0.5,
                task: None,
            },
        ],
        seed: 0x10AD,
    };
    let a = generate(rt, &spec);
    let b = generate(rt, &spec);
    assert_eq!(a.len(), 40);
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.task, y.task);
        assert_eq!(x.request, y.request);
        assert_eq!(x.arrival_s, y.arrival_s);
        assert_eq!(x.class, y.class);
    }
    let mut last = 0.0;
    for r in &a {
        assert!(r.arrival_s >= last, "arrivals are nondecreasing");
        last = r.arrival_s;
        assert!(r.class < spec.classes.len());
        assert_eq!(
            r.request.latency_target_s,
            Some(spec.classes[r.class].latency_target_s)
        );
        assert!(
            rt.runtime(r.task).is_some(),
            "load only targets served tasks"
        );
    }
}

#[test]
fn tail_report_percentiles_are_ordered_and_edf_protects_tight_traffic() {
    let rt = runtime();
    let service_s = estimate_service_s(rt, 0x5CED);
    let spec = LoadSpec {
        requests: 80,
        mean_interarrival_s: service_s * 1.15,
        classes: vec![
            TrafficClass {
                name: "tight",
                latency_target_s: service_s * 3.0,
                weight: 0.35,
                task: None,
            },
            TrafficClass {
                name: "relaxed",
                latency_target_s: service_s * 25.0,
                weight: 0.65,
                task: None,
            },
        ],
        seed: 0x5CED,
    };
    let load = generate(rt, &spec);
    let fifo = drain_load(rt, &load, cfg(SchedulePolicy::Fifo));
    let edf = drain_load(rt, &load, cfg(SchedulePolicy::EarliestDeadline));
    for (a, b) in fifo.iter().zip(&edf) {
        assert_eq!(a.response, b.response, "policy changes timing, not results");
    }
    let fifo_rows = class_reports(&load, &fifo, &spec.classes);
    let edf_rows = class_reports(&load, &edf, &spec.classes);
    for (name, r) in fifo_rows.iter().chain(&edf_rows) {
        assert!(
            r.p50_ms <= r.p95_ms && r.p95_ms <= r.p99_ms,
            "{name}: {r:?}"
        );
        assert!((0.0..=1.0).contains(&r.violation_rate), "{name}");
    }
    // The acceptance bar: EDF must not worsen the tight class's tail
    // or violation rate under mixed near-capacity traffic.
    let (tight_fifo, tight_edf) = (&fifo_rows[0].1, &edf_rows[0].1);
    assert!(tight_edf.p99_ms <= tight_fifo.p99_ms);
    assert!(tight_edf.violation_rate <= tight_fifo.violation_rate);

    // Empty report edge.
    let empty = TailReport::from_samples(&fifo[0..0]);
    assert_eq!(empty.count, 0);
    assert_eq!(empty.violation_rate, 0.0);
}
