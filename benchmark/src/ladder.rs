//! The layer ladder of the traced pass: a sample of the workload's own
//! requests replayed through each layer's public calls on the benchmark
//! thread, rung by rung — `tensor`, `nn`, `quant`, `model`, `hw`,
//! `engine`/`session`, `server` (with its lanes), `telemetry`,
//! `scheduler`.
//!
//! A layer is timed from outside the program: its call is one span, and
//! the calls it makes into the layer below are replayed on the same
//! input as spans that name it as parent. Self time is the difference
//! (see [`crate::trace::self_times_ns`]).

use crate::alloc;
use crate::calib::HostClock;
use crate::load::Req;
use crate::report::{Measured, Metrics};
use crate::run::Modeled;
use crate::served::{model_of, task_runtime, DEEP};
use crate::stats::median;
use crate::trace::{self_times_ns, Span, Tracer, NO_SPAN};
use crate::workloads::{scheduler_config, server_config, Driver, Front};
use edgebert::{DeadlineScheduler, MultiTaskRuntime, Server, ServerConfig, TelemetryConfig};
use edgebert_hw::{AcceleratorConfig, DvfsController};
use edgebert_model::AlbertConfig;
use edgebert_quant::tensor::fake_quantize;
use edgebert_tensor::kernels::softmax_rows;
use edgebert_tensor::{Matrix, Rng};
use std::hint::black_box;
use std::time::Instant;

/// Requests of block 0 replayed through the `nn`…`session` rungs and the
/// closed-loop server rungs.
pub const LADDER_SAMPLE: usize = 96;

/// Calls behind each `tensor` timing.
const KERNEL_CALLS: usize = 400;
/// Calls per timed batch of the nanosecond-scale `hw` rungs.
const HW_BATCH: usize = 200;
/// Timed batches behind each `hw` timing.
const HW_BATCHES: usize = 50;
/// Requests of the replay rung between two calibration samples.
const CALIBRATE_EVERY: usize = 8;
/// Times the telemetry-off and telemetry-on closed loops alternate.
const TELEMETRY_PAIRS: usize = 3;
/// Times the drain and the direct serve of the same block alternate.
const DRAIN_REPEATS: usize = 3;

fn put(metrics: &mut Metrics, name: &str, m: Measured) {
    metrics.insert(name.to_string(), m);
}

fn put_median(metrics: &mut Metrics, name: &str, samples: &[f64]) {
    let m = if samples.is_empty() {
        Measured::exact(0.0)
    } else {
        Measured::median_of(samples)
    };
    put(metrics, name, m);
}

/// Calibrated microseconds of every span called `name`: its duration, or
/// with `self_time` its duration less its children's, divided by the
/// host's speed factor when it started.
fn span_us(spans: &[Span], name: &str, self_time: bool, clock: &HostClock) -> Vec<f64> {
    spans
        .iter()
        .zip(self_times_ns(spans))
        .filter(|(s, _)| s.name == name)
        .map(|(s, self_ns)| {
            let ns = if self_time {
                self_ns
            } else {
                s.duration_ns() as i64
            };
            ns as f64 / 1e3 / clock.factor_at(s.start_ns as f64 / 1e9)
        })
        .collect()
}

/// Microseconds of each of `calls` runs of `f` on a fresh `input()`.
fn time_calls_us<I, R>(calls: usize, mut input: impl FnMut() -> I, f: impl Fn(I) -> R) -> Vec<f64> {
    (0..calls)
        .map(|_| {
            let x = input();
            let start = Instant::now();
            black_box(f(black_box(x)));
            start.elapsed().as_secs_f64() * 1e6
        })
        .collect()
}

/// `tensor`: the kernels at the exact shapes one encoder layer issues.
fn tensor_rung(cfg: &AlbertConfig, seed: u64, clock: &mut HostClock, metrics: &mut Metrics) {
    let (s, h, f, d) = (
        cfg.max_seq_len,
        cfg.hidden_size,
        cfg.intermediate_size,
        cfg.head_dim(),
    );
    let mut rng = Rng::seed_from(seed);
    let mut mat = |r: usize, c: usize| rng.gaussian_matrix(r, c, 1.0);
    let (x, w_proj, w_fc1) = (mat(s, h), mat(h, h), mat(h, f));
    let (x_wide, w_fc2) = (mat(s, f), mat(f, h));
    let (q, k, scores) = (mat(s, d), mat(s, d), mat(s, s));

    let mut kernel = |name: &str, samples: &dyn Fn() -> Vec<f64>| {
        let (raw, speed) = clock.around(samples);
        let calibrated: Vec<f64> = raw.iter().map(|us| us / speed).collect();
        put_median(metrics, name, &calibrated);
    };
    kernel("tensor.matmul_proj_us", &|| {
        time_calls_us(KERNEL_CALLS, || (), |()| x.matmul(&w_proj))
    });
    kernel("tensor.matmul_fc1_us", &|| {
        time_calls_us(KERNEL_CALLS, || (), |()| x.matmul(&w_fc1))
    });
    kernel("tensor.matmul_fc2_us", &|| {
        time_calls_us(KERNEL_CALLS, || (), |()| x_wide.matmul(&w_fc2))
    });
    kernel("tensor.matmul_nt_scores_us", &|| {
        time_calls_us(KERNEL_CALLS, || (), |()| q.matmul_nt(&k))
    });
    kernel("tensor.softmax_rows_us", &|| {
        time_calls_us(
            KERNEL_CALLS,
            || scores.clone(),
            |mut m| {
                softmax_rows(&mut m);
                m
            },
        )
    });
    let ((), calls, _) = alloc::during(|| {
        for _ in 0..KERNEL_CALLS {
            black_box(x.matmul(&w_proj));
        }
    });
    put(
        metrics,
        "tensor.matmul_allocs_per_call",
        Measured::exact(calls as f64 / KERNEL_CALLS as f64),
    );

    // Computed from the shapes, not measured: four H×H projections, the
    // two FFN matmuls, and per head the score and context products.
    let heads = cfg.num_heads;
    let flops = 2 * s * h * h * 4 + 2 * s * h * f * 2 + heads * (2 * s * s * d) * 2;
    let words_moved = 4 * (s * h + h * h + s * h)
        + (s * h + h * f + s * f)
        + (s * f + f * h + s * h)
        + heads * ((2 * s * d + s * s) + (s * s + s * d + s * d));
    put(
        metrics,
        "tensor.flops_per_layer",
        Measured::exact(flops as f64),
    );
    put(
        metrics,
        "tensor.bytes_per_layer",
        Measured::exact((words_moved * std::mem::size_of::<f32>()) as f64),
    );
}

/// `hw`: the DVFS decision and the per-segment costing, nanoseconds a
/// call, timed in batches because one call is shorter than a clock read.
fn hw_rung(
    runtime: &MultiTaskRuntime,
    sample: &[Req],
    clock: &mut HostClock,
    metrics: &mut Metrics,
) {
    let Some(first) = sample.first() else { return };
    let engine = task_runtime(runtime, first.task).engine();
    let layers = engine.model().num_layers();
    let cycles = engine.layer_cycles() * (layers as u64 - 1);
    let budget_s = first.request.latency_target_s.unwrap_or(50e-3);
    let dvfs = DvfsController::new(AcceleratorConfig::energy_optimal());
    let backend = engine.backend();
    let nominal = backend.nominal();
    let mut batch_ns = |f: &dyn Fn(usize)| -> Vec<f64> {
        let (raw, speed) = clock.around(|| {
            (0..HW_BATCHES)
                .map(|_| {
                    let start = Instant::now();
                    for i in 0..HW_BATCH {
                        f(i);
                    }
                    start.elapsed().as_secs_f64() * 1e9 / HW_BATCH as f64
                })
                .collect::<Vec<f64>>()
        });
        raw.iter().map(|ns| ns / speed).collect()
    };
    let decide = batch_ns(&|i| {
        black_box(dvfs.decide(black_box(cycles + i as u64), black_box(budget_s)));
    });
    put_median(metrics, "hw.dvfs_decide_ns", &decide);
    let run_layers = batch_ns(&|i| {
        black_box(backend.run_layers(black_box(1 + i % layers), black_box(&nominal)));
    });
    put_median(metrics, "hw.run_layers_cost_ns", &run_layers);
}

/// `engine`/`session`/`model`/`quant`/`nn`: each sampled request served
/// whole, then stepped layer by layer with every call one level down
/// replayed on the same input.
fn replay_rung(
    runtime: &MultiTaskRuntime,
    sample: &[Req],
    tracer: &mut Tracer,
    clock: &mut HostClock,
    metrics: &mut Metrics,
) {
    let first = tracer.spans().len();
    let mut energy_j = 0.0;
    for (i, req) in sample.iter().enumerate() {
        if i % CALIBRATE_EVERY == 0 {
            clock.sample();
        }
        let engine = task_runtime(runtime, req.task).engine();
        let model = engine.model();
        let response = tracer.span("engine.serve", req.id, NO_SPAN, || {
            engine.serve(&req.request)
        });
        energy_j += response.result.energy_j;

        let begin = tracer.begin("session.begin", req.id, NO_SPAN);
        let mut session = engine.begin(&req.request);
        tracer.end(begin);
        let mut forward = tracer.span("model.begin_forward", req.id, begin, || {
            model.begin_forward(&req.request.tokens)
        });
        // What `begin_forward` computed and keeps to itself: the input of
        // layer 1, rebuilt from the model's public parts.
        let quantize = |m: Matrix| match model.activation_fp8 {
            Some(bits) => fake_quantize(&m, bits),
            None => m,
        };
        let mut hidden = quantize(model.embedding.embed(&req.request.tokens));

        while !session.is_complete() {
            let step = tracer.begin("session.step", req.id, NO_SPAN);
            session.step();
            tracer.end(step);

            let layer = forward.layers_done();
            let next = tracer.begin("model.forward_next_layer", req.id, step);
            model.forward_next_layer(&mut forward);
            tracer.end(next);

            let enc = tracer.begin("nn.encoder_infer", req.id, next);
            let out = model.encoder.infer(&hidden);
            tracer.end(enc);
            let encoder = &model.encoder;
            let normed = tracer.span("nn.layernorm_infer", req.id, enc, || {
                encoder.norm1.infer(&hidden)
            });
            let attended = tracer.span("nn.attention_infer", req.id, enc, || {
                encoder.attention.infer(&normed)
            });
            let residual = hidden.add(&attended);
            let normed = tracer.span("nn.layernorm_infer", req.id, enc, || {
                encoder.norm2.infer(&residual)
            });
            black_box(tracer.span("nn.ffn_infer", req.id, enc, || encoder.ffn.infer(&normed)));

            hidden = match model.activation_fp8 {
                Some(bits) => tracer.span("quant.fake_quantize", req.id, next, || {
                    fake_quantize(&out, bits)
                }),
                None => out,
            };
            black_box(tracer.span("model.offramp", req.id, next, || {
                let normed = model.final_norm.infer(&hidden);
                model.off_ramps[layer].classify_with_entropy(&normed)
            }));
        }
        black_box(tracer.span("session.finish", req.id, NO_SPAN, || session.finish()));

        // Park and resume need a session that is still running after its
        // first layer, so this one rung always uses the deep tier.
        let deep = req.request.clone().with_drop_target(DEEP);
        let mut session = engine.begin(&deep);
        session.step();
        tracer.span("session.park_resume", req.id, NO_SPAN, || {
            session.park();
            session.resume(0.0);
        });
    }

    clock.sample();
    let spans = &tracer.spans()[first..];
    for (metric, span) in [
        ("engine.serve_us", "engine.serve"),
        ("session.begin_us", "session.begin"),
        ("session.step_us", "session.step"),
        ("session.finish_us", "session.finish"),
        ("session.park_resume_us", "session.park_resume"),
        ("model.begin_forward_us", "model.begin_forward"),
        ("model.forward_next_layer_us", "model.forward_next_layer"),
        ("model.offramp_us", "model.offramp"),
        ("quant.fake_quantize_us", "quant.fake_quantize"),
        ("nn.encoder_infer_us", "nn.encoder_infer"),
        ("nn.attention_infer_us", "nn.attention_infer"),
        ("nn.ffn_infer_us", "nn.ffn_infer"),
        ("nn.layernorm_infer_us", "nn.layernorm_infer"),
    ] {
        put_median(metrics, metric, &span_us(spans, span, false, clock));
    }
    for (metric, span) in [
        ("session.step_self_us", "session.step"),
        (
            "model.forward_next_layer_self_us",
            "model.forward_next_layer",
        ),
        ("nn.encoder_self_us", "nn.encoder_infer"),
    ] {
        put_median(metrics, metric, &span_us(spans, span, true, clock));
    }
    put(
        metrics,
        "session.energy_per_sentence_uj",
        Measured::exact(energy_j * 1e6 / sample.len().max(1) as f64),
    );
}

/// Allocator calls per step, per layer and per encoder pass, counted
/// over plain loops with no spans in them.
fn alloc_rung(runtime: &MultiTaskRuntime, sample: &[Req], metrics: &mut Metrics) {
    let mut steps = 0u64;
    let ((), step_calls, _) = alloc::during(|| {
        for req in sample {
            let mut session = task_runtime(runtime, req.task).engine().begin(&req.request);
            while !session.is_complete() {
                session.step();
                steps += 1;
            }
        }
    });
    let mut layers = 0u64;
    let mut forward_calls = 0;
    let mut encoder_calls = 0;
    for req in sample {
        let model = model_of(runtime, req.task);
        let mut forward = model.begin_forward(&req.request.tokens);
        let hidden = model.embedding.embed(&req.request.tokens);
        let ((), calls, _) = alloc::during(|| {
            model.forward_next_layer(&mut forward);
        });
        forward_calls += calls;
        let ((), calls, _) = alloc::during(|| {
            black_box(model.encoder.infer(&hidden));
        });
        encoder_calls += calls;
        layers += 1;
    }
    let per = |calls: u64, n: u64| Measured::exact(calls as f64 / n.max(1) as f64);
    put(metrics, "session.allocs_per_step", per(step_calls, steps));
    put(
        metrics,
        "model.forward_next_layer_allocs",
        per(forward_calls, layers),
    );
    put(
        metrics,
        "nn.encoder_infer_allocs",
        per(encoder_calls, layers),
    );
}

/// Two closed loops of `sample` through a fresh `server`: one untimed,
/// so that its new threads have touched their stacks and allocator
/// arenas, then the timed one. Returns calibrated requests per second.
fn closed_loop_rps(
    server: Server,
    sample: &[Req],
    tracer: &mut Tracer,
    clock: &mut HostClock,
) -> (f64, Server) {
    let mut front = Front::Server(server);
    front.run_block(Driver::Closed, sample, &mut Tracer::disabled());
    let (run, speed) = clock.around(|| front.run_block(Driver::Closed, sample, tracer));
    let Front::Server(server) = front else {
        unreachable!("the front end was built as a server")
    };
    (run.rate_rps * speed, server)
}

/// `server` and `telemetry`: the sample through a default server, closed
/// loop, with telemetry off and on in turn.
fn server_rung(
    runtime: &MultiTaskRuntime,
    sample: &[Req],
    tracer: &mut Tracer,
    clock: &mut HostClock,
    metrics: &mut Metrics,
) {
    let first = tracer.spans().len();
    let speed = clock.sample();
    let start = Instant::now();
    let server = Server::start(runtime, ServerConfig::default());
    put(
        metrics,
        "server.start_ms",
        Measured::exact(start.elapsed().as_secs_f64() * 1e3 / speed),
    );
    let (_, server) = closed_loop_rps(server, sample, tracer, clock);
    let speed = clock.sample();
    let start = Instant::now();
    server.shutdown();
    put(
        metrics,
        "server.shutdown_ms",
        Measured::exact(start.elapsed().as_secs_f64() * 1e3 / speed),
    );

    let spans = &tracer.spans()[first..];
    put_median(
        metrics,
        "server.submit_us",
        &span_us(spans, "server.submit", false, clock),
    );
    put_median(
        metrics,
        "server.wait_us",
        &span_us(spans, "server.wait", false, clock),
    );
    // What the server adds to a request: its closed-loop latency minus
    // the direct `engine.serve` of the same request in the replay rung
    // (both with every CPU busy, so the difference is the server's).
    let by_request = |spans: &[Span], name: &str| -> std::collections::BTreeMap<u64, f64> {
        let ids = spans.iter().filter(|s| s.name == name).map(|s| s.request);
        ids.zip(span_us(spans, name, false, clock)).collect()
    };
    let through = by_request(spans, "request");
    let direct = by_request(tracer.spans(), "engine.serve");
    let overhead: Vec<f64> = through
        .iter()
        .filter_map(|(id, us)| Some(us - direct.get(id)?))
        .collect();
    put_median(metrics, "server.overhead_us", &overhead);

    let mut off = Vec::new();
    let mut on = Vec::new();
    let mut untraced = Tracer::disabled();
    let with_telemetry = ServerConfig {
        telemetry: Some(TelemetryConfig::default()),
        ..ServerConfig::default()
    };
    for pair in 0..TELEMETRY_PAIRS {
        let server = Server::start(runtime, ServerConfig::default());
        let (rps, server) = closed_loop_rps(server, sample, &mut untraced, clock);
        off.push(rps);
        server.shutdown();

        let server = Server::start(runtime, with_telemetry);
        let (rps, server) = closed_loop_rps(server, sample, &mut untraced, clock);
        on.push(rps);
        if pair + 1 == TELEMETRY_PAIRS {
            let speed = clock.sample();
            let start = Instant::now();
            let snapshot = server.telemetry_snapshot();
            let snapshot_ms = start.elapsed().as_secs_f64() * 1e3 / speed;
            let (events, dropped) =
                snapshot.map_or((0, 0), |s| (s.events.len() as u64, s.dropped_events));
            put(
                metrics,
                "telemetry.snapshot_ms",
                Measured::exact(snapshot_ms),
            );
            put(
                metrics,
                "telemetry.ring_dropped",
                Measured::exact(dropped as f64),
            );
            put(
                metrics,
                "telemetry.events_per_request",
                // The server saw the sample twice: warm-up and timed.
                Measured::exact((events + dropped) as f64 / (2 * sample.len()).max(1) as f64),
            );
        }
        server.shutdown();
    }
    put(
        metrics,
        "telemetry.overhead_share",
        Measured::of(1.0 - median(&on) / median(&off), TELEMETRY_PAIRS),
    );
}

/// `lane`: one burst of the whole block through a burst-configured
/// server, and what its lanes counted.
fn burst_rung(
    runtime: &MultiTaskRuntime,
    block: &[Req],
    clock: &mut HostClock,
    metrics: &mut Metrics,
) {
    let cfg = server_config(Driver::Burst, block.len()).expect("burst runs on a server");
    let mut front = Front::Server(Server::start(runtime, cfg));
    let (run, speed) =
        clock.around(|| front.run_block(Driver::Burst, block, &mut Tracer::disabled()));
    let stats = front.shutdown().expect("a server reports its counters");
    let mut modeled = Modeled::default();
    modeled.fold(block, &run);
    let sum = |f: &dyn Fn(&edgebert::LaneStats) -> u64| stats.lanes.iter().map(f).sum::<u64>();
    put(
        metrics,
        "server.burst_submit_rps",
        Measured::exact(block.len() as f64 / run.submit_s * speed),
    );
    put(
        metrics,
        "lane.queue_high_water",
        Measured::exact(
            stats
                .lanes
                .iter()
                .map(|l| l.queue_high_water)
                .max()
                .unwrap_or(0) as f64,
        ),
    );
    put(
        metrics,
        "lane.queue_delay_p50_us",
        Measured::exact(modeled.queue_delay_p50_s() * 1e6 / speed),
    );
    put(
        metrics,
        "lane.preempted",
        Measured::exact(sum(&|l| l.preempted) as f64),
    );
    put(
        metrics,
        "lane.resumed",
        Measured::exact(sum(&|l| l.resumed) as f64),
    );
    put(
        metrics,
        "lane.rejected",
        Measured::exact(sum(&|l| l.rejected) as f64),
    );
}

/// `scheduler`: the whole block drained on the virtual timeline, against
/// a direct serve of the same requests; the difference is what the
/// replay loop itself costs.
fn scheduler_rung(
    runtime: &MultiTaskRuntime,
    block: &[Req],
    tracer: &mut Tracer,
    clock: &mut HostClock,
    metrics: &mut Metrics,
) {
    let first = tracer.spans().len();
    let mut front = Front::Scheduler(DeadlineScheduler::new(runtime, scheduler_config()));
    let mut drain_s = Vec::new();
    let mut serve_s = Vec::new();
    let mut modeled = Modeled::default();
    for repeat in 0..DRAIN_REPEATS {
        // Spans of the first drain only: the repeats would triple them.
        let mut untraced = Tracer::disabled();
        let t = if repeat == 0 {
            &mut *tracer
        } else {
            &mut untraced
        };
        let (run, speed) = clock.around(|| front.run_block(Driver::Drain, block, t));
        drain_s.push((run.wall_s - run.submit_s) / speed);
        if repeat == 0 {
            modeled.fold(block, &run);
        }
        let ((), seconds) = clock.time(|| {
            for req in block {
                black_box(task_runtime(runtime, req.task).serve(&req.request));
            }
        });
        serve_s.push(seconds);
    }
    let spans = &tracer.spans()[first..];
    put_median(
        metrics,
        "scheduler.submit_us",
        &span_us(spans, "scheduler.submit", false, clock),
    );
    put_median(metrics, "scheduler.drain_s", &drain_s);
    let replay_self_s = median(&drain_s) - median(&serve_s);
    put(
        metrics,
        "scheduler.replay_self_s",
        Measured::of(replay_self_s, DRAIN_REPEATS),
    );
    put(
        metrics,
        "scheduler.replay_self_share",
        Measured::of(replay_self_s / median(&drain_s), DRAIN_REPEATS),
    );
    for (i, u) in ["u40", "u70", "u100"].into_iter().enumerate() {
        put(
            metrics,
            &format!("scheduler.violation_share_{u}"),
            Measured::exact(modeled.plateau_violation_share(i)),
        );
        put(
            metrics,
            &format!("scheduler.energy_uj_{u}"),
            Measured::exact(modeled.plateau_energy_uj(i)),
        );
    }
    put(
        metrics,
        "scheduler.queue_delay_p50_ms",
        Measured::exact(modeled.queue_delay_p50_s() * 1e3),
    );
}

/// Runs every rung over `block` (block 0 of the workload) and returns
/// the per-layer metrics; the spans land in `tracer`.
///
/// `tracer` and `clock` must count from the same epoch: a span is
/// calibrated by the host's speed at the time it started.
pub fn climb(
    runtime: &MultiTaskRuntime,
    block: &[Req],
    seed: u64,
    tracer: &mut Tracer,
    clock: &mut HostClock,
) -> Metrics {
    let mut metrics = Metrics::new();
    let sample = &block[..block.len().min(LADDER_SAMPLE)];
    // These rungs run on this thread alone: the other CPUs are kept
    // busy meanwhile, as they are in everything else measured here.
    clock.load_siblings(true);
    if let Some(first) = sample.first() {
        let cfg = model_of(runtime, first.task).config;
        tensor_rung(&cfg, seed, clock, &mut metrics);
    }
    hw_rung(runtime, sample, clock, &mut metrics);
    replay_rung(runtime, sample, tracer, clock, &mut metrics);
    alloc_rung(runtime, sample, &mut metrics);
    // These keep the CPUs busy themselves.
    clock.load_siblings(false);
    server_rung(runtime, sample, tracer, clock, &mut metrics);
    burst_rung(runtime, block, clock, &mut metrics);
    clock.load_siblings(true);
    scheduler_rung(runtime, block, tracer, clock, &mut metrics);
    clock.load_siblings(false);
    metrics
}
