//! Determinism properties of the load generators: every generator is
//! reproducible for identical `(spec, seed)`, and the *physical*
//! arrival stream — task, tokens, arrival time, latency target — is
//! invariant under permutation of the traffic-class declaration order
//! (only the reported class indices permute). The same holds for the
//! trace-driven generator, whose segments additionally respect their
//! per-segment class-mix overrides and segment boundaries.

use edgebert::pipeline::{Scale, TaskArtifacts};
use edgebert::serving::{MultiTaskRuntime, TaskRuntime};
use edgebert_bench::load::{
    generate, generate_paced_streams, generate_trace, LoadRequest, LoadSpec, TraceSegment,
    TraceSpec, TrafficClass,
};
use edgebert_tasks::Task;
use proptest::prelude::*;
use std::sync::OnceLock;

fn runtime() -> &'static MultiTaskRuntime {
    static CELL: OnceLock<MultiTaskRuntime> = OnceLock::new();
    CELL.get_or_init(|| {
        MultiTaskRuntime::from_runtimes([
            TaskRuntime::from_artifacts(&TaskArtifacts::cached(Task::Sst2, Scale::Test, 0x70AD)),
            TaskRuntime::from_artifacts(&TaskArtifacts::cached(Task::Qnli, Scale::Test, 0x70AE)),
        ])
    })
}

/// Three distinguishable classes (unique names and latency targets, so
/// the canonical order is unambiguous): one task-bound pair plus one
/// unbound tier that round-robins across tasks.
fn classes(w0: f32, w1: f32, w2: f32) -> Vec<TrafficClass> {
    vec![
        TrafficClass {
            name: "tight",
            latency_target_s: 20e-3,
            weight: w0,
            task: Some(Task::Sst2),
        },
        TrafficClass {
            name: "mid",
            latency_target_s: 60e-3,
            weight: w1,
            task: Some(Task::Qnli),
        },
        TrafficClass {
            name: "loose",
            latency_target_s: 150e-3,
            weight: w2,
            task: None,
        },
    ]
}

/// All 6 permutations of 3 classes.
const PERMS: [[usize; 3]; 6] = [
    [0, 1, 2],
    [0, 2, 1],
    [1, 0, 2],
    [1, 2, 0],
    [2, 0, 1],
    [2, 1, 0],
];

fn permuted(classes: &[TrafficClass], perm: &[usize; 3]) -> Vec<TrafficClass> {
    perm.iter().map(|&i| classes[i].clone()).collect()
}

/// Asserts two generated loads describe the same physical traffic:
/// same tasks, tokens, bit-identical arrivals and latency targets at
/// every position, with class indices agreeing through the class
/// tables (names are unique per mix).
fn assert_same_physical(
    a: &[LoadRequest],
    ca: &[TrafficClass],
    b: &[LoadRequest],
    cb: &[TrafficClass],
) {
    assert_eq!(a.len(), b.len(), "stream lengths differ");
    for (ra, rb) in a.iter().zip(b) {
        assert_eq!(ra.task, rb.task);
        assert_eq!(ra.arrival_s.to_bits(), rb.arrival_s.to_bits());
        assert_eq!(ra.request.tokens, rb.request.tokens);
        assert_eq!(ra.request.latency_target_s, rb.request.latency_target_s);
        assert_eq!(
            ca[ra.class].name, cb[rb.class].name,
            "class identity must survive the index remap"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// `generate` is a pure function of `(spec, seed)` and its traffic
    /// is independent of class declaration order.
    #[test]
    fn poisson_mix_is_reproducible_and_order_independent(
        seed in 0u64..1_000_000,
        requests in 8usize..48,
        mean_ms in 1.0f64..40.0,
        w0 in 0.1f32..4.0,
        w1 in 0.1f32..4.0,
        w2 in 0.1f32..4.0,
        perm in 0usize..6,
    ) {
        let base = classes(w0, w1, w2);
        let spec = LoadSpec {
            requests,
            mean_interarrival_s: mean_ms * 1e-3,
            classes: base.clone(),
            seed,
        };
        let once = generate(runtime(), &spec);
        let again = generate(runtime(), &spec);
        assert_same_physical(&once, &base, &again, &base);

        let shuffled = permuted(&base, &PERMS[perm]);
        let spec_p = LoadSpec { classes: shuffled.clone(), ..spec };
        let other = generate(runtime(), &spec_p);
        assert_same_physical(&once, &base, &other, &shuffled);
    }

    /// Same contract for the fixed-cadence streams (weights are unused
    /// there; phases follow the canonical order).
    #[test]
    fn paced_streams_are_reproducible_and_order_independent(
        seed in 0u64..1_000_000,
        per_class in 2usize..16,
        gap_ms in 2.0f64..50.0,
        perm in 0usize..6,
    ) {
        // Paced streams require task-bound classes.
        let mut base = classes(1.0, 1.0, 1.0);
        base[2].task = Some(Task::Sst2);
        let once = generate_paced_streams(runtime(), &base, gap_ms * 1e-3, per_class, seed);
        let again = generate_paced_streams(runtime(), &base, gap_ms * 1e-3, per_class, seed);
        assert_same_physical(&once, &base, &again, &base);

        let shuffled = permuted(&base, &PERMS[perm]);
        let other = generate_paced_streams(runtime(), &shuffled, gap_ms * 1e-3, per_class, seed);
        assert_same_physical(&once, &base, &other, &shuffled);
    }

    /// Trace-driven generation: reproducible, order-independent, and
    /// physically well-formed (arrivals nondecreasing, inside the
    /// trace's total duration, with the arrival count tracking the
    /// integrated rate).
    #[test]
    fn traces_are_reproducible_and_order_independent(
        seed in 0u64..1_000_000,
        base_hz in 40.0f64..150.0,
        spike_mult in 2.0f64..6.0,
        perm in 0usize..6,
    ) {
        let base = classes(1.0, 1.0, 1.0);
        let spec = TraceSpec::flash_crowd(
            base.clone(), seed, base_hz, spike_mult * base_hz, 0.2, 0.3, 0.2,
        );
        let once = generate_trace(runtime(), &spec);
        let again = generate_trace(runtime(), &spec);
        assert_same_physical(&once, &base, &again, &base);

        let shuffled = permuted(&base, &PERMS[perm]);
        let spec_p = TraceSpec {
            classes: shuffled.clone(),
            segments: spec.segments.clone(),
            seed,
        };
        let other = generate_trace(runtime(), &spec_p);
        assert_same_physical(&once, &base, &other, &shuffled);

        let total_s = 0.2 + 0.3 + 0.2;
        let mut prev = 0.0f64;
        for r in &once {
            prop_assert!(r.arrival_s >= prev && r.arrival_s <= total_s);
            prev = r.arrival_s;
        }
        // Poisson count concentrates around the integrated rate; allow
        // a wide band (±60%) so the property never flakes.
        let expected = spec.expected_requests();
        prop_assert!(
            (once.len() as f64) > 0.4 * expected && (once.len() as f64) < 1.6 * expected,
            "got {} arrivals, expected ~{:.0}",
            once.len(),
            expected
        );
    }

    /// Per-segment class-weight overrides hold exactly: a segment that
    /// zeroes a class's weight draws none of it inside its window, and
    /// ramps that integrate to (near) zero measure emit (near) nothing.
    #[test]
    fn trace_segments_respect_their_class_mix(
        seed in 0u64..1_000_000,
        rate_hz in 60.0f64..200.0,
    ) {
        let base = classes(1.0, 1.0, 1.0);
        let spec = TraceSpec {
            classes: base.clone(),
            segments: vec![
                TraceSegment::steady("mixed", 0.25, rate_hz),
                // The crowd: all weight on the tight class.
                TraceSegment {
                    class_weights: Some(vec![1.0, 0.0, 0.0]),
                    ..TraceSegment::steady("crowd", 0.25, rate_hz)
                },
            ],
            seed,
        };
        let load = generate_trace(runtime(), &spec);
        for r in &load {
            if r.arrival_s > 0.25 {
                // Zero-weight classes must not appear in the crowd
                // segment.
                prop_assert_eq!(base[r.class].name, "tight");
            }
        }
        // A ramp down to zero has half the steady segment's measure.
        let ramp = TraceSpec {
            classes: base.clone(),
            segments: vec![TraceSegment::ramp("fall", 0.25, rate_hz, 0.0)],
            seed,
        };
        let falling = generate_trace(runtime(), &ramp);
        prop_assert!(
            (falling.len() as f64) < 0.25 * rate_hz * 0.85,
            "a falling ramp must thin out: {} arrivals at steady-equivalent {:.0}",
            falling.len(),
            0.25 * rate_hz
        );
    }
}

/// FNV-1a over everything a gate's traffic consists of: task, tokens,
/// arrival bits, latency-target bits and class index of every request,
/// in stream order.
fn stream_digest(load: &[LoadRequest]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |x: u64| {
        for b in x.to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for r in load {
        eat(r.task as u64);
        eat(r.request.tokens.len() as u64);
        for &t in &r.request.tokens {
            eat(t as u64);
        }
        eat(r.arrival_s.to_bits());
        eat(r.request.latency_target_s.expect("class target").to_bits());
        eat(r.class as u64);
    }
    h
}

/// The streams themselves, not just their reproducibility: one digest
/// per generator at one fixed spec, recorded before PR 17 touched
/// `load.rs`. A refactor of the generators that moves any of these
/// changed the traffic every serving gate is judged on.
#[test]
fn generated_streams_are_pinned() {
    let base = classes(1.0, 2.0, 1.5);
    let poisson = generate(
        runtime(),
        &LoadSpec {
            requests: 64,
            mean_interarrival_s: 7e-3,
            classes: base.clone(),
            seed: 0xD16E,
        },
    );
    assert_eq!(poisson.len(), 64);
    assert_eq!(stream_digest(&poisson), 0x3b36_a3e8_3921_c7bd, "generate");

    let mut bound = base.clone();
    bound[2].task = Some(Task::Sst2);
    let paced = generate_paced_streams(runtime(), &bound, 9e-3, 16, 0xD16E);
    assert_eq!(paced.len(), 48);
    assert_eq!(
        stream_digest(&paced),
        0xf280_085f_f63b_d429,
        "generate_paced_streams"
    );

    let trace = generate_trace(
        runtime(),
        &TraceSpec {
            classes: base,
            segments: vec![
                TraceSegment::steady("base", 0.2, 80.0),
                TraceSegment {
                    class_weights: Some(vec![3.0, 1.0, 0.5]),
                    ..TraceSegment::ramp("rise", 0.2, 80.0, 300.0)
                },
                TraceSegment::ramp("fall", 0.2, 300.0, 0.0),
            ],
            seed: 0xD16E,
        },
    );
    assert_eq!(
        stream_digest(&trace),
        0xd875_6c08_7a81_ae2c,
        "generate_trace"
    );
}
