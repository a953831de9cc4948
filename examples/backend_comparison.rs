//! Cross-backend comparison: the EdgeBERT accelerator vs. the
//! TX2-class mobile-GPU baseline behind the same `InferenceBackend`
//! seam, costing the *same* task-optimized workload.
//!
//! Two views, matching the paper's comparative claims:
//!
//! * **Per-sentence** — latency and energy per inference mode on each
//!   backend (the Fig. 8 energy gap, here produced end to end through
//!   the engine rather than by a side-channel cost call);
//! * **Tail under load** — the same mixed-deadline EDF drain on both
//!   backends: the fixed-V/F GPU both burns more energy *and* blows
//!   far more tight deadlines at a load the accelerator absorbs.
//!
//! ```text
//! cargo run --release --example backend_comparison
//! ```

use edgebert::backend::BackendSpec;
use edgebert::engine::InferenceMode;
use edgebert::pipeline::{Scale, TaskArtifacts};
use edgebert::scheduler::{SchedulePolicy, SchedulerConfig};
use edgebert::serving::{MultiTaskRuntime, TaskRuntime};
use edgebert_bench::load::{
    class_reports, drain_load, estimate_service_s, generate, render_comparison_labeled, LoadSpec,
    TrafficClass,
};
use edgebert_hw::MobileGpu;
use edgebert_tasks::Task;

fn backend_runtime(art: &TaskArtifacts, spec: BackendSpec) -> MultiTaskRuntime {
    let builder = art
        .engine_builder()
        .workload(art.hardware_workload(true))
        .backend(spec);
    MultiTaskRuntime::from_runtimes([TaskRuntime::from_builder(art.task, builder)])
}

fn main() {
    let art = TaskArtifacts::build(Task::Sst2, Scale::Test, 0xBE9C);
    let accel = backend_runtime(&art, BackendSpec::Accelerator);
    let gpu = backend_runtime(&art, BackendSpec::MobileGpu(MobileGpu::default()));

    // Per-sentence comparison, per mode.
    println!(
        "per-sentence cost on the task-optimized {} workload:",
        art.task
    );
    println!(
        "{:<16} {:<12} {:>12} {:>12}",
        "mode", "backend", "latency", "energy"
    );
    let mut base_energy_ratio = 0.0;
    for mode in InferenceMode::all() {
        let mut energies = [0.0f64; 2];
        for (i, rt) in [&accel, &gpu].into_iter().enumerate() {
            let eng = rt.runtime(art.task).expect("served").engine();
            let agg = eng.evaluate(&art.dev, mode);
            energies[i] = agg.avg_energy_j;
            println!(
                "{:<16} {:<12} {:>9.3} ms {:>9.3} mJ",
                format!("{mode:?}"),
                eng.backend().name(),
                agg.avg_latency_s * 1e3,
                agg.avg_energy_j * 1e3,
            );
        }
        if mode == InferenceMode::Base {
            base_energy_ratio = energies[1] / energies[0];
        }
    }
    println!("base-mode energy gap: {base_energy_ratio:.0}x\n");
    assert!(
        base_energy_ratio > 10.0,
        "the paper's orders-of-magnitude energy gap must survive the backend seam \
         (got {base_energy_ratio:.1}x)"
    );

    // Tail comparison: identical mixed-deadline load, EDF drain, with
    // deadlines sized to the accelerator's service time.
    let service_s = estimate_service_s(&accel, 0xBAC0);
    let spec = LoadSpec {
        requests: 80,
        mean_interarrival_s: service_s * 1.3,
        classes: vec![
            TrafficClass {
                name: "tight",
                latency_target_s: service_s * 3.0,
                weight: 0.4,
                task: None,
            },
            TrafficClass {
                name: "relaxed",
                latency_target_s: service_s * 25.0,
                weight: 0.6,
                task: None,
            },
        ],
        seed: 0xBAC1,
    };
    let load = generate(&accel, &spec);
    let cfg = SchedulerConfig {
        workers: 1,
        max_batch: 8,
        policy: SchedulePolicy::EarliestDeadline,
        task_switch_s: 0.0,
        queue_aware_slack: false,
    };
    let accel_out = drain_load(&accel, &load, cfg);
    let gpu_out = drain_load(&gpu, &load, cfg);
    let accel_rows = class_reports(&load, &accel_out, &spec.classes);
    let gpu_rows = class_reports(&load, &gpu_out, &spec.classes);
    println!(
        "EDF drain of {} requests (mean inter-arrival {:.2} ms, deadlines sized to the \
         accelerator):\n",
        spec.requests,
        spec.mean_interarrival_s * 1e3,
    );
    println!(
        "{}",
        render_comparison_labeled("accel", &accel_rows, "mgpu", &gpu_rows)
    );
    let (tight_accel, tight_gpu) = (&accel_rows[0].1, &gpu_rows[0].1);
    assert!(
        tight_gpu.violation_rate >= tight_accel.violation_rate,
        "the fixed-V/F baseline cannot beat the accelerator on deadlines sized to the \
         accelerator (accel {:.1}% vs mgpu {:.1}%)",
        tight_accel.violation_rate * 100.0,
        tight_gpu.violation_rate * 100.0,
    );
}
