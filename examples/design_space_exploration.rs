//! Design-space exploration of the accelerator (paper Fig. 8).
//!
//! Sweeps the PU MAC vector size and prints per-sentence latency/energy
//! for full 12-layer ALBERT-base inference, with and without adaptive
//! attention span and compressed sparse execution, against the Jetson
//! TX2 mobile-GPU baseline. No model training required — this exercises
//! the hardware model alone.
//!
//! ```text
//! cargo run --release --example design_space_exploration
//! ```

use edgebert::backend::{InferenceBackend, MobileGpuBackend};
use edgebert_hw::report::AreaPowerReport;
use edgebert_hw::{AcceleratorConfig, AcceleratorSim, MobileGpu, WorkloadParams};
use edgebert_tasks::Task;

fn main() {
    println!("== EdgeBERT accelerator design-space exploration ==\n");
    let task = Task::Mnli;
    let base = WorkloadParams::albert_base();
    let optimized = WorkloadParams::albert_base()
        .with_optimizations(task.paper_encoder_sparsity(), &task.paper_head_spans());

    println!(
        "{:<4} {:>12} {:>12} {:>14} {:>12} {:>10}",
        "n", "latency", "energy", "opt. latency", "opt. energy", "area"
    );
    let mut best: Option<(usize, f64)> = None;
    for n in [2usize, 4, 8, 16, 32] {
        let cfg = AcceleratorConfig::with_mac_vector_size(n);
        let sim = AcceleratorSim::new(cfg);
        let cost = sim.run_layers_nominal(&sim.layer_workload(&base), 12);
        let opt = sim.run_layers_nominal(&sim.layer_workload(&optimized), 12);
        let area = AreaPowerReport::at_config(&cfg).total_area_mm2();
        println!(
            "{:<4} {:>9.2} ms {:>9.2} mJ {:>11.2} ms {:>9.2} mJ {:>7.2} mm²",
            n,
            cost.seconds * 1e3,
            cost.energy_j * 1e3,
            opt.seconds * 1e3,
            opt.energy_j * 1e3,
            area,
        );
        if best.is_none() || opt.energy_j < best.unwrap().1 {
            best = Some((n, opt.energy_j));
        }
    }
    let (best_n, _) = best.expect("sweep is non-empty");
    println!("\nenergy-optimal MAC vector size: n = {best_n} (paper: n = 16)");

    // The baseline rows go through the backend on the *same* workload
    // the accelerator costs, so the AAS FLOP reduction transfers to
    // the GPU (sparsity does not — dense kernels can't exploit it) and
    // the comparison is apples to apples.
    let backend = InferenceBackend::mobile_gpu(MobileGpuBackend::from_workload(
        MobileGpu::tegra_x2(),
        &optimized,
    ));
    let gpu = backend.mobile_gpu_baseline().expect("built on the mGPU");
    let gpu_full = gpu.full_inference(12);
    let sim16 = AcceleratorSim::new(AcceleratorConfig::energy_optimal());
    let acc = sim16.run_layers_nominal(&sim16.layer_workload(&optimized), 12);
    println!(
        "vs Jetson TX2 ({} backend, AAS FLOP scale {:.2}): {:.0} ms / {:.0} mJ per sentence \
         -> accelerator is {:.0}x more energy-efficient",
        backend.name(),
        gpu.flop_scale(),
        gpu_full.seconds * 1e3,
        gpu_full.energy_j * 1e3,
        gpu_full.energy_j / acc.energy_j,
    );
}
