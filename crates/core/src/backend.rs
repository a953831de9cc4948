//! Hardware backends behind one cost-accounting API.
//!
//! [`EdgeBertEngine`](crate::engine::EdgeBertEngine) runs the paper's
//! algorithms (early exit, exit-layer prediction, sentence-level DVFS)
//! against *some* hardware platform. The paper's headline claims are
//! comparative — the EdgeBERT accelerator vs. an Nvidia TX2 mobile-GPU
//! baseline — so the platform must be swappable without the baseline
//! quietly costing a different workload than the engine it is compared
//! against. [`InferenceBackend`] is that seam: it covers the per-layer
//! workload costing, segment execution at an operating point, the
//! nominal/floor operating points, the DVFS decision, and every
//! fixed per-sentence cost (wake transition, embedding read, launch
//! overhead). There is one decider, [`InferenceBackend::decide`]: the
//! power envelope rides in as a plain `cap_w`, and an infinite cap is
//! the uncapped decision bit for bit.
//!
//! Two platforms ship, one constructor each:
//!
//! * [`InferenceBackend::accelerator`] — the paper's 12 nm accelerator:
//!   [`AcceleratorSim`] op-level costing, per-sentence DVFS through
//!   [`DvfsController`], LDO/ADPLL transition accounting, and the eNVM
//!   ReRAM embedding buffer. This is the default, and its outputs are
//!   bit-identical to the pre-backend engine (pinned by
//!   `tests/backend_equivalence.rs`).
//! * [`InferenceBackend::mobile_gpu`] over a [`MobileGpuBackend`] — the
//!   TX2-class comparison baseline: fixed V/F (no DVFS capability,
//!   [`InferenceBackend::can_scale`] is `false`), costs derived from
//!   the measured [`MobileGpu`] anchor, with the AAS FLOP-scale factor
//!   derived from the *same* [`WorkloadParams`] the engine is wired
//!   with — so comparison rows can no longer disagree with the engine
//!   about what is being priced.
//!
//! [`BackendSpec`] names the two. Every per-sentence constant is
//! computed once, when the backend is built; only segment costing,
//! the decision, the transition to a decided point and the envelope
//! slowdown ask which platform it is.

use edgebert_envm::{CellTech, ReramArray};
use edgebert_hw::memory::sentence_embedding_bits;
use edgebert_hw::workload::EncoderWorkload;
use edgebert_hw::{
    AcceleratorConfig, AcceleratorSim, Adpll, DvfsController, Ldo, MobileGpu, WorkloadParams,
};
use serde::{Deserialize, Serialize};

/// A `(voltage, frequency)` operating point chosen for an inference
/// segment, plus whether the deadline that produced it is achievable.
/// Serializes (serde) so a parked session's DVFS state can travel in a
/// [`SessionCheckpoint`](crate::session::SessionCheckpoint).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OperatingPoint {
    /// Supply voltage, volts.
    pub voltage: f32,
    /// Clock frequency, Hz.
    pub freq_hz: f64,
    /// Whether the latency budget behind this decision is achievable.
    pub feasible: bool,
}

/// Latency and energy of one costed segment (layers, an embedding read,
/// or a fixed overhead).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SegmentCost {
    /// Wall-clock time, seconds.
    pub seconds: f64,
    /// Energy, joules.
    pub energy_j: f64,
}

impl SegmentCost {
    /// A free segment.
    pub const ZERO: SegmentCost = SegmentCost {
        seconds: 0.0,
        energy_j: 0.0,
    };
}

/// The hardware platform an [`EdgeBertEngine`](crate::engine::EdgeBertEngine)
/// costs inferences against.
///
/// The engine owns the algorithms (software forward pass, entropy
/// thresholds, exit-layer forecast) and drives the backend for every
/// hardware number: per-layer work, segment latency/energy at an
/// operating point, V/F decisions, and fixed per-sentence costs. A
/// backend that cannot scale V/F ([`can_scale`](Self::can_scale) is
/// `false`) still serves latency-aware requests — its
/// [`decide`](Self::decide) pins the nominal point and reports
/// feasibility against the fixed clock, so the engine degrades
/// gracefully to nominal-only scheduling.
#[derive(Debug)]
pub struct InferenceBackend {
    platform: Platform,
    layer_cycles: u64,
    nominal: OperatingPoint,
    floor: OperatingPoint,
    floor_transition_s: f64,
    wake_transition_s: f64,
    sentence_overhead: SegmentCost,
    embedding_read_cost: SegmentCost,
    nominal_power_w: f64,
    floor_power_w: f64,
}

/// What the platform rules consult at call time.
#[derive(Debug)]
enum Platform {
    Accelerator {
        sim: AcceleratorSim,
        dvfs: DvfsController,
        layer: EncoderWorkload,
    },
    MobileGpu(MobileGpuBackend),
}

impl InferenceBackend {
    /// The paper's accelerator platform for an accelerator design
    /// point, a workload, and the eNVM cell technology backing the
    /// ReRAM embedding buffer.
    pub fn accelerator(
        accel: AcceleratorConfig,
        workload: &WorkloadParams,
        cell_tech: CellTech,
        envm_capacity_mb: f64,
    ) -> Self {
        let sim = AcceleratorSim::new(accel);
        let layer = sim.layer_workload(workload);
        let dvfs = DvfsController::new(accel);
        let cfg = *sim.config();
        // Sustained compute power at nominal V/F: average power of a
        // nominal-point layer run. Layers are homogeneous, so one layer
        // prices the same watts as full depth; fleet energy budgets
        // are sized relative to this anchor.
        let nominal_cost = sim.run_layers(&layer, 1, accel.vdd_nominal, accel.freq_max_hz);
        let nominal_power_w = nominal_cost.energy_j / nominal_cost.seconds;
        let floor = OperatingPoint {
            voltage: cfg.vdd_min,
            freq_hz: dvfs.vf_table().freq_at_voltage(cfg.vdd_min),
            feasible: true,
        };
        let ldo = Ldo::new(cfg.vdd_standby);
        let pll = Adpll::new(cfg.freq_max_hz);
        let rram = ReramArray::new(cell_tech, envm_capacity_mb);
        let embed_bits = sentence_embedding_bits(workload.seq_len, 128, 0.4);
        Self {
            layer_cycles: layer.cycles(),
            nominal: OperatingPoint {
                voltage: cfg.vdd_nominal,
                freq_hz: cfg.freq_max_hz,
                feasible: true,
            },
            floor,
            floor_transition_s: dvfs.floor_transition_s(),
            wake_transition_s: ldo.transition_time_ns(cfg.vdd_standby, cfg.vdd_nominal) * 1e-9
                + pll.relock_ns() * 1e-9,
            sentence_overhead: SegmentCost::ZERO,
            embedding_read_cost: SegmentCost {
                seconds: rram.read_latency_ns(embed_bits) * 1e-9,
                energy_j: rram.read_energy_pj(embed_bits) * 1e-12,
            },
            nominal_power_w,
            floor_power_w: nominal_power_w * dvfs.relative_power(floor.voltage, floor.freq_hz),
            platform: Platform::Accelerator { sim, dvfs, layer },
        }
    }

    /// The mobile-GPU comparison baseline (see [`MobileGpuBackend`]).
    /// Fixed rail: the board draws its measured effective power
    /// whenever it computes, so the floor point and draw are the
    /// nominal ones.
    pub fn mobile_gpu(gpu: MobileGpuBackend) -> Self {
        let nominal = OperatingPoint {
            voltage: MGPU_RAIL_V,
            freq_hz: MGPU_VIRTUAL_HZ,
            feasible: true,
        };
        let overhead_s = gpu.gpu.effective_overhead_s();
        let power_w = gpu.gpu.effective_power_w();
        Self {
            layer_cycles: gpu.layer_cycles,
            nominal,
            floor: nominal,
            floor_transition_s: 0.0,
            wake_transition_s: 0.0,
            sentence_overhead: SegmentCost {
                seconds: overhead_s,
                energy_j: overhead_s * power_w,
            },
            embedding_read_cost: SegmentCost::ZERO,
            nominal_power_w: power_w,
            floor_power_w: power_w,
            platform: Platform::MobileGpu(gpu),
        }
    }

    /// Short human-readable backend name for reports and benches.
    pub fn name(&self) -> &'static str {
        match self.platform {
            Platform::Accelerator { .. } => "accelerator",
            Platform::MobileGpu(_) => "mobile-gpu",
        }
    }

    /// Work units (clock cycles on the backend's clock) of one encoder
    /// layer of the wired workload. The engine multiplies this by the
    /// forecast remaining depth when asking for a DVFS decision.
    pub fn layer_cycles(&self) -> u64 {
        self.layer_cycles
    }

    /// Whether the backend can move its V/F operating point per
    /// sentence. Fixed-point backends never transition, and their
    /// [`decide`](Self::decide) holds the nominal point.
    pub fn can_scale(&self) -> bool {
        matches!(self.platform, Platform::Accelerator { .. })
    }

    /// The nominal (maximum-performance) operating point. No budget
    /// produced it, so it is `feasible`: a sentence that ends before
    /// any DVFS decision is judged on its sojourn alone.
    pub fn nominal(&self) -> OperatingPoint {
        self.nominal
    }

    /// The floor (minimum-energy) operating point. Equals
    /// [`nominal`](Self::nominal) on fixed-V/F backends.
    pub fn floor(&self) -> OperatingPoint {
        self.floor
    }

    /// Worst-case time to transition from nominal to the floor point,
    /// seconds — the reserve the engine subtracts from a latency budget
    /// before asking for a decision. Zero on fixed-V/F backends.
    pub fn floor_transition_s(&self) -> f64 {
        self.floor_transition_s
    }

    /// Time to bring the platform from standby to the nominal point
    /// (rail slew + clock relock), charged at the start of a
    /// latency-aware sentence. Zero when the platform has no modeled
    /// standby state.
    pub fn wake_transition_s(&self) -> f64 {
        self.wake_transition_s
    }

    /// Fixed per-sentence cost charged on every inference regardless of
    /// mode (e.g. kernel-launch and host-sync overhead on a GPU).
    pub fn sentence_overhead(&self) -> SegmentCost {
        self.sentence_overhead
    }

    /// Cost of reading the sentence's embedding rows from the
    /// platform's embedding store. Zero when that cost is already
    /// folded into the measured per-layer anchor.
    pub fn embedding_read_cost(&self) -> SegmentCost {
        self.embedding_read_cost
    }

    /// The operating point for `remaining_cycles` of work within
    /// `remaining_seconds` of budget, of which `elapsed_queue_s` was
    /// already burned queueing (paper §5.2:
    /// `Freq_opt = N_cycles / (T − T_elapsed)`), drawing no more than
    /// `cap_w` watts of sustained compute power (`f64::INFINITY` =
    /// unconstrained). Feasibility is judged *honestly* against the
    /// capped point — an envelope that forbids the deadline-meeting
    /// point yields an infeasible decision rather than a silently
    /// re-priced one. A backend that cannot scale V/F has no point
    /// below its fixed draw to clamp to and ignores the cap.
    pub fn decide(
        &self,
        remaining_cycles: u64,
        remaining_seconds: f64,
        elapsed_queue_s: f64,
        cap_w: f64,
    ) -> OperatingPoint {
        match &self.platform {
            Platform::Accelerator { dvfs, .. } => {
                debug_assert!(
                    elapsed_queue_s >= 0.0 && elapsed_queue_s.is_finite(),
                    "queueing delay must be finite and non-negative, got {elapsed_queue_s}"
                );
                let rel_cap = cap_w / self.nominal_power_w;
                let d = dvfs.decide_power_capped(
                    remaining_cycles,
                    remaining_seconds - elapsed_queue_s,
                    rel_cap,
                );
                OperatingPoint {
                    voltage: d.voltage,
                    freq_hz: d.freq_hz,
                    feasible: d.feasible,
                }
            }
            Platform::MobileGpu(_) => {
                // No DVFS capability: hold the fixed point and report
                // whether the remaining work fits the remaining budget
                // at it. A NaN budget compares false, i.e. infeasible.
                let mut point = self.nominal;
                let need_s = remaining_cycles as f64 / point.freq_hz;
                point.feasible = need_s <= remaining_seconds - elapsed_queue_s;
                point
            }
        }
    }

    /// Sustained compute power drawn at the nominal operating point,
    /// watts — the anchor a fleet energy budget divides per-lane
    /// envelopes against.
    pub fn nominal_power_w(&self) -> f64 {
        self.nominal_power_w
    }

    /// Sustained compute power at the floor (minimum-energy) operating
    /// point, watts — the least a running shard of this backend can
    /// draw, and therefore the per-shard price an autoscaler must fit
    /// inside a lane's envelope before attaching another shard. Equals
    /// [`nominal_power_w`](Self::nominal_power_w) on fixed-V/F
    /// backends.
    pub fn floor_power_w(&self) -> f64 {
        self.floor_power_w
    }

    /// How much longer a nominal-speed sentence takes when this
    /// backend's operating point is clamped under a `cap_w` envelope:
    /// `f_nominal / f_capped ≥ 1`. Admission-side feasibility
    /// estimates (the overload shed rung) multiply their per-job
    /// service estimate by this, so an envelope-constrained lane sheds
    /// against the throughput it can actually deliver. Always 1.0 on a
    /// fixed-V/F backend, which no envelope can slow.
    pub fn envelope_service_scale(&self, cap_w: f64) -> f64 {
        let Platform::Accelerator { dvfs, .. } = &self.platform else {
            return 1.0;
        };
        let rel_cap = cap_w / self.nominal_power_w;
        if rel_cap >= 1.0 {
            return 1.0;
        }
        let (_, f_cap) = dvfs.power_capped_point(rel_cap);
        // power_capped_point never stalls the clock, so f_cap > 0 and
        // the scale is a finite slowdown factor ≥ 1.
        (self.nominal.freq_hz / f_cap).max(1.0)
    }

    /// Time to transition from the nominal point to `to`, seconds.
    #[allow(clippy::float_cmp, reason = "relock is free when the clock holds fmax")]
    pub fn transition_s(&self, to: &OperatingPoint) -> f64 {
        let Platform::Accelerator { sim, .. } = &self.platform else {
            return 0.0;
        };
        // The LDO slews from nominal toward the decision voltage while
        // the ADPLL relocks (relock is free when the clock holds fmax).
        let cfg = sim.config();
        let ldo = Ldo::new(cfg.vdd_standby);
        let pll = Adpll::new(cfg.freq_max_hz);
        ldo.transition_time_ns(cfg.vdd_nominal, to.voltage) * 1e-9
            + if to.freq_hz == cfg.freq_max_hz {
                0.0
            } else {
                pll.relock_ns() * 1e-9
            }
    }

    /// Runs `layers` encoder layers of the wired workload at an
    /// operating point.
    pub fn run_layers(&self, layers: usize, at: &OperatingPoint) -> SegmentCost {
        match &self.platform {
            Platform::Accelerator { sim, layer, .. } => {
                let cost = sim.run_layers(layer, layers, at.voltage, at.freq_hz);
                SegmentCost {
                    seconds: cost.seconds,
                    energy_j: cost.energy_j,
                }
            }
            Platform::MobileGpu(mgpu) => {
                // Fixed V/F: the operating point cannot change the cost.
                let seconds = mgpu.gpu.per_layer_latency_s(mgpu.flop_scale) * layers as f64;
                SegmentCost {
                    seconds,
                    energy_j: seconds * mgpu.gpu.effective_power_w(),
                }
            }
        }
    }

    /// Runs `layers` encoder layers at the nominal point.
    pub fn run_layers_nominal(&self, layers: usize) -> SegmentCost {
        self.run_layers(layers, &self.nominal)
    }

    /// The op-level accelerator simulator, when this backend is built on
    /// one (experiment drivers that trace accelerator internals — e.g.
    /// the Fig. 7 LDO waveform — require it).
    pub fn accelerator_sim(&self) -> Option<&AcceleratorSim> {
        match &self.platform {
            Platform::Accelerator { sim, .. } => Some(sim),
            Platform::MobileGpu(_) => None,
        }
    }

    /// The mobile-GPU baseline model, when this backend *is* one — so
    /// comparison-row helpers reuse the engine's wired anchor instead
    /// of silently re-deriving the default.
    pub fn mobile_gpu_baseline(&self) -> Option<&MobileGpuBackend> {
        match &self.platform {
            Platform::Accelerator { .. } => None,
            Platform::MobileGpu(mgpu) => Some(mgpu),
        }
    }
}

/// Which backend an [`EngineBuilder`](crate::engine::EngineBuilder)
/// wires into the engine it builds.
#[derive(Debug, Clone, Default)]
pub enum BackendSpec {
    /// The paper's accelerator + DVFS on the builder's wired
    /// accelerator config, workload, and eNVM cell (the default).
    #[default]
    Accelerator,
    /// The mobile-GPU comparison baseline, costing the builder's wired
    /// workload.
    MobileGpu(MobileGpu),
}

/// The supply voltage [`MobileGpuBackend`] reports in results: the
/// board runs a fixed rail the model does not scale, so a single
/// representative value stands in for it.
pub const MGPU_RAIL_V: f32 = 1.0;

/// The virtual clock [`MobileGpuBackend`] expresses work units on:
/// 1 GHz, so one "cycle" is one nanosecond of anchored per-layer time.
pub const MGPU_VIRTUAL_HZ: f64 = 1.0e9;

/// The TX2-class mobile-GPU comparison baseline, an engine backend
/// through [`InferenceBackend::mobile_gpu`].
///
/// Fixed V/F: [`can_scale`](InferenceBackend::can_scale) is `false`,
/// [`decide`](InferenceBackend::decide) always pins the nominal point
/// (judging feasibility against the fixed clock), and all transition
/// costs are zero. Latency and energy derive from the measured
/// [`MobileGpu`] anchor; the AAS FLOP-scale factor is derived from the
/// wired [`WorkloadParams`] (the GPU benefits from adaptive attention
/// span, but not from bitmask sparsity), so the baseline prices the
/// same workload the engine serves. The embedding read costs zero
/// because the anchor measurement already includes DRAM traffic, and
/// the fixed kernel-launch/host-sync overhead is charged per sentence
/// through [`sentence_overhead`](InferenceBackend::sentence_overhead).
#[derive(Debug, Clone)]
pub struct MobileGpuBackend {
    gpu: MobileGpu,
    flop_scale: f64,
    layer_cycles: u64,
}

impl MobileGpuBackend {
    /// Builds the baseline with an explicit FLOP scale.
    pub fn with_flop_scale(gpu: MobileGpu, flop_scale: f64) -> Self {
        let flop_scale = MobileGpu::effective_flop_scale(flop_scale);
        // Work units on the virtual clock: one cycle per nanosecond of
        // anchored per-layer compute, floored at 1 so the engine's
        // remaining-work product never degenerates to zero.
        let layer_cycles = (gpu.per_layer_latency_s(flop_scale) * MGPU_VIRTUAL_HZ)
            .round()
            .max(1.0) as u64;
        Self {
            gpu,
            flop_scale,
            layer_cycles,
        }
    }

    /// Builds the baseline for the workload an engine is wired with,
    /// deriving the AAS FLOP-scale factor the way the paper's Fig. 8
    /// does: the cycle ratio between the workload and its dense,
    /// all-heads-open counterpart on the reference accelerator model,
    /// clamped to `[0.5, 1.0]`. A workload without AAS derives 1.0.
    pub fn from_workload(gpu: MobileGpu, workload: &WorkloadParams) -> Self {
        let mut dense = workload.clone();
        dense.aas_enabled = false;
        dense.sparse_enabled = false;
        let sim = AcceleratorSim::new(AcceleratorConfig::energy_optimal());
        let c_dense = sim.layer_workload(&dense).cycles() as f64;
        let c_wired = sim.layer_workload(workload).cycles() as f64;
        let flop_scale = if c_dense > 0.0 {
            (c_wired / c_dense).clamp(0.5, 1.0)
        } else {
            1.0
        };
        Self::with_flop_scale(gpu, flop_scale)
    }

    /// The anchor model.
    pub fn gpu(&self) -> &MobileGpu {
        &self.gpu
    }

    /// The derived (sanitized) FLOP scale applied to every layer.
    pub fn flop_scale(&self) -> f64 {
        self.flop_scale
    }

    /// A whole `layers`-deep inference: fixed overhead plus the scaled
    /// per-layer costs — the comparison-row number. Delegates to
    /// [`MobileGpu::inference_latency_s`]/[`MobileGpu::inference_energy_j`]
    /// so one formula (the anchor model's) owns the pricing.
    pub fn full_inference(&self, layers: usize) -> SegmentCost {
        SegmentCost {
            seconds: self.gpu.inference_latency_s(layers, self.flop_scale),
            energy_j: self.gpu.inference_energy_j(layers, self.flop_scale),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn accel() -> InferenceBackend {
        InferenceBackend::accelerator(
            AcceleratorConfig::energy_optimal(),
            &WorkloadParams::albert_base(),
            CellTech::Mlc2,
            2.0,
        )
    }

    fn dvfs() -> DvfsController {
        DvfsController::new(AcceleratorConfig::energy_optimal())
    }

    fn mgpu() -> InferenceBackend {
        InferenceBackend::mobile_gpu(MobileGpuBackend::with_flop_scale(MobileGpu::default(), 1.0))
    }

    #[test]
    fn accelerator_backend_matches_direct_sim() {
        // The backend is a reshuffling of the same hw calls the engine
        // used to make inline: segment costs must be bit-identical to
        // driving the simulator directly.
        let b = accel();
        let sim = AcceleratorSim::new(AcceleratorConfig::energy_optimal());
        let layer = sim.layer_workload(&WorkloadParams::albert_base());
        assert_eq!(b.layer_cycles(), layer.cycles());
        for layers in [1usize, 3, 12] {
            let direct = sim.run_layers_nominal(&layer, layers);
            let via = b.run_layers_nominal(layers);
            assert_eq!(via.seconds, direct.seconds);
            assert_eq!(via.energy_j, direct.energy_j);
            let scaled = sim.run_layers(&layer, layers, 0.6, 0.5e9);
            let via = b.run_layers(
                layers,
                &OperatingPoint {
                    voltage: 0.6,
                    freq_hz: 0.5e9,
                    feasible: true,
                },
            );
            assert_eq!(via.seconds, scaled.seconds);
            assert_eq!(via.energy_j, scaled.energy_j);
        }
        // Decisions delegate to the DVFS controller verbatim.
        let d = dvfs().decide(40_000_000, 50e-3);
        let p = b.decide(40_000_000, 50e-3, 0.0, f64::INFINITY);
        assert_eq!(
            (p.voltage, p.freq_hz, p.feasible),
            (d.voltage, d.freq_hz, d.feasible)
        );
        assert!(b.can_scale());
        assert!(b.accelerator_sim().is_some());
        assert!(b.mobile_gpu_baseline().is_none());
        assert_eq!(b.floor_transition_s(), dvfs().floor_transition_s());
    }

    #[test]
    fn accelerator_points_and_transitions() {
        let b = accel();
        let cfg = AcceleratorConfig::energy_optimal();
        let nom = b.nominal();
        assert_eq!(nom.voltage, cfg.vdd_nominal);
        assert_eq!(nom.freq_hz, cfg.freq_max_hz);
        let floor = b.floor();
        assert_eq!(floor.voltage, cfg.vdd_min);
        assert!(floor.freq_hz < nom.freq_hz);
        // Staying at nominal costs no relock; moving to the floor costs
        // the worst-case reserve.
        assert_eq!(b.transition_s(&nom), 0.0);
        assert!((b.transition_s(&floor) - b.floor_transition_s()).abs() < 1e-15);
        assert!(b.wake_transition_s() > 0.0);
        assert_eq!(b.sentence_overhead(), SegmentCost::ZERO);
        let embed = b.embedding_read_cost();
        assert!(embed.seconds > 0.0 && embed.energy_j > 0.0);
    }

    #[test]
    fn mgpu_backend_prices_the_anchor() {
        let gpu = MobileGpu::default();
        let b = mgpu();
        let full = b.mobile_gpu_baseline().expect("mGPU").full_inference(12);
        assert_eq!(full.seconds, gpu.inference_latency_s(12, 1.0));
        assert_eq!(full.energy_j, gpu.inference_energy_j(12, 1.0));
        assert!(!b.can_scale());
        assert_eq!(b.floor(), b.nominal());
        assert_eq!(b.wake_transition_s(), 0.0);
        assert_eq!(b.floor_transition_s(), 0.0);
        assert_eq!(b.embedding_read_cost(), SegmentCost::ZERO);
        assert!(b.accelerator_sim().is_none());
        // The operating point cannot change the cost.
        let slow = OperatingPoint {
            voltage: 0.5,
            freq_hz: 1.0,
            feasible: true,
        };
        assert_eq!(b.run_layers(3, &slow), b.run_layers_nominal(3));
    }

    #[test]
    fn mgpu_decide_degrades_to_nominal_only() {
        let b = mgpu();
        // Plenty of budget: feasible, still at the fixed point.
        let loose = b.decide(b.layer_cycles() * 2, 1.0, 0.0, f64::INFINITY);
        assert!(loose.feasible);
        assert_eq!(
            (loose.voltage, loose.freq_hz),
            (MGPU_RAIL_V, MGPU_VIRTUAL_HZ)
        );
        // Impossible budget: same point, flagged infeasible.
        let tight = b.decide(b.layer_cycles() * 11, 1e-4, 0.0, f64::INFINITY);
        assert!(!tight.feasible);
        assert_eq!(
            (tight.voltage, tight.freq_hz),
            (MGPU_RAIL_V, MGPU_VIRTUAL_HZ)
        );
        // Queueing burns the budget.
        let queued = b.decide(b.layer_cycles(), 20e-3, 19e-3, f64::INFINITY);
        assert!(!queued.feasible);
        // NaN budgets are infeasible, never propagated.
        let nan = b.decide(b.layer_cycles(), f64::NAN, 0.0, f64::INFINITY);
        assert!(!nan.feasible);
    }

    #[test]
    fn mgpu_flop_scale_derives_from_the_workload() {
        let gpu = MobileGpu::default();
        // Dense, all heads open: no AAS benefit.
        let dense = MobileGpuBackend::from_workload(gpu, &WorkloadParams::albert_base());
        assert_eq!(dense.flop_scale(), 1.0);
        // AAS with most heads off: a real reduction, clamped to ≥ 0.5.
        let mut spans = vec![0.0f32; 12];
        spans[0] = 20.0;
        spans[7] = 40.0;
        let optimized = WorkloadParams::albert_base().with_optimizations(0.6, &spans);
        let aas = MobileGpuBackend::from_workload(gpu, &optimized);
        assert!(
            (0.5..1.0).contains(&aas.flop_scale()),
            "scale {}",
            aas.flop_scale()
        );
        assert!(aas.full_inference(12).seconds < dense.full_inference(12).seconds);
        // Garbage explicit scales sanitize instead of poisoning costs.
        let bad = MobileGpuBackend::with_flop_scale(gpu, f64::NAN);
        assert_eq!(bad.flop_scale(), 1.0);
        assert!(bad.full_inference(12).seconds.is_finite());
    }

    #[test]
    fn accelerator_power_anchor_is_the_nominal_layer_draw() {
        let b = accel();
        // The anchor is energy/seconds of a nominal-point run; layers
        // are homogeneous, so 1 layer and 12 layers price identically.
        let one = b.run_layers_nominal(1);
        let twelve = b.run_layers_nominal(12);
        let p1 = one.energy_j / one.seconds;
        let p12 = twelve.energy_j / twelve.seconds;
        assert!((b.nominal_power_w() - p1).abs() < 1e-12 * p1);
        assert!((p12 - p1).abs() < 1e-9 * p1);
        // A plausible 12 nm accelerator draw, and a floor well below it
        // (the grid's (V/V_nom)²·(f/f_nom) at the 0.50 V point).
        assert!(
            (0.005..5.0).contains(&b.nominal_power_w()),
            "nominal draw {} W",
            b.nominal_power_w()
        );
        let floor = b.floor();
        let expected_floor =
            b.nominal_power_w() * dvfs().relative_power(floor.voltage, floor.freq_hz);
        assert!((b.floor_power_w() - expected_floor).abs() < 1e-12);
        assert!(b.floor_power_w() < 0.25 * b.nominal_power_w());
        assert!(b.floor_power_w() > 0.0);
    }

    #[test]
    fn accelerator_decide_clamps_under_an_envelope_and_judges_honestly() {
        let b = accel();
        // Near-deadline demand that wants nominal: a 50% envelope must
        // clamp the point below nominal and judge feasibility at the
        // clamped clock, not silently pass the uncapped verdict.
        let cycles = 900_000_000u64;
        let uncapped = b.decide(cycles, 1.0, 0.0, f64::INFINITY);
        assert!(uncapped.feasible);
        let cap_w = 0.5 * b.nominal_power_w();
        let capped = b.decide(cycles, 1.0, 0.0, cap_w);
        assert!(capped.freq_hz < uncapped.freq_hz);
        assert!(
            dvfs().relative_power(capped.voltage, capped.freq_hz) <= 0.5 + 1e-12,
            "capped point must fit the envelope"
        );
        assert_eq!(
            capped.feasible,
            cycles as f64 / capped.freq_hz <= 1.0 * (1.0 + 1e-9)
        );
        // A generous envelope is bit-identical to the uncapped path.
        for cap in [
            b.nominal_power_w(),
            10.0 * b.nominal_power_w(),
            f64::INFINITY,
        ] {
            let c = b.decide(cycles, 1.0, 12e-3, cap);
            let d = dvfs().decide_with_elapsed(cycles, 1.0, 12e-3);
            assert_eq!(
                (c.voltage, c.freq_hz, c.feasible),
                (d.voltage, d.freq_hz, d.feasible)
            );
        }
        // Queueing delay burns the window before the cap applies, same
        // as the uncapped elapsed-aware path.
        let queued = b.decide(cycles, 1.0, 0.4, cap_w);
        let direct = dvfs().decide_power_capped(cycles, 1.0 - 0.4, cap_w / b.nominal_power_w());
        assert_eq!(
            (queued.voltage, queued.freq_hz),
            (direct.voltage, direct.freq_hz)
        );
    }

    #[test]
    fn accelerator_envelope_service_scale_prices_the_slowdown() {
        let b = accel();
        // Unconstrained envelopes cost nothing.
        assert_eq!(b.envelope_service_scale(f64::INFINITY), 1.0);
        assert_eq!(b.envelope_service_scale(b.nominal_power_w()), 1.0);
        // A constraining envelope slows service by f_nom / f_cap.
        let half = b.envelope_service_scale(0.5 * b.nominal_power_w());
        assert!(half > 1.0 && half.is_finite());
        // Even a zero envelope prices the floor clock, never a stall.
        let starved = b.envelope_service_scale(0.0);
        let floor = b.floor();
        let expected = b.nominal().freq_hz / floor.freq_hz;
        assert!((starved - expected).abs() < 1e-12);
        assert!(starved >= half);
    }

    #[test]
    fn mgpu_power_is_fixed_and_envelopes_are_inert() {
        let b = mgpu();
        let gpu = b.mobile_gpu_baseline().expect("mGPU").gpu();
        assert_eq!(b.nominal_power_w(), gpu.effective_power_w());
        // Fixed rail: floor draw equals nominal draw.
        assert_eq!(b.floor_power_w(), b.nominal_power_w());
        assert_eq!(b.envelope_service_scale(0.1), 1.0);
        // No point below the fixed draw exists: the decision ignores the
        // cap bit-for-bit, even a starving one.
        for cap in [0.0, 0.5 * b.nominal_power_w(), f64::INFINITY] {
            let c = b.decide(b.layer_cycles() * 4, 30e-3, 1e-3, cap);
            assert_eq!(
                c,
                b.decide(b.layer_cycles() * 4, 30e-3, 1e-3, f64::INFINITY)
            );
        }
    }

    #[test]
    fn backends_are_send_sync_and_shared() {
        // The engine holds `Arc<InferenceBackend>` and is cloned into
        // server pools: the backend must stay Send and Sync.
        let backends: Vec<Arc<InferenceBackend>> = vec![Arc::new(accel()), Arc::new(mgpu())];
        fn assert_send_sync<T: Send + Sync>(_: &T) {}
        for b in &backends {
            assert_send_sync(b);
            assert!(b.layer_cycles() > 0);
            assert!(b.run_layers_nominal(1).seconds > 0.0);
        }
        let names: Vec<&str> = backends.iter().map(|b| b.name()).collect();
        assert_eq!(names, ["accelerator", "mobile-gpu"]);
    }
}
