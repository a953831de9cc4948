//! Fig. 7: the LDO-driven supply-voltage waveform across consecutive
//! sentence inferences.
//!
//! Each sentence starts at nominal 0.8 V for encoder layer 1; after the
//! EE predictor forecasts the exit layer, the LDO drops to the
//! energy-optimal voltage for the remaining layers; between sentences the
//! rail returns to nominal, and during idle the system rests at the
//! 0.5 V standby level.

use crate::engine::{EdgeBertEngine, InferenceMode};
use crate::pipeline::TaskArtifacts;
use edgebert_hw::Ldo;
use serde::{Deserialize, Serialize};

/// Annotation for one sentence in the trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SentenceAnnotation {
    /// Sentence index.
    pub index: usize,
    /// Predictor forecast layer.
    pub predicted_layer: usize,
    /// Actual exit layer.
    pub exit_layer: usize,
    /// Post-decision supply voltage.
    pub voltage: f32,
    /// Execution time, seconds.
    pub execution_s: f64,
    /// Whether the latency target was met.
    pub deadline_met: bool,
}

/// The waveform and its annotations.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig7 {
    /// `(time_ms, voltage)` samples.
    pub waveform: Vec<(f64, f32)>,
    /// Per-sentence annotations.
    pub sentences: Vec<SentenceAnnotation>,
    /// The latency target, seconds.
    pub target_s: f64,
}

/// Simulates `n_sentences` consecutive LAI inferences and records the
/// supply waveform.
///
/// # Panics
///
/// This experiment traces the accelerator's LDO rail, so it requires
/// an engine built on the accelerator backend (the default); it panics
/// on an engine whose [`EdgeBertEngine::accelerator_sim`] is `None`
/// (e.g. the mGPU baseline, which has no scaling rail to trace).
pub fn run(art: &TaskArtifacts, engine: &EdgeBertEngine, n_sentences: usize) -> Fig7 {
    let cfg = *engine
        .accelerator_sim()
        .expect("Fig. 7 traces the accelerator backend's LDO rail")
        .config();
    let mut ldo = Ldo::new(cfg.vdd_standby);
    let mut t_ms = 0.0f64;
    let mut waveform = vec![(0.0, cfg.vdd_standby)];
    let mut sentences = Vec::new();

    let push_transition =
        |ldo: &mut Ldo, t_ms: &mut f64, target: f32, waveform: &mut Vec<(f64, f32)>| {
            let trace = ldo.transition(target);
            for p in &trace {
                waveform.push((*t_ms + p.t_ns * 1e-6, p.voltage));
            }
            *t_ms += trace.last().map_or(0.0, |p| p.t_ns) * 1e-6;
        };

    for (i, ex) in art.dev.iter().take(n_sentences).enumerate() {
        // Wake to nominal for layer 1.
        push_transition(&mut ldo, &mut t_ms, cfg.vdd_nominal, &mut waveform);
        let r = engine.run(&ex.tokens, InferenceMode::LatencyAware);
        // Layer 1 runs at nominal.
        let layer1_ms = engine.layer_cycles() as f64 / cfg.freq_max_hz * 1e3;
        t_ms += layer1_ms;
        waveform.push((t_ms, cfg.vdd_nominal));
        // DVFS decision: drop to the scaled voltage for remaining layers.
        if r.exit_layer > 1 {
            push_transition(&mut ldo, &mut t_ms, r.voltage, &mut waveform);
            let rest_ms =
                (r.exit_layer as f64 - 1.0) * engine.layer_cycles() as f64 / r.freq_hz * 1e3;
            t_ms += rest_ms;
            waveform.push((t_ms, r.voltage));
        }
        sentences.push(SentenceAnnotation {
            index: i,
            predicted_layer: r.predicted_layer.unwrap_or(r.exit_layer),
            exit_layer: r.exit_layer,
            voltage: r.voltage,
            execution_s: r.latency_s,
            deadline_met: r.deadline_met,
        });
        // Idle until the next sentence period at standby.
        push_transition(&mut ldo, &mut t_ms, cfg.vdd_standby, &mut waveform);
        let period_ms = engine.default_latency_target_s() * 1e3;
        let slack = (i as f64 + 1.0) * period_ms - t_ms;
        if slack > 0.0 {
            t_ms += slack;
            waveform.push((t_ms, cfg.vdd_standby));
        }
    }
    Fig7 {
        waveform,
        sentences,
        target_s: engine.default_latency_target_s(),
    }
}

/// Renders the annotations plus a coarse ASCII waveform.
pub fn render(f: &Fig7) -> String {
    let mut out = format!(
        "Fig. 7: LDO supply waveform across {} sentences (target {:.0} ms)\n",
        f.sentences.len(),
        f.target_s * 1e3
    );
    for s in &f.sentences {
        out.push_str(&format!(
            "  sentence {}: predicted layer {}, exited at {}, V={:.3} V, T_exec={:.1} ms, {}\n",
            s.index + 1,
            s.predicted_layer,
            s.exit_layer,
            s.voltage,
            s.execution_s * 1e3,
            if s.deadline_met {
                "deadline met"
            } else {
                "DEADLINE MISS"
            },
        ));
    }
    // Sample the waveform at 40 columns for a quick visual.
    if let Some(&(t_end, _)) = f.waveform.last() {
        out.push_str("  waveform (V vs time): ");
        for col in 0..40 {
            let t = t_end * col as f64 / 39.0;
            let v = f
                .waveform
                .iter()
                .take_while(|(tt, _)| *tt <= t)
                .last()
                .map_or(0.5, |(_, v)| *v);
            let c = if v >= 0.775 {
                '#'
            } else if v >= 0.65 {
                '+'
            } else if v >= 0.55 {
                '-'
            } else {
                '.'
            };
            out.push(c);
        }
        out.push('\n');
    }
    out
}
