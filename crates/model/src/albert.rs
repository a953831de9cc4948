//! The ALBERT-style model: factorized embedding + one shared encoder
//! layer applied `num_layers` times + per-layer highway off-ramps.
//!
//! A sentence's work splits at layer boundaries, where the entropy exit
//! and the DVFS re-budget happen, so a [`ForwardSession`] is only what
//! crosses one: the hidden state and the off-ramp outputs. The working
//! buffers a layer runs in belong to the thread that steps it.

use crate::config::AlbertConfig;
use crate::embedding::FactorizedEmbedding;
use crate::offramp::OffRamp;
use edgebert_nn::encoder::{EncoderCache, LayerGradScratch, LayerScratch};
use edgebert_nn::norm::LayerNormCache;
use edgebert_nn::{EncoderLayer, LayerNorm, Parameter};
use edgebert_quant::tensor::fake_quantize_in_place;
use edgebert_tasks::{Dataset, VocabLayout};
use edgebert_tensor::{entropy, Matrix, Rng};
use serde::{Deserialize, Serialize};
use std::cell::RefCell;

/// Layer-at-a-time forward execution: the software half of a resumable
/// inference session.
///
/// A `ForwardSession` carries the live hidden state between layer
/// applications, so execution can stop at any layer boundary, be
/// checkpointed (the struct *is* the checkpoint: hidden state plus the
/// off-ramp outputs seen so far), and resume later — on the same thread
/// or another. The model has one per-layer body and every inference
/// path runs it on a `ForwardSession` ([`AlbertModel::forward_layers`]
/// and `infer_early_exit` are folds over
/// [`AlbertModel::forward_next_layer`]), so the logits and entropies
/// observed after layer *k* are bit-identical on every path, no matter
/// where the session was parked in between.
///
/// `logits` and `entropies` hold one entry per completed layer, which
/// only the model's layer step writes. Sessions serialize (serde) as
/// these three fields: the hidden state and off-ramp outputs round-trip
/// exactly (f32 values pass through f64 losslessly), so a checkpoint can
/// cross a process boundary and resume bit-identically.
///
/// A session holds no working buffers: a layer step runs in the buffers
/// of the thread that calls it, which its first step on a thread sizes
/// and which every later step reshapes to its sentence. They hold
/// nothing between steps, so any thread can step any session. The
/// default session is an empty shell (no sentence, no heap): what a
/// holder that never steps it carries.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ForwardSession {
    /// The live (unnormalized) hidden state entering the next layer.
    hidden: Matrix,
    /// Off-ramp logits after each completed layer.
    pub logits: Vec<Vec<f32>>,
    /// Off-ramp entropies after each completed layer.
    pub entropies: Vec<f32>,
}

/// The working buffers of [`AlbertModel::run_layer`].
#[derive(Debug, Default)]
struct LayerBuffers {
    layer: LayerScratch,
    /// The output-normed hidden state the off-ramp reads.
    normed: Matrix,
    /// The `[CLS]` row of `normed`.
    cls: Matrix,
    /// The off-ramp's logits (`1 x classes`).
    logits: Matrix,
}

thread_local! {
    /// The layer buffers of the thread that steps a session: one set per
    /// shard worker, record thread or evaluation chunk, reshaped by
    /// every layer it runs.
    static BUFFERS: RefCell<LayerBuffers> = RefCell::default();
}

/// Copies into `out` the `[CLS]` row that the last layer step on this
/// thread fed its off-ramp: the feature that phase 2 of training fits
/// that off-ramp on.
pub(crate) fn copy_last_cls(out: &mut [f32]) {
    BUFFERS.with_borrow(|b| out.copy_from_slice(b.cls.as_slice()));
}

impl ForwardSession {
    /// Layers completed so far.
    pub fn layers_done(&self) -> usize {
        self.logits.len()
    }

    /// Width of the hidden state entering the next layer: the model's
    /// `hidden_size` for every session that model began.
    pub fn width(&self) -> usize {
        self.hidden.cols()
    }

    /// Off-ramp logits after `layer` (1-based).
    ///
    /// # Panics
    ///
    /// Panics if `layer` has not been computed yet.
    pub fn logits_at(&self, layer: usize) -> &[f32] {
        &self.logits[layer - 1]
    }

    /// Off-ramp entropy after `layer` (1-based).
    ///
    /// # Panics
    ///
    /// Panics if `layer` has not been computed yet.
    pub fn entropy_at(&self, layer: usize) -> f32 {
        self.entropies[layer - 1]
    }

    /// Predicted class if exiting at `layer` (1-based).
    ///
    /// # Panics
    ///
    /// Panics if `layer` has not been computed yet.
    pub fn prediction_at(&self, layer: usize) -> usize {
        edgebert_tensor::stats::argmax(self.logits_at(layer))
    }
}

/// Training-time forward cache (one per sentence).
#[derive(Debug)]
pub struct TrainCache {
    /// Low-dimensional embedding sum (input to the projection).
    pub low: Matrix,
    /// Input hidden state of each layer application. The layer is shared,
    /// so this is all [`AlbertModel::backward_from_final`] needs to rebuild
    /// a layer application's activations when it differentiates it.
    pub layer_inputs: Vec<Matrix>,
    /// Final hidden state (pre final-norm).
    pub final_hidden: Matrix,
    /// Normalized final hidden state (what the classifier reads).
    pub final_normed: Matrix,
    /// Cache of the final layer norm.
    pub final_norm_cache: LayerNormCache,
}

/// The full model.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AlbertModel {
    /// Model shape.
    pub config: AlbertConfig,
    /// Factorized, frozen-table embedding.
    pub embedding: FactorizedEmbedding,
    /// The single shared encoder layer (applied `num_layers` times).
    pub encoder: EncoderLayer,
    /// Output layer norm applied before every off-ramp (the pre-norm
    /// architecture leaves the residual stream unnormalized).
    pub final_norm: LayerNorm,
    /// One off-ramp per logical layer; the last one doubles as the final
    /// classifier.
    pub off_ramps: Vec<OffRamp>,
    /// When `Some(exp_bits)`, activations are FP8 fake-quantized between
    /// layers (evaluation-time quantization of Fig. 4).
    pub activation_fp8: Option<u8>,
}

impl AlbertModel {
    /// Creates a model with random weights.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn new(cfg: AlbertConfig, rng: &mut Rng) -> Self {
        cfg.validate().expect("invalid model configuration");
        Self {
            embedding: FactorizedEmbedding::new(&cfg, rng),
            encoder: EncoderLayer::new(
                cfg.hidden_size,
                cfg.num_heads,
                cfg.intermediate_size,
                cfg.max_seq_len,
                rng,
            ),
            final_norm: LayerNorm::new(cfg.hidden_size),
            off_ramps: (0..cfg.num_layers)
                .map(|_| OffRamp::new(cfg.hidden_size, cfg.num_classes, rng))
                .collect(),
            config: cfg,
            activation_fp8: None,
        }
    }

    /// Creates a model with the synthetic "pre-trained" embedding space
    /// (see [`FactorizedEmbedding::pretrained`]).
    pub fn pretrained(cfg: AlbertConfig, layout: &VocabLayout, rng: &mut Rng) -> Self {
        let mut model = Self::new(cfg, rng);
        model.embedding = FactorizedEmbedding::pretrained(&cfg, layout, rng);
        model
    }

    /// Number of logical encoder layers.
    pub fn num_layers(&self) -> usize {
        self.config.num_layers
    }

    // analyzer: hot-path
    fn maybe_quantize(&self, m: &mut Matrix) {
        if let Some(bits) = self.activation_fp8 {
            fake_quantize_in_place(m, bits);
        }
    }

    /// The one per-layer body every inference path runs: encoder layer,
    /// activation quantization, output norm and off-ramp, in the buffers
    /// `b`. Leaves the normed state and the logits of ramp `l` in `b` and
    /// returns the logits' entropy.
    // analyzer: hot-path
    fn run_layer(&self, hidden: &mut Matrix, b: &mut LayerBuffers, l: usize) -> f32 {
        self.encoder.infer_in_place(hidden, &mut b.layer);
        self.maybe_quantize(hidden);
        self.final_norm.infer_into(hidden, &mut b.normed);
        self.off_ramps[l].classify_into(&b.normed, &mut b.cls, &mut b.logits);
        entropy(b.logits.as_slice())
    }

    /// Full forward pass computing every layer and every off-ramp: the
    /// finished session, whose `logits` and `entropies` hold one entry a
    /// layer.
    pub fn forward_layers(&self, tokens: &[u32]) -> ForwardSession {
        let mut session = self.begin_forward(tokens);
        for _ in 0..self.num_layers() {
            self.forward_next_layer(&mut session);
        }
        session
    }

    /// Starts a layer-at-a-time forward session: the embedding is
    /// computed (and optionally quantized) immediately, and each
    /// subsequent [`forward_next_layer`](Self::forward_next_layer) call
    /// advances one encoder layer. See [`ForwardSession`].
    pub fn begin_forward(&self, tokens: &[u32]) -> ForwardSession {
        let mut hidden = self.embedding.embed(tokens);
        self.maybe_quantize(&mut hidden);
        ForwardSession {
            hidden,
            logits: Vec::with_capacity(self.num_layers()),
            entropies: Vec::with_capacity(self.num_layers()),
        }
    }

    /// Runs the next encoder layer of `session` (the per-layer body
    /// [`forward_layers`](Self::forward_layers) folds over) in this
    /// thread's layer buffers and returns the 1-based layer just
    /// completed with its off-ramp entropy.
    ///
    /// # Panics
    ///
    /// Panics if every layer has already been computed.
    pub fn forward_next_layer(&self, session: &mut ForwardSession) -> (usize, f32) {
        let l = session.layers_done();
        assert!(
            l < self.num_layers(),
            "forward session already ran all {} layers",
            self.num_layers()
        );
        let (h, logits) = BUFFERS.with_borrow_mut(|b| {
            let h = self.run_layer(&mut session.hidden, b, l);
            (h, b.logits.row(0).to_vec())
        });
        session.logits.push(logits);
        session.entropies.push(h);
        (l + 1, h)
    }

    /// Conventional early-exit inference (paper Algorithm 1): stop at the
    /// first layer whose off-ramp entropy is below `entropy_threshold`.
    /// Returns `(exit_layer (1-based), logits, entropies seen)`.
    pub fn infer_early_exit(
        &self,
        tokens: &[u32],
        entropy_threshold: f32,
    ) -> (usize, Vec<f32>, Vec<f32>) {
        let mut session = self.begin_forward(tokens);
        loop {
            let (l, h) = self.forward_next_layer(&mut session);
            if h < entropy_threshold || l == self.num_layers() {
                let logits = session.logits.pop().expect("a layer just ran");
                return (l, logits, session.entropies);
            }
        }
    }

    /// Training forward pass: runs the inference layer body (no
    /// activation quantization) and keeps each layer application's input
    /// for the backward pass. It takes this thread's layer buffers and
    /// frees them on return, so the backward that follows sizes its own
    /// in their memory instead of beside them.
    pub fn forward_train(&self, tokens: &[u32]) -> TrainCache {
        let (mut hidden, low) = self.embedding.embed_with_cache(tokens);
        let mut buffers = BUFFERS.take();
        let mut layer_inputs = Vec::with_capacity(self.num_layers());
        for _ in 0..self.num_layers() {
            layer_inputs.push(hidden.clone());
            self.encoder.infer_in_place(&mut hidden, &mut buffers.layer);
        }
        let final_hidden = hidden;
        let (final_normed, final_norm_cache) = self.final_norm.forward(&final_hidden);
        TrainCache {
            low,
            layer_inputs,
            final_hidden,
            final_normed,
            final_norm_cache,
        }
    }

    /// Backward pass from a gradient on the final layer's hidden state;
    /// accumulates gradients into the shared encoder (once per layer
    /// application) and the embedding projection. Each application's
    /// activations are recomputed from its cached input just before it
    /// is differentiated, into one `EncoderCache` that all of them refill
    /// in turn, so one is alive at a time instead of `num_layers`; that
    /// cache, the gradient handed from layer to layer and the backward's
    /// buffers are sized by the first application and freed on return
    /// (held across sentences they would sit beside each next forward
    /// pass's buffers instead of in the memory those release).
    pub fn backward_from_final(&mut self, cache: &TrainCache, grad_final_hidden: &Matrix) {
        let mut g = grad_final_hidden.clone();
        let (mut layer_out, mut activations) = (Matrix::default(), EncoderCache::default());
        let mut scratch = LayerGradScratch::default();
        for input in cache.layer_inputs.iter().rev() {
            self.encoder
                .forward_into(input, &mut layer_out, &mut activations);
            self.encoder
                .backward_in_place(&activations, &mut g, &mut scratch);
        }
        self.embedding.backward_projection(&cache.low, &g);
    }

    /// Gradient of the final off-ramp's logits w.r.t. the final hidden
    /// state (through the final layer norm; only the CLS row carries
    /// gradient). Also accumulates the off-ramp's and final norm's
    /// parameter grads.
    pub fn backward_final_classifier(&mut self, cache: &TrainCache, grad_logits: &[f32]) -> Matrix {
        let last = self.off_ramps.len() - 1;
        let normed = &cache.final_normed;
        let cls = Matrix::from_vec(1, normed.cols(), normed.row(0).to_vec());
        let g = Matrix::from_vec(1, grad_logits.len(), grad_logits.to_vec());
        let ramp = &mut self.off_ramps[last];
        ramp.backward_batch(&cls, &g);
        let d_cls = g.matmul_nt(&ramp.head.weight.value);
        let mut grad_normed = Matrix::zeros(normed.rows(), normed.cols());
        grad_normed.row_mut(0).copy_from_slice(d_cls.row(0));
        self.final_norm
            .backward(&cache.final_norm_cache, &grad_normed)
    }

    /// Logits of the final classifier for a training cache.
    pub fn final_logits(&self, cache: &TrainCache) -> Vec<f32> {
        self.off_ramps[self.off_ramps.len() - 1].classify(&cache.final_normed)
    }

    /// Fake-quantizes every trainable parameter in place, each tensor
    /// with its own exponent bias (evaluation-time FP8). The frozen token
    /// and position tables are not rounded here: the token table is the
    /// shared eNVM image and takes its FP8 form where that image is
    /// encoded (`edgebert_envm::StoredEmbedding`).
    pub fn quantize_weights(&mut self, exp_bits: u8) {
        for p in self.params_mut() {
            fake_quantize_in_place(&mut p.value, exp_bits);
        }
    }

    /// Enables FP8 fake-quantization of activations during inference.
    pub fn enable_activation_quant(&mut self, exp_bits: u8) {
        self.activation_fp8 = Some(exp_bits);
    }

    /// Classification accuracy over a dataset using the full (12-layer)
    /// model.
    pub fn evaluate_accuracy(&self, data: &Dataset) -> f32 {
        if data.is_empty() {
            return 0.0;
        }
        let mut correct = 0usize;
        for ex in data {
            let out = self.forward_layers(&ex.tokens);
            if out.prediction_at(self.num_layers()) == ex.label {
                correct += 1;
            }
        }
        correct as f32 / data.len() as f32
    }

    /// Per-head effective attention spans (paper Table 1 quantities).
    pub fn head_spans(&self) -> Vec<f32> {
        self.encoder.attention.head_spans()
    }

    /// Encoder weight sparsity (mean over the four projection matrices
    /// and the two FFN matrices).
    pub fn encoder_sparsity(&self) -> f32 {
        let mats = [
            &self.encoder.attention.wq.weight.value,
            &self.encoder.attention.wk.weight.value,
            &self.encoder.attention.wv.weight.value,
            &self.encoder.attention.wo.weight.value,
            &self.encoder.ffn.fc1.weight.value,
            &self.encoder.ffn.fc2.weight.value,
        ];
        let total: usize = mats.iter().map(|m| m.len()).sum();
        let zeros: usize = mats.iter().map(|m| m.len() - m.nnz()).sum();
        zeros as f32 / total as f32
    }

    /// Clears all gradients.
    pub fn zero_grad(&mut self) {
        self.embedding.zero_grad();
        self.encoder.zero_grad();
        self.final_norm.zero_grad();
        for r in &mut self.off_ramps {
            r.zero_grad();
        }
    }

    /// Frees every parameter's training state (gradients, Adam moments,
    /// movement scores), leaving weights and pruning masks: the model as
    /// it is served. It trains again from zeroed buffers.
    pub fn release_training_state(&mut self) {
        self.embedding.table.release_training_state();
        self.embedding.positions.release_training_state();
        for p in self.params_mut() {
            p.release_training_state();
        }
    }

    /// Every trainable parameter (embedding projection, shared encoder,
    /// all off-ramps).
    pub fn params_mut(&mut self) -> Vec<&mut Parameter> {
        let mut ps = self.embedding.params_mut();
        ps.extend(self.encoder.params_mut());
        ps.extend(self.final_norm.params_mut());
        for r in &mut self.off_ramps {
            ps.extend(r.params_mut());
        }
        ps
    }

    /// Freezes the backbone (embedding projection + encoder + final
    /// classifier included or excluded per `freeze_final`), used for
    /// training phase 2.
    pub fn set_backbone_frozen(&mut self, frozen: bool) {
        for p in self.embedding.params_mut() {
            p.frozen = frozen;
        }
        for p in self.encoder.params_mut() {
            p.frozen = frozen;
        }
        for p in self.final_norm.params_mut() {
            p.frozen = frozen;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edgebert_tasks::vocab::CLS;

    fn tiny_model(seed: u64) -> AlbertModel {
        let mut rng = Rng::seed_from(seed);
        let cfg = AlbertConfig::tiny(64, 2);
        AlbertModel::new(cfg, &mut rng)
    }

    #[test]
    fn forward_layers_shapes() {
        let model = tiny_model(0);
        let out = model.forward_layers(&[CLS, 5, 6, 7]);
        assert_eq!(out.layers_done(), 4);
        assert_eq!(out.logits.len(), 4);
        assert_eq!(out.entropies.len(), 4);
        assert_eq!(out.logits[0].len(), 2);
        for h in &out.entropies {
            assert!(*h >= 0.0 && *h <= (2.0f32).ln() + 1e-5);
        }
    }

    #[test]
    fn forward_session_is_bit_identical_to_forward_layers() {
        // The resumable-session contract: stepping layer by layer (with
        // the session cloned mid-way, i.e. checkpointed and resumed)
        // reproduces the eager pass bit for bit.
        for seed in [0u64, 1, 6] {
            let mut model = tiny_model(seed);
            if seed == 6 {
                model.enable_activation_quant(4); // quantized path too
            }
            let tokens = [CLS, 9, 10, 11, 12];
            let eager = model.forward_layers(&tokens);
            let mut session = model.begin_forward(&tokens);
            for l in 1..=model.num_layers() {
                if l == 3 {
                    // Park and resume: the clone is the checkpoint.
                    session = session.clone();
                }
                let (layer, h) = model.forward_next_layer(&mut session);
                assert_eq!(layer, l);
                assert_eq!(session.layers_done(), l);
                assert_eq!(h, eager.entropies[l - 1], "seed {seed} layer {l}");
                assert_eq!(session.entropy_at(l), eager.entropies[l - 1]);
                assert_eq!(
                    session.logits_at(l),
                    &eager.logits[l - 1][..],
                    "seed {seed} layer {l}"
                );
            }
        }
    }

    #[test]
    fn training_forward_matches_inference_bitwise_without_quantization() {
        // An oracle for the one inference layer body that is not itself:
        // the training pass runs the caching `forward` kernels, yet must
        // land on the same final hidden state and logits bit for bit.
        for seed in [0u64, 3, 9] {
            let model = tiny_model(seed);
            let tokens = [CLS, 9, 10, 11, 12, 13];
            let cache = model.forward_train(&tokens);
            let eager = model.forward_layers(&tokens);
            let last = model.num_layers() - 1;
            BUFFERS.with_borrow(|b| {
                assert_eq!(cache.final_normed, b.normed, "seed {seed}");
                assert_eq!(b.cls.as_slice(), cache.final_normed.row(0), "seed {seed}");
            });
            assert_eq!(
                model.final_logits(&cache),
                eager.logits[last],
                "seed {seed}"
            );
        }
    }

    /// Every entropy and logit of a finished session, as bit patterns.
    fn bits(session: &ForwardSession) -> Vec<u32> {
        let logits = session.logits.iter().flatten();
        session
            .entropies
            .iter()
            .chain(logits)
            .map(|v| v.to_bits())
            .collect()
    }

    #[test]
    fn sessions_sharing_a_threads_buffers_match_their_straight_runs() {
        // A thread's layer buffers hold whatever the last layer it ran
        // left there: another sentence of another length, or nothing yet
        // on a fresh thread. Neither may reach a session's outputs.
        for seed in [0u64, 6] {
            let mut model = tiny_model(seed);
            if seed == 6 {
                model.enable_activation_quant(4);
            }
            let (short, long) = ([CLS, 9, 10], [CLS, 3, 4, 5, 6, 7, 8, 11]);
            let (eager_short, eager_long) =
                (model.forward_layers(&short), model.forward_layers(&long));

            // Two sentences with their layers interleaved on one thread.
            let (mut a, mut b) = (model.begin_forward(&short), model.begin_forward(&long));
            for _ in 0..model.num_layers() {
                model.forward_next_layer(&mut b);
                model.forward_next_layer(&mut a);
            }
            assert_eq!(bits(&a), bits(&eager_short), "seed {seed}");
            assert_eq!(bits(&b), bits(&eager_long), "seed {seed}");

            // One session stepped alternately here and on a second
            // thread, each thread running the short sentence in between.
            let model = &model;
            let session = std::thread::scope(|scope| {
                let (to_worker, work) = std::sync::mpsc::channel::<ForwardSession>();
                let (to_caller, back) = std::sync::mpsc::channel();
                scope.spawn(move || {
                    for mut session in work {
                        model.forward_next_layer(&mut session);
                        model.forward_layers(&short);
                        to_caller.send(session).expect("caller waits");
                    }
                });
                let mut session = model.begin_forward(&long);
                while session.layers_done() < model.num_layers() {
                    if session.layers_done().is_multiple_of(2) {
                        model.forward_next_layer(&mut session);
                        model.forward_layers(&short);
                    } else {
                        to_worker.send(session).expect("worker waits");
                        session = back.recv().expect("worker steps");
                    }
                }
                session
            });
            assert_eq!(bits(&session), bits(&eager_long), "seed {seed}");
        }
    }

    #[test]
    #[should_panic(expected = "already ran all")]
    fn forward_session_refuses_to_overrun_the_model() {
        let model = tiny_model(8);
        let mut session = model.begin_forward(&[CLS, 3, 4]);
        for _ in 0..=model.num_layers() {
            model.forward_next_layer(&mut session);
        }
    }

    #[test]
    fn early_exit_consistent_with_layerwise() {
        let model = tiny_model(1);
        let tokens = [CLS, 9, 10, 11, 12];
        let out = model.forward_layers(&tokens);
        for &et in &[0.05f32, 0.3, 0.69, 10.0] {
            let (layer, logits, _) = model.infer_early_exit(&tokens, et);
            // The first layer whose entropy falls below the threshold,
            // else the last.
            let below = out.entropies.iter().position(|&h| h < et);
            let expect_layer = below.map_or(out.entropies.len(), |i| i + 1);
            let expect_logits = &out.logits[expect_layer - 1];
            assert_eq!(layer, expect_layer, "threshold {et}");
            for (a, b) in logits.iter().zip(expect_logits.iter()) {
                assert!((a - b).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn huge_threshold_exits_at_layer_one() {
        let model = tiny_model(2);
        let (layer, _, seen) = model.infer_early_exit(&[CLS, 3, 4], f32::INFINITY);
        assert_eq!(layer, 1);
        assert_eq!(seen.len(), 1);
    }

    #[test]
    fn zero_threshold_runs_to_the_end() {
        let model = tiny_model(3);
        let (layer, _, seen) = model.infer_early_exit(&[CLS, 3, 4], 0.0);
        assert_eq!(layer, 4);
        assert_eq!(seen.len(), 4);
    }

    #[test]
    fn backward_reaches_encoder_and_projection() {
        let mut model = tiny_model(4);
        let cache = model.forward_train(&[CLS, 5, 6]);
        let grad_logits = vec![0.5f32, -0.5];
        let grad_hidden = model.backward_final_classifier(&cache, &grad_logits);
        model.backward_from_final(&cache, &grad_hidden);
        assert!(model.encoder.attention.wq.weight.grad.frobenius_norm() > 0.0);
        assert!(model.embedding.projection.weight.grad.frobenius_norm() > 0.0);
        let last = model.off_ramps.len() - 1;
        assert!(model.off_ramps[last].head.weight.grad.frobenius_norm() > 0.0);
    }

    #[test]
    fn weight_quantization_changes_but_approximates() {
        let mut model = tiny_model(5);
        let tokens = [CLS, 7, 8, 9];
        let before = model.forward_layers(&tokens);
        model.quantize_weights(4);
        let after = model.forward_layers(&tokens);
        // Quantization perturbs but does not destroy the logits.
        for (a, b) in before.logits[3].iter().zip(after.logits[3].iter()) {
            assert!((a - b).abs() < 1.0, "a={a} b={b}");
        }
    }

    #[test]
    fn activation_quantization_path_runs() {
        let mut model = tiny_model(6);
        model.enable_activation_quant(4);
        let out = model.forward_layers(&[CLS, 3]);
        assert_eq!(out.logits.len(), 4);
    }

    #[test]
    fn freeze_backbone_marks_parameters() {
        let mut model = tiny_model(7);
        model.set_backbone_frozen(true);
        assert!(model.embedding.projection.weight.frozen);
        assert!(model.encoder.attention.wq.weight.frozen);
        // Off-ramps stay trainable.
        assert!(!model.off_ramps[0].head.weight.frozen);
        model.set_backbone_frozen(false);
        assert!(!model.encoder.attention.wq.weight.frozen);
    }
}
