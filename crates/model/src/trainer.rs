//! The EdgeBERT training procedure (paper Fig. 4).
//!
//! * **Teacher**: the base model fine-tuned densely on the task (no
//!   pruning, spans left open). Its logits are the distillation targets.
//! * **Phase 1 (student)**: fine-tune with cross-entropy + knowledge
//!   distillation while (a) movement- or magnitude-pruning the encoder
//!   weights on a cubic schedule, (b) magnitude-pruning the frozen
//!   embedding table, and (c) learning per-head adaptive attention spans
//!   under a span penalty.
//! * **Phase 2**: freeze every backbone parameter and fine-tune the
//!   highway off-ramps on per-layer `[CLS]` features.

use crate::albert::AlbertModel;
use crate::config::AlbertConfig;
use edgebert_nn::losses::{cross_entropy, distillation};
use edgebert_nn::prune::{PruneMethod, Pruner};
use edgebert_nn::AdamOptimizer;
use edgebert_tasks::{Dataset, VocabLayout};
use edgebert_tensor::{Matrix, Rng};
use serde::{Deserialize, Serialize};

/// Hyper-parameters for the two-phase procedure.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrainOptions {
    /// Fine-tuning epochs for the teacher and for student phase 1.
    pub epochs: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Distillation temperature.
    pub distill_temperature: f32,
    /// Weight of the distillation loss relative to cross-entropy.
    pub distill_weight: f32,
    /// Span penalty coefficient (per head, per unit of span).
    pub span_penalty: f32,
    /// Dedicated SGD learning rate for the span parameters. Spans are
    /// scalar knobs whose penalty gradient is tiny and constant; updating
    /// them with Adam (which normalizes gradient magnitude) would let the
    /// task gradient's sign flip-flop dominate, so they get their own
    /// plain-SGD rate as in Sukhbaatar et al.
    pub span_lr: f32,
    /// Encoder pruning method and final sparsity; `None` disables.
    pub encoder_prune: Option<(PruneMethod, f32)>,
    /// Final sparsity for magnitude pruning of the embedding table.
    pub embedding_sparsity: f32,
    /// Adam steps for each off-ramp in phase 2.
    pub offramp_steps: usize,
    /// RNG seed for initialisation and shuffling.
    pub seed: u64,
}

impl Default for TrainOptions {
    fn default() -> Self {
        Self {
            epochs: 3,
            lr: 1.5e-3,
            distill_temperature: 2.0,
            distill_weight: 0.5,
            span_penalty: 2e-3,
            span_lr: 25.0,
            encoder_prune: Some((PruneMethod::Movement, 0.5)),
            embedding_sparsity: 0.6,
            offramp_steps: 200,
            seed: 0xED6E,
        }
    }
}

/// Summary statistics of a completed training run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainingSummary {
    /// Dev accuracy of the dense teacher.
    pub teacher_accuracy: f32,
    /// Dev accuracy of the optimized student (full-depth inference).
    pub student_accuracy: f32,
    /// Final encoder weight sparsity.
    pub encoder_sparsity: f32,
    /// Final embedding table sparsity.
    pub embedding_sparsity: f32,
    /// Learned per-head spans.
    pub head_spans: Vec<f32>,
    /// Mean of [`TrainingSummary::head_spans`].
    pub avg_span: f32,
    /// Number of fully-off heads.
    pub heads_off: usize,
}

/// Runs the Fig. 4 procedure end to end.
#[derive(Debug, Clone)]
pub struct Trainer {
    cfg: AlbertConfig,
    layout: VocabLayout,
    opts: TrainOptions,
}

impl Trainer {
    /// Creates a trainer.
    pub fn new(cfg: AlbertConfig, layout: VocabLayout, opts: TrainOptions) -> Self {
        Self { cfg, layout, opts }
    }

    /// Trains the dense teacher: plain cross-entropy fine-tuning, no
    /// pruning, no span penalty, spans pinned fully open.
    pub fn train_teacher(&self, train: &Dataset) -> AlbertModel {
        let mut rng = Rng::seed_from(self.opts.seed);
        let mut model = AlbertModel::pretrained(self.cfg, &self.layout, &mut rng);
        for span in &mut model.encoder.attention.spans {
            span.z.frozen = true;
        }
        let mut opt = AdamOptimizer::new(self.opts.lr);
        let mut order: Vec<usize> = (0..train.len()).collect();
        for _epoch in 0..self.opts.epochs {
            rng.shuffle(&mut order);
            for &i in &order {
                let ex = &train.examples()[i];
                model.zero_grad();
                let cache = model.forward_train(&ex.tokens);
                let logits = Matrix::from_vec(1, self.cfg.num_classes, model.final_logits(&cache));
                let (_, grad) = cross_entropy(&logits, &[ex.label]);
                let grad_hidden = model.backward_final_classifier(&cache, grad.row(0));
                model.backward_from_final(&cache, &grad_hidden);
                opt.step(&mut model.params_mut());
            }
        }
        model
    }

    /// The teacher's final-layer logits on every training example: all
    /// of the teacher that phase 1 reads. The teacher is frozen, so each
    /// example's distillation target is computed once, not once an epoch.
    fn distillation_targets(&self, teacher: &AlbertModel, train: &Dataset) -> Vec<Matrix> {
        train
            .iter()
            .map(|ex| {
                let out = teacher.forward_layers(&ex.tokens);
                let last = out.logits_at(self.cfg.num_layers).to_vec();
                Matrix::from_vec(1, self.cfg.num_classes, last)
            })
            .collect()
    }

    /// Phase 1: student fine-tuning with KD + pruning + adaptive spans,
    /// against distillation targets taken earlier (one per training
    /// example, in order), so the teacher need not outlive them. Returns
    /// the optimized student (off-ramps still untrained except the final
    /// classifier).
    fn train_student_on_targets(&self, teacher_logits: &[Matrix], train: &Dataset) -> AlbertModel {
        let mut rng = Rng::seed_from(self.opts.seed ^ 0x5EED);
        let mut model = AlbertModel::pretrained(self.cfg, &self.layout, &mut rng);
        // Spans train via their dedicated SGD rate below, not via Adam.
        for span in &mut model.encoder.attention.spans {
            span.z.frozen = true;
        }
        let mut opt = AdamOptimizer::new(self.opts.lr);
        let total_steps = (self.opts.epochs * train.len()).max(1);

        // Enable movement tracking on encoder weight matrices.
        let encoder_pruner = self
            .opts
            .encoder_prune
            .map(|(method, sparsity)| Pruner::new(method, sparsity, total_steps));
        if matches!(self.opts.encoder_prune, Some((PruneMethod::Movement, _))) {
            for p in Self::encoder_weight_params(&mut model) {
                p.enable_movement_tracking();
            }
        }
        let embedding_pruner = Pruner::new(
            PruneMethod::Magnitude,
            self.opts.embedding_sparsity,
            total_steps,
        );

        let mut order: Vec<usize> = (0..train.len()).collect();
        let mut step = 0usize;
        let prune_every = (total_steps / 20).max(1);
        for _epoch in 0..self.opts.epochs {
            rng.shuffle(&mut order);
            for &i in &order {
                let ex = &train.examples()[i];
                model.zero_grad();
                let cache = model.forward_train(&ex.tokens);
                let logits = Matrix::from_vec(1, self.cfg.num_classes, model.final_logits(&cache));
                // Task loss.
                let (_, ce_grad) = cross_entropy(&logits, &[ex.label]);
                // Distillation against the teacher's final logits.
                let (_, kd_grad) =
                    distillation(&logits, &teacher_logits[i], self.opts.distill_temperature);
                let mut grad = ce_grad;
                grad.add_assign(&kd_grad.scale(self.opts.distill_weight));

                let grad_hidden = model.backward_final_classifier(&cache, grad.row(0));
                model.backward_from_final(&cache, &grad_hidden);
                // Span penalty (adds to span grads), delayed until the
                // task loss has had time to establish which heads matter —
                // otherwise weakly-learning tasks lose every head before
                // the gradient can defend the useful ones.
                if step >= total_steps / 3 {
                    model
                        .encoder
                        .attention
                        .apply_span_penalty(self.opts.span_penalty);
                }

                // Movement scores use the pre-step (weight, grad) pair.
                for p in Self::encoder_weight_params(&mut model) {
                    p.update_movement_scores();
                }
                opt.step(&mut model.params_mut());
                // Dedicated span update (plain SGD on the scalar z's).
                for span in &mut model.encoder.attention.spans {
                    let g = span.z.grad.get(0, 0);
                    let z = span.z_value();
                    span.set_z(z - self.opts.span_lr * g);
                }
                model.encoder.attention.clamp_spans();

                step += 1;
                if step.is_multiple_of(prune_every) {
                    if let Some(pruner) = &encoder_pruner {
                        for p in Self::encoder_weight_params(&mut model) {
                            pruner.apply(p, step);
                        }
                    }
                    embedding_pruner.apply(&mut model.embedding.table, step);
                }
            }
        }
        // Final mask application at full sparsity.
        if let Some(pruner) = &encoder_pruner {
            for p in Self::encoder_weight_params(&mut model) {
                pruner.apply(p, total_steps);
            }
        }
        embedding_pruner.apply(&mut model.embedding.table, total_steps);
        model
    }

    /// Phase 2: freeze the backbone, fine-tune every non-final off-ramp
    /// on per-layer `[CLS]` features.
    pub fn train_offramps_phase2(&self, model: &mut AlbertModel, train: &Dataset) {
        model.set_backbone_frozen(true);
        let layers = self.cfg.num_layers;
        // Collect per-layer CLS features with one forward pass per example:
        // each layer's off-ramp has just read its `[CLS]` row.
        let mut features: Vec<Matrix> = (0..layers)
            .map(|_| Matrix::zeros(train.len(), self.cfg.hidden_size))
            .collect();
        let labels = train.labels();
        for (i, ex) in train.iter().enumerate() {
            let mut session = model.begin_forward(&ex.tokens);
            for feats in &mut features {
                model.forward_next_layer(&mut session);
                crate::albert::copy_last_cls(feats.row_mut(i));
            }
        }
        // Train each intermediate off-ramp (the final classifier was
        // trained in phase 1 and stays frozen by convention).
        for (l, feats) in features.iter().enumerate().take(layers - 1) {
            let mut opt = AdamOptimizer::new(self.opts.lr);
            for _ in 0..self.opts.offramp_steps {
                let ramp = &mut model.off_ramps[l];
                ramp.zero_grad();
                let logits = ramp.forward_batch(feats);
                let (_, grad) = cross_entropy(&logits, &labels);
                ramp.backward_batch(feats, &grad);
                opt.step(&mut ramp.params_mut());
            }
        }
        model.set_backbone_frozen(false);
    }

    /// Runs the complete procedure: teacher → phase 1 → phase 2. Returns
    /// the student and a summary evaluated on `dev`.
    ///
    /// Set-up's memory high-water is one model in training, not two: the
    /// teacher is dropped once its dev accuracy and distillation targets
    /// are taken, before the student exists. The student comes back as it
    /// is served, weights and pruning masks, its training state released
    /// ([`AlbertModel::release_training_state`]); it can be trained
    /// further all the same.
    pub fn run(&self, train: &Dataset, dev: &Dataset) -> (AlbertModel, TrainingSummary) {
        let (teacher_accuracy, targets) = {
            let teacher = self.train_teacher(train);
            (
                teacher.evaluate_accuracy(dev),
                self.distillation_targets(&teacher, train),
            )
        };
        let mut student = self.train_student_on_targets(&targets, train);
        self.train_offramps_phase2(&mut student, train);
        student.release_training_state();
        let student_accuracy = student.evaluate_accuracy(dev);
        let head_spans = student.head_spans();
        let avg_span = head_spans.iter().sum::<f32>() / head_spans.len().max(1) as f32;
        let heads_off = head_spans.iter().filter(|&&s| s == 0.0).count();
        let summary = TrainingSummary {
            teacher_accuracy,
            student_accuracy,
            encoder_sparsity: student.encoder_sparsity(),
            embedding_sparsity: student.embedding.table_sparsity(),
            head_spans,
            avg_span,
            heads_off,
        };
        (student, summary)
    }

    /// The six encoder weight matrices subject to network pruning.
    fn encoder_weight_params(model: &mut AlbertModel) -> Vec<&mut edgebert_nn::Parameter> {
        vec![
            &mut model.encoder.attention.wq.weight,
            &mut model.encoder.attention.wk.weight,
            &mut model.encoder.attention.wv.weight,
            &mut model.encoder.attention.wo.weight,
            &mut model.encoder.ffn.fc1.weight,
            &mut model.encoder.ffn.fc2.weight,
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edgebert_tasks::{Task, TaskGenerator};

    fn tiny_setup(task: Task, n: usize) -> (AlbertConfig, VocabLayout, Dataset, Dataset) {
        let layout = VocabLayout::standard();
        let cfg = AlbertConfig::tiny(layout.vocab_size(), task.num_classes());
        let gen = TaskGenerator::standard(task, cfg.max_seq_len);
        let data = gen.generate(n, 99);
        let (train, dev) = data.split(0.8);
        (cfg, layout, train, dev)
    }

    #[test]
    fn teacher_learns_above_chance() {
        let (cfg, layout, train, dev) = tiny_setup(Task::Sst2, 100);
        let opts = TrainOptions {
            epochs: 3,
            ..Default::default()
        };
        let trainer = Trainer::new(cfg, layout, opts);
        let teacher = trainer.train_teacher(&train);
        let acc = teacher.evaluate_accuracy(&dev);
        assert!(acc > 0.6, "teacher accuracy {acc}");
    }

    #[test]
    fn full_procedure_produces_sparse_student() {
        let (cfg, layout, train, dev) = tiny_setup(Task::Sst2, 80);
        let opts = TrainOptions {
            epochs: 2,
            offramp_steps: 60,
            encoder_prune: Some((PruneMethod::Movement, 0.5)),
            embedding_sparsity: 0.6,
            ..Default::default()
        };
        let trainer = Trainer::new(cfg, layout, opts);
        let (student, summary) = trainer.run(&train, &dev);
        assert!(
            (summary.encoder_sparsity - 0.5).abs() < 0.05,
            "{}",
            summary.encoder_sparsity
        );
        assert!(
            (summary.embedding_sparsity - 0.6).abs() < 0.05,
            "{}",
            summary.embedding_sparsity
        );
        assert!(
            summary.student_accuracy > 0.55,
            "{}",
            summary.student_accuracy
        );
        // Off-ramps produce finite entropies at every layer.
        let tokens = &train.examples()[0].tokens;
        let out = student.forward_layers(tokens);
        assert!(out.entropies.iter().all(|h| h.is_finite()));

        // What `run` returns is the served model: masks, no training state.
        fn released(p: &edgebert_nn::Parameter) -> bool {
            p.grad.is_empty()
                && p.movement_scores.is_none()
                && p.adam_m.is_none()
                && p.adam_v.is_none()
        }
        let no_training_state = |m: &mut AlbertModel| {
            released(&m.embedding.table)
                && released(&m.embedding.positions)
                && m.params_mut().iter().all(|p| released(p))
        };
        let mut student = student;
        assert!(no_training_state(&mut student));
        assert!(student.embedding.table.mask.is_some());
        assert!(student.encoder.ffn.fc1.weight.mask.is_some());
        // A clone copies none, and a serde round trip serves the same bits.
        assert!(no_training_state(&mut student.clone()));
        let logit_bits = |m: &AlbertModel| -> Vec<u32> {
            let out = m.forward_layers(tokens);
            out.logits.iter().flatten().map(|v| v.to_bits()).collect()
        };
        let wire = serde::json::to_string(&student);
        let mut back: AlbertModel = serde::json::from_str(&wire).expect("model round trip");
        assert_eq!(logit_bits(&back), logit_bits(&student));
        assert!(no_training_state(&mut back));
        assert_eq!(back.encoder_sparsity(), student.encoder_sparsity());

        // Released, it trains again: phase 2 moves the off-ramps, a
        // teacher-style step moves the backbone, and pruned weights stay
        // pruned.
        let ramp_before = student.off_ramps[0].head.weight.value.clone();
        trainer.train_offramps_phase2(&mut student, &train);
        assert_ne!(student.off_ramps[0].head.weight.value, ramp_before);
        let wq_before = student.encoder.attention.wq.weight.value.clone();
        let ex = &train.examples()[0];
        student.zero_grad();
        let cache = student.forward_train(&ex.tokens);
        let logits = Matrix::from_vec(1, cfg.num_classes, student.final_logits(&cache));
        let (_, grad) = cross_entropy(&logits, &[ex.label]);
        let grad_hidden = student.backward_final_classifier(&cache, grad.row(0));
        student.backward_from_final(&cache, &grad_hidden);
        AdamOptimizer::new(1e-3).step(&mut student.params_mut());
        assert_ne!(student.encoder.attention.wq.weight.value, wq_before);
        let wq = &student.encoder.attention.wq.weight;
        let mask = wq.mask.as_ref().expect("masks survive the release");
        let pruned = mask.as_slice().iter().zip(wq.value.as_slice());
        assert!(pruned.clone().any(|(&m, _)| m == 0.0));
        assert!(pruned.filter(|(&m, _)| m == 0.0).all(|(_, &w)| w == 0.0));
        assert!(student.embedding.table.grad.is_empty(), "frozen table");
    }

    #[test]
    fn phase2_improves_intermediate_offramps() {
        let (cfg, layout, train, _dev) = tiny_setup(Task::Sst2, 100);
        let opts = TrainOptions {
            epochs: 2,
            offramp_steps: 120,
            ..Default::default()
        };
        let trainer = Trainer::new(cfg, layout, opts.clone());
        let teacher = trainer.train_teacher(&train);
        let targets = trainer.distillation_targets(&teacher, &train);
        let mut student = trainer.train_student_on_targets(&targets, &train);

        // Off-ramp quality measured where phase 2 optimizes it: the
        // training set's per-layer CLS features.
        let layer1_acc = |m: &AlbertModel| {
            let mut correct = 0;
            for ex in &train {
                let out = m.forward_layers(&ex.tokens);
                if out.prediction_at(1) == ex.label {
                    correct += 1;
                }
            }
            correct as f32 / train.len() as f32
        };
        let before = layer1_acc(&student);
        trainer.train_offramps_phase2(&mut student, &train);
        let after = layer1_acc(&student);
        assert!(
            after + 0.05 >= before,
            "phase 2 should not hurt: {before} -> {after}"
        );
        assert!(after > 0.55, "layer-1 ramp after phase 2: {after}");
    }
}
