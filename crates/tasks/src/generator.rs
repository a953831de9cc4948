//! Synthetic sentence generators with calibrated difficulty mixes.
//!
//! Each example carries a latent difficulty `d ∈ [0, 1]`. The generator
//! plants class-indicative *keyword* tokens with rate proportional to
//! `1 - d`, and distractors (wrong-class keywords, ambiguous tokens) with
//! rate proportional to `d`. A model trained on these sequences therefore
//! classifies easy sentences confidently from shallow layers, while hard
//! sentences need deeper aggregation — the behaviour that drives
//! entropy-based early exit in the paper.
//!
//! Per-task difficulty mixes are calibrated against the paper's Table 3
//! exit-layer ordering (SST-2 earliest, then QQP, then QNLI/MNLI).

use crate::dataset::{Dataset, Example};
use crate::task::Task;
use crate::vocab::{VocabLayout, CLS, PAD, SEP};
use edgebert_tensor::Rng;
use serde::{Deserialize, Serialize};

/// Index of a task inside the shared vocabulary layout.
pub fn task_index(task: Task) -> u32 {
    match task {
        Task::Mnli => 0,
        Task::Qqp => 1,
        Task::Sst2 => 2,
        Task::Qnli => 3,
    }
}

/// Mixture weights over easy / medium / hard sentences.
///
/// # Example
///
/// ```
/// use edgebert_tasks::{DifficultyProfile, Task};
///
/// let sst2 = DifficultyProfile::for_task(Task::Sst2);
/// let mnli = DifficultyProfile::for_task(Task::Mnli);
/// assert!(sst2.easy_frac() > mnli.easy_frac());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DifficultyProfile {
    easy: f32,
    hard: f32,
}

impl DifficultyProfile {
    /// Creates a profile; the medium fraction is `1 - easy - hard`.
    ///
    /// # Panics
    ///
    /// Panics if the fractions are negative or sum above 1.
    pub fn new(easy: f32, hard: f32) -> Self {
        assert!(
            easy >= 0.0 && hard >= 0.0 && easy + hard <= 1.0,
            "invalid fractions"
        );
        Self { easy, hard }
    }

    /// Calibrated profile for a task. Larger easy fractions produce
    /// earlier average exits, matching the paper's per-task ordering.
    pub fn for_task(task: Task) -> Self {
        match task {
            // Avg conventional-EE exit layers @1% drop (Table 3):
            // SST-2 4.30 < QQP 5.84 < QNLI 8.46 ~ MNLI 8.55
            Task::Sst2 => Self::new(0.62, 0.10),
            Task::Qqp => Self::new(0.48, 0.16),
            Task::Qnli => Self::new(0.25, 0.32),
            Task::Mnli => Self::new(0.22, 0.34),
        }
    }

    /// Fraction of easy sentences.
    pub fn easy_frac(&self) -> f32 {
        self.easy
    }

    /// Samples a difficulty value from the mixture.
    pub fn sample(&self, rng: &mut Rng) -> f32 {
        let u = rng.uniform();
        if u < self.easy {
            rng.uniform_in(0.0, 0.30)
        } else if u < self.easy + self.hard {
            rng.uniform_in(0.70, 0.95)
        } else {
            rng.uniform_in(0.30, 0.70)
        }
    }
}

/// Generator for one task's synthetic corpus.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TaskGenerator {
    task: Task,
    layout: VocabLayout,
    seq_len: usize,
    profile: DifficultyProfile,
    /// Keyword-planting rate for a trivially easy sentence.
    keyword_rate: f32,
    /// Wrong-class keyword rate for a maximally hard sentence.
    distractor_rate: f32,
    /// Ambiguous-token rate for a maximally hard sentence.
    ambiguous_rate: f32,
}

impl TaskGenerator {
    /// Creates a generator with the standard vocabulary layout and
    /// calibrated difficulty profile.
    pub fn standard(task: Task, seq_len: usize) -> Self {
        Self::with_layout(task, seq_len, VocabLayout::standard())
    }

    /// Creates a generator with a custom vocabulary layout.
    ///
    /// # Panics
    ///
    /// Panics if `seq_len < 4` (room for CLS, SEP, and content).
    pub fn with_layout(task: Task, seq_len: usize, layout: VocabLayout) -> Self {
        assert!(seq_len >= 4, "sequence length too short");
        Self {
            task,
            layout,
            seq_len,
            profile: DifficultyProfile::for_task(task),
            keyword_rate: 0.35,
            distractor_rate: 0.12,
            ambiguous_rate: 0.30,
        }
    }

    /// The task this generator produces data for.
    pub fn task(&self) -> Task {
        self.task
    }

    /// Fixed (padded) sequence length.
    pub fn seq_len(&self) -> usize {
        self.seq_len
    }

    /// The vocabulary layout.
    pub fn layout(&self) -> &VocabLayout {
        &self.layout
    }

    /// Generates `n` examples deterministically from `seed`.
    pub fn generate(&self, n: usize, seed: u64) -> Dataset {
        let mut rng = Rng::seed_from(seed ^ (task_index(self.task) as u64) << 32);
        let examples = (0..n).map(|_| self.generate_one(&mut rng)).collect();
        Dataset::new(self.task, examples)
    }

    /// Generates a single example.
    pub fn generate_one(&self, rng: &mut Rng) -> Example {
        let difficulty = self.profile.sample(rng);
        let label = rng.below(self.task.num_classes());
        let tokens = self.sentence(label, difficulty, rng);
        Example {
            tokens,
            label,
            difficulty,
        }
    }

    /// Difficulty above which a sentence's evidence is *negated*: its
    /// keywords come from the rotated (wrong) class and a negator token
    /// flips the meaning, so the label is only recoverable by composing
    /// keyword and negator.
    pub const NEGATION_DIFFICULTY: f32 = 0.55;

    /// Difficulty above which evidence is placed *far from* the `[CLS]`
    /// position (in the final third of the sentence). Combined with the
    /// narrow learned attention spans, distant evidence needs several
    /// encoder applications to propagate to the classification position —
    /// the structural source of depth-dependent classification and thus
    /// of the paper's spread in early-exit layers.
    pub const FAR_EVIDENCE_DIFFICULTY: f32 = 0.30;

    /// The task's negator token (the reserved ambiguous token 0).
    pub fn negator_token(&self) -> u32 {
        self.layout.ambiguous_token(task_index(self.task), 0)
    }

    /// Generates a sentence with a specific label and difficulty — used by
    /// tests and the calibration harness.
    pub fn sentence(&self, label: usize, difficulty: f32, rng: &mut Rng) -> Vec<u32> {
        let t = task_index(self.task);
        let kpc = self.layout.keywords_per_class();
        let classes = self.task.num_classes();
        let min_len = (self.seq_len * 3 / 4).max(2);
        let content_len = min_len + rng.below((self.seq_len - 1 - min_len).max(1));
        let negated = difficulty > Self::NEGATION_DIFFICULTY;
        let far_only = difficulty > Self::FAR_EVIDENCE_DIFFICULTY;
        let evidence_class = if negated {
            (label + 1) % classes
        } else {
            label
        };

        // Background filler with ambiguous noise scaled by difficulty.
        let p_amb = self.ambiguous_rate * difficulty;
        let mut tokens = Vec::with_capacity(self.seq_len);
        tokens.push(CLS);
        for _ in 0..content_len {
            let tok = if rng.uniform() < p_amb {
                self.layout
                    .ambiguous_token(t, 1 + rng.below(kpc as usize - 1) as u32)
            } else {
                self.layout
                    .background_token(rng.below(self.layout.background_count() as usize) as u32)
            };
            tokens.push(tok);
        }

        // Evidence zone: anywhere for easy sentences, the final third for
        // harder ones (far from CLS at position 0).
        let zone_start = if far_only { 1 + content_len * 2 / 3 } else { 1 };
        let zone_len = (content_len + 1 - zone_start).max(1);
        let kw_count = {
            let rate = self.keyword_rate * (1.0 - 0.55 * difficulty);
            let expected = rate * zone_len as f32;
            (expected.round() as usize).clamp(2, zone_len)
        };
        for _ in 0..kw_count {
            let pos = zone_start + rng.below(zone_len);
            tokens[pos] =
                self.layout
                    .class_keyword(t, evidence_class as u32, rng.below(kpc as usize) as u32);
        }
        // Distractor keywords of other classes, scattered anywhere.
        let wrong_count =
            ((self.distractor_rate * difficulty * content_len as f32).round()) as usize;
        for _ in 0..wrong_count {
            let wrong = (evidence_class + 1 + rng.below(classes - 1)) % classes;
            let pos = 1 + rng.below(content_len);
            tokens[pos] =
                self.layout
                    .class_keyword(t, wrong as u32, rng.below(kpc as usize) as u32);
        }
        if negated {
            // One negator inside the evidence zone; the model must
            // compose it with the (rotated-class) keywords.
            let pos = zone_start + rng.below(zone_len);
            tokens[pos] = self.negator_token();
            // Re-guarantee evidence survives the overwrites.
            let mut planted = 0usize;
            let mut guard = 0usize;
            while planted < 2 && guard < 64 {
                let pos2 = zone_start + rng.below(zone_len);
                guard += 1;
                if pos2 != pos {
                    tokens[pos2] = self.layout.class_keyword(
                        t,
                        evidence_class as u32,
                        rng.below(kpc as usize) as u32,
                    );
                    planted += 1;
                }
            }
        }
        tokens.push(SEP);
        tokens.resize(self.seq_len, PAD);
        tokens
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generate_is_deterministic() {
        let g = TaskGenerator::standard(Task::Mnli, 32);
        let a = g.generate(20, 7);
        let b = g.generate(20, 7);
        assert_eq!(a.examples(), b.examples());
        let c = g.generate(20, 8);
        assert_ne!(a.examples(), c.examples());
    }

    #[test]
    fn sequences_are_well_formed() {
        let g = TaskGenerator::standard(Task::Qnli, 24);
        let data = g.generate(50, 3);
        for ex in &data {
            assert_eq!(ex.tokens.len(), 24);
            assert_eq!(ex.tokens[0], CLS);
            assert!(ex.tokens.contains(&SEP));
            assert!(ex.label < Task::Qnli.num_classes());
            assert!((0.0..=1.0).contains(&ex.difficulty));
            // Tokens must be within the vocabulary.
            let vs = g.layout().vocab_size() as u32;
            assert!(ex.tokens.iter().all(|&t| t < vs));
        }
    }

    #[test]
    fn easy_sentences_carry_direct_evidence_hard_carry_negated() {
        let g = TaskGenerator::standard(Task::Sst2, 64);
        let mut rng = Rng::seed_from(11);
        let t = task_index(Task::Sst2);
        let count_kw = |tokens: &[u32], class: u32| {
            tokens
                .iter()
                .filter(|&&tok| g.layout().is_class_keyword(tok, t, class))
                .count()
        };
        let neg = g.negator_token();
        let mut easy_direct = 0usize;
        let mut easy_negators = 0usize;
        let mut hard_negators = 0usize;
        for _ in 0..50 {
            let e = g.sentence(1, 0.05, &mut rng);
            easy_direct += count_kw(&e, 1);
            easy_negators += e.iter().filter(|&&x| x == neg).count();
            let h = g.sentence(1, 0.95, &mut rng);
            hard_negators += h.iter().filter(|&&x| x == neg).count();
        }
        assert!(
            easy_direct > 100,
            "easy sentences carry direct keywords: {easy_direct}"
        );
        assert_eq!(easy_negators, 0, "easy sentences have no negators");
        assert!(
            hard_negators >= 50,
            "hard sentences carry negators: {hard_negators}"
        );
    }

    #[test]
    fn difficulty_profile_ordering() {
        let mut rng = Rng::seed_from(5);
        let mut mean_d = |task: Task| {
            let p = DifficultyProfile::for_task(task);
            (0..2000).map(|_| p.sample(&mut rng)).sum::<f32>() / 2000.0
        };
        let sst2 = mean_d(Task::Sst2);
        let qqp = mean_d(Task::Qqp);
        let mnli = mean_d(Task::Mnli);
        assert!(sst2 < qqp, "sst2 {sst2} qqp {qqp}");
        assert!(qqp < mnli, "qqp {qqp} mnli {mnli}");
    }

    #[test]
    fn class_balance_is_roughly_uniform() {
        let g = TaskGenerator::standard(Task::Mnli, 16);
        let data = g.generate(3000, 1);
        let labels = data.labels();
        for class in 0..3 {
            let frac = labels.iter().filter(|&&l| l == class).count() as f32 / 3000.0;
            assert!((frac - 1.0 / 3.0).abs() < 0.05, "class fraction {frac}");
        }
    }

    #[test]
    #[should_panic(expected = "invalid fractions")]
    fn profile_rejects_bad_fractions() {
        DifficultyProfile::new(0.8, 0.5);
    }
}
