//! The four evaluation tasks and their paper-reported reference numbers.

use serde::{Deserialize, Serialize};
use std::fmt;

/// One of the four GLUE tasks the paper evaluates on (§2.1).
///
/// # Example
///
/// ```
/// use edgebert_tasks::Task;
///
/// assert_eq!(Task::Mnli.num_classes(), 3);
/// assert_eq!(Task::Sst2.num_classes(), 2);
/// assert_eq!(Task::all().len(), 4);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Task {
    /// MultiNLI: 3-way textual entailment (Inference category).
    Mnli,
    /// Quora Question Pairs: binary paraphrase detection (Similarity).
    Qqp,
    /// Stanford Sentiment Treebank: binary sentiment (Single-Sentence).
    Sst2,
    /// Question NLI: binary answerability (Inference category).
    Qnli,
}

impl Task {
    /// All four tasks in the paper's reporting order.
    pub fn all() -> [Task; 4] {
        [Task::Mnli, Task::Qqp, Task::Sst2, Task::Qnli]
    }

    /// Canonical lowercase task name.
    pub fn name(self) -> &'static str {
        match self {
            Task::Mnli => "mnli",
            Task::Qqp => "qqp",
            Task::Sst2 => "sst-2",
            Task::Qnli => "qnli",
        }
    }

    /// Number of output classes.
    pub fn num_classes(self) -> usize {
        match self {
            Task::Mnli => 3,
            _ => 2,
        }
    }

    /// Encoder sparsity achieved per task in the paper's Table 3.
    pub fn paper_encoder_sparsity(self) -> f32 {
        match self {
            Task::Mnli => 0.50,
            Task::Qqp => 0.80,
            Task::Sst2 => 0.50,
            Task::Qnli => 0.60,
        }
    }

    /// Embedding sparsity per Table 3 (uniform 60% across tasks).
    pub fn paper_embedding_sparsity(self) -> f32 {
        0.60
    }

    /// Average attention span per Table 3.
    pub fn paper_avg_attention_span(self) -> f32 {
        match self {
            Task::Mnli => 12.7,
            Task::Qqp => 11.3,
            Task::Sst2 => 18.4,
            Task::Qnli => 21.5,
        }
    }

    /// Learned per-head spans from the paper's Table 1 (12 heads).
    pub fn paper_head_spans(self) -> [f32; 12] {
        match self {
            Task::Mnli => [
                20.0, 0.0, 0.0, 0.0, 0.0, 0.0, 36.0, 81.0, 0.0, 0.0, 0.0, 10.0,
            ],
            Task::Qqp => [
                16.0, 0.0, 0.0, 0.0, 0.0, 0.0, 40.0, 75.0, 0.0, 0.0, 0.0, 2.0,
            ],
            Task::Sst2 => [
                31.0, 0.0, 0.0, 0.0, 0.0, 101.0, 14.0, 5.0, 0.0, 36.0, 0.0, 0.0,
            ],
            Task::Qnli => [
                39.0, 0.0, 0.0, 0.0, 0.0, 105.0, 22.0, 19.0, 0.0, 51.0, 0.0, 0.0,
            ],
        }
    }
}

impl fmt::Display for Task {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Task::Mnli => write!(f, "MNLI"),
            Task::Qqp => write!(f, "QQP"),
            Task::Sst2 => write!(f, "SST-2"),
            Task::Qnli => write!(f, "QNLI"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_counts() {
        assert_eq!(Task::Mnli.num_classes(), 3);
        assert_eq!(Task::Qqp.num_classes(), 2);
        assert_eq!(Task::Sst2.num_classes(), 2);
        assert_eq!(Task::Qnli.num_classes(), 2);
    }

    #[test]
    fn paper_table1_spans_average_matches_caption() {
        // Table 1 reports avg spans 12.3 / 11.0 / 15.6 / 19.6.
        let expect = [12.3f32, 11.0, 15.6, 19.6];
        for (task, e) in Task::all().iter().zip(expect.iter()) {
            let avg: f32 = task.paper_head_spans().iter().sum::<f32>() / 12.0;
            assert!((avg - e).abs() < 0.1, "{task}: {avg} vs {e}");
        }
    }

    #[test]
    fn more_than_half_heads_off_in_paper_spans() {
        for task in Task::all() {
            let off = task
                .paper_head_spans()
                .iter()
                .filter(|&&s| s == 0.0)
                .count();
            assert!(off >= 7, "{task} has only {off} heads off");
        }
    }

    #[test]
    fn display_and_name() {
        assert_eq!(Task::Sst2.to_string(), "SST-2");
        assert_eq!(Task::Sst2.name(), "sst-2");
    }
}
