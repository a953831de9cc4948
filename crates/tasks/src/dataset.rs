//! Labeled examples and dataset containers.

use crate::task::Task;
use serde::{Deserialize, Serialize};

/// One tokenized, labeled sentence.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Example {
    /// Token ids, fixed length (padded with [`crate::vocab::PAD`]).
    pub tokens: Vec<u32>,
    /// Gold class label.
    pub label: usize,
    /// Latent difficulty in `[0, 1]` used by the generator (0 = trivially
    /// classifiable, 1 = nearly signal-free). Kept for analysis; the model
    /// never sees it.
    pub difficulty: f32,
}

/// A set of examples for one task.
///
/// # Example
///
/// ```
/// use edgebert_tasks::{Task, TaskGenerator};
///
/// let gen = TaskGenerator::standard(Task::Sst2, 32);
/// let data = gen.generate(10, 42);
/// assert_eq!(data.len(), 10);
/// let (train, dev) = data.split(0.8);
/// assert_eq!(train.len(), 8);
/// assert_eq!(dev.len(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Dataset {
    task: Task,
    examples: Vec<Example>,
}

impl Dataset {
    /// Creates a dataset from parts.
    pub fn new(task: Task, examples: Vec<Example>) -> Self {
        Self { task, examples }
    }

    /// The task these examples belong to.
    pub fn task(&self) -> Task {
        self.task
    }

    /// Number of examples.
    pub fn len(&self) -> usize {
        self.examples.len()
    }

    /// Whether the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.examples.is_empty()
    }

    /// Immutable view of the examples.
    pub fn examples(&self) -> &[Example] {
        &self.examples
    }

    /// Iterates over the examples.
    pub fn iter(&self) -> std::slice::Iter<'_, Example> {
        self.examples.iter()
    }

    /// Splits into `(train, dev)` at `train_frac` (clamped to `[0, 1]`).
    pub fn split(&self, train_frac: f32) -> (Dataset, Dataset) {
        let frac = train_frac.clamp(0.0, 1.0);
        let cut = (self.examples.len() as f32 * frac).round() as usize;
        let cut = cut.min(self.examples.len());
        (
            Dataset::new(self.task, self.examples[..cut].to_vec()),
            Dataset::new(self.task, self.examples[cut..].to_vec()),
        )
    }

    /// Gold labels in order.
    pub fn labels(&self) -> Vec<usize> {
        self.examples.iter().map(|e| e.label).collect()
    }
}

impl<'a> IntoIterator for &'a Dataset {
    type Item = &'a Example;
    type IntoIter = std::slice::Iter<'a, Example>;

    fn into_iter(self) -> Self::IntoIter {
        self.examples.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> Dataset {
        Dataset::new(
            Task::Qqp,
            (0..10)
                .map(|i| Example {
                    tokens: vec![1, 2, 3],
                    label: i % 2,
                    difficulty: i as f32 / 10.0,
                })
                .collect(),
        )
    }

    #[test]
    fn split_fractions() {
        let d = toy();
        let (tr, dev) = d.split(0.7);
        assert_eq!(tr.len(), 7);
        assert_eq!(dev.len(), 3);
        let (all, none) = d.split(1.5);
        assert_eq!(all.len(), 10);
        assert!(none.is_empty());
    }

    #[test]
    fn labels_and_balance() {
        let d = toy();
        let labels = d.labels();
        assert_eq!(labels.len(), 10);
        assert_eq!(labels.iter().filter(|&&l| l == 0).count(), 5);
    }

    #[test]
    fn iteration() {
        let d = toy();
        assert_eq!(d.iter().count(), 10);
        assert_eq!((&d).into_iter().count(), 10);
    }
}
