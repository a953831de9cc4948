//! Trainable parameters: the value and its pruning mask, plus the
//! training state (gradient, movement scores, Adam moments) that exists
//! only while the parameter is being trained.

use edgebert_tensor::Matrix;
use serde::{Deserialize, Serialize};

/// A trainable tensor.
///
/// What a parameter *is* — and all that is serialized, cached on disk
/// and resident in a served model — is its `value`, its `frozen` flag
/// and an optional **pruning mask** (`1.0` keep / `0.0` pruned). Masked
/// entries are forced to zero after every optimizer step so sparsity is
/// preserved during continued fine-tuning.
///
/// The other four fields exist only while training:
///
/// * the **gradient**, empty (`0 x 0`) until [`Parameter::zero_grad`],
///   [`Parameter::accumulate_grad`] or [`Parameter::grad_mut`] first
///   needs it. A frozen table that nothing differentiates never
///   allocates one;
/// * **movement scores** `S = -Σ_t w_t · g_t` accumulated each step, the
///   importance metric of movement pruning (Sanh et al., the method the
///   paper applies to encoder weights), allocated by
///   [`Parameter::enable_movement_tracking`];
/// * the two **Adam moments**, allocated by the optimizer's first step.
///
/// [`Parameter::release_training_state`] frees all four. A released
/// parameter trains again: each buffer comes back zeroed on its next
/// first use.
///
/// # Example
///
/// ```
/// use edgebert_nn::Parameter;
/// use edgebert_tensor::Matrix;
///
/// let mut p = Parameter::new(Matrix::filled(2, 2, 1.0));
/// assert!(p.grad.is_empty());
/// p.grad_mut().set(0, 0, 0.5);
/// p.zero_grad();
/// assert_eq!(p.grad.get(0, 0), 0.0);
/// p.release_training_state();
/// assert!(p.grad.is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct Parameter {
    /// Current value.
    pub value: Matrix,
    /// Accumulated gradient: the shape of `value` while training, empty
    /// before first use and after release.
    pub grad: Matrix,
    /// Optional pruning mask: `1.0` = keep, `0.0` = pruned.
    pub mask: Option<Matrix>,
    /// Optional movement-pruning importance scores (training only).
    pub movement_scores: Option<Matrix>,
    /// First Adam moment (training only, allocated lazily).
    pub adam_m: Option<Matrix>,
    /// Second Adam moment (training only, allocated lazily).
    pub adam_v: Option<Matrix>,
    /// When `true`, the optimizer skips this parameter (frozen backbone in
    /// training phase 2).
    pub frozen: bool,
}

/// The wire form is the served form: value, mask and the frozen flag.
impl Serialize for Parameter {
    fn to_value(&self) -> serde::Value {
        serde::Value::Map(vec![
            ("value".to_string(), self.value.to_value()),
            ("mask".to_string(), self.mask.to_value()),
            ("frozen".to_string(), self.frozen.to_value()),
        ])
    }
}

impl Deserialize for Parameter {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        Ok(Self {
            mask: Deserialize::from_value(value.field("mask")?)?,
            frozen: Deserialize::from_value(value.field("frozen")?)?,
            ..Self::new(Deserialize::from_value(value.field("value")?)?)
        })
    }
}

impl Parameter {
    /// Wraps a value tensor; no training state is allocated yet.
    pub fn new(value: Matrix) -> Self {
        Self {
            value,
            grad: Matrix::default(),
            mask: None,
            movement_scores: None,
            adam_m: None,
            adam_v: None,
            frozen: false,
        }
    }

    /// Shape of the parameter.
    pub fn shape(&self) -> (usize, usize) {
        self.value.shape()
    }

    /// Number of scalar weights.
    pub fn len(&self) -> usize {
        self.value.len()
    }

    /// Whether the parameter holds no weights.
    pub fn is_empty(&self) -> bool {
        self.value.is_empty()
    }

    /// The gradient buffer, allocated (zeroed) if this is its first use.
    pub fn grad_mut(&mut self) -> &mut Matrix {
        if self.grad.shape() != self.value.shape() {
            self.grad = Matrix::zeros(self.value.rows(), self.value.cols());
        }
        &mut self.grad
    }

    /// Clears the accumulated gradient.
    pub fn zero_grad(&mut self) {
        self.grad_mut().as_mut_slice().fill(0.0);
    }

    /// Accumulates `delta` into the gradient.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn accumulate_grad(&mut self, delta: &Matrix) {
        self.grad_mut().add_assign(delta);
    }

    /// Frees the gradient, the movement scores and the Adam moments,
    /// keeping value, mask and the frozen flag: what training ends with
    /// and a served model starts from.
    pub fn release_training_state(&mut self) {
        self.grad = Matrix::default();
        self.movement_scores = None;
        self.adam_m = None;
        self.adam_v = None;
    }

    /// Enables movement-score tracking (allocates a zeroed score tensor).
    pub fn enable_movement_tracking(&mut self) {
        if self.movement_scores.is_none() {
            self.movement_scores = Some(Matrix::zeros(self.value.rows(), self.value.cols()));
        }
    }

    /// Updates movement scores with the current (value, grad) pair:
    /// `S += -w * g`. Call once per optimization step *before* the weight
    /// update, as in movement pruning.
    pub fn update_movement_scores(&mut self) {
        if let Some(scores) = &mut self.movement_scores {
            for ((s, &w), &g) in scores
                .as_mut_slice()
                .iter_mut()
                .zip(self.value.as_slice().iter())
                .zip(self.grad.as_slice().iter())
            {
                *s += -w * g;
            }
        }
    }

    /// Installs a pruning mask and immediately applies it to the value.
    ///
    /// # Panics
    ///
    /// Panics if the mask shape differs from the value shape.
    pub fn set_mask(&mut self, mask: Matrix) {
        assert_eq!(mask.shape(), self.value.shape(), "mask shape mismatch");
        self.mask = Some(mask);
        self.apply_mask();
    }

    /// Re-applies the mask (if any) to the value, forcing pruned weights to
    /// zero. The optimizer calls this after every step.
    pub fn apply_mask(&mut self) {
        if let Some(mask) = &self.mask {
            for (v, &m) in self.value.as_mut_slice().iter_mut().zip(mask.as_slice()) {
                if m == 0.0 {
                    *v = 0.0;
                }
            }
        }
    }

    /// Current sparsity of the value tensor in `[0, 1]`.
    pub fn sparsity(&self) -> f32 {
        self.value.sparsity()
    }
}

impl From<Matrix> for Parameter {
    fn from(m: Matrix) -> Self {
        Parameter::new(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_has_zero_grad() {
        let mut p = Parameter::new(Matrix::filled(3, 2, 2.0));
        assert_eq!(p.shape(), (3, 2));
        assert!(!p.frozen);
        assert!(p.grad.is_empty(), "not allocated before training");
        assert_eq!(p.grad_mut(), &Matrix::zeros(3, 2));
    }

    #[test]
    fn training_state_goes_on_release_and_comes_back_zeroed() {
        let mut p = Parameter::new(Matrix::filled(3, 2, 2.0));
        p.accumulate_grad(&Matrix::filled(3, 2, 1.0));
        p.enable_movement_tracking();
        p.update_movement_scores();
        p.set_mask(Matrix::filled(3, 2, 1.0));
        p.adam_m = Some(Matrix::zeros(3, 2));
        p.adam_v = Some(Matrix::zeros(3, 2));
        p.release_training_state();
        assert!(p.grad.is_empty());
        assert!(p.movement_scores.is_none() && p.adam_m.is_none() && p.adam_v.is_none());
        assert_eq!(p.value, Matrix::filled(3, 2, 2.0));
        assert!(p.mask.is_some(), "the mask is not training state");

        // Released, it trains again from zeroed buffers.
        p.accumulate_grad(&Matrix::filled(3, 2, 0.5));
        assert_eq!(p.grad, Matrix::filled(3, 2, 0.5));
    }

    #[test]
    fn the_wire_form_is_value_mask_and_frozen() {
        let mut p = Parameter::new(Matrix::from_rows(&[&[1.0, -2.5, 0.1]]));
        p.set_mask(Matrix::from_rows(&[&[1.0, 1.0, 0.0]]));
        p.frozen = true;
        p.accumulate_grad(&Matrix::from_rows(&[&[9.0, 9.0, 9.0]]));
        p.enable_movement_tracking();
        let text = serde::json::to_string(&p);
        assert!(!text.contains("grad") && !text.contains("movement_scores"));
        let back: Parameter = serde::json::from_str(&text).expect("round trip");
        assert_eq!(
            (&back.value, &back.mask, back.frozen),
            (&p.value, &p.mask, true)
        );
        assert!(back.grad.is_empty() && back.movement_scores.is_none());
    }

    #[test]
    fn accumulate_and_zero() {
        let mut p = Parameter::new(Matrix::zeros(1, 2));
        p.accumulate_grad(&Matrix::from_rows(&[&[1.0, 2.0]]));
        p.accumulate_grad(&Matrix::from_rows(&[&[0.5, -1.0]]));
        assert_eq!(p.grad, Matrix::from_rows(&[&[1.5, 1.0]]));
        p.zero_grad();
        assert_eq!(p.grad, Matrix::zeros(1, 2));
    }

    #[test]
    fn movement_scores_accumulate_negative_w_dot_g() {
        let mut p = Parameter::new(Matrix::from_rows(&[&[2.0, -1.0]]));
        p.enable_movement_tracking();
        p.grad = Matrix::from_rows(&[&[0.5, 0.5]]);
        p.update_movement_scores();
        let s = p.movement_scores.as_ref().unwrap();
        // S = -w*g: weight moving toward zero (w>0, g>0) gets negative score.
        assert_eq!(s.get(0, 0), -1.0);
        assert_eq!(s.get(0, 1), 0.5);
    }

    #[test]
    fn mask_forces_zeros() {
        let mut p = Parameter::new(Matrix::from_rows(&[&[1.0, 2.0, 3.0]]));
        p.set_mask(Matrix::from_rows(&[&[1.0, 0.0, 1.0]]));
        assert_eq!(p.value, Matrix::from_rows(&[&[1.0, 0.0, 3.0]]));
        // Simulate an optimizer writing into a pruned slot.
        p.value.set(0, 1, 9.0);
        p.apply_mask();
        assert_eq!(p.value.get(0, 1), 0.0);
        assert!((p.sparsity() - 1.0 / 3.0).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "mask shape mismatch")]
    fn mask_shape_is_checked() {
        let mut p = Parameter::new(Matrix::zeros(2, 2));
        p.set_mask(Matrix::zeros(1, 2));
    }
}
