//! Tensor-level quantization with per-tensor (per-layer) exponent bias.

use crate::format::Fp8Format;
use edgebert_tensor::Matrix;
use serde::{Deserialize, Serialize};

/// A matrix quantized to FP8 with an AdaptivFloat per-tensor exponent
/// bias.
///
/// The raw bytes are exposed so the eNVM subsystem can map them onto
/// ReRAM cells and inject faults into the *stored representation* rather
/// than the decoded floats.
///
/// # Example
///
/// ```
/// use edgebert_quant::QuantizedTensor;
/// use edgebert_tensor::Matrix;
///
/// let w = Matrix::from_rows(&[&[0.5, -2.0, 8.0]]);
/// let q = QuantizedTensor::quantize(&w, 4);
/// let back = q.dequantize();
/// assert!((back.get(0, 2) - 8.0).abs() < 0.5);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QuantizedTensor {
    rows: usize,
    cols: usize,
    format: Fp8Format,
    bytes: Vec<u8>,
}

impl QuantizedTensor {
    /// Quantizes a matrix using `exp_bits` exponent bits and the optimal
    /// per-tensor bias (chosen so the largest magnitude in the tensor is
    /// representable without saturation — the AdaptivFloat rule).
    pub fn quantize(m: &Matrix, exp_bits: u8) -> Self {
        let bias = Self::optimal_bias(m, exp_bits);
        Self::quantize_with_bias(m, exp_bits, bias)
    }

    /// Quantizes with an explicit bias.
    pub fn quantize_with_bias(m: &Matrix, exp_bits: u8, bias: i32) -> Self {
        let format = Fp8Format::new(exp_bits, bias);
        let bytes = m.as_slice().iter().map(|&x| format.encode(x)).collect();
        Self {
            rows: m.rows(),
            cols: m.cols(),
            format,
            bytes,
        }
    }

    /// The AdaptivFloat bias for a tensor: aligns the top of the exponent
    /// range with the tensor's largest magnitude.
    pub fn optimal_bias(m: &Matrix, exp_bits: u8) -> i32 {
        let max_abs = m.as_slice().iter().map(|x| x.abs()).fold(0.0f32, f32::max);
        if max_abs == 0.0 {
            return 7;
        }
        let e_top = (1i32 << exp_bits) - 1;
        e_top - max_abs.log2().floor() as i32
    }

    /// Decodes back to a dense matrix.
    pub fn dequantize(&self) -> Matrix {
        let data = self.bytes.iter().map(|&b| self.format.decode(b)).collect();
        Matrix::from_vec(self.rows, self.cols, data)
    }

    /// The stored format (including the chosen bias).
    pub fn format(&self) -> Fp8Format {
        self.format
    }

    /// Logical shape.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Raw FP8 bytes (row-major).
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }
}

/// Quantize-dequantizes a matrix in one step (the evaluation-time
/// transform applied to all weights and activations in Fig. 4).
pub fn fake_quantize(m: &Matrix, exp_bits: u8) -> Matrix {
    let mut out = m.clone();
    fake_quantize_in_place(&mut out, exp_bits);
    out
}

/// [`fake_quantize`] overwriting `m`: every element becomes
/// `format.decode(format.encode(x))` under the tensor's
/// [`QuantizedTensor::optimal_bias`], bit for bit, without going through
/// the byte form.
// analyzer: hot-path
pub fn fake_quantize_in_place(m: &mut Matrix, exp_bits: u8) {
    let format = Fp8Format::new(exp_bits, QuantizedTensor::optimal_bias(m, exp_bits));
    match Rounder::of(format) {
        Some(rounder) => m.map_inplace(|x| rounder.round(x)),
        None => m.map_inplace(|x| format.quantize(x)),
    }
}

/// Rounds an `f32` onto an [`Fp8Format`]'s value grid from the float's
/// own exponent and mantissa bits.
///
/// Exists only for formats whose every scale — the subnormal step, its
/// reciprocal, the largest value — is a normal `f32`: there each step of
/// `encode` and `decode` is exact, so rounding the bits directly gives
/// the same result. Formats with a bias so extreme that they reach into
/// `f32`'s own subnormals or overflow keep the encode/decode path.
struct Rounder {
    /// `23 - mantissa_bits`: the `f32` mantissa bits rounded away.
    drop_bits: u32,
    min_normal: f32,
    /// The subnormal step `2^(1 - bias - mantissa_bits)` and its inverse.
    step: f32,
    inv_step: f32,
    max_value: f32,
}

impl Rounder {
    fn of(format: Fp8Format) -> Option<Self> {
        let m_bits = format.mantissa_bits() as i32;
        let step_exp = 1 - format.bias() - m_bits;
        let top_exp = (1 << format.exp_bits()) - 1 - format.bias();
        if step_exp < -126 || top_exp > 127 {
            return None;
        }
        let pow2 = |e: i32| f32::from_bits(((e + 127) as u32) << 23);
        Some(Self {
            drop_bits: (23 - m_bits) as u32,
            min_normal: pow2(1 - format.bias()),
            step: pow2(step_exp),
            inv_step: pow2(-step_exp),
            max_value: format.max_value(),
        })
    }

    /// `format.decode(format.encode(x))`.
    #[inline]
    fn round(&self, x: f32) -> f32 {
        // Zero of either sign and NaN encode as byte 0: positive zero.
        if x == 0.0 || x.is_nan() {
            return 0.0;
        }
        let sign = x.to_bits() & 0x8000_0000;
        let a = x.abs();
        let magnitude = if a >= self.max_value {
            self.max_value
        } else if a < self.min_normal {
            // Subnormal grid: the nearest multiple of `step`, ties away
            // from zero, `floor(t + 1/2)` taken as `(floor(2t) + 1) / 2`
            // in integers so the half cannot be lost to float rounding.
            // A value that flushes to zero keeps its sign.
            let t = a * self.inv_step;
            let m = ((t * 2.0) as u32 + 1) >> 1;
            m as f32 * self.step
        } else {
            // Normal grid: add half of the last kept mantissa bit and
            // truncate; a carry out of the mantissa lands in the exponent
            // field, and one past the top exponent saturates.
            let half = 1u32 << (self.drop_bits - 1);
            let rounded = (a.to_bits() + half) & !((1u32 << self.drop_bits) - 1);
            f32::from_bits(rounded).min(self.max_value)
        };
        f32::from_bits(sign | magnitude.to_bits())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edgebert_tensor::Rng;

    /// Root-mean-square quantization error against the unquantized matrix.
    fn rmse_against(q: &QuantizedTensor, reference: &Matrix) -> f32 {
        edgebert_tensor::stats::rmse(q.dequantize().as_slice(), reference.as_slice())
    }

    #[test]
    fn round_trip_preserves_shape_and_zeros() {
        let m = Matrix::from_rows(&[&[0.0, 1.0], &[0.0, -4.0]]);
        let q = QuantizedTensor::quantize(&m, 4);
        let back = q.dequantize();
        assert_eq!(back.shape(), (2, 2));
        assert_eq!(back.get(0, 0), 0.0);
        assert_eq!(back.get(1, 0), 0.0);
        // Bitmask-relevant invariant: zeros stay exactly zero.
        assert_eq!(back.sparsity(), m.sparsity());
    }

    #[test]
    fn adaptive_bias_avoids_saturation() {
        let mut rng = Rng::seed_from(1);
        // Weights with a large outlier, as in NLP layers (paper §3.4).
        let mut m = rng.gaussian_matrix(8, 8, 0.1);
        m.set(0, 0, 37.0);
        let q = QuantizedTensor::quantize(&m, 4);
        let back = q.dequantize();
        // The outlier must be representable within normal FP8 error.
        assert!((back.get(0, 0) - 37.0).abs() / 37.0 < 0.07);
    }

    #[test]
    fn per_tensor_bias_beats_fixed_bias_on_small_values() {
        let mut rng = Rng::seed_from(2);
        let m = rng.gaussian_matrix(16, 16, 0.01);
        let adaptive = QuantizedTensor::quantize(&m, 4);
        let fixed = QuantizedTensor::quantize_with_bias(&m, 4, 7);
        assert!(rmse_against(&adaptive, &m) < rmse_against(&fixed, &m));
    }

    #[test]
    fn fp8_143_keeps_relative_error_small_on_gaussian() {
        let mut rng = Rng::seed_from(3);
        let m = rng.gaussian_matrix(32, 32, 1.0);
        let q = QuantizedTensor::quantize(&m, 4);
        // Typical relative RMS error for 3 mantissa bits is a few percent.
        let rel = rmse_against(&q, &m) / (m.frobenius_norm() / (m.len() as f32).sqrt());
        assert!(rel < 0.05, "relative error {rel}");
    }

    #[test]
    fn exponent_search_prefers_4_bits_for_wide_range() {
        // With a wide dynamic range (layer-norm'd NLP weights plus
        // outliers more than an order of magnitude larger, §3.4), 4
        // exponent bits beat both 2 (small weights flush to zero once the
        // adaptive bias is anchored to the outliers) and 6 (only one
        // mantissa bit left → coarse steps). Metric: mean relative error
        // over non-zero entries, with flush-to-zero counting as 100%.
        let mut rng = Rng::seed_from(4);
        let mut m = rng.gaussian_matrix(64, 64, 0.01);
        // Heavy tail, ~2^10 above the bulk.
        for i in 0..64 {
            let v = (4.0 + rng.uniform() * 6.0) * if rng.chance(0.5) { 1.0 } else { -1.0 };
            m.set(i, i, v);
        }
        let err = |bits: u8| -> f32 {
            let deq = QuantizedTensor::quantize(&m, bits).dequantize();
            let mut total = 0.0f32;
            let mut n = 0usize;
            for (&x, &q) in m.as_slice().iter().zip(deq.as_slice()) {
                if x != 0.0 {
                    total += (((q - x) / x).abs()).min(1.0);
                    n += 1;
                }
            }
            total / n as f32
        };
        let e4 = err(4);
        assert!(e4 < err(2), "4-bit {e4} vs 2-bit {}", err(2));
        assert!(e4 < err(6), "4-bit {e4} vs 6-bit {}", err(6));
    }

    #[test]
    fn bytes_mut_allows_fault_injection() {
        let m = Matrix::from_rows(&[&[1.0, 2.0]]);
        let mut q = QuantizedTensor::quantize(&m, 4);
        let before = q.dequantize();
        q.bytes[0] ^= 0x80; // flip the sign bit
        let after = q.dequantize();
        assert_eq!(after.get(0, 0), -before.get(0, 0));
        assert_eq!(after.get(0, 1), before.get(0, 1));
    }

    /// Every `f32` with `exponent` whose mantissa field is one of 2^10
    /// evenly spaced values (which include every round-half point of up
    /// to ten kept bits, and the power of two itself) or one ulp either
    /// side of one.
    fn mantissa_sweep(exponent: i32) -> impl Iterator<Item = f32> {
        let base = ((exponent + 127) as u32) << 23;
        (0..1u32 << 10).flat_map(move |i| {
            [-1i32, 0, 1]
                .into_iter()
                .map(move |ulp| f32::from_bits((base | (i << 13)).wrapping_add_signed(ulp)))
        })
    }

    #[test]
    fn rounder_equals_encode_decode_bit_for_bit() {
        let mut checked = 0u64;
        for exp_bits in 1..=6u8 {
            let e_top = (1i32 << exp_bits) - 1;
            for bias in [-9, 0, 7, e_top, e_top + 20] {
                let format = Fp8Format::new(exp_bits, bias);
                let rounder = Rounder::of(format).expect("every scale of this format is normal");
                let same = |x: f32| {
                    let (fast, slow) = (rounder.round(x), format.decode(format.encode(x)));
                    assert_eq!(
                        fast.to_bits(),
                        slow.to_bits(),
                        "1-{exp_bits}-{} bias {bias}: {x:e} ({:#010x}) -> {fast:e}, encode/decode {slow:e}",
                        format.mantissa_bits(),
                        x.to_bits()
                    );
                };
                let lowest = 1 - bias - format.mantissa_bits() as i32 - 3;
                let highest = e_top - bias + 3;
                for exponent in lowest.max(-126)..=highest.min(127) {
                    for x in mantissa_sweep(exponent) {
                        same(x);
                        same(-x);
                        checked += 2;
                    }
                }
                let subnormals = [1u32, 2, 0x0040_0000, 0x007f_ffff].map(f32::from_bits);
                let specials = [0.0, f32::INFINITY, f32::NAN, f32::MIN_POSITIVE, f32::MAX];
                for x in subnormals.into_iter().chain(specials) {
                    same(x);
                    same(-x);
                }
            }
        }
        assert!(checked > 5_000_000, "the sweep shrank to {checked} values");
    }

    #[test]
    fn rounder_keeps_what_encode_decode_does_at_the_edges() {
        // Pinned, not endorsed: NaN and a zero of either sign become
        // +0.0, but a negative value that flushes keeps its sign.
        let format = Fp8Format::edgebert(7);
        let rounder = Rounder::of(format).unwrap();
        let max = format.max_value();
        for (x, expect) in [
            (f32::NAN, 0.0f32),
            (-f32::NAN, 0.0),
            (0.0, 0.0),
            (-0.0, 0.0),
            (-format.min_subnormal() * 0.49, -0.0),
            (format.min_subnormal() * 0.5, format.min_subnormal()),
            (f32::from_bits(1), 0.0),
            (-f32::from_bits(1), -0.0),
            (f32::INFINITY, max),
            (f32::NEG_INFINITY, -max),
            (f32::MAX, max),
        ] {
            assert_eq!(rounder.round(x).to_bits(), expect.to_bits(), "{x:e}");
            assert_eq!(format.quantize(x).to_bits(), expect.to_bits(), "{x:e}");
        }
    }

    #[test]
    fn formats_reaching_past_f32_normals_keep_the_encode_decode_path() {
        // 1-4-3: the subnormal step is 2^(1 - bias - 3), the top 2^(15 - bias).
        assert!(Rounder::of(Fp8Format::new(4, 124)).is_some());
        assert!(Rounder::of(Fp8Format::new(4, 125)).is_none());
        assert!(Rounder::of(Fp8Format::new(4, -112)).is_some());
        assert!(Rounder::of(Fp8Format::new(4, -113)).is_none());
        // Tensors whose optimal bias lands on either side of those limits.
        for scale in [1.0e-38f32, 3.0e-36, 1.0, 1.0e33, 3.0e38] {
            let mut rng = Rng::seed_from(6);
            let mut m = rng.gaussian_matrix(6, 6, 1.0);
            m.scale_assign(scale / 4.0);
            m.set(0, 0, scale);
            m.set(1, 1, -0.0);
            for exp_bits in 1..=6 {
                let reference = QuantizedTensor::quantize(&m, exp_bits).dequantize();
                let mut in_place = m.clone();
                fake_quantize_in_place(&mut in_place, exp_bits);
                let bits =
                    |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(
                    bits(&in_place),
                    bits(&reference),
                    "scale {scale:e} bits {exp_bits}"
                );
            }
        }
    }

    #[test]
    fn optimal_bias_just_below_a_power_of_two_is_pinned() {
        // `log2` of the largest f32 below 2^k rounds to `k` itself once
        // `k` is large enough that `k - 1e-7` is not representable, so
        // the bias comes out one lower than the true exponent would give.
        // The rounder depends on reproducing the bias, not on which.
        let below = |k: i32| f32::from_bits(2.0f32.powi(k).to_bits() - 1);
        let bias = |max_abs: f32| {
            QuantizedTensor::optimal_bias(&Matrix::from_rows(&[&[0.0, -max_abs]]), 4)
        };
        assert_eq!(bias(below(0)), 15 - -1);
        assert_eq!(bias(1.0), 15);
        assert_eq!(bias(below(5)), 15 - 5);
        assert_eq!(bias(32.0), 15 - 5);
        assert_eq!(bias(below(-6)), 15 - -6);
        let m = Matrix::from_rows(&[&[below(5), 1.0, -0.3, 0.01]]);
        let mut in_place = m.clone();
        fake_quantize_in_place(&mut in_place, 4);
        assert_eq!(in_place, QuantizedTensor::quantize(&m, 4).dequantize());
        assert_eq!(in_place.get(0, 0), 32.0);
    }

    #[test]
    fn fake_quantize_matches_quantize_dequantize() {
        let mut rng = Rng::seed_from(5);
        let m = rng.gaussian_matrix(4, 4, 1.0);
        assert_eq!(
            fake_quantize(&m, 4),
            QuantizedTensor::quantize(&m, 4).dequantize()
        );
    }
}
