//! Parametric 8-bit floating-point formats.

use serde::{Deserialize, Serialize};

/// An 8-bit floating-point format: 1 sign bit, `exp_bits` exponent bits,
/// and `7 - exp_bits` mantissa bits, plus a tensor-level exponent bias.
///
/// The paper's search found 4 exponent bits optimal for ALBERT
/// ([`Fp8Format::edgebert`]), i.e. a 1-4-3 split.
///
/// # Example
///
/// ```
/// use edgebert_quant::Fp8Format;
///
/// let fmt = Fp8Format::edgebert(0);
/// let byte = fmt.encode(0.75);
/// let back = fmt.decode(byte);
/// assert!((back - 0.75).abs() < 0.1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Fp8Format {
    exp_bits: u8,
    /// Exponent bias. Stored exponent `e` represents `2^(e - bias)`.
    bias: i32,
}

impl Fp8Format {
    /// Creates a format with the given exponent width and bias.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= exp_bits <= 6` (at least one mantissa bit).
    pub fn new(exp_bits: u8, bias: i32) -> Self {
        assert!((1..=6).contains(&exp_bits), "exp_bits must be in 1..=6");
        Self { exp_bits, bias }
    }

    /// The paper's 1-4-3 format with a custom bias.
    pub fn edgebert(bias: i32) -> Self {
        Self::new(4, bias)
    }

    /// Exponent field width in bits.
    pub fn exp_bits(&self) -> u8 {
        self.exp_bits
    }

    /// Mantissa field width in bits.
    pub fn mantissa_bits(&self) -> u8 {
        7 - self.exp_bits
    }

    /// The exponent bias.
    pub fn bias(&self) -> i32 {
        self.bias
    }

    /// Largest representable magnitude.
    pub fn max_value(&self) -> f32 {
        let e_top = (1 << self.exp_bits) - 1;
        let m_bits = self.mantissa_bits() as i32;
        let frac = 2.0 - 2.0f32.powi(-m_bits);
        frac * 2.0f32.powi(e_top - self.bias)
    }

    /// Smallest positive normal magnitude.
    pub fn min_normal(&self) -> f32 {
        2.0f32.powi(1 - self.bias)
    }

    /// Smallest positive subnormal magnitude.
    pub fn min_subnormal(&self) -> f32 {
        2.0f32.powi(1 - self.bias - self.mantissa_bits() as i32)
    }

    /// Encodes an `f32` to a byte: round-to-nearest, saturating at
    /// [`Fp8Format::max_value`], flushing below half the minimum
    /// subnormal to zero. NaN encodes as zero.
    pub fn encode(&self, x: f32) -> u8 {
        if x == 0.0 || x.is_nan() {
            return 0;
        }
        let sign: u8 = if x < 0.0 { 0x80 } else { 0 };
        let a = x.abs();
        let m_bits = self.mantissa_bits() as i32;
        let m_max = (1u32 << m_bits) - 1;
        let e_top = (1i32 << self.exp_bits) - 1;

        if a.is_infinite() || a >= self.max_value() {
            // Saturate.
            return sign | ((e_top as u8) << self.mantissa_bits()) | (m_max as u8);
        }
        let e_unb = a.log2().floor() as i32;
        let e_stored = e_unb + self.bias;
        if e_stored <= 0 {
            // Subnormal: value = m/2^M * 2^(1 - bias)
            let scale = 2.0f32.powi(1 - self.bias - m_bits);
            let m = (a / scale).round() as u32;
            if m == 0 {
                return sign; // flushed to (signed) zero
            }
            if m > m_max {
                // Rounded up into the smallest normal.
                return sign | (1 << self.mantissa_bits());
            }
            return sign | (m as u8);
        }
        // Normal: value = (1 + m/2^M) * 2^(e_stored - bias)
        let frac = a / 2.0f32.powi(e_unb) - 1.0;
        let mut m = (frac * (m_max + 1) as f32).round() as u32;
        let mut e = e_stored;
        if m > m_max {
            m = 0;
            e += 1;
            if e > e_top {
                return sign | ((e_top as u8) << self.mantissa_bits()) | (m_max as u8);
            }
        }
        sign | ((e as u8) << self.mantissa_bits()) | (m as u8)
    }

    /// Decodes a byte back to `f32`.
    pub fn decode(&self, byte: u8) -> f32 {
        let m_bits = self.mantissa_bits() as i32;
        let m_mask = (1u8 << m_bits) - 1;
        let sign = if byte & 0x80 != 0 { -1.0f32 } else { 1.0 };
        let e = ((byte & 0x7f) >> m_bits) as i32;
        let m = (byte & m_mask) as f32;
        let m_scale = 2.0f32.powi(-m_bits);
        if e == 0 {
            sign * m * m_scale * 2.0f32.powi(1 - self.bias)
        } else {
            sign * (1.0 + m * m_scale) * 2.0f32.powi(e - self.bias)
        }
    }

    /// Quantization (encode-decode) of a single value.
    pub fn quantize(&self, x: f32) -> f32 {
        self.decode(self.encode(x))
    }
}

impl Default for Fp8Format {
    /// The paper's 1-4-3 format with an IEEE-like bias of 7.
    fn default() -> Self {
        Self::edgebert(7)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_round_trips() {
        let fmt = Fp8Format::default();
        assert_eq!(fmt.encode(0.0), 0);
        assert_eq!(fmt.decode(0), 0.0);
        assert_eq!(fmt.quantize(-0.0), 0.0);
    }

    #[test]
    fn sign_symmetry() {
        let fmt = Fp8Format::default();
        for &x in &[0.1f32, 1.0, 3.5, 100.0] {
            assert_eq!(fmt.quantize(-x), -fmt.quantize(x));
        }
    }

    #[test]
    fn exact_powers_of_two_round_trip() {
        let fmt = Fp8Format::edgebert(7);
        for e in -5..5 {
            let x = 2.0f32.powi(e);
            assert_eq!(fmt.quantize(x), x, "2^{e}");
        }
    }

    #[test]
    fn relative_error_bound_for_normals() {
        // With 3 mantissa bits the relative quantization error of a normal
        // value is at most 2^-4 = 6.25%.
        let fmt = Fp8Format::edgebert(7);
        let mut x = fmt.min_normal() * 1.01;
        while x < fmt.max_value() * 0.99 {
            let q = fmt.quantize(x);
            let rel = ((q - x) / x).abs();
            assert!(rel <= 0.0625 + 1e-4, "x={x} q={q} rel={rel}");
            x *= 1.37;
        }
    }

    #[test]
    fn saturation_at_max() {
        let fmt = Fp8Format::edgebert(7);
        let max = fmt.max_value();
        assert_eq!(fmt.quantize(max * 100.0), max);
        assert_eq!(fmt.quantize(f32::INFINITY), max);
        assert_eq!(fmt.quantize(-f32::INFINITY), -max);
    }

    #[test]
    fn subnormals_are_represented() {
        let fmt = Fp8Format::edgebert(7);
        let tiny = fmt.min_subnormal();
        assert!(fmt.quantize(tiny) > 0.0);
        // Below half the smallest subnormal flushes to zero.
        assert_eq!(fmt.quantize(tiny * 0.49), 0.0);
    }

    #[test]
    fn nan_encodes_to_zero() {
        let fmt = Fp8Format::default();
        assert_eq!(fmt.encode(f32::NAN), 0);
    }

    #[test]
    fn bias_shifts_representable_range() {
        // Larger bias covers smaller magnitudes; smaller bias covers
        // larger magnitudes — the AdaptivFloat lever.
        let lo = Fp8Format::edgebert(12);
        let hi = Fp8Format::edgebert(2);
        assert!(lo.max_value() < hi.max_value());
        assert!(lo.min_subnormal() < hi.min_subnormal());
        // 1-4-3 with bias chosen for big weights: can represent >64.
        assert!(hi.max_value() > 1000.0);
    }

    #[test]
    fn quantize_is_idempotent() {
        let fmt = Fp8Format::default();
        let mut x = -300.0f32;
        while x < 300.0 {
            let q = fmt.quantize(x);
            assert_eq!(fmt.quantize(q), q, "x={x}");
            x += 1.7;
        }
    }

    #[test]
    fn monotone_on_sample_grid() {
        let fmt = Fp8Format::default();
        let mut prev = f32::NEG_INFINITY;
        let mut x = -20.0f32;
        while x <= 20.0 {
            let q = fmt.quantize(x);
            assert!(q >= prev, "quantize not monotone at {x}");
            prev = q;
            x += 0.01;
        }
    }

    #[test]
    fn encode_decode_all_bytes_consistent() {
        // Every byte decodes to a value that re-encodes to itself (or an
        // equivalent representation of the same value, e.g. -0).
        let fmt = Fp8Format::edgebert(7);
        for b in 0u16..=255 {
            let b = b as u8;
            let v = fmt.decode(b);
            let b2 = fmt.encode(v);
            assert_eq!(fmt.decode(b2), v, "byte {b:#x} -> {v} -> {b2:#x}");
        }
    }
}
