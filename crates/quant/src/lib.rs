//! 8-bit floating-point quantization (AdaptivFloat-style).
//!
//! The paper quantizes all ALBERT weights and activations to 8-bit
//! *floating point* — not integers — because layer normalization leaves
//! NLP weight distributions with a dynamic range integers cannot cover
//! (§3.4). The chosen format is 1 sign + 4 exponent + 3 mantissa bits,
//! with the exponent bias selected **per layer** to match each tensor's
//! range (the AdaptivFloat scheme of Tambe et al.).
//!
//! This crate provides:
//!
//! * [`Fp8Format`] — parametric sign/exponent/mantissa split with encode
//!   and decode (round-to-nearest, saturating, subnormal support);
//! * [`QuantizedTensor`] — a matrix quantized with a per-tensor exponent
//!   bias, exposing its raw bytes for eNVM storage and fault injection.

pub mod format;
pub mod tensor;

pub use format::Fp8Format;
pub use tensor::QuantizedTensor;
