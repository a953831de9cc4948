//! Offline shim for `serde`, sufficient for this workspace.
//!
//! The build environment has no network access, so the workspace vendors
//! a compact serialization layer with the same spelling as serde:
//! `#[derive(Serialize, Deserialize)]` (provided by the sibling
//! `serde_derive` proc-macro crate), plus a [`json`] module for
//! round-tripping through text.
//!
//! Architecture: types convert to and from a self-describing [`Value`]
//! tree (null / bool / integer / float / string / sequence / map), and
//! the JSON front-end renders or parses that tree. Structs serialize as
//! maps keyed by field name, unit enums as their variant name — the same
//! observable layout serde_json produces for such types, which keeps the
//! request/response wire format stable if the real serde is ever swapped
//! back in.

pub use serde_derive::{Deserialize, Serialize};

pub mod json;

/// Self-describing serialized tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// JSON `null`.
    Null,
    /// Boolean.
    Bool(bool),
    /// Unsigned integer (kept exact; never routed through f64).
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Floating point.
    F64(f64),
    /// String.
    Str(String),
    /// Sequence.
    Seq(Vec<Value>),
    /// Ordered map (struct fields in declaration order).
    Map(Vec<(String, Value)>),
}

/// Deserialization failure: what was expected and what was found.
#[derive(Debug, Clone, PartialEq)]
pub struct Error {
    /// Human-readable description.
    pub message: String,
}

impl Error {
    /// Creates an error with a formatted message.
    pub fn new(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
        }
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "deserialization error: {}", self.message)
    }
}

impl std::error::Error for Error {}

impl Value {
    /// Looks up a field of a map value (struct layout).
    pub fn field(&self, name: &str) -> Result<&Value, Error> {
        match self {
            Value::Map(entries) => entries
                .iter()
                .find(|(k, _)| k == name)
                .map(|(_, v)| v)
                .ok_or_else(|| Error::new(format!("missing field `{name}`"))),
            other => Err(Error::new(format!(
                "expected map with field `{name}`, found {other:?}"
            ))),
        }
    }

    /// The value as f64 if it is any numeric variant.
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Value::U64(v) => Some(v as f64),
            Value::I64(v) => Some(v as f64),
            Value::F64(v) => Some(v),
            _ => None,
        }
    }

    /// The value as i128 if it is an integer variant.
    pub fn as_int(&self) -> Option<i128> {
        match *self {
            Value::U64(v) => Some(v as i128),
            Value::I64(v) => Some(v as i128),
            // Accept integral floats: JSON readers may hand back 3.0.
            Value::F64(v) if v.fract() == 0.0 && v.abs() < 9.0e15 => Some(v as i128),
            _ => None,
        }
    }
}

/// Conversion into the [`Value`] tree.
pub trait Serialize {
    /// Serializes `self` into a value tree.
    fn to_value(&self) -> Value;
}

/// Conversion back from the [`Value`] tree.
pub trait Deserialize: Sized {
    /// Rebuilds `Self` from a value tree.
    fn from_value(value: &Value) -> Result<Self, Error>;
}

// ---------------------------------------------------------------------
// Primitive impls
// ---------------------------------------------------------------------

macro_rules! impl_unsigned {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value { Value::U64(*self as u64) }
        }
        impl Deserialize for $t {
            fn from_value(value: &Value) -> Result<Self, Error> {
                let raw = value
                    .as_int()
                    .ok_or_else(|| Error::new(format!("expected integer, found {value:?}")))?;
                <$t>::try_from(raw).map_err(|_| {
                    Error::new(format!("integer {raw} out of range for {}", stringify!($t)))
                })
            }
        }
    )*};
}

macro_rules! impl_signed {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value { Value::I64(*self as i64) }
        }
        impl Deserialize for $t {
            fn from_value(value: &Value) -> Result<Self, Error> {
                let raw = value
                    .as_int()
                    .ok_or_else(|| Error::new(format!("expected integer, found {value:?}")))?;
                <$t>::try_from(raw).map_err(|_| {
                    Error::new(format!("integer {raw} out of range for {}", stringify!($t)))
                })
            }
        }
    )*};
}

impl_unsigned!(u8, u16, u32, u64, usize);
impl_signed!(i8, i16, i32, i64, isize);

macro_rules! impl_float {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value { Value::F64(*self as f64) }
        }
        impl Deserialize for $t {
            fn from_value(value: &Value) -> Result<Self, Error> {
                let v = value
                    .as_f64()
                    .ok_or_else(|| Error::new(format!("expected number, found {value:?}")))?;
                // Only the writer's escape object spells an infinity; a
                // finite number too large for the type, or a nonzero one
                // too small for it, is refused.
                let narrowed = v as $t;
                if (v.is_finite() && narrowed.is_infinite()) || (v != 0.0 && narrowed == 0.0) {
                    return Err(Error::new(format!(
                        "number {v} out of range for {}",
                        stringify!($t)
                    )));
                }
                Ok(narrowed)
            }
        }
    )*};
}

impl_float!(f32, f64);

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Deserialize for bool {
    fn from_value(value: &Value) -> Result<Self, Error> {
        match value {
            Value::Bool(b) => Ok(*b),
            other => Err(Error::new(format!("expected bool, found {other:?}"))),
        }
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl Deserialize for String {
    fn from_value(value: &Value) -> Result<Self, Error> {
        match value {
            Value::Str(s) => Ok(s.clone()),
            other => Err(Error::new(format!("expected string, found {other:?}"))),
        }
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Seq(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(value: &Value) -> Result<Self, Error> {
        match value {
            Value::Seq(items) => items.iter().map(T::from_value).collect(),
            other => Err(Error::new(format!("expected sequence, found {other:?}"))),
        }
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        Value::Seq(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn to_value(&self) -> Value {
        Value::Seq(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize + std::fmt::Debug, const N: usize> Deserialize for [T; N] {
    fn from_value(value: &Value) -> Result<Self, Error> {
        let items = Vec::<T>::from_value(value)?;
        let len = items.len();
        <[T; N]>::try_from(items)
            .map_err(|_| Error::new(format!("expected array of {N}, found {len} items")))
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(v) => v.to_value(),
            None => Value::Null,
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(value: &Value) -> Result<Self, Error> {
        match value {
            Value::Null => Ok(None),
            other => T::from_value(other).map(Some),
        }
    }
}

impl<T: Serialize + ?Sized> Serialize for Box<T> {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Deserialize> Deserialize for Box<T> {
    fn from_value(value: &Value) -> Result<Self, Error> {
        T::from_value(value).map(Box::new)
    }
}

// `Arc` serializes transparently as its pointee (upstream serde's
// `rc` feature semantics): shared ownership is a runtime artifact, not
// part of the wire format. Deserializing allocates a fresh Arc, so
// values that were one allocation before a round-trip come back as
// independent ones — fine for this workspace's read-only shares
// (models, LUTs).
impl<T: Serialize + ?Sized> Serialize for std::sync::Arc<T> {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Deserialize> Deserialize for std::sync::Arc<T> {
    fn from_value(value: &Value) -> Result<Self, Error> {
        T::from_value(value).map(std::sync::Arc::new)
    }
}

macro_rules! impl_tuple {
    ($(($($name:ident . $idx:tt),+ ; $len:expr)),*) => {$(
        impl<$($name: Serialize),+> Serialize for ($($name,)+) {
            fn to_value(&self) -> Value {
                Value::Seq(vec![$(self.$idx.to_value()),+])
            }
        }
        impl<$($name: Deserialize),+> Deserialize for ($($name,)+) {
            fn from_value(value: &Value) -> Result<Self, Error> {
                match value {
                    Value::Seq(items) if items.len() == $len => {
                        Ok(($($name::from_value(&items[$idx])?,)+))
                    }
                    other => Err(Error::new(format!(
                        "expected {}-tuple, found {other:?}", $len
                    ))),
                }
            }
        }
    )*};
}

impl_tuple!(
    (A.0; 1),
    (A.0, B.1; 2),
    (A.0, B.1, C.2; 3),
    (A.0, B.1, C.2, D.3; 4)
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip_through_values() {
        assert_eq!(u64::from_value(&42u64.to_value()).unwrap(), 42);
        assert_eq!(i32::from_value(&(-7i32).to_value()).unwrap(), -7);
        assert_eq!(f64::from_value(&1.5f64.to_value()).unwrap(), 1.5);
        assert!(bool::from_value(&true.to_value()).unwrap());
        let v: Vec<u32> = vec![1, 2, 3];
        assert_eq!(Vec::<u32>::from_value(&v.to_value()).unwrap(), v);
        let o: Option<usize> = None;
        assert_eq!(Option::<usize>::from_value(&o.to_value()).unwrap(), None);
        let t = ("x".to_string(), 2.5f64, 3u64);
        assert_eq!(<(String, f64, u64)>::from_value(&t.to_value()).unwrap(), t);
    }

    #[test]
    fn u64_precision_is_exact() {
        let big = u64::MAX - 3;
        assert_eq!(u64::from_value(&big.to_value()).unwrap(), big);
    }

    #[test]
    fn type_mismatches_error() {
        assert!(bool::from_value(&Value::U64(1)).is_err());
        assert!(String::from_value(&Value::Bool(true)).is_err());
        assert!(Value::Null.field("x").is_err());
    }
}
