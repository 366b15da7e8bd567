//! Offline shim for the tiny slice of `serde` this workspace uses.
//!
//! The build is hermetic (no registry access), so instead of the real
//! `serde` data model this crate exposes a single-method [`Serialize`]
//! trait that renders straight into an owned JSON [`Value`], and a
//! mirror-image [`Deserialize`] trait that reads one back out. The
//! `#[derive(Serialize)]` / `#[derive(Deserialize)]` macros (re-exported
//! from the sibling `serde_derive` shim) generate field-by-field impls
//! with the same externally-tagged representation real serde defaults
//! to, so JSON emitted and consumed by `bench`/`repro` keeps its
//! shape — swapping in the real crates is a `Cargo.toml` change, not a
//! code change.

#![forbid(unsafe_code)]

use std::fmt;

pub use serde_derive::{Deserialize, Serialize};

/// An owned JSON document.
///
/// Object keys keep insertion order (serde_json's `preserve_order`
/// behavior) so emitted rows are stable and diffable.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// JSON `null`.
    Null,
    /// JSON boolean.
    Bool(bool),
    /// JSON number.
    Number(Number),
    /// JSON string.
    String(String),
    /// JSON array.
    Array(Vec<Value>),
    /// JSON object as an ordered key/value list.
    Object(Vec<(String, Value)>),
}

/// A JSON number, keeping the integer/float distinction.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Number {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Floating point.
    F64(f64),
}

impl Value {
    /// Looks up `key` in an object value; `None` for missing keys and
    /// non-objects.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
}

/// Types that can render themselves as JSON.
///
/// This is the shim's stand-in for `serde::Serialize`; derive it with
/// `#[derive(Serialize)]`.
pub trait Serialize {
    /// Renders `self` as a JSON value.
    fn to_json(&self) -> Value;
}

/// Deserialization failure: a message naming the offending field or the
/// shape mismatch.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DeError(pub String);

impl fmt::Display for DeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for DeError {}

/// Types that can reconstruct themselves from a JSON [`Value`].
///
/// The shim's stand-in for `serde::Deserialize`; derive it with
/// `#[derive(Deserialize)]` (named-field structs) and drive it from text
/// with `serde_json::from_str`.
pub trait Deserialize: Sized {
    /// Reads `Self` out of a JSON value.
    fn from_json(v: &Value) -> Result<Self, DeError>;
}

impl Deserialize for bool {
    fn from_json(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Bool(b) => Ok(*b),
            other => Err(DeError(format!("expected bool, found {other}"))),
        }
    }
}

impl Deserialize for Value {
    fn from_json(v: &Value) -> Result<Self, DeError> {
        Ok(v.clone())
    }
}

macro_rules! impl_de_unsigned {
    ($($t:ty),*) => {$(
        impl Deserialize for $t {
            fn from_json(v: &Value) -> Result<Self, DeError> {
                let n = match v {
                    Value::Number(Number::U64(n)) => *n,
                    Value::Number(Number::I64(n)) if *n >= 0 => *n as u64,
                    other => return Err(DeError(format!("expected unsigned integer, found {other}"))),
                };
                <$t>::try_from(n).map_err(|_| DeError(format!("{n} out of range for {}", stringify!($t))))
            }
        }
    )*};
}
macro_rules! impl_de_signed {
    ($($t:ty),*) => {$(
        impl Deserialize for $t {
            fn from_json(v: &Value) -> Result<Self, DeError> {
                let n = match v {
                    Value::Number(Number::I64(n)) => *n,
                    Value::Number(Number::U64(n)) if *n <= i64::MAX as u64 => *n as i64,
                    other => return Err(DeError(format!("expected integer, found {other}"))),
                };
                <$t>::try_from(n).map_err(|_| DeError(format!("{n} out of range for {}", stringify!($t))))
            }
        }
    )*};
}
impl_de_unsigned!(u8, u16, u32, u64, usize);
impl_de_signed!(i8, i16, i32, i64, isize);

impl Deserialize for f64 {
    fn from_json(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Number(Number::F64(x)) => Ok(*x),
            Value::Number(Number::U64(n)) => Ok(*n as f64),
            Value::Number(Number::I64(n)) => Ok(*n as f64),
            other => Err(DeError(format!("expected number, found {other}"))),
        }
    }
}

impl Deserialize for f32 {
    fn from_json(v: &Value) -> Result<Self, DeError> {
        f64::from_json(v).map(|x| x as f32)
    }
}

impl Deserialize for String {
    fn from_json(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::String(s) => Ok(s.clone()),
            other => Err(DeError(format!("expected string, found {other}"))),
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_json(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Null => Ok(None),
            other => T::from_json(other).map(Some),
        }
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_json(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Array(items) => items.iter().map(T::from_json).collect(),
            other => Err(DeError(format!("expected array, found {other}"))),
        }
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_json(&self) -> Value {
        (**self).to_json()
    }
}

impl Serialize for bool {
    fn to_json(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Serialize for Value {
    fn to_json(&self) -> Value {
        self.clone()
    }
}

macro_rules! impl_unsigned {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_json(&self) -> Value { Value::Number(Number::U64(*self as u64)) }
        }
    )*};
}
macro_rules! impl_signed {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_json(&self) -> Value { Value::Number(Number::I64(*self as i64)) }
        }
    )*};
}
impl_unsigned!(u8, u16, u32, u64, usize);
impl_signed!(i8, i16, i32, i64, isize);

impl Serialize for f64 {
    fn to_json(&self) -> Value {
        Value::Number(Number::F64(*self))
    }
}

impl Serialize for f32 {
    fn to_json(&self) -> Value {
        Value::Number(Number::F64(f64::from(*self)))
    }
}

impl Serialize for str {
    fn to_json(&self) -> Value {
        Value::String(self.to_string())
    }
}

impl Serialize for String {
    fn to_json(&self) -> Value {
        Value::String(self.clone())
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_json(&self) -> Value {
        match self {
            Some(v) => v.to_json(),
            None => Value::Null,
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_json(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_json).collect())
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_json(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_json).collect())
    }
}

fn write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    f.write_str("\"")
}

impl fmt::Display for Number {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Number::U64(n) => write!(f, "{n}"),
            Number::I64(n) => write!(f, "{n}"),
            // JSON has no NaN/Infinity; follow serde_json's lossy `null`.
            Number::F64(x) if !x.is_finite() => write!(f, "null"),
            Number::F64(x) => {
                if *x == x.trunc() && x.abs() < 1e15 {
                    write!(f, "{x:.1}")
                } else {
                    write!(f, "{x}")
                }
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("null"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Number(n) => write!(f, "{n}"),
            Value::String(s) => write_escaped(f, s),
            Value::Array(items) => {
                f.write_str("[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{v}")?;
                }
                f.write_str("]")
            }
            Value::Object(fields) => {
                f.write_str("{")?;
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write_escaped(f, k)?;
                    f.write_str(":")?;
                    write!(f, "{v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_escapes_and_orders() {
        let v = Value::Object(vec![
            ("a".into(), Value::Number(Number::U64(3))),
            ("b".into(), Value::String("x\"y\n".into())),
            (
                "c".into(),
                Value::Array(vec![Value::Null, Value::Bool(true)]),
            ),
        ]);
        assert_eq!(v.to_string(), r#"{"a":3,"b":"x\"y\n","c":[null,true]}"#);
    }

    #[test]
    fn floats_keep_a_decimal_point() {
        assert_eq!(Value::Number(Number::F64(2.0)).to_string(), "2.0");
        assert_eq!(Value::Number(Number::F64(0.25)).to_string(), "0.25");
        assert_eq!(Value::Number(Number::F64(f64::NAN)).to_string(), "null");
    }

    #[test]
    fn option_and_vec_serialize() {
        assert_eq!(Some(4u64).to_json(), Value::Number(Number::U64(4)));
        assert_eq!(Option::<u64>::None.to_json(), Value::Null);
        assert_eq!(
            vec![1u8, 2].to_json(),
            Value::Array(vec![
                Value::Number(Number::U64(1)),
                Value::Number(Number::U64(2))
            ])
        );
    }
}
