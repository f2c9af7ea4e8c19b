use std::fmt;

use pollux_resilience::json;

/// One typed cell of a [`crate::SweepReport`] row.
///
/// The `Display` impl defines the on-disk TSV encoding; floats use Rust's
/// shortest round-trip formatting, so output is byte-identical across
/// runs, platforms and thread counts.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// An unsigned integer (counts, event indices, sizes).
    U64(u64),
    /// A float (probabilities, expectations).
    F64(f64),
    /// A flag (validation verdicts).
    Bool(bool),
    /// A label (adversary variant, initial condition).
    Str(String),
}

impl Value {
    /// The float content, when numeric (integers widen losslessly up to
    /// 2^53).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::U64(v) => Some(*v as f64),
            Value::F64(v) => Some(*v),
            Value::Bool(_) | Value::Str(_) => None,
        }
    }

    /// The boolean content, when a flag.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The JSON encoding of this value.
    pub fn to_json(&self) -> String {
        match self {
            Value::U64(v) => v.to_string(),
            Value::F64(v) if v.is_finite() => {
                let s = v.to_string();
                // JSON numbers need a decimal point or exponent is fine;
                // Rust's Display for integral floats ("12") is valid JSON.
                s
            }
            Value::F64(_) => "null".to_string(),
            Value::Bool(b) => b.to_string(),
            Value::Str(s) => format!("\"{}\"", json::escape(s)),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::U64(v) => write!(f, "{v}"),
            Value::F64(v) => write!(f, "{v}"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Str(s) => f.write_str(s),
        }
    }
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::U64(v)
    }
}

impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::U64(v as u64)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::F64(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_shortest_roundtrip() {
        assert_eq!(Value::F64(0.1).to_string(), "0.1");
        assert_eq!(Value::F64(12.0).to_string(), "12");
        assert_eq!(Value::U64(100_000).to_string(), "100000");
        assert_eq!(Value::Bool(true).to_string(), "true");
    }

    #[test]
    fn json_escapes_strings_and_maps_nonfinite_to_null() {
        assert_eq!(
            Value::Str("a\"b\\c\n".into()).to_json(),
            "\"a\\\"b\\\\c\\n\""
        );
        assert_eq!(Value::F64(f64::INFINITY).to_json(), "null");
        assert_eq!(Value::F64(0.25).to_json(), "0.25");
    }

    #[test]
    fn numeric_accessors() {
        assert_eq!(Value::U64(3).as_f64(), Some(3.0));
        assert_eq!(Value::F64(0.5).as_f64(), Some(0.5));
        assert_eq!(Value::Str("x".into()).as_f64(), None);
        assert_eq!(Value::Bool(true).as_bool(), Some(true));
    }
}
