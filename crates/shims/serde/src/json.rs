//! JSON rendering and parsing for the [`Value`] tree.
//!
//! The emitted text is ordinary JSON (struct fields in declaration
//! order, unit enum variants as strings), so serialized requests and
//! responses are readable and diffable in test output.

use crate::{Deserialize, Error, Serialize, Value};

/// Serializes any [`Serialize`] type to a JSON string.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> String {
    let mut out = String::new();
    write_value(&value.to_value(), &mut out);
    out
}

/// The deepest array/object nesting the parser accepts. The deepest
/// document this workspace writes, a cached task artifact, nests 10
/// levels (a session checkpoint 4, a telemetry config 1); a hostile
/// document nested past the bound is refused with an [`Error`] instead
/// of recursing until the thread's stack overflows.
const MAX_DEPTH: usize = 128;

/// Parses a JSON string into any [`Deserialize`] type.
pub fn from_str<T: Deserialize>(text: &str) -> Result<T, Error> {
    T::from_value(&parse(text)?)
}

/// Parses one whole JSON document into its [`Value`] tree.
fn parse(text: &str) -> Result<Value, Error> {
    let mut parser = Parser {
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    let value = parser.parse_value()?;
    parser.skip_ws();
    if parser.pos != parser.bytes.len() {
        return Err(Error::new(format!("trailing input at byte {}", parser.pos)));
    }
    Ok(value)
}

fn write_value(value: &Value, out: &mut String) {
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::U64(v) => out.push_str(&v.to_string()),
        Value::I64(v) => out.push_str(&v.to_string()),
        Value::F64(v) => {
            if v.is_finite() {
                // `{:?}` keeps round-trip precision for f64.
                out.push_str(&format!("{v:?}"));
            } else {
                // JSON has no non-finite numbers; emit a spec-valid
                // escape object (never a bare string, so string *values*
                // holding "NaN"/"inf" stay representable). "$f64" is not
                // a legal Rust identifier, so no derived struct field
                // can collide with it.
                out.push_str(if v.is_nan() {
                    "{\"$f64\":\"NaN\"}"
                } else if *v > 0.0 {
                    "{\"$f64\":\"inf\"}"
                } else {
                    "{\"$f64\":\"-inf\"}"
                });
            }
        }
        Value::Str(s) => write_string(s, out),
        Value::Seq(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_value(item, out);
            }
            out.push(']');
        }
        Value::Map(entries) => {
            out.push('{');
            for (i, (key, item)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_string(key, out);
                out.push(':');
                write_value(item, out);
            }
            out.push('}');
        }
    }
}

fn write_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around the current position.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Result<u8, Error> {
        self.skip_ws();
        self.bytes
            .get(self.pos)
            .copied()
            .ok_or_else(|| Error::new("unexpected end of input"))
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        let got = self.peek()?;
        if got != b {
            return Err(Error::new(format!(
                "expected '{}' at byte {}, found '{}'",
                b as char, self.pos, got as char
            )));
        }
        self.pos += 1;
        Ok(())
    }

    fn parse_value(&mut self) -> Result<Value, Error> {
        match self.peek()? {
            b'n' => self.parse_keyword("null", Value::Null),
            b't' => self.parse_keyword("true", Value::Bool(true)),
            b'f' => self.parse_keyword("false", Value::Bool(false)),
            b'"' => self.parse_string().map(Value::Str),
            open @ (b'[' | b'{') => {
                if self.depth == MAX_DEPTH {
                    return Err(Error::new(format!(
                        "nesting deeper than {MAX_DEPTH} at byte {}",
                        self.pos
                    )));
                }
                self.depth += 1;
                let value = if open == b'[' {
                    self.parse_seq()
                } else {
                    self.parse_map()
                };
                self.depth -= 1;
                value
            }
            _ => self.parse_number(),
        }
    }

    fn parse_keyword(&mut self, word: &str, value: Value) -> Result<Value, Error> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(Error::new(format!("invalid token at byte {}", self.pos)))
        }
    }

    fn parse_string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let b = *self
                .bytes
                .get(self.pos)
                .ok_or_else(|| Error::new("unterminated string"))?;
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let esc = *self
                        .bytes
                        .get(self.pos)
                        .ok_or_else(|| Error::new("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let code = self.parse_hex4()?;
                            // A high surrogate must pair with a low one
                            // (standard encoders escape non-BMP chars as
                            // UTF-16 surrogate pairs).
                            let scalar = if (0xD800..=0xDBFF).contains(&code) {
                                if self.bytes.get(self.pos..self.pos + 2) != Some(b"\\u") {
                                    return Err(Error::new("unpaired high surrogate"));
                                }
                                self.pos += 2;
                                let low = self.parse_hex4()?;
                                if !(0xDC00..=0xDFFF).contains(&low) {
                                    return Err(Error::new("invalid low surrogate"));
                                }
                                0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00)
                            } else {
                                code
                            };
                            out.push(
                                char::from_u32(scalar)
                                    .ok_or_else(|| Error::new("invalid codepoint"))?,
                            );
                        }
                        other => {
                            return Err(Error::new(format!("unknown escape '\\{}'", other as char)))
                        }
                    }
                }
                _ => {
                    // Re-decode multi-byte UTF-8 starting at pos - 1.
                    let start = self.pos - 1;
                    let width = utf8_width(b);
                    let chunk = self
                        .bytes
                        .get(start..start + width)
                        .ok_or_else(|| Error::new("truncated UTF-8"))?;
                    let s = std::str::from_utf8(chunk)
                        .map_err(|_| Error::new("invalid UTF-8 in string"))?;
                    out.push_str(s);
                    self.pos = start + width;
                }
            }
        }
    }

    /// Reads the four hex digits of a `\u` escape (after the `\u`).
    fn parse_hex4(&mut self) -> Result<u32, Error> {
        let hex = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| Error::new("truncated \\u escape"))?;
        let code = u32::from_str_radix(
            std::str::from_utf8(hex).map_err(|_| Error::new("invalid \\u escape"))?,
            16,
        )
        .map_err(|_| Error::new("invalid \\u escape"))?;
        self.pos += 4;
        Ok(code)
    }

    fn parse_seq(&mut self) -> Result<Value, Error> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek()? == b']' {
            self.pos += 1;
            return Ok(Value::Seq(items));
        }
        loop {
            items.push(self.parse_value()?);
            match self.peek()? {
                b',' => self.pos += 1,
                b']' => {
                    self.pos += 1;
                    return Ok(Value::Seq(items));
                }
                other => {
                    return Err(Error::new(format!(
                        "expected ',' or ']', found '{}'",
                        other as char
                    )))
                }
            }
        }
    }

    fn parse_map(&mut self) -> Result<Value, Error> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        if self.peek()? == b'}' {
            self.pos += 1;
            return Ok(Value::Map(entries));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.expect(b':')?;
            entries.push((key, self.parse_value()?));
            match self.peek()? {
                b',' => self.pos += 1,
                b'}' => {
                    self.pos += 1;
                    return Ok(Self::fold_escape_object(entries));
                }
                other => {
                    return Err(Error::new(format!(
                        "expected ',' or '}}', found '{}'",
                        other as char
                    )))
                }
            }
        }
    }

    /// Collapses the writer's non-finite-float escape object
    /// (`{"$f64":"NaN"|"inf"|"-inf"}`) back into its number; every
    /// other map passes through untouched.
    fn fold_escape_object(entries: Vec<(String, Value)>) -> Value {
        if let [(key, Value::Str(marker))] = entries.as_slice() {
            if key == "$f64" {
                match marker.as_str() {
                    "NaN" => return Value::F64(f64::NAN),
                    "inf" => return Value::F64(f64::INFINITY),
                    "-inf" => return Value::F64(f64::NEG_INFINITY),
                    _ => {}
                }
            }
        }
        Value::Map(entries)
    }

    fn parse_number(&mut self) -> Result<Value, Error> {
        self.skip_ws();
        let start = self.pos;
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| Error::new("invalid number"))?;
        if text.is_empty() {
            return Err(Error::new(format!("invalid token at byte {start}")));
        }
        if !text.contains(['.', 'e', 'E']) {
            if let Some(stripped) = text.strip_prefix('-') {
                if let Ok(v) = stripped.parse::<u64>() {
                    if v <= i64::MAX as u64 {
                        return Ok(Value::I64(-(v as i64)));
                    }
                }
            } else if let Ok(v) = text.parse::<u64>() {
                return Ok(Value::U64(v));
            }
        }
        // JSON has no infinities (the writer escapes them), so a finite
        // literal too large for an f64 is refused, not rounded to one;
        // likewise a nonzero literal too small for one is refused, not
        // rounded to zero (which an integer field would then accept).
        let nonzero = || {
            let mantissa = text.split(['e', 'E']).next().unwrap_or_default();
            mantissa.bytes().any(|b| matches!(b, b'1'..=b'9'))
        };
        match text.parse::<f64>() {
            Ok(v) if v.is_infinite() => Err(Error::new(format!("number '{text}' overflows f64"))),
            Ok(v) if v == 0.0 && nonzero() => {
                Err(Error::new(format!("number '{text}' underflows f64")))
            }
            Ok(v) => Ok(Value::F64(v)),
            Err(_) => Err(Error::new(format!("invalid number '{text}'"))),
        }
    }
}

fn utf8_width(first: u8) -> usize {
    match first {
        0x00..=0x7F => 1,
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        _ => 4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_round_trips() {
        assert_eq!(to_string(&true), "true");
        assert!(from_str::<bool>("true").unwrap());
        assert_eq!(from_str::<u64>(&to_string(&u64::MAX)).unwrap(), u64::MAX);
        assert_eq!(from_str::<i64>("-42").unwrap(), -42);
        let x = 0.1f64 + 0.2;
        assert_eq!(from_str::<f64>(&to_string(&x)).unwrap(), x);
    }

    #[test]
    fn container_round_trips() {
        let v: Vec<(String, f64)> = vec![("a".into(), 1.5), ("b\"q\\".into(), -2.0)];
        let text = to_string(&v);
        assert_eq!(from_str::<Vec<(String, f64)>>(&text).unwrap(), v);
        let o: Option<u32> = Some(3);
        assert_eq!(from_str::<Option<u32>>(&to_string(&o)).unwrap(), o);
        assert_eq!(from_str::<Option<u32>>("null").unwrap(), None);
    }

    #[test]
    fn non_finite_floats_round_trip() {
        assert_eq!(
            from_str::<f64>(&to_string(&f64::INFINITY)).unwrap(),
            f64::INFINITY
        );
        assert_eq!(
            from_str::<f64>(&to_string(&f64::NEG_INFINITY)).unwrap(),
            f64::NEG_INFINITY
        );
        assert!(from_str::<f64>(&to_string(&f64::NAN)).unwrap().is_nan());
        // The escape form is itself spec-valid JSON.
        assert_eq!(to_string(&f64::INFINITY), r#"{"$f64":"inf"}"#);
        // The escape encoding must not shadow real string values.
        for s in ["NaN", "inf", "-inf"] {
            let text = to_string(&s.to_string());
            assert_eq!(from_str::<String>(&text).unwrap(), s, "wire {text}");
        }
    }

    #[test]
    fn finite_literals_never_decode_to_infinities() {
        assert!(from_str::<f64>("1e400").is_err());
        assert!(from_str::<f64>("-1e400").is_err());
        assert!(from_str::<f32>("1e39").is_err());
        assert!(from_str::<f32>("-1e39").is_err());
        assert!(from_str::<Vec<f64>>("[1.0, 1e400]").is_err());
        // The largest finite values still round-trip ...
        assert_eq!(from_str::<f64>(&to_string(&f64::MAX)).unwrap(), f64::MAX);
        assert_eq!(from_str::<f32>(&to_string(&f32::MAX)).unwrap(), f32::MAX);
        // ... and the writer's escape object still spells the
        // non-finite values, for either width.
        assert_eq!(
            from_str::<f32>(&to_string(&f32::NEG_INFINITY)).unwrap(),
            f32::NEG_INFINITY
        );
        assert_eq!(from_str::<f32>(r#"{"$f64":"inf"}"#).unwrap(), f32::INFINITY);
        assert!(from_str::<f32>(r#"{"$f64":"NaN"}"#).unwrap().is_nan());
    }

    #[test]
    fn nonzero_literals_never_decode_to_zero() {
        assert!(from_str::<u64>("1e-400").is_err());
        assert!(from_str::<f64>("1e-400").is_err());
        assert!(from_str::<f64>("-2e-324").is_err());
        assert!(from_str::<f32>("1e-50").is_err());
        assert!(from_str::<Vec<f32>>("[0.5, 1e-46]").is_err());
        // Zero in any spelling is still zero ...
        for zero in ["0", "-0", "0.0", "0e5", "0.000E-999"] {
            assert_eq!(from_str::<f64>(zero).unwrap(), 0.0, "{zero}");
        }
        assert_eq!(from_str::<u64>("0e5").unwrap(), 0);
        // ... and the smallest subnormals still round-trip.
        let tiny = f64::from_bits(1);
        assert_eq!(from_str::<f64>(&to_string(&tiny)).unwrap(), tiny);
        let tiny = f32::from_bits(1);
        assert_eq!(to_string(&tiny), "1.401298464324817e-45");
        assert_eq!(from_str::<f32>(&to_string(&tiny)).unwrap(), tiny);
        // An integer field reads the f64 the literal rounds to, so a
        // fraction below f64's resolution is not seen.
        assert_eq!(from_str::<u64>("1.0000000000000001").unwrap(), 1);
    }

    #[test]
    fn nesting_is_bounded() {
        let nested = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        assert!(parse(&nested(MAX_DEPTH + 1)).is_err());
        assert!(parse(&"{\"a\":".repeat(MAX_DEPTH + 1)).is_err());
        // Far deeper than a test thread's stack could recurse: refused
        // at the bound, never overflowing.
        let err = from_str::<Vec<u32>>(&"[".repeat(100_000)).unwrap_err();
        assert!(err.message.contains("nesting"), "{err}");
    }

    #[test]
    fn surrogate_pair_escapes_decode() {
        // Standard ASCII-escaping encoders emit non-BMP chars as
        // UTF-16 surrogate pairs.
        assert_eq!(
            from_str::<String>(r#""\ud83d\ude00""#).unwrap(),
            "\u{1F600}"
        );
        assert_eq!(from_str::<String>(r#""\u00e9""#).unwrap(), "é");
        assert_eq!(from_str::<String>(r#""😀 raw""#).unwrap(), "😀 raw");
        assert!(from_str::<String>(r#""\ud83d""#).is_err()); // unpaired high
        assert!(from_str::<String>(r#""\ud83dA""#).is_err()); // bad low
    }

    #[test]
    fn whitespace_and_errors() {
        assert_eq!(
            from_str::<Vec<u32>>(" [ 1 , 2 ,\n3 ] ").unwrap(),
            vec![1, 2, 3]
        );
        assert!(from_str::<u32>("[1] trailing").is_err());
        assert!(from_str::<u32>("\"nope\"").is_err());
    }
}
