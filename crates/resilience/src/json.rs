//! The workspace's one JSON codec: a minimal value type, parser and
//! string escaper.
//!
//! The workspace has no serde. Its writers hand-roll their JSON but
//! escape every string through [`escape`]: the completion journal
//! ([`crate::journal`]), the sweep's JSON artefacts and the fuzz corpus
//! and summary. Its readers (the journal's replay and the fuzz corpus)
//! go through [`Json::parse`], a small recursive-descent parser over the
//! subset those files use: objects, arrays, strings with the standard
//! escapes, `true`/`false`/`null`, and numbers. Numbers keep their raw
//! source text so `u64` fields (seeds span the full 64-bit range)
//! round-trip without an `f64` detour.

use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, kept as its raw source text (see module docs).
    Num(String),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object as an ordered key/value list (duplicate keys keep the
    /// first occurrence on lookup).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses a complete JSON document.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message (with byte offset) on syntax
    /// errors or trailing garbage.
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing garbage at byte {pos}"));
        }
        Ok(value)
    }

    /// Object field lookup (first occurrence).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as `f64`, when it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The value as `u64`, when it is a non-negative integer number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The value as `usize`, when it is a non-negative integer number.
    pub fn as_usize(&self) -> Option<usize> {
        match self {
            Json::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The value as `bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as `&str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, ch: u8) -> Result<(), String> {
    if *pos < bytes.len() && bytes[*pos] == ch {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at byte {}", ch as char, *pos))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        Some(b'{') => parse_object(bytes, pos),
        Some(b'[') => parse_array(bytes, pos),
        Some(b'"') => Ok(Json::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_literal(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", Json::Null),
        Some(c) if *c == b'-' || c.is_ascii_digit() => parse_number(bytes, pos),
        _ => Err(format!("unexpected input at byte {}", *pos)),
    }
}

fn parse_literal(bytes: &[u8], pos: &mut usize, word: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(value)
    } else {
        Err(format!("expected '{word}' at byte {}", *pos))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
    {
        *pos += 1;
    }
    let raw = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
    // Validate once so `as_f64` on a parsed value cannot fail later.
    raw.parse::<f64>()
        .map_err(|_| format!("invalid number '{raw}' at byte {start}"))?;
    Ok(Json::Num(raw.to_string()))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let start = *pos - 1;
                        let unit = hex4(bytes, *pos + 1)?;
                        *pos += 4;
                        let code = match unit {
                            // A character outside the BMP is escaped as a
                            // UTF-16 pair: a high surrogate, then a low one.
                            0xD800..=0xDBFF => {
                                let low = match bytes.get(*pos + 1..*pos + 3) {
                                    Some(b"\\u") => hex4(bytes, *pos + 3)?,
                                    _ => 0,
                                };
                                if !(0xDC00..=0xDFFF).contains(&low) {
                                    return Err(format!("lone surrogate at byte {start}"));
                                }
                                *pos += 6;
                                0x1_0000 + ((unit - 0xD800) << 10) + (low - 0xDC00)
                            }
                            0xDC00..=0xDFFF => {
                                return Err(format!("lone surrogate at byte {start}"))
                            }
                            scalar => scalar,
                        };
                        out.push(char::from_u32(code).expect("surrogates are handled above"));
                    }
                    _ => return Err(format!("bad escape at byte {}", *pos)),
                }
                *pos += 1;
            }
            Some(_) => {
                // Copy the run up to the next quote or backslash in one
                // piece, so a string costs time linear in its length. Both
                // stops are ASCII, so the run of the valid UTF-8 input ends
                // on a character boundary.
                let end = bytes[*pos..]
                    .iter()
                    .position(|&b| b == b'"' || b == b'\\')
                    .map_or(bytes.len(), |i| *pos + i);
                out.push_str(std::str::from_utf8(&bytes[*pos..end]).map_err(|e| e.to_string())?);
                *pos = end;
            }
        }
    }
}

/// The four hex digits of a `\u` escape starting at `at`, as one UTF-16
/// code unit (`u32::from_str_radix` would also take a sign).
fn hex4(bytes: &[u8], at: usize) -> Result<u32, String> {
    let digits = bytes
        .get(at..at + 4)
        .filter(|d| d.iter().all(u8::is_ascii_hexdigit))
        .ok_or_else(|| format!("\\u escape at byte {} needs four hex digits", at - 2))?;
    Ok(digits.iter().fold(0, |unit, &d| {
        unit * 16 + char::from(d).to_digit(16).unwrap_or(0)
    }))
}

fn parse_array(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(bytes, pos, b'{')?;
    let mut fields = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(fields));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        let value = parse_value(bytes, pos)?;
        fields.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
        }
    }
}

/// Escapes a string for embedding in JSON output.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Formats an `f64` so it round-trips through [`Json::as_f64`] exactly
/// (Rust's `Display` emits the shortest representation that parses back
/// to the same bits).
pub fn fmt_f64(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        // Keep integral floats readable and stable (`2` not `2.0` would
        // still parse, but an explicit fraction marks the field as real).
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

/// A character from one of the classes escaping must get right,
/// picked by the low two bits of `x`: control characters, the
/// characters JSON escapes by name (plus `/` and a space), non-BMP
/// code points, and any code point, through `char::from_u32` (which
/// drops the surrogates). Test support for the codec's round-trip
/// properties here and in [`crate::journal`].
#[cfg(test)]
pub(crate) fn awkward_char(x: u32) -> Option<char> {
    let y = x >> 2;
    match x & 3 {
        0 => char::from_u32(y % 0x20),
        1 => Some(['"', '\\', '/', ' '][y as usize % 4]),
        2 => char::from_u32(0x1_0000 + y % 0x10_0000),
        _ => char::from_u32(y % 0x11_0000),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn parses_nested_documents() {
        let doc = r#"{"a": [1, 2.5, -3e-2], "b": {"c": true, "d": null}, "e": "x\n\"y\""}"#;
        let v = Json::parse(doc).expect("valid document");
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[0].as_u64(), Some(1));
        assert_eq!(
            v.get("a").unwrap().as_arr().unwrap()[2].as_f64(),
            Some(-3e-2)
        );
        assert_eq!(v.get("b").unwrap().get("c").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("b").unwrap().get("d"), Some(&Json::Null));
        assert_eq!(v.get("e").unwrap().as_str(), Some("x\n\"y\""));
    }

    #[test]
    fn u64_seeds_round_trip_exactly() {
        let seed = u64::MAX - 7;
        let doc = format!("{{\"seed\": {seed}}}");
        let v = Json::parse(&doc).expect("valid");
        assert_eq!(v.get("seed").unwrap().as_u64(), Some(seed));
    }

    #[test]
    fn rejects_garbage() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("{} extra").is_err());
        assert!(Json::parse("+5").is_err());
    }

    #[test]
    fn accepts_backspace_and_form_feed() {
        assert_eq!(
            Json::parse(r#""a\bb\fc""#),
            Ok(Json::Str("a\u{8}b\u{c}c".into()))
        );
    }

    #[test]
    fn joins_a_surrogate_pair_into_one_character() {
        assert_eq!(Json::parse(r#""\ud83d\ude00""#), Ok(Json::Str("😀".into())));
        assert_eq!(
            Json::parse(r#""\uD834\uDD1E!""#),
            Ok(Json::Str("𝄞!".into()))
        );
    }

    #[test]
    fn rejects_a_lone_surrogate() {
        for doc in [
            r#""\ud83d""#,
            r#""\ud83dx""#,
            r#""\ud83d\u0041""#,
            r#""\ude00""#,
            r#""\ude00\ud83d""#,
        ] {
            let err = Json::parse(doc).unwrap_err();
            assert!(err.contains("lone surrogate"), "{doc}: {err}");
        }
    }

    #[test]
    fn rejects_a_u_escape_without_four_hex_digits() {
        for doc in [
            r#""\u+04a""#,
            r#""\u-04a""#,
            r#""\u04""#,
            r#""\u00g1""#,
            r#""\u"#,
        ] {
            let err = Json::parse(doc).unwrap_err();
            assert!(err.contains("four hex digits"), "{doc}: {err}");
        }
        assert_eq!(Json::parse(r#""\u004A""#), Ok(Json::Str("J".into())));
    }

    #[test]
    fn escape_and_float_formatting() {
        assert_eq!(escape("a\"b\\c\n"), "a\\\"b\\\\c\\n");
        assert_eq!(fmt_f64(2.0), "2.0");
        assert_eq!(fmt_f64(0.25), "0.25");
        let tricky = 0.1 + 0.2;
        assert_eq!(fmt_f64(tricky).parse::<f64>().unwrap(), tricky);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn escaped_strings_parse_back_exactly(codes in collection::vec(any::<u32>(), 0..48)) {
            let s: String = codes.into_iter().filter_map(awkward_char).collect();
            let parsed = Json::parse(&format!("\"{}\"", escape(&s))).unwrap();
            prop_assert_eq!(parsed, Json::Str(s));
        }
    }
}
