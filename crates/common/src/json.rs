//! A small, dependency-free JSON document model with a serializer and a
//! strict parser.
//!
//! The experiment harness emits machine-readable reports (`--json` on every
//! figure binary) and CI round-trips them through this parser, so the format
//! must be produced and consumed without any external crate.  The model is
//! deliberately minimal:
//!
//! * objects preserve insertion order (serialization is byte-stable),
//! * numbers are `f64` (every counter the harness emits fits losslessly in
//!   the 53-bit mantissa; values are printed with Rust's shortest
//!   round-trippable rendering),
//! * parsing is strict RFC 8259: no trailing commas, no comments, no `NaN`.
//!
//! # Example
//!
//! ```
//! use lad_common::json::JsonValue;
//!
//! let value = JsonValue::Object(vec![
//!     ("scheme".to_string(), JsonValue::from("RT-3")),
//!     ("normalized_energy".to_string(), JsonValue::from(0.85)),
//! ]);
//! let text = value.to_string();
//! assert_eq!(text, r#"{"scheme":"RT-3","normalized_energy":0.85}"#);
//! assert_eq!(JsonValue::parse(&text).unwrap(), value);
//! ```

use std::fmt;

/// A parsed or constructed JSON document.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.  Must be finite; serializing a non-finite number
    /// panics in debug builds and renders `null` in release builds.
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object.  Pairs keep their insertion order so output is stable.
    Object(Vec<(String, JsonValue)>),
}

/// Error produced by [`JsonValue::parse`], with the byte offset of the
/// failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the input where parsing failed.
    pub offset: usize,
    /// Human-readable description of the failure.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "JSON parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for JsonError {}

impl From<bool> for JsonValue {
    fn from(value: bool) -> Self {
        JsonValue::Bool(value)
    }
}

impl From<f64> for JsonValue {
    fn from(value: f64) -> Self {
        JsonValue::Number(value)
    }
}

impl From<u64> for JsonValue {
    fn from(value: u64) -> Self {
        JsonValue::Number(value as f64)
    }
}

impl From<u32> for JsonValue {
    fn from(value: u32) -> Self {
        JsonValue::Number(f64::from(value))
    }
}

impl From<usize> for JsonValue {
    fn from(value: usize) -> Self {
        JsonValue::Number(value as f64)
    }
}

impl From<&str> for JsonValue {
    fn from(value: &str) -> Self {
        JsonValue::String(value.to_string())
    }
}

impl From<String> for JsonValue {
    fn from(value: String) -> Self {
        JsonValue::String(value)
    }
}

impl<T: Into<JsonValue>> From<Vec<T>> for JsonValue {
    fn from(values: Vec<T>) -> Self {
        JsonValue::Array(values.into_iter().map(Into::into).collect())
    }
}

impl JsonValue {
    /// Convenience constructor for an object from `(key, value)` pairs.
    pub fn object<K: Into<String>, V: Into<JsonValue>>(
        pairs: impl IntoIterator<Item = (K, V)>,
    ) -> Self {
        JsonValue::Object(
            pairs
                .into_iter()
                .map(|(k, v)| (k.into(), v.into()))
                .collect(),
        )
    }

    /// Looks a key up in an object (`None` for other kinds or missing keys).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a finite `f64`, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is a non-negative integral number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            // Strictly below 2^64: `u64::MAX as f64` rounds *up* to 2^64,
            // so an inclusive bound would accept 2^64 and saturate.
            JsonValue::Number(n) if *n >= 0.0 && n.fract() == 0.0 && *n < u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice, if it is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The value as object pairs, if it is an object.
    pub fn as_object(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Object(pairs) => Some(pairs),
            _ => None,
        }
    }

    // ----- serialization --------------------------------------------------

    /// Serializes with two-space indentation and a trailing newline —
    /// the format the `--json` flag writes to disk.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(0));
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(true) => out.push_str("true"),
            JsonValue::Bool(false) => out.push_str("false"),
            JsonValue::Number(n) => {
                debug_assert!(n.is_finite(), "JSON numbers must be finite, got {n}");
                if n.is_finite() {
                    // Rust's Display for f64 is the shortest representation
                    // that parses back to the same value, so serialization
                    // round-trips exactly.
                    out.push_str(&n.to_string());
                } else {
                    out.push_str("null");
                }
            }
            JsonValue::String(s) => write_escaped(out, s),
            JsonValue::Array(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    if let Some(level) = indent {
                        newline_indent(out, level + 1);
                        item.write(out, Some(level + 1));
                    } else {
                        item.write(out, None);
                    }
                }
                if let Some(level) = indent {
                    newline_indent(out, level);
                }
                out.push(']');
            }
            JsonValue::Object(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (key, value)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    if let Some(level) = indent {
                        newline_indent(out, level + 1);
                        write_escaped(out, key);
                        out.push_str(": ");
                        value.write(out, Some(level + 1));
                    } else {
                        write_escaped(out, key);
                        out.push(':');
                        value.write(out, None);
                    }
                }
                if let Some(level) = indent {
                    newline_indent(out, level);
                }
                out.push('}');
            }
        }
    }

    // ----- parsing --------------------------------------------------------

    /// Parses a complete JSON document (trailing whitespace allowed, any
    /// other trailing content is an error).
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] with the byte offset of the first offending
    /// character.
    pub fn parse(text: &str) -> Result<JsonValue, JsonError> {
        let mut parser = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        parser.skip_whitespace();
        let value = parser.parse_value(0)?;
        parser.skip_whitespace();
        if parser.pos != parser.bytes.len() {
            return Err(parser.error("trailing content after the document"));
        }
        Ok(value)
    }
}

impl fmt::Display for JsonValue {
    /// Compact (single-line) serialization.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.write(&mut out, None);
        f.write_str(&out)
    }
}

fn newline_indent(out: &mut String, level: usize) {
    out.push('\n');
    for _ in 0..level {
        out.push_str("  ");
    }
}

/// Appends `s` as a JSON string literal.  Runs that need no escape are
/// copied whole; [`next_escape`] finds where each run ends.
fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    let bytes = s.as_bytes();
    let mut start = 0;
    while let Some(at) = next_escape(bytes, start) {
        // Every escaped byte is ASCII, so `at` and `at + 1` are char
        // boundaries.
        out.push_str(&s[start..at]);
        match bytes[at] {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            0x08 => out.push_str("\\b"),
            0x0c => out.push_str("\\f"),
            control => out.push_str(&format!("\\u{control:04x}")),
        }
        start = at + 1;
    }
    out.push_str(&s[start..]);
    out.push('"');
}

/// `0x01` in every byte of a word.
const ONES: u64 = u64::from_ne_bytes([0x01; 8]);
/// `0x80` in every byte of a word.
const HIGHS: u64 = u64::from_ne_bytes([0x80; 8]);

/// Whether a string byte needs an escape: `"`, `\` or a control byte.
fn needs_escape(byte: u8) -> bool {
    byte == b'"' || byte == b'\\' || byte < 0x20
}

/// The index of the first byte at or after `from` that needs an escape,
/// scanning eight bytes per step.
///
/// In a little-endian word, `(w - ONES * b) & !w & HIGHS` sets the high bit
/// of every byte below `b` that has a clear high bit, and applied to
/// `w ^ ONES * c` it flags the bytes equal to `c`.  A flagged byte borrows
/// from the next one up, so bytes above the first hit may be flagged
/// falsely, but the lowest flag is always exact — and that is the one the
/// scan takes.
fn next_escape(bytes: &[u8], from: usize) -> Option<usize> {
    let below = |word: u64, byte: u8| word.wrapping_sub(ONES * u64::from(byte)) & !word & HIGHS;
    let rest = bytes.get(from..)?;
    let mut words = rest.chunks_exact(8);
    for (i, chunk) in words.by_ref().enumerate() {
        let mut word = [0; 8];
        word.copy_from_slice(chunk);
        let word = u64::from_le_bytes(word);
        let hits = below(word, 0x20)
            | below(word ^ (ONES * u64::from(b'"')), 1)
            | below(word ^ (ONES * u64::from(b'\\')), 1);
        if hits != 0 {
            return Some(from + 8 * i + hits.trailing_zeros() as usize / 8);
        }
    }
    let tail = words.remainder();
    let base = from + rest.len() - tail.len();
    tail.iter()
        .position(|&byte| needs_escape(byte))
        .map(|i| base + i)
}

/// Parser nesting limit — far beyond anything the harness writes, but keeps
/// a corrupt or adversarial file from overflowing the stack.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn error(&self, message: impl Into<String>) -> JsonError {
        JsonError {
            offset: self.pos,
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_whitespace(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(format!("expected '{}'", byte as char)))
        }
    }

    fn parse_value(&mut self, depth: usize) -> Result<JsonValue, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.error("document nests too deeply"));
        }
        match self.peek() {
            Some(b'{') => self.parse_object(depth),
            Some(b'[') => self.parse_array(depth),
            Some(b'"') => Ok(JsonValue::String(self.parse_string()?)),
            Some(b't') => self.parse_literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.parse_literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.parse_literal("null", JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.parse_number(),
            Some(other) => Err(self.error(format!("unexpected character '{}'", other as char))),
            None => Err(self.error("unexpected end of input")),
        }
    }

    fn parse_literal(&mut self, literal: &str, value: JsonValue) -> Result<JsonValue, JsonError> {
        if self.bytes[self.pos..].starts_with(literal.as_bytes()) {
            self.pos += literal.len();
            Ok(value)
        } else {
            Err(self.error(format!("expected '{literal}'")))
        }
    }

    fn parse_object(&mut self, depth: usize) -> Result<JsonValue, JsonError> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(pairs));
        }
        loop {
            self.skip_whitespace();
            let key = self.parse_string()?;
            self.skip_whitespace();
            self.expect(b':')?;
            self.skip_whitespace();
            let value = self.parse_value(depth + 1)?;
            pairs.push((key, value));
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(pairs));
                }
                _ => return Err(self.error("expected ',' or '}' in object")),
            }
        }
    }

    fn parse_array(&mut self, depth: usize) -> Result<JsonValue, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_whitespace();
            items.push(self.parse_value(depth + 1)?);
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(self.error("expected ',' or ']' in array")),
            }
        }
    }

    fn parse_string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path: runs of plain UTF-8 without quotes or escapes.
            while let Some(b) = self.peek() {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            if self.pos > start {
                // The input is valid UTF-8 (it is a &str) and the run ends on
                // an ASCII boundary byte, so the slice is valid UTF-8.
                out.push_str(
                    std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| self.error("invalid UTF-8 inside string"))?,
                );
            }
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{08}'),
                        Some(b'f') => out.push('\u{0C}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let unit = self.parse_hex4()?;
                            let ch = if (0xD800..0xDC00).contains(&unit) {
                                // High surrogate: must be followed by \uXXXX
                                // with the low surrogate.
                                if self.peek() != Some(b'\\') {
                                    return Err(self.error("unpaired surrogate"));
                                }
                                self.pos += 1;
                                if self.peek() != Some(b'u') {
                                    return Err(self.error("unpaired surrogate"));
                                }
                                self.pos += 1;
                                let low = self.parse_hex4()?;
                                if !(0xDC00..0xE000).contains(&low) {
                                    return Err(self.error("invalid low surrogate"));
                                }
                                let combined = 0x10000
                                    + ((u32::from(unit) - 0xD800) << 10)
                                    + (u32::from(low) - 0xDC00);
                                char::from_u32(combined)
                                    .ok_or_else(|| self.error("invalid surrogate pair"))?
                            } else {
                                char::from_u32(u32::from(unit))
                                    .ok_or_else(|| self.error("invalid \\u escape"))?
                            };
                            out.push(ch);
                            continue;
                        }
                        _ => return Err(self.error("invalid escape sequence")),
                    }
                    self.pos += 1;
                }
                Some(_) => return Err(self.error("control character inside string")),
                None => return Err(self.error("unterminated string")),
            }
        }
    }

    /// Parses exactly four hex digits (after `\u`); leaves `pos` past them.
    fn parse_hex4(&mut self) -> Result<u16, JsonError> {
        if self.pos + 4 > self.bytes.len() {
            return Err(self.error("truncated \\u escape"));
        }
        let digits = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| self.error("invalid \\u escape"))?;
        let unit = u16::from_str_radix(digits, 16).map_err(|_| self.error("invalid \\u escape"))?;
        self.pos += 4;
        Ok(unit)
    }

    fn parse_number(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => {
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.pos += 1;
                }
            }
            _ => return Err(self.error("invalid number")),
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.error("digit expected after decimal point"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.error("digit expected in exponent"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .unwrap_or_else(|_| unreachable!("number characters are ASCII"));
        let value: f64 = text
            .parse()
            .map_err(|_| self.error("number out of range"))?;
        if !value.is_finite() {
            return Err(self.error("number out of range"));
        }
        Ok(JsonValue::Number(value))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(value: &JsonValue) {
        let compact = value.to_string();
        assert_eq!(
            &JsonValue::parse(&compact).unwrap(),
            value,
            "compact: {compact}"
        );
        let pretty = value.pretty();
        assert_eq!(
            &JsonValue::parse(&pretty).unwrap(),
            value,
            "pretty: {pretty}"
        );
    }

    #[test]
    fn scalars_roundtrip() {
        roundtrip(&JsonValue::Null);
        roundtrip(&JsonValue::Bool(true));
        roundtrip(&JsonValue::Bool(false));
        roundtrip(&JsonValue::Number(0.0));
        roundtrip(&JsonValue::Number(-17.0));
        roundtrip(&JsonValue::Number(0.1 + 0.2)); // 0.30000000000000004
        roundtrip(&JsonValue::Number(1.0e-12));
        roundtrip(&JsonValue::Number((1u64 << 53) as f64));
        roundtrip(&JsonValue::String(String::new()));
        roundtrip(&JsonValue::String("plain".to_string()));
        roundtrip(&JsonValue::String(
            "quo\"te \\ back\nslash\ttab \u{1F980} ünï".to_string(),
        ));
        roundtrip(&JsonValue::String("\u{01}control".to_string()));
    }

    #[test]
    fn containers_roundtrip_and_preserve_order() {
        let value = JsonValue::object([
            ("zebra", JsonValue::from(1.0)),
            ("alpha", JsonValue::from(vec![1.0, 2.5, -3.0])),
            (
                "nested",
                JsonValue::object([
                    (
                        "list",
                        JsonValue::Array(vec![JsonValue::Null, JsonValue::Bool(true)]),
                    ),
                    ("empty_obj", JsonValue::Object(vec![])),
                    ("empty_arr", JsonValue::Array(vec![])),
                ]),
            ),
        ]);
        roundtrip(&value);
        // Keys stay in insertion order, not sorted.
        let text = value.to_string();
        assert!(text.find("zebra").unwrap() < text.find("alpha").unwrap());
    }

    #[test]
    fn accessors() {
        let value = JsonValue::object([
            ("n", JsonValue::from(42u64)),
            ("s", JsonValue::from("hi")),
            ("b", JsonValue::from(true)),
            ("a", JsonValue::from(vec![1.0])),
        ]);
        assert_eq!(value.get("n").and_then(JsonValue::as_u64), Some(42));
        assert_eq!(value.get("n").and_then(JsonValue::as_f64), Some(42.0));
        assert_eq!(value.get("s").and_then(JsonValue::as_str), Some("hi"));
        assert_eq!(value.get("b").and_then(JsonValue::as_bool), Some(true));
        assert_eq!(
            value.get("a").and_then(JsonValue::as_array).map(<[_]>::len),
            Some(1)
        );
        assert_eq!(value.get("missing"), None);
        assert_eq!(value.as_object().map(<[_]>::len), Some(4));
        assert_eq!(JsonValue::Number(1.5).as_u64(), None);
        assert_eq!(JsonValue::Number(-1.0).as_u64(), None);
        // 2^64 is not representable as a u64 and must be rejected, not
        // saturated; the largest f64 below 2^64 still converts.
        assert_eq!(JsonValue::Number((u64::MAX as f64) * 1.0).as_u64(), None);
        let below = f64::from_bits((u64::MAX as f64).to_bits() - 1);
        assert_eq!(JsonValue::Number(below).as_u64(), Some(below as u64));
    }

    #[test]
    fn parses_standard_syntax() {
        let parsed = JsonValue::parse(
            r#" { "a" : [ 1 , 2.5e2 , -0.5 , true , false , null ] , "b" : "x\u0041\ud83e\udd80" } "#,
        )
        .unwrap();
        assert_eq!(
            parsed.get("a").unwrap(),
            &JsonValue::Array(vec![
                JsonValue::Number(1.0),
                JsonValue::Number(250.0),
                JsonValue::Number(-0.5),
                JsonValue::Bool(true),
                JsonValue::Bool(false),
                JsonValue::Null,
            ])
        );
        assert_eq!(
            parsed.get("b").and_then(JsonValue::as_str),
            Some("xA\u{1F980}")
        );
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[",
            "\"",
            "{\"a\":}",
            "{\"a\":1,}",
            "[1,]",
            "[1 2]",
            "01",
            "1.",
            "1e",
            "tru",
            "nul",
            "\"\\q\"",
            "\"\\ud800\"",
            "{\"a\":1} trailing",
            "nan",
            "--1",
            "\u{7}",
        ] {
            assert!(
                JsonValue::parse(bad).is_err(),
                "{bad:?} should fail to parse"
            );
        }
    }

    #[test]
    fn error_reports_offset() {
        let err = JsonValue::parse("{\"ok\": 1, \"bad\": tru}").unwrap_err();
        assert_eq!(err.offset, 17);
        assert!(err.to_string().contains("byte 17"));
    }

    #[test]
    fn deep_nesting_is_rejected_not_a_crash() {
        let deep = "[".repeat(1000) + &"]".repeat(1000);
        assert!(JsonValue::parse(&deep).is_err());
        let ok = "[".repeat(64) + &"]".repeat(64);
        assert!(JsonValue::parse(&ok).is_ok());
    }

    #[test]
    fn integers_render_without_fraction() {
        assert_eq!(JsonValue::Number(3.0).to_string(), "3");
        assert_eq!(JsonValue::Number(-3.0).to_string(), "-3");
        assert_eq!(
            JsonValue::from(1234567890123u64).to_string(),
            "1234567890123"
        );
    }

    #[test]
    fn pretty_output_is_indented() {
        let value = JsonValue::object([("k", JsonValue::from(vec![1.0, 2.0]))]);
        let pretty = value.pretty();
        assert!(pretty.contains("\n  \"k\": [\n    1,\n    2\n  ]\n"));
        assert!(pretty.ends_with('\n'));
    }

    /// The char-at-a-time escaper the word scan replaced: every rendering
    /// must match it byte for byte.
    fn reference_escaped(s: &str) -> String {
        let mut out = String::from('"');
        for ch in s.chars() {
            match ch {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                '\u{08}' => out.push_str("\\b"),
                '\u{0C}' => out.push_str("\\f"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out.push('"');
        out
    }

    /// Renders `s` as a string value and as an object key, compact and
    /// pretty, against the reference, and parses each rendering back.
    fn assert_renders_like_reference(s: &str) {
        let expected = reference_escaped(s);
        let value = JsonValue::from(s);
        assert_eq!(value.to_string(), expected, "{s:?}");
        assert_eq!(value.pretty(), format!("{expected}\n"), "{s:?}");
        let keyed = JsonValue::object([(s, JsonValue::Null)]);
        assert_eq!(keyed.to_string(), format!("{{{expected}:null}}"), "{s:?}");
        assert_eq!(
            keyed.pretty(),
            format!("{{\n  {expected}: null\n}}\n"),
            "{s:?}"
        );
        for text in [value.to_string(), value.pretty()] {
            assert_eq!(JsonValue::parse(&text).unwrap(), value, "{s:?}");
        }
        assert_eq!(JsonValue::parse(&keyed.pretty()).unwrap(), keyed, "{s:?}");
    }

    /// `len` filler bytes with `byte` at `at`.
    fn with_byte_at(len: usize, at: usize, byte: u8) -> String {
        let mut bytes = vec![b'x'; len];
        bytes[at] = byte;
        String::from_utf8(bytes).unwrap()
    }

    #[test]
    fn every_ascii_byte_renders_like_the_reference_at_every_offset() {
        // Positions 0..24 span three scanned words; the lengths put the
        // byte at the very end, inside a whole word, and in the tail.
        for byte in 0u8..0x80 {
            for at in 0..24 {
                for len in [at + 1, at + 2, 24, 27, 31] {
                    if len > at {
                        assert_renders_like_reference(&with_byte_at(len, at, byte));
                    }
                }
            }
        }
        assert_renders_like_reference("");
    }

    #[test]
    fn runs_of_quotes_and_backslashes_render_like_the_reference() {
        for n in 0..20 {
            for piece in ["\"", "\\", "\"\\", "a\"", "\\b", "\u{1}\""] {
                let run = piece.repeat(n);
                assert_renders_like_reference(&run);
                assert_renders_like_reference(&format!("prefix{run}"));
                assert_renders_like_reference(&format!("{run}suffix text"));
            }
        }
    }

    #[test]
    fn multibyte_characters_straddling_words_render_like_the_reference() {
        // 2-, 3- and 4-byte UTF-8 sequences at every start offset across a
        // word boundary, alone and next to escapes.
        for ch in ["é", "€", "𝄞"] {
            for at in 0..17 {
                let filler = "y".repeat(at);
                for text in [
                    format!("{filler}{ch}"),
                    format!("{filler}{ch}\""),
                    format!("{filler}\\{ch}\n{filler}"),
                    format!("{filler}{ch}{ch}{ch}\u{7}"),
                ] {
                    assert_renders_like_reference(&text);
                }
            }
        }
    }

    #[test]
    fn seeded_random_strings_render_like_the_reference() {
        // Escapes, plain ASCII and multibyte characters in random mixes
        // and lengths.
        let alphabet: Vec<char> = (0u8..0x80)
            .map(char::from)
            .chain(['é', 'ß', '€', '中', '𝄞', '\u{7f}', '\u{ff}'])
            .collect();
        let mut rng = crate::rng::DeterministicRng::seed_from(0x6a73_6f6e);
        for _ in 0..2_000 {
            let len = rng.index(70);
            let text: String = (0..len)
                .map(|_| {
                    if rng.chance(0.7) {
                        'z'
                    } else {
                        alphabet[rng.index(alphabet.len())]
                    }
                })
                .collect();
            assert_renders_like_reference(&text);
        }
    }
}
