//! Minimal JSON reader/writer helpers shared across `cnd-obs`.
//!
//! The trace serializer, the `observe` replay path, the baseline
//! regression store, and `bench-check` all speak JSON; this module
//! holds the one tiny recursive-descent parser (and the escaping /
//! float-formatting helpers) they share, so no consumer grows its own
//! ad-hoc copy. It is deliberately small: just enough JSON to replay
//! our own deterministic output, not a general-purpose library.

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};

/// Why a reader in this crate rejected its input: [`parse_json`], the
/// trace, ledger and flight validators, and the trace reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObsError {
    /// 1-based input line of the offending record. `None` for a meta
    /// line, whose errors say so in the message, and for errors about
    /// the input as a whole.
    pub line: Option<usize>,
    /// What is wrong, without the line prefix.
    pub message: String,
}

impl ObsError {
    /// An error with no line.
    pub(crate) fn new(message: impl Into<String>) -> Self {
        ObsError {
            line: None,
            message: message.into(),
        }
    }

    /// An error on 1-based input line `line`.
    pub(crate) fn at(line: usize, message: impl Into<String>) -> Self {
        ObsError {
            line: Some(line),
            message: message.into(),
        }
    }
}

impl fmt::Display for ObsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.line {
            Some(n) => write!(f, "line {n}: {}", self.message),
            None => f.write_str(&self.message),
        }
    }
}

impl std::error::Error for ObsError {}

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (parsed as f64).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object (key order normalized to a BTreeMap).
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Object field lookup (None for non-objects / missing keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as u64 (must be a non-negative integer).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    /// The array payload, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a.as_slice()),
            _ => None,
        }
    }

    /// The object payload, if this is an object.
    pub fn as_obj(&self) -> Option<&BTreeMap<String, Json>> {
        match self {
            Json::Obj(m) => Some(m),
            _ => None,
        }
    }
}

/// Appends `s` to `out` with JSON string escaping applied.
pub fn escape_json(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// JSON has no NaN/inf literals; map them to null so the line stays
/// parseable. `{:?}` on f64 is the shortest round-trip form, which is
/// both compact and deterministic.
pub fn write_f64(f: f64, out: &mut String) {
    if f.is_finite() {
        let _ = write!(out, "{f:?}");
    } else {
        out.push_str("null");
    }
}

/// Deepest array/object nesting [`parse_json`] accepts. The parser
/// recurses once per level, so without a bound a hostile line of
/// `[[[[…` would overflow the stack and abort the process; our own
/// documents nest a handful of levels.
pub const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn parse_value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{' | b'[') if self.depth == MAX_DEPTH => Err(format!(
                "nesting deeper than {MAX_DEPTH} levels at byte {}",
                self.pos
            )),
            Some(b'{') => self.nested(Self::parse_object),
            Some(b'[') => self.nested(Self::parse_array),
            Some(b'"') => Ok(Json::Str(self.parse_string()?)),
            Some(b't') => self.parse_lit("true", Json::Bool(true)),
            Some(b'f') => self.parse_lit("false", Json::Bool(false)),
            Some(b'n') => self.parse_lit("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.parse_number(),
            other => Err(format!("unexpected {other:?} at byte {}", self.pos)),
        }
    }

    /// Runs one array/object parser one nesting level deeper.
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Json, String>) -> Result<Json, String> {
        self.depth += 1;
        let v = parse(self);
        self.depth -= 1;
        v
    }

    fn parse_lit(&mut self, lit: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn parse_number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while self
            .peek()
            .is_some_and(|b| matches!(b, b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9'))
        {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Json::Num)
            .ok_or_else(|| format!("bad number at byte {start}"))
    }

    fn parse_string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => s.push('"'),
                        Some(b'\\') => s.push('\\'),
                        Some(b'/') => s.push('/'),
                        Some(b'n') => s.push('\n'),
                        Some(b'r') => s.push('\r'),
                        Some(b't') => s.push('\t'),
                        Some(b'b') => s.push('\u{8}'),
                        Some(b'f') => s.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let code = std::str::from_utf8(hex)
                                .ok()
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or("bad \\u escape")?;
                            s.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        other => return Err(format!("bad escape {other:?}")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy a full UTF-8 scalar, not a byte.
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| "invalid utf-8".to_string())?;
                    let c = rest.chars().next().unwrap();
                    s.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn parse_array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                other => return Err(format!("expected ',' or ']' got {other:?}")),
            }
        }
    }

    fn parse_object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.parse_value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(map));
                }
                other => return Err(format!("expected ',' or '}}' got {other:?}")),
            }
        }
    }
}

/// Parses one JSON document from `s` (trailing whitespace allowed).
///
/// # Errors
///
/// Returns an error without a line (the input is one document) for
/// malformed input, trailing data, or arrays and objects nested deeper
/// than [`MAX_DEPTH`].
pub fn parse_json(s: &str) -> Result<Json, ObsError> {
    let mut p = Parser {
        bytes: s.as_bytes(),
        pos: 0,
        depth: 0,
    };
    let v = p.parse_value().map_err(ObsError::new)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(ObsError::new(format!("trailing data at byte {}", p.pos)));
    }
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parser_handles_escapes_and_nesting() {
        let j = parse_json(r#"{"a":[1,2.5,-3e2],"b":{"c":"x\"y\nz"},"d":null,"e":true}"#)
            .expect("parse");
        assert_eq!(
            j.get("a").unwrap(),
            &Json::Arr(vec![Json::Num(1.0), Json::Num(2.5), Json::Num(-300.0)])
        );
        assert_eq!(
            j.get("b").unwrap().get("c").unwrap().as_str(),
            Some("x\"y\nz")
        );
        assert_eq!(j.get("d"), Some(&Json::Null));
        assert_eq!(j.get("e"), Some(&Json::Bool(true)));
    }

    #[test]
    fn parser_rejects_trailing_garbage_and_bad_literals() {
        assert!(parse_json("{} x").is_err());
        assert!(parse_json("{\"a\":tru}").is_err());
        assert!(parse_json("[1,]").is_err());
        assert!(parse_json("\"unterminated").is_err());
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let hostile = "[".repeat(200_000);
        let err = parse_json(&hostile).expect_err("rejected");
        assert_eq!(err.line, None);
        assert!(err.message.contains("nesting deeper"), "{err}");
        let deep_obj = "{\"a\":".repeat(MAX_DEPTH + 1);
        assert!(parse_json(&deep_obj).is_err());
        // The limit itself still parses.
        let at_limit = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse_json(&at_limit).is_ok());
        let over = format!("[{at_limit}]");
        assert!(parse_json(&over).is_err());
    }

    #[test]
    fn accessors_return_none_on_type_mismatch() {
        let j = parse_json(r#"{"n":1.5,"u":3,"s":"x","a":[],"o":{}}"#).unwrap();
        assert_eq!(j.get("n").unwrap().as_u64(), None);
        assert_eq!(j.get("u").unwrap().as_u64(), Some(3));
        assert_eq!(j.get("s").unwrap().as_f64(), None);
        assert!(j.get("a").unwrap().as_arr().unwrap().is_empty());
        assert!(j.get("o").unwrap().as_obj().unwrap().is_empty());
        assert!(j.get("missing").is_none());
    }

    #[test]
    fn write_f64_round_trips_and_nulls_nonfinite() {
        let mut out = String::new();
        write_f64(0.1, &mut out);
        assert_eq!(parse_json(&out).unwrap().as_f64(), Some(0.1));
        let mut out = String::new();
        write_f64(f64::NAN, &mut out);
        assert_eq!(out, "null");
    }
}
