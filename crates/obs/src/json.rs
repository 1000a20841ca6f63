//! A minimal JSON value, writer, and parser.
//!
//! The workspace deliberately carries no `serde`; run records and bench
//! results are small, flat documents, and this codec covers exactly what
//! they need: the six JSON value kinds, string escaping, shortest
//! round-trip float formatting (`f64`'s `Display`), and a recursive
//! descent parser with byte offsets in errors.
//!
//! Numbers are `f64` throughout. Integers round-trip exactly up to 2⁵³,
//! which bounds every counter this workspace emits (nanosecond span
//! totals included — 2⁵³ ns is ~104 days of wall clock).

use std::collections::BTreeMap;
use std::fmt;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (stored as `f64`; non-finite values serialize as
    /// `null`, which JSON cannot represent).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with deterministically ordered keys.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// An empty object.
    pub fn object() -> Json {
        Json::Obj(BTreeMap::new())
    }

    /// Inserts into an object, panicking on non-objects (builder misuse).
    pub fn insert(&mut self, key: impl Into<String>, value: impl Into<Json>) -> &mut Json {
        match self {
            Json::Obj(map) => {
                map.insert(key.into(), value.into());
                self
            }
            other => panic!("Json::insert on non-object {other:?}"),
        }
    }

    /// The object map, when this is an object.
    pub fn as_obj(&self) -> Option<&BTreeMap<String, Json>> {
        match self {
            Json::Obj(m) => Some(m),
            _ => None,
        }
    }

    /// The array elements, when this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The boolean, when this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The number, when this is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string, when this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Member lookup on objects (`None` elsewhere).
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.as_obj().and_then(|m| m.get(key))
    }

    /// Serializes compactly (no whitespace).
    pub fn to_string_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Serializes with two-space indentation and a trailing newline —
    /// the format of every committed `results/*.json`.
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => write_num(out, *n),
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => write_seq(out, indent, depth, items.is_empty(), '[', ']', |out| {
                for (i, item) in items.iter().enumerate() {
                    sep(out, indent, depth + 1, i > 0);
                    item.write(out, indent, depth + 1);
                }
            }),
            Json::Obj(map) => write_seq(out, indent, depth, map.is_empty(), '{', '}', |out| {
                for (i, (k, v)) in map.iter().enumerate() {
                    sep(out, indent, depth + 1, i > 0);
                    write_escaped(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, depth + 1);
                }
            }),
        }
    }

    /// The deepest nesting of arrays and objects [`Json::parse`] accepts.
    pub const MAX_DEPTH: usize = 128;

    /// Parses a JSON document (exactly one value plus whitespace). Arrays
    /// and objects nested more than [`Self::MAX_DEPTH`] deep are a
    /// [`ParseError`]: the parser recurses once per level, so an unbounded
    /// depth would let a hostile document overflow the stack.
    pub fn parse(text: &str) -> Result<Json, ParseError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after the document"));
        }
        Ok(value)
    }
}

fn write_num(out: &mut String, n: f64) {
    use fmt::Write as _;
    if !n.is_finite() {
        out.push_str("null");
    } else if n == n.trunc() && n.abs() < 9.0e15 {
        let _ = write!(out, "{}", n as i64);
    } else {
        let _ = write!(out, "{n}");
    }
}

fn write_escaped(out: &mut String, s: &str) {
    use fmt::Write as _;
    out.push('"');
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
    out.push('"');
}

fn write_seq(
    out: &mut String,
    indent: Option<usize>,
    depth: usize,
    empty: bool,
    open: char,
    close: char,
    body: impl FnOnce(&mut String),
) {
    out.push(open);
    if empty {
        out.push(close);
        return;
    }
    body(out);
    if let Some(w) = indent {
        out.push('\n');
        out.push_str(&" ".repeat(w * depth));
    }
    out.push(close);
}

fn sep(out: &mut String, indent: Option<usize>, depth: usize, comma: bool) {
    if comma {
        out.push(',');
    }
    if let Some(w) = indent {
        out.push('\n');
        out.push_str(&" ".repeat(w * depth));
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<f64> for Json {
    fn from(n: f64) -> Json {
        Json::Num(n)
    }
}

impl From<u64> for Json {
    fn from(n: u64) -> Json {
        Json::Num(n as f64)
    }
}

impl From<u32> for Json {
    fn from(n: u32) -> Json {
        Json::Num(n as f64)
    }
}

impl From<usize> for Json {
    fn from(n: usize) -> Json {
        Json::Num(n as f64)
    }
}

impl From<i64> for Json {
    fn from(n: i64) -> Json {
        Json::Num(n as f64)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(items: Vec<T>) -> Json {
        Json::Arr(items.into_iter().map(Into::into).collect())
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_string_compact())
    }
}

/// A parse failure with its byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset into the input.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "JSON parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for ParseError {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            offset: self.pos,
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected `{}`", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected `{word}`")))
        }
    }

    fn value(&mut self) -> Result<Json, ParseError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(open @ (b'[' | b'{')) => {
                if self.depth == Json::MAX_DEPTH {
                    let message = format!("nested deeper than {} levels", Json::MAX_DEPTH);
                    return Err(self.err(message));
                }
                self.depth += 1;
                let value = if open == b'[' {
                    self.array()
                } else {
                    self.object()
                };
                self.depth -= 1;
                value
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(self.err(format!("unexpected `{}`", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii digits");
        text.parse::<f64>().map(Json::Num).map_err(|_| ParseError {
            offset: start,
            message: format!("bad number `{text}`"),
        })
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
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
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|b| std::str::from_utf8(b).ok())
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            // Surrogate pairs are not needed by our own
                            // writer; map lone surrogates to U+FFFD.
                            out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Advance one full UTF-8 scalar.
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| self.err("invalid UTF-8"))?;
                    let c = rest.chars().next().expect("non-empty");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, ParseError> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            map.insert(key, self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(map));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_values() {
        let mut obj = Json::object();
        obj.insert("name", "bench \"pipeline\"\n");
        obj.insert("count", 42u64);
        obj.insert("ratio", 0.125);
        obj.insert("ok", true);
        obj.insert("none", Json::Null);
        obj.insert("xs", vec![1u64, 2, 3]);
        for text in [obj.to_string_compact(), obj.to_string_pretty()] {
            assert_eq!(Json::parse(&text).unwrap(), obj, "{text}");
        }
    }

    #[test]
    fn numbers_round_trip_exactly() {
        for n in [
            0.0,
            -1.5,
            1e-9,
            123456789.0,
            2.0_f64.powi(53) - 1.0,
            0.1,
            1e300,
        ] {
            let text = Json::Num(n).to_string_compact();
            assert_eq!(Json::parse(&text).unwrap().as_num().unwrap(), n, "{text}");
        }
    }

    #[test]
    fn integers_have_no_fraction() {
        assert_eq!(Json::Num(5.0).to_string_compact(), "5");
        assert_eq!(Json::Num(-3.0).to_string_compact(), "-3");
        assert_eq!(Json::Num(2.5).to_string_compact(), "2.5");
    }

    #[test]
    fn non_finite_serializes_as_null() {
        assert_eq!(Json::Num(f64::NAN).to_string_compact(), "null");
        assert_eq!(Json::Num(f64::INFINITY).to_string_compact(), "null");
    }

    #[test]
    fn parses_escapes_and_unicode() {
        let v = Json::parse(r#"{"s": "aA\n\t✓", "neg": -2.5e-3}"#).unwrap();
        assert_eq!(v.get("s").unwrap().as_str().unwrap(), "aA\n\t✓");
        assert!((v.get("neg").unwrap().as_num().unwrap() + 0.0025).abs() < 1e-12);
    }

    #[test]
    fn rejects_garbage() {
        for bad in ["", "{", "[1,]", "{\"a\" 1}", "nul", "1 2", "\"open"] {
            assert!(Json::parse(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn nesting_past_the_limit_is_a_parse_error() {
        let nested = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        let limit = Json::MAX_DEPTH;
        assert!(Json::parse(&nested(limit)).is_ok());
        let err = Json::parse(&nested(limit + 1)).unwrap_err();
        assert_eq!(err.offset, limit);
        // A million levels would overflow the stack of an unbounded parser.
        let err = Json::parse(&"[".repeat(1_000_000)).unwrap_err();
        assert!(err.message.contains("nested deeper"), "{err}");
        let objects = r#"{"a":"#.repeat(limit + 1) + "1" + &"}".repeat(limit + 1);
        assert!(Json::parse(&objects).is_err());
    }

    #[test]
    fn object_keys_are_sorted_in_output() {
        let mut obj = Json::object();
        obj.insert("zeta", 1u64);
        obj.insert("alpha", 2u64);
        assert_eq!(obj.to_string_compact(), r#"{"alpha":2,"zeta":1}"#);
    }
}
