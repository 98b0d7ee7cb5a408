//! Minimal JSON tree, parser and writer for checked-in artifacts.
//!
//! A small [`JsonValue`] tree with a strict recursive-descent parser and a
//! deterministic writer. Two artifacts use it: the scenario fixtures,
//! whose format `embodied-bench` owns, and the summaries `perf_bench`
//! writes and reads back.
//!
//! Determinism contract: objects preserve insertion order, floats are
//! rendered with Rust's shortest round-trip formatting, and
//! `parse(render(v)) == v` for every tree the suite produces — checked-in
//! fixtures therefore diff cleanly and replay exactly.

use std::fmt;

/// A parsed or constructed JSON document.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (stored as `f64`; the suite's integers stay well
    /// below 2^53, where `f64` is exact).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object; insertion-ordered, duplicate keys rejected at parse time.
    Object(Vec<(String, JsonValue)>),
}

/// Error produced by [`JsonValue::parse`] or a narrowing accessor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError(String);

impl JsonError {
    /// Builds an error with the given message.
    fn msg(message: impl Into<String>) -> Self {
        JsonError(message.into())
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for JsonError {}

impl JsonValue {
    /// Looks up `key` in an object.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Looks up `key` in an object, erroring with the field name when
    /// absent.
    pub fn field(&self, key: &str) -> Result<&JsonValue, JsonError> {
        self.get(key)
            .ok_or_else(|| JsonError::msg(format!("missing field `{key}`")))
    }

    /// The number payload, if any.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The number payload as a non-negative integer, if it is one exactly.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 2f64.powi(53) => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The bool payload, if any.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The string payload, if any.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The array payload, if any.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// `field(key)` narrowed to a float.
    pub fn f64_field(&self, key: &str) -> Result<f64, JsonError> {
        self.field(key)?
            .as_f64()
            .ok_or_else(|| JsonError::msg(format!("field `{key}` is not a number")))
    }

    /// `field(key)` narrowed to an exact non-negative integer.
    pub fn u64_field(&self, key: &str) -> Result<u64, JsonError> {
        self.field(key)?
            .as_u64()
            .ok_or_else(|| JsonError::msg(format!("field `{key}` is not a non-negative integer")))
    }

    /// `field(key)` narrowed to a bool.
    pub fn bool_field(&self, key: &str) -> Result<bool, JsonError> {
        self.field(key)?
            .as_bool()
            .ok_or_else(|| JsonError::msg(format!("field `{key}` is not a bool")))
    }

    /// `field(key)` narrowed to a string.
    pub fn str_field(&self, key: &str) -> Result<&str, JsonError> {
        self.field(key)?
            .as_str()
            .ok_or_else(|| JsonError::msg(format!("field `{key}` is not a string")))
    }

    /// Parses a JSON document. Strict: rejects trailing input, duplicate
    /// object keys, and non-finite numbers (JSON has no NaN/Infinity, and
    /// admitting them would smuggle invalid rates past validation).
    pub fn parse(text: &str) -> Result<JsonValue, JsonError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(JsonError::msg(format!("trailing input at byte {}", p.pos)));
        }
        Ok(value)
    }

    /// Renders the tree as pretty-printed JSON (2-space indent, `\n`
    /// separators) with a trailing newline — the checked-in fixture format.
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Num(n) => write_number(out, *n),
            JsonValue::Str(s) => write_string(out, s),
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
                    out.push('\n');
                    push_indent(out, indent + 1);
                    item.write(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push(']');
            }
            JsonValue::Object(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    write_string(out, key);
                    out.push_str(": ");
                    value.write(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push('}');
            }
        }
    }
}

fn push_indent(out: &mut String, levels: usize) {
    for _ in 0..levels {
        out.push_str("  ");
    }
}

/// Rust's `{}` float formatting is the shortest string that parses back to
/// the same `f64`, which is exactly the round-trip guarantee fixtures need;
/// integral values below 2^53 print as plain integers.
fn write_number(out: &mut String, n: f64) {
    debug_assert!(n.is_finite(), "non-finite numbers never reach the writer");
    if n.fract() == 0.0 && n.abs() < 2f64.powi(53) {
        out.push_str(&format!("{}", n as i64));
    } else {
        out.push_str(&format!("{n}"));
    }
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(JsonError::msg(format!(
                "expected `{}` at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn literal(&mut self, word: &str) -> bool {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<JsonValue, JsonError> {
        match self.peek() {
            Some(b'n') if self.literal("null") => Ok(JsonValue::Null),
            Some(b't') if self.literal("true") => Ok(JsonValue::Bool(true)),
            Some(b'f') if self.literal("false") => Ok(JsonValue::Bool(false)),
            Some(b'"') => self.string().map(JsonValue::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            _ => Err(JsonError::msg(format!(
                "unexpected input at byte {}",
                self.pos
            ))),
        }
    }

    fn array(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => {
                    return Err(JsonError::msg(format!(
                        "expected `,` or `]` at byte {}",
                        self.pos
                    )))
                }
            }
        }
    }

    fn object(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'{')?;
        let mut fields: Vec<(String, JsonValue)> = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            if fields.iter().any(|(k, _)| *k == key) {
                return Err(JsonError::msg(format!("duplicate key `{key}`")));
            }
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(fields));
                }
                _ => {
                    return Err(JsonError::msg(format!(
                        "expected `,` or `}}` at byte {}",
                        self.pos
                    )))
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Consume a run of plain bytes in one slice.
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| JsonError::msg("invalid UTF-8 in string"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let escape = self
                        .peek()
                        .ok_or_else(|| JsonError::msg("unterminated escape"))?;
                    self.pos += 1;
                    match escape {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| JsonError::msg("truncated \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| JsonError::msg("bad \\u escape"))?;
                            self.pos += 4;
                            // Surrogates never appear in the suite's output;
                            // reject rather than mis-decode.
                            let c = char::from_u32(code)
                                .ok_or_else(|| JsonError::msg("\\u escape is not a scalar"))?;
                            out.push(c);
                        }
                        other => {
                            return Err(JsonError::msg(format!(
                                "unknown escape `\\{}`",
                                other as char
                            )))
                        }
                    }
                }
                _ => return Err(JsonError::msg("unterminated string")),
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| JsonError::msg("invalid number bytes"))?;
        let n: f64 = text
            .parse()
            .map_err(|_| JsonError::msg(format!("bad number `{text}`")))?;
        if !n.is_finite() {
            return Err(JsonError::msg(format!("non-finite number `{text}`")));
        }
        Ok(JsonValue::Num(n))
    }
}

impl fmt::Display for JsonValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.write(&mut out, 0);
        f.write_str(&out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obj(fields: &[(&str, JsonValue)]) -> JsonValue {
        JsonValue::Object(
            fields
                .iter()
                .map(|(k, v)| ((*k).to_string(), v.clone()))
                .collect(),
        )
    }

    #[test]
    fn round_trips_a_nested_tree() {
        let tree = obj(&[
            ("name", JsonValue::Str("centralized — no failover".into())),
            ("rate", JsonValue::Num(0.037_500_000_000_000_01)),
            ("count", JsonValue::Num(12.0)),
            ("on", JsonValue::Bool(true)),
            ("none", JsonValue::Null),
            (
                "items",
                JsonValue::Array(vec![
                    JsonValue::Num(-1.5),
                    JsonValue::Str("a\"b\\c\n".into()),
                ]),
            ),
            ("empty", JsonValue::Array(vec![])),
            ("empty_obj", obj(&[])),
        ]);
        let text = tree.render_pretty();
        let back = JsonValue::parse(&text).expect("rendered JSON parses");
        assert_eq!(back, tree);
    }

    #[test]
    fn float_round_trip_is_exact() {
        for &x in &[
            0.1,
            1.0 / 3.0,
            0.05,
            2.0f64.powi(-40),
            123_456_789.123_456_78,
            f64::MIN_POSITIVE,
        ] {
            let text = JsonValue::Num(x).render_pretty();
            let back = JsonValue::parse(&text).unwrap();
            assert_eq!(back.as_f64(), Some(x), "lost precision for {x}");
        }
    }

    #[test]
    fn strict_parser_rejects_garbage() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":1,\"a\":2}",
            "nul",
            "1 2",
            "\"unterminated",
            "{\"a\" 1}",
            "NaN",
            "1e999",
        ] {
            assert!(JsonValue::parse(bad).is_err(), "accepted `{bad}`");
        }
    }

    #[test]
    fn parses_escapes_and_unicode() {
        let v = JsonValue::parse(r#""aé\n\t\"\\ b""#).unwrap();
        assert_eq!(v.as_str(), Some("aé\n\t\"\\ b"));
    }

    #[test]
    fn accessors_narrow_types() {
        let v = JsonValue::parse(r#"{"n": 3, "f": 0.5, "b": false, "s": "x"}"#).unwrap();
        assert_eq!(v.u64_field("n").unwrap(), 3);
        assert_eq!(v.f64_field("f").unwrap(), 0.5);
        assert!(!v.bool_field("b").unwrap());
        assert_eq!(v.str_field("s").unwrap(), "x");
        assert!(v.field("missing").is_err());
        assert!(v.u64_field("f").is_err(), "0.5 is not an integer");
        assert_eq!(JsonValue::Num(-1.0).as_u64(), None);
    }

    #[test]
    fn integral_floats_render_without_exponent() {
        assert_eq!(JsonValue::Num(42.0).to_string(), "42");
        assert_eq!(JsonValue::Num(0.25).to_string(), "0.25");
        assert_eq!(JsonValue::Num(-7.0).to_string(), "-7");
    }
}
