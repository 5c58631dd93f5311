//! A minimal JSON *validator* (no parse tree) for self-checking the
//! exporters' hand-rolled output — `repro trace` runs every trace-event
//! document it writes through [`validate_json`] before declaring success.
//!
//! Recursive-descent over the RFC 8259 grammar with a fixed nesting-depth
//! limit; rejects trailing garbage. It validates rather than parses: the
//! exporters' documents can reach hundreds of megabytes, and the smoke
//! checks only need well-formedness, not a DOM.
//!
//! [`validate_prometheus`] does the same for the Prometheus text the
//! serving plane's `/metrics` writes.
//!
//! For the *small* documents the workspace must read back (the committed
//! `results/baseline.json`), [`parse_json`] builds a [`JsonValue`] tree
//! over the same grammar. The validator stays allocation-free for the
//! huge exporter outputs; the parser is for kilobyte-scale inputs.

use std::fmt;

/// Maximum object/array nesting accepted by [`validate_json`].
const MAX_DEPTH: usize = 64;

/// Why a document failed validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the offending character.
    pub offset: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn err<T>(&self, message: &str) -> Result<T, JsonError> {
        Err(JsonError {
            offset: self.pos,
            message: message.to_string(),
        })
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, expected: u8) -> Result<(), JsonError> {
        if self.peek() == Some(expected) {
            self.pos += 1;
            Ok(())
        } else {
            self.err(&format!("expected '{}'", char::from(expected)))
        }
    }

    fn eat_literal(&mut self, lit: &str) -> Result<(), JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            self.err(&format!("expected literal '{lit}'"))
        }
    }

    fn value(&mut self, depth: usize) -> Result<(), JsonError> {
        if depth > MAX_DEPTH {
            return self.err("nesting deeper than 64 levels");
        }
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => self.string(),
            Some(b't') => self.eat_literal("true"),
            Some(b'f') => self.eat_literal("false"),
            Some(b'n') => self.eat_literal("null"),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => self.err("expected a value"),
            None => self.err("unexpected end of input"),
        }
    }

    fn object(&mut self, depth: usize) -> Result<(), JsonError> {
        self.eat(b'{')?;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.value(depth + 1)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return self.err("expected ',' or '}' in object"),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<(), JsonError> {
        self.eat(b'[')?;
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.value(depth + 1)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return self.err("expected ',' or ']' in array"),
            }
        }
    }

    fn string(&mut self) -> Result<(), JsonError> {
        self.eat(b'"')?;
        loop {
            match self.peek() {
                None => return self.err("unterminated string"),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(());
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => {
                            self.pos += 1;
                        }
                        Some(b'u') => {
                            self.pos += 1;
                            for _ in 0..4 {
                                if !matches!(self.peek(), Some(c) if c.is_ascii_hexdigit()) {
                                    return self.err("\\u needs four hex digits");
                                }
                                self.pos += 1;
                            }
                        }
                        _ => return self.err("invalid escape"),
                    }
                }
                Some(c) if c < 0x20 => return self.err("raw control character in string"),
                Some(_) => self.pos += 1,
            }
        }
    }

    fn parse_value(&mut self, depth: usize) -> Result<JsonValue, JsonError> {
        if depth > MAX_DEPTH {
            return self.err("nesting deeper than 64 levels");
        }
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.parse_object(depth),
            Some(b'[') => self.parse_array(depth),
            Some(b'"') => self.parse_string().map(JsonValue::String),
            Some(b't') => self.eat_literal("true").map(|()| JsonValue::Bool(true)),
            Some(b'f') => self.eat_literal("false").map(|()| JsonValue::Bool(false)),
            Some(b'n') => self.eat_literal("null").map(|()| JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.parse_number(),
            Some(_) => self.err("expected a value"),
            None => self.err("unexpected end of input"),
        }
    }

    fn parse_object(&mut self, depth: usize) -> Result<JsonValue, JsonError> {
        self.eat(b'{')?;
        self.skip_ws();
        let mut members = Vec::new();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(members));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.eat(b':')?;
            let value = self.parse_value(depth + 1)?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(members));
                }
                _ => return self.err("expected ',' or '}' in object"),
            }
        }
    }

    fn parse_array(&mut self, depth: usize) -> Result<JsonValue, JsonError> {
        self.eat(b'[')?;
        self.skip_ws();
        let mut items = Vec::new();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            items.push(self.parse_value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return self.err("expected ',' or ']' in array"),
            }
        }
    }

    fn parse_string(&mut self) -> Result<String, JsonError> {
        let start = self.pos;
        self.string()?;
        // The validator accepted bytes [start, pos): re-walk them
        // decoding escapes, without re-checking well-formedness.
        let inner = &self.bytes[start + 1..self.pos - 1];
        let mut out = String::with_capacity(inner.len());
        let mut i = 0;
        while i < inner.len() {
            let b = inner[i];
            if b != b'\\' {
                // Multi-byte UTF-8 passes through untouched (the input
                // &str was valid UTF-8 and the validator never splits
                // code points).
                let s = core::str::from_utf8(&inner[i..])
                    .map_err(|_| JsonError {
                        offset: start + 1 + i,
                        message: "invalid UTF-8 in string".to_string(),
                    })?
                    .chars()
                    .next()
                    .ok_or(JsonError {
                        offset: start + 1 + i,
                        message: "empty char in string".to_string(),
                    })?;
                out.push(s);
                i += s.len_utf8();
                continue;
            }
            i += 1;
            match inner[i] {
                b'"' => out.push('"'),
                b'\\' => out.push('\\'),
                b'/' => out.push('/'),
                b'b' => out.push('\u{8}'),
                b'f' => out.push('\u{c}'),
                b'n' => out.push('\n'),
                b'r' => out.push('\r'),
                b't' => out.push('\t'),
                b'u' => {
                    let hex = hex4(&inner[i + 1..i + 5]);
                    i += 4;
                    let code = if (0xD800..0xDC00).contains(&hex)
                        && inner.get(i + 1) == Some(&b'\\')
                        && inner.get(i + 2) == Some(&b'u')
                    {
                        // Surrogate pair: combine high + low halves.
                        let low = hex4(&inner[i + 3..i + 7]);
                        i += 6;
                        0x10000 + ((hex - 0xD800) << 10) + (low - 0xDC00)
                    } else {
                        hex
                    };
                    out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                }
                _ => {
                    // Unreachable: string() already rejected it.
                    return Err(JsonError {
                        offset: start + 1 + i,
                        message: "invalid escape".to_string(),
                    });
                }
            }
            i += 1;
        }
        Ok(out)
    }

    fn parse_number(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.pos;
        self.number()?;
        let text = core::str::from_utf8(&self.bytes[start..self.pos]).map_err(|_| JsonError {
            offset: start,
            message: "invalid UTF-8 in number".to_string(),
        })?;
        match text.parse::<f64>() {
            Ok(n) => Ok(JsonValue::Number(n)),
            Err(_) => Err(JsonError {
                offset: start,
                message: format!("unparseable number '{text}'"),
            }),
        }
    }

    fn digits(&mut self) -> Result<(), JsonError> {
        if !matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            return self.err("expected a digit");
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        Ok(())
    }

    fn number(&mut self) -> Result<(), JsonError> {
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        // Integer part: a lone 0, or a nonzero digit followed by more.
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => self.digits()?,
            _ => return self.err("expected a digit"),
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            self.digits()?;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            self.digits()?;
        }
        Ok(())
    }
}

/// Decodes exactly four hex digits (already validated) into a code unit.
fn hex4(bytes: &[u8]) -> u32 {
    bytes.iter().fold(0u32, |acc, &b| {
        acc * 16 + (b as char).to_digit(16).unwrap_or(0)
    })
}

/// Checks that `text` is exactly one well-formed JSON document (value plus
/// optional surrounding whitespace, nothing else).
///
/// # Errors
///
/// Returns a [`JsonError`] with the byte offset of the first violation.
///
/// # Examples
///
/// ```
/// use ahbpower_bench::validate_json;
///
/// assert!(validate_json(r#"{"traceEvents":[{"ph":"X","ts":0.5}]}"#).is_ok());
/// assert!(validate_json("{\"unterminated\":").is_err());
/// ```
pub fn validate_json(text: &str) -> Result<(), JsonError> {
    let mut c = Cursor {
        bytes: text.as_bytes(),
        pos: 0,
    };
    c.value(0)?;
    c.skip_ws();
    if c.pos != c.bytes.len() {
        return c.err("trailing garbage after document");
    }
    Ok(())
}

/// Checks Prometheus text exposition (version 0.0.4) for the shape the
/// serving plane promises: every family declared by exactly one
/// `# TYPE`, each family's sample lines contiguous right after it, and
/// every sample line ending in a number (an optional integer timestamp
/// may follow the value). A histogram's `_bucket`, `_sum` and `_count`
/// samples belong to its family.
///
/// # Errors
///
/// A message naming the first offending line (1-based) and why.
///
/// # Examples
///
/// ```
/// use ahbpower_bench::validate_prometheus;
///
/// let ok = "# TYPE a_total counter\na_total{k=\"v\"} 1\na_total 2\n";
/// assert!(validate_prometheus(ok).is_ok());
/// let split = "# TYPE a counter\na 1\n# TYPE b gauge\nb 2\na 3\n";
/// assert!(validate_prometheus(split).is_err());
/// ```
pub fn validate_prometheus(text: &str) -> Result<(), String> {
    let mut kinds: Vec<(&str, &str)> = Vec::new();
    let mut current: Option<&str> = None;
    for (i, line) in text.lines().enumerate() {
        let fail = |why: &str| Err(format!("line {}: {why}: {line:?}", i + 1));
        if let Some(decl) = line.strip_prefix("# TYPE ") {
            let Some((name, kind)) = decl.split_once(' ') else {
                return fail("malformed TYPE line");
            };
            if kinds.iter().any(|&(n, _)| n == name) {
                return fail("second TYPE for one family");
            }
            kinds.push((name, kind));
            current = Some(name);
            continue;
        }
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let name_end = line.find(['{', ' ']).unwrap_or(line.len());
        let name = &line[..name_end];
        let family = kinds.iter().map(|&(family, _)| family).find(|&f| f == name);
        let family = family.or_else(|| {
            ["_bucket", "_sum", "_count"].iter().find_map(|suffix| {
                let base = name.strip_suffix(suffix)?;
                kinds
                    .iter()
                    .find(|&&(f, kind)| f == base && matches!(kind, "histogram" | "summary"))
                    .map(|&(f, _)| f)
            })
        });
        let Some(family) = family else {
            return fail("sample of an undeclared family");
        };
        if current != Some(family) {
            return fail("sample separated from the rest of its family");
        }
        let mut rest = &line[name_end..];
        if rest.starts_with('{') {
            let Some(close) = label_block_end(rest) else {
                return fail("unterminated label set");
            };
            rest = &rest[close + 1..];
        }
        let mut fields = rest.split_whitespace();
        let value_ok = fields.next().is_some_and(|v| v.parse::<f64>().is_ok());
        let timestamp_ok = fields.next().is_none_or(|t| t.parse::<i64>().is_ok());
        if !rest.starts_with(' ') || !value_ok || !timestamp_ok || fields.next().is_some() {
            return fail("sample line does not end in a number");
        }
    }
    Ok(())
}

/// Byte offset of the `}` closing the label set `labels` starts with,
/// skipping braces inside quoted (and backslash-escaped) label values.
fn label_block_end(labels: &str) -> Option<usize> {
    let mut quoted = false;
    let mut escaped = false;
    for (i, c) in labels.char_indices() {
        match c {
            _ if escaped => escaped = false,
            '\\' if quoted => escaped = true,
            '"' => quoted = !quoted,
            '}' if !quoted => return Some(i),
            _ => {}
        }
    }
    None
}

/// A parsed JSON document. Object members keep their document order
/// (duplicate keys keep the last occurrence on lookup, first wins on
/// iteration order).
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (parsed as `f64`).
    Number(f64),
    /// A string with escapes decoded.
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object, as ordered key/value pairs.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Object member lookup (`None` for non-objects / missing keys).
    /// With duplicate keys, the last occurrence wins, matching the
    /// common "last value" JSON semantics.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(members) => {
                members.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v)
            }
            _ => None,
        }
    }

    /// The numeric value (`None` for non-numbers).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric value as a `u64`, when it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Number(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The boolean value (`None` for non-booleans).
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The string value (`None` for non-strings).
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The array elements (`None` for non-arrays).
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }
}

/// Parses `text` into a [`JsonValue`] tree. Same grammar, depth limit
/// and trailing-garbage rule as [`validate_json`].
///
/// # Errors
///
/// Returns a [`JsonError`] with the byte offset of the first violation.
///
/// # Examples
///
/// ```
/// use ahbpower_bench::parse_json;
///
/// let doc = parse_json(r#"{"cycles": 200000, "rows": [{"name": "READ_READ"}]}"#)?;
/// assert_eq!(doc.get("cycles").and_then(|v| v.as_u64()), Some(200000));
/// # Ok::<(), ahbpower_bench::JsonError>(())
/// ```
pub fn parse_json(text: &str) -> Result<JsonValue, JsonError> {
    let mut c = Cursor {
        bytes: text.as_bytes(),
        pos: 0,
    };
    let value = c.parse_value(0)?;
    c.skip_ws();
    if c.pos != c.bytes.len() {
        return c.err("trailing garbage after document");
    }
    Ok(value)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prometheus_shape_is_checked() {
        let good = "# HELP h Latency.\n# TYPE h histogram\n\
                    h_bucket{k=\"a} b\\\"\",le=\"1\"} 1\nh_bucket{le=\"+Inf\"} 2\n\
                    h_sum 3\nh_count 2\n# TYPE g gauge\ng NaN\ng{x=\"1\"} -1.5e-9 1700000000\n";
        assert_eq!(validate_prometheus(good), Ok(()));
        for (bad, why) in [
            ("# TYPE a counter\na 1\n# TYPE a counter\n", "second TYPE"),
            ("# TYPE a counter\n# TYPE b counter\na 1\n", "separated"),
            (
                "# TYPE a counter\na 1\n# TYPE b gauge\nb 1\na 2\n",
                "separated",
            ),
            ("b 1\n", "undeclared"),
            ("# TYPE a counter\na_sum 1\n", "undeclared"),
            ("# TYPE a counter\na one\n", "number"),
            ("# TYPE a counter\na{k=\"v\"}1\n", "number"),
            ("# TYPE a counter\na 1 2 3\n", "number"),
            ("# TYPE a counter\na{k=\"v} 1\n", "unterminated"),
        ] {
            let err = validate_prometheus(bad).expect_err(bad);
            assert!(err.contains(why), "{bad:?}: {err}");
        }
    }

    #[test]
    fn accepts_valid_documents() {
        for doc in [
            "null",
            "true",
            " false ",
            "0",
            "-12.5e-3",
            "1E+10",
            "\"\"",
            r#""é\n""#,
            "[]",
            "[1, [2, [3]], {\"a\": null}]",
            "{}",
            r#"{"traceEvents":[{"name":"WRITE S0","ph":"X","ts":0.02,"dur":0.05,"args":{"id":1}}],"displayTimeUnit":"ms"}"#,
        ] {
            assert!(validate_json(doc).is_ok(), "{doc}");
        }
    }

    #[test]
    fn rejects_invalid_documents() {
        for doc in [
            "",
            "{",
            "[1,]",
            "{\"a\"}",
            "{\"a\":}",
            "{\"a\":1,}",
            "01",
            "1.",
            "+1",
            "nul",
            "\"unterminated",
            "\"bad \\x escape\"",
            "{} {}",
            "[1] trailing",
            "{\"a\": \u{1}\"ctl\"}",
        ] {
            assert!(validate_json(doc).is_err(), "{doc} should be rejected");
        }
    }

    #[test]
    fn parser_builds_trees_and_decodes_escapes() {
        let doc = parse_json(
            r#"{"name": "paper_testbench", "cycles": 200000, "mean": -1.5e-12,
               "flags": [true, false, null], "nested": {"esc": "a\"b\\c\ndA"},
               "dup": 1, "dup": 2}"#,
        )
        .expect("valid");
        assert_eq!(
            doc.get("name").and_then(JsonValue::as_str),
            Some("paper_testbench")
        );
        assert_eq!(doc.get("cycles").and_then(JsonValue::as_u64), Some(200_000));
        assert_eq!(doc.get("mean").and_then(JsonValue::as_f64), Some(-1.5e-12));
        let flags = doc
            .get("flags")
            .and_then(JsonValue::as_array)
            .expect("array");
        assert_eq!(
            flags,
            &[
                JsonValue::Bool(true),
                JsonValue::Bool(false),
                JsonValue::Null
            ]
        );
        assert_eq!(
            doc.get("nested")
                .and_then(|n| n.get("esc"))
                .and_then(JsonValue::as_str),
            Some("a\"b\\c\nd\u{41}")
        );
        assert_eq!(doc.get("dup").and_then(JsonValue::as_f64), Some(2.0));
        assert_eq!(doc.get("missing"), None);
        // Raw multi-byte UTF-8 passes through; surrogate-pair escapes
        // decode to the supplementary-plane character.
        let emoji = parse_json(r#""😀""#).expect("valid");
        assert_eq!(emoji.as_str(), Some("\u{1F600}"));
        let escaped = parse_json(r#""\ud83d\ude00""#).expect("valid");
        assert_eq!(escaped.as_str(), Some("\u{1F600}"));
        // Non-integer and negative numbers refuse as_u64.
        assert_eq!(parse_json("1.5").expect("ok").as_u64(), None);
        assert_eq!(parse_json("-1").expect("ok").as_u64(), None);
    }

    #[test]
    fn parser_rejects_what_the_validator_rejects() {
        for doc in ["", "{", "[1,]", "{\"a\":}", "[1] trailing", "nul"] {
            assert!(parse_json(doc).is_err(), "{doc} should be rejected");
        }
        let err = parse_json("[1, oops]").expect_err("bad literal");
        assert_eq!(err.offset, 4);
    }

    #[test]
    fn reports_offsets_and_caps_depth() {
        let err = validate_json("[1, oops]").expect_err("bad literal");
        assert_eq!(err.offset, 4);
        assert!(err.to_string().contains("byte 4"));
        let deep = format!("{}1{}", "[".repeat(80), "]".repeat(80));
        let err = validate_json(&deep).expect_err("too deep");
        assert!(err.message.contains("nesting"));
        let ok = format!("{}1{}", "[".repeat(60), "]".repeat(60));
        assert!(validate_json(&ok).is_ok());
    }
}
