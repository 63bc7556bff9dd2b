//! Minimal JSON encoding/decoding for flat objects.
//!
//! The store's on-disk records (archive manifest lines, run-ledger lines)
//! are single-level JSON objects whose values are strings, integers,
//! floats or booleans. The workspace has no serialization framework, so
//! this module hand-rolls exactly that subset: nested containers are
//! rejected on parse, and string escapes cover the JSON escape set.

use std::collections::BTreeMap;
use std::fmt;

/// A scalar JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// A string.
    Str(String),
    /// An unsigned integer (the store never writes negative integers).
    U64(u64),
    /// A float.
    F64(f64),
    /// A boolean.
    Bool(bool),
}

impl JsonValue {
    /// The string content, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The integer value, if this is an integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::U64(v) => Some(*v),
            _ => None,
        }
    }

    /// The numeric value as a float (integers widen).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::F64(v) => Some(*v),
            JsonValue::U64(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// The boolean value, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// A flat JSON object with deterministic (sorted) key order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct JsonObject {
    fields: BTreeMap<String, JsonValue>,
}

impl JsonObject {
    /// An empty object.
    pub fn new() -> JsonObject {
        JsonObject::default()
    }

    /// Sets `key` to a string value.
    pub fn set_str(&mut self, key: &str, value: &str) -> &mut Self {
        self.fields.insert(key.to_string(), JsonValue::Str(value.to_string()));
        self
    }

    /// Sets `key` to an integer value.
    pub fn set_u64(&mut self, key: &str, value: u64) -> &mut Self {
        self.fields.insert(key.to_string(), JsonValue::U64(value));
        self
    }

    /// Sets `key` to a float value.
    pub fn set_f64(&mut self, key: &str, value: f64) -> &mut Self {
        self.fields.insert(key.to_string(), JsonValue::F64(value));
        self
    }

    /// Sets `key` to a boolean value.
    pub fn set_bool(&mut self, key: &str, value: bool) -> &mut Self {
        self.fields.insert(key.to_string(), JsonValue::Bool(value));
        self
    }

    /// Looks up `key`.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        self.fields.get(key)
    }

    /// Iterates fields in key order (the serialisation order).
    pub fn iter(&self) -> impl Iterator<Item = (&str, &JsonValue)> {
        self.fields.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// String field accessor.
    pub fn str_field(&self, key: &str) -> Option<&str> {
        self.get(key).and_then(JsonValue::as_str)
    }

    /// Integer field accessor.
    pub fn u64_field(&self, key: &str) -> Option<u64> {
        self.get(key).and_then(JsonValue::as_u64)
    }

    /// Float field accessor (integers widen).
    pub fn f64_field(&self, key: &str) -> Option<f64> {
        self.get(key).and_then(JsonValue::as_f64)
    }

    /// Serialises to a single-line JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(64);
        out.push('{');
        for (i, (k, v)) in self.fields.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_json_string(&mut out, k);
            out.push(':');
            match v {
                JsonValue::Str(s) => write_json_string(&mut out, s),
                JsonValue::U64(n) => out.push_str(&n.to_string()),
                JsonValue::F64(f) => {
                    // JSON has no NaN/Inf; the store never produces them,
                    // but degrade to 0 rather than emit invalid JSON.
                    if f.is_finite() {
                        out.push_str(&format!("{f:?}"))
                    } else {
                        out.push('0')
                    }
                }
                JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            }
        }
        out.push('}');
        out
    }

    /// Parses a flat JSON object; rejects nesting, nulls and trailing input.
    pub fn parse(text: &str) -> Result<JsonObject, JsonError> {
        let mut p = Parser { bytes: text.as_bytes(), pos: 0, flatten: false, depth: 0 };
        let obj = p.object()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(JsonError::Trailing);
        }
        Ok(obj)
    }

    /// Like [`JsonObject::parse`], but nested objects are accepted and
    /// flattened into dotted keys: `{"a":{"b":1}}` parses as `{"a.b":1}`.
    /// Exists for externally-shaped JSONL (e.g. the bench trajectory
    /// file), whose lines nest sub-records the query layer wants to
    /// address as `section.metric`. Arrays and nulls are still rejected,
    /// and store-written records never nest, so `parse` stays strict.
    pub fn parse_flatten(text: &str) -> Result<JsonObject, JsonError> {
        let mut p = Parser { bytes: text.as_bytes(), pos: 0, flatten: true, depth: 0 };
        let obj = p.object()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(JsonError::Trailing);
        }
        Ok(obj)
    }
}

/// Errors produced while parsing a store JSON line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JsonError {
    /// Input ended unexpectedly.
    Eof,
    /// A structural character was missing or misplaced.
    Syntax(usize),
    /// A value kind outside the supported scalar subset (null, arrays,
    /// nested objects).
    Unsupported(usize),
    /// Input continued past the closing brace.
    Trailing,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JsonError::Eof => write!(f, "unexpected end of JSON input"),
            JsonError::Syntax(at) => write!(f, "JSON syntax error at byte {at}"),
            JsonError::Unsupported(at) => write!(f, "unsupported JSON value at byte {at}"),
            JsonError::Trailing => write!(f, "trailing data after JSON object"),
        }
    }
}

impl std::error::Error for JsonError {}

fn write_json_string(out: &mut String, s: &str) {
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
    /// Accept nested objects, flattening their keys with `.` separators.
    flatten: bool,
    /// Current object nesting depth (flatten mode only; bounded to keep
    /// recursion on adversarial input shallow).
    depth: u32,
}

/// Nesting bound for [`JsonObject::parse_flatten`].
const MAX_FLATTEN_DEPTH: u32 = 8;

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        self.skip_ws();
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else if self.pos >= self.bytes.len() {
            Err(JsonError::Eof)
        } else {
            Err(JsonError::Syntax(self.pos))
        }
    }

    fn object(&mut self) -> Result<JsonObject, JsonError> {
        self.expect(b'{')?;
        let mut obj = JsonObject::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(obj);
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.expect(b':')?;
            self.skip_ws();
            if self.flatten && self.peek() == Some(b'{') {
                if self.depth >= MAX_FLATTEN_DEPTH {
                    return Err(JsonError::Unsupported(self.pos));
                }
                self.depth += 1;
                let nested = self.object()?;
                self.depth -= 1;
                for (k, v) in nested.fields {
                    obj.fields.insert(format!("{key}.{k}"), v);
                }
            } else {
                let value = self.value()?;
                obj.fields.insert(key, value);
            }
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(obj);
                }
                Some(_) => return Err(JsonError::Syntax(self.pos)),
                None => return Err(JsonError::Eof),
            }
        }
    }

    fn value(&mut self) -> Result<JsonValue, JsonError> {
        match self.peek() {
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b't') => self.keyword("true", JsonValue::Bool(true)),
            Some(b'f') => self.keyword("false", JsonValue::Bool(false)),
            Some(b'0'..=b'9') | Some(b'-') => self.number(),
            Some(_) => Err(JsonError::Unsupported(self.pos)),
            None => Err(JsonError::Eof),
        }
    }

    fn keyword(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(JsonError::Syntax(self.pos))
        }
    }

    fn number(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.pos;
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' | b'-' | b'+' => self.pos += 1,
                b'.' | b'e' | b'E' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| JsonError::Syntax(start))?;
        if is_float || text.starts_with('-') {
            text.parse::<f64>().map(JsonValue::F64).map_err(|_| JsonError::Syntax(start))
        } else {
            text.parse::<u64>().map(JsonValue::U64).map_err(|_| JsonError::Syntax(start))
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek().ok_or(JsonError::Eof)? {
                b'"' => {
                    self.pos += 1;
                    return Ok(out);
                }
                b'\\' => {
                    self.pos += 1;
                    let esc = self.peek().ok_or(JsonError::Eof)?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let end = self.pos.checked_add(4).ok_or(JsonError::Eof)?;
                            let hex = self
                                .bytes
                                .get(self.pos..end)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or(JsonError::Eof)?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| JsonError::Syntax(self.pos))?;
                            // Surrogate pairs never occur in store output
                            // (only control characters are \u-escaped).
                            out.push(char::from_u32(code).ok_or(JsonError::Syntax(self.pos))?);
                            self.pos = end;
                        }
                        _ => return Err(JsonError::Syntax(self.pos - 1)),
                    }
                }
                _ => {
                    // Consume one UTF-8 scalar (multi-byte safe).
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| JsonError::Syntax(self.pos))?;
                    let c = rest.chars().next().ok_or(JsonError::Eof)?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_every_scalar_kind() {
        let mut obj = JsonObject::new();
        obj.set_str("name", "db.scanidx#s1")
            .set_u64("count", 870)
            .set_f64("efficiency", 0.4375)
            .set_bool("ok", true);
        let text = obj.to_json();
        let back = JsonObject::parse(&text).unwrap();
        assert_eq!(back, obj);
        assert_eq!(back.str_field("name"), Some("db.scanidx#s1"));
        assert_eq!(back.u64_field("count"), Some(870));
        assert_eq!(back.f64_field("efficiency"), Some(0.4375));
        assert_eq!(back.get("ok").unwrap().as_bool(), Some(true));
    }

    #[test]
    fn escapes_roundtrip() {
        let mut obj = JsonObject::new();
        obj.set_str("s", "a\"b\\c\nd\te\u{1}é");
        let back = JsonObject::parse(&obj.to_json()).unwrap();
        assert_eq!(back.str_field("s"), Some("a\"b\\c\nd\te\u{1}é"));
    }

    #[test]
    fn deterministic_key_order() {
        let mut a = JsonObject::new();
        a.set_u64("b", 2).set_u64("a", 1);
        assert_eq!(a.to_json(), "{\"a\":1,\"b\":2}");
    }

    #[test]
    fn rejects_nesting_null_and_trailing() {
        assert!(JsonObject::parse("{\"a\":[1]}").is_err());
        assert!(JsonObject::parse("{\"a\":{\"b\":1}}").is_err());
        assert!(JsonObject::parse("{\"a\":null}").is_err());
        assert!(JsonObject::parse("{\"a\":1} extra").is_err());
        assert!(JsonObject::parse("{\"a\"").is_err());
        assert!(JsonObject::parse("").is_err());
    }

    #[test]
    fn parse_flatten_dots_nested_keys() {
        let obj = JsonObject::parse_flatten(
            "{\"bench\":\"suite_runner\",\"sched_packed_8t\":{\"median_secs\":0.31,\"peak_trace_bytes\":1905528},\"speedup_8t\":0.866}",
        )
        .unwrap();
        assert_eq!(obj.str_field("bench"), Some("suite_runner"));
        assert_eq!(obj.f64_field("sched_packed_8t.median_secs"), Some(0.31));
        assert_eq!(obj.u64_field("sched_packed_8t.peak_trace_bytes"), Some(1905528));
        assert_eq!(obj.f64_field("speedup_8t"), Some(0.866));
        // Strict parse still rejects the same line, and flatten still
        // rejects arrays, nulls and over-deep nesting.
        assert!(JsonObject::parse("{\"a\":{\"b\":1}}").is_err());
        assert!(JsonObject::parse_flatten("{\"a\":[1]}").is_err());
        assert!(JsonObject::parse_flatten("{\"a\":null}").is_err());
        let mut deep = String::new();
        for _ in 0..12 {
            deep.push_str("{\"k\":");
        }
        deep.push('1');
        deep.push_str(&"}".repeat(12));
        assert!(JsonObject::parse_flatten(&deep).is_err());
    }

    #[test]
    fn parses_whitespace_and_empty() {
        assert_eq!(JsonObject::parse("{ }").unwrap(), JsonObject::new());
        let obj = JsonObject::parse(" { \"k\" : 1 , \"j\" : true } ").unwrap();
        assert_eq!(obj.u64_field("k"), Some(1));
    }

    #[test]
    fn negative_and_float_numbers_parse_as_f64() {
        let obj = JsonObject::parse("{\"a\":-2.5,\"b\":1e3,\"c\":-4}").unwrap();
        assert_eq!(obj.f64_field("a"), Some(-2.5));
        assert_eq!(obj.f64_field("b"), Some(1000.0));
        assert_eq!(obj.f64_field("c"), Some(-4.0));
        assert_eq!(obj.u64_field("c"), None);
    }
}
