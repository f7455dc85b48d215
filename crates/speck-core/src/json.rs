//! The crate's one JSON writer and parser, shared by every export:
//! metrics snapshots ([`crate::metrics`]), Chrome traces
//! ([`crate::trace`]) and decision audits ([`crate::audit`]).
//!
//! Dependency-free. The writer emits deterministic text, so exports are
//! byte-stable across runs. The parser keeps every number token's exact
//! text, so a `u64` counter above 2^53 reads back exactly through
//! [`JsonValue::as_u64`] while [`JsonValue::as_f64`] recovers any `f64`
//! written with shortest-roundtrip `Display`.
//!
//! Every parse-back path reads fields through the typed accessors
//! [`JsonValue::req`] and [`JsonValue::opt`] (and [`JsonValue::typed`]
//! for array items and object values), so a malformed document fails
//! with an error naming the missing or mistyped key.

use std::fmt::Write as _;

/// Writes `s` as a JSON string literal (quotes and escapes included).
pub fn push_json_string(out: &mut String, s: &str) {
    out.push('"');
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
    out.push('"');
}

/// Writes an f64 as a JSON number: integral values below 9e15 as
/// integers, the rest via shortest-roundtrip `Display` — deterministic,
/// and re-parsing recovers the exact value.
pub fn push_num(out: &mut String, v: f64) {
    if v == v.trunc() && v.abs() < 9.0e15 {
        let _ = write!(out, "{}", v as i64);
    } else {
        let _ = write!(out, "{v}");
    }
}

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum JsonValue {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A number, as its exact source text.
    Num(String),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object, in source order.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Looks a key up in an object.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        self.as_obj()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    /// The value as f64, if numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(t) => t.parse().ok(),
            _ => None,
        }
    }

    /// The value as u64, if a non-negative integer — read from the token
    /// text, so every u64 is exact.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Num(t) => t.parse::<u64>().ok().or_else(|| {
                let v = self.as_f64()?;
                (v >= 0.0 && v == v.trunc()).then_some(v as u64)
            }),
            _ => None,
        }
    }

    /// The value as usize, if a non-negative integer that fits.
    pub fn as_usize(&self) -> Option<usize> {
        self.as_u64().and_then(|v| v.try_into().ok())
    }

    /// The value as u32, if a non-negative integer that fits.
    pub fn as_u32(&self) -> Option<u32> {
        self.as_u64().and_then(|v| v.try_into().ok())
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The value's fields, if an object.
    pub fn as_obj(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Obj(fields) => Some(fields),
            _ => None,
        }
    }

    /// The value read through `as_t` (one of the `as_*` readers, or a
    /// closure over one), or an error naming it `what` when it has
    /// another type.
    pub fn typed<'a, T>(
        &'a self,
        what: &str,
        as_t: impl FnOnce(&'a JsonValue) -> Option<T>,
    ) -> Result<T, String> {
        as_t(self).ok_or_else(|| format!("json: {what:?} has the wrong type"))
    }

    /// Required field `key` read through `as_t`: an error names the key
    /// when it is missing or has another type.
    pub fn req<'a, T>(
        &'a self,
        key: &str,
        as_t: impl FnOnce(&'a JsonValue) -> Option<T>,
    ) -> Result<T, String> {
        let v = self
            .get(key)
            .ok_or_else(|| format!("json: missing key {key:?}"))?;
        v.typed(key, as_t)
    }

    /// Optional field `key` read through `as_t`: `None` when it is
    /// missing or `null`, an error naming the key when it has another
    /// type.
    pub fn opt<'a, T>(
        &'a self,
        key: &str,
        as_t: impl FnOnce(&'a JsonValue) -> Option<T>,
    ) -> Result<Option<T>, String> {
        match self.get(key) {
            None | Some(JsonValue::Null) => Ok(None),
            Some(v) => v.typed(key, as_t).map(Some),
        }
    }
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn err<T>(&self, what: &str) -> Result<T, String> {
        Err(format!("json: {what} at byte {}", self.pos))
    }

    fn peek(&mut self) -> Option<u8> {
        let b = self.text.as_bytes();
        while b.get(self.pos).is_some_and(u8::is_ascii_whitespace) {
            self.pos += 1;
        }
        b.get(self.pos).copied()
    }

    fn expect(&mut self, ch: u8) -> Result<(), String> {
        if self.peek() == Some(ch) {
            self.pos += 1;
            Ok(())
        } else {
            self.err(&format!("expected '{}'", ch as char))
        }
    }

    /// Parses `open item (, item)* close`, calling `item` per element.
    fn parse_seq(
        &mut self,
        open: u8,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        self.expect(open)?;
        if self.peek() == Some(close) {
            self.pos += 1;
            return Ok(());
        }
        loop {
            item(self)?;
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(c) if c == close => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return self.err(&format!("expected ',' or '{}'", close as char)),
            }
        }
    }

    fn parse_string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            let Some(c) = self.text[self.pos..].chars().next() else {
                return self.err("unterminated string");
            };
            self.pos += c.len_utf8();
            match c {
                '"' => return Ok(s),
                '\\' => {
                    let Some(&e) = self.text.as_bytes().get(self.pos) else {
                        return self.err("dangling escape");
                    };
                    self.pos += 1;
                    match e {
                        b'"' => s.push('"'),
                        b'\\' => s.push('\\'),
                        b'/' => s.push('/'),
                        b'n' => s.push('\n'),
                        b't' => s.push('\t'),
                        b'r' => s.push('\r'),
                        b'u' => {
                            let hex = self
                                .text
                                .get(self.pos..self.pos + 4)
                                .ok_or("truncated \\u escape")?;
                            self.pos += 4;
                            let code = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                            s.push(char::from_u32(code).ok_or("bad \\u escape")?);
                        }
                        _ => return self.err("unknown escape"),
                    }
                }
                c => s.push(c),
            }
        }
    }

    fn parse_literal(&mut self, word: &str, v: JsonValue) -> Result<JsonValue, String> {
        if self.text[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(v)
        } else {
            self.err("bad literal")
        }
    }

    fn parse_value(&mut self) -> Result<JsonValue, String> {
        match self.peek() {
            Some(b'"') => Ok(JsonValue::Str(self.parse_string()?)),
            Some(b'{') => {
                let mut fields = Vec::new();
                self.parse_seq(b'{', b'}', |p| {
                    let key = p.parse_string()?;
                    p.expect(b':')?;
                    fields.push((key, p.parse_value()?));
                    Ok(())
                })?;
                Ok(JsonValue::Obj(fields))
            }
            Some(b'[') => {
                let mut items = Vec::new();
                self.parse_seq(b'[', b']', |p| {
                    items.push(p.parse_value()?);
                    Ok(())
                })?;
                Ok(JsonValue::Arr(items))
            }
            Some(b't') => self.parse_literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.parse_literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.parse_literal("null", JsonValue::Null),
            Some(c) if c.is_ascii_digit() || c == b'-' || c == b'+' => {
                let start = self.pos;
                let len = self.text[start..]
                    .find(|c: char| !(c.is_ascii_digit() || "-+.eE".contains(c)))
                    .unwrap_or(self.text.len() - start);
                self.pos += len;
                let t = &self.text[start..self.pos];
                t.parse::<f64>()
                    .map_err(|e| format!("json: bad number '{t}' at byte {start}: {e}"))?;
                Ok(JsonValue::Num(t.to_string()))
            }
            _ => self.err("expected a value"),
        }
    }
}

/// Parses one JSON document (any value shape).
pub fn parse_json_value(text: &str) -> Result<JsonValue, String> {
    let mut p = Parser { text, pos: 0 };
    let v = p.parse_value()?;
    if p.peek().is_some() {
        return p.err("trailing data");
    }
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parser_rejects_garbage() {
        assert!(parse_json_value("{").is_err());
        assert!(parse_json_value("[1, 2,]").is_err());
        assert!(parse_json_value("{\"a\": }").is_err());
        assert!(parse_json_value("12 34").is_err());
        assert!(parse_json_value("-").is_err());
        assert!(parse_json_value("tru").is_err());
    }

    #[test]
    fn parser_accepts_standard_json_shapes() {
        let v = parse_json_value(
            "{\"a\": [1, -2.5, 3e2], \"b\": {\"c\": null, \"d\": true}, \"e\": \"x\\ny\"}",
        )
        .unwrap();
        let a = v.get("a").unwrap().as_arr().unwrap();
        assert_eq!(a[2].as_f64(), Some(300.0));
        assert_eq!(a[2].as_u64(), Some(300));
        assert_eq!(a[1].as_u64(), None);
        assert_eq!(v.get("b").unwrap().get("c"), Some(&JsonValue::Null));
        assert_eq!(v.get("e").unwrap().as_str(), Some("x\ny"));
    }

    #[test]
    fn numbers_keep_their_exact_text() {
        let big = u64::MAX - 1;
        let v = parse_json_value(&format!("[{big}, 0.1]")).unwrap();
        let items = v.as_arr().unwrap();
        assert_eq!(items[0].as_u64(), Some(big));
        assert_eq!(items[0].as_u32(), None);
        assert_eq!(items[1].as_f64(), Some(0.1));
    }

    #[test]
    fn writer_roundtrips_through_parser() {
        let mut out = String::from("[");
        push_json_string(&mut out, "q\"b\\s\n\u{1}é");
        out.push_str(", ");
        push_num(&mut out, 4.0);
        out.push_str(", ");
        push_num(&mut out, 0.1 + 0.2);
        out.push(']');
        let v = parse_json_value(&out).unwrap();
        let items = v.as_arr().unwrap();
        assert_eq!(items[0].as_str(), Some("q\"b\\s\n\u{1}é"));
        assert_eq!(items[1], JsonValue::Num("4".into()));
        assert_eq!(items[2].as_f64(), Some(0.1 + 0.2));
    }
}
