//! The workspace's one JSON codec: a strict recursive-descent parser
//! plus the two writer primitives every hand-formatted JSON document in
//! the workspace goes through.
//!
//! The workspace has no registry access, so serde is unavailable. The
//! parser reads run journals, timing sidecars, `BENCH_*.json` trajectory
//! logs, `tta-cost` reports and Chrome traces. It accepts standard JSON
//! (RFC 8259) minus exotic corner cases we never emit: `\u` escapes
//! outside the BMP are replaced, and numbers are read as `f64`.
//!
//! Writers keep their own field order and layout (that is what makes
//! journals byte-stable) and format every string through [`quote`] and
//! every unformatted float through [`num`]. [`object`] writes any
//! declared struct ([`crate::fields`]) that way, in declaration order.

use crate::fields::{Declared, Writer};

/// A JSON string literal, surrounding quotes included: `"`, `\`, `\n`,
/// `\r` and `\t` get their short escapes, other control characters a
/// lowercase `\u00xx`, everything else passes through.
#[must_use]
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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
    out
}

/// A JSON number: finite floats via Rust's shortest-roundtrip `Display`,
/// non-finite ones as `null` (JSON has no spelling for them).
#[must_use]
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

/// A declared struct as one compact JSON object, keys in declaration
/// order: integers verbatim, floats through [`num`], strings through
/// [`quote`], nested records as objects and lists as arrays.
#[must_use]
pub fn object<T: Declared>(v: &T) -> String {
    let mut w = ObjectWriter(String::from("{"));
    v.visit(&mut w);
    w.0 + "}"
}

struct ObjectWriter(String);

impl ObjectWriter {
    fn put(&mut self, name: &str, value: &str) {
        if self.0.len() > 1 {
            self.0.push(',');
        }
        self.0 += &format!("{}:{value}", quote(name));
    }
}

impl Writer for ObjectWriter {
    fn u64(&mut self, name: &str, v: u64) {
        self.put(name, &v.to_string());
    }
    fn f64(&mut self, name: &str, v: f64) {
        self.put(name, &num(v));
    }
    fn str(&mut self, name: &str, v: &str) {
        self.put(name, &quote(v));
    }
    fn u64s(&mut self, name: &str, v: &[u64]) {
        let items: Vec<String> = v.iter().map(u64::to_string).collect();
        self.put(name, &format!("[{}]", items.join(",")));
    }
    fn record<T: Declared>(&mut self, name: &str, v: &T) {
        self.put(name, &object(v));
    }
    fn records<T: Declared>(&mut self, name: &str, v: &[T]) {
        let items: Vec<String> = v.iter().map(object).collect();
        self.put(name, &format!("[{}]", items.join(",")));
    }
    fn derived(&mut self, name: &str, v: u64) {
        self.u64(name, v);
    }
}

/// A parsed JSON value. Object keys keep their source order.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (as `f64`).
    Num(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, in source key order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Looks up a key in an object; `None` for other variants.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if any.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if any.
    #[must_use]
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The array payload, if any.
    #[must_use]
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The object payload, if any.
    #[must_use]
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Obj(pairs) => Some(pairs),
            _ => None,
        }
    }
}

/// Parses a complete JSON document.
///
/// # Errors
///
/// Returns a message with a byte offset on malformed input or trailing
/// garbage.
pub fn parse(text: &str) -> Result<Value, String> {
    let bytes = text.as_bytes();
    let mut p = Parser { bytes, pos: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != bytes.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.bump() == Some(b) {
            Ok(())
        } else {
            Err(format!(
                "expected `{}` at byte {}",
                b as char,
                self.pos.saturating_sub(1)
            ))
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let v = self.value()?;
            pairs.push((key, v));
            self.skip_ws();
            match self.bump() {
                Some(b',') => {}
                Some(b'}') => return Ok(Value::Obj(pairs)),
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.bump() {
                Some(b',') => {}
                Some(b']') => return Ok(Value::Arr(items)),
                _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            match self.bump() {
                None => return Err("unterminated string".into()),
                Some(b'"') => return Ok(s),
                Some(b'\\') => match self.bump() {
                    Some(b'"') => s.push('"'),
                    Some(b'\\') => s.push('\\'),
                    Some(b'/') => s.push('/'),
                    Some(b'b') => s.push('\u{8}'),
                    Some(b'f') => s.push('\u{c}'),
                    Some(b'n') => s.push('\n'),
                    Some(b'r') => s.push('\r'),
                    Some(b't') => s.push('\t'),
                    Some(b'u') => {
                        let mut code = 0u32;
                        for _ in 0..4 {
                            let d = self.bump().ok_or("truncated \\u escape")?;
                            code = code * 16
                                + u32::from((d as char).to_digit(16).ok_or("bad \\u digit")? as u8);
                        }
                        s.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    }
                    _ => return Err(format!("bad escape at byte {}", self.pos)),
                },
                Some(b) if b < 0x20 => {
                    return Err(format!("raw control char in string at byte {}", self.pos))
                }
                Some(b) => {
                    // Re-assemble UTF-8 multibyte sequences byte-wise.
                    let start = self.pos - 1;
                    let len = match b {
                        0x00..=0x7f => 1,
                        0xc0..=0xdf => 2,
                        0xe0..=0xef => 3,
                        _ => 4,
                    };
                    self.pos = start + len;
                    let chunk = self
                        .bytes
                        .get(start..start + len)
                        .ok_or("truncated UTF-8 sequence")?;
                    s.push_str(std::str::from_utf8(chunk).map_err(|_| "invalid UTF-8 in string")?);
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, String> {
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
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap_or("");
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| format!("bad number at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_shapes_we_emit() {
        let v = parse(r#"{"a":[1,2.5,-3,-2.5e1],"b":{"c":"x\n\"y\""},"d":null,"e":true}"#).unwrap();
        let a = v.get("a").unwrap().as_array().unwrap();
        assert_eq!(a.len(), 4);
        assert!((a[1].as_num().unwrap() - 2.5).abs() < 1e-12);
        assert_eq!(a[3].as_num(), Some(-25.0));
        assert_eq!(
            v.get("b").unwrap().get("c").unwrap().as_str(),
            Some("x\n\"y\"")
        );
        assert_eq!(v.get("d"), Some(&Value::Null));
        assert_eq!(v.get("e"), Some(&Value::Bool(true)));
    }

    #[test]
    fn quote_escapes_exactly_the_mandatory_set() {
        assert_eq!(quote("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(quote("\r\t"), "\"\\r\\t\"");
        assert_eq!(quote("\u{1}"), "\"\\u0001\"");
        assert_eq!(quote("\u{1f}/\u{7f}"), "\"\\u001f/\u{7f}\"");
    }

    #[test]
    fn quote_round_trips_through_parse() {
        let ascii = (0u8..=0x7f).map(char::from);
        for c in ascii.chain("\u{e9}\u{3bb}\u{4e2d}\u{1f600}".chars()) {
            let s = format!("a{c}b");
            assert_eq!(parse(&quote(&s)), Ok(Value::Str(s.clone())), "{c:?}");
        }
        let text = "caf\u{e9} \u{3bb}-calculus \u{4e2d}\u{6587} \u{1f600}";
        assert_eq!(parse(&quote(text)), Ok(Value::Str(text.to_owned())));
    }

    #[test]
    fn num_writes_shortest_round_trip_or_null() {
        assert_eq!(num(0.25), "0.25");
        assert_eq!(num(3.0), "3");
        assert_eq!(num(f64::NAN), "null");
        assert_eq!(num(f64::INFINITY), "null");
        assert_eq!(num(f64::NEG_INFINITY), "null");
    }

    #[test]
    fn rejects_malformed_documents() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"a\":1} x").is_err());
        assert!(parse("\"unterminated").is_err());
        assert!(parse("nul").is_err());
    }

    #[test]
    fn handles_unicode_and_escapes() {
        let v = parse("\"caf\u{e9} \\u00e9\"").unwrap();
        assert_eq!(v.as_str(), Some("caf\u{e9} \u{e9}"));
    }
}
