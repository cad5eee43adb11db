//! Hand-rolled JSON: escape/format helpers for the exporters and a small
//! recursive-descent parser for the `report` tooling and tests.
//!
//! The workspace builds hermetically offline, so there is no `serde`;
//! every exporter writes strings through these helpers and every consumer
//! reads them back through [`Json::parse`].

/// Escape `s` into a JSON string literal (with surrounding quotes).
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

/// Format an `f64` as a JSON number. JSON has no NaN/Inf, so those map to
/// `0` (they only arise from degenerate zero-length runs).
pub fn num(v: f64) -> String {
    if v.is_finite() {
        // Shortest round-trip formatting Rust gives us.
        let s = format!("{v}");
        // `{}` on f64 never produces exponents for sane magnitudes and
        // always includes a digit; valid JSON as-is.
        s
    } else {
        "0".to_string()
    }
}

/// A parsed JSON value. Object fields keep insertion order.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (parsed as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parse a complete JSON document (trailing whitespace allowed,
    /// trailing garbage rejected).
    pub fn parse(src: &str) -> Result<Json, String> {
        let bytes = src.as_bytes();
        let mut p = Parser { bytes, pos: 0 };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != bytes.len() {
            return Err(format!("trailing garbage at byte {}", p.pos));
        }
        Ok(v)
    }

    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a float, if numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if numeric.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(v) if *v >= 0.0 => Some(*v as u64),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// `get(key)` then `as_f64`, defaulting to 0.0 — the common case when
    /// reading report dumps whose older versions may lack a field.
    pub fn f64_or_0(&self, key: &str) -> f64 {
        self.get(key).and_then(Json::as_f64).unwrap_or(0.0)
    }

    /// `get(key)` then `as_u64`, defaulting to 0.
    pub fn u64_or_0(&self, key: &str) -> u64 {
        self.get(key).and_then(Json::as_u64).unwrap_or(0)
    }
}

/// Incremental pretty-printed JSON builder: the write-side complement of
/// [`Json::parse`]. Exporters that assemble nested documents (the bench
/// `BENCH_*.json` reports, future structured dumps) push keyed fields and
/// containers instead of hand-concatenating braces; indentation and comma
/// placement are handled here so the output is stable and diff-friendly.
///
/// ```
/// use phigraph_trace::json::{Json, JsonBuf};
/// let mut b = JsonBuf::obj();
/// b.str("name", "csb");
/// b.num("mean_ns", 12.5);
/// b.begin_arr("entries");
/// b.elem_num(1.0);
/// b.elem_num(2.0);
/// b.end();
/// let text = b.finish();
/// assert!(Json::parse(&text).is_ok());
/// ```
pub struct JsonBuf {
    out: String,
    /// Open containers: closing byte + "has at least one item" flag.
    stack: Vec<(u8, bool)>,
}

impl JsonBuf {
    /// Start a document whose root is an object.
    pub fn obj() -> Self {
        JsonBuf {
            out: String::from("{"),
            stack: vec![(b'}', false)],
        }
    }

    /// Newline + indent + comma bookkeeping before the next item.
    fn item(&mut self) {
        if let Some(top) = self.stack.last_mut() {
            if top.1 {
                self.out.push(',');
            }
            top.1 = true;
        }
        self.out.push('\n');
        for _ in 0..self.stack.len() {
            self.out.push_str("  ");
        }
    }

    fn keyed(&mut self, key: &str) {
        self.item();
        self.out.push_str(&quote(key));
        self.out.push_str(": ");
    }

    /// `"key": "value"`.
    pub fn str(&mut self, key: &str, v: &str) {
        self.keyed(key);
        self.out.push_str(&quote(v));
    }

    /// `"key": <number>` (NaN/Inf map to 0, as in [`num`]).
    pub fn num(&mut self, key: &str, v: f64) {
        self.keyed(key);
        self.out.push_str(&num(v));
    }

    /// `"key": <integer>`.
    pub fn int(&mut self, key: &str, v: u64) {
        self.keyed(key);
        self.out.push_str(&v.to_string());
    }

    /// `"key": true|false`.
    pub fn bool(&mut self, key: &str, v: bool) {
        self.keyed(key);
        self.out.push_str(if v { "true" } else { "false" });
    }

    /// Open `"key": {`; close with [`JsonBuf::end`].
    pub fn begin_obj(&mut self, key: &str) {
        self.keyed(key);
        self.out.push('{');
        self.stack.push((b'}', false));
    }

    /// Open `"key": [`; close with [`JsonBuf::end`].
    pub fn begin_arr(&mut self, key: &str) {
        self.keyed(key);
        self.out.push('[');
        self.stack.push((b']', false));
    }

    /// Open an object as the next *array element*.
    pub fn elem_obj(&mut self) {
        self.item();
        self.out.push('{');
        self.stack.push((b'}', false));
    }

    /// Push a number as the next *array element*.
    pub fn elem_num(&mut self, v: f64) {
        self.item();
        self.out.push_str(&num(v));
    }

    /// Push a string as the next *array element*.
    pub fn elem_str(&mut self, v: &str) {
        self.item();
        self.out.push_str(&quote(v));
    }

    /// Close the innermost open container (the root closes in `finish`).
    pub fn end(&mut self) {
        debug_assert!(self.stack.len() > 1, "end() would close the root");
        if self.stack.len() > 1 {
            let (closer, had_items) = self.stack.pop().expect("non-empty stack");
            if had_items {
                self.out.push('\n');
                for _ in 0..self.stack.len() {
                    self.out.push_str("  ");
                }
            }
            self.out.push(closer as char);
        }
    }

    /// Close every open container and return the document (trailing
    /// newline included, so files end POSIX-clean).
    pub fn finish(mut self) -> String {
        while self.stack.len() > 1 {
            self.end();
        }
        let (closer, had_items) = self.stack.pop().expect("root container");
        if had_items {
            self.out.push('\n');
        }
        self.out.push(closer as char);
        self.out.push('\n');
        self.out
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            match b {
                b' ' | b'\t' | b'\n' | b'\r' => self.pos += 1,
                _ => break,
            }
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
            Err(format!(
                "expected {:?} at byte {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|c| c as char)
            ))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            other => Err(format!(
                "unexpected {:?} at byte {}",
                other.map(|c| c as char),
                self.pos
            )),
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while let Some(c) = self.peek() {
            if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("bad number {text:?} at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_string()),
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
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            if self.pos + 4 >= self.bytes.len() {
                                return Err("truncated \\u escape".to_string());
                            }
                            let hex = std::str::from_utf8(&self.bytes[self.pos + 1..self.pos + 5])
                                .map_err(|_| "bad \\u escape".to_string())?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| format!("bad \\u escape {hex:?}"))?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        other => return Err(format!("bad escape {:?}", other.map(|c| c as char))),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (multi-byte aware).
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| "invalid utf-8 in string".to_string())?;
                    let c = rest.chars().next().unwrap();
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                other => {
                    return Err(format!(
                        "expected ',' or ']' at byte {}, found {:?}",
                        self.pos,
                        other.map(|c| c as char)
                    ))
                }
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                other => {
                    return Err(format!(
                        "expected ',' or '}}' at byte {}, found {:?}",
                        self.pos,
                        other.map(|c| c as char)
                    ))
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quoting_escapes() {
        assert_eq!(quote("a\"b\\c\nd"), r#""a\"b\\c\nd""#);
        assert_eq!(quote("tab\tcr\r"), "\"tab\\tcr\\r\"");
        assert_eq!(quote("\u{1}"), "\"\\u0001\"");
        assert_eq!(quote("héllo"), "\"héllo\"");
    }

    #[test]
    fn numbers_are_json_safe() {
        assert_eq!(num(1.5), "1.5");
        assert_eq!(num(0.0), "0");
        assert_eq!(num(f64::NAN), "0");
        assert_eq!(num(f64::INFINITY), "0");
        // Round trip.
        for v in [0.1, 123456.789, 1e-9, -2.5] {
            let j = Json::parse(&num(v)).unwrap();
            assert!((j.as_f64().unwrap() - v).abs() < 1e-12);
        }
    }

    #[test]
    fn parse_scalars() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("false").unwrap(), Json::Bool(false));
        assert_eq!(Json::parse("-12.5e2").unwrap(), Json::Num(-1250.0));
        assert_eq!(
            Json::parse(r#""a\nbA""#).unwrap(),
            Json::Str("a\nbA".to_string())
        );
    }

    #[test]
    fn parse_nested_and_accessors() {
        let j = Json::parse(r#"{"a": [1, 2, {"b": "x"}], "c": {"d": 4.5}, "e": null}"#).unwrap();
        assert_eq!(j.get("c").unwrap().f64_or_0("d"), 4.5);
        assert_eq!(j.f64_or_0("missing"), 0.0);
        assert_eq!(j.u64_or_0("missing"), 0);
        let arr = j.get("a").unwrap().as_arr().unwrap();
        assert_eq!(arr.len(), 3);
        assert_eq!(arr[2].get("b").unwrap().as_str(), Some("x"));
        assert_eq!(j.get("e"), Some(&Json::Null));
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Json::parse("").is_err());
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("{\"a\" 1}").is_err());
        assert!(Json::parse("1 2").is_err());
        assert!(Json::parse("\"unterminated").is_err());
        assert!(Json::parse("nul").is_err());
    }

    #[test]
    fn jsonbuf_builds_parseable_nested_documents() {
        let mut b = JsonBuf::obj();
        b.str("schema", "v1");
        b.int("count", 3);
        b.bool("smoke", true);
        b.begin_obj("env");
        b.str("os", "linux");
        b.num("load", 0.5);
        b.end();
        b.begin_arr("entries");
        b.elem_obj();
        b.str("label", "a/b");
        b.num("mean_ns", 1250.0);
        b.end();
        b.elem_num(7.0);
        b.elem_str("tail");
        b.end();
        let text = b.finish();
        let j = Json::parse(&text).expect("builder output parses");
        assert_eq!(j.get("schema").unwrap().as_str(), Some("v1"));
        assert_eq!(j.u64_or_0("count"), 3);
        assert_eq!(j.get("smoke").unwrap().as_bool(), Some(true));
        assert_eq!(j.get("env").unwrap().f64_or_0("load"), 0.5);
        let entries = j.get("entries").unwrap().as_arr().unwrap();
        assert_eq!(entries.len(), 3);
        assert_eq!(entries[0].f64_or_0("mean_ns"), 1250.0);
        assert_eq!(entries[2].as_str(), Some("tail"));
        assert!(text.ends_with("}\n"));
    }

    #[test]
    fn jsonbuf_empty_and_unclosed_containers() {
        // Empty root object.
        assert_eq!(JsonBuf::obj().finish(), "{}\n");
        // finish() auto-closes whatever is still open.
        let mut b = JsonBuf::obj();
        b.begin_arr("xs");
        b.elem_num(1.0);
        let j = Json::parse(&b.finish()).unwrap();
        assert_eq!(j.get("xs").unwrap().as_arr().unwrap().len(), 1);
        // Empty nested containers render inline.
        let mut b = JsonBuf::obj();
        b.begin_obj("o");
        b.end();
        b.begin_arr("a");
        b.end();
        let text = b.finish();
        let j = Json::parse(&text).unwrap();
        assert_eq!(j.get("o"), Some(&Json::Obj(vec![])));
        assert_eq!(j.get("a"), Some(&Json::Arr(vec![])));
    }

    #[test]
    fn quote_parse_round_trip() {
        for s in [
            "",
            "plain",
            "with \"quotes\" and \\slashes\\",
            "newline\nhere",
            "unicode ✓",
        ] {
            let parsed = Json::parse(&quote(s)).unwrap();
            assert_eq!(parsed.as_str(), Some(s));
        }
    }
}
