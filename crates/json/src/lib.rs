//! # `jim-json` — the JSON substrate of the JIM service layer
//!
//! A small, zero-dependency JSON implementation: a [`Json`] value tree, a
//! recursive-descent [`parse`] and a compact [`Json::render`]. The build
//! container has no crates.io access, so `serde`/`serde_json` cannot be
//! used; `jim-server`'s wire protocol and `jim-core`'s transcript
//! serialization are built on this instead. Objects preserve insertion
//! order (deterministic wire output, friendly diffs in tests).
//!
//! ## Cost
//!
//! [`Json::parse`] takes time linear in the length of its input, whatever
//! the input: it looks at each byte a bounded number of times and never
//! re-validates UTF-8 (a `&str` is valid already). A string literal is
//! copied one run at a time, each run ending at the next quote, backslash
//! or control byte, so a multi-megabyte CSV text inside a wire request
//! costs a few microseconds per kilobyte. Nesting is capped, and malformed
//! input of any shape is a [`JsonError`] with a byte offset, never a panic.
//!
//! ## Integers past 2^53
//!
//! A JSON number is an `f64`, which holds every integer up to 2^53 exactly
//! and no larger one. Tuple ranks and product sizes run to `u64::MAX`, so
//! `u64` has one codec here: [`Json::from`] renders `n ≤ 2^53` as a number
//! and a larger `n` as its decimal string (`"9999000000000000"`), and
//! [`Json::as_u64`] reads back exactly those two forms: an integral number
//! in `0..=2^53`, or a canonical decimal string whose value is past 2^53.
//! Every integer the wire, the journal and transcripts carry goes through
//! this pair, so what one of them writes, all of them read.
//!
//! ## Example
//!
//! ```
//! use jim_json::Json;
//!
//! let v = Json::parse(r#"{"op":"Answer","label":"+","session":3}"#)?;
//! assert_eq!(v.get("op").and_then(Json::as_str), Some("Answer"));
//! assert_eq!(v.get("session").and_then(Json::as_u64), Some(3));
//! let round = Json::parse(&v.render())?;
//! assert_eq!(round, v);
//! # Ok::<(), jim_json::JsonError>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::fmt;

/// The largest integer an `f64` (and so a JSON number) holds exactly:
/// 2^53. [`Json::from`] writes a larger `u64` as a decimal string.
const MAX_EXACT_INT: u64 = 1 << 53;

/// A JSON value. Numbers are kept as `f64` (JSON's own model); use
/// [`Json::as_u64`]/[`Json::as_i64`] for integral reads.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number.
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Json>),
    /// An object; insertion order is preserved.
    Object(Vec<(String, Json)>),
}

/// A parse error with a byte offset into the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the error.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Parse a complete JSON document (trailing whitespace allowed,
    /// trailing garbage rejected).
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after JSON value"));
        }
        Ok(v)
    }

    /// Render compactly (no whitespace), with full string escaping.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Number(n) if !n.is_finite() => out.push_str("null"),
            Json::Number(n) => {
                if n.fract() == 0.0 && n.abs() < 9.0e15 {
                    // Integral numbers render without the ".0" so ids and
                    // counts survive a parse→render round trip textually.
                    let _ = fmt::Write::write_fmt(out, format_args!("{}", *n as i64));
                } else {
                    let _ = fmt::Write::write_fmt(out, format_args!("{n}"));
                }
            }
            Json::String(s) => write_escaped(s, out),
            Json::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Object(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Object field lookup (first match; `None` on non-objects).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// String view.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::String(s) => Some(s),
            _ => None,
        }
    }

    /// Bool view.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Number view.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// Integral number view (rejects fractional and out-of-range values).
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Number(n) if n.fract() == 0.0 && n.abs() <= 9.0e15 => Some(*n as i64),
            _ => None,
        }
    }

    /// The `u64` that [`Json::from`] wrote: an integral number in
    /// `0..=2^53`, or a canonical decimal string (digits only, no leading
    /// zero) whose value is past 2^53. Anything else is `None`, so `"7"`,
    /// `"+9999000000000000"` and a number past 2^53 (which an `f64` may
    /// already have rounded) are refused.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Number(n) if n.fract() == 0.0 && (0.0..=MAX_EXACT_INT as f64).contains(n) => {
                Some(*n as u64)
            }
            Json::String(s) if !s.starts_with('0') && s.bytes().all(|b| b.is_ascii_digit()) => {
                s.parse().ok().filter(|&n| n > MAX_EXACT_INT)
            }
            _ => None,
        }
    }

    /// Array view.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Build an object from `(key, value)` pairs.
    pub fn object(fields: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Object(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::String(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::String(s)
    }
}

impl From<f64> for Json {
    fn from(n: f64) -> Json {
        Json::Number(n)
    }
}

impl From<u64> for Json {
    /// A number up to 2^53, a decimal string past it (see the crate docs).
    fn from(n: u64) -> Json {
        if n <= MAX_EXACT_INT {
            Json::Number(n as f64)
        } else {
            Json::String(n.to_string())
        }
    }
}

impl From<i64> for Json {
    fn from(n: i64) -> Json {
        Json::Number(n as f64)
    }
}

impl From<usize> for Json {
    /// As [`From<u64>`]: a number up to 2^53, a decimal string past it.
    fn from(n: usize) -> Json {
        Json::from(n as u64)
    }
}

impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(items: Vec<T>) -> Json {
        Json::Array(items.into_iter().map(Into::into).collect())
    }
}

fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = fmt::Write::write_fmt(out, format_args!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Maximum container nesting the parser accepts. Recursive descent uses
/// one stack frame per level, so unbounded depth would let one hostile
/// input (e.g. 200k `[`s on a wire line) overflow the stack and abort the
/// process; 128 levels is far beyond any legitimate document here.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, message: impl Into<String>) -> JsonError {
        JsonError {
            offset: self.pos,
            message: message.into(),
        }
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
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

    fn eat(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected `{}`", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected `{word}`")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::String(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(self.err(format!("unexpected character `{}`", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn enter(&mut self) -> Result<(), JsonError> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(self.err(format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        Ok(())
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.eat(b'[')?;
        self.enter()?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Json::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.eat(b'{')?;
        self.enter()?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Json::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Json::Object(fields));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            // Copy everything up to the next quote, backslash or control
            // byte as one slice. All three are ASCII, so the run ends on a
            // character boundary of the (already valid) input, and each
            // byte is looked at once.
            let start = self.pos;
            let run = self.bytes[start..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
                .unwrap_or(self.bytes.len() - start);
            self.pos += run;
            let text = self
                .text
                .get(start..self.pos)
                .ok_or_else(|| self.err("invalid UTF-8"))?;
            out.push_str(text);
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair.
                                if self.peek() != Some(b'\\') {
                                    return Err(self.err("lone high surrogate"));
                                }
                                self.pos += 1;
                                if self.peek() != Some(b'u') {
                                    return Err(self.err("lone high surrogate"));
                                }
                                self.pos += 1;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                let code = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("invalid surrogate pair"))?
                            } else {
                                char::from_u32(hi).ok_or_else(|| self.err("invalid \\u escape"))?
                            };
                            out.push(c);
                        }
                        other => return Err(self.err(format!("bad escape `\\{}`", other as char))),
                    }
                }
                Some(_) => return Err(self.err("unescaped control character in string")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let s = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| self.err("invalid \\u escape"))?;
        let v = u32::from_str_radix(s, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.pos = end;
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
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
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        // The scan above consumed ASCII bytes only, so the slice is on
        // character boundaries; `get` keeps that a checked claim.
        let digits = self
            .text
            .get(start..self.pos)
            .ok_or_else(|| self.err("bad number"))?;
        match digits.parse::<f64>() {
            Ok(n) if n.is_finite() => Ok(Json::Number(n)),
            Ok(_) => Err(self.err(format!("number `{digits}` overflows f64"))),
            Err(_) => Err(self.err(format!("bad number `{digits}`"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("false").unwrap(), Json::Bool(false));
        assert_eq!(Json::parse("-12.5e1").unwrap(), Json::Number(-125.0));
        assert_eq!(Json::parse("\"hi\"").unwrap(), Json::String("hi".into()));
    }

    #[test]
    fn parses_nested_structures() {
        let v = Json::parse(r#"{"a":[1,2,{"b":null}],"c":{"d":"e"}}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 3);
        assert_eq!(v.get("c").unwrap().get("d").unwrap().as_str(), Some("e"));
    }

    #[test]
    fn string_escapes_round_trip() {
        let original = Json::String("line\nquote\"slash\\tab\tunicode\u{1F600}\u{7}".into());
        let rendered = original.render();
        assert_eq!(Json::parse(&rendered).unwrap(), original);
    }

    #[test]
    fn surrogate_pairs_decode() {
        let v = Json::parse(r#""😀""#).unwrap();
        assert_eq!(v.as_str(), Some("\u{1F600}"));
        assert!(Json::parse(r#""\ud83d""#).is_err());
        assert!(Json::parse(r#""\ud83dA""#).is_err());
    }

    #[test]
    fn integral_numbers_render_without_fraction() {
        assert_eq!(Json::from(42u64).render(), "42");
        assert_eq!(Json::from(-3i64).render(), "-3");
        assert_eq!(Json::Number(1.5).render(), "1.5");
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\"}",
            "{\"a\":}",
            "tru",
            "\"unterminated",
            "1 2",
            "{\"a\":1,}",
            "[,]",
            "\"\u{1}\"",
        ] {
            assert!(Json::parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn unescaped_control_characters_rejected() {
        assert!(Json::parse("\"a\nb\"").is_err());
    }

    /// A raw control byte inside a string literal is refused at its own
    /// offset, after runs of one- and multi-byte characters alike.
    #[test]
    fn raw_control_byte_reports_its_offset() {
        for (text, offset) in [
            ("{\"k\":\"ab\u{1}cd\"}", 8),
            ("\"\u{0}\"", 1),
            ("\"é€😀\u{1f}\"", 10),
            ("[\"ok\",\"x\\n\t\"]", 10),
        ] {
            let err = Json::parse(text).unwrap_err();
            assert_eq!(err.offset, offset, "{text:?}: {err}");
            assert_eq!(err.message, "unescaped control character in string");
        }
    }

    /// Truncated literals keep their old errors and offsets.
    #[test]
    fn unterminated_strings_report_the_end_of_input() {
        let err = Json::parse("\"abc€").unwrap_err();
        assert_eq!(
            (err.offset, err.message.as_str()),
            (7, "unterminated string")
        );
        let err = Json::parse("\"abc\\").unwrap_err();
        assert_eq!(
            (err.offset, err.message.as_str()),
            (5, "unterminated escape")
        );
    }

    /// A 4 MiB literal mixing plain runs, multi-byte characters and
    /// escapes decodes intact. (Decoding used to re-validate the rest of
    /// the input per character, which took minutes at this size.)
    #[test]
    fn four_mib_string_literal_decodes() {
        let chunk = "plain ascii, é, €, 😀 and \\\"escapes\\\" \\n ";
        let mut text = String::from("\"");
        while text.len() < 4 << 20 {
            text.push_str(chunk);
        }
        text.push('"');
        let decoded = Json::parse(&text).unwrap();
        let s = decoded.as_str().unwrap();
        let expected_chunk = "plain ascii, é, €, 😀 and \"escapes\" \n ";
        assert_eq!(s.len() % expected_chunk.len(), 0);
        assert!(s.len() > 3 << 20);
        assert_eq!(s, expected_chunk.repeat(s.len() / expected_chunk.len()));
        assert_eq!(Json::parse(&decoded.render()).unwrap(), decoded);
    }

    #[test]
    fn object_helpers() {
        let v = Json::object([("x", Json::from(1u64)), ("y", Json::from("z"))]);
        assert_eq!(v.get("x").unwrap().as_u64(), Some(1));
        assert_eq!(v.get("y").unwrap().as_str(), Some("z"));
        assert_eq!(v.get("missing"), None);
        assert_eq!(Json::Null.get("x"), None);
    }

    #[test]
    fn as_i64_rejects_fractional() {
        assert_eq!(Json::Number(1.5).as_i64(), None);
        assert_eq!(Json::Number(-2.0).as_i64(), Some(-2));
        assert_eq!(Json::Number(-2.0).as_u64(), None);
    }

    /// `u64`s up to 2^53 travel as numbers, larger ones as canonical
    /// decimal strings; `as_u64` takes back exactly those two forms.
    #[test]
    fn u64_past_two_to_the_53_travels_as_a_string() {
        assert_eq!(Json::from(MAX_EXACT_INT).render(), "9007199254740992");
        assert_eq!(
            Json::from(MAX_EXACT_INT + 1).render(),
            "\"9007199254740993\""
        );
        for refused in [
            r#""7""#,
            r#""9007199254740992""#,
            r#""+9999000000000000""#,
            r#""09999000000000000""#,
            r#""18446744073709551616""#,
            "9007199254740994",
            "-1",
            "1.5",
        ] {
            assert_eq!(Json::parse(refused).unwrap().as_u64(), None, "{refused}");
        }
    }

    #[test]
    fn hostile_nesting_is_rejected_not_a_stack_overflow() {
        let deep_array = "[".repeat(200_000) + &"]".repeat(200_000);
        let err = Json::parse(&deep_array).unwrap_err();
        assert!(err.message.contains("nesting"), "{err}");
        let deep_object = "{\"a\":".repeat(200_000);
        assert!(Json::parse(&deep_object).is_err());
        // 127 levels is fine.
        let ok = "[".repeat(127) + "1" + &"]".repeat(127);
        assert!(Json::parse(&ok).is_ok());
    }

    #[test]
    fn non_finite_numbers_are_rejected_or_nulled() {
        assert!(Json::parse("1e999").is_err());
        assert!(Json::parse("-1e999").is_err());
        // A non-finite value constructed programmatically still renders
        // valid JSON.
        assert_eq!(Json::Number(f64::NAN).render(), "null");
        assert_eq!(Json::Number(f64::INFINITY).render(), "null");
    }

    mod strings {
        use super::super::*;
        use proptest::prelude::*;

        /// Characters the decoder treats specially or copies across
        /// boundaries: quotes, backslashes, the escapable and bare control
        /// characters, and one- to four-byte UTF-8.
        const ALPHABET: [char; 18] = [
            'a', 'Z', ' ', '"', '\\', '/', '\n', '\r', '\t', '\u{0}', '\u{8}', '\u{c}', '\u{1f}',
            '\u{7f}', 'é', '€', '\u{2028}', '😀',
        ];

        /// A string drawn from [`ALPHABET`], with any code point mixed in
        /// wherever a pick falls past its end.
        fn string_of(picks: Vec<(usize, u32)>) -> String {
            picks
                .into_iter()
                .map(|(i, code)| match ALPHABET.get(i) {
                    Some(&c) => c,
                    None => char::from_u32(code % 0x11_0000).unwrap_or('\u{fffd}'),
                })
                .collect()
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// `parse(render(s)) == s`, as a bare value, an array element
            /// and an object key and value.
            #[test]
            fn rendered_strings_parse_back(
                picks in proptest::collection::vec((0usize..24, any::<u32>()), 0..64),
            ) {
                let s = string_of(picks);
                let bare = Json::from(s.as_str());
                prop_assert_eq!(Json::parse(&bare.render()).unwrap(), bare);
                let nested = Json::Array(vec![
                    Json::from(s.as_str()),
                    Json::Object(vec![(s.clone(), Json::from(s.as_str()))]),
                ]);
                prop_assert_eq!(Json::parse(&nested.render()).unwrap(), nested);
            }

            /// Every prefix of a rendered document is either a document
            /// itself or a typed error inside the input, never a panic.
            #[test]
            fn truncated_documents_are_typed_errors(
                picks in proptest::collection::vec((0usize..24, any::<u32>()), 1..24),
            ) {
                let s = string_of(picks);
                let text = Json::Object(vec![(s.clone(), Json::from(s))]).render();
                for cut in (0..text.len()).filter(|&i| text.is_char_boundary(i)) {
                    if let Err(err) = Json::parse(&text[..cut]) {
                        prop_assert!(err.offset <= cut, "{err} past {cut}");
                    }
                }
            }
        }
    }

    mod integers {
        use super::super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// Every `u64`, of every magnitude, renders to text that
            /// parses back to itself through `as_u64`.
            #[test]
            fn every_u64_round_trips(raw in any::<u64>(), shift in 0u32..64) {
                for n in [raw >> shift, 0, MAX_EXACT_INT, MAX_EXACT_INT + 1, u64::MAX] {
                    let text = Json::from(n).render();
                    prop_assert_eq!(Json::parse(&text).unwrap().as_u64(), Some(n), "{}", text);
                }
            }
        }
    }

    #[test]
    fn wire_round_trip() {
        let text = r#"{"op":"CreateSession","source":{"scenario":"flights"},"strategy":"lookahead-minprune","k":3,"ok":true,"ratio":0.25}"#;
        let v = Json::parse(text).unwrap();
        assert_eq!(Json::parse(&v.render()).unwrap(), v);
    }
}
