//! A minimal JSON value, writer, and reader.
//!
//! The Chrome-trace exporter ([`crate::probe::ChromeTrace`]) must emit JSON
//! and the CI gate must *validate* what was emitted, but the workspace is
//! dependency-free by design (DESIGN.md §8) — so this module provides the
//! small subset of a JSON library we actually need: a [`Json`] value tree,
//! a deterministic writer, and a strict (RFC 8259) recursive-descent
//! reader, `Parser`, whose callers decide what to keep. [`Json::parse`] is
//! the caller that keeps everything; the trace and event-stream validators
//! keep a few flags per record, so a 100 MB document is checked in one pass
//! without ever existing as a tree. Round-trip equality
//! (`parse(render(v)) == v`) is tested.

use std::fmt::Write as _;

/// A JSON value. Object keys keep insertion order so rendering is
/// deterministic and round-trips are exact.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number. Integers up to 2^53 render without a decimal point.
    Num(f64),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object as an ordered key → value list.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Looks up `key` in an object; `None` for other variants or a missing
    /// key.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The elements if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The string contents if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric value if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The key → value pairs if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(pairs) => Some(pairs),
            _ => None,
        }
    }

    /// Serializes the value to compact JSON.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => write_num(out, *n),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_str(out, k);
                    out.push(':');
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses a JSON document. The whole input must be consumed (trailing
    /// whitespace excepted).
    ///
    /// # Errors
    ///
    /// Returns a message with the byte offset of the first syntax error.
    pub fn parse(text: &str) -> Result<Json, String> {
        Parser::document(text, Parser::value)
    }
}

/// Convenience: a `Json::Num` from any integer cycle/count.
pub fn num(n: u64) -> Json {
    Json::Num(n as f64)
}

/// Convenience: a `Json::Str` from anything string-like.
pub fn str<S: Into<String>>(s: S) -> Json {
    Json::Str(s.into())
}

fn write_num(out: &mut String, n: f64) {
    if n.fract() == 0.0 && n.abs() < 9.0e15 {
        write_i64(out, n as i64);
    } else {
        let _ = write!(out, "{n}");
    }
}

/// Appends `n` in decimal. The probe sinks write several integers per
/// event, and `core::fmt`'s `write!` costs more than the digits do.
pub fn write_u64(out: &mut String, mut n: u64) {
    let mut buf = [0u8; 20];
    let mut at = buf.len();
    loop {
        at -= 1;
        buf[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&buf[at..]).expect("ASCII digits"));
}

/// Appends `n` in decimal, with a leading `-` if negative.
pub fn write_i64(out: &mut String, n: i64) {
    if n < 0 {
        out.push('-');
    }
    write_u64(out, n.unsigned_abs());
}

/// Appends `key` — a piece of literal JSON ending in `:` — and `n`.
pub(crate) fn uint(out: &mut String, key: &str, n: u64) {
    out.push_str(key);
    write_u64(out, n);
}

/// Writes `s` as a quoted, escaped JSON string.
pub fn write_str(out: &mut String, s: &str) {
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

/// Containers may nest this deep; about 20× anything the repository writes,
/// and far below what would exhaust the stack on a hostile file.
const MAX_DEPTH: usize = 128;

/// What the next value is, decided by its first byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Kind {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool,
    /// A number.
    Num,
    /// A string.
    Str,
    /// An array.
    Arr,
    /// An object.
    Obj,
}

/// The JSON reader: the grammar, written once, with the caller deciding
/// what to keep. [`Parser::object`] and [`Parser::array`] hand each member
/// or element to a closure, which must consume exactly one value —
/// [`Parser::value`] builds the [`Json`] tree, [`Parser::skip`] keeps
/// nothing, and a validator reads the few members it checks and skips the
/// rest, so a 100 MB document is checked without ever being held as a tree.
#[derive(Debug)]
pub(crate) struct Parser<'a> {
    text: &'a str,
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    /// Reads one document: `root` consumes the single top-level value, and
    /// the whole input must then be consumed (trailing whitespace excepted).
    ///
    /// # Errors
    ///
    /// Returns `root`'s error, or a message with the byte offset of the
    /// first syntax error.
    pub fn document<T>(
        text: &'a str,
        root: impl FnOnce(&mut Parser<'a>) -> Result<T, String>,
    ) -> Result<T, String> {
        let mut p = Parser { text, pos: 0, depth: 0 };
        p.skip_ws();
        let v = root(&mut p)?;
        p.skip_ws();
        if p.pos != text.len() {
            return Err(format!("trailing garbage at byte {}", p.pos));
        }
        Ok(v)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str) -> Result<(), String> {
        if self.text.as_bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(())
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    /// The kind of the value the reader stands at.
    ///
    /// # Errors
    ///
    /// Returns a message with the byte offset if no value can start here.
    pub fn kind(&self) -> Result<Kind, String> {
        match self.peek() {
            Some(b'n') => Ok(Kind::Null),
            Some(b't' | b'f') => Ok(Kind::Bool),
            Some(b'"') => Ok(Kind::Str),
            Some(b'[') => Ok(Kind::Arr),
            Some(b'{') => Ok(Kind::Obj),
            Some(b'-' | b'0'..=b'9') => Ok(Kind::Num),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    /// Consumes one value of any kind and returns it as a tree.
    ///
    /// # Errors
    ///
    /// Returns a message with the byte offset of the first syntax error.
    pub fn value(&mut self) -> Result<Json, String> {
        Ok(match self.kind()? {
            Kind::Null => {
                self.literal("null")?;
                Json::Null
            }
            Kind::Bool => Json::Bool(self.boolean()?),
            Kind::Num => Json::Num(self.number()?),
            Kind::Str => {
                let mut s = String::new();
                self.string(Some(&mut s))?;
                Json::Str(s)
            }
            Kind::Arr => {
                let mut items = Vec::new();
                self.array(|p, _| {
                    items.push(p.value()?);
                    Ok(())
                })?;
                Json::Arr(items)
            }
            Kind::Obj => {
                let mut pairs = Vec::new();
                self.object(|p, key| {
                    pairs.push((key.to_string(), p.value()?));
                    Ok(())
                })?;
                Json::Obj(pairs)
            }
        })
    }

    /// Consumes one value of any kind, checking its syntax and keeping
    /// nothing.
    ///
    /// # Errors
    ///
    /// Returns a message with the byte offset of the first syntax error.
    pub fn skip(&mut self) -> Result<(), String> {
        match self.kind()? {
            Kind::Null => self.literal("null"),
            Kind::Bool => self.boolean().map(drop),
            Kind::Num => self.number_text().map(drop),
            Kind::Str => self.string(None),
            Kind::Arr => self.array(|p, _| p.skip()),
            Kind::Obj => self.object(|p, _| p.skip()),
        }
    }

    /// Enters a container at `open`; `Ok(true)` if it closes at once.
    fn enter(&mut self, open: u8, close: u8) -> Result<bool, String> {
        self.expect(open)?;
        if self.depth == MAX_DEPTH {
            return Err(format!("nesting deeper than {MAX_DEPTH} at byte {}", self.pos - 1));
        }
        self.skip_ws();
        if self.peek() == Some(close) {
            self.pos += 1;
            return Ok(true);
        }
        self.depth += 1;
        Ok(false)
    }

    /// After a member or element: `Ok(true)` if the container closed,
    /// `Ok(false)` after a comma.
    fn next(&mut self, close: u8) -> Result<bool, String> {
        self.skip_ws();
        match self.peek() {
            Some(b',') => {
                self.pos += 1;
                self.skip_ws();
                Ok(false)
            }
            Some(b) if b == close => {
                self.pos += 1;
                self.depth -= 1;
                Ok(true)
            }
            _ => Err(format!("expected ',' or {:?} at byte {}", close as char, self.pos)),
        }
    }

    /// Consumes an array, handing the reader and the element index to
    /// `element` at each element; `element` must consume that one value.
    ///
    /// # Errors
    ///
    /// Returns `element`'s error, or a message with the byte offset of the
    /// first syntax error.
    pub fn array(
        &mut self,
        mut element: impl FnMut(&mut Self, usize) -> Result<(), String>,
    ) -> Result<(), String> {
        let mut done = self.enter(b'[', b']')?;
        let mut i = 0;
        while !done {
            element(self, i)?;
            i += 1;
            done = self.next(b']')?;
        }
        Ok(())
    }

    /// Consumes an object, handing the reader and the (unescaped) key to
    /// `member` at each member's value; `member` must consume that one
    /// value.
    ///
    /// # Errors
    ///
    /// Returns `member`'s error, or a message with the byte offset of the
    /// first syntax error.
    pub fn object(
        &mut self,
        mut member: impl FnMut(&mut Self, &str) -> Result<(), String>,
    ) -> Result<(), String> {
        let mut done = self.enter(b'{', b'}')?;
        let mut unescaped = String::new();
        while !done {
            // A key without escapes — every key this repository writes — is
            // read in place; only an escaped one is copied.
            let start = self.pos + 1;
            self.string(None)?;
            let text = self.text;
            let mut key = &text[start..self.pos - 1];
            if key.contains('\\') {
                self.pos = start - 1;
                unescaped.clear();
                self.string(Some(&mut unescaped))?;
                key = &unescaped;
            }
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            member(self, key)?;
            done = self.next(b'}')?;
        }
        Ok(())
    }

    /// Consumes `true` or `false`.
    ///
    /// # Errors
    ///
    /// Returns a message with the byte offset if neither word is here.
    pub fn boolean(&mut self) -> Result<bool, String> {
        let v = self.peek() == Some(b't');
        self.literal(if v { "true" } else { "false" })?;
        Ok(v)
    }

    /// Consumes a string, appending its unescaped contents to `out` if
    /// there is one.
    ///
    /// # Errors
    ///
    /// Returns a message on a bad escape or an unterminated string.
    pub fn string(&mut self, mut out: Option<&mut String>) -> Result<(), String> {
        self.expect(b'"')?;
        let text = self.text;
        loop {
            let rest = &text.as_bytes()[self.pos..];
            let plain = rest
                .iter()
                .position(|b| matches!(b, b'"' | b'\\'))
                .ok_or_else(|| String::from("unterminated string"))?;
            if let Some(out) = out.as_deref_mut() {
                out.push_str(&text[self.pos..self.pos + plain]);
            }
            self.pos += plain + 1;
            if rest[plain] == b'"' {
                return Ok(());
            }
            let c = match self.peek() {
                Some(b'"') => '"',
                Some(b'\\') => '\\',
                Some(b'/') => '/',
                Some(b'b') => '\u{8}',
                Some(b'f') => '\u{c}',
                Some(b'n') => '\n',
                Some(b'r') => '\r',
                Some(b't') => '\t',
                Some(b'u') => {
                    let code = text
                        .get(self.pos + 1..self.pos + 5)
                        .filter(|hex| hex.bytes().all(|b| b.is_ascii_hexdigit()))
                        .and_then(|hex| u32::from_str_radix(hex, 16).ok())
                        .ok_or_else(|| format!("bad \\u escape at byte {}", self.pos))?;
                    self.pos += 4;
                    // Surrogate pairs are not needed for our own output;
                    // map lone surrogates to U+FFFD.
                    char::from_u32(code).unwrap_or('\u{fffd}')
                }
                _ => return Err(format!("bad escape at byte {}", self.pos)),
            };
            self.pos += 1;
            if let Some(out) = out.as_deref_mut() {
                out.push(c);
            }
        }
    }

    /// Consumes a number — the RFC 8259 grammar exactly: no leading zeros,
    /// digits required after `.` and in an exponent — and returns its text.
    fn number_text(&mut self) -> Result<&'a str, String> {
        let start = self.pos;
        let digits = |p: &mut Self| {
            let from = p.pos;
            while matches!(p.peek(), Some(b'0'..=b'9')) {
                p.pos += 1;
            }
            if p.pos == from {
                Err(format!("bad number at byte {start}"))
            } else {
                Ok(())
            }
        };
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        if self.peek() == Some(b'0') {
            self.pos += 1;
            if matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(format!("bad number at byte {start}"));
            }
        } else {
            digits(self)?;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            digits(self)?;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            digits(self)?;
        }
        Ok(&self.text[start..self.pos])
    }

    /// Consumes a number and converts it.
    ///
    /// # Errors
    ///
    /// Returns a message with the byte offset of a number outside the
    /// RFC 8259 grammar (`01`, `1.`, `1.e3`, a bare `-`).
    pub fn number(&mut self) -> Result<f64, String> {
        Ok(self.number_text()?.parse().expect("an RFC 8259 number is a Rust float literal"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        for text in ["null", "true", "false", "0", "-17", "3.5", "\"hi\""] {
            let v = Json::parse(text).unwrap();
            assert_eq!(Json::parse(&v.render()).unwrap(), v, "{text}");
        }
    }

    #[test]
    fn integers_render_without_decimal() {
        assert_eq!(num(2_000_000_000).render(), "2000000000");
        assert_eq!(Json::Num(1.5).render(), "1.5");
    }

    #[test]
    fn nested_round_trip() {
        let v = Json::Obj(vec![
            ("traceEvents".into(), Json::Arr(vec![num(1), Json::Null, Json::Bool(true)])),
            ("name".into(), str("a \"quoted\"\nline\t\\")),
            ("empty".into(), Json::Obj(vec![])),
        ]);
        let text = v.render();
        assert_eq!(Json::parse(&text).unwrap(), v);
    }

    #[test]
    fn whitespace_and_escapes_parse() {
        let v = Json::parse(" { \"a\" : [ 1 , \"\\u0041\\n\" ] } ").unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[1].as_str().unwrap(), "A\n");
    }

    #[test]
    fn numbers_follow_rfc_8259() {
        for (text, want) in [
            ("0", 0.0),
            ("-0", -0.0),
            ("0.5", 0.5),
            ("1e5", 1e5),
            ("1E-5", 1e-5),
            ("-12.25e+1", -122.5),
        ] {
            assert_eq!(Json::parse(text), Ok(Json::Num(want)), "{text}");
        }
        for text in ["01", "-01", "1.", "1.e3", "-", "-.5", ".5", "1e", "1e+", "+1", "00"] {
            let err = Json::parse(text).expect_err(text);
            assert!(err.contains("at byte"), "{text}: {err}");
            assert_eq!(Parser::document(text, Parser::skip), Err(err), "{text}");
        }
        assert_eq!(Json::parse("[1,02]").unwrap_err(), "bad number at byte 3");
    }

    #[test]
    fn nesting_is_limited_not_the_stack() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(Json::parse(&nested(MAX_DEPTH)).is_ok());
        let err = format!("nesting deeper than {MAX_DEPTH} at byte {MAX_DEPTH}");
        assert_eq!(Json::parse(&nested(MAX_DEPTH + 1)), Err(err.clone()));
        // Without the limit these overflow the stack and abort the process.
        assert_eq!(Json::parse(&"[".repeat(2_000_000)), Err(err.clone()));
        let err = format!("nesting deeper than {MAX_DEPTH} at byte {}", 5 * MAX_DEPTH);
        assert_eq!(Parser::document(&"{\"a\":".repeat(2_000_000), Parser::skip), Err(err));
        // Siblings do not add up: depth is how far in, not how many.
        assert!(Json::parse(&format!("[{}]", vec![nested(MAX_DEPTH - 1); 4].join(","))).is_ok());
    }

    #[test]
    fn skip_and_value_read_the_same_language() {
        for text in [
            "null",
            "[true,false,null]",
            " { \"a\" : [ 1 , \"\\u0041\\n\" ] , \"\\\"b\" : {} } ",
            "{\"a\":}",
            "[1,]",
            "[1 2]",
            "{\"a\" 1}",
            "{1:2}",
            "12 34",
            "\"open",
            "\"\\q\"",
            "\"\\u12\"",
            "\"\\u+123\"",
            "tru",
            "nul",
            "",
            "]",
        ] {
            let tree = Json::parse(text).map(drop);
            assert_eq!(Parser::document(text, Parser::skip), tree, "{text:?}");
        }
    }

    #[test]
    fn callers_see_each_member_and_element_once() {
        let mut seen = Vec::new();
        Parser::document(r#"{"xs":[1,2.5,"three"],"a\"b":{"deep":[]},"n":null}"#, |p| {
            p.object(|p, key| {
                seen.push(key.to_string());
                if key != "xs" {
                    return p.skip();
                }
                p.array(|p, i| {
                    seen.push(format!("{i}:{:?}", p.kind()?));
                    p.skip()
                })
            })
        })
        .unwrap();
        assert_eq!(seen, ["xs", "0:Num", "1:Num", "2:Str", "a\"b", "n"]);
    }

    #[test]
    fn integers_are_written_without_fmt() {
        let mut out = String::new();
        for n in [0, 7, 10, 1_234_567_890, u64::MAX] {
            out.clear();
            write_u64(&mut out, n);
            assert_eq!(out, n.to_string());
        }
        for n in [0, -1, 64, i64::MIN, i64::MAX] {
            out.clear();
            write_i64(&mut out, n);
            assert_eq!(out, n.to_string());
        }
    }

    #[test]
    fn errors_are_reported() {
        assert!(Json::parse("{\"a\":}").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("12 34").is_err());
        assert!(Json::parse("\"open").is_err());
    }
}
