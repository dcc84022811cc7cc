//! Minimal JSON document model, renderer, and parser.
//!
//! Campaign results must serialize deterministically — the parallel
//! runner's acceptance test is *byte identity* between serial and
//! parallel executions — and the workspace builds offline with std only,
//! so this module provides a small, dependency-free JSON value type
//! instead of an external serializer. Rendering is stable: object keys
//! keep insertion order, floats use Rust's shortest round-trip
//! formatting, and non-finite floats render as `null`.
//!
//! [`Json::parse`] is the inverse: experiment specifications
//! ([`crate::spec`]) are *data files*, so the module reads standard JSON
//! text back into the document model. Rendering and parsing compose to
//! the identity on everything this crate emits: numbers without a
//! decimal point or exponent parse as [`Json::U64`] (negative ones as
//! [`Json::I64`]), anything else numeric as [`Json::F64`] — exactly the
//! classes the renderer keeps apart — and Rust's shortest round-trip
//! float formatting guarantees `parse(render(v)) == v` bit-for-bit for
//! finite floats.

use std::fmt;
use std::fmt::Write as _;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer.
    U64(u64),
    /// A signed integer.
    I64(i64),
    /// A floating-point number (rendered as `null` when non-finite).
    F64(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; keys keep insertion order for deterministic output.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// A string value.
    pub fn str(s: impl Into<String>) -> Self {
        Json::Str(s.into())
    }

    /// An object from `(key, value)` pairs.
    pub fn obj(pairs: Vec<(&str, Json)>) -> Self {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// An array of unsigned integers.
    pub fn u64_array(values: &[u64]) -> Self {
        Json::Arr(values.iter().map(|&v| Json::U64(v)).collect())
    }

    /// `Json::Null` for `None`, the mapped value otherwise.
    pub fn option<T>(value: Option<T>, f: impl FnOnce(T) -> Json) -> Self {
        value.map_or(Json::Null, f)
    }

    /// Parses a JSON document.
    ///
    /// Standard JSON (RFC 8259): one value, surrounded by optional
    /// whitespace. Integer tokens become [`Json::U64`] (or [`Json::I64`]
    /// when negative), tokens with a fraction or exponent become
    /// [`Json::F64`]; objects keep key order as written, and duplicate
    /// keys are rejected so a spec file cannot silently shadow a field.
    ///
    /// # Errors
    ///
    /// Returns [`JsonParseError`] with the byte offset and line/column of
    /// the first offending character.
    pub fn parse(text: &str) -> Result<Json, JsonParseError> {
        let mut p = Parser { bytes: text.as_bytes(), pos: 0 };
        p.skip_ws();
        let value = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.error("trailing characters after the document"));
        }
        Ok(value)
    }

    /// The boolean, if this is a [`Json::Bool`].
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The unsigned integer, if this is a [`Json::U64`].
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::U64(v) => Some(*v),
            _ => None,
        }
    }

    /// The signed integer, widening from [`Json::U64`] when it fits.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::I64(v) => Some(*v),
            Json::U64(v) => i64::try_from(*v).ok(),
            _ => None,
        }
    }

    /// The float, widening from either integer class.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::F64(v) => Some(*v),
            Json::U64(v) => Some(*v as f64),
            Json::I64(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// The string, if this is a [`Json::Str`].
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The items, if this is a [`Json::Arr`].
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The key/value pairs, if this is a [`Json::Obj`].
    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(pairs) => Some(pairs),
            _ => None,
        }
    }

    /// Looks up `key` in a [`Json::Obj`] (`None` on other variants).
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.as_object()?.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Whether this is [`Json::Null`].
    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }

    /// Renders the value as a compact single-line document.
    pub fn render_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Renders the value pretty-printed with two-space indentation and a
    /// trailing newline.
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::U64(v) => {
                let _ = write!(out, "{v}");
            }
            Json::I64(v) => {
                let _ = write!(out, "{v}");
            }
            Json::F64(v) => {
                if v.is_finite() {
                    // Shortest round-trip formatting; force a decimal
                    // point so the value re-parses as a float.
                    let s = format!("{v}");
                    out.push_str(&s);
                    if !s.contains('.') && !s.contains('e') {
                        out.push_str(".0");
                    }
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    item.write(out, indent, depth + 1);
                }
                newline_indent(out, indent, depth);
                out.push(']');
            }
            Json::Obj(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    write_escaped(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, depth + 1);
                }
                newline_indent(out, indent, depth);
                out.push('}');
            }
        }
    }
}

/// A JSON parsing failure, located in the source text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonParseError {
    /// What went wrong.
    pub message: String,
    /// Byte offset of the offending character.
    pub offset: usize,
    /// 1-based line of the offending character.
    pub line: usize,
    /// 1-based column (in bytes) of the offending character.
    pub column: usize,
}

impl fmt::Display for JsonParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at line {}, column {}", self.message, self.line, self.column)
    }
}

impl std::error::Error for JsonParseError {}

/// Nesting ceiling for the recursive-descent parser, bounding stack use
/// on adversarial inputs (`[[[[…`).
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn error(&self, message: impl Into<String>) -> JsonParseError {
        let mut line = 1;
        let mut column = 1;
        for &b in &self.bytes[..self.pos.min(self.bytes.len())] {
            if b == b'\n' {
                line += 1;
                column = 1;
            } else {
                column += 1;
            }
        }
        JsonParseError { message: message.into(), offset: self.pos, line, column }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), JsonParseError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(format!("expected `{}`", byte as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.error(format!("expected `{word}`")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonParseError> {
        if depth > MAX_DEPTH {
            return Err(self.error("document nests deeper than 128 levels"));
        }
        match self.peek() {
            None => Err(self.error("unexpected end of input")),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(other) => Err(self.error(format!("unexpected character `{}`", other as char))),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.error("expected `,` or `]` in array")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonParseError> {
        self.expect(b'{')?;
        let mut pairs: Vec<(String, Json)> = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key_at = self.pos;
            let key = self.string()?;
            if pairs.iter().any(|(k, _)| *k == key) {
                self.pos = key_at;
                return Err(self.error(format!("duplicate object key \"{key}\"")));
            }
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.error("expected `,` or `}` in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Copy unescaped UTF-8 spans wholesale.
            while let Some(b) = self.peek() {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .expect("input is a &str, so spans between ASCII delimiters are valid UTF-8"),
            );
            match self.peek() {
                None => return Err(self.error("unterminated string")),
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
                            self.pos += 1;
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // A high surrogate must pair with \uXXXX low.
                                if !self.bytes[self.pos..].starts_with(b"\\u") {
                                    return Err(self.error("unpaired surrogate escape"));
                                }
                                self.pos += 2;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.error("invalid low surrogate"));
                                }
                                let code = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                char::from_u32(code).expect("surrogate pair is a valid scalar")
                            } else {
                                char::from_u32(hi)
                                    .ok_or_else(|| self.error("unpaired surrogate escape"))?
                            };
                            out.push(c);
                            // hex4 already advanced past the digits.
                            continue;
                        }
                        _ => return Err(self.error("invalid escape sequence")),
                    }
                    self.pos += 1;
                }
                Some(_) => return Err(self.error("unescaped control character in string")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonParseError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let d = match self.peek() {
                Some(b @ b'0'..=b'9') => u32::from(b - b'0'),
                Some(b @ b'a'..=b'f') => u32::from(b - b'a') + 10,
                Some(b @ b'A'..=b'F') => u32::from(b - b'A') + 10,
                _ => return Err(self.error("expected four hex digits after \\u")),
            };
            v = v * 16 + d;
            self.pos += 1;
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, JsonParseError> {
        let start = self.pos;
        let negative = self.peek() == Some(b'-');
        if negative {
            self.pos += 1;
        }
        // Integer part: `0` or a nonzero-led digit run.
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => {
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.pos += 1;
                }
            }
            _ => return Err(self.error("expected a digit")),
        }
        let mut fractional = false;
        if self.peek() == Some(b'.') {
            fractional = true;
            self.pos += 1;
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.error("expected a digit after the decimal point"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            fractional = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.error("expected a digit in the exponent"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        let restore = self.pos;
        self.pos = start;
        let result = if fractional {
            match text.parse::<f64>() {
                Ok(v) if v.is_finite() => Ok(Json::F64(v)),
                _ => Err(self.error("number out of range")),
            }
        } else if negative {
            text.parse::<i64>().map(Json::I64).map_err(|_| self.error("integer out of range"))
        } else {
            text.parse::<u64>().map(Json::U64).map_err(|_| self.error("integer out of range"))
        };
        self.pos = restore;
        result
    }
}

/// FNV-1a over `bytes`, 64-bit. The stable, dependency-free digest used
/// for spec hashing and run deduplication keys.
pub fn fnv1a_64(bytes: &[u8]) -> u64 {
    use std::hash::Hasher as _;
    let mut h = Fnv64Hasher::new();
    h.write(bytes);
    h.finish()
}

/// FNV-1a (64-bit) as a [`std::hash::Hasher`], so any `#[derive(Hash)]`
/// spec type digests through the same stable function [`fnv1a_64`]
/// applies to raw bytes. Unlike the std `DefaultHasher`, the result does
/// not vary per process, which is what lets spec hashes key caches
/// meaningfully.
#[derive(Debug, Clone)]
pub struct Fnv64Hasher(u64);

impl Fnv64Hasher {
    /// A hasher at the FNV offset basis.
    pub fn new() -> Self {
        Fnv64Hasher(0xcbf2_9ce4_8422_2325)
    }
}

impl Default for Fnv64Hasher {
    fn default() -> Self {
        Self::new()
    }
}

impl std::hash::Hasher for Fnv64Hasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Strips the whitespace outside strings from a JSON document in one
/// pass. For any value `v`, `minify(&v.render_pretty())` equals
/// `v.render_compact()`, so entries written pretty can be hashed and
/// compared on their bytes without building a [`Json`] tree.
///
/// Only what a byte scan can see is checked: every string terminates
/// and holds no raw control character, and brackets balance and nest.
/// Tokens between them are copied as they are; callers that need a
/// value parse its slice with [`Json::parse`].
///
/// # Errors
///
/// Returns [`JsonParseError`] at the offending byte.
pub fn minify(text: &str) -> Result<String, JsonParseError> {
    let bytes = text.as_bytes();
    let error = |pos: usize, message: &str| Parser { bytes, pos }.error(message);
    let mut out = String::with_capacity(text.len());
    let mut open: Vec<u8> = Vec::new();
    // Start of the run of bytes not yet copied; runs end at whitespace,
    // which is always a char boundary.
    let mut run = 0;
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b' ' | b'\t' | b'\n' | b'\r' => {
                out.push_str(&text[run..i]);
                while matches!(bytes.get(i), Some(b' ' | b'\t' | b'\n' | b'\r')) {
                    i += 1;
                }
                run = i;
                continue;
            }
            b'"' => {
                i += 1;
                loop {
                    match bytes.get(i) {
                        None => return Err(error(bytes.len(), "unterminated string")),
                        Some(b'"') => break,
                        Some(b'\\') => i += 2,
                        Some(&b) if b < 0x20 => {
                            return Err(error(i, "unescaped control character in string"))
                        }
                        Some(_) => i += 1,
                    }
                }
            }
            b @ (b'{' | b'[') => open.push(b),
            b @ (b'}' | b']') => {
                let opener = if b == b'}' { b'{' } else { b'[' };
                if open.pop() != Some(opener) {
                    return Err(error(i, "unbalanced brackets"));
                }
            }
            _ => {}
        }
        i += 1;
    }
    if !open.is_empty() {
        return Err(error(bytes.len(), "unexpected end of input (unclosed bracket)"));
    }
    out.push_str(&text[run..]);
    Ok(out)
}

/// Pretty-prints a compact JSON document: the inverse of [`minify`].
/// For any value `v`, `prettify(&v.render_compact())` equals
/// `v.render_pretty()` byte for byte (two-space indentation, empty
/// containers inline, a trailing newline).
///
/// The input must hold no whitespace outside strings, as
/// [`Json::render_compact`] and [`minify`] guarantee; it is not
/// otherwise validated.
pub fn prettify(compact: &str) -> String {
    let bytes = compact.as_bytes();
    let mut out = String::with_capacity(compact.len() * 2);
    let mut depth: usize = 0;
    // Start of the run of bytes not yet copied; runs end at ASCII
    // punctuation, which is always a char boundary.
    let mut run = 0;
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'"' => {
                i += 1;
                while i < bytes.len() && bytes[i] != b'"' {
                    i += if bytes[i] == b'\\' { 2 } else { 1 };
                }
            }
            b'{' | b'[' => {
                if let (b'{', Some(b'}')) | (b'[', Some(b']')) = (bytes[i], bytes.get(i + 1)) {
                    // Empty containers stay inline.
                    i += 1;
                } else {
                    out.push_str(&compact[run..=i]);
                    depth += 1;
                    newline_indent(&mut out, Some(2), depth);
                    run = i + 1;
                }
            }
            b'}' | b']' => {
                out.push_str(&compact[run..i]);
                depth = depth.saturating_sub(1);
                newline_indent(&mut out, Some(2), depth);
                run = i;
            }
            b',' => {
                out.push_str(&compact[run..=i]);
                newline_indent(&mut out, Some(2), depth);
                run = i + 1;
            }
            b':' => {
                out.push_str(&compact[run..=i]);
                out.push(' ');
                run = i + 1;
            }
            _ => {}
        }
        i += 1;
    }
    out.push_str(&compact[run..]);
    out.push('\n');
    out
}

fn newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(width) = indent {
        out.push('\n');
        for _ in 0..depth * width {
            out.push(' ');
        }
    }
}

fn write_escaped(out: &mut String, s: &str) {
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

/// Escapes one CSV field (RFC 4180 quoting: only when needed).
pub fn csv_field(s: &str) -> String {
    if s.contains([',', '"', '\n', '\r']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_render() {
        assert_eq!(Json::Null.render_compact(), "null");
        assert_eq!(Json::Bool(true).render_compact(), "true");
        assert_eq!(Json::U64(42).render_compact(), "42");
        assert_eq!(Json::I64(-3).render_compact(), "-3");
        assert_eq!(Json::F64(0.5).render_compact(), "0.5");
        assert_eq!(Json::F64(1.0).render_compact(), "1.0");
        assert_eq!(Json::F64(f64::NAN).render_compact(), "null");
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(Json::str("a\"b\\c\nd").render_compact(), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(Json::str("\u{1}").render_compact(), "\"\\u0001\"");
    }

    #[test]
    fn compound_values_render_compact() {
        let v = Json::obj(vec![
            ("xs", Json::u64_array(&[1, 2])),
            ("name", Json::str("rr")),
            ("none", Json::option(None::<u64>, Json::U64)),
        ]);
        assert_eq!(v.render_compact(), "{\"xs\":[1,2],\"name\":\"rr\",\"none\":null}");
    }

    #[test]
    fn pretty_rendering_is_indented_and_stable() {
        let v = Json::obj(vec![("a", Json::U64(1)), ("b", Json::Arr(vec![Json::Null]))]);
        let expected = "{\n  \"a\": 1,\n  \"b\": [\n    null\n  ]\n}\n";
        assert_eq!(v.render_pretty(), expected);
        assert_eq!(v.render_pretty(), v.render_pretty());
    }

    #[test]
    fn empty_containers_stay_inline() {
        assert_eq!(Json::Arr(vec![]).render_pretty(), "[]\n");
        assert_eq!(Json::Obj(vec![]).render_compact(), "{}");
    }

    #[test]
    fn parse_round_trips_scalars() {
        for v in [
            Json::Null,
            Json::Bool(true),
            Json::Bool(false),
            Json::U64(0),
            Json::U64(u64::MAX),
            Json::I64(-3),
            Json::I64(i64::MIN),
            Json::F64(0.5),
            Json::F64(1.0),
            Json::F64(-2.25e-8),
            Json::F64(f64::MAX),
            Json::str("plain"),
            Json::str("esc \" \\ \n \t \u{1} ünïcode 🚍"),
        ] {
            assert_eq!(Json::parse(&v.render_compact()).expect("parse"), v, "{v:?}");
        }
    }

    #[test]
    fn parse_round_trips_compound_documents_in_both_renderings() {
        let v = Json::obj(vec![
            ("xs", Json::u64_array(&[1, 2, 3])),
            ("nested", Json::obj(vec![("a", Json::F64(0.25)), ("b", Json::Arr(vec![]))])),
            ("s", Json::str("x,y")),
            ("none", Json::Null),
            ("neg", Json::I64(-7)),
        ]);
        assert_eq!(Json::parse(&v.render_compact()).expect("compact"), v);
        assert_eq!(Json::parse(&v.render_pretty()).expect("pretty"), v);
    }

    #[test]
    fn parse_accepts_standard_json_syntax() {
        let v =
            Json::parse(" { \"a\" : [ 1 , 2.5e2 , \"\\u0041\\ud83d\\ude80\" ] } ").expect("parse");
        assert_eq!(
            v,
            Json::obj(vec![(
                "a",
                Json::Arr(vec![Json::U64(1), Json::F64(250.0), Json::str("A🚀")])
            )])
        );
    }

    #[test]
    fn parse_classifies_number_tokens_like_the_renderer() {
        assert_eq!(Json::parse("42").expect("u64"), Json::U64(42));
        assert_eq!(Json::parse("-42").expect("i64"), Json::I64(-42));
        assert_eq!(Json::parse("42.0").expect("f64"), Json::F64(42.0));
        assert_eq!(Json::parse("4e2").expect("f64"), Json::F64(400.0));
    }

    #[test]
    fn parse_errors_carry_positions() {
        let e = Json::parse("{\"a\": 1,\n  oops}").expect_err("must fail");
        assert_eq!((e.line, e.column), (2, 3), "{e}");
        assert!(e.to_string().contains("line 2"));
        for bad in [
            "",
            "{",
            "[1,",
            "[1 2]",
            "{\"a\" 1}",
            "nul",
            "01",
            "1.",
            "1e",
            "-",
            "\"\\x\"",
            "\"\\u12\"",
            "\"unterminated",
            "[1]]",
            "{\"a\":1,\"a\":2}",
            "1e999",
        ] {
            assert!(Json::parse(bad).is_err(), "`{bad}` must be rejected");
        }
    }

    #[test]
    fn parse_rejects_runaway_nesting() {
        let deep = "[".repeat(200) + &"]".repeat(200);
        let e = Json::parse(&deep).expect_err("must fail");
        assert!(e.message.contains("128"), "{e}");
        let ok = "[".repeat(100) + &"]".repeat(100);
        assert!(Json::parse(&ok).is_ok());
    }

    #[test]
    fn accessors_select_the_right_variants() {
        let v = Json::obj(vec![
            ("u", Json::U64(7)),
            ("i", Json::I64(-7)),
            ("f", Json::F64(0.5)),
            ("s", Json::str("hi")),
            ("b", Json::Bool(true)),
            ("a", Json::Arr(vec![Json::Null])),
        ]);
        assert_eq!(v.get("u").and_then(Json::as_u64), Some(7));
        assert_eq!(v.get("u").and_then(Json::as_i64), Some(7));
        assert_eq!(v.get("i").and_then(Json::as_i64), Some(-7));
        assert_eq!(v.get("i").and_then(Json::as_u64), None);
        assert_eq!(v.get("f").and_then(Json::as_f64), Some(0.5));
        assert_eq!(v.get("u").and_then(Json::as_f64), Some(7.0));
        assert_eq!(v.get("s").and_then(Json::as_str), Some("hi"));
        assert_eq!(v.get("b").and_then(Json::as_bool), Some(true));
        assert_eq!(v.get("a").and_then(Json::as_array).map(<[Json]>::len), Some(1));
        assert!(v.get("missing").is_none());
        assert!(Json::Null.is_null() && !v.is_null());
        assert!(Json::U64(1).get("x").is_none());
    }

    /// Seeded document generator (splitmix64) for the text-function
    /// round trips: strings carry spaces, quotes, escapes and the
    /// structural characters the scans must not mistake for structure.
    struct DocGen(u64);

    impl DocGen {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }

        fn string(&mut self) -> String {
            let chars: Vec<char> = "aZ7 \"\\\n\t\u{1}é{}[]:,".chars().collect();
            (0..self.below(8)).map(|_| chars[self.below(chars.len() as u64) as usize]).collect()
        }

        fn float(&mut self) -> f64 {
            match self.below(4) {
                0 => [0.0, 1.0, -0.5, 0.1, 2.5e-8, 1e300][self.below(6) as usize],
                1 => self.next() as f64 / 7.0,
                _ => f64::from_bits(self.next()),
            }
        }

        fn value(&mut self, depth: usize) -> Json {
            let kinds = if depth >= 5 { 6 } else { 8 };
            match self.below(kinds) {
                0 => Json::Null,
                1 => Json::Bool(self.below(2) == 0),
                2 => Json::U64(self.next() >> self.below(64)),
                3 => Json::I64(-((self.next() >> (1 + self.below(63))) as i64)),
                4 => Json::F64(self.float()),
                5 => Json::Str(self.string()),
                6 => Json::Arr((0..self.below(4)).map(|_| self.value(depth + 1)).collect()),
                _ => Json::Obj(
                    (0..self.below(4)).map(|_| (self.string(), self.value(depth + 1))).collect(),
                ),
            }
        }
    }

    #[test]
    fn minify_and_prettify_invert_the_two_renderings() {
        let mut gen = DocGen(0x5eed_2015);
        let mut docs: Vec<Json> = (0..40).map(|_| gen.value(0)).collect();
        let mut deep = Json::str("core \"0\"\\ at: {depth}");
        for level in 0..40 {
            deep = if level % 2 == 0 {
                Json::Arr(vec![deep, Json::Arr(vec![])])
            } else {
                Json::obj(vec![("k", deep), ("empty", Json::Obj(vec![])), ("f", Json::F64(0.25))])
            };
        }
        docs.extend([deep, Json::Arr(vec![]), Json::Obj(vec![]), Json::str(" ")]);
        for v in &docs {
            let (compact, pretty) = (v.render_compact(), v.render_pretty());
            assert_eq!(minify(&pretty).as_deref(), Ok(compact.as_str()), "{v:?}");
            assert_eq!(prettify(&compact), pretty, "{v:?}");
        }
    }

    #[test]
    fn minify_rejects_what_a_byte_scan_can_see() {
        for bad in [
            "\"unterminated",
            "\"esc\\",
            "{\"a\":1",
            "[1,2",
            "[1}",
            "{\"a\":[1]]}",
            "\"a\tb\"",
            "]",
        ] {
            assert!(minify(bad).is_err(), "`{bad}` must be rejected");
        }
        let e = minify("{\n  \"a\": [1,\n").expect_err("unclosed");
        assert_eq!(e.line, 3, "{e}");
        assert_eq!(
            minify(" { \"a b\" : [ 1 , \"\\\" ]\" ] }\n").as_deref(),
            Ok("{\"a b\":[1,\"\\\" ]\"]}")
        );
    }

    #[test]
    fn fnv_digest_is_the_reference_fnv1a() {
        // Published FNV-1a test vectors.
        assert_eq!(fnv1a_64(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a_64(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a_64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn csv_fields_quote_only_when_needed() {
        assert_eq!(csv_field("plain"), "plain");
        assert_eq!(csv_field("a,b"), "\"a,b\"");
        assert_eq!(csv_field("say \"hi\""), "\"say \"\"hi\"\"\"");
    }
}
