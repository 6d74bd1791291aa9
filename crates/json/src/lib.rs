//! # coconut-json
//!
//! A small dependency-free JSON layer.  The algorithms-server protocol
//! ([Section 4 of the paper]: the GUI client exchanges JSON with the back
//! end), the recommender output and the benchmark reports all serialize
//! through this crate; the build environment has no crates.io access, so
//! serde is not available.
//!
//! The surface is deliberately tiny: a [`Json`] value enum, a recursive
//! descent [`Json::parse`], compact and pretty writers, and the
//! [`ToJson`] / [`FromJson`] conversion traits plus helpers for mapping
//! struct-like objects.
//!
//! Object members preserve insertion order so emitted documents are stable
//! across runs (important for byte-comparing benchmark reports).

use std::fmt::Write as _;

/// A parsed or constructed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (stored as `f64`; integral values are written without
    /// a decimal point).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; members keep insertion order.
    Obj(Vec<(String, Json)>),
}

/// Error produced when parsing or converting JSON.
#[derive(Debug, Clone, PartialEq)]
pub struct JsonError {
    /// Human-readable description of what went wrong.
    pub message: String,
}

impl JsonError {
    /// Creates an error with the given message.
    pub fn new(message: impl Into<String>) -> Self {
        JsonError {
            message: message.into(),
        }
    }
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for JsonError {}

/// Convenience alias for JSON results.
pub type Result<T> = std::result::Result<T, JsonError>;

impl Json {
    /// Parses a JSON document.
    pub fn parse(input: &str) -> Result<Json> {
        let mut p = Parser::new(input);
        p.skip_ws();
        let value = p.value()?;
        p.end()?;
        Ok(value)
    }

    /// Builds an object from `(key, value)` pairs.
    pub fn obj(members: Vec<(&str, Json)>) -> Json {
        Json::Obj(
            members
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Looks up a member of an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Serializes compactly (no whitespace).
    #[allow(clippy::inherent_to_string)]
    pub fn to_string(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Serializes with two-space indentation.
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Num(n) => write_number(out, *n),
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                write_seq(out, indent, depth, '[', ']', items.len(), |out, i, d| {
                    items[i].write(out, indent, d)
                })
            }
            Json::Obj(members) => {
                write_seq(out, indent, depth, '{', '}', members.len(), |out, i, d| {
                    write_escaped(out, &members[i].0);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    members[i].1.write(out, indent, d);
                })
            }
        }
    }
}

fn write_seq(
    out: &mut String,
    indent: Option<usize>,
    depth: usize,
    open: char,
    close: char,
    len: usize,
    mut item: impl FnMut(&mut String, usize, usize),
) {
    out.push(open);
    if len == 0 {
        out.push(close);
        return;
    }
    for i in 0..len {
        if i > 0 {
            out.push(',');
        }
        if let Some(step) = indent {
            out.push('\n');
            for _ in 0..(depth + 1) * step {
                out.push(' ');
            }
        }
        item(out, i, depth + 1);
    }
    if let Some(step) = indent {
        out.push('\n');
        for _ in 0..depth * step {
            out.push(' ');
        }
    }
    out.push(close);
}

fn write_number(out: &mut String, n: f64) {
    if !n.is_finite() {
        // JSON has no NaN/Inf; emit null like serde_json's lossy mode.
        out.push_str("null");
    } else if n == n.trunc() && n.abs() < 9_007_199_254_740_992.0 {
        let _ = write!(out, "{}", n as i64);
    } else {
        let _ = write!(out, "{n}");
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

/// One top-level member of a JSON object, located but not decoded.
#[derive(Debug, Clone, PartialEq)]
pub struct RawMember<'a> {
    /// The member's key, unescaped.
    pub key: String,
    /// The member's value exactly as the input spells it, without the
    /// whitespace around it: a valid JSON document of its own.
    pub raw: &'a str,
    /// The number of elements, when the value is an array.
    pub elements: Option<usize>,
}

impl RawMember<'_> {
    /// Decodes the value.  This is a full parse of [`RawMember::raw`]: meant
    /// for the small members of an envelope, not for the payload the scan
    /// exists to leave alone.
    pub fn decode<T: FromJson>(&self) -> Result<T> {
        T::from_json(&Json::parse(self.raw)?)
    }
}

/// Scans the envelope of a request: validates that `input` is one JSON
/// object, by the very grammar [`Json::parse`] accepts, and returns its
/// top-level members in document order with their values left as text.
/// Nothing below the top level is built, so a router can read the few small
/// members it needs and forward a large one byte for byte.
pub fn scan_object(input: &str) -> Result<Vec<RawMember<'_>>> {
    let mut p = Parser::new(input);
    p.skip_ws();
    let mut members = Vec::new();
    p.members(|p, key| {
        let start = p.pos;
        let elements = p.skip_value()?;
        members.push(RawMember {
            key,
            raw: &input[start..p.pos],
            elements,
        });
        Ok(())
    })?;
    p.end()?;
    Ok(members)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Length of the array completed last, zero again once another is
    /// entered: the capacity the next array starts with.  Rows of a matrix
    /// are siblings of equal length, so every row after the first is
    /// allocated once, at its final size.
    array_hint: usize,
}

impl<'a> Parser<'a> {
    fn new(input: &'a str) -> Self {
        Parser {
            bytes: input.as_bytes(),
            pos: 0,
            array_hint: 0,
        }
    }

    /// Only whitespace may follow the document.
    fn end(&mut self) -> Result<()> {
        self.skip_ws();
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(JsonError::new(format!(
                "trailing characters at offset {}",
                self.pos
            )))
        }
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<()> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(JsonError::new(format!(
                "expected '{}' at offset {}",
                b as char, self.pos
            )))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(JsonError::new(format!(
                "invalid literal at offset {}",
                self.pos
            )))
        }
    }

    fn value(&mut self) -> Result<Json> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number().map(Json::Num),
            _ => Err(JsonError::new(format!(
                "unexpected character at offset {}",
                self.pos
            ))),
        }
    }

    fn array(&mut self) -> Result<Json> {
        // The hint is for siblings only: what nests inside starts from zero,
        // and n elements take at least 2n - 1 bytes of the input that is left,
        // so the sender cannot make this reserve more than it goes on to send.
        let hint = std::mem::take(&mut self.array_hint).min((self.bytes.len() - self.pos) / 2);
        let mut items = Vec::new();
        let count = self.elements(|p| {
            if items.is_empty() {
                items.reserve_exact(hint);
            }
            items.push(p.value()?);
            Ok(())
        })?;
        self.array_hint = count;
        Ok(Json::Arr(items))
    }

    /// Walks an array, calling `element` with the parser at the first byte of
    /// each element, which it consumes; returns how many there were.
    fn elements(&mut self, mut element: impl FnMut(&mut Self) -> Result<()>) -> Result<usize> {
        self.expect(b'[')?;
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(0);
        }
        let mut count = 0;
        loop {
            self.skip_ws();
            element(self)?;
            count += 1;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(count);
                }
                _ => return Err(JsonError::new(format!("bad array at offset {}", self.pos))),
            }
        }
    }

    fn object(&mut self) -> Result<Json> {
        let mut members = Vec::new();
        self.members(|p, key| {
            let value = p.value()?;
            members.push((key, value));
            Ok(())
        })?;
        Ok(Json::Obj(members))
    }

    /// Walks an object, handing each key to `member` with the parser at the
    /// first byte of the member's value; `member` consumes the value.
    fn members(&mut self, mut member: impl FnMut(&mut Self, String) -> Result<()>) -> Result<()> {
        self.expect(b'{')?;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            member(self, key)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(JsonError::new(format!("bad object at offset {}", self.pos))),
            }
        }
    }

    /// Validates one value without building it; the element count when it
    /// is an array.  Strings and numbers go through the decoding routines,
    /// so the grammar accepted is [`Json::parse`]'s by construction.
    fn skip_value(&mut self) -> Result<Option<usize>> {
        match self.peek() {
            Some(b'[') => self.elements(|p| p.skip_value().map(drop)).map(Some),
            Some(b'{') => self.members(|p, _| p.skip_value().map(drop)).map(|()| None),
            _ => self.value().map(|_| None),
        }
    }

    fn string(&mut self) -> Result<String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let b = self
                .peek()
                .ok_or_else(|| JsonError::new("unterminated string"))?;
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let esc = self
                        .peek()
                        .ok_or_else(|| JsonError::new("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let code = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&code) {
                                // Surrogate pair: require a \uXXXX low half.
                                if self.peek() == Some(b'\\') {
                                    self.pos += 1;
                                    self.expect(b'u')?;
                                    let low = self.hex4()?;
                                    if !(0xDC00..0xE000).contains(&low) {
                                        return Err(JsonError::new(
                                            "high surrogate not followed by a low surrogate",
                                        ));
                                    }
                                    let combined =
                                        0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                                    char::from_u32(combined)
                                } else {
                                    None
                                }
                            } else {
                                char::from_u32(code)
                            };
                            out.push(c.ok_or_else(|| JsonError::new("invalid \\u escape"))?);
                        }
                        _ => return Err(JsonError::new("unknown escape")),
                    }
                }
                b if b < 0x80 => out.push(b as char),
                _ => {
                    // Multi-byte UTF-8: copy the full sequence.
                    let start = self.pos - 1;
                    let len = utf8_len(b);
                    let end = start + len;
                    let slice = self
                        .bytes
                        .get(start..end)
                        .ok_or_else(|| JsonError::new("truncated utf-8"))?;
                    let s = std::str::from_utf8(slice)
                        .map_err(|_| JsonError::new("invalid utf-8 in string"))?;
                    out.push_str(s);
                    self.pos = end;
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32> {
        let slice = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| JsonError::new("truncated \\u escape"))?;
        let s = std::str::from_utf8(slice).map_err(|_| JsonError::new("bad \\u escape"))?;
        let code = u32::from_str_radix(s, 16).map_err(|_| JsonError::new("bad \\u escape"))?;
        self.pos += 4;
        Ok(code)
    }

    /// Scans a run of ASCII digits, folding them into `mantissa` (wrapping:
    /// the caller trusts it only while the digit count rules overflow out);
    /// returns how many there were.
    fn digits(&mut self, mantissa: &mut u64) -> usize {
        let mut folded = *mantissa;
        let mut count = 0;
        for &b in &self.bytes[self.pos..] {
            let digit = b.wrapping_sub(b'0');
            if digit > 9 {
                break;
            }
            folded = folded.wrapping_mul(10).wrapping_add(u64::from(digit));
            count += 1;
        }
        *mantissa = folded;
        self.pos += count;
        count
    }

    /// One pass over a number: the grammar is `str::parse::<f64>`'s
    /// (`-? digits* (. digits*)? ([eE] [+-]? digits+)?` with a digit
    /// somewhere in the mantissa) and so is every value.  The decimal
    /// mantissa is accumulated while scanning; when it is exact in an `f64`
    /// (at most 2^53) and the power of ten is too (|exp10| <= 22), one IEEE
    /// multiply or divide of the two is the correctly rounded result
    /// (Clinger's fast path).  Everything else goes to `str::parse`.
    fn number(&mut self) -> Result<f64> {
        let start = self.pos;
        let invalid = || JsonError::new(format!("invalid number at offset {start}"));
        let negative = self.peek() == Some(b'-');
        if negative {
            self.pos += 1;
        }
        let mut mantissa = 0u64;
        let mut mantissa_digits = self.digits(&mut mantissa);
        let mut exp10 = 0i64;
        if self.peek() == Some(b'.') {
            self.pos += 1;
            let fraction_digits = self.digits(&mut mantissa);
            mantissa_digits += fraction_digits;
            exp10 = -(fraction_digits as i64);
        }
        if mantissa_digits == 0 {
            return Err(invalid());
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            self.pos += 1;
            let negative_exp = self.peek() == Some(b'-');
            if negative_exp || self.peek() == Some(b'+') {
                self.pos += 1;
            }
            let mut exp = 0u64;
            let exp_digits = self.digits(&mut exp);
            if exp_digits == 0 {
                return Err(invalid());
            }
            // Four digits cannot wrap; a longer exponent is out of the fast
            // path's range whatever its value.
            let exp = if exp_digits <= 4 {
                exp as i64
            } else {
                i64::from(i16::MAX)
            };
            exp10 += if negative_exp { -exp } else { exp };
        }
        // 19 digits fit a u64, so the wrapped accumulation was exact.
        if mantissa_digits <= 19 && mantissa <= (1 << 53) && exp10.unsigned_abs() <= 22 {
            let power = POW10[exp10.unsigned_abs() as usize];
            let magnitude = if exp10 < 0 {
                mantissa as f64 / power
            } else {
                mantissa as f64 * power
            };
            return Ok(if negative { -magnitude } else { magnitude });
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("a number is ASCII");
        text.parse::<f64>().map_err(|_| invalid())
    }
}

/// The powers of ten an `f64` holds exactly.
const POW10: [f64; 23] = [
    1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16,
    1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
];

fn utf8_len(first: u8) -> usize {
    match first {
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        _ => 4,
    }
}

/// Conversion of a value into its JSON representation.
pub trait ToJson {
    /// Builds the JSON representation.
    fn to_json(&self) -> Json;
}

/// Reconstruction of a value from JSON.
pub trait FromJson: Sized {
    /// Parses the value from JSON.
    fn from_json(json: &Json) -> Result<Self>;
}

impl ToJson for Json {
    fn to_json(&self) -> Json {
        self.clone()
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl FromJson for bool {
    fn from_json(json: &Json) -> Result<bool> {
        json.as_bool()
            .ok_or_else(|| JsonError::new("expected a boolean"))
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl ToJson for str {
    fn to_json(&self) -> Json {
        Json::Str(self.to_string())
    }
}

impl FromJson for String {
    fn from_json(json: &Json) -> Result<String> {
        json.as_str()
            .map(str::to_string)
            .ok_or_else(|| JsonError::new("expected a string"))
    }
}

/// Largest integer exactly representable in an `f64` (2^53); integers are
/// carried through JSON as `f64`, so anything beyond this cannot round-trip
/// and is rejected rather than silently rounded.
pub const MAX_SAFE_INTEGER: f64 = 9_007_199_254_740_992.0;

macro_rules! impl_json_int {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Json {
                let n = *self as f64;
                debug_assert!(
                    n.abs() <= MAX_SAFE_INTEGER,
                    "integer exceeds exact f64 range"
                );
                Json::Num(n)
            }
        }
        impl FromJson for $t {
            fn from_json(json: &Json) -> Result<$t> {
                let n = json
                    .as_f64()
                    .ok_or_else(|| JsonError::new("expected a number"))?;
                if !n.is_finite() || n.fract() != 0.0 {
                    return Err(JsonError::new(format!("expected an integer, got {n}")));
                }
                if n.abs() > MAX_SAFE_INTEGER {
                    return Err(JsonError::new(format!(
                        "integer {n} exceeds the exactly representable range"
                    )));
                }
                let min = <$t>::MIN as f64;
                let max = <$t>::MAX as f64;
                if n < min || n > max {
                    return Err(JsonError::new(format!(
                        "{n} out of range for {}",
                        stringify!($t)
                    )));
                }
                Ok(n as $t)
            }
        }
    )*};
}

impl_json_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! impl_json_float {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Json {
                Json::Num(*self as f64)
            }
        }
        impl FromJson for $t {
            fn from_json(json: &Json) -> Result<$t> {
                json.as_f64()
                    .map(|n| n as $t)
                    .ok_or_else(|| JsonError::new("expected a number"))
            }
        }
    )*};
}

impl_json_float!(f32, f64);

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(json: &Json) -> Result<Vec<T>> {
        let items = json
            .as_arr()
            .ok_or_else(|| JsonError::new("expected an array"))?;
        // Collecting into a `Result` would hide the length from the allocator.
        let mut out = Vec::with_capacity(items.len());
        for item in items {
            out.push(T::from_json(item)?);
        }
        Ok(out)
    }
}

/// Fetches a required member from a JSON object and converts it.
pub fn member<T: FromJson>(json: &Json, key: &str) -> Result<T> {
    let value = json
        .get(key)
        .ok_or_else(|| JsonError::new(format!("missing field '{key}'")))?;
    T::from_json(value).map_err(|e| JsonError::new(format!("field '{key}': {e}")))
}

/// Fetches an optional member from a JSON object, returning `default` when
/// the member is absent or null.
pub fn member_or<T: FromJson>(json: &Json, key: &str, default: T) -> Result<T> {
    match json.get(key) {
        None | Some(Json::Null) => Ok(default),
        Some(value) => {
            T::from_json(value).map_err(|e| JsonError::new(format!("field '{key}': {e}")))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_scalars() {
        for doc in ["null", "true", "false", "42", "-3.5", "\"hi\"", "1e3"] {
            let v = Json::parse(doc).unwrap();
            let back = Json::parse(&v.to_string()).unwrap();
            assert_eq!(v, back);
        }
    }

    #[test]
    fn integral_numbers_have_no_decimal_point() {
        assert_eq!(Json::Num(42.0).to_string(), "42");
        assert_eq!(Json::Num(-1.0).to_string(), "-1");
        assert_eq!(Json::Num(2.5).to_string(), "2.5");
    }

    #[test]
    fn object_roundtrip_preserves_order() {
        let doc = r#"{"b":1,"a":[true,null,{"x":"y"}],"c":{"nested":-2.25}}"#;
        let v = Json::parse(doc).unwrap();
        assert_eq!(v.to_string(), doc);
        assert_eq!(v.get("b"), Some(&Json::Num(1.0)));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn string_escapes_roundtrip() {
        let original = "line\nbreak \"quoted\" back\\slash tab\t unicode \u{1F600} café";
        let encoded = Json::Str(original.to_string()).to_string();
        let back = Json::parse(&encoded).unwrap();
        assert_eq!(back.as_str(), Some(original));
    }

    #[test]
    fn unicode_escape_parses() {
        // Plain BMP escape plus a surrogate pair.
        assert_eq!(
            Json::parse("\"\\u00e9 \\ud83d\\ude00\"").unwrap().as_str(),
            Some("\u{e9} \u{1F600}")
        );
    }

    #[test]
    fn malformed_documents_error() {
        for doc in [
            "",
            "{",
            "[1,",
            "\"open",
            "tru",
            "{\"a\" 1}",
            "1 2",
            "{'a':1}",
        ] {
            assert!(Json::parse(doc).is_err(), "{doc:?} should fail");
        }
    }

    #[test]
    fn pretty_output_is_indented_and_reparses() {
        let v = Json::obj(vec![
            ("name", Json::Str("coconut".into())),
            ("sizes", Json::Arr(vec![Json::Num(1.0), Json::Num(2.0)])),
        ]);
        let pretty = v.to_string_pretty();
        assert!(pretty.contains("\n  \"name\""));
        assert_eq!(Json::parse(&pretty).unwrap(), v);
    }

    #[test]
    fn member_helpers() {
        let v = Json::parse(r#"{"k":5,"s":"x"}"#).unwrap();
        assert_eq!(member::<u64>(&v, "k").unwrap(), 5);
        assert_eq!(member_or::<u64>(&v, "absent", 9).unwrap(), 9);
        assert!(member::<u64>(&v, "s").is_err());
        assert!(member::<u64>(&v, "absent").is_err());
    }

    #[test]
    fn integer_conversion_rejects_lossy_values() {
        // Negative, fractional and beyond-2^53 inputs must error rather than
        // silently saturate or round.
        assert!(u64::from_json(&Json::Num(-1.0)).is_err());
        assert!(usize::from_json(&Json::Num(1.5)).is_err());
        assert!(u64::from_json(&Json::Num(1e19)).is_err());
        assert!(u8::from_json(&Json::Num(256.0)).is_err());
        assert!(i8::from_json(&Json::Num(-129.0)).is_err());
        assert_eq!(u64::from_json(&Json::Num(42.0)).unwrap(), 42);
        assert_eq!(i64::from_json(&Json::Num(-42.0)).unwrap(), -42);
        // Floats stay permissive.
        assert_eq!(f64::from_json(&Json::Num(1.5)).unwrap(), 1.5);
    }

    #[test]
    fn malformed_surrogate_pairs_are_rejected() {
        // High surrogate followed by a non-surrogate escape.
        assert!(Json::parse("\"\\ud801\\u0061\"").is_err());
        // Lone high surrogate (no second escape at all).
        assert!(Json::parse("\"\\ud801x\"").is_err());
        // Lone low surrogate.
        assert!(Json::parse("\"\\udc01\"").is_err());
    }

    /// What the number path must equal: `str::parse::<f64>` on the whole
    /// text, bit for bit, and a refusal exactly where it refuses.  (Only
    /// texts that open with `-` or a digit reach the number path at all.)
    fn assert_number_matches_std(text: &str) {
        let expected = text.parse::<f64>().ok().map(f64::to_bits);
        let got = Json::parse(text).ok().map(|json| {
            json.as_f64()
                .unwrap_or_else(|| panic!("{text:?} parsed to a non-number"))
                .to_bits()
        });
        assert_eq!(got, expected, "{text:?}");
    }

    #[test]
    fn numbers_at_the_fast_path_limits_match_std() {
        for text in [
            "0",
            "-0",
            "-0.0",
            "0e0",
            "00012",
            "1.",
            "-.5",
            "1.e5",
            "1E+2",
            "1e-2",
            // The mantissa limit, 2^53, from both sides and with both ends
            // of the exponent range on it.
            "9007199254740991",
            "9007199254740992",
            "9007199254740993",
            "9007199254740992e22",
            "9007199254740993e22",
            "9007199254740992e-22",
            "9007199254740993e-22",
            "900719925474.0993",
            // The exponent limit.
            "1e22",
            "1e23",
            "1e-22",
            "1e-23",
            "8.41e21",
            "123456.789e17",
            "123456.789e-19",
            "123456.789e-20",
            // 19 and 20 digits, with leading and trailing zeros.
            "1234567890123456789",
            "12345678901234567890",
            "0000000000000000000001",
            "0.00000000000000000001",
            "100000000000000000000",
            "123456789012345678901234567890.123456789012345678901234567890",
            // Subnormals, the extremes and beyond.
            "4.9e-324",
            "2.4e-324",
            "2.2250738585072011e-308",
            "2.2250738585072014e-308",
            "1.7976931348623157e308",
            "1.7976931348623159e308",
            "1e400",
            "-1e400",
            "1e-400",
            "0e99999999999999999999",
            "1e00000000000000000005",
            "1e-00000000000000000005",
            // Not numbers.
            "-",
            "-.",
            "-e5",
            "1e",
            "1e+",
            "1e-",
            "-.e1",
        ] {
            assert_number_matches_std(text);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(4000))]

        /// Well-formed numbers of every shape: short decimals, mantissas
        /// past twenty digits, exponents to +-400.
        #[test]
        fn number_path_is_bit_equal_to_std(
            negative in 0u8..2,
            int in proptest::collection::vec(0u8..10, 0..24),
            fraction in proptest::collection::vec(0u8..10, 0..24),
            dot in 0u8..2,
            exp_form in 0u8..5,
            exp in 0u32..420,
        ) {
            let digits = |ds: &[u8]| ds.iter().map(|d| char::from(b'0' + d)).collect::<String>();
            let mut text = String::new();
            if negative == 1 {
                text.push('-');
            }
            text.push_str(&digits(&int));
            if dot == 1 || !fraction.is_empty() {
                text.push('.');
                text.push_str(&digits(&fraction));
            }
            text.push_str(&match exp_form {
                0 => String::new(),
                1 => format!("e{exp}"),
                2 => format!("E+{exp}"),
                3 => format!("e-{exp}"),
                _ => format!("e-{}", exp % 30),
            });
            if text.starts_with(|c: char| c == '-' || c.is_ascii_digit()) {
                assert_number_matches_std(&text);
            }
        }

        /// Anything over the number alphabet: the same grammar is accepted
        /// and the same refused, wherever the text breaks off.
        #[test]
        fn number_grammar_is_std_s(symbols in proptest::collection::vec(0usize..15, 1..12)) {
            let text: String = symbols.iter().map(|&s| char::from(b"0123456789.eE+-"[s])).collect();
            if text.starts_with(|c: char| c == '-' || c.is_ascii_digit()) {
                assert_number_matches_std(&text);
            }
        }
    }

    #[test]
    fn scan_locates_members_without_decoding_them() {
        let doc = " {\t\"series\" : [ [1, 2.5e0] ,[ ] , [\"]\", {\"}\": [1,2,3]}] ] ,\r
            \"na\\u006de\": \"a\\\"]}\\u005d\\\\\" , \"type\":\"insert\",\"timestamp\" :7, \"deep\": {\"series\":[1]},\"none\":null } ";
        let members = scan_object(doc).unwrap();
        let keys: Vec<&str> = members.iter().map(|m| m.key.as_str()).collect();
        assert_eq!(
            keys,
            ["series", "name", "type", "timestamp", "deep", "none"]
        );
        assert_eq!(
            members[0].raw,
            "[ [1, 2.5e0] ,[ ] , [\"]\", {\"}\": [1,2,3]}] ]"
        );
        assert_eq!(members[0].elements, Some(3));
        assert_eq!(members[1].raw, "\"a\\\"]}\\u005d\\\\\"");
        assert_eq!(members[1].decode::<String>().unwrap(), "a\"]}]\\");
        assert_eq!(members[2].decode::<String>().unwrap(), "insert");
        assert_eq!(members[3].decode::<u64>().unwrap(), 7);
        assert_eq!(
            (members[4].raw, members[4].elements),
            ("{\"series\":[1]}", None)
        );
        assert_eq!(members[5].raw, "null");
        // Every span is the member's value, nothing more and nothing less.
        let full = Json::parse(doc).unwrap();
        for member in &members {
            assert_eq!(
                full.get(&member.key),
                Some(&Json::parse(member.raw).unwrap())
            );
        }
        assert_eq!(scan_object("{}").unwrap(), vec![]);
    }

    #[test]
    fn scan_accepts_exactly_the_objects_parse_accepts() {
        let whole = r#"{"type":"insert","name":"s","series":[[1,2],[3,4]],"timestamp":1}"#;
        // Every truncation of a frame, and the frame with a tail.
        let mut docs: Vec<String> = (0..whole.len())
            .map(|cut| whole[..cut].to_string())
            .collect();
        for tail in ["}", "x", ",", "{}", " 1", "\u{0}"] {
            docs.push(format!("{whole}{tail}"));
        }
        for doc in [
            r#"[{"type":"insert"}]"#,
            r#""insert""#,
            "7",
            "null",
            r#"{"a":1,}"#,
            r#"{"a" 1}"#,
            r#"{a:1}"#,
            r#"{"a":[1,]}"#,
            r#"{"a":[1 2]}"#,
            r#"{"a":{"b":[}]}"#,
            r#"{"a":1e}"#,
            r#"{"a":-}"#,
            r#"{"a":01.5}"#,
            r#"{"a":"\x"}"#,
            r#"{"a":"\ud801"}"#,
            r#"{"a":tru}"#,
            r#"{"a":[[[[[[1]]]]]],"b":{"c":{"d":[{}]}}}"#,
            "{\"a\":\"\n\"}",
        ] {
            docs.push(doc.to_string());
        }
        for doc in &docs {
            let parsed = matches!(Json::parse(doc), Ok(Json::Obj(_)));
            assert_eq!(scan_object(doc).is_ok(), parsed, "{doc:?}");
        }
        assert!(scan_object(whole).is_ok());
    }

    /// The capacity of every array in `json`, outermost first.
    fn array_capacities(json: &Json, out: &mut Vec<usize>) {
        match json {
            Json::Arr(items) => {
                out.push(items.capacity());
                items.iter().for_each(|item| array_capacities(item, out));
            }
            Json::Obj(members) => members.iter().for_each(|(_, v)| array_capacities(v, out)),
            _ => {}
        }
    }

    #[test]
    fn array_capacity_follows_siblings_not_the_sender() {
        // Rows of a matrix: every row after the first starts at its size.
        let mut caps = Vec::new();
        array_capacities(
            &Json::parse("[[1,2,3,4,5],[1,2,3,4,5],[1,2,3,4,5]]").unwrap(),
            &mut caps,
        );
        assert_eq!(caps[2..], [5, 5]);
        // A big array makes nothing after it big: its next sibling gets no
        // more than the input that is left could fill, and neither what
        // nests inside that sibling nor any later array inherits a thing.
        let big = 10_000;
        let zeros = vec!["0"; big].join(",");
        let nest = format!("{}1{}", "[".repeat(200), "]".repeat(200));
        let doc = format!("[[{zeros}],{nest},[2],{{\"k\":{nest}}}]");
        let mut caps = Vec::new();
        array_capacities(&Json::parse(&doc).unwrap(), &mut caps);
        assert_eq!(caps.len(), 2 + 200 + 1 + 200);
        assert!(caps[1] >= big);
        assert!(caps[2] <= (doc.len() - zeros.len()) / 2, "{}", caps[2]);
        assert!(caps[3..].iter().all(|&c| c <= 4), "{:?}", &caps[3..]);
    }

    #[test]
    fn vec_conversions() {
        let v = vec![1.5f64, 2.0, -3.0];
        let j = v.to_json();
        assert_eq!(Vec::<f64>::from_json(&j).unwrap(), v);
    }
}
