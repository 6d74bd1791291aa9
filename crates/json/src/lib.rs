//! # coconut-json
//!
//! A small dependency-free JSON layer.  The algorithms-server protocol
//! ([Section 4 of the paper]: the GUI client exchanges JSON with the back
//! end), the recommender output and the benchmark reports all serialize
//! through this crate; the build environment has no crates.io access, so
//! serde is not available.
//!
//! The surface is deliberately tiny: a [`Json`] value enum, a recursive
//! descent [`Json::parse`], compact and pretty writers, the [`ToJson`] /
//! [`FromJson`] conversion traits, and [`wire!`], the declarative codec
//! that derives both for every record of the palm protocol.
//!
//! One [`Reader`] walks the grammar for [`Json::parse`], for the scans that
//! leave values as text for a router ([`scan_object`], [`scan_array`]), and
//! for [`FromJson::read`], which decodes straight from it: a 128 x 256
//! insert frame is 32,768 numbers, whose [`Json::Num`] nodes cost more than
//! parsing them.
//!
//! A large array of arrays (an insert's rows, past [`SPLIT_MIN_BYTES`]) is
//! read on every core: it is cut at row boundaries and each part runs the
//! one element loop the whole array would have run, so counts, values and
//! refusals are the one-thread walk's.  If a part does not end where that
//! walk would have passed, the array is walked again on one thread.
//!
//! Arrays and objects nest at most [`MAX_DEPTH`] deep in every entry: the
//! parser recurses once per level, and a frame of ~100k `[` would overflow
//! the stack of the connection thread that parses it.
//!
//! Object members preserve insertion order so emitted documents are stable
//! across runs (important for byte-comparing benchmark reports).

use std::fmt::Write as _;

pub mod wire;

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
        let mut p = Reader::with_threads(input, 1);
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
    /// Decodes the value, its error worded as a record member's (`field
    /// '…': …`).
    pub fn field<T: FromJson>(&self) -> Result<T> {
        T::from_text(self.raw).map_err(|e| wire::in_field(&self.key, e))
    }
}

/// The first member called `key` of a scanned envelope: the one
/// [`Json::get`] finds in the parsed object.
pub fn find_member<'m, 'a>(members: &'m [RawMember<'a>], key: &str) -> Option<&'m RawMember<'a>> {
    members.iter().find(|m| m.key == key)
}

/// [`find_member`] for a required member: its absence is refused as a
/// record's is (`missing field '…'`).
pub fn require_member<'m, 'a>(
    members: &'m [RawMember<'a>],
    key: &str,
) -> Result<&'m RawMember<'a>> {
    find_member(members, key).ok_or_else(|| wire::missing(key))
}

/// Scans the envelope of a request: validates that `input` is one JSON
/// object, by the very grammar [`Json::parse`] accepts, and returns its
/// top-level members in document order with their values left as text.
/// Nothing below the top level is built, so a router can read the few small
/// members it needs and forward a large one byte for byte.
///
/// A large array of arrays (an insert's `series`) is validated on several
/// threads: see [`SPLIT_MIN_BYTES`].
pub fn scan_object(input: &str) -> Result<Vec<RawMember<'_>>> {
    scan_split(input, cores())
}

/// [`scan_object`], its array split across up to `threads` threads.
fn scan_split(input: &str, threads: usize) -> Result<Vec<RawMember<'_>>> {
    let mut p = Reader::with_threads(input, threads);
    p.skip_ws();
    let mut members = Vec::new();
    p.members(|p, key| {
        let start = p.pos;
        let elements = match p.split(|p, (): &mut ()| p.skip_value().map(drop)) {
            Some((count, _)) => Some(count),
            None => p.skip_value()?,
        };
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

/// Scans an array as [`scan_object`] scans an object: validates that
/// `input` is one JSON array, by the grammar [`Json::parse`] accepts, and
/// returns its elements in order, each exactly as the input spells it,
/// without the whitespace around it.
pub fn scan_array(input: &str) -> Result<Vec<&str>> {
    let mut p = Reader::with_threads(input, 1);
    p.skip_ws();
    let mut elements = Vec::new();
    p.elements(|p| {
        let start = p.pos;
        p.skip_value()?;
        elements.push(&input[start..p.pos]);
        Ok(())
    })?;
    p.end()?;
    Ok(elements)
}

/// The smallest array [`scan_object`] and [`FromJson::read`] split across
/// threads, measured from its `[` to the end of the input.  Only an array
/// of arrays is split (an insert's `series`: 354 KB for 128 rows of 256
/// values), and at most one per document: the first one the walk meets.
///
/// It is cut into `min(available_parallelism, len / SPLIT_MIN_BYTES)`
/// parts, each at the first `],[` within half this size past an even
/// share, and every part runs the element loop the whole array runs, on a
/// thread of its own.  A part other than the last sees the input only up
/// to its cut and must stop on the cut's `,`; the last must close the
/// array.  Then the one-thread loop would have taken the same steps over
/// the same bytes, so counts and values are its own.  Any other outcome (a
/// cut inside a string or a deeper array, a bad element, no `],[` in a
/// window) parses the array again on one thread, which also words the
/// refusal.  Below this size a thread's start (tens of microseconds) is not
/// paid back by lexing at about 2 ns a byte.
pub const SPLIT_MIN_BYTES: usize = 64 << 10;

/// How far past an even share [`SPLIT_MIN_BYTES`]'s cut is looked for: many
/// rows, and at most half a share, so that cuts come in order.
const CUT_WINDOW: usize = SPLIT_MIN_BYTES / 2;

/// The threads a split array may be parsed on: the machine's.
fn cores() -> usize {
    static CORES: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, usize::from))
}

/// Where [`Reader::split`] cuts the array of `len` bytes opening at `open`
/// into `parts`: the start of each part, the array's `[` and then the `[`
/// after each cut's `,`.  `None` where a window holds no `],[`.
fn cuts(bytes: &[u8], open: usize, len: usize, parts: usize) -> Option<Vec<usize>> {
    let mut starts = vec![open];
    for i in 1..parts {
        let from = open + len * i / parts;
        let window = &bytes[from..bytes.len().min(from + CUT_WINDOW)];
        starts.push(from + window.windows(3).position(|w| w == b"],[")? + 2);
    }
    Some(starts)
}

/// How deep arrays and objects may nest.  A palm frame nests five levels
/// (an insert's rows inside a batch); a deeper document is refused, as
/// `nesting deeper than 64 levels`, before the parser recurses past it.
pub const MAX_DEPTH: usize = 64;

/// The one reader of the grammar: [`Json::parse`], the scans and every
/// [`FromJson::read`] walk the input with it.
#[derive(Default)]
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open at [`Reader::pos`].
    depth: usize,
    /// Length of the array completed last, zero again once another is
    /// entered: the capacity the next array starts with.  Rows of a matrix
    /// are siblings of equal length, so every row after the first is
    /// allocated once, at its final size.
    array_hint: usize,
    /// The threads [`Reader::split`] may cut its next array for; 1 (no
    /// split) once one array has been tried, so a frame of many arrays pays
    /// for at most one split that falls back.
    split_threads: usize,
    /// The key [`Reader::keep`] asked for, and where its value is.
    keep: Option<&'static str>,
    kept: Option<std::ops::Range<usize>>,
}

impl<'a> Reader<'a> {
    /// A reader of `input` that splits across the machine's cores.
    pub fn new(input: &'a str) -> Self {
        Reader::with_threads(input, cores())
    }

    /// A reader of `input` that splits across at most `threads` threads.
    pub fn with_threads(input: &'a str, threads: usize) -> Self {
        Reader {
            bytes: input.as_bytes(),
            split_threads: threads,
            ..Reader::default()
        }
    }

    /// Reads the input as one `T`, then nothing but whitespace.  The outer
    /// error is the grammar's: a syntax error anywhere wins over a value
    /// that does not decode, the inner error.
    pub fn document<T: FromJson>(&mut self) -> Result<Result<T>> {
        self.skip_ws();
        let mut value = None;
        self.claim(&mut value)?;
        self.end()?;
        Ok(value.expect("an empty slot is claimed"))
    }

    /// Remembers the first member called `key` of the top-level object, in
    /// whichever walk passes it.
    pub fn keep(&mut self, key: &'static str) {
        self.keep = Some(key);
    }

    /// That member's value, as the input spells it.
    pub fn kept(&self) -> Option<&'a str> {
        let bytes = &self.bytes[self.kept.clone()?];
        Some(std::str::from_utf8(bytes).expect("a value is whole UTF-8"))
    }

    /// Walks the object at the reader for a record: `claim` reads the value
    /// of each key it claims ([`Reader::claim`]); the rest are only checked.
    /// A value that is not an object is checked and has no members.  The
    /// error is the grammar's.
    pub fn fields(&mut self, mut claim: impl FnMut(&mut Self, &str) -> Result<bool>) -> Result<()> {
        if self.peek() != Some(b'{') {
            return self.skip_value().map(drop);
        }
        self.members(|p, key| match claim(p, &key)? {
            true => Ok(()),
            false => p.skip_value().map(drop),
        })
    }

    /// Reads the value at the reader into `slot` unless the slot is full (a
    /// member read before): whether it did.  A value that does not decode
    /// leaves its refusal in the slot and is walked again from its start, so
    /// the walk goes on and a syntax error, in it or after it, still wins.
    /// The error is the grammar's.
    pub fn claim<T: FromJson>(&mut self, slot: &mut Option<Result<T>>) -> Result<bool> {
        if slot.is_some() {
            return Ok(false);
        }
        let start = (self.pos, self.depth);
        let value = T::read(self);
        if value.is_err() {
            (self.pos, self.depth) = start;
            self.skip_value()?;
        }
        *slot = Some(value);
        Ok(true)
    }

    /// The first member called `key` of the object at the reader, as
    /// [`Reader::claim`] reads it.  The walk stops there and the reader is
    /// left where it was.
    pub fn find<T: FromJson>(&mut self, key: &str) -> Result<Option<Result<T>>> {
        let (start, mut slot) = ((self.pos, self.depth), None);
        let walked = match self.peek() {
            // Cut short by an error once the member is read.
            Some(b'{') => self.members(|p, name| match name == key {
                true => p.claim(&mut slot).and(Err(JsonError::new("found"))),
                false => p.skip_value().map(drop),
            }),
            _ => Ok(()),
        };
        (self.pos, self.depth) = start;
        walked.or_else(|e| if slot.is_some() { Ok(()) } else { Err(e) })?;
        Ok(slot)
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

    fn literal(&mut self, word: &str) -> Result<()> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(())
        } else {
            Err(JsonError::new(format!(
                "invalid literal at offset {}",
                self.pos
            )))
        }
    }

    fn value(&mut self) -> Result<Json> {
        match self.peek() {
            Some(b'n') => self.literal("null").map(|()| Json::Null),
            Some(b't') => self.literal("true").map(|()| Json::Bool(true)),
            Some(b'f') => self.literal("false").map(|()| Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(Self::value).map(Json::Arr),
            Some(b'{') => self.object(),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number().map(Json::Num),
            _ => Err(JsonError::new(format!(
                "unexpected character at offset {}",
                self.pos
            ))),
        }
    }

    /// The array at the reader, each element read by `element`.
    fn array<T>(&mut self, mut element: impl FnMut(&mut Self) -> Result<T>) -> Result<Vec<T>> {
        // The hint is for siblings only: what nests inside starts from zero,
        // and n elements take at least 2n - 1 bytes of the input that is left,
        // so the sender cannot make this reserve more than it goes on to send.
        let hint = std::mem::take(&mut self.array_hint).min((self.bytes.len() - self.pos) / 2);
        let mut items = Vec::new();
        let count = self.elements(|p| {
            if items.is_empty() {
                items.reserve_exact(hint);
            }
            items.push(element(p)?);
            Ok(())
        })?;
        self.array_hint = count;
        Ok(items)
    }

    /// Walks an array, calling `element` with the parser at the first byte of
    /// each element, which it consumes; returns how many there were.
    fn elements(&mut self, element: impl FnMut(&mut Self) -> Result<()>) -> Result<usize> {
        self.expect(b'[')?;
        self.nest()?;
        self.skip_ws();
        let count = if self.peek() == Some(b']') {
            self.pos += 1;
            0
        } else {
            self.elements_until(usize::MAX, element)?
        };
        self.depth -= 1;
        Ok(count)
    }

    /// Enters an array or object: refused past [`MAX_DEPTH`].
    fn nest(&mut self) -> Result<()> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(JsonError::new(format!(
                "nesting deeper than {MAX_DEPTH} levels"
            )));
        }
        Ok(())
    }

    /// The loop of [`Reader::elements`], from the start of an element: until
    /// the array's `]` is consumed, or a `,` whose consumption leaves the
    /// parser at `stop` (which a `]` cannot: a split's cut is `],[`).
    fn elements_until(
        &mut self,
        stop: usize,
        mut element: impl FnMut(&mut Self) -> Result<()>,
    ) -> Result<usize> {
        let mut count = 0;
        loop {
            self.skip_ws();
            element(self)?;
            count += 1;
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                    if self.pos == stop {
                        return Ok(count);
                    }
                }
                Some(b']') => {
                    self.pos += 1;
                    return Ok(count);
                }
                _ => return Err(JsonError::new(format!("bad array at offset {}", self.pos))),
            }
        }
    }

    /// Walks the array of arrays at the reader in parts, a thread each, as
    /// [`SPLIT_MIN_BYTES`] describes; each part hands its elements to
    /// `element` with an accumulator of its own.  The element count and the
    /// parts' accumulators in order, the reader past the array; `None`, the
    /// reader unmoved, where the array is not split or a part fails, and
    /// the caller walks it on one thread.
    fn split<T: Default + Send>(
        &mut self,
        element: impl Fn(&mut Reader<'a>, &mut T) -> Result<()> + Sync,
    ) -> Option<(usize, Vec<T>)> {
        let (bytes, open) = (self.bytes, self.pos);
        let len = bytes.len() - open;
        let parts = self.split_threads.min(len / SPLIT_MIN_BYTES);
        if parts < 2 || bytes[open] != b'[' {
            return None;
        }
        let inner = bytes[open + 1..].iter().find(|b| !b" \t\n\r".contains(b));
        if inner != Some(&b'[') {
            return None;
        }
        self.split_threads = 1;
        let depth = self.depth;
        let starts = cuts(bytes, open, len, parts)?;
        let part = |i: usize| {
            // Every part but the last sees the input up to the next part.
            let end = starts.get(i + 1).copied();
            let mut p = Reader {
                bytes: &bytes[..end.unwrap_or(bytes.len())],
                // The first part starts past the array's `[`.
                pos: starts[i] + usize::from(i == 0),
                // Inside the array, as the one-thread walk would be.
                depth: depth + 1,
                ..Reader::default()
            };
            let mut parsed = T::default();
            let stop = end.unwrap_or(usize::MAX);
            let count = p.elements_until(stop, |p| element(p, &mut parsed)).ok()?;
            (end.is_none() || p.pos == stop).then_some((count, parsed, p.pos))
        };
        let part = &part;
        let done: Vec<_> = std::thread::scope(|scope| {
            let spawned: Vec<_> = (1..parts)
                .map(|i| std::thread::Builder::new().spawn_scoped(scope, move || part(i)))
                .collect();
            let first = part(0);
            // A part no thread could be started for runs here.
            let rest = spawned
                .into_iter()
                .zip(1..)
                .map(|(thread, i)| match thread {
                    Ok(thread) => thread
                        .join()
                        .unwrap_or_else(|panic| std::panic::resume_unwind(panic)),
                    Err(_) => part(i),
                });
            std::iter::once(first).chain(rest).collect::<Option<_>>()
        })?;
        let mut count = 0;
        let mut parsed = Vec::with_capacity(parts);
        for (n, part, end) in done {
            count += n;
            parsed.push(part);
            self.pos = end;
        }
        Some((count, parsed))
    }

    /// A number; any other value is refused as not one.  Only what opens a
    /// number in [`Reader::value`] is taken for one.
    fn number_value(&mut self) -> Result<f64> {
        match self.peek() {
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(JsonError::new("expected a number")),
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

    /// Walks an object, handing each key to `member` with the reader at the
    /// first byte of the member's value; `member` consumes the value.
    fn members(&mut self, mut member: impl FnMut(&mut Self, String) -> Result<()>) -> Result<()> {
        self.expect(b'{')?;
        self.nest()?;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let (start, keep) = (self.pos, self.depth == 1 && self.keep == Some(&*key));
            member(self, key)?;
            if keep && self.kept.is_none() {
                self.kept = Some(start..self.pos);
            }
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(());
                }
                _ => return Err(JsonError::new(format!("bad object at offset {}", self.pos))),
            }
        }
    }

    /// Validates one value without building it; the element count when it
    /// is an array.  Strings and number grammar go through the decoding
    /// routines, so the grammar accepted is [`Json::parse`]'s by
    /// construction; a number's value is not computed.
    fn skip_value(&mut self) -> Result<Option<usize>> {
        match self.peek() {
            Some(b'[') => self.elements(|p| p.skip_value().map(drop)).map(Some),
            Some(b'{') => self.members(|p, _| p.skip_value().map(drop)).map(|()| None),
            Some(b'-' | b'0'..=b'9') => self.number_parts().map(|_| None),
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
        let (negative, mantissa, mantissa_digits, exp10) = self.number_parts()?;
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
        text.parse::<f64>()
            .map_err(|_| JsonError::new(format!("invalid number at offset {start}")))
    }

    /// Scans past a number, checking its grammar (see [`Reader::number`]):
    /// its sign, its mantissa digits folded (wrapping) and counted, and its
    /// power of ten.  Every number it accepts has a value, so a scan that
    /// only validates stops here.  Inlined, so the decoder pays nothing for
    /// the split.
    #[inline(always)]
    fn number_parts(&mut self) -> Result<(bool, u64, usize, i64)> {
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
        Ok((negative, mantissa, mantissa_digits, exp10))
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
    /// Reads the value at the reader, all of its grammar checked, and moves
    /// past it.  After a refusal the reader stands anywhere in the value: a
    /// walk that goes on starts it again ([`Reader::claim`]).
    fn read(p: &mut Reader<'_>) -> Result<Self>;

    /// Reads a whole document: [`FromJson::read`], then nothing but
    /// whitespace.  A syntax error anywhere wins over a decode error.
    fn from_text(text: &str) -> Result<Self> {
        Reader::new(text).document().and_then(|read| read)
    }

    /// Reads a value from a tree: [`FromJson::from_text`] of its printed
    /// text, where `-0` prints as `0` and a non-finite number as `null`.
    fn from_json(json: &Json) -> Result<Self> {
        Self::from_text(&json.to_string())
    }
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
    fn read(p: &mut Reader<'_>) -> Result<bool> {
        match p.peek() {
            Some(b't') => p.literal("true").map(|()| true),
            Some(b'f') => p.literal("false").map(|()| false),
            _ => Err(JsonError::new("expected a boolean")),
        }
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
    fn read(p: &mut Reader<'_>) -> Result<String> {
        match p.peek() {
            Some(b'"') => p.string(),
            _ => Err(JsonError::new("expected a string")),
        }
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
            fn read(p: &mut Reader<'_>) -> Result<$t> {
                let n = p.number_value()?;
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
            fn read(p: &mut Reader<'_>) -> Result<$t> {
                p.number_value().map(|n| n as $t)
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

/// `null`, or a `T`.
impl<T: FromJson> FromJson for Option<T> {
    fn read(p: &mut Reader<'_>) -> Result<Option<T>> {
        match p.peek() {
            Some(b'n') => p.literal("null").map(|()| None),
            _ => T::read(p).map(Some),
        }
    }
}

/// An array, its elements read in order; a large array of arrays on every
/// core (see [`SPLIT_MIN_BYTES`]).
impl<T: FromJson + Send> FromJson for Vec<T> {
    fn read(p: &mut Reader<'_>) -> Result<Vec<T>> {
        if p.peek() != Some(b'[') {
            return Err(JsonError::new("expected an array"));
        }
        match p.split(|p, part: &mut Vec<T>| T::read(p).map(|item| part.push(item))) {
            Some((_, parts)) => Ok(parts.into_iter().flatten().collect()),
            None => p.array(T::read),
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

    crate::wire! {
        /// A record of rows, as an insert's `series` is read.
        #[derive(Debug)]
        struct Rows {
            series: Vec<Vec<f32>>,
        }
    }

    /// Every entry refuses one level past `MAX_DEPTH` with the same text,
    /// and accepts `MAX_DEPTH` itself; so does a split array whose last row
    /// nests too deep.
    #[test]
    fn nesting_is_limited_in_every_entry() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        let refusal = "nesting deeper than 64 levels";
        let deep = format!(r#"{{"a":{}}}"#, nested(MAX_DEPTH));
        assert_eq!(Json::parse(&deep).unwrap_err().message, refusal);
        assert_eq!(scan_object(&deep).unwrap_err().message, refusal);
        assert_eq!(
            scan_array(&nested(MAX_DEPTH + 1)).unwrap_err().message,
            refusal
        );
        assert_eq!(String::from_text(&deep).unwrap_err().message, refusal);
        let flood = "[".repeat(100_000);
        assert_eq!(Json::parse(&flood).unwrap_err().message, refusal);
        let flood_rows = format!(r#"{{"series":{flood}}}"#);
        assert_eq!(Rows::from_text(&flood_rows).unwrap_err().message, refusal);
        let deepest = format!(r#"{{"a":{}}}"#, nested(MAX_DEPTH - 1));
        assert!(Json::parse(&deepest).is_ok());
        assert!(scan_object(&deepest).is_ok());
        assert_eq!(
            u64::from_text(&deepest).unwrap_err().message,
            "expected a number"
        );

        let rows = vec!["[1,2]"; SPLIT_MIN_BYTES / 2];
        let split = |last: &str| format!(r#"{{"series":[{},{last}]}}"#, rows.join(","));
        // The rows sit two levels down, inside the object and the array.
        for (last, ok) in [
            (nested(MAX_DEPTH - 2), true),
            (nested(MAX_DEPTH - 1), false),
        ] {
            let doc = split(&last);
            let refused = scan_split(&doc, 4).err().map(|e| e.message);
            assert_eq!(refused.as_deref(), (!ok).then_some(refusal));
            assert_eq!(Json::parse(&doc).is_ok(), ok);
            let read = Reader::with_threads(&doc, 4).document::<Rows>();
            let refused = read.as_ref().err().map(|e| e.message.as_str());
            assert_eq!(refused, (!ok).then_some(refusal));
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

    crate::wire! {
        #[derive(Debug, PartialEq)]
        struct Helpers {
            k: u64,
            absent: u64 = 9,
        }
    }

    #[test]
    fn member_helpers() {
        let v = Helpers::from_text(r#"{"k":5,"s":"x"}"#).unwrap();
        assert_eq!(v.k, 5);
        assert_eq!(v.absent, 9);
        assert_eq!(
            Helpers::from_text(r#"{"k":"x"}"#).unwrap_err().message,
            "field 'k': expected a number"
        );
        assert_eq!(
            Helpers::from_text(r#"{"absent":5}"#).unwrap_err().message,
            "missing field 'k'"
        );
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
        // Floating-point types stay permissive.
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
        assert_eq!(String::from_text(members[1].raw).unwrap(), "a\"]}]\\");
        assert_eq!(String::from_text(members[2].raw).unwrap(), "insert");
        assert_eq!(u64::from_text(members[3].raw).unwrap(), 7);
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
        // And `scan_array` exactly the arrays.
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
        let batch = format!(r#" [ {whole} ,{{"type":"stats"}},[1, [2]] , "]" ,7]"#);
        docs.extend((0..batch.len()).map(|cut| batch[..cut].to_string()));
        for tail in ["]", "x", ","] {
            docs.push(format!("{batch}{tail}"));
        }
        for doc in [
            "[]",
            " [ ] ",
            "[1,]",
            "[,1]",
            "[1 2]",
            "[[]",
            "[]]",
            "[\"\\x\"]",
        ] {
            docs.push(doc.to_string());
        }
        for doc in &docs {
            let parsed = Json::parse(doc);
            let object = matches!(parsed, Ok(Json::Obj(_)));
            assert_eq!(scan_object(doc).is_ok(), object, "{doc:?}");
            let array = matches!(parsed, Ok(Json::Arr(_)));
            assert_eq!(scan_array(doc).is_ok(), array, "{doc:?}");
        }
        assert!(scan_object(whole).is_ok());
        // Every span is its element, nothing more and nothing less.
        let elements = scan_array(&batch).unwrap();
        assert_eq!(
            elements[1..],
            [r#"{"type":"stats"}"#, "[1, [2]]", "\"]\"", "7"]
        );
        let Ok(Json::Arr(items)) = Json::parse(&batch) else {
            panic!("the batch parses");
        };
        for (element, item) in elements.iter().zip(&items) {
            assert_eq!(&Json::parse(element).unwrap(), item);
        }
        assert_eq!(elements.len(), items.len());
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
        // As deep as `MAX_DEPTH` lets a nest inside the outer array and an
        // object go.
        let nest = format!("{}1{}", "[".repeat(60), "]".repeat(60));
        let doc = format!("[[{zeros}],{nest},[2],{{\"k\":{nest}}}]");
        let mut caps = Vec::new();
        array_capacities(&Json::parse(&doc).unwrap(), &mut caps);
        assert_eq!(caps.len(), 2 + 60 + 1 + 60);
        assert!(caps[1] >= big);
        assert!(caps[2] <= (doc.len() - zeros.len()) / 2, "{}", caps[2]);
        assert!(caps[3..].iter().all(|&c| c <= 4), "{:?}", &caps[3..]);
    }

    /// What [`Rows`] must read: the full parse, its first `series` member
    /// converted by hand, worded as the codec words a refusal.  The shape
    /// and the bits of the rows: `-0` is not `0`.
    fn rows_by_the_tree(doc: &str) -> Result<Result<Vec<Vec<u32>>>> {
        let tree = Json::parse(doc)?;
        let Some(series) = tree.get("series") else {
            return Ok(Err(wire::missing("series")));
        };
        fn array(json: &Json) -> Result<&[Json]> {
            json.as_arr()
                .ok_or_else(|| JsonError::new("expected an array"))
        }
        let number = |json: &Json| {
            json.as_f64()
                .ok_or_else(|| JsonError::new("expected a number"))
        };
        let row = |r| {
            array(r)?
                .iter()
                .map(|v| Ok((number(v)? as f32).to_bits()))
                .collect()
        };
        let rows = array(series).and_then(|rows| rows.iter().map(row).collect());
        Ok(rows.map_err(|e| wire::in_field("series", e)))
    }

    /// [`Rows`] read on up to `threads` threads, as [`rows_by_the_tree`]
    /// answers.
    fn rows_read(doc: &str, threads: usize) -> Result<Result<Vec<Vec<u32>>>> {
        let read = Reader::with_threads(doc, threads).document::<Rows>()?;
        let bits = |r: &Vec<f32>| r.iter().map(|v| v.to_bits()).collect();
        Ok(read.map(|rows| rows.series.iter().map(bits).collect()))
    }

    #[test]
    fn rows_read_agree_with_the_tree() {
        let whole = r#"{"type":"insert","name":"s","series":[[1,-2.5e0],[3,4]],"timestamp":1}"#;
        let mut docs: Vec<String> = (0..=whole.len())
            .map(|cut| whole[..cut].to_string())
            .collect();
        for tail in ["}", "x", ",", " ", "\"", "[1]"] {
            docs.push(format!("{whole}{tail}"));
        }
        for series in [
            "[]",
            "[[]]",
            "[[],[]]",
            "[1,2,3]",
            "[[1,\"x\"]]",
            "[[1],2]",
            "[1,[2]]",
            "[[1,[2]]]",
            "[[1,null]]",
            "[{}]",
            "[.5]",
            "[[+1]]",
            "[[-]]",
            "[[1e39,-0,4.9e-324,1234567890123456789012345]]",
            "[ [ 1 , 2 ] , [ 3 ] ]",
            "[[1,],[2]]",
            "[[1] [2]]",
            "\"x\"",
            "null",
            "{}",
        ] {
            docs.push(format!(r#"{{"type":"insert","series":{series},"k":1}}"#));
            docs.push(format!(r#"{{"series":{series},"series":[[7]]}}"#));
            docs.push(format!(r#"{{"series":[[7]],"series":{series}}}"#));
            docs.push(format!(r#"{{"series":{series},"after":[1,}}"#));
        }
        docs.push(r#"[{"series":[[1]]}]"#.to_string());
        docs.push(r#"{"other":[[1]]}"#.to_string());
        docs.push(r#"{"deep":{"series":[[1]]}}"#.to_string());
        for doc in &docs {
            let expected = rows_by_the_tree(doc);
            assert_eq!(rows_read(doc, 1), expected, "{doc:?}");
            assert_eq!(rows_read(doc, 4), expected, "{doc:?}");
        }
    }

    /// An insert frame whose `series` is `bytes` or a little more of rows of
    /// `row_len` numbers, spelled every way the grammar allows, from `seed`.
    fn rows_frame(seed: u64, row_len: usize, bytes: usize) -> String {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut series = String::from("[");
        while series.len() < bytes {
            if series.len() > 1 {
                series.push(',');
            }
            let values: Vec<String> = (0..row_len)
                .map(|_| {
                    let r = next();
                    let v = (r >> 12) as f64 / (1u64 << 40) as f64 - 2.0;
                    match r % 8 {
                        0 => format!("{}", (v * 1e3).round()),
                        1 => format!("{v:e}"),
                        2 => format!("{:E}", v * 1e-30),
                        3 => "-0".to_string(),
                        4 => format!("{:.20}", v),
                        _ => format!("{}", (v * 1024.0).round() / 1024.0),
                    }
                })
                .collect();
            series.push_str(&format!("[{}]", values.join(",")));
        }
        series.push(']');
        format!(r#"{{"type":"insert","name":"s","series":{series},"timestamp":1}}"#)
    }

    /// The `series` array's `[` in a [`rows_frame`], and where a split into
    /// `threads` parts would start each part.
    fn series_cuts(doc: &str, threads: usize) -> (usize, Vec<usize>) {
        let open = doc.find("\"series\":").unwrap() + 9;
        let len = doc.len() - open;
        let parts = threads.min(len / SPLIT_MIN_BYTES).max(2);
        (open, cuts(doc.as_bytes(), open, len, parts).unwrap())
    }

    /// The byte range of the first element that starts after `at`.
    fn number_after(doc: &str, at: usize) -> std::ops::Range<usize> {
        let start = at + doc[at..].find([',', '[']).unwrap() + 1;
        let end = start + doc[start..].find([',', ']']).unwrap();
        start..end
    }

    /// Splitting is invisible: [`scan_object`] and a read of the rows on up
    /// to `threads` threads return what they return on one: counts, float
    /// bits and refusals.
    fn assert_split_is_exact(doc: &str, threads: usize) {
        assert_eq!(
            scan_split(doc, threads),
            scan_split(doc, 1),
            "{threads} threads"
        );
        assert_eq!(
            rows_read(doc, threads),
            rows_read(doc, 1),
            "{threads} threads"
        );
    }

    #[test]
    fn split_engages_on_large_arrays_of_arrays_only() {
        let doc = rows_frame(7, 256, 350_000);
        let (open, starts) = series_cuts(&doc, 4);
        assert_eq!(starts.len(), 4);
        let walked = |doc: &str, threads: usize| {
            let mut p = Reader::with_threads(doc, threads);
            p.pos = open;
            let split = p.split(|p, (): &mut ()| p.skip_value().map(drop));
            (
                split.map(|(count, _)| count),
                p.pos,
                p.split(|_, (): &mut ()| Ok(())),
            )
        };
        let mut whole = Reader::with_threads(&doc, 1);
        whole.pos = open;
        let count = whole.elements(|p| p.skip_value().map(drop)).unwrap();
        // It engages, counts every row, ends where one thread ends, and
        // does not engage twice in one document.
        assert_eq!(walked(&doc, 4), (Some(count), whole.pos, None));
        assert_eq!(walked(&doc, 2).0, Some(count));
        // Not on one thread, not under the size, not on numbers, not when
        // a cut lands in a string.
        assert_eq!(walked(&doc, 1).0, None);
        let small = rows_frame(7, 256, SPLIT_MIN_BYTES - 1000);
        assert_eq!(walked(&small, 4).0, None);
        let flat = doc.replace("],[", ",");
        assert_eq!(walked(&flat, 4).0, None);
        let mut cut = doc.clone();
        let at = number_after(&doc, starts[1] - 100);
        cut.replace_range(at, "\"],[\"");
        assert_eq!(walked(&cut, 4).0, None);
        assert_split_is_exact(&doc, 4);
        assert_split_is_exact(&cut, 4);
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]

        /// Frames of 64-300 KiB of rows, each with one mutation placed in
        /// the first part, in the last part or on a cut, split into up to
        /// four parts: values, counts and float bits equal the one-thread
        /// walk's, and so does every refusal's text.
        #[test]
        fn split_walk_equals_the_one_thread_walk(
            seed in 0u64..u64::MAX,
            row_len in 4usize..400,
            kib in 64usize..300,
            threads in 2usize..5,
            mutation in 0usize..6,
            place in 0usize..3,
        ) {
            let mut doc = rows_frame(seed, row_len, kib << 10);
            let (open, starts) = series_cuts(&doc, threads);
            let last = *starts.last().unwrap();
            // The first part, the last part, the first cut.
            let at = [open + (starts[1] - open) / 2, last + (doc.len() - last) / 2, starts[1] - 2][place];
            match mutation {
                0 if place == 2 => {
                    let number = number_after(&doc, doc[..at].rfind(['[', ',']).unwrap());
                    doc.replace_range(number, "1e+");
                }
                0 => doc.replace_range(number_after(&doc, at), "-"),
                1 | 2 => {
                    // On the cut: before it in its row, so the cut moves in.
                    let from = if place == 2 { doc[..at].rfind(['[', ',']).unwrap() } else { at };
                    let inner = if mutation == 1 { "\"],[\"" } else { "[[1],[2]]" };
                    doc.replace_range(number_after(&doc, from), inner);
                }
                3 => {
                    let cut = at + doc[at..].find("],[").unwrap();
                    doc.replace_range(cut..cut + 3, "] , [");
                }
                4 => doc.truncate(at + 2),
                _ => {
                    let second = [r#""series":[[7,8],[9]],"#, r#""series":[[1e39]],"#, ""][place];
                    let series = &doc[open..doc.len() - 15].to_string();
                    doc.insert_str(open - 9, second);
                    if place == 2 {
                        doc.insert_str(doc.len() - 1, &format!(r#","series":{series}"#));
                    }
                }
            }
            assert_split_is_exact(&doc, threads);
        }
    }

    crate::wire! {
        #[derive(Debug, PartialEq)]
        struct Lazy {
            spelled: u64 = panic!("a default is read only when its member is absent"),
            fallback: u64 = spelled + 1,
        }
    }

    #[test]
    fn defaults_are_evaluated_only_when_absent() {
        let lazy = Lazy::from_json(&Json::parse(r#"{"spelled":3,"fallback":null}"#).unwrap());
        let lazy = lazy.unwrap();
        assert_eq!(
            lazy,
            Lazy {
                spelled: 3,
                fallback: 4
            }
        );
        assert_eq!(lazy.to_json().to_string(), r#"{"spelled":3,"fallback":4}"#);
    }

    #[test]
    fn vec_conversions() {
        let v = vec![1.5f64, 2.0, -3.0];
        let j = v.to_json();
        assert_eq!(Vec::<f64>::from_json(&j).unwrap(), v);
    }
}
