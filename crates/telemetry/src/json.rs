//! The one JSON layer: every byte of JSON the workspace emits or accepts
//! passes through this module (`openoptics_core::json` re-exports it).
//!
//! The build is offline, so there is no `serde`; this is the subset the
//! configuration, scenario, checkpoint, RPC and telemetry formats need:
//!
//! * `parse` — a strict recursive-descent parser into a `Json` tree,
//!   refusing documents nested deeper than `MAX_DEPTH`. Integers without
//!   fraction or exponent are carried exactly (`Json::Int`); one outside
//!   `i64::MIN..=u64::MAX` is an error, never a rounded `f64`.
//! * `Writer` — the one renderer: objects, arrays, keys and values,
//!   compact or pretty. Strings are always escaped and integers written
//!   exactly. Anything renderable implements `ToJson`; `render`, `pretty`
//!   and `object` drive it. `Writer::string_of` / `Writer::text_of` write
//!   a document or a text as the content of a string literal, escaped as
//!   it is written, and `Text` is the text sink (`text` drives it
//!   unescaped).
//! * `Reader` — a cursor into a parsed tree that knows its own path
//!   (`workloads[2].src`), so typed-field errors name the offending field
//!   without the caller spelling the path again.
//!
//! (Plain names, not links: `lib.rs` documents the module too, which makes
//! rustdoc resolve links written here in the crate root.)

use std::fmt::{self, Write as _};

/// Deepest array/object nesting [`parse`] accepts.
pub(crate) const MAX_DEPTH: usize = 128;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A number written without fraction or exponent, carried exactly.
    /// [`parse`] only produces values in `i64::MIN..=u64::MAX`.
    Int(i128),
    /// Any other number.
    Num(f64),
    /// A string literal.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order.
    Obj(Vec<(String, Json)>),
}

/// Parse or type-conversion failure.
#[derive(Clone, Debug, PartialEq)]
pub struct JsonError {
    msg: String,
}

impl JsonError {
    fn new(msg: impl Into<String>) -> Self {
        JsonError { msg: msg.into() }
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error: {}", self.msg)
    }
}

impl std::error::Error for JsonError {}

/// Largest magnitude below which every integral `f64` is exact (2^53).
const F64_EXACT: f64 = 9_007_199_254_740_992.0;

impl Json {
    fn mismatch(&self, want: &str) -> JsonError {
        JsonError::new(format!("expected {want}, got {self:?}"))
    }

    /// The value as a string, or a type error.
    pub fn as_str(&self) -> Result<&str, JsonError> {
        let Json::Str(s) = self else { return Err(self.mismatch("string")) };
        Ok(s)
    }

    /// The value as an unsigned integer, or a type error. A [`Json::Num`]
    /// qualifies only when it is integral and below 2^53, where `f64` is
    /// exact — a conversion never changes the number.
    #[expect(clippy::cast_possible_truncation, reason = "the float is integral and below 2^53")]
    pub fn as_u64(&self) -> Result<u64, JsonError> {
        match self {
            Json::Int(i) => u64::try_from(*i).map_err(|_| self.mismatch("unsigned integer")),
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n < F64_EXACT => Ok(*n as u64),
            other => Err(other.mismatch("unsigned integer")),
        }
    }

    /// The value as a narrower unsigned integer; one that does not fit is
    /// an error, never a truncation.
    pub fn as_uint<T: TryFrom<u64>>(&self) -> Result<T, JsonError> {
        T::try_from(self.as_u64()?).map_err(|_| {
            JsonError::new(format!("{self} is out of range for {}", std::any::type_name::<T>()))
        })
    }

    /// The value as a bool, or a type error.
    pub fn as_bool(&self) -> Result<bool, JsonError> {
        let Json::Bool(b) = self else { return Err(self.mismatch("bool")) };
        Ok(*b)
    }

    /// The value as a number, or a type error.
    pub fn as_f64(&self) -> Result<f64, JsonError> {
        match self {
            Json::Int(i) => Ok(*i as f64),
            Json::Num(n) => Ok(*n),
            other => Err(other.mismatch("number")),
        }
    }

    /// The value as an array slice, or a type error.
    pub fn as_arr(&self) -> Result<&[Json], JsonError> {
        let Json::Arr(items) = self else { return Err(self.mismatch("array")) };
        Ok(items)
    }

    /// The value as an object's field list (source order), or a type error.
    pub fn as_obj(&self) -> Result<&[(String, Json)], JsonError> {
        let Json::Obj(fields) = self else { return Err(self.mismatch("object")) };
        Ok(fields)
    }

    /// Field `key` of an object (first occurrence), if present. `None` both
    /// for a missing key and for a non-object value.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
}

// -- writing ------------------------------------------------------------------

/// Streaming JSON renderer into an owned string, driven by [`render`],
/// [`pretty`], [`object`] and [`text`].
///
/// Separators, indentation, string escaping and number formatting live
/// here and nowhere else. Output is deterministic: `parse(render(v))`
/// reproduces `v`, and repeated parse/render cycles are byte-stable (the
/// property scenario and checkpoint files rely on).
///
/// A writer can also render a document *inside* a string literal
/// ([`Writer::string_of`], [`Writer::text_of`]): an RPC response carries a
/// whole export as the value of one string, and the export is escaped as
/// it is written instead of rendered, copied and escaped again. `nesting`
/// counts the string literals the output is inside; every quote and
/// escape sequence is a constant piece chosen by it.
pub struct Writer {
    out: String,
    pretty: bool,
    depth: usize,
    /// The open container has no member yet.
    first: bool,
    /// A key was just written; the next value follows it directly.
    after_key: bool,
    /// String literals the output is inside (0: a plain document).
    nesting: usize,
    /// Where the integers of a template being rendered go.
    slots: Vec<usize>,
}

/// Where a writer stood, for [`Writer::rewind`].
#[derive(Clone, Copy, Debug)]
pub struct Mark {
    len: usize,
    first: bool,
    after_key: bool,
}

/// Append a `"` escaped `times` times. Every piece here and in
/// [`escape_into`] is a constant, so appending it is a store, not a call
/// to copy a run of unknown length.
fn push_quote(out: &mut String, times: usize) {
    match times {
        0 => out.push('"'),
        1 => out.push_str("\\\""),
        2 => out.push_str("\\\\\\\""),
        _ => escape_into(out, "\"", times),
    }
}

/// Append `s` escaped `times` times: 0 copies it, 1 makes it the content of
/// a string literal, 2 the content of a string literal inside a string
/// literal. The runs between characters that need an escape are copied
/// whole; those characters are ASCII, so every cut is on a character
/// boundary.
fn escape_into(out: &mut String, s: &str, times: usize) {
    match times {
        0 => return out.push_str(s),
        1 | 2 => {}
        _ => {
            let mut once = String::with_capacity(s.len());
            escape_into(&mut once, s, 1);
            return escape_into(out, &once, times - 1);
        }
    }
    let mut rest = s;
    while let Some(i) = rest.bytes().position(|b| b == b'"' || b == b'\\' || b < 0x20) {
        out.push_str(&rest[..i]);
        match (rest.as_bytes()[i], times) {
            (b'"', _) => push_quote(out, times),
            (b'\\', 1) => out.push_str("\\\\"),
            (b'\\', _) => out.push_str("\\\\\\\\"),
            (b'\n', 1) => out.push_str("\\n"),
            (b'\n', _) => out.push_str("\\\\n"),
            (b'\r', 1) => out.push_str("\\r"),
            (b'\r', _) => out.push_str("\\\\r"),
            (b'\t', 1) => out.push_str("\\t"),
            (b'\t', _) => out.push_str("\\\\t"),
            (c, 1) => {
                let _ = write!(out, "\\u{c:04x}");
            }
            (c, _) => {
                let _ = write!(out, "\\\\u{c:04x}");
            }
        }
        rest = &rest[i + 1..];
    }
    out.push_str(rest);
}

/// Append `u` in decimal. The digits are pushed one by one: for at most
/// 20 of them that is cheaper than checking them as a `str` and copying
/// it.
fn push_u64(out: &mut String, mut u: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (u % 10) as u8;
        u /= 10;
        if u == 0 {
            break;
        }
    }
    out.extend(digits[at..].iter().map(|&d| char::from(d)));
}

/// One value layout rendered once by a [`Writer`], for values written many
/// times that differ only in some integers (one Chrome-trace event per
/// span): the writer's own output cut at those integers, so writing a
/// value is a few appends. Made by [`Writer::template`], written by
/// [`Writer::fill`].
pub struct Template {
    pieces: Vec<String>,
}

impl Writer {
    fn new(pretty: bool) -> Writer {
        Writer {
            out: String::new(),
            pretty,
            depth: 0,
            first: true,
            after_key: false,
            nesting: 0,
            slots: Vec::new(),
        }
    }

    fn newline(&mut self) {
        if self.pretty {
            self.out.push('\n');
            self.out.extend(std::iter::repeat_n(' ', 2 * self.depth));
        }
    }

    /// Separator before an array element or an object key.
    fn member(&mut self) {
        if self.depth > 0 {
            if !self.first {
                self.out.push(',');
            }
            self.newline();
        }
        self.first = false;
    }

    fn before_value(&mut self) {
        if !std::mem::take(&mut self.after_key) {
            self.member();
        }
    }

    fn quote(&mut self) {
        push_quote(&mut self.out, self.nesting);
    }

    fn container<R>(&mut self, open: char, close: char, body: impl FnOnce(&mut Writer) -> R) -> R {
        self.before_value();
        self.out.push(open);
        self.depth += 1;
        self.first = true;
        let r = body(self);
        self.depth -= 1;
        if !self.first {
            self.newline();
        }
        self.first = false;
        self.out.push(close);
        r
    }

    /// Write an object; `body` writes its members with [`Writer::field`].
    pub fn obj<R>(&mut self, body: impl FnOnce(&mut Writer) -> R) -> R {
        self.container('{', '}', body)
    }

    /// Write an array; `body` writes its elements with [`Writer::value`].
    pub fn arr<R>(&mut self, body: impl FnOnce(&mut Writer) -> R) -> R {
        self.container('[', ']', body)
    }

    /// Write an object key; the next write is its value.
    pub fn key(&mut self, key: &str) {
        self.member();
        self.quote();
        escape_into(&mut self.out, key, self.nesting + 1);
        self.quote();
        self.out.push_str(if self.pretty { ": " } else { ":" });
        self.after_key = true;
    }

    /// Write one object member.
    pub fn field(&mut self, key: &str, value: impl ToJson) {
        self.key(key);
        value.write_json(self);
    }

    /// Write one value (an array element, a keyed value, or the document).
    pub fn value(&mut self, value: impl ToJson) {
        value.write_json(self);
    }

    /// Write a string value, quoted and escaped.
    pub fn str(&mut self, s: &str) {
        self.before_value();
        self.quote();
        escape_into(&mut self.out, s, self.nesting + 1);
        self.quote();
    }

    /// Write an integer exactly.
    pub(crate) fn int(&mut self, i: i128) {
        self.before_value();
        // Counters are most of what exports print, so the common case —
        // the value fits 64 bits — skips the formatting machinery.
        match u64::try_from(i) {
            Ok(u) => push_u64(&mut self.out, u),
            Err(_) => {
                let _ = write!(self.out, "{i}");
            }
        }
    }

    /// Write a float: integral values below 2^53 print without a decimal
    /// point, everything else in Rust's shortest round-trip form, and the
    /// non-finite values JSON cannot express as `null`.
    #[expect(clippy::cast_possible_truncation, reason = "the float is integral and below 2^53")]
    pub fn float(&mut self, n: f64) {
        if n.fract() == 0.0 && n.abs() < F64_EXACT {
            return self.int(n as i128);
        }
        self.before_value();
        if n.is_finite() {
            let _ = write!(self.out, "{n}");
        } else {
            self.out.push_str("null");
        }
    }

    /// Splice in a value this writer already rendered (a stored frame line).
    pub fn raw(&mut self, rendered: &str) {
        self.before_value();
        escape_into(&mut self.out, rendered, self.nesting);
    }

    /// Write a string value whose content is the compact JSON document
    /// `body` writes: equal to `self.str(&render(v))` when `body` writes
    /// `v`, without the intermediate rendering. `body` starts a fresh
    /// document; several values it writes follow each other unseparated.
    pub fn string_of<R>(&mut self, body: impl FnOnce(&mut Writer) -> R) -> R {
        self.before_value();
        self.quote();
        let outer = (self.pretty, self.depth, self.first, self.nesting);
        (self.pretty, self.depth, self.first) = (false, 0, true);
        self.nesting += 1;
        let r = body(self);
        (self.pretty, self.depth, self.first, self.nesting) = outer;
        self.quote();
        r
    }

    /// Write a string value whose content is the text `body` writes to a
    /// [`Text`] sink, escaped as it is written.
    pub fn text_of<R>(&mut self, body: impl FnOnce(&mut Text<'_>) -> R) -> R {
        self.string_of(|w| body(&mut Text(w)))
    }

    /// Render `body` once as a [`Template`] for values written where this
    /// writer stands (same nesting, depth and layout); `body` writes one
    /// value and marks each integer with [`Writer::slot`].
    pub fn template(&self, body: impl FnOnce(&mut Writer)) -> Template {
        let mut w = Writer {
            out: String::new(),
            pretty: self.pretty,
            depth: self.depth,
            first: true,
            after_key: true, // `fill` writes the separator
            nesting: self.nesting,
            slots: Vec::new(),
        };
        body(&mut w);
        let mut at = 0;
        let mut pieces: Vec<String> = w
            .slots
            .iter()
            .map(|&cut| w.out[std::mem::replace(&mut at, cut)..cut].to_string())
            .collect();
        pieces.push(w.out[at..].to_string());
        Template { pieces }
    }

    /// In a template's `body`: an integer goes here.
    pub fn slot(&mut self) {
        self.before_value();
        self.slots.push(self.out.len());
    }

    /// Write one value of `template`'s layout, `ints` in its slots in order.
    pub fn fill(&mut self, template: &Template, ints: &[u64]) {
        debug_assert_eq!(ints.len() + 1, template.pieces.len(), "one integer per slot");
        self.before_value();
        for (piece, &int) in template.pieces.iter().zip(ints) {
            self.out.push_str(piece);
            push_u64(&mut self.out, int);
        }
        if let Some(last) = template.pieces.last() {
            self.out.push_str(last);
        }
    }

    /// Where the writer stands now.
    pub fn mark(&self) -> Mark {
        Mark { len: self.out.len(), first: self.first, after_key: self.after_key }
    }

    /// Drop everything written since `mark` was taken, in the same
    /// container: a response whose `result` failed half-way becomes an
    /// `error` instead.
    pub fn rewind(&mut self, mark: Mark) {
        self.out.truncate(mark.len);
        (self.first, self.after_key) = (mark.first, mark.after_key);
    }
}

/// A text sink ([`fmt::Write`]) inside a [`Writer`]: what is written to it
/// becomes the content of the string literal [`Writer::text_of`] opened,
/// escaped as it goes — or the text itself under [`text`]. JSON embedded
/// in the text (a snapshot in an export bundle, one record per line of a
/// JSON-lines export) goes through [`Text::json`].
pub struct Text<'a>(&'a mut Writer);

impl Text<'_> {
    /// Write `v` as compact JSON into the text.
    pub fn json(&mut self, v: &(impl ToJson + ?Sized)) {
        v.write_json(self.0);
    }

    /// Where the text stands now.
    pub fn mark(&self) -> Mark {
        self.0.mark()
    }

    /// Drop everything written since `mark`.
    pub fn rewind(&mut self, mark: Mark) {
        self.0.rewind(mark);
    }
}

impl fmt::Write for Text<'_> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        escape_into(&mut self.0.out, s, self.0.nesting);
        Ok(())
    }
}

/// A value the [`Writer`] can render.
pub trait ToJson {
    /// Write `self` as one JSON value.
    fn write_json(&self, w: &mut Writer);
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn write_json(&self, w: &mut Writer) {
        (**self).write_json(w);
    }
}

macro_rules! int_to_json {
    ($($t:ty)*) => {$(
        impl ToJson for $t {
            fn write_json(&self, w: &mut Writer) {
                w.int(*self as i128);
            }
        }
    )*};
}
int_to_json!(u8 u16 u32 u64 usize i64);

impl ToJson for f64 {
    fn write_json(&self, w: &mut Writer) {
        w.float(*self);
    }
}

impl ToJson for bool {
    fn write_json(&self, w: &mut Writer) {
        w.raw(if *self { "true" } else { "false" });
    }
}

impl ToJson for str {
    fn write_json(&self, w: &mut Writer) {
        w.str(self);
    }
}

impl ToJson for String {
    fn write_json(&self, w: &mut Writer) {
        w.str(self);
    }
}

impl<T: ToJson> ToJson for [T] {
    fn write_json(&self, w: &mut Writer) {
        w.arr(|w| self.iter().for_each(|v| w.value(v)));
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn write_json(&self, w: &mut Writer) {
        self.as_slice().write_json(w);
    }
}

impl ToJson for Json {
    fn write_json(&self, w: &mut Writer) {
        match self {
            Json::Null => w.raw("null"),
            Json::Bool(b) => w.value(b),
            Json::Int(i) => w.int(*i),
            Json::Num(n) => w.float(*n),
            Json::Str(s) => w.str(s),
            Json::Arr(items) => w.value(items),
            Json::Obj(fields) => w.obj(|w| fields.iter().for_each(|(k, v)| w.field(k, v))),
        }
    }
}

fn rendered(pretty: bool, body: impl FnOnce(&mut Writer)) -> String {
    let mut w = Writer::new(pretty);
    body(&mut w);
    w.out
}

/// Render compactly (no whitespace).
pub fn render(v: &(impl ToJson + ?Sized)) -> String {
    rendered(false, |w| v.write_json(w))
}

/// Render one compact object whose members `body` writes — for documents
/// assembled in place (frames, RPC responses) rather than from one value.
pub fn object(body: impl FnOnce(&mut Writer)) -> String {
    rendered(false, |w| w.obj(body))
}

/// The text `body` writes to a [`Text`] sink, as it is (nothing escaped):
/// the `String` form of a text export whose RPC form is written with
/// [`Writer::text_of`].
pub fn text(body: impl FnOnce(&mut Text<'_>)) -> String {
    rendered(false, |w| body(&mut Text(w)))
}

/// Write `items` to `t` as JSON lines: one compact value per line.
pub fn write_lines<T: ToJson>(t: &mut Text<'_>, items: impl IntoIterator<Item = T>) {
    for item in items {
        t.json(&item);
        let _ = t.write_str("\n");
    }
}

/// Render with two-space indentation: the same numbers and strings as
/// [`render`], only the whitespace differs. Scenario and checkpoint files
/// are written in this form so they diff cleanly under version control.
pub fn pretty(v: &(impl ToJson + ?Sized)) -> String {
    rendered(true, |w| v.write_json(w))
}

impl fmt::Display for Json {
    /// The compact rendering ([`render`]).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&render(self))
    }
}

// -- parsing ------------------------------------------------------------------

/// Parse a complete JSON document (trailing whitespace allowed, nothing else).
pub fn parse(text: &str) -> Result<Json, JsonError> {
    let mut p = Parser { text, pos: 0, depth: 0 };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != text.len() {
        return Err(JsonError::new(format!("trailing garbage at byte {}", p.pos)));
    }
    Ok(v)
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn bump(&mut self) -> Result<u8, JsonError> {
        let b = self.peek().ok_or_else(|| JsonError::new("unexpected end of input"))?;
        self.pos += 1;
        Ok(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> Result<(), JsonError> {
        let got = self.bump()?;
        if got != b {
            return Err(JsonError::new(format!(
                "expected '{}' at byte {}, got '{}'",
                b as char,
                self.pos - 1,
                got as char
            )));
        }
        Ok(())
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, JsonError> {
        if self.text.as_bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(JsonError::new(format!("invalid literal at byte {}", self.pos)))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => {
                let mut fields = Vec::new();
                self.members(b'}', |p| {
                    let key = p.string()?;
                    p.skip_ws();
                    p.eat(b':')?;
                    fields.push((key, p.value()?));
                    Ok(())
                })?;
                Ok(Json::Obj(fields))
            }
            Some(b'[') => {
                let mut items = Vec::new();
                self.members(b']', |p| {
                    items.push(p.value()?);
                    Ok(())
                })?;
                Ok(Json::Arr(items))
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => {
                Err(JsonError::new(format!("unexpected '{}' at byte {}", c as char, self.pos)))
            }
            None => Err(JsonError::new("unexpected end of input")),
        }
    }

    /// The comma-separated members of an array or object up to `close`;
    /// `member` parses one. Each container costs one parser stack frame,
    /// which is what [`MAX_DEPTH`] bounds.
    fn members(
        &mut self,
        close: u8,
        mut member: impl FnMut(&mut Self) -> Result<(), JsonError>,
    ) -> Result<(), JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(JsonError::new(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos
            )));
        }
        self.depth += 1;
        self.pos += 1;
        self.skip_ws();
        if self.peek() == Some(close) {
            self.pos += 1;
        } else {
            loop {
                self.skip_ws();
                member(self)?;
                self.skip_ws();
                match self.bump()? {
                    b',' => continue,
                    c if c == close => break,
                    c => {
                        return Err(JsonError::new(format!(
                            "expected ',' or '{}' at byte {}, got '{}'",
                            close as char,
                            self.pos - 1,
                            c as char
                        )))
                    }
                }
            }
        }
        self.depth -= 1;
        Ok(())
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote, escape or control byte in
            // one piece: those delimiters are ASCII, so the run is whole
            // UTF-8 characters of the (already valid) input text.
            let start = self.pos;
            while matches!(self.peek(), Some(c) if c != b'"' && c != b'\\' && c >= 0x20) {
                self.pos += 1;
            }
            out.push_str(&self.text[start..self.pos]);
            match self.bump()? {
                b'"' => return Ok(out),
                b'\\' => match self.bump()? {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'b' => out.push('\u{0008}'),
                    b'f' => out.push('\u{000C}'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'u' => {
                        let mut code = 0u32;
                        for _ in 0..4 {
                            let c = self.bump()? as char;
                            code = code * 16
                                + c.to_digit(16).ok_or_else(|| {
                                    JsonError::new(format!("bad \\u escape at byte {}", self.pos))
                                })?;
                        }
                        out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                    }
                    c => {
                        return Err(JsonError::new(format!(
                            "bad escape '\\{}' at byte {}",
                            c as char,
                            self.pos - 1
                        )))
                    }
                },
                _ => {
                    return Err(JsonError::new(format!(
                        "raw control byte in string at {}",
                        self.pos - 1
                    )))
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        while matches!(self.peek(), Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = &self.text[start..self.pos];
        let bad = |why: &str| JsonError::new(format!("{why} '{text}' at byte {start}"));
        if text.bytes().all(|c| c == b'-' || c.is_ascii_digit()) {
            let i = text.parse::<i128>().map_err(|_| bad("bad number"))?;
            if i < i128::from(i64::MIN) || i > i128::from(u64::MAX) {
                return Err(bad("integer out of range"));
            }
            return Ok(Json::Int(i));
        }
        match text.parse::<f64>() {
            Ok(n) if n.is_finite() => Ok(Json::Num(n)),
            _ => Err(bad("bad number")),
        }
    }
}

// -- reading typed fields -----------------------------------------------------

/// A typed-field failure: which field of the document, and why.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FieldError {
    /// Path of the offending field (`workloads[2].src`).
    pub field: String,
    /// What is wrong with it.
    pub reason: String,
}

impl FieldError {
    /// An error at `field`.
    pub fn new(field: impl Into<String>, reason: impl Into<String>) -> FieldError {
        FieldError { field: field.into(), reason: reason.into() }
    }
}

impl fmt::Display for FieldError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "field `{}`: {}", self.field, self.reason)
    }
}

impl std::error::Error for FieldError {}

#[derive(Clone, Copy)]
enum Step<'a> {
    Root(&'a str),
    Key(&'a str),
    Index(usize),
}

/// A value in a parsed document together with where it stands.
///
/// Descend with [`Reader::opt`], [`Reader::req`] and [`Reader::items`];
/// every typed accessor reports failures as a [`FieldError`] whose `field`
/// is derived from the steps taken, rendered only when an error occurs.
#[derive(Clone, Copy)]
pub struct Reader<'a> {
    value: &'a Json,
    parent: Option<&'a Reader<'a>>,
    step: Step<'a>,
}

impl<'a> Reader<'a> {
    /// Start reading `value`; `root` prefixes every path (`"params"`,
    /// `"journal[3]"`; empty for a document's top level).
    pub fn new(value: &'a Json, root: &'a str) -> Reader<'a> {
        Reader { value, parent: None, step: Step::Root(root) }
    }

    /// The value under the cursor.
    pub fn json(&self) -> &'a Json {
        self.value
    }

    /// The path of the value under the cursor.
    pub(crate) fn path(&self) -> String {
        let mut out = self.parent.map_or(String::new(), Reader::path);
        match self.step {
            Step::Root(name) => out.push_str(name),
            Step::Key(key) => {
                if !out.is_empty() {
                    out.push('.');
                }
                out.push_str(key);
            }
            Step::Index(i) => {
                let _ = write!(out, "[{i}]");
            }
        }
        out
    }

    /// An error at this path.
    pub fn err(&self, reason: impl Into<String>) -> FieldError {
        FieldError::new(self.path(), reason)
    }

    /// Attach this path to a fallible step (a type check, a nested build).
    pub fn ctx<T, E: fmt::Display>(&self, r: Result<T, E>) -> Result<T, FieldError> {
        r.map_err(|e| self.err(e.to_string()))
    }

    /// Member `key`, if present.
    pub fn opt<'b>(&'b self, key: &'b str) -> Option<Reader<'b>> {
        let value = self.value.get(key)?;
        Some(Reader { value, parent: Some(self), step: Step::Key(key) })
    }

    /// Member `key`, or a "missing required field" error naming it.
    pub fn req<'b>(&'b self, key: &'b str) -> Result<Reader<'b>, FieldError> {
        self.opt(key).ok_or_else(|| {
            let absent = Reader { value: &Json::Null, parent: Some(self), step: Step::Key(key) };
            absent.err("missing required field")
        })
    }

    /// The elements of an array, each knowing its index.
    pub fn items<'b>(&'b self) -> Result<impl Iterator<Item = Reader<'b>> + 'b, FieldError> {
        let items = self.ctx(self.value.as_arr())?;
        Ok(items.iter().enumerate().map(move |(i, value)| Reader {
            value,
            parent: Some(self),
            step: Step::Index(i),
        }))
    }

    /// Check the value is an object (so absent members mean "not given").
    pub fn obj(self) -> Result<Reader<'a>, FieldError> {
        self.ctx(self.value.as_obj())?;
        Ok(self)
    }

    /// The value as `u64`.
    pub fn u64(&self) -> Result<u64, FieldError> {
        self.ctx(self.value.as_u64())
    }

    /// The value as a narrower unsigned integer; out of range is an error
    /// naming the field, never a truncation.
    pub fn uint<T: TryFrom<u64>>(&self) -> Result<T, FieldError> {
        let v = self.u64()?;
        T::try_from(v).map_err(|_| self.err(format!("value {v} out of range")))
    }

    /// Member `key` as an unsigned integer, or `default` when absent.
    pub fn uint_or<T: TryFrom<u64>>(&self, key: &str, default: T) -> Result<T, FieldError> {
        self.opt(key).map_or(Ok(default), |r| r.uint())
    }

    /// The value as `f64`.
    pub fn f64(&self) -> Result<f64, FieldError> {
        self.ctx(self.value.as_f64())
    }

    /// The value as a string.
    pub fn str(&self) -> Result<&'a str, FieldError> {
        self.ctx(self.value.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type TestResult = Result<(), Box<dyn std::error::Error>>;

    #[test]
    fn parses_nested_document() {
        assert_eq!(
            parse(r#"{"a": 1, "b": [true, null, "x\n"], "c": {"d": -2.5}}"#),
            Ok(Json::Obj(vec![
                ("a".into(), Json::Int(1)),
                (
                    "b".into(),
                    Json::Arr(vec![Json::Bool(true), Json::Null, Json::Str("x\n".into())])
                ),
                ("c".into(), Json::Obj(vec![("d".into(), Json::Num(-2.5))])),
            ]))
        );
    }

    #[test]
    fn rejects_garbage() {
        for bad in ["{not json", "{}extra", r#"{"a": }"#, "", "1e999", "--1", "1.2.3"] {
            assert!(parse(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn strings_round_trip_through_the_writer() {
        let s = "line\n\"quoted\"\t\\ \u{1} üñî";
        assert_eq!(parse(&render(s)), Ok(Json::Str(s.to_string())));
    }

    #[test]
    fn a_filled_template_is_what_writing_the_value_writes() {
        // The value, with its two integers or with slots for them.
        let event = |w: &mut Writer, ints: Option<[u64; 2]>| {
            let int = |w: &mut Writer, k: usize| match ints {
                Some(i) => w.value(i[k]),
                None => w.slot(),
            };
            w.obj(|w| {
                w.field("name", "q\"uote");
                w.key("ts");
                int(w, 0);
                w.key("args");
                w.obj(|w| {
                    w.key("span");
                    int(w, 1);
                });
            })
        };
        let rows = [[0, 7], [123_456_789, u64::MAX]];
        let by_hand = |w: &mut Writer| w.arr(|w| rows.iter().for_each(|r| event(w, Some(*r))));
        let templated = |w: &mut Writer| {
            w.arr(|w| {
                let t = w.template(|w| event(w, None));
                rows.iter().for_each(|r| w.fill(&t, r));
            })
        };
        for pretty in [false, true] {
            assert_eq!(rendered(pretty, templated), rendered(pretty, by_hand));
        }
        let nested = |body: &dyn Fn(&mut Writer)| {
            object(|w| {
                w.key("k");
                w.string_of(body);
            })
        };
        assert_eq!(nested(&templated), nested(&by_hand));
    }

    #[test]
    fn integers_print_like_display() {
        let mut edges: Vec<u64> = vec![0, 9, 10, 99, 100, 101, 999, 1_000, 1_005, u64::MAX];
        edges.extend((0..64).map(|b| 1u64 << b).flat_map(|p| [p - 1, p, p + 1]));
        for u in edges {
            assert_eq!(render(&u), u.to_string());
        }
    }

    #[test]
    fn integers_survive_a_parse_render_cycle_exactly() -> TestResult {
        // 2^53 + 1 is the first integer an f64 cannot hold.
        for text in ["9007199254740993", "18446744073709551615", "-9223372036854775808", "0"] {
            assert_eq!(parse(text)?.to_string(), text);
        }
        assert_eq!(parse("9007199254740993")?.as_u64(), Ok(9_007_199_254_740_993));
        assert_eq!(parse("7")?.as_f64(), Ok(7.0));
        assert!(parse("18446744073709551616").is_err(), "2^64 must not saturate");
        assert!(parse("-9223372036854775809").is_err());
        // Floats convert only where the conversion is exact.
        assert_eq!(parse("5.0")?.as_u64(), Ok(5));
        assert_eq!(parse("5.0")?.to_string(), "5");
        for not_u64 in ["1e300", "-1", "1.5"] {
            assert!(parse(not_u64)?.as_u64().is_err(), "{not_u64}");
        }
        Ok(())
    }

    #[test]
    fn nesting_is_bounded() {
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&ok).is_ok());
        let err = parse(&"[".repeat(300_000)).expect_err("must not overflow the stack");
        assert!(err.to_string().contains("nesting deeper than 128"), "{err}");
        assert!(parse(&r#"{"a":"#.repeat(MAX_DEPTH + 1)).is_err());
    }

    #[test]
    fn compact_and_pretty_share_one_writer() -> TestResult {
        let text = r#"{"a":[1,{"b":[]},"x"],"c":{},"d":-2.5}"#;
        let v = parse(text)?;
        assert_eq!(v.to_string(), text);
        assert_eq!(
            pretty(&v),
            "{\n  \"a\": [\n    1,\n    {\n      \"b\": []\n    },\n    \"x\"\n  ],\n  \"c\": {},\n  \"d\": -2.5\n}"
        );
        assert_eq!(parse(&pretty(&v))?, v);
        assert_eq!(render(&f64::NAN), "null");
        Ok(())
    }

    #[test]
    fn reader_errors_name_the_path_walked() -> TestResult {
        let doc = parse(r#"{"w": [{"src": 1}, {"src": "x", "n": 70000}], "s": "hi"}"#)?;
        let root = Reader::new(&doc, "");
        assert_eq!(root.req("s")?.str()?, "hi");
        let w = root.req("w")?;
        let second = w.items()?.nth(1).ok_or("two items")?;
        let e = second.req("src")?.u64().expect_err("a string is not a u64");
        assert_eq!(e.field, "w[1].src");
        assert!(e.reason.contains("expected unsigned integer"), "{e}");
        let at =
            |field: &str, reason: &str| FieldError { field: field.into(), reason: reason.into() };
        assert_eq!(second.req("n")?.uint::<u16>(), Err(at("w[1].n", "value 70000 out of range")));
        assert_eq!(second.req("dst").err(), Some(at("w[1].dst", "missing required field")));
        assert_eq!(
            Reader::new(&doc, "params").req("x").err().map(|e| e.field),
            Some("params.x".into())
        );
        assert_eq!(root.req("s")?.obj().err().map(|e| e.field), Some("s".into()));
        Ok(())
    }
}
