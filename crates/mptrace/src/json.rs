//! A minimal, dependency-free JSON parser (objects, arrays, strings,
//! numbers, booleans, null), plus the one codec every run record uses.
//!
//! The event log, the decision records, the run manifest, the registry
//! index, the shadow sensitivity profile, the live trace stream and the
//! `BENCH_*.json` readers all parse through [`parse`]. The run records
//! go further: each declares its fields once with [`record!`](crate::record),
//! and its encoder, its parser and its JSONL reader ([`read_jsonl`]) all
//! come from that one list through the [`Wire`] trait. The string
//! escaper [`esc`] serves the remaining hand-written writers.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;

/// Deepest array/object nesting [`parse`] accepts. Far above any record
/// this workspace writes; it bounds the parser's recursion so hostile
/// input (a request body of `[[[[…`) fails instead of overflowing the
/// stack of the thread parsing it.
pub const MAX_DEPTH: usize = 128;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (stored as `f64`; integers below 2^53 are exact).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, in source order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
    /// The value as a float, if numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }
    /// The value as an unsigned integer, if numeric and non-negative.
    pub fn as_u64(&self) -> Option<u64> {
        self.as_f64().filter(|n| *n >= 0.0).map(|n| n as u64)
    }
    /// The value as a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }
    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }
    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(a) => Some(a),
            _ => None,
        }
    }
}

/// Append `s` to `out` as a quoted, escaped JSON string literal.
pub fn esc(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
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

struct P<'a> {
    s: &'a [u8],
    i: usize,
    depth: usize,
}

impl P<'_> {
    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }
    fn peek(&self) -> Option<u8> {
        self.s.get(self.i).copied()
    }
    fn eat(&mut self, c: u8) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", c as char, self.i))
        }
    }
    fn value(&mut self) -> Result<Value, String> {
        self.ws();
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.lit("true", Value::Bool(true)),
            Some(b'f') => self.lit("false", Value::Bool(false)),
            Some(b'n') => self.lit("null", Value::Null),
            Some(_) => self.number(),
            None => Err("unexpected end of input".into()),
        }
    }
    fn nested(&mut self, f: fn(&mut Self) -> Result<Value, String>) -> Result<Value, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!("nesting deeper than {MAX_DEPTH} at byte {}", self.i));
        }
        self.depth += 1;
        let v = f(self);
        self.depth -= 1;
        v
    }
    fn lit(&mut self, word: &str, v: Value) -> Result<Value, String> {
        if self.s[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.i))
        }
    }
    fn number(&mut self) -> Result<Value, String> {
        let start = self.i;
        while let Some(c) = self.peek() {
            if c.is_ascii_digit() || matches!(c, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.i += 1;
            } else {
                break;
            }
        }
        std::str::from_utf8(&self.s[start..self.i])
            .ok()
            .and_then(|t| t.parse::<f64>().ok())
            .map(Value::Num)
            .ok_or_else(|| format!("bad number at byte {start}"))
    }
    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek().ok_or("unterminated string")? {
                b'"' => {
                    self.i += 1;
                    return Ok(out);
                }
                b'\\' => {
                    self.i += 1;
                    let e = self.peek().ok_or("unterminated escape")?;
                    self.i += 1;
                    match e {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .s
                                .get(self.i..self.i + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or("bad \\u escape")?;
                            self.i += 4;
                            out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(format!("bad escape at byte {}", self.i - 1)),
                    }
                }
                _ => {
                    // Copy the whole run up to the next `"` or `\` in one
                    // step; both are ASCII, so the run ends on a char
                    // boundary and each byte is validated once.
                    let run = self.s[self.i..]
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .ok_or("unterminated string")?;
                    let text = std::str::from_utf8(&self.s[self.i..self.i + run])
                        .map_err(|_| "invalid utf-8".to_string())?;
                    out.push_str(text);
                    self.i += run;
                }
            }
        }
    }
    fn array(&mut self) -> Result<Value, String> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.ws();
        if self.peek() == Some(b']') {
            self.i += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b']') => {
                    self.i += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.i)),
            }
        }
    }
    fn object(&mut self) -> Result<Value, String> {
        self.eat(b'{')?;
        let mut fields = Vec::new();
        self.ws();
        if self.peek() == Some(b'}') {
            self.i += 1;
            return Ok(Value::Obj(fields));
        }
        loop {
            self.ws();
            let k = self.string()?;
            self.ws();
            self.eat(b':')?;
            let v = self.value()?;
            fields.push((k, v));
            self.ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(Value::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.i)),
            }
        }
    }
}

/// Parse a JSONL document into `(line number, value)` pairs, tolerating
/// a truncated **final** line.
///
/// A run killed mid-write (crash, OOM, SIGKILL) leaves its last JSONL
/// record half-flushed. Every reader of crash-adjacent artifacts
/// (`events.jsonl`, `live.jsonl`, shadow profiles) wants
/// the same policy: keep the valid prefix, drop the torn tail, and say
/// so. Returns the parsed lines plus an optional warning describing the
/// dropped line. A malformed line *before* the final one is still a hard
/// error — that is corruption, not truncation.
#[allow(clippy::type_complexity)]
pub fn parse_jsonl_tolerant(text: &str) -> Result<(Vec<(usize, Value)>, Option<String>), String> {
    let lines: Vec<(usize, &str)> = text
        .lines()
        .enumerate()
        .map(|(i, l)| (i + 1, l.trim()))
        .filter(|(_, l)| !l.is_empty())
        .collect();
    let mut out = Vec::with_capacity(lines.len());
    for (idx, &(lineno, line)) in lines.iter().enumerate() {
        match parse(line) {
            Ok(v) => out.push((lineno, v)),
            Err(e) if idx + 1 == lines.len() => {
                let warning = format!(
                    "line {lineno}: dropped truncated final record ({e}); \
                     keeping {} valid line(s)",
                    out.len()
                );
                return Ok((out, Some(warning)));
            }
            Err(e) => return Err(format!("line {lineno}: {e}")),
        }
    }
    Ok((out, None))
}

/// Parse a complete JSON document.
pub fn parse(s: &str) -> Result<Value, String> {
    let mut p = P { s: s.as_bytes(), i: 0, depth: 0 };
    let v = p.value()?;
    p.ws();
    if p.i != p.s.len() {
        return Err(format!("trailing garbage at byte {}", p.i));
    }
    Ok(v)
}

/// Parse a JSONL document of `T` records with the torn-tail policy of
/// [`parse_jsonl_tolerant`]. A line that is valid JSON but not a `T` is
/// an error naming the line.
pub fn read_jsonl<T: Wire>(text: &str) -> Result<(Vec<T>, Option<String>), String> {
    let (lines, warning) = parse_jsonl_tolerant(text)?;
    let records = lines
        .iter()
        .map(|(lineno, v)| T::from_value(v).map_err(|e| format!("line {lineno}: {e}")))
        .collect::<Result<_, _>>()?;
    Ok((records, warning))
}

/// A type with exactly one JSON encoding, shared by its writer and its
/// reader: reading what [`Wire::write`] wrote gives the value back, and
/// writing that value again gives the same bytes.
pub trait Wire: Sized {
    /// Append the JSON encoding of `self` to `out`.
    fn write(&self, out: &mut String);
    /// Decode a value written by [`Wire::write`]; `None` if `v` has
    /// another shape.
    fn read(v: &Value) -> Option<Self>;
    /// [`Wire::read`] with a reason on failure. [`record!`](crate::record)
    /// types name the field that is missing or malformed.
    fn from_value(v: &Value) -> Result<Self, String> {
        Self::read(v).ok_or_else(|| format!("expected a {}", std::any::type_name::<Self>()))
    }
}

impl Wire for String {
    fn write(&self, out: &mut String) {
        esc(out, self);
    }
    fn read(v: &Value) -> Option<Self> {
        v.as_str().map(str::to_owned)
    }
}

impl Wire for PathBuf {
    fn write(&self, out: &mut String) {
        esc(out, &self.display().to_string());
    }
    fn read(v: &Value) -> Option<Self> {
        v.as_str().map(PathBuf::from)
    }
}

impl Wire for bool {
    fn write(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }
    fn read(v: &Value) -> Option<Self> {
        v.as_bool()
    }
}

/// Integers accept only whole JSON numbers that fit the target type: a
/// fraction or an out-of-range value is a malformed record, not
/// something to round or wrap.
macro_rules! wire_uint {
    ($($t:ty),*) => {$(
        impl Wire for $t {
            fn write(&self, out: &mut String) {
                let _ = write!(out, "{self}");
            }
            fn read(v: &Value) -> Option<Self> {
                let whole = |n: &f64| *n >= 0.0 && n.fract() == 0.0 && *n < u64::MAX as f64;
                <$t>::try_from(v.as_f64().filter(whole)? as u64).ok()
            }
        }
    )*};
}

wire_uint!(u32, u64, usize);

/// Finite values use the shortest exact `{:?}` form; the non-finite ones,
/// which JSON numbers cannot spell, become the strings `"inf"`, `"-inf"`
/// and `"nan"`.
impl Wire for f64 {
    fn write(&self, out: &mut String) {
        if self.is_finite() {
            let _ = write!(out, "{self:?}");
        } else if self.is_nan() {
            out.push_str("\"nan\"");
        } else if *self > 0.0 {
            out.push_str("\"inf\"");
        } else {
            out.push_str("\"-inf\"");
        }
    }
    fn read(v: &Value) -> Option<Self> {
        match v {
            Value::Num(n) => Some(*n),
            Value::Str(s) => match s.as_str() {
                "inf" => Some(f64::INFINITY),
                "-inf" => Some(f64::NEG_INFINITY),
                "nan" => Some(f64::NAN),
                _ => None,
            },
            _ => None,
        }
    }
}

/// `None` is `null`.
impl<T: Wire> Wire for Option<T> {
    fn write(&self, out: &mut String) {
        match self {
            Some(x) => x.write(out),
            None => out.push_str("null"),
        }
    }
    fn read(v: &Value) -> Option<Self> {
        match v {
            Value::Null => Some(None),
            v => T::read(v).map(Some),
        }
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn write(&self, out: &mut String) {
        out.push('[');
        for (i, x) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            x.write(out);
        }
        out.push(']');
    }
    fn read(v: &Value) -> Option<Self> {
        v.as_arr()?.iter().map(T::read).collect()
    }
}

impl<T: Wire> Wire for BTreeMap<String, T> {
    fn write(&self, out: &mut String) {
        out.push('{');
        for (i, (k, x)) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            esc(out, k);
            out.push(':');
            x.write(out);
        }
        out.push('}');
    }
    fn read(v: &Value) -> Option<Self> {
        match v {
            Value::Obj(fields) => {
                fields.iter().map(|(k, x)| Some((k.clone(), T::read(x)?))).collect()
            }
            _ => None,
        }
    }
}

/// Append `"key":value` to an object being written, preceded by `sep`
/// (`{` before the first field, `,` after it). `key` is a field name or
/// a `rename` literal, so it is written without escaping. Used by
/// [`record!`](crate::record).
#[doc(hidden)]
pub fn write_field<T: Wire>(out: &mut String, sep: &mut char, key: &str, v: &T) {
    out.push(std::mem::replace(sep, ','));
    out.push('"');
    out.push_str(key);
    out.push_str("\":");
    v.write(out);
}

/// Decode the field `key` of the object `v`, or return `absent` if the
/// key is missing and `absent` is `Some`. Used by [`record!`](crate::record);
/// `ctx` names the record in the error.
#[doc(hidden)]
pub fn read_field<T: Wire>(
    v: &Value,
    ctx: &str,
    key: &str,
    absent: Option<T>,
) -> Result<T, String> {
    match (v.get(key), absent) {
        (None, Some(default)) => Ok(default),
        (x, _) => {
            x.and_then(T::read).ok_or_else(|| format!("{ctx}: missing or malformed \"{key}\""))
        }
    }
}

/// Declare a run record once: the type, its [`Wire`] encoding, and the
/// inherent `to_json` (one line, no newline) and `parse` built on it.
///
/// A struct becomes a JSON object with one key per field, in declaration
/// order. An enum becomes an object tagged by an `"ev"` key: each variant
/// names its tag (`Variant = "tag" { fields }`, or `Variant = "tag"` for
/// a unit variant), and the enum also gets `tag()` and `write_fields()`,
/// the latter writing `,"key":value` pairs so an envelope type can put
/// its own keys between the tag and the fields.
///
/// Docs, derives and other attributes pass through. A field may end in
/// one modifier:
///
/// - `[rename = "key"]` — the JSON key differs from the field name;
/// - `[omit_none]` — an `Option` field is left out when `None` (and read
///   as `None` when absent);
/// - `[default]` — an absent key reads as `Default::default()`, for keys
///   that older files lack.
///
/// ```
/// mptrace::record! {
///     /// A sample.
///     #[derive(Debug, PartialEq)]
///     pub struct Sample {
///         /// Its name.
///         pub name: String,
///         /// Its value, under the key `"v"`.
///         pub value: f64 [rename = "v"],
///     }
/// }
/// let s = Sample { name: "x".into(), value: f64::INFINITY };
/// assert_eq!(s.to_json(), r#"{"name":"x","v":"inf"}"#);
/// assert_eq!(Sample::parse(&s.to_json()).unwrap(), s);
/// ```
#[macro_export]
macro_rules! record {
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $(
                $(#[$fmeta:meta])*
                $fvis:vis $field:ident : $ty:ty $([$($modi:tt)+])?
            ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis struct $name {
            $( $(#[$fmeta])* $fvis $field: $ty, )*
        }

        impl $crate::json::Wire for $name {
            fn write(&self, out: &mut String) {
                let mut sep = '{';
                $( $crate::record!(@write out, sep, &self.$field, $field $($($modi)+)?); )*
                out.push_str(if sep == '{' { "{}" } else { "}" });
            }
            fn read(v: &$crate::json::Value) -> Option<Self> {
                <Self as $crate::json::Wire>::from_value(v).ok()
            }
            fn from_value(v: &$crate::json::Value) -> Result<Self, String> {
                Ok($name {
                    $( $field: $crate::record!(@read v, stringify!($name), $field $($($modi)+)?)?, )*
                })
            }
        }

        $crate::record!(@codec $name);
    };

    (
        $(#[$meta:meta])*
        $vis:vis enum $name:ident {
            $(
                $(#[$vmeta:meta])*
                $var:ident = $tag:literal $({
                    $(
                        $(#[$fmeta:meta])*
                        $field:ident : $ty:ty $([$($modi:tt)+])?
                    ),* $(,)?
                })?
            ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis enum $name {
            $( $(#[$vmeta])* $var $({ $( $(#[$fmeta])* $field: $ty, )* })?, )*
        }

        impl $name {
            /// The `"ev"` tag naming this variant on the wire.
            pub fn tag(&self) -> &'static str {
                match self {
                    $( Self::$var { .. } => $tag, )*
                }
            }

            /// Append this variant's fields as `,"key":value` pairs, with
            /// no tag and no braces.
            pub fn write_fields(&self, out: &mut String) {
                let mut sep = ',';
                match self {
                    $( Self::$var { $($($field,)*)? } => {
                        $($( $crate::record!(@write out, sep, $field, $field $($($modi)+)?); )*)?
                    } )*
                }
            }
        }

        impl $crate::json::Wire for $name {
            fn write(&self, out: &mut String) {
                out.push_str("{\"ev\":");
                $crate::json::esc(out, self.tag());
                self.write_fields(out);
                out.push('}');
            }
            fn read(v: &$crate::json::Value) -> Option<Self> {
                <Self as $crate::json::Wire>::from_value(v).ok()
            }
            fn from_value(v: &$crate::json::Value) -> Result<Self, String> {
                let tag = v
                    .get("ev")
                    .and_then($crate::json::Value::as_str)
                    .ok_or(concat!(stringify!($name), ": missing \"ev\" tag"))?;
                match tag {
                    $( $tag => Ok(Self::$var {
                        $($( $field: $crate::record!(@read v, $tag, $field $($($modi)+)?)?, )*)?
                    }), )*
                    other => Err(format!(concat!(stringify!($name), ": unknown \"ev\" tag {:?}"), other)),
                }
            }
        }

        $crate::record!(@codec $name);
    };

    (@codec $name:ident) => {
        impl $name {
            /// Serialize as one line of JSON (no trailing newline).
            pub fn to_json(&self) -> String {
                let mut out = String::with_capacity(128);
                $crate::json::Wire::write(self, &mut out);
                out
            }

            /// Parse a document written by `to_json`; writing the result
            /// again reproduces the input bytes.
            pub fn parse(text: &str) -> Result<Self, String> {
                <Self as $crate::json::Wire>::from_value(&$crate::json::parse(text)?)
            }
        }
    };

    (@write $out:ident, $sep:ident, $val:expr, $field:ident omit_none) => {
        if let Some(x) = $val {
            $crate::json::write_field($out, &mut $sep, stringify!($field), x);
        }
    };
    (@write $out:ident, $sep:ident, $val:expr, $field:ident $($modi:tt)*) => {
        $crate::json::write_field($out, &mut $sep, $crate::record!(@key $field $($modi)*), $val)
    };

    (@read $v:ident, $ctx:expr, $field:ident $($modi:tt)*) => {
        $crate::json::read_field(
            $v,
            $ctx,
            $crate::record!(@key $field $($modi)*),
            $crate::record!(@absent $($modi)*),
        )
    };

    (@key $field:ident rename = $key:literal) => { $key };
    (@key $field:ident $($modi:ident)?) => { stringify!($field) };

    (@absent $(rename = $key:literal)?) => { None };
    (@absent default) => { Some(Default::default()) };
    (@absent omit_none) => { Some(Default::default()) };

}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_document() {
        let v = parse(r#"{"a":[1,2.5,-3e2],"b":{"c":"x\"y"},"d":true,"e":null}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[1].as_f64(), Some(2.5));
        assert_eq!(v.get("b").unwrap().get("c").unwrap().as_str(), Some("x\"y"));
        assert_eq!(v.get("d").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("e").unwrap(), &Value::Null);
    }

    #[test]
    fn esc_round_trips_through_parse() {
        let nasty = "a\"b\\c\nd\te\rf\u{1}g";
        let mut doc = String::from("{\"k\":");
        esc(&mut doc, nasty);
        doc.push('}');
        let v = parse(&doc).unwrap();
        assert_eq!(v.get("k").unwrap().as_str(), Some(nasty));
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert!(parse("{} {}").is_err());
        assert!(parse("[1,]").is_err());
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        assert!(parse(&"[".repeat(1_000_000)).is_err());
        assert!(parse(&"{\"a\":".repeat(1_000_000)).is_err());
        let at_limit = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&at_limit).is_ok());
        let over = format!("[{at_limit}]");
        assert!(parse(&over).unwrap_err().contains("nesting"));
    }

    #[test]
    fn long_strings_parse_in_linear_time() {
        // 4 MiB is a whole `POST /jobs` body at craftd's limit; a scan
        // quadratic in it would hold the parsing thread for hours.
        let long = "é".repeat(2 << 20);
        let doc = format!("[\"{long}\",\"a\\\"b\"]");
        let t0 = std::time::Instant::now();
        let v = parse(&doc).unwrap();
        assert!(t0.elapsed() < std::time::Duration::from_secs(5), "{:?}", t0.elapsed());
        assert_eq!(v.as_arr().unwrap()[0].as_str(), Some(long.as_str()));
        assert_eq!(v.as_arr().unwrap()[1].as_str(), Some("a\"b"));
        assert_eq!(parse(&format!("\"{long}")).unwrap_err(), "unterminated string");
    }

    #[test]
    fn integers_read_only_whole_in_range_numbers() {
        let n = |text: &str| parse(text).unwrap();
        assert_eq!(u32::read(&n("4294967295")), Some(u32::MAX));
        assert_eq!(u32::read(&n("4294967296")), None);
        assert_eq!(u64::read(&n("1.5")), None);
        assert_eq!(u64::read(&n("-1")), None);
        assert_eq!(u64::read(&n("1e300")), None);
        assert_eq!(usize::read(&n("\"7\"")), None);
        assert_eq!(u64::read(&n("1e3")), Some(1000));
    }

    #[test]
    fn floats_spell_non_finite_values_as_strings() {
        for (x, text) in [(f64::INFINITY, "\"inf\""), (f64::NEG_INFINITY, "\"-inf\""), (0.1, "0.1")]
        {
            let mut out = String::new();
            x.write(&mut out);
            assert_eq!(out, text);
            assert_eq!(f64::read(&parse(&out).unwrap()), Some(x));
        }
        let mut out = String::new();
        f64::NAN.write(&mut out);
        assert!(f64::read(&parse(&out).unwrap()).unwrap().is_nan());
        assert_eq!(f64::read(&parse("\"1.0\"").unwrap()), None);
    }

    #[test]
    fn tolerant_jsonl_keeps_valid_prefix_on_truncation() {
        let text = "{\"a\":1}\n{\"b\":2}\n{\"c\":3,\"d\":\"trunc";
        let (lines, warn) = parse_jsonl_tolerant(text).unwrap();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0].0, 1);
        assert_eq!(lines[1].1.get("b").unwrap().as_u64(), Some(2));
        let warn = warn.expect("truncation must warn");
        assert!(warn.contains("line 3"), "{warn}");
        assert!(warn.contains("2 valid line(s)"), "{warn}");
    }

    #[test]
    fn tolerant_jsonl_clean_input_has_no_warning() {
        let (lines, warn) = parse_jsonl_tolerant("{\"a\":1}\n\n{\"b\":2}\n").unwrap();
        assert_eq!(lines.len(), 2);
        assert!(warn.is_none());
        // Fully-empty input is valid and empty.
        let (lines, warn) = parse_jsonl_tolerant("").unwrap();
        assert!(lines.is_empty() && warn.is_none());
    }

    #[test]
    fn tolerant_jsonl_rejects_mid_file_corruption() {
        let err = parse_jsonl_tolerant("{\"a\":1}\n{bad\n{\"b\":2}\n").unwrap_err();
        assert!(err.contains("line 2"), "{err}");
    }
}
