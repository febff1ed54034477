//! Offline stand-in for the `serde_json` crate.
//!
//! Renders the mini-serde [`Value`] tree (see the vendored `serde` crate)
//! to JSON text and parses JSON text back, with the API spelling this
//! workspace uses: [`to_string`], [`to_string_pretty`], [`from_str`],
//! [`to_value`], [`json!`], [`Map`] and [`Error`].

#![forbid(unsafe_code)]

pub use serde::{Map, Number, Value};

/// JSON serialization/deserialization error (shared with `serde`).
pub type Error = serde::Error;

/// Converts any serializable value into a [`Value`] tree.
///
/// (Upstream returns `Result`; conversion is infallible here, and the
/// only caller is the [`json!`] macro.)
pub fn to_value<T: serde::Serialize + ?Sized>(value: &T) -> Value {
    value.to_value()
}

/// Serializes `value` to compact JSON.
///
/// # Errors
///
/// Never fails in this implementation; the `Result` keeps upstream's
/// signature.
pub fn to_string<T: serde::Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), None, 0);
    Ok(out)
}

/// Serializes `value` to human-readable JSON (two-space indent).
///
/// # Errors
///
/// Never fails in this implementation; the `Result` keeps upstream's
/// signature.
pub fn to_string_pretty<T: serde::Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), Some(2), 0);
    Ok(out)
}

/// Parses JSON text into any deserializable type.
///
/// # Errors
///
/// Returns [`Error`] on malformed JSON or a shape mismatch.
pub fn from_str<T: serde::Deserialize>(text: &str) -> Result<T, Error> {
    let value = parse(text)?;
    T::from_value(&value)
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

fn write_value(out: &mut String, value: &Value, indent: Option<usize>, level: usize) {
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::Number(n) => write_number(out, *n),
        Value::String(s) => write_string(out, s),
        Value::Array(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, level + 1);
                write_value(out, item, indent, level + 1);
            }
            newline_indent(out, indent, level);
            out.push(']');
        }
        Value::Object(object) => {
            if object.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (key, item)) in object.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, level + 1);
                write_string(out, key);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(out, item, indent, level + 1);
            }
            newline_indent(out, indent, level);
            out.push('}');
        }
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, level: usize) {
    if let Some(width) = indent {
        out.push('\n');
        for _ in 0..width * level {
            out.push(' ');
        }
    }
}

fn write_number(out: &mut String, n: Number) {
    use std::fmt::Write;
    match n {
        Number::PosInt(v) => {
            let _ = write!(out, "{v}");
        }
        Number::NegInt(v) => {
            let _ = write!(out, "{v}");
        }
        Number::Float(v) => {
            let start = out.len();
            let _ = write!(out, "{v}");
            // Keep floats recognizably floats (upstream prints `1.0`).
            if !out[start..].contains(['.', 'e', 'E']) {
                out.push_str(".0");
            }
        }
    }
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                use std::fmt::Write;
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

/// Arrays and objects may nest this deep (upstream's recursion limit): the
/// parser recurses per level, and unbounded input would overflow the stack.
const RECURSION_LIMIT: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

fn parse(text: &str) -> Result<Value, Error> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error::custom(format!(
            "trailing characters at byte {}",
            p.pos
        )));
    }
    Ok(value)
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&mut self) -> Result<u8, Error> {
        self.skip_ws();
        self.bytes
            .get(self.pos)
            .copied()
            .ok_or_else(|| Error::custom("unexpected end of JSON"))
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek()? == b {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::custom(format!(
                "expected `{}` at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> Result<(), Error> {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            Ok(())
        } else {
            Err(Error::custom(format!(
                "invalid literal at byte {}",
                self.pos
            )))
        }
    }

    fn value(&mut self) -> Result<Value, Error> {
        match self.peek()? {
            b'n' => self.eat_keyword("null").map(|()| Value::Null),
            b't' => self.eat_keyword("true").map(|()| Value::Bool(true)),
            b'f' => self.eat_keyword("false").map(|()| Value::Bool(false)),
            b'"' => self.string().map(Value::String),
            b'[' => self.nested(Self::array),
            b'{' => self.nested(Self::object),
            b'-' | b'0'..=b'9' => self.number(),
            other => Err(Error::custom(format!(
                "unexpected `{}` at byte {}",
                other as char, self.pos
            ))),
        }
    }

    /// Parses one array or object with `container`, one level deeper.
    fn nested(&mut self, container: fn(&mut Self) -> Result<Value, Error>) -> Result<Value, Error> {
        self.depth += 1;
        if self.depth >= RECURSION_LIMIT {
            return Err(Error::custom(format!(
                "recursion limit exceeded at byte {}",
                self.pos
            )));
        }
        let value = container(self);
        self.depth -= 1;
        value
    }

    fn array(&mut self) -> Result<Value, Error> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek()? == b']' {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek()? {
                b',' => self.pos += 1,
                b']' => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                other => {
                    return Err(Error::custom(format!(
                        "expected `,` or `]`, got `{}`",
                        other as char
                    )))
                }
            }
        }
    }

    fn object(&mut self) -> Result<Value, Error> {
        self.expect(b'{')?;
        let mut object = Map::new();
        if self.peek()? == b'}' {
            self.pos += 1;
            return Ok(Value::Object(object));
        }
        loop {
            let key = match self.peek()? {
                b'"' => self.string()?,
                other => {
                    return Err(Error::custom(format!(
                        "expected object key, got `{}`",
                        other as char
                    )))
                }
            };
            self.expect(b':')?;
            let value = self.value()?;
            object.insert(key, value);
            match self.peek()? {
                b',' => self.pos += 1,
                b'}' => {
                    self.pos += 1;
                    return Ok(Value::Object(object));
                }
                other => {
                    return Err(Error::custom(format!(
                        "expected `,` or `}}`, got `{}`",
                        other as char
                    )))
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let b = *self
                .bytes
                .get(self.pos)
                .ok_or_else(|| Error::custom("unterminated string"))?;
            match b {
                b'"' => {
                    self.pos += 1;
                    return Ok(out);
                }
                b'\\' => {
                    self.pos += 1;
                    let esc = *self
                        .bytes
                        .get(self.pos)
                        .ok_or_else(|| Error::custom("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{08}'),
                        b'f' => out.push('\u{0c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let code = if (0xd800..0xdc00).contains(&hi) {
                                // Surrogate pair.
                                self.eat_keyword("\\u")?;
                                let lo = self.hex4()?;
                                if !(0xdc00..0xe000).contains(&lo) {
                                    return Err(Error::custom("unpaired surrogate in \\u escape"));
                                }
                                0x10000 + ((hi - 0xd800) << 10) + (lo - 0xdc00)
                            } else {
                                hi
                            };
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| Error::custom("invalid \\u escape"))?,
                            );
                        }
                        other => {
                            return Err(Error::custom(format!(
                                "invalid escape `\\{}`",
                                other as char
                            )))
                        }
                    }
                }
                _ => {
                    // Consume one UTF-8 scalar (input is a &str, so this
                    // byte-walk always lands on boundaries).
                    let start = self.pos;
                    self.pos += 1;
                    while self.bytes.get(self.pos).is_some_and(|b| b & 0xc0 == 0x80) {
                        self.pos += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.bytes[start..self.pos])
                            .map_err(|_| Error::custom("invalid UTF-8"))?,
                    );
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, Error> {
        let chunk = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| Error::custom("truncated \\u escape"))?;
        self.pos += 4;
        let text = std::str::from_utf8(chunk).map_err(|_| Error::custom("invalid \\u escape"))?;
        u32::from_str_radix(text, 16).map_err(|_| Error::custom("invalid \\u escape"))
    }

    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.bytes.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(&b) = self.bytes.get(self.pos) {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| Error::custom("invalid number"))?;
        let number = if is_float {
            Number::Float(
                text.parse::<f64>()
                    .map_err(|_| Error::custom(format!("invalid number `{text}`")))?,
            )
        } else if let Some(digits) = text.strip_prefix('-') {
            let _ = digits;
            match text.parse::<i64>() {
                Ok(v) => Number::NegInt(v),
                Err(_) => Number::Float(
                    text.parse::<f64>()
                        .map_err(|_| Error::custom(format!("invalid number `{text}`")))?,
                ),
            }
        } else {
            match text.parse::<u64>() {
                Ok(v) => Number::PosInt(v),
                Err(_) => Number::Float(
                    text.parse::<f64>()
                        .map_err(|_| Error::custom(format!("invalid number `{text}`")))?,
                ),
            }
        };
        Ok(Value::Number(number))
    }
}

// ---------------------------------------------------------------------------
// json! macro
// ---------------------------------------------------------------------------

/// Builds a [`Value`] from JSON-shaped syntax, interpolating Rust
/// expressions through `serde::Serialize`. Same muncher technique as
/// upstream serde_json, reduced to the forms this workspace uses
/// (string-literal keys, expression/array/object/keyword values).
#[macro_export]
macro_rules! json {
    ($($tt:tt)+) => {
        $crate::json_internal!($($tt)+)
    };
}

#[macro_export]
#[doc(hidden)]
macro_rules! json_internal {
    //
    // Array element munching: builds up `[$($elems,)*]`.
    //
    (@array [$($elems:expr,)*]) => {
        vec![$($elems,)*]
    };
    (@array [$($elems:expr),*]) => {
        vec![$($elems),*]
    };
    (@array [$($elems:expr,)*] null $($rest:tt)*) => {
        $crate::json_internal!(@array [$($elems,)* $crate::Value::Null] $($rest)*)
    };
    (@array [$($elems:expr,)*] true $($rest:tt)*) => {
        $crate::json_internal!(@array [$($elems,)* $crate::Value::Bool(true)] $($rest)*)
    };
    (@array [$($elems:expr,)*] false $($rest:tt)*) => {
        $crate::json_internal!(@array [$($elems,)* $crate::Value::Bool(false)] $($rest)*)
    };
    (@array [$($elems:expr,)*] [$($arr:tt)*] $($rest:tt)*) => {
        $crate::json_internal!(@array [$($elems,)* $crate::json_internal!([$($arr)*])] $($rest)*)
    };
    (@array [$($elems:expr,)*] {$($obj:tt)*} $($rest:tt)*) => {
        $crate::json_internal!(@array [$($elems,)* $crate::json_internal!({$($obj)*})] $($rest)*)
    };
    (@array [$($elems:expr,)*] $next:expr, $($rest:tt)*) => {
        $crate::json_internal!(@array [$($elems,)* $crate::to_value(&$next),] $($rest)*)
    };
    (@array [$($elems:expr,)*] $last:expr) => {
        $crate::json_internal!(@array [$($elems,)* $crate::to_value(&$last)])
    };
    (@array [$($elems:expr),*] , $($rest:tt)*) => {
        $crate::json_internal!(@array [$($elems,)*] $($rest)*)
    };
    //
    // Object munching: `@object $map (current key) (remaining tokens)`.
    //
    (@object $object:ident () ()) => {};
    // Insert a fully-munched `key => value` and continue.
    (@object $object:ident [$key:tt] ($value:expr) , $($rest:tt)*) => {
        $object.insert($key, $value);
        $crate::json_internal!(@object $object () ($($rest)*));
    };
    (@object $object:ident [$key:tt] ($value:expr)) => {
        $object.insert($key, $value);
    };
    // Munch the value for the current key.
    (@object $object:ident ($key:tt) (: null $($rest:tt)*)) => {
        $crate::json_internal!(@object $object [$key] ($crate::Value::Null) $($rest)*);
    };
    (@object $object:ident ($key:tt) (: true $($rest:tt)*)) => {
        $crate::json_internal!(@object $object [$key] ($crate::Value::Bool(true)) $($rest)*);
    };
    (@object $object:ident ($key:tt) (: false $($rest:tt)*)) => {
        $crate::json_internal!(@object $object [$key] ($crate::Value::Bool(false)) $($rest)*);
    };
    (@object $object:ident ($key:tt) (: [$($arr:tt)*] $($rest:tt)*)) => {
        $crate::json_internal!(@object $object [$key] ($crate::json_internal!([$($arr)*])) $($rest)*);
    };
    (@object $object:ident ($key:tt) (: {$($obj:tt)*} $($rest:tt)*)) => {
        $crate::json_internal!(@object $object [$key] ($crate::json_internal!({$($obj)*})) $($rest)*);
    };
    (@object $object:ident ($key:tt) (: $value:expr , $($rest:tt)*)) => {
        $crate::json_internal!(@object $object [$key] ($crate::to_value(&$value)) , $($rest)*);
    };
    (@object $object:ident ($key:tt) (: $value:expr)) => {
        $crate::json_internal!(@object $object [$key] ($crate::to_value(&$value)));
    };
    // Take the next key (a string literal).
    (@object $object:ident () ($key:tt $($rest:tt)*)) => {
        $crate::json_internal!(@object $object ($key) ($($rest)*));
    };
    //
    // Entry points.
    //
    (null) => { $crate::Value::Null };
    (true) => { $crate::Value::Bool(true) };
    (false) => { $crate::Value::Bool(false) };
    ([]) => { $crate::Value::Array(vec![]) };
    ([ $($tt:tt)+ ]) => {
        $crate::Value::Array($crate::json_internal!(@array [] $($tt)+))
    };
    ({}) => { $crate::Value::Object($crate::Map::new()) };
    ({ $($tt:tt)+ }) => {{
        let mut object = $crate::Map::new();
        $crate::json_internal!(@object object () ($($tt)+));
        $crate::Value::Object(object)
    }};
    ($other:expr) => { $crate::to_value(&$other) };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_compact() {
        let v = json!({
            "name": "deeprest",
            "count": 3u32,
            "nested": { "pi": 3.5f64, "flags": [true, false, null] },
            "empty": {},
        });
        let text = to_string(&v).unwrap();
        let back: Value = from_str(&text).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn pretty_format_spaces_keys() {
        let v = json!({"serviceName": "FrontendNGINX"});
        let text = to_string_pretty(&v).unwrap();
        assert!(
            text.contains("\"serviceName\": \"FrontendNGINX\""),
            "{text}"
        );
    }

    #[test]
    fn parses_escapes_and_numbers() {
        let v: Value = from_str(r#"{"s": "a\nA😀", "n": -4, "f": 2.5e2}"#).unwrap();
        let obj = v.as_object().unwrap();
        assert_eq!(obj.get("s").unwrap().as_str().unwrap(), "a\nA😀");
        assert_eq!(obj.get("n").unwrap().as_i64().unwrap(), -4);
        assert_eq!(obj.get("f").unwrap().as_f64().unwrap(), 250.0);
    }

    #[test]
    fn nesting_is_bounded_not_a_stack_overflow() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(from_str::<Value>(&nested(RECURSION_LIMIT - 1)).is_ok());
        assert!(from_str::<Value>(&nested(RECURSION_LIMIT)).is_err());
        // Deep enough to overflow the stack of an unbounded recursive parser.
        let bomb = format!(r#"{{"data":[],"x":{}}}"#, nested(200_000));
        assert!(from_str::<Value>(&bomb).is_err());
        let objects = format!("{}1{}", r#"{"k":"#.repeat(200_000), "}".repeat(200_000));
        assert!(from_str::<Value>(&objects).is_err());
        // Depth is nesting, not a count of containers.
        let wide = format!("[{}[]]", "[],".repeat(1_000));
        assert!(from_str::<Value>(&wide).is_ok());
    }

    #[test]
    fn unpaired_surrogates_are_errors() {
        // A high surrogate must be followed by a low one...
        assert!(from_str::<Value>(r#""\ud800\u0041""#).is_err());
        assert!(from_str::<Value>(r#""\ud800\ud800""#).is_err());
        assert!(from_str::<Value>(r#""\ud800x""#).is_err());
        // ...and a low one must follow a high one.
        assert!(from_str::<Value>(r#""\udc00""#).is_err());
        let v: Value = from_str(r#""\ud83d\ude00""#).unwrap();
        assert_eq!(v.as_str().unwrap(), "😀");
    }

    #[test]
    fn floats_stay_floats_in_text() {
        let text = to_string(&vec![1.0f64, 0.5]).unwrap();
        assert_eq!(text, "[1.0,0.5]");
    }

    #[test]
    fn expression_values_serialize() {
        let rows: Vec<(String, f64)> = vec![("a".into(), 1.5)];
        let v = json!({ "rows": rows, "len": rows.len() });
        let text = to_string(&v).unwrap();
        assert_eq!(text, r#"{"rows":[["a",1.5]],"len":1}"#);
    }
}
