//! The workspace's one JSON vocabulary: a std-only value model with a
//! compact deterministic renderer, a strict parser, and the single
//! string escaper every emitter shares.
//!
//! Tree-shaped artifacts (lint evidence, violations, bench rows) build
//! a [`Json`] and [`Json::render`] it. Flat per-event lines (journal
//! JSONL, the Chrome trace) format their own numbers but escape every
//! string through [`write_str`], so all of them agree byte for byte on
//! what a string looks like. Compiled regardless of the `telemetry`
//! feature.

use std::fmt::Write as _;

/// A JSON value. Objects keep their keys in insertion order, so
/// `render(parse(text)) == text` for every compact rendering.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A number without fraction or exponent that fits in an `i64`.
    Num(i64),
    /// Any other number. Renders with a `.` or an exponent, so it
    /// parses back as a `Float`; non-finite values render as `null`.
    Float(f64),
    /// String.
    Str(String),
    /// Array.
    Arr(Vec<Json>),
    /// Object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Serializes compactly (no whitespace), deterministically.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => {
                let _ = write!(out, "{n}");
            }
            Json::Float(x) if x.is_finite() => {
                // `Debug` is the shortest round-tripping form and always
                // carries a `.` or an exponent (`2.0`, `1e-7`).
                let _ = write!(out, "{x:?}");
            }
            Json::Float(_) => out.push_str("null"),
            Json::Str(s) => write_str(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_str(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses one complete JSON document; trailing non-whitespace is an
    /// error.
    ///
    /// # Errors
    ///
    /// A message naming the byte offset of the first malformed token.
    pub fn parse(src: &str) -> Result<Json, String> {
        let bytes = src.as_bytes();
        let mut pos = 0;
        let v = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing input at byte {pos}"));
        }
        Ok(v)
    }

    /// Object field lookup; `None` on a missing key or a non-object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The integer, if this is a [`Json::Num`].
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// Any number, widened to `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n as f64),
            Json::Float(x) => Some(*x),
            _ => None,
        }
    }

    /// The items, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Appends `s` to `out` as a quoted JSON string literal: `"` and `\`
/// backslash-escaped, `\n` `\r` `\t` by name, other control characters
/// as `\u00XX`, everything else verbatim.
pub fn write_str(s: &str, out: &mut String) {
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

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    let Some(&b) = bytes.get(*pos) else {
        return Err("unexpected end of input".into());
    };
    match b {
        b'n' => parse_lit(bytes, pos, "null", Json::Null),
        b't' => parse_lit(bytes, pos, "true", Json::Bool(true)),
        b'f' => parse_lit(bytes, pos, "false", Json::Bool(false)),
        b'"' => parse_string(bytes, pos).map(Json::Str),
        b'[' => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected `,` or `]` at byte {pos}")),
                }
            }
        }
        b'{' => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                if bytes.get(*pos) != Some(&b':') {
                    return Err(format!("expected `:` at byte {pos}"));
                }
                *pos += 1;
                fields.push((key, parse_value(bytes, pos)?));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(fields));
                    }
                    _ => return Err(format!("expected `,` or `}}` at byte {pos}")),
                }
            }
        }
        b'-' | b'0'..=b'9' => parse_number(bytes, pos),
        other => Err(format!("unexpected byte `{}` at byte {pos}", other as char)),
    }
}

/// Advances past a run of ASCII digits; returns how many there were.
fn digits(bytes: &[u8], pos: &mut usize) -> usize {
    let start = *pos;
    while bytes.get(*pos).is_some_and(u8::is_ascii_digit) {
        *pos += 1;
    }
    *pos - start
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if bytes[*pos] == b'-' {
        *pos += 1;
    }
    let mut ok = digits(bytes, pos) > 0;
    let mut integral = true;
    if bytes.get(*pos) == Some(&b'.') {
        *pos += 1;
        integral = false;
        ok &= digits(bytes, pos) > 0;
    }
    if matches!(bytes.get(*pos), Some(b'e' | b'E')) {
        *pos += 1;
        integral = false;
        if matches!(bytes.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        ok &= digits(bytes, pos) > 0;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).unwrap();
    if !ok {
        return Err(format!("bad number `{text}` at byte {start}"));
    }
    if integral {
        if let Ok(n) = text.parse::<i64>() {
            return Ok(Json::Num(n));
        }
    }
    text.parse::<f64>()
        .map(Json::Float)
        .map_err(|e| format!("bad number `{text}`: {e}"))
}

fn parse_lit(bytes: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("expected `{lit}` at byte {pos}"))
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    if bytes.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at byte {pos}"));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .ok_or("truncated \\u escape")?;
                        let code = u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                        out.push(char::from_u32(code).ok_or("bad \\u codepoint")?);
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {pos}")),
                }
                *pos += 1;
            }
            Some(&c) if c < 0x20 => {
                return Err(format!("control character in string at byte {pos}"))
            }
            Some(_) => {
                // Consume one UTF-8 scalar.
                let rest = std::str::from_utf8(&bytes[*pos..]).map_err(|_| "bad UTF-8")?;
                let c = rest.chars().next().unwrap();
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_values_round_trip_with_floats_and_escapes() {
        let src = r#"{"a":[1,2.5,-3],"b":"x\ny","c":{"t":true,"n":null}}"#;
        let v = Json::parse(src).unwrap();
        let a = v.get("a").and_then(Json::as_array).unwrap();
        assert_eq!(a[0].as_i64(), Some(1));
        assert_eq!(a[1], Json::Float(2.5));
        assert_eq!(a[1].as_f64(), Some(2.5));
        assert_eq!(a[1].as_i64(), None);
        assert_eq!(v.get("b").and_then(Json::as_str), Some("x\ny"));
        let c = v.get("c").unwrap();
        assert_eq!(c.get("t"), Some(&Json::Bool(true)));
        assert_eq!(c.get("n"), Some(&Json::Null));
        assert_eq!(v.render(), src);
        assert_eq!(Json::parse(&v.render()).unwrap(), v);
    }

    #[test]
    fn rejects_garbage() {
        for bad in [
            "{", "[1,]", "1 2", "\"unterminated", "{}extra", "-", "1.", ".5", "1e", "tru",
            "\"a\u{1}b\"", "\"\\q\"", "{\"a\" 1}",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} parsed");
        }
        assert_eq!(
            Json::parse("{\"a\": [1, -2]}").unwrap(),
            Json::Obj(vec![(
                "a".into(),
                Json::Arr(vec![Json::Num(1), Json::Num(-2)])
            )])
        );
    }

    #[test]
    fn numbers_split_into_integers_and_floats() {
        assert_eq!(
            Json::parse("-9223372036854775808").unwrap(),
            Json::Num(i64::MIN)
        );
        assert_eq!(
            Json::parse("9223372036854775808").unwrap(),
            Json::Float(9.223_372_036_854_776e18)
        );
        assert_eq!(Json::parse("1.5").unwrap(), Json::Float(1.5));
        assert_eq!(Json::parse("2E3").unwrap(), Json::Float(2000.0));
        assert_eq!(Json::parse("12.345").unwrap().as_f64(), Some(12.345));
        // Floats keep their kind through a render.
        for x in [2.0, 0.1, 62.6, 182_568_871.0, 1e-7, 1e300, -0.5] {
            let text = Json::Float(x).render();
            assert_eq!(Json::parse(&text).unwrap(), Json::Float(x), "{text}");
        }
        assert_eq!(Json::Float(f64::NAN).render(), "null");
    }

    #[test]
    fn string_escapes_round_trip() {
        let s = "a\"b\\c\nd\te\u{1}f\r\u{1f}é";
        let mut out = String::new();
        write_str(s, &mut out);
        assert_eq!(out, "\"a\\\"b\\\\c\\nd\\te\\u0001f\\r\\u001fé\"");
        assert_eq!(Json::parse(&out).unwrap(), Json::Str(s.into()));
        assert_eq!(
            Json::parse(r#""\/\b\f\u00e9""#).unwrap(),
            Json::Str("/\u{8}\u{c}é".into())
        );
    }

    #[test]
    fn journal_lines_round_trip_byte_for_byte() {
        use crate::journal::{Event, EventKind};
        let kinds = [
            EventKind::BlockEval {
                block: 3,
                name: "clamp \"odd\"\n\u{1}\\".into(),
                dur_ns: 17,
            },
            EventKind::Abort {
                layer: "asr\t".into(),
                message: "bad \u{1f} input\r".into(),
            },
            EventKind::SfrTransform {
                name: "while-to-for".into(),
                changed: true,
            },
            EventKind::SchedExplore {
                states: 9,
                schedules: 2,
                distinct: 1,
                truncated: false,
            },
            EventKind::DeadlineOverrun {
                scope: "asr.instant".into(),
                measured_ns: 2_000_000,
                bound_ns: 1_000_000,
            },
        ];
        for (seq, kind) in kinds.into_iter().enumerate() {
            let line = Event {
                seq: seq as u64,
                ts_ns: 1234,
                kind,
            }
            .to_json_line();
            assert_eq!(Json::parse(&line).unwrap().render(), line);
        }
    }
}
