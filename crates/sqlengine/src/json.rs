//! The tree's one JSON codec: a small value model, a parser and the writers.
//!
//! Snapshots and checkpoints ([`crate::snapshot`], [`crate::wal`]), the
//! `bornsql` model artifact and the reproduction reports all go through it.
//! Numbers keep the int/float distinction so SQL `Int` and `Float` round-trip
//! without type drift, and non-finite floats, which standard JSON cannot
//! represent, are encoded as tagged objects (`{"~f":"nan"}`, `{"~f":"inf"}`,
//! `{"~f":"-inf"}`) instead of silently collapsing to `null`.

use crate::error::{EngineError, Result};
use crate::value::Value;

fn corrupt(msg: impl std::fmt::Display) -> EngineError {
    EngineError::exec(format!("invalid JSON: {msg}"))
}

/// Encode one SQL value as JSON.
pub fn write_json_value(out: &mut String, v: &Value) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Int(i) => out.push_str(&i.to_string()),
        Value::Float(f) => write_json_f64(out, *f),
        Value::Str(s) => write_json_string(out, s),
    }
}

/// Encode one float. Non-finite floats get the tagged encoding because JSON
/// has no literal for them.
pub fn write_json_f64(out: &mut String, f: f64) {
    if f.is_nan() {
        out.push_str("{\"~f\":\"nan\"}");
    } else if f.is_infinite() {
        out.push_str(if f > 0.0 {
            "{\"~f\":\"inf\"}"
        } else {
            "{\"~f\":\"-inf\"}"
        });
    } else {
        // `{:?}` prints the shortest representation that parses back to the
        // same f64 and always keeps a `.` or exponent, so floats stay
        // distinguishable from ints.
        out.push_str(&format!("{f:?}"));
    }
}

/// Decode one SQL value; the inverse of [`write_json_value`].
pub fn json_to_value(j: &Json) -> Result<Value> {
    match j {
        Json::Null => Ok(Value::Null),
        Json::Int(i) => Ok(Value::Int(*i)),
        Json::Float(f) => Ok(Value::Float(*f)),
        Json::Str(s) => Ok(Value::text(s)),
        Json::Object(fields) => match fields.as_slice() {
            [(k, Json::Str(tag))] if k == "~f" => match tag.as_str() {
                "nan" => Ok(Value::Float(f64::NAN)),
                "inf" => Ok(Value::Float(f64::INFINITY)),
                "-inf" => Ok(Value::Float(f64::NEG_INFINITY)),
                other => Err(corrupt(format!("unknown float tag '{other}'"))),
            },
            _ => Err(corrupt("unexpected object in row")),
        },
        _ => Err(corrupt("unexpected value in row")),
    }
}

/// Write `s` as a quoted, escaped JSON string.
pub fn write_json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A parsed JSON document. A number token with `.`/`e`/`E` parses as a
/// float, any other as an int.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Int(i64),
    Float(f64),
    Str(String),
    Array(Vec<Json>),
    Object(Vec<(String, Json)>),
}

impl Json {
    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Object(fields) => Some(fields),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(i) if *i >= 0 => Some(*i as u64),
            _ => None,
        }
    }

    /// Any JSON number, int or float.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(i) => Some(*i as f64),
            Json::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Field lookup on objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.as_object()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }
}

/// Parse one JSON document; anything after it but whitespace is an error.
pub fn parse_json(text: &str) -> Result<Json> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(corrupt(format!("trailing data at byte {pos}")));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect_byte(bytes: &[u8], pos: &mut usize, b: u8) -> Result<()> {
    if bytes.get(*pos) == Some(&b) {
        *pos += 1;
        Ok(())
    } else {
        Err(corrupt(format!(
            "expected '{}' at byte {}",
            b as char, *pos
        )))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err(corrupt("unexpected end of input")),
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Object(fields));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                expect_byte(bytes, pos, b':')?;
                let value = parse_value(bytes, pos)?;
                fields.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Object(fields));
                    }
                    _ => return Err(corrupt(format!("expected ',' or '}}' at byte {}", *pos))),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Array(items));
            }
            loop {
                items.push(parse_value(bytes, pos)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Array(items));
                    }
                    _ => return Err(corrupt(format!("expected ',' or ']' at byte {}", *pos))),
                }
            }
        }
        Some(b'"') => Ok(Json::Str(parse_string(bytes, pos)?)),
        Some(b'n') => parse_keyword(bytes, pos, "null", Json::Null),
        Some(b't') => parse_keyword(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_keyword(bytes, pos, "false", Json::Bool(false)),
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_keyword(bytes: &[u8], pos: &mut usize, word: &str, value: Json) -> Result<Json> {
    if bytes[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(value)
    } else {
        Err(corrupt(format!("invalid literal at byte {}", *pos)))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    let token = std::str::from_utf8(&bytes[start..*pos])
        .map_err(|_| corrupt(format!("invalid number at byte {start}")))?;
    if token.is_empty() {
        return Err(corrupt(format!("unexpected character at byte {start}")));
    }
    if token.contains(['.', 'e', 'E']) {
        token
            .parse::<f64>()
            .map(Json::Float)
            .map_err(|_| corrupt(format!("invalid float '{token}'")))
    } else {
        // Integer token; fall back to f64 on i64 overflow.
        token
            .parse::<i64>()
            .map(Json::Int)
            .or_else(|_| token.parse::<f64>().map(Json::Float))
            .map_err(|_| corrupt(format!("invalid number '{token}'")))
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String> {
    expect_byte(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        // Copy the run up to the next quote or escape, validated once: a
        // check per character would rescan the rest of the input each time.
        let run = bytes[*pos..]
            .iter()
            .position(|b| matches!(b, b'"' | b'\\'))
            .ok_or_else(|| corrupt("unterminated string"))?;
        let text = std::str::from_utf8(&bytes[*pos..*pos + run])
            .map_err(|_| corrupt("invalid UTF-8 in string"))?;
        out.push_str(text);
        *pos += run + 1;
        if bytes[*pos - 1] == b'"' {
            return Ok(out);
        }
        match bytes.get(*pos) {
            Some(b'"') => out.push('"'),
            Some(b'\\') => out.push('\\'),
            Some(b'/') => out.push('/'),
            Some(b'n') => out.push('\n'),
            Some(b'r') => out.push('\r'),
            Some(b't') => out.push('\t'),
            Some(b'b') => out.push('\u{0008}'),
            Some(b'f') => out.push('\u{000c}'),
            Some(b'u') => {
                let hex = bytes
                    .get(*pos + 1..*pos + 5)
                    .and_then(|h| std::str::from_utf8(h).ok())
                    .and_then(|h| u32::from_str_radix(h, 16).ok())
                    .ok_or_else(|| corrupt("invalid \\u escape"))?;
                // Surrogate pairs are not produced by our writer;
                // map lone surrogates to the replacement character.
                out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                *pos += 4;
            }
            _ => return Err(corrupt("invalid escape")),
        }
        *pos += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    /// 4× the bytes must cost about 4× the time; work per character that
    /// grows with the rest of the input (16×) fails this.
    #[test]
    fn string_heavy_documents_parse_in_linear_time() {
        let cell = "\"0123456789 abcdefghijklmnopqrstuvwxyz \\\" 0123456789 é✓ abcdefgh\",";
        let document = |bytes: usize| format!("[{}null]", cell.repeat(bytes / cell.len()));
        let best_of_three = |text: &str| {
            let timed = (0..3).map(|_| {
                let start = Instant::now();
                let parsed = parse_json(text).unwrap();
                let elapsed = start.elapsed();
                assert_eq!(
                    parsed.as_array().unwrap().len(),
                    text.len() / cell.len() + 1
                );
                elapsed
            });
            timed.min().unwrap()
        };
        // Both sizes are well out of cache, and large enough that a parser
        // quadratic in them takes minutes (102 s for the smaller, measured).
        let (small, large) = (document(1 << 20), document(4 << 20));
        let (t_small, t_large) = (best_of_three(&small), best_of_three(&large));
        assert!(
            t_large < t_small * 8,
            "{} bytes in {t_small:?}, {} bytes in {t_large:?}",
            small.len(),
            large.len()
        );
    }

    #[test]
    fn malformed_strings_fail_cleanly() {
        for (bad, why) in [
            ("\"abc", "unterminated string"),
            ("\"abc\\", "invalid escape"),
            ("\"a\\qb\"", "invalid escape"),
            ("\"a\\u12\"", "invalid \\u escape"),
            ("\"a\\u12", "invalid \\u escape"),
        ] {
            let err = parse_json(bad).expect_err(bad);
            assert!(err.message().contains(why), "{bad:?}: {err}");
        }
        let escapes = parse_json(r#""q\" b\\ s\/ \n\r\t\b\f \u00e9 é✓""#).unwrap();
        assert_eq!(escapes.as_str(), Some("q\" b\\ s/ \n\r\t\u{8}\u{c} é é✓"));
    }
}
