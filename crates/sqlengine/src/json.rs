//! The tree's one JSON codec: a small value model, a parser and the writers.
//!
//! Snapshots and checkpoints ([`crate::snapshot`], [`crate::wal`]), the
//! `bornsql` model artifact and the reproduction reports all go through it.
//! A document with a large part — a snapshot's or checkpoint's table rows —
//! is read with a [`Reader`], which decodes the rows straight into
//! [`Row`]s and builds a [`Json`] tree only of the small parts around them.
//! Numbers keep the int/float distinction so SQL `Int` and `Float` round-trip
//! without type drift, and non-finite floats, which standard JSON cannot
//! represent, are encoded as tagged objects (`{"~f":"nan"}`, `{"~f":"inf"}`,
//! `{"~f":"-inf"}`) instead of silently collapsing to `null`.

use std::sync::Arc;

use crate::error::{EngineError, Result};
use crate::value::{Row, Value};

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

/// A reader over one JSON document that streams its objects field by field,
/// so a caller decodes each part as it arrives: a small part as a [`Json`]
/// tree ([`Reader::value`]), an array of rows straight into `Vec<Row>`
/// ([`Reader::rows`]).
pub(crate) struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(text: &'a str) -> Reader<'a> {
        Reader {
            bytes: text.as_bytes(),
            pos: 0,
        }
    }

    /// Read an object, handing each key in document order to `field`,
    /// which must read that key's value.
    pub(crate) fn object(
        &mut self,
        mut field: impl FnMut(&mut Reader<'a>, String) -> Result<()>,
    ) -> Result<()> {
        skip_ws(self.bytes, &mut self.pos);
        expect_byte(self.bytes, &mut self.pos, b'{')?;
        skip_ws(self.bytes, &mut self.pos);
        if self.bytes.get(self.pos) == Some(&b'}') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            skip_ws(self.bytes, &mut self.pos);
            let key = parse_string(self.bytes, &mut self.pos)?;
            skip_ws(self.bytes, &mut self.pos);
            expect_byte(self.bytes, &mut self.pos, b':')?;
            field(self, key)?;
            skip_ws(self.bytes, &mut self.pos);
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => {
                    return Err(corrupt(format!(
                        "expected ',' or '}}' at byte {}",
                        self.pos
                    )))
                }
            }
        }
    }

    /// Read the next value as a tree.
    pub(crate) fn value(&mut self) -> Result<Json> {
        parse_value(self.bytes, &mut self.pos)
    }

    /// Read an array of rows, each an array of SQL values as
    /// [`write_json_value`] writes them, with no tree in between: a text
    /// value is one allocation, and a row is allocated at the width of the
    /// row before it.
    pub(crate) fn rows(&mut self) -> Result<Vec<Row>> {
        let mut width = 0;
        parse_array(self.bytes, &mut self.pos, Vec::new(), |bytes, pos| {
            skip_ws(bytes, pos);
            if bytes.get(*pos) != Some(&b'[') {
                return Err(corrupt(format!("row is not an array at byte {}", *pos)));
            }
            let row = parse_array(bytes, pos, Vec::with_capacity(width), parse_cell)?;
            width = row.len();
            Ok(row)
        })
    }

    /// End the document: anything left but whitespace is an error.
    pub(crate) fn finish(mut self) -> Result<()> {
        skip_ws(self.bytes, &mut self.pos);
        if self.pos != self.bytes.len() {
            return Err(corrupt(format!("trailing data at byte {}", self.pos)));
        }
        Ok(())
    }
}

/// An array, each item read by `item` and pushed onto `items`.
fn parse_array<T>(
    bytes: &[u8],
    pos: &mut usize,
    mut items: Vec<T>,
    mut item: impl FnMut(&[u8], &mut usize) -> Result<T>,
) -> Result<Vec<T>> {
    skip_ws(bytes, pos);
    expect_byte(bytes, pos, b'[')?;
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(items);
    }
    loop {
        items.push(item(bytes, pos)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(items);
            }
            _ => return Err(corrupt(format!("expected ',' or ']' at byte {}", *pos))),
        }
    }
}

/// One SQL value; the inverse of [`write_json_value`].
fn parse_cell(bytes: &[u8], pos: &mut usize) -> Result<Value> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err(corrupt("unexpected end of input")),
        Some(b'n') => parse_keyword(bytes, pos, "null", Json::Null).map(|_| Value::Null),
        Some(b'"') => parse_text(bytes, pos).map(Value::Str),
        Some(b'{') => parse_float_tag(bytes, pos).map(Value::Float),
        Some(b'[' | b't' | b'f') => {
            Err(corrupt(format!("unexpected value in row at byte {}", *pos)))
        }
        Some(_) => match parse_number(bytes, pos)? {
            Json::Int(i) => Ok(Value::Int(i)),
            Json::Float(f) => Ok(Value::Float(f)),
            _ => unreachable!("a number parses as an int or a float"),
        },
    }
}

/// A non-finite float's tagged object, `{"~f":"nan"|"inf"|"-inf"}`.
fn parse_float_tag(bytes: &[u8], pos: &mut usize) -> Result<f64> {
    let at = *pos;
    let not_a_tag = || corrupt(format!("unexpected object in row at byte {at}"));
    *pos += 1;
    skip_ws(bytes, pos);
    if bytes.get(*pos) != Some(&b'"') || parse_string(bytes, pos)? != "~f" {
        return Err(not_a_tag());
    }
    skip_ws(bytes, pos);
    expect_byte(bytes, pos, b':')?;
    skip_ws(bytes, pos);
    if bytes.get(*pos) != Some(&b'"') {
        return Err(not_a_tag());
    }
    let tag = parse_string(bytes, pos)?;
    skip_ws(bytes, pos);
    if bytes.get(*pos) != Some(&b'}') {
        return Err(not_a_tag());
    }
    *pos += 1;
    match tag.as_str() {
        "nan" => Ok(f64::NAN),
        "inf" => Ok(f64::INFINITY),
        "-inf" => Ok(f64::NEG_INFINITY),
        other => Err(corrupt(format!("unknown float tag '{other}'"))),
    }
}

/// A string as a text value. One with no escape, the common case, is copied
/// once, straight from the input into its `Arc`.
fn parse_text(bytes: &[u8], pos: &mut usize) -> Result<Arc<str>> {
    let start = *pos + 1;
    let run = bytes[start..]
        .iter()
        .position(|b| matches!(b, b'"' | b'\\'))
        .ok_or_else(|| corrupt("unterminated string"))?;
    if bytes[start + run] == b'\\' {
        return parse_string(bytes, pos).map(Arc::from);
    }
    let text = std::str::from_utf8(&bytes[start..start + run])
        .map_err(|_| corrupt("invalid UTF-8 in string"))?;
    *pos = start + run + 1;
    Ok(Arc::from(text))
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
            let mut reader = Reader { bytes, pos: *pos };
            let mut fields = Vec::new();
            reader.object(|r, key| {
                fields.push((key, r.value()?));
                Ok(())
            })?;
            *pos = reader.pos;
            Ok(Json::Object(fields))
        }
        Some(b'[') => parse_array(bytes, pos, Vec::new(), parse_value).map(Json::Array),
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
    #[cfg(not(miri))] // a wall-clock ratio over megabytes
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

    fn rows_of(text: &str) -> Result<Vec<Row>> {
        let mut reader = Reader::new(text);
        let rows = reader.rows()?;
        reader.finish()?;
        Ok(rows)
    }

    #[test]
    fn the_row_reader_decodes_what_the_value_writer_writes() {
        let rows = vec![
            vec![
                Value::Int(-7),
                Value::Float(0.1),
                Value::Null,
                Value::text("plain"),
            ],
            vec![
                Value::Int(i64::MAX),
                Value::Float(-0.0),
                Value::text("q\" b\\ \n\r\t \u{1} é✓"),
                Value::text(""),
            ],
            vec![
                Value::Float(f64::NAN),
                Value::Float(f64::INFINITY),
                Value::Float(f64::NEG_INFINITY),
                Value::Float(1e300),
            ],
            vec![],
        ];
        let mut text = String::from("[");
        for (i, row) in rows.iter().enumerate() {
            text.push_str(if i > 0 { ",[" } else { "[" });
            for (j, v) in row.iter().enumerate() {
                if j > 0 {
                    text.push(',');
                }
                write_json_value(&mut text, v);
            }
            text.push(']');
        }
        text.push(']');
        let decoded = rows_of(&text).unwrap();
        assert_eq!(decoded.len(), rows.len());
        for (got, want) in decoded.iter().zip(&rows) {
            assert_eq!(got.len(), want.len());
            for (g, w) in got.iter().zip(want) {
                match (g, w) {
                    (Value::Float(g), Value::Float(w)) => assert_eq!(g.to_bits(), w.to_bits()),
                    _ => assert_eq!(g, w),
                }
            }
        }
        // Whitespace anywhere between tokens, as any JSON writer may put it.
        let spaced = rows_of(" [ [ 1 , \"a\" , { \"~f\" : \"inf\" } ] , [ ] ] ").unwrap();
        assert_eq!(spaced[0][2], Value::Float(f64::INFINITY));
        assert_eq!(spaced[1], Vec::<Value>::new());
        assert_eq!(rows_of("[]").unwrap(), Vec::<Row>::new());
    }

    #[test]
    fn the_row_reader_rejects_what_is_not_a_row_of_values() {
        for (bad, why) in [
            ("", "expected '['"),
            ("[1]", "row is not an array"),
            ("[[true]]", "unexpected value in row"),
            ("[[[1]]]", "unexpected value in row"),
            ("[[{\"a\":1}]]", "unexpected object in row"),
            ("[[{\"~f\":1}]]", "unexpected object in row"),
            ("[[{\"~f\":\"inf\",\"x\":1}]]", "unexpected object in row"),
            ("[[{\"~f\":\"big\"}]]", "unknown float tag 'big'"),
            ("[[1,]]", "unexpected character"),
            ("[[1 2]]", "expected ',' or ']'"),
            ("[[1]", "expected ',' or ']'"),
            ("[[\"abc]]", "unterminated string"),
            ("[[\"a\\qb\"]]", "invalid escape"),
            ("[[nul]]", "invalid literal"),
            ("[[1]] x", "trailing data"),
        ] {
            let err = rows_of(bad).expect_err(bad);
            assert!(err.message().contains(why), "{bad:?}: {err}");
        }
    }

    #[test]
    fn an_object_is_read_field_by_field_in_document_order() {
        let mut reader = Reader::new(r#" { "a" : [1, {"b": null}] , "rows": [[2]], "c": "x" } "#);
        let mut seen = Vec::new();
        reader
            .object(|r, key| {
                let value = match key.as_str() {
                    "rows" => format!("{:?}", r.rows()?),
                    _ => format!("{:?}", r.value()?),
                };
                seen.push((key, value));
                Ok(())
            })
            .unwrap();
        reader.finish().unwrap();
        let keys: Vec<&str> = seen.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["a", "rows", "c"]);
        assert_eq!(seen[1].1, "[[Int(2)]]");
        let mut empty = Reader::new("{}");
        empty
            .object(|_, key| panic!("no field, got {key}"))
            .unwrap();
        for bad in ["", "[]", "{\"a\" 1}", "{\"a\":1", "{\"a\":1,}"] {
            let mut reader = Reader::new(bad);
            let read = reader.object(|r, _| r.value().map(drop));
            assert!(read.and_then(|()| reader.finish()).is_err(), "{bad:?}");
        }
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
