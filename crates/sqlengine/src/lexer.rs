//! SQL tokenizer.
//!
//! Produces a flat token stream. Keywords are recognized case-insensitively
//! and carried as their upper-case spelling; identifiers keep their original
//! case but compare case-insensitively downstream. String literals use single
//! quotes with `''` escaping; double-quoted identifiers are supported.

use crate::error::{EngineError, Result, Span};
use crate::value::Value;

/// A single lexical token.
#[derive(Debug, Clone, PartialEq)]
pub enum Token {
    /// Keyword, upper-cased (`SELECT`, `FROM`, ...).
    Keyword(String),
    /// Bare or double-quoted identifier, original case preserved.
    Ident(String),
    /// Integer literal.
    Int(i64),
    /// Floating point literal.
    Float(f64),
    /// Single-quoted string literal, unescaped.
    Str(String),
    /// Positional parameter `?` (1-based index assigned in lexing order) or
    /// explicit `?NNN`.
    Param(usize),
    // Punctuation / operators.
    Comma,
    Dot,
    Semicolon,
    LParen,
    RParen,
    Star,
    Plus,
    Minus,
    Slash,
    Percent,
    Eq,
    NotEq,
    Lt,
    LtEq,
    Gt,
    GtEq,
    Concat, // ||
}

/// Words treated as keywords by the parser. Anything else is an identifier.
/// Sorted, so that each initial's keywords are one run ([`KEYWORD_RUNS`]).
const KEYWORDS: &[&str] = &[
    "ALL",
    "ANALYZE",
    "AND",
    "AS",
    "ASC",
    "AVG",
    "BEGIN",
    "BETWEEN",
    "BIGINT",
    "BY",
    "CASE",
    "CAST",
    "COMMIT",
    "CONFLICT",
    "COUNT",
    "CREATE",
    "CROSS",
    "DELETE",
    "DENSE_RANK",
    "DESC",
    "DISTINCT",
    "DO",
    "DOUBLE",
    "DROP",
    "ELSE",
    "END",
    "EXCLUDED",
    "EXISTS",
    "EXPLAIN",
    "FALSE",
    "FLOAT",
    "FROM",
    "GROUP",
    "HAVING",
    "IF",
    "IN",
    "INDEX",
    "INNER",
    "INSERT",
    "INT",
    "INTEGER",
    "INTO",
    "IS",
    "JOIN",
    "KEY",
    "LEFT",
    "LIKE",
    "LIMIT",
    "MAX",
    "MIN",
    "NOT",
    "NOTHING",
    "NULL",
    "OFFSET",
    "ON",
    "OR",
    "ORDER",
    "OUTER",
    "OVER",
    "PARTITION",
    "PRECISION",
    "PRIMARY",
    "RANK",
    "REAL",
    "RIGHT",
    "ROLLBACK",
    "ROW_NUMBER",
    "SELECT",
    "SET",
    "SUM",
    "TABLE",
    "TEMP",
    "TEMPORARY",
    "TEXT",
    "THEN",
    "TRANSACTION",
    "TRUE",
    "UNION",
    "UNIQUE",
    "UPDATE",
    "VALUES",
    "VARCHAR",
    "WHEN",
    "WHERE",
    "WITH",
];

/// `KEYWORDS[KEYWORD_RUNS[i]..KEYWORD_RUNS[i + 1]]` start with the `i`-th
/// letter of the alphabet.
const KEYWORD_RUNS: [usize; 27] = {
    let mut runs = [0; 27];
    let (mut letter, mut i) = (0, 0);
    while letter < runs.len() {
        // Keywords whose initial sorts before `letter` precede its run.
        while i < KEYWORDS.len() && ((KEYWORDS[i].as_bytes()[0] - b'A') as usize) < letter {
            i += 1;
        }
        runs[letter] = i;
        letter += 1;
    }
    runs
};

/// Every statement's text goes through this word by word (the plan-cache
/// key lowercases keywords), so it looks at one initial's keywords only.
pub(crate) fn is_keyword(word: &str) -> bool {
    let Some(initial) = word.bytes().next().map(|b| b.to_ascii_uppercase()) else {
        return false;
    };
    if !initial.is_ascii_uppercase() {
        return false;
    }
    let letter = (initial - b'A') as usize;
    KEYWORDS[KEYWORD_RUNS[letter]..KEYWORD_RUNS[letter + 1]]
        .iter()
        .any(|k| k.eq_ignore_ascii_case(word))
}

/// One lexeme, borrowed from the statement text. The one scanner
/// ([`next_lexeme`]) serves both readers of SQL text: [`tokenize_spanned`]
/// turns lexemes into owned tokens for the parser, [`scan_shape`] into the
/// statement's plan-cache identity — so the two can never disagree about
/// where a literal, a comment or a quoted name ends.
enum Lexeme<'a> {
    /// Bare identifier or keyword.
    Word(&'a str),
    /// Double-quoted identifier, quotes included.
    QuotedIdent(&'a str),
    /// Single-quoted string literal, quotes included.
    Str(&'a str),
    Int(i64),
    Float(f64),
    /// `?NNN` carries its explicit index; a bare `?` is numbered by the
    /// reader.
    Param(Option<usize>),
    /// Punctuation or operator, already the token the parser sees.
    Punct(Token),
}

/// Scan one lexeme at or after byte `at`, skipping whitespace and comments.
/// `None` at the end of the text; the lexeme's span ends where the next scan
/// starts.
fn next_lexeme(sql: &str, mut at: usize) -> Result<Option<(Lexeme<'_>, Span)>> {
    let bytes = sql.as_bytes();
    let digit_at = |i: usize| bytes.get(i).is_some_and(u8::is_ascii_digit);
    loop {
        let Some(&b) = bytes.get(at) else {
            return Ok(None);
        };
        let next = bytes.get(at + 1).copied();
        let start = at;
        let punct = |token: Token, len: usize| {
            Ok(Some((Lexeme::Punct(token), Span::new(start, start + len))))
        };
        return match b {
            b if b.is_ascii_whitespace() => {
                at += 1;
                continue;
            }
            b'-' if next == Some(b'-') => {
                // Line comment.
                while at < bytes.len() && bytes[at] != b'\n' {
                    at += 1;
                }
                continue;
            }
            b'/' if next == Some(b'*') => {
                // Block comment.
                at += 2;
                loop {
                    if at + 1 >= bytes.len() {
                        return Err(EngineError::Lex {
                            message: "unterminated block comment".into(),
                            position: start,
                        });
                    }
                    if bytes[at] == b'*' && bytes[at + 1] == b'/' {
                        at += 2;
                        break;
                    }
                    at += 1;
                }
                continue;
            }
            b',' => punct(Token::Comma, 1),
            b'.' if !digit_at(at + 1) => punct(Token::Dot, 1),
            b';' => punct(Token::Semicolon, 1),
            b'(' => punct(Token::LParen, 1),
            b')' => punct(Token::RParen, 1),
            b'*' => punct(Token::Star, 1),
            b'+' => punct(Token::Plus, 1),
            b'-' => punct(Token::Minus, 1),
            b'/' => punct(Token::Slash, 1),
            b'%' => punct(Token::Percent, 1),
            b'=' => punct(Token::Eq, 1),
            b'!' if next == Some(b'=') => punct(Token::NotEq, 2),
            b'<' if next == Some(b'=') => punct(Token::LtEq, 2),
            b'<' if next == Some(b'>') => punct(Token::NotEq, 2),
            b'<' => punct(Token::Lt, 1),
            b'>' if next == Some(b'=') => punct(Token::GtEq, 2),
            b'>' => punct(Token::Gt, 1),
            b'|' if next == Some(b'|') => punct(Token::Concat, 2),
            b'?' => {
                at += 1;
                let digits = at;
                while digit_at(at) {
                    at += 1;
                }
                let index = if at > digits {
                    let idx: usize = sql[digits..at].parse().map_err(|_| EngineError::Lex {
                        message: "invalid parameter index".into(),
                        position: digits,
                    })?;
                    if idx == 0 {
                        return Err(EngineError::Lex {
                            message: "parameter indexes are 1-based".into(),
                            position: digits,
                        });
                    }
                    Some(idx)
                } else {
                    None
                };
                Ok(Some((Lexeme::Param(index), Span::new(start, at))))
            }
            quote @ (b'\'' | b'"') => {
                // The closing quote is the first one not doubled.
                at += 1;
                loop {
                    match bytes.get(at) {
                        None => {
                            let what = if quote == b'\'' {
                                "string literal"
                            } else {
                                "quoted identifier"
                            };
                            return Err(EngineError::Lex {
                                message: format!("unterminated {what}"),
                                position: start,
                            });
                        }
                        Some(&q) if q == quote && bytes.get(at + 1) == Some(&quote) => at += 2,
                        Some(&q) if q == quote => break,
                        Some(_) => at += 1,
                    }
                }
                at += 1;
                let raw = &sql[start..at];
                let lexeme = if quote == b'\'' {
                    Lexeme::Str(raw)
                } else {
                    Lexeme::QuotedIdent(raw)
                };
                Ok(Some((lexeme, Span::new(start, at))))
            }
            b if b.is_ascii_digit() || b == b'.' => {
                let mut is_float = false;
                while digit_at(at) {
                    at += 1;
                }
                if bytes.get(at) == Some(&b'.') {
                    is_float = true;
                    at += 1;
                    while digit_at(at) {
                        at += 1;
                    }
                }
                if matches!(bytes.get(at), Some(b'e' | b'E')) {
                    let mut exp = at + 1;
                    if matches!(bytes.get(exp), Some(b'+' | b'-')) {
                        exp += 1;
                    }
                    if digit_at(exp) {
                        is_float = true;
                        at = exp;
                        while digit_at(at) {
                            at += 1;
                        }
                    }
                }
                let text = &sql[start..at];
                let float = |what: &str| {
                    text.parse::<f64>().map_err(|_| EngineError::Lex {
                        message: format!("invalid {what} literal '{text}'"),
                        position: start,
                    })
                };
                let lexeme = if is_float {
                    Lexeme::Float(float("float")?)
                } else {
                    // An integer too large for i64 reads as a float.
                    match text.parse::<i64>() {
                        Ok(v) => Lexeme::Int(v),
                        Err(_) => Lexeme::Float(float("numeric")?),
                    }
                };
                Ok(Some((lexeme, Span::new(start, at))))
            }
            b if b.is_ascii_alphabetic() || b == b'_' => {
                while bytes
                    .get(at)
                    .is_some_and(|b| b.is_ascii_alphanumeric() || *b == b'_')
                {
                    at += 1;
                }
                Ok(Some((Lexeme::Word(&sql[start..at]), Span::new(start, at))))
            }
            other => Err(EngineError::Lex {
                message: format!("unexpected character '{}'", other as char),
                position: at,
            }),
        };
    }
}

/// The text between a quoted lexeme's quotes, doubled quotes undone.
fn unquote(raw: &str, quote: &str) -> String {
    raw[1..raw.len() - 1].replace(&quote.repeat(2), quote)
}

/// Tokenize `sql` into a vector of tokens, discarding spans.
pub fn tokenize(sql: &str) -> Result<Vec<Token>> {
    Ok(tokenize_spanned(sql)?.0)
}

/// Tokenize `sql`, also returning the byte span of each token (parallel to
/// the token vector).
pub fn tokenize_spanned(sql: &str) -> Result<(Vec<Token>, Vec<Span>)> {
    let mut tokens = Vec::new();
    let mut spans: Vec<Span> = Vec::new();
    let mut at = 0;
    let mut next_param = 1usize;
    while let Some((lexeme, span)) = next_lexeme(sql, at)? {
        at = span.end as usize;
        tokens.push(match lexeme {
            Lexeme::Word(word) if is_keyword(word) => Token::Keyword(word.to_ascii_uppercase()),
            Lexeme::Word(word) => Token::Ident(word.to_string()),
            Lexeme::QuotedIdent(raw) => Token::Ident(unquote(raw, "\"")),
            Lexeme::Str(raw) => Token::Str(unquote(raw, "'")),
            Lexeme::Int(v) => Token::Int(v),
            Lexeme::Float(v) => Token::Float(v),
            Lexeme::Param(index) => {
                let index = index.unwrap_or(next_param);
                next_param = next_param.max(index + 1);
                Token::Param(index)
            }
            Lexeme::Punct(token) => token,
        });
        spans.push(span);
    }
    Ok((tokens, spans))
}

/// A statement's plan-cache identity, made by one scan of its text
/// ([`scan_shape`]).
pub(crate) struct Shape {
    /// The text with runs of whitespace and comments collapsed to one space
    /// between lexemes and keywords lowercased, while identifiers keep their
    /// exact spelling (identifier case shows up in output column names). Every
    /// number and string literal is replaced by a placeholder naming only its
    /// type class (`#i` / `#f` / `#s` — the lexer rejects `#`, so no text
    /// spells one), so statements that differ only in literal values share a
    /// key and the analyzer's verdict on one holds for all of them.
    pub key: String,
    /// The literals behind the placeholders, in source order. Empty when the
    /// text carries explicit `?` markers: such a statement already names its
    /// parameters, and its literals stay spelled out in the key.
    pub literals: Vec<(Span, Value)>,
}

/// Scan `sql` into its [`Shape`]. `None` when the statement must not be
/// served from the plan cache: text that does not lex (the parser reports
/// why), and any mention of a `sys.` table, whose plans embed point-in-time
/// telemetry rows.
pub(crate) fn scan_shape(sql: &str) -> Option<Shape> {
    let lift = !sql.contains('?');
    let mut key = String::with_capacity(sql.len());
    let mut literals = Vec::new();
    let mut at = 0;
    while let Some((lexeme, span)) = next_lexeme(sql, at).ok()? {
        at = span.end as usize;
        if !key.is_empty() {
            key.push(' ');
        }
        let (placeholder, value) = match lexeme {
            Lexeme::Word(word) if is_keyword(word) => {
                key.extend(word.chars().map(|c| c.to_ascii_lowercase()));
                continue;
            }
            Lexeme::Word(word)
                if word.eq_ignore_ascii_case("sys") && sql[at..].starts_with('.') =>
            {
                return None;
            }
            Lexeme::Int(v) if lift => ("#i", Value::Int(v)),
            Lexeme::Float(v) if lift => ("#f", Value::Float(v)),
            Lexeme::Str(raw) if lift => ("#s", Value::text(unquote(raw, "'"))),
            _ => {
                key.push_str(&sql[span.range()]);
                continue;
            }
        };
        key.push_str(placeholder);
        literals.push((span, value));
    }
    Some(Shape { key, literals })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lexes_basic_select() {
        let toks = tokenize("SELECT a, b FROM t WHERE a = 1").unwrap();
        assert_eq!(toks[0], Token::Keyword("SELECT".into()));
        assert_eq!(toks[1], Token::Ident("a".into()));
        assert!(toks.contains(&Token::Eq));
        assert_eq!(*toks.last().unwrap(), Token::Int(1));
    }

    #[test]
    fn lexes_strings_with_escapes() {
        let toks = tokenize("SELECT 'it''s'").unwrap();
        assert_eq!(toks[1], Token::Str("it's".into()));
    }

    #[test]
    fn lexes_concat_and_ne() {
        let toks = tokenize("a || b <> c != d").unwrap();
        assert_eq!(toks[1], Token::Concat);
        assert_eq!(toks[3], Token::NotEq);
        assert_eq!(toks[5], Token::NotEq);
    }

    #[test]
    fn lexes_floats_and_scientific() {
        let toks = tokenize("1.5 2e3 7 0.25").unwrap();
        assert_eq!(toks[0], Token::Float(1.5));
        assert_eq!(toks[1], Token::Float(2000.0));
        assert_eq!(toks[2], Token::Int(7));
        assert_eq!(toks[3], Token::Float(0.25));
    }

    #[test]
    fn positional_params_autonumber() {
        let toks = tokenize("? ?5 ?").unwrap();
        assert_eq!(
            toks,
            vec![Token::Param(1), Token::Param(5), Token::Param(6)]
        );
    }

    #[test]
    fn comments_are_skipped() {
        let toks = tokenize("SELECT 1 -- trailing\n + /* mid */ 2").unwrap();
        assert_eq!(
            toks,
            vec![
                Token::Keyword("SELECT".into()),
                Token::Int(1),
                Token::Plus,
                Token::Int(2)
            ]
        );
    }

    #[test]
    fn unterminated_string_errors() {
        assert!(matches!(
            tokenize("SELECT 'oops"),
            Err(EngineError::Lex { .. })
        ));
    }

    #[test]
    fn keywords_case_insensitive() {
        let toks = tokenize("select col").unwrap();
        assert_eq!(toks[0], Token::Keyword("SELECT".into()));
        assert_eq!(toks[1], Token::Ident("col".into()));
    }

    #[test]
    fn quoted_identifier() {
        let toks = tokenize("SELECT \"weird name\"").unwrap();
        assert_eq!(toks[1], Token::Ident("weird name".into()));
    }

    #[test]
    fn spans_cover_each_token() {
        let sql = "SELECT abc + 'x''y'";
        let (toks, spans) = tokenize_spanned(sql).unwrap();
        assert_eq!(toks.len(), spans.len());
        assert_eq!(&sql[spans[0].range()], "SELECT");
        assert_eq!(&sql[spans[1].range()], "abc");
        assert_eq!(&sql[spans[2].range()], "+");
        assert_eq!(&sql[spans[3].range()], "'x''y'");
    }

    #[test]
    fn every_keyword_is_found_in_its_initials_run() {
        assert!(KEYWORDS.windows(2).all(|w| w[0] < w[1]), "sorted");
        assert!(KEYWORDS.iter().all(|k| is_keyword(k)));
        assert!(is_keyword("select") && is_keyword("Row_Number") && is_keyword("wITH"));
        for word in ["selec", "transactions", "", "_", "zone", "a", "x1", "é"] {
            assert!(!is_keyword(word), "{word}");
        }
    }

    fn key(sql: &str) -> String {
        scan_shape(sql).expect("lexes").key
    }

    #[test]
    fn shape_key_ignores_layout_comments_and_keyword_case() {
        let a = key("SELECT  n,\n\ts  FROM t -- why\nWHERE n = ?  ORDER /* by */  BY n");
        assert_eq!(a, key("select n,s from t where n=? order by n"));
        assert_eq!(a, "select n , s from t where n = ? order by n");
    }

    #[test]
    fn shape_key_keeps_identifier_case() {
        // Identifier case is significant in output column names.
        assert_eq!(
            key("SELECT Col AS Total FROM T"),
            "select Col as Total from T"
        );
        assert_ne!(key("SELECT \"a b\" FROM t"), key("SELECT \"a  b\" FROM t"));
    }

    #[test]
    fn shape_lifts_literals_by_type_class() {
        let shape = scan_shape("SELECT * FROM t WHERE n = 7 AND w < 1.5 AND s = 'it''s'").unwrap();
        assert_eq!(
            shape.key,
            "select * from t where n = #i and w < #f and s = #s"
        );
        let values: Vec<&Value> = shape.literals.iter().map(|(_, v)| v).collect();
        assert_eq!(
            values,
            [&Value::Int(7), &Value::Float(1.5), &Value::text("it's")]
        );
        assert_eq!(shape.literals[0].0.range(), 26..27);
        // One class per key: `1`, `1.0` and `'1'` are analyzed differently.
        assert_ne!(key("SELECT 1"), key("SELECT 1.0"));
        assert_ne!(key("SELECT 1"), key("SELECT '1'"));
        // Keyword literals are part of the shape, not values.
        assert!(scan_shape("SELECT NULL, TRUE").unwrap().literals.is_empty());
    }

    #[test]
    fn shape_of_parameterized_text_spells_its_literals_out() {
        let shape = scan_shape("SELECT * FROM t WHERE s = 'a' AND n = ?2").unwrap();
        assert_eq!(shape.key, "select * from t where s = 'a' and n = ?2");
        assert!(shape.literals.is_empty());
    }

    #[test]
    fn no_shape_for_unlexable_or_sys_text() {
        assert!(scan_shape("SELECT 'oops").is_none());
        assert!(scan_shape("SELECT # FROM t").is_none());
        assert!(scan_shape("SELECT * FROM Sys.Metrics").is_none());
        assert!(scan_shape("SELECT sys FROM mysys.t WHERE s = 'sys.x'").is_some());
    }
}
