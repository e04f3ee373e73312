//! Error types for the SQL engine.

use std::fmt;

/// A half-open byte range `start..end` into the original SQL text.
///
/// Spans are *annotations*: two AST nodes that differ only in their spans are
/// considered equal, so `PartialEq` here is always true. This keeps the
/// planner's structural rewrites (subtree replacement, aggregate
/// deduplication) span-agnostic.
#[derive(Debug, Clone, Copy, Default)]
pub struct Span {
    pub start: u32,
    pub end: u32,
}

impl Span {
    pub fn new(start: usize, end: usize) -> Self {
        Span {
            start: start as u32,
            end: end as u32,
        }
    }

    /// The smallest span covering both `self` and `other`. An empty
    /// (default) span is treated as absent.
    pub fn cover(self, other: Span) -> Span {
        if self.is_empty() {
            return other;
        }
        if other.is_empty() {
            return self;
        }
        Span {
            start: self.start.min(other.start),
            end: self.end.max(other.end),
        }
    }

    pub fn is_empty(self) -> bool {
        self.start == self.end
    }

    pub fn range(self) -> std::ops::Range<usize> {
        self.start as usize..self.end as usize
    }
}

impl PartialEq for Span {
    /// Always true: spans never participate in structural equality.
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

impl Eq for Span {}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}..{}", self.start, self.end)
    }
}

/// Render a single-line caret snippet pointing at `span` within `sql`, or an
/// empty string when the span is empty / out of bounds.
pub fn span_snippet(sql: &str, span: Span) -> String {
    let (start, end) = (span.start as usize, span.end as usize);
    if span.is_empty() || end > sql.len() || start > end {
        return String::new();
    }
    // Locate the line containing the span start.
    let line_start = sql[..start].rfind('\n').map(|p| p + 1).unwrap_or(0);
    let line_end = sql[start..]
        .find('\n')
        .map(|p| start + p)
        .unwrap_or(sql.len());
    let line = &sql[line_start..line_end];
    let col = start - line_start;
    let width = end.min(line_end).saturating_sub(start).max(1);
    format!("{line}\n{:col$}{}", "", "^".repeat(width), col = col)
}

/// Any error produced while lexing, parsing, planning, or executing SQL.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    /// Lexical error: unexpected character, unterminated string, bad number.
    Lex { message: String, position: usize },
    /// Syntax error produced by the parser.
    Parse { message: String, position: usize },
    /// Static semantic error found before planning (unknown table/column,
    /// ambiguous reference, aggregate misuse, type mismatch, ...), carrying
    /// the byte span of the offending source fragment.
    Sema { message: String, span: Span },
    /// Semantic error produced during planning (unknown table/column,
    /// ambiguous reference, wrong arity, ...).
    Plan(String),
    /// Runtime error produced during execution (type mismatch, division by
    /// zero on integers, constraint violation, ...).
    Exec(String),
    /// Catalog error: table already exists / does not exist, etc.
    Catalog(String),
    /// A statement referenced a parameter that was not bound.
    Parameter(String),
    /// The statement exceeded `EngineConfig::statement_timeout`. Checked at
    /// operator and morsel boundaries, so a pathological plan (e.g. an
    /// unconstrained cross join) is cancelled instead of running unbounded.
    Timeout,
    /// A durability (write-ahead log / checkpoint) failure. The in-memory
    /// state is still consistent, but the change that triggered the error
    /// may not be durable.
    Wal(String),
    /// The post-planning static verifier rejected a physical plan: some
    /// cross-layer invariant (output schema, index keys, derived-index
    /// labels, parameter slots, merge determinism) does not hold. Carries
    /// the span of the statement the plan was built for, so diagnostics can
    /// point back at the source text.
    Verify { message: String, span: Span },
    /// The statement exceeded its `EngineConfig::memory_budget`: a
    /// pipeline-breaking operator (hash-join build, aggregate table, sort
    /// run, dedup set, batch literal table) would have allocated past the
    /// per-statement budget. The statement is aborted instead of letting the
    /// process OOM; retrying with a smaller working set (or a larger budget)
    /// can succeed. Carries the span of the statement when known.
    ResourceExhausted { message: String, span: Span },
    /// The admission gate shed this statement: `max_concurrent_statements`
    /// were already running and the wait queue was full, or the caller's
    /// deadline would have expired while queued. Always retryable — back off
    /// and resubmit.
    Overloaded(String),
}

impl EngineError {
    pub(crate) fn plan(msg: impl Into<String>) -> Self {
        EngineError::Plan(msg.into())
    }

    pub(crate) fn exec(msg: impl Into<String>) -> Self {
        EngineError::Exec(msg.into())
    }

    pub(crate) fn catalog(msg: impl Into<String>) -> Self {
        EngineError::Catalog(msg.into())
    }

    pub(crate) fn sema(msg: impl Into<String>, span: Span) -> Self {
        EngineError::Sema {
            message: msg.into(),
            span,
        }
    }

    pub(crate) fn wal(msg: impl Into<String>) -> Self {
        EngineError::Wal(msg.into())
    }

    pub(crate) fn verify(msg: impl Into<String>, span: Span) -> Self {
        EngineError::Verify {
            message: msg.into(),
            span,
        }
    }

    pub(crate) fn resource_exhausted(msg: impl Into<String>, span: Span) -> Self {
        EngineError::ResourceExhausted {
            message: msg.into(),
            span,
        }
    }

    pub(crate) fn overloaded(msg: impl Into<String>) -> Self {
        EngineError::Overloaded(msg.into())
    }

    /// True for errors that describe a transient condition of the *system*
    /// rather than a defect in the statement: the same statement can succeed
    /// if the caller backs off and retries (possibly after faults heal or
    /// load drains). Serving layers use this to separate "retry with
    /// backoff" from "fix your query".
    pub fn is_retryable(&self) -> bool {
        matches!(
            self,
            EngineError::Timeout
                | EngineError::Wal(_)
                | EngineError::ResourceExhausted { .. }
                | EngineError::Overloaded(_)
        )
    }

    /// Attach the whole-statement span to errors that are raised without
    /// source context (deep in the executor) but should still point at the
    /// statement text. No-op for errors that already carry a span.
    pub(crate) fn with_statement_span(self, sql: &str) -> Self {
        match self {
            EngineError::ResourceExhausted { message, span } if span.is_empty() => {
                EngineError::ResourceExhausted {
                    message,
                    span: Span::new(0, sql.len()),
                }
            }
            other => other,
        }
    }

    /// The error message without the variant prefix.
    pub fn message(&self) -> &str {
        match self {
            EngineError::Lex { message, .. }
            | EngineError::Parse { message, .. }
            | EngineError::Sema { message, .. }
            | EngineError::Verify { message, .. }
            | EngineError::ResourceExhausted { message, .. } => message,
            EngineError::Plan(m)
            | EngineError::Exec(m)
            | EngineError::Catalog(m)
            | EngineError::Parameter(m)
            | EngineError::Wal(m)
            | EngineError::Overloaded(m) => m,
            EngineError::Timeout => "statement timeout exceeded",
        }
    }

    /// Render the error with a caret snippet of the offending source when a
    /// span is available.
    pub fn display_with_source(&self, sql: &str) -> String {
        match self {
            EngineError::Sema { span, .. }
            | EngineError::Verify { span, .. }
            | EngineError::ResourceExhausted { span, .. }
                if !span.is_empty() =>
            {
                let snippet = span_snippet(sql, *span);
                if snippet.is_empty() {
                    self.to_string()
                } else {
                    format!("{self}\n{snippet}")
                }
            }
            _ => self.to_string(),
        }
    }
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Lex { message, position } => {
                write!(f, "lex error at byte {position}: {message}")
            }
            EngineError::Parse { message, position } => {
                write!(f, "parse error at token {position}: {message}")
            }
            EngineError::Sema { message, span } => {
                if span.is_empty() {
                    write!(f, "sema error: {message}")
                } else {
                    write!(f, "sema error at byte {span}: {message}")
                }
            }
            EngineError::Plan(m) => write!(f, "plan error: {m}"),
            EngineError::Exec(m) => write!(f, "execution error: {m}"),
            EngineError::Catalog(m) => write!(f, "catalog error: {m}"),
            EngineError::Parameter(m) => write!(f, "parameter error: {m}"),
            EngineError::Timeout => write!(f, "timeout: statement timeout exceeded"),
            EngineError::Wal(m) => write!(f, "durability error: {m}"),
            EngineError::Verify { message, span } => {
                if span.is_empty() {
                    write!(f, "plan verification failed: {message}")
                } else {
                    write!(f, "plan verification failed at byte {span}: {message}")
                }
            }
            EngineError::ResourceExhausted { message, span } => {
                if span.is_empty() {
                    write!(f, "resource exhausted: {message}")
                } else {
                    write!(f, "resource exhausted at byte {span}: {message}")
                }
            }
            EngineError::Overloaded(m) => write!(f, "overloaded: {m}"),
        }
    }
}

impl std::error::Error for EngineError {}

/// Convenience result alias used throughout the engine.
pub type Result<T> = std::result::Result<T, EngineError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_are_equality_transparent() {
        assert_eq!(Span::new(0, 5), Span::new(7, 9));
    }

    #[test]
    fn cover_merges_and_ignores_empty() {
        let a = Span::new(3, 7);
        let b = Span::new(5, 12);
        let c = a.cover(b);
        assert_eq!((c.start, c.end), (3, 12));
        let d = Span::default().cover(a);
        assert_eq!((d.start, d.end), (3, 7));
        let e = a.cover(Span::default());
        assert_eq!((e.start, e.end), (3, 7));
    }

    #[test]
    fn snippet_points_at_span() {
        let sql = "SELECT bogus FROM t";
        let s = span_snippet(sql, Span::new(7, 12));
        assert_eq!(s, "SELECT bogus FROM t\n       ^^^^^");
    }

    #[test]
    fn retryability_taxonomy() {
        assert!(EngineError::Timeout.is_retryable());
        assert!(EngineError::wal("disk hiccup").is_retryable());
        assert!(EngineError::resource_exhausted("budget", Span::default()).is_retryable());
        assert!(EngineError::overloaded("queue full").is_retryable());
        assert!(!EngineError::exec("type mismatch").is_retryable());
        assert!(!EngineError::plan("unknown table").is_retryable());
        assert!(!EngineError::catalog("exists").is_retryable());
        assert!(!EngineError::sema("bad ref", Span::default()).is_retryable());
    }

    #[test]
    fn statement_span_attaches_only_when_missing() {
        let e = EngineError::resource_exhausted("over budget", Span::default())
            .with_statement_span("SELECT 1");
        let EngineError::ResourceExhausted { span, .. } = e else {
            panic!("variant preserved");
        };
        assert_eq!((span.start, span.end), (0, 8));
        // Non-resource errors pass through untouched.
        let e = EngineError::exec("boom").with_statement_span("SELECT 1");
        assert_eq!(e, EngineError::exec("boom"));
    }

    #[test]
    fn snippet_handles_multiline() {
        let sql = "SELECT a\nFROM missing";
        let s = span_snippet(sql, Span::new(14, 21));
        assert_eq!(s, "FROM missing\n     ^^^^^^^");
    }
}
