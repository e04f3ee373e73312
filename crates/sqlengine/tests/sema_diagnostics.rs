//! Golden tests for the static semantic analyzer: each bad query must be
//! rejected with an exact diagnostic message and a byte span pointing at the
//! offending source fragment — before anything is planned or executed.

use sqlengine::{DataType, Database, EngineError, Value};

/// Fixture: `t(a INTEGER, b TEXT, r REAL)`, `u(a INTEGER, c TEXT)`, and
/// `k(id INTEGER, w REAL)` with a primary key for upsert checks.
fn db() -> Database {
    let d = Database::new();
    d.execute_script(
        "CREATE TABLE t (a INTEGER, b TEXT, r REAL); \
         CREATE TABLE u (a INTEGER, c TEXT); \
         CREATE TABLE k (id INTEGER, w REAL, PRIMARY KEY (id)); \
         INSERT INTO t VALUES (1, 'x', 0.5); \
         INSERT INTO u VALUES (1, 'y'); \
         INSERT INTO k VALUES (1, 1.0);",
    )
    .unwrap();
    d
}

/// Assert that `sql` fails semantic analysis with exactly `message`, and
/// that the reported span covers exactly `fragment` in the source text.
fn expect_sema(d: &Database, sql: &str, message: &str, fragment: &str) {
    match d.check(sql) {
        Err(EngineError::Sema { message: m, span }) => {
            assert_eq!(m, message, "wrong message for {sql:?}");
            let got = &sql[span.range()];
            assert_eq!(got, fragment, "wrong span {span} for {sql:?}");
        }
        other => panic!("expected sema error for {sql:?}, got {other:?}"),
    }
    // The same rejection must come out of the execution path.
    assert!(
        matches!(d.execute(sql), Err(EngineError::Sema { .. })),
        "execute did not reject {sql:?}"
    );
}

/// Like [`expect_sema`] but only pins the message (for diagnostics whose
/// natural anchor is a whole clause with no single offending token).
fn expect_sema_msg(d: &Database, sql: &str, message: &str) {
    match d.check(sql) {
        Err(EngineError::Sema { message: m, .. }) => {
            assert_eq!(m, message, "wrong message for {sql:?}");
        }
        other => panic!("expected sema error for {sql:?}, got {other:?}"),
    }
}

#[test]
fn unknown_and_ambiguous_names() {
    let d = db();
    expect_sema(&d, "SELECT zzz FROM t", "unknown column 'zzz'", "zzz");
    expect_sema(&d, "SELECT t.zzz FROM t", "unknown column 't.zzz'", "t.zzz");
    expect_sema(&d, "SELECT x.a FROM t", "unknown column 'x.a'", "x.a");
    expect_sema(
        &d,
        "SELECT * FROM missing",
        "table 'missing' does not exist",
        "missing",
    );
    expect_sema(
        &d,
        "SELECT a FROM t, u",
        "ambiguous column reference 'a'",
        "a",
    );
    expect_sema(
        &d,
        "SELECT t2.a FROM t AS t1",
        "unknown column 't2.a'",
        "t2.a",
    );
    expect_sema(&d, "SELECT u.* FROM t", "unknown table alias 'u.*'", "u.*");
    // The original table name is shadowed by its alias.
    expect_sema(
        &d,
        "SELECT t.a FROM t AS renamed",
        "unknown column 't.a'",
        "t.a",
    );
}

#[test]
fn aggregate_misuse() {
    let d = db();
    expect_sema(
        &d,
        "SELECT a FROM t WHERE SUM(a) > 1",
        "aggregate function not allowed in WHERE",
        "SUM(a)",
    );
    expect_sema(
        &d,
        "SELECT SUM(SUM(a)) FROM t",
        "nested aggregate functions are not supported",
        "SUM(a)",
    );
    expect_sema(
        &d,
        "SELECT COUNT(*) FROM t GROUP BY SUM(a)",
        "aggregate function not allowed in GROUP BY",
        "SUM(a)",
    );
    expect_sema(
        &d,
        "SELECT t.a FROM t JOIN u ON SUM(t.a) = u.a",
        "aggregate function not allowed in JOIN conditions",
        "SUM(t.a)",
    );
    expect_sema(
        &d,
        "SELECT a, COUNT(*) FROM t GROUP BY r",
        "column 'a' must appear in the GROUP BY clause or be used in an aggregate function",
        "a",
    );
    expect_sema(
        &d,
        "SELECT a, COUNT(*) FROM t",
        "column 'a' must appear in the GROUP BY clause or be used in an aggregate function",
        "a",
    );
    // Keys match by the column they resolve to, so `t.r` is grouped however
    // it is spelled — and a qualified column that is not a key still is not.
    expect_sema(
        &d,
        "SELECT t.a, COUNT(*) FROM t GROUP BY t.r",
        "column 't.a' must appear in the GROUP BY clause or be used in an aggregate function",
        "t.a",
    );
    expect_sema(
        &d,
        "SELECT r, COUNT(*) FROM t GROUP BY t.r HAVING T.A > 1",
        "column 'T.A' must appear in the GROUP BY clause or be used in an aggregate function",
        "T.A",
    );
    expect_sema(
        &d,
        "SELECT a FROM t HAVING a > 1",
        "HAVING requires GROUP BY or aggregates",
        "a > 1",
    );
    expect_sema(
        &d,
        "SELECT SUM(b) FROM t",
        "SUM expected a numeric argument, found TEXT",
        "b",
    );
    expect_sema(
        &d,
        "SELECT AVG(b) FROM t",
        "AVG expected a numeric argument, found TEXT",
        "b",
    );
}

#[test]
fn window_misuse() {
    let d = db();
    expect_sema(
        &d,
        "SELECT a FROM t WHERE ROW_NUMBER() OVER (ORDER BY a) = 1",
        "window function not allowed in WHERE",
        "ROW_NUMBER() OVER (ORDER BY a)",
    );
    expect_sema(
        &d,
        "SELECT a FROM t ORDER BY ROW_NUMBER() OVER (ORDER BY a)",
        "window function in ORDER BY must also appear in the SELECT list",
        "ROW_NUMBER() OVER (ORDER BY a)",
    );
    expect_sema(
        &d,
        "SELECT COUNT(*) FROM t GROUP BY ROW_NUMBER() OVER (ORDER BY a)",
        "window function not allowed in GROUP BY",
        "ROW_NUMBER() OVER (ORDER BY a)",
    );
}

#[test]
fn function_errors() {
    let d = db();
    expect_sema(
        &d,
        "SELECT NOSUCHFUNC(a) FROM t",
        "unknown function 'NOSUCHFUNC'",
        "NOSUCHFUNC(a)",
    );
    expect_sema(
        &d,
        "SELECT POW(a) FROM t",
        "wrong number of arguments (1) for POW",
        "POW(a)",
    );
    expect_sema(
        &d,
        "SELECT ABS(b) FROM t",
        "expected a numeric value, found TEXT",
        "b",
    );
    expect_sema(
        &d,
        "SELECT LN(b) FROM t",
        "expected a numeric value, found TEXT",
        "b",
    );
}

#[test]
fn type_mismatches() {
    let d = db();
    expect_sema(
        &d,
        "SELECT a + b FROM t",
        "operand of '+' expected a numeric value, found TEXT",
        "b",
    );
    expect_sema(
        &d,
        "SELECT b - 1 FROM t",
        "operand of '-' expected a numeric value, found TEXT",
        "b",
    );
    expect_sema(&d, "SELECT -b FROM t", "cannot negate a TEXT value", "b");
    expect_sema(
        &d,
        "SELECT a FROM t WHERE b",
        "TEXT value used in a boolean context",
        "b",
    );
    expect_sema(
        &d,
        "SELECT a FROM t WHERE b AND a > 1",
        "TEXT value used in a boolean context",
        "b",
    );
    expect_sema(
        &d,
        "SELECT NOT b FROM t",
        "TEXT value used in a boolean context",
        "b",
    );
    expect_sema(
        &d,
        "DELETE FROM t WHERE b",
        "TEXT value used in a boolean context",
        "b",
    );
}

#[test]
fn constant_expression_errors() {
    let d = db();
    expect_sema(
        &d,
        "SELECT 1 / 0",
        "constant expression error: integer division by zero",
        "1 / 0",
    );
    expect_sema(
        &d,
        "SELECT a FROM t WHERE a > 10 % 0",
        "constant expression error: integer modulo by zero",
        "10 % 0",
    );
    // Non-constant division by zero cannot be caught statically.
    assert!(d.check("SELECT a / 0 FROM t").is_ok());
    // Short-circuited positions are not strictly folded: the right arm of
    // OR may never be evaluated.
    assert!(d.check("SELECT a FROM t WHERE a = 1 OR 1 / 0 = 1").is_ok());
    assert!(d
        .check("SELECT CASE WHEN a = 1 THEN 1 ELSE 1 / 0 END FROM t")
        .is_ok());
    assert!(d.check("SELECT COALESCE(a, 1 / 0) FROM t").is_ok());
}

#[test]
fn order_limit_union_errors() {
    let d = db();
    expect_sema(
        &d,
        "SELECT a FROM t ORDER BY 99",
        "ORDER BY ordinal 99 out of range",
        "99",
    );
    expect_sema(&d, "SELECT a FROM t LIMIT x", "unknown column 'x'", "x");
    expect_sema_msg(
        &d,
        "SELECT a FROM t LIMIT -1",
        "LIMIT must be a non-negative integer",
    );
    expect_sema_msg(
        &d,
        "SELECT a FROM t LIMIT 1 OFFSET 1 + 0.5",
        "OFFSET must be a non-negative integer",
    );
    expect_sema_msg(
        &d,
        "SELECT a FROM t UNION SELECT a, c FROM u",
        "UNION arms have different column counts (1 vs 2)",
    );
}

#[test]
fn subquery_position_errors() {
    let d = db();
    expect_sema(
        &d,
        "SELECT a IN (SELECT a, c FROM u) FROM t",
        "IN subquery must return one column, got 2",
        "a IN (SELECT a, c FROM u)",
    );
    expect_sema_msg(
        &d,
        "SELECT a FROM t ORDER BY (SELECT a FROM u)",
        "subquery is not supported in this position \
         (only uncorrelated subqueries in SELECT/WHERE/HAVING are supported)",
    );
}

#[test]
fn dml_errors() {
    let d = db();
    expect_sema_msg(
        &d,
        "INSERT INTO t VALUES (1)",
        "INSERT expects 3 values per row, got 1",
    );
    expect_sema_msg(&d, "UPDATE t SET zzz = 1", "unknown column 'zzz' in UPDATE");
    expect_sema(
        &d,
        "UPDATE t SET a = a + b",
        "operand of '+' expected a numeric value, found TEXT",
        "b",
    );
    expect_sema_msg(
        &d,
        "INSERT INTO k VALUES (1, 2.0) ON CONFLICT (w) DO NOTHING",
        "ON CONFLICT target does not match the unique index of 'k'",
    );
    expect_sema_msg(
        &d,
        "INSERT INTO t VALUES (1, 'x', 0.5) ON CONFLICT (a) DO NOTHING",
        "ON CONFLICT on table 't' which has no unique index",
    );
    expect_sema(
        &d,
        "INSERT INTO k VALUES (1, 2.0) ON CONFLICT (id) DO UPDATE SET w = w + excluded.id + excluded.zzz",
        "unknown column 'excluded.zzz'",
        "excluded.zzz",
    );
}

/// MySQL's `ON DUPLICATE KEY UPDATE` is the same upsert with an empty
/// target, so it meets the same rule and the same column checks.
#[test]
fn mysql_upsert_errors() {
    let d = db();
    expect_sema_msg(
        &d,
        "INSERT INTO t VALUES (1, 'x', 0.5) ON DUPLICATE KEY UPDATE r = r + VALUES(r)",
        "ON CONFLICT on table 't' which has no unique index",
    );
    expect_sema(
        &d,
        "INSERT INTO k VALUES (1, 2.0) ON DUPLICATE KEY UPDATE w = w + VALUES(zzz)",
        "unknown column 'excluded.zzz'",
        "VALUES(zzz)",
    );
}

#[test]
fn cte_scoping() {
    let d = db();
    expect_sema(
        &d,
        "WITH c AS (SELECT a FROM t) SELECT zzz FROM c",
        "unknown column 'zzz'",
        "zzz",
    );
    // CTEs are visible to later CTEs only (no forward references).
    expect_sema(
        &d,
        "WITH c1 AS (SELECT * FROM c2), c2 AS (SELECT a FROM t) SELECT * FROM c1",
        "table 'c2' does not exist",
        "c2",
    );
    // Typed columns flow through CTEs into derived tables.
    expect_sema(
        &d,
        "WITH c AS (SELECT b AS label FROM t) SELECT label + 1 FROM c",
        "operand of '+' expected a numeric value, found TEXT",
        "label",
    );
}

#[test]
fn caret_snippets_render() {
    let d = db();
    let sql = "SELECT bogus FROM t";
    let err = d.check(sql).unwrap_err();
    let rendered = err.display_with_source(sql);
    assert!(
        rendered.contains("sema error at byte 7..12: unknown column 'bogus'"),
        "{rendered}"
    );
    assert!(
        rendered.ends_with("SELECT bogus FROM t\n       ^^^^^"),
        "{rendered}"
    );
}

#[test]
fn sema_rejection_prevents_execution() {
    let d = db();
    let before = d.query("SELECT * FROM t").unwrap();
    // Each statement is statically invalid; none may mutate the table.
    for sql in [
        "UPDATE t SET a = a + b",
        "DELETE FROM t WHERE b",
        "INSERT INTO t VALUES (1)",
        "INSERT INTO t VALUES (1, 'x', 1 / 0)",
    ] {
        assert!(
            matches!(d.execute(sql), Err(EngineError::Sema { .. })),
            "expected static rejection for {sql:?}"
        );
    }
    assert_eq!(before, d.query("SELECT * FROM t").unwrap());
}

#[test]
fn check_reports_typed_schema() {
    let d = db();
    let report = d
        .check("SELECT a, b, r, a + 1 AS a1, a + r AS ar, COUNT(*) AS n FROM t GROUP BY a, b, r")
        .unwrap();
    assert_eq!(
        report.columns,
        vec![
            ("a".to_string(), DataType::Integer),
            ("b".to_string(), DataType::Text),
            ("r".to_string(), DataType::Real),
            ("a1".to_string(), DataType::Integer),
            ("ar".to_string(), DataType::Real),
            ("n".to_string(), DataType::Integer),
        ]
    );
    // DML checks produce an empty schema.
    assert!(d.check("UPDATE t SET a = 2").unwrap().columns.is_empty());
    // Checking must not execute anything: the UPDATE above was only checked.
    assert_eq!(d.query_scalar("SELECT a FROM t").unwrap(), Value::Int(1));
}

#[test]
fn explain_check_renders_schema_without_executing() {
    let d = db();
    let r = d
        .query("EXPLAIN (CHECK) SELECT a, SUM(r) AS total FROM t GROUP BY a")
        .unwrap();
    assert_eq!(r.columns, vec!["column".to_string(), "type".to_string()]);
    assert_eq!(
        r.rows,
        vec![
            vec![Value::text("a"), Value::text("INTEGER")],
            vec![Value::text("total"), Value::text("REAL")],
        ]
    );
    // And EXPLAIN (CHECK) on a bad query carries the sema diagnostic.
    assert!(matches!(
        d.query("EXPLAIN (CHECK) SELECT zzz FROM t"),
        Err(EngineError::Sema { .. })
    ));
}

/// BornSQL-shaped queries (hyperplane CTE pipelines, ROW_NUMBER argmax,
/// upserts) must all pass the checker with sensible output types.
#[test]
fn bornsql_shaped_queries_pass() {
    let d = Database::new();
    d.execute_script(
        "CREATE TABLE m_corpus (doc INTEGER, label INTEGER, token TEXT, tf INTEGER, PRIMARY KEY (doc, token)); \
         CREATE TABLE m_weights (j INTEGER, k INTEGER, w REAL, PRIMARY KEY (j, k)); \
         CREATE TABLE docs (id INTEGER, body TEXT, PRIMARY KEY (id));",
    )
    .unwrap();
    for sql in [
        // fit-style aggregation into weights
        "SELECT label AS j, tf AS k, SUM(tf) AS w FROM m_corpus GROUP BY label, tf",
        // hyperplane CTE pipeline with POW/LN/CASE
        "WITH tot AS (SELECT label, SUM(tf) AS n FROM m_corpus GROUP BY label), \
              hw AS (SELECT c.label, LN(POW(c.tf + 1, 2)) / (t.n + 1.0) AS s \
                       FROM m_corpus AS c JOIN tot AS t ON c.label = t.label) \
         SELECT label, CASE WHEN SUM(s) > 0 THEN 1 ELSE 0 END AS sgn \
           FROM hw GROUP BY label",
        // predict-style argmax via ROW_NUMBER
        "WITH scores AS (SELECT doc, label, SUM(tf * tf) AS score \
                           FROM m_corpus GROUP BY doc, label), \
              ranked AS (SELECT doc, label, score, \
                                ROW_NUMBER() OVER (PARTITION BY doc ORDER BY score DESC, label) AS rn \
                           FROM scores) \
         SELECT doc, label FROM ranked WHERE rn = 1 ORDER BY doc",
        // partial_fit-style upsert
        "INSERT INTO m_weights VALUES (0, 1, 0.5) \
           ON CONFLICT (j, k) DO UPDATE SET w = m_weights.w + excluded.w",
    ] {
        if let Err(e) = d.check(sql) {
            panic!("expected check to pass for {sql:?}: {}", e.display_with_source(sql));
        }
    }
    // The ranked predict query reports a fully typed schema.
    let report = d
        .check(
            "WITH scores AS (SELECT doc, label, SUM(tf * tf) AS score \
                               FROM m_corpus GROUP BY doc, label) \
             SELECT doc, label, score FROM scores",
        )
        .unwrap();
    assert_eq!(
        report.columns,
        vec![
            ("doc".to_string(), DataType::Integer),
            ("label".to_string(), DataType::Integer),
            ("score".to_string(), DataType::Integer),
        ]
    );
}

/// Plan-cache path still folds constants: repeated execution of a query
/// with a constant subexpression is served from cache and stays correct.
#[test]
fn folded_constants_on_cache_path() {
    let d = db();
    for _ in 0..3 {
        let r = d.query("SELECT a + (1 + 2) FROM t").unwrap();
        assert_eq!(r.rows, vec![vec![Value::Int(4)]]);
    }
}
