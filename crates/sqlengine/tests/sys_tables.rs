//! Virtual `sys.*` system tables: schema resolution through sema, planning
//! as `VirtualScan`, and full composability with the ordinary relational
//! surface (filter / project / aggregate / join / ORDER BY).

use sqlengine::{Database, Value};

fn sample_db() -> Database {
    let db = Database::new();
    db.execute_script(
        "CREATE TABLE docs (id INTEGER, body TEXT, PRIMARY KEY (id));
         CREATE TABLE labels (id INTEGER, label TEXT);
         CREATE INDEX labels_label ON labels (label);
         INSERT INTO docs VALUES (1, 'a'), (2, 'b'), (3, 'c');
         INSERT INTO labels VALUES (1, 'x'), (2, 'y');",
    )
    .unwrap();
    db
}

fn text(v: &Value) -> &str {
    match v {
        Value::Str(s) => s,
        other => panic!("expected text, got {other:?}"),
    }
}

fn int(v: &Value) -> i64 {
    match v {
        Value::Int(i) => *i,
        other => panic!("expected int, got {other:?}"),
    }
}

fn float(v: &Value) -> f64 {
    match v {
        Value::Float(f) => *f,
        Value::Int(i) => *i as f64,
        other => panic!("expected number, got {other:?}"),
    }
}

// ---------------------------------------------------------------------
// sys.tables
// ---------------------------------------------------------------------

#[test]
fn sys_tables_reflects_the_catalog() {
    let db = sample_db();
    let r = db
        .query("SELECT name, rows, columns, primary_key, secondary_indexes FROM sys.tables ORDER BY name")
        .unwrap();
    assert_eq!(r.rows.len(), 2);

    assert_eq!(text(&r.rows[0][0]), "docs");
    assert_eq!(int(&r.rows[0][1]), 3);
    assert_eq!(int(&r.rows[0][2]), 2);
    assert_eq!(text(&r.rows[0][3]), "id");
    assert_eq!(int(&r.rows[0][4]), 0);

    assert_eq!(text(&r.rows[1][0]), "labels");
    assert_eq!(int(&r.rows[1][1]), 2);
    assert_eq!(text(&r.rows[1][3]), "");
    assert_eq!(int(&r.rows[1][4]), 1, "labels has one secondary index");
}

#[test]
fn sys_tables_sees_new_tables_and_fresh_row_counts() {
    let db = sample_db();
    let before = db.query_scalar("SELECT COUNT(*) FROM sys.tables").unwrap();
    assert_eq!(int(&before), 2);

    db.execute("CREATE TABLE extra (x INTEGER)").unwrap();
    db.execute("INSERT INTO docs VALUES (4, 'd')").unwrap();

    let r = db
        .query("SELECT name, rows FROM sys.tables WHERE name = 'docs'")
        .unwrap();
    assert_eq!(int(&r.rows[0][1]), 4, "row count is a live snapshot");
    let after = db.query_scalar("SELECT COUNT(*) FROM sys.tables").unwrap();
    assert_eq!(int(&after), 3);
}

#[test]
fn sys_tables_reports_lazy_columnar_chunk_state() {
    let db = sample_db();
    db.execute_script(
        "CREATE TABLE tags (id INTEGER, tag TEXT);
         INSERT INTO tags VALUES (1, 'x'), (2, 'y'), (3, 'x'), (4, 'x'), (5, 'y'), (6, 'x'),
                                 (7, 'x'), (8, 'y'), (9, 'x'), (10, 'x'), (11, 'y'), (12, 'x');
         CREATE TABLE wanted (tag TEXT);
         INSERT INTO wanted VALUES ('x');",
    )
    .unwrap();
    // A one-key join probing `tags`: the one reader of its chunk image.
    let join = "SELECT COUNT(*) FROM tags JOIN wanted ON tags.tag = wanted.tag";

    // Chunks are derived state, built on first read — a freshly written
    // table reports zero.
    let r = db
        .query("SELECT chunk_count, dict_columns FROM sys.tables WHERE name = 'tags'")
        .unwrap();
    assert_eq!(int(&r.rows[0][0]), 0, "chunk caches must be lazy");
    assert_eq!(int(&r.rows[0][1]), 0);

    // The join's key filter builds the table's chunk cache; the
    // low-cardinality TEXT column dictionary-encodes.
    assert_eq!(int(&db.query_scalar(join).unwrap()), 8);
    let r = db
        .query("SELECT chunk_count, dict_columns FROM sys.tables WHERE name = 'tags'")
        .unwrap();
    assert_eq!(int(&r.rows[0][0]), 1, "12 rows fit one chunk");
    assert_eq!(int(&r.rows[0][1]), 1, "tag column should dictionary-encode");

    // Mutating the table invalidates the cache until the next read.
    db.execute("DELETE FROM tags WHERE id = 1").unwrap();
    let r = db
        .query("SELECT chunk_count FROM sys.tables WHERE name = 'tags'")
        .unwrap();
    assert_eq!(int(&r.rows[0][0]), 0, "mutation installs a fresh slot");

    // sys.metrics mirrors the catalog-wide totals and the probe counters.
    assert_eq!(int(&db.query_scalar(join).unwrap()), 7);
    let v = db
        .query_scalar("SELECT value FROM sys.metrics WHERE name = 'columnar.chunks'")
        .unwrap();
    assert!(float(&v) >= 1.0, "columnar.chunks gauge: {v:?}");
    let ops = db
        .query_scalar("SELECT value FROM sys.metrics WHERE name = 'exec.vectorized_ops'")
        .unwrap();
    assert!(float(&ops) >= 1.0, "exec.vectorized_ops counter: {ops:?}");
}

// ---------------------------------------------------------------------
// sys.metrics
// ---------------------------------------------------------------------

#[test]
fn sys_metrics_filters_and_projects_like_a_table() {
    let db = sample_db();
    for _ in 0..3 {
        db.query("SELECT COUNT(*) FROM docs").unwrap();
    }
    let r = db
        .query("SELECT name, kind, value FROM sys.metrics WHERE name = 'statements.total'")
        .unwrap();
    assert_eq!(r.rows.len(), 1);
    assert_eq!(text(&r.rows[0][1]), "counter");
    assert!(float(&r.rows[0][2]) >= 3.0);
}

#[test]
fn sys_metrics_supports_aggregation_and_aliases() {
    let db = sample_db();
    db.query("SELECT * FROM docs").unwrap();
    let n = db
        .query_scalar("SELECT COUNT(*) FROM sys.metrics m WHERE m.kind = 'counter'")
        .unwrap();
    assert!(int(&n) > 5, "expected a spread of counters, got {n:?}");

    // Histogram-derived gauges appear once statements have run.
    let r = db
        .query("SELECT name FROM sys.metrics WHERE name LIKE 'phase.%' AND value > 0 ORDER BY name")
        .unwrap();
    assert!(
        !r.rows.is_empty(),
        "phase histograms should have non-zero entries"
    );
}

#[test]
fn sys_metrics_exposes_operator_rollups_after_analyze() {
    let db = sample_db();
    db.explain_analyze("SELECT label, COUNT(*) FROM labels GROUP BY label")
        .unwrap();
    let r = db
        .query("SELECT name, value FROM sys.metrics WHERE name LIKE 'op.%.calls'")
        .unwrap();
    assert!(
        !r.rows.is_empty(),
        "EXPLAIN ANALYZE should feed per-operator rollups"
    );
}

// ---------------------------------------------------------------------
// sys.query_log
// ---------------------------------------------------------------------

#[test]
fn sys_query_log_is_filterable_sql() {
    let db = sample_db();
    db.query("SELECT id FROM docs WHERE id = 1").unwrap();
    let r = db
        .query(
            "SELECT sql, status, rows FROM sys.query_log \
             WHERE status = 'ok' AND sql LIKE '%WHERE id = 1%'",
        )
        .unwrap();
    assert_eq!(r.rows.len(), 1);
    assert_eq!(int(&r.rows[0][2]), 1);

    // The README example shape: numeric predicate over duration_ms.
    db.query("SELECT COUNT(*) FROM sys.query_log WHERE duration_ms > 10")
        .unwrap();
}

// ---------------------------------------------------------------------
// Sema + planner integration
// ---------------------------------------------------------------------

#[test]
fn sema_resolves_sys_schemas_statically() {
    let db = Database::new();
    // check() runs parse + sema only; passing means the schema resolved.
    let report = db
        .check("SELECT name, value FROM sys.metrics WHERE value > 1.5")
        .unwrap();
    assert_eq!(report.columns.len(), 2);

    let err = db
        .check("SELECT nope FROM sys.metrics")
        .unwrap_err()
        .to_string();
    assert!(
        err.contains("nope"),
        "unknown column should be caught: {err}"
    );
}

#[test]
fn unknown_sys_table_is_a_sema_error() {
    let db = Database::new();
    let err = db
        .query("SELECT * FROM sys.nonsense")
        .unwrap_err()
        .to_string();
    assert!(
        err.contains("unknown system table"),
        "expected a dedicated sys error, got: {err}"
    );
}

#[test]
fn explain_shows_a_virtual_scan() {
    let db = sample_db();
    let plan = db
        .explain("SELECT name FROM sys.tables WHERE rows > 0")
        .unwrap();
    assert!(
        plan.contains("VirtualScan sys.tables"),
        "expected a VirtualScan node:\n{plan}"
    );
}

#[test]
fn sys_queries_bypass_the_plan_cache() {
    let db = sample_db();
    // Warm a normal statement into the cache so the baseline is non-trivial.
    db.query("SELECT COUNT(*) FROM docs").unwrap();
    let (h0, m0, e0) = db.plan_cache_metrics();
    for _ in 0..4 {
        db.query("SELECT COUNT(*) FROM sys.metrics").unwrap();
    }
    let (h1, m1, e1) = db.plan_cache_metrics();
    assert_eq!((h0, m0, e0), (h1, m1, e1), "sys.* must not touch the cache");

    // And because nothing is cached, each read is a fresh snapshot:
    let a = db
        .query_scalar("SELECT value FROM sys.metrics WHERE name = 'statements.total'")
        .unwrap();
    let b = db
        .query_scalar("SELECT value FROM sys.metrics WHERE name = 'statements.total'")
        .unwrap();
    assert!(
        float(&b) > float(&a),
        "second snapshot must observe the first statement"
    );
}

#[test]
fn sys_tables_are_read_only() {
    let db = sample_db();
    assert!(db
        .execute("INSERT INTO sys.metrics VALUES ('x', 'counter', 1.0)")
        .is_err());
    assert!(db.execute("DELETE FROM sys.query_log").is_err());
    assert!(db.execute("DROP TABLE sys.metrics").is_err());
}

#[test]
fn sys_tables_join_with_user_tables() {
    let db = sample_db();
    db.execute_script("CREATE TABLE watch (tname TEXT); INSERT INTO watch VALUES ('docs');")
        .unwrap();
    let r = db
        .query("SELECT t.name, t.rows FROM sys.tables t JOIN watch w ON t.name = w.tname")
        .unwrap();
    assert_eq!(r.rows.len(), 1);
    assert_eq!(text(&r.rows[0][0]), "docs");
    assert_eq!(int(&r.rows[0][1]), 3);
}

#[test]
fn sys_born_models_is_empty_without_models() {
    let db = Database::new();
    let r = db.query("SELECT * FROM sys.born_models").unwrap();
    assert_eq!(r.columns.len(), 9);
    assert!(r.rows.is_empty());
}

#[test]
fn telemetry_disabled_still_serves_sys_tables() {
    let db = Database::with_config(sqlengine::EngineConfig::default().with_telemetry(false));
    db.execute("CREATE TABLE t (x INTEGER)").unwrap();
    db.execute("INSERT INTO t VALUES (1)").unwrap();
    // Catalog reflection works regardless of telemetry...
    let r = db.query("SELECT name, rows FROM sys.tables").unwrap();
    assert_eq!(r.rows.len(), 1);
    // ...but nothing is recorded in the query log or counters.
    let log = db.query("SELECT * FROM sys.query_log").unwrap();
    assert!(log.rows.is_empty());
    let total = db
        .query_scalar("SELECT value FROM sys.metrics WHERE name = 'statements.total'")
        .unwrap();
    assert_eq!(float(&total), 0.0);
}
