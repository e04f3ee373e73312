//! Per-statement memory budget: pipeline-breaking operators (hash-join
//! builds, aggregation tables, sort runs, dedup sets) charge their state
//! against `EngineConfig::memory_budget` and abort with the retryable
//! `EngineError::ResourceExhausted` instead of letting the process OOM.

use std::time::Duration;

use sqlengine::{Database, EngineConfig, EngineError, Value};

fn db_with_rows(config: EngineConfig, rows: usize) -> Database {
    let db = Database::with_config(config);
    db.execute("CREATE TABLE docs (n INTEGER, grp INTEGER, w REAL)")
        .unwrap();
    let values: Vec<String> = (0..rows)
        .map(|i| format!("({i}, {}, {i}.25)", i % 7))
        .collect();
    db.execute(&format!("INSERT INTO docs VALUES {}", values.join(", ")))
        .unwrap();
    db
}

fn metric(db: &Database, name: &str) -> f64 {
    let sql = format!("SELECT value FROM sys.metrics WHERE name = '{name}'");
    let r = db.query(&sql).unwrap();
    match r.rows[0][0] {
        Value::Float(v) => v,
        ref other => panic!("expected float metric, got {other:?}"),
    }
}

/// Memory-hungry shapes that must each trip a 4 KiB budget: hash-join
/// build, hash aggregation, sort, and DISTINCT dedup.
const HUNGRY: &[&str] = &[
    "SELECT COUNT(*) FROM docs a JOIN docs b ON a.n = b.n",
    "SELECT n, SUM(w) FROM docs GROUP BY n",
    "SELECT n FROM docs ORDER BY w",
    "SELECT DISTINCT n, grp, w FROM docs",
];

#[test]
fn tiny_budget_aborts_memory_hungry_operators() {
    let db = db_with_rows(EngineConfig::default().with_memory_budget(4096), 3000);
    for sql in HUNGRY {
        let err = db.query(sql).unwrap_err();
        assert!(
            matches!(err, EngineError::ResourceExhausted { .. }),
            "expected budget abort for {sql:?}, got {err:?}"
        );
        assert!(err.is_retryable(), "{sql:?}");
        // The statement span is attached so diagnostics can point at the
        // source text that overran the budget.
        if let EngineError::ResourceExhausted { span, .. } = &err {
            assert!(!span.is_empty(), "span missing for {sql:?}");
        }
    }
    // The budget abort counter saw every failure.
    assert!(metric(&db, "mem.budget_aborts") >= HUNGRY.len() as f64);
}

/// A CTE that `profile_b` shares — every one, even a CTE read once — is
/// held by the first reference to run, at execution, under the statement's
/// budget like any operator state: 3,000 × 3,000 rows do not fit 1 MiB.
#[test]
fn a_materialized_cte_is_charged_to_the_statement_budget() {
    let config = EngineConfig::profile_b().with_memory_budget(1024 * 1024);
    let db = db_with_rows(config, 3000);
    let err = db
        .query("WITH pairs AS (SELECT a.n AS n FROM docs a, docs b) SELECT COUNT(*) FROM pairs")
        .unwrap_err();
    assert!(
        matches!(err, EngineError::ResourceExhausted { .. }),
        "{err:?}"
    );
    assert_eq!(metric(&db, "mem.budget_aborts"), 1.0);
}

/// A CTE read three times is held once: 3,000 rows of about 96 bytes fit a
/// budget of one and a half copies, and the statement's peak shows one.
#[test]
fn a_cte_read_three_times_is_charged_once() {
    let one_copy = 3000 * 96;
    let db = db_with_rows(
        EngineConfig::default().with_memory_budget(one_copy * 3 / 2),
        3000,
    );
    let r = db
        .query(
            "WITH c AS (SELECT n, grp, w * 2.0 AS w FROM docs) \
             SELECT COUNT(*) FROM c UNION ALL SELECT SUM(n) FROM c UNION ALL SELECT MAX(grp) FROM c",
        )
        .unwrap();
    assert_eq!(r.rows.len(), 3);
    let peak = db
        .query_scalar("SELECT peak_mem_bytes FROM sys.query_log WHERE sql LIKE 'WITH c%'")
        .unwrap();
    let peak = peak.as_i64().unwrap().unwrap() as u64;
    assert!((one_copy..one_copy * 3 / 2).contains(&peak), "{peak}");
}

#[test]
fn same_statements_pass_under_a_generous_budget() {
    let db = db_with_rows(
        EngineConfig::default().with_memory_budget(64 * 1024 * 1024),
        3000,
    );
    for sql in HUNGRY {
        db.query(sql).unwrap_or_else(|e| panic!("{sql:?}: {e}"));
    }
    assert_eq!(metric(&db, "mem.budget_aborts"), 0.0);
    // Peak usage was tracked even though nothing aborted.
    assert!(metric(&db, "mem.peak_bytes") > 0.0);
}

#[test]
fn unbudgeted_databases_are_unaffected_but_still_track_peaks() {
    let db = db_with_rows(EngineConfig::default(), 3000);
    for sql in HUNGRY {
        db.query(sql).unwrap_or_else(|e| panic!("{sql:?}: {e}"));
    }
    // sys.query_log records the peak operator memory per statement.
    let r = db
        .query(
            "SELECT peak_mem_bytes FROM sys.query_log \
             WHERE sql LIKE '%JOIN docs%' ORDER BY peak_mem_bytes DESC LIMIT 1",
        )
        .unwrap();
    match r.rows[0][0] {
        Value::Int(peak) => assert!(peak > 0, "peak_mem_bytes not recorded"),
        ref other => panic!("expected integer peak, got {other:?}"),
    }
}

#[test]
fn small_statements_fit_inside_a_small_budget() {
    // The budget constrains operator state, not mere table size: point
    // reads and small aggregates over the same table stay admissible.
    let db = db_with_rows(EngineConfig::default().with_memory_budget(64 * 1024), 3000);
    db.query("SELECT w FROM docs WHERE n = 17").unwrap();
    db.query("SELECT grp, COUNT(*) FROM docs GROUP BY grp")
        .unwrap();
}

#[test]
fn budget_abort_is_clean_and_database_stays_usable() {
    let db = db_with_rows(
        EngineConfig::default()
            .with_memory_budget(4096)
            .with_statement_timeout(Duration::from_secs(30)),
        3000,
    );
    let before = db.query("SELECT COUNT(*) FROM docs").unwrap();
    let _ = db.query(HUNGRY[0]).unwrap_err();
    // An aborted statement releases everything; the next statement runs.
    let after = db.query("SELECT COUNT(*) FROM docs").unwrap();
    assert_eq!(before, after);
    // Failed statements land in the query log as errors with their peak.
    let r = db
        .query(
            "SELECT status FROM sys.query_log WHERE sql LIKE '%JOIN docs%' \
             ORDER BY id DESC LIMIT 1",
        )
        .unwrap();
    assert_eq!(r.rows[0][0], Value::text("error"));
}

/// An INNER hash join builds on its smaller input, wherever it stands in
/// the FROM list: ten `few` rows against 3,000 `docs` fit a 16 KiB budget
/// written either way round. The budget is tight for the large side — the
/// LEFT JOIN, which must build on `docs`, overruns it.
#[test]
fn a_small_left_input_builds_under_a_budget_the_large_side_overruns() {
    let db = db_with_rows(EngineConfig::default().with_memory_budget(16 * 1024), 3000);
    db.execute_script(
        "CREATE TABLE few (n INTEGER);
         INSERT INTO few VALUES (0), (7), (7), (42), (NULL), (2999), (3000), (5), (6), (1);",
    )
    .unwrap();
    for sql in [
        "SELECT COUNT(*) FROM few f JOIN docs d ON f.n = d.n",
        "SELECT COUNT(*) FROM few f, docs d WHERE f.n = d.n",
        "SELECT COUNT(*) FROM docs d JOIN few f ON d.n = f.n",
    ] {
        let r = db.query(sql).unwrap_or_else(|e| panic!("{sql:?}: {e}"));
        assert_eq!(r.rows, vec![vec![Value::Int(8)]], "{sql}");
    }
    assert_eq!(metric(&db, "mem.budget_aborts"), 0.0);
    let err = db
        .query("SELECT COUNT(*) FROM few f LEFT JOIN docs d ON f.n = d.n")
        .unwrap_err();
    assert!(
        matches!(err, EngineError::ResourceExhausted { .. }),
        "{err:?}"
    );
}

/// 1,000 × 1,000 docs, loaded without a statement (so a tight timeout
/// governs only the query under test).
fn cross_join_db(config: EngineConfig) -> Database {
    let db = Database::with_config(config.with_parallelism(1));
    db.execute("CREATE TABLE docs (n INTEGER, grp INTEGER, w REAL)")
        .unwrap();
    let rows = (0..1000)
        .map(|i| vec![Value::Int(i), Value::Int(i % 7), Value::Float(i as f64)])
        .collect();
    db.insert_rows("docs", rows).unwrap();
    db
}

const CROSS_COUNT: &str = "SELECT COUNT(*) FROM docs a, docs b";

/// A row is charged where it is held: the nested loop holds its inner side
/// and the aggregate its one group, while the million joined rows stream
/// from one into the other — so they fit a budget they would not fit held.
#[test]
fn a_cross_join_streamed_into_count_fits_a_small_budget() {
    let db = cross_join_db(EngineConfig::default().with_memory_budget(1024 * 1024));
    let r = db.query(CROSS_COUNT).unwrap();
    assert_eq!(r.rows, vec![vec![Value::Int(1_000_000)]]);
    assert_eq!(metric(&db, "mem.budget_aborts"), 0.0);
}

/// Every streamed loop looks at the deadline every `DEADLINE_STRIDE` rows,
/// a join's fan-out included: the same count under a 5 ms timeout stops.
#[test]
fn a_streamed_cross_join_stops_at_the_statement_timeout() {
    let db = cross_join_db(
        EngineConfig::default()
            .with_memory_budget(1024 * 1024)
            .with_statement_timeout(Duration::from_millis(5)),
    );
    let err = db.query(CROSS_COUNT).unwrap_err();
    assert!(matches!(err, EngineError::Timeout), "{err:?}");
}
