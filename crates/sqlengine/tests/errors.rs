//! Negative tests: every class of user error must surface as a typed
//! `EngineError`, never a panic or silent wrong answer.

use std::time::Duration;

use sqlengine::{Database, EngineConfig, EngineError, Value};

fn db_with_t() -> Database {
    let db = Database::new();
    db.execute_script("CREATE TABLE t (a INTEGER, b TEXT); INSERT INTO t VALUES (1, 'x');")
        .unwrap();
    db
}

#[test]
fn lex_errors() {
    let db = Database::new();
    assert!(matches!(
        db.execute("SELECT 'unterminated"),
        Err(EngineError::Lex { .. })
    ));
    assert!(matches!(
        db.execute("SELECT ^"),
        Err(EngineError::Lex { .. })
    ));
}

#[test]
fn parse_errors() {
    let db = Database::new();
    for sql in [
        "SELEC 1",
        "SELECT FROM t",
        "SELECT 1 FROM",
        "INSERT t VALUES (1)",
        "CREATE TABLE (a INTEGER)",
        "SELECT * FROM t WHERE",
        "SELECT CASE END",
        "DELETE t",
        "SELECT 1 GROUP 2",
    ] {
        assert!(
            matches!(db.execute(sql), Err(EngineError::Parse { .. })),
            "expected parse error for {sql:?}"
        );
    }
}

#[test]
fn plan_errors() {
    let db = db_with_t();
    // These were plan/catalog errors before the semantic analyzer existed;
    // now every one is caught statically before planning.
    for sql in [
        "SELECT * FROM missing",                    // unknown table
        "SELECT zzz FROM t",                        // unknown column
        "SELECT x.a FROM t",                        // unknown qualifier
        "SELECT NOSUCHFUNC(a) FROM t",              // unknown function
        "SELECT POW(a) FROM t",                     // wrong arity
        "SELECT a FROM t HAVING a > 1",             // HAVING without aggregate
        "SELECT a FROM t ORDER BY 99",              // ordinal out of range
        "SELECT SUM(a) FROM t GROUP BY a LIMIT x",  // non-constant limit
        "SELECT a FROM t UNION SELECT a, b FROM t", // width mismatch
    ] {
        let result = db.execute(sql);
        assert!(
            matches!(result, Err(EngineError::Sema { .. })),
            "expected sema error for {sql:?}, got {result:?}"
        );
    }
}

#[test]
fn ambiguous_column_is_reported() {
    let db = Database::new();
    db.execute_script("CREATE TABLE a (x INTEGER); CREATE TABLE b (x INTEGER);")
        .unwrap();
    let err = db.query("SELECT x FROM a, b").unwrap_err();
    assert!(err.to_string().contains("ambiguous"), "{err}");
}

#[test]
fn exec_errors() {
    let db = db_with_t();
    // `a / 0` is not a compile-time constant (the left side is a column),
    // so division by zero still surfaces at execution time.
    assert!(matches!(
        db.query("SELECT a / 0 FROM t"),
        Err(EngineError::Exec(_))
    ));
    // int + text involves a declared TEXT column, so the analyzer rejects
    // it statically now.
    assert!(matches!(
        db.query("SELECT a + b FROM t"),
        Err(EngineError::Sema { .. })
    ));
    // Wrong arity on insert.
    assert!(db.execute("INSERT INTO t VALUES (1)").is_err());
}

#[test]
fn parameter_errors() {
    let db = db_with_t();
    assert!(matches!(
        db.query("SELECT ? FROM t"),
        Err(EngineError::Parameter(_))
    ));
    assert!(matches!(
        db.query_with("SELECT ?3 FROM t", &[Value::Int(1)]),
        Err(EngineError::Parameter(_))
    ));
}

#[test]
fn catalog_errors() {
    let db = db_with_t();
    assert!(matches!(
        db.execute("CREATE TABLE t (x INTEGER)"),
        Err(EngineError::Catalog(_))
    ));
    assert!(matches!(
        db.execute("DROP TABLE nothere"),
        Err(EngineError::Catalog(_))
    ));
    assert!(matches!(
        db.execute("CREATE INDEX i ON t (nosuchcol)"),
        Err(EngineError::Catalog(_))
    ));
}

#[test]
fn on_conflict_without_unique_index_is_rejected() {
    let db = Database::new();
    db.execute("CREATE TABLE plain (a INTEGER, b REAL)")
        .unwrap();
    let err = db
        .execute(
            "INSERT INTO plain VALUES (1, 2.0) \
             ON CONFLICT (a) DO UPDATE SET b = plain.b + excluded.b",
        )
        .unwrap_err();
    assert!(err.to_string().contains("unique index"), "{err}");
}

#[test]
fn on_conflict_target_mismatch_is_rejected() {
    let db = Database::new();
    db.execute("CREATE TABLE k (a INTEGER, b INTEGER, PRIMARY KEY (a))")
        .unwrap();
    let err = db
        .execute("INSERT INTO k VALUES (1, 2) ON CONFLICT (b) DO NOTHING")
        .unwrap_err();
    assert!(err.to_string().contains("does not match"), "{err}");
}

#[test]
fn aggregate_in_where_is_rejected() {
    let db = db_with_t();
    assert!(db.query("SELECT a FROM t WHERE SUM(a) > 1").is_err());
}

#[test]
fn error_messages_name_the_offender() {
    let db = db_with_t();
    let err = db.query("SELECT missing_col FROM t").unwrap_err();
    assert!(err.to_string().contains("missing_col"), "{err}");
    let err = db.query("SELECT * FROM missing_table").unwrap_err();
    assert!(err.to_string().contains("missing_table"), "{err}");
}

/// Build a table big enough that a self cross join cannot finish within a
/// millisecond-scale statement timeout.
fn heavy_db(config: EngineConfig) -> Database {
    let db = Database::with_config(config);
    db.execute("CREATE TABLE big (n INTEGER, w REAL)").unwrap();
    let values: Vec<String> = (0..2000).map(|i| format!("({i}, {i}.5)")).collect();
    db.execute(&format!("INSERT INTO big VALUES {}", values.join(", ")))
        .unwrap();
    db
}

#[test]
fn timeout_error_display_is_pinned_and_retryable() {
    let db = heavy_db(EngineConfig::default().with_statement_timeout(Duration::from_millis(1)));
    let err = db
        .query("SELECT COUNT(*) FROM big a, big b WHERE a.n + b.n > 0")
        .unwrap_err();
    assert!(matches!(err, EngineError::Timeout), "{err:?}");
    // The prefix is load-bearing: clients match on it to decide to retry.
    assert_eq!(err.to_string(), "timeout: statement timeout exceeded");
    assert!(err.is_retryable());
}

/// An equi-join checks the deadline inside its build and probe loops, not
/// only at operator entry: under a tiny timeout a large one comes back with
/// `Timeout` long before it could have produced its output.
#[test]
fn a_large_equi_join_is_interrupted_by_the_statement_timeout() {
    // 20,000 rows over 200 keys: 2,000,000 joined rows.
    let load = |config: EngineConfig| {
        let db = Database::with_config(config);
        db.execute("CREATE TABLE wide (k INTEGER, w REAL)").unwrap();
        let rows = (0..20_000)
            .map(|i| vec![Value::Int(i % 200), Value::Float(i as f64)])
            .collect();
        db.insert_rows("wide", rows).unwrap();
        db
    };
    let sql = "SELECT COUNT(*) FROM wide a JOIN wide b ON a.k = b.k";
    let started = std::time::Instant::now();
    let full = load(EngineConfig::default()).query_scalar(sql).unwrap();
    let full_time = started.elapsed();
    assert_eq!(full, Value::Int(2_000_000));

    for (name, config) in [
        ("hash", EngineConfig::profile_a()),
        (
            "parallel hash",
            EngineConfig::profile_a().with_parallelism(4),
        ),
        ("sort-merge", EngineConfig::profile_c()),
    ] {
        let db = load(config.with_statement_timeout(Duration::from_millis(2)));
        let started = std::time::Instant::now();
        let err = db.query(sql).unwrap_err();
        let took = started.elapsed();
        assert!(matches!(err, EngineError::Timeout), "{name}: {err:?}");
        assert!(
            took < full_time / 4,
            "{name}: gave up after {took:?}; the whole join takes {full_time:?}"
        );
    }
}

/// What the planner executes itself — `IN (SELECT …)`, `EXISTS` — runs
/// under the statement's deadline too, as does a CTE `profile_b` shares,
/// which the first reference to run executes.
#[test]
fn planner_time_execution_is_interrupted_by_the_statement_timeout() {
    let load = |config: EngineConfig| {
        let db = Database::with_config(config);
        db.execute("CREATE TABLE wide (k INTEGER, w REAL)").unwrap();
        let rows = (0..20_000)
            .map(|i| vec![Value::Int(i % 200), Value::Float(i as f64)])
            .collect();
        db.insert_rows("wide", rows).unwrap();
        db
    };
    let join = "SELECT COUNT(*) AS c FROM wide a JOIN wide b ON a.k = b.k";
    for (name, config, sql) in [
        (
            "IN",
            EngineConfig::profile_a(),
            format!("SELECT COUNT(*) FROM wide WHERE k IN ({join})"),
        ),
        (
            "EXISTS",
            EngineConfig::profile_a(),
            format!("SELECT COUNT(*) FROM wide WHERE EXISTS ({join})"),
        ),
        (
            "materialized CTE",
            EngineConfig::profile_b(),
            format!("WITH j AS ({join}) SELECT c FROM j"),
        ),
    ] {
        let started = std::time::Instant::now();
        load(config).query(&sql).unwrap();
        let full_time = started.elapsed();

        let db = load(config.with_statement_timeout(Duration::from_millis(2)));
        let started = std::time::Instant::now();
        let err = db.query(&sql).unwrap_err();
        let took = started.elapsed();
        assert!(matches!(err, EngineError::Timeout), "{name}: {err:?}");
        assert!(
            took < full_time / 4,
            "{name}: gave up after {took:?}; the whole statement takes {full_time:?}"
        );
    }
}

#[test]
fn resource_exhausted_display_is_pinned_and_retryable() {
    // A 4 KiB budget cannot hold a hash-join build side over 2000 rows.
    let db = heavy_db(EngineConfig::default().with_memory_budget(4096));
    let err = db
        .query("SELECT COUNT(*) FROM big a JOIN big b ON a.n = b.n")
        .unwrap_err();
    assert!(
        matches!(err, EngineError::ResourceExhausted { .. }),
        "{err:?}"
    );
    let msg = err.to_string();
    assert!(msg.starts_with("resource exhausted"), "{msg}");
    assert!(msg.contains("memory budget"), "{msg}");
    assert!(err.is_retryable());
}

#[test]
fn overloaded_display_is_pinned_and_retryable() {
    // A zero-depth queue with one slot taken sheds immediately; hold the
    // only slot with a concurrent heavy statement.
    let db = std::sync::Arc::new(heavy_db(
        EngineConfig::default()
            .with_max_concurrent_statements(1)
            .with_admission_queue_depth(0),
    ));
    let db2 = std::sync::Arc::clone(&db);
    let admitted = db.telemetry().admission_admitted.get();
    let busy = std::thread::spawn(move || {
        db2.query("SELECT COUNT(*) FROM big a, big b WHERE a.n + b.n > 0")
            .unwrap()
    });
    // Wait until the heavy statement holds the only slot: were it to arrive
    // while one of the short statements below holds it, it would itself be
    // shed.
    while db.telemetry().admission_admitted.get() == admitted {
        std::thread::yield_now();
    }
    // Poll until we collide with the busy statement (or it finishes first,
    // in which case the loop below must have seen at least one collision —
    // the busy query takes far longer than the polling interval).
    let mut overloaded = None;
    for _ in 0..5_000 {
        match db.query("SELECT 1") {
            Err(e) => {
                overloaded = Some(e);
                break;
            }
            Ok(_) => std::thread::sleep(Duration::from_micros(100)),
        }
    }
    let err = overloaded.expect("never collided with the busy statement");
    assert!(matches!(err, EngineError::Overloaded(_)), "{err:?}");
    let msg = err.to_string();
    assert!(msg.starts_with("overloaded:"), "{msg}");
    assert!(msg.contains("queue is full"), "{msg}");
    assert!(err.is_retryable());
    busy.join().unwrap();
}

#[test]
fn retryable_taxonomy_is_pinned() {
    // Transient-engine errors are retryable; request defects are not.
    assert!(EngineError::Timeout.is_retryable());
    let wal = EngineError::Wal("fsync failed".into());
    assert!(wal.is_retryable());
    assert!(wal.to_string().starts_with("durability error:"), "{wal}");
    let db = db_with_t();
    for sql in ["SELEC 1", "SELECT zzz FROM t", "SELECT a / 0 FROM t"] {
        let err = db.query(sql).unwrap_err();
        assert!(
            !err.is_retryable(),
            "{sql:?} should not be retryable: {err}"
        );
    }
}

#[test]
fn failed_statement_leaves_state_untouched() {
    let db = db_with_t();
    // A failing UPDATE (type error mid-way) must not corrupt the table.
    let before = db.query("SELECT * FROM t").unwrap();
    let _ = db.execute("UPDATE t SET a = a + b"); // int + text → error
    let after = db.query("SELECT * FROM t").unwrap();
    assert_eq!(before, after);
}
