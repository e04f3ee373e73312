//! Writes keep the plan cache: a cached plan names its tables and each run
//! binds their current rows, so no plan keeps a table's rows alive for a
//! write to copy. A plan that ran a subquery while planning holds its result
//! and is never stored; DML statements are served from the cache too, until
//! DDL changes the table they write.

use sqlengine::{Database, EngineConfig, Value};

fn metric(db: &Database, name: &str) -> f64 {
    let sql = format!("SELECT value FROM sys.metrics WHERE name = '{name}'");
    match db.query_scalar(&sql).unwrap() {
        Value::Float(v) => v,
        Value::Int(v) => v as f64,
        other => panic!("{name} = {other:?}"),
    }
}

fn scalar(db: &Database, sql: &str) -> Value {
    db.query_scalar(sql).unwrap()
}

fn seeded(config: EngineConfig) -> Database {
    let db = Database::with_config(config);
    db.execute_script(
        "CREATE TABLE t (n INTEGER, s TEXT);
         CREATE TABLE u (n INTEGER);
         CREATE TABLE v (n INTEGER);
         INSERT INTO t VALUES (1, 'a'), (2, 'b'), (3, 'c'), (7, 'g');
         INSERT INTO u VALUES (1), (2);
         INSERT INTO v VALUES (9);",
    )
    .unwrap();
    db
}

#[test]
fn a_plan_that_ran_a_subquery_is_not_stored_and_sees_every_write() {
    let db = seeded(EngineConfig::default());
    let q = "SELECT COUNT(*) FROM t WHERE n IN (SELECT n FROM u)";
    db.reset_plan_cache_stats();
    assert_eq!(scalar(&db, q), Value::Int(2));
    assert_eq!(scalar(&db, q), Value::Int(2));
    // The subquery ran while planning, so its result is part of the plan,
    // which is planned afresh every time.
    assert_eq!(db.plan_cache_stats(), (0, 2));
    db.execute("INSERT INTO u VALUES (3)").unwrap();
    assert_eq!(scalar(&db, q), Value::Int(3));
    db.execute("INSERT INTO t VALUES (3, 'd')").unwrap();
    assert_eq!(scalar(&db, q), Value::Int(4));
    // Its subquery alone is a plan like any other.
    db.reset_plan_cache_stats();
    let sub = "SELECT COUNT(*) FROM u WHERE n > 0";
    for want in [3, 3] {
        assert_eq!(scalar(&db, sub), Value::Int(want));
    }
    assert_eq!(db.plan_cache_stats(), (1, 1));
}

#[test]
fn a_write_copies_no_rows_a_cached_plan_held() {
    let db = seeded(EngineConfig::default());
    for _ in 0..2 {
        assert_eq!(scalar(&db, "SELECT s FROM t WHERE n = 7"), Value::text("g"));
    }
    let copies = metric(&db, "catalog.snapshot_copies");
    db.execute("INSERT INTO t VALUES (8, 'h')").unwrap();
    db.execute("DELETE FROM t WHERE n = 1").unwrap();
    db.execute("UPDATE t SET s = 'x' WHERE n = 2").unwrap();
    assert_eq!(metric(&db, "catalog.snapshot_copies"), copies);
    // A transaction's saved catalog does hold the rows: its first write
    // to a table copies them, once.
    db.execute("BEGIN").unwrap();
    db.execute("INSERT INTO t VALUES (9, 'i')").unwrap();
    db.execute("INSERT INTO t VALUES (10, 'j')").unwrap();
    db.execute("ROLLBACK").unwrap();
    assert_eq!(metric(&db, "catalog.snapshot_copies"), copies + 1.0);
}

#[test]
fn dml_is_served_from_the_cache_until_ddl_on_its_target() {
    let db = seeded(EngineConfig::default());
    let delete = |n: i64| format!("DELETE FROM t WHERE n = {n}");
    db.execute(&delete(1)).unwrap();
    db.reset_plan_cache_stats();
    // Its own write to `t` does not drop the entry: it holds no rows.
    assert_eq!(db.execute(&delete(2)).unwrap().affected(), 1);
    assert_eq!(db.execute(&delete(3)).unwrap().affected(), 1);
    assert_eq!(db.plan_cache_stats(), (2, 0));
    db.execute("CREATE INDEX t_n ON t (n)").unwrap();
    db.reset_plan_cache_stats();
    assert_eq!(db.execute(&delete(7)).unwrap().affected(), 1);
    assert_eq!(db.plan_cache_stats(), (0, 1));
    assert_eq!(scalar(&db, "SELECT COUNT(*) FROM t"), Value::Int(0));
}

#[test]
fn a_cached_delete_examines_the_rows_an_uncached_one_does() {
    let setup = "CREATE TABLE f (n INTEGER, term TEXT);
                 CREATE INDEX f_n ON f (n);";
    let cached = Database::new();
    let uncached = Database::with_config(EngineConfig::default().with_plan_cache(false));
    for db in [&cached, &uncached] {
        db.execute_script(setup).unwrap();
        let rows = (0..200).map(|i| vec![Value::Int(i % 100), Value::text(format!("w{i}"))]);
        db.insert_rows("f", rows.collect()).unwrap();
    }
    cached.reset_plan_cache_stats();
    for ids in ["1, 2, 3", "4, 5, 6", "7, 8, 9"] {
        let sql = format!("DELETE FROM f WHERE n IN ({ids})");
        let mut examined = Vec::new();
        for db in [&cached, &uncached] {
            let before = metric(db, "dml.rows_examined");
            assert_eq!(db.execute(&sql).unwrap().affected(), 6);
            examined.push(metric(db, "dml.rows_examined") - before);
        }
        assert_eq!(examined, [6.0, 6.0], "{sql}");
    }
    assert_eq!(cached.plan_cache_stats(), (2, 1));
}
