//! When a cached plan may serve a run. A plan names its tables and each run
//! binds their current rows, so writes keep it; it records what it was
//! planned against — each table's definition, and the row counts its
//! choices read — and is served while the catalog still agrees: a table
//! dropped and created alike keeps its plans, DDL that changes a definition
//! replans, and so does a table that grew or shrank past twice what the
//! plan's choices read. Every answer equals a database's without a plan
//! cache.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::thread;

use sqlengine::{Database, EngineConfig, Value};

fn metric(db: &Database, name: &str) -> f64 {
    let sql = format!("SELECT value FROM sys.metrics WHERE name = '{name}'");
    match db.query_scalar(&sql).unwrap() {
        Value::Float(v) => v,
        Value::Int(v) => v as f64,
        other => panic!("{name} = {other:?}"),
    }
}

/// A database with the plan cache, and one without.
fn pair() -> (Database, Database) {
    let uncached = EngineConfig::default().with_plan_cache(false);
    (Database::new(), Database::with_config(uncached))
}

/// Run `sql` on both, check they agree, and return the rows.
fn agree(cached: &Database, uncached: &Database, sql: &str) -> Vec<Vec<Value>> {
    let rows = cached.query(sql).unwrap().rows;
    assert_eq!(rows, uncached.query(sql).unwrap().rows, "{sql}");
    rows
}

fn script(dbs: [&Database; 2], sql: &str) {
    for db in dbs {
        db.execute_script(sql).unwrap();
    }
}

const COUNT: &str = "SELECT COUNT(*), SUM(n) FROM t WHERE n >= 0";

#[test]
fn a_table_dropped_and_created_alike_keeps_its_plans_with_the_new_rows() {
    let (cached, uncached) = pair();
    let dbs = [&cached, &uncached];
    script(
        dbs,
        "CREATE TABLE t (n INTEGER, s TEXT); INSERT INTO t VALUES (1, 'a'), (2, 'b');",
    );
    agree(&cached, &uncached, COUNT);
    script(
        dbs,
        "DROP TABLE t; CREATE TABLE t (n INTEGER, s TEXT); INSERT INTO t VALUES (7, 'g');",
    );
    cached.reset_plan_cache_stats();
    let rows = agree(&cached, &uncached, COUNT);
    assert_eq!(rows, [[Value::Int(1), Value::Int(7)]]);
    assert_eq!(cached.plan_cache_stats(), (1, 0), "served the old plan");
}

#[test]
fn a_changed_definition_replans_with_the_right_rows() {
    // Each change of `t`'s definition: a column's type, an added index, a
    // different primary key. The next run replans, once.
    let changes = [
        "DROP TABLE t; CREATE TABLE t (n INTEGER, s INTEGER);
         INSERT INTO t VALUES (1, 10), (2, 20), (3, 30);",
        "CREATE INDEX t_n ON t (n);",
        "DROP TABLE t; CREATE TABLE t (n INTEGER, s INTEGER, PRIMARY KEY (s));
         INSERT INTO t VALUES (1, 11), (2, 22);",
        "DROP TABLE t; CREATE TABLE t (n INTEGER, s INTEGER, PRIMARY KEY (n));
         INSERT INTO t VALUES (4, 44);",
    ];
    let (cached, uncached) = pair();
    let dbs = [&cached, &uncached];
    script(
        dbs,
        "CREATE TABLE t (n INTEGER, s TEXT); INSERT INTO t VALUES (1, '10'), (2, '20');
         CREATE TABLE u (n INTEGER, w REAL); INSERT INTO u VALUES (1, 0.5), (2, 1.5), (5, 2.5);",
    );
    let join = "SELECT t.n, t.s, u.w FROM t JOIN u ON t.n = u.n WHERE t.n > 0 ORDER BY 1";
    let point = "SELECT s FROM t WHERE n = 2";
    for sql in [join, point, COUNT] {
        agree(&cached, &uncached, sql);
    }
    for change in changes {
        script(dbs, change);
        cached.reset_plan_cache_stats();
        for sql in [join, point, COUNT] {
            agree(&cached, &uncached, sql);
        }
        assert_eq!(cached.plan_cache_stats(), (0, 3), "{change}");
        for sql in [join, point, COUNT] {
            agree(&cached, &uncached, sql);
        }
        assert_eq!(cached.plan_cache_stats(), (3, 3), "{change}");
    }
    assert_eq!(metric(&cached, "plan_cache.stats_replans"), 0.0);
}

#[test]
fn a_hash_join_replans_its_build_side_once_its_table_grows_tenfold() {
    let (cached, uncached) = pair();
    let dbs = [&cached, &uncached];
    script(
        dbs,
        "CREATE TABLE small (k INTEGER, a INTEGER); CREATE TABLE big (k INTEGER, b INTEGER);",
    );
    let rows =
        |n: i64, modulo: i64| (0..n).map(move |i| vec![Value::Int(i % modulo), Value::Int(i)]);
    for db in dbs {
        db.insert_rows("small", rows(10, 10).collect()).unwrap();
        db.insert_rows("big", rows(100, 20).collect()).unwrap();
    }
    let sql = "SELECT s.k, COUNT(*), SUM(s.a * b.b) FROM small s JOIN big b ON s.k = b.k \
               GROUP BY s.k ORDER BY 1";
    assert!(cached.explain(sql).unwrap().contains("build=left"));
    for _ in 0..2 {
        agree(&cached, &uncached, sql);
    }
    assert_eq!(cached.plan_cache_stats(), (1, 1));
    // Past half of `big`: the smaller input is now the right one.
    for db in dbs {
        db.insert_rows("small", rows(90, 10).collect()).unwrap();
    }
    assert!(cached.explain(sql).unwrap().contains("build=right"));
    cached.reset_plan_cache_stats();
    for _ in 0..2 {
        agree(&cached, &uncached, sql);
    }
    assert_eq!(cached.plan_cache_stats(), (1, 1));
    assert_eq!(metric(&cached, "plan_cache.stats_replans"), 1.0);
    let (_, stats) = cached.query_analyzed(sql).unwrap();
    let join = stats.find("HashJoin").expect("a hash join ran");
    assert!(join.label.contains("build=right"), "{}", join.label);
}

#[test]
fn replanning_one_shape_past_the_capacity_keeps_the_cache_bounded() {
    // `LIMIT` is pinned: texts that alternate it share one shape and
    // replace its one entry, as a superseded plan holds no rows to park.
    let (cached, uncached) = pair();
    let dbs = [&cached, &uncached];
    script(
        dbs,
        "CREATE TABLE t (n INTEGER); INSERT INTO t VALUES (3), (1), (2);",
    );
    for i in 0..300 {
        let sql = format!("SELECT n FROM t ORDER BY n LIMIT {}", 1 + i % 2);
        agree(&cached, &uncached, &sql);
        assert!(metric(&cached, "plan_cache.entries") <= 128.0);
    }
    assert_eq!(metric(&cached, "plan_cache.entries"), 1.0);
    assert_eq!(metric(&cached, "plan_cache.pinned_mismatches"), 299.0);
    assert_eq!(metric(&cached, "plan_cache.evictions"), 0.0);
}

#[test]
fn readers_of_a_replanned_table_see_one_snapshot_per_run() {
    // Readers run a cached self-join of `t` while a writer grows it
    // fortyfold (replans on the counts its build side was chosen on) and
    // indexes it (a definition replan), appending only once some reader has
    // finished a read since the last append: each run binds one snapshot,
    // whose count and sum agree, and never fewer rows than a run before it
    // saw.
    let db = Database::new();
    db.execute_script("CREATE TABLE t (n INTEGER); INSERT INTO t VALUES (0);")
        .unwrap();
    let sql = "SELECT COUNT(*), SUM(t.n) FROM t JOIN t AS u ON t.n = u.n";
    let (writing, reads) = (AtomicBool::new(true), AtomicUsize::new(0));
    thread::scope(|s| {
        let readers: Vec<_> = (0..2)
            .map(|_| {
                s.spawn(|| {
                    let mut seen = 0;
                    while writing.load(Ordering::Acquire) {
                        let row = &db.query(sql).unwrap().rows[0];
                        let (Value::Int(count), Value::Int(sum)) = (&row[0], &row[1]) else {
                            panic!("{row:?}");
                        };
                        assert_eq!(*sum, count * (count - 1) / 2, "one snapshot");
                        assert!(*count >= seen, "{count} after {seen}");
                        seen = *count;
                        reads.fetch_add(1, Ordering::Release);
                    }
                })
            })
            .collect();
        for n in 1..40 {
            let before = reads.load(Ordering::Acquire);
            while reads.load(Ordering::Acquire) == before
                && !readers.iter().all(|r| r.is_finished())
            {
                thread::yield_now();
            }
            db.insert_rows("t", vec![vec![Value::Int(n)]]).unwrap();
            if n == 20 {
                db.execute("CREATE INDEX t_n ON t (n)").unwrap();
            }
        }
        writing.store(false, Ordering::Release);
        readers.into_iter().for_each(|r| r.join().unwrap());
    });
    assert!(metric(&db, "plan_cache.stats_replans") >= 1.0);
}
