//! A cached plan is lowered once into a program that every run of its
//! shape shares: runs of one template with different literals, one after
//! another or at the same time, must each answer — rows and
//! `(label, rows_in, rows_out)` operator trees — as a database without a
//! plan cache answers that literal. A run's hash tables, held rows or row
//! counters kept in the shared program would leak from one run into the
//! next or into a concurrent one.

use std::thread;

use sqlengine::{Database, EngineConfig, OpStats, Value};

const THREADS: i64 = 4;
const RUNS_PER_THREAD: i64 = 12;

/// `t` holds 3,000 rows over 60 groups; `k` one row per group, with a tag.
fn load(db: &Database) {
    db.execute_script(
        "CREATE TABLE t (g INTEGER, x INTEGER, w REAL);
         CREATE TABLE k (g INTEGER, tag TEXT);",
    )
    .unwrap();
    let t = (0..3_000i64).map(|i| {
        vec![
            Value::Int(i % 60),
            Value::Int(i),
            Value::Float((i % 17) as f64 / 4.0),
        ]
    });
    db.insert_rows("t", t.collect()).unwrap();
    let k = (0..60i64).map(|g| vec![Value::Int(g), Value::text(format!("tag{}", g % 7))]);
    db.insert_rows("k", k.collect()).unwrap();
}

fn database(plan_cache: bool) -> Database {
    let config = EngineConfig::default()
        .with_parallelism(2)
        .with_plan_cache(plan_cache);
    let db = Database::with_config(config);
    load(&db);
    db
}

/// One shape, its literal `lit` filtering the hash join's build side (`k`,
/// the smaller input) below the join: a run that read another run's table
/// would join the wrong groups.
fn statement(lit: i64) -> String {
    format!(
        "SELECT kk.tag, COUNT(*) AS c, SUM(t.w) AS s \
         FROM t JOIN (SELECT g, tag FROM k WHERE g < {lit}) AS kk ON t.g = kk.g \
         WHERE t.x % 5 <> 1 GROUP BY kk.tag ORDER BY kk.tag"
    )
}

/// Every operator of `stats` as `(depth, label, rows_in, rows_out)`, in
/// `EXPLAIN ANALYZE` order.
fn tree(stats: &OpStats) -> Vec<(usize, String, usize, usize)> {
    fn walk(stats: &OpStats, depth: usize, out: &mut Vec<(usize, String, usize, usize)>) {
        out.push((depth, stats.label.clone(), stats.rows_in, stats.rows_out));
        for child in &stats.children {
            walk(child, depth + 1, out);
        }
    }
    let mut out = Vec::new();
    walk(stats, 0, &mut out);
    out
}

#[test]
fn one_shape_with_fifty_literals_plans_once_and_answers_as_uncached() {
    let (db, replica) = (database(true), database(false));
    db.reset_plan_cache_stats();
    for lit in 1..=50 {
        let sql = statement(lit);
        let rows = db.query(&sql).unwrap().rows;
        assert_eq!(rows, replica.query(&sql).unwrap().rows, "{sql}");
    }
    assert_eq!(db.plan_cache_stats(), (49, 1), "(hits, misses)");
}

#[test]
fn concurrent_runs_of_one_cached_program_keep_their_state_apart() {
    let (db, replica) = (database(true), database(false));
    // Cache the shape before the threads start, so every run below is a
    // run of that one program.
    db.query(&statement(30)).unwrap();
    let lits = |who: i64| (0..RUNS_PER_THREAD).map(move |run| 2 + (who * 13 + run * 5) % 57);
    let want: Vec<Vec<_>> = (0..THREADS)
        .map(|who| {
            let answers = lits(who).map(|lit| {
                let sql = statement(lit);
                let (rows, stats) = replica.query_analyzed(&sql).unwrap();
                (rows.rows, tree(&stats))
            });
            answers.collect()
        })
        .collect();
    let (hits, _) = db.plan_cache_stats();
    thread::scope(|scope| {
        for (who, want) in (0..THREADS).zip(&want) {
            let db = &db;
            scope.spawn(move || {
                for (lit, (rows, shape)) in lits(who).zip(want) {
                    let sql = statement(lit);
                    assert_eq!(&db.query(&sql).unwrap().rows, rows, "{sql}");
                    let (analyzed, stats) = db.query_analyzed(&sql).unwrap();
                    assert_eq!(&analyzed.rows, rows, "{sql}");
                    assert_eq!(&tree(&stats), shape, "{sql}");
                }
            });
        }
    });
    let (hits_after, _) = db.plan_cache_stats();
    assert_eq!(
        hits_after - hits,
        (THREADS * RUNS_PER_THREAD) as u64,
        "every run was a hit on the one program"
    );
}
