//! Readers serving cached plans beside a writer of one of their tables: a
//! write drops the plans over the table it writes before it changes it, and
//! a planner that raced the write does not store its plan, so no reader is
//! ever served rows older than a write acknowledged before its statement
//! began — while the plans over a table nobody writes keep hitting.

use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::sync::Barrier;
use std::thread;

use sqlengine::{Database, EngineConfig, Value};

/// Rows of `t` before the writer starts.
const BASE_ROWS: i64 = 8;
/// Rows the writer appends, one acknowledged statement each.
const APPENDS: i64 = 150;
const READERS: usize = 2;

const COUNT_T: &str = "SELECT COUNT(*) FROM t";
const COUNT_U: &str = "SELECT COUNT(*) FROM u WHERE n >= 0";

fn count(db: &Database, sql: &str) -> i64 {
    match db.query_scalar(sql).unwrap() {
        Value::Int(n) => n,
        other => panic!("COUNT(*) gave {other:?}"),
    }
}

#[test]
fn readers_never_see_fewer_rows_than_acknowledged_and_other_plans_keep_hitting() {
    let db = Database::with_config(EngineConfig::default());
    db.execute_script(
        "CREATE TABLE t (n INTEGER);
         CREATE TABLE u (n INTEGER);",
    )
    .unwrap();
    let rows = |n: i64| (0..n).map(|i| vec![Value::Int(i)]).collect();
    db.insert_rows("t", rows(BASE_ROWS)).unwrap();
    db.insert_rows("u", rows(5)).unwrap();
    // Both plans cached before the race starts.
    assert_eq!(count(&db, COUNT_T), BASE_ROWS);
    assert_eq!(count(&db, COUNT_U), 5);
    let before = db.telemetry().query_log().last().expect("logged").id;

    let acked = AtomicI64::new(0);
    let done = AtomicBool::new(false);
    let start = Barrier::new(READERS + 1);
    thread::scope(|scope| {
        for _ in 0..READERS {
            scope.spawn(|| {
                start.wait();
                let mut reads = 0;
                while !done.load(Ordering::SeqCst) || reads < 10 {
                    let floor = BASE_ROWS + acked.load(Ordering::SeqCst);
                    let seen = count(&db, COUNT_T);
                    assert!(seen >= floor, "served {seen} rows after {floor} were acked");
                    assert_eq!(count(&db, COUNT_U), 5);
                    reads += 1;
                }
            });
        }
        start.wait();
        for i in 0..APPENDS {
            db.execute(&format!("INSERT INTO t VALUES ({i})")).unwrap();
            acked.fetch_add(1, Ordering::SeqCst);
        }
        done.store(true, Ordering::SeqCst);
    });

    assert_eq!(count(&db, COUNT_T), BASE_ROWS + APPENDS);
    let log = db.telemetry().query_log();
    let over_u: Vec<bool> = (log.iter())
        .filter(|e| e.id > before && e.sql == COUNT_U)
        .map(|e| e.cache_hit)
        .collect();
    assert!(over_u.len() >= 10 * READERS);
    assert!(
        over_u.iter().all(|&hit| hit),
        "a write to t dropped the plan over u"
    );
}
