//! Readers of a table's derived key index beside a writer appending to the
//! table: the first reader to probe builds the index, appends carry it
//! forward or drop it while readers hold it, and every reader's key-filtered
//! join must answer what the row-by-row probe answers on the snapshot that
//! reader's plan captured.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::thread;

use sqlengine::{Database, EngineConfig, Value};

/// Rows of `t` before the writer starts: past the key filter's gate of 8
/// rows per build key.
const BASE_ROWS: i64 = 64;
/// Rows the writer appends, one statement each.
const APPENDS: i64 = 150;
const READERS: usize = 4;

/// Row `i` of `t`.
fn row(i: i64) -> Vec<Value> {
    vec![
        Value::Int(i),
        Value::Int(i % 7),
        Value::Float(i as f64 / 4.0),
    ]
}

/// The key-filtered join, and in its last arm the row count of the snapshot
/// it read (`-1 - rows`): every scan of one plan reads the same snapshot.
const JOIN: &str = "SELECT t.id, t.w FROM t JOIN k ON t.x = k.x \
                    UNION ALL SELECT -1 - COUNT(*), 0.0 FROM t";

fn load(db: &Database, rows: i64) {
    db.execute_script(
        "CREATE TABLE t (id INTEGER, x INTEGER, w REAL);
         CREATE TABLE k (x INTEGER);
         INSERT INTO k VALUES (2), (5);",
    )
    .unwrap();
    db.insert_rows("t", (0..rows).map(row).collect()).unwrap();
}

/// The snapshot's row count, and the joined rows in a canonical order.
fn answer(db: &Database) -> (i64, Vec<String>) {
    let mut rows: Vec<String> = Vec::new();
    let mut snapshot = None;
    for r in db.query(JOIN).unwrap().rows {
        match r[0] {
            Value::Int(id) if id < 0 => snapshot = Some(-1 - id),
            _ => rows.push(format!("{r:?}")),
        }
    }
    rows.sort();
    (snapshot.expect("the count arm"), rows)
}

#[test]
fn readers_beside_an_appender_answer_as_the_row_probe_on_their_snapshot() {
    let db = Database::with_config(EngineConfig::default());
    load(&db, BASE_ROWS);
    assert!(db.explain(JOIN).unwrap().contains("probe=keyset(index)"));
    let (writing, reads) = (AtomicBool::new(true), AtomicUsize::new(0));
    let seen: Vec<Vec<(i64, Vec<String>)>> = thread::scope(|s| {
        let readers: Vec<_> = (0..READERS)
            .map(|_| {
                s.spawn(|| {
                    let mut seen = Vec::new();
                    while writing.load(Ordering::Acquire) {
                        seen.push(answer(&db));
                        reads.fetch_add(1, Ordering::Release);
                    }
                    seen.push(answer(&db));
                    seen
                })
            })
            .collect();
        for i in BASE_ROWS..BASE_ROWS + APPENDS {
            // Append only once some reader has finished a read since the
            // last append, so the reads interleave with the appends (or once
            // every reader has stopped: one failed, and joining reports it).
            let before = reads.load(Ordering::Acquire);
            while reads.load(Ordering::Acquire) == before
                && !readers.iter().all(|r| r.is_finished())
            {
                thread::yield_now();
            }
            db.insert_rows("t", vec![row(i)]).unwrap();
        }
        writing.store(false, Ordering::Release);
        readers.into_iter().map(|r| r.join().unwrap()).collect()
    });
    assert!(db.telemetry().keyset_index_probes.get() > 0);

    // One row-probe replica per snapshot any reader saw.
    let mut want: BTreeMap<i64, Vec<String>> = BTreeMap::new();
    for (snapshot, rows) in seen.into_iter().flatten() {
        assert!(
            (BASE_ROWS..=BASE_ROWS + APPENDS).contains(&snapshot),
            "{snapshot}"
        );
        let expected = want.entry(snapshot).or_insert_with(|| {
            let replica = Database::with_config(EngineConfig::default().with_vectorized(false));
            load(&replica, snapshot);
            answer(&replica).1
        });
        assert_eq!(&rows, expected, "snapshot of {snapshot} rows");
    }
    // The readers' last runs read the final table, and reads fell between
    // most appends.
    assert!(want.contains_key(&(BASE_ROWS + APPENDS)));
    assert!(want.len() as i64 > APPENDS / 2, "{} snapshots", want.len());
}
