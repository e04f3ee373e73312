//! One clock, all doors: whichever entry point a statement comes through, it
//! runs the same lifecycle and is timed once — the flat phase columns of
//! `sys.query_log` and the phase spans of `sys.trace_spans` are the same
//! measurements, so they are *equal*, not merely close.

use sqlengine::trace::{AttrValue, ROOT_SPAN};
use sqlengine::{Database, EngineConfig, QueryLogEntry, QueryResult, TraceSampling, Value};

const SQL: &str = "SELECT g, SUM(w) FROM t WHERE x >= 10 GROUP BY g ORDER BY g";

fn traced_db() -> Database {
    let db = Database::with_config(
        EngineConfig::default().with_trace_sampling(TraceSampling::On { rate: 1.0, seed: 7 }),
    );
    db.execute("CREATE TABLE t (g INTEGER, x INTEGER, w REAL)")
        .unwrap();
    let values: Vec<String> = (0..400)
        .map(|i| format!("({}, {}, {}.5)", i % 7, i % 100, i))
        .collect();
    db.execute(&format!("INSERT INTO t VALUES {}", values.join(", ")))
        .unwrap();
    db
}

fn logged(db: &Database) -> Vec<QueryLogEntry> {
    db.telemetry()
        .query_log()
        .into_iter()
        .filter(|e| e.sql == SQL)
        .collect()
}

/// Run `call` and check everything the lifecycle promises about it: one new
/// query-log row, a kept trace under the same id, per-phase equality of the
/// two, and agreement on where the plan came from. Returns the rows and the
/// `cache_hit` flag.
fn through(
    db: &Database,
    door: &str,
    call: impl FnOnce(&Database) -> QueryResult,
) -> (QueryResult, bool) {
    let before = logged(db).len();
    let rows = call(db);
    let log = logged(db);
    assert_eq!(
        log.len(),
        before + 1,
        "{door}: exactly one query-log row per call"
    );
    let entry = log.last().unwrap();

    let traces = db.telemetry().traces();
    let trace = traces
        .iter()
        .find(|t| t.statement_id == entry.id)
        .unwrap_or_else(|| panic!("{door}: statement {} kept no trace", entry.id));
    let top_level = |name: &str| -> u64 {
        trace
            .spans
            .iter()
            .filter(|s| s.parent == Some(ROOT_SPAN) && s.name == name)
            .map(|s| s.duration_us)
            .sum()
    };
    for (phase, flat) in [
        ("parse", entry.parse_us),
        ("sema", entry.sema_us),
        ("plan", entry.plan_us),
        ("exec", entry.exec_us),
    ] {
        assert_eq!(
            flat,
            top_level(phase),
            "{door}: query_log.{phase}_us must equal its span(s): {:?}",
            trace.spans
        );
    }
    assert_eq!(
        trace.spans[0].duration_us, entry.total_us,
        "{door}: root span is the total"
    );

    let plan = trace
        .spans
        .iter()
        .find(|s| s.parent == Some(ROOT_SPAN) && s.name == "plan")
        .unwrap_or_else(|| panic!("{door}: no plan span"));
    let source = plan
        .attrs
        .iter()
        .find(|(k, _)| *k == "cache")
        .map(|(_, v)| v.clone());
    let expected = if entry.cache_hit { "hit" } else { "miss" };
    assert_eq!(
        source,
        Some(AttrValue::Text(expected)),
        "{door}: cache attr"
    );
    (rows, entry.cache_hit)
}

#[test]
fn every_door_runs_one_lifecycle_on_one_clock() {
    let reference = traced_db().query(SQL).unwrap();
    assert_eq!(reference.rows.len(), 7);
    assert!(matches!(reference.rows[0][1], Value::Float(_)));

    type Door = (&'static str, fn(&Database) -> QueryResult, [bool; 2]);
    let doors: [Door; 4] = [
        (
            "execute",
            |db| db.execute(SQL).unwrap().into_rows().unwrap(),
            [false, true],
        ),
        (
            "execute_with",
            |db| db.execute_with(SQL, &[]).unwrap().into_rows().unwrap(),
            [false, true],
        ),
        // Scripts do not use the plan cache; query_analyzed only peeks into
        // it, and nothing has cached this statement yet.
        (
            "execute_script",
            |db| db.execute_script(SQL).unwrap().into_rows().unwrap(),
            [false, false],
        ),
        (
            "query_analyzed",
            |db| db.query_analyzed(SQL).unwrap().0,
            [false, false],
        ),
    ];
    // Each door twice on its own database, so a first call never finds a
    // plan some other door cached.
    for (door, call, expected_hits) in doors {
        let db = traced_db();
        for expected_hit in expected_hits {
            let (rows, hit) = through(&db, door, call);
            assert_eq!(rows, reference, "{door}: rows");
            assert_eq!(hit, expected_hit, "{door}: cache_hit");
        }
    }

    // A prepared statement: miss, then hit.
    let db = traced_db();
    let prepared = db.prepare(SQL).unwrap();
    for expected_hit in [false, true] {
        let (rows, hit) = through(&db, "Prepared::query", |_| prepared.query(&[]).unwrap());
        assert_eq!(rows, reference, "Prepared::query: rows");
        assert_eq!(hit, expected_hit, "Prepared::query: cache_hit");
    }
    // query_analyzed runs the plan the doors above cached, without counting.
    let stats = db.plan_cache_stats();
    let (rows, hit) = through(&db, "query_analyzed (peek)", |db| {
        db.query_analyzed(SQL).unwrap().0
    });
    assert_eq!(rows, reference);
    assert!(hit, "query_analyzed must run the cached plan");
    assert_eq!(
        db.plan_cache_stats(),
        stats,
        "a peek leaves the counters alone"
    );
}
