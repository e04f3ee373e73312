//! Telemetry regression tests: query-log semantics, plan-cache metrics and
//! reset, worker-count reporting in `EXPLAIN ANALYZE`, WAL counters, and the
//! serving-hot-path overhead bound for the registry itself.

use std::sync::Arc;
use std::time::{Duration, Instant};

use sqlengine::catalog::{Column, Schema, Table};
use sqlengine::{
    DataType, Database, EngineConfig, EngineError, MemIo, QueryStatus, StorageIo, SyncPolicy,
    TraceSampling, Value,
};

/// Tiny deterministic PRNG so fixtures are identical on every run.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }
}

fn seeded_db(config: EngineConfig, rows: usize) -> Database {
    let db = Database::with_config(config);
    db.execute("CREATE TABLE t (g INTEGER, x INTEGER, w REAL)")
        .unwrap();
    let mut rng = Lcg(0x7E1E);
    let mut data = Vec::with_capacity(rows);
    for _ in 0..rows {
        data.push(vec![
            Value::Int((rng.next() % 13) as i64),
            Value::Int((rng.next() % 1000) as i64),
            Value::Float((rng.next() % 10_000) as f64 / 100.0),
        ]);
    }
    db.insert_rows("t", data).unwrap();
    db
}

// ---------------------------------------------------------------------
// Query log
// ---------------------------------------------------------------------

#[test]
fn query_log_records_status_rows_and_cache_hits() {
    let db = seeded_db(EngineConfig::default(), 64);
    db.query("SELECT g FROM t WHERE x >= 0").unwrap();
    db.query("SELECT g FROM t WHERE x >= 0").unwrap();
    let _ = db.query("SELECT nope FROM t");

    let log = db.telemetry().query_log();
    let hits: Vec<_> = log
        .iter()
        .filter(|e| e.sql.contains("WHERE x >= 0"))
        .collect();
    assert_eq!(hits.len(), 2);
    assert_eq!(hits[0].status, QueryStatus::Ok);
    assert_eq!(hits[0].rows, 64);
    assert!(!hits[0].cache_hit, "first execution must be a cache miss");
    assert!(hits[1].cache_hit, "second execution must be a cache hit");

    let err = log
        .iter()
        .find(|e| e.status == QueryStatus::Error)
        .expect("failed statement must be logged");
    assert!(
        err.error.as_deref().unwrap_or("").contains("nope"),
        "error text should carry the sema message: {:?}",
        err.error
    );

    // The same facts are visible through SQL.
    let r = db
        .query("SELECT status, error FROM sys.query_log WHERE status = 'error'")
        .unwrap();
    assert_eq!(r.rows.len(), 1);
}

#[test]
fn slow_queries_are_flagged_against_the_configured_threshold() {
    let db = seeded_db(
        EngineConfig::default().with_slow_query_threshold(Duration::from_micros(1)),
        256,
    );
    db.query("SELECT g, COUNT(*), SUM(w) FROM t GROUP BY g")
        .unwrap();
    let log = db.telemetry().query_log();
    let entry = log.iter().find(|e| e.sql.contains("GROUP BY g")).unwrap();
    assert!(entry.slow, "a 1µs threshold must flag any real statement");
    assert!(entry.total_us >= entry.exec_us);

    // A sane threshold leaves ordinary statements unflagged.
    let calm = seeded_db(EngineConfig::default(), 8);
    calm.query("SELECT COUNT(*) FROM t").unwrap();
    let log = calm.telemetry().query_log();
    assert!(log.iter().all(|e| !e.slow));
}

#[test]
fn phase_timings_cover_the_statement() {
    let db = seeded_db(EngineConfig::default(), 256);
    db.query("SELECT g, SUM(x) FROM t WHERE w > 1.0 GROUP BY g ORDER BY g")
        .unwrap();
    let log = db.telemetry().query_log();
    let e = log.iter().find(|e| e.sql.contains("GROUP BY g")).unwrap();
    assert!(
        e.total_us >= e.parse_us + e.sema_us + e.plan_us + e.exec_us,
        "phases must not exceed the statement total: {e:?}"
    );
    assert!(e.exec_us > 0, "executing 256 rows takes measurable time");
}

#[test]
fn statement_timeout_is_logged_with_timeout_status() {
    let db = Database::with_config(
        EngineConfig::default().with_statement_timeout(Duration::from_nanos(1)),
    );
    db.execute("CREATE TABLE a (x INTEGER)").unwrap();
    db.execute("CREATE TABLE b (y INTEGER)").unwrap();
    let rows: Vec<Vec<Value>> = (0..200).map(|i| vec![Value::Int(i)]).collect();
    db.insert_rows("a", rows.clone()).unwrap();
    db.insert_rows("b", rows).unwrap();

    let err = db
        .query("SELECT COUNT(*) FROM a, b WHERE a.x * b.y % 7 = 3")
        .unwrap_err();
    assert!(matches!(err, EngineError::Timeout), "got {err:?}");

    // The 1ns deadline fails follow-up queries too, so read the log through
    // the API rather than SQL here (sys.* SQL access is covered elsewhere).
    let log = db.telemetry().query_log();
    let timeouts: Vec<_> = log
        .iter()
        .filter(|e| e.status == QueryStatus::Timeout)
        .collect();
    assert_eq!(timeouts.len(), 1);
    assert!(
        timeouts[0].error.as_deref().unwrap_or("").contains("time"),
        "timeout entries should carry the error text: {:?}",
        timeouts[0].error
    );
}

#[test]
fn query_log_ring_is_bounded_by_config() {
    let db = Database::with_config(EngineConfig::default().with_query_log_capacity(4));
    db.execute("CREATE TABLE t (x INTEGER)").unwrap();
    for i in 0..10 {
        db.query(&format!("SELECT x FROM t WHERE x = {i}")).unwrap();
    }
    let log = db.telemetry().query_log();
    assert_eq!(
        log.len(),
        4,
        "ring must hold exactly the configured capacity"
    );
    assert!(
        log[0].sql.contains("x = 6"),
        "oldest surviving entry should be statement #6: {}",
        log[0].sql
    );
}

// ---------------------------------------------------------------------
// Every begin gets exactly one finish
// ---------------------------------------------------------------------

#[test]
fn query_analyzed_is_a_logged_counted_traced_statement() {
    let db = seeded_db(
        EngineConfig::default().with_trace_sampling(TraceSampling::On { rate: 1.0, seed: 1 }),
        64,
    );
    let entries = |sql: &str| -> Vec<_> {
        db.telemetry()
            .query_log()
            .into_iter()
            .filter(|e| e.sql == sql)
            .collect()
    };
    let trace_of = |id: u64| {
        db.telemetry()
            .traces()
            .into_iter()
            .find(|t| t.statement_id == id)
    };
    let cache_stats = db.plan_cache_stats();

    let sql = "SELECT g, COUNT(*) FROM t GROUP BY g";
    let (result, stats) = db.query_analyzed(sql).unwrap();
    assert_eq!(stats.rows_out, result.rows.len());
    let log = entries(sql);
    assert_eq!(log.len(), 1, "query_analyzed must be logged, once");
    assert_eq!(log[0].status, QueryStatus::Ok);
    assert_eq!(log[0].rows, result.rows.len() as u64);
    let trace = trace_of(log[0].id).expect("query_analyzed must keep its trace");
    assert_eq!(trace.spans[0].name, "statement");
    assert!(trace.spans.iter().any(|s| s.name == "exec"));
    assert!(
        trace.spans.iter().any(|s| s.rows.is_some()),
        "operator spans"
    );

    // A failure is counted, logged with its message, and (as an error)
    // always keeps its trace.
    let bad = "SELECT nope FROM t";
    let errors = db.telemetry().errors_statement.get();
    db.query_analyzed(bad).unwrap_err();
    assert_eq!(db.telemetry().errors_statement.get(), errors + 1);
    let log = entries(bad);
    assert_eq!(log.len(), 1);
    assert_eq!(log[0].status, QueryStatus::Error);
    assert!(log[0].error.as_deref().unwrap_or("").contains("nope"));
    assert!(
        trace_of(log[0].id).is_some(),
        "failed statements keep their trace"
    );

    // Only SELECT can be analyzed, and the refusal comes before execution.
    let err = db.query_analyzed("DELETE FROM t").unwrap_err();
    assert!(
        err.to_string().contains("ANALYZE supports only SELECT"),
        "{err}"
    );
    assert_eq!(db.table_rows("t").unwrap(), 64);

    // A diagnostic read leaves the plan-cache counters alone.
    assert_eq!(db.plan_cache_stats(), cache_stats);
}

#[test]
fn bulk_apis_are_admitted_but_are_not_statements() {
    // `seeded_db` loads through `insert_rows`.
    let db = seeded_db(
        EngineConfig::default()
            .with_trace_sampling(TraceSampling::On { rate: 1.0, seed: 1 })
            .with_max_concurrent_statements(2),
        32,
    );
    let schema = Schema::new(vec![Column {
        name: "n".to_string(),
        ty: DataType::Integer,
    }]);
    let table = Table::new("restored".to_string(), schema, &[]).unwrap();
    db.restore_table(table, vec![vec![Value::Int(1)], vec![Value::Int(2)]])
        .unwrap();
    assert_eq!(db.table_rows("t").unwrap(), 32);
    assert_eq!(db.table_rows("restored").unwrap(), 2);

    // Only the fixture's CREATE TABLE is a statement: one log row, one
    // trace. The bulk loads passed the gate without either.
    let log = db.telemetry().query_log();
    assert_eq!(log.len(), 1, "{log:?}");
    assert!(log[0].sql.starts_with("CREATE TABLE"));
    assert_eq!(db.telemetry().traces().len(), 1);
    assert_eq!(db.telemetry().admission_admitted.get(), 3);
}

// ---------------------------------------------------------------------
// Plan-cache metrics: evictions + reset (regression for process-lifetime
// counters that previously could neither be reset nor observe evictions)
// ---------------------------------------------------------------------

#[test]
fn plan_cache_evictions_are_counted_and_stats_reset() {
    let db = seeded_db(EngineConfig::default(), 16);
    // Seeding probed the cache too (the DDL text counts one miss); zero the
    // window so the arithmetic below is exact.
    db.reset_plan_cache_stats();
    // The cache caps at 128 plans; 140 distinct statement shapes must
    // overflow it (texts that differ only in a literal would share one).
    let shape = |i: usize| format!("SELECT g AS c{i} FROM t WHERE x = {i}");
    for i in 0..140 {
        db.query(&shape(i)).unwrap();
    }
    let (hits, misses, evictions) = db.plan_cache_metrics();
    assert_eq!(hits, 0);
    assert_eq!(misses, 140);
    assert!(
        evictions > 0,
        "overflowing the 128-entry cache must count evictions"
    );

    // The same numbers surface in sys.metrics.
    let v = db
        .query_scalar("SELECT value FROM sys.metrics WHERE name = 'plan_cache.evictions'")
        .unwrap();
    assert_eq!(v, Value::Float(evictions as f64));

    db.reset_plan_cache_stats();
    assert_eq!(db.plan_cache_metrics(), (0, 0, 0));
    // The legacy two-field accessor resets with it.
    assert_eq!(db.plan_cache_stats(), (0, 0));

    // Counting resumes cleanly after a reset. The overflow cleared the
    // cache, so the most recent statement is cached but the oldest is not.
    db.query(&shape(139)).unwrap();
    db.query(&shape(0)).unwrap();
    let (hits, misses, _) = db.plan_cache_metrics();
    assert_eq!((hits, misses), (1, 1), "one surviving plan, one re-plan");
}

#[test]
fn plan_cache_entry_gauge_tracks_cached_plans() {
    let entries = |db: &Database| -> f64 {
        match db
            .query_scalar("SELECT value FROM sys.metrics WHERE name = 'plan_cache.entries'")
            .unwrap()
        {
            Value::Float(f) => f,
            v => panic!("gauge must be a float, got {v:?}"),
        }
    };

    let db = seeded_db(EngineConfig::default(), 8);
    let base = entries(&db);
    db.query("SELECT g FROM t WHERE x > 1").unwrap();
    db.query("SELECT g FROM t WHERE x < 2").unwrap();
    // Parameterized templates count as entries like any other plan.
    db.query_with("SELECT g FROM t WHERE x > ?", &[Value::Int(3)])
        .unwrap();
    assert_eq!(entries(&db), base + 3.0, "three new cached plans");
    // A text that differs from a cached one only in a literal shares its
    // entry.
    db.query("SELECT g FROM t WHERE x > 5").unwrap();
    assert_eq!(entries(&db), base + 3.0, "one entry per statement shape");
    // Re-execution hits the cache without growing it; neither do the
    // sys.metrics reads themselves (sys queries bypass the cache).
    db.query("SELECT g FROM t WHERE x > 1").unwrap();
    db.query_with("SELECT g FROM t WHERE x > ?", &[Value::Int(4)])
        .unwrap();
    assert_eq!(entries(&db), base + 3.0, "hits must not add entries");

    // With the cache disabled the gauge stays at zero.
    let off = seeded_db(EngineConfig::default().with_plan_cache(false), 8);
    off.query("SELECT g FROM t WHERE x > 1").unwrap();
    assert_eq!(entries(&off), 0.0);
}

// ---------------------------------------------------------------------
// EXPLAIN ANALYZE: worker counts and serial/parallel row equivalence
// ---------------------------------------------------------------------

/// Extract `(operator label, rows_in, rows_out)` per line, dropping timings
/// and worker counts so serial and parallel reports can be compared.
fn op_rows(report: &str) -> Vec<(String, String, String)> {
    report
        .lines()
        .filter_map(|line| {
            let (label, stats) = line.split_once(" (rows_in=")?;
            let mut parts = stats.split_whitespace();
            let rows_in = parts.next().unwrap_or("").to_string();
            let rows_out = parts
                .next()
                .unwrap_or("")
                .trim_start_matches("rows_out=")
                .to_string();
            Some((label.trim_start().to_string(), rows_in, rows_out))
        })
        .collect()
}

#[test]
fn explain_analyze_reports_workers_and_identical_row_counts() {
    // 20,000 rows: past the executor's fan-out threshold.
    let sql = "SELECT g, COUNT(*), SUM(w) FROM t WHERE x >= 0 GROUP BY g ORDER BY g";
    let serial = seeded_db(EngineConfig::default().with_parallelism(1), 20_000)
        .explain_analyze(sql)
        .unwrap();
    let parallel = seeded_db(EngineConfig::default().with_parallelism(4), 20_000)
        .explain_analyze(sql)
        .unwrap();

    assert!(
        !serial.contains("workers="),
        "serial plans must not report workers:\n{serial}"
    );
    assert!(
        parallel.contains("workers=4"),
        "20,000 rows at parallelism 4 must fan out:\n{parallel}"
    );
    assert_eq!(
        op_rows(&serial),
        op_rows(&parallel),
        "per-operator row counts must not depend on parallelism\nserial:\n{serial}\nparallel:\n{parallel}"
    );
}

// ---------------------------------------------------------------------
// Intermediate rows: exec.rows_materialized
// ---------------------------------------------------------------------

/// A `GROUP BY` over a hash join holds the join's build side and streams
/// the joined rows into the aggregate: `exec.rows_materialized` moves by the
/// build side's rows, not by the join's output.
#[test]
fn rows_materialized_moves_by_the_build_side_not_the_join_output() {
    let db = seeded_db(EngineConfig::default().with_parallelism(1), 600);
    let materialized = |db: &Database| -> f64 {
        match db
            .query_scalar("SELECT value FROM sys.metrics WHERE name = 'exec.rows_materialized'")
            .unwrap()
        {
            Value::Float(f) => f,
            other => panic!("expected float, got {other:?}"),
        }
    };
    let sql = "SELECT a.g, COUNT(*) FROM t a \
               JOIN (SELECT g, x FROM t WHERE x % 3 = 0) b ON a.g = b.g GROUP BY a.g";
    let before = materialized(&db);
    let (result, stats) = db.query_analyzed(sql).unwrap();
    let moved = materialized(&db) - before;

    let rendered = sqlengine::explain::render_analyze(&stats);
    let join = stats.find("HashJoin").expect(&rendered);
    let [probe, build] = join.children.as_slice() else {
        panic!("a hash join has two inputs:\n{rendered}");
    };
    assert!(probe.label.starts_with("Scan"), "{rendered}");
    assert!(!build.label.starts_with("Scan"), "{rendered}");
    assert_eq!(moved, build.rows_out as f64, "{rendered}");
    assert!(join.rows_out > 10 * build.rows_out, "{rendered}");
    assert_eq!(result.rows.len(), 13);
}

// ---------------------------------------------------------------------
// Hash-join build tables: exec.join.build_rows
// ---------------------------------------------------------------------

/// The deployed predict-all `BornSqlModel::predict` runs for model `m` over
/// two feature arms (paper §3.4, eq. 27), its weights table written first or
/// second in `hwx_nk`'s FROM list.
fn predict_all(from: &str) -> String {
    format!(
        "WITH abh AS (SELECT a, b, h FROM params WHERE model = 'm'),
         x_nj AS (SELECT qx.n AS n, qx.j AS j, qx.w AS w FROM
                      (SELECT n, 'term:' || term AS j, cnt AS w FROM doc_term) AS qx
                  UNION ALL SELECT qx.n AS n, qx.j AS j, qx.w AS w FROM
                      (SELECT n, 'venue:' || venue AS j, 1.0 AS w FROM doc) AS qx),
         hwx_nk AS (SELECT x_nj.n AS n, hw.k AS k, SUM(hw.w * POW(x_nj.w, a)) AS w
                    FROM {from}, abh WHERE hw.j = x_nj.j GROUP BY x_nj.n, hw.k)
         SELECT r_nk.n AS n, r_nk.k AS k FROM (
             SELECT n, k, ROW_NUMBER() OVER (PARTITION BY n ORDER BY w DESC, k ASC) AS r
             FROM hwx_nk) AS r_nk WHERE r_nk.r = 1 ORDER BY n"
    )
}

/// One deployed predict-all hashes the 30 weights rows and streams the 240
/// feature rows through the probe, whichever FROM item the weights are:
/// `exec.join.build_rows` moves by 30, and `exec.rows_materialized` by what
/// the window and the sort hold (120 `(n, k)` scores, 40 winners) and the
/// one-row `abh` — never by the feature rows. The join passes on the 4 of
/// its 6 columns the aggregate reads, and the cross join with `abh` 5 of 9
/// (`narrow_joins`): narrowing changes row widths, not row counts.
#[test]
fn one_predict_all_hashes_the_weights_not_the_features() {
    let db = Database::with_config(EngineConfig::default().with_parallelism(1));
    db.execute_script(
        "CREATE TABLE params (model TEXT PRIMARY KEY, a REAL, b REAL, h REAL);
         INSERT INTO params VALUES ('m', 1.0, 1.0, 0.0);
         CREATE TABLE m_weights (j TEXT, k TEXT, w REAL, PRIMARY KEY (j, k));
         CREATE TABLE doc (n INTEGER PRIMARY KEY, venue TEXT);
         CREATE TABLE doc_term (n INTEGER, term TEXT, cnt REAL);",
    )
    .unwrap();
    let text = |s: String| Value::text(s);
    let weights = (0..30).map(|i| {
        let j = if i < 27 {
            format!("term:t{}", i % 9)
        } else {
            format!("venue:v{i}")
        };
        vec![
            text(j),
            text(format!("c{}", i / 9 % 3)),
            Value::Float(1.0 + i as f64),
        ]
    });
    db.insert_rows("m_weights", weights.collect()).unwrap();
    let docs = (1..=40).map(|n| vec![Value::Int(n), text(format!("v{}", 27 + n % 3))]);
    db.insert_rows("doc", docs.collect()).unwrap();
    let terms = (1..=40).flat_map(|n| {
        (0..5).map(move |t| {
            vec![
                Value::Int(n),
                text(format!("t{}", (n + t) % 9)),
                Value::Float(1.0),
            ]
        })
    });
    db.insert_rows("doc_term", terms.collect()).unwrap();

    let metric = |name: &str| match db
        .query_scalar(&format!(
            "SELECT value FROM sys.metrics WHERE name = '{name}'"
        ))
        .unwrap()
    {
        Value::Float(f) => f as u64,
        other => panic!("expected float, got {other:?}"),
    };
    let mut answers = Vec::new();
    for (from, build) in [
        ("m_weights AS hw, x_nj", "build=left"),
        ("x_nj, m_weights AS hw", "build=right"),
    ] {
        let sql = predict_all(from);
        let plan = db.explain(&sql).unwrap();
        assert!(
            plan.contains(&format!("HashJoin [Inner, 1 keys, {build}]")),
            "{plan}"
        );
        assert!(
            plan.contains(&format!("HashJoin [Inner, 1 keys, {build}] out=4/6")),
            "{plan}"
        );
        assert!(plan.contains("NestedLoopJoin [Cross] out=5/9"), "{plan}");
        let (built, held) = (
            metric("exec.join.build_rows"),
            metric("exec.rows_materialized"),
        );
        let rows = db.query(&sql).unwrap().rows;
        assert_eq!(rows.len(), 40, "{from}");
        assert_eq!(metric("exec.join.build_rows") - built, 30, "{from}\n{plan}");
        assert_eq!(
            metric("exec.rows_materialized") - held,
            120 + 40 + 1,
            "{from}\n{plan}"
        );
        answers.push(rows);
    }
    assert_eq!(answers[0], answers[1]);
}

// ---------------------------------------------------------------------
// Shared CTEs: exec.shared_reuses
// ---------------------------------------------------------------------

/// The statement `BornSqlModel::deploy` runs for model `m` (paper §3.3, eqs.
/// 19–26): `p_jk` is read four times, `w_jk` three times and `abh` twice.
const DEPLOY: &str = "INSERT INTO m_weights (j, k, w) WITH
    abh AS (SELECT a, b, h FROM params WHERE model = 'm'),
    p_jk AS (SELECT j, k, w FROM m_corpus WHERE w > 0.0),
    p_j AS (SELECT j, SUM(w) AS w FROM p_jk GROUP BY j),
    p_k AS (SELECT k, SUM(w) AS w FROM p_jk GROUP BY k),
    w_jk AS (SELECT p_jk.j AS j, p_jk.k AS k, p_jk.w / (POW(p_k.w, b) * POW(p_j.w, 1.0 - b)) AS w
             FROM p_jk, p_j, p_k, abh WHERE p_jk.j = p_j.j AND p_jk.k = p_k.k),
    w_j AS (SELECT j, SUM(w) AS w FROM w_jk GROUP BY j),
    h_jk AS (SELECT w_jk.j AS j, w_jk.k AS k, w_jk.w / w_j.w AS w FROM w_jk, w_j WHERE w_jk.j = w_j.j),
    n_k AS (SELECT COUNT(DISTINCT k) AS n FROM p_jk),
    h_j AS (SELECT h_jk.j AS j, CASE WHEN n_k.n <= 1 THEN 1.0 ELSE
              CASE WHEN 1.0 + SUM(h_jk.w * LN(h_jk.w)) / LN(n_k.n) < 0.0 THEN 0.0
              ELSE 1.0 + SUM(h_jk.w * LN(h_jk.w)) / LN(n_k.n) END END AS w
            FROM h_jk, n_k GROUP BY h_jk.j, n_k.n),
    hw_jk AS (SELECT w_jk.j AS j, w_jk.k AS k, POW(h_j.w, h) * POW(w_jk.w, a) AS w
              FROM w_jk, h_j, abh WHERE w_jk.j = h_j.j)
    SELECT j, k, w FROM hw_jk";

/// Every reference to a shared CTE but the one that runs it reads the held
/// rows: one deploy moves `exec.shared_reuses` by `refs − 1` summed over
/// the CTEs its plan shares, and the plan prints each shared subtree once.
#[test]
fn one_deploy_reuses_each_shared_cte_once_per_extra_reference() {
    let db = Database::new();
    db.execute_script(
        "CREATE TABLE params (model TEXT PRIMARY KEY, a REAL, b REAL, h REAL);
         INSERT INTO params VALUES ('m', 1.0, 0.5, 1.0);
         CREATE TABLE m_corpus (j TEXT, k TEXT, w REAL, PRIMARY KEY (j, k));
         INSERT INTO m_corpus VALUES ('a', 'x', 2.0), ('a', 'y', 1.0), ('b', 'x', 3.0),
             ('c', 'y', 0.5), ('c', 'z', 4.0);
         CREATE TABLE m_weights (j TEXT, k TEXT, w REAL, PRIMARY KEY (j, k));",
    )
    .unwrap();
    let select = DEPLOY.split_once("(j, k, w) ").unwrap().1;
    let plan = db.explain(select).unwrap();
    let mut extra_refs = 0;
    for line in plan.lines().map(str::trim) {
        let shared = line.strip_prefix("Shared cte=");
        let Some((cte, refs)) = shared.and_then(|l| l.split_once(" refs=")) else {
            continue;
        };
        let extra = refs.parse::<u64>().unwrap() - 1;
        let reused = format!("Shared cte={cte} (reused)");
        assert_eq!(plan.matches(&reused).count() as u64, extra, "{plan}");
        extra_refs += extra;
    }
    assert_eq!(extra_refs, 3 + 2 + 1, "{plan}");

    let reuses = |db: &Database| match db
        .query_scalar("SELECT value FROM sys.metrics WHERE name = 'exec.shared_reuses'")
        .unwrap()
    {
        Value::Float(f) => f as u64,
        other => panic!("expected float, got {other:?}"),
    };
    let before = reuses(&db);
    assert_eq!(db.execute(DEPLOY).unwrap().affected(), 5);
    assert_eq!(reuses(&db) - before, extra_refs, "{plan}");
}

// ---------------------------------------------------------------------
// WAL counters
// ---------------------------------------------------------------------

#[test]
fn wal_activity_is_visible_in_sys_metrics() {
    let io: Arc<dyn StorageIo> = Arc::new(MemIo::new());
    let db = Database::open_with_io(
        io,
        EngineConfig::default().with_wal_sync(SyncPolicy::Always),
    )
    .unwrap();
    db.execute("CREATE TABLE t (x INTEGER)").unwrap();
    for i in 0..5 {
        db.execute(&format!("INSERT INTO t VALUES ({i})")).unwrap();
    }
    let metric = |name: &str| -> f64 {
        match db
            .query_scalar(&format!(
                "SELECT value FROM sys.metrics WHERE name = '{name}'"
            ))
            .unwrap()
        {
            Value::Float(f) => f,
            other => panic!("expected float, got {other:?}"),
        }
    };
    assert!(metric("wal.appends") >= 6.0, "DDL + 5 inserts hit the WAL");
    assert!(metric("wal.append_bytes") > 0.0);
    assert!(
        metric("wal.fsyncs") >= 6.0,
        "SyncPolicy::Always fsyncs every batch"
    );
    assert!(metric("wal.bytes") > 0.0);
}

#[test]
fn dml_rows_examined_and_access_path_are_visible() {
    let ids = (1..=10)
        .map(|i| i.to_string())
        .collect::<Vec<_>>()
        .join(", ");
    for (index_scans, access) in [(true, "access=index(t_x)"), (false, "access=scan")] {
        let traced = TraceSampling::On { rate: 1.0, seed: 0 };
        let config = EngineConfig::default()
            .with_index_scans(index_scans)
            .with_trace_sampling(traced);
        let db = seeded_db(config, 500);
        db.execute("CREATE INDEX t_x ON t (x)").unwrap();
        let examined = || match db
            .query_scalar("SELECT value FROM sys.metrics WHERE name = 'dml.rows_examined'")
            .unwrap()
        {
            Value::Float(f) => f as usize,
            other => panic!("expected float, got {other:?}"),
        };
        let candidates = match db
            .query_scalar(&format!("SELECT COUNT(*) FROM t WHERE x IN ({ids})"))
            .unwrap()
        {
            Value::Int(n) => n as usize,
            other => panic!("expected int, got {other:?}"),
        };
        assert!(candidates > 0, "the fixture holds some of the ids");
        let before = examined();
        let deleted = db
            .execute(&format!("DELETE FROM t WHERE x IN ({ids})"))
            .unwrap()
            .affected();
        assert_eq!(deleted, candidates);
        let expected = if index_scans { candidates } else { 500 };
        assert_eq!(examined() - before, expected, "index scans {index_scans}");
        let attrs = db
            .query(
                "SELECT s.attrs FROM sys.trace_spans s, sys.query_log q \
                 WHERE s.statement_id = q.id AND s.name = 'exec' AND q.sql LIKE 'DELETE%'",
            )
            .unwrap()
            .rows;
        assert_eq!(attrs, vec![vec![Value::text(access)]]);
    }
}

// ---------------------------------------------------------------------
// Overhead bound: telemetry on vs off on the serving hot path
// ---------------------------------------------------------------------

#[test]
fn telemetry_overhead_on_cached_plan_hot_path_is_bounded() {
    // A serving-shaped statement: plan-cache hit + aggregate over a scan.
    // Interleaved min-of-batches keeps the comparison robust to scheduler
    // noise: the minimum over many rounds approximates the true cost. This
    // test binary runs its tests concurrently, so one attempt can still be
    // skewed by a neighbour hogging the CPU — the bound is the *best*
    // attempt, which only requires one reasonably quiet window.
    let sql = "SELECT g, SUM(w) FROM t WHERE x >= 0 GROUP BY g";
    let on = seeded_db(EngineConfig::default(), 2000);
    let off = seeded_db(EngineConfig::default().with_telemetry(false), 2000);
    for _ in 0..5 {
        on.query(sql).unwrap();
        off.query(sql).unwrap();
    }

    let batch = |db: &Database| {
        let started = Instant::now();
        for _ in 0..8 {
            db.query(sql).unwrap();
        }
        started.elapsed()
    };
    let mut best_ratio = f64::MAX;
    for attempt in 0..6 {
        let (mut best_on, mut best_off) = (Duration::MAX, Duration::MAX);
        for _ in 0..20 {
            best_on = best_on.min(batch(&on));
            best_off = best_off.min(batch(&off));
        }
        let ratio = best_on.as_secs_f64() / best_off.as_secs_f64();
        best_ratio = best_ratio.min(ratio);
        if best_ratio < 1.05 {
            break;
        }
        eprintln!("attempt {attempt}: ratio {ratio:.3} (on={best_on:?} off={best_off:?})");
    }
    assert!(
        best_ratio < 1.05,
        "telemetry overhead must stay under 5% (best ratio {best_ratio:.3})"
    );
    // Sanity: the instrumented side actually recorded the traffic.
    assert!(on.telemetry().query_log().len() > 150);
    assert_eq!(off.telemetry().query_log().len(), 0);
}

// ---------------------------------------------------------------------
// Per-variant error counters (resource governance)
// ---------------------------------------------------------------------

#[test]
fn error_counters_classify_by_variant() {
    let metric = |db: &Database, name: &str| -> f64 {
        match db
            .query_scalar(&format!(
                "SELECT value FROM sys.metrics WHERE name = '{name}'"
            ))
            .unwrap()
        {
            Value::Float(f) => f,
            other => panic!("expected float, got {other:?}"),
        }
    };

    // errors.timeout: a millisecond-scale deadline kills the cross join but
    // leaves the fast sys.metrics reads below comfortably inside it.
    let db = seeded_db(
        EngineConfig::default().with_statement_timeout(Duration::from_millis(5)),
        1200,
    );
    let err = db
        .query("SELECT COUNT(*) FROM t a, t b WHERE a.x * b.x % 7 = 3")
        .unwrap_err();
    assert!(matches!(err, EngineError::Timeout), "{err:?}");
    assert_eq!(metric(&db, "errors.timeout"), 1.0);
    assert_eq!(metric(&db, "errors.statement"), 0.0);

    // errors.resource (+ mem.budget_aborts): a 4 KiB budget rejects the
    // hash-join build.
    let db = seeded_db(EngineConfig::default().with_memory_budget(4096), 1200);
    let err = db
        .query("SELECT COUNT(*) FROM t a JOIN t b ON a.x = b.x")
        .unwrap_err();
    assert!(
        matches!(err, EngineError::ResourceExhausted { .. }),
        "{err:?}"
    );
    assert_eq!(metric(&db, "errors.resource"), 1.0);
    assert_eq!(metric(&db, "mem.budget_aborts"), 1.0);

    // errors.statement: request defects (here a sema error) fall into the
    // catch-all bucket, not the transient ones.
    let _ = db.query("SELECT nope FROM t").unwrap_err();
    assert_eq!(metric(&db, "errors.statement"), 1.0);
    assert_eq!(metric(&db, "errors.timeout"), 0.0);

    // errors.overloaded tracks admission sheds one-for-one.
    let db = Arc::new(seeded_db(
        EngineConfig::default()
            .with_max_concurrent_statements(1)
            .with_admission_queue_depth(0),
        1200,
    ));
    let db2 = Arc::clone(&db);
    let admitted = db.telemetry().admission_admitted.get();
    let busy =
        std::thread::spawn(move || db2.query("SELECT COUNT(*) FROM t a, t b WHERE a.x + b.x > 0"));
    // Wait until the heavy statement holds the only slot: were it to arrive
    // while one of the short statements below holds it, it would itself be
    // shed.
    while db.telemetry().admission_admitted.get() == admitted {
        std::thread::yield_now();
    }
    let mut shed = 0.0;
    for _ in 0..5_000 {
        match db.query("SELECT 1") {
            Err(EngineError::Overloaded(_)) => {
                shed += 1.0;
                if shed >= 2.0 {
                    break;
                }
            }
            Err(other) => panic!("unexpected error class: {other:?}"),
            Ok(_) => std::thread::sleep(Duration::from_micros(100)),
        }
    }
    busy.join().unwrap().unwrap();
    assert!(shed >= 1.0, "never collided with the busy statement");
    assert_eq!(metric(&db, "errors.overloaded"), shed);
    assert_eq!(metric(&db, "admission.shed"), shed);
}

// ---------------------------------------------------------------------
// Acceptance bound: the admission gate on the serving hot path
// ---------------------------------------------------------------------

#[test]
fn admission_gate_overhead_on_cached_plan_hot_path_is_bounded() {
    // Same min-of-batches shape as the telemetry bound above: the gated
    // engine (uncontended — one caller, many slots) must serve the cached
    // parameterized statement within 5% of the ungated one.
    let sql = "SELECT g, SUM(w) FROM t WHERE x >= ? GROUP BY g";
    let params = [Value::Int(0)];
    let gated = seeded_db(
        EngineConfig::default()
            .with_max_concurrent_statements(8)
            .with_admission_queue_depth(16),
        2000,
    );
    let ungated = seeded_db(EngineConfig::default(), 2000);
    for _ in 0..5 {
        gated.query_with(sql, &params).unwrap();
        ungated.query_with(sql, &params).unwrap();
    }

    let batch = |db: &Database| {
        let started = Instant::now();
        for _ in 0..8 {
            db.query_with(sql, &params).unwrap();
        }
        started.elapsed()
    };
    let mut best_ratio = f64::MAX;
    for attempt in 0..6 {
        let (mut best_gated, mut best_ungated) = (Duration::MAX, Duration::MAX);
        for _ in 0..20 {
            best_gated = best_gated.min(batch(&gated));
            best_ungated = best_ungated.min(batch(&ungated));
        }
        let ratio = best_gated.as_secs_f64() / best_ungated.as_secs_f64();
        best_ratio = best_ratio.min(ratio);
        if best_ratio < 1.05 {
            break;
        }
        eprintln!(
            "attempt {attempt}: ratio {ratio:.3} (gated={best_gated:?} ungated={best_ungated:?})"
        );
    }
    assert!(
        best_ratio < 1.05,
        "admission-gate overhead must stay under 5% (best ratio {best_ratio:.3})"
    );
    // Sanity: every statement on the gated side actually took a permit.
    let admitted = gated
        .query_scalar("SELECT value FROM sys.metrics WHERE name = 'admission.admitted'")
        .unwrap();
    assert!(
        matches!(admitted, Value::Float(f) if f > 150.0),
        "gate saw the traffic: {admitted:?}"
    );
}
