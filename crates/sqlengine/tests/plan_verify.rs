//! Positive coverage of the static plan verifier: every legitimate plan the
//! engine produces passes all five invariant classes, `EXPLAIN (VERIFY)`
//! reports one row per class, the `verify.*` metrics account for checks and
//! violations, turning the verifier off leaves the counters at zero and the
//! hot path untouched, and the verification walk stays within the bounded
//! overhead budget on the cached parameterized serving path. The negative
//! direction — seeded plan corruption proving each class fires — lives in
//! `plan_corruption.rs`.

use std::time::{Duration, Instant};

use sqlengine::{Database, EngineConfig, Value};

fn seeded(config: EngineConfig) -> Database {
    let db = Database::with_config(config);
    db.execute("CREATE TABLE t (n INTEGER, s TEXT, w REAL, PRIMARY KEY (n))")
        .unwrap();
    db.execute("CREATE INDEX t_s ON t (s)").unwrap();
    let rows: Vec<Vec<Value>> = (0..500i64)
        .map(|i| {
            vec![
                Value::Int(i),
                Value::text(format!("tok{}", i % 13)),
                Value::Float(i as f64 / 4.0),
            ]
        })
        .collect();
    db.insert_rows("t", rows).unwrap();
    db
}

/// A representative sweep of plan shapes: scans, index scans, joins (hash,
/// nested-loop, index-nested-loop), aggregation, windows, sorts, set ops,
/// key-filtered probes.
const QUERIES: &[&str] = &[
    "SELECT n, s, w FROM t WHERE n > 100",
    "SELECT * FROM t WHERE n = 42",
    "SELECT n FROM t WHERE s = 'tok3' ORDER BY n LIMIT 5",
    "SELECT s, COUNT(*), SUM(w) FROM t GROUP BY s ORDER BY s",
    "SELECT a.n, b.s FROM t a JOIN t b ON a.n = b.n WHERE a.n < 20",
    "SELECT a.n FROM t a LEFT JOIN t b ON a.n = b.n + 600",
    "SELECT n FROM t WHERE n < 5 UNION ALL SELECT n FROM t WHERE n > 495",
    "SELECT DISTINCT s FROM t ORDER BY s",
    "SELECT n, ROW_NUMBER() OVER (PARTITION BY s ORDER BY n) FROM t WHERE n < 50",
    "SELECT 1 + 2, 'x' || 'y'",
];

#[test]
fn explain_verify_reports_one_ok_row_per_class() {
    let db = seeded(EngineConfig::default());
    for sql in QUERIES {
        let r = db
            .execute(&format!("EXPLAIN (VERIFY) {sql}"))
            .unwrap()
            .into_rows()
            .unwrap();
        assert_eq!(
            r.columns,
            vec!["check", "status", "detail"],
            "EXPLAIN (VERIFY) schema for {sql}"
        );
        assert_eq!(r.rows.len(), 5, "one row per invariant class for {sql}");
        let classes: Vec<String> = r.rows.iter().map(|row| row[0].to_string()).collect();
        assert_eq!(
            classes,
            vec![
                "schema",
                "index-keys",
                "derived-index",
                "param-slots",
                "merge-determinism"
            ],
            "class order for {sql}"
        );
        for row in &r.rows {
            assert_eq!(
                row[1].to_string(),
                "ok",
                "class {} clean for {sql}: {}",
                row[0],
                row[2]
            );
        }
    }
}

#[test]
fn every_legitimate_plan_passes_verification() {
    // Debug builds default verify_plans on; force it so the test also holds
    // under `--release`.
    let db = seeded(EngineConfig::default().with_verify_plans(true));
    for sql in QUERIES {
        db.query(sql).unwrap();
        // Second run exercises the cache-hit path (memoized verification).
        db.query(sql).unwrap();
    }
    // Parameterized templates: planned symbolically, verified as templates
    // at plan time and on every hit.
    for _ in 0..3 {
        db.query_with("SELECT n, s FROM t WHERE n = ?", &[Value::Int(7)])
            .unwrap();
        db.query_with(
            "SELECT s, COUNT(*) FROM t WHERE w > ? GROUP BY s",
            &[Value::Float(20.0)],
        )
        .unwrap();
    }
    assert!(db.telemetry().verify_plans_checked.get() > 0);
    assert_eq!(
        db.telemetry().verify_violations.get(),
        0,
        "no legitimate plan violates an invariant"
    );
}

#[test]
fn verify_metrics_surface_in_sys_metrics() {
    let db = seeded(EngineConfig::default().with_verify_plans(true));
    db.query("SELECT n FROM t WHERE n = 1").unwrap();
    db.query("SELECT s FROM t WHERE n = 2").unwrap();
    let metric = |name: &str| -> f64 {
        match db
            .query_scalar(&format!(
                "SELECT value FROM sys.metrics WHERE name = '{name}'"
            ))
            .unwrap()
        {
            Value::Float(f) => f,
            other => panic!("expected float metric, got {other:?}"),
        }
    };
    assert!(
        metric("verify.plans_checked") >= 2.0,
        "one plan-time check per distinct statement"
    );
    assert_eq!(metric("verify.violations"), 0.0);
}

#[test]
fn memoized_hits_skip_the_walk_until_the_catalog_moves() {
    let db = seeded(EngineConfig::default().with_verify_plans(true));
    let sql = "SELECT n FROM t WHERE n = 1";
    db.query(sql).unwrap();
    let after_first = db.telemetry().verify_plans_checked.get();
    db.query(sql).unwrap();
    assert_eq!(
        db.telemetry().verify_plans_checked.get(),
        after_first,
        "a hit at the same catalog version is memoized"
    );
    db.execute("INSERT INTO t VALUES (1000, 'x', 1.0)").unwrap();
    db.query(sql).unwrap();
    assert!(
        db.telemetry().verify_plans_checked.get() > after_first,
        "a catalog change forces a fresh walk"
    );
    assert_eq!(db.telemetry().verify_violations.get(), 0);
}

#[test]
fn training_statements_have_their_source_query_verified() {
    // `INSERT … SELECT … ON CONFLICT DO UPDATE` is what `fit` / `partial_fit`
    // emit; its source query goes through the same plan-and-verify stage as
    // any SELECT, and so does the source of CREATE TABLE AS.
    let db = seeded(EngineConfig::default().with_verify_plans(true));
    db.execute("CREATE TABLE corpus (s TEXT PRIMARY KEY, w REAL)")
        .unwrap();
    let checked = || db.telemetry().verify_plans_checked.get();
    let fit = "INSERT INTO corpus SELECT s, SUM(w) FROM t GROUP BY s \
               ON CONFLICT (s) DO UPDATE SET w = corpus.w + excluded.w";
    for run in 1..=2 {
        let before = checked();
        assert_eq!(db.execute(fit).unwrap().affected(), 13);
        assert_eq!(
            checked(),
            before + 1,
            "run {run}: one walk per training statement"
        );
    }
    let before = checked();
    db.execute("CREATE TABLE copy AS SELECT n, w FROM t WHERE n < 10")
        .unwrap();
    assert_eq!(checked(), before + 1);
    assert_eq!(db.telemetry().verify_violations.get(), 0);

    // With the verifier off the same statements walk nothing.
    let off = seeded(EngineConfig::default().with_verify_plans(false));
    off.execute("CREATE TABLE corpus (s TEXT PRIMARY KEY, w REAL)")
        .unwrap();
    off.execute(fit).unwrap();
    assert_eq!(off.telemetry().verify_plans_checked.get(), 0);
}

#[test]
fn verifier_off_means_zero_checks() {
    let db = seeded(EngineConfig::default().with_verify_plans(false));
    for sql in QUERIES {
        db.query(sql).unwrap();
        db.query(sql).unwrap();
    }
    db.query_with("SELECT n FROM t WHERE n = ?", &[Value::Int(3)])
        .unwrap();
    assert_eq!(
        db.telemetry().verify_plans_checked.get(),
        0,
        "disabled verifier must never walk a plan"
    );
    assert_eq!(db.telemetry().verify_violations.get(), 0);
}

#[test]
fn explain_verify_runs_even_when_verifier_disabled() {
    // `EXPLAIN (VERIFY)` is an explicit request: it works regardless of
    // `verify_plans`, and its run shows up in the counters.
    let db = seeded(EngineConfig::default().with_verify_plans(false));
    let r = db
        .execute("EXPLAIN (VERIFY) SELECT n FROM t WHERE n = 5")
        .unwrap()
        .into_rows()
        .unwrap();
    assert_eq!(r.rows.len(), 5);
    assert!(r.rows.iter().all(|row| row[1].to_string() == "ok"));
    assert_eq!(db.telemetry().verify_plans_checked.get(), 1);
}

#[test]
fn template_slot_gaps_are_counted_but_do_not_abort() {
    // `SELECT ?3` leaves slots 1–2 unreachable: the verifier records the
    // orphan slots, but the statement still fails (or succeeds) exactly as
    // it did before the verifier existed — under-binding stays the clearer
    // parameter error.
    let db = seeded(EngineConfig::default().with_verify_plans(true));
    let err = db
        .query_with("SELECT ?3 FROM t WHERE n = 0", &[Value::Int(1)])
        .unwrap_err();
    assert!(
        matches!(err, sqlengine::EngineError::Parameter(_)),
        "under-binding keeps its parameter error, got {err:?}"
    );
    assert!(
        db.telemetry().verify_violations.get() > 0,
        "the orphan slots were still recorded as violations"
    );
    // Fully bound, the statement succeeds while the gap stays visible to
    // EXPLAIN (VERIFY).
    let r = db
        .query_with(
            "SELECT ?3 FROM t WHERE n = 0",
            &[Value::Int(1), Value::Int(2), Value::Int(9)],
        )
        .unwrap();
    assert_eq!(r.rows[0][0], Value::Int(9));
}

// ---------------------------------------------------------------------
// Overhead bound: verifier on vs off on the cached parameterized path
// ---------------------------------------------------------------------

#[test]
fn verify_overhead_on_cached_parameterized_path_is_bounded() {
    // The serving hot path: a parameterized point lookup served from the
    // plan-cache template. Interleaved min-of-batches (see the telemetry
    // overhead test) keeps the comparison robust to scheduler noise — the
    // bound only needs one quiet window.
    let sql = "SELECT n, s, w FROM t WHERE n = ?";
    let on = seeded(EngineConfig::default().with_verify_plans(true));
    let off = seeded(EngineConfig::default().with_verify_plans(false));
    for i in 0..5 {
        on.query_with(sql, &[Value::Int(i)]).unwrap();
        off.query_with(sql, &[Value::Int(i)]).unwrap();
    }

    let batch = |db: &Database| {
        let started = Instant::now();
        for i in 0..16i64 {
            db.query_with(sql, &[Value::Int(i * 7 % 500)]).unwrap();
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
        "verifier overhead on the cached path must stay small (best ratio {best_ratio:.3})"
    );
    // Sanity: the verifying side actually verified (once per plan + catalog
    // version — the walk is memoized, which is what makes the bound easy to
    // meet), and the disabled side never did.
    assert!(on.telemetry().verify_plans_checked.get() >= 1);
    assert_eq!(on.telemetry().verify_violations.get(), 0);
    assert_eq!(off.telemetry().verify_plans_checked.get(), 0);
}
