//! Deterministic coverage of the columnar/vectorized execution path:
//! mode labels in `EXPLAIN`, per-operator row-count parity in
//! `EXPLAIN ANALYZE`, and a fixed differential sweep of vectorized
//! {on, off} × parallelism {1, 4} over one fixture. The seeded
//! companion (`vectorized_differential.rs`) covers random tables.

use sqlengine::{Database, EngineConfig, OpStats, Value};

/// 3 000 rows spanning three 1024-row chunks: a low-cardinality TEXT group
/// (dictionary-encodable) with NULL holes, an INTEGER with NULL holes, and
/// dyadic-rational weights (k/4) so float sums are exact regardless of
/// morsel/chunk partial-sum grouping.
fn fixture(config: EngineConfig) -> Database {
    let db = Database::with_config(config);
    db.execute("CREATE TABLE t (g TEXT, x INTEGER, w REAL)")
        .unwrap();
    let rows: Vec<Vec<Value>> = (0..3000i64)
        .map(|i| {
            let g = if i % 7 == 0 {
                Value::Null
            } else {
                Value::text(format!("g{}", i % 5))
            };
            let x = if i % 11 == 0 {
                Value::Null
            } else {
                Value::Int((i * 13) % 101 - 50)
            };
            vec![g, x, Value::Float((i % 32) as f64 / 4.0)]
        })
        .collect();
    db.insert_rows("t", rows).unwrap();
    db
}

const QUERIES: &[&str] = &[
    // Vectorized end-to-end: simple filters, projections, aggregates.
    "SELECT g, x, w FROM t WHERE x > 10",
    "SELECT g FROM t WHERE g = 'g1' AND x <= 20",
    "SELECT x, w FROM t WHERE x BETWEEN -10 AND 25 OR w > 6.0",
    "SELECT g, w FROM t WHERE x IS NOT NULL",
    "SELECT w FROM t WHERE x IS NULL",
    "SELECT g, COUNT(*) AS n, SUM(w) AS sw, MIN(x) AS mn, MAX(x) AS mx \
     FROM t GROUP BY g ORDER BY g",
    "SELECT COUNT(*) FROM t WHERE g = 'g2'",
    "SELECT g, AVG(w) FROM t WHERE x > -20 GROUP BY g ORDER BY g",
    // No ORDER BY: pins first-seen group order across modes.
    "SELECT x, COUNT(*) FROM t WHERE x > 30 GROUP BY x",
    // Deliberately ineligible shapes: fall back to the row path.
    "SELECT x + 1 FROM t WHERE x IN (1, 2, 3)",
    "SELECT g, COUNT(DISTINCT x) FROM t GROUP BY g ORDER BY g",
    "SELECT w FROM t WHERE g LIKE 'g%' AND x < 5",
    // Join above vectorizable scans.
    "SELECT a.g, COUNT(*) FROM t a JOIN t b ON a.g = b.g AND a.x = b.x \
     GROUP BY a.g ORDER BY a.g",
];

/// The four engine variants every query must agree across. Debug-format
/// comparison also pins value *variants* (Value's PartialEq equates
/// Int(2) and Float(2.0), which would mask type drift).
#[test]
fn differential_sweep_modes_and_parallelism() {
    let variants = [(true, 1usize), (true, 4), (false, 1), (false, 4)];
    let dbs: Vec<Database> = variants
        .iter()
        .map(|&(vectorized, par)| {
            fixture(
                EngineConfig::default()
                    .with_vectorized(vectorized)
                    .with_parallelism(par),
            )
        })
        .collect();
    for q in QUERIES {
        let baseline = format!("{:?}", dbs[0].query(q).unwrap().rows);
        for (db, tag) in dbs.iter().zip(variants).skip(1) {
            let got = format!("{:?}", db.query(q).unwrap().rows);
            assert_eq!(
                got, baseline,
                "query {q:?} diverged at (vectorized, parallelism) = {tag:?}"
            );
        }
    }
}

#[test]
fn explain_labels_operators_with_their_mode() {
    let db = fixture(EngineConfig::default());
    let plan = db
        .explain("SELECT g, COUNT(*) FROM t WHERE x > 0 GROUP BY g")
        .unwrap();
    for line in plan.lines() {
        let op = line.trim_start();
        if ["Scan", "Filter", "Aggregate"]
            .iter()
            .any(|p| op.starts_with(p))
        {
            assert!(
                line.contains("mode=vectorized"),
                "expected mode=vectorized on: {line}\n{plan}"
            );
        }
    }

    let db = fixture(EngineConfig::default().with_vectorized(false));
    let plan = db
        .explain("SELECT g, COUNT(*) FROM t WHERE x > 0 GROUP BY g")
        .unwrap();
    assert!(
        plan.contains("mode=row") && !plan.contains("mode=vectorized"),
        "vectorized=false must force the row path:\n{plan}"
    );
}

#[test]
fn ineligible_stage_splits_the_chain_truthfully() {
    let db = fixture(EngineConfig::default());
    // IN-list filters are deliberately not vectorized: the scan is still
    // chunk-backed, but the filter (and everything above it) runs row-wise.
    let plan = db.explain("SELECT x FROM t WHERE x IN (1, 2, 3)").unwrap();
    assert!(
        plan.lines()
            .any(|l| l.trim_start().starts_with("Filter") && l.contains("mode=row")),
        "IN-list filter must be labeled row:\n{plan}"
    );
    assert!(
        plan.lines()
            .any(|l| l.trim_start().starts_with("Scan") && l.contains("mode=vectorized")),
        "chunk-backed scan under it stays vectorized:\n{plan}"
    );
    // DISTINCT aggregates likewise stay on the row path.
    let plan = db
        .explain("SELECT g, COUNT(DISTINCT x) FROM t GROUP BY g")
        .unwrap();
    assert!(
        plan.lines()
            .any(|l| l.trim_start().starts_with("Aggregate") && l.contains("mode=row")),
        "DISTINCT aggregate must be labeled row:\n{plan}"
    );
}

fn shape(stats: &OpStats, out: &mut Vec<(String, usize, usize)>) {
    let label = stats
        .label
        .replace(" mode=vectorized", "")
        .replace(" mode=row", "");
    out.push((label, stats.rows_in, stats.rows_out));
    for child in &stats.children {
        shape(child, out);
    }
}

#[test]
fn explain_analyze_row_counts_match_across_modes() {
    let queries = [
        "SELECT g, COUNT(*) AS n, SUM(w) AS sw FROM t WHERE x > 0 GROUP BY g ORDER BY g",
        "SELECT g, w FROM t WHERE x > 10 AND w < 6.0",
        "SELECT COUNT(*) FROM t",
    ];
    for q in queries {
        let (rows_vec, stats_vec) = fixture(EngineConfig::default()).query_analyzed(q).unwrap();
        let (rows_row, stats_row) = fixture(EngineConfig::default().with_vectorized(false))
            .query_analyzed(q)
            .unwrap();
        assert_eq!(rows_vec.rows, rows_row.rows, "results diverged for {q:?}");
        let (mut a, mut b) = (Vec::new(), Vec::new());
        shape(&stats_vec, &mut a);
        shape(&stats_row, &mut b);
        assert_eq!(
            a, b,
            "per-operator (label, rows_in, rows_out) must be identical across modes for {q:?}"
        );
    }
    // And the analyzed tree advertises the mode it actually ran in.
    let (_, stats) = fixture(EngineConfig::default())
        .query_analyzed("SELECT COUNT(*) FROM t WHERE x > 0")
        .unwrap();
    fn any_label(s: &OpStats, needle: &str) -> bool {
        s.label.contains(needle) || s.children.iter().any(|c| any_label(c, needle))
    }
    assert!(any_label(&stats, "mode=vectorized"));
}

#[test]
fn dictionary_overflow_falls_back_exactly() {
    // 500 distinct strings exceed the 256-value dictionary budget: the
    // column demotes to a plain value vector, results must not change.
    for vectorized in [true, false] {
        let db = Database::with_config(EngineConfig::default().with_vectorized(vectorized));
        db.execute("CREATE TABLE wide (s TEXT, n INTEGER)").unwrap();
        let rows: Vec<Vec<Value>> = (0..2000i64)
            .map(|i| vec![Value::text(format!("s{}", i % 500)), Value::Int(i % 9)])
            .collect();
        db.insert_rows("wide", rows).unwrap();
        let r = db
            .query("SELECT COUNT(*) FROM wide WHERE s = 's42'")
            .unwrap();
        assert_eq!(r.rows, vec![vec![Value::Int(4)]]);
        let r = db
            .query("SELECT s, COUNT(*) FROM wide WHERE n < 3 GROUP BY s ORDER BY s LIMIT 5")
            .unwrap();
        assert_eq!(r.rows.len(), 5);
    }
}

#[test]
fn empty_and_tiny_tables_agree_across_modes() {
    let mut outputs = Vec::new();
    for vectorized in [true, false] {
        let db = Database::with_config(EngineConfig::default().with_vectorized(vectorized));
        db.execute("CREATE TABLE e (x INTEGER, s TEXT)").unwrap();
        let a = db.query("SELECT COUNT(*), SUM(x), MIN(x) FROM e").unwrap();
        let b = db.query("SELECT s, COUNT(*) FROM e GROUP BY s").unwrap();
        let c = db.query("SELECT x FROM e WHERE x > 0").unwrap();
        db.execute("INSERT INTO e VALUES (1, 'a')").unwrap();
        let d = db.query("SELECT s, SUM(x) FROM e GROUP BY s").unwrap();
        outputs.push(format!(
            "{:?} {:?} {:?} {:?}",
            a.rows, b.rows, c.rows, d.rows
        ));
    }
    assert_eq!(outputs[0], outputs[1]);
}

#[test]
fn incremental_appends_keep_the_chunk_cache_coherent() {
    let db = fixture(EngineConfig::default());
    let count = |db: &Database| {
        let r = db.query("SELECT COUNT(*) FROM t WHERE w > 1.0").unwrap();
        format!("{:?}", r.rows)
    };
    let before = count(&db);
    // Build the cache, append past a chunk boundary, re-query: the appended
    // slot must carry built chunks forward and include the new rows.
    let extra: Vec<Vec<Value>> = (0..1500i64)
        .map(|i| vec![Value::text("gx"), Value::Int(i), Value::Float(2.0)])
        .collect();
    db.insert_rows("t", extra).unwrap();
    let after = db
        .query("SELECT COUNT(*) FROM t WHERE w > 1.0")
        .unwrap()
        .rows[0][0]
        .clone();

    let db_row = fixture(EngineConfig::default().with_vectorized(false));
    let before_row = count(&db_row);
    let extra: Vec<Vec<Value>> = (0..1500i64)
        .map(|i| vec![Value::text("gx"), Value::Int(i), Value::Float(2.0)])
        .collect();
    db_row.insert_rows("t", extra).unwrap();
    let after_row = db_row
        .query("SELECT COUNT(*) FROM t WHERE w > 1.0")
        .unwrap()
        .rows[0][0]
        .clone();

    assert_eq!(before, before_row);
    assert_eq!(after, after_row);

    // UPDATE and DELETE invalidate the cache; results must track the rows.
    for db in [&db, &db_row] {
        db.execute("UPDATE t SET w = 0.0 WHERE g = 'gx'").unwrap();
        db.execute("DELETE FROM t WHERE g = 'g3'").unwrap();
    }
    assert_eq!(count(&db), count(&db_row));
}

// ---------------------------------------------------------------------
// EXPLAIN ANALYZE × plan verifier
// ---------------------------------------------------------------------

/// Regression: `EXPLAIN ANALYZE` serves the cached plan, so when that plan
/// fails verification it must report the violation instead of executing the
/// corrupt tree and rendering stats for it.
#[test]
fn explain_analyze_reports_verifier_rejection_instead_of_executing() {
    let db = fixture(EngineConfig::default().with_verify_plans(true));
    let sql = "SELECT g, COUNT(*) FROM t WHERE x > 100 GROUP BY g";
    db.query(sql).unwrap();
    assert!(db.mutate_cached_plan(sql, &mut |plan| {
        // Wrap the root in a projection of column #77 — out of range for
        // any input here, and the wrong output arity besides.
        let inner = std::mem::replace(plan, sqlengine::plan::PhysPlan::OneRow);
        *plan = sqlengine::plan::PhysPlan::Project {
            input: Box::new(inner),
            exprs: vec![sqlengine::expr::PhysExpr::Column(77)],
        };
    }));

    let ops_before = db.telemetry().row_ops.get() + db.telemetry().vectorized_ops.get();
    let err = db.explain_analyze(sql).unwrap_err();
    assert!(
        matches!(err, sqlengine::EngineError::Verify { .. }),
        "ANALYZE of a corrupt plan must fail verification, got {err:?}"
    );
    assert!(err.to_string().contains("[schema]"), "{err}");
    assert_eq!(
        db.telemetry().row_ops.get() + db.telemetry().vectorized_ops.get(),
        ops_before,
        "the rejected plan must not have executed a single operator"
    );

    // The non-ANALYZE entry point rejects the same way, and a replan (after
    // any catalog change) restores service.
    assert!(db.query(sql).is_err());
    db.execute("INSERT INTO t VALUES ('g0', 500, 1.0)").unwrap();
    db.query(sql).unwrap();
    db.explain_analyze(sql).unwrap();
}
