//! Deterministic coverage of the derived key indexes and the one operator
//! that reads them, the hash join's key filter: its `probe=keyset(…)` label
//! in `EXPLAIN`, per-operator row-count parity in `EXPLAIN ANALYZE`, and a
//! fixed differential sweep of `vectorized` {on, off} × parallelism {1, 4}
//! over one fixture (`vectorized` off: every join probes row by row). The
//! seeded companion (`vectorized_differential.rs`) covers random tables.

use sqlengine::{Database, EngineConfig, OpStats, Value};

/// 3 000 rows: a low-cardinality TEXT group with NULL holes, an INTEGER
/// with NULL holes, and dyadic-rational weights (k/4) so float sums are
/// exact regardless of morsel partial-sum grouping. `k` is a four-row key
/// table: a hash join of `t` with it on one column builds on `k` and
/// key-filters `t`.
fn fixture(config: EngineConfig) -> Database {
    let db = Database::with_config(config);
    db.execute_script(
        "CREATE TABLE t (g TEXT, x INTEGER, w REAL);
         CREATE TABLE k (x INTEGER, g TEXT);
         INSERT INTO k VALUES (3, 'g1'), (7, 'g3'), (-20, 'zz'), (NULL, NULL);",
    )
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

/// One-key joins that probe the bare scan of `t`: on an INTEGER and on a
/// TEXT column.
const INT_JOIN: &str = "SELECT t.g, t.w, k.g FROM t JOIN k ON t.x = k.x";
const TEXT_JOIN: &str =
    "SELECT k.x, COUNT(*), SUM(t.w) FROM t JOIN k ON t.g = k.g GROUP BY k.x ORDER BY k.x";

const QUERIES: &[&str] = &[
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
    "SELECT x + 1 FROM t WHERE x IN (1, 2, 3)",
    "SELECT g, COUNT(DISTINCT x) FROM t GROUP BY g ORDER BY g",
    "SELECT w FROM t WHERE g LIKE 'g%' AND x < 5",
    // Two keys: never key-filtered.
    "SELECT a.g, COUNT(*) FROM t a JOIN t b ON a.g = b.g AND a.x = b.x \
     GROUP BY a.g ORDER BY a.g",
    // One key: the key filter reads `t`'s derived index.
    INT_JOIN,
    TEXT_JOIN,
    "SELECT t.x, COUNT(*) FROM t JOIN k ON t.x = k.x GROUP BY t.x",
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
    // Only a hash join probing a base-table scan names a mode.
    let db = fixture(EngineConfig::default());
    let plan = db
        .explain("SELECT g, COUNT(*) FROM t WHERE x > 0 GROUP BY g")
        .unwrap();
    assert!(!plan.contains("mode="), "{plan}");
    let plan = db.explain(INT_JOIN).unwrap();
    assert!(
        plan.contains("HashJoin [Inner, 1 keys, build=right] probe=keyset(index)"),
        "{plan}"
    );
    assert!(!plan.contains("mode="), "{plan}");

    let db = fixture(EngineConfig::default().with_vectorized(false));
    let plan = db.explain(INT_JOIN).unwrap();
    assert!(
        plan.contains("probe=keyset(row)") && !plan.contains("probe=keyset(index)"),
        "vectorized=false must probe row by row:\n{plan}"
    );
}

#[test]
fn ineligible_stage_splits_the_chain_truthfully() {
    let db = fixture(EngineConfig::default());
    // A filter between the join and the scan: the join probes the filter's
    // rows, not a table, and names no mode.
    let plan = db
        .explain("SELECT d.g, k.g FROM (SELECT g, x FROM t WHERE w > 1.0) AS d JOIN k ON d.x = k.x")
        .unwrap();
    assert!(
        plan.contains("HashJoin") && !plan.contains("probe="),
        "{plan}"
    );
    // Two keys: the scan is read row by row.
    let plan = db
        .explain("SELECT t.g FROM t JOIN k ON t.x = k.x AND t.g = k.g")
        .unwrap();
    assert!(plan.contains("probe=keyset(row)"), "{plan}");
    // Filters, projections and aggregates carry no suffix.
    let plan = db
        .explain("SELECT g, COUNT(DISTINCT x) FROM t WHERE x IN (1, 2, 3) GROUP BY g")
        .unwrap();
    assert!(
        !plan.contains("mode=") && !plan.contains("probe="),
        "{plan}"
    );
}

fn shape(stats: &OpStats, out: &mut Vec<(String, usize, usize)>) {
    let label = stats
        .label
        .replace(" probe=keyset(index)", "")
        .replace(" probe=keyset(row)", "");
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
        INT_JOIN,
        TEXT_JOIN,
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
    // And the analyzed tree advertises the probe it actually ran.
    let (_, stats) = fixture(EngineConfig::default())
        .query_analyzed(INT_JOIN)
        .unwrap();
    fn any_label(s: &OpStats, needle: &str) -> bool {
        s.label.contains(needle) || s.children.iter().any(|c| any_label(c, needle))
    }
    assert!(any_label(&stats, "probe=keyset(index) pruned="));
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
fn incremental_appends_keep_the_derived_index_coherent() {
    let join = "SELECT COUNT(*), SUM(t.w) FROM t JOIN k ON t.x = k.x";
    let built = |db: &Database| {
        db.query_scalar("SELECT derived_indexes FROM sys.tables WHERE name = 't'")
            .unwrap()
    };
    let extra = |from: i64| -> Vec<Vec<Value>> {
        (from..from + 1500)
            .map(|i| vec![Value::text("gx"), Value::Int(i % 40), Value::Float(2.0)])
            .collect()
    };
    let mut answers = Vec::new();
    for vectorized in [true, false] {
        let db = fixture(EngineConfig::default().with_vectorized(vectorized));
        let mut seen = vec![format!("{:?}", db.query(join).unwrap().rows)];
        let want = Value::Int(i64::from(vectorized));
        assert_eq!(built(&db), want, "the join built the index of `t.x`");
        // Appends past a morsel boundary carry the built index forward, and
        // each re-query sees the new rows.
        for from in [0, 1500] {
            db.insert_rows("t", extra(from)).unwrap();
            assert_eq!(built(&db), want, "appends keep the index");
            seen.push(format!("{:?}", db.query(join).unwrap().rows));
        }
        // UPDATE and DELETE drop the index; the next join rebuilds it, and
        // results track the rows.
        db.execute("UPDATE t SET w = 0.0 WHERE g = 'gx' AND x = 3")
            .unwrap();
        assert_eq!(built(&db), Value::Int(0));
        seen.push(format!("{:?}", db.query(join).unwrap().rows));
        assert_eq!(built(&db), want);
        db.execute("DELETE FROM t WHERE g = 'g3'").unwrap();
        assert_eq!(built(&db), Value::Int(0));
        seen.push(format!("{:?}", db.query(join).unwrap().rows));
        answers.push(seen);
    }
    assert_eq!(answers[0], answers[1]);
    assert_ne!(answers[0][0], answers[0][1], "the appended rows join");
    assert_ne!(answers[0][2], answers[0][3], "the update is seen");
}

/// Keys from 2^53 on compare as `f64` with values that differ from each
/// other: the join probes such keys row by row, and answers what the row
/// probe answers.
#[test]
fn keys_past_2_pow_53_answer_as_the_row_probe_does() {
    let big = 1i64 << 53;
    let mut answers = Vec::new();
    for vectorized in [true, false] {
        let db = Database::with_config(EngineConfig::default().with_vectorized(vectorized));
        db.execute_script(
            "CREATE TABLE big (n INTEGER, w REAL);
             CREATE TABLE bk (n REAL);",
        )
        .unwrap();
        let rows = (0..64i64)
            .map(|i| vec![Value::Int(big + i % 4), Value::Float(i as f64)])
            .collect();
        db.insert_rows("big", rows).unwrap();
        db.insert_rows("bk", vec![vec![Value::Float(big as f64)]])
            .unwrap();
        let join = "SELECT big.n, COUNT(*), SUM(big.w) FROM big JOIN bk ON big.n = bk.n \
                    GROUP BY big.n ORDER BY big.n";
        let mode = if vectorized { "index" } else { "row" };
        assert!(db
            .explain(join)
            .unwrap()
            .contains(&format!("probe=keyset({mode})")));
        answers.push(format!("{:?}", db.query(join).unwrap().rows));
    }
    assert_eq!(answers[0], answers[1]);
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
    let sql = "SELECT t.g, COUNT(*) FROM t JOIN k ON t.x = k.x GROUP BY t.g";
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

    let probes = |db: &Database| {
        db.telemetry().keyset_row_probes.get() + db.telemetry().keyset_index_probes.get()
    };
    let ops_before = probes(&db);
    let err = db.explain_analyze(sql).unwrap_err();
    assert!(
        matches!(err, sqlengine::EngineError::Verify { .. }),
        "ANALYZE of a corrupt plan must fail verification, got {err:?}"
    );
    assert!(err.to_string().contains("[schema]"), "{err}");
    assert_eq!(
        probes(&db),
        ops_before,
        "the rejected plan must not have executed a single operator"
    );

    // The non-ANALYZE entry point rejects the same way, and a replan (after
    // any catalog change) restores service.
    assert!(db.query(sql).is_err());
    db.execute("INSERT INTO t VALUES ('g0', 500, 1.0)").unwrap();
    db.query(sql).unwrap();
    db.explain_analyze(sql).unwrap();
    assert!(db.telemetry().keyset_index_probes.get() > ops_before);
}
