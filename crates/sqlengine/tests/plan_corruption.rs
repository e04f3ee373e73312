//! Seeded plan-corruption harness: proves each of the verifier's five
//! invariant classes actually fires. Every test plans a legitimate
//! statement, reaches into the plan cache through the `mutate_cached_plan`
//! test seam to corrupt the physical plan the way a planner or cache bug
//! would, and asserts the next execution is rejected with a spanned
//! `EngineError::Verify` naming the violated class — instead of executing
//! the corrupt plan and returning wrong answers.

use std::collections::HashMap;
use std::sync::Arc;

use sqlengine::expr::PhysExpr;
use sqlengine::plan::{IndexRef, PhysPlan};
use sqlengine::{Database, EngineConfig, EngineError, Value};

fn seeded() -> Database {
    let db = Database::with_config(EngineConfig::default().with_verify_plans(true));
    db.execute("CREATE TABLE t (n INTEGER, s TEXT, w REAL, PRIMARY KEY (n))")
        .unwrap();
    db.execute("CREATE INDEX t_s ON t (s)").unwrap();
    let rows: Vec<Vec<Value>> = (0..100i64)
        .map(|i| {
            vec![
                Value::Int(i),
                Value::text(format!("tok{}", i % 7)),
                Value::Float(i as f64 / 2.0),
            ]
        })
        .collect();
    db.insert_rows("t", rows).unwrap();
    db
}

/// Apply `f` to every node of the plan tree, root first.
fn visit(plan: &mut PhysPlan, f: &mut dyn FnMut(&mut PhysPlan)) {
    f(plan);
    plan.for_each_child_mut(&mut |child| visit(child, f));
}

/// Plan + cache `sql`, corrupt the cached plan, and return the error the
/// next execution reports. Panics if the corrupted statement still succeeds.
fn corrupt_and_rerun(
    db: &Database,
    sql: &str,
    corrupt: &mut dyn FnMut(&mut PhysPlan),
) -> EngineError {
    db.query(sql)
        .expect("statement is legitimate before corruption");
    assert!(
        db.mutate_cached_plan(sql, &mut |plan| visit(plan, corrupt)),
        "statement must be in the plan cache: {sql}"
    );
    db.query(sql)
        .expect_err("corrupted plan must be rejected, not executed")
}

/// The rejection must be a spanned verification error naming the class.
fn assert_verify_error(sql: &str, err: &EngineError, class: &str, detail: &str) {
    assert!(
        matches!(err, EngineError::Verify { .. }),
        "expected EngineError::Verify, got {err:?}"
    );
    let msg = err.to_string();
    assert!(
        msg.contains(&format!("[{class}]")),
        "error must name the violated class {class}: {msg}"
    );
    assert!(
        msg.contains(detail),
        "error must carry the diagnostic detail {detail:?}: {msg}"
    );
    assert!(msg.contains("at byte"), "diagnostic is spanned: {msg}");
    let rendered = err.display_with_source(sql);
    assert!(
        rendered.contains('^'),
        "source rendering points at the statement: {rendered}"
    );
}

// ---------------------------------------------------------------------
// Class 1: schema — arity/type agreement between nodes
// ---------------------------------------------------------------------

#[test]
fn schema_corruption_out_of_range_column_is_rejected() {
    let db = seeded();
    let sql = "SELECT n, s FROM t";
    // A projection referencing column #99 of a 3-column input: the shape a
    // planner off-by-one or a cache cross-wire would produce.
    let err = corrupt_and_rerun(&db, sql, &mut |plan| {
        if let PhysPlan::Project { exprs, .. } = plan {
            exprs[0] = PhysExpr::Column(99);
        }
    });
    assert_verify_error(sql, &err, "schema", "column reference #99");
    assert!(db.telemetry().verify_violations.get() > 0);
}

#[test]
fn schema_corruption_root_arity_mismatch_is_rejected() {
    let db = seeded();
    let sql = "SELECT n, s, w FROM t WHERE n < 10";
    // Root suddenly produces one column while sema promised three.
    let err = corrupt_and_rerun(&db, sql, &mut |plan| {
        if let PhysPlan::Project { exprs, .. } = plan {
            exprs.truncate(1);
        }
    });
    assert_verify_error(sql, &err, "schema", "root produces 1 column(s)");
}

#[test]
fn schema_corruption_left_join_building_left_is_rejected() {
    let db = seeded();
    let sql = "SELECT a.n, b.s FROM t a LEFT JOIN t b ON a.w = b.w";
    // A LEFT join probed from its null-supplying side would drop the
    // preserved rows that match nothing.
    let err = corrupt_and_rerun(&db, sql, &mut |plan| {
        if let PhysPlan::HashJoin { build_left, .. } = plan {
            *build_left = true;
        }
    });
    assert_verify_error(sql, &err, "schema", "only an INNER hash join may build");
}

#[test]
fn schema_corruption_out_of_range_join_out_is_rejected() {
    let db = seeded();
    let sql = "SELECT a.n, b.s FROM t a JOIN t b ON a.w = b.w";
    // The join passes on `a.n` and `b.s` of its 6-column joined row; a
    // position past that row would read a column no input produces.
    let mut narrowed = None;
    let err = corrupt_and_rerun(&db, sql, &mut |plan| {
        if let PhysPlan::HashJoin { out, .. } = plan {
            narrowed = out.clone();
            *out = Some(vec![0, 99]);
        }
    });
    assert_eq!(narrowed, Some(vec![0, 4]));
    assert_verify_error(
        sql,
        &err,
        "schema",
        "out passes on column 99 of a 6-column joined row",
    );
}

// ---------------------------------------------------------------------
// Class 2: index-keys — index references resolve against the live catalog
// ---------------------------------------------------------------------

#[test]
fn index_corruption_dangling_index_name_is_rejected() {
    let db = seeded();
    let sql = "SELECT n FROM t WHERE n = 42";
    let err = corrupt_and_rerun(&db, sql, &mut |plan| {
        if let PhysPlan::IndexScan { index_name, .. } = plan {
            *index_name = "no_such_index".to_string();
        }
    });
    assert_verify_error(sql, &err, "index-keys", "no index named 'no_such_index'");
}

#[test]
fn index_corruption_stale_snapshot_is_rejected() {
    let db = seeded();
    let sql = "SELECT n FROM t WHERE n = 7";
    // Swap the plan's index snapshot for a foreign map: the catalog version
    // still matches, so only the pointer-identity check can catch it.
    let err = corrupt_and_rerun(&db, sql, &mut |plan| {
        if let PhysPlan::IndexScan { index, .. } = plan {
            *index = IndexRef::Unique(Arc::new(HashMap::new()));
        }
    });
    assert_verify_error(sql, &err, "index-keys", "stale");
}

// ---------------------------------------------------------------------
// Class 3: derived-index — built indexes describe the row snapshot
// ---------------------------------------------------------------------

#[test]
fn derived_index_corruption_row_count_mismatch_is_rejected() {
    let db = seeded();
    db.execute_script(
        "CREATE TABLE f (n INTEGER, w REAL);
         INSERT INTO f SELECT n % 10, w FROM t;
         CREATE TABLE k (n INTEGER);
         INSERT INTO k VALUES (3), (5);",
    )
    .unwrap();
    // A one-key join that key-filters the scan of `f`: the first execution
    // builds the derived index of `f.n`, so the cached plan carries a slot
    // holding a built index.
    let sql = "SELECT f.w FROM f JOIN k ON f.n = k.n";
    assert!(db.explain(sql).unwrap().contains("probe=keyset(index)"));
    let err = corrupt_and_rerun(&db, sql, &mut |plan| {
        if let PhysPlan::Scan { rows, .. } = plan {
            let truncated: Vec<_> = rows.iter().take(rows.len() - 1).cloned().collect();
            *rows = Arc::new(truncated);
        }
    });
    assert_verify_error(
        sql,
        &err,
        "derived-index",
        "derived index of column #0 holds 100 row(s)",
    );
}

// ---------------------------------------------------------------------
// Class 4: param-slots — executable plans carry no unbound parameters
// ---------------------------------------------------------------------

#[test]
fn param_corruption_unbound_slot_is_rejected() {
    let db = seeded();
    // A statement with no parameters and no literal to lift into one: its
    // cached plan claims to be fully bound, so a leftover `?1` marker is
    // corruption, not a template.
    let sql = "SELECT n FROM t WHERE w > n";
    let err = corrupt_and_rerun(&db, sql, &mut |plan| {
        if let PhysPlan::Filter { predicate, .. } = plan {
            *predicate = PhysExpr::Param(1);
        }
    });
    assert_verify_error(sql, &err, "param-slots", "unbound parameter slot ?1");
}

// ---------------------------------------------------------------------
// Class 5: merge-determinism — parallel merges keep arity agreement
// ---------------------------------------------------------------------

#[test]
fn union_corruption_arity_disagreement_is_rejected() {
    let db = seeded();
    let sql = "SELECT n FROM t WHERE n < 3 UNION ALL SELECT n FROM t WHERE n > 96";
    let err = corrupt_and_rerun(&db, sql, &mut |plan| {
        if let PhysPlan::UnionAll { inputs } = plan {
            inputs.push(PhysPlan::OneRow);
        }
    });
    assert_verify_error(sql, &err, "merge-determinism", "arity agreement");
}

// ---------------------------------------------------------------------
// Corruption is observable, not fatal to the engine
// ---------------------------------------------------------------------

#[test]
fn rejected_plan_leaves_engine_usable_and_counters_accurate() {
    let db = seeded();
    let sql = "SELECT n FROM t WHERE n = 42";
    let _ = corrupt_and_rerun(&db, sql, &mut |plan| {
        if let PhysPlan::IndexScan { index_name, .. } = plan {
            *index_name = "gone".to_string();
        }
    });
    let violations = db.telemetry().verify_violations.get();
    assert!(violations > 0);
    // Unrelated statements keep working, and a fresh statement replans
    // cleanly without touching the poisoned cache entry.
    let r = db.query("SELECT COUNT(*) FROM t WHERE n >= 0").unwrap();
    assert_eq!(r.rows[0][0], Value::Int(100));
    assert_eq!(
        db.telemetry().verify_violations.get(),
        violations,
        "clean statements add no violations"
    );
}
