//! Seeded differential suite for index-aware planning: every query runs on
//! an indexed database (index scans + plan cache on, the default) and on one
//! with both forced off, over random tables and predicates — including NULL
//! keys, `IN` lists, and post-DELETE/UPDATE index states. Results must be
//! identical up to row order (SQL gives no ordering guarantee, and the
//! index-nested-loop join may emit the indexed side's columns first).
//!
//! This mirrors the serial-vs-parallel differential tests in
//! `differential.rs`, with the access path as the varied dimension.

mod common;

use common::{assert_equivalent, nullable};
use seeded::{cases, SplitMix64};
use sqlengine::{Database, EngineConfig, Value};

/// Random content for a unique-keyed table `p (j, k, v)` with PRIMARY KEY
/// (j, k) and a duplicate-friendly table `s (j, t)` whose `j` is nullable and
/// carries a secondary index.
#[derive(Debug, Clone)]
struct Fixture {
    p_rows: Vec<(i64, i64, f64)>,
    s_rows: Vec<(Option<i64>, String)>,
}

fn arb_fixture(rng: &mut SplitMix64, max_rows: usize) -> Fixture {
    // A random subset of the 72 possible keys, in key order.
    let mut keys: Vec<(i64, i64)> = (0..12).flat_map(|j| (0..6).map(move |k| (j, k))).collect();
    rng.shuffle(&mut keys);
    keys.truncate(rng.below(max_rows));
    keys.sort_unstable();
    let p_rows = keys.into_iter().enumerate();
    let p_rows = p_rows.map(|(i, (j, k))| (j, k, i as f64 / 4.0)).collect();
    let s_rows = (0..rng.below(max_rows))
        .map(|_| (nullable(rng, 0.15, 0..12), format!("t{}", rng.below(8))))
        .collect();
    Fixture { p_rows, s_rows }
}

fn load(db: &Database, f: &Fixture) {
    db.execute("CREATE TABLE p (j INTEGER, k INTEGER, v REAL, PRIMARY KEY (j, k))")
        .unwrap();
    db.execute("CREATE INDEX p_j ON p (j)").unwrap();
    db.execute("CREATE TABLE s (j INTEGER, t TEXT)").unwrap();
    db.execute("CREATE INDEX s_j ON s (j)").unwrap();
    let rows = f
        .p_rows
        .iter()
        .map(|(j, k, v)| vec![Value::Int(*j), Value::Int(*k), Value::Float(*v)])
        .collect();
    db.insert_rows("p", rows).unwrap();
    let rows = f
        .s_rows
        .iter()
        .map(|(j, t)| vec![j.map_or(Value::Null, Value::Int), Value::text(t.as_str())])
        .collect();
    db.insert_rows("s", rows).unwrap();
}

/// Queries covering point lookups, IN lists, NULL keys, residual predicates,
/// and joins; `{ja}`/`{jb}`/`{ka}` are filled with random values per case.
fn queries(ja: i64, jb: i64, ka: i64) -> Vec<String> {
    vec![
        format!("SELECT j, k, v FROM p WHERE j = {ja} AND k = {ka}"),
        format!("SELECT j, k, v FROM p WHERE {ja} = j AND k = {ka}"),
        format!("SELECT j, k, v FROM p WHERE j IN ({ja}, {jb}, NULL)"),
        format!("SELECT j, k, v FROM p WHERE j = {ja}"),
        format!("SELECT t FROM s WHERE j = {ja}"),
        format!("SELECT t FROM s WHERE j IN ({ja}, {jb})"),
        "SELECT t FROM s WHERE j = NULL".to_string(),
        "SELECT t FROM s WHERE j IS NULL".to_string(),
        format!("SELECT j, t FROM s WHERE j = {ja} AND t <> 't1'"),
        "SELECT p.j, p.k, p.v, s.t FROM p, s WHERE p.j = s.j".to_string(),
        format!("SELECT p.v, s.t FROM p JOIN s ON p.j = s.j WHERE p.k = {ka}"),
        format!("SELECT s.t, p.v FROM s LEFT JOIN p ON s.j = p.j AND {ka} = p.k"),
        format!("SELECT COUNT(*) AS n, SUM(v) AS sv FROM p WHERE j IN ({ja}, {jb})"),
    ]
}

fn no_index_config() -> EngineConfig {
    EngineConfig::default()
        .with_index_scans(false)
        .with_plan_cache(false)
}

/// Index-scan plans return exactly the rows full-scan plans do.
#[test]
fn index_plans_match_full_scans() {
    cases(32, 1, |rng| {
        let f = arb_fixture(rng, 60);
        let (ja, jb, ka) = (rng.range(-1..13), rng.range(0..12), rng.range(0..6));
        let indexed = Database::with_config(EngineConfig::default());
        load(&indexed, &f);
        let full = Database::with_config(no_index_config());
        load(&full, &f);
        for q in queries(ja, jb, ka) {
            assert_equivalent(&indexed, &full, &q);
        }
    });
}

/// Equivalence holds after DELETE and UPDATE reshape the index maps
/// (incremental maintenance plus the rebuild fallback).
#[test]
fn index_plans_match_full_scans_after_dml() {
    cases(32, 2, |rng| {
        let f = arb_fixture(rng, 60);
        let (ja, jb, ka) = (rng.range(0..12), rng.range(0..12), rng.range(0..6));
        let bulk = rng.chance(0.5);
        let indexed = Database::with_config(EngineConfig::default());
        load(&indexed, &f);
        let full = Database::with_config(no_index_config());
        load(&full, &f);
        for db in [&indexed, &full] {
            db.execute(&format!("DELETE FROM s WHERE j = {ja}"))
                .unwrap();
            db.execute(&format!("UPDATE p SET k = k + 50 WHERE j = {jb}"))
                .unwrap();
            db.execute(&format!("UPDATE s SET j = {jb} WHERE j = {ka}"))
                .unwrap();
            if bulk {
                // Majority delete: exercises the wholesale rebuild fallback.
                db.execute("DELETE FROM p WHERE j >= 3").unwrap();
            }
        }
        for q in queries(ja, jb, ka + 50) {
            assert_equivalent(&indexed, &full, &q);
        }
        for q in queries(jb, ja, ka) {
            assert_equivalent(&indexed, &full, &q);
        }
    });
}

/// Large fixtures cross the index-nested-loop join threshold; the join
/// result must still match hash-join output.
#[test]
fn index_join_matches_hash_join() {
    cases(32, 3, |rng| {
        let f = arb_fixture(rng, 80);
        let ka = rng.range(0..6);
        let indexed = Database::with_config(EngineConfig::default());
        load(&indexed, &f);
        let full = Database::with_config(no_index_config());
        load(&full, &f);
        // A 4-row probe table guarantees a small probe-side estimate.
        for db in [&indexed, &full] {
            db.execute("CREATE TABLE probe (j INTEGER)").unwrap();
            db.execute("INSERT INTO probe VALUES (1), (3), (5), (NULL)")
                .unwrap();
        }
        let join_queries = [
            "SELECT p.j, p.k, p.v FROM p, probe WHERE p.j = probe.j".to_string(),
            "SELECT s.t, probe.j FROM probe JOIN s ON probe.j = s.j".to_string(),
            format!("SELECT probe.j, p.v FROM probe LEFT JOIN p ON probe.j = p.j AND p.k = {ka}"),
        ];
        for q in &join_queries {
            assert_equivalent(&indexed, &full, q);
        }
    });
}

/// The plan cache never serves stale results across DML.
#[test]
fn plan_cache_stays_coherent_across_dml() {
    cases(32, 4, |rng| {
        let f = arb_fixture(rng, 40);
        let ja = rng.range(0..12);
        let cached = Database::with_config(EngineConfig::default());
        load(&cached, &f);
        let uncached = Database::with_config(EngineConfig::default().with_plan_cache(false));
        load(&uncached, &f);
        let q = format!("SELECT COUNT(*) AS n FROM s WHERE j = {ja}");
        for step in 0..3 {
            // Warm the cache, mutate, and re-compare.
            assert_equivalent(&cached, &uncached, &q);
            for db in [&cached, &uncached] {
                db.execute(&format!("INSERT INTO s (j, t) VALUES ({ja}, 'x{step}')"))
                    .unwrap();
            }
            assert_equivalent(&cached, &uncached, &q);
        }
    });
}

// ---------------------------------------------------------------------
// DELETE / UPDATE: row selection through the index SELECT uses
// ---------------------------------------------------------------------

/// One `DELETE`/`UPDATE` predicate over `p` or `s`, with the `?` values it
/// binds.
#[derive(Debug)]
struct Pred {
    table: &'static str,
    sql: String,
    params: Vec<Value>,
    /// It holds an arithmetic conjunct that raises on some rows: an index
    /// may answer it without reaching them.
    may_raise: bool,
}

/// Point and `IN` keys (with NULL, duplicates, Int/Float/Text literals),
/// residual conjuncts, a `?`, an `IN (SELECT …)`, unindexed columns, and a
/// raising conjunct behind an indexed key.
fn arb_pred(rng: &mut SplitMix64) -> Pred {
    let (a, b, c) = (rng.range(-1..13), rng.range(0..12), rng.range(0..6));
    let on_p = rng.chance(0.5);
    let table = if on_p { "p" } else { "s" };
    let residual = if on_p {
        format!("v > {}", rng.range(0..15))
    } else {
        format!("t <> 't{}'", rng.below(8))
    };
    let mut params = Vec::new();
    let mut may_raise = false;
    let sql = match rng.below(10) {
        0 => format!("j = {a}"),
        1 => format!("j IN ({a}, NULL, {b}, {a})"),
        2 => format!("j IN ({a}.0, '{b}', {b})"),
        3 => {
            params.push(if rng.chance(0.2) {
                Value::Null
            } else {
                Value::Int(a)
            });
            "j = ?".to_string()
        }
        4 => format!("j IN (SELECT j FROM s WHERE t = 't{}')", rng.below(8)),
        5 => format!("{a} = j AND {residual}"),
        6 => residual,
        7 if on_p => format!("j = {a} AND k = {c}"),
        7 => "j IS NULL".to_string(),
        8 if on_p => format!("j IN ({a}, {b}) AND k = {c} AND {residual}"),
        8 => format!("j IN ({a}, {b}) AND LENGTH(t) > {c} AND {residual}"),
        _ => {
            // First, so a full scan evaluates it on every row.
            may_raise = true;
            let divisor = if on_p { "k" } else { "j" };
            format!("10 / ({divisor} - {c}) > 0 AND j IN ({a}, {b})")
        }
    };
    Pred {
        table,
        sql,
        params,
        may_raise,
    }
}

/// A `DELETE` or `UPDATE` over `pred`. Updates may move index keys and
/// violate `p`'s primary key — an error both access paths must raise alike.
fn arb_dml(rng: &mut SplitMix64, pred: &Pred) -> String {
    if rng.chance(0.4) {
        return format!("DELETE FROM {} WHERE {}", pred.table, pred.sql);
    }
    let set = match (pred.table, rng.below(3)) {
        ("p", 0) => "v = v + 0.25".to_string(),
        ("p", 1) => "k = k + 1".to_string(),
        ("p", _) => format!("j = {}", rng.range(0..12)),
        (_, 0) => "t = t || 'x'".to_string(),
        (_, 1) => format!("j = {}", rng.range(0..12)),
        _ => "j = NULL".to_string(),
    };
    format!("UPDATE {} SET {set} WHERE {}", pred.table, pred.sql)
}

/// A statement's outcome, comparable across databases.
fn outcome(db: &Database, sql: &str, params: &[Value]) -> Result<usize, String> {
    db.execute_with(sql, params)
        .map(|r| r.affected())
        .map_err(|e| e.to_string())
}

/// The rows of each table, in storage order.
fn contents(db: &Database, tables: &[&str]) -> Vec<Vec<Vec<Value>>> {
    let rows = |t: &&str| db.query(&format!("SELECT * FROM {t}")).unwrap().rows;
    tables.iter().map(rows).collect()
}

/// DML through an index selects, counts and rewrites exactly the rows a
/// full scan does, leaving byte-identical tables in the same row order;
/// predicates that cannot raise fail identically too (a raising one may
/// only fail on the full scan, which reaches rows the index skips).
#[test]
fn dml_through_indexes_matches_full_scans() {
    cases(32, 5, |rng| {
        let f = arb_fixture(rng, 60);
        let indexed = Database::with_config(EngineConfig::default());
        load(&indexed, &f);
        let full = Database::with_config(no_index_config());
        load(&full, &f);
        for _ in 0..8 {
            let pred = arb_pred(rng);
            let dml = arb_dml(rng, &pred);
            let (a, b) = (
                outcome(&indexed, &dml, &pred.params),
                outcome(&full, &dml, &pred.params),
            );
            if pred.may_raise && a != b {
                assert!(a.is_ok() && b.is_err(), "{dml}: index {a:?}, scan {b:?}");
                return;
            }
            assert_eq!(a, b, "{dml} {:?}", pred.params);
            let (a, b) = (
                contents(&indexed, &["p", "s"]),
                contents(&full, &["p", "s"]),
            );
            assert_eq!(a, b, "after {dml}");
        }
    });
}

/// Under one configuration a DML statement affects exactly the rows
/// `SELECT COUNT(*) … WHERE p` counts, and fails exactly when it fails.
#[test]
fn dml_selects_what_select_counts() {
    cases(32, 6, |rng| {
        let f = arb_fixture(rng, 60);
        for config in [EngineConfig::default(), no_index_config()] {
            let db = Database::with_config(config);
            load(&db, &f);
            for _ in 0..8 {
                let pred = arb_pred(rng);
                let count = format!("SELECT COUNT(*) FROM {} WHERE {}", pred.table, pred.sql);
                let counted = db
                    .query_with(&count, &pred.params)
                    .map(|r| match r.scalar() {
                        Some(Value::Int(n)) => *n as usize,
                        other => panic!("{count}: {other:?}"),
                    })
                    .map_err(|e| e.to_string());
                // Assignments that cannot fail, so only the predicate can.
                let set = if pred.table == "p" {
                    "v = v + 0.25"
                } else {
                    "t = t || 'x'"
                };
                let dml = if rng.chance(0.5) {
                    format!("DELETE FROM {} WHERE {}", pred.table, pred.sql)
                } else {
                    format!("UPDATE {} SET {set} WHERE {}", pred.table, pred.sql)
                };
                let affected = outcome(&db, &dml, &pred.params);
                assert_eq!(counted.is_ok(), affected.is_ok(), "{count} vs {dml}");
                if let (Ok(n), Ok(m)) = (&counted, &affected) {
                    assert_eq!(n, m, "{dml} {:?}", pred.params);
                }
            }
        }
    });
}

/// A durable sliding window of `DELETE … WHERE n IN (…)` logs the same WAL
/// bytes whether an index or a full scan found the rows, and both reopen to
/// the same tables.
#[test]
fn sliding_window_deletes_log_the_same_wal_either_way() {
    use std::sync::Arc;

    use sqlengine::{MemIo, StorageIo};

    let open = |io: &Arc<MemIo>, index_scans: bool| {
        let config = EngineConfig::default().with_index_scans(index_scans);
        Database::open_with_io(Arc::clone(io) as Arc<dyn StorageIo>, config).unwrap()
    };
    let tables = |db: &Database| contents(db, &["features", "labels"]);
    let ios = [Arc::new(MemIo::new()), Arc::new(MemIo::new())];
    let dbs = [open(&ios[0], true), open(&ios[1], false)];
    let mut rng = SplitMix64::new(25);
    for db in &dbs {
        db.execute("CREATE TABLE features (n INTEGER, term TEXT, cnt INTEGER)")
            .unwrap();
        db.execute("CREATE INDEX features_n ON features (n)")
            .unwrap();
        db.execute("CREATE TABLE labels (n INTEGER, label INTEGER, PRIMARY KEY (n))")
            .unwrap();
    }
    let (batch, window) = (10, 30);
    for step in 0..8i64 {
        let ids = step * batch..(step + 1) * batch;
        let features: Vec<String> = ids
            .clone()
            .flat_map(|n| (0..3).map(move |t| (n, t)))
            .map(|(n, t)| format!("({n}, 'w{}', {})", rng.below(20), t + 1))
            .collect();
        let labels: Vec<String> = ids.map(|n| format!("({n}, {})", n % 3)).collect();
        let old: Vec<String> = (step * batch - window..step * batch - window + batch)
            .map(|n| n.to_string())
            .collect();
        for db in &dbs {
            db.execute(&format!(
                "INSERT INTO features VALUES {}",
                features.join(", ")
            ))
            .unwrap();
            db.execute(&format!("INSERT INTO labels VALUES {}", labels.join(", ")))
                .unwrap();
            for table in ["features", "labels"] {
                db.execute(&format!(
                    "DELETE FROM {table} WHERE n IN ({})",
                    old.join(", ")
                ))
                .unwrap();
            }
        }
        assert_eq!(dbs[0].wal_bytes(), dbs[1].wal_bytes(), "step {step}");
    }
    assert_eq!(tables(&dbs[0]), tables(&dbs[1]));
    let [a, b] = ios.map(|io| io.process_crash_files());
    assert_eq!(a, b, "the two logs differ");
    let reopened = [
        open(&Arc::new(MemIo::from_files(a)), true),
        open(&Arc::new(MemIo::from_files(b)), false),
    ];
    assert_eq!(tables(&reopened[0]), tables(&dbs[0]));
    assert_eq!(tables(&reopened[1]), tables(&dbs[1]));
}
