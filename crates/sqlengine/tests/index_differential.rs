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
