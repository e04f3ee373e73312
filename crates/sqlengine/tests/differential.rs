//! Differential and property tests: random workloads executed by the engine
//! and checked against naive in-process reference computations, under every
//! engine profile. Plus concurrency smoke tests (readers vs. writers).

mod common;

use common::{canonical, gxw_rows};
use seeded::{cases, SplitMix64};
use sqlengine::{Database, EngineConfig, Value};

/// A random table of (g, x, w) rows, none NULL.
#[derive(Debug, Clone)]
struct Fixture {
    rows: Vec<(i64, i64, f64)>,
}

fn not_null(rows: Vec<(Option<i64>, Option<i64>, f64)>) -> Fixture {
    let rows = rows.into_iter();
    let rows = rows.map(|(g, x, w)| (g.unwrap(), x.unwrap(), w)).collect();
    Fixture { rows }
}

/// A small table.
fn arb_fixture(rng: &mut SplitMix64) -> Fixture {
    not_null(gxw_rows(rng, 0..60, (6, 20, 50), 0.0))
}

fn load(db: &Database, f: &Fixture) {
    db.execute("CREATE TABLE t (g INTEGER, x INTEGER, w REAL)")
        .unwrap();
    let rows = f
        .rows
        .iter()
        .map(|(g, x, w)| vec![Value::Int(*g), Value::Int(*x), Value::Float(*w)])
        .collect();
    db.insert_rows("t", rows).unwrap();
}

fn all_profiles() -> [EngineConfig; 3] {
    [
        EngineConfig::profile_a(),
        EngineConfig::profile_b(),
        EngineConfig::profile_c(),
    ]
}

/// GROUP BY SUM/COUNT/MIN/MAX agree with a hand-rolled reference.
#[test]
fn aggregation_matches_reference() {
    cases(48, 1, |rng| {
        let f = arb_fixture(rng);
        // Reference.
        let mut expect: std::collections::BTreeMap<i64, (f64, i64, Option<i64>, Option<i64>)> =
            Default::default();
        for (g, x, w) in &f.rows {
            let e = expect.entry(*g).or_insert((0.0, 0, None, None));
            e.0 += w;
            e.1 += 1;
            e.2 = Some(e.2.map_or(*x, |m: i64| m.min(*x)));
            e.3 = Some(e.3.map_or(*x, |m: i64| m.max(*x)));
        }
        for config in all_profiles() {
            let db = Database::with_config(config);
            load(&db, &f);
            let r = db
                .query("SELECT g, SUM(w), COUNT(*), MIN(x), MAX(x) FROM t GROUP BY g ORDER BY g")
                .unwrap();
            assert_eq!(r.rows.len(), expect.len());
            for row in &r.rows {
                let g = row[0].as_i64().unwrap().unwrap();
                let (sum, count, min, max) = expect[&g];
                let got_sum = row[1].as_f64().unwrap().unwrap();
                assert!((got_sum - sum).abs() < 1e-9);
                assert_eq!(row[2].as_i64().unwrap().unwrap(), count);
                assert_eq!(row[3].as_i64().unwrap(), min);
                assert_eq!(row[4].as_i64().unwrap(), max);
            }
        }
    });
}

/// Self equi-join row count equals the reference pair count, for every
/// join algorithm.
#[test]
fn join_cardinality_matches_reference() {
    cases(48, 2, |rng| {
        let f = arb_fixture(rng);
        let mut by_g: std::collections::HashMap<i64, usize> = Default::default();
        for (g, _, _) in &f.rows {
            *by_g.entry(*g).or_insert(0) += 1;
        }
        let expected: usize = by_g.values().map(|c| c * c).sum();
        for config in all_profiles() {
            let db = Database::with_config(config);
            load(&db, &f);
            let r = db
                .query("SELECT COUNT(*) FROM t AS a, t AS b WHERE a.g = b.g")
                .unwrap();
            let pairs = r.rows[0][0].as_i64().unwrap().unwrap() as usize;
            assert_eq!(pairs, expected, "config {config:?}");
        }
    });
}

/// WHERE filtering equals reference filtering.
#[test]
fn filter_matches_reference() {
    cases(48, 3, |rng| {
        let f = arb_fixture(rng);
        let threshold = rng.range(-20..20);
        let expected = f
            .rows
            .iter()
            .filter(|(_, x, _)| x % 7 >= threshold % 7)
            .count();
        let db = Database::new();
        load(&db, &f);
        let r = db
            .query_with(
                "SELECT COUNT(*) FROM t WHERE x % 7 >= ? % 7",
                &[Value::Int(threshold)],
            )
            .unwrap();
        assert_eq!(r.rows[0][0].as_i64().unwrap().unwrap() as usize, expected);
    });
}

/// ORDER BY returns rows in nondecreasing key order and preserves the
/// multiset of values.
#[test]
fn sort_is_correct() {
    cases(48, 4, |rng| {
        let f = arb_fixture(rng);
        let db = Database::new();
        load(&db, &f);
        let r = db.query("SELECT x FROM t ORDER BY x").unwrap();
        let got: Vec<i64> = r
            .rows
            .iter()
            .map(|row| row[0].as_i64().unwrap().unwrap())
            .collect();
        let mut expected: Vec<i64> = f.rows.iter().map(|(_, x, _)| *x).collect();
        expected.sort_unstable();
        assert_eq!(got, expected);
    });
}

/// UNION deduplicates to exactly the distinct value set.
#[test]
fn union_distinct_is_set_semantics() {
    cases(48, 5, |rng| {
        let f = arb_fixture(rng);
        let db = Database::new();
        load(&db, &f);
        let r = db.query("SELECT x FROM t UNION SELECT x FROM t").unwrap();
        let distinct: std::collections::BTreeSet<i64> = f.rows.iter().map(|(_, x, _)| *x).collect();
        assert_eq!(r.rows.len(), distinct.len());
    });
}

/// The upsert accumulator is equivalent to GROUP BY SUM.
#[test]
fn upsert_accumulation_equals_group_by() {
    cases(48, 6, |rng| {
        let f = arb_fixture(rng);
        let db = Database::new();
        load(&db, &f);
        db.execute("CREATE TABLE acc (g INTEGER PRIMARY KEY, w REAL)")
            .unwrap();
        // Row-at-a-time upserts...
        for (g, _, w) in &f.rows {
            db.execute(&format!(
                "INSERT INTO acc VALUES ({g}, {w}) \
                 ON CONFLICT (g) DO UPDATE SET w = acc.w + excluded.w"
            ))
            .unwrap();
        }
        // ...must equal the set-oriented aggregate.
        let r = db
            .query(
                "SELECT COUNT(*) FROM acc, (SELECT g, SUM(w) AS w FROM t GROUP BY g) AS agg \
                 WHERE acc.g = agg.g AND ABS(acc.w - agg.w) < 0.000000001",
            )
            .unwrap();
        let matching = r.rows[0][0].as_i64().unwrap().unwrap() as usize;
        let groups: std::collections::BTreeSet<i64> = f.rows.iter().map(|(g, _, _)| *g).collect();
        assert_eq!(matching, groups.len());
        assert_eq!(db.table_rows("acc").unwrap(), groups.len());
    });
}

/// ROW_NUMBER per partition forms the contiguous sequence 1..=size.
#[test]
fn row_number_is_a_permutation() {
    cases(48, 7, |rng| {
        let f = arb_fixture(rng);
        let db = Database::new();
        load(&db, &f);
        let r = db
            .query("SELECT g, ROW_NUMBER() OVER (PARTITION BY g ORDER BY x, w) AS rn FROM t")
            .unwrap();
        let mut per_group: std::collections::HashMap<i64, Vec<i64>> = Default::default();
        for row in &r.rows {
            per_group
                .entry(row[0].as_i64().unwrap().unwrap())
                .or_default()
                .push(row[1].as_i64().unwrap().unwrap());
        }
        for (_, mut rns) in per_group {
            rns.sort_unstable();
            let expect: Vec<i64> = (1..=rns.len() as i64).collect();
            assert_eq!(rns, expect);
        }
    });
}

/// A larger random table without NULLs, sized past the executor's fan-out
/// threshold (8,192 source rows) so `parallelism = 4` genuinely runs the
/// morsel pipelines; `x` spans widely enough to keep the self-joins small.
fn arb_big_fixture(rng: &mut SplitMix64) -> Fixture {
    not_null(gxw_rows(rng, 9_000..12_000, (8, 2_000, 100), 0.0))
}

fn has_fanned_out(stats: &sqlengine::OpStats) -> bool {
    stats.workers > 1 || stats.children.iter().any(has_fanned_out)
}

/// Queries covering every data-parallel operator family.
const PARALLEL_QUERIES: &[&str] = &[
    "SELECT g, x, w FROM t WHERE x > 0",
    "SELECT x + g, w * 2.0 FROM t WHERE x % 3 = 0",
    "SELECT g, COUNT(*), SUM(x), SUM(w), MIN(x), MAX(x), AVG(w) FROM t GROUP BY g",
    "SELECT g, COUNT(DISTINCT x), SUM(DISTINCT w) FROM t GROUP BY g",
    "SELECT COUNT(*), SUM(w) FROM t",
    "SELECT a.g, a.x, b.x FROM t AS a JOIN t AS b ON a.g = b.g AND a.x = b.x",
    "SELECT a.g, a.x, b.g FROM t AS a LEFT JOIN t AS b ON a.x = b.g",
    "SELECT DISTINCT g, x FROM t",
    "SELECT g, x FROM t ORDER BY x, g, w LIMIT 25 OFFSET 3",
    "SELECT g FROM t WHERE x > 0 UNION ALL SELECT g FROM t WHERE x <= 0",
];

/// Every query produces identical rows at parallelism 1 and 4, for every
/// engine profile (after canonical ordering), and at parallelism 4 some of
/// them fan out.
#[test]
fn parallel_execution_matches_serial() {
    cases(4, 8, |rng| {
        let f = arb_big_fixture(rng);
        for config in all_profiles() {
            let serial = Database::with_config(config.with_parallelism(1));
            load(&serial, &f);
            let parallel = Database::with_config(config.with_parallelism(4));
            load(&parallel, &f);
            let mut fanned_out = 0;
            for query in PARALLEL_QUERIES {
                let a = serial.query(query).unwrap();
                let (b, stats) = parallel.query_analyzed(query).unwrap();
                assert_eq!(a.columns, b.columns, "columns differ for {query}");
                assert_eq!(
                    canonical(a.rows),
                    canonical(b.rows),
                    "rows differ for {query}"
                );
                fanned_out += usize::from(has_fanned_out(&stats));
            }
            assert!(fanned_out > 0, "nothing fanned out under {config:?}");
        }
    });
}

/// `EXPLAIN ANALYZE` row accounting matches the actual result set at both
/// parallelism levels, and only parallelism 4 fans out.
#[test]
fn explain_analyze_counts_match_results() {
    cases(4, 9, |rng| {
        let f = arb_big_fixture(rng);
        for parallelism in [1usize, 4] {
            let db = Database::with_config(EngineConfig::default().with_parallelism(parallelism));
            load(&db, &f);
            let mut fanned_out = 0;
            for query in PARALLEL_QUERIES {
                let (result, stats) = db.query_analyzed(query).unwrap();
                let rows = result.rows.len();
                assert_eq!(stats.rows_out, rows, "{query} at parallelism {parallelism}");
                fanned_out += usize::from(has_fanned_out(&stats));
            }
            assert_eq!(
                fanned_out > 0,
                parallelism > 1,
                "at parallelism {parallelism}"
            );
        }
    });
}

#[test]
fn concurrent_readers_see_consistent_snapshots() {
    use std::sync::Arc;
    let db = Arc::new(Database::new());
    db.execute("CREATE TABLE t (x INTEGER, y INTEGER)").unwrap();
    // Writer keeps inserting row pairs whose sum is always zero.
    let writer_db = Arc::clone(&db);
    let writer = std::thread::spawn(move || {
        for i in 0..300i64 {
            writer_db
                .execute(&format!("INSERT INTO t VALUES ({i}, {})", -i))
                .unwrap();
        }
    });
    // Readers check the invariant SUM(x + y) = 0 on whatever snapshot they
    // get (never a torn row).
    let mut readers = Vec::new();
    for _ in 0..4 {
        let reader_db = Arc::clone(&db);
        readers.push(std::thread::spawn(move || {
            for _ in 0..50 {
                let r = reader_db
                    .query("SELECT COALESCE(SUM(x + y), 0) FROM t")
                    .unwrap();
                assert_eq!(r.rows[0][0].as_f64().unwrap().unwrap_or(0.0), 0.0);
            }
        }));
    }
    writer.join().unwrap();
    for r in readers {
        r.join().unwrap();
    }
    assert_eq!(db.table_rows("t").unwrap(), 300);
}
