//! Property-based differential suite for the hash join's key filter over
//! derived indexes: random tables and a query mix spanning filter / project
//! / aggregate / join must produce identical results with
//! `EngineConfig::vectorized` {on, off} × parallelism {1, 4}, and
//! `EXPLAIN ANALYZE` must report identical per-operator row counts across
//! modes. `vectorized_exec.rs` is
//! the fixed-fixture companion.

mod common;

use common::{canonical, gxw_rows};
use seeded::{cases, SplitMix64};
use sqlengine::{Database, EngineConfig, OpStats, Value};

/// A random table of (g TEXT, x INTEGER, w REAL) rows with NULL holes in
/// `g` and `x`. `g` is low-cardinality, so one key finds many rows; `w` is
/// a dyadic rational (k/4) so float sums are exact and results compare
/// exactly across morsel groupings.
#[derive(Debug, Clone)]
struct Fixture {
    rows: Vec<(Option<i64>, Option<i64>, f64)>,
}

fn arb_fixture(rng: &mut SplitMix64) -> Fixture {
    Fixture {
        rows: gxw_rows(rng, 150..400, (6, 50, 100), 0.5),
    }
}

fn load(db: &Database, f: &Fixture) {
    db.execute("CREATE TABLE t (g TEXT, x INTEGER, w REAL)")
        .unwrap();
    let rows = f
        .rows
        .iter()
        .map(|(g, x, w)| {
            vec![
                g.map_or(Value::Null, |g| Value::text(format!("g{g}"))),
                x.map_or(Value::Null, Value::Int),
                Value::Float(*w),
            ]
        })
        .collect();
    db.insert_rows("t", rows).unwrap();
}

/// Query mix: filters and aggregates; IN lists, DISTINCT aggregates,
/// computed projections and LIKE; joins with and without the key filter,
/// across operator families.
const QUERIES: &[&str] = &[
    "SELECT g, x, w FROM t WHERE x > 0",
    "SELECT g FROM t WHERE g = 'g1' AND x <= 10",
    "SELECT x, w FROM t WHERE x BETWEEN -10 AND 25 OR w > 6.0",
    "SELECT g, w FROM t WHERE x IS NOT NULL",
    "SELECT w FROM t WHERE g IS NULL",
    "SELECT g, COUNT(*), SUM(w), MIN(x), MAX(x), AVG(w) FROM t GROUP BY g",
    "SELECT COUNT(*), SUM(x) FROM t WHERE g = 'g2'",
    "SELECT x + 1, w * 2.0 FROM t WHERE x IN (1, 2, 3)",
    "SELECT g, COUNT(DISTINCT x) FROM t GROUP BY g",
    "SELECT w FROM t WHERE g LIKE 'g%' AND x < 5",
    "SELECT a.g, COUNT(*) FROM t AS a JOIN t AS b ON a.g = b.g AND a.x = b.x GROUP BY a.g",
    // One key, probing the bare scan of `a`: the key filter reads its index.
    "SELECT a.g, COUNT(*), SUM(a.w) FROM t AS a \
     JOIN (SELECT DISTINCT g FROM t WHERE x > 40) AS d ON a.g = d.g GROUP BY a.g",
    "SELECT DISTINCT g FROM t WHERE w >= 1.0",
    "SELECT g, x FROM t WHERE w < 20.0 ORDER BY x, g, w LIMIT 25 OFFSET 3",
];

/// `(label without mode suffix, rows_in, rows_out)` for every operator in
/// the stats tree, in render order.
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

/// Every query is mode- and parallelism-invariant: vectorized {on, off}
/// × parallelism {1, 4} produce identical rows. The serial pair is also
/// compared in exact output order (parallelism may only reorder within
/// the documented deterministic-merge guarantees, mode never may).
#[test]
fn vectorized_matches_row_path() {
    cases(16, 1, |rng| {
        same_in_every_mode(&arb_fixture(rng));
    });
}

/// A table past the executor's fan-out threshold: the same answers in
/// every mode, and the parallel runs fan out in both.
#[test]
fn a_table_past_the_fan_out_threshold_fans_out_in_both_modes() {
    cases(2, 3, |rng| {
        let f = Fixture {
            rows: gxw_rows(rng, 9_000..10_000, (6, 50, 100), 0.5),
        };
        let fanned_out = same_in_every_mode(&f);
        assert!(fanned_out.iter().all(|&n| n > 0), "{fanned_out:?}");
    });
}

/// [`vectorized_matches_row_path`] over one fixture; returns how many
/// queries fanned out at parallelism 4, vectorized off and on.
fn same_in_every_mode(f: &Fixture) -> [usize; 2] {
    let variants = [(false, 1usize), (false, 4), (true, 1), (true, 4)];
    let dbs: Vec<Database> = variants
        .iter()
        .map(|&(vectorized, parallelism)| {
            let db = Database::with_config(
                EngineConfig::default()
                    .with_vectorized(vectorized)
                    .with_parallelism(parallelism),
            );
            load(&db, f);
            db
        })
        .collect();
    let mut fanned_out = [0, 0];
    for query in QUERIES {
        let baseline = dbs[0].query(query).unwrap();
        // Exact row order: row-serial vs vectorized-serial.
        let vec_serial = dbs[2].query(query).unwrap();
        let (a, b) = (&baseline.rows, &vec_serial.rows);
        assert_eq!(a, b, "serial row order diverged for {query}");
        for (db, tag) in dbs.iter().zip(variants).skip(1) {
            let (got, stats) = db.query_analyzed(query).unwrap();
            let (a, b) = (&baseline.columns, &got.columns);
            assert_eq!(a, b, "columns differ for {query}");
            let (a, b) = (canonical(baseline.rows.clone()), canonical(got.rows));
            assert_eq!(
                a, b,
                "rows differ for {query} at (vectorized, parallelism) = {tag:?}"
            );
            if has_fanned_out(&stats) {
                fanned_out[usize::from(tag.0)] += 1;
            }
        }
    }
    fanned_out
}

fn has_fanned_out(stats: &OpStats) -> bool {
    stats.workers > 1 || stats.children.iter().any(has_fanned_out)
}

/// `EXPLAIN ANALYZE` reports the same per-operator (label, rows_in,
/// rows_out) tree in both modes — a probe over the rows the index found
/// must account rows exactly like the probe over the whole table.
#[test]
fn explain_analyze_operator_counts_match_across_modes() {
    cases(16, 2, |rng| {
        let f = arb_fixture(rng);
        let vec_db = Database::with_config(EngineConfig::default());
        load(&vec_db, &f);
        let row_db = Database::with_config(EngineConfig::default().with_vectorized(false));
        load(&row_db, &f);
        for query in QUERIES {
            let (vec_result, vec_stats) = vec_db.query_analyzed(query).unwrap();
            let (row_result, row_stats) = row_db.query_analyzed(query).unwrap();
            let (a, b) = (canonical(vec_result.rows), canonical(row_result.rows));
            assert_eq!(a, b, "results diverged for {query}");
            let (mut a, mut b) = (Vec::new(), Vec::new());
            shape(&vec_stats, &mut a);
            shape(&row_stats, &mut b);
            assert_eq!(a, b, "operator row counts diverged for {query}");
        }
    });
}
