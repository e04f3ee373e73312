//! Serial-vs-parallel executor equivalence and `EXPLAIN ANALYZE` tests.
//!
//! Fixtures are generated with a deterministic LCG (no external crates) and
//! are large enough to cross the executor's fan-out threshold (8,192 source
//! rows), so the morsel pipelines genuinely fan out at `parallelism = 4`.

use sqlengine::{Database, EngineConfig, Value};

const ROWS: usize = 20_000; // well above the executor's fan-out threshold

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

fn seeded_db(config: EngineConfig) -> Database {
    seeded_db_of(config, ROWS)
}

fn seeded_db_of(config: EngineConfig, rows_wanted: usize) -> Database {
    let db = Database::with_config(config);
    db.execute("CREATE TABLE t (g INTEGER, x INTEGER, w REAL, s TEXT)")
        .unwrap();
    db.execute("CREATE TABLE dim (g INTEGER, name TEXT)")
        .unwrap();
    let mut rng = Lcg(0xB0125);
    let mut rows = Vec::with_capacity(rows_wanted);
    for _ in 0..rows_wanted {
        let g = (rng.next() % 13) as i64;
        let x = (rng.next() % 1000) as i64 - 500;
        let w = (rng.next() % 10_000) as f64 / 100.0;
        let s = format!("tok{}", rng.next() % 40);
        rows.push(vec![
            Value::Int(g),
            Value::Int(x),
            Value::Float(w),
            Value::text(&s),
        ]);
    }
    db.insert_rows("t", rows).unwrap();
    let mut dim = Vec::new();
    for g in 0..10i64 {
        dim.push(vec![Value::Int(g), Value::text(format!("group-{g}"))]);
    }
    db.insert_rows("dim", dim).unwrap();
    db
}

fn assert_rows_equivalent(query: &str, a: &[Vec<Value>], b: &[Vec<Value>]) {
    assert_eq!(a.len(), b.len(), "row count mismatch for {query}");
    for (i, (ra, rb)) in a.iter().zip(b).enumerate() {
        assert_eq!(ra.len(), rb.len(), "row width mismatch for {query}");
        for (va, vb) in ra.iter().zip(rb) {
            match (va, vb) {
                // Parallel aggregation may combine float partial sums in a
                // different association order; everything else is exact.
                (Value::Float(fa), Value::Float(fb)) => {
                    let tol = 1e-9 * fa.abs().max(fb.abs()).max(1.0);
                    assert!(
                        (fa - fb).abs() <= tol,
                        "float mismatch row {i} for {query}: {fa} vs {fb}"
                    );
                }
                _ => assert_eq!(va, vb, "value mismatch row {i} for {query}"),
            }
        }
    }
}

const QUERIES: &[&str] = &[
    "SELECT g, x, w FROM t WHERE x > 0 ORDER BY g, x, w",
    "SELECT g, COUNT(*) AS n, SUM(x) AS sx, SUM(w) AS sw, MIN(x) AS mn, MAX(x) AS mx, AVG(w) AS aw \
     FROM t GROUP BY g ORDER BY g",
    "SELECT g, COUNT(DISTINCT s) AS ds, SUM(DISTINCT w) AS dw FROM t GROUP BY g ORDER BY g",
    "SELECT t.g, dim.name, COUNT(*) AS n FROM t JOIN dim ON t.g = dim.g \
     GROUP BY t.g, dim.name ORDER BY t.g",
    "SELECT t.g, dim.name FROM t LEFT JOIN dim ON t.g = dim.g WHERE t.x > 400 ORDER BY t.g, t.x",
    "SELECT DISTINCT g, s FROM t ORDER BY g, s",
    "SELECT g, x FROM t ORDER BY x DESC, g LIMIT 17 OFFSET 5",
    "SELECT x + 1, w * 2.0 FROM t WHERE s LIKE 'tok1%' ORDER BY x, w",
    "SELECT COUNT(*), SUM(w) FROM t",
    "SELECT g FROM t WHERE x > 0 UNION ALL SELECT g FROM t WHERE x <= 0",
    // No ORDER BY: parallel DISTINCT must emit the serial executor's exact
    // first-occurrence order.
    "SELECT DISTINCT s FROM t",
    "SELECT g FROM t WHERE x > 0 UNION SELECT g FROM t WHERE x <= 0",
    "WITH big AS (SELECT g, x FROM t WHERE x > 100) \
     SELECT g, COUNT(*) FROM big GROUP BY g ORDER BY g",
    "SELECT g, x, ROW_NUMBER() OVER (PARTITION BY g ORDER BY x DESC) AS rn \
     FROM t ORDER BY g, rn LIMIT 40",
];

#[test]
fn parallel_matches_serial_across_profiles() {
    for base in [
        EngineConfig::profile_a(),
        EngineConfig::profile_b(),
        EngineConfig::profile_c(),
    ] {
        let serial = seeded_db(base.with_parallelism(1));
        let parallel = seeded_db(base.with_parallelism(4));
        let mut fanned_out = 0;
        for query in QUERIES {
            let a = serial.query(query).unwrap();
            let (b, stats) = parallel.query_analyzed(query).unwrap();
            assert_eq!(a.columns, b.columns, "columns mismatch for {query}");
            assert_rows_equivalent(query, &a.rows, &b.rows);
            fanned_out += usize::from(has_fanned_out(&stats));
        }
        assert!(
            fanned_out >= QUERIES.len() / 2,
            "{fanned_out} queries fanned out"
        );
    }
}

fn has_fanned_out(stats: &sqlengine::OpStats) -> bool {
    stats.workers > 1 || stats.children.iter().any(has_fanned_out)
}

/// Rows raise in two operators — the projection at `n = 15,000` (10 / 0),
/// the aggregate above it at `n = 100` (the SUM of a text value) — and the
/// one that raises first in row order is reported, at every parallelism: a
/// morsel runs its rows through the whole pipeline, and the earliest failing
/// morsel's error wins.
#[test]
fn the_first_raising_row_decides_the_error_at_every_parallelism() {
    let sql = "SELECT SUM(v) FROM (SELECT CASE WHEN n = 100 THEN s ELSE n END AS v, \
               10 / (n - 15000) AS q FROM u) d GROUP BY q";
    let errors = [1, 4].map(|parallelism| {
        let db = Database::with_config(EngineConfig::default().with_parallelism(parallelism));
        db.execute("CREATE TABLE u (n INTEGER, s TEXT)").unwrap();
        let rows = (0..ROWS as i64).map(|n| vec![Value::Int(n), Value::text("oops")]);
        db.insert_rows("u", rows.collect()).unwrap();
        db.query(sql).unwrap_err().to_string()
    });
    assert!(
        errors[0].contains("SUM of non-numeric value oops"),
        "{}",
        errors[0]
    );
    assert_eq!(errors[1], errors[0]);
}

#[test]
fn parallel_database_is_reusable_across_queries() {
    // The pool is shared by all queries on the Database; run a burst to make
    // sure worker reuse and job draining hold up.
    let db = seeded_db(EngineConfig::default().with_parallelism(4));
    for _ in 0..10 {
        let r = db
            .query("SELECT g, COUNT(*) FROM t GROUP BY g ORDER BY g")
            .unwrap();
        assert_eq!(r.rows.len(), 13);
    }
}

#[test]
fn explain_analyze_row_counts_match_results() {
    for parallelism in [1usize, 4] {
        let db = seeded_db(EngineConfig::default().with_parallelism(parallelism));
        let query = "SELECT t.g, COUNT(*) AS n, SUM(t.w) AS sw FROM t \
                     JOIN dim ON t.g = dim.g GROUP BY t.g ORDER BY t.g";
        let (result, stats) = db.query_analyzed(query).unwrap();
        // The root operator's output is exactly the result set.
        assert_eq!(
            stats.rows_out,
            result.rows.len(),
            "parallelism={parallelism}"
        );
        // Every operator the plan contains shows up with plausible counts.
        let join = stats.find("HashJoin").expect("join in stats tree");
        assert_eq!(join.rows_in, ROWS + 10, "join consumes both inputs");
        let agg = stats.find("Aggregate").expect("aggregate in stats tree");
        assert_eq!(agg.rows_out, result.rows.len());
        let scan = stats.find("Scan").expect("scan in stats tree");
        assert!(scan.rows_out == ROWS || scan.rows_out == 10);
    }
}

#[test]
fn explain_analyze_statement_renders_tree() {
    let db = seeded_db(EngineConfig::default().with_parallelism(4));
    let r = db
        .query("EXPLAIN ANALYZE SELECT g, COUNT(*) FROM t WHERE x > 0 GROUP BY g ORDER BY g")
        .unwrap();
    assert_eq!(r.columns, vec!["plan".to_string()]);
    let text: Vec<String> = r
        .rows
        .iter()
        .map(|row| row[0].as_str_lossy().unwrap().unwrap().into_owned())
        .collect();
    let joined = text.join("\n");
    assert!(joined.contains("Sort"), "missing Sort in:\n{joined}");
    assert!(
        joined.contains("Aggregate"),
        "missing Aggregate in:\n{joined}"
    );
    assert!(joined.contains("Filter"), "missing Filter in:\n{joined}");
    assert!(joined.contains("Scan"), "missing Scan in:\n{joined}");
    assert!(joined.contains("rows_out="), "missing stats in:\n{joined}");
    // Plain EXPLAIN still renders the static plan (no stats annotations).
    let plain = db.query("EXPLAIN SELECT g FROM t ORDER BY g").unwrap();
    let plain_text = plain.rows[0][0]
        .as_str_lossy()
        .unwrap()
        .unwrap()
        .into_owned();
    assert!(!plain_text.contains("rows_out="));
}

#[test]
fn order_by_limit_takes_top_k_and_matches_full_sort() {
    let db = seeded_db(EngineConfig::default());
    let full = db.query("SELECT g, x FROM t ORDER BY x, g").unwrap();
    for (limit, offset) in [(1usize, 0usize), (10, 0), (10, 7), (50, 580), (700, 0)] {
        let q = format!("SELECT g, x FROM t ORDER BY x, g LIMIT {limit} OFFSET {offset}");
        let r = db.query(&q).unwrap();
        let want: Vec<_> = full.rows.iter().skip(offset).take(limit).cloned().collect();
        assert_eq!(r.rows, want, "top-k window mismatch for {q}");
    }
    // The executed stats tree shows the top-k sort under the limit.
    let (_, stats) = db
        .query_analyzed("SELECT g, x FROM t ORDER BY x, g LIMIT 10")
        .unwrap();
    let sort = stats.find("Sort").expect("sort in stats tree");
    assert!(sort.label.contains("top-k"), "label was {}", sort.label);
    assert_eq!(sort.rows_out, 10);
}

#[test]
fn insert_select_reads_pre_statement_snapshot() {
    // `INSERT INTO t SELECT .. FROM t` must read the table as it was before
    // the statement: the inserted rows cannot feed back into the source scan
    // (which would double output or loop forever).
    let db = seeded_db(EngineConfig::default().with_parallelism(4));
    let before = db.table_rows("t").unwrap();
    let n = db
        .execute("INSERT INTO t SELECT g, x + 1000, w, s FROM t")
        .unwrap()
        .affected();
    assert_eq!(n, before);
    assert_eq!(db.table_rows("t").unwrap(), 2 * before);
    // Run it again under a BEGIN/ROLLBACK to confirm the snapshot semantics
    // compose with transactions.
    db.execute("BEGIN").unwrap();
    let n2 = db
        .execute("INSERT INTO t SELECT g, x, w, s FROM t WHERE x > 1000")
        .unwrap()
        .affected();
    assert!(n2 > 0);
    db.execute("ROLLBACK").unwrap();
    assert_eq!(db.table_rows("t").unwrap(), 2 * before);
}

#[test]
fn parallelism_one_config_uses_no_pool_path() {
    // Below the fan-out threshold nothing fans out, so the default profile
    // (as many workers as the host has cores) answers byte for byte like
    // parallelism 1.
    let a = seeded_db_of(EngineConfig::profile_a(), 600);
    let b = seeded_db_of(EngineConfig::profile_a().with_parallelism(1), 600);
    for query in QUERIES {
        assert_eq!(a.query(query).unwrap(), b.query(query).unwrap(), "{query}");
    }
}
