//! Literal lifting: the plan cache keys a statement by its shape, lifts its
//! literals into parameters and pins the ones the planner consumes. Every
//! test here is differential — whatever an engine with the plan cache on
//! answers, an engine with `with_plan_cache(false)` (which parses, checks
//! and plans the exact text every time) must answer too: same rows, same
//! column names, same error.

use sqlengine::ast::{Expr, Statement};
use sqlengine::expr::PhysExpr;
use sqlengine::lexer::{tokenize_spanned, Token};
use sqlengine::parser::parse_statement;
use sqlengine::plan::PhysPlan;
use sqlengine::{Database, EngineConfig, EngineError, QueryResult, Value};

/// A database with the plan cache on and its twin with the cache off, both
/// loaded by `fixture`.
fn pair(config: EngineConfig, fixture: &str) -> (Database, Database) {
    let cached = Database::with_config(config.with_plan_cache(true));
    let fresh = Database::with_config(config.with_plan_cache(false));
    for db in [&cached, &fresh] {
        db.execute_script(fixture).unwrap();
    }
    (cached, fresh)
}

/// `sql` with every number and string literal changed to another value of
/// its type class: a second literal assignment for the same shape.
fn other_literals(sql: &str) -> String {
    let (tokens, spans) = tokenize_spanned(sql).unwrap();
    let mut out = sql.to_string();
    for (token, span) in tokens.iter().zip(&spans).rev() {
        let replacement = match token {
            Token::Int(v) => format!("{}", v + 1),
            Token::Float(v) => format!("{:?}", v + 0.5),
            Token::Str(s) => format!("'{}x'", s.replace('\'', "''")),
            _ => continue,
        };
        out.replace_range(span.range(), &replacement);
    }
    out
}

/// Both engines must agree on `sql` — rows, column names or the error.
fn agree(cached: &Database, fresh: &Database, sql: &str) -> Result<QueryResult, EngineError> {
    let expected = fresh.query(sql);
    assert_eq!(cached.query(sql), expected, "{sql}");
    expected
}

fn metric(db: &Database, name: &str) -> f64 {
    let sql = format!("SELECT value FROM sys.metrics WHERE name = '{name}'");
    match db.query_scalar(&sql).unwrap() {
        Value::Float(v) => v,
        other => panic!("{name} = {other:?}"),
    }
}

// ---------------------------------------------------------------------
// (i) The corpora of `sql_integration.rs` and `advanced_sql.rs`: every
// SELECT those suites run, over the fixtures they run it on.
// ---------------------------------------------------------------------

const CORPUS: &[(&str, &[&str])] = &[
    (
        "CREATE TABLE x_nj (n INTEGER, j TEXT, w REAL);
         CREATE TABLE y_nk (n INTEGER, k INTEGER, w REAL);
         INSERT INTO x_nj VALUES (1, 'a', 1.0), (1, 'b', 2.0), (2, 'a', 3.0), (3, 'c', 1.0);
         INSERT INTO y_nk VALUES (1, 17, 1.0), (2, 26, 1.0), (3, 17, 1.0);
         CREATE TABLE params (model TEXT PRIMARY KEY, a REAL, b REAL, h REAL);
         INSERT INTO params VALUES ('m', 0.5, 1.0, 1.0);
         CREATE TABLE m_weights (j TEXT, k INTEGER, w REAL, PRIMARY KEY (j, k));
         INSERT INTO m_weights VALUES ('a', 17, 0.4), ('a', 26, 0.6), ('b', 17, 0.9), ('c', 17, 0.2);
         CREATE INDEX m_weights_j ON m_weights (j);
         CREATE TABLE feats (n INTEGER, term TEXT, cnt REAL);
         INSERT INTO feats VALUES (1, 'a', 1.0), (1, 'b', 2.0), (2, 'a', 3.0), (3, 'c', 1.0);
         CREATE INDEX feats_n ON feats (n);",
        &[
            "SELECT x_nj.n AS n, x_nj.j AS j, y_nk.k AS k, x_nj.w * y_nk.w AS w
             FROM x_nj, y_nk WHERE x_nj.n = y_nk.n ORDER BY n, j",
            "SELECT n, SUM(w) AS w FROM (
                SELECT x_nj.n AS n, x_nj.w * y_nk.w AS w
                FROM x_nj, y_nk WHERE x_nj.n = y_nk.n
             ) AS xy_njk GROUP BY n ORDER BY n",
            "WITH
             xy_njk AS (
                 SELECT x_nj.n AS n, x_nj.j AS j, y_nk.k AS k, x_nj.w * y_nk.w AS w
                 FROM x_nj, y_nk WHERE x_nj.n = y_nk.n
             ),
             xy_n AS (SELECT n, SUM(w) AS w FROM xy_njk GROUP BY n),
             p_jk AS (
                 SELECT xy_njk.j AS j, xy_njk.k AS k, SUM(1.0 * xy_njk.w / xy_n.w) AS w
                 FROM xy_njk, xy_n WHERE xy_njk.n = xy_n.n
                 GROUP BY xy_njk.j, xy_njk.k
             )
             SELECT j, k, w FROM p_jk ORDER BY j, k",
            // The statement `BornSqlModel::predict` issues for one item.
            "WITH abh AS (SELECT a, b, h FROM params WHERE model = 'm'),
             n_n AS (SELECT 1 AS n),
             x_nj AS (SELECT qx.n AS n, qx.j AS j, qx.w AS w
                      FROM (SELECT n, term AS j, cnt AS w FROM feats) AS qx, n_n
                      WHERE qx.n = n_n.n),
             hwx_nk AS (SELECT x_nj.n AS n, hw.k AS k, SUM(hw.w * POW(x_nj.w, a)) AS w
                        FROM m_weights AS hw, x_nj, abh
                        WHERE hw.j = x_nj.j GROUP BY x_nj.n, hw.k)
             SELECT r_nk.n AS n, r_nk.k AS k FROM (
                 SELECT n, k, ROW_NUMBER() OVER (PARTITION BY n ORDER BY w DESC, k ASC) AS r
                 FROM hwx_nk) AS r_nk WHERE r_nk.r = 1 ORDER BY n",
            // ... and `predict_batch` for two.
            "WITH n_n AS (SELECT 1 AS n UNION ALL SELECT 2 AS n)
             SELECT feats.n, feats.term FROM feats, n_n WHERE feats.n = n_n.n ORDER BY 1, 2",
        ],
    ),
    (
        "CREATE TABLE t (a INTEGER, b TEXT);
         INSERT INTO t VALUES (1, 'one'), (2, 'two');
         CREATE TABLE m_corpus (j TEXT, k INTEGER, w REAL, PRIMARY KEY (j, k));
         INSERT INTO m_corpus VALUES ('a', 17, 3.5), ('b', 26, 1.0);
         CREATE TABLE hwx_nk (n INTEGER, k INTEGER, w REAL);
         INSERT INTO hwx_nk VALUES (1, 17, 0.4), (1, 26, 0.9), (1, 18, 0.1), (2, 17, 0.7), (2, 26, 0.2);
         CREATE TABLE publication (id INTEGER, pubname TEXT);
         INSERT INTO publication VALUES (13, 'communications in statistics'), (14, 'edbt');
         CREATE TABLE h_jk (j TEXT, k INTEGER, w REAL);
         INSERT INTO h_jk VALUES ('a', 1, 0.5), ('a', 2, 0.5);
         CREATE TABLE u (n INTEGER, w REAL);
         CREATE TABLE abh (a REAL);
         INSERT INTO u VALUES (1, 4.0), (2, 9.0);
         INSERT INTO abh VALUES (0.5);
         CREATE TABLE MyTable (MyCol INTEGER);
         INSERT INTO mytable VALUES (5);",
        &[
            "SELECT b FROM t WHERE a = 2",
            "SELECT j, k, w FROM m_corpus ORDER BY j",
            "SELECT r_nk.n, r_nk.k FROM (
                SELECT n, k, ROW_NUMBER() OVER (PARTITION BY n ORDER BY w DESC) AS r FROM hwx_nk
             ) AS r_nk WHERE r = 1 ORDER BY n",
            "SELECT id AS n, 'pubname:' || pubname AS j, 1.0 AS w FROM publication",
            "SELECT id AS n FROM publication WHERE id % 10 <= 3",
            "SELECT j, 1.0 + SUM(w * LN(w)) / LN(2.0) AS h FROM h_jk GROUP BY j",
            "SELECT n, POW(w, 1/a) AS w FROM u, abh ORDER BY n",
            "SELECT MYCOL FROM MYTABLE",
        ],
    ),
    (
        "CREATE TABLE a (id INTEGER, v INTEGER);
         CREATE TABLE b (id INTEGER, v INTEGER);
         CREATE TABLE c (id INTEGER, v INTEGER);
         INSERT INTO a VALUES (1, 100), (2, 200);
         INSERT INTO b VALUES (1, 10), (2, 20), (3, 30);
         INSERT INTO c VALUES (1, 1), (2, 2);
         CREATE TABLE l (id INTEGER, x TEXT);
         CREATE TABLE r (id INTEGER, y TEXT);
         INSERT INTO l VALUES (1, 'a'), (2, 'b');
         INSERT INTO r VALUES (1, 'z');
         CREATE TABLE t (g INTEGER, x INTEGER);
         INSERT INTO t VALUES (1, 10), (1, 10), (1, 20), (2, 30);
         CREATE TABLE e (x INTEGER);
         CREATE TABLE gw (g TEXT, w REAL);
         INSERT INTO gw VALUES ('a', 1.0), ('a', 1.0), ('b', 5.0), ('b', 5.0), ('c', 3.0);
         CREATE TABLE dst (w REAL, n INTEGER, tag TEXT);
         INSERT INTO dst (n, w) VALUES (1, 0.5), (2, 1.5);",
        &[
            "SELECT id FROM a UNION ALL SELECT id FROM b ORDER BY id",
            "SELECT id FROM a UNION SELECT id FROM b ORDER BY id",
            "SELECT l.x, r.y FROM l LEFT JOIN r ON l.id = r.id ORDER BY l.id",
            "SELECT SUM(v) FROM a",
            "SELECT g, COUNT(DISTINCT x) AS c FROM t GROUP BY g HAVING COUNT(*) > 1 ORDER BY g",
            "SELECT g FROM t ORDER BY x DESC",
            "SELECT COUNT(*), SUM(x), MIN(x) FROM e",
            "SELECT x, COUNT(*) FROM e GROUP BY x",
            "SELECT DISTINCT x FROM t ORDER BY x",
            "SELECT x FROM t ORDER BY x LIMIT 3 OFFSET 1",
            "SELECT a.v + b.v + c.v AS total FROM a, b, c
             WHERE a.id = b.id AND b.id = c.id AND a.v > 100",
            "SELECT w, n, tag FROM dst ORDER BY n",
            "WITH s AS (SELECT SUM(x) AS total FROM t)
             SELECT a.total + b.total AS doubled FROM s AS a, s AS b",
            "SELECT b.*, a.* FROM a, b",
            "SELECT g FROM gw GROUP BY g ORDER BY SUM(w) DESC",
            "SELECT g FROM gw GROUP BY g HAVING SUM(w) > 4 AND COUNT(*) >= 2",
        ],
    ),
    (
        "CREATE TABLE emp (id INTEGER, dept TEXT, salary INTEGER);
         INSERT INTO emp VALUES
            (1, 'eng', 100), (2, 'eng', 120), (3, 'eng', 120), (4, 'ops', 80), (5, 'ops', 95);
         CREATE TABLE dept_pay (dept TEXT, total INTEGER);
         INSERT INTO dept_pay VALUES ('eng', 340), ('ops', 0);",
        &[
            "SELECT id FROM emp WHERE salary = (SELECT MAX(salary) FROM emp) ORDER BY id",
            "SELECT id, salary - (SELECT AVG(salary) FROM emp) AS diff FROM emp WHERE id = 1",
            "SELECT id FROM emp WHERE dept IN (SELECT dept FROM emp WHERE salary > 100) ORDER BY id",
            "SELECT id FROM emp WHERE id NOT IN (SELECT id FROM emp WHERE dept = 'eng') ORDER BY id",
            "SELECT COUNT(*) FROM emp WHERE EXISTS (SELECT 1 FROM emp WHERE salary > 110)",
            "SELECT COUNT(*) FROM emp WHERE EXISTS (SELECT 1 FROM emp WHERE salary > 999)",
            "SELECT COUNT(*) FROM emp WHERE NOT EXISTS (SELECT 1 FROM emp WHERE salary > 999)",
            "SELECT (SELECT salary FROM emp) AS s",
            "SELECT (SELECT salary FROM emp WHERE id = 999) AS s",
            "SELECT salary FROM emp WHERE id = 4",
            "SELECT id,
                    ROW_NUMBER() OVER (ORDER BY salary DESC) AS rn,
                    RANK() OVER (ORDER BY salary DESC) AS rk,
                    DENSE_RANK() OVER (ORDER BY salary DESC) AS dr
             FROM emp ORDER BY rn",
            "SELECT dept, id, RANK() OVER (PARTITION BY dept ORDER BY salary DESC) AS rk
             FROM emp ORDER BY dept, rk, id",
            "SELECT TRIM('  x  ')",
            "SELECT REPLACE('a-b-c', '-', '+')",
            "SELECT INSTR('hello', 'll')",
            "SELECT CONCAT('a', 1, 'b')",
            "SELECT CONCAT('a', NULL)",
            "SELECT * FROM emp ORDER BY id",
            "SELECT dept, total FROM dept_pay ORDER BY dept",
            "SELECT COUNT(*) FROM emp, dept_pay WHERE emp.dept = dept_pay.dept",
        ],
    ),
];

#[test]
fn corpus_answers_do_not_depend_on_the_plan_cache() {
    let configs = [
        EngineConfig::default().with_verify_plans(false),
        EngineConfig::default().with_verify_plans(true),
        EngineConfig::default()
            .with_verify_plans(true)
            .with_parallelism(4),
    ];
    let (mut statements, mut answered) = (0, 0);
    for config in configs {
        for (fixture, queries) in CORPUS {
            let (cached, fresh) = pair(config, fixture);
            for sql in *queries {
                let other = other_literals(sql);
                // First assignment plans, second binds into its template,
                // then both again from the cache.
                for text in [sql, other.as_str(), sql, other.as_str()] {
                    statements += 1;
                    answered += usize::from(agree(&cached, &fresh, text).is_ok());
                }
            }
            let (hits, _) = cached.plan_cache_stats();
            assert!(
                hits > 0,
                "the cached side must actually serve from the cache"
            );
            assert_eq!(cached.telemetry().verify_violations.get(), 0);
        }
    }
    // The differential is only worth something over statements that run.
    assert!(
        answered * 10 >= statements * 9,
        "{answered} of {statements}"
    );
}

/// Defines `$name(node)`: below `node`, the mutable twin of the child
/// enumerator hands out the same children (by address) in the same order as
/// the shared one. `$also` runs on every node first.
macro_rules! twins_agree {
    ($name:ident, $node:ty, $also:expr) => {
        fn $name(node: &mut $node) {
            $also(&mut *node);
            let mut shared = Vec::new();
            node.for_each_child(&mut |child| shared.push(child as *const $node));
            let mut by_mut = Vec::new();
            node.for_each_child_mut(&mut |child| {
                by_mut.push(child as *const $node);
                $name(child);
            });
            assert_eq!(shared, by_mut);
        }
    };
}
twins_agree!(expr_twins_agree, Expr, |_| ());
twins_agree!(phys_expr_twins_agree, PhysExpr, |_| ());
twins_agree!(plan_twins_agree, PhysPlan, |plan: &mut PhysPlan| plan
    .for_each_expr_mut(&mut |e| phys_expr_twins_agree(e)));

/// The traversal enumerators over the same corpus: shared and mutable twins
/// agree on every tree — the statement's expression roots and what is below
/// them, the cached plan's operators and their expressions — and a plan has
/// as many nodes as `EXPLAIN` renders lines.
#[test]
fn enumerators_agree_over_the_corpus() {
    let (mut statements, mut plans) = (0, 0);
    for (fixture, queries) in CORPUS {
        let db = Database::with_config(EngineConfig::default());
        db.execute_script(fixture).unwrap();
        for sql in *queries {
            let Statement::Query(mut query) = parse_statement(sql).unwrap() else {
                panic!("not a query: {sql}");
            };
            let mut shared = Vec::new();
            query.for_each_expr(&mut |root, site| shared.push((root as *const Expr, site)));
            let mut by_mut = Vec::new();
            query.for_each_expr_mut(&mut |root, site| {
                by_mut.push((root as *const Expr, site));
                expr_twins_agree(root);
            });
            assert_eq!(shared, by_mut, "{sql}");

            // A plan that ran a subquery while planning holds its result
            // and is never cached: the check covers the others.
            let ran_subquery = shared.iter().any(|(_, site)| site.in_subquery);
            statements += usize::from(!ran_subquery);
            if db.query(sql).is_err() {
                continue;
            }
            let rendered = db.explain(sql).unwrap();
            let cached = db.mutate_cached_plan(sql, &mut |plan| {
                plan_twins_agree(plan);
                assert_eq!(plan.node_count(), rendered.lines().count(), "{sql}");
            });
            assert!(!(cached && ran_subquery), "cached with a subquery: {sql}");
            plans += usize::from(cached);
        }
    }
    // Like the differential, this is only worth something over plans that
    // exist (a `sys.*` query, say, is never cached).
    assert!(plans * 10 >= statements * 9, "{plans} of {statements}");
}

// ---------------------------------------------------------------------
// (ii) Positions the planner consumes stay pinned
// ---------------------------------------------------------------------

const NUMBERS: &str = "CREATE TABLE t (n INTEGER PRIMARY KEY, g INTEGER, s TEXT, w REAL);
     INSERT INTO t VALUES
        (1, 1, 'a', 0.5), (2, 1, 'b', 1.5), (3, 2, 'c', 2.5), (4, 2, 'd', 3.5),
        (5, 3, 'e', 4.5), (6, 3, 'f', 5.5), (7, 1, 'g', 6.5), (8, 2, 'h', 7.5);";

#[test]
fn pinned_positions_answer_like_the_uncached_engine() {
    let (cached, fresh) = pair(EngineConfig::default(), NUMBERS);
    let groups: &[&[&str]] = &[
        &[
            "SELECT n FROM t ORDER BY n LIMIT 5",
            "SELECT n FROM t ORDER BY n LIMIT 7",
            "SELECT n FROM t ORDER BY n LIMIT 5 OFFSET 2",
        ],
        &[
            "SELECT g, n FROM t ORDER BY 1, 2",
            "SELECT g, n FROM t ORDER BY 2, 1",
            "SELECT g, n FROM t ORDER BY 3, 1",
        ],
        &[
            "SELECT 1, COUNT(*) FROM t GROUP BY 1",
            "SELECT 2, COUNT(*) FROM t GROUP BY 2",
            "SELECT 2, COUNT(*) FROM t GROUP BY 3",
        ],
        &[
            "SELECT g + 1, COUNT(*) FROM t GROUP BY g + 1 ORDER BY g + 1",
            "SELECT g + 2, COUNT(*) FROM t GROUP BY g + 2 ORDER BY g + 2",
            "SELECT g + 1, COUNT(*) FROM t GROUP BY g + 2 ORDER BY g + 1",
        ],
        &[
            "SELECT 1",
            "SELECT 2",
            "SELECT 1, 'x' AS s",
            "SELECT 3, 'y' AS s",
        ],
        &[
            "SELECT n FROM t WHERE n > 2*3",
            "SELECT n FROM t WHERE n > 2*1",
            "SELECT n FROM t WHERE n > 1/0",
            "SELECT n FROM t WHERE n > 4/2",
        ],
        &[
            "SELECT n FROM t WHERE w > (SELECT MIN(w) FROM t WHERE n > 2) AND n < 8",
            "SELECT n FROM t WHERE w > (SELECT MIN(w) FROM t WHERE n > 5) AND n < 7",
        ],
        &[
            "SELECT g, SUM(w * 2) FROM t GROUP BY g HAVING SUM(w * 2) > 9 ORDER BY SUM(w * 2) DESC",
            "SELECT g, SUM(w * 3) FROM t GROUP BY g HAVING SUM(w * 2) > 20 ORDER BY SUM(w * 1)",
        ],
        &[
            "SELECT n, ROW_NUMBER() OVER (ORDER BY n % 2, n) AS r FROM t \
             ORDER BY ROW_NUMBER() OVER (ORDER BY n % 2, n)",
            "SELECT n, ROW_NUMBER() OVER (ORDER BY n % 3, n) AS r FROM t \
             ORDER BY ROW_NUMBER() OVER (ORDER BY n % 3, n)",
        ],
    ];
    for group in groups {
        // Twice round: the second pass meets whatever the first one cached.
        for sql in group.iter().chain(group.iter()) {
            let _ = agree(&cached, &fresh, sql);
        }
    }
    assert!(
        metric(&cached, "plan_cache.pinned_mismatches") > 0.0,
        "texts that differ in a pinned literal must be told apart on lookup"
    );
    // `SELECT 1` and `SELECT 2` name their column alike, so they may share.
    assert_eq!(cached.query("SELECT 2").unwrap().columns, vec!["col0"]);
}

#[test]
fn a_pinned_literal_is_compared_not_bound() {
    let (cached, _) = pair(EngineConfig::default(), NUMBERS);
    cached.reset_plan_cache_stats();
    let limit = |k: usize, n: i64| {
        let rows = cached
            .query(&format!(
                "SELECT n FROM t WHERE n > {n} ORDER BY n LIMIT {k}"
            ))
            .unwrap()
            .rows;
        assert_eq!(rows.len(), k);
        assert_eq!(rows[0][0], Value::Int(n + 1));
    };
    limit(2, 1); // plans
    limit(2, 3); // same LIMIT, other lifted literal: a hit
    limit(3, 3); // other LIMIT: the entry is for LIMIT 2
    limit(3, 1);
    assert_eq!(cached.plan_cache_stats(), (2, 2));
    assert_eq!(metric(&cached, "plan_cache.lifted_hits"), 2.0);
    assert_eq!(metric(&cached, "plan_cache.pinned_mismatches"), 1.0);
}

// ---------------------------------------------------------------------
// (iii) Type classes and literal spellings
// ---------------------------------------------------------------------

#[test]
fn type_classes_do_not_share_an_entry() {
    let (cached, fresh) = pair(EngineConfig::default(), NUMBERS);
    let entries = metric(&cached, "plan_cache.entries");
    for sql in [
        "SELECT s FROM t WHERE g = 1",
        "SELECT s FROM t WHERE g = 1.0",
        "SELECT s FROM t WHERE g = '1'",
    ] {
        let _ = agree(&cached, &fresh, sql);
    }
    assert_eq!(metric(&cached, "plan_cache.entries"), entries + 3.0);
    // A TEXT operand in arithmetic is the analyzer's to reject, whatever an
    // INTEGER one of the same shape did before it.
    agree(&cached, &fresh, "SELECT n + 1 FROM t WHERE n = 2").unwrap();
    let err = agree(&cached, &fresh, "SELECT n + 'x' FROM t WHERE n = 2").unwrap_err();
    assert!(matches!(err, EngineError::Sema { .. }), "{err:?}");
}

#[test]
fn literal_spellings_bind_the_value_they_spell() {
    let (cached, fresh) = pair(
        EngineConfig::default(),
        "CREATE TABLE q (s TEXT, n INTEGER, w REAL);
         INSERT INTO q VALUES ('it''s', -3, -0.5), ('its', 3, 0.5), ('', 0, 0.0), (NULL, NULL, NULL);",
    );
    for sql in [
        "SELECT n FROM q WHERE s = 'its'",
        "SELECT n FROM q WHERE s = 'it''s'",
        "SELECT n FROM q WHERE s = ''",
        "SELECT s FROM q WHERE n = 3",
        "SELECT s FROM q WHERE n = -3",
        "SELECT s FROM q WHERE n = - 3",
        "SELECT s FROM q WHERE n > -1 AND w < 1e0",
        "SELECT s FROM q WHERE w = -0.5",
        "SELECT s FROM q WHERE w = -.5",
        "SELECT s FROM q WHERE n = 9223372036854775807",
        "SELECT s FROM q WHERE n = 9223372036854775808",
        "SELECT s, NULL, TRUE FROM q WHERE n IS NULL",
        "SELECT s, NULL, FALSE FROM q WHERE n IS NOT NULL AND TRUE",
        "SELECT s FROM q WHERE s = NULL",
        "SELECT s FROM q WHERE s LIKE 'it%'",
        "SELECT s FROM q WHERE s LIKE '%s'",
        "SELECT s FROM q WHERE n IN (3, -3)",
        "SELECT s FROM q WHERE n IN (0, 3)",
        "SELECT s FROM q WHERE n BETWEEN -3 AND 0",
        "SELECT CASE WHEN n > 0 THEN 'pos' ELSE 'neg' END FROM q WHERE n = 3 -- trailing 'x'",
        "SELECT CASE WHEN n > 1 THEN 'big' ELSE 'small' END FROM q WHERE n = 0 /* 'y' */",
    ] {
        agree(&cached, &fresh, sql).unwrap();
        agree(&cached, &fresh, sql).unwrap();
    }
    assert!(metric(&cached, "plan_cache.lifted_hits") > 0.0);
}

// ---------------------------------------------------------------------
// (iv) The cache protocol still holds for lifted entries
// ---------------------------------------------------------------------

#[test]
fn a_catalog_write_invalidates_lifted_templates() {
    let (cached, fresh) = pair(EngineConfig::default(), NUMBERS);
    cached.reset_plan_cache_stats();
    let count = |n: i64| format!("SELECT COUNT(*) FROM t WHERE n > {n}");
    assert_eq!(
        agree(&cached, &fresh, &count(6)).unwrap().rows[0][0],
        Value::Int(2)
    );
    assert_eq!(
        agree(&cached, &fresh, &count(7)).unwrap().rows[0][0],
        Value::Int(1)
    );
    assert_eq!(cached.plan_cache_stats(), (1, 1));
    for db in [&cached, &fresh] {
        db.execute("INSERT INTO t VALUES (9, 1, 'i', 8.5)").unwrap();
    }
    cached.reset_plan_cache_stats(); // the INSERT's own lookup
                                     // The template names `t`: the write keeps it, and its run binds the
                                     // new rows.
    assert_eq!(
        agree(&cached, &fresh, &count(7)).unwrap().rows[0][0],
        Value::Int(2)
    );
    assert_eq!(cached.plan_cache_stats(), (1, 0));
    // DDL that changes `t`'s definition invalidates it: the next text of
    // the shape replans, and the one after binds the new plan.
    for db in [&cached, &fresh] {
        db.execute("CREATE INDEX t_n ON t (n)").unwrap();
    }
    cached.reset_plan_cache_stats();
    assert_eq!(
        agree(&cached, &fresh, &count(7)).unwrap().rows[0][0],
        Value::Int(2)
    );
    assert_eq!(cached.plan_cache_stats(), (0, 1));
    assert_eq!(
        agree(&cached, &fresh, &count(8)).unwrap().rows[0][0],
        Value::Int(1)
    );
    assert_eq!(cached.plan_cache_stats(), (1, 1));
}

#[test]
fn a_corrupted_template_is_found_and_rejected_for_every_text_of_its_shape() {
    let db = Database::with_config(EngineConfig::default().with_verify_plans(true));
    db.execute_script(NUMBERS).unwrap();
    let sql = |n: i64| format!("SELECT n, s FROM t WHERE w > {n}.5");
    assert_eq!(db.query(&sql(5)).unwrap().rows.len(), 2);
    // The seam finds the entry through any text of the shape.
    let found = db.mutate_cached_plan(&sql(0), &mut |plan| {
        if let PhysPlan::Project { exprs, .. } = plan {
            exprs.truncate(1);
        }
    });
    assert!(found, "one entry serves the whole shape");
    for n in [5, 0] {
        let err = db.query(&sql(n)).unwrap_err();
        assert!(matches!(err, EngineError::Verify { .. }), "{err:?}");
        assert!(err.to_string().contains("[schema]"), "{err}");
    }
    assert!(!db.mutate_cached_plan("SELECT n, s FROM t WHERE w > 5", &mut |_| {}));
}

#[test]
fn lifted_hits_are_logged_as_written() {
    let db = Database::new();
    db.execute_script(NUMBERS).unwrap();
    let texts = ["SELECT s FROM t WHERE n = 4", "SELECT s FROM t WHERE n = 6"];
    for sql in texts {
        db.query(sql).unwrap();
    }
    let log = db.telemetry().query_log();
    let entry = |sql: &str| log.iter().find(|e| e.sql == sql).expect("logged verbatim");
    assert!(!entry(texts[0]).cache_hit);
    assert!(entry(texts[1]).cache_hit);
}
