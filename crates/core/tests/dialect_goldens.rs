//! Golden tests for the generated SQL text, per dialect.
//!
//! These are the portability artifact: the exact statements BornSQL would
//! ship to PostgreSQL, MySQL, and SQLite. The golden strings double as
//! documentation — each one corresponds to a listing in the paper's
//! Section 3 — and pin the generator against accidental drift.

use bornsql::{DataSpec, Dialect, SqlGenerator};
use sqlengine::ast::{Expr, Insert, InsertSource, Statement};
use sqlengine::parser::parse_statement;
use sqlengine::Value;

fn generator(dialect: Dialect) -> SqlGenerator {
    SqlGenerator::new("scopus", dialect, "INTEGER")
}

fn paper_spec() -> DataSpec {
    DataSpec::new("SELECT id as n, 'pubname:' || pubname as j, 1.0 as w FROM publication")
        .with_features("SELECT pubid as n, 'authid:' || authid as j, 1.0 as w FROM pub_author")
        .with_targets("SELECT id as n, asjc / 100 AS k, 1.0 AS w FROM publication")
        .with_items("SELECT id as n FROM publication WHERE id % 10 <= 0")
}

/// `generic_*`: the text `ModelOptions::default()` emits, SQLite's.
#[test]
fn generic_partial_fit_golden() {
    let sql = generator(Dialect::Sqlite).partial_fit(&paper_spec(), 1.0);
    let expected = "INSERT INTO scopus_corpus (j, k, w) WITH \
n_n AS (SELECT id as n FROM publication WHERE id % 10 <= 0), \
x_nj AS (SELECT qx.n AS n, qx.j AS j, qx.w AS w FROM (SELECT id as n, 'pubname:' || pubname as j, 1.0 as w FROM publication) AS qx, n_n WHERE qx.n = n_n.n \
UNION ALL \
SELECT qx.n AS n, qx.j AS j, qx.w AS w FROM (SELECT pubid as n, 'authid:' || authid as j, 1.0 as w FROM pub_author) AS qx, n_n WHERE qx.n = n_n.n), \
y_nk AS (SELECT qy.n AS n, qy.k AS k, qy.w AS w FROM (SELECT id as n, asjc / 100 AS k, 1.0 AS w FROM publication) AS qy, n_n WHERE qy.n = n_n.n), \
xy_njk AS (SELECT x_nj.n AS n, x_nj.j AS j, y_nk.k AS k, x_nj.w * y_nk.w AS w FROM x_nj, y_nk WHERE x_nj.n = y_nk.n), \
xy_n AS (SELECT n, SUM(w) AS w FROM xy_njk GROUP BY n), \
p_jk AS (SELECT xy_njk.j AS j, xy_njk.k AS k, SUM(1.0 * xy_njk.w / xy_n.w) AS w FROM xy_njk, xy_n WHERE xy_njk.n = xy_n.n GROUP BY xy_njk.j, xy_njk.k) \
SELECT j, k, w FROM p_jk \
ON CONFLICT (j, k) DO UPDATE SET w = scopus_corpus.w + excluded.w";
    assert_eq!(sql, expected);
}

#[test]
fn mysql_partial_fit_golden_tail() {
    let sql = generator(Dialect::MySql).partial_fit(&paper_spec(), 1.0);
    assert!(
        sql.ends_with("ON DUPLICATE KEY UPDATE w = scopus_corpus.w + VALUES(w)"),
        "got tail: …{}",
        &sql[sql.len().saturating_sub(80)..]
    );
    assert!(!sql.contains("ON CONFLICT"));
}

#[test]
fn postgres_deploy_golden() {
    let sql = generator(Dialect::Postgres).deploy();
    let expected = "INSERT INTO scopus_weights (j, k, w) WITH \
abh AS (SELECT a, b, h FROM params WHERE model = 'scopus'), \
p_jk AS (SELECT j, k, w FROM scopus_corpus WHERE w > 0.0), \
p_j AS (SELECT j, SUM(w) AS w FROM p_jk GROUP BY j), \
p_k AS (SELECT k, SUM(w) AS w FROM p_jk GROUP BY k), \
w_jk AS (SELECT p_jk.j AS j, p_jk.k AS k, p_jk.w / (POWER(p_k.w, b) * POWER(p_j.w, 1.0 - b)) AS w FROM p_jk, p_j, p_k, abh WHERE p_jk.j = p_j.j AND p_jk.k = p_k.k), \
w_j AS (SELECT j, SUM(w) AS w FROM w_jk GROUP BY j), \
h_jk AS (SELECT w_jk.j AS j, w_jk.k AS k, w_jk.w / w_j.w AS w FROM w_jk, w_j WHERE w_jk.j = w_j.j), \
n_k AS (SELECT COUNT(DISTINCT k) AS n FROM p_jk), \
h_j AS (SELECT h_jk.j AS j, CASE WHEN n_k.n <= 1 THEN 1.0 ELSE CASE WHEN 1.0 + SUM(h_jk.w * LN(h_jk.w)) / LN(n_k.n) < 0.0 THEN 0.0 ELSE 1.0 + SUM(h_jk.w * LN(h_jk.w)) / LN(n_k.n) END END AS w FROM h_jk, n_k GROUP BY h_jk.j, n_k.n), \
hw_jk AS (SELECT w_jk.j AS j, w_jk.k AS k, POWER(h_j.w, h) * POWER(w_jk.w, a) AS w FROM w_jk, h_j, abh WHERE w_jk.j = h_j.j) \
SELECT j, k, w FROM hw_jk";
    assert_eq!(sql, expected);
}

#[test]
fn generic_predict_deployed_golden() {
    let test_spec =
        DataSpec::new("SELECT id as n, 'pubname:' || pubname as j, 1.0 as w FROM publication")
            .with_items("SELECT 13 as n");
    let sql = generator(Dialect::Sqlite).predict(&test_spec, true);
    let expected = "WITH abh AS (SELECT a, b, h FROM params WHERE model = 'scopus'), \
n_n AS (SELECT 13 as n), \
x_nj AS (SELECT qx.n AS n, qx.j AS j, qx.w AS w FROM (SELECT id as n, 'pubname:' || pubname as j, 1.0 as w FROM publication) AS qx, n_n WHERE qx.n = n_n.n), \
hwx_nk AS (SELECT x_nj.n AS n, hw.k AS k, SUM(hw.w * POW(x_nj.w, a)) AS w FROM scopus_weights AS hw, x_nj, abh WHERE hw.j = x_nj.j GROUP BY x_nj.n, hw.k) \
SELECT r_nk.n AS n, r_nk.k AS k FROM (\
SELECT n, k, ROW_NUMBER() OVER (PARTITION BY n ORDER BY w DESC, k ASC) AS r FROM hwx_nk) AS r_nk \
WHERE r_nk.r = 1 ORDER BY n";
    assert_eq!(sql, expected);
}

#[test]
fn all_dialects_render_every_operation() {
    // Smoke test: every operation renders non-empty SQL in every dialect.
    let spec = paper_spec();
    for dialect in Dialect::ALL {
        let g = generator(dialect);
        let statements = [
            g.create_params_table(),
            g.create_corpus_table(),
            g.create_weights_table(),
            g.set_params(0.5, 1.0, 1.0),
            g.partial_fit(&spec, 1.0),
            g.partial_fit(&spec, -1.0),
            g.prune_corpus(),
            g.deploy(),
            g.predict(&spec, true),
            g.predict(&spec, false),
            g.predict_proba(&spec, true),
            g.explain_global(true, Some(10)),
            g.explain_local(&spec, true, Some(10)),
        ];
        for s in &statements {
            assert!(!s.is_empty());
            assert!(!s.contains("{"), "unexpanded template in {dialect:?}: {s}");
        }
    }
}

/// Whether `e` holds a subquery at any depth.
fn holds_subquery(e: &Expr) -> bool {
    let mut found = matches!(
        e,
        Expr::ScalarSubquery(..) | Expr::InSubquery { .. } | Expr::Exists { .. }
    );
    e.for_each_child(&mut |child| found |= holds_subquery(child));
    found
}

/// The engine caches a statement's plan unless planning it runs a subquery
/// (whose result the plan would hold). No statement BornSQL issues, in any
/// dialect, has such a site, so every one of them is served from the plan
/// cache once planned.
#[test]
fn no_statement_runs_a_subquery_while_planning() {
    let spec = paper_spec();
    let items = [Value::Int(3), Value::Int(5)];
    for dialect in Dialect::ALL {
        let g = generator(dialect);
        let statements = [
            g.set_params(0.5, 1.0, 1.0),
            g.get_params(),
            g.partial_fit(&spec, 1.0),
            g.partial_fit(&spec, -1.0),
            g.prune_corpus(),
            g.deploy(),
            g.predict(&spec, true),
            g.predict(&spec, false),
            g.predict_proba(&spec, true),
            g.predict_proba(&spec, false),
            g.predict_batch(&spec, true, &items).unwrap(),
            g.predict_proba_batch(&spec, false, &items).unwrap(),
            g.explain_global(true, Some(10)),
            g.explain_global(false, None),
            g.explain_local(&spec, true, Some(10)),
            g.explain_local(&spec, false, None),
            g.count_corpus_cells(),
            g.count_features(),
            g.count_classes(),
        ];
        for sql in &statements {
            let at_plan_time = match parse_statement(sql).unwrap() {
                Statement::Query(query)
                | Statement::Insert(Insert {
                    source: InsertSource::Query(query),
                    ..
                }) => {
                    let mut found = false;
                    query.for_each_expr(&mut |_, site| found |= site.in_subquery);
                    found
                }
                Statement::Insert(_) => false,
                Statement::Delete { predicate, .. } => predicate.iter().any(holds_subquery),
                other => panic!("{dialect:?} issues {other:?}"),
            };
            assert!(!at_plan_time, "{dialect:?}: {sql}");
        }
    }
}
