//! A CTE that several references read runs once per statement: the planner
//! makes it a `Shared` subplan (`EXPLAIN`: `Shared cte=<name> refs=<k>`),
//! the first reference to run holds its rows and the others read them. Each
//! test states the answer with sharing ruled out — the same statement with
//! every reference written out as a derived table, on `profile_a`, serially
//! — and requires it under `profile_a` and `profile_b` (which shares every
//! CTE, even one read once) at parallelism 1 and 4: same rows, same column
//! names, same error.

use sqlengine::{Database, EngineConfig, EngineError, QueryResult, Value};

/// `t (g, x)`: 1,200 rows, `g` cycling through 12 groups, `x` = 0..1,199.
fn load(config: EngineConfig) -> Database {
    let db = Database::with_config(config);
    db.execute("CREATE TABLE t (g INTEGER, x INTEGER)").unwrap();
    let rows = (0..1200)
        .map(|i| vec![Value::Int(i % 12), Value::Int(i)])
        .collect();
    db.insert_rows("t", rows).unwrap();
    db
}

fn configs() -> Vec<(String, EngineConfig)> {
    let mut out = Vec::new();
    for (name, profile) in [
        ("profile_a", EngineConfig::profile_a()),
        ("profile_b", EngineConfig::profile_b()),
    ] {
        for parallelism in [1, 4] {
            let config = profile
                .with_parallelism(parallelism)
                .with_verify_plans(true);
            out.push((format!("{name} parallelism={parallelism}"), config));
        }
    }
    out
}

fn metric(db: &Database, name: &str) -> f64 {
    let sql = format!("SELECT value FROM sys.metrics WHERE name = '{name}'");
    match db.query_scalar(&sql).unwrap() {
        Value::Float(v) => v,
        other => panic!("{name} = {other:?}"),
    }
}

/// One statement in both spellings: `query` writes each reference as `{c}
/// AS <alias>`, where `{c}` reads `c` of `WITH c AS (body)` or is the
/// derived table `(body)`.
struct Case {
    body: &'static str,
    query: &'static str,
}

impl Case {
    fn shared(&self) -> String {
        format!(
            "WITH c AS ({}) {}",
            self.body,
            self.query.replace("{c}", "c")
        )
    }

    fn inlined(&self) -> String {
        self.query.replace("{c}", &format!("({})", self.body))
    }

    /// Every configuration answers the shared spelling as the inlined one
    /// is answered, and the plan shares `c` among `refs` references.
    fn agree(&self, refs: usize) -> Result<QueryResult, EngineError> {
        let sql = self.shared();
        let plan = load(EngineConfig::profile_a()).explain(&sql).unwrap();
        assert!(
            plan.contains(&format!("Shared cte=c refs={refs}")),
            "{plan}"
        );
        let expected = load(EngineConfig::profile_a()).query(&self.inlined());
        for (name, config) in configs() {
            assert_eq!(load(config).query(&sql), expected, "[{name}] {sql}");
        }
        expected
    }
}

#[test]
fn a_shared_cte_whose_body_raises_fails_alike_everywhere() {
    // Integer division by zero at x = 5.
    let case = Case {
        body: "SELECT g, 10 / (x - 5) AS q FROM t",
        query: "SELECT a.g, b.q FROM {c} AS a, {c} AS b WHERE a.g = b.g AND a.q > 100",
    };
    let err = case.agree(2).unwrap_err();
    assert!(err.to_string().contains("division by zero"), "{err}");
}

/// The reference written first need not run first: a hash join runs its
/// build side before its probe side. Below, each join's build side reads
/// the CTE and keeps one row or none, the probe side reads it again, and a
/// last arm counts all of it — whichever reference runs first fills the
/// slot, and no reader ever sees less than all of it.
#[test]
fn whichever_reference_runs_first_fills_the_slot_for_all_of_them() {
    let case = Case {
        body: "SELECT g, x FROM t WHERE x % 3 = 0",
        query: "SELECT 'top' AS arm, COUNT(*) AS n FROM {c} AS c, \
                    (SELECT g FROM {c} AS c ORDER BY x DESC LIMIT 1) AS top WHERE c.g = top.g \
                UNION ALL SELECT 'none', COUNT(*) FROM {c} AS c, \
                    (SELECT g FROM {c} AS c WHERE x < 0) AS none WHERE c.g = none.g \
                UNION ALL SELECT 'all', COUNT(*) FROM {c} AS c",
    };
    let answer = case.agree(5).unwrap();
    let row = |arm: &str, n| vec![Value::text(arm), Value::Int(n)];
    // x = 1,197 is the top row; its group, 9, holds 100 multiples of three.
    assert_eq!(
        answer.rows,
        vec![row("top", 100), row("none", 0), row("all", 400)]
    );
    // The four references after the first read the held rows.
    let db = load(EngineConfig::profile_a());
    let before = metric(&db, "exec.shared_reuses");
    db.query(&case.shared()).unwrap();
    assert_eq!(metric(&db, "exec.shared_reuses") - before, 4.0);
}

/// A CTE resolves names where it is defined, shared or not: `b` reads the
/// outer `a` although the derived table it is read from defines its own.
#[test]
fn a_shared_cte_keeps_its_lexical_scope() {
    let sql = "WITH a AS (SELECT 1 AS x), b AS (SELECT x FROM a) \
               SELECT d.x AS via_b, e.x AS outer_a, f.x AS inner_a FROM \
               (WITH a AS (SELECT 2 AS x) SELECT x FROM b) AS d, \
               (SELECT x FROM a) AS e, \
               (WITH a AS (SELECT 3 AS x) SELECT x FROM a) AS f";
    let plan = load(EngineConfig::profile_a()).explain(sql).unwrap();
    assert!(plan.contains("Shared cte=a refs=2"), "{plan}");
    for (name, config) in configs() {
        let r = load(config).query(sql).unwrap();
        assert_eq!(r.columns, ["via_b", "outer_a", "inner_a"], "[{name}]");
        let ints = |xs: [i64; 3]| xs.map(Value::Int).to_vec();
        assert_eq!(r.rows, vec![ints([1, 1, 3])], "[{name}]");
    }
}

/// The planner runs an `IN (SELECT …)` body itself, in its own context: a
/// shared CTE read there runs there too, and again for the statement.
#[test]
fn a_shared_cte_read_inside_an_in_subquery_answers_correctly() {
    let case = Case {
        body: "SELECT g, x FROM t WHERE x % 5 = 0",
        query: "SELECT c.g, COUNT(*) AS n FROM {c} AS c \
                WHERE c.g IN (SELECT g FROM {c} AS c WHERE x > 1150) GROUP BY c.g ORDER BY c.g",
    };
    let answer = case.agree(2).unwrap();
    // x = 1,155 … 1,195 step 5 fall in groups 3, 8, 1, 6, 11, 4, 9, 2, 7,
    // and each group holds 20 multiples of five.
    let groups: Vec<i64> = answer
        .rows
        .iter()
        .map(|r| r[0].as_i64().unwrap().unwrap())
        .collect();
    assert_eq!(groups, [1, 2, 3, 4, 6, 7, 8, 9, 11]);
    assert!(answer.rows.iter().all(|r| r[1] == Value::Int(20)));
}
