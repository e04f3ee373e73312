//! Joins against derived tables: the planner runs an equi-join *below* a
//! derived table's projection when the join keys pass through it, and a hash
//! join probing a bare base-table scan filters the scan by the build side's
//! keys before touching a row. Every test here is differential. The oracle
//! is the same statement with each derived table written as a CTE, run under
//! `EngineConfig::profile_b()` — `materialize_ctes`, so the projection runs
//! in full and the join scans its output — at parallelism 1, without the
//! plan cache.
//! The inlined form must answer the same under every engine configuration:
//! same rows, same column names, same error.
//!
//! An INNER hash join builds on whichever input is estimated smaller, so the
//! order of the FROM items decides which side is hashed: every inner
//! equi-join must answer the same rows, up to order, written either way
//! round. The reference is `profile_c`, whose sort-merge join has no build
//! side to choose.

use sqlengine::{Database, EngineConfig, EngineError, QueryResult, Value};

/// Rows of `fact`: enough for the key filter to prune (not for the executor
/// to fan out: that is the 20,000-row `big` below).
const FACT_ROWS: i64 = 2_600;

/// Load the fixture. `fact.n` cycles through 130 ids (so every id owns ~20
/// rows) with a NULL every 97th row; `fact.tag` is low-cardinality text (a
/// dictionary column) with a NULL every 89th row; `mixed.n` is untyped (only
/// `CREATE TABLE AS` makes such a column) and holds 1, 1.0 and '1', eight
/// times over so that the small key tables are selective against it.
fn load(db: &Database) {
    db.execute_script(
        "CREATE TABLE fact (n INTEGER, tag TEXT, w REAL);
         CREATE TABLE dim (id INTEGER PRIMARY KEY, name TEXT);
         CREATE TABLE keys_i (n INTEGER);
         CREATE TABLE keys_f (n REAL);
         CREATE TABLE keys_t (n TEXT);
         CREATE TABLE empty_k (n INTEGER);
         CREATE TABLE pairs (a INTEGER, b TEXT);
         INSERT INTO keys_i VALUES (3), (7), (7), (NULL), (500), (129);
         INSERT INTO keys_f VALUES (3.0), (7.5), (NULL);
         INSERT INTO keys_t VALUES ('3'), ('t1'), ('t4'), ('nope'), (NULL);
         INSERT INTO pairs VALUES (3, 't3'), (3, 't5'), (7, 't0'), (8, NULL), (NULL, 't1');
         CREATE TABLE mixed AS SELECT v.n AS n, v.tag AS tag FROM (
             SELECT 1 AS n, 'int' AS tag UNION ALL SELECT 1.0, 'float' UNION ALL SELECT '1', 'text'
             UNION ALL SELECT 2, 'two' UNION ALL SELECT NULL, 'null' UNION ALL SELECT 3, 'three'
             UNION ALL SELECT 3.5, 'half') AS v,
             (SELECT 1 AS r UNION ALL SELECT 2 UNION ALL SELECT 3 UNION ALL SELECT 4 UNION ALL
              SELECT 5 UNION ALL SELECT 6 UNION ALL SELECT 7 UNION ALL SELECT 8) AS copies;",
    )
    .unwrap();
    let fact = (0..FACT_ROWS)
        .map(|i| {
            vec![
                if i % 97 == 0 {
                    Value::Null
                } else {
                    Value::Int(i % 130)
                },
                if i % 89 == 0 {
                    Value::Null
                } else {
                    Value::text(format!("t{}", i % 7))
                },
                Value::Float(1.0 + (i % 5) as f64 * 0.5),
            ]
        })
        .collect();
    db.insert_rows("fact", fact).unwrap();
    let dim = (1..=200)
        .map(|i| vec![Value::Int(i), Value::text(format!("name{i}"))])
        .collect();
    db.insert_rows("dim", dim).unwrap();
}

/// One statement in both spellings. `query` names its derived tables as
/// `{d}` / `{e}`; inlined they read `(body) AS d`, for the oracle they are
/// CTEs of the same bodies.
struct Case {
    d: &'static str,
    e: Option<&'static str>,
    query: &'static str,
}

impl Case {
    fn inlined(&self) -> String {
        let sql = self.query.replace("{d}", &format!("({}) AS d", self.d));
        match self.e {
            Some(e) => sql.replace("{e}", &format!("({e}) AS e")),
            None => sql,
        }
    }

    fn as_ctes(&self) -> String {
        let mut with = format!("WITH d AS ({})", self.d);
        if let Some(e) = self.e {
            with.push_str(&format!(", e AS ({e})"));
        }
        format!(
            "{with} {}",
            self.query.replace("{d}", "d").replace("{e}", "e")
        )
    }
}

const fn case(d: &'static str, query: &'static str) -> Case {
    Case { d, e: None, query }
}

/// The arm shape: a prefixed feature column and a literal weight beside a
/// pass-through key.
const ARM: &str = "SELECT n, 'tag:' || tag AS j, 1.0 AS w FROM fact";

const CASES: &[Case] = &[
    // Computed non-key columns, pass-through key; the derived table as the
    // left comma item, the right one, and under JOIN … ON.
    case(
        ARM,
        "SELECT d.n, d.j, d.w FROM {d}, keys_i WHERE d.n = keys_i.n ORDER BY 1, 2",
    ),
    case(
        ARM,
        "SELECT keys_i.n AS k, d.j, d.w FROM keys_i, {d} WHERE keys_i.n = d.n ORDER BY 1, 2",
    ),
    case(
        ARM,
        "SELECT d.n, d.j FROM {d} JOIN keys_i ON d.n = keys_i.n ORDER BY 1, 2",
    ),
    case(
        ARM,
        "SELECT d.n, d.j FROM keys_i JOIN {d} ON keys_i.n = d.n ORDER BY 1, 2",
    ),
    // A residual keeps the projection where it is.
    case(
        ARM,
        "SELECT d.n, d.j FROM {d} JOIN keys_i ON d.n = keys_i.n AND d.j <> 'tag:t3' ORDER BY 1, 2",
    ),
    // The statement bornsql emits for one arm and one item.
    Case {
        d: ARM,
        e: Some("SELECT 7 AS n"),
        query: "SELECT d.n AS n, d.j AS j, d.w AS w FROM {d}, {e} WHERE d.n = e.n ORDER BY 1, 2",
    },
    // A CASE and a comparison in the projection; a reordered key column.
    case(
        "SELECT CASE WHEN w > 2.0 THEN 'hi' ELSE 'lo' END AS band, w >= 2.0 AS big, n FROM fact",
        "SELECT d.band, d.big, d.n FROM {d}, keys_i WHERE d.n = keys_i.n ORDER BY 3, 1, 2",
    ),
    // A column-only projection that hides the scan.
    case(
        "SELECT tag AS t, n FROM fact",
        "SELECT d.t, d.n FROM {d}, keys_i WHERE d.n = keys_i.n ORDER BY 2, 1",
    ),
    // A key that is itself computed: not rewritten.
    case(
        "SELECT n + 1 AS n, 'tag:' || tag AS j FROM fact",
        "SELECT d.n, d.j FROM {d}, keys_i WHERE d.n = keys_i.n ORDER BY 1, 2",
    ),
    // Two-column keys, NULLs on both sides.
    case(
        "SELECT n, tag AS t, 'tag:' || tag AS j FROM fact",
        "SELECT d.n, d.t, d.j FROM {d}, pairs WHERE d.n = pairs.a AND d.t = pairs.b ORDER BY 1, 2",
    ),
    // A text key: the dictionary column against text keys.
    case(
        "SELECT tag AS t, n, 'n:' || n AS j FROM fact",
        "SELECT d.t, d.n, d.j FROM {d}, keys_t WHERE d.t = keys_t.n ORDER BY 1, 2",
    ),
    // An Int column probed by Float and by Text keys: 3 = 3.0, 3 <> '3'.
    case(
        ARM,
        "SELECT d.n, d.j FROM {d}, keys_f WHERE d.n = keys_f.n ORDER BY 1, 2",
    ),
    case(
        ARM,
        "SELECT d.n, d.j FROM {d}, keys_t WHERE d.n = keys_t.n ORDER BY 1, 2",
    ),
    // A mixed-variant column on the probe side, against each key type.
    case(
        "SELECT n, 'is:' || tag AS j FROM mixed",
        "SELECT d.n, d.j FROM {d}, keys_i WHERE d.n = keys_i.n ORDER BY 2",
    ),
    case(
        "SELECT n, 'is:' || tag AS j FROM mixed",
        "SELECT d.n, d.j FROM {d}, keys_f WHERE d.n = keys_f.n ORDER BY 2",
    ),
    case(
        "SELECT n, 'is:' || tag AS j FROM mixed",
        "SELECT d.j, m.tag FROM {d}, mixed AS m WHERE d.n = m.n ORDER BY 1, 2",
    ),
    // An empty build side; an empty probe side.
    case(
        ARM,
        "SELECT d.n, d.j FROM {d}, empty_k WHERE d.n = empty_k.n ORDER BY 1, 2",
    ),
    case(
        "SELECT n, 'none' AS j FROM empty_k",
        "SELECT d.n, d.j FROM {d}, keys_i WHERE d.n = keys_i.n ORDER BY 1, 2",
    ),
    // A derived table with its own WHERE.
    case(
        "SELECT n, 'tag:' || tag AS j FROM fact WHERE w > 1.5 AND tag <> 't2'",
        "SELECT d.n, d.j FROM {d}, keys_i WHERE d.n = keys_i.n ORDER BY 1, 2",
    ),
    // Derived tables on both sides.
    Case {
        d: ARM,
        e: Some("SELECT id AS n, 'name:' || name AS label FROM dim WHERE id <= 9"),
        query: "SELECT d.n, d.j, e.label FROM {d}, {e} WHERE d.n = e.n ORDER BY 1, 2",
    },
    // An indexed table under the projection: the primary key is probed.
    Case {
        d: "SELECT id AS n, 'name:' || name AS j, 1.0 AS w FROM dim",
        e: Some("SELECT 42 AS n UNION ALL SELECT 43 AS n UNION ALL SELECT 999 AS n"),
        query: "SELECT d.n, d.j, d.w FROM {d}, {e} WHERE d.n = e.n ORDER BY 1",
    },
    // LEFT JOIN, the derived table on the preserved side: unmatched rows
    // keep their computed columns.
    case(
        "SELECT n, 'tag:' || tag AS j, 1.0 AS w FROM fact WHERE n < 12",
        "SELECT d.n, d.j, d.w, keys_i.n AS k FROM {d} LEFT JOIN keys_i ON d.n = keys_i.n \
         ORDER BY 1, 2, 4",
    ),
    // … and on the null-supplying side: an unmatched key sees NULL, not 1.0.
    case(
        ARM,
        "SELECT keys_i.n AS k, d.j, d.w FROM keys_i LEFT JOIN {d} ON keys_i.n = d.n ORDER BY 1, 2",
    ),
    // A projection that raises on a row the join would have dropped must
    // still raise: integer division by zero at n = 5, a failing CAST.
    case(
        "SELECT n, 10 / (n - 5) AS q FROM fact",
        "SELECT d.n, d.q FROM {d}, keys_i WHERE d.n = keys_i.n ORDER BY 1, 2",
    ),
    case(
        "SELECT n, CAST(tag AS INTEGER) AS q FROM fact",
        "SELECT d.n, d.q FROM {d}, keys_i WHERE d.n = keys_i.n ORDER BY 1, 2",
    ),
    // … including when only the enclosing SELECT list drops it.
    case(
        "SELECT n, 'tag:' || tag AS j, 10 / (n - 5) AS q FROM fact",
        "SELECT x.n, x.j FROM (SELECT d.n AS n, d.j AS j, d.q AS q FROM {d}, keys_i \
         WHERE d.n = keys_i.n) AS x ORDER BY 1, 2",
    ),
];

/// The oracle: derived tables as materialized CTEs, serial, planned afresh.
fn oracle() -> Database {
    let db = Database::with_config(
        EngineConfig::profile_b()
            .with_parallelism(1)
            .with_plan_cache(false)
            .with_verify_plans(true),
    );
    load(&db);
    db
}

/// Every engine configuration the inlined form must agree under.
fn configs() -> Vec<(String, EngineConfig)> {
    let mut out = Vec::new();
    for (profile, base) in [
        ("hash", EngineConfig::profile_a()),
        ("sort-merge", EngineConfig::profile_c()),
    ] {
        for parallelism in [1, 4] {
            for vectorized in [true, false] {
                for indexes in [true, false] {
                    for cache in [true, false] {
                        out.push((
                            format!(
                                "{profile} parallelism={parallelism} vectorized={vectorized} \
                                 indexes={indexes} cache={cache}"
                            ),
                            base.with_parallelism(parallelism)
                                .with_vectorized(vectorized)
                                .with_index_scans(indexes)
                                .with_plan_cache(cache)
                                .with_verify_plans(true),
                        ));
                    }
                }
            }
        }
    }
    out
}

type Answer = Result<QueryResult, EngineError>;

#[test]
fn inlined_derived_tables_answer_like_materialized_ctes() {
    let oracle = oracle();
    let expected: Vec<Answer> = CASES.iter().map(|c| oracle.query(&c.as_ctes())).collect();
    // The corpus holds what it claims to: rows, empty results and errors.
    let errors = expected.iter().filter(|r| r.is_err()).count();
    assert_eq!(errors, 3, "the three raising projections");
    assert!(expected
        .iter()
        .any(|r| r.as_ref().is_ok_and(|q| q.rows.len() > 100)));

    for (name, config) in configs() {
        let db = Database::with_config(config);
        load(&db);
        for (case, want) in CASES.iter().zip(&expected) {
            let sql = case.inlined();
            // Twice: with the plan cache on, a miss and then a hit.
            for run in 0..2 {
                assert_eq!(&db.query(&sql), want, "[{name}] run {run}: {sql}");
            }
        }
    }
}

/// A derived table over 20,000 rows joined with `dim` and grouped: the key
/// filter keeps every row whose id `dim` holds — past the executor's fan-out
/// threshold — so at parallelism 4 the probe runs in the group-by's
/// pipeline over morsels (`EXPLAIN ANALYZE` says `workers=` on the join),
/// and the inlined form answers like the oracle in both modes.
#[test]
fn a_probe_past_the_fan_out_threshold_fans_out_and_answers_the_same() {
    let add_big = |db: &Database| {
        db.execute("CREATE TABLE big (n INTEGER, tag TEXT, w REAL)")
            .unwrap();
        let rows = (0..20_000).map(|i| {
            let tag = Value::text(format!("t{}", i % 7));
            vec![
                Value::Int(i % 130),
                tag,
                Value::Float(1.0 + (i % 5) as f64 * 0.5),
            ]
        });
        db.insert_rows("big", rows.collect()).unwrap();
    };
    let case = Case {
        d: "SELECT n, 'tag:' || tag AS j, w FROM big",
        e: None,
        query: "SELECT d.j, dim.name, COUNT(*) AS c, SUM(d.w) AS s FROM {d}, dim \
                WHERE d.n = dim.id GROUP BY d.j, dim.name ORDER BY 1, 2",
    };
    let oracle = oracle();
    add_big(&oracle);
    let want = oracle.query(&case.as_ctes()).unwrap();
    let joined: i64 = want
        .rows
        .iter()
        .map(|r| r[2].as_i64().unwrap().unwrap())
        .sum();
    assert!(joined > 19_000, "{joined} rows joined");
    for vectorized in [true, false] {
        let db = Database::with_config(
            EngineConfig::profile_a()
                .with_parallelism(4)
                .with_vectorized(vectorized)
                .with_verify_plans(true),
        );
        load(&db);
        add_big(&db);
        assert_eq!(
            db.query(&case.inlined()).unwrap(),
            want,
            "vectorized={vectorized}"
        );
        let analyzed = db.explain_analyze(&case.inlined()).unwrap();
        let join = analyzed.lines().find(|l| l.contains("HashJoin"));
        assert!(join.is_some_and(|l| l.contains("workers=4")), "{analyzed}");
    }
}

/// `?` parameters and lifted literals on the build side: one item as
/// `SELECT ? AS n` with an Int, a Float and a Text value against the Int
/// column, and a 64-arm `UNION ALL` of literals.
#[test]
fn parameters_and_literal_batches_on_the_build_side() {
    let oracle = oracle();
    let one = Case {
        d: ARM,
        e: Some("SELECT ? AS n"),
        query: "SELECT d.n AS n, d.j AS j, d.w AS w FROM {d}, {e} WHERE d.n = e.n ORDER BY 1, 2",
    };
    let batch_arms: Vec<String> = (0..64).map(|i| format!("SELECT {} AS n", i * 3)).collect();
    let batch = |first: &str| {
        format!(
            "SELECT d.n AS n, d.j AS j FROM ({ARM}) AS d, ({first} UNION ALL {}) AS k \
             WHERE d.n = k.n ORDER BY 1, 2",
            batch_arms[1..].join(" UNION ALL ")
        )
    };
    let batch_oracle = |first: &str| {
        format!(
            "WITH d AS ({ARM}) SELECT d.n AS n, d.j AS j FROM d, ({first} UNION ALL {}) AS k \
             WHERE d.n = k.n ORDER BY 1, 2",
            batch_arms[1..].join(" UNION ALL ")
        )
    };
    let items = [
        Value::Int(7),
        Value::Int(8),
        Value::Float(7.0),
        Value::Float(7.5),
        Value::text("7"),
        Value::Null,
    ];
    for (name, config) in configs() {
        let db = Database::with_config(config);
        load(&db);
        for item in &items {
            let params = std::slice::from_ref(item);
            let want = oracle.query_with(&one.as_ctes(), params);
            assert_eq!(
                db.query_with(&one.inlined(), params),
                want,
                "[{name}] ? = {item:?}"
            );
            if matches!(item, Value::Int(7)) {
                assert_eq!(want.unwrap().rows.len(), 20, "item 7 owns 20 rows");
            }
        }
        // Two literal assignments of one shape: the second is a lifted hit.
        for first in ["SELECT 0 AS n", "SELECT 1 AS n"] {
            assert_eq!(
                db.query(&batch(first)),
                oracle.query(&batch_oracle(first)),
                "[{name}] batch starting {first}"
            );
        }
    }
}

/// A table written between two runs of a cached plan: the second run must
/// see the new rows (a fresh derived-index slot), on every configuration.
#[test]
fn a_write_between_two_runs_is_seen() {
    let case = &CASES[0];
    for (name, config) in configs() {
        let oracle = oracle();
        let db = Database::with_config(config);
        load(&db);
        assert_eq!(
            db.query(&case.inlined()),
            oracle.query(&case.as_ctes()),
            "[{name}] before"
        );
        for target in [&db, &oracle] {
            target
                .execute(
                    "INSERT INTO fact VALUES (3, 'fresh', 9.0), (500, 'far', 1.0), (4, 'no', 1.0)",
                )
                .unwrap();
            target
                .execute("DELETE FROM fact WHERE n = 7 AND tag = 't1'")
                .unwrap();
        }
        let after = db.query(&case.inlined());
        assert_eq!(after, oracle.query(&case.as_ctes()), "[{name}] after");
        let rows = after.unwrap().rows;
        assert!(rows.contains(&vec![
            Value::Int(3),
            Value::text("tag:fresh"),
            Value::Float(1.0)
        ]));
        assert!(rows.contains(&vec![
            Value::Int(500),
            Value::text("tag:far"),
            Value::Float(1.0)
        ]));
    }
}

/// The rewrite fires where it should and nowhere else, and `EXPLAIN` says
/// which way each hash join reads the table it probes.
#[test]
fn explain_shows_where_the_join_runs() {
    let db = Database::with_config(EngineConfig::default().with_verify_plans(true));
    load(&db);
    let plan = |i: usize| db.explain(&CASES[i].inlined()).unwrap();
    // Whether some projection runs below (is indented deeper than) the join.
    let projects_below_join = |plan: &str| -> bool {
        let indent = |l: &str| l.len() - l.trim_start().len();
        let join = plan
            .lines()
            .find(|l| l.contains("Join ["))
            .unwrap_or_else(|| panic!("no join in:\n{plan}"));
        plan.lines()
            .any(|l| l.trim_start().starts_with("Project") && indent(l) > indent(join))
    };

    // Pass-through key, total expressions: the projection sits above the
    // join, which filters the bare scan by the build side's keys.
    let lifted = plan(0);
    assert!(!projects_below_join(&lifted), "{lifted}");
    assert!(
        lifted.contains("HashJoin [Inner, 1 keys, build=right] probe=keyset(index)"),
        "{lifted}"
    );
    assert!(lifted.contains("Scan fact [3 cols]"), "{lifted}");
    // The same join with the derived table as the right FROM item builds on
    // the small left input and filters the scan it probes, now the right.
    let flipped = plan(1);
    assert!(!projects_below_join(&flipped), "{flipped}");
    assert!(
        flipped.contains("HashJoin [Inner, 1 keys, build=left] probe=keyset(index)"),
        "{flipped}"
    );

    // Two keys: still lifted, probed row by row.
    let two_keys = plan(9);
    assert!(
        two_keys.contains("HashJoin [Inner, 2 keys, build=right] probe=keyset(row)"),
        "{two_keys}"
    );

    // The indexed table under the projection is probed through its key.
    let indexed = plan(20);
    assert!(
        indexed.contains("IndexNestedLoopJoin") && indexed.contains("IndexScan dim.pk (probed)"),
        "{indexed}"
    );

    // Not rewritten: a residual, a computed key, the null-supplying side of
    // a LEFT JOIN, and two projections that can raise.
    for i in [4, 8, 22, 23, 24] {
        let kept = plan(i);
        assert!(
            projects_below_join(&kept),
            "case {i} should keep its projection below the join:\n{kept}"
        );
    }

    // Without derived indexes the same join reads the scan row by row; a
    // sort-merge join has no key filter to name.
    let row_db = Database::with_config(EngineConfig::default().with_vectorized(false));
    load(&row_db);
    let row_plan = row_db.explain(&CASES[0].inlined()).unwrap();
    assert!(row_plan.contains("probe=keyset(row)"), "{row_plan}");
    let merge_db = Database::with_config(EngineConfig::profile_c());
    load(&merge_db);
    let merge_plan = merge_db.explain(&CASES[0].inlined()).unwrap();
    assert!(
        merge_plan.contains("SortMergeJoin [Inner, 1 keys]") && !merge_plan.contains("probe="),
        "{merge_plan}"
    );
}

/// An inner equi-join over FROM items that may be written in either order.
struct Swap {
    with: &'static str,
    cols: &'static str,
    items: &'static [&'static str],
    on: &'static str,
    /// `a JOIN b ON …` (a non-key conjunct stays the join's residual)
    /// rather than `a, b WHERE …`.
    join_on: bool,
}

impl Swap {
    fn sql(&self, reversed: bool) -> String {
        let mut items = self.items.to_vec();
        if reversed {
            items.reverse();
        }
        let (with, cols, on) = (self.with, self.cols, self.on);
        match self.join_on {
            true => format!("{with} SELECT {cols} FROM {} ON {on}", items.join(" JOIN ")),
            false => format!("{with} SELECT {cols} FROM {} WHERE {on}", items.join(", ")),
        }
    }
}

const fn swap(cols: &'static str, items: &'static [&'static str], on: &'static str) -> Swap {
    Swap {
        with: "",
        cols,
        items,
        on,
        join_on: false,
    }
}

const SWAPS: &[Swap] = &[
    // NULL keys on both sides, a duplicate key on the small one.
    swap("f.n, f.tag, k.n", &["fact f", "keys_i k"], "f.n = k.n"),
    Swap {
        join_on: true,
        ..swap("f.n, f.tag, k.n", &["fact f", "keys_i k"], "f.n = k.n")
    },
    // Int keys against Float ones: 7 = 7.0, 3 = 3.0; and a mixed column.
    swap(
        "f.n, f.w, k.n",
        &[
            "fact f",
            "(SELECT 7.0 AS n UNION ALL SELECT 3 UNION ALL SELECT 8.5) AS k",
        ],
        "f.n = k.n",
    ),
    swap("m.n, m.tag, k.n", &["mixed m", "keys_f k"], "m.n = k.n"),
    // A residual beside the key, and two keys.
    Swap {
        join_on: true,
        ..swap(
            "f.n, f.tag, p.b",
            &["fact f", "pairs p"],
            "f.n = p.a AND f.tag <> p.b",
        )
    },
    swap(
        "f.n, f.w, p.b",
        &["fact f", "pairs p"],
        "f.n = p.a AND f.tag = p.b",
    ),
    // An empty build side.
    swap("f.n, e.n", &["fact f", "empty_k e"], "f.n = e.n"),
    // A derived table whose projection the join may run below.
    swap(
        "d.n, d.j, k.n",
        &["(SELECT n, 'tag:' || tag AS j FROM fact) AS d", "keys_i k"],
        "d.n = k.n",
    ),
    // A CTE read twice: reversed, its first reference to run is the build
    // side on the left, and the second reads the held rows.
    Swap {
        with: "WITH c AS (SELECT n FROM keys_i WHERE n < 200)",
        ..swap(
            "a.n, f.tag, b.n",
            &["fact f", "c a", "c b"],
            "a.n = f.n AND b.n = f.n",
        )
    },
    // Three items, one of them indexed.
    swap(
        "k.n, d.name, f.w",
        &["keys_i k", "dim d", "fact f"],
        "k.n = d.id AND d.id = f.n",
    ),
];

/// Rows in a canonical order: a join promises none without `ORDER BY`.
fn canonical(answer: Answer) -> Result<Vec<String>, EngineError> {
    answer.map(|q| {
        let mut rows: Vec<String> = q.rows.iter().map(|r| format!("{r:?}")).collect();
        rows.sort();
        rows
    })
}

#[test]
fn from_order_never_changes_the_answer() {
    let reference = Database::with_config(EngineConfig::profile_c().with_verify_plans(true));
    load(&reference);
    let expected: Vec<_> = SWAPS
        .iter()
        .map(|s| canonical(reference.query(&s.sql(false))))
        .collect();
    assert!(expected.iter().all(Result::is_ok), "{expected:?}");
    assert_eq!(
        expected.iter().flatten().filter(|r| r.is_empty()).count(),
        1,
        "the empty build side"
    );

    for (profile, base) in [
        ("hash", EngineConfig::profile_a()),
        ("sort-merge", EngineConfig::profile_c()),
    ] {
        for parallelism in [1, 4] {
            for vectorized in [true, false] {
                for indexes in [true, false] {
                    let name = format!(
                        "{profile} parallelism={parallelism} vectorized={vectorized} \
                         indexes={indexes}"
                    );
                    let db = Database::with_config(
                        base.with_parallelism(parallelism)
                            .with_vectorized(vectorized)
                            .with_index_scans(indexes)
                            .with_verify_plans(true),
                    );
                    load(&db);
                    for (swap, want) in SWAPS.iter().zip(&expected) {
                        for reversed in [false, true] {
                            let sql = swap.sql(reversed);
                            assert_eq!(&canonical(db.query(&sql)), want, "[{name}] {sql}");
                        }
                    }
                }
            }
        }
    }

    // Each statement builds on its left input in one spelling at least.
    let db = Database::with_config(EngineConfig::profile_a().with_index_scans(false));
    load(&db);
    for swap in SWAPS {
        let plans = [false, true].map(|reversed| db.explain(&swap.sql(reversed)).unwrap());
        assert!(
            plans.iter().any(|p| p.contains("build=left")),
            "{}\n{}\n{}",
            swap.sql(false),
            plans[0],
            plans[1]
        );
    }
}

/// `EXPLAIN ANALYZE` reports the probe rows the join rejected, and
/// `sys.metrics` accumulates them.
#[test]
fn pruned_probe_rows_are_reported() {
    let db = Database::new();
    load(&db);
    let metric = || match db
        .query_scalar("SELECT value FROM sys.metrics WHERE name = 'exec.join.probe_rows_pruned'")
        .unwrap()
    {
        Value::Float(v) => v,
        other => panic!("exec.join.probe_rows_pruned = {other:?}"),
    };
    let before = metric();
    let (result, stats) = db.query_analyzed(&CASES[0].inlined()).unwrap();
    // Ids 3, 7 (twice on the build side) and 129 own 20 rows each, less the
    // rows whose id is NULL.
    let matching = (0..FACT_ROWS)
        .filter(|i| i % 97 != 0 && [3, 7, 129].contains(&(i % 130)))
        .count();
    let sevens = (0..FACT_ROWS)
        .filter(|i| i % 97 != 0 && i % 130 == 7)
        .count();
    assert_eq!(result.rows.len(), matching + sevens);
    let join = stats.find("HashJoin").expect("a hash join ran");
    let pruned = FACT_ROWS as usize - matching;
    assert!(
        join.label
            .ends_with(&format!("probe=keyset(index) pruned={pruned}")),
        "{}",
        join.label
    );
    assert_eq!(metric() - before, pruned as f64);
}
