//! The BornSQL portability sweep, executed: every statement each dialect
//! emits for every operation runs on the bundled engine, in the order a
//! model's life issues them, and the three dialects must return the same
//! bytes — every result set, and the corpus and weights they leave behind.
//! Every execution runs the engine's semantic analyzer before planning, so
//! a template regression fails here with a spanned diagnostic.

use bornsql::dialect::Dialect;
use bornsql::spec::DataSpec;
use bornsql::sql::SqlGenerator;
use sqlengine::{Database, EngineError, StatementResult};

/// The two user tables. Ids lie on both sides of the `filtered` variant's
/// `id <= 100`; `meta.y` is the INTEGER class (1 = ai, 2 = stats).
const USER_DATA: &str = "
    CREATE TABLE docs (id INTEGER, body TEXT, label TEXT);
    CREATE TABLE meta (id INTEGER, tag TEXT, y INTEGER);
    INSERT INTO docs VALUES (1, 'robot', 'ai'), (2, 'poisson', 'stats'), (3, 'robot', 'ai'),
        (4, 'vision', 'ai'), (5, 'variance', 'stats'), (101, 'vision', 'stats'),
        (102, 'variance', 'stats'), (103, 'robot', 'ai');
    INSERT INTO meta VALUES (1, 'cs', 1), (2, 'math', 2), (3, 'cs', 1), (4, 'cs', 1),
        (5, 'math', 2), (101, 'math', 2), (102, 'math', 2), (103, 'cs', 1);";

fn base_spec() -> DataSpec {
    DataSpec::new("SELECT id AS n, 'w:' || body AS j, 1.0 AS w FROM docs")
        .with_targets("SELECT id AS n, label AS k, 1.0 AS w FROM docs")
}

/// Spec variants exercising every preprocessing shape of Section 3.1:
/// single/multi-arm `q_x`, with/without item filter `q_n` and sample
/// weights `q_w`.
fn spec_variants() -> Vec<(&'static str, DataSpec)> {
    vec![
        ("base", base_spec()),
        (
            "multi_arm",
            base_spec().with_features("SELECT id AS n, 't:' || tag AS j, 0.5 AS w FROM meta"),
        ),
        (
            "filtered",
            base_spec().with_items("SELECT id AS n FROM docs WHERE id <= 100"),
        ),
        (
            "weighted",
            base_spec().with_weights("SELECT id AS n, 2.0 AS w FROM docs"),
        ),
        (
            "full",
            base_spec()
                .with_features("SELECT id AS n, 't:' || tag AS j, 0.5 AS w FROM meta")
                .with_items("SELECT id AS n FROM docs WHERE id <= 100")
                .with_weights("SELECT id AS n, 2.0 AS w FROM docs"),
        ),
    ]
}

/// An INTEGER class column comes from an integer-valued target query.
fn retarget(spec: DataSpec, class_type: &str) -> DataSpec {
    if class_type == "INTEGER" {
        DataSpec {
            qy: Some("SELECT id AS n, y AS k, 1.0 AS w FROM meta".to_string()),
            ..spec
        }
    } else {
        spec
    }
}

/// Every operation the generator emits for a trainable spec, in the order a
/// model's life issues them: create, set params, fit, unlearn item 2 (the
/// only `poisson` document, so the prune has cells to remove), deploy, score
/// and explain (deployed and not), count, drop.
fn lifecycle(g: &SqlGenerator, spec: &DataSpec) -> Vec<(&'static str, String)> {
    let forget = DataSpec {
        qn: Some("SELECT id AS n FROM docs WHERE id = 2".to_string()),
        ..spec.clone()
    };
    vec![
        ("create_params_table", g.create_params_table()),
        ("create_corpus_table", g.create_corpus_table()),
        ("set_params", g.set_params(0.5, 1.0, 0.5)),
        ("get_params", g.get_params()),
        ("fit", g.partial_fit(spec, 1.0)),
        ("unlearn", g.partial_fit(&forget, -1.0)),
        ("prune_corpus", g.prune_corpus()),
        ("create_weights_table", g.create_weights_table()),
        ("deploy", g.deploy()),
        ("create_weights_index", g.create_weights_index()),
        ("predict_deployed", g.predict(spec, true)),
        ("predict_undeployed", g.predict(spec, false)),
        ("predict_proba_deployed", g.predict_proba(spec, true)),
        ("predict_proba_undeployed", g.predict_proba(spec, false)),
        ("explain_global_deployed", g.explain_global(true, Some(10))),
        ("explain_global_undeployed", g.explain_global(false, None)),
        (
            "explain_local_deployed",
            g.explain_local(spec, true, Some(10)),
        ),
        (
            "explain_local_undeployed",
            g.explain_local(spec, false, None),
        ),
        ("count_corpus_cells", g.count_corpus_cells()),
        ("count_features", g.count_features()),
        ("count_classes", g.count_classes()),
        ("drop_weights_table", g.drop_weights_table()),
        ("drop_corpus_table", g.drop_corpus_table()),
    ]
}

/// One dialect's lifecycle on a fresh database, rendered with `{:?}` (a
/// float's shortest round-trip form, so equal text is equal bits): each
/// operation's result, then `m_corpus` and `m_weights` as they stood before
/// the drops.
fn run(dialect: Dialect, class_type: &'static str, spec: &DataSpec) -> (Vec<String>, String) {
    let db = Database::new();
    db.execute_script(USER_DATA).unwrap();
    let g = SqlGenerator::new("m", dialect, class_type);
    let mut results = Vec::new();
    let mut tables = String::new();
    for (op, sql) in lifecycle(&g, spec) {
        if op == "drop_weights_table" {
            for t in ["m_corpus", "m_weights"] {
                let rows = db.query(&format!("SELECT j, k, w FROM {t} ORDER BY j, k"));
                tables += &format!("{t}: {:?}\n", rows.unwrap());
            }
        }
        let result = db
            .execute(&sql)
            .unwrap_or_else(|e| panic!("{dialect:?} / {op}:\n{}", e.display_with_source(&sql)));
        match &result {
            StatementResult::Rows(r) => assert!(!r.rows.is_empty(), "{dialect:?} / {op}: no rows"),
            StatementResult::Affected(n) if op == "prune_corpus" => assert!(*n > 0),
            StatementResult::Affected(_) => {}
        }
        results.push(format!("{op}: {result:?}"));
    }
    assert!(!db.has_table("m_corpus") && !db.has_table("m_weights"));
    (results, tables)
}

/// 3 dialects × 5 spec variants × 2 class types × 23 operations, executed;
/// every result and the final tensors equal across the dialects.
#[test]
fn every_dialect_executes_every_operation_to_the_same_bytes() {
    let mut executed = 0;
    for class_type in ["TEXT", "INTEGER"] {
        for (variant, spec) in spec_variants() {
            let spec = retarget(spec, class_type);
            let runs = Dialect::ALL.map(|d| run(d, class_type, &spec));
            let (first, first_tables) = &runs[0];
            for (dialect, (results, tables)) in Dialect::ALL.iter().zip(&runs).skip(1) {
                for (a, b) in first.iter().zip(results) {
                    assert_eq!(a, b, "{class_type}/{variant}: {dialect:?} differs");
                }
                assert_eq!(first_tables, tables, "{class_type}/{variant}: {dialect:?}");
            }
            executed += runs.iter().map(|(results, _)| results.len()).sum::<usize>();
        }
    }
    assert_eq!(executed, 3 * 5 * 2 * 23);
}

/// Corrupting an emitted query the way a template regression would (e.g.
/// dropping a column from a GROUP BY) fails its execution with a spanned
/// diagnostic pointing into the generated SQL, and changes nothing.
#[test]
fn corrupted_emitter_fails_with_spanned_diagnostic() {
    let g = SqlGenerator::new("m", Dialect::default(), "TEXT");
    let spec = base_spec();
    let db = Database::new();
    db.execute_script(USER_DATA).unwrap();
    let ops = lifecycle(&g, &spec);
    for (_, sql) in &ops[..ops.len() - 2] {
        db.execute(sql).unwrap();
    }
    let rejected = |sql: &str| match db.execute(sql) {
        Err(e @ EngineError::Sema { .. }) => {
            let rendered = e.display_with_source(sql);
            assert!(rendered.contains('^'), "no caret snippet:\n{rendered}");
            e.message().to_string()
        }
        other => panic!("expected a sema error, got {other:?}"),
    };

    // Drop `hw.k` from the score aggregation's GROUP BY.
    let sql = g.predict(&spec, true);
    assert!(
        sql.contains("GROUP BY x_nj.n, hw.k"),
        "emitter changed: {sql}"
    );
    let message = rejected(&sql.replace("GROUP BY x_nj.n, hw.k", "GROUP BY x_nj.n"));
    assert!(
        message.contains("must appear in the GROUP BY clause or be used in an aggregate function"),
        "{message}"
    );

    // Misspell a join column of the deploy insert: nothing is written.
    let weights = db.table_rows("m_weights").unwrap();
    let message = rejected(&g.deploy().replace("p_jk.j = p_j.j", "p_jk.jj = p_j.j"));
    assert_eq!(message, "unknown column 'p_jk.jj'");
    assert_eq!(db.table_rows("m_weights").unwrap(), weights);
}
