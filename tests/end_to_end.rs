//! Cross-crate integration tests: full pipelines spanning the dataset
//! generators, the text processor, the SQL engine, BornSQL, the oracle, and
//! the baselines.

use born::{BornClassifier, HyperParams, TrainItem};
use bornsql::{BornSqlModel, DataSpec, Dialect, ModelOptions, Params};
use datasets::scopus::{self, ScopusConfig};
use datasets::{adult_like, TabularConfig};
use sqlengine::{Database, EngineConfig, Value};
use textproc::CountVectorizer;

fn scopus_db(n: usize, config: EngineConfig) -> Database {
    let data = scopus::generate(&ScopusConfig {
        n_publications: n,
        ..ScopusConfig::tiny(7)
    });
    let db = Database::with_config(config);
    data.load_into(&db).unwrap();
    db
}

fn scopus_spec(qn: Option<&str>) -> DataSpec {
    let mut spec = DataSpec::default();
    for arm in scopus::qx_arms(false) {
        spec = spec.with_features(arm);
    }
    spec = spec.with_targets(scopus::qy());
    if let Some(qn) = qn {
        spec = spec.with_items(qn);
    }
    spec
}

fn scopus_options() -> ModelOptions {
    ModelOptions {
        class_type: "INTEGER",
        ..Default::default()
    }
}

#[test]
fn full_pipeline_accuracy_on_all_engine_profiles() {
    for config in [
        EngineConfig::profile_a(),
        EngineConfig::profile_b(),
        EngineConfig::profile_c(),
    ] {
        let db = scopus_db(600, config);
        let model = BornSqlModel::create(&db, "m", scopus_options()).unwrap();
        model
            .fit(&scopus_spec(Some(
                "SELECT id AS n FROM publication WHERE id % 5 > 0",
            )))
            .unwrap();
        model.deploy().unwrap();

        let mut test = DataSpec::default();
        for arm in scopus::qx_arms(false) {
            test = test.with_features(arm);
        }
        let test = test.with_items("SELECT id AS n FROM publication WHERE id % 5 = 0");
        let preds = model.predict(&test).unwrap();
        assert!(preds.len() >= 100, "predicted {}", preds.len());

        let truth = db
            .query("SELECT id, asjc / 100 FROM publication WHERE id % 5 = 0")
            .unwrap();
        let truth: std::collections::HashMap<i64, i64> = truth
            .rows
            .iter()
            .map(|r| {
                (
                    r[0].as_i64().unwrap().unwrap(),
                    r[1].as_i64().unwrap().unwrap(),
                )
            })
            .collect();
        let hits = preds
            .iter()
            .filter(|(n, k)| {
                truth.get(&n.as_i64().unwrap().unwrap()) == k.as_i64().unwrap().as_ref()
            })
            .count();
        let acc = hits as f64 / preds.len() as f64;
        assert!(acc > 0.75, "accuracy {acc} under {config:?}");
    }
}

#[test]
fn engine_profiles_agree_exactly_on_predictions() {
    let mut reference: Option<Vec<(Value, Value)>> = None;
    for config in [
        EngineConfig::profile_a(),
        EngineConfig::profile_b(),
        EngineConfig::profile_c(),
    ] {
        let db = scopus_db(300, config);
        let model = BornSqlModel::create(&db, "m", scopus_options()).unwrap();
        model.fit(&scopus_spec(None)).unwrap();
        model.deploy().unwrap();
        let mut test = DataSpec::default();
        for arm in scopus::qx_arms(false) {
            test = test.with_features(arm);
        }
        let test = test.with_items("SELECT id AS n FROM publication WHERE id <= 50");
        let preds = model.predict(&test).unwrap();
        match &reference {
            None => reference = Some(preds),
            Some(r) => assert_eq!(r, &preds, "profiles must agree"),
        }
    }
}

#[test]
fn textproc_vectorizer_feeds_bornsql() {
    // Raw text → textproc vectorization → long table → BornSQL, end to end.
    let docs = [
        (1i64, "robots and robot vision with neural control", "ai"),
        (2, "neural networks for image vision tasks", "ai"),
        (
            3,
            "the variance of the sample mean and poisson models",
            "stats",
        ),
        (4, "sampling variance in statistical estimation", "stats"),
    ];
    let db = Database::new();
    db.execute_script(
        "CREATE TABLE terms (n INTEGER, j TEXT, w REAL);
         CREATE TABLE labels (n INTEGER, k TEXT);",
    )
    .unwrap();
    let v = CountVectorizer::default();
    for (id, text, label) in &docs {
        for (term, count) in v.vectorize(text) {
            db.execute_with(
                "INSERT INTO terms VALUES (?, ?, ?)",
                &[Value::Int(*id), Value::text(&term), Value::Float(count)],
            )
            .unwrap();
        }
        db.execute_with(
            "INSERT INTO labels VALUES (?, ?)",
            &[Value::Int(*id), Value::text(*label)],
        )
        .unwrap();
    }
    let model = BornSqlModel::create(&db, "m", ModelOptions::default()).unwrap();
    model
        .fit(
            &DataSpec::new("SELECT n, j, w FROM terms")
                .with_targets("SELECT n, k AS k, 1.0 AS w FROM labels"),
        )
        .unwrap();
    model.deploy().unwrap();

    // Classify an unseen sentence.
    db.execute("CREATE TABLE query_terms (n INTEGER, j TEXT, w REAL)")
        .unwrap();
    for (term, count) in v.vectorize("estimating the variance of a sample") {
        db.execute_with(
            "INSERT INTO query_terms VALUES (9, ?, ?)",
            &[Value::text(&term), Value::Float(count)],
        )
        .unwrap();
    }
    let preds = model
        .predict(&DataSpec::new("SELECT n, j, w FROM query_terms"))
        .unwrap();
    assert_eq!(preds[0].1, Value::text("stats"));
}

#[test]
fn multiple_models_coexist_in_one_database() {
    let db = scopus_db(200, EngineConfig::profile_a());
    let abstract_model = BornSqlModel::create(&db, "abst", scopus_options()).unwrap();
    let full_model = BornSqlModel::create(&db, "full", scopus_options()).unwrap();

    // Different feature sets, same database, distinct table prefixes.
    let mut abstract_spec = DataSpec::default();
    for arm in scopus::qx_arms(true) {
        abstract_spec = abstract_spec.with_features(arm);
    }
    abstract_model
        .fit(&abstract_spec.with_targets(scopus::qy()))
        .unwrap();
    full_model.fit(&scopus_spec(None)).unwrap();

    assert!(full_model.n_features().unwrap() > abstract_model.n_features().unwrap());
    // Both share the single `params` table, keyed by model name.
    let r = db.query("SELECT COUNT(*) FROM params").unwrap();
    assert_eq!(r.rows[0][0], Value::Int(2));
    // Dropping one model's corpus does not affect the other.
    db.execute("DROP TABLE abst_corpus").unwrap();
    assert!(full_model.n_features().unwrap() > 0);
}

#[test]
fn external_data_training_via_direct_corpus_writes() {
    // Paper §7 "External data": compute P_jk outside the database and write
    // it into {model}_corpus directly; the model must behave identically.
    let items = vec![
        TrainItem::labeled(
            vec![("a".to_string(), 2.0), ("b".to_string(), 1.0)],
            "x".to_string(),
        ),
        TrainItem::labeled(
            vec![("b".to_string(), 1.0), ("c".to_string(), 1.0)],
            "y".to_string(),
        ),
        TrainItem::labeled(vec![("a".to_string(), 1.0)], "x".to_string()),
    ];
    let oracle = BornClassifier::fit(&items);

    let db = Database::new();
    let model = BornSqlModel::create(&db, "ext", ModelOptions::default()).unwrap();
    // Write the externally computed weights straight into the corpus.
    for (j, k, w) in oracle.corpus_entries() {
        db.execute_with(
            "INSERT INTO ext_corpus (j, k, w) VALUES (?, ?, ?) \
             ON CONFLICT (j, k) DO UPDATE SET w = ext_corpus.w + excluded.w",
            &[Value::text(j), Value::text(k), Value::Float(w)],
        )
        .unwrap();
    }
    model.deploy().unwrap();

    // Inference on an external item written to a temporary table.
    db.execute_script(
        "CREATE TABLE tmp_item (n INTEGER, j TEXT, w REAL);
         INSERT INTO tmp_item VALUES (1, 'a', 1.0), (1, 'c', 0.5);",
    )
    .unwrap();
    let preds = model
        .predict(&DataSpec::new("SELECT n, j, w FROM tmp_item"))
        .unwrap();
    let oracle_pred = oracle
        .deploy(HyperParams::default())
        .unwrap()
        .predict(&[("a".to_string(), 1.0), ("c".to_string(), 0.5)])
        .unwrap();
    assert_eq!(preds[0].1.to_string(), oracle_pred);
}

#[test]
fn mysql_dialect_fits_deploys_and_predicts_like_sqlite() {
    // MySQL's upsert tail parses as the same upsert, so a MySQL-dialect
    // model trains incrementally, deploys and predicts as the SQLite one.
    let db = scopus_db(200, EngineConfig::profile_a());
    let mut test = DataSpec::default();
    for arm in scopus::qx_arms(false) {
        test = test.with_features(arm);
    }
    let test = test.with_items("SELECT id AS n FROM publication WHERE id <= 40");
    let run = |name: &str, dialect| {
        let options = ModelOptions {
            dialect,
            ..scopus_options()
        };
        let model = BornSqlModel::create(&db, name, options).unwrap();
        for range in ["id <= 100", "id > 100"] {
            let items = format!("SELECT id AS n FROM publication WHERE {range}");
            model.partial_fit(&scopus_spec(Some(&items))).unwrap();
        }
        model.deploy().unwrap();
        let sql = model.generator().partial_fit(&scopus_spec(None), 1.0);
        (sql, model.corpus().unwrap(), model.predict(&test).unwrap())
    };
    let (my_sql, my_corpus, my_preds) = run("my", Dialect::MySql);
    let (lite_sql, lite_corpus, lite_preds) = run("lite", Dialect::Sqlite);
    assert!(my_sql.contains("ON DUPLICATE KEY UPDATE"));
    assert!(lite_sql.contains("ON CONFLICT"));
    assert_eq!(my_corpus, lite_corpus);
    assert!(!my_preds.is_empty());
    assert_eq!(my_preds, lite_preds);
}

#[test]
fn hyperparameters_change_predictions_without_refit() {
    let adult = adult_like(&TabularConfig::new(800, 5));
    let db = Database::new();
    adult.load_into(&db, "a").unwrap();
    let model = BornSqlModel::create(&db, "m", ModelOptions::default()).unwrap();
    model
        .fit(
            &DataSpec::new("SELECT n, j, w FROM a_features")
                .with_targets("SELECT n, k AS k, 1.0 AS w FROM a_labels"),
        )
        .unwrap();
    let cells = model.corpus_cells().unwrap();

    let spec = DataSpec::new("SELECT n, j, w FROM a_features")
        .with_items("SELECT n FROM a_labels WHERE n <= 50");
    model.deploy().unwrap();
    let proba_default = model.predict_proba(&spec).unwrap();

    // h = 0 disables entropy weighting → different probabilities, same corpus.
    model
        .set_params(Params {
            a: 0.5,
            b: 1.0,
            h: 0.0,
        })
        .unwrap();
    model.deploy().unwrap();
    let proba_h0 = model.predict_proba(&spec).unwrap();
    assert_eq!(
        model.corpus_cells().unwrap(),
        cells,
        "no retraining happened"
    );
    assert_ne!(proba_default, proba_h0, "hyper-parameters must matter");
}

#[test]
fn incremental_learning_commutes_with_engine_profiles() {
    // Batch-split training on profile A equals one-shot training on
    // profile C: storage state is engine-independent.
    let db_a = scopus_db(240, EngineConfig::profile_a());
    let inc = BornSqlModel::create(&db_a, "m", scopus_options()).unwrap();
    inc.partial_fit(&scopus_spec(Some(
        "SELECT id AS n FROM publication WHERE id <= 120",
    )))
    .unwrap();
    inc.partial_fit(&scopus_spec(Some(
        "SELECT id AS n FROM publication WHERE id > 120",
    )))
    .unwrap();

    let db_c = scopus_db(240, EngineConfig::profile_c());
    let batch = BornSqlModel::create(&db_c, "m", scopus_options()).unwrap();
    batch.fit(&scopus_spec(None)).unwrap();

    let a = inc.corpus().unwrap();
    let b = batch.corpus().unwrap();
    assert_eq!(a.len(), b.len());
    for ((j1, k1, w1), (j2, k2, w2)) in a.iter().zip(&b) {
        assert_eq!(j1, j2);
        assert_eq!(k1, k2);
        assert!((w1 - w2).abs() < 1e-9, "{j1}/{k1}: {w1} vs {w2}");
    }
}

#[test]
fn model_survives_database_save_and_open() {
    // Cost-effective serving (§7): a database snapshot carries the trained
    // and deployed model; reopening serves identical predictions.
    let db = scopus_db(200, EngineConfig::profile_a());
    let model = BornSqlModel::create(&db, "m", scopus_options()).unwrap();
    model.fit(&scopus_spec(None)).unwrap();
    model.deploy().unwrap();
    let mut test = DataSpec::default();
    for arm in scopus::qx_arms(false) {
        test = test.with_features(arm);
    }
    let test = test.with_items("SELECT id AS n FROM publication WHERE id <= 20");
    let before = model.predict(&test).unwrap();

    let path = std::env::temp_dir().join(format!("bornsql_e2e_{}.json", std::process::id()));
    db.save(&path).unwrap();
    let db2 = Database::open_snapshot(&path).unwrap();
    std::fs::remove_file(&path).ok();

    let reattached = BornSqlModel::attach(&db2, "m", scopus_options()).unwrap();
    let after = reattached.predict(&test).unwrap();
    assert_eq!(before, after);
}

#[test]
fn concurrent_inference_while_learning_continues() {
    // Paper §7: the model is served by querying the database, "leveraging
    // the concurrency of the database". Readers predict while a writer
    // keeps partial-fitting; every prediction must come from a consistent
    // snapshot (no torn corpus reads).
    use std::sync::Arc;
    let db = Arc::new(scopus_db(400, EngineConfig::profile_a()));
    let model = BornSqlModel::create(db.as_ref(), "live", scopus_options()).unwrap();
    model
        .fit(&scopus_spec(Some(
            "SELECT id AS n FROM publication WHERE id <= 200",
        )))
        .unwrap();
    model.deploy().unwrap();

    let writer_db = Arc::clone(&db);
    let writer = std::thread::spawn(move || {
        let model = BornSqlModel::attach(writer_db.as_ref(), "live", scopus_options()).unwrap();
        for batch in 0..5i64 {
            let lo = 200 + batch * 40;
            model
                .partial_fit(&scopus_spec(Some(&format!(
                    "SELECT id AS n FROM publication WHERE id > {lo} AND id <= {}",
                    lo + 40
                ))))
                .unwrap();
        }
    });

    let mut readers = Vec::new();
    for t in 0..3 {
        let reader_db = Arc::clone(&db);
        readers.push(std::thread::spawn(move || {
            let model = BornSqlModel::attach(reader_db.as_ref(), "live", scopus_options()).unwrap();
            let mut test = DataSpec::default();
            for arm in scopus::qx_arms(false) {
                test = test.with_features(arm);
            }
            let test = test.with_items(format!(
                "SELECT id AS n FROM publication WHERE id % 3 = {t} AND id <= 30"
            ));
            for _ in 0..10 {
                let preds = model.predict(&test).unwrap();
                assert!(!preds.is_empty());
                for (_, k) in &preds {
                    let class = k.as_i64().unwrap().unwrap();
                    assert!([17, 18, 26].contains(&class), "bogus class {class}");
                }
            }
        }));
    }
    writer.join().unwrap();
    for r in readers {
        r.join().unwrap();
    }
}
