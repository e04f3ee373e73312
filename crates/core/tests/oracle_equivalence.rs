//! Cross-validation of the SQL implementation against the pure-Rust oracle
//! (`born` crate): every operation — fit, partial-fit, unlearn, deploy,
//! predict, predict_proba, explain — must agree to floating-point accuracy,
//! under each of the three dialects.

use std::collections::BTreeMap;

use born::{BornClassifier, HyperParams, TrainItem};
use bornsql::{BornSqlModel, DataSpec, Dialect, ModelOptions, Params};
use seeded::SplitMix64;
use sqlengine::{Database, Value};

/// A synthetic document: id, feature counts, label.
struct Doc {
    id: i64,
    features: Vec<(String, f64)>,
    label: String,
}

/// Generate a deterministic random corpus with class-conditional vocabulary.
fn random_docs(seed: u64, n: usize) -> Vec<Doc> {
    let mut rng = SplitMix64::new(seed);
    let classes = ["ai", "stats", "ops"];
    let mut docs = Vec::with_capacity(n);
    for id in 0..n {
        let class = *rng.pick(&classes);
        let mut features: BTreeMap<String, f64> = BTreeMap::new();
        // Class-specific tokens plus shared noise tokens.
        for _ in 0..rng.range(2..8) {
            let tok = if rng.chance(0.7) {
                format!("{class}_tok{}", rng.below(10))
            } else {
                format!("common_tok{}", rng.below(6))
            };
            *features.entry(tok).or_insert(0.0) += rng.range(1..4) as f64;
        }
        docs.push(Doc {
            id: id as i64 + 1,
            features: features.into_iter().collect(),
            label: class.to_string(),
        });
    }
    docs
}

/// Load docs into a `features(n, term, cnt)` + `labels(n, label)` schema.
fn load_db(docs: &[Doc]) -> Database {
    let db = Database::new();
    db.execute_script(
        "CREATE TABLE features (n INTEGER, term TEXT, cnt REAL);
         CREATE TABLE labels (n INTEGER, label TEXT);",
    )
    .unwrap();
    let mut frows = Vec::new();
    let mut lrows = Vec::new();
    for d in docs {
        for (t, c) in &d.features {
            frows.push(vec![Value::Int(d.id), Value::text(t), Value::Float(*c)]);
        }
        lrows.push(vec![Value::Int(d.id), Value::text(&d.label)]);
    }
    db.insert_rows("features", frows).unwrap();
    db.insert_rows("labels", lrows).unwrap();
    db
}

fn spec() -> DataSpec {
    DataSpec::new("SELECT n, term AS j, cnt AS w FROM features")
        .with_targets("SELECT n, label AS k, 1.0 AS w FROM labels")
}

fn oracle_items(docs: &[Doc]) -> Vec<TrainItem<String, String>> {
    docs.iter()
        .map(|d| TrainItem::labeled(d.features.clone(), d.label.clone()))
        .collect()
}

/// Run a test once per dialect, each time on models built from its options:
/// every dialect's text executes, so each must match the oracle.
fn each_dialect(test: impl Fn(ModelOptions)) {
    for dialect in Dialect::ALL {
        eprintln!("dialect: {dialect:?}");
        test(ModelOptions {
            dialect,
            ..ModelOptions::default()
        });
    }
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * (1.0 + a.abs().max(b.abs()))
}

/// Compare the SQL corpus with the oracle tensor cell by cell.
fn assert_corpus_matches(model: &BornSqlModel<Database>, oracle: &BornClassifier<String, String>) {
    let sql_corpus = model.corpus().unwrap();
    assert_eq!(sql_corpus.len(), oracle.n_cells(), "cell counts differ");
    for (j, k, w) in &sql_corpus {
        let (Value::Str(j), Value::Str(k)) = (j, k) else {
            panic!("unexpected key types")
        };
        let expected = oracle.weight(&j.to_string(), &k.to_string());
        assert!(close(*w, expected), "P[{j},{k}] = {w}, oracle {expected}");
    }
}

#[test]
fn fit_matches_oracle() {
    each_dialect(|options| {
        let docs = random_docs(7, 60);
        let db = load_db(&docs);
        let model = BornSqlModel::create(&db, "m", options).unwrap();
        model.fit(&spec()).unwrap();
        let oracle = BornClassifier::fit(&oracle_items(&docs));
        assert_corpus_matches(&model, &oracle);
        assert_eq!(model.n_features().unwrap(), oracle.n_features());
        assert_eq!(model.n_classes().unwrap(), oracle.n_classes());
    });
}

#[test]
fn incremental_fit_matches_batch_and_oracle() {
    each_dialect(|options| {
        let docs = random_docs(13, 80);
        let db = load_db(&docs);
        let model = BornSqlModel::create(&db, "m", options).unwrap();
        // Three incremental batches by id ranges.
        for (lo, hi) in [(1, 30), (31, 55), (56, 80)] {
            let batch = spec().with_items(format!(
                "SELECT n FROM labels WHERE n BETWEEN {lo} AND {hi}"
            ));
            model.partial_fit(&batch).unwrap();
        }
        let oracle = BornClassifier::fit(&oracle_items(&docs));
        assert_corpus_matches(&model, &oracle);
    });
}

#[test]
fn unlearning_matches_retrained_oracle() {
    each_dialect(|options| {
        let docs = random_docs(21, 70);
        let db = load_db(&docs);
        let model = BornSqlModel::create(&db, "m", options).unwrap();
        model.fit(&spec()).unwrap();
        // Forget items 50..=70 (e.g. a GDPR deletion request).
        let forget = spec().with_items("SELECT n FROM labels WHERE n >= 50");
        model.unlearn(&forget).unwrap();
        let kept: Vec<Doc> = docs.into_iter().filter(|d| d.id < 50).collect();
        let oracle = BornClassifier::fit(&oracle_items(&kept));
        assert_corpus_matches(&model, &oracle);
    });
}

#[test]
fn predictions_match_oracle_deployed_and_undeployed() {
    each_dialect(|options| {
        let docs = random_docs(42, 100);
        let db = load_db(&docs);
        let model = BornSqlModel::create(&db, "m", options).unwrap();
        let train = spec().with_items("SELECT n FROM labels WHERE n <= 80");
        model.fit(&train).unwrap();

        let oracle_model = {
            let items: Vec<_> = oracle_items(&docs).into_iter().take(80).collect();
            BornClassifier::fit(&items)
                .deploy(HyperParams::default())
                .unwrap()
        };

        let test = DataSpec::new("SELECT n, term AS j, cnt AS w FROM features")
            .with_items("SELECT n FROM labels WHERE n > 80");

        // Undeployed (on-the-fly weights).
        let undeployed: Vec<_> = model.predict(&test).unwrap();
        // Deployed (cached weights) must give identical answers.
        model.deploy().unwrap();
        let deployed: Vec<_> = model.predict(&test).unwrap();
        assert_eq!(
            undeployed, deployed,
            "deployment must not change predictions"
        );

        let mut n_checked = 0;
        for (n, k) in &deployed {
            let Value::Int(id) = n else { panic!() };
            let doc = docs.iter().find(|d| d.id == *id).unwrap();
            let expected = oracle_model.predict(&doc.features).unwrap();
            let Value::Str(k) = k else { panic!() };
            assert_eq!(k.as_ref(), expected, "item {id}");
            n_checked += 1;
        }
        assert!(n_checked >= 15, "expected most test items predictable");
    });
}

#[test]
fn probabilities_match_oracle() {
    each_dialect(|options| {
        let docs = random_docs(5, 50);
        let db = load_db(&docs);
        let model = BornSqlModel::create(&db, "m", options).unwrap();
        model.fit(&spec()).unwrap();
        model.deploy().unwrap();

        let oracle_model = BornClassifier::fit(&oracle_items(&docs))
            .deploy(HyperParams::default())
            .unwrap();

        let test = DataSpec::new("SELECT n, term AS j, cnt AS w FROM features")
            .with_items("SELECT n FROM labels WHERE n <= 10");
        let proba = model.predict_proba(&test).unwrap();
        assert!(!proba.is_empty());

        // Group by item and compare against oracle's distribution restricted to
        // classes with evidence (SQL emits only those rows).
        let mut by_item: BTreeMap<i64, Vec<(String, f64)>> = BTreeMap::new();
        for (n, k, p) in proba {
            let (Value::Int(id), Value::Str(k)) = (n, k) else {
                panic!()
            };
            by_item.entry(id).or_default().push((k.to_string(), p));
        }
        for (id, sql_dist) in by_item {
            let doc = docs.iter().find(|d| d.id == id).unwrap();
            let oracle_dist: BTreeMap<String, f64> = oracle_model
                .predict_proba(&doc.features)
                .into_iter()
                .collect();
            let total: f64 = sql_dist.iter().map(|(_, p)| p).sum();
            assert!(close(total, 1.0), "item {id} distribution sums to {total}");
            for (k, p) in sql_dist {
                let expected = oracle_dist[&k];
                assert!(close(p, expected), "item {id} class {k}: {p} vs {expected}");
            }
        }
    });
}

#[test]
fn global_explanation_matches_oracle() {
    each_dialect(|options| {
        let docs = random_docs(99, 40);
        let db = load_db(&docs);
        let model = BornSqlModel::create(&db, "m", options).unwrap();
        model.fit(&spec()).unwrap();
        model.deploy().unwrap();

        let oracle_model = BornClassifier::fit(&oracle_items(&docs))
            .deploy(HyperParams::default())
            .unwrap();
        let oracle_global: BTreeMap<(String, String), f64> = oracle_model
            .explain_global()
            .into_iter()
            .map(|(j, k, w)| ((j, k), w))
            .collect();

        let sql_global = model.explain_global(None).unwrap();
        assert_eq!(sql_global.len(), oracle_global.len());
        for (j, k, w) in sql_global {
            let (Value::Str(j), Value::Str(k)) = (j, k) else {
                panic!()
            };
            let expected = oracle_global[&(j.to_string(), k.to_string())];
            assert!(close(w, expected), "HW[{j},{k}] = {w}, oracle {expected}");
        }
    });
}

#[test]
fn local_explanation_matches_oracle() {
    each_dialect(|options| {
        let docs = random_docs(31, 40);
        let db = load_db(&docs);
        let model = BornSqlModel::create(&db, "m", options).unwrap();
        model.fit(&spec()).unwrap();
        model.deploy().unwrap();

        let oracle_model = BornClassifier::fit(&oracle_items(&docs))
            .deploy(HyperParams::default())
            .unwrap();

        let test = DataSpec::new("SELECT n, term AS j, cnt AS w FROM features")
            .with_items("SELECT n FROM labels WHERE n IN (3, 7)");
        let sql_local = model.explain_local(&test, None).unwrap();

        let items: Vec<(Vec<(String, f64)>, f64)> = docs
            .iter()
            .filter(|d| d.id == 3 || d.id == 7)
            .map(|d| (d.features.clone(), 1.0))
            .collect();
        let oracle_local: BTreeMap<(String, String), f64> = oracle_model
            .explain_local(&items)
            .into_iter()
            .map(|(j, k, w)| ((j, k), w))
            .collect();

        assert_eq!(sql_local.len(), oracle_local.len());
        for (j, k, w) in sql_local {
            let (Value::Str(j), Value::Str(k)) = (j, k) else {
                panic!()
            };
            let expected = oracle_local[&(j.to_string(), k.to_string())];
            assert!(
                close(w, expected),
                "local[{j},{k}] = {w}, oracle {expected}"
            );
        }
    });
}

#[test]
fn nondefault_hyperparams_match_oracle() {
    each_dialect(|options| {
        let docs = random_docs(77, 50);
        let db = load_db(&docs);
        let params = Params {
            a: 1.0,
            b: 0.3,
            h: 2.0,
        };
        let model = BornSqlModel::create(&db, "m", ModelOptions { params, ..options }).unwrap();
        model.fit(&spec()).unwrap();
        model.deploy().unwrap();

        let oracle_model = BornClassifier::fit(&oracle_items(&docs))
            .deploy(HyperParams::new(1.0, 0.3, 2.0).unwrap())
            .unwrap();

        let test = DataSpec::new("SELECT n, term AS j, cnt AS w FROM features")
            .with_items("SELECT n FROM labels WHERE n <= 20");
        for (n, k) in model.predict(&test).unwrap() {
            let (Value::Int(id), Value::Str(k)) = (n, k) else {
                panic!()
            };
            let doc = docs.iter().find(|d| d.id == id).unwrap();
            assert_eq!(k.as_ref(), oracle_model.predict(&doc.features).unwrap());
        }
    });
}

#[test]
fn sample_weights_match_oracle() {
    each_dialect(|options| {
        let docs = random_docs(111, 40);
        let db = load_db(&docs);
        // Weight = 2.0 for even ids, 1.0 for odd.
        db.execute("CREATE TABLE sweights (n INTEGER, w REAL)")
            .unwrap();
        let rows: Vec<Vec<Value>> = docs
            .iter()
            .map(|d| {
                vec![
                    Value::Int(d.id),
                    Value::Float(if d.id % 2 == 0 { 2.0 } else { 1.0 }),
                ]
            })
            .collect();
        db.insert_rows("sweights", rows).unwrap();

        let model = BornSqlModel::create(&db, "m", options).unwrap();
        model
            .fit(&spec().with_weights("SELECT n, w FROM sweights"))
            .unwrap();

        let items: Vec<TrainItem<String, String>> = docs
            .iter()
            .map(|d| TrainItem {
                x: d.features.clone(),
                y: vec![(d.label.clone(), 1.0)],
                weight: if d.id % 2 == 0 { 2.0 } else { 1.0 },
            })
            .collect();
        let oracle = BornClassifier::fit(&items);
        assert_corpus_matches(&model, &oracle);
    });
}

#[test]
fn hyperparameter_retuning_without_retraining() {
    each_dialect(|options| {
        // Paper §2.2.1: changing (a, b, h) must not require retraining —
        // only redeployment.
        let docs = random_docs(55, 40);
        let db = load_db(&docs);
        let model = BornSqlModel::create(&db, "m", options).unwrap();
        model.fit(&spec()).unwrap();
        let cells_before = model.corpus_cells().unwrap();

        model
            .set_params(Params {
                a: 2.0,
                b: 0.0,
                h: 0.0,
            })
            .unwrap();
        model.deploy().unwrap();
        assert_eq!(model.corpus_cells().unwrap(), cells_before);

        let oracle_model = BornClassifier::fit(&oracle_items(&docs))
            .deploy(HyperParams::new(2.0, 0.0, 0.0).unwrap())
            .unwrap();
        let test = DataSpec::new("SELECT n, term AS j, cnt AS w FROM features")
            .with_items("SELECT n FROM labels WHERE n <= 15");
        for (n, k) in model.predict(&test).unwrap() {
            let (Value::Int(id), Value::Str(k)) = (n, k) else {
                panic!()
            };
            let doc = docs.iter().find(|d| d.id == id).unwrap();
            assert_eq!(k.as_ref(), oracle_model.predict(&doc.features).unwrap());
        }
    });
}

#[test]
fn multilabel_targets_match_oracle() {
    each_dialect(|options| {
        // The paper's q_y remark: an item may carry several categories with
        // equal weight; training mass splits across them (eq. 1 denominator).
        let db = Database::new();
        db.execute_script(
            "CREATE TABLE f (n INTEGER, j TEXT, w REAL);
             CREATE TABLE y (n INTEGER, k TEXT, w REAL);
             INSERT INTO f VALUES (1, 'a', 2.0), (1, 'b', 1.0), (2, 'b', 1.0);
             INSERT INTO y VALUES (1, 'k1', 1.0), (1, 'k2', 1.0), (2, 'k2', 1.0);",
        )
        .unwrap();
        let model = BornSqlModel::create(&db, "ml", options).unwrap();
        model
            .fit(&DataSpec::new("SELECT n, j, w FROM f").with_targets("SELECT n, k, w FROM y"))
            .unwrap();

        let oracle = BornClassifier::fit(&[
            TrainItem {
                x: vec![("a".to_string(), 2.0), ("b".to_string(), 1.0)],
                y: vec![("k1".to_string(), 1.0), ("k2".to_string(), 1.0)],
                weight: 1.0,
            },
            TrainItem {
                x: vec![("b".to_string(), 1.0)],
                y: vec![("k2".to_string(), 1.0)],
                weight: 1.0,
            },
        ]);
        assert_corpus_matches(&model, &oracle);
        // Spot-check a cell by hand: item 1 denominator = (2+1)·(1+1) = 6.
        assert!((oracle.weight(&"a".to_string(), &"k1".to_string()) - 2.0 / 6.0).abs() < 1e-12);
    });
}

#[test]
fn weighted_targets_match_oracle() {
    each_dialect(|options| {
        // Unequal target weights distribute mass proportionally.
        let db = Database::new();
        db.execute_script(
            "CREATE TABLE f (n INTEGER, j TEXT, w REAL);
             CREATE TABLE y (n INTEGER, k TEXT, w REAL);
             INSERT INTO f VALUES (1, 'a', 1.0);
             INSERT INTO y VALUES (1, 'k1', 3.0), (1, 'k2', 1.0);",
        )
        .unwrap();
        let model = BornSqlModel::create(&db, "wt", options).unwrap();
        model
            .fit(&DataSpec::new("SELECT n, j, w FROM f").with_targets("SELECT n, k, w FROM y"))
            .unwrap();
        let oracle = BornClassifier::fit(&[TrainItem {
            x: vec![("a".to_string(), 1.0)],
            y: vec![("k1".to_string(), 3.0), ("k2".to_string(), 1.0)],
            weight: 1.0,
        }]);
        assert_corpus_matches(&model, &oracle);
        assert!((oracle.weight(&"a".to_string(), &"k1".to_string()) - 0.75).abs() < 1e-12);
    });
}
