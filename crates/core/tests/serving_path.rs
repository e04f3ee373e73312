//! Serving hot-path regression tests: a deployed model's `predict` query
//! must plan as an index-nested-loop join probing the weights table's `j`
//! index, and repeated serving calls must hit the engine's plan cache.

use born::{BornClassifier, HyperParams, TrainItem};
use bornsql::{BornSqlModel, DataSpec, ModelOptions};
use sqlengine::{Database, Value};

/// Hand-built corpus. Sized so the serving query clears the planner's cost
/// gates: 24 tokens × 3 classes = 72 weights cells (≥ the 64-row inner-side
/// floor for an index join), and `labels` carries a primary key on `n` so a
/// single-item `q_n` plans as a 1-key point lookup, keeping the probe-side
/// estimate small.
fn trained_model(db: &Database) -> BornSqlModel<'_, Database> {
    db.execute_script(
        "CREATE TABLE features (n INTEGER, term TEXT, cnt REAL);
         CREATE TABLE labels (n INTEGER, label TEXT, PRIMARY KEY (n));",
    )
    .unwrap();
    let classes = ["ai", "stats", "ops"];
    let mut frows = Vec::new();
    let mut lrows = Vec::new();
    for id in 0..60i64 {
        let class = classes[(id % 3) as usize];
        for t in 0..4 {
            let term = format!("{class}_tok{}", (id + t * 7) % 24);
            frows.push(vec![
                Value::Int(id + 1),
                Value::text(term.as_str()),
                Value::Float(1.0 + (t % 3) as f64),
            ]);
        }
        lrows.push(vec![Value::Int(id + 1), Value::text(class)]);
    }
    db.insert_rows("features", frows).unwrap();
    db.insert_rows("labels", lrows).unwrap();

    let model = BornSqlModel::create(db, "m", ModelOptions::default()).unwrap();
    let spec = DataSpec::new("SELECT n, term AS j, cnt AS w FROM features")
        .with_targets("SELECT n, label AS k, 1.0 AS w FROM labels");
    model.fit(&spec).unwrap();
    model
}

fn single_item_spec(id: i64) -> DataSpec {
    DataSpec::new("SELECT n, term AS j, cnt AS w FROM features")
        .with_items(format!("SELECT n FROM labels WHERE n = {id}"))
}

#[test]
fn deployed_predict_plans_an_index_scan_on_the_weights_table() {
    let db = Database::new();
    let model = trained_model(&db);
    model.deploy().unwrap();

    let sql = model.generator().predict(&single_item_spec(1), true);
    let plan = db.explain(&sql).unwrap();
    assert!(
        plan.contains("IndexScan m_weights_j (probed)"),
        "deployed predict should probe the weights index:\n{plan}"
    );
    assert!(
        plan.contains("IndexNestedLoopJoin"),
        "expected an index-nested-loop join in:\n{plan}"
    );
    // The abh CTE is a point lookup on the params primary key.
    assert!(
        plan.contains("IndexScan params.pk (1 keys)"),
        "params lookup should use the primary index:\n{plan}"
    );
}

#[test]
fn repeated_predict_hits_the_plan_cache() {
    let db = Database::new();
    let model = trained_model(&db);
    model.deploy().unwrap();

    let spec = single_item_spec(2);
    let first = model.predict(&spec).unwrap();
    let (hits_before, _) = db.plan_cache_stats();
    for _ in 0..5 {
        assert_eq!(model.predict(&spec).unwrap(), first);
    }
    let (hits_after, _) = db.plan_cache_stats();
    assert!(
        hits_after >= hits_before + 5,
        "expected ≥5 plan-cache hits from repeated predict, got {hits_before} → {hits_after}"
    );
}

#[test]
fn redeploy_invalidates_cached_serving_plans() {
    let db = Database::new();
    let model = trained_model(&db);
    model.deploy().unwrap();

    let spec = single_item_spec(3);
    let before = model.predict(&spec).unwrap();
    let version = db.catalog_version();
    // Redeploy rebuilds the weights table (DROP + CREATE + INSERT + CREATE
    // INDEX): every cached serving plan must be invalidated, not re-served.
    model.deploy().unwrap();
    assert!(
        db.catalog_version() > version,
        "redeploy must bump the catalog version"
    );
    assert_eq!(
        model.predict(&spec).unwrap(),
        before,
        "predictions must survive redeployment"
    );
}

#[test]
fn batched_predict_matches_per_item_predictions() {
    let db = Database::new();
    let model = trained_model(&db);
    model.deploy().unwrap();

    let spec = DataSpec::new("SELECT n, term AS j, cnt AS w FROM features");
    let items: Vec<Value> = (1..=16).map(Value::Int).collect();
    let batched = model.predict_batch(&spec, &items).unwrap();
    let mut singles = Vec::new();
    for id in 1..=16 {
        singles.extend(model.predict(&single_item_spec(id)).unwrap());
    }
    assert_eq!(batched, singles, "batch must equal the per-item loop");

    let batched = model.predict_proba_batch(&spec, &items).unwrap();
    let mut singles = Vec::new();
    for id in 1..=16 {
        singles.extend(model.predict_proba(&single_item_spec(id)).unwrap());
    }
    assert_eq!(batched.len(), singles.len());
    for ((n1, k1, p1), (n2, k2, p2)) in batched.iter().zip(singles.iter()) {
        assert_eq!((n1, k1), (n2, k2));
        assert!((p1 - p2).abs() < 1e-12, "{n1}/{k1}: {p1} vs {p2}");
    }
}

#[test]
fn batched_predict_rejects_bad_item_lists() {
    let db = Database::new();
    let model = trained_model(&db);
    let spec = DataSpec::new("SELECT n, term AS j, cnt AS w FROM features");
    assert!(model.predict_batch(&spec, &[]).is_err());
    assert!(model
        .predict_batch(&spec, &[Value::Int(1), Value::Null])
        .is_err());
}

#[test]
fn index_scans_do_not_change_predictions() {
    let indexed_db = Database::new();
    let indexed = trained_model(&indexed_db);
    indexed.deploy().unwrap();

    let scan_db = Database::with_config(
        sqlengine::EngineConfig::default()
            .with_index_scans(false)
            .with_plan_cache(false),
    );
    let scanned = trained_model(&scan_db);
    scanned.deploy().unwrap();

    let batch = DataSpec::new("SELECT n, term AS j, cnt AS w FROM features")
        .with_items("SELECT n FROM labels WHERE n <= 20");
    assert_eq!(
        indexed.predict(&batch).unwrap(),
        scanned.predict(&batch).unwrap()
    );
    let proba_a = indexed.predict_proba(&batch).unwrap();
    let proba_b = scanned.predict_proba(&batch).unwrap();
    assert_eq!(proba_a.len(), proba_b.len());
    for ((n1, k1, p1), (n2, k2, p2)) in proba_a.iter().zip(proba_b.iter()) {
        assert_eq!((n1, k1), (n2, k2));
        assert!((p1 - p2).abs() < 1e-12, "{n1}/{k1}: {p1} vs {p2}");
    }
}

/// The serving shapes the model API emits — the item id inlined as a
/// literal, which is the only form it offers — must ride one cached template
/// per shape however many distinct ids go by, and still answer what the
/// `born` oracle answers.
#[test]
fn distinct_literal_ids_share_one_template_and_match_the_oracle() {
    const DOCS: i64 = 500;
    let classes = ["ai", "ops", "stats"];
    let doc = |id: i64| -> (Vec<(String, f64)>, String) {
        let class = classes[(id % 3) as usize];
        let mut features: Vec<(String, f64)> = (0..4)
            .map(|t| {
                let term = format!("{class}_tok{}", (id * 5 + t * 7) % 24);
                (term, 1.0 + ((id + t) % 3) as f64)
            })
            .collect();
        features.push((format!("common_tok{}", id % 6), 1.0));
        (features, class.to_string())
    };

    // The same documents twice: under integer ids and under text ids.
    let db = Database::new();
    db.execute_script(
        "CREATE TABLE features (n INTEGER, term TEXT, cnt REAL);
         CREATE TABLE labels (n INTEGER, label TEXT, PRIMARY KEY (n));
         CREATE TABLE named_features (n TEXT, term TEXT, cnt REAL);
         CREATE INDEX features_n ON features (n);
         CREATE INDEX named_features_n ON named_features (n);",
    )
    .unwrap();
    let name = |id: i64| format!("doc-{id}'s");
    let (mut frows, mut nrows, mut lrows, mut items) = (vec![], vec![], vec![], vec![]);
    for id in 1..=DOCS {
        let (features, label) = doc(id);
        for (term, cnt) in &features {
            frows.push(vec![Value::Int(id), Value::text(term), Value::Float(*cnt)]);
            nrows.push(vec![
                Value::text(name(id)),
                Value::text(term),
                Value::Float(*cnt),
            ]);
        }
        lrows.push(vec![Value::Int(id), Value::text(&label)]);
        items.push(TrainItem::labeled(features, label));
    }
    db.insert_rows("features", frows).unwrap();
    db.insert_rows("named_features", nrows).unwrap();
    db.insert_rows("labels", lrows).unwrap();

    let model = BornSqlModel::create(&db, "m", ModelOptions::default()).unwrap();
    let by_id = DataSpec::new("SELECT n, term AS j, cnt AS w FROM features");
    let by_name = DataSpec::new("SELECT n, term AS j, cnt AS w FROM named_features");
    model
        .fit(
            &by_id
                .clone()
                .with_targets("SELECT n, label AS k, 1.0 AS w FROM labels"),
        )
        .unwrap();
    model.deploy().unwrap();
    let oracle = BornClassifier::fit(&items)
        .deploy(HyperParams::new(0.5, 1.0, 1.0).unwrap())
        .unwrap();
    let expected = |id: i64| Value::text(oracle.predict(&doc(id).0).unwrap());

    db.reset_plan_cache_stats();
    let mut statements = 0;
    for id in 1..=DOCS {
        let spec = by_id.clone().with_items(format!("SELECT {id} AS n"));
        assert_eq!(
            model.predict(&spec).unwrap(),
            vec![(Value::Int(id), expected(id))]
        );
        statements += 1;
    }
    for id in (1..=DOCS).step_by(5) {
        let literal = name(id).replace('\'', "''");
        let spec = by_name
            .clone()
            .with_items(format!("SELECT '{literal}' AS n"));
        assert_eq!(
            model.predict(&spec).unwrap(),
            vec![(Value::text(name(id)), expected(id))]
        );
        statements += 1;
    }
    for first in [1, 201, 437] {
        let ids: Vec<i64> = (first..first + 64).collect();
        let batch: Vec<Value> = ids.iter().copied().map(Value::Int).collect();
        let want: Vec<_> = ids
            .iter()
            .map(|&id| (Value::Int(id), expected(id)))
            .collect();
        assert_eq!(model.predict_batch(&by_id, &batch).unwrap(), want);
        statements += 1;
    }
    // One plan per shape — single int id, single text id, batch of 64 —
    // and nothing but the predict statements themselves: the deployment
    // check asks the catalog, not the engine.
    let (hits, misses) = db.plan_cache_stats();
    assert_eq!(hits + misses, statements, "one lookup per predict");
    assert_eq!(misses, 3, "one plan per statement shape");
}
