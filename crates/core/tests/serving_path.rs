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

// ---------------------------------------------------------------------
// The paper's Fig. 2 star schema: prefixed arms, no secondary indexes
// ---------------------------------------------------------------------

const STAR_DOCS: i64 = 300;
const STAR_MODEL: &str = "star";

/// One publication: venue, authors, keywords, `(lexeme, count)`s and ASJC
/// code, all a function of the id so the oracle can rebuild them.
struct StarDoc {
    venue: String,
    authors: Vec<i64>,
    keywords: Vec<String>,
    lexemes: Vec<(String, f64)>,
    asjc: i64,
}

fn star_doc(id: i64) -> StarDoc {
    let field = id % 4;
    StarDoc {
        venue: format!("venue{}", field * 3 + id % 3),
        authors: vec![field * 50 + (id * 7) % 50, 900 + id % 5],
        keywords: vec![
            format!("kw{}_{}", field, id % 6),
            format!("shared{}", id % 9),
        ],
        lexemes: (0..8)
            .map(|t| {
                let word = match t {
                    0..=5 => format!("f{field}lex{}", (id * 5 + t * 3) % 40),
                    _ => format!("common{}", (id + t) % 11),
                };
                (word, 1.0 + ((id + t) % 3) as f64)
            })
            .collect(),
        asjc: 1000 + field * 100 + id % 7,
    }
}

/// The `(j, w)` features of a document exactly as the four arms emit them.
fn star_features(id: i64) -> Vec<(String, f64)> {
    let d = star_doc(id);
    let mut x = vec![(format!("pubname:{}", d.venue), 1.0)];
    x.extend(d.authors.iter().map(|a| (format!("authid:{a}"), 1.0)));
    x.extend(d.keywords.iter().map(|k| (format!("keyword:{k}"), 1.0)));
    x.extend(
        d.lexemes
            .into_iter()
            .map(|(l, c)| (format!("abstract:{l}"), c)),
    );
    x
}

fn star_class(id: i64) -> String {
    (star_doc(id).asjc / 100).to_string()
}

fn star_items(ids: impl Iterator<Item = i64>) -> Vec<TrainItem<String, String>> {
    ids.map(|id| TrainItem::labeled(star_features(id), star_class(id)))
        .collect()
}

fn star_arms() -> DataSpec {
    DataSpec::new("SELECT id AS n, 'pubname:' || pubname AS j, 1.0 AS w FROM publication")
        .with_features("SELECT pubid AS n, 'authid:' || authid AS j, 1.0 AS w FROM pub_author")
        .with_features("SELECT pubid AS n, 'keyword:' || keyword AS j, 1.0 AS w FROM pub_keyword")
        .with_features("SELECT pubid AS n, 'abstract:' || lexeme AS j, cnt AS w FROM pub_lexeme")
}

fn star_train(lo: i64, hi: i64) -> DataSpec {
    star_arms()
        .with_targets("SELECT id AS n, asjc / 100 AS k, 1.0 AS w FROM publication")
        .with_items(format!(
            "SELECT id AS n FROM publication WHERE id >= {lo} AND id <= {hi}"
        ))
}

fn star_one(id: i64) -> DataSpec {
    star_arms().with_items(format!("SELECT {id} AS n"))
}

/// Load the four tables and create (not train) the model.
fn star_db(db: &Database) -> BornSqlModel<'_, Database> {
    db.execute_script(
        "CREATE TABLE publication (id INTEGER PRIMARY KEY, pubname TEXT, asjc INTEGER, abstract TEXT);
         CREATE TABLE pub_author (pubid INTEGER, authid INTEGER);
         CREATE TABLE pub_keyword (pubid INTEGER, keyword TEXT);
         CREATE TABLE pub_lexeme (pubid INTEGER, lexeme TEXT, cnt REAL);",
    )
    .unwrap();
    let (mut pubs, mut authors, mut keywords, mut lexemes) = (vec![], vec![], vec![], vec![]);
    for id in 1..=STAR_DOCS {
        let d = star_doc(id);
        pubs.push(vec![
            Value::Int(id),
            Value::text(&d.venue),
            Value::Int(d.asjc),
            Value::text("…"),
        ]);
        authors.extend(
            d.authors
                .iter()
                .map(|a| vec![Value::Int(id), Value::Int(*a)]),
        );
        keywords.extend(
            d.keywords
                .iter()
                .map(|k| vec![Value::Int(id), Value::text(k)]),
        );
        lexemes.extend(
            d.lexemes
                .iter()
                .map(|(l, c)| vec![Value::Int(id), Value::text(l), Value::Float(*c)]),
        );
    }
    db.insert_rows("publication", pubs).unwrap();
    db.insert_rows("pub_author", authors).unwrap();
    db.insert_rows("pub_keyword", keywords).unwrap();
    db.insert_rows("pub_lexeme", lexemes).unwrap();
    let options = ModelOptions {
        class_type: "INTEGER",
        ..ModelOptions::default()
    };
    BornSqlModel::create(db, STAR_MODEL, options).unwrap()
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs())
}

fn assert_corpus_is(model: &BornSqlModel<'_, Database>, oracle: &BornClassifier<String, String>) {
    let corpus = model.corpus().unwrap();
    assert_eq!(corpus.len(), oracle.n_cells(), "corpus cell count");
    for (j, k, w) in &corpus {
        let expected = oracle.weight(&j.to_string(), &k.to_string());
        assert!(close(*w, expected), "cell ({j}, {k}): {w} vs {expected}");
    }
}

/// Every serving call on the star shape, deployed and not, against the
/// oracle deployed at the model's hyper-parameters.
fn assert_star_serving_is(
    model: &BornSqlModel<'_, Database>,
    oracle: &BornClassifier<String, String>,
) {
    let weights = oracle
        .deploy(HyperParams::new(0.5, 1.0, 1.0).unwrap())
        .unwrap();
    let label_ok = |id: i64, k: &Value| {
        let scores = weights.scores(&star_features(id));
        let best = scores.values().copied().fold(f64::MIN, f64::max);
        assert!(
            scores
                .get(&k.to_string())
                .is_some_and(|s| *s >= best * (1.0 - 1e-9)),
            "item {id}: SQL says {k}, oracle says {:?}",
            weights.predict(&star_features(id))
        );
    };

    for id in [1, 77, 158, STAR_DOCS] {
        let rows = model.predict(&star_one(id)).unwrap();
        assert_eq!(rows.len(), 1, "one row for item {id}");
        assert_eq!(rows[0].0, Value::Int(id));
        label_ok(id, &rows[0].1);

        let proba = model.predict_proba(&star_one(id)).unwrap();
        let expected = weights.predict_proba(&star_features(id));
        assert_eq!(proba.len(), expected.len(), "classes scored for item {id}");
        for (n, k, p) in &proba {
            assert_eq!(n, &Value::Int(id));
            let want = expected.iter().find(|(ek, _)| *ek == k.to_string());
            assert!(
                want.is_some_and(|(_, ep)| close(*p, *ep)),
                "item {id} class {k}: {p} vs {want:?}"
            );
        }

        let top = 12;
        let explained = model.explain_local(&star_one(id), Some(top)).unwrap();
        let expected = weights.explain_local(&[(star_features(id), 1.0)]);
        assert_eq!(explained.len(), top.min(expected.len()));
        for ((j, k, w), (_, _, ranked)) in explained.iter().zip(&expected) {
            let cell = expected
                .iter()
                .find(|(ej, ek, _)| *ej == j.to_string() && *ek == k.to_string());
            assert!(
                cell.is_some_and(|(_, _, cw)| close(*w, *cw)) && close(*w, *ranked),
                "item {id} explanation ({j}, {k}): {w} vs ranked {ranked}"
            );
        }
    }

    let ids: Vec<i64> = (0..64).map(|i| 3 + i * 4).collect();
    let batch: Vec<Value> = ids.iter().copied().map(Value::Int).collect();
    let rows = model.predict_batch(&star_arms(), &batch).unwrap();
    assert_eq!(
        rows.iter().map(|(n, _)| n.clone()).collect::<Vec<_>>(),
        batch,
        "one row per batch item, ids ascending"
    );
    for (id, (_, k)) in ids.iter().zip(&rows) {
        label_ok(*id, k);
    }
}

#[test]
fn star_shape_matches_the_oracle_deployed_and_undeployed() {
    let db = Database::new();
    let model = star_db(&db);

    // Train on the first 200, add the rest, take a middle range back out:
    // each step's corpus is the oracle's.
    let mut oracle = BornClassifier::fit(&star_items(1..=200));
    model.fit(&star_train(1, 200)).unwrap();
    assert_corpus_is(&model, &oracle);
    oracle.partial_fit(&star_items(201..=STAR_DOCS));
    model.partial_fit(&star_train(201, STAR_DOCS)).unwrap();
    assert_corpus_is(&model, &oracle);
    oracle.unlearn(&star_items(50..=120));
    model.unlearn(&star_train(50, 120)).unwrap();
    assert_corpus_is(&model, &oracle);

    assert!(!model.is_deployed());
    assert_star_serving_is(&model, &oracle);
    model.deploy().unwrap();
    assert!(model.is_deployed());
    assert_star_serving_is(&model, &oracle);
}

/// The single-item predict on the star shape must run each arm's join
/// *below* the arm's projection: the `publication` arm probes the primary
/// key, and in the other arms the `Project` sees only the rows its join kept.
#[test]
fn star_predict_joins_below_each_arms_projection() {
    let db = Database::new();
    let model = star_db(&db);
    model.fit(&star_train(1, STAR_DOCS)).unwrap();
    model.deploy().unwrap();

    let sql = model.generator().predict(&star_one(42), true);
    let (result, stats) = db.query_analyzed(&sql).unwrap();
    assert_eq!(result.rows.len(), 1);
    let rendered = sqlengine::explain::render_analyze(&stats);

    let union = stats.find("UnionAll [4 inputs]").expect(&rendered);
    let mut index_joined = 0;
    for arm in &union.children {
        assert!(arm.label.starts_with("Project"), "arm root:\n{rendered}");
        let [join] = arm.children.as_slice() else {
            panic!("an arm's projection has one input:\n{rendered}");
        };
        assert!(
            join.label.contains("Join"),
            "a Project sits directly on {}:\n{rendered}",
            join.label
        );
        assert_eq!(
            arm.rows_in, join.rows_out,
            "the projection reads the join's output:\n{rendered}"
        );
        if join.label.starts_with("IndexNestedLoopJoin") {
            assert!(
                join.find("IndexScan publication.pk (probed)").is_some(),
                "index join on the primary key:\n{rendered}"
            );
            index_joined += 1;
        } else {
            assert!(
                join.label.contains("probe=keyset(vectorized)"),
                "an arm without an index filters its scan by the item keys:\n{rendered}"
            );
            let scanned = join.children[0].rows_out;
            assert!(
                arm.rows_in * 8 <= scanned,
                "{} rows projected of {scanned} scanned:\n{rendered}",
                arm.rows_in
            );
        }
    }
    assert_eq!(index_joined, 1, "the publication arm:\n{rendered}");
}
