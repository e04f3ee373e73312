//! Exact incremental learning and exact unlearning are each one SQL
//! statement (`unlearn` adds a `DELETE` of the cells that cancelled), which
//! a model handle issues again and again. Every call after the first of its
//! shape is served from the plan cache — no parse, no check, no plan — also
//! while documents stream in and out of the feature tables, and the corpus
//! it leaves equals, bit for bit, the one the same calls leave on a database
//! without a plan cache.

use bornsql::{BornSqlModel, DataSpec, ModelOptions};
use sqlengine::{Database, EngineConfig, Value};

const DOCS: i64 = 40;

/// A flat fixture: `features (n, term, cnt)` and `labels (n, label)`.
fn load(db: &Database) -> BornSqlModel<'_, Database> {
    db.execute_script(
        "CREATE TABLE features (n INTEGER, term TEXT, cnt REAL);
         CREATE TABLE labels (n INTEGER PRIMARY KEY, label TEXT);",
    )
    .unwrap();
    let mut features = Vec::new();
    for n in 1..=DOCS {
        for term in [n % 7, 10 + n % 5, 20 + n % 3] {
            let cnt = 1.0 + (n % 4) as f64 * 0.3;
            let row = vec![
                Value::Int(n),
                Value::text(format!("t{term}")),
                Value::Float(cnt),
            ];
            features.push(row);
        }
    }
    let labels = (1..=DOCS)
        .map(|n| vec![Value::Int(n), Value::text(format!("c{}", n % 3))])
        .collect();
    db.insert_rows("features", features).unwrap();
    db.insert_rows("labels", labels).unwrap();
    BornSqlModel::create(db, "m", ModelOptions::default()).unwrap()
}

fn batch(lo: i64, hi: i64) -> DataSpec {
    DataSpec::new("SELECT n, term AS j, cnt AS w FROM features")
        .with_targets("SELECT n, label AS k, 1.0 AS w FROM labels")
        .with_items(format!(
            "SELECT n FROM labels WHERE n >= {lo} AND n <= {hi}"
        ))
}

/// Call `i` of the sequence: learn a batch on even calls, unlearn the one
/// before it on odd ones, so the batches and their literals keep changing.
fn call(model: &BornSqlModel<'_, Database>, i: i64) {
    let lo = 1 + (i / 2 % 4) * 10;
    let spec = batch(lo, lo + 14);
    match i % 2 {
        0 => model.partial_fit(&spec).unwrap(),
        _ => model.unlearn(&spec).unwrap(),
    }
}

const CALLS: i64 = 60;

/// The corpus as `(j, k, bits of P_jk)`.
fn corpus(model: &BornSqlModel<'_, Database>) -> Vec<(Value, Value, u64)> {
    let cells = model.corpus().unwrap().into_iter();
    cells.map(|(j, k, w)| (j, k, w.to_bits())).collect()
}

#[test]
fn repeated_training_statements_hit_the_plan_cache_and_agree_bit_for_bit() {
    let cached = Database::new();
    let uncached = Database::with_config(EngineConfig::default().with_plan_cache(false));
    let (model, fresh) = (load(&cached), load(&uncached));
    for (db, model) in [(&cached, &model), (&uncached, &fresh)] {
        model.fit(&batch(1, DOCS)).unwrap();
        call(model, 0);
        call(model, 1);
        db.reset_plan_cache_stats();
    }
    let logged = cached.telemetry().query_log().len();
    for i in 2..CALLS {
        call(&model, i);
        call(&fresh, i);
    }
    // One statement per partial_fit, two per unlearn: all of them hits.
    let statements = (CALLS - 2) / 2 * 3;
    assert_eq!(cached.plan_cache_stats(), (statements as u64, 0));
    assert_eq!(uncached.plan_cache_stats(), (0, 0));
    let log = cached.telemetry().query_log();
    let training: Vec<_> = log[logged..]
        .iter()
        .filter(|e| e.sql.starts_with("INSERT") || e.sql.starts_with("DELETE"))
        .collect();
    assert_eq!(training.len(), statements as usize);
    for entry in training {
        assert!(entry.cache_hit, "{}", entry.sql);
        assert_eq!((entry.parse_us, entry.sema_us), (0, 0), "{}", entry.sql);
    }
    let (a, b) = (corpus(&model), corpus(&fresh));
    assert!(!a.is_empty());
    assert_eq!(a, b);
}

/// The value of a `sys.metrics` counter.
fn metric(db: &Database, name: &str) -> f64 {
    let sql = format!("SELECT value FROM sys.metrics WHERE name = '{name}'");
    match db.query_scalar(&sql).unwrap() {
        Value::Float(v) => v,
        Value::Int(v) => v as f64,
        other => panic!("{name} = {other:?}"),
    }
}

/// Documents per streamed batch, and batches in the window.
const BATCH: i64 = 5;
const WINDOW: i64 = 4;
const STEPS: i64 = 32;

/// The feature and label rows of documents `lo..=hi`.
fn documents(lo: i64, hi: i64) -> (Vec<Vec<Value>>, Vec<Vec<Value>>) {
    let (mut features, mut labels) = (Vec::new(), Vec::new());
    for n in lo..=hi {
        for term in [n % 7, 10 + n % 5, 20 + n % 3] {
            let cnt = 1.0 + (n % 4) as f64 * 0.3;
            features.push(vec![
                Value::Int(n),
                Value::text(format!("t{term}")),
                Value::Float(cnt),
            ]);
        }
        labels.push(vec![Value::Int(n), Value::text(format!("c{}", n % 3))]);
    }
    (features, labels)
}

/// One step of the stream over `db`: insert batch `step`, learn it, unlearn
/// the batch that leaves the window and delete its documents.
fn stream_step(db: &Database, model: &BornSqlModel<'_, Database>, step: i64) {
    let lo = 1 + step * BATCH;
    let hi = lo + BATCH - 1;
    let (features, labels) = documents(lo, hi);
    db.insert_rows("features", features).unwrap();
    db.insert_rows("labels", labels).unwrap();
    model.partial_fit(&batch(lo, hi)).unwrap();
    let old = lo - WINDOW * BATCH;
    model.unlearn(&batch(old, old + BATCH - 1)).unwrap();
    for table in ["features", "labels"] {
        let delete = format!(
            "DELETE FROM {table} WHERE n >= {old} AND n <= {}",
            old + BATCH - 1
        );
        db.execute(&delete).unwrap();
    }
}

/// A database whose window holds batches `0..WINDOW` (documents past the
/// fixture's), learned.
fn streaming(db: &Database) -> BornSqlModel<'_, Database> {
    let model = load(db);
    db.execute("DELETE FROM features").unwrap();
    db.execute("DELETE FROM labels").unwrap();
    let (features, labels) = documents(1, WINDOW * BATCH);
    db.insert_rows("features", features).unwrap();
    db.insert_rows("labels", labels).unwrap();
    model.partial_fit(&batch(1, WINDOW * BATCH)).unwrap();
    model
}

#[test]
fn a_streamed_window_keeps_its_training_statements_cached() {
    let cached = Database::new();
    let uncached = Database::with_config(EngineConfig::default().with_plan_cache(false));
    let (model, fresh) = (streaming(&cached), streaming(&uncached));
    for (db, model) in [(&cached, &model), (&uncached, &fresh)] {
        stream_step(db, model, WINDOW);
    }
    cached.reset_plan_cache_stats();
    let logged = cached.telemetry().query_log().len();
    let copies = metric(&cached, "catalog.snapshot_copies");
    for step in WINDOW + 1..WINDOW + STEPS {
        stream_step(&cached, &model, step);
        stream_step(&uncached, &fresh, step);
    }
    // Per step: partial_fit's upsert, unlearn's upsert and pruning
    // `DELETE`, and the window's two `DELETE`s — every one a hit, though
    // the step wrote every table they read.
    let statements = (STEPS - 1) as u64 * 5;
    assert_eq!(cached.plan_cache_stats(), (statements, 0));
    let log = cached.telemetry().query_log();
    let written: Vec<_> = log[logged..]
        .iter()
        .filter(|e| e.sql.starts_with("INSERT") || e.sql.starts_with("DELETE"))
        .collect();
    assert_eq!(written.len() as u64, statements);
    for entry in written {
        assert!(entry.cache_hit, "{}", entry.sql);
    }
    // No plan holds a table's rows for a write to copy.
    assert_eq!(metric(&cached, "catalog.snapshot_copies"), copies);
    let (a, b) = (corpus(&model), corpus(&fresh));
    assert!(!a.is_empty());
    assert_eq!(a, b);
}

#[test]
fn a_second_fit_and_a_second_deploy_are_served_from_the_cache() {
    // `fit` drops and creates the corpus table, `deploy` the weights table,
    // each defined as before: the statement that fills it is a hit.
    let db = Database::new();
    let model = load(&db);
    let last_fill = |db: &Database| {
        let log = db.telemetry().query_log();
        let fill = log.iter().rev().find(|e| e.sql.starts_with("INSERT"));
        fill.expect("a filling statement").cache_hit
    };
    for run in 0..2 {
        model.fit(&batch(1, DOCS)).unwrap();
        assert_eq!(last_fill(&db), run == 1, "fit {run}");
        model.deploy().unwrap();
        assert_eq!(last_fill(&db), run == 1, "deploy {run}");
    }
}
