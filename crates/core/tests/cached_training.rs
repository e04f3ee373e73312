//! Exact incremental learning and exact unlearning are each one SQL
//! statement (`unlearn` adds a `DELETE` of the cells that cancelled), which
//! a model handle issues again and again. Over feature tables that do not
//! change, every call after the first of its shape is served from the plan
//! cache — no parse, no check, no plan — and the corpus it leaves equals,
//! bit for bit, the one the same calls leave on a database without a plan
//! cache.

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
