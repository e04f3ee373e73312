//! Per-model serving telemetry: model lifecycle events and predict traffic
//! recorded by the engine registry and queryable as `sys.born_models`.

use bornsql::{BornSqlModel, DataSpec, ModelOptions};
use sqlengine::{Database, Value};

fn trained_model(db: &Database) -> BornSqlModel<'_, Database> {
    db.execute_script(
        "CREATE TABLE features (n INTEGER, term TEXT, cnt REAL);
         CREATE TABLE labels (n INTEGER, label TEXT, PRIMARY KEY (n));",
    )
    .unwrap();
    let classes = ["ai", "stats"];
    let mut frows = Vec::new();
    let mut lrows = Vec::new();
    for id in 0..20i64 {
        let class = classes[(id % 2) as usize];
        for t in 0..3 {
            frows.push(vec![
                Value::Int(id + 1),
                Value::text(format!("{class}_tok{}", (id + t) % 8)),
                Value::Float(1.0 + t as f64),
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

fn all_items_spec() -> DataSpec {
    DataSpec::new("SELECT n, term AS j, cnt AS w FROM features").with_items("SELECT n FROM labels")
}

#[test]
fn predict_traffic_shows_up_in_sys_born_models() {
    let db = Database::new();
    let model = trained_model(&db);
    for _ in 0..3 {
        model.predict(&all_items_spec()).unwrap();
    }

    let r = db
        .query(
            "SELECT model, deployed, predict_calls, rows_returned, fit_batches \
             FROM sys.born_models",
        )
        .unwrap();
    assert_eq!(r.rows.len(), 1);
    assert_eq!(r.rows[0][0], Value::text("m"));
    assert_eq!(r.rows[0][1], Value::Int(0), "not deployed yet");
    assert_eq!(r.rows[0][2], Value::Int(3));
    assert_eq!(r.rows[0][3], Value::Int(60), "3 predicts × 20 items");
    assert_eq!(
        r.rows[0][4],
        Value::Int(1),
        "fit runs one partial_fit batch"
    );

    // Latency histogram columns carry real observations.
    let mean = db
        .query_scalar("SELECT predict_mean_us FROM sys.born_models WHERE model = 'm'")
        .unwrap();
    let Value::Float(mean) = mean else {
        panic!("expected float, got {mean:?}")
    };
    assert!(mean > 0.0);
}

#[test]
fn lifecycle_events_update_deploy_and_unlearn_counters() {
    let db = Database::new();
    let model = trained_model(&db);

    model.deploy().unwrap();
    let d = db
        .query_scalar("SELECT deployed FROM sys.born_models WHERE model = 'm'")
        .unwrap();
    assert_eq!(d, Value::Int(1));

    model.undeploy().unwrap();
    let d = db
        .query_scalar("SELECT deployed FROM sys.born_models WHERE model = 'm'")
        .unwrap();
    assert_eq!(d, Value::Int(0));

    let forget = DataSpec::new("SELECT n, term AS j, cnt AS w FROM features")
        .with_targets("SELECT n, label AS k, 1.0 AS w FROM labels")
        .with_items("SELECT n FROM labels WHERE n = 1");
    model.unlearn(&forget).unwrap();
    let u = db
        .query_scalar("SELECT unlearn_calls FROM sys.born_models WHERE model = 'm'")
        .unwrap();
    assert_eq!(u, Value::Int(1));
}

#[test]
fn batched_predict_records_one_serving_request() {
    let db = Database::new();
    let model = trained_model(&db);
    let spec = DataSpec::new("SELECT n, term AS j, cnt AS w FROM features");
    let items: Vec<Value> = (1..=20).map(Value::Int).collect();
    model.predict_batch(&spec, &items).unwrap();

    let r = db
        .query("SELECT predict_calls, rows_returned FROM sys.born_models")
        .unwrap();
    assert_eq!(r.rows.len(), 1);
    assert_eq!(
        r.rows[0][0],
        Value::Int(1),
        "one batch = one serving request"
    );
    assert_eq!(
        r.rows[0][1],
        Value::Int(20),
        "row count covers the whole batch"
    );
}

#[test]
fn predicts_on_a_telemetry_disabled_backend_record_nothing() {
    let db = Database::with_config(sqlengine::EngineConfig::default().with_telemetry(false));
    let model = trained_model(&db);
    model.predict(&all_items_spec()).unwrap();
    let r = db.query("SELECT * FROM sys.born_models").unwrap();
    assert!(r.rows.is_empty(), "disabled registry must stay empty");
}

fn counter(db: &Database, name: &str) -> i64 {
    let sql = format!("SELECT value FROM sys.metrics WHERE name = '{name}'");
    match db.query_scalar(&sql).unwrap() {
        Value::Float(v) => v as i64,
        other => panic!("{name} = {other:?}"),
    }
}

/// A predict is one statement, deployed or not: the deployment check asks
/// the catalog. It used to be a `SELECT COUNT(*)` probe — a second log row
/// per predict, and on an undeployed model a failed one.
#[test]
fn a_predict_is_one_statement_and_never_a_logged_error() {
    const N: usize = 7;
    let db = Database::new();
    let model = trained_model(&db);
    let statements = |db: &Database| db.telemetry().statements.get();
    let spec = |id: usize| {
        DataSpec::new("SELECT n, term AS j, cnt AS w FROM features")
            .with_items(format!("SELECT {} AS n", id + 1))
    };

    assert!(!model.is_deployed());
    let before = statements(&db);
    for id in 0..N {
        assert_eq!(model.predict(&spec(id)).unwrap().len(), 1);
    }
    assert_eq!(
        statements(&db) - before,
        N as u64,
        "undeployed: N statements"
    );
    assert_eq!(counter(&db, "statements.errors"), 0);
    assert!(db.telemetry().query_log().iter().all(|e| e.error.is_none()));

    model.deploy().unwrap();
    assert!(model.is_deployed());
    let before = statements(&db);
    for id in 0..N {
        assert_eq!(model.predict(&spec(id)).unwrap().len(), 1);
    }
    assert_eq!(statements(&db) - before, N as u64, "deployed: N, not 2N");
    assert_eq!(counter(&db, "statements.errors"), 0);
    // All but the first ride the first one's template.
    let log = db.telemetry().query_log();
    let hits = log[log.len() - N..].iter().filter(|e| e.cache_hit).count();
    assert_eq!(hits, N - 1);
}

/// What `sys.born_models` reports for a predict is what the caller waited
/// for: the timed region spans the whole call (deployment check, SQL
/// generation, the statement, row conversion), so an operator reading the
/// table and a client timing its calls see the same latency.
#[test]
fn born_models_latency_is_the_callers_wall_clock() {
    let db = Database::new();
    let model = trained_model(&db);
    model.deploy().unwrap();
    let spec = |id: i64| {
        DataSpec::new("SELECT n, term AS j, cnt AS w FROM features")
            .with_items(format!("SELECT {} AS n", id % 20 + 1))
    };
    // The caller's samples go through the same histogram the engine keeps,
    // so both medians carry the same bucket interpolation.
    let callers = sqlengine::telemetry::Histogram::default();
    for id in 0..400 {
        let spec = spec(id);
        let started = std::time::Instant::now();
        model.predict(&spec).unwrap();
        callers.record(started.elapsed());
    }
    let row = db
        .query("SELECT predict_calls, predict_mean_us, predict_p50_us FROM sys.born_models")
        .unwrap()
        .rows
        .remove(0);
    assert_eq!(row[0], Value::Int(400));
    for (what, reported, measured) in [
        ("mean", &row[1], callers.mean_micros()),
        ("p50", &row[2], callers.percentile_micros(0.5)),
    ] {
        let Value::Float(reported) = reported else {
            panic!("{what}: {reported:?}")
        };
        assert!(
            (reported - measured).abs() <= 0.15 * measured,
            "{what}: sys.born_models says {reported} us, the caller measured {measured} us"
        );
    }
}
