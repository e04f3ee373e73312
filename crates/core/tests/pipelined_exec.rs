//! At parallelism 1 every pipeline runs serially; at parallelism 2 and 4 one
//! whose sources pass the fan-out threshold is cut into morsels that the
//! workers run into partials of its breaker. On the
//! paper's star schema every model call's statement — `partial_fit`,
//! `unlearn`, `deploy`, predict undeployed and deployed, `predict_batch`,
//! `explain_local` — must give byte-identical rows in the same order, the
//! same `EXPLAIN ANALYZE` `(label, rows_in, rows_out)` tree and the same
//! `exec.rows_materialized` under all three, and the model must equal the
//! `born` oracle. So must the two ways of running a CTE read more than once:
//! under `profile_a` it runs once for all its references (and one read once
//! is inlined), under `profile_b` every CTE runs once and is held.
//!
//! "Byte-identical" is asked of float results too, although the morsel
//! path adds partial sums in morsel order: the fixture keeps every sum a sum
//! of dyadic rationals, exact in any order. Each document's features weigh
//! 8 in all, each class holds a power-of-two number of documents, and the
//! hyper-parameters are `a = 1, b = 1, h = 0` (so `W_jk = P_jk / P_k` and
//! `HW_jk = W_jk`; `H_j`, the one irrational, is raised to the power 0).

use born::{BornClassifier, HyperParams, TrainItem};
use bornsql::{BornSqlModel, DataSpec, ModelOptions, Params};
use sqlengine::{Database, EngineConfig, OpStats, Row, Value};

const DOCS: i64 = 256;
const CLASSES: i64 = 4;
/// The fixture the drivers are compared on: its `x_nj` holds 16,384 rows,
/// past the executor's fan-out threshold, so the morsel pipelines fan out.
const MANY_DOCS: i64 = 2048;

/// A document's `(j, w)` features exactly as the four arms emit them: a
/// venue, two authors, a keyword and four lexemes, each of weight 1.
fn features(id: i64) -> Vec<(String, f64)> {
    let mut x = vec![(format!("pubname:venue{}", id % 6), 1.0)];
    x.push((format!("authid:{}", id % 20), 1.0));
    x.push((format!("authid:{}", 100 + id % 7), 1.0));
    x.push((format!("keyword:kw{}_{}", id % CLASSES, id % 5), 1.0));
    x.extend((0..4).map(|t| (format!("abstract:lex{t}_{}", (id * 3 + t) % 9), 1.0)));
    x
}

fn class(id: i64) -> i64 {
    10 + id % CLASSES
}

fn items(ids: std::ops::RangeInclusive<i64>) -> Vec<TrainItem<String, String>> {
    ids.map(|id| TrainItem::labeled(features(id), class(id).to_string()))
        .collect()
}

fn arms() -> DataSpec {
    DataSpec::new("SELECT id AS n, 'pubname:' || pubname AS j, 1.0 AS w FROM publication")
        .with_features("SELECT pubid AS n, 'authid:' || authid AS j, 1.0 AS w FROM pub_author")
        .with_features("SELECT pubid AS n, 'keyword:' || keyword AS j, 1.0 AS w FROM pub_keyword")
        .with_features("SELECT pubid AS n, 'abstract:' || lexeme AS j, cnt AS w FROM pub_lexeme")
}

fn train(lo: i64, hi: i64) -> DataSpec {
    arms()
        .with_targets("SELECT id AS n, asjc / 100 AS k, 1.0 AS w FROM publication")
        .with_items(format!(
            "SELECT id AS n FROM publication WHERE id >= {lo} AND id <= {hi}"
        ))
}

fn one(id: i64) -> DataSpec {
    arms().with_items(format!("SELECT {id} AS n"))
}

/// Load the four star tables of documents `1..=docs` from [`features`] and
/// create the model.
fn load(db: &Database, docs: i64) -> BornSqlModel<'_, Database> {
    db.execute_script(
        "CREATE TABLE publication (id INTEGER PRIMARY KEY, pubname TEXT, asjc INTEGER);
         CREATE TABLE pub_author (pubid INTEGER, authid INTEGER);
         CREATE TABLE pub_keyword (pubid INTEGER, keyword TEXT);
         CREATE TABLE pub_lexeme (pubid INTEGER, lexeme TEXT, cnt REAL);",
    )
    .unwrap();
    let (mut pubs, mut authors, mut keywords, mut lexemes) = (vec![], vec![], vec![], vec![]);
    for id in 1..=docs {
        let text = |s: &str| Value::text(s);
        for (j, w) in features(id) {
            let (arm, name) = j.split_once(':').unwrap();
            match arm {
                "pubname" => pubs.push(vec![
                    Value::Int(id),
                    text(name),
                    Value::Int(class(id) * 100 + id % 7),
                ]),
                "authid" => authors.push(vec![Value::Int(id), Value::Int(name.parse().unwrap())]),
                "keyword" => keywords.push(vec![Value::Int(id), text(name)]),
                _ => lexemes.push(vec![Value::Int(id), text(name), Value::Float(w)]),
            }
        }
    }
    db.insert_rows("publication", pubs).unwrap();
    db.insert_rows("pub_author", authors).unwrap();
    db.insert_rows("pub_keyword", keywords).unwrap();
    db.insert_rows("pub_lexeme", lexemes).unwrap();
    let options = ModelOptions {
        class_type: "INTEGER",
        params: Params {
            a: 1.0,
            b: 1.0,
            h: 0.0,
        },
        ..ModelOptions::default()
    };
    BornSqlModel::create(db, "star", options).unwrap()
}

/// `(depth, label, rows_in, rows_out)` of every operator, preorder.
fn shape(stats: &OpStats) -> Vec<(usize, String, usize, usize)> {
    fn walk(s: &OpStats, depth: usize, out: &mut Vec<(usize, String, usize, usize)>) {
        out.push((depth, s.label.clone(), s.rows_in, s.rows_out));
        for child in &s.children {
            walk(child, depth + 1, out);
        }
    }
    let mut out = Vec::new();
    walk(stats, 0, &mut out);
    out
}

/// Rows rendered to the bit (`f64`'s `Debug` round-trips).
fn bits(rows: &[Row]) -> Vec<String> {
    rows.iter().map(|r| format!("{r:?}")).collect()
}

/// How far `exec.rows_materialized` moves while `run` runs.
fn held_by<T>(db: &Database, run: impl FnOnce() -> T) -> (T, u64) {
    let metric = || match db
        .query_scalar("SELECT value FROM sys.metrics WHERE name = 'exec.rows_materialized'")
        .unwrap()
    {
        Value::Float(f) => f as u64,
        other => panic!("expected a float, got {other:?}"),
    };
    let before = metric();
    let out = run();
    (out, metric() - before)
}

/// Run a query serially and over morsels, at parallelism 1, 2 and 4; all
/// must agree to the bit, row for row, operator for operator and in the rows
/// they hold. Also says whether the parallel runs fanned out to the workers
/// (both or neither: the fan-out gate counts rows, not workers).
fn same_every_way(dbs: [&Database; 3], sql: &str) -> (Vec<Row>, bool) {
    let runs = dbs.map(|db| held_by(db, || db.query_analyzed(sql).unwrap()));
    let ((serial, serial_stats), serial_held) = &runs[0];
    assert!(
        !has_fanned_out(serial_stats),
        "parallelism 1 is serial: {sql}"
    );
    let fanned_out = runs.each_ref().map(|((_, stats), _)| has_fanned_out(stats));
    assert_eq!(fanned_out[1], fanned_out[2], "fan-out of {sql}");
    for ((morsels, morsel_stats), held) in &runs[1..] {
        assert_eq!(bits(&serial.rows), bits(&morsels.rows), "rows of {sql}");
        assert_eq!(
            shape(serial_stats),
            shape(morsel_stats),
            "EXPLAIN ANALYZE of {sql}\nserial:\n{}\nmorsels:\n{}",
            sqlengine::explain::render_analyze(serial_stats),
            sqlengine::explain::render_analyze(morsel_stats)
        );
        assert_eq!(held, serial_held, "exec.rows_materialized of {sql}");
    }
    (serial.rows.clone(), fanned_out[2])
}

fn has_fanned_out(stats: &OpStats) -> bool {
    stats.workers > 1 || stats.children.iter().any(has_fanned_out)
}

/// The query an `INSERT INTO t (j, k, w) <query> [upsert tail]` inserts, in
/// either dialect's spelling of the tail.
fn source_query(insert: &str) -> &str {
    let (_, query) = insert.split_once("(j, k, w) ").unwrap();
    [" ON CONFLICT", " ON DUPLICATE KEY"]
        .iter()
        .fold(query, |q, tail| q.split(tail).next().unwrap())
}

fn int(v: &Value) -> i64 {
    match v {
        Value::Int(i) => *i,
        other => panic!("expected an integer, got {other:?}"),
    }
}

fn float(v: &Value) -> f64 {
    match v {
        Value::Float(f) => *f,
        other => panic!("expected a float, got {other:?}"),
    }
}

/// Every corpus is the oracle's, cell for cell.
fn assert_corpus_is(
    models: &[BornSqlModel<'_, Database>],
    oracle: &BornClassifier<String, String>,
) {
    let corpus = models[0].corpus().unwrap();
    for model in &models[1..] {
        assert_eq!(
            format!("{corpus:?}"),
            format!("{:?}", model.corpus().unwrap())
        );
    }
    assert_eq!(corpus.len(), oracle.n_cells(), "corpus cell count");
    for (j, k, w) in &corpus {
        assert_eq!(
            *w,
            oracle.weight(&j.to_string(), &k.to_string()),
            "cell ({j}, {k})"
        );
    }
}

/// Every `(n, k)` row names a class of maximal oracle score for item `n`.
fn assert_labels_are_argmax(rows: &[Row], weights: &born::DeployedModel<String, String>) {
    for row in rows {
        let id = int(&row[0]);
        let scores = weights.scores(&features(id));
        let best = scores.values().copied().fold(f64::MIN, f64::max);
        assert_eq!(
            scores.get(&row[1].to_string()),
            Some(&best),
            "item {id}: {row:?} vs {scores:?}"
        );
    }
}

/// `profile_a` and `profile_b`, each at parallelism 1, 2 and 4.
fn engines() -> [Database; 6] {
    let parallelism = [1, 2, 4];
    let profiles = [EngineConfig::profile_a(), EngineConfig::profile_b()];
    [0, 1, 2, 3, 4, 5]
        .map(|i| Database::with_config(profiles[i / 3].with_parallelism(parallelism[i % 3])))
}

/// [`same_every_way`] under each profile, and the same rows, to the bit,
/// under both.
fn same_everywhere(dbs: &[Database; 6], sql: &str) -> (Vec<Row>, bool) {
    let (a, fanned_out) = same_every_way([&dbs[0], &dbs[1], &dbs[2]], sql);
    let (b, _) = same_every_way([&dbs[3], &dbs[4], &dbs[5]], sql);
    assert_eq!(
        bits(&a),
        bits(&b),
        "rows of {sql} under profile_a and profile_b"
    );
    (a, fanned_out)
}

#[test]
fn every_model_call_is_the_same_pushed_and_over_morsels_and_equals_the_oracle() {
    let dbs = engines();
    let models = dbs.each_ref().map(|db| load(db, MANY_DOCS));
    let gen = models[0].generator();

    // Fit the first half (a partial_fit into the empty corpus), add the
    // second, take back the middle: 256 documents of each class remain.
    let mut oracle = BornClassifier::new();
    for (lo, hi, sign) in [(1, 1024, 1.0), (1025, MANY_DOCS, 1.0), (513, 1536, -1.0)] {
        let spec = train(lo, hi);
        let (cells, fanned_out) =
            same_everywhere(&dbs, source_query(&gen.partial_fit(&spec, sign)));
        assert!(!cells.is_empty() && fanned_out);
        for model in &models {
            if sign > 0.0 {
                model.partial_fit(&spec).unwrap();
            } else {
                model.unlearn(&spec).unwrap();
            }
        }
        if sign > 0.0 {
            oracle.partial_fit(&items(lo..=hi));
        } else {
            oracle.unlearn(&items(lo..=hi));
        }
        assert_corpus_is(&models, &oracle);
    }
    let weights = oracle
        .deploy(HyperParams::new(1.0, 1.0, 0.0).unwrap())
        .unwrap();

    // Undeployed: HW_jk computed on the fly.
    let (rows, fanned_out) = same_everywhere(&dbs, &gen.predict(&arms(), false));
    assert!(fanned_out);
    assert_eq!(rows.len(), MANY_DOCS as usize);
    assert_labels_are_argmax(&rows, &weights);

    let (cached, _) = same_everywhere(&dbs, source_query(&gen.deploy()));
    assert_eq!(cached.len(), weights.n_weights());
    for row in &cached {
        let (j, k) = (row[0].to_string(), row[1].to_string());
        let want = weights
            .weight_entries()
            .find(|(wj, wk, _)| **wj == j && **wk == k);
        assert_eq!(
            want.map(|(_, _, w)| w),
            Some(float(&row[2])),
            "weight ({j}, {k})"
        );
    }
    for model in &models {
        model.deploy().unwrap();
        assert!(model.is_deployed());
    }

    // Deployed: every document, one at a time (an index join), a batch.
    let (rows, fanned_out) = same_everywhere(&dbs, &gen.predict(&arms(), true));
    assert!(fanned_out);
    assert_eq!(rows.len(), MANY_DOCS as usize);
    assert_labels_are_argmax(&rows, &weights);
    for id in [1, 77, 200, MANY_DOCS] {
        let (rows, fanned_out) = same_everywhere(&dbs, &gen.predict(&one(id), true));
        assert!(!fanned_out, "a single-item predict stays serial");
        assert_eq!(rows.len(), 1);
        assert_labels_are_argmax(&rows, &weights);
    }
    let batch: Vec<Value> = (0..64).map(|i| Value::Int(3 + i * 4)).collect();
    let (rows, _) = same_everywhere(&dbs, &gen.predict_batch(&arms(), true, &batch).unwrap());
    assert_eq!(rows.iter().map(|r| r[0].clone()).collect::<Vec<_>>(), batch);
    assert_labels_are_argmax(&rows, &weights);

    // A local explanation: the oracle's top cells, in the oracle's order.
    let top = 12;
    let id = 42;
    let (explained, _) = same_everywhere(&dbs, &gen.explain_local(&one(id), true, Some(top)));
    let expected = weights.explain_local(&[(features(id), 1.0)]);
    assert_eq!(explained.len(), top);
    for (row, (j, k, w)) in explained.iter().zip(&expected) {
        assert_eq!(
            float(&row[2]),
            *w,
            "explanation row {row:?} vs ({j}, {k}, {w})"
        );
    }
}

/// The flat shape of the same documents: one `features (n, term, cnt)`
/// table, one arm.
fn load_flat(db: &Database) -> (BornSqlModel<'_, Database>, DataSpec) {
    db.execute_script(
        "CREATE TABLE features (n INTEGER, term TEXT, cnt REAL);
         CREATE TABLE labels (n INTEGER, y INTEGER);",
    )
    .unwrap();
    let features_of = |id| features(id).into_iter().map(move |(j, w)| (id, j, w));
    let rows = (1..=DOCS).flat_map(features_of);
    let rows = rows.map(|(id, j, w)| vec![Value::Int(id), Value::text(j), Value::Float(w)]);
    db.insert_rows("features", rows.collect()).unwrap();
    let labels = (1..=DOCS).map(|id| vec![Value::Int(id), Value::Int(class(id))]);
    db.insert_rows("labels", labels.collect()).unwrap();
    let spec = DataSpec::new("SELECT n, term AS j, cnt AS w FROM features")
        .with_targets("SELECT n, y AS k, 1.0 AS w FROM labels");
    let model = BornSqlModel::create(db, "flat", ModelOptions::default()).unwrap();
    (model, spec)
}

/// The deploy chain (paper §3.3) reads `p_jk` four times, `w_jk` three
/// times and `abh` twice. Each runs once: the plan of an undeployed global
/// explanation and of deploy's `SELECT` scans `{model}_corpus` once and
/// holds one copy of `w_jk`'s join (`p_jk ⋈ p_j ⋈ p_k`, two of the plan's
/// four hash joins), on the star shape and the flat one alike.
#[test]
fn the_deploy_chain_scans_the_corpus_once_and_joins_w_jk_once() {
    let (star_db, flat_db) = (Database::new(), Database::new());
    let star = load(&star_db, DOCS);
    star.fit(&train(1, DOCS)).unwrap();
    let (flat, spec) = load_flat(&flat_db);
    flat.fit(&spec).unwrap();
    for (db, model) in [(&star_db, &star), (&flat_db, &flat)] {
        let gen = model.generator();
        let corpus_scan = format!("Scan [{} rows × 3 cols]", model.corpus_cells().unwrap());
        for sql in [
            gen.explain_global(false, None),
            source_query(&gen.deploy()).to_string(),
        ] {
            let plan = db.explain(&sql).unwrap();
            let count = |label: &str| plan.lines().filter(|l| l.contains(label)).count();
            assert_eq!(count(&corpus_scan), 1, "{plan}");
            assert_eq!(count("Shared cte=p_jk refs=4"), 1, "{plan}");
            assert_eq!(count("Shared cte=w_jk refs=3"), 1, "{plan}");
            assert_eq!(count("Shared cte=w_jk (reused)"), 2, "{plan}");
            assert_eq!(count("HashJoin"), 4, "{plan}");
        }
    }
}

/// `profile_b` shares every CTE at execution, so its statements are plan
/// templates like `profile_a`'s: a predict for a second item binds the
/// first one's plan.
#[test]
fn profile_b_serves_a_second_item_from_the_first_ones_plan() {
    let db = Database::with_config(EngineConfig::profile_b());
    let model = load(&db, DOCS);
    model.fit(&train(1, DOCS)).unwrap();
    model.deploy().unwrap();
    db.reset_plan_cache_stats();
    let first = model.predict(&one(5)).unwrap();
    assert_eq!(db.plan_cache_stats(), (0, 1));
    let second = model.predict(&one(6)).unwrap();
    assert_eq!(db.plan_cache_stats(), (1, 1));
    assert_eq!(first[0].0, Value::Int(5));
    assert_eq!(second[0].0, Value::Int(6));
}

/// How far `exec.rows_materialized` moves over one run of `sql`, and the
/// plan it ran.
fn materialized(db: &Database, sql: &str) -> (u64, String) {
    let ((), held) = held_by(db, || {
        db.query(sql).unwrap();
    });
    (held, db.explain(sql).unwrap())
}

/// Which input each hash join of each model call builds on, and how many
/// rows the call holds (`exec.rows_materialized`). A deployed predict-all
/// builds on the weights scan, its smaller input, held without a copy, and
/// streams `x_nj` through the probe into the `(n, k)` aggregate: it holds
/// the 1,024 `(n, k)` scores the window ranks, the 256 winners the sort
/// orders and the one-row `abh` — no feature row. A single-item predict, a
/// local explanation, `partial_fit` and `deploy` build every hash join on
/// its right input, and each star arm filters its scan by the items' keys
/// (`probe=keyset(index)`), which is what makes a single-item predict
/// cheap.
#[test]
fn a_deployed_predict_all_hashes_its_weights_and_training_builds_right() {
    let (star_db, flat_db) = (Database::new(), Database::new());
    let star = load(&star_db, DOCS);
    star.fit(&train(1, DOCS)).unwrap();
    star.deploy().unwrap();
    let (flat, flat_spec) = load_flat(&flat_db);
    flat.fit(&flat_spec).unwrap();
    flat.deploy().unwrap();
    let batch: Vec<Value> = (0..64).map(|i| Value::Int(3 + i * 4)).collect();
    let count = |plan: &str, label: &str| plan.lines().filter(|l| l.contains(label)).count();
    let keyset_arm = "build=right] probe=keyset(index)";

    for (db, model, spec, fit) in [
        (&star_db, &star, arms(), train(1, DOCS)),
        (&flat_db, &flat, flat_spec.clone(), flat_spec),
    ] {
        let gen = model.generator();
        let star = spec.qx.len() == 4;
        let one = |id: i64| spec.clone().with_items(format!("SELECT {id} AS n"));

        let (held, plan) = materialized(db, &gen.predict(&spec, true));
        assert_eq!(held, 1024 + 256 + 1, "{plan}");
        assert_eq!(
            count(&plan, "HashJoin [Inner, 1 keys, build=left]"),
            1,
            "{plan}"
        );

        // A single item and a local explanation: no hash join builds left.
        let arms = if star { 3 } else { 1 };
        for (sql, want) in [
            (gen.predict(&one(5), true), 7),
            (gen.explain_local(&one(42), true, Some(12)), 35),
        ] {
            let (held, plan) = materialized(db, &sql);
            assert_eq!(held, want, "{plan}");
            assert_eq!(count(&plan, "build=left"), 0, "{plan}");
            assert_eq!(count(&plan, keyset_arm), arms, "{plan}");
        }

        // A batch of 64: every arm filters its scan. On the star shape the
        // four arms are estimated at 64 rows each, at least twice the
        // weights table of this small corpus, which the join with `x_nj`
        // then builds on; against `bulk_cycle`'s weights the same join is an
        // index nested loop.
        let (held, plan) = materialized(db, &gen.predict_batch(&spec, true, &batch).unwrap());
        match star {
            true => {
                assert_eq!(held, 385, "{plan}");
                assert_eq!(count(&plan, "build=left"), 1, "{plan}");
                assert_eq!(count(&plan, keyset_arm), 4, "{plan}");
            }
            false => {
                assert_eq!(held, 897, "{plan}");
                assert_eq!(count(&plan, "build=left"), 0, "{plan}");
            }
        }

        // Training and deployment: every hash join builds on its right input.
        let partial_fit = gen.partial_fit(&fit, 1.0);
        for (sql, want) in [
            (source_query(&partial_fit), if star { 2816 } else { 2560 }),
            (source_query(&gen.deploy()), 457),
        ] {
            let (held, plan) = materialized(db, sql);
            assert_eq!(held, want, "{plan}");
            assert_eq!(count(&plan, "build=left"), 0, "{plan}");
        }
    }
}
