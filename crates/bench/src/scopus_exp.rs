//! Scopus-like experiments: the paper's Section 4 (Tables 1–4, Figures 3–6).

use bornsql::{BornSqlModel, DataSpec, ModelOptions, Params};
use datasets::scopus::{self, ScopusConfig};
use sqlengine::{Database, EngineConfig};

use crate::harness::{secs, time_it, Table};

/// Engine profiles standing in for the paper's three DBMSs (see DESIGN.md).
pub fn engine_profiles() -> Vec<(&'static str, EngineConfig)> {
    vec![
        (
            "engine-A (hash joins, pipelined CTEs)",
            EngineConfig::profile_a(),
        ),
        (
            "engine-B (hash joins, every CTE run once and held)",
            EngineConfig::profile_b(),
        ),
        ("engine-C (sort-merge joins)", EngineConfig::profile_c()),
    ]
}

/// Build a database with a generated Scopus-like corpus loaded.
pub fn setup(n: usize, drift: bool, config: EngineConfig) -> Database {
    let data = scopus::generate(&ScopusConfig {
        n_publications: n,
        drift,
        ..Default::default()
    });
    let db = Database::with_config(config);
    data.load_into(&db).expect("load scopus data");
    db
}

/// Model options used throughout Section 4 (integer macro-class labels).
pub fn scopus_model_options() -> ModelOptions {
    ModelOptions {
        class_type: "INTEGER",
        params: Params::default(),
        ..Default::default()
    }
}

/// The full training spec (all four q_x arms + q_y), optionally restricted
/// by a q_n item filter.
pub fn train_spec(qn: Option<String>, abstract_only: bool) -> DataSpec {
    let mut spec = DataSpec::default();
    for arm in scopus::qx_arms(abstract_only) {
        spec = spec.with_features(arm);
    }
    spec = spec.with_targets(scopus::qy());
    if let Some(qn) = qn {
        spec = spec.with_items(qn);
    }
    spec
}

/// Inference spec for a set of items.
pub fn test_spec(qn: String) -> DataSpec {
    let mut spec = DataSpec::default();
    for arm in scopus::qx_arms(false) {
        spec = spec.with_features(arm);
    }
    spec.with_items(qn)
}

// ---------------------------------------------------------------------
// Table 1 — distribution of subject areas
// ---------------------------------------------------------------------

pub fn table1(n: usize) -> Table {
    let data = scopus::generate(&ScopusConfig {
        n_publications: n,
        ..Default::default()
    });
    let mut t = Table::new(
        format!("Table 1: distribution of subject areas (n = {n}, paper n = 2,359,828)"),
        &["k", "subject area", "count", "fraction", "paper fraction"],
    );
    let names = [
        (17, "Artificial Intelligence", 0.434),
        (18, "Decision Sciences", 0.385),
        (26, "Statistics and Probability", 0.181),
    ];
    let dist = data.class_distribution();
    let total: usize = dist.iter().map(|(_, c)| c).sum();
    for (k, name, paper_frac) in names {
        let count = dist
            .iter()
            .find(|(c, _)| *c == k)
            .map(|(_, n)| *n)
            .unwrap_or(0);
        t.row(vec![
            k.to_string(),
            name.to_string(),
            count.to_string(),
            format!("{:.3}", count as f64 / total as f64),
            format!("{paper_frac:.3}"),
        ]);
    }
    t.row(vec![
        "".into(),
        "Total".into(),
        total.to_string(),
        "1.000".into(),
        "1.000".into(),
    ]);
    t
}

// ---------------------------------------------------------------------
// Table 2 — example transformed item (the q_x output for one publication)
// ---------------------------------------------------------------------

pub fn table2(db: &Database, item: i64) -> Table {
    let mut t = Table::new(
        format!("Table 2: transformed item n = {item} (q_x output)"),
        &["n", "j", "w"],
    );
    let arms = scopus::qx_arms(false);
    let union = arms
        .iter()
        .map(|a| format!("SELECT n, j, w FROM ({a}) AS arm WHERE arm.n = {item}"))
        .collect::<Vec<_>>()
        .join(" UNION ALL ");
    let rows = db
        .query(&format!(
            "SELECT n, j, w FROM ({union}) AS x ORDER BY j LIMIT 15"
        ))
        .expect("table 2 query");
    for row in rows.rows {
        t.row(vec![
            row[0].to_string(),
            row[1].to_string(),
            format!("{}", row[2]),
        ]);
    }
    t
}

// ---------------------------------------------------------------------
// Figure 3 — training time (fit and partial fit) vs number of items
// ---------------------------------------------------------------------

/// For each engine profile and each decile, measure (a) fitting from
/// scratch on `id % 10 <= k-1` and (b) incrementally adding decile `k`.
pub fn figure3(n: usize, steps: &[usize]) -> Table {
    let mut t = Table::new(
        format!("Figure 3: training time vs items (scopus-like, n = {n})"),
        &[
            "engine",
            "subsample %",
            "items",
            "fit (s)",
            "partial fit (s)",
        ],
    );
    for (name, config) in engine_profiles() {
        let db = setup(n, false, config);
        // Incremental model accumulates decile by decile.
        let inc = BornSqlModel::create(&db, "inc", scopus_model_options())
            .expect("create incremental model");
        for &pct in steps {
            let k = pct / 10; // decile count
            let fit_spec = train_spec(
                Some(format!(
                    "SELECT id AS n FROM publication WHERE id % 10 <= {}",
                    k as i64 - 1
                )),
                false,
            );
            // Fresh fit on the cumulative subsample.
            let model = BornSqlModel::create(&db, "scratch", scopus_model_options())
                .expect("create scratch model");
            let (r, fit_time) = time_it(|| model.fit(&fit_spec));
            r.expect("fit");
            // Incremental: add only the new decile.
            let partial_spec = train_spec(
                Some(format!(
                    "SELECT id AS n FROM publication WHERE id % 10 = {}",
                    k as i64 - 1
                )),
                false,
            );
            let (r, partial_time) = time_it(|| inc.partial_fit(&partial_spec));
            r.expect("partial fit");
            let items = db
                .query_scalar(&format!(
                    "SELECT COUNT(*) FROM publication WHERE id % 10 <= {}",
                    k as i64 - 1
                ))
                .unwrap();
            t.row(vec![
                name.to_string(),
                pct.to_string(),
                items.to_string(),
                secs(fit_time),
                secs(partial_time),
            ]);
        }
    }
    t
}

// ---------------------------------------------------------------------
// Figure 4 — deployment time vs number of features
// ---------------------------------------------------------------------

pub fn figure4(n: usize, steps: &[usize]) -> Table {
    let mut t = Table::new(
        format!("Figure 4: deployment time vs features (scopus-like, n = {n})"),
        &["subsample %", "features", "deploy (s)"],
    );
    let db = setup(n, false, EngineConfig::profile_a());
    for &pct in steps {
        let k = pct / 10;
        let model = BornSqlModel::create(&db, "m4", scopus_model_options()).unwrap();
        model
            .fit(&train_spec(
                Some(format!(
                    "SELECT id AS n FROM publication WHERE id % 10 <= {}",
                    k as i64 - 1
                )),
                false,
            ))
            .unwrap();
        let features = model.n_features().unwrap();
        let (r, deploy_time) = time_it(|| model.deploy());
        r.unwrap();
        t.row(vec![
            pct.to_string(),
            features.to_string(),
            secs(deploy_time),
        ]);
    }
    t
}

// ---------------------------------------------------------------------
// Figure 5 — feature growth and deployment time under three scenarios
// ---------------------------------------------------------------------

pub fn figure5(n: usize, steps: &[usize]) -> Table {
    let mut t = Table::new(
        format!("Figure 5: features seen and deployment time, three scenarios (n = {n})"),
        &["scenario", "training %", "features", "deploy (s)"],
    );
    // (a/d) stationary, all attribute families.
    let scenarios: Vec<(&str, bool, bool)> = vec![
        ("(a/d) stationary", false, false),
        ("(b/e) chronological drift", true, false),
        ("(c/f) abstract-only, stationary", false, true),
    ];
    for (label, drift, abstract_only) in scenarios {
        let db = setup(n, drift, EngineConfig::profile_a());
        for &pct in steps {
            let qn = if drift {
                // Chronological split: the first pct% of ids.
                format!(
                    "SELECT id AS n FROM publication WHERE id <= {}",
                    (n * pct) / 100
                )
            } else {
                format!(
                    "SELECT id AS n FROM publication WHERE id % 10 <= {}",
                    (pct / 10) as i64 - 1
                )
            };
            let model = BornSqlModel::create(&db, "m5", scopus_model_options()).unwrap();
            model.fit(&train_spec(Some(qn), abstract_only)).unwrap();
            let features = model.n_features().unwrap();
            let (r, deploy_time) = time_it(|| model.deploy());
            r.unwrap();
            t.row(vec![
                label.to_string(),
                pct.to_string(),
                features.to_string(),
                secs(deploy_time),
            ]);
        }
    }
    t
}

// ---------------------------------------------------------------------
// Figure 6 — single-item inference time, before and after deployment
// ---------------------------------------------------------------------

pub fn figure6(n: usize, steps: &[usize], batch: usize) -> Table {
    let mut t = Table::new(
        format!("Figure 6: inference time for one item vs model size (n = {n})"),
        &["training %", "features", "undeployed (s)", "deployed (s)"],
    );
    let db = setup(n, false, EngineConfig::profile_a());
    let item_spec = test_spec("SELECT 13 AS n".to_string());
    let mut last_model: Option<BornSqlModel<Database>> = None;
    for &pct in steps {
        let k = pct / 10;
        let model = BornSqlModel::create(&db, "m6", scopus_model_options()).unwrap();
        model
            .fit(&train_spec(
                Some(format!(
                    "SELECT id AS n FROM publication WHERE id % 10 <= {}",
                    k as i64 - 1
                )),
                false,
            ))
            .unwrap();
        model.undeploy().unwrap();
        let features = model.n_features().unwrap();
        let (r, undeployed) = time_it(|| model.predict(&item_spec));
        r.unwrap();
        model.deploy().unwrap();
        let (r, deployed) = time_it(|| model.predict(&item_spec));
        r.unwrap();
        t.row(vec![
            pct.to_string(),
            features.to_string(),
            secs(undeployed),
            secs(deployed),
        ]);
        last_model = Some(model);
    }
    // The paper's closing measurement: 1000-item batch on the full model.
    if let Some(model) = last_model {
        let batch_spec = test_spec(format!(
            "SELECT id AS n FROM publication WHERE id <= {batch}"
        ));
        let (r, batch_time) = time_it(|| model.predict(&batch_spec));
        let preds = r.unwrap();
        t.row(vec![
            format!("batch of {}", preds.len()),
            "-".into(),
            "-".into(),
            format!(
                "{} total, {:.3} ms/item",
                secs(batch_time),
                batch_time.as_secs_f64() * 1000.0 / preds.len().max(1) as f64
            ),
        ]);
    }
    t
}

// ---------------------------------------------------------------------
// Tables 3 and 4 — global and local explanations
// ---------------------------------------------------------------------

/// Fit + deploy a model on the full corpus and return it with its database.
pub fn full_model(n: usize) -> (Database, &'static str) {
    let db = setup(n, false, EngineConfig::profile_a());
    let model = BornSqlModel::create(&db, "full", scopus_model_options()).unwrap();
    model.fit(&train_spec(None, false)).unwrap();
    model.deploy().unwrap();
    (db, "full")
}

pub fn table3(db: &Database, model_name: &str, per_class: usize) -> Table {
    let model = BornSqlModel::attach(db, model_name, scopus_model_options()).expect("attach model");
    let mut t = Table::new(
        "Table 3: global explanation (top features per class)",
        &["k", "j", "w"],
    );
    let global = model.explain_global(None).expect("global explanation");
    for class in [17i64, 18, 26] {
        let mut shown = 0;
        for (j, k, w) in &global {
            if k.as_i64().ok().flatten() == Some(class) {
                t.row(vec![class.to_string(), j.to_string(), format!("{w:.4}")]);
                shown += 1;
                if shown >= per_class {
                    break;
                }
            }
        }
    }
    t
}

pub fn table4(db: &Database, model_name: &str, item: i64, top: usize) -> Table {
    let model = BornSqlModel::attach(db, model_name, scopus_model_options()).expect("attach model");
    let mut t = Table::new(
        format!("Table 4: local explanation for item n = {item}"),
        &["k", "j", "w"],
    );
    let spec = test_spec(format!("SELECT {item} AS n"));
    let local = model
        .explain_local(&spec, Some(top))
        .expect("local explanation");
    for (j, k, w) in local {
        t.row(vec![k.to_string(), j.to_string(), format!("{w:.6}")]);
    }
    // Context: the model's prediction for the item.
    let pred = model.predict(&spec).expect("prediction");
    if let Some((n, k)) = pred.first() {
        t.row(vec![format!("predicted[{n}]"), "→".into(), k.to_string()]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_has_three_classes_plus_total() {
        let t = table1(2_000);
        assert_eq!(t.rows.len(), 4);
    }

    #[test]
    fn figure3_small_run_produces_rows() {
        let t = figure3(400, &[50, 100]);
        // 3 engines × 2 steps.
        assert_eq!(t.rows.len(), 6);
        // Times are parseable seconds.
        for row in &t.rows {
            row[3].parse::<f64>().unwrap();
            row[4].parse::<f64>().unwrap();
        }
    }

    #[test]
    fn figure6_deployed_is_faster() {
        let t = figure6(600, &[100], 50);
        let undeployed: f64 = t.rows[0][2].parse().unwrap();
        let deployed: f64 = t.rows[0][3].parse().unwrap();
        assert!(
            deployed < undeployed,
            "deployed {deployed} must beat undeployed {undeployed}"
        );
    }

    #[test]
    fn figure5_scenarios_have_the_paper_shapes() {
        let t = figure5(1_500, &[20, 60, 100]);
        let features = |scenario: &str, pct: &str| -> f64 {
            t.rows
                .iter()
                .find(|r| r[0].starts_with(scenario) && r[1] == pct)
                .map(|r| r[2].parse::<f64>().unwrap())
                .unwrap()
        };
        // (a) stationary: sublinear growth — tripling items from 20% to 60%
        // must far less than triple the features.
        let a_growth = features("(a/d)", "60") / features("(a/d)", "20");
        assert!(a_growth < 2.0, "stationary growth {a_growth}");
        // (b) drift: superlinear relative to (a).
        let b_growth = features("(b/e)", "100") / features("(b/e)", "20");
        assert!(b_growth > a_growth, "drift must outgrow stationary");
        // (c) abstract-only: saturates — only marginal growth over the last 40%
        // (threshold loose because vocab saturation is partial at test scale).
        let c_tail = features("(c/f)", "100") / features("(c/f)", "60");
        assert!(c_tail < 1.15, "abstract-only must saturate, got {c_tail}");
    }

    #[test]
    fn explanations_render() {
        let (db, name) = full_model(500);
        let t3 = table3(&db, name, 3);
        assert!(t3.rows.len() >= 6, "rows: {}", t3.rows.len());
        let t4 = table4(&db, name, 13, 10);
        assert!(!t4.rows.is_empty());
    }
}
