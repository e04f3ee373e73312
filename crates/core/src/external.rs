//! Inference and training on data *outside* the database (paper §7,
//! "External data").
//!
//! Items that never lived in the database can still be classified: their
//! feature rows are written to a temporary table, predicted, and the table
//! is dropped. Likewise, externally computed `P_jk` increments can be
//! merged into the corpus without importing the raw training data.

use crate::error::Result;
use crate::model::{BornSqlModel, Prediction, Probability, SqlBackend, Weight};
use crate::spec::DataSpec;

/// An external item: identifier plus sparse features.
pub type ExternalItem = (i64, Vec<(String, f64)>);

impl<'c, C: SqlBackend> BornSqlModel<'c, C> {
    fn with_external_table<T>(
        &self,
        items: &[ExternalItem],
        f: impl FnOnce(&DataSpec) -> Result<T>,
    ) -> Result<T> {
        let table = format!("{}_external_items", self.name());
        self.backend()
            .execute_sql(&format!("DROP TABLE IF EXISTS {table}"))?;
        self.backend()
            .execute_sql(&format!("CREATE TABLE {table} (n INTEGER, j TEXT, w REAL)"))?;
        let quote = |s: &str| s.replace('\'', "''");
        for chunk in items.chunks(256) {
            let mut values = Vec::new();
            for (id, features) in chunk {
                for (j, w) in features {
                    values.push(format!("({id}, '{}', {w})", quote(j)));
                }
            }
            if values.is_empty() {
                continue;
            }
            self.backend()
                .execute_sql(&format!("INSERT INTO {table} VALUES {}", values.join(", ")))?;
        }
        let spec = DataSpec::new(format!("SELECT n, j, w FROM {table}"));
        let result = f(&spec);
        self.backend().execute_sql(&format!("DROP TABLE {table}"))?;
        result
    }

    /// Classify items supplied from outside the database.
    pub fn predict_items(&self, items: &[ExternalItem]) -> Result<Vec<Prediction>> {
        self.with_external_table(items, |spec| self.predict(spec))
    }

    /// Class probabilities for external items.
    pub fn predict_proba_items(&self, items: &[ExternalItem]) -> Result<Vec<Probability>> {
        self.with_external_table(items, |spec| self.predict_proba(spec))
    }

    /// Local explanation for external items (uniform sample weights).
    pub fn explain_items(
        &self,
        items: &[ExternalItem],
        limit: Option<usize>,
    ) -> Result<Vec<Weight>> {
        self.with_external_table(items, |spec| self.explain_local(spec, limit))
    }

    /// Merge externally computed corpus increments `(j, k, ΔP_jk)` —
    /// training on data that never enters the database. Negative deltas
    /// unlearn.
    pub fn merge_corpus(&self, cells: &[(String, String, f64)]) -> Result<usize> {
        let quote = |s: &str| s.replace('\'', "''");
        let corpus = self.generator().corpus_table();
        let is_int = self.class_type() == "INTEGER";
        let mut n = 0;
        for chunk in cells.chunks(256) {
            let values: Vec<String> = chunk
                .iter()
                .map(|(j, k, w)| {
                    let k_lit = if is_int {
                        k.clone()
                    } else {
                        format!("'{}'", quote(k))
                    };
                    format!("('{}', {k_lit}, {w})", quote(j))
                })
                .collect();
            n += self.backend().execute_sql(&format!(
                "INSERT INTO {corpus} (j, k, w) VALUES {} {}",
                values.join(", "),
                self.generator().dialect.upsert_accumulate(&corpus),
            ))?;
        }
        // Clean numerically-cancelled cells, as unlearn does.
        self.backend()
            .execute_sql(&self.generator().prune_corpus())?;
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dialect::Dialect;
    use crate::model::ModelOptions;
    use sqlengine::{Database, Value};

    fn trained() -> (Database, &'static str) {
        let db = Database::new();
        db.execute_script(
            "CREATE TABLE d (n INTEGER, j TEXT, w REAL);
             CREATE TABLE l (n INTEGER, k TEXT);
             INSERT INTO d VALUES (1, 'robot', 2.0), (2, 'poisson', 2.0);
             INSERT INTO l VALUES (1, 'ai'), (2, 'stats');",
        )
        .unwrap();
        (db, "ext")
    }

    #[test]
    fn external_items_are_classified_and_cleaned_up() {
        let (db, name) = trained();
        let model = BornSqlModel::create(&db, name, ModelOptions::default()).unwrap();
        model
            .fit(
                &DataSpec::new("SELECT n, j, w FROM d")
                    .with_targets("SELECT n, k AS k, 1.0 AS w FROM l"),
            )
            .unwrap();
        model.deploy().unwrap();

        let items: Vec<ExternalItem> = vec![
            (100, vec![("robot".into(), 1.0)]),
            (101, vec![("poisson".into(), 3.0)]),
        ];
        let preds = model.predict_items(&items).unwrap();
        assert_eq!(preds.len(), 2);
        assert_eq!(preds[0].1, Value::text("ai"));
        assert_eq!(preds[1].1, Value::text("stats"));
        // Temp table is gone.
        assert!(!db.has_table("ext_external_items"));

        let proba = model.predict_proba_items(&items).unwrap();
        assert!(!proba.is_empty());
        let local = model.explain_items(&items[..1], Some(3)).unwrap();
        assert!(!local.is_empty());
    }

    /// The upsert tail is the dialect's own, and every dialect executes.
    #[test]
    fn merge_corpus_accumulates_and_prunes() {
        for dialect in Dialect::ALL {
            let (db, name) = trained();
            let options = ModelOptions {
                dialect,
                ..ModelOptions::default()
            };
            let model = BornSqlModel::create(&db, name, options).unwrap();
            model
                .merge_corpus(&[
                    ("f1".into(), "k1".into(), 0.5),
                    ("f1".into(), "k1".into(), 0.25),
                    ("f2".into(), "k2".into(), 1.0),
                ])
                .unwrap();
            assert_eq!(model.corpus_cells().unwrap(), 2, "{dialect:?}");
            let corpus = model.corpus().unwrap();
            let f1 = corpus
                .iter()
                .find(|(j, _, _)| j.to_string() == "f1")
                .unwrap();
            assert!((f1.2 - 0.75).abs() < 1e-12, "{dialect:?}");
            // Negative delta unlearns the cell completely.
            model
                .merge_corpus(&[("f2".into(), "k2".into(), -1.0)])
                .unwrap();
            assert_eq!(model.corpus_cells().unwrap(), 1, "{dialect:?}");
        }
    }

    #[test]
    fn quotes_in_feature_names_are_escaped() {
        let (db, name) = trained();
        let model = BornSqlModel::create(&db, name, ModelOptions::default()).unwrap();
        model
            .merge_corpus(&[("it's".into(), "k'1".into(), 1.0)])
            .unwrap();
        model.deploy().unwrap();
        let preds = model
            .predict_items(&[(7, vec![("it's".into(), 1.0)])])
            .unwrap();
        assert_eq!(preds[0].1, Value::text("k'1"));
    }
}
